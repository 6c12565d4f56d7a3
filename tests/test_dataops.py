"""Dataops tests: dedup family, similarity search, text stats,
multimodal plumbing."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data


def _docs_ds():
    rows = {
        "doc_id": [1, 2, 3, 4, 5, 6],
        "text": [
            "the quick brown fox jumps over the lazy dog in the morning sun",
            "the quick brown fox jumps over the lazy dog in the morning sun!",
            "a completely different document about maritime navigation history",
            "the quick brown fox jumps over the lazy dog in the morning sun",
            "short",
            "another unrelated text discussing ancient pottery techniques today",
        ],
    }
    return ray.data.from_pandas(pd.DataFrame(rows))


def test_exact_dedup(ray_session):
    from yago4_ray.dataops.dedup import exact_dedup

    out = exact_dedup(_docs_ds(), "text", "doc_id").to_pandas()
    # docs 1 and 4 are byte-identical → one representative with count 2
    rep = out[out["n_dupes"] == 2]
    assert len(rep) == 1 and rep["doc_id"].iloc[0] == 1
    assert len(out) == 5


def test_minhash_dedup(ray_session):
    from yago4_ray.dataops.dedup import minhash_dedup, ngram_jaccard

    assert ngram_jaccard("abcdefg", "abcdefg") == 1.0
    assert ngram_jaccard("abcdefgh", "zzzzzzzz") == 0.0
    out = minhash_dedup(_docs_ds(), "text", "doc_id", threshold=0.8).to_pandas()
    clusters = dict(zip(out["doc_id"], out["cluster"]))
    # near-identical docs 1/2/4 cluster together; 3 and 6 don't appear
    assert clusters.get(1) == clusters.get(2) == clusters.get(4)
    assert 3 not in clusters and 6 not in clusters


def test_minhash_dedup_without_duplicates(ray_session):
    """A corpus without a candidate pair yields no cluster: the pair
    exchange returns no row, and its result still carries a schema."""
    from yago4_ray.dataops.dedup import minhash_dedup

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [
            "the quick brown fox jumps over the lazy dog",
            "lorem ipsum dolor sit amet consectetur adipiscing",
            "completely different words appear in this one",
            "yet another unrelated sentence about graphs",
        ],
    })
    out = minhash_dedup(
        ray.data.from_pandas(docs), "text", "doc_id", threshold=0.8
    ).to_pandas()
    assert len(out) == 0


def test_simhash_pairs(ray_session):
    from yago4_ray.dataops.dedup import simhash64, simhash_dedup_pairs

    assert simhash64("hello world") == simhash64("hello world")
    out = simhash_dedup_pairs(_docs_ds(), "text", "doc_id").to_pandas()
    pairs = set(zip(out["a"], out["b"]))
    assert (1, 4) in pairs  # identical texts


def test_ngram_jaccard_exact_pairs(ray_session):
    from yago4_ray.dataops.dedup import (
        batch_word_ngram_hashes,
        ngram_jaccard_pairs,
    )

    # kernel: identical docs -> identical shingle sets; <n-word doc
    # emits exactly one whole-doc shingle
    d, h = batch_word_ngram_hashes(["a b c d", "a b c d", "x y"], n=3)
    import numpy as np

    assert set(h[d == 0]) == set(h[d == 1])
    assert (d == 2).sum() == 1

    out = ngram_jaccard_pairs(
        _docs_ds(), "text", "doc_id", n=3, threshold=(1, 2)
    ).to_pandas()
    pairs = {tuple(r) for r in out[["a", "b"]].itertuples(index=False)}
    assert (1, 4) in pairs  # identical texts: jaccard 1
    assert (1, 2) in pairs and (2, 4) in pairs  # one-char diff: high overlap
    assert all(a < b for a, b in pairs)
    # exact counts for the identical pair: union == common
    ident = out[(out["a"] == 1) & (out["b"] == 4)]
    assert int(ident["n_common"].iloc[0]) == int(ident["n_union"].iloc[0])
    # unrelated docs never pair
    assert not any(3 in p or 6 in p for p in pairs)


def test_minhash_clusters_equal_exact_ground_truth(ray_session):
    """The approximate pipeline gated by the EXACT operator it
    approximates: minhash clusters at Jaccard >= 0.8 must equal the
    connected components of the exact char-5-shingle all-pairs graph at
    the same threshold (ngram_jaccard_pairs shingle='char' shares the
    shingle space with batch_shingle_hashes). Deterministic — every
    stage is seeded — so equality is a stable gate, not a flake."""
    from yago4_ray.dataops.dedup import minhash_dedup, ngram_jaccard_pairs

    ds = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    exact = ngram_jaccard_pairs(
        ds, "text", "doc_id", n=5, threshold=(4, 5), shingle="char"
    ).to_pandas()
    assert len(exact) > 0
    # min-label connected components of the exact pair graph
    label: dict = {}

    def find(x):
        while label[x] != x:
            label[x] = label[label[x]]
            x = label[x]
        return x

    for a, b in zip(exact["a"], exact["b"]):
        label.setdefault(a, a)
        label.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = sorted([ra, rb])
            label[hi] = lo
    want = sorted((int(d), int(find(d))) for d in label)

    got_df = minhash_dedup(ds, "text", "doc_id", threshold=0.8).to_pandas()
    got = sorted(zip(got_df["doc_id"].astype(int), got_df["cluster"].astype(int)))
    assert got == want

    # the distributed join-based verify (taken when the candidate set
    # exceeds the broadcast cap) must produce the identical clustering —
    # force it by zeroing the cap
    join_df = minhash_dedup(
        ds, "text", "doc_id", threshold=0.8, broadcast_verify_cap=0
    ).to_pandas()
    joined = sorted(
        zip(join_df["doc_id"].astype(int), join_df["cluster"].astype(int))
    )
    assert joined == want


def test_simhash_pairs_equal_bruteforce(ray_session):
    """The 4x16-band SimHash LSH has a pigeonhole guarantee: any pair at
    hamming <= 3 shares at least one exact band, so the banded operator
    must EQUAL brute-force all-pairs hamming — no recall slack at all."""
    import pyarrow.parquet as pq

    from yago4_ray.dataops.dedup import batch_simhash64, simhash_dedup_pairs

    tbl = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    ids = tbl["doc_id"].to_numpy()
    sh = batch_simhash64(tbl["text"].to_pylist())
    xor = sh[:, None] ^ sh[None, :]
    ham = np.zeros(xor.shape, np.int64)
    for _ in range(64):
        ham += (xor & np.uint64(1)).astype(np.int64)
        xor = xor >> np.uint64(1)
    ii, jj = np.nonzero(np.triu(ham <= 3, k=1))
    want = sorted(
        (int(min(ids[i], ids[j])), int(max(ids[i], ids[j])))
        for i, j in zip(ii, jj)
    )
    assert want  # the corpus plants near-dups; brute force must see them

    ds = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    out = simhash_dedup_pairs(ds, "text", "doc_id").to_pandas()
    got = sorted(zip(out["a"].astype(int), out["b"].astype(int)))
    assert got == want


def test_embedding_dedup(ray_session):
    from yago4_ray.dataops.dedup import embedding_dedup_pairs

    rng = np.random.default_rng(7)
    base = rng.standard_normal((20, 16)).astype(np.float32)
    vecs = np.vstack([base, base[:3] * 1.05])  # 3 planted near-dups
    ds = ray.data.from_pandas(
        pd.DataFrame({"vec_id": list(range(23)), "embedding": [v.tolist() for v in vecs]})
    )
    out = embedding_dedup_pairs(ds, "embedding", "vec_id", threshold=0.99).to_pandas()
    pairs = set(zip(out["a"], out["b"]))
    assert {(0, 20), (1, 21), (2, 22)} <= pairs


def test_embedding_dedup_runs_its_input_once(ray_session, tmp_path):
    """Building the pairs runs the (lazy) input once: the hyperplanes
    come from the seed inside the bucket map, not from a take(1) probe
    of the input, which would run its first block a second time. Each
    run of an input block leaves one file in `tmp_path`."""
    from yago4_ray.dataops.dedup import embedding_dedup_pairs

    marks = str(tmp_path)

    def mark(b):
        import os
        import uuid

        open(os.path.join(marks, uuid.uuid4().hex), "w").close()
        return b

    vecs = np.random.default_rng(7).standard_normal((8, 4))
    df = pd.DataFrame({"vec_id": list(range(8)), "embedding": [v.tolist() for v in vecs]})
    ds = ray.data.from_pandas([df[:4], df[4:]]).map_batches(
        mark, batch_format="pandas", batch_size=None
    )
    embedding_dedup_pairs(ds, "embedding", "vec_id").materialize()
    assert len(list(tmp_path.iterdir())) == 2


def test_minhash_oversized_bucket_star_link(ray_session):
    """Buckets above bucket_cap are star-linked through their min doc,
    not dropped: a 4-identical-doc bucket with cap 2 must still produce
    one 4-doc cluster (the star edges all verify at Jaccard 1)."""
    from yago4_ray.dataops.dedup import minhash_dedup

    same = "the quick brown fox jumps over the lazy dog in the morning sun"
    ds = ray.data.from_pandas(
        pd.DataFrame(
            {
                "doc_id": [1, 2, 3, 4, 5],
                "text": [same] * 4
                + ["a completely different document about maritime history"],
            }
        )
    )
    out = minhash_dedup(ds, "text", "doc_id", bucket_cap=2).to_pandas()
    clusters = dict(zip(out["doc_id"], out["cluster"]))
    assert clusters == {1: 1, 2: 1, 3: 1, 4: 1}


def test_embedding_oversized_bucket_split(ray_session):
    """Buckets above bucket_cap are recursively plane-split, not
    dropped: with one hyperplane (2 giant buckets) and cap 8, planted
    scalar-multiple dups (which share the sign of EVERY plane, so no
    split can separate them) must all still be found."""
    from yago4_ray.dataops.dedup import embedding_dedup_pairs

    rng = np.random.default_rng(11)
    base = rng.standard_normal((40, 16)).astype(np.float32)
    vecs = np.vstack([base, base[:5] * 1.05])
    ds = ray.data.from_pandas(
        pd.DataFrame(
            {"vec_id": list(range(45)), "embedding": [v.tolist() for v in vecs]}
        )
    )
    out = embedding_dedup_pairs(
        ds, "embedding", "vec_id", threshold=0.999, num_planes=1, bucket_cap=8
    ).to_pandas()
    pairs = set(zip(out["a"], out["b"]))
    assert {(i, 40 + i) for i in range(5)} <= pairs


def test_similarity_brute_vs_ivf(ray_session):
    from yago4_ray.dataops.similarity import brute_force_topk, ivf_topk

    rng = np.random.default_rng(11)
    mat = rng.standard_normal((300, 12)).astype(np.float32)
    ds = ray.data.from_pandas(
        pd.DataFrame(
            {"vec_id": list(range(300)), "embedding": [v.tolist() for v in mat]}
        )
    )
    queries = mat[:2]
    exact = brute_force_topk(ds, queries, k=5)
    # each query's own vector is its top hit (cosine 1)
    assert exact[exact["query_idx"] == 0].iloc[0]["id"] == 0
    assert exact[exact["query_idx"] == 1].iloc[0]["id"] == 1
    approx = ivf_topk(ds, queries, k=5, n_centroids=8, nprobe=4)
    # recall@5 of IVF vs exact should be decent with half the lists probed
    for qi in (0, 1):
        e = set(exact[exact["query_idx"] == qi]["id"])
        a = set(approx[approx["query_idx"] == qi]["id"])
        assert len(e & a) >= 3


def test_brute_force_pairs_guard(ray_session):
    """brute_force_pairs broadcasts the whole corpus — it must refuse
    above max_rows with a pointer to the LSH scale path, and keep
    working (explicit override) below/at it."""
    import pytest

    from yago4_ray.dataops.similarity import brute_force_pairs

    rng = np.random.default_rng(3)
    mat = rng.standard_normal((12, 8)).astype(np.float32)
    ds = ray.data.from_pandas(
        pd.DataFrame(
            {"vec_id": list(range(12)), "embedding": [v.tolist() for v in mat]}
        )
    )
    with pytest.raises(ValueError, match="embedding_dedup_pairs"):
        brute_force_pairs(ds, threshold=0.9, max_rows=5)
    out = brute_force_pairs(ds, threshold=-1.1, max_rows=12).to_pandas()
    assert len(out) == 12 * 11 // 2  # all pairs pass at threshold < -1


def test_brute_force_pairs_runs_input_once(ray_session, monkeypatch):
    """brute_force_pairs executes its (lazy) input pipeline once per
    call: the row-count guard and the broadcast side both read one
    materialization, not a count() pass and then a second collect."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from yago4_ray.dataops.similarity import brute_force_pairs

    calls = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        calls.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    vecs = np.random.default_rng(11).standard_normal((10, 4))
    ds = ray.data.from_pandas(
        pd.DataFrame({"vec_id": list(range(10)), "embedding": [v.tolist() for v in vecs]})
    ).map_batches(lambda b: b, batch_format="pandas")
    pairs = brute_force_pairs(ds, threshold=-1.1, max_rows=10)
    assert len(calls) == 1, len(calls)
    assert len(pairs.to_pandas()) == 10 * 9 // 2


def test_fit_centroids_row_cap(ray_session):
    """The centroid sample is capped by ROW COUNT: with a cap smaller
    than the corpus the driver never sees more than max_sample_rows
    rows, and the fit still returns usable unit-norm centroids."""
    from yago4_ray.dataops.similarity import fit_centroids

    rng = np.random.default_rng(5)
    mat = rng.standard_normal((400, 8)).astype(np.float32)
    ds = ray.data.from_pandas(
        pd.DataFrame(
            {"vec_id": list(range(400)), "embedding": [v.tolist() for v in mat]}
        )
    )
    cents = fit_centroids(
        ds, n_centroids=4, sample_fraction=1.0, max_sample_rows=64
    )
    assert cents.shape == (4, 8)
    assert np.allclose(np.linalg.norm(cents, axis=1), 1.0, atol=1e-5)


def test_text_stats(ray_session):
    from yago4_ray.dataops.textstats import (
        detect_language,
        fingerprint64,
        quality_score,
        text_stats,
        token_count,
    )

    assert token_count("a b  c") == 3
    assert detect_language("the cat and the dog of the house") == "en"
    assert detect_language("der Hund und die Katze sind im Haus nicht") == "de"
    assert detect_language("12345") == "und"
    assert quality_score("") == 0.0
    assert 0 <= quality_score("the quick brown fox jumps over the lazy dog") <= 1
    assert fingerprint64("same text here") == fingerprint64("same text here")
    out = text_stats(_docs_ds(), "text", concurrency=2).to_pandas()
    assert {"n_tokens", "n_bpe_tokens", "lang_pred", "quality", "fingerprint"} <= set(
        out.columns
    )
    assert (out["n_tokens"] > 0).all()


def test_text_stats_batch_kernel_parity():
    """The Arrow/numpy batch kernel must agree with the per-row Python
    reference kernels on realistic corpus text AND the known RE2/Python
    divergence zones (Unicode whitespace, accented words, case folds)."""
    from yago4_ray.dataops.textstats import (
        bpe_ish_token_count,
        detect_language,
        fingerprint64,
        quality_score,
        stats_frame,
        token_count,
    )

    docs = pd.read_parquet("/root/testdata/sf0.001/documents.parquet")
    texts = list(docs["text"].astype(str).head(200))
    texts += [
        "",
        "   ",
        "short",
        "tabs\tand\nnewlines\r\nhere",
        "non breaking spaces",
        "Élan café naïve Zürich ÿ × ÷ Ÿ İstanbul",
        "punct!!! soup??? ###$$$ %%%",
        "mixed 123 abc42 _under_score_ 9.81m/s²",
        "the der le el the der le el",
        "x" * 500,
        "a " * 300,
    ]
    s = pd.Series(texts)
    got = stats_frame(s)
    for i, t in enumerate(texts):
        assert got["n_tokens"][i] == token_count(t), (i, t)
        assert got["n_bpe_tokens"][i] == bpe_ish_token_count(t), (i, t)
        assert got["lang_pred"][i] == detect_language(t), (i, t)
        assert abs(got["quality"][i] - quality_score(t)) < 1e-12, (i, t)
        assert int(got["fingerprint"][i]) == fingerprint64(t), (i, t)


def test_multimodal_plumbing(ray_session):
    import pytest

    from yago4_ray.dataops.multimodal import (
        MediaDecoder,
        decode_media,
        frame_sample_plan,
        media_table_from_refs,
    )

    table = media_table_from_refs(["commons://File:A.jpg", "commons://File:B.jpg"])
    ds = ray.data.from_arrow(table).map_batches(lambda t: t, batch_format="pyarrow")
    out = decode_media(ds, decoder="fake", feature_dim=8).to_pandas()
    assert len(out) == 2
    assert all(len(f) == 8 for f in out["features"])
    # deterministic features
    d1 = MediaDecoder("fake", 8)
    f1 = d1(table.slice(0, 1))
    f2 = MediaDecoder("fake", 8)(table.slice(0, 1))
    assert f1["features"].to_pylist() == f2["features"].to_pylist()
    # real decoder: opaque fake payloads are honestly unsupported
    with pytest.raises(NotImplementedError):
        MediaDecoder("real", 8)(table.slice(0, 1))
    assert frame_sample_plan(3500, 1000) == [0, 1000, 2000, 3000]
    assert frame_sample_plan(-1) == [0]


def test_multimodal_real_codecs(ray_session):
    """decoder='real' does genuine stdlib codec work: encode→decode
    roundtrips bit-exactly and the actor-pool stage reports true
    dimensions / durations."""
    import numpy as np

    from yago4_ray.dataops import codecs
    from yago4_ray.dataops.multimodal import decode_media, media_table_from_refs

    img = codecs.synth_image(7, width=40, height=24)
    assert (codecs.decode_png(codecs.encode_png(img)) == img).all()
    assert (codecs.decode_bmp(codecs.encode_bmp(img)) == img).all()
    assert (codecs.decode_ppm(codecs.encode_ppm(img)) == img).all()
    gray = img[:, :, 0]
    assert (codecs.decode_png(codecs.encode_png(gray)) == gray[:, :, None]).all()
    wav = codecs.synth_audio(7, rate=8000, ms=125)
    back, rate = codecs.decode_wav(codecs.encode_wav(wav, 8000))
    assert rate == 8000 and len(back) == len(wav)
    assert np.abs(back - wav).max() < 1e-3  # 16-bit quantization only
    assert codecs.sniff(codecs.encode_png(img)) == "png"
    assert codecs.sniff(b"garbage") == "unknown"

    # e2e through the actor-pool stage, images + audio
    imgs = media_table_from_refs(["m/i1", "m/i2"], "image", payload="real")
    auds = media_table_from_refs(["m/a1"], "audio", payload="real")
    ds = ray.data.from_arrow(pa.concat_tables([imgs, auds]))
    out = (
        decode_media(ds, decoder="real", feature_dim=9, batch_size=2)
        .to_pandas()
        .set_index("media_id")
    )
    assert len(out) == 3
    assert out.loc["m/i1", "width"] == 48 and out.loc["m/i1", "height"] == 32
    assert out.loc["m/a1", "duration_ms"] == 250
    assert all(len(f) == 9 for f in out["features"])
    # deterministic across processes/batches
    out2 = decode_media(ds, decoder="real", feature_dim=9).to_pandas().set_index("media_id")
    for m in out.index:
        assert list(out.loc[m, "features"]) == list(out2.loc[m, "features"])


def test_partitioned_group_apply(ray_session):
    from yago4_ray.joins import distinct_rows, partitioned_group_apply

    df = pd.DataFrame(
        {
            "k": ["a", "a", "a", "b", "b", "c"],
            "v": ["1", "1", "2", "3", "3", "4"],
        }
    )
    ds = ray.data.from_pandas(df)
    out = distinct_rows(ds, ["k", "v"]).to_pandas()
    assert len(out) == 4
    # a whole-group drop (sh:maxCount semantics): every part holds
    # complete groups, so the per-part group size is the group's size
    kept = partitioned_group_apply(
        ds, ["k"],
        lambda pdf: pdf[pdf.groupby("k")["k"].transform("size") <= 2],
    ).to_pandas()
    # group a has 3 rows > 2 → dropped entirely; b and c kept
    assert set(kept["k"]) == {"b", "c"}
    assert len(kept) == 3


def test_salted_aggregate_hot_key(ray_session):
    """Two-phase salted aggregate: a hub key spreads over salt buckets
    in shuffle 1 and the result still matches the plain aggregate."""
    import numpy as np

    from yago4_ray.joins import salted_aggregate, top_hot_keys

    rng = np.random.default_rng(3)
    n = 20000
    keys = np.where(rng.random(n) < 0.5, "Q5", rng.integers(0, 200, n).astype(str))
    df = pd.DataFrame({"k": keys, "v": np.arange(n, dtype="int64")})
    ds = ray.data.from_pandas(df)
    hot = top_hot_keys(ds, "k", threshold=1000)
    assert hot == ["Q5"]
    out = salted_aggregate(
        ds, "k", {"n": ("v", "size"), "total": ("v", "sum")}, hot_keys=hot, salt=8
    ).to_pandas()
    want = df.groupby("k", as_index=False).agg(n=("v", "size"), total=("v", "sum"))
    got = out.sort_values("k").reset_index(drop=True)
    want = want.sort_values("k").reset_index(drop=True)
    assert got.equals(want.astype({"n": got["n"].dtype, "total": got["total"].dtype}))


def test_multimodal_resize_stage(ray_session):
    """resize_media: real PNG payloads decode → nearest-neighbor resize
    → PPM re-encode, chained straight into decode_media; non-image rows
    pass through untouched."""
    import ray

    from yago4_ray.dataops import codecs
    from yago4_ray.dataops.multimodal import (
        decode_media,
        media_table_from_refs,
        resize_media,
        resize_pixels,
    )

    imgs = media_table_from_refs(
        [f"commons://File:{i}.png" for i in range(6)],
        kind="image", payload="real",
    )
    wavs = media_table_from_refs(
        ["commons://File:x.wav"], kind="audio", payload="real"
    )
    ds = ray.data.from_arrow([imgs, wavs])
    out = resize_media(ds, width=16, height=12, concurrency=2).to_pandas()
    assert len(out) == 7
    img_rows = out[out["kind"] == "image"]
    assert img_rows["resized"].all()
    assert (img_rows["width"] == 16).all() and (img_rows["height"] == 12).all()
    audio_rows = out[out["kind"] == "audio"]
    assert not audio_rows["resized"].any()  # pass-through
    # every resized payload is a decodable 12x16 PPM
    px = codecs.decode_ppm(img_rows["payload"].iloc[0])
    assert px.shape[:2] == (12, 16)
    # the chain feeds decode_media's real decoder directly
    feats = decode_media(
        resize_media(ds, width=16, height=12), decoder="real", feature_dim=4
    ).to_pandas()
    assert (feats[feats["kind"] == "image"]["width"] == 16).all()
    # resize kernel: exact nearest-neighbor semantics
    base = codecs.synth_image(7, width=4, height=2)
    up = resize_pixels(base, 8, 4)
    assert up.shape[:2] == (4, 8)
    assert (up[0, 0] == base[0, 0]).all() and (up[-1, -1] == base[-1, -1]).all()


def test_resize_grayscale_and_rgba_channels(ray_session):
    """encode_ppm channel normalization: grayscale (H,W,1) and RGBA
    (H,W,4) PNGs survive resize → re-encode → decode — the naive P6
    header over those payloads crashed decode_ppm (grayscale) or read
    misaligned pixels (RGBA)."""
    import numpy as np

    from yago4_ray.dataops import codecs
    from yago4_ray.dataops.multimodal import resize_media

    rng = np.random.default_rng(3)
    gray = rng.integers(0, 256, size=(10, 14), dtype=np.uint8)
    rgba = rng.integers(0, 256, size=(10, 14, 4), dtype=np.uint8)
    rows = pa.table(
        {
            "media_id": ["g", "a"],
            "kind": ["image", "image"],
            "payload": pa.array(
                [codecs.encode_png(gray), codecs.encode_png(rgba)], pa.binary()
            ),
            "mime": ["image/png", "image/png"],
        }
    )
    out = (
        resize_media(ray.data.from_arrow(rows), width=7, height=5, concurrency=1)
        .to_pandas()
        .set_index("media_id")
    )
    assert out["resized"].all()
    g = codecs.decode_ppm(out.loc["g", "payload"])
    assert g.shape == (5, 7)  # P5 grayscale, not a mis-sized P6
    a = codecs.decode_ppm(out.loc["a", "payload"])
    assert a.shape == (5, 7, 3)  # alpha dropped, pixels aligned
    # pixel parity with a driver-side resize of the decoded source
    from yago4_ray.dataops.multimodal import resize_pixels

    ref = resize_pixels(codecs.decode_png(codecs.encode_png(rgba)), 7, 5)
    assert (a == ref[:, :, :3]).all()


def test_jpeg_baseline_codec(ray_session):
    """Baseline JPEG (T.81): lossy roundtrips at sane PSNR across
    quality levels, 4:4:4 and 4:2:0 subsampling, restart markers, odd
    sizes, grayscale — and the decoder refuses progressive streams."""
    import numpy as np
    import pytest

    from yago4_ray.dataops import codecs

    def psnr(a, b):
        mse = ((a.astype(float) - b.astype(float)) ** 2).mean()
        return 10 * np.log10(255**2 / max(mse, 1e-9))

    img = codecs.synth_image(7, width=48, height=32)
    assert codecs.sniff(codecs.encode_jpeg(img)) == "jpeg"
    # quality monotonicity + reasonable fidelity at q90
    p = {q: psnr(codecs.decode_jpeg(codecs.encode_jpeg(img, quality=q)), img)
         for q in (50, 75, 90)}
    assert p[90] > 30 and p[50] < p[75] < p[90]
    # 4:2:0 and restart markers decode to the same fidelity class
    d420 = codecs.encode_jpeg(img, quality=90, subsample="420")
    assert len(d420) < len(codecs.encode_jpeg(img, quality=90))
    assert psnr(codecs.decode_jpeg(d420), img) > 20
    dri = codecs.encode_jpeg(img, quality=90, restart_interval=2)
    assert np.array_equal(
        codecs.decode_jpeg(dri),
        codecs.decode_jpeg(codecs.encode_jpeg(img, quality=90)),
    )
    # odd sizes, grayscale shape preservation
    odd = codecs.synth_image(3, width=35, height=21)
    assert codecs.decode_jpeg(codecs.encode_jpeg(odd, subsample="420")).shape == odd.shape
    gray = img[:, :, 0]
    out = codecs.decode_jpeg(codecs.encode_jpeg(gray, quality=90))
    assert out.shape == gray.shape and psnr(out, gray) > 30
    # deterministic encode
    assert codecs.encode_jpeg(img) == codecs.encode_jpeg(img)
    # progressive (SOF2) is honestly refused
    prog = bytearray(codecs.encode_jpeg(img))
    prog[prog.index(b"\xff\xc0") + 1] = 0xC2
    with pytest.raises(NotImplementedError):
        codecs.decode_jpeg(bytes(prog))


def test_jpeg_through_media_stages(ray_session):
    """JPEG payloads run the real decode/resize actor-pool stages:
    decode_media reports true dimensions, resize_media re-encodes."""
    from yago4_ray.dataops.multimodal import (
        decode_media,
        media_table_from_refs,
        resize_media,
    )

    table = media_table_from_refs(["m/j1", "m/j2"], "image", payload="jpeg")
    assert table["mime"].to_pylist() == ["image/jpeg", "image/jpeg"]
    ds = ray.data.from_arrow(table)
    out = (
        decode_media(ds, decoder="real", feature_dim=9, batch_size=2)
        .to_pandas()
        .set_index("media_id")
    )
    assert (out["width"] == 48).all() and (out["height"] == 32).all()
    resized = resize_media(ds, width=10, height=6, concurrency=1).to_pandas()
    assert resized["resized"].all()
    assert set(resized["mime"]) == {"image/x-portable-pixmap"}


def test_avi_mjpeg_codec(ray_session):
    """MJPEG-AVI container: frames round-trip byte-exact (stored
    verbatim), header carries fps/dimensions, sniff detects it, and a
    WAV RIFF is not mistaken for AVI."""
    import pytest

    from yago4_ray.dataops import codecs

    video = codecs.synth_video(11, n_frames=5, fps=4)
    assert codecs.sniff(video) == "avi"
    frames, fps, w, h = codecs.decode_avi_mjpeg(video)
    assert (len(frames), fps, w, h) == (5, 4, 48, 32)
    # frame 0 is the unrolled seeded image, stored verbatim
    assert frames[0] == codecs.encode_jpeg(codecs.synth_image(11), quality=85)
    assert all(codecs.sniff(f) == "jpeg" for f in frames)
    assert codecs.decode_jpeg(frames[3]).shape == (32, 48, 3)
    # deterministic container encode
    assert codecs.synth_video(11, n_frames=5, fps=4) == video
    wav = codecs.encode_wav(codecs.synth_audio(1), 8000)
    assert codecs.sniff(wav) == "wav"
    with pytest.raises(ValueError):
        codecs.decode_avi_mjpeg(wav)


def test_video_frame_sample_and_decode(ray_session):
    """Video rows through the full actor-pool chain: FrameSampler fans
    each AVI out to per-frame JPEG image rows (1 per sampled ts), the
    real decoder consumes both the sampled frames and the whole AVI, and
    non-video rows pass through the sampler untouched."""
    from yago4_ray.dataops import codecs
    from yago4_ray.dataops.multimodal import (
        decode_media,
        media_table_from_refs,
        resize_media,
        sample_frames,
    )

    vids = media_table_from_refs(["v/a", "v/b"], kind="video", payload="real")
    assert set(vids["mime"].to_pylist()) == {"video/x-msvideo"}
    imgs = media_table_from_refs(["i/c"], kind="image", payload="real")
    ds = ray.data.from_arrow([vids, imgs])

    sampled = sample_frames(ds, every_ms=500, concurrency=1).to_pandas()
    # 6 frames @4fps = 1500 ms → ts 0/500/1000 per video; image passes through
    vrows = sampled[sampled["frame_ts_ms"] >= 0]
    assert len(vrows) == 6 and (vrows["kind"] == "image").all()
    assert sorted(vrows["frame_ts_ms"].unique()) == [0, 500, 1000]
    passthru = sampled[sampled["frame_ts_ms"] < 0]
    assert passthru["media_id"].tolist() == ["i/c"]

    # sampled frames decode as ordinary JPEG image rows
    frames_ds = ray.data.from_pandas(sampled.drop(columns=["frame_ts_ms"]))
    out = decode_media(frames_ds, decoder="real", concurrency=1).to_pandas()
    assert len(out) == 7
    vout = out[out["media_id"].str.startswith("v/")]
    assert (vout["width"] == 48).all() and (vout["height"] == 32).all()

    # whole-AVI decode: duration + mean-pooled frame features match a
    # hand computation over the same sampled frame set
    whole = decode_media(
        ray.data.from_arrow(vids), decoder="real", concurrency=1
    ).to_pandas().set_index("media_id")
    assert (whole["duration_ms"] == 1500).all()
    from yago4_ray.dataops.multimodal import MediaDecoder, _ref_seed

    dec = MediaDecoder(decoder="real")
    payload = vids["payload"][0].as_py()
    frames, fps, _, _ = codecs.decode_avi_mjpeg(payload)
    import numpy as np

    # the decoder samples on the default 1 s grid: ts 0 and 1000 → frames 0, 4
    expect = np.mean(
        [dec._image_features(codecs.decode_jpeg(frames[i])) for i in (0, 4)],
        axis=0,
    ).astype(np.float32)
    got = np.array(whole.loc["v/a", "features"], dtype=np.float32)
    assert np.allclose(got, expect)

    # frame rows compose with resize (PPM re-encode)
    rz = resize_media(frames_ds, width=8, height=8, concurrency=1).to_pandas()
    assert rz[rz["media_id"].str.contains("#t")]["resized"].all()


def test_hot_template_cluster_stress(ray_session, capsys):
    """100-TB hot-key discipline for the whole dedup family in one
    scenario: a 3000-doc near-identical template cluster (one hot LSH
    bucket everywhere) plus distinct background docs. Asserts the three
    bounded-emission paths all TRIGGER (their counters print) and stay
    CORRECT (clusters close through representatives; emitted pairs obey
    each operator's own guarantee) within a bounded wall time — the
    un-capped formulations would emit ~4.5M pairs per operator here."""
    import time

    from yago4_ray.dataops.dedup import (
        batch_simhash64,
        embedding_dedup_pairs,
        minhash_dedup,
        simhash_dedup_pairs,
    )

    n_hot, n_bg = 3000, 40
    template = (
        "breaking news article syndicated verbatim across portals about "
        "the annual harvest festival and its colorful market stalls item "
    )
    rng = np.random.default_rng(5)
    texts = [template + f"ref {i % 7}" for i in range(n_hot)] + [
        " ".join(
            rng.choice(
                ["ship", "pottery", "quantum", "violin", "glacier", "archive",
                 "nomad", "turbine", "orchid", "basalt"],
                size=12,
            ).tolist()
        )
        + f" unique {i}"
        for i in range(n_bg)
    ]
    ids = list(range(n_hot + n_bg))
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": ids, "text": texts}))

    t0 = time.monotonic()

    # --- minhash: hot band buckets star-link through the bucket min ---
    clusters = minhash_dedup(
        ds, "text", "doc_id", threshold=0.8, bucket_cap=200
    ).to_pandas()
    hot_cluster = dict(zip(clusters["doc_id"], clusters["cluster"]))
    # every template doc lands in ONE cluster rooted at doc 0
    assert sum(1 for d in range(n_hot) if hot_cluster.get(d) == 0) == n_hot
    out1 = capsys.readouterr().out

    # --- simhash: hot band buckets hamming-check vs the bucket min ---
    pairs = simhash_dedup_pairs(
        ds, "text", "doc_id", max_hamming=3, bucket_cap=200
    ).to_pandas()
    sims = batch_simhash64(texts)
    for a, b in zip(pairs["a"], pairs["b"]):
        assert bin(int(sims[a]) ^ int(sims[b])).count("1") <= 3
    # the star representative keeps the hot cluster connected
    linked = set(pairs["a"]) | set(pairs["b"])
    assert len([d for d in linked if d < n_hot]) > n_hot * 0.9
    out2 = capsys.readouterr().out

    # --- embedding: identical-direction hot bucket can't be plane-split;
    #     must star-emit, not recurse forever / go quadratic ---
    base = rng.standard_normal(16).astype(np.float32)
    bg = rng.standard_normal((n_bg, 16)).astype(np.float32)
    vecs = np.vstack([np.tile(base, (n_hot, 1)), bg])
    eds = ray.data.from_pandas(
        pd.DataFrame(
            {"vec_id": ids, "embedding": [v.tolist() for v in vecs]}
        )
    )
    epairs = embedding_dedup_pairs(
        eds, "embedding", "vec_id", threshold=0.99, bucket_cap=200
    ).to_pandas()
    # star emission: O(n) pairs rooted at vec 0, not O(n²)
    hot_pairs = epairs[(epairs["a"] < n_hot) & (epairs["b"] < n_hot)]
    assert len(hot_pairs) == n_hot - 1
    assert (hot_pairs["a"] == 0).all()
    assert np.allclose(hot_pairs["cosine"], 1.0, atol=1e-5)
    out3 = capsys.readouterr().out

    wall = time.monotonic() - t0
    assert wall < 180, f"hot-template stress took {wall:.0f}s"
    assert "star-linked" in out1          # minhash counter
    assert "oversized band buckets" in out2  # simhash counter
    assert "star-linked" in out3          # embedding star counter
