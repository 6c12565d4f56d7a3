"""Property-based tests (hypothesis) for the pure kernels."""

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from yago4_ray import terms as T
from yago4_ray.dataops.dedup import ngram_jaccard, shingles, simhash64
from yago4_ray.turtle import parse_turtle

text_values = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80
)
langs = st.from_regex(r"[a-z]{2,3}(-[A-Za-z0-9]{1,8})?", fullmatch=True)


@settings(max_examples=200)
@given(text_values)
def test_string_literal_roundtrip(value):
    term = T.string_literal(value)
    assert T.literal_value(term) == value
    assert T.datatype(term) == T.XSD_STRING


@settings(max_examples=200)
@given(text_values, langs)
def test_lang_string_roundtrip(value, lang):
    term = T.lang_string(value, lang)
    got_value, got_lang, got_dt = T.parse_literal(term)
    assert (got_value, got_lang, got_dt) == (value, lang, None)
    assert T.datatype(term) == T.RDF_LANG_STRING


@settings(max_examples=200)
@given(text_values)
def test_ntriples_line_roundtrip(value):
    line = T.format_triple("<http://e/s>", "<http://e/p>", T.string_literal(value))
    parsed = T.parse_ntriples_line(line)
    assert parsed is not None
    assert T.literal_value(parsed[2]) == value


@settings(max_examples=100)
@given(st.integers(min_value=-(2**62), max_value=2**62))
def test_integer_literal_roundtrip(n):
    term = T.integer_literal(n)
    assert int(T.literal_value(term)) == n
    assert T.datatype(term) == T.XSD_INTEGER


@settings(max_examples=100)
@given(text_values)
def test_encode_iri_path_is_ascii_safe_or_ucschar(path):
    encoded = T.encode_iri_path(path)
    # no ASCII spaces/controls, no IRI-breaking delimiters (NBSP-class
    # ucschar whitespace legitimately passes through per RFC 3987)
    assert " " not in encoded
    assert re.fullmatch(
        r"(?:[^ \t\n\r\f\v<>\"{}|\\^`%]|%[0-9A-F]+)*", encoded
    ) is not None


@settings(max_examples=100)
@given(text_values)
def test_turtle_string_roundtrip(value):
    # turtle-escape the value the way a writer would
    escaped = (
        value.replace("\\", "\\\\").replace('"', '\\"')
        .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
    )
    doc = f'@prefix ex: <http://e/> .\nex:s ex:p "{escaped}" .'
    triples = parse_turtle(doc)
    assert len(triples) == 1
    assert T.literal_value(triples[0][2]) == value


@settings(max_examples=50)
@given(st.text(min_size=0, max_size=200))
def test_simhash_deterministic(text):
    assert simhash64(text) == simhash64(text)
    assert 0 <= simhash64(text) < 2**64


@settings(max_examples=50)
@given(st.text(min_size=0, max_size=120), st.text(min_size=0, max_size=120))
def test_jaccard_bounds_and_symmetry(a, b):
    j = ngram_jaccard(a, b)
    assert 0.0 <= j <= 1.0
    assert j == ngram_jaccard(b, a)
    assert ngram_jaccard(a, a) == 1.0


@settings(max_examples=50)
@given(st.text(min_size=5, max_size=120))
def test_shingles_stable(text):
    s1 = set(shingles(text).tolist())
    s2 = set(shingles(text).tolist())
    assert s1 == s2 and len(s1) > 0


@settings(max_examples=30)
@given(
    st.lists(
        st.text(min_size=1, max_size=40), min_size=1, max_size=200, unique=True
    )
)
def test_prehashed_set_matches_string_set(keys):
    """HashedSet.from_prehashed (hashes computed task-side) must answer
    membership identically to the string-built HashedSet."""
    import pandas as pd

    from yago4_ray.broadcast import HashedSet, _hash_series

    a = HashedSet(keys)
    b = HashedSet.from_prehashed(_hash_series(keys), len(keys))
    probes = pd.Series(keys + ["@@absent@@", "", "x" * 50], dtype=object)
    assert (a.contains(probes) == b.contains(probes)).all()


def test_hashedset_probe_collision_rejected():
    """A probe NOT in the set whose 64-bit hash lands on a member hash
    must be rejected by the exact key verify (the probe-vs-key gap a
    bare hash index has). Real collisions are unconstructible, so the
    hash index is tampered to simulate one: the stored key stays 'a'
    while its hash slot is overwritten with hash('z')."""
    import numpy as np
    import pandas as pd

    from yago4_ray.broadcast import HashedSet, _hash_series

    hs = HashedSet(["a"])
    hs.hashes = np.sort(_hash_series(["z"]))  # simulated collision
    got = hs.contains(pd.Series(["z", "a"], dtype=object))
    assert not got[0]  # hash matches, key differs → rejected
    assert not got[1]  # 'a' hash no longer present


@settings(max_examples=50)
@given(
    st.lists(st.text(min_size=0, max_size=40), min_size=1, max_size=100),
    st.lists(st.text(min_size=0, max_size=40), min_size=0, max_size=50),
)
def test_hashedset_matches_python_set(keys, probes):
    """contains == plain Python-set membership, including duplicate
    keys in the input and probes overlapping/missing."""
    import pandas as pd

    from yago4_ray.broadcast import HashedSet

    hs = HashedSet(keys)
    got = hs.contains(pd.Series(keys + probes, dtype=object))
    want = [v in set(keys) for v in keys + probes]
    assert list(got) == want


@settings(max_examples=30)
@given(
    st.lists(
        st.text(min_size=1, max_size=40), min_size=1, max_size=200, unique=True
    )
)
def test_hashedmap_from_arrow_matches_dict(keys):
    """HashedMap.from_arrow (Arrow columns + worker-prehashed hashes)
    must answer get/in/[]/lookup identically to the dict-built map."""
    import pandas as pd
    import pyarrow as pa

    from yago4_ray.broadcast import HashedMap, _hash_series

    values = [k[::-1] + "!" for k in keys]
    a = HashedMap(dict(zip(keys, values)))
    b = HashedMap.from_arrow(
        pa.array(keys, pa.large_string()),
        pa.array(values, pa.large_string()),
        hashes=pa.array(_hash_series(keys), pa.uint64()),
    )
    c = HashedMap.from_arrow(  # no-hash path (driver hashing fallback)
        pa.array(keys, pa.large_string()), pa.array(values, pa.large_string())
    )
    probes = pd.Series(keys + ["@@absent@@", ""], dtype=object)
    for m in (b, c):
        assert len(m) == len(a)
        assert list(a.lookup(probes)) == list(m.lookup(probes))
        assert m.get(keys[0]) == values[0] and m.get("@@absent@@") is None
        assert keys[0] in m and "@@absent@@" not in m
        assert m[keys[0]] == values[0]


def test_multimap_from_arrow_matches_dict():
    import pandas as pd
    import pyarrow as pa

    from yago4_ray.broadcast import HashedMultiMap, _hash_series

    mapping = {f"k{i}": (f"o{i}", f"e{i}" if i % 3 else "") for i in range(500)}
    keys = list(mapping)
    a = HashedMultiMap(mapping)
    b = HashedMultiMap.from_arrow(
        pa.array(keys, pa.large_string()),
        pa.array([mapping[k][0] for k in keys], pa.large_string()),
        pa.array([mapping[k][1] for k in keys], pa.large_string()),
        hashes=pa.array(_hash_series(keys), pa.uint64()),
    )
    probes = pd.Series(keys + ["missing1", "missing2"], dtype=object)
    ao, ae = a.lookup(probes)
    bo, be = b.lookup(probes)
    assert list(ao) == list(bo) and list(ae) == list(be)
    assert a.get("k7") == b.get("k7") == ("o7", "e7")
    assert a.get("nope") is None and b.get("nope") is None


def test_hashedmap_from_arrow_duplicate_keys_fall_back():
    """Duplicate keys make the prehashed-distinctness check fail; the
    constructor must fall back to exact dict semantics (keep-last),
    never silently mis-answer."""
    import pyarrow as pa

    from yago4_ray.broadcast import HashedMap, _hash_series

    keys = ["a", "b", "a"]
    values = ["1", "2", "3"]
    m = HashedMap.from_arrow(
        pa.array(keys, pa.large_string()),
        pa.array(values, pa.large_string()),
        hashes=pa.array(_hash_series(keys), pa.uint64()),
    )
    assert m.get("a") == "3" and m.get("b") == "2" and m.get("c") is None


def test_hashedmap_presorted_matches_unsorted():
    """from_arrow(presorted=True) over range-ordered shards must agree
    with the argsort path bit-for-bit (the remote URI merge concatenates
    hash-sorted shards and skips the sort)."""
    import numpy as np
    import pyarrow as pa

    from yago4_ray.broadcast import HashedMap, _hash_series

    keys = [f"<k{i}>" for i in range(257)]
    vals = [f"<v{i}>" for i in range(257)]
    h = _hash_series(keys)
    order = np.argsort(h, kind="stable")
    k_arr = pa.array([keys[i] for i in order], pa.large_string())
    v_arr = pa.array([vals[i] for i in order], pa.large_string())
    h_arr = pa.array(h[order], pa.uint64())
    fast = HashedMap.from_arrow(k_arr, v_arr, hashes=h_arr, presorted=True)
    slow = HashedMap.from_arrow(
        pa.array(keys, pa.large_string()),
        pa.array(vals, pa.large_string()),
        hashes=pa.array(h, pa.uint64()),
    )
    assert fast._collision_free and slow._collision_free
    assert np.array_equal(fast.key_hashes, slow.key_hashes)
    assert fast.values == slow.values
    for k, v in zip(keys, vals):
        assert fast.get(k) == v
    assert fast.get("<missing>") is None


def test_hashedmap_presorted_collision_falls_back_exact():
    """A 64-bit collision in the presorted path must flip to the exact
    dict fallback — never silently wrong."""
    import numpy as np
    import pyarrow as pa

    from yago4_ray.broadcast import HashedMap

    keys = pa.array(["<a>", "<b>"], pa.large_string())
    vals = pa.array(["<1>", "<2>"], pa.large_string())
    fake = pa.array(np.array([7, 7], np.uint64))  # forced collision
    m = HashedMap.from_arrow(keys, vals, hashes=fake, presorted=True)
    assert not m._collision_free
    assert m.get("<a>") == "<1>" and m.get("<b>") == "<2>"
    assert m.get("<c>") is None


def test_prepare_linker_hash_sorted_and_first_wins():
    """prepare_linker emits hash-ASCENDING rows (the presorted index
    contract) while keeping the lowest-priority registration per
    surface."""
    import numpy as np
    import pyarrow as pa

    from yago4_ray.extract import prepare_linker

    dictionary = pa.table(
        {
            "surface_form": ["Alpha", "Beta", "Alpha", "Gamma"],
            "qid": ["Q1", "Q2", "Q3", "Q4"],
            "priority": [2, 1, 1, 3],
        }
    )
    prepared = prepare_linker(dictionary)
    h = prepared["h"].to_numpy()
    assert np.all(h[:-1] <= h[1:])
    got = dict(
        zip(prepared["surface_form"].to_pylist(), prepared["qid"].to_pylist())
    )
    # priority 1 beats 2 for Alpha
    assert got == {"Alpha": "Q3", "Beta": "Q2", "Gamma": "Q4"}


_WD_ENTITY = re.compile(r"<http://www\.wikidata\.org/entity/(Q[0-9]+)>")


def _title_spec(subjects, objects):
    """Per-row spec of the priority-1 kernel: (item, uri) for every
    enwiki sitelink — the title, percent-decoded, as a YAGO IRI."""
    from urllib.parse import unquote

    from yago4_ray.state import ENWIKI_PREFIX

    head = "<" + ENWIKI_PREFIX
    return [
        (o, T.yago_resource_from_title(unquote(s[len(head):-1])))
        for s, o in zip(subjects, objects)
        if s.startswith(head) and s.endswith(">")
    ]


def _enwiki_spec(subjects, objects):
    """Per-row spec of the enwiki-pairs kernel: (item, url)."""
    from yago4_ray.state import ENWIKI_PREFIX

    return [
        (o, s[1:-1])
        for s, o in zip(subjects, objects)
        if s.startswith("<" + ENWIKI_PREFIX) and s.endswith(">")
    ]


def _label_spec(subjects, objects):
    """Per-row spec of the priority-2 kernel: (item, uri) for every
    entity's English label — encode_iri_path(literal_value(...)) + _Q{id}."""
    out = []
    for s, o in zip(subjects, objects):
        q = _WD_ENTITY.fullmatch(s)
        v = re.fullmatch(r'"(.*)"@en', o, re.DOTALL)
        if q and v:
            enc = T.encode_iri_path(T.literal_value(f'"{v.group(1)}"'))
            out.append((s, f"<{T.YAGO_RESOURCE_PREFIX}{enc}_{q.group(1)}>"))
    return out


def _kernel_rows(kernel, subjects, objects, value_col):
    import pyarrow as pa

    from yago4_ray.broadcast import _hash_series

    got = kernel(
        pa.table(
            {
                "subject": pa.array(subjects, pa.string()),
                "object": pa.array(objects, pa.string()),
            }
        )
    )
    assert list(got["h"]) == list(_hash_series(got["item"]))
    return list(zip(got["item"], got[value_col]))


def test_arrow_candidate_kernels_match_spec():
    """The Arrow/RE2 URI-candidate kernels of the fused state scan must
    equal the per-row Python spec on every row: percent-escaped titles,
    non-ipchar bytes (slow path), embedded and trailing newlines,
    backslash escapes, and non-matching rows."""
    from yago4_ray.state import (
        ENWIKI_PREFIX,
        _enwiki_pairs_arrow,
        _label_candidates_arrow,
        _wiki_candidates_arrow,
    )

    about_s = [
        f"<{ENWIKI_PREFIX}Douglas_Adams>",
        f"<{ENWIKI_PREFIX}Caf%C3%A9>",          # percent escape → slow path
        f"<{ENWIKI_PREFIX}A B>",                 # space fast path
        f"<{ENWIKI_PREFIX}pipe|char>",           # non-ipchar → slow path
        "<https://de.wikipedia.org/wiki/Blau>",  # non-enwiki
        f"<{ENWIKI_PREFIX}new\nline>",           # embedded newline
        f"<{ENWIKI_PREFIX}end\n>",               # trailing newline
    ]
    about_o = [f"<http://www.wikidata.org/entity/Q{i}>" for i in range(7)]
    label_s = [
        "<http://www.wikidata.org/entity/Q42>",
        "<http://www.wikidata.org/entity/Q1>",
        "<http://www.wikidata.org/entity/Q2>",
        "<http://www.wikidata.org/statement/x>",  # non-entity subject
        "<http://www.wikidata.org/entity/Q3>",
        "<http://www.wikidata.org/entity/Q4>",
        "<http://www.wikidata.org/entity/Q5>",
        "<http://www.wikidata.org/entity/Q6>",
    ]
    label_o = [
        '"Douglas Adams"@en',
        '"esc\\\\aped"@en',     # escaped backslash → slow path
        '"plain"@fr',           # wrong language
        '"orphan"@en',
        '"multi\nline"@en',     # embedded newline
        '"tab\tchar"@en',       # non-ipchar → slow path
        '"a\n"@en',             # trailing newline
        '"100%"@en',            # percent sign
    ]
    for kernel, spec, subjects, objects, col in (
        (_wiki_candidates_arrow, _title_spec, about_s, about_o, "uri"),
        (_enwiki_pairs_arrow, _enwiki_spec, about_s, about_o, "url"),
        (_label_candidates_arrow, _label_spec, label_s, label_o, "uri"),
    ):
        want = spec(subjects, objects)
        assert want, kernel.__name__
        assert _kernel_rows(kernel, subjects, objects, col) == want
    # the spec itself, pinned: a trailing newline is percent-encoded
    assert dict(_label_spec(label_s, label_o))[label_s[6]] == (
        "<http://yago-knowledge.org/resource/a%A_Q5>"
    )
    assert dict(_title_spec(about_s, about_o))[about_o[6]] == (
        "<http://yago-knowledge.org/resource/end%A>"
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.text(
            # store terms are CANONICAL N-Triples: a raw lone backslash
            # or quote can't occur inside a literal (escapes like \\
            # are pinned by the examples below)
            alphabet=st.characters(
                blacklist_categories=("Cs",), blacklist_characters='"\\'
            ),
            max_size=12,
        ),
        max_size=8,
    ),
    st.lists(st.integers(min_value=0, max_value=99), max_size=8),
)
@example(["\n"], [0])
@example(["a\n"], [1])
@example(["\\\\"], [2])  # an escaped backslash
@example(["%"], [3])
@example(["\x00"], [4])
@example(["\t"], [5])
@example(["a|b"], [6])  # '|' is not an ipchar
@example(["x\n", "plain", "\x00\n", "a b"], [7, 8, 9, 10])
def test_label_kernel_parity_fuzz(texts, qids):
    """Hypothesis: _label_candidates_arrow ≡ the per-row spec
    encode_iri_path(literal_value(...)) + _Q{id} on arbitrary label
    content, trailing newlines included (Python's `$` matches before a
    final newline, RE2's does not — the fast-path guard must not let
    such a label skip the encode)."""
    from yago4_ray.state import _label_candidates_arrow

    n = min(len(texts), len(qids))
    if n == 0:
        return
    subjects = [f"<http://www.wikidata.org/entity/Q{q}>" for q in qids[:n]]
    objects = [f'"{t}"@en' for t in texts[:n]]
    got = _kernel_rows(_label_candidates_arrow, subjects, objects, "uri")
    assert got == _label_spec(subjects, objects)
