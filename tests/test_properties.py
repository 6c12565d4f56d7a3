"""Property-based tests (hypothesis) for the pure kernels."""

import re

import pytest
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


# every HashIndex construction: keys kept or not, hashes given or
# computed, presorted or not
_CONSTRUCTIONS = [
    dict(keep_keys=keep, prehashed=pre, presorted=srt)
    for keep in (True, False)
    for pre in (True, False)
    for srt in (True, False)
]
_index_keys = st.lists(
    st.one_of(st.text(max_size=12), st.sampled_from(["", "\x00", "a", "a\x00"])),
    max_size=40,
)


def _build_index(keys, cols, keep_keys, prehashed, presorted, container):
    """(HashIndex, the keys and value columns in the order it got them)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from yago4_ray.broadcast import HashIndex, _hash_series

    h = _hash_series(keys)
    if presorted:
        order = np.argsort(h, kind="stable")
        keys = [keys[i] for i in order]
        cols = [[col[i] for i in order] for col in cols]
        h = h[order]
    arg = {
        "list": keys,
        "series": pd.Series(keys, index=np.arange(len(keys)) + 3, dtype=object),
        "arrow": pa.array(keys, pa.string()),
    }[container]
    index = HashIndex(
        arg,
        *[pa.array(col, pa.large_string()) for col in cols],
        hashes=pa.array(h, pa.uint64()) if prehashed else None,
        presorted=presorted,
        keep_keys=keep_keys,
    )
    return index, keys, cols


@settings(max_examples=20, deadline=None)
@given(
    keys=_index_keys,
    probes=st.lists(st.text(max_size=12), max_size=10),
    container=st.sampled_from(["list", "series", "arrow"]),
)
# '' and '\x00' collapse under pandas' categorizing hash; '' is also a
# duplicate key. 'a' holds the largest stored hash and '\x00\x00' and
# 'k' hash above every key (the searchsorted clamp); 'd' falls between.
@example(keys=["", "\x00", "", "a"], probes=["\x00\x00", "k", "d"],
         container="list")
# 'k' holds the largest stored hash: its probe hits the last row
@example(keys=["k", "a", "k"], probes=["\x00\x00", "z"], container="arrow")
@pytest.mark.parametrize("n_values", [0, 1, 2])
@pytest.mark.parametrize(
    "construction", _CONSTRUCTIONS,
    ids=lambda c: "-".join(
        ["keys" if c["keep_keys"] else "hash_only"]
        + [k for k in ("prehashed", "presorted") if c[k]]
    ),
)
def test_hash_index_matches_dict(construction, n_values, keys, probes, container):
    """contains / lookup / get / len agree with a plain dict built
    first-wins over the input order, on every construction and for
    Series and Arrow probes."""
    import pandas as pd
    import pyarrow as pa

    cols = [
        [f"{j}:{i}" if (i + j) % 3 else "" for i in range(len(keys))]
        for j in range(n_values)
    ]
    index, keys, cols = _build_index(keys, cols, container=container,
                                     **construction)
    want: dict = {}
    for i, k in enumerate(keys):
        want.setdefault(k, tuple(col[i] for col in cols))
    every = keys + probes
    series = pd.Series(every, index=range(7, 7 + len(every)), dtype=object)
    assert len(index) == len(want)
    assert list(index.contains(series)) == [p in want for p in every]
    assert list(index.contains(pa.array(every, pa.string()))) == [
        p in want for p in every
    ]
    for p in every:
        got = index.get(p)
        assert got == (None if p not in want else
                       want[p][0] if n_values == 1 else want[p])
    if n_values:
        by_series = index.lookup(series)
        by_arrow = index.lookup(pa.array(every, pa.string()))
        if n_values == 1:
            by_series, by_arrow = (by_series,), (by_arrow,)
        for j in range(n_values):
            expect = [want[p][j] if p in want else None for p in every]
            assert list(by_series[j].index) == list(series.index)
            assert list(by_series[j]) == expect
            assert by_arrow[j].to_pylist() == expect


def test_duplicate_keys_first_wins_on_every_construction():
    """A duplicate key answers its first value on every construction
    (the linker's table-order tie-break); a map once answered the last
    one when built from given hashes."""
    for construction in _CONSTRUCTIONS:
        index, _, _ = _build_index(
            ["a", "b", "a"], [["1", "2", "3"]], container="arrow",
            **construction,
        )
        assert index.get("a") == "1" and index.get("b") == "2", construction
        assert index.get("c") is None and len(index) == 2, construction


def test_hashes_only_index_raises_on_equal_hashes():
    """The hashes-only form has no keys to tell a duplicate from a
    collision, so equal hashes raise (best-rank's caller then rebuilds
    from the statement strings)."""
    import numpy as np
    import pandas as pd

    from yago4_ray.broadcast import HashIndex, _hash_series

    index = HashIndex.from_hashes(_hash_series(["b", "a"]))
    assert list(index.contains(pd.Series(["a", "c", "b"]))) == [True, False, True]
    with pytest.raises(ValueError):
        HashIndex.from_hashes(np.array([7, 3, 7], np.uint64))


def test_hashedset_probe_collision_rejected():
    """A probe NOT in the set whose 64-bit hash lands on a member hash
    must be rejected by the exact key verify (the probe-vs-key gap a
    bare hash index has). Real collisions are unconstructible, so the
    hash index is tampered to simulate one: the stored key stays 'a'
    while its hash slot is overwritten with hash('z')."""
    import numpy as np
    import pandas as pd

    from yago4_ray.broadcast import HashIndex, _hash_series

    hs = HashIndex(["a"])
    hs.hashes = np.sort(_hash_series(["z"]))  # simulated collision
    got = hs.contains(pd.Series(["z", "a"], dtype=object))
    assert not got[0]  # hash matches, key differs → rejected
    assert not got[1]  # 'a' hash no longer present


def test_hashedmap_presorted_collision_falls_back_exact():
    """Distinct keys forced onto one 64-bit hash answer exactly from
    the dict, duplicates still first-wins, keys kept or not, presorted
    or not — never silently wrong."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from yago4_ray.broadcast import HashIndex

    keys = pa.array(["<a>", "<b>", "<a>"], pa.large_string())
    vals = pa.array(["<1>", "<2>", "<3>"], pa.large_string())
    fake = pa.array(np.array([7, 7, 7], np.uint64))  # forced collision
    for presorted in (True, False):
        for keep_keys in (True, False):
            m = HashIndex(keys, vals, hashes=fake, presorted=presorted,
                          keep_keys=keep_keys)
            assert m._exact is not None and len(m) == 2
            assert m.get("<a>") == "<1>" and m.get("<b>") == "<2>"
            assert m.get("<c>") is None
            probe = pd.Series(["<b>", "<c>", "<a>"])
            assert list(m.lookup(probe)) == ["<2>", None, "<1>"]
            assert list(m.contains(pa.array(["<c>", "<a>"]))) == [False, True]
            chunked = pa.chunked_array([["<c>"], ["<a>", "<b>"]])
            assert list(m.contains(chunked)) == [False, True, True]


def test_one_index_implementation():
    """`broadcast.HashIndex` is the only hashed lookup: no other module
    searches index hashes or reads the index's private attributes."""
    import pathlib

    from yago4_ray.broadcast import HashIndex

    private = [a for a in vars(HashIndex(["a"])) if a.startswith("_")]
    probe = re.compile(
        r"searchsorted\([^)]*hashes|\.key_hashes\b|\.(%s)\b" % "|".join(private)
    )
    pkg = pathlib.Path(__file__).resolve().parent.parent / "yago4_ray"
    offenders = [
        str(path.relative_to(pkg))
        for path in sorted(pkg.rglob("*.py"))
        if path != pkg / "broadcast.py" and probe.search(path.read_text())
    ]
    assert not offenders, offenders


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
