"""Sources and the output writer.

- Predicate-partitioned Parquet *statement store*: the distributed
  replacement for the reference's RocksDB (predicate, subject, object)
  index (partitioned_statements.rs:19-128). "Scan a predicate" becomes a
  partition-pruned read of that predicate's directory in plain Ray
  tasks (`scan_predicate`, pyarrow.dataset per file group, no Ray Data
  read job, a `joins.Blocks` result) — no KV store, no index build;
  the write is a one-shot partitioned `write_parquet`. The store's footer facts (files, rows,
  bytes) are read in one pass (`store_info`).
- N-Triples (.nt / .nt.gz) reader (reference:
  partitioned_statements.rs:82-128), expressed as `read_text` +
  vectorized parse, and the one output writer, `NTriplesGzWriter`
  (plan.rs:2314-2358): hash-partitioned, within-part sorted
  `.nt.gz`/`.ntx.gz` parts, written by the reduce tasks of the output
  exchange (`build.write_outputs`) — no Ray Data write job.
- Interleaved-documents reader: Lance when the `lance` package is
  available, Parquet otherwise (same Arrow schema either way).
"""

from __future__ import annotations

import gzip
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data import Dataset

from . import terms as T
from .joins import Blocks, block_meta, default_join_partitions, exchange

# ---------------------------------------------------------------------------
# Statement store (predicate-partitioned parquet)
# ---------------------------------------------------------------------------

_KEY_SAFE_RE = re.compile(r"[^A-Za-z0-9]+")

_COMMON_PREFIXES = [
    ("http://www.wikidata.org/prop/direct/", "wdt_"),
    ("http://www.wikidata.org/prop/statement/value/", "psv_"),
    ("http://www.wikidata.org/prop/statement/", "ps_"),
    ("http://www.wikidata.org/prop/qualifier/value/", "pqv_"),
    ("http://www.wikidata.org/prop/qualifier/", "pq_"),
    ("http://www.wikidata.org/prop/", "p_"),
    ("http://wikiba.se/ontology#", "wikibase_"),
    ("http://schema.org/", "schema_"),
    ("http://www.w3.org/2004/02/skos/core#", "skos_"),
    ("http://www.w3.org/1999/02/22-rdf-syntax-ns#", "rdf_"),
]


def predicate_key(predicate_term: str) -> str:
    """Deterministic filesystem-safe partition key for a predicate IRI.
    Collisions are tolerated: scans re-filter on the exact predicate."""
    v = T.iri_value(predicate_term) if predicate_term.startswith("<") else predicate_term
    for prefix, short in _COMMON_PREFIXES:
        if v.startswith(prefix):
            return short + _KEY_SAFE_RE.sub("_", v[len(prefix):])
    return _KEY_SAFE_RE.sub("_", v)[-80:]


def write_statement_store(
    ds: Dataset, root: str, dedup: bool = True, num_parts: int = 64,
    subject_salt: int = 4,
) -> None:
    """Partition a (subject, predicate, object) Dataset by predicate.
    Each block is split by predicate at write time via hive partitioning
    (`partition_cols`), replacing the reference's single-threaded RocksDB
    load (partitioned_statements.rs:92-128). `dedup` replicates the
    index's key-uniqueness (one row per distinct triple) — a full-triple
    hash partition, skew-free even for hub subjects.

    Clustering by predicate uses a HASH repartition on `pred_key` with a
    per-part sort — not a global range sort: the hash exchange moves each
    row once with no sample/range-boundary pass, every predicate still
    lands in exactly one part (→ O(#keys) files, no (block × key) file
    explosion), and rows within each file keep the reference index's
    (predicate, subject, object) scan order
    (partitioned_statements.rs:39-48). At larger cluster sizes raise
    `num_parts` (hot predicates like rdf:type bound a part's size).

    Dedup is fused INTO the clustering pass: every copy of a triple
    shares its predicate, so all copies land in the same part, where the
    per-part (p,s,o) sort makes duplicates adjacent — a consecutive-row
    mask then drops them without the separate full-key hash shuffle a
    standalone distinct would cost (one all-to-all instead of two).

    `subject_salt` splits each predicate into that many subject-hash
    sub-parts: a statement dump is FEW-KEY skewed (rdf:type alone is
    ~25% of rows), so pure per-predicate parts cap the sort stage's
    parallelism at the hottest predicate. Duplicates share a subject →
    same sub-part, so fused dedup stays exact; each predicate's hive dir
    gets ≤ subject_salt deterministic files instead of 1 (measured
    0.54 → 0.8+ scaling efficiency at 8→32 CPUs, 22 M rows)."""
    import zlib

    import pandas as pd

    def part_ids(batch: pa.Table) -> pa.Array:
        # per-DISTINCT-predicate crc via ONE dictionary encoding (a
        # batch holds FEW distinct predicates) + per-row subject-hash salt
        enc = pc.dictionary_encode(batch["predicate"].combine_chunks())
        crc_by_code = np.array(
            [zlib.crc32(predicate_key(p).encode())
             for p in enc.dictionary.to_pylist()],
            dtype=np.uint64,
        )
        base = crc_by_code[enc.indices.to_numpy().astype(np.int64, copy=False)]
        if subject_salt > 1:
            # deterministic siphash (fixed pandas key) — stable across runs
            salt = (
                pd.util.hash_array(
                    batch["subject"].to_numpy(zero_copy_only=False)
                )
                % subject_salt
            )
            base = base * np.uint64(subject_salt) + salt
        return pa.array((base % num_parts).astype(np.int64), pa.int64())

    def sort_part(tables: list[pa.Table], _keys) -> pa.Table:
        (t,) = tables
        t = t.sort_by(
            [("predicate", "ascending"), ("subject", "ascending"),
             ("object", "ascending")]
        ).drop_columns(["__part"])
        n = t.num_rows
        if dedup and n > 1:
            # consecutive-duplicate mask over the sorted full key
            keep = None
            for col in ("predicate", "subject", "object"):
                a = t[col].combine_chunks()
                neq = pc.not_equal(a.slice(1), a.slice(0, n - 1))
                keep = neq if keep is None else pc.or_(keep, neq)
            t = t.filter(pa.concat_arrays([pa.array([True]), keep]))
        # the hive key per predicate RUN of the sorted part: no second
        # encoding, and the key strings never ride the exchange
        runs = pc.run_end_encode(t["predicate"].combine_chunks())
        keys = pa.array(
            [predicate_key(p) for p in runs.values.to_pylist()], pa.string()
        )
        return t.append_column("pred_key", pc.run_end_decode(
            pa.RunEndEncodedArray.from_arrays(runs.run_ends.to_numpy(), keys)
        ))

    clustered = exchange([(ds, None)], [], sort_part, num_parts, part_ids=part_ids)
    # zstd: the store is written once and scanned by every downstream
    # stage; ~half the on-disk bytes vs snappy for a decode cost that
    # parallelizes across scan tasks (this host's disk is ~100 MB/s,
    # so store I/O otherwise bounds ingest AND every wide scan)
    clustered.materialize().write_parquet(
        root, partition_cols=["pred_key"], compression="zstd"
    )


class StoreInfo:
    """The footer facts of a statement store, read in one pass
    (`store_info`): per predicate directory (its `pred_key`) the parquet
    files in name order, each as (path, rows, uncompressed data bytes).

    Bytes are the footers' per-row-group `total_byte_size`: the
    codec-invariant data-volume metric every shuffle / partition sizing
    decision keys on. On-disk file size is NOT usable for that: sorted
    string triples compress ~10–25× under zstd (and variably under
    snappy, depending on dictionary-page fallback), so the same logical
    data can read as 130 MB or 3 GB on disk. Footer `total_byte_size`
    moves with the data, not the codec.

    `build_state` reads it once and keeps it on the BuildState: the
    build's sizing calls and every scan's read grouping take their
    numbers from it, and no footer is read again."""

    def __init__(self, root: str, files: dict[str, list[tuple[str, int, int]]]):
        self.root = root
        self.files = files

    def of(self, predicates: list[str] | None = None) -> list[tuple[str, int, int]]:
        """The (path, rows, bytes) of the files of `predicates`'
        partitions (None: every file), in key then file name order."""
        keys = (
            sorted(self.files) if predicates is None
            else sorted({predicate_key(p) for p in predicates})
        )
        return [f for k in keys for f in self.files.get(k, ())]

    def nbytes(self, predicates: list[str] | None = None) -> int:
        """Uncompressed data bytes of (some predicates' partitions of)
        the store: the estimate that sizes shuffle partition counts
        (`joins.partitions_for_nbytes`)."""
        return sum(nbytes for *_, nbytes in self.of(predicates))

    def num_rows(self, predicates: list[str] | None = None) -> int:
        """Rows of (some predicates' partitions of) the store: pre-sizes
        state decisions (whether the URI mapping fits driver RAM) BEFORE
        any state is built."""
        return sum(rows for _, rows, _ in self.of(predicates))


def store_info(root: str, predicates: list[str] | None = None) -> StoreInfo:
    """One pass over the footers of the store's files (only the
    partitions of `predicates`, when given): metadata reads, no data
    scan."""
    import pyarrow.parquet as pq

    keys = None if predicates is None else {predicate_key(p) for p in predicates}
    files: dict[str, list[tuple[str, int, int]]] = {}
    for d in sorted(os.listdir(root)) if os.path.isdir(root) else ():
        key = d[len("pred_key="):]
        if not d.startswith("pred_key=") or (keys is not None and key not in keys):
            continue
        found = files[key] = []
        for f in sorted(os.listdir(os.path.join(root, d))):
            if f.endswith(".parquet"):
                path = os.path.join(root, d, f)
                md = pq.read_metadata(path)
                found.append((path, md.num_rows, sum(
                    md.row_group(i).total_byte_size
                    for i in range(md.num_row_groups)
                )))
    return StoreInfo(root, files)


def read_blocks_for_nbytes(
    nbytes: int, target_mb: int = 64, cap: int = 2048, min_mb: int = 4
) -> int:
    """Read block count for a many-small-file parquet read that FEEDS A
    SHUFFLE. `joins.exchange` creates one map-output object per (map
    task × reducer), with one map task per input block unless the
    caller bundles them; a read that keeps one block per file over
    hundreds of staged files makes that exchange quadratic in file
    count (measured under Ray's sort shuffle: the 44 M-row combined
    dedup ran 723×723 ≈ 523k objects, 85 s at 8 CPUs; bounded to 16–128
    blocks the same dedup is 25 s). Sizing: ~`target_mb` UNCOMPRESSED
    parquet data bytes per block (`StoreInfo` bytes), with a
    2×-cluster-CPU parallelism floor that is ITSELF capped so no block
    falls under `min_mb` — an unconditional CPU floor makes tiny-volume
    shuffles scale their exchange width with the SESSION, not the data
    (measured: sf0.1 kg_build at 32 CPUs ran 2× slower than at 8 — 64
    blocks × 32 partitions of kilobyte objects per job — and dropped
    from 24–33 s to ~15 s with the volume-capped floor, while 8-CPU
    times and large-volume runs, where by_size dominates, are
    unchanged)."""
    base = min(
        2 * default_join_partitions(cap=None),
        int(nbytes // (min_mb << 20)) + 1,
    )
    by_size = int(nbytes // (target_mb << 20)) + 1
    return max(base, min(by_size, cap))


_SPO = ["subject", "predicate", "object"]


@ray.remote
def _read_files(paths: list[str], predicates: list[str], columns: list[str],
                num_blocks: int):
    """One read task of `scan_predicate`: the rows of `paths` whose
    predicate is one of `predicates` (the exact filter: partition keys
    may collide), read by pyarrow.dataset in file order, as
    `num_blocks` row slices, then the slices' `BlockMeta`s (one more
    return)."""
    import pyarrow.dataset as pds

    t = pds.dataset(paths, format="parquet").to_table(
        columns=columns, filter=pc.field("predicate").isin(predicates),
        use_threads=False,
    )
    bounds = [i * t.num_rows // num_blocks for i in range(num_blocks + 1)]
    slices = [t.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]
    return (*slices, [block_meta(b) for b in slices])


def _read_groups(files: list[tuple[str, int, int]], num_blocks: int) -> list:
    """(paths, blocks) per read task: `files` ((path, rows, bytes), in
    scan order) cut into contiguous runs of about equal bytes, about
    `num_blocks` blocks in all. A file is never split across tasks:
    with more blocks than files, each file is a task of its own that
    slices its rows into its byte share of the blocks."""
    total = sum(nbytes for *_, nbytes in files) or 1
    if num_blocks >= len(files):
        return [
            ([path], max(1, round(nbytes * num_blocks / total)))
            for path, _, nbytes in files
        ]
    groups: dict[int, list[str]] = {}
    seen = 0
    for path, _, nbytes in files:
        # the run whose byte range holds the file's midpoint
        at = min(num_blocks - 1, int((seen + nbytes / 2) * num_blocks / total))
        groups.setdefault(at, []).append(path)
        seen += nbytes
    return [(paths, 1) for paths in groups.values()]


def scan_predicate(
    root: str,
    predicates: str | list[str],
    columns: list[str] | None = None,
    wide: bool = False,
    store: StoreInfo | None = None,
) -> Blocks:
    """All (subject, object[, predicate]) rows for the given predicate
    term(s); partition-pruned read (replaces the RocksDB prefix seek,
    partitioned_statements.rs:39-48). Missing predicates yield no rows.

    The engine reads the store itself, with no Ray Data read job: plain
    Ray tasks (`_read_files`), each running pyarrow.dataset over one
    contiguous group of the partitions' files with the exact predicate
    filter inside the task; each task returns its blocks' rows, bytes
    and schema beside them. The result is a `joins.Blocks` (the call
    returns once every block is read): a consumer maps its blocks in
    its exchange's map tasks (`joins.exchange`'s `(input, fn)` inputs)
    or in plain tasks (`joins.map_blocks`). Ray Data's parquet
    read samples fragments in tasks of its own and blocks on them
    before it plans (measured on an idle 2-CPU session: the whole
    67-file store in 0.24 s against 0.076 s in 2 plain tasks), and on
    a busy session those tasks wait behind the build's exchanges.

    `store` holds the files and their sizes (BuildState.store); without
    it the partitions' footers are read here."""
    preds = [predicates] if isinstance(predicates, str) else list(predicates)
    files = (store or store_info(root, preds)).of(preds)
    cols = columns or _SPO
    if not files:
        return Blocks.of(pa.table({c: pa.array([], pa.string()) for c in cols}))
    # bound block count: these scans feed exchanges whose width
    # follows input block count (see read_blocks_for_nbytes), with the
    # volume-capped count: few-files reads split to a volume-appropriate
    # width and many-files reads merge (PERF_NOTES #29)
    nbytes = sum(n for *_, n in files)
    nblocks = read_blocks_for_nbytes(nbytes)
    if wide:
        # consumer is a map/materialize, NOT an exchange: the
        # shuffle-width bound above caps parallelism below the session
        # width (measured: the build_state input-reduction scan was
        # 16-block-bound at 32 CPUs — 4.1 s vs 6.7 s at 8, eff 0.41).
        # Widen to ~2 blocks per CPU, still floored at ~4 MB per block
        # so tiny scans don't shatter into kilobyte tasks.
        cpus = (
            int(ray.cluster_resources().get("CPU", 4))
            if ray.is_initialized()
            else 4
        )
        nblocks = max(nblocks, min(2 * cpus, nbytes // (4 << 20) + 1))
    blocks, metas = [], []
    for paths, k in _read_groups(files, nblocks):
        *out, meta = _read_files.options(num_returns=k + 1).remote(
            paths, preds, cols, k
        )
        blocks += out
        metas.append(meta)
    return Blocks(blocks, [m for ms in ray.get(metas) for m in ms])


# ---------------------------------------------------------------------------
# N-Triples
# ---------------------------------------------------------------------------

# Fast-path line shape: terms that canonicalize to THEMSELVES, so the
# extracted strings can be emitted without touching Python — IRIs and
# blank nodes (identity by definition), plain/lang literals WITHOUT
# backslash escapes (unescape∘escape is identity). Typed literals
# (integer/double/dateTime canonicalization, xsd:string collapse) and
# escaped strings fall back to the per-line parser. Anchored, so a
# matching line yields exactly what _TERM_RE.findall would.
_NT_IRI = r"<[^>]*>"
_NT_BNODE = r"_:[A-Za-z0-9._-]+"
_NT_PLAIN = r'"[^"\\]*"(?:@[A-Za-z0-9-]+)?'
_NT_FAST_RE = (
    rf"^(?P<s>{_NT_IRI}|{_NT_BNODE})[ \t]+(?P<p>{_NT_IRI})[ \t]+"
    rf"(?P<o>{_NT_IRI}|{_NT_BNODE}|{_NT_PLAIN})[ \t]*\.?$"
)


def parse_ntriples_batch(batch: pa.Table) -> pa.Table:
    """'text' lines → (subject, predicate, object); bad lines dropped
    (tolerant load, partitioned_statements.rs:82-128).

    Vectorized: one RE2 `extract_regex` classifies and splits every
    line that needs no canonicalization work (the overwhelming shape of
    real N-Triples dumps) entirely in Arrow; only the remainder —
    escaped or typed literals, comments, malformed lines — takes the
    per-line Python parser, merged back in line order."""
    lines = batch["text"].combine_chunks().cast(pa.string())
    n = len(lines)
    if n == 0:
        empty = pa.array([], pa.string())
        return pa.table(
            {"subject": empty, "predicate": empty, "object": empty}
        )
    lines = pc.utf8_trim(lines, " \t\r\n")
    ex = pc.extract_regex(lines, _NT_FAST_RE)
    fast = ex.is_valid().to_numpy(zero_copy_only=False)
    slow_idx = np.flatnonzero(~fast)
    slow_rows: dict[int, tuple[str, str, str]] = {}
    if len(slow_idx):
        pylines = pc.take(lines, pa.array(slow_idx, pa.int64())).to_pylist()
        for i, ln in zip(slow_idx, pylines):
            row = T.parse_ntriples_line(ln) if ln is not None else None
            if row is not None:
                slow_rows[int(i)] = row
    if not slow_rows:
        sel = ex.filter(pa.array(fast))
        return pa.table(
            {
                "subject": sel.field("s"),
                "predicate": sel.field("p"),
                "object": sel.field("o"),
            }
        )
    ok_idx = sorted(slow_rows)
    parsed_ok = np.zeros(n, dtype=bool)
    parsed_ok[ok_idx] = True
    keep = pa.array(fast | parsed_ok)
    mask = pa.array(parsed_ok)
    cols = {}
    for j, (field, name) in enumerate(
        zip(("s", "p", "o"), ("subject", "predicate", "object"))
    ):
        vals = pa.array([slow_rows[i][j] for i in ok_idx], pa.string())
        merged = pc.replace_with_mask(ex.field(field), mask, vals)
        cols[name] = merged.filter(keep)
    return pa.table(cols)


def read_ntriples(paths: str | list[str]) -> Dataset:
    """Streaming N-Triples(.gz) → (subject, predicate, object) Dataset."""
    return ray.data.read_text(paths).map_batches(
        parse_ntriples_batch, batch_format="pyarrow"
    )


def _line_array(st: pa.Table) -> pa.Array:
    """Newline-terminated N-Triples / RDF* lines as ONE Arrow string
    array — `binary_join_element_wise` concatenates at C speed with no
    Python or pandas string ever materialized. Rows whose annotation
    columns are non-empty get the RDF* `<< s p o >> ap ao .` form
    (plan.rs:2314-2358), plain `s p o .` otherwise."""
    s = st.column("subject").combine_chunks()
    p = st.column("predicate").combine_chunks()
    o = st.column("object").combine_chunks()
    lines = pc.binary_join_element_wise(s, p, o, ".\n", "\t")
    if "annotation_predicate" in st.column_names:
        ap = st.column("annotation_predicate").combine_chunks()
        ao = st.column("annotation_object").combine_chunks()
        starred = pc.binary_join_element_wise(
            "<<", s, p, o, ">>", ap, ao, ".\n", "\t"
        )
        lines = pc.if_else(pc.equal(ap, ""), lines, starred)
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    return lines


def _utf8_payload(arr: pa.Array, a: int, b: int) -> memoryview:
    """UTF-8 bytes of `arr[a:b]` straight from the Arrow data buffer —
    a zero-copy replacement for ``"\\n".join(python_strings)``. Valid
    because `_line_array` rows are newline-terminated and non-null."""
    if b <= a:
        return memoryview(b"")
    dt = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    offs = np.frombuffer(arr.buffers()[1], dtype=dt)
    a += arr.offset
    b += arr.offset
    return memoryview(arr.buffers()[2])[offs[a]:offs[b]]


def _span_bounds(*key_arrays: np.ndarray) -> list[int]:
    """Boundaries of equal-key runs in pre-sorted key arrays."""
    n = len(key_arrays[0])
    if n == 0:
        return [0]
    change = key_arrays[0][1:] != key_arrays[0][:-1]
    for k in key_arrays[1:]:
        change = change | (k[1:] != k[:-1])
    return [0, *(np.flatnonzero(change) + 1).tolist(), n]


def _clear_stale_parts(path: str) -> None:
    """Remove leftover part files before a rewrite: a rerun with
    different inputs may produce FEWER parts than a previous run left
    behind, and stale parts would be picked up by the fresh manifest."""
    for f in os.listdir(path):
        if (f.endswith(".nt.gz") or f.endswith(".ntx.gz")
                or f.endswith(".gz.tmp") or f.startswith("_MANIFEST")):
            os.remove(os.path.join(path, f))


class NTriplesGzWriter:
    """The N-Triples writer (plan.rs:2314-2358, model.rs:51-63), run
    by the output exchange's reduce tasks (`build.write_outputs`): rows
    carry a `file` column naming their logical output and the
    exchange's hash-partition id `__part`; the rows of each (file,
    part) go, sorted, to `<base>/<dirname>/part-<__part>.nt.gz`. Rows
    with (annotation_predicate, annotation_object) set become RDF*
    lines. Rows of a file with no entry in `file_names` (an output a
    resumed build keeps) are not written.

    On the driver, `start` makes the output directories and clears
    their parts before the exchange, and `commit` writes each output's
    checkpoint manifest from what the reducers returned after it.

    Each part file is written to a tmp file and renamed into place,
    its gzip header without a write time: a retried reducer rewrites
    the same bytes through the same tmp + rename, and a killed one
    leaves no partial part behind."""

    def __init__(self, base_dir: str, file_names: dict[str, str],
                 lineage: str | None = None,
                 extensions: dict[str, str] | None = None):
        self.base_dir = base_dir
        self.file_names = file_names  # file tag → directory name
        self.lineage = lineage
        # per-tag extension override (RDF* outputs use .ntx.gz like the
        # reference's yago-wd-annotated-facts.ntx.gz, plan.rs:170)
        self.extensions = extensions or {}
        self._start = None

    def part_name(self, tag: str, part_id: int) -> str:
        return f"part-{part_id:05d}{self.extensions.get(tag, '.nt.gz')}"

    def start(self) -> None:
        import time

        self._start = time.perf_counter()
        for name in self.file_names.values():
            target = os.path.join(self.base_dir, name)
            os.makedirs(target, exist_ok=True)
            _clear_stale_parts(target)

    def write(self, table: pa.Table) -> pa.Table:
        """Write the (file, part) files of `table`'s rows; returns one
        (file, __part, rows) row per file written."""
        tags, part_ids, counts = [], [], []
        if table.num_rows:
            names = table.column_names
            missing = [c for c in ("file", "__part") if c not in names]
            if missing:
                # part files are named by __part, a function of the row
                # alone: reruns write byte-identical files whatever the
                # task scheduling
                raise ValueError(
                    f"NTriplesGzWriter rows need {missing} (the output "
                    "exchange's part id names the part file)"
                )
            keys = ["file", "__part"] + [
                c
                for c in ("subject", "predicate", "object",
                          "annotation_predicate", "annotation_object")
                if c in names
            ]
            # ONE Arrow sort keyed (file, __part, s, p, o, …) makes every
            # (file, part) group a contiguous span; lines are assembled
            # once for the whole table and each span's UTF-8 payload is
            # sliced zero-copy from the Arrow buffer — no pandas frame,
            # no Python strings (measured ~4× over the sort_values +
            # Series-concat + join path)
            st = table.select(keys)
            st = st.take(
                pc.sort_indices(st, sort_keys=[(c, "ascending") for c in keys])
            ).combine_chunks()
            lines = _line_array(st)
            file_np = pc.dictionary_encode(
                st.column("file").chunk(0)
            ).indices.to_numpy()
            parts_np = st.column("__part").to_numpy()
            bounds = _span_bounds(file_np, parts_np)
            files = st.column("file")
            for a, b in zip(bounds, bounds[1:]):
                tag = files[a].as_py()
                name = self.file_names.get(tag)
                if name is None:
                    continue
                part_id = int(parts_np[a])
                out = os.path.join(
                    self.base_dir, name, self.part_name(tag, part_id)
                )
                tmp = out + ".tmp"
                # mtime=0: no write time in the gzip header, so a rerun
                # writes byte-identical files
                with gzip.GzipFile(tmp, "wb", compresslevel=1, mtime=0) as f:
                    f.write(_utf8_payload(lines, a, b))
                os.replace(tmp, out)
                tags.append(tag)
                part_ids.append(part_id)
                counts.append(b - a)
        return pa.table({
            "file": pa.array(tags, pa.string()),
            "__part": pa.array(part_ids, pa.int64()),
            "rows": pa.array(counts, pa.int64()),
        })

    def commit(self, written: list[pa.Table]) -> None:
        """Write each output's manifest from the `write` returns of
        every reducer: its rows per part file and their sum."""
        if self.lineage is None:
            return
        import time

        from .checkpoint import write_manifest

        wall = time.perf_counter() - (self._start or time.perf_counter())
        part_rows: dict[str, dict[str, int]] = {
            tag: {} for tag in self.file_names
        }
        for t in written:
            for tag, part_id, rows in zip(
                t.column("file").to_pylist(), t.column("__part").to_pylist(),
                t.column("rows").to_pylist(),
            ):
                part_rows[tag][self.part_name(tag, part_id)] = rows
        for tag, name in self.file_names.items():
            write_manifest(
                os.path.join(self.base_dir, name), self.lineage,
                part_rows[tag], wall,
            )


# ---------------------------------------------------------------------------
# Documents (interleaved text+media)
# ---------------------------------------------------------------------------

def read_documents(path: str, columns: list[str] | None = None) -> Dataset:
    """Read the interleaved corpus (doc_id, spans list<struct>).
    Prefers Lance (the input_hint's table format): real `lance` when
    the package is importable, else the from-scratch lancelite dataset
    layout (versioned manifests over immutable fragments — see
    yago4_ray.lancelite); falls back to Parquet with the identical
    Arrow schema."""
    if os.path.isdir(path) and path.endswith(".lance"):
        from . import lancelite

        if lancelite.is_lancelite(path):
            return lancelite.read_lancelite(path, columns=columns)
        try:
            import lance  # noqa: F401

            return ray.data.read_lance(path, columns=columns)
        except ImportError:
            pass
    # a corpus directory holds documents.parquet; a large corpus writes
    # documents.parquet itself as a directory of part files
    if os.path.exists(os.path.join(path, "documents.parquet")):
        path = os.path.join(path, "documents.parquet")
    return ray.data.read_parquet(path, columns=columns)


def span_signature_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, span_sig) where span_sig is a stable hash of the ordered
    (kind, text, media_ref, offset) sequence — the per-row invariant the
    input_hint requires every stage to preserve."""
    import hashlib

    doc_ids = batch["doc_id"].to_pylist()
    sigs = []
    for spans in batch["spans"].to_pylist():
        h = hashlib.sha1()
        for s in spans or []:
            h.update(
                f"{s['kind']}\x00{s['text']}\x00{s['media_ref']}\x00{s['offset']}\x01".encode()
            )
        sigs.append(h.hexdigest())
    return pa.table(
        {"doc_id": pa.array(doc_ids, pa.string()), "span_sig": pa.array(sigs, pa.string())}
    )
