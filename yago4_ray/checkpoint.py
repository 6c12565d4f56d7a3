"""Per-output checkpoint manifests: resumable batch output.

What "resumable from checkpoint" means for this engine (north_rule /
SURVEY §4): every output directory carries a `_MANIFEST.json` recording
the input *lineage* (a hash of the statement-store layout + the shape
rule set + the output format version), the names of its part files, its
rows per part and in total, and the stage's throughput. A rerun with
the same lineage skips the finished output entirely, provided every
listed part still exists; a lineage mismatch (different input, rules or output
format) invalidates it.
Part files themselves are written atomically (tmp + rename) by the
N-Triples writer, so a killed run never leaves a partial part behind —
at worst a missing manifest, which forces that output (and only it) to
rerun.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

MANIFEST_NAME = "_MANIFEST.json"


def compute_lineage(
    statements_root: str, extra_tokens: list[str] | None = None
) -> str:
    """Hash of the input layout (partition dirs + file names + sizes) and
    any extra tokens (rule-set hash, engine version)."""
    h = hashlib.blake2b(digest_size=16)
    if os.path.isdir(statements_root):
        for dirpath, dirnames, filenames in sorted(os.walk(statements_root)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, statements_root)
                h.update(f"{rel}:{os.path.getsize(path)};".encode())
    for token in extra_tokens or []:
        h.update(token.encode())
    return h.hexdigest()


def write_manifest(
    output_dir: str,
    lineage: str,
    part_rows: dict[str, int],
    wall_seconds: float,
    extra: dict | None = None,
) -> None:
    """Commit `output_dir`'s manifest: its part files, the rows the
    writer wrote to each (`part_rows`, part file name → rows) and
    their sum."""
    parts = sorted(
        f for f in os.listdir(output_dir) if not f.startswith("_")
    )
    num_rows = sum(part_rows.values())
    manifest = {
        "lineage": lineage,
        "num_rows": int(num_rows),
        "num_parts": len(parts),
        "parts": parts,
        "part_rows": dict(sorted(part_rows.items())),
        "wall_seconds": round(wall_seconds, 3),
        "rows_per_second": round(num_rows / wall_seconds, 1) if wall_seconds else None,
        "completed_unix": int(time.time()),
    }
    if extra:
        manifest.update(extra)
    tmp = os.path.join(output_dir, MANIFEST_NAME + ".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, os.path.join(output_dir, MANIFEST_NAME))


def read_manifest(output_dir: str) -> dict | None:
    path = os.path.join(output_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as f:
            return json.load(f)
    except (json.JSONDecodeError, OSError):
        return None


def is_complete(output_dir: str, lineage: str) -> bool:
    """True iff the output was fully written from the same input: the
    manifest exists, lineage matches, and every listed part file exists."""
    manifest = read_manifest(output_dir)
    if manifest is None or manifest.get("lineage") != lineage:
        return False
    return all(
        os.path.exists(os.path.join(output_dir, p))
        for p in manifest.get("parts", [])
    )
