"""Each rebuild pipeline runs once.

A lazy Dataset's `to_arrow_refs()` executes the pipeline, then fetches
its schema through `limit(1)`, which runs the pipeline a second time
when the limit cannot be pushed below a sort or shuffle. Every receiver
on the build path must therefore be materialized first. The distributed
path's item join (with its `si_by_item` pre-join) is one item-keyed
exchange that every consumer shares, so it must be built once per
BuildState.

Every build-path exchange is one `Dataset.groupby("__part")` in
joins.py, and each is a fixed all-to-all latency: the distributed path
runs one exchange per join key, and neither path may grow new ones.
Every store scan (`sources.scan_predicate`) costs driver planning that
grows with the files it reads, so neither path may grow new scans
either. generate_yago writes its outputs from memory: no parquet file is
staged on the way to the gz sinks. Each state object has one
object-store copy: the packed URI map is the merge task's output, never
put again from the driver."""

import pytest


@pytest.fixture(scope="module", params=[False, True], ids=["broadcast", "distributed"])
def build_calls(request, statements_root, tmp_path_factory):
    """Run build_state + generate_yago once, recording the class of every
    `to_arrow_refs` receiver, the number of `si_by_item` builds, of
    `Dataset.groupby` exchanges, of store-scan plans, of the parquet
    writes generate_yago makes and the type of every driver `ray.put`
    argument."""
    import pyarrow.parquet as pq
    import ray
    from ray.data.dataset import Dataset

    from yago4_ray import build, build_dist, sources, state as state_mod
    from yago4_ray.build import generate_yago
    from yago4_ray.state import build_state

    receivers: list[type] = []
    si_calls = [0]
    exchanges = [0]
    scans = [0]
    parquet_writes = [0]
    put_types: list[type] = []
    put = ray.put
    scan_predicate = sources.scan_predicate
    to_arrow_refs = Dataset.to_arrow_refs
    groupby = Dataset.groupby
    si_by_item = build_dist.si_by_item
    write_parquet = Dataset.write_parquet
    write_table = pq.write_table

    def recording_to_arrow_refs(self):
        receivers.append(type(self))
        return to_arrow_refs(self)

    def counting_groupby(self, *args, **kwargs):
        exchanges[0] += 1
        return groupby(self, *args, **kwargs)

    def counting_scan_predicate(*args, **kwargs):
        scans[0] += 1
        return scan_predicate(*args, **kwargs)

    def counting_write_parquet(self, *args, **kwargs):
        parquet_writes[0] += 1
        return write_parquet(self, *args, **kwargs)

    def counting_write_table(*args, **kwargs):
        parquet_writes[0] += 1
        return write_table(*args, **kwargs)

    def recording_put(value, *args, **kwargs):
        put_types.append(type(value))
        return put(value, *args, **kwargs)

    def counting_si_by_item(state):
        si_calls[0] += 1
        return si_by_item(state)

    out = str(tmp_path_factory.mktemp("single_execution"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Dataset, "to_arrow_refs", recording_to_arrow_refs)
        mp.setattr(Dataset, "groupby", counting_groupby)
        mp.setattr(build_dist, "si_by_item", counting_si_by_item)
        mp.setattr(Dataset, "write_parquet", counting_write_parquet)
        mp.setattr(pq, "write_table", counting_write_table)
        mp.setattr(ray, "put", recording_put)
        # every module that scans imports the function by name
        for module in (sources, build, build_dist, state_mod):
            mp.setattr(module, "scan_predicate", counting_scan_predicate)
        state = build_state(statements_root, distributed=request.param)
        writes_before = parquet_writes[0]
        generate_yago(statements_root, state=state, out_dir=out, write=True)
    assert state.distributed == request.param
    return {
        "distributed": request.param,
        "receivers": receivers,
        "si_calls": si_calls[0],
        "exchanges": exchanges[0],
        "scans": scans[0],
        "parquet_writes": parquet_writes[0] - writes_before,
        "put_types": put_types,
        "out_dir": out,
    }


def test_to_arrow_refs_receivers_are_materialized(build_calls):
    from ray.data.dataset import MaterializedDataset

    receivers = build_calls["receivers"]
    assert receivers, "the build path no longer calls to_arrow_refs"
    lazy = [r.__name__ for r in receivers if not issubclass(r, MaterializedDataset)]
    assert not lazy, f"{len(lazy)} lazy to_arrow_refs receiver(s) re-run their pipeline"


def test_si_by_item_built_once_per_state(build_calls):
    assert build_calls["si_calls"] == (1 if build_calls["distributed"] else 0)


def test_exchange_budget(build_calls):
    """Broadcast: shape instances, clean values, the facts join,
    maxCount and the two output dedups. Distributed: those plus
    si_by_item and the item and value-node joins — one exchange per
    join key. The annotations stitch under the volume cap on both
    paths."""
    if build_calls["distributed"]:
        assert build_calls["exchanges"] <= 9, build_calls["exchanges"]
    else:
        assert build_calls["exchanges"] == 6, build_calls["exchanges"]


def test_store_scan_budget(build_calls):
    """Broadcast: the fused state scan, clean values, the shape
    instances' P31, the output scan, and the facts' subject, object and
    annotation scans. Distributed: the item-keyed families of all of
    these share one item scan; the clean values, the value nodes, the
    best-rank ids, the stateless object rows and the class labels are
    scanned apart."""
    if build_calls["distributed"]:
        assert build_calls["scans"] <= 8, build_calls["scans"]
    else:
        assert build_calls["scans"] <= 7, build_calls["scans"]


def test_state_objects_put_once(build_calls):
    """The packed URI map reaches the object store once, as the remote
    merge task's output: no HashedMap is put from the driver (the shape
    instances' P31 fan-out reads that same ref)."""
    from yago4_ray.broadcast import HashedMap

    assert build_calls["put_types"], "ray.put was never called"
    maps = [t for t in build_calls["put_types"] if issubclass(t, HashedMap)]
    assert not maps, f"{len(maps)} HashedMap put(s) from the driver"


def test_write_path_stages_nothing(build_calls):
    """Every output leg reaches the dedup in memory: no parquet write
    and no staging directory."""
    import os

    assert build_calls["parquet_writes"] == 0, build_calls["parquet_writes"]
    assert not [
        d for d in os.listdir(build_calls["out_dir"]) if d.startswith(".")
    ]


def test_item_join_cached_builds_once_under_concurrent_consumers(
    monkeypatch, run_concurrently
):
    """generate_yago reaches item_join_cached from the facts thread and
    the scan-output thread at once; they must share one build."""
    from types import SimpleNamespace

    from yago4_ray import build_dist

    builds = []

    class Built:
        def materialize(self):
            return self

    def fake_item_join(root, state):
        builds.append(state)
        return Built()

    monkeypatch.setattr(build_dist, "item_join", fake_item_join)
    state = SimpleNamespace(datasets={})
    got = run_concurrently(lambda: build_dist.item_join_cached("store", state))
    assert len(builds) == 1
    assert all(ds is got[0] for ds in got)
