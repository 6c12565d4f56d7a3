"""Each rebuild pipeline runs once.

A lazy Dataset's `to_arrow_refs()` executes the pipeline, then fetches
its schema through `limit(1)`, which runs the pipeline a second time
when the limit cannot be pushed below a sort or shuffle. Build stages
therefore hand each other `joins.Blocks`: finished task results with
the rows, bytes and schema of every block, which nothing re-runs, and
no build stage wraps them in a Dataset (each construction a Ray Data
stats-actor round trip, each `from_arrow_refs` a metadata task per
block). The distributed
path's item join (with its `si_by_item` pre-join) is one item-keyed
exchange that every consumer shares, so it must be built once per
BuildState.

Every build-path exchange is one `joins.exchange`, and each is a fixed
all-to-all latency: the distributed path runs one exchange per join
key, and neither path may grow new ones. The exchange is plain Ray
tasks, and no Ray Data shuffle (groupby, sort, repartition,
random_shuffle, join) is called during a build.
Every store scan (`sources.scan_predicate`) reads its files in plain
Ray tasks and costs a round of read tasks, so neither path may grow
new scans either. A build runs no Ray Data execution at all: the scans
are materialized reads, their maps run in the consuming exchange's map
tasks or in plain per-block tasks, and the build succeeds with
`ray.data.read_parquet` raising. The store's footers are read once, by
build_state; generate_yago reads none.
generate_yago writes its outputs from memory: no parquet file is
staged on the way to the output exchanges, whose reduce tasks write the
parts. Each state object has one object-store copy: the packed URI map
is the merge task's output, never put again from the driver, and the
packed class set is put once.
The driver collects only the fused state scan's rows it reads."""

import sys

import pytest


def _caller() -> str:
    """`module.function` that called the recording wrapper calling this."""
    frame = sys._getframe(2)
    return f"{frame.f_globals.get('__name__')}.{frame.f_code.co_name}"


@pytest.fixture(scope="module", params=[False, True], ids=["broadcast", "distributed"])
def build_calls(request, statements_root, tmp_path_factory):
    """Run build_state + generate_yago once, recording the class of every
    `to_arrow_refs` receiver and of every input an exchange or a block
    map reads, every `ray.data.from_arrow_refs` call and `Dataset`
    construction with its caller, the number of `si_by_item` builds, the
    calling function of every `joins.exchange` call and of every Ray
    Data shuffle method call, the operator classes and names of every
    Ray Data execution, the number of store-scan plans and of the
    parquet writes generate_yago makes, the parquet footer reads of
    build_state and of generate_yago, and the value-column count (for
    a HashIndex) and calling function of every driver `ray.put`
    argument. `ray.data.read_parquet` raises (and records the attempt)
    throughout. One Ray Data job after the build checks that the
    execution recorder is hooked, so an empty execution list means the
    build ran none, and constructs a Dataset, so an empty construction
    list means the build constructed none."""
    import pyarrow.parquet as pq
    import ray
    import ray.data
    from ray.data._internal.execution.streaming_executor import StreamingExecutor
    from ray.data.dataset import Dataset

    from yago4_ray import build, build_dist, joins, sources, state as state_mod
    from yago4_ray.broadcast import HashIndex
    from yago4_ray.build import generate_yago
    from yago4_ray.state import build_state

    receivers: list[type] = []
    stage_inputs: list[type] = []
    from_arrow_refs_calls: list[str] = []
    constructions: list[str] = []
    si_calls = [0]
    exchanges: list[str] = []
    shuffles: list[str] = []
    scans = [0]
    executions: list[list[tuple[type, str]]] = []
    parquet_writes = [0]
    footers = [0]
    read_parquet_calls: list[str] = []
    puts: list[tuple[int | None, str]] = []
    put = ray.put
    scan_predicate = sources.scan_predicate
    to_arrow_refs = Dataset.to_arrow_refs
    blocks_of = joins._blocks_of
    map_blocks = joins.map_blocks
    from_arrow_refs = ray.data.from_arrow_refs
    dataset_init = Dataset.__init__
    execute = StreamingExecutor.execute
    exchange = joins.exchange
    si_by_item = build_dist.si_by_item
    write_parquet = Dataset.write_parquet
    write_table = pq.write_table
    read_metadata = pq.read_metadata

    def recording_to_arrow_refs(self):
        receivers.append(type(self))
        return to_arrow_refs(self)

    def recording_blocks_of(ds):
        stage_inputs.append(type(ds))
        return blocks_of(ds)

    def recording_map_blocks(blocks, fn):
        stage_inputs.append(type(blocks))
        return map_blocks(blocks, fn)

    def recording_from_arrow_refs(*args, **kwargs):
        from_arrow_refs_calls.append(_caller())
        return from_arrow_refs(*args, **kwargs)

    def recording_dataset_init(self, *args, **kwargs):
        frame = sys._getframe(1)
        while frame and not frame.f_globals.get("__name__", "").startswith(
            "yago4_ray"
        ):
            frame = frame.f_back
        constructions.append(
            f"{frame.f_globals['__name__']}.{frame.f_code.co_name}" if frame
            else "outside yago4_ray"
        )
        return dataset_init(self, *args, **kwargs)

    def recording_exchange(*args, **kwargs):
        exchanges.append(_caller())
        return exchange(*args, **kwargs)

    def recording_shuffle(name):
        method = getattr(Dataset, name)

        def recording(self, *args, **kwargs):
            shuffles.append(f"{name} from {_caller()}")
            return method(self, *args, **kwargs)

        return recording

    def counting_scan_predicate(*args, **kwargs):
        scans[0] += 1
        return scan_predicate(*args, **kwargs)

    def recording_execute(self, dag, *args, **kwargs):
        ops, todo = [], [dag]
        while todo:
            op = todo.pop()
            ops.append((type(op), op.name))
            todo.extend(op.input_dependencies)
        executions.append(ops)
        return execute(self, dag, *args, **kwargs)

    def counting_write_parquet(self, *args, **kwargs):
        parquet_writes[0] += 1
        return write_parquet(self, *args, **kwargs)

    def counting_write_table(*args, **kwargs):
        parquet_writes[0] += 1
        return write_table(*args, **kwargs)

    def counting_read_metadata(*args, **kwargs):
        footers[0] += 1
        return read_metadata(*args, **kwargs)

    def raising_read_parquet(*args, **kwargs):
        read_parquet_calls.append(_caller())
        raise RuntimeError("the build must read the store without Ray Data")

    def recording_put(value, *args, **kwargs):
        # value columns of a put HashIndex (0: a set); None: not an index
        n_values = len(value.values) if isinstance(value, HashIndex) else None
        puts.append((n_values, _caller()))
        return put(value, *args, **kwargs)

    def counting_si_by_item(state):
        si_calls[0] += 1
        return si_by_item(state)

    out = str(tmp_path_factory.mktemp("single_execution"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Dataset, "to_arrow_refs", recording_to_arrow_refs)
        mp.setattr(joins, "_blocks_of", recording_blocks_of)
        # every module that maps blocks imports the function by name
        for module in (joins, build, build_dist, state_mod):
            mp.setattr(module, "map_blocks", recording_map_blocks)
        mp.setattr(ray.data, "from_arrow_refs", recording_from_arrow_refs)
        mp.setattr(Dataset, "__init__", recording_dataset_init)
        for name in ("groupby", "sort", "repartition", "random_shuffle", "join"):
            mp.setattr(Dataset, name, recording_shuffle(name))
        # every module that exchanges imports the function by name
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("yago4_ray")
                    and getattr(module, "exchange", None) is exchange):
                mp.setattr(module, "exchange", recording_exchange)
        mp.setattr(StreamingExecutor, "execute", recording_execute)
        mp.setattr(build_dist, "si_by_item", counting_si_by_item)
        mp.setattr(Dataset, "write_parquet", counting_write_parquet)
        mp.setattr(pq, "write_table", counting_write_table)
        mp.setattr(pq, "read_metadata", counting_read_metadata)
        mp.setattr(ray.data, "read_parquet", raising_read_parquet)
        mp.setattr(ray, "put", recording_put)
        # every module that scans imports the function by name
        for module in (sources, build, build_dist, state_mod):
            mp.setattr(module, "scan_predicate", counting_scan_predicate)
        state = build_state(statements_root, distributed=request.param)
        writes_before = parquet_writes[0]
        state_footers = footers[0]
        generate_yago(statements_root, state=state, out_dir=out)
        n_build = len(executions)
        n_constructions = len(constructions)
        # one Ray Data job under the same hooks: the recorders are live
        ray.data.range(2).materialize()
    assert state.distributed == request.param
    return {
        "distributed": request.param,
        "receivers": receivers,
        "stage_inputs": stage_inputs,
        "from_arrow_refs": from_arrow_refs_calls,
        "constructions": constructions[:n_constructions],
        "probe_constructions": len(constructions) - n_constructions,
        "si_calls": si_calls[0],
        "exchanges": exchanges,
        "shuffles": shuffles,
        "scans": scans[0],
        "executions": executions[:n_build],
        "probe_executions": len(executions) - n_build,
        "parquet_writes": parquet_writes[0] - writes_before,
        "state_footers": state_footers,
        "generate_footers": footers[0] - state_footers,
        "read_parquet_calls": read_parquet_calls,
        "store_files": len(state.store.of()),
        "puts": puts,
        "out_dir": out,
    }


def test_to_arrow_refs_receivers_are_materialized(build_calls):
    """No stage input re-runs a pipeline: every input an exchange or a
    block map reads is a `joins.Blocks` (finished task results, nothing
    to run), and a Dataset whose refs the build reads, if any, is
    materialized."""
    from ray.data.dataset import MaterializedDataset

    from yago4_ray.joins import Blocks

    inputs = build_calls["stage_inputs"]
    assert inputs, "no exchange or block-map input was recorded"
    not_blocks = [t.__name__ for t in inputs if not issubclass(t, Blocks)]
    assert not not_blocks, f"stage input(s) that may re-run a pipeline: {not_blocks}"
    receivers = build_calls["receivers"]
    lazy = [r.__name__ for r in receivers if not issubclass(r, MaterializedDataset)]
    assert not lazy, f"{len(lazy)} lazy to_arrow_refs receiver(s) re-run their pipeline"


def test_si_by_item_built_once_per_state(build_calls):
    assert build_calls["si_calls"] == (1 if build_calls["distributed"] else 0)


def test_exchange_budget(build_calls):
    """Broadcast: shape instances, clean values, the facts join (its
    annotated rows included), maxCount (the join's rows keyed on the
    mapped subject) and the two output dedups.
    Distributed: those plus si_by_item and the item and value-node
    joins — one exchange per join key. Every one is a `joins.exchange`
    call, and no Ray Data shuffle runs beside them."""
    callers = build_calls["exchanges"]
    assert not build_calls["shuffles"], build_calls["shuffles"]
    if build_calls["distributed"]:
        assert len(callers) <= 9, callers
    else:
        assert len(callers) == 6, callers


def test_store_scan_budget(build_calls):
    """Broadcast: the fused state scan, clean values, the shape
    instances' P31, the output scan, and the facts' subject scan and
    object scan (the annotation objects ride the latter). Distributed:
    the item-keyed families of all of these share one item scan; the
    clean values, the value nodes, the best-rank ids, the stateless
    object rows and the class labels are scanned apart."""
    if build_calls["distributed"]:
        assert build_calls["scans"] <= 8, build_calls["scans"]
    else:
        assert build_calls["scans"] <= 6, build_calls["scans"]


def test_execution_budget(build_calls):
    """A build runs no Ray Data execution on either path: each would cost
    a fixed start (and a read's fragment-sampling tasks) before it
    touches a row. The store scans are plain read tasks whose blocks
    come back materialized; every map over a scan runs in the consuming
    exchange's map tasks (routing, the P31 fan-out, the best-rank ids,
    the value nodes) or in plain per-block tasks (the fused state
    scan's routing, the output scan's rows). So no execution can hold a
    Ray Data all-to-all operator, a union of legs or a write job: the
    exchanges are plain tasks, an exchange side's legs are inputs of
    one exchange, and the output exchange's reduce tasks write the
    parts."""
    assert build_calls["probe_executions"] == 1, "the execution recorder is not hooked"
    assert not build_calls["executions"], [
        " -> ".join(name for _, name in ops) for ops in build_calls["executions"]
    ]


def test_no_dataset_between_stages(build_calls):
    """Build stages hand each other `joins.Blocks`: build_state +
    generate_yago call `ray.data.from_arrow_refs` (one metadata task per
    block, the driver blocked on all of them) nowhere and construct no
    Dataset (a Ray Data stats-actor round trip each) on either path."""
    assert build_calls["probe_constructions"], "the construction recorder is not hooked"
    assert not build_calls["from_arrow_refs"], build_calls["from_arrow_refs"]
    assert not build_calls["constructions"], build_calls["constructions"]


def test_no_write_or_union_execution(build_calls):
    """The legs of an exchange side are inputs of one exchange, not a
    Ray Data union, and the parts are written by the output exchange's
    reduce tasks, not a Ray Data write job."""
    from ray.data._internal.execution.operators.union_operator import (
        UnionOperator,
    )

    held = [
        [name for op, name in ops if issubclass(op, UnionOperator) or name == "Write"]
        for ops in build_calls["executions"]
    ]
    assert build_calls["probe_executions"] == 1, "the execution recorder is not hooked"
    assert not [h for h in held if h], held


def test_no_all_to_all_execution(build_calls):
    """The exchange is plain Ray tasks: no build execution holds a Ray
    Data all-to-all operator (a sort shuffle, or a hash shuffle behind a
    native join or aggregate)."""
    from ray.data._internal.execution.operators.base_physical_operator import (
        AllToAllOperator,
    )
    from ray.data._internal.execution.operators.hash_shuffle import (
        HashShufflingOperatorBase,
    )

    all_to_all = (AllToAllOperator, HashShufflingOperatorBase)
    held = [
        [op.__name__ for op, _ in ops if issubclass(op, all_to_all)]
        for ops in build_calls["executions"]
    ]
    assert build_calls["probe_executions"] == 1, "the execution recorder is not hooked"
    assert not [h for h in held if h], held


def test_store_read_without_ray_data(build_calls):
    """build_state + generate_yago succeed with `ray.data.read_parquet`
    raising: no caller reached it (nor caught its error)."""
    assert not build_calls["read_parquet_calls"], build_calls["read_parquet_calls"]


def test_one_footer_pass_per_build(build_calls):
    """build_state reads each store file's footer once (one pass, kept
    as BuildState.store); generate_yago's sizing calls and scans read
    the kept facts and no footer."""
    assert build_calls["state_footers"] == build_calls["store_files"] > 0, (
        build_calls["state_footers"], build_calls["store_files"]
    )
    assert build_calls["generate_footers"] == 0, build_calls["generate_footers"]


def test_state_objects_put_once(build_calls):
    """The packed URI map reaches the object store once, as the remote
    merge task's output: no map (a HashIndex with value columns) is put
    from the driver (the shape instances' P31 fan-out reads that same
    ref). The packed `yago_classes` set (no value column) is the only
    set the driver puts, once, by build_shape_instances, and the
    class-label family reads that ref."""
    puts = build_calls["puts"]
    assert puts, "ray.put was never called"
    maps = [c for n, c in puts if n]
    assert not maps, f"HashIndex map put(s) from the driver: {maps}"
    sets = [c for n, c in puts if n == 0]
    assert sets == ["yago4_ray.state.build_shape_instances"], sets


def test_driver_collects_only_the_kinds_it_reads(statements_root):
    """collect_input_reductions reads the enwiki, P279 and count rows of
    the fused state scan; the item markers, URI candidates and best-rank
    hashes stay off the driver (no table it `ray.get`s holds one)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from yago4_ray import state as S
    from yago4_ray.schema import Schema

    got: list[pa.Table] = []
    get = ray.get

    def recording_get(refs, *args, **kwargs):
        value = get(refs, *args, **kwargs)
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, pa.Table):
                got.append(v)
        return value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ray, "get", recording_get)
        S.collect_input_reductions(statements_root, Schema.open(), S.Stats())
    tables = [t for t in got if "kind" in t.column_names]
    assert tables, "the driver no longer collects the routed rows"
    unread = pa.array(
        [S._K_MARKER, S._K_WIKI, S._K_LABEL, S._K_BESTRANK], pa.int8()
    )
    for t in tables:
        assert not pc.any(pc.is_in(t["kind"], value_set=unread)).as_py()


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
