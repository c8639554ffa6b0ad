"""Batch store reads return what per-key reads return, bit for bit.

Every store read goes through one batch path
(:meth:`ResultStore.get_many`, :meth:`~ResultStore.get_bodies`,
:meth:`~ResultStore.get_kernels`): keys group by shard, each group is
re-scanned at most once, read in offset order and parsed with one
``json.loads``.  ``tests/oracle/store_reads.py`` keeps the per-key
reads it replaced.  Each test reads one copy of a store through the
batch path and an identical copy key by key through the oracle, then
compares every result (floats by their packed bits), ``hits``/
``misses``, the kernel counters, ``fault_stats()`` and the quarantine
log.

The store holds valid cells and kernels beside every kind of record a
read must quarantine or pass over: a tampered record, a sum-less one,
a foreign-formatted line, an unparseable line, a torn tail, a
checksum-valid body that does not decode and one that does not parse,
retired v1 kernel records (``tests/golden/legacy_kernels``), and the
key lists add absent and repeated keys.  ``tests/golden/legacy_store``
is read the same way.
"""

import contextlib
import json
import logging
import random
import shutil
import struct
from pathlib import Path

import pytest

from repro.core.passes import (
    DependencyDistance,
    EndlessLoopSkeleton,
    InitImmediates,
    InitRegisters,
    InstructionDistribution,
    MemoryModel,
)
from repro.core.synthesizer import Synthesizer
from repro.exec import ExperimentPlan, ResultStore, SerialExecutor, faults
from repro.exec.faults import parse_faults
from repro.exec.store import (
    CELLS,
    FORMAT,
    KERNELS,
    _checksum,
    _line,
    kernel_body,
    record_checksum,
    render_record,
)
from repro.sim import Machine, MachineConfig, get_pstate
from repro.stressmark.search import build_stressmark
from tests.oracle import store_reads

GOLDEN = Path(__file__).parent.parent / "golden"

FAULT_PLANS = [None, "io:1", "seed:11,io:0.3"]


def _bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


def _cell_bits(measurement) -> tuple | None:
    if measurement is None:
        return None
    return (
        measurement.workload_name,
        measurement.config,
        measurement.config.to_dict(),
        _bits(measurement.duration),
        tuple(
            tuple((name, _bits(value)) for name, value in counters.items())
            for counters in measurement.thread_counters
        ),
        _bits(measurement.mean_power),
        _bits(measurement.power_std),
        measurement.sample_count,
        measurement.thread_workloads,
    )


def _kernel_bits(kernel) -> tuple | None:
    if kernel is None:
        return None
    return (
        kernel.name,
        kernel.slot_table(),
        _bits(kernel.operand_entropy),
        kernel.period,
        kernel.analytic_period,
        kernel.digest(),
    )


def _recipe(arch) -> Synthesizer:
    synth = Synthesizer(arch, seed=5, name_prefix="batch")
    synth.add_pass(EndlessLoopSkeleton(64))
    synth.add_pass(InstructionDistribution(["add", "lwz", "stw", "fmadd"]))
    synth.add_pass(MemoryModel({"L1": 0.5, "L2": 0.5}))
    synth.add_pass(InitRegisters("random"))
    synth.add_pass(InitImmediates("random"))
    synth.add_pass(DependencyDistance("mean", mean_distance=2.5))
    return synth


def _append(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("ab") as handle:
        handle.write(data)


def _build(root: Path, arch) -> tuple[list[str], list[str]]:
    """A store of good and damaged records; (cell keys, kernel keys)
    naming every record it holds, the torn one included."""
    kernels = [
        build_stressmark(arch, sequence, 64)
        for sequence in (
            ("mulldo", "lxvw4x"),
            ("xvnmsubmdp", "mulldo"),
            ("lxvw4x", "xvnmsubmdp"),
        )
    ]
    configs = [
        MachineConfig(1, 1),
        MachineConfig(2, 2).with_p_state(get_pstate("p2")),
        MachineConfig(4, 4),
        MachineConfig(8, 2),
    ]
    plan = ExperimentPlan.cross(kernels, configs, duration=1.0)
    with ResultStore(root) as store:
        executor = SerialExecutor(Machine(arch), store=store)
        measurements = executor.run(plan)
        good = executor.keys_of(plan)
    body = measurements[0].to_dict()
    shards = root / CELLS.directory
    damaged = []

    def key_beside(index: int, tag: str) -> str:
        # A key in the shard of a good cell, so groups mix good and bad.
        key = good[index % len(good)][:2] + tag * 30
        damaged.append(key)
        return key

    key = key_beside(0, "a")  # tampered after the checksum was taken
    text = json.dumps(dict(body, mean_power=body["mean_power"] + 1.0),
                      sort_keys=True)
    _append(shards / f"{key[:2]}.jsonl",
            _line(CELLS, key, text, record_checksum(key, body)))
    key = key_beside(1, "b")  # no checksum at all
    record = {"format": FORMAT, "key": key, "measurement": body}
    _append(shards / f"{key[:2]}.jsonl",
            json.dumps(record, sort_keys=True).encode() + b"\n")
    key = key_beside(2, "c")  # verified through the parse path
    record = dict(record, key=key, sum=record_checksum(key, body))
    _append(shards / f"{key[:2]}.jsonl",
            json.dumps(record, separators=(",", ":")).encode() + b"\n")
    key = key_beside(3, "d")  # checksum-valid, does not decode
    threads = [99] * len(body["threads"])
    _append(shards / f"{key[:2]}.jsonl",
            render_record(key, dict(body, threads=threads)))
    key = key_beside(3, "e")  # checksum-valid, does not parse
    text = '{"config": '
    _append(shards / f"{key[:2]}.jsonl",
            _line(CELLS, key, text, _checksum(CELLS, key, text)))
    _append(shards / f"{good[4][:2]}.jsonl", b"not a store record\n")
    key = key_beside(5, "f")  # a crashed writer's torn tail
    _append(shards / f"{key[:2]}.jsonl", render_record(key, body)[:-40])

    kernel_root = root / KERNELS.directory
    shutil.copytree(GOLDEN / "legacy_kernels" / "kernels", kernel_root)
    retired = [
        json.loads(line)["key"]
        for shard in sorted(kernel_root.glob("*.jsonl"))
        for line in shard.read_bytes().splitlines()
    ]
    synth = _recipe(arch)
    fresh = [synth.synthesize().to_kernel() for _ in range(4)]
    kernel_keys = [
        retired[index % len(retired)][:2] + f"{index:030x}"
        for index in range(len(fresh))
    ]
    with ResultStore(root) as store:
        store.put_kernels(list(zip(kernel_keys, fresh)))
    spec = kernel_body(fresh[0])
    key = retired[0][:2] + "9" * 30  # tampered kernel record
    _append(kernel_root / f"{key[:2]}.jsonl",
            _line(KERNELS, key,
                  json.dumps(dict(spec, name="other"), sort_keys=True),
                  record_checksum(key, spec, KERNELS)))
    bad = retired[1][:2] + "8" * 30  # checksum-valid, does not decode
    _append(kernel_root / f"{bad[:2]}.jsonl",
            render_record(bad, dict(spec, index=[10 ** 6]), KERNELS))
    return good + damaged, kernel_keys + retired + [key, bad]


def _key_list(keys: list[str], seed: int) -> list[str]:
    """``keys`` with absent keys (in held and unheld shards) and repeats,
    shuffled."""
    rng = random.Random(seed)
    absent = [key[:2] + "7" * 30 for key in keys[:3]] + ["zz" + "0" * 30]
    repeated = rng.sample(keys, 4)
    listed = keys + absent + repeated + repeated[:2]
    rng.shuffle(listed)
    return listed


def _state(store: ResultStore, caplog, root: Path) -> tuple:
    messages = sorted(
        record.getMessage().replace(str(root), "<root>")
        for record in caplog.records
    )
    caplog.clear()
    return (
        store.hits,
        store.misses,
        store.kernel_hits,
        store.kernel_misses,
        store.fault_stats(),
        messages,
    )


def _compare(tmp_path, source: Path, cell_keys, kernel_keys, spec, caplog):
    """Read copies of ``source`` both ways under fault plan ``spec``."""
    caplog.set_level(logging.WARNING)
    roots = []
    for side in ("batch", "oracle"):
        roots.append(tmp_path / side)
        shutil.copytree(source, roots[-1])
    batch_root, oracle_root = roots
    plans = [parse_faults(spec) if spec else None for _ in roots]
    batch, oracle = ResultStore(batch_root), ResultStore(oracle_root)
    rounds = []
    for store, root, plan, read in (
        (batch, batch_root, plans[0], _batch_reads),
        (oracle, oracle_root, plans[1], _oracle_reads),
    ):
        armed = faults.injected(plan) if plan else contextlib.nullcontext()
        with store, armed:
            caplog.clear()
            rounds.append(read(store, root, cell_keys, kernel_keys, caplog))
    assert rounds[0] == rounds[1]
    return rounds[0]


def _batch_reads(store, root, cell_keys, kernel_keys, caplog) -> list:
    steps = []
    for _ in range(2):  # a cold index, then a warm one
        cells = store.get_many(cell_keys)
        steps.append(([_cell_bits(m) for m in cells],
                      _state(store, caplog, root)))
        steps.append((store.get_bodies(cell_keys),
                      _state(store, caplog, root)))
        kernels = store.get_kernels(kernel_keys)
        steps.append(([_kernel_bits(k) for k in kernels],
                      _state(store, caplog, root)))
    return steps


def _oracle_reads(store, root, cell_keys, kernel_keys, caplog) -> list:
    steps = []
    for _ in range(2):
        cells = [store_reads.get(store, key) for key in cell_keys]
        steps.append(([_cell_bits(m) for m in cells],
                      _state(store, caplog, root)))
        bodies = [store_reads.get_body(store, key) for key in cell_keys]
        steps.append((bodies, _state(store, caplog, root)))
        kernels = [store_reads.get_kernel(store, key) for key in kernel_keys]
        steps.append(([_kernel_bits(k) for k in kernels],
                      _state(store, caplog, root)))
    return steps


@pytest.fixture(scope="module")
def damaged_store(tmp_path_factory, power7_arch):
    root = tmp_path_factory.mktemp("damaged") / "store"
    cell_keys, kernel_keys = _build(root, power7_arch)
    return root, _key_list(cell_keys, 1), _key_list(kernel_keys, 2)


@pytest.mark.parametrize("spec", FAULT_PLANS)
def test_batch_reads_equal_per_key_reads(
    tmp_path, damaged_store, spec, caplog
):
    root, cell_keys, kernel_keys = damaged_store
    steps = _compare(tmp_path, root, cell_keys, kernel_keys, spec, caplog)
    # The store reaches the paths the comparison claims to cover.
    cells, (hits, misses, _, _, stats, _) = steps[0]
    assert hits and misses
    if spec is None:
        assert stats == {"checksum_failures": 2, "corrupt_records": 3}
        # A body that parses but does not decode is a hit as bytes.
        bodies = steps[1][0]
        assert sum(body is not None for body in bodies) > sum(
            cell is not None for cell in cells
        )
    else:
        assert stats["io_errors"]
    kernel_hits, kernel_misses = steps[2][1][2:4]
    assert kernel_hits and kernel_misses


@pytest.mark.parametrize("spec", FAULT_PLANS)
def test_legacy_store_reads_equal_per_key_reads(tmp_path, spec, caplog):
    source = GOLDEN / "legacy_store"
    with ResultStore(source) as store:
        keys = store.keys()
    steps = _compare(tmp_path, source, _key_list(keys, 3), [], spec, caplog)
    hits = steps[0][1][0]
    assert hits


def test_each_shard_is_scanned_once_per_batch(
    tmp_path, damaged_store, monkeypatch
):
    root, cell_keys, kernel_keys = damaged_store
    shutil.copytree(root, tmp_path / "store")
    scans = []
    refresh = ResultStore._refresh
    monkeypatch.setattr(
        ResultStore,
        "_refresh",
        lambda store, shard: scans.append(shard.path.name)
        or refresh(store, shard),
    )
    with ResultStore(tmp_path / "store") as store:
        store.get_many(cell_keys)
        # A fresh store indexes nothing yet: every group scans once.
        assert sorted(scans) == sorted({f"{k[:2]}.jsonl" for k in cell_keys})
        scans.clear()
        store.get_many(cell_keys)
        # Warm: only the groups holding a key the index lacks re-scan.
        lacking = {
            f"{key[:2]}.jsonl"
            for key in cell_keys
            if key not in store._shard(key).offsets
        }
        assert sorted(scans) == sorted(lacking)
        scans.clear()
        store.get_kernels(kernel_keys)
        assert len(scans) == len({key[:2] for key in kernel_keys})


def test_each_configuration_decodes_once_per_batch(
    tmp_path, damaged_store, monkeypatch
):
    root, cell_keys, _ = damaged_store
    shutil.copytree(root, tmp_path / "store")
    decodes = []
    decode = MachineConfig.from_dict.__func__
    monkeypatch.setattr(
        MachineConfig,
        "from_dict",
        classmethod(lambda cls, data: decodes.append(data) or decode(cls, data)),
    )
    with ResultStore(tmp_path / "store") as store:
        cells = store.get_many(cell_keys)
    found = [cell for cell in cells if cell is not None]
    distinct = {cell.config for cell in found}
    assert len(found) > len(distinct) > 1
    assert len(decodes) == len(distinct)
    # The batch's measurements share one object per configuration.
    assert len({id(cell.config) for cell in found}) == len(distinct)
