"""Stores written by earlier releases keep working.

``tests/golden/legacy_store`` is a result store recorded by the release
before ``Measurement.to_dict`` wrote counters compactly: every record
carries one ``thread_counters`` entry per hardware thread.  Store keys,
the record envelope and the checksum scheme did not change, so this
store must verify clean, serve the whole plan below with zero machine
invocations -- locally and through the campaign service, which streams
the old bodies as stored -- and return measurements equal bit for bit
to a one-shot run.  Regenerate the fixture only from a release that writes the old
body: ``legacy_plan`` is the plan it holds.

``tests/golden/legacy_kernels`` holds kernel records in the v1 layout
(``repro-kernel-v1``, the slot table as one list per slot), written by
the release before the v2 record through a :class:`KernelMemo` from
the three kernels of ``legacy_recipe``.  They verify clean, read as
plain misses -- no fault, no warning -- and are superseded by the v2
records the memo then writes; scrub compacts them away as undamaged.
"""

import json
import logging
import shutil
import struct
import threading
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.core.passes import (
    DependencyDistance,
    EndlessLoopSkeleton,
    InitImmediates,
    InitRegisters,
    InstructionDistribution,
    MemoryModel,
)
from repro.core.synthesizer import KernelMemo, Synthesizer
from repro.exec import (
    ExperimentPlan,
    MeasurementService,
    RemoteExecutor,
    ResultStore,
    SerialExecutor,
    ServiceClient,
    build_server,
)
from repro.exec.store import KERNELS
from repro.sim import (
    Machine,
    MachineConfig,
    Placement,
    get_pstate,
    parse_topology,
)
from repro.stressmark.search import build_stressmark

FIXTURE = Path(__file__).parent.parent / "golden" / "legacy_store"
KERNEL_FIXTURE = Path(__file__).parent.parent / "golden" / "legacy_kernels"

_DURATION = 1.0


def legacy_plan(arch) -> ExperimentPlan:
    """Kernel cells on three SMT modes, a topology cell and a mix cell."""
    kernels = [
        build_stressmark(arch, sequence, 96)
        for sequence in (("mulldo", "lxvw4x"), ("xvnmsubmdp", "mulldo"))
    ]
    configs = [
        MachineConfig(1, 1),
        MachineConfig(2, 2).with_p_state(get_pstate("p2")),
        MachineConfig(8, 4),
    ]
    cells = list(
        ExperimentPlan.cross(kernels, configs, duration=_DURATION).cells
    )
    cells += ExperimentPlan.cross(
        kernels[:1],
        [parse_topology("2big-2@p2+2little")],
        duration=_DURATION,
    ).cells
    mix = Placement(
        "mix", ((kernels[0], kernels[1]), (kernels[1], kernels[1]))
    )
    cells += ExperimentPlan.cross(
        [mix], [MachineConfig(2, 2)], duration=_DURATION
    ).cells
    return ExperimentPlan(cells)


def _exact(measurement) -> tuple:
    def bits(value):
        return struct.pack("<d", value) if isinstance(value, float) else value

    return (
        measurement.workload_name,
        measurement.config,
        bits(measurement.duration),
        # Store records sort counter names, so compare sets by name.
        tuple(
            tuple(
                sorted((name, bits(value)) for name, value in counters.items())
            )
            for counters in measurement.thread_counters
        ),
        bits(measurement.mean_power),
        bits(measurement.power_std),
        measurement.sample_count,
        measurement.thread_workloads,
    )


@pytest.fixture
def legacy_store(tmp_path) -> Path:
    # Reads never write, but a store-backed run records itself in the
    # ledger and scrub rewrites shards: serve a copy, never the fixture.
    store_dir = tmp_path / "store"
    shutil.copytree(FIXTURE, store_dir)
    return store_dir


def _records(store_dir: Path) -> list[dict]:
    return [
        json.loads(line)
        for shard in sorted((store_dir / "shards").glob("*.jsonl"))
        for line in shard.read_bytes().splitlines()
    ]


class TestPreChangeStore:
    def test_fixture_holds_the_old_body(self, legacy_store, power7_arch):
        records = _records(legacy_store)
        assert len(records) == legacy_plan(power7_arch).size
        for record in records:
            assert record["format"] == "repro-result-v1"
            assert "sum" in record
            body = record["measurement"]
            assert "thread_counters" in body and "counters" not in body

    def test_verifies_ok(self, legacy_store, power7_arch, capsys):
        report = ResultStore(legacy_store).verify()
        assert report.ok
        assert report.checksummed == legacy_plan(power7_arch).size
        assert main(["store", "verify", "--store", str(legacy_store)]) == 0

    def test_serves_warm_with_zero_machine_calls(
        self, legacy_store, power7_arch
    ):
        plan = legacy_plan(power7_arch)
        machine = Machine(power7_arch)

        def forbid(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("machine invoked on a warm legacy store")

        machine.run = machine.run_many = machine.run_cells = forbid
        machine.run_idle = forbid
        store = ResultStore(legacy_store)
        warm = SerialExecutor(machine, store=store).run(plan)
        store.close()
        assert store.misses == 0 and store.hits == plan.size

        one_shot = SerialExecutor(Machine(power7_arch)).run(plan)
        assert warm == one_shot
        assert [_exact(m) for m in warm] == [_exact(m) for m in one_shot]

    def test_serves_warm_through_the_service(self, legacy_store, power7_arch):
        """Served over HTTP, the old bodies stream as stored and decode
        on the client to the one-shot run, bit for bit, with zero
        measurements on the server."""
        plan = legacy_plan(power7_arch)
        service = MeasurementService(store=legacy_store)
        calls = []

        def forbid(*args, **kwargs):  # pragma: no cover - failure path
            calls.append(args)
            raise AssertionError("machine invoked on a warm legacy store")

        service._engine("POWER7", 0).machine.run_cells = forbid
        server = build_server(service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{server.server_port}"
        try:
            lines = list(ServiceClient(url).submit(plan))
            served = RemoteExecutor(url, retries=0).run(plan)
            counters = service.stats()["service"]
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        assert not calls
        assert counters["warm_cells"] == 2 * plan.size
        assert counters["measured_cells"] == 0
        bodies = [line["measurement"] for line in lines if "cell" in line]
        assert len(bodies) == plan.size
        assert all("thread_counters" in body for body in bodies)

        one_shot = SerialExecutor(Machine(power7_arch)).run(plan)
        assert served == one_shot
        assert [_exact(m) for m in served] == [_exact(m) for m in one_shot]

    def test_scrub_keeps_old_records_byte_for_byte(self, legacy_store):
        before = {
            path.name: path.read_bytes()
            for path in (legacy_store / "shards").glob("*.jsonl")
        }
        report = ResultStore(legacy_store).scrub()
        assert report.dropped == 0
        after = {
            path.name: path.read_bytes()
            for path in (legacy_store / "shards").glob("*.jsonl")
        }
        assert after == before


# -- v1 kernel records -----------------------------------------------------------


def legacy_recipe(arch) -> Synthesizer:
    """The recipe whose ordinals 0-2 the kernel fixture holds."""
    synth = Synthesizer(arch, seed=11, name_prefix="legacy")
    synth.add_pass(EndlessLoopSkeleton(64))
    synth.add_pass(InstructionDistribution(["add", "lwz", "stw", "fmadd"]))
    synth.add_pass(MemoryModel({"L1": 0.5, "L2": 0.5}))
    synth.add_pass(InitRegisters("random"))
    synth.add_pass(InitImmediates("random"))
    synth.add_pass(DependencyDistance("mean", mean_distance=2.5))
    return synth


_LEGACY_KERNELS = 3


@pytest.fixture
def legacy_kernels(tmp_path) -> Path:
    store_dir = tmp_path / "store"
    shutil.copytree(KERNEL_FIXTURE, store_dir)
    return store_dir


def _kernel_formats(store_dir: Path) -> dict[str, list[str]]:
    """Each kernel shard's record formats, in file order."""
    return {
        shard.name: [
            json.loads(line)["format"]
            for line in shard.read_bytes().splitlines()
        ]
        for shard in sorted((store_dir / "kernels").glob("*.jsonl"))
    }


def _load(store_dir: Path, arch) -> tuple[list, ResultStore]:
    store = ResultStore(store_dir)
    with KernelMemo(store, arch) as memo:
        synth = legacy_recipe(arch)
        kernels = [synth.kernel(memo) for _ in range(_LEGACY_KERNELS)]
    store.close()
    return kernels, store


class TestV1KernelRecords:
    def test_fixture_holds_v1_records(self, legacy_kernels):
        formats = _kernel_formats(legacy_kernels)
        assert sum(map(len, formats.values())) == _LEGACY_KERNELS
        assert {f for shard in formats.values() for f in shard} == {
            "repro-kernel-v1"
        }
        for shard in (legacy_kernels / "kernels").glob("*.jsonl"):
            body = json.loads(shard.read_bytes())["kernel"]
            assert isinstance(body["slots"], list)

    def test_verifies_clean(self, legacy_kernels):
        report = ResultStore(legacy_kernels).verify()
        assert report.ok, report.problems
        assert report.kernel_records == report.kernel_keys == _LEGACY_KERNELS
        assert main(["store", "verify", "--store", str(legacy_kernels)]) == 0

    def test_read_as_plain_misses_then_rewritten_as_v2(
        self, legacy_kernels, power7_arch, caplog
    ):
        synth = legacy_recipe(power7_arch)
        fresh = [synth.kernel() for _ in range(_LEGACY_KERNELS)]
        with caplog.at_level(logging.WARNING, logger="repro.exec.store"):
            cold, store = _load(legacy_kernels, power7_arch)
        assert cold == fresh
        assert (store.kernel_hits, store.kernel_misses) == (0, _LEGACY_KERNELS)
        assert store.fault_stats() == {}
        assert caplog.records == []
        # Each shard gains the v2 record after its v1 one; the newest wins.
        assert set(map(tuple, _kernel_formats(legacy_kernels).values())) == {
            ("repro-kernel-v1", KERNELS.format)
        }
        warm, store = _load(legacy_kernels, power7_arch)
        assert (store.kernel_hits, store.kernel_misses) == (_LEGACY_KERNELS, 0)
        assert store.fault_stats() == {}
        assert [kernel.digest() for kernel in warm] == [
            kernel.digest() for kernel in fresh
        ]
        assert warm == fresh
        report = ResultStore(legacy_kernels).verify()
        assert report.ok
        assert report.kernel_records == 2 * _LEGACY_KERNELS
        assert report.kernel_keys == _LEGACY_KERNELS

    @pytest.mark.parametrize("rewritten", [False, True])
    def test_scrub_compacts_v1_records_as_undamaged(
        self, legacy_kernels, power7_arch, rewritten
    ):
        if rewritten:
            _load(legacy_kernels, power7_arch)
        report = ResultStore(legacy_kernels).scrub()
        assert report.ok
        assert (report.dropped, report.compacted) == (0, _LEGACY_KERNELS)
        remaining = [KERNELS.format] * rewritten
        assert set(map(tuple, _kernel_formats(legacy_kernels).values())) == {
            tuple(remaining)
        }
        _, store = _load(legacy_kernels, power7_arch)
        assert store.kernel_hits == _LEGACY_KERNELS * rewritten
        assert store.fault_stats() == {}
