"""Stores written before the compact measurement body keep serving warm.

``tests/golden/legacy_store`` is a result store recorded by the release
before ``Measurement.to_dict`` wrote counters compactly: every record
carries one ``thread_counters`` entry per hardware thread.  Store keys,
the record envelope and the checksum scheme did not change, so this
store must verify clean, serve the whole plan below with zero machine
invocations, and return measurements equal bit for bit to a one-shot
run.  Regenerate the fixture only from a release that writes the old
body: ``legacy_plan`` is the plan it holds.
"""

import json
import shutil
import struct
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.exec import ExperimentPlan, ResultStore, SerialExecutor
from repro.sim import (
    Machine,
    MachineConfig,
    Placement,
    get_pstate,
    parse_topology,
)
from repro.stressmark.search import build_stressmark

FIXTURE = Path(__file__).parent.parent / "golden" / "legacy_store"

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
    # Reads may heal sidecar indexes: serve a copy, never the fixture.
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
