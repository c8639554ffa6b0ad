"""Result-store round trips and warm-run semantics.

Covers the serialization satellite (serialize -> JSON -> deserialize
-> *identical* objects for PState, MachineConfig, Kernel, Placement and
Measurement) and the acceptance property that a warm store serves a
whole campaign -- including the Figure-9 stressmark search -- with
zero ``Machine`` measurement calls.
"""

import gc
import json
import warnings

import pytest

from repro.exec import ExperimentPlan, SerialExecutor
from repro.measure.measurement import Measurement
from repro.sim import (
    Kernel,
    Machine,
    MachineConfig,
    Placement,
    PState,
    get_pstate,
)
from repro.stressmark.search import build_stressmark, covering_sequences
from repro.workloads import spec_cpu2006

_DURATION = 1.0


def _json_round_trip(payload):
    return json.loads(json.dumps(payload))


class TestSerializationRoundTrips:
    def test_pstate(self):
        p_state = get_pstate("p2")
        assert PState.from_dict(_json_round_trip(p_state.to_dict())) == p_state

    def test_machine_config(self):
        config = MachineConfig(4, 2).with_p_state(get_pstate("turbo"))
        rebuilt = MachineConfig.from_dict(_json_round_trip(config.to_dict()))
        assert rebuilt == config
        assert rebuilt.label == "4-2@turbo"

    def test_aperiodic_kernel_exact(self, small_kernel_factory):
        kernel = small_kernel_factory("ld", count=24, dep=3, level="L2")
        rebuilt = Kernel.from_dict(_json_round_trip(kernel.to_dict()))
        assert rebuilt == kernel
        assert rebuilt.digest() == kernel.digest()

    def test_periodic_kernel_preserves_digest(self, power7_arch):
        kernel = build_stressmark(
            power7_arch, ("mulldo", "lxvw4x", "xvnmsubmdp"), 96
        )
        rebuilt = Kernel.from_dict(_json_round_trip(kernel.to_dict()))
        assert rebuilt.period == kernel.period
        assert rebuilt.digest() == kernel.digest()
        assert rebuilt == kernel

    def test_placement(self, small_kernel_factory):
        placement = Placement(
            "mix",
            (
                (
                    small_kernel_factory("addic", count=24),
                    small_kernel_factory("ld", count=24, level="MEM"),
                ),
            ),
        )
        rebuilt = Placement.from_dict(_json_round_trip(placement.to_dict()))
        assert rebuilt == placement
        assert rebuilt.canonical_salt() == placement.canonical_salt()

    def test_placement_with_protocol_workload_rejected(self):
        placement = Placement("spec", ((spec_cpu2006()[0],),))
        with pytest.raises(TypeError, match="only kernel placements"):
            placement.to_dict()

    def test_measurement_bit_identical(self, machine, small_kernel_factory):
        config = MachineConfig(2, 2).with_p_state(get_pstate("p2"))
        measurement = machine.run(
            small_kernel_factory("fmadd", count=24), config, _DURATION
        )
        rebuilt = Measurement.from_dict(
            _json_round_trip(measurement.to_dict())
        )
        assert rebuilt == measurement

    def test_placement_measurement_round_trip(
        self, machine, small_kernel_factory
    ):
        config = MachineConfig(1, 2)
        mix = Placement(
            "mix",
            (
                (
                    small_kernel_factory("addic", count=24),
                    small_kernel_factory("ld", count=24, level="MEM"),
                ),
            ),
        )
        measurement = machine.run(mix, config, _DURATION)
        rebuilt = Measurement.from_dict(
            _json_round_trip(measurement.to_dict())
        )
        assert rebuilt == measurement
        assert rebuilt.thread_workloads == measurement.thread_workloads
        assert rebuilt.is_heterogeneous


class TestResultStore:
    def test_put_get_contains(
        self, machine, small_kernel_factory, tmp_path, open_store
    ):
        store = open_store(tmp_path / "store")
        measurement = machine.run(
            small_kernel_factory("add", count=24), MachineConfig(1, 1), _DURATION
        )
        assert store.get("ab" * 16) is None
        store.put("ab" * 16, measurement)
        assert "ab" * 16 in store
        assert store.get("ab" * 16) == measurement
        assert len(store) == 1
        assert store.keys() == ["ab" * 16]

    def test_corrupt_entry_is_a_miss(self, tmp_path, open_store):
        store = open_store(tmp_path)
        shard = store.shard_dir / "cd.jsonl"
        shard.write_text("{not json\n")
        assert store.get("cd" * 16) is None

    def test_format_mismatch_is_a_miss(
        self, machine, small_kernel_factory, tmp_path, open_store
    ):
        store = open_store(tmp_path)
        measurement = machine.run(
            small_kernel_factory("add", count=24), MachineConfig(1, 1), _DURATION
        )
        store.put("ef" * 16, measurement)
        shard = store.shard_dir / "ef.jsonl"
        payload = json.loads(shard.read_text())
        payload["format"] = "something-else"
        shard.write_text(json.dumps(payload) + "\n")
        assert open_store(tmp_path).get("ef" * 16) is None

    def test_put_many_one_append_per_shard(
        self, machine, small_kernel_factory, tmp_path, open_store
    ):
        """A batched write is O(batch): the cells land as appended
        lines in their shard files, and rewriting a key appends a
        newer line that wins on read."""
        store = open_store(tmp_path)
        first = machine.run(
            small_kernel_factory("add", count=24), MachineConfig(1, 1), _DURATION
        )
        second = machine.run(
            small_kernel_factory("mulld", count=24),
            MachineConfig(1, 1),
            _DURATION,
        )
        store.put_many([("ab" * 16, first), ("ab" + "cd" * 15 + "ef", second)])
        shard = store.shard_dir / "ab.jsonl"
        assert len(shard.read_text().splitlines()) == 2
        store.put_many([("ab" * 16, second)])  # overwrite appends
        assert len(shard.read_text().splitlines()) == 3
        assert store.get("ab" * 16) == second
        assert open_store(tmp_path).get("ab" * 16) == second
        assert len(store) == 2

    def test_appends_visible_across_store_objects(
        self, machine, small_kernel_factory, tmp_path, open_store
    ):
        """Two campaigns sharing one directory see each other's writes:
        a miss re-scans the shard tail before giving up."""
        writer = open_store(tmp_path)
        reader = open_store(tmp_path)
        measurement = machine.run(
            small_kernel_factory("add", count=24), MachineConfig(1, 1), _DURATION
        )
        assert reader.get("ab" * 16) is None  # prime the shard index
        writer.put("ab" * 16, measurement)
        assert reader.get("ab" * 16) == measurement

    def test_torn_tail_is_repaired_and_skipped(
        self, machine, small_kernel_factory, tmp_path, open_store
    ):
        """A crashed writer's partial trailing line neither corrupts
        later appends nor is ever served."""
        store = open_store(tmp_path)
        measurement = machine.run(
            small_kernel_factory("add", count=24), MachineConfig(1, 1), _DURATION
        )
        shard = store.shard_dir / "ab.jsonl"
        shard.write_bytes(b'{"format": "repro-result-v1", "key": "ab')
        store.put("ab" * 16, measurement)
        assert store.get("ab" * 16) == measurement
        assert open_store(tmp_path).get("ab" * 16) == measurement

    def test_reader_waits_out_partially_visible_append(
        self, machine, small_kernel_factory, tmp_path, open_store
    ):
        """A reader racing a concurrent append must not skip past the
        torn tail: once the remaining bytes land, the entry is found."""
        writer = open_store(tmp_path)
        reader = open_store(tmp_path)
        measurement = machine.run(
            small_kernel_factory("add", count=24), MachineConfig(1, 1), _DURATION
        )
        writer.put("ab" * 16, measurement)
        shard = writer.shard_dir / "ab.jsonl"
        full = shard.read_bytes()
        # Simulate the reader observing only half the append...
        shard.write_bytes(full[: len(full) // 2])
        assert reader.get("ab" * 16) is None
        # ...then the rest of the write becomes visible.
        shard.write_bytes(full)
        assert reader.get("ab" * 16) == measurement

    def test_stray_per_cell_file_is_ignored(
        self, machine, small_kernel_factory, tmp_path, open_store
    ):
        """Shard files are the only layout: a ``<xx>/<key>.json`` file
        (the pre-shard layout) is neither served, found nor counted."""
        store = open_store(tmp_path)
        measurement = machine.run(
            small_kernel_factory("add", count=24), MachineConfig(1, 1), _DURATION
        )
        stray = tmp_path / "ab" / ("ab" * 16 + ".json")
        stray.parent.mkdir(parents=True)
        stray.write_text(
            json.dumps(
                {
                    "format": "repro-result-v1",
                    "key": "ab" * 16,
                    "measurement": measurement.to_dict(),
                }
            )
        )
        assert store.get("ab" * 16) is None
        assert store.misses == 1 and store.hits == 0
        assert "ab" * 16 not in store
        assert len(store) == 0 and store.keys() == []


def _forbid_measurement(machine):
    """Make any machine measurement path raise loudly."""

    def explode(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("Machine measurement invoked on a warm run")

    machine.run = explode
    machine.run_many = explode
    machine.run_cells = explode
    machine._vector.try_measure_cells = explode


class TestWarmRuns:
    def test_warm_plan_never_touches_the_machine(
        self, power7_arch, small_kernel_factory, tmp_path, open_store
    ):
        kernels = [
            small_kernel_factory("add", count=24),
            small_kernel_factory("mulld", count=24),
        ]
        plan = ExperimentPlan.cross(
            kernels + [spec_cpu2006()[0]],
            [MachineConfig(1, 1), MachineConfig(8, 4)],
            duration=_DURATION,
        )
        store = open_store(tmp_path / "store")
        cold = SerialExecutor(Machine(power7_arch), store=store).run(plan)

        warm_machine = Machine(power7_arch)
        _forbid_measurement(warm_machine)
        warm = SerialExecutor(warm_machine, store=store).run(plan)
        assert warm == cold
        assert store.hits == plan.size

    def test_fig9_stressmark_warm_run_zero_machine_runs(
        self, power7_arch, tmp_path, open_store
    ):
        """The acceptance criterion, at reduced scale: a warm store
        re-run of the Figure-9 search flow performs zero Machine.run
        calls and reproduces the cold results exactly."""
        from repro.stressmark import stressmark_search

        sequences = covering_sequences(("mulldo", "lxvw4x", "xvnmsubmdp"))[:12]
        store = open_store(tmp_path / "store")
        cold_machine = Machine(power7_arch)
        cold = stressmark_search(
            cold_machine,
            sequences,
            loop_size=96,
            duration=_DURATION,
            executor=SerialExecutor(cold_machine, store=store),
        )

        warm_machine = Machine(power7_arch)
        _forbid_measurement(warm_machine)
        warm = stressmark_search(
            warm_machine,
            sequences,
            loop_size=96,
            duration=_DURATION,
            executor=SerialExecutor(warm_machine, store=store),
        )
        assert warm == cold


class TestStoreKeysCarryTheContext:
    """One store serves many contexts: a cell's key carries the
    configuration, the p-state and the window along with the workload,
    so a change of any of them is a fresh measurement, never another
    context's record."""

    @pytest.fixture()
    def run(self, power7_arch, small_kernel_factory, tmp_path, open_store):
        store = open_store(tmp_path / "store")
        kernel = small_kernel_factory("xvmaddadp", count=24)

        def run_(config, duration=_DURATION):
            before = store.hits, store.misses
            executor = SerialExecutor(Machine(power7_arch), store=store)
            [measurement] = executor.run(
                ExperimentPlan.single(kernel, config, duration)
            )
            return (
                measurement,
                store.hits - before[0],
                store.misses - before[1],
            )

        return run_

    def test_configuration_change_measures_afresh(self, run):
        small, _, _ = run(MachineConfig(1, 1))
        big, hits, misses = run(MachineConfig(8, 4))
        assert (hits, misses) == (0, 1)
        # An 8-core SMT-4 deployment draws far more than one thread.
        assert big.mean_power > small.mean_power + 50.0

    def test_p_state_change_measures_afresh(self, run):
        config = MachineConfig(8, 2)
        nominal, _, _ = run(config)
        throttled, hits, misses = run(config.with_p_state(get_pstate("p3")))
        assert (hits, misses) == (0, 1)
        assert throttled.mean_power < nominal.mean_power

    def test_window_change_measures_afresh(self, run):
        config = MachineConfig(2, 1)
        short, _, _ = run(config, duration=1.0)
        long, hits, misses = run(config, duration=2.0)
        assert (hits, misses) == (0, 1)
        assert long.duration == 2.0
        assert long.sample_count == 2 * short.sample_count

    def test_every_context_is_warm_afterwards(self, run):
        contexts = [
            (MachineConfig(1, 1), 1.0),
            (MachineConfig(8, 4), 1.0),
            (MachineConfig(8, 4).with_p_state(get_pstate("p3")), 1.0),
            (MachineConfig(1, 1), 2.0),
        ]
        cold = [run(config, duration)[0] for config, duration in contexts]
        for (config, duration), first in zip(contexts, cold):
            again, hits, misses = run(config, duration)
            assert (hits, misses) == (1, 0)
            assert again == first


class TestInterruptedRuns:
    def test_progress_is_durable_mid_campaign(
        self, power7_arch, small_kernel_factory, tmp_path, open_store
    ):
        """A campaign interrupted between its shard appends keeps every
        shard it appended: a re-run serves those cells warm and
        measures only the rest."""
        machine = Machine(power7_arch)
        plan = ExperimentPlan.cross(
            [
                small_kernel_factory(mnemonic, count=24)
                for mnemonic in ("add", "mulld")
            ],
            [MachineConfig(1, 1), MachineConfig(2, 2)],
            duration=_DURATION,
        )
        store = open_store(tmp_path / "store")
        appended: list[int] = []
        put_many = store.put_many

        def dies_on_second_append(entries):
            if appended:
                raise KeyboardInterrupt
            put_many(entries)
            appended.append(len(entries))

        store.put_many = dies_on_second_append
        with pytest.raises(KeyboardInterrupt):
            SerialExecutor(machine, store=store).run(plan)
        # The first shard's cells survived the interruption...
        assert len(store) == appended[0] < plan.size
        # ...and a re-run only measures the missing ones.
        del store.put_many
        SerialExecutor(machine, store=store).run(plan)
        assert store.hits == appended[0] and len(store) == plan.size


class TestArchDigestKeys:
    def test_cell_keys_stable_across_processes(self, tmp_path):
        """Hash randomization must never shift store keys: a store is
        only useful if a new process computes the same keys."""
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent(
            """
            from repro.exec.plan import PlanCell
            from repro.march import get_architecture
            from repro.sim import MachineConfig
            from repro.stressmark.search import build_stressmark
            from repro.workloads import spec_cpu2006

            arch = get_architecture("POWER7")
            kernel = build_stressmark(arch, ("mulldo", "lxvw4x"), 64)
            digest = arch.content_digest()
            cells = [
                PlanCell(kernel, MachineConfig(2, 2), 1.0),
                PlanCell(spec_cpu2006()[0], MachineConfig(8, 4), 1.0),
            ]
            print(";".join(cell.key("POWER7", 0, digest) for cell in cells))
            """
        )

        def run_once(seed: str) -> str:
            import os

            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (env.get("PYTHONPATH"), "src") if p
            )
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            return result.stdout.strip()

        assert run_once("1") == run_once("2")

    def test_definition_edit_invalidates_store(
        self, small_kernel_factory, tmp_path, open_store
    ):
        """Editing the architecture definition must shift cell keys so
        stale persisted measurements are never served."""
        import dataclasses

        from repro.march import get_architecture

        plan = ExperimentPlan.single(
            small_kernel_factory("add", count=24), MachineConfig(1, 1), _DURATION
        )
        store = open_store(tmp_path / "store")
        SerialExecutor(Machine(get_architecture("POWER7")), store=store).run(plan)

        edited_arch = get_architecture("POWER7")
        prop = edited_arch.properties.get("add")
        edited_arch.properties.add(
            dataclasses.replace(prop, latency=prop.latency + 1.0)
        )
        edited_store_view = SerialExecutor(Machine(edited_arch), store=store)
        edited_store_view.run(plan)
        # The edited machine measured afresh instead of aliasing.
        assert store.misses >= 1 and len(store) == 2

    def test_bootstrap_write_back_keeps_keys_stable(
        self, small_kernel_factory, tmp_path, open_store
    ):
        """epi/avg_power write-backs are not machine physics and must
        not invalidate the store mid-session."""
        from repro.march import get_architecture

        arch = get_architecture("POWER7")
        plan = ExperimentPlan.single(
            small_kernel_factory("add", count=24), MachineConfig(1, 1), _DURATION
        )
        store = open_store(tmp_path / "store")
        SerialExecutor(Machine(arch), store=store).run(plan)
        arch.properties.add(
            arch.properties.get("add").with_bootstrap(epi=1.0, avg_power=9.0)
        )
        warm_machine = Machine(arch)
        _forbid_measurement(warm_machine)
        SerialExecutor(warm_machine, store=store).run(plan)
        assert len(store) == 1


class TestBootstrapThroughEngine:
    def test_warm_store_bootstrap_zero_machine_runs(
        self, tmp_path, open_store
    ):
        from repro.march import get_architecture
        from repro.march.bootstrap import Bootstrapper

        store = open_store(tmp_path / "store")
        mnemonics = ["add", "mulld"]

        cold_arch = get_architecture("POWER7")
        cold_machine = Machine(cold_arch)
        cold = Bootstrapper(
            cold_arch,
            cold_machine,
            loop_size=64,
            duration=_DURATION,
            executor=SerialExecutor(cold_machine, store=store),
        ).run(mnemonics)

        warm_arch = get_architecture("POWER7")
        warm_machine = Machine(warm_arch)
        _forbid_measurement(warm_machine)
        warm = Bootstrapper(
            warm_arch,
            warm_machine,
            loop_size=64,
            duration=_DURATION,
            executor=SerialExecutor(warm_machine, store=store),
        ).run(mnemonics)
        assert warm == cold

    def test_executor_path_matches_default_path(self):
        from repro.march import get_architecture
        from repro.march.bootstrap import Bootstrapper

        arch_a = get_architecture("POWER7")
        machine_a = Machine(arch_a)
        default_path = Bootstrapper(
            arch_a, machine_a, loop_size=64, duration=_DURATION
        ).run(["add"])

        arch_b = get_architecture("POWER7")
        machine_b = Machine(arch_b)
        engine_path = Bootstrapper(
            arch_b,
            machine_b,
            loop_size=64,
            duration=_DURATION,
            executor=SerialExecutor(machine_b),
        ).run(["add"])
        assert engine_path == default_path

    def test_default_bootstrap_reruns_warm_from_repro_store(
        self, tmp_path, monkeypatch, open_store
    ):
        from repro.march import get_architecture
        from repro.march.bootstrap import Bootstrapper

        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        mnemonics = ["add", "mulld"]
        cold_arch = get_architecture("POWER7")
        cold_bootstrapper = Bootstrapper(
            cold_arch, Machine(cold_arch), loop_size=64, duration=_DURATION
        )
        cold = cold_bootstrapper.run(mnemonics)

        warm_arch = get_architecture("POWER7")
        warm_machine = Machine(warm_arch)
        _forbid_measurement(warm_machine)
        warm_bootstrapper = Bootstrapper(
            warm_arch, warm_machine, loop_size=64, duration=_DURATION
        )
        warm = warm_bootstrapper.run(mnemonics)
        # The stores REPRO_STORE gave the default executors.
        for bootstrapper in (cold_bootstrapper, warm_bootstrapper):
            bootstrapper.executor.store.close()
        assert warm == cold
        # The nop reference plus two benchmarks per mnemonic.
        assert len(open_store(tmp_path / "store")) == 1 + 2 * len(mnemonics)


def _with_resource_warnings(call):
    """``call()``'s result and the ``ResourceWarning``s (unclosed shard
    handles) it leaves once its garbage is collected."""
    gc.collect()  # garbage from before the call is not the call's
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        result = call()
        gc.collect()
    return result, [
        str(warning.message)
        for warning in caught
        if issubclass(warning.category, ResourceWarning)
    ]


class TestFigure9StoresClose:
    """``spec_power_baseline`` and ``stressmark_search`` close the store
    that ``default_executor`` opens from ``REPRO_STORE`` before they
    return; a store inside the caller's executor stays open."""

    _SEQUENCES = covering_sequences(("mulldo", "lxvw4x", "xvnmsubmdp"))[:12]

    def test_spec_baseline_closes_the_repro_store(
        self, power7_arch, tmp_path, monkeypatch
    ):
        from repro.stressmark import spec_power_baseline

        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        cold, cold_left = _with_resource_warnings(
            lambda: spec_power_baseline(
                Machine(power7_arch), duration=_DURATION
            )
        )
        warm_machine = Machine(power7_arch)
        _forbid_measurement(warm_machine)
        warm, warm_left = _with_resource_warnings(
            lambda: spec_power_baseline(warm_machine, duration=_DURATION)
        )
        assert warm == cold
        assert cold_left == [] and warm_left == []

    def test_stressmark_search_closes_the_repro_store(
        self, power7_arch, tmp_path, monkeypatch
    ):
        from repro.stressmark import stressmark_search

        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))

        def search(machine):
            return stressmark_search(
                machine, self._SEQUENCES, loop_size=96, duration=_DURATION
            )

        cold, cold_left = _with_resource_warnings(
            lambda: search(Machine(power7_arch))
        )
        warm_machine = Machine(power7_arch)
        _forbid_measurement(warm_machine)
        warm, warm_left = _with_resource_warnings(lambda: search(warm_machine))
        assert warm == cold
        assert cold_left == [] and warm_left == []

    def test_a_callers_store_stays_open(
        self, power7_arch, tmp_path, open_store
    ):
        from repro.stressmark import spec_power_baseline, stressmark_search

        store = open_store(tmp_path / "store")
        closes = []
        close = store.close

        def counting_close():
            closes.append(store)
            close()

        store.close = counting_close
        machine = Machine(power7_arch)
        executor = SerialExecutor(machine, store=store)
        for _ in range(2):  # cold, then warm
            spec_power_baseline(machine, duration=_DURATION, executor=executor)
            stressmark_search(
                machine,
                self._SEQUENCES,
                loop_size=96,
                duration=_DURATION,
                executor=executor,
            )
        assert closes == []
        assert store.hits == store.misses > 0


class TestRunnerBaselineMemoization:
    def test_idle_measured_once_per_config_and_window(self, power7_arch):
        from repro.measure import MeasurementRunner

        machine = Machine(power7_arch)
        calls = []
        original = machine.run_idle

        def counting(config=None, duration=10.0):
            calls.append((config, duration))
            return original(config, duration)

        machine.run_idle = counting
        runner = MeasurementRunner(machine, duration=_DURATION)
        first = runner.baseline()
        assert runner.baseline() is first
        assert len(calls) == 1
        runner.baseline(MachineConfig(8, 4))
        runner.baseline(MachineConfig(8, 4))
        assert len(calls) == 2

    def test_run_sweep_equal_config_ladder_first_wins(self, power7_arch):
        """A same-scale duplicate ladder entry cannot be represented in
        the config-keyed result dict; it must be skipped without being
        measured (the pre-engine behaviour)."""
        from repro.measure import MeasurementRunner
        from repro.sim import PState
        from tests.conftest import make_uniform_kernel

        machine = Machine(power7_arch)
        runner = MeasurementRunner(machine, duration=_DURATION)
        batches = []
        original = machine.run_cells

        def counting(cells, plan=None):
            batches.extend(
                sorted({cell.config.label for cell in cells})
            )
            return original(cells, plan=plan)

        machine.run_cells = counting
        sweep = runner.run_sweep(
            [make_uniform_kernel("add", count=24)],
            configs=[MachineConfig(8, 1)],
            p_states=[PState("a", 0.9, 0.9), PState("b", 0.9, 0.9)],
        )
        assert batches == ["8-1@a"]
        assert [config.label for config in sweep] == ["8-1@a"]

    def test_same_scale_p_state_baselines_stay_distinct(self, power7_arch):
        from repro.measure import MeasurementRunner
        from repro.sim import PState

        runner = MeasurementRunner(Machine(power7_arch), duration=_DURATION)
        eco = MachineConfig(1, 1).with_p_state(PState("eco", 0.8, 0.9))
        slow = MachineConfig(1, 1).with_p_state(PState("slow", 0.8, 0.9))
        # Equal configs (scales compare), different noise labels: the
        # memo must not serve one point's idle draws for the other.
        assert runner.baseline(eco) != runner.baseline(slow)
        assert runner.baseline(slow).config.label == "1-1@slow"
