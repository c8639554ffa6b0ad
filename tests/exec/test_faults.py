"""Fault-injection harness unit contracts.

The harness only earns its keep if its decisions are *deterministic*:
the same seed must fire the same faults at the same sites in every
process of every run, or a failing chaos test cannot be reproduced.
"""

import os

import pytest

from repro.errors import FaultInjectedError, MeasurementError
from repro.exec import faults
from repro.exec.faults import FaultPlan, parse_faults
from repro.exec.plan import ExperimentPlan
from repro.sim import MachineConfig

_DURATION = 1.0


class TestParsing:
    def test_site_tokens(self):
        plan = parse_faults("torn:0.25,io:1,stall:0.5:3")
        assert plan.specs["torn"].probability == 0.25
        assert plan.specs["torn"].times == 1  # transient default
        assert plan.specs["io"].probability == 1.0
        assert plan.specs["stall"].times == 3
        assert not plan.wants("slow")

    def test_transient_vs_unbounded_defaults(self):
        plan = parse_faults("torn:1,poison:1,slow:1")
        assert plan.specs["torn"].times == 1
        assert plan.specs["poison"].times > 1_000_000
        assert plan.specs["slow"].times > 1_000_000

    def test_scalar_tokens(self):
        plan = parse_faults("seed:42,stall_s:0.25,slow_s:0.01,poison:1")
        assert plan.seed == 42
        assert plan.stall_s == 0.25
        assert plan.slow_s == 0.01

    def test_bare_site_defaults_to_certainty(self):
        assert parse_faults("poison").specs["poison"].probability == 1.0

    def test_empty_tokens_ignored(self):
        plan = parse_faults(" poison:1 , ,io:0.5, ")
        assert set(plan.specs) == {"poison", "io"}

    @pytest.mark.parametrize(
        "spec",
        [
            "segfault:1",          # unknown site
            "poison:nope",         # non-numeric probability
            "poison:2.0",          # probability out of range
            "poison:1:0",          # times cap below 1
            "seed:xyz",            # non-integer seed
            "slow_s",              # missing value
        ],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(MeasurementError):
            parse_faults(spec)

    @pytest.mark.parametrize("spec", ["crash:1", "hang:1"])
    def test_worker_sites_are_unknown(self, spec):
        """The worker-process sites went with the worker pool."""
        with pytest.raises(MeasurementError, match="unknown fault token"):
            parse_faults(spec)


class TestDeterminism:
    def test_decisions_are_pure_in_seed_site_key(self):
        first = FaultPlan(seed=7).arm("poison", probability=0.5, times=99)
        second = FaultPlan(seed=7).arm("poison", probability=0.5, times=99)
        keys = [f"cell:{n}" for n in range(64)]
        decisions = [first.fire("poison", key, attempt=0) for key in keys]
        assert decisions == [
            second.fire("poison", key, attempt=0) for key in keys
        ]
        # A fair-ish split: the draw really varies with the key.
        assert 8 < sum(decisions) < 56

    def test_seed_changes_decisions(self):
        keys = [f"cell:{n}" for n in range(64)]

        def pattern(seed):
            plan = FaultPlan(seed=seed).arm("io", probability=0.5, times=99)
            return [plan.fire("io", key, attempt=0) for key in keys]

        assert pattern(1) != pattern(2)

    def test_times_cap_with_explicit_attempts(self):
        plan = FaultPlan().arm("poison", times=2)
        assert plan.fire("poison", "k", attempt=0)
        assert plan.fire("poison", "k", attempt=1)
        assert not plan.fire("poison", "k", attempt=2)  # transient: recovers

    def test_times_cap_with_internal_counter(self):
        plan = FaultPlan().arm("io")  # transient, times=1
        assert plan.fire("io", "get:a")
        assert not plan.fire("io", "get:a")  # second attempt succeeds
        assert plan.fire("io", "get:b")  # independent key, own counter

    def test_render_round_trips(self):
        plan = (
            FaultPlan(seed=9, stall_s=0.75, slow_s=0.01)
            .arm("poison", probability=0.25, times=1)
            .arm("stall", probability=1.0, times=2)
            .arm("slow")
        )
        rebuilt = parse_faults(plan.render())
        assert rebuilt.seed == plan.seed
        assert rebuilt.specs == plan.specs
        assert rebuilt.stall_s == plan.stall_s
        assert rebuilt.slow_s == plan.slow_s


class TestActions:
    def test_io_error_raises_oserror(self):
        plan = FaultPlan().arm("io")
        with pytest.raises(OSError, match="injected"):
            plan.maybe_io_error("put:0")

    def test_poison_raises_fault_injected_error(self):
        plan = FaultPlan().arm("poison")
        with pytest.raises(FaultInjectedError):
            plan.maybe_poison("cell:xyz")

    def test_unarmed_sites_are_inert(self):
        plan = FaultPlan().arm("stall")
        plan.maybe_io_error("put:0")
        plan.maybe_poison("cell:xyz")
        plan.maybe_slow("batch:1-1")


class TestActivation:
    def test_no_plan_no_env_means_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        faults.install(None)
        assert faults.active() is None

    def test_injected_installs_and_sets_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        plan = FaultPlan(seed=3).arm("io")
        with faults.injected(plan):
            assert faults.active() is plan
            inherited = parse_faults(os.environ["REPRO_FAULTS"])
            assert inherited.seed == 3 and inherited.wants("io")
        assert faults.active() is None
        assert "REPRO_FAULTS" not in os.environ

    def test_env_spec_parsed_and_memoized(self, monkeypatch):
        faults.install(None)
        monkeypatch.setenv("REPRO_FAULTS", "seed:5,poison:0.5")
        first = faults.active()
        assert first.seed == 5 and first.wants("poison")
        assert faults.active() is first  # memoized per spec string
        monkeypatch.setenv("REPRO_FAULTS", "seed:6,poison:0.5")
        assert faults.active().seed == 6


class TestSiteKeys:
    def test_cell_keys_track_content(self, small_kernel_factory):
        kernel = small_kernel_factory("add", count=24)
        other = small_kernel_factory("mulld", count=24)
        plan = ExperimentPlan.cross(
            [kernel, other], [MachineConfig(1, 1)], duration=_DURATION
        )
        cells = plan.cells
        assert faults.cell_key(cells[0]) != faults.cell_key(cells[1])
        # Stable across plan objects carrying the same content.
        again = ExperimentPlan.cross(
            [kernel, other], [MachineConfig(1, 1)], duration=_DURATION
        )
        assert faults.cell_key(cells[0]) == faults.cell_key(again.cells[0])
