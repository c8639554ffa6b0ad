"""Fault tolerance: recovery is invisible in the measurement bytes.

The acceptance property of the hardened engine: under injected
measurement-pass failures and transient store I/O errors, a full sweep
completes *bit-identical* to the fault-free run -- on the measurement
plane and on the scalar oracle alike -- and only a cell that keeps
failing on every attempt (an unbounded ``poison``) is quarantined into
a structured :class:`CellFailure` instead of aborting the campaign.
"""

import itertools
import json

import pytest

from repro.errors import ExecutionError
from repro.exec import (
    ExperimentPlan,
    MeasurementService,
    SerialExecutor,
)
from repro.exec import faults
from repro.exec.faults import FaultPlan
from repro.exec.report import CellFailure, ExecutionReport
from repro.exec.serialize import plan_to_dict_v2
from repro.sim import Machine, MachineConfig
from repro.workloads import spec_cpu2006
from tests.oracle import OracleMachine

_DURATION = 1.0


@pytest.fixture()
def small_plan(small_kernel_factory):
    kernels = [
        small_kernel_factory("add", count=24),
        small_kernel_factory("mulld", count=24),
        small_kernel_factory("lxvw4x", count=24, level="L1"),
    ]
    return ExperimentPlan.cross(
        kernels,
        [MachineConfig(1, 1), MachineConfig(2, 2), MachineConfig(4, 2)],
        duration=_DURATION,
    )


@pytest.fixture()
def baseline(power7_arch, small_plan):
    """The fault-free serial reference measurements."""
    return SerialExecutor(Machine(power7_arch)).run(small_plan)


def _faulted_run(machine, plan, fault_plan, **kwargs):
    """Execute ``plan`` on a fresh executor over ``machine`` under
    ``fault_plan``; the report."""
    with faults.injected(fault_plan):
        return SerialExecutor(machine, **kwargs).execute(plan)


def _transient_faults() -> FaultPlan:
    """Transient store I/O plus a poison that fails every cell once:
    the pass fails, degrades to cell by cell, and every cell's retry
    succeeds."""
    return FaultPlan(seed=11).arm("io").arm("poison", times=1)


class TestBitIdentityUnderFaults:
    def test_transient_store_io_is_retried(
        self, power7_arch, small_plan, baseline, tmp_path, open_store
    ):
        store = open_store(tmp_path / "store")
        with faults.injected(FaultPlan(seed=5).arm("io")):
            executor = SerialExecutor(Machine(power7_arch), store=store)
            report = executor.execute(small_plan)
        assert report.ok
        assert list(report) == baseline
        assert report.fault_counters["store_put_retries"] >= 1
        # Every cell landed durably despite the transient append faults.
        assert len(store) == small_plan.size

    def test_unreadable_warm_records_remeasure_loudly(
        self, power7_arch, small_plan, baseline, tmp_path, open_store
    ):
        """Satellite: a store read failing with OSError is surfaced as
        a counted, warn-once miss -- and the cells re-measure to the
        same bytes instead of silently vanishing."""
        warm = open_store(tmp_path / "store")
        SerialExecutor(Machine(power7_arch), store=warm).run(small_plan)
        store = open_store(tmp_path / "store")
        with faults.injected(FaultPlan(seed=5).arm("io", times=1)):
            executor = SerialExecutor(Machine(power7_arch), store=store)
            report = executor.execute(small_plan)
        assert report.ok
        assert list(report) == baseline
        # Every warm get raised once and was swallowed as a miss.
        assert store.fault_stats()["io_errors"] == small_plan.size
        assert report.fault_counters["store_io_errors"] == small_plan.size

    def test_exhausted_retries_degrade_to_serial_not_abort(
        self, power7_arch, small_plan, baseline
    ):
        # A transient poison fails the pass once: the pass degrades to
        # cell-by-cell execution, where each cell's retry succeeds --
        # still bit-identical, nothing quarantined.
        report = _faulted_run(
            Machine(power7_arch),
            small_plan,
            FaultPlan(seed=1).arm("poison", times=1),
        )
        assert report.ok and not report.failures
        assert list(report) == baseline
        assert report.fault_counters["degraded_cells"] == small_plan.size

    def test_scalar_plane_recovers_identically(
        self, power7_arch, small_plan, baseline, tmp_path, open_store
    ):
        scalar_baseline = SerialExecutor(OracleMachine(power7_arch)).run(
            small_plan
        )
        assert scalar_baseline == baseline  # oracle agrees fault-free
        # Degraded cells re-measure on the oracle one at a time; the
        # recovered bytes match the measurement plane's.
        report = _faulted_run(
            OracleMachine(power7_arch),
            small_plan,
            _transient_faults(),
            store=open_store(tmp_path / "store"),
        )
        assert report.ok
        assert list(report) == baseline
        assert report.fault_counters["degraded_cells"] == small_plan.size

    def test_store_backed_faulted_run_equals_clean_warm_run(
        self, power7_arch, small_plan, baseline, tmp_path, open_store
    ):
        store = open_store(tmp_path / "store")
        with faults.injected(_transient_faults()):
            faulted = SerialExecutor(Machine(power7_arch), store=store).run(
                small_plan
            )
        assert faulted == baseline
        # The store contents are clean: a fault-free warm run serves
        # byte-identical measurements.
        warm = SerialExecutor(
            Machine(power7_arch), store=open_store(tmp_path / "store")
        ).run(small_plan)
        assert warm == baseline


class TestQuarantine:
    def test_poisoned_cells_quarantine_instead_of_aborting(
        self, power7_arch, small_plan
    ):
        # An unbounded poison fires on every attempt, pass and
        # degraded cell alike, so these cells cannot be measured at all
        # -- the campaign must finish anyway, reporting them.
        report = _faulted_run(
            Machine(power7_arch),
            small_plan,
            FaultPlan(seed=2).arm("poison"),
            retries=1,
        )
        assert isinstance(report, ExecutionReport)
        assert not report.ok
        assert report.completed == 0
        assert len(report.failures) == small_plan.size
        failure = report.failures[0]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "FaultInjectedError"
        assert failure.attempts >= 2  # retried before quarantining
        assert all(m is None for m in report)

    def test_partial_poison_keeps_healthy_measurements(
        self, power7_arch, small_plan, baseline
    ):
        fault_plan = FaultPlan(seed=4)
        fault_plan.arm("poison", probability=0.4)
        poisoned = {
            index
            for index, cell in enumerate(small_plan.cells)
            if fault_plan.fire("poison", faults.cell_key(cell), attempt=0)
        }
        assert 0 < len(poisoned) < small_plan.size  # seed chosen for a mix
        report = _faulted_run(
            Machine(power7_arch), small_plan, fault_plan, retries=0
        )
        assert len(report.failures) == len(poisoned)
        for index, measurement in enumerate(report):
            if index in poisoned:
                assert measurement is None
            else:
                assert measurement == baseline[index]

    def test_run_raises_execution_error_carrying_the_report(
        self, power7_arch, small_plan
    ):
        with faults.injected(FaultPlan(seed=2).arm("poison")):
            executor = SerialExecutor(Machine(power7_arch), retries=0)
            with pytest.raises(ExecutionError) as excinfo:
                executor.run(small_plan)
        report = excinfo.value.report
        assert len(report.failures) == small_plan.size
        assert "quarantined" in str(excinfo.value)
        assert executor.last_report is report

    def test_report_describe_is_informative(self, power7_arch, small_plan):
        report = _faulted_run(
            Machine(power7_arch),
            small_plan,
            FaultPlan(seed=7).arm("poison", times=1),
        )
        text = report.describe()
        assert f"{small_plan.size}/{small_plan.size} cells measured" in text
        assert f"degraded_cells={small_plan.size}" in text


def _pass_fails_once(machine: Machine) -> Machine:
    """Make the first ``run_cells`` call on ``machine`` raise, once."""
    calls = itertools.count(1)
    original = machine.run_cells

    def run_cells(cells, plan=None):
        if next(calls) == 1:
            raise RuntimeError("injected failure of the measurement pass")
        return original(cells, plan=plan)

    machine.run_cells = run_cells
    return machine


class TestDegradedFallbackKeepsLandedCells:
    """A measurement pass that fails degrades every cell it owed: each
    cell is then measured, persisted and reported once, and the results
    equal the fault-free run."""

    @pytest.fixture()
    def spec_plan(self):
        return ExperimentPlan.cross(
            spec_cpu2006()[:2],
            [MachineConfig(1, 1), MachineConfig(2, 2), MachineConfig(4, 2)],
            duration=_DURATION,
        )

    def test_local_store_backed_run(
        self, power7_arch, spec_plan, tmp_path, open_store
    ):
        baseline = SerialExecutor(Machine(power7_arch)).run(spec_plan)
        store = open_store(tmp_path / "store")
        machine = _pass_fails_once(Machine(power7_arch))
        measured = []
        run_cells = machine.run_cells

        def counted(cells, plan=None):
            measured.extend(cells)
            return run_cells(cells, plan=plan)

        machine.run_cells = counted
        appended = []
        put_many = store.put_many

        def counted_put(entries):
            appended.extend(key for key, _ in entries)
            return put_many(entries)

        store.put_many = counted_put
        reported = []
        report = SerialExecutor(machine, store=store).execute(
            spec_plan,
            progress=lambda cells, measurements, warm: reported.extend(cells),
        )
        assert report.ok and list(report) == baseline
        # The failed pass (6 cells), then each cell once on its own.
        assert len(measured) == 12
        assert sorted(map(spec_plan.cells.index, measured[6:])) == list(
            range(6)
        )
        assert sorted(map(spec_plan.cells.index, reported)) == list(range(6))
        assert len(appended) == len(set(appended)) == 6
        assert store.verify().records == 6
        assert report.fault_counters["batch_failures"] == 1
        assert report.fault_counters["degraded_cells"] == 6

    @pytest.mark.parametrize(
        "stored", [False, True], ids=["storeless", "store"]
    )
    def test_served_run(self, power7_arch, spec_plan, tmp_path, stored):
        baseline = SerialExecutor(Machine(power7_arch)).run(spec_plan)
        service = MeasurementService(
            store=tmp_path / "store" if stored else None
        )
        lines: list[dict] = []
        try:
            _pass_fails_once(service._engine("POWER7", 0).machine)
            trailer = service.submit(
                plan_to_dict_v2(spec_plan),
                # The emit takes byte chunks of whole JSON lines.
                lambda: lambda data: lines.extend(
                    map(json.loads, data.splitlines())
                ),
            )
            if stored:
                assert service.store.verify().records == 6
        finally:
            service.close()
        cells = [line for line in lines if "measurement" in line]
        assert sorted(line["cell"] for line in cells) == list(range(6))
        assert trailer["measured"] == 6 and trailer["failures"] == []
        assert {line["cell"]: line["measurement"] for line in cells} == {
            index: measurement.to_dict()
            for index, measurement in enumerate(baseline)
        }
