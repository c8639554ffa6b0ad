"""Fault tolerance: recovery is invisible in the measurement bytes.

The acceptance property of the hardened engine: under injected worker
crashes, hangs, slow batches and transient store I/O errors, a full
sweep completes *bit-identical* to the fault-free run -- on both the
vectorized and the scalar measurement plane -- and only a cell that
keeps failing everywhere (the ``poison`` site) is quarantined into a
structured :class:`CellFailure` instead of aborting the campaign.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.errors import ExecutionError
from repro.exec import (
    ExperimentPlan,
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
)
from repro.exec import faults
from repro.exec.faults import FaultPlan
from repro.exec.report import CellFailure, ExecutionReport
from repro.sim import Machine, MachineConfig
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


def _faulted_parallel_run(power7_arch, plan, fault_plan, **kwargs):
    """Run ``plan`` on a fresh 2-worker executor under ``fault_plan``."""
    with faults.injected(fault_plan):
        with ParallelExecutor(
            Machine(power7_arch), workers=2, chunk_size=2, **kwargs
        ) as executor:
            report = executor.execute(plan)
    return report


class TestBitIdentityUnderFaults:
    def test_worker_crashes_are_invisible(
        self, power7_arch, small_plan, baseline
    ):
        report = _faulted_parallel_run(
            power7_arch, small_plan, FaultPlan(seed=7).arm("crash")
        )
        assert report.ok
        assert list(report) == baseline
        assert report.fault_counters["worker_deaths"] >= 1
        assert report.fault_counters["worker_respawns"] >= 1

    def test_hung_workers_are_reaped_by_the_watchdog(
        self, power7_arch, small_plan, baseline
    ):
        fault_plan = FaultPlan(seed=3, hang_s=10.0).arm("hang")
        report = _faulted_parallel_run(
            power7_arch, small_plan, fault_plan, timeout=0.5
        )
        assert report.ok
        assert list(report) == baseline
        assert report.fault_counters["chunk_timeouts"] >= 1
        assert report.fault_counters["worker_respawns"] >= 1

    def test_transient_store_io_is_retried(
        self, power7_arch, small_plan, baseline, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        with faults.injected(FaultPlan(seed=5).arm("io")):
            executor = SerialExecutor(Machine(power7_arch), store=store)
            report = executor.execute(small_plan)
        assert report.ok
        assert list(report) == baseline
        assert report.fault_counters["store_put_retries"] >= 1
        # Every cell landed durably despite the transient append faults.
        assert len(store) == small_plan.size

    def test_unreadable_warm_records_remeasure_loudly(
        self, power7_arch, small_plan, baseline, tmp_path
    ):
        """Satellite: a store read failing with OSError is surfaced as
        a counted, warn-once miss -- and the cells re-measure to the
        same bytes instead of silently vanishing."""
        warm = ResultStore(tmp_path / "store")
        SerialExecutor(Machine(power7_arch), store=warm).run(small_plan)
        store = ResultStore(tmp_path / "store")
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
        # Unbounded crash: every worker-side attempt dies, so chunks
        # exhaust their retries and fall back to in-process execution
        # (where the crash site never fires) -- still bit-identical.
        fault_plan = FaultPlan(seed=1).arm("crash", times=10_000)
        report = _faulted_parallel_run(
            power7_arch, small_plan, fault_plan, retries=1
        )
        assert report.ok
        assert list(report) == baseline
        assert report.fault_counters["degraded_cells"] == small_plan.size

    def test_scalar_plane_recovers_identically(
        self, power7_arch, small_plan, baseline
    ):
        scalar_baseline = SerialExecutor(OracleMachine(power7_arch)).run(
            small_plan
        )
        assert scalar_baseline == baseline  # oracle agrees fault-free
        # Workers rebuild a plain machine; chunks degraded back into
        # the parent measure on the oracle.  Both recover identically.
        with faults.injected(FaultPlan(seed=7).arm("crash")):
            with ParallelExecutor(
                OracleMachine(power7_arch), workers=2, chunk_size=2
            ) as executor:
                report = executor.execute(small_plan)
        assert report.ok
        assert list(report) == baseline
        assert report.fault_counters["worker_respawns"] >= 1

    def test_store_backed_faulted_run_equals_clean_warm_run(
        self, power7_arch, small_plan, baseline, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        fault_plan = FaultPlan(seed=11).arm("crash").arm("io")
        with faults.injected(fault_plan):
            with ParallelExecutor(
                Machine(power7_arch), workers=2, chunk_size=2, store=store
            ) as executor:
                faulted = executor.run(small_plan)
        assert faulted == baseline
        # The store contents are clean: a fault-free warm run serves
        # byte-identical measurements.
        warm = SerialExecutor(
            Machine(power7_arch), store=ResultStore(tmp_path / "store")
        ).run(small_plan)
        assert warm == baseline


class TestQuarantine:
    def test_poisoned_cells_quarantine_instead_of_aborting(
        self, power7_arch, small_plan
    ):
        # Poison fires everywhere (workers *and* the degraded serial
        # fallback), so these cells cannot be measured at all -- the
        # campaign must finish anyway, reporting them.
        report = _faulted_parallel_run(
            power7_arch, small_plan, FaultPlan(seed=2).arm("poison"), retries=1
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
        report = _faulted_parallel_run(
            power7_arch, small_plan, fault_plan, retries=0
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
        report = _faulted_parallel_run(
            power7_arch, small_plan, FaultPlan(seed=7).arm("crash")
        )
        text = report.describe()
        assert f"{small_plan.size}/{small_plan.size} cells measured" in text
        assert "worker_respawns" in text


class TestEvaluatorQuarantineScoring:
    def test_poisoned_points_score_minus_infinity(
        self, power7_arch, small_kernel_factory
    ):
        from repro.dse.evaluator import MeasurementEvaluator
        from repro.dse.space import DesignPoint

        machine = Machine(power7_arch)
        kernels = {
            "add": small_kernel_factory("add", count=24),
            "mulld": small_kernel_factory("mulld", count=24),
        }
        evaluator = MeasurementEvaluator(
            builder=lambda point: kernels[point["kernel"]],
            machine=machine,
            config=MachineConfig(1, 1),
            duration=_DURATION,
            executor=SerialExecutor(machine, retries=0),
        )
        points = [DesignPoint({"kernel": name}) for name in kernels]
        clean = evaluator.evaluate_many(points)
        assert all(score > 0 for score in clean)
        with faults.injected(FaultPlan(seed=0).arm("poison")):
            scores = evaluator.evaluate_many(points)
        assert scores == [float("-inf")] * len(points)


class TestSigintHandling:
    def test_ctrl_c_does_not_spew_worker_tracebacks(self, tmp_path):
        """Satellite regression: SIGINT to the process group (what a
        terminal Ctrl-C delivers) must be handled by the parent alone
        -- no per-worker KeyboardInterrupt tracebacks, no deadlocked
        pool teardown."""
        ready = tmp_path / "ready"
        script = textwrap.dedent(
            f"""
            import pathlib
            from repro.exec import ExperimentPlan, ParallelExecutor
            from repro.march import get_architecture
            from repro.sim import Machine, MachineConfig
            from repro.workloads import daxpy_kernels

            arch = get_architecture("POWER7")
            machine = Machine(arch)
            plan = ExperimentPlan.cross(
                daxpy_kernels(arch, loop_size=96),
                [MachineConfig(2, 1), MachineConfig(2, 2)],
                duration=1.0,
            )
            executor = ParallelExecutor(machine, workers=2, chunk_size=1)
            executor._ensure_pool()
            pathlib.Path({str(ready)!r}).write_text("ready")
            executor.run(plan)
            print("COMPLETED")
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        # Every chunk sleeps 30 s in the worker, so the campaign is
        # mid-measurement for the whole test window.
        env["REPRO_FAULTS"] = "slow:1,slow_s:30"
        process = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not ready.exists():
                assert time.monotonic() < deadline, "campaign never started"
                assert process.poll() is None, process.communicate()[1]
                time.sleep(0.05)
            time.sleep(0.3)  # let the workers reach their sleeps
            os.killpg(os.getpgid(process.pid), signal.SIGINT)
            stdout, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:  # pragma: no cover - hang guard
                os.killpg(os.getpgid(process.pid), signal.SIGKILL)
                process.communicate()
                pytest.fail("process deadlocked after SIGINT")
        assert process.returncode != 0
        assert "COMPLETED" not in stdout
        # The regression: without SIG_IGN in the worker initializer,
        # every pool worker prints its own KeyboardInterrupt traceback.
        assert "ForkPoolWorker" not in stderr
