"""Structured execution outcomes: measurements, failures, fault counters.

The executor never aborts a campaign because one cell kept failing:
after the degraded cell-by-cell fallback and its bounded retries, a
failing cell is *quarantined* into a :class:`CellFailure` and the
campaign carries on.  :meth:`SerialExecutor.execute
<repro.exec.executors.SerialExecutor.execute>` returns the full picture
as an :class:`ExecutionReport`; the list-returning ``run()``
convenience keeps the historical contract by raising
:class:`~repro.errors.ExecutionError` (which carries the report) when
anything was quarantined.  A store-backed run's ledger record carries
the same counters and failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExecutionError
from repro.measure.measurement import Measurement

#: Fault/recovery counter names an ExecutionReport may carry.  Zero
#: counters are omitted; anything here being non-zero means a recovery
#: path actually ran.
COUNTER_NAMES = (
    "retries",            # cell re-executions after a failure
    "batch_failures",     # passes that fell back to per-cell execution
    "degraded_cells",     # cells re-executed one at a time
    "store_put_retries",  # store appends retried after an OSError
    "store_put_failures", # store appends abandoned (results kept)
)


@dataclass(frozen=True)
class CellFailure:
    """One quarantined cell: what failed, where, how hard we tried."""

    workload_name: str
    config_label: str
    duration: float
    attempts: int
    kind: str
    message: str
    key: str | None = None

    def to_dict(self) -> dict:
        return {
            "workload_name": self.workload_name,
            "config_label": self.config_label,
            "duration": self.duration,
            "attempts": self.attempts,
            "kind": self.kind,
            "message": self.message,
            "key": self.key,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellFailure":
        return cls(
            workload_name=data["workload_name"],
            config_label=data["config_label"],
            duration=data["duration"],
            attempts=data["attempts"],
            kind=data["kind"],
            message=data["message"],
            key=data.get("key"),
        )


def describe_cell(cell, key: str | None = None) -> dict:
    """The CellFailure identity fields of one plan cell."""
    workload = cell.workload
    name = getattr(workload, "name", type(workload).__name__)
    return {
        "workload_name": name,
        "config_label": cell.config.label,
        "duration": cell.duration,
        "key": key,
    }


@dataclass(frozen=True)
class ExecutionReport:
    """Everything one plan execution produced.

    ``measurements`` is in the plan's *requested* order (duplicates
    fanned back out), with ``None`` in the slots of quarantined cells;
    ``failures`` carries one :class:`CellFailure` per quarantined
    unique cell; ``fault_counters`` counts every recovery path that ran
    (empty for a clean run).
    """

    measurements: tuple[Measurement | None, ...]
    failures: tuple[CellFailure, ...] = ()
    fault_counters: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every requested cell produced a measurement."""
        return not self.failures

    @property
    def completed(self) -> int:
        return sum(1 for m in self.measurements if m is not None)

    def require_complete(self) -> list[Measurement]:
        """The measurement list, raising if any cell was quarantined."""
        if self.failures:
            raise ExecutionError(self)
        return list(self.measurements)

    def __len__(self) -> int:
        return len(self.measurements)

    def __iter__(self):
        return iter(self.measurements)

    def describe(self) -> str:
        """One-line summary for logs and CLI output."""
        text = f"{self.completed}/{len(self.measurements)} cells measured"
        if self.failures:
            text += f", {len(self.failures)} quarantined"
        if self.fault_counters:
            counters = ", ".join(
                f"{name}={value}"
                for name, value in sorted(self.fault_counters.items())
            )
            text += f" [{counters}]"
        return text


class ReportBuilder:
    """Mutable failure/counter accumulator the executor threads through."""

    def __init__(self) -> None:
        self.failures: list[CellFailure] = []
        self.counters: dict[str, int] = {}

    def count(self, name: str, value: int = 1) -> None:
        if value:
            self.counters[name] = self.counters.get(name, 0) + value

    def quarantine(
        self, cell, attempts: int, error: BaseException, key: str | None = None
    ) -> CellFailure:
        failure = CellFailure(
            attempts=attempts,
            kind=type(error).__name__,
            message=str(error),
            **describe_cell(cell, key),
        )
        self.failures.append(failure)
        return failure

    def build(self, measurements) -> ExecutionReport:
        return ExecutionReport(
            measurements=tuple(measurements),
            failures=tuple(self.failures),
            fault_counters=dict(self.counters),
        )
