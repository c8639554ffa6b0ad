"""Figure 9 reporting: stressmark sets versus the SPEC maximum.

All powers are normalized to the maximum power any SPEC CPU2006
benchmark exhibits across the all-core SMT modes -- the paper's
baseline of 1.0 in Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SearchError

#: Relative IPC slack within which a sequence counts as "maximum IPC"
#: for the order-spread analysis (section 6's 181-sequence set).
_MAX_IPC_TOLERANCE = 1e-3


@dataclass(frozen=True)
class SetSummary:
    """Min/mean/max normalized power of one stressmark set (Fig. 9 bars)."""

    name: str
    minimum: float
    mean: float
    maximum: float
    count: int


@dataclass(frozen=True)
class OrderSpread:
    """Power spread across same-IPC orderings (section 6 analysis)."""

    sequences_at_max_ipc: int
    min_normalized: float
    max_normalized: float

    @property
    def spread_percent(self) -> float:
        """Max-over-min power difference among max-IPC orderings."""
        if self.min_normalized <= 0:
            return 0.0
        return (self.max_normalized / self.min_normalized - 1.0) * 100.0


def summarize_set(
    name: str,
    results: list[tuple[tuple[str, ...], int, float, float]],
    baseline_power: float,
) -> SetSummary:
    """Reduce raw search results to a Figure 9 bar."""
    if not results:
        raise SearchError(f"stressmark set {name!r} has no results")
    powers = [power / baseline_power for _, _, power, _ in results]
    return SetSummary(
        name=name,
        minimum=min(powers),
        mean=sum(powers) / len(powers),
        maximum=max(powers),
        count=len(results),
    )


def best_sequence(
    results: list[tuple[tuple[str, ...], int, float, float]]
) -> tuple[str, ...]:
    """The sequence achieving the set's maximum power."""
    if not results:
        raise SearchError("no results to pick a best sequence from")
    return max(results, key=lambda row: row[2])[0]


def order_spread_analysis(
    results: list[tuple[tuple[str, ...], int, float, float]],
    baseline_power: float,
    smt: int = 1,
) -> OrderSpread:
    """Power spread among the max-IPC orderings of one SMT mode.

    Reproduces the paper's observation that sequences with identical
    instruction distribution and identical (maximum) core IPC still
    differ considerably in power purely through instruction order.
    """
    at_mode = [row for row in results if row[1] == smt]
    if not at_mode:
        raise SearchError(f"no results at SMT-{smt}")
    best_ipc = max(row[3] for row in at_mode)
    at_max = [
        row for row in at_mode
        if row[3] >= best_ipc * (1.0 - _MAX_IPC_TOLERANCE)
    ]
    powers = [row[2] / baseline_power for row in at_max]
    return OrderSpread(
        sequences_at_max_ipc=len(at_max),
        min_normalized=min(powers),
        max_normalized=max(powers),
    )
