"""Max-power stressmark generation (paper section 6)."""

from repro.stressmark.expert import expert_dse_set, expert_manual_set
from repro.stressmark.heuristics import select_candidates
from repro.stressmark.report import SetSummary
from repro.stressmark.search import (
    build_stressmark,
    spec_power_baseline,
    stressmark_search,
)

__all__ = [
    "SetSummary",
    "build_stressmark",
    "expert_dse_set",
    "expert_manual_set",
    "select_candidates",
    "spec_power_baseline",
    "stressmark_search",
]
