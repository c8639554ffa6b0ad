"""Counter-based processor power models (paper section 4).

The centerpiece is the SMT/CMP-aware *bottom-up* modeling methodology
of Figure 4 -- per-component weights fitted from micro-architecture
aware micro-benchmarks, an SMT-effect constant, a linear CMP effect and
the uncore intercept -- plus the three *top-down* baselines (TD_Micro,
TD_Random, TD_SPEC) the paper compares against, the PAAE accuracy
metric, and the per-component power breakdown used in Figures 5a and 8.
"""

from repro.power_model.bottom_up import BottomUpModel, BottomUpTrainer
from repro.power_model.campaign import (
    CampaignResult,
    ModelingCampaign,
)
from repro.power_model.features import POWER_COMPONENTS, component_rates
from repro.power_model.metrics import paae, prediction_errors
from repro.power_model.top_down import TopDownModel, TopDownTrainer
from repro.power_model.training import (
    TrainingBenchmark,
    generate_micro_suite,
    generate_random_suite,
    generate_training_suite,
)

__all__ = [
    "POWER_COMPONENTS",
    "BottomUpModel",
    "BottomUpTrainer",
    "CampaignResult",
    "ModelingCampaign",
    "TopDownModel",
    "TopDownTrainer",
    "TrainingBenchmark",
    "component_rates",
    "generate_micro_suite",
    "generate_random_suite",
    "generate_training_suite",
    "paae",
    "prediction_errors",
]
