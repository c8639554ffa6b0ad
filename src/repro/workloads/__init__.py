"""Workloads: SPEC CPU2006 proxies, extreme cases, kernels, random policies.

The paper validates its power models on the real SPEC CPU2006 suite and
stresses them with "extreme" single-activity workloads.  The real suite
is not available offline, so :mod:`repro.workloads.spec` replays
published per-benchmark activity characteristics through the same
machine/power path the generated micro-benchmarks use (the substitution
is documented in DESIGN.md).  Extreme cases and DAXPY are *generated*
micro-benchmarks built with the public synthesizer API.
"""

from repro.workloads.daxpy import daxpy_kernels
from repro.workloads.extreme import extreme_kernels
from repro.workloads.mixes import (
    MixScenario,
    get_mix,
    mix_scenarios,
)
from repro.workloads.profiles import ActivityProfile, ProfiledWorkload
from repro.workloads.random_gen import RandomBenchmarkPolicy
from repro.workloads.spec import spec_cpu2006

__all__ = [
    "ActivityProfile",
    "MixScenario",
    "ProfiledWorkload",
    "RandomBenchmarkPolicy",
    "daxpy_kernels",
    "extreme_kernels",
    "get_mix",
    "mix_scenarios",
    "spec_cpu2006",
]
