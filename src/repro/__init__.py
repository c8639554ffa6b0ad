"""MicroProbe reproduction: systematic energy characterization of
CMP/SMT processor systems via automated micro-benchmarks.

Reproduction of Bertran et al., MICRO 2012.  The package mirrors the
paper's scripting interface::

    import repro as MP

    arch = MP.arch.get_architecture("POWER7")
    synth = MP.code.Synthesizer(arch)
    synth.add_pass(MP.code.passes.EndlessLoopSkeleton(4096))
    ...

Sub-packages:

* :mod:`repro.isa` -- ISA definitions loaded from text files (2.1.1)
* :mod:`repro.march` -- micro-architecture definitions, counters,
  the analytical cache model and the bootstrap process (2.1.2-2.1.3)
* :mod:`repro.core` -- the pass-based micro-benchmark synthesizer and
  the C/assembly emitters (2.2)
* :mod:`repro.stressmark.search` -- integrated design-space
  exploration (2.3): every sequence of the section-6 space is
  synthesized and measured in-process, as one plan
* :mod:`repro.sim` -- the POWER7-like machine substrate standing in
  for the paper's BladeCenter PS701 (section 3)
* :mod:`repro.measure` -- the measurement harness (section 3)
* :mod:`repro.power_model` -- bottom-up and top-down counter-based
  power models (section 4)
* :mod:`repro.epi` -- the EPI-based instruction taxonomy (section 5)
* :mod:`repro.stressmark` -- max-power stressmark generation (section 6)
* :mod:`repro.workloads` -- SPEC CPU2006 proxies, extreme-activity
  cases, DAXPY kernels and random-benchmark policies
* :mod:`repro.exec` -- the experiment execution engine: declarative
  plans, an in-process executor, persistent result store (also the
  ``python -m repro`` CLI entry point)
"""

from repro import core as code
from repro import march as arch
from repro.core import Synthesizer
from repro.exec import ExperimentPlan, ResultStore, SerialExecutor
from repro.march import get_architecture
from repro.sim import Machine, MachineConfig

__version__ = "1.0.0"

__all__ = [
    "ExperimentPlan",
    "Machine",
    "MachineConfig",
    "ResultStore",
    "SerialExecutor",
    "Synthesizer",
    "arch",
    "code",
    "get_architecture",
    "__version__",
]
