"""DVFS operating points (p-states).

The paper characterizes one fixed operating point; real energy
characterization campaigns sweep voltage/frequency pairs as well
(cf. the system-level V/f-scaling characterization literature).  A
:class:`PState` captures one operating point as *scales relative to
the nominal point* of whatever chip it is applied to, so the same
ladder retargets with the micro-architecture definition files:

* ``freq_scale`` multiplies the chip's nominal clock -- all steady-state
  per-second rates (and therefore the dynamic ``f`` term of
  ``P = C * V^2 * f``) scale with it, while per-cycle quantities (IPC,
  cycles per iteration) stay put;
* ``volt_scale`` multiplies the nominal supply voltage -- dynamic power
  scales with its square.  Static power is modeled as
  frequency-independent and is left unscaled.

The nominal p-state is the exact identity: every scale is ``1.0``, so
measurement paths that carry it reproduce pre-DVFS results bit for bit
(the multiplications are skipped, not merely neutral).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def finite_real(value: object) -> bool:
    """Whether ``value`` is a finite ``int`` or ``float`` (not a bool).

    The constructors of configurations and activity profiles check
    their numbers with this: a NaN slips past every ``<``/``<=``
    guard, and the wire decoders hand them whatever JSON held.
    """
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


@dataclass(frozen=True, order=True)
class PState:
    """One voltage/frequency operating point, relative to nominal.

    Ordering and equality use the physical scales only, so two ladders
    naming the same operating point differently compare equal and a
    ladder sorts by frequency.

    Attributes:
        name: Human-readable operating-point name (enters measurement
            labels and therefore sensor noise seeds).
        freq_scale: Clock frequency relative to nominal (> 0).
        volt_scale: Supply voltage relative to nominal (> 0).
    """

    name: str = field(compare=False)
    freq_scale: float = 1.0
    volt_scale: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"p-state needs a name, got {self.name!r}")
        for scale in (self.freq_scale, self.volt_scale):
            if not finite_real(scale) or scale <= 0:
                raise ValueError(
                    f"p-state {self.name!r}: scales must be finite and "
                    f"positive, got {scale!r}"
                )

    @property
    def is_nominal(self) -> bool:
        """Whether this point is the exact pre-DVFS identity."""
        return self.freq_scale == 1.0 and self.volt_scale == 1.0

    @property
    def dynamic_scale(self) -> float:
        """Dynamic-power multiplier beyond the rate scaling.

        Activity rates already carry the ``f`` term (they are
        per-second quantities), so the remaining factor is ``V^2``.
        """
        return self.volt_scale * self.volt_scale

    def __str__(self) -> str:
        return self.name

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able form, round-tripped by :meth:`from_dict`."""
        return {
            "name": self.name,
            "freq_scale": self.freq_scale,
            "volt_scale": self.volt_scale,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PState":
        """Rebuild a p-state serialized by :meth:`to_dict`."""
        return cls(
            name=data["name"],
            freq_scale=data["freq_scale"],
            volt_scale=data["volt_scale"],
        )


#: The pre-DVFS operating point: the exact identity.
NOMINAL = PState("nominal", 1.0, 1.0)

#: A plausible POWER7-class DVFS ladder (EnergyScale-style): one turbo
#: step above nominal and two voltage/frequency steps below it.  The
#: voltage steps shrink slower than the frequency steps, as real
#: V/f curves do near the minimum operating voltage.
STANDARD_PSTATES = (
    PState("turbo", 1.10, 1.06),
    NOMINAL,
    PState("p2", 0.85, 0.94),
    PState("p3", 0.70, 0.88),
)

_BY_NAME = {p_state.name: p_state for p_state in STANDARD_PSTATES}


def standard_pstates() -> tuple[PState, ...]:
    """The standard ladder, fastest first."""
    return STANDARD_PSTATES


def get_pstate(name: str) -> PState:
    """Look up a standard-ladder p-state by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown p-state {name!r}; standard ladder: "
            f"{', '.join(_BY_NAME)}"
        ) from None
