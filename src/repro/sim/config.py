"""Machine run configurations (CMP-SMT modes times operating point).

The paper sweeps 24 configurations: 1-8 enabled cores times SMT-1/2/4,
written ``<cores>-<smt>`` (e.g. ``4-4``).  :func:`standard_configurations`
reproduces that sweep order.  A configuration additionally carries the
DVFS operating point it runs at; the default is the nominal
:class:`~repro.sim.pstate.PState`, which keeps every pre-DVFS label,
seed and measurement bit-for-bit unchanged.  Non-nominal points are
labelled ``<cores>-<smt>@<p-state>`` (e.g. ``4-4@p2``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.march.components import ChipGeometry
from repro.sim.pstate import NOMINAL, PState, get_pstate


def check_cmp_smt(cores: object, smt: object, what: str) -> None:
    """Raise unless ``cores`` is an int >= 1 and ``smt`` 1, 2 or 4."""
    if type(cores) is not int or cores < 1:
        raise ValueError(f"{what} cores must be an int >= 1, got {cores!r}")
    if type(smt) is not int or smt not in (1, 2, 4):
        raise ValueError(f"{what} smt must be 1, 2 or 4, got {smt!r}")


@dataclass(frozen=True, order=True)
class MachineConfig:
    """One CMP-SMT run configuration at one operating point.

    Attributes:
        cores: Enabled cores.
        smt: Hardware threads per enabled core (1, 2 or 4).
        p_state: DVFS operating point (defaults to nominal).
    """

    cores: int
    smt: int
    p_state: PState = NOMINAL

    def __post_init__(self) -> None:
        check_cmp_smt(self.cores, self.smt, "configuration")

    @property
    def threads(self) -> int:
        """Total hardware thread contexts in this configuration."""
        return self.cores * self.smt

    @property
    def smt_enabled(self) -> bool:
        """Whether the SMT control logic is switched on."""
        return self.smt > 1

    @property
    def label(self) -> str:
        """Paper-style ``cores-smt`` label, ``@p-state`` when non-nominal.

        The nominal label intentionally omits the operating point: the
        label seeds sensor noise, so keeping it unchanged preserves
        pre-DVFS noise draws bit for bit.
        """
        base = f"{self.cores}-{self.smt}"
        if self.p_state.is_nominal:
            return base
        return f"{base}@{self.p_state.name}"

    def with_p_state(self, p_state: PState) -> "MachineConfig":
        """The same CMP-SMT mode at a different operating point."""
        return replace(self, p_state=p_state)

    def validate_against(self, chip: ChipGeometry) -> None:
        """Raise ``ValueError`` if the chip cannot run this configuration."""
        if self.cores > chip.max_cores:
            raise ValueError(
                f"configuration {self.label} needs {self.cores} cores, "
                f"chip has {chip.max_cores}"
            )
        if self.smt > chip.max_smt:
            raise ValueError(
                f"configuration {self.label} needs SMT-{self.smt}, "
                f"chip supports SMT-{chip.max_smt}"
            )

    def __str__(self) -> str:
        return self.label

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able form, round-tripped by :meth:`from_dict`."""
        return {
            "cores": self.cores,
            "smt": self.smt,
            "p_state": self.p_state.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MachineConfig":
        """Rebuild a configuration serialized by :meth:`to_dict`."""
        p_state = data.get("p_state")
        return cls(
            cores=data["cores"],
            smt=data["smt"],
            p_state=PState.from_dict(p_state) if p_state else NOMINAL,
        )


def standard_configurations(
    max_cores: int = 8,
    smt_modes: tuple[int, ...] = (1, 2, 4),
    p_states: tuple[PState, ...] = (NOMINAL,),
) -> tuple[MachineConfig, ...]:
    """The paper's 24-configuration sweep, cores-major order.

    With more than one ``p_states`` entry the sweep becomes the full
    operating-point product, p-state-major (the whole CMP-SMT sweep is
    repeated per operating point, as a DVFS campaign would run it).
    """
    return tuple(
        MachineConfig(cores=cores, smt=smt, p_state=p_state)
        for p_state in p_states
        for cores in range(1, max_cores + 1)
        for smt in smt_modes
    )


def parse_config(label: str) -> MachineConfig:
    """Parse a ``cores-smt`` label such as ``4-4`` or ``4-4@p2``.

    Non-nominal suffixes resolve against the standard p-state ladder.
    """
    base, _, pstate_part = label.partition("@")
    cores_part, _, smt_part = base.partition("-")
    try:
        p_state = get_pstate(pstate_part) if pstate_part else NOMINAL
        return MachineConfig(
            cores=int(cores_part), smt=int(smt_part), p_state=p_state
        )
    except (ValueError, KeyError) as exc:
        raise ValueError(f"bad configuration label {label!r}: {exc}") from None
