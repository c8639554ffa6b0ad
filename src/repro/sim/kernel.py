"""Kernel: the simulator-facing view of a generated micro-benchmark.

The code-generation module (:mod:`repro.core`) produces a rich IR and
emits C/assembly artifacts; the machine only needs the dynamic essence
of the endless loop: the instruction sequence, each instruction's
dependency link, the planned memory source level per slot, and the
operand-data entropy set by the value-initialisation passes.

Every generated kernel is a short sequence replicated to fill the loop,
so a kernel may additionally carry a *period fingerprint*: ``period=p``
declares that slot ``i`` is analytically equivalent to slot ``i % p``
(same mnemonic, dependency distance and source level -- planned byte
addresses may differ) for every slot below the last full period; any
trailing remainder (typically the loop-closing branch) is arbitrary.
The steady-state evaluation engine exploits the fingerprint to
summarize a kernel in O(period) instead of O(loop size) work.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.caching import LRUCache
from repro.hashing import content_hash


@dataclass(frozen=True)
class KernelInstruction:
    """One slot of the loop body.

    Attributes:
        mnemonic: ISA mnemonic.
        dep_distance: Distance (in slots) to the producer this slot's
            inputs depend on, or ``None`` when the slot is independent.
        source_level: For memory operations, the hierarchy level the
            analytical cache model planned this access to hit
            (``L1``/``L2``/``L3``/``MEM``); ``None`` otherwise.
        address: Planned byte address for memory operations.
    """

    mnemonic: str
    dep_distance: int | None = None
    source_level: str | None = None
    address: int | None = None

    def analytic_key(self) -> tuple:
        """The fields steady-state analytics depend on (no address).

        Cached on the instance: builders intern slot objects, so the
        periodicity checks over large generated bodies reduce to dict
        lookups.  (Benign if raced -- the tuple is deterministic.)
        """
        key = self.__dict__.get("_akey")
        if key is None:
            key = (self.mnemonic, self.dep_distance, self.source_level)
            object.__setattr__(self, "_akey", key)
        return key

    def to_list(self) -> list:
        """Compact JSON-able form, round-tripped by :meth:`from_list`."""
        return [self.mnemonic, self.dep_distance, self.source_level, self.address]

    @classmethod
    def from_list(cls, data: list) -> "KernelInstruction":
        """The interned slot serialized by :meth:`to_list`."""
        mnemonic, dep_distance, source_level, address = data
        return intern_slot(mnemonic, dep_distance, source_level, address)


#: Interned loop-body slots, shared by every kernel decoder and builder.
#: Slots are frozen and their cached ``_content``/``_akey`` are
#: deterministic, so sharing one instance across kernels changes no
#: digest; a server that keeps thousands of decoded kernels holds each
#: distinct slot once.
_SLOTS: LRUCache = LRUCache(65_536, "kernel.slots")
_SLOTS_LOCK = threading.Lock()
_INT_OR_NONE = (int, type(None))
_STR_OR_NONE = (str, type(None))


def intern_slot(
    mnemonic: str,
    dep_distance: int | None = None,
    source_level: str | None = None,
    address: int | None = None,
) -> KernelInstruction:
    """The shared :class:`KernelInstruction` with these fields.

    Only slots of the canonical field types are interned: ``1``,
    ``1.0`` and ``True`` hash alike but render different digest text,
    so any other value builds a private instance.
    """
    if not (
        type(mnemonic) is str
        and type(dep_distance) in _INT_OR_NONE
        and type(source_level) in _STR_OR_NONE
        and type(address) in _INT_OR_NONE
    ):
        return KernelInstruction(mnemonic, dep_distance, source_level, address)
    key = (mnemonic, dep_distance, source_level, address)
    with _SLOTS_LOCK:
        slot = _SLOTS.get(key)
        if slot is None:
            slot = KernelInstruction(*key)
            _SLOTS.put(key, slot)
    return slot


@dataclass(frozen=True)
class Kernel:
    """An endless-loop micro-benchmark ready to run on the machine.

    Attributes:
        name: Identifier used in measurements and seeding.
        instructions: The loop body, in program order.
        operand_entropy: Data-switching activity of the operand values,
            from 0.0 (all zeros) to 1.0 (random data).
        period: Declared analytic period of the loop body, or ``None``
            when the body has no known periodic structure.  Producers
            (stressmark builder, bootstrap, synthesizer) set this; the
            engine *trusts* it -- slots covered by the replicated
            pattern are neither validated nor re-read, so a wrong
            declaration yields wrong steady-state results.  See
            :meth:`validate_period` for the contract check (O(loop
            size); the producer tests run it on every builder).
        analytic_period: Optional declared *minimal* analytic period of
            the pattern: a divisor ``q`` of ``period`` such that slot
            ``i`` of the pattern is analytically equivalent to slot
            ``i % q``.  Builders whose pattern is a short sequence
            replicated over an address round-robin (the declared period
            is the lcm, the analytic period the bare sequence length)
            set this so the evaluation engine can skip its periodicity
            search.  Trusted exactly like ``period``; never enters the
            digest, so it is free to add to existing kernels.
    """

    name: str
    instructions: tuple[KernelInstruction, ...]
    operand_entropy: float = 1.0
    period: int | None = None
    analytic_period: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"kernel name must be a string: {self.name!r}")
        if not self.instructions:
            raise ValueError(f"kernel {self.name!r} has an empty loop body")
        if not 0.0 <= self.operand_entropy <= 1.0:
            raise ValueError("operand_entropy must be within [0, 1]")
        if self.period is not None and self.period < 1:
            raise ValueError(f"kernel {self.name!r}: period must be >= 1")
        # With a declared period, the fingerprint contract makes one
        # period plus the tail representative -- validate O(period).
        pattern, repeats, tail = self.periodic_parts()
        if self.analytic_period is not None and (
            self.analytic_period < 1 or len(pattern) % self.analytic_period
        ):
            raise ValueError(
                f"kernel {self.name!r}: analytic_period "
                f"{self.analytic_period} must divide the pattern "
                f"length {len(pattern)}"
            )
        for base, slots in ((0, pattern), (repeats * len(pattern), tail)):
            for index, instruction in enumerate(slots):
                distance = instruction.dep_distance
                if distance is not None and distance < 1:
                    raise ValueError(
                        f"kernel {self.name!r} slot {base + index}: "
                        f"dependency distance must be >= 1, got {distance}"
                    )

    def __len__(self) -> int:
        return len(self.instructions)

    # -- periodic structure ----------------------------------------------------

    def periodic_parts(
        self,
    ) -> tuple[tuple[KernelInstruction, ...], int, tuple[KernelInstruction, ...]]:
        """``(pattern, repeats, tail)`` decomposition of the loop body.

        For a kernel with a declared period ``p``, the body is
        ``pattern * repeats + tail`` where ``pattern`` is the first
        period and ``tail`` the trailing remainder (analytically exact
        by the period contract).  Aperiodic kernels decompose trivially
        as one repeat of the whole body.
        """
        period = self.period
        if period is None or period >= len(self.instructions):
            return self.instructions, 1, ()
        repeats = len(self.instructions) // period
        return (
            self.instructions[:period],
            repeats,
            self.instructions[repeats * period:],
        )

    def validate_period(self) -> None:
        """Assert the declared period contract (O(loop size); tests only).

        Raises:
            ValueError: If some slot below the last full period is not
                analytically equivalent to its image in the first one.
        """
        pattern, repeats, _ = self.periodic_parts()
        period = len(pattern)
        if self.period is not None:
            for index in range(period, repeats * period):
                expected = pattern[index % period].analytic_key()
                actual = self.instructions[index].analytic_key()
                if actual != expected:
                    raise ValueError(
                        f"kernel {self.name!r}: slot {index} {actual} "
                        f"breaks the declared period {period} "
                        f"({expected} expected)"
                    )
        if self.analytic_period is not None:
            reduced = self.analytic_period
            for index in range(reduced, period):
                expected = pattern[index % reduced].analytic_key()
                actual = pattern[index].analytic_key()
                if actual != expected:
                    raise ValueError(
                        f"kernel {self.name!r}: pattern slot {index} "
                        f"{actual} breaks the declared analytic period "
                        f"{reduced} ({expected} expected)"
                    )

    # -- content identity --------------------------------------------------------

    def digest(self) -> int:
        """Deterministic analytic-content digest (stable across processes).

        Keys the evaluation engine's summary/activity memoization and
        salts sensor seeds so two kernels that share a name can never
        produce identical noise draws.  For kernels with a declared
        period the digest covers one period plus the repeat count and
        tail, making it O(period) to compute.
        """
        cached = self.__dict__.get("_digest")
        if cached is not None:
            return cached
        pattern, repeats, tail = self.periodic_parts()
        text = (
            f"{self.operand_entropy}:{len(pattern)}:{repeats}:"
            f"{_content_text(pattern)}#{_content_text(tail)}"
        )
        value = content_hash(text)
        object.__setattr__(self, "_digest", value)
        return value

    def mnemonic_counts(self) -> dict[str, int]:
        """Occurrences of each mnemonic in the loop body."""
        counts: dict[str, int] = {}
        pattern, repeats, tail = self.periodic_parts()
        for instruction in pattern:
            counts[instruction.mnemonic] = (
                counts.get(instruction.mnemonic, 0) + repeats
            )
        for instruction in tail:
            counts[instruction.mnemonic] = counts.get(instruction.mnemonic, 0) + 1
        return counts

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able form, round-tripped by :meth:`from_dict`.

        Periodic kernels serialize one pattern plus the repeat count and
        tail (the same decomposition :meth:`digest` hashes), so a
        4096-instruction stressmark stores as its 6-slot pattern.
        """
        pattern, repeats, tail = self.periodic_parts()
        return {
            "name": self.name,
            "operand_entropy": self.operand_entropy,
            "period": self.period,
            "analytic_period": self.analytic_period,
            "pattern": [instruction.to_list() for instruction in pattern],
            "repeats": repeats,
            "tail": [instruction.to_list() for instruction in tail],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Kernel":
        """Rebuild a kernel serialized by :meth:`to_dict`.

        :meth:`digest` hashes exactly what :meth:`to_dict` stores (one
        pattern, the repeat count, the tail), so digests -- and with
        them cell keys, summary-cache entries and noise salts --
        round-trip identically.  The only thing that can differ is the
        raw bytes of replicated pattern slots whose planned addresses
        varied across repeats; those are analytically irrelevant (see
        :meth:`KernelInstruction.analytic_key`).  Aperiodic kernels
        round-trip byte-exactly.
        """
        pattern = tuple(
            KernelInstruction.from_list(item) for item in data["pattern"]
        )
        tail = tuple(KernelInstruction.from_list(item) for item in data["tail"])
        return cls(
            name=data["name"],
            instructions=pattern * data["repeats"] + tail,
            operand_entropy=data["operand_entropy"],
            period=data["period"],
            analytic_period=data.get("analytic_period"),
        )

    def memory_slots(self) -> list[int]:
        """Indices of slots carrying a planned memory access."""
        return [
            index for index, instruction in enumerate(self.instructions)
            if instruction.source_level is not None
        ]


def _content_text(instructions: tuple[KernelInstruction, ...]) -> str:
    # The rendered slot text is cached on the instruction objects:
    # builders intern slot instances, so a batch of generated kernels
    # renders each distinct slot once instead of once per digest, and
    # the warm path is a bare dict-lookup comprehension.
    try:
        return "|".join(
            [ins.__dict__["_content"] for ins in instructions]
        )
    except KeyError:
        pass
    parts = []
    for ins in instructions:
        text = ins.__dict__.get("_content")
        if text is None:
            text = (
                f"{ins.mnemonic},{ins.dep_distance},"
                f"{ins.source_level},{ins.address}"
            )
            object.__setattr__(ins, "_content", text)
        parts.append(text)
    return "|".join(parts)
