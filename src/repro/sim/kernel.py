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

A kernel loaded from a store record (:meth:`Kernel.from_slot_table`)
is checked and digested from the record's slot text at load, and builds
its loop body only when something reads it.
"""

from __future__ import annotations

import re
import sys
import threading
from dataclasses import dataclass, field
from operator import attrgetter

from repro.caching import LRUCache
from repro.hashing import content_hash


@dataclass(frozen=True, slots=True, init=False)
class KernelInstruction:
    """One slot of the loop body: an immutable value of fixed layout.

    Besides its four fields a slot holds its analytic key and its
    digest text, both set once, by the constructor; it has no instance
    ``__dict__``.  Equality, hashing and ``repr`` cover the four fields.

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
    _key: tuple = field(init=False, repr=False, compare=False)
    _text: str = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        mnemonic: str,
        dep_distance: int | None = None,
        source_level: str | None = None,
        address: int | None = None,
        text: str | None = None,
        key: tuple | None = None,
    ) -> None:
        """``text`` and ``key`` are the slot's digest text and analytic
        key when the caller already holds them, as a store record's
        slot table does; each must equal what the fields give."""
        if text is None:
            text = f"{mnemonic},{dep_distance},{source_level},{address}"
        if key is None:
            key = (mnemonic, dep_distance, source_level)
        _set_mnemonic(self, mnemonic)
        _set_dep_distance(self, dep_distance)
        _set_source_level(self, source_level)
        _set_address(self, address)
        _set_key(self, key)
        _set_text(self, text)

    def __reduce__(self):
        # Copies and unpickled slots are built by the constructor.
        return type(self), (
            self.mnemonic, self.dep_distance, self.source_level, self.address
        )

    def analytic_key(self) -> tuple:
        """The fields steady-state analytics depend on (no address)."""
        return self._key

    def to_list(self) -> list:
        """Compact JSON-able form, round-tripped by :meth:`from_list`."""
        return [self.mnemonic, self.dep_distance, self.source_level, self.address]

    @classmethod
    def from_list(cls, data: list) -> "KernelInstruction":
        """The interned slot serialized by :meth:`to_list`."""
        mnemonic, dep_distance, source_level, address = data
        if type(mnemonic) is not str:
            raise ValueError(f"slot mnemonic {mnemonic!r} is not a string")
        return intern_slot(mnemonic, dep_distance, source_level, address)


# The constructor writes the fields through the slots' own descriptors,
# since the frozen ``__setattr__`` refuses every write.
(
    _set_mnemonic,
    _set_dep_distance,
    _set_source_level,
    _set_address,
    _set_key,
    _set_text,
) = (
    vars(KernelInstruction)[name].__set__
    for name in KernelInstruction.__slots__
)
#: A slot's digest text, as :meth:`Kernel.digest` hashes it.
_slot_text = attrgetter("_text")


#: Interned loop-body slots, shared by every kernel decoder and builder.
#: Slots are immutable, so sharing one instance across kernels changes
#: no digest; a server that keeps thousands of decoded kernels holds
#: each distinct slot once.
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


#: One loop slot as :meth:`Kernel.digest` renders it:
#: ``mnemonic,dep_distance,source_level,address``, with ``None`` for an
#: absent optional field.  The grammar admits exactly the texts that
#: parse to canonical fields and render back unchanged: identifier-like
#: mnemonics and levels (a mnemonic is never ``None``), dependency
#: distances of at least 1 and non-negative addresses, integers without
#: leading zeros or signs.
_SLOT = (
    r"(?!None,)[A-Za-z_][A-Za-z0-9_.+-]*"
    r",(?:None|[1-9][0-9]*)"
    r",(?:None|[A-Za-z_][A-Za-z0-9_]*)"
    r",(?:None|0|[1-9][0-9]*)"
)
#: A slot table: one or more slot texts joined by ``|``.  Compiled on
#: first use (``re`` caches it), so importing costs nothing.
_SLOT_TABLE = rf"{_SLOT}(?:\|{_SLOT})*"


def _periodic_split(body, period: int | None):
    """``(pattern, repeats, tail)`` of a loop body sequence.

    The decomposition :meth:`Kernel.periodic_parts` names, for any
    sliceable sequence of slots (a kernel's instructions or a record's
    slot indices).
    """
    if period is None or period >= len(body):
        return body, 1, body[:0]
    repeats = len(body) // period
    return body[:period], repeats, body[repeats * period:]


def _body_digest(
    operand_entropy: float, pattern: list[str], repeats: int, tail: list[str]
) -> int:
    """:meth:`Kernel.digest` of a body given its pattern and tail slot texts."""
    return content_hash(
        f"{operand_entropy}:{len(pattern)}:{repeats}:"
        f"{'|'.join(pattern)}#{'|'.join(tail)}"
    )


def _check_header(
    name: object,
    length: int,
    operand_entropy: float,
    period: int | None,
    analytic_period: int | None,
) -> None:
    """Every :class:`Kernel` condition that does not read a slot."""
    if not isinstance(name, str):
        raise ValueError(f"kernel name must be a string: {name!r}")
    if not length:
        raise ValueError(f"kernel {name!r} has an empty loop body")
    if not 0.0 <= operand_entropy <= 1.0:
        raise ValueError("operand_entropy must be within [0, 1]")
    if period is not None and period < 1:
        raise ValueError(f"kernel {name!r}: period must be >= 1")
    pattern = length if period is None else min(period, length)
    if analytic_period is not None and (
        analytic_period < 1 or pattern % analytic_period
    ):
        raise ValueError(
            f"kernel {name!r}: analytic_period {analytic_period} must "
            f"divide the pattern length {pattern}"
        )


def _slots_of(table: list[str], index: list[int]):
    """The loop body a checked slot table and index spell.

    Slots that share a table entry share one slot object, as
    :meth:`repro.core.ir.Program.to_kernel` shares equal slots.  Each
    keeps its table entry as its digest text, and slots that differ
    only in address share one analytic key; mnemonic and level strings
    are interned.  The table passed the grammar and the index its range
    check, so this cannot fail.
    """
    intern = sys.intern
    keys: dict[str, tuple] = {}
    slots = []
    for text in table:
        head, _, address = text.rpartition(",")
        key = keys.get(head)
        if key is None:
            mnemonic, distance, level = head.split(",")
            key = keys[head] = (
                intern(mnemonic),
                None if distance == "None" else int(distance),
                None if level == "None" else intern(level),
            )
        mnemonic, distance, level = key
        slots.append(KernelInstruction(
            mnemonic,
            distance,
            level,
            None if address == "None" else int(address),
            text,
            key,
        ))
    return tuple(map(slots.__getitem__, index))


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
        _check_header(
            self.name,
            len(self.instructions),
            self.operand_entropy,
            self.period,
            self.analytic_period,
        )
        # With a declared period, the fingerprint contract makes one
        # period plus the tail representative -- validate O(period).
        pattern, repeats, tail = self.periodic_parts()
        for base, slots in ((0, pattern), (repeats * len(pattern), tail)):
            for index, instruction in enumerate(slots):
                distance = instruction.dep_distance
                if distance is not None and distance < 1:
                    raise ValueError(
                        f"kernel {self.name!r} slot {base + index}: "
                        f"dependency distance must be >= 1, got {distance}"
                    )

    def __getattr__(self, name: str):
        # Reached only for attributes the instance lacks: a kernel from
        # :meth:`from_slot_table` builds its loop body on first read.
        if name == "instructions":
            state = self.__dict__.get("_slot_table")
            if state is not None:
                instructions = _slots_of(*state)
                object.__setattr__(self, "instructions", instructions)
                self.__dict__.pop("_slot_table", None)
                return instructions
            if "instructions" in self.__dict__:  # built by another thread
                return self.__dict__["instructions"]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @classmethod
    def from_slot_table(
        cls,
        name: str,
        slots: str,
        index: list[int],
        operand_entropy: float,
        period: int | None,
        analytic_period: int | None,
    ) -> "Kernel":
        """The kernel a slot table spells, checked now and built lazily.

        ``slots`` joins each distinct slot's digest text with ``|``
        (:meth:`slot_table`); ``index`` holds one table position per
        loop slot.  Everything :meth:`__post_init__` would reject is
        rejected here, and the digest is computed from the text --
        exactly the value :meth:`digest` computes from the built slots.
        The slot objects and the ``instructions`` tuple are built on
        the first read of ``instructions`` (``len``, ``==``,
        :meth:`periodic_parts`), which cannot fail.

        Raises:
            ValueError: If a field has the wrong type, the table breaks
                the grammar, an index is out of range, or the header
                breaks a kernel condition.
        """
        if (
            type(slots) is not str
            or type(index) is not list
            or not set(map(type, index)) <= {int}
            or type(operand_entropy) is not float
            or type(period) not in _INT_OR_NONE
            or type(analytic_period) not in _INT_OR_NONE
        ):
            raise ValueError(f"kernel {name!r}: a field of the wrong type")
        if re.fullmatch(_SLOT_TABLE, slots) is None:
            raise ValueError(f"kernel {name!r}: malformed slot table")
        table = slots.split("|")
        if index and (min(index) < 0 or max(index) >= len(table)):
            raise ValueError(f"kernel {name!r}: slot index out of range")
        _check_header(name, len(index), operand_entropy, period, analytic_period)
        pattern, repeats, tail = _periodic_split(index, period)
        text = table.__getitem__
        kernel = object.__new__(cls)
        kernel.__dict__.update(
            name=name,
            operand_entropy=operand_entropy,
            period=period,
            analytic_period=analytic_period,
            _digest=_body_digest(
                operand_entropy,
                list(map(text, pattern)),
                repeats,
                list(map(text, tail)),
            ),
            _slot_table=(table, index),
        )
        return kernel

    def slot_table(self) -> tuple[str, list[int]] | None:
        """``(slots, index)`` as :meth:`from_slot_table` reads them.

        Each distinct slot object is written once, in first-use order,
        as the text :meth:`digest` hashes
        (``mnemonic,dep_distance,source_level,address``), and the texts
        are joined by ``|``; ``index`` holds each loop slot's table
        position.  ``None`` when some slot's text falls outside the
        grammar, which no kernel of identifier-like mnemonics and
        levels and non-negative addresses does.
        """
        instructions = self.instructions
        ids = list(map(id, instructions))
        distinct = dict(zip(ids, instructions))
        slots = "|".join(map(_slot_text, distinct.values()))
        if re.fullmatch(_SLOT_TABLE, slots) is None:
            return None
        positions = dict(zip(distinct, range(len(distinct))))
        return slots, list(map(positions.__getitem__, ids))

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
        return _periodic_split(self.instructions, self.period)

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
        value = _body_digest(
            self.operand_entropy,
            list(map(_slot_text, pattern)),
            repeats,
            list(map(_slot_text, tail)),
        )
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

        Raises:
            ValueError: If ``repeats`` is not an ``int`` of at least 1.
        """
        repeats = data["repeats"]
        if type(repeats) is not int or repeats < 1:
            raise ValueError(f"kernel repeats {repeats!r} is not an int >= 1")
        pattern = tuple(
            KernelInstruction.from_list(item) for item in data["pattern"]
        )
        tail = tuple(KernelInstruction.from_list(item) for item in data["tail"])
        return cls(
            name=data["name"],
            instructions=pattern * repeats + tail,
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
