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

A kernel synthesis builds (:meth:`Kernel.from_fields`) or a store
record spells (:meth:`Kernel.from_slot_table`) is a slot table: each
distinct slot once, as its digest text and fields, and one index per
loop slot.  It is checked and digested from the texts when built; its
digest, length, counts, wire and record forms and its summary read the
table, and its loop body is built only when something reads it.
"""

from __future__ import annotations

import re
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import count
from operator import attrgetter, itemgetter

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
#: A slot's analytic key, and a table entry's.
_slot_key = attrgetter("_key")
_entry_key = itemgetter(0, 1, 2)


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
    sliceable sequence of slots (a kernel's instructions or a slot
    table's index).
    """
    if period is None or period >= len(body):
        return body, 1, body[:0]
    repeats = len(body) // period
    return body[:period], repeats, body[repeats * period:]


def _body_digest(operand_entropy: float, text, pattern, repeats, tail) -> int:
    """:meth:`Kernel.digest` of a body, ``text`` rendering its slots."""
    return content_hash(
        f"{operand_entropy}:{len(pattern)}:{repeats}:"
        f"{'|'.join(map(text, pattern))}#{'|'.join(map(text, tail))}"
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


def _distance_error(name: str, slot: int, distance: int) -> ValueError:
    return ValueError(f"kernel {name!r} slot {slot}: "
                      f"dependency distance must be >= 1, got {distance}")


#: A slot object's table entry.
_slot_fields = attrgetter("mnemonic", "dep_distance", "source_level", "address")


def _coded(values) -> tuple[list, list[int]]:
    """The distinct ``values`` by first use, and each value's position;
    one hash per value."""
    position = defaultdict(count().__next__)
    code = list(map(position.__getitem__, values))
    return list(position), code


def _parse_fields(texts: list[str]) -> list[tuple]:
    """Each slot text's fields, mnemonic and level strings interned;
    the texts passed the grammar, so this cannot fail."""
    intern = sys.intern
    heads: dict[str, tuple] = {}
    fields = []
    for text in texts:
        head, _, address = text.rpartition(",")
        key = heads.get(head)
        if key is None:
            mnemonic, distance, level = head.split(",")
            key = heads[head] = (
                intern(mnemonic),
                None if distance == "None" else int(distance),
                None if level == "None" else intern(level),
            )
        fields.append((*key, None if address == "None" else int(address)))
    return fields


def _slots_of(texts: list[str], fields: list[tuple], index: list[int]):
    """The loop body a slot table spells: one slot object per entry,
    keeping its text; entries differing only in address share a key."""
    keys: dict[tuple, tuple] = {}
    slots = [
        KernelInstruction(*field, text, keys.setdefault(field[:3], field[:3]))
        for field, text in zip(fields, texts)
    ]
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
                    raise _distance_error(self.name, base + index, distance)

    def __getattr__(self, name: str):
        # Reached only for attributes the instance lacks: a table
        # kernel builds its loop body on first read.
        state = self.__dict__
        if name == "instructions" and "_index" in state:
            instructions = _slots_of(
                state["_texts"], self.slot_parts()[0], state["_index"]
            )
            return state.setdefault("instructions", instructions)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @classmethod
    def _of_table(cls, name, texts, index, *header) -> "Kernel":
        """The checked table kernel; its digest read from ``texts``."""
        _check_header(name, len(index), *header)
        operand_entropy, period, analytic_period = header
        kernel = object.__new__(cls)
        kernel.__dict__.update(
            name=name,
            operand_entropy=operand_entropy,
            period=period,
            analytic_period=analytic_period,
            _digest=_body_digest(
                operand_entropy,
                texts.__getitem__,
                *_periodic_split(index, period),
            ),
            _texts=texts,
            _index=index,
        )
        return kernel

    @classmethod
    def from_fields(
        cls,
        name: str,
        fields: list[tuple],
        index: list[int],
        operand_entropy: float,
        period: int | None,
    ) -> "Kernel":
        """The kernel whose loop slot ``i`` is ``fields[index[i]]``.

        ``fields`` holds each distinct slot's ``(mnemonic,
        dep_distance, source_level, address)`` once, in first-use
        order.  Each entry's distance is checked and its digest text
        rendered once; no slot object is built.

        Raises:
            ValueError: If the kernel breaks a kernel condition.
        """
        for position, (_, distance, _, _) in enumerate(fields):
            if distance is not None and distance < 1:
                raise _distance_error(name, index.index(position), distance)
        texts = [f"{m},{d},{l},{a}" for m, d, l, a in fields]
        kernel = cls._of_table(name, texts, index, operand_entropy, period, None)
        kernel.__dict__["_fields"] = fields
        return kernel

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
        The slots' fields are parsed from the text when a reader first
        needs them (:meth:`slot_parts`), and the slot objects built on
        the first read of ``instructions``, neither of which can fail.

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
        return cls._of_table(
            name, table, index, operand_entropy, period, analytic_period
        )

    def slot_table(self) -> tuple[str, list[int]] | None:
        """``(slots, index)`` as :meth:`from_slot_table` reads them.

        Each distinct slot (slot object, for a kernel built from them)
        is written once, in first-use order, as the text :meth:`digest`
        hashes (``mnemonic,dep_distance,source_level,address``), and the
        texts are joined by ``|``; ``index`` holds each loop slot's
        table position.  ``None`` when some slot's text falls outside
        the grammar, which no kernel of identifier-like mnemonics and
        levels and non-negative addresses does.
        """
        index = self.__dict__.get("_index")
        if index is None:
            slots = {id(slot): slot for slot in self.instructions}
            ids, index = _coded(map(id, self.instructions))
            texts = map(_slot_text, map(slots.__getitem__, ids))
        else:
            texts = self.__dict__["_texts"]
        slots = "|".join(texts)
        if re.fullmatch(_SLOT_TABLE, slots) is None:
            return None
        return slots, list(index)

    def __len__(self) -> int:
        index = self.__dict__.get("_index")
        return len(self.instructions if index is None else index)

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

    def slot_parts(self) -> tuple[list[tuple], list[int], int, list[int]]:
        """``(fields, pattern, repeats, tail)``: :meth:`periodic_parts`
        as runs of positions in ``fields``, each table entry's
        ``(mnemonic, dep_distance, source_level, address)``.  A kernel
        built from slot objects has one entry per pattern and tail
        slot, in O(period).
        """
        state = self.__dict__
        if "_index" not in state:
            pattern, repeats, tail = self.periodic_parts()
            fields = list(map(_slot_fields, pattern + tail))
            runs = list(range(len(fields)))
            return fields, runs[:len(pattern)], repeats, runs[len(pattern):]
        fields = state.get("_fields")
        if fields is None:  # parsed from the texts on first use
            fields = state.setdefault("_fields", _parse_fields(state["_texts"]))
        return (fields, *_periodic_split(state["_index"], self.period))

    def analytic_parts(self) -> tuple[list[tuple], list[int], int, list[int]]:
        """``(keys, pattern, repeats, tail)``: :meth:`periodic_parts` as
        runs of positions in ``keys``, distinct analytic keys
        ``(mnemonic, dep_distance, source_level)``, with the pattern cut
        to a declared ``analytic_period``.  A table kernel keys each
        entry once; one built from slot objects reads its pattern and
        tail slots' keys, in O(analytic period + tail).
        """
        tabled = "_index" in self.__dict__
        if tabled:
            fields, pattern, repeats, tail = self.slot_parts()
            keys, code = _coded(map(_entry_key, fields))
        else:
            pattern, repeats, tail = self.periodic_parts()
        if self.analytic_period is not None:
            repeats *= len(pattern) // self.analytic_period
            pattern = pattern[:self.analytic_period]
        if tabled:
            key = code.__getitem__
            return keys, list(map(key, pattern)), repeats, list(map(key, tail))
        keys, code = _coded(map(_slot_key, pattern + tail))
        return keys, code[:len(pattern)], repeats, code[len(pattern):]

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
        tail, making it O(period) to compute (from the texts, when a
        table kernel is built).
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = _body_digest(
                self.operand_entropy, _slot_text, *self.periodic_parts()
            )
            object.__setattr__(self, "_digest", cached)
        return cached

    def mnemonic_counts(self) -> dict[str, int]:
        """Occurrences of each mnemonic in the loop body, by first use."""
        fields, pattern, repeats, tail = self.slot_parts()
        counts: dict[str, int] = {}
        for run, times in ((pattern, repeats), (tail, 1)):
            for position, count in Counter(run).items():
                mnemonic = fields[position][0]
                counts[mnemonic] = counts.get(mnemonic, 0) + count * times
        return counts

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able form, round-tripped by :meth:`from_dict`.

        Periodic kernels serialize one pattern plus the repeat count and
        tail (the same decomposition :meth:`digest` hashes), so a
        4096-instruction stressmark stores as its 6-slot pattern.
        """
        fields, pattern, repeats, tail = self.slot_parts()
        return {
            "name": self.name,
            "operand_entropy": self.operand_entropy,
            "period": self.period,
            "analytic_period": self.analytic_period,
            "pattern": [list(fields[position]) for position in pattern],
            "repeats": repeats,
            "tail": [list(fields[position]) for position in tail],
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
