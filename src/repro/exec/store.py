"""Persistent measurement results, keyed by content-addressed cell keys.

A :class:`ResultStore` is a directory of *shard* files --
``shards/<xx>.jsonl``, fanned out on the first key byte -- each an
append-only sequence of JSON lines, one per persisted measurement
cell.  A second record type shares every mechanism below: synthesized
kernels (:meth:`ResultStore.get_kernels`/:meth:`~ResultStore.put_kernels`)
live in ``kernels/<xx>.jsonl``, keyed by the content hash of their
synthesis recipe (:meth:`repro.core.synthesizer.Synthesizer.recipe_key`),
so a warm campaign or bootstrap loads its kernels instead of
synthesizing them again.  Kernel records never count as cells: ``len``,
:meth:`keys` and the ``hits``/``misses`` counters see cells only.

Because cell keys are derived from the architecture, machine seed,
workload content digest, configuration, operating point and window
length (:meth:`~repro.exec.plan.PlanCell.key`), a store survives
process restarts and is shared safely between concurrent processes
(campaigns, a campaign service): the same cell always lands under the
same key with the same payload, and a warm re-run of any campaign
skips ``Machine.run`` entirely.

Writes are *append-style and batched*: persisting a measured batch
groups its cells by shard and issues one locked append per touched
shard, so a store write costs O(batch) regardless of how many cells
the store already holds -- a week-long campaign's checkpoint cadence
never degrades as the store grows.  Appends take an exclusive
``flock`` on the shard, verify the file still ends on a line boundary
(a crashed writer's torn tail is repaired by prepending a newline),
and write the whole batch with a single ``write`` call.  Re-written
keys simply append a newer line; readers index the shard last-wins.

Integrity: every record carries a content checksum (``"sum"``, over
the key and the canonical measurement JSON), and every record the
store serves has had it verified.  A torn, bit-flipped or sum-less
record is *quarantined* -- counted, logged, served as a miss so the
executor re-measures and overwrites it -- never silently returned and
never a crash.  :meth:`verify` audits the whole store without
modifying it; :meth:`scrub` compacts each shard to the newest valid
record per key, dropping every line that fails the check.  Swallowed
I/O errors are counted too (:meth:`fault_stats`, warn-once per shard),
so a half-unreadable store is visible instead of quietly re-measuring
everything.

There is one read path, and it reads batches:
:meth:`ResultStore.get_bodies` returns each key's verified canonical
body text, :meth:`~ResultStore.get_many` its measurement and
:meth:`~ResultStore.get_kernels` its kernel (``get_body``, ``get`` and
``get_kernel`` are the batch of one).  Keys group by shard; each group
is read under the store lock on its own, so a long probe never holds a
writer off for its whole length, in offset order, one ``pread`` per
record.  A line laid out exactly as :func:`render_record` writes it is
checked by slicing -- format, key, body text and the checksum over key
and body text -- with no JSON parse; any other line (foreign
formatting, a retired format, damage) is parsed and its checksum
recomputed over the canonical re-dump.  A group's verified bodies then
decode with one ``json.loads`` over them joined as a JSON array, and
each distinct configuration once per batch.  A batch moves ``hits``/
``misses``, the kernel counters, :meth:`~ResultStore.fault_stats` and
the quarantine log as reading its keys one at a time would (each key
draws its own ``get:<key>`` fault; ``tests/oracle/store_reads.py``
keeps the per-key reads).  The campaign service streams the body text
itself, so a warm cell is never decoded on the server.

Reads are served from a lazy per-shard offset index: the first batch
touching a shard scans it once, later reads go straight to the line
(verifying the key, so an externally rewritten shard is a miss, never
a wrong entry).  A group missing a key re-checks, once, whether
another process has grown the shard since it was scanned, so
concurrent campaigns sharing one store see each other's results.
Leaving a ``with`` block closes the cached shard handles.  That scan
is the only index:
none is persisted, so a read never writes, and index files older
releases kept beside the shards are ignored.  Shard files are the only
layout: per-cell ``<xx>/<key>.json`` files of the pre-shard layout are
ignored, so such a store simply re-measures.

Shard appends use POSIX ``flock`` and ``pread``; where ``fcntl`` is
missing they are lock-free, and a store directory should have a single
writer at a time (readers are always safe).  :meth:`scrub` replaces
shard files and must not race concurrent *writers* (readers are safe):
run it between campaigns.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

try:  # POSIX shard locking; on platforms without fcntl the store
    import fcntl  # degrades to lock-free appends (single-writer safe).
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.exec import faults
from repro.hashing import content_hex
from repro.measure.measurement import Measurement
from repro.sim.kernel import Kernel

logger = logging.getLogger("repro.exec.store")

#: Store layout version; bump when the payload format changes.
FORMAT = "repro-result-v1"
#: Kernel record version; bump when :func:`kernel_body` changes.
KERNEL_FORMAT = "repro-kernel-v2"


class RecordKind:
    """One record type: its shard directory and how its lines read.

    Every line is ``{"format": F, "key": K, "<field>": BODY, "sum": S}``
    with ``S`` the checksum of the key and the canonical body text,
    salted per kind.  ``retired`` formats are ones earlier releases
    wrote: their lines verify like current ones, but read as plain
    misses (no fault) and :meth:`ResultStore.scrub` compacts them away.
    """

    __slots__ = (
        "directory", "format", "retired", "field", "salt", "prefixes",
        "marker",
    )

    def __init__(
        self,
        directory: str,
        format: str,
        field: str,
        salt: str,
        retired: tuple[str, ...] = (),
    ):
        self.directory = directory
        self.format = format
        self.retired = retired
        self.field = field
        self.salt = salt
        #: How every line of a known format opens; the key comes next.
        self.prefixes = tuple(
            b'{"format": "' + name.encode() + b'", "key": "'
            for name in (format, *retired)
        )
        #: What precedes the body text in a line.
        self.marker = b'"' + field.encode() + b'": '


#: Measurement cells, under ``shards/``.
CELLS = RecordKind("shards", FORMAT, "measurement", "sum-v1")
#: Synthesized kernels, under ``kernels/``.  Version 1 bodies held the
#: slot table as nested lists.
KERNELS = RecordKind(
    "kernels", KERNEL_FORMAT, "kernel", "kernel-sum-v1",
    retired=("repro-kernel-v1",),
)

_SUM_FIELD = b', "sum": "'
_TAIL = b'"}\n'


def _checksum(kind: RecordKind, key: str, body_text: str) -> str:
    return content_hex(kind.salt + "|" + key + "|" + body_text, size=8)


def _line(kind: RecordKind, key: str, body_text: str, digest: str) -> bytes:
    return (
        '{"format": "%s", "key": %s, "%s": %s, "sum": "%s"}\n'
        % (kind.format, json.dumps(key), kind.field, body_text, digest)
    ).encode()


def record_checksum(key: str, body: dict, kind: RecordKind = CELLS) -> str:
    """Content checksum of one record: key + canonical body JSON.

    JSON round-trips floats at shortest-repr precision, so re-dumping a
    parsed record reproduces the canonical text -- and therefore the
    checksum -- exactly; any torn or bit-flipped payload that still
    parses as JSON changes it.
    """
    return _checksum(kind, key, json.dumps(body, sort_keys=True))


def render_record(key: str, body: dict, kind: RecordKind = CELLS) -> bytes:
    """One checksummed store line (newline-terminated).

    A cell's ``body`` is :meth:`Measurement.to_dict`'s compact body:
    each distinct per-thread counter set once under ``counters``, plus
    one set index per hardware thread under ``threads``.  A measurement
    whose threads all ran one benchmark copy renders in about 0.8 KB
    instead of the 3.9 KB of one counter set per thread.  Records
    written before the compact body carry ``thread_counters`` instead;
    they verify and decode as before, and :meth:`ResultStore.scrub`
    re-renders them byte for byte.  A kernel's body is
    :func:`kernel_body`.

    The body is serialized exactly once and the record assembled
    around that canonical text -- byte-identical to dumping the whole
    record with ``sort_keys=True``, but half the serialization work,
    and it guarantees the canonical body bytes appear verbatim in the
    line so readers can verify the checksum with a slice and a hash
    instead of a re-serialization (see :func:`_sliced_body`).
    Bodies hold no reference cycles, so the encoder skips its
    circular-reference bookkeeping (same text, a fifth faster).
    """
    text = json.dumps(body, sort_keys=True, check_circular=False)
    return _line(kind, key, text, _checksum(kind, key, text))


def _checksum_matches(
    kind: RecordKind, key: str, recorded: str | None, raw: bytes, body
) -> bool:
    """Whether a record's checksum verifies, preferring the raw bytes.

    A record without one (``recorded`` is ``None``) never verifies.

    Lines written by :func:`render_record` carry the canonical body
    text verbatim between the body field and the trailing ``sum``
    field, so the common case is a slice and a hash.  ``rfind`` is
    safe: nothing after the *real* sum separator but the checksum hex
    and the closing brace.  Foreign formatting (re-written or
    hand-edited lines) falls back to the canonical recompute.
    """
    start = raw.find(kind.marker)
    end = raw.rfind(_SUM_FIELD)
    if start != -1 and end > start:
        text = raw[start + len(kind.marker) : end]
        if _checksum(kind, key, text.decode()) == recorded:
            return True
    return recorded == record_checksum(key, body, kind)


def _sliced_body(kind: RecordKind, key: str, raw: bytes) -> bytes | None:
    """The body text of ``raw`` if it is laid out exactly as
    :func:`render_record` writes ``key``'s record in the current format
    and its checksum verifies; ``None`` for any other line.

    No JSON parse: the head (format, key, body field), the tail (the sum
    field, its hex and the closing brace) and the checksum over the key
    and the body text between them.  ``rfind`` is safe for the same
    reason as in :func:`_checksum_matches`.
    """
    head = kind.prefixes[0] + key.encode() + b'", ' + kind.marker
    end = raw.rfind(_SUM_FIELD)
    if end < len(head) or not raw.startswith(head) or not raw.endswith(_TAIL):
        return None
    text = raw[len(head) : end]
    try:
        digest = _checksum(kind, key, text.decode())
    except UnicodeDecodeError:
        return None
    if digest.encode() != raw[end + len(_SUM_FIELD) : -len(_TAIL)]:
        return None
    return text


# -- kernel records -----------------------------------------------------------


def kernel_body(kernel: Kernel) -> dict | None:
    """The exact body of a kernel record, or ``None`` if it has none.

    The kernel's slot table (:meth:`Kernel.slot_table`: each distinct
    slot's digest text once, joined by ``|``, and one table index per
    loop slot) beside its name, operand entropy and declared periods.
    A 1,024-slot training kernel holds a few hundred distinct slots.
    Unlike :meth:`Kernel.to_dict`, nothing is folded by period: the body
    is the whole loop, so a decoded kernel ``==`` the written one.
    """
    table = kernel.slot_table()
    if table is None:
        return None
    return {
        "name": kernel.name,
        "operand_entropy": kernel.operand_entropy,
        "period": kernel.period,
        "analytic_period": kernel.analytic_period,
        "slots": table[0],
        "index": table[1],
    }


def kernel_from_body(body: dict) -> Kernel:
    """The kernel a :func:`kernel_body` spells, checked at load.

    :meth:`Kernel.from_slot_table` checks the grammar, the index range
    and every kernel condition, and computes the digest from the slot
    text; nothing stored is trusted.  The slot objects are built when
    something first reads the kernel's instructions.

    Raises:
        ValueError, TypeError, KeyError: If the body is not shaped like
            one.
    """
    return Kernel.from_slot_table(
        body["name"],
        body["slots"],
        body["index"],
        body["operand_entropy"],
        body["period"],
        body["analytic_period"],
    )


def _tampered_cell(body: dict) -> dict:
    return dict(body, mean_power=body["mean_power"] + 1.0)


def _tampered_kernel(body: dict) -> dict:
    return dict(body, name=body["name"] + "~")


class _Shard:
    """Offset index of one shard file."""

    __slots__ = ("path", "kind", "offsets", "scanned", "handle")

    def __init__(self, path: Path, kind: RecordKind) -> None:
        self.path = path
        self.kind = kind
        #: key -> (byte offset, byte length) of the newest line.
        self.offsets: dict[str, tuple[int, int]] = {}
        #: How far into the file the index has scanned.
        self.scanned = 0
        #: Lazy persistent read handle.  Shards are append-only (a
        #: handle always sees later appends), so one open serves every
        #: read; :meth:`ResultStore.scrub` replaces shard files and
        #: invalidates these.
        self.handle = None

    def reader(self):
        if self.handle is None:
            self.handle = self.path.open("rb")
        return self.handle

    def invalidate(self) -> None:
        """Drop the cached handle and index (file was replaced)."""
        if self.handle is not None:
            self.handle.close()
            self.handle = None
        self.offsets.clear()
        self.scanned = 0


@dataclass
class StoreReport:
    """What :meth:`ResultStore.verify`/:meth:`~ResultStore.scrub` found.

    ``records`` counts parsed cell lines (superseded duplicates
    included); ``keys`` distinct newest cell keys.  Kernel records are
    counted apart, in ``kernel_records`` and ``kernel_keys``, those of a
    retired format included (scrub compacts them away); the damage
    counters cover both record types.  A store is :attr:`ok` when
    nothing is corrupt, mismatched or torn.
    """

    shards: int = 0
    records: int = 0
    keys: int = 0
    checksummed: int = 0
    kernel_records: int = 0
    kernel_keys: int = 0
    corrupt_lines: int = 0
    checksum_mismatches: int = 0
    torn_tails: int = 0
    #: scrub only: invalid lines dropped / superseded duplicates removed.
    dropped: int = 0
    compacted: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (
            self.corrupt_lines or self.checksum_mismatches or self.torn_tails
        )

    def describe(self) -> str:
        text = (
            f"{self.shards} shard(s), {self.records} record(s), "
            f"{self.keys} key(s): {self.checksummed} checksummed"
        )
        if self.kernel_records:
            text += (
                f"; {self.kernel_keys} kernel(s) in "
                f"{self.kernel_records} kernel record(s)"
            )
        if not self.ok:
            text += (
                f"; CORRUPTION: {self.corrupt_lines} unparseable, "
                f"{self.checksum_mismatches} checksum mismatch(es), "
                f"{self.torn_tails} torn tail(s)"
            )
        if self.dropped or self.compacted:
            text += (
                f"; scrubbed: {self.dropped} invalid line(s) dropped, "
                f"{self.compacted} superseded line(s) compacted"
            )
        return text


def _classify_line(
    line: bytes, kind: RecordKind
) -> tuple[str, str | None, dict | None]:
    """(status, key, payload) of one shard line.

    Status is ``ok`` (checksummed and verified), ``retired`` (verified,
    in a format the kind no longer reads), ``mismatch`` (checksum
    missing or wrong) or ``corrupt`` (unparseable / wrong shape).
    """
    try:
        payload = json.loads(line)
        key = str(payload["key"])
        body = payload[kind.field]
        layout = payload.get("format")
        if not isinstance(body, dict) or (
            layout != kind.format and layout not in kind.retired
        ):
            return ("corrupt", None, None)
    except (ValueError, KeyError, TypeError):
        return ("corrupt", None, None)
    if not _checksum_matches(kind, key, payload.get("sum"), line, body):
        return ("mismatch", key, payload)
    if layout != kind.format:
        return ("retired", key, payload)
    return ("ok", key, payload)


class ResultStore:
    """On-disk measurement store: sharded, append-style JSON lines."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.shard_dir = self.root / CELLS.directory
        self.shard_dir.mkdir(parents=True, exist_ok=True)
        #: Cells served from disk / missed since construction.
        self.hits = 0
        self.misses = 0
        #: Kernels loaded / looked up in vain (and so synthesized).
        self.kernel_hits = 0
        self.kernel_misses = 0
        #: Fault visibility: swallowed I/O errors, quarantined corrupt
        #: records, repaired torn tails (see :meth:`fault_stats`).
        self.io_errors = 0
        self.checksum_failures = 0
        self.corrupt_records = 0
        self.torn_tails_repaired = 0
        self._io_warned: set[str] = set()
        self._shards: dict[str, _Shard] = {}
        self._kernel_shards: dict[str, _Shard] = {}
        # One store instance may be shared by many threads (the
        # campaign service probes and persists from concurrent client
        # handlers).  The lock guards the shard index/handle state and
        # serializes reads on the shared per-shard file handles; disk
        # appends already serialize under the shard flock, which covers
        # concurrent *processes* as before.
        self._lock = threading.RLock()

    # -- fault accounting ------------------------------------------------------

    def fault_stats(self) -> dict[str, int]:
        """Non-zero fault counters since construction.

        ``io_errors`` are OSErrors swallowed as misses (a half-unreadable
        store re-measures loudly, not quietly); ``checksum_failures``
        and ``corrupt_records`` are quarantined records;
        ``torn_tails_repaired`` counts crashed-writer remnants appends
        healed.  Kernel records count here too.
        """
        counters = {
            "io_errors": self.io_errors,
            "checksum_failures": self.checksum_failures,
            "corrupt_records": self.corrupt_records,
            "torn_tails_repaired": self.torn_tails_repaired,
        }
        return {name: value for name, value in counters.items() if value}

    def snapshot_stats(self) -> dict:
        """One consistent, JSON-able view of the store's counters.

        Taken under the store lock so a concurrent reader (the campaign
        service's ``GET /stats``, drain-time logging) never observes a
        hit counted whose miss twin is still in flight; includes the
        cell count, which walks the shard indexes and therefore also
        wants the lock.
        """
        with self._lock:
            return {
                "root": str(self.root),
                "cells": len(self),
                "hits": self.hits,
                "misses": self.misses,
                "faults": self.fault_stats(),
            }

    def _count_io_error(self, path: Path, exc: OSError) -> None:
        """Count a swallowed OSError, warning once per shard path."""
        self.io_errors += 1
        name = str(path)
        if name not in self._io_warned:
            self._io_warned.add(name)
            logger.warning(
                "store I/O error on %s (treated as a miss; further "
                "errors on this shard counted silently): %s",
                path,
                exc,
            )

    def close(self) -> None:
        """Release cached shard read handles (indexes are kept)."""
        with self._lock:
            shards = (*self._shards.values(), *self._kernel_shards.values())
            for shard in shards:
                if shard.handle is not None:
                    shard.handle.close()
                    shard.handle = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- shard plumbing --------------------------------------------------------

    def _shard(self, key: str, kind: RecordKind = CELLS) -> _Shard:
        shards = self._shards if kind is CELLS else self._kernel_shards
        name = key[:2]
        shard = shards.get(name)
        if shard is None:
            shard = shards[name] = _Shard(
                self.root / kind.directory / f"{name}.jsonl", kind
            )
        return shard

    def _refresh(self, shard: _Shard) -> None:
        """Index any lines appended since the shard was last scanned."""
        try:
            if shard.path.stat().st_size <= shard.scanned:
                return
        except OSError:
            return
        try:
            handle = shard.reader()
            handle.seek(shard.scanned)
            offset = shard.scanned
            for line in handle:
                if not line.endswith(b"\n"):
                    # Unterminated tail: a concurrent writer's
                    # append that is only partially visible (or a
                    # crashed writer's remnant).  Do not advance
                    # past it -- the next refresh re-reads from
                    # here, picking the line up once its remaining
                    # bytes land.
                    break
                self._index_line(shard, line, offset, len(line))
                offset += len(line)
            shard.scanned = offset
        except OSError as exc:
            self._count_io_error(shard.path, exc)

    def _index_line(
        self, shard: _Shard, line: bytes, offset: int, length: int
    ) -> None:
        # Only the key is needed for the index; the payload is parsed
        # on ``get``.  Lines of each known format open with a fixed
        # prefix, so the key is a slice -- no JSON parse per line while
        # scanning a shard.  Foreign formatting falls back to a full
        # parse; unparseable lines are skipped (a miss at worst).
        for prefix in shard.kind.prefixes:
            if line.startswith(prefix):
                end = line.find(b'"', len(prefix))
                if end != -1:
                    try:
                        key = line[len(prefix) : end].decode()
                    except UnicodeDecodeError:
                        pass  # a flipped key byte: the parse below skips it
                    else:
                        shard.offsets[key] = (offset, length)
                        return
                break
        try:
            payload = json.loads(line)
            key = payload["key"]
        except (ValueError, KeyError, TypeError):
            self.corrupt_records += 1
            logger.warning(
                "skipping unreadable line in store shard %s @%d",
                shard.path,
                offset,
            )
            return
        shard.offsets[str(key)] = (offset, length)

    def _batch(self, kind: RecordKind, keys, decode=None) -> list:
        """Each key's verified body text, decoded by ``decode`` if
        given, or ``None``: one shard group at a time, each under the
        store lock.  Counts a hit or a miss per key."""
        fault_plan = faults.active()
        found: list = [None] * len(keys)
        groups: dict[str, list[int]] = {}
        for position, key in enumerate(keys):
            groups.setdefault(key[:2], []).append(position)
        for name, positions in groups.items():
            with self._lock:
                shard = self._shard(name, kind)
                read = self._read_group(
                    shard, keys, positions, found, fault_plan
                )
                if decode is not None and read:
                    read = self._decode_group(shard, keys, read, found, decode)
                if kind is CELLS:
                    self.hits += len(read)
                    self.misses += len(positions) - len(read)
                else:
                    self.kernel_hits += len(read)
                    self.kernel_misses += len(positions) - len(read)
        return found

    def _read_group(self, shard: _Shard, keys, positions, found, fault_plan):
        """Fill ``found`` at ``positions`` (one shard's keys) with their
        verified body texts; the positions filled, in offset order.

        The shard is re-scanned once if some key is missing from its
        index (another process may have appended since the last scan).
        Each indexed key draws its ``get`` fault in key order, then the
        records are read in offset order, one ``pread`` each.
        """
        locate = shard.offsets.get
        locations = [locate(keys[p]) for p in positions]
        if None in locations:
            self._refresh(shard)
            locations = [locate(keys[p]) for p in positions]
        reads = []
        for position, location in zip(positions, locations):
            if location is None:
                continue
            if fault_plan is not None:
                try:
                    fault_plan.maybe_io_error(f"get:{keys[position]}")
                except OSError as exc:
                    self._count_io_error(shard.path, exc)
                    continue
            reads.append((location, position))
        reads.sort()
        read = []
        for (offset, length), position in reads:
            try:
                raw = os.pread(shard.reader().fileno(), length, offset)
            except OSError as exc:
                self._count_io_error(shard.path, exc)
                continue
            found[position] = self._verified(shard, keys[position], raw)
            if found[position] is not None:
                read.append(position)
        return read

    def _verified(self, shard: _Shard, key: str, raw: bytes) -> bytes | None:
        """The canonical body text of record ``raw``, read for ``key``.

        Unreadable, corrupt (checksum-mismatched) or format-mismatched
        records are quarantined: counted in :meth:`fault_stats`, logged
        and read as ``None``, so the caller re-measures (or
        re-synthesizes) and overwrites them.  A record in a retired
        format is a plain miss.  Never raises.
        """
        kind = shard.kind
        try:
            text = _sliced_body(kind, key, raw)
            if text is not None:
                return text
            # Parsing is inside the quarantine block: the key-slice
            # index never parsed this line, so it may be a crashed
            # writer's torn remnant.
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                raise ValueError("store record is not a JSON object")
            layout = payload.get("format")
            if layout != kind.format and layout not in kind.retired:
                raise ValueError(f"unknown store format {layout!r}")
            if payload.get("key") != key:
                # The shard was rewritten out from under a long-lived
                # index (external compaction/cleanup): never serve
                # whatever entry now occupies the stale offset.
                raise ValueError(
                    f"stale shard index: found {payload.get('key')!r}"
                )
            if layout != kind.format:
                # An earlier release's record: a plain miss, which the
                # caller's rewrite in the current format supersedes.
                return None
            body = payload[kind.field]
            if not _checksum_matches(kind, key, payload.get("sum"), raw, body):
                self.checksum_failures += 1
                logger.warning(
                    "quarantining corrupt store record %s[%s]: "
                    "checksum missing or mismatched (served as a miss; "
                    "run `python -m repro store scrub` to repair the "
                    "shard)",
                    shard.path,
                    key,
                )
                return None
            # Foreign formatting verified against the canonical text:
            # serve that text, the bytes this store would have written.
            return json.dumps(body, sort_keys=True).encode()
        except (ValueError, KeyError, TypeError) as exc:
            self._discard(shard, key, exc)
            return None

    def _discard(self, shard: _Shard, key: str, exc: Exception) -> None:
        self.corrupt_records += 1
        logger.warning(
            "discarding unreadable store entry %s[%s]: %s",
            shard.path,
            key,
            exc,
        )

    def _decode_group(self, shard: _Shard, keys, read, found, decode):
        """Decode the verified texts at ``read`` in ``found`` in place,
        parsed with one ``json.loads`` of them joined as a JSON array --
        body by body if that fails or yields another count (a text
        holding several values); the positions that decoded.  A body
        that does not decode is quarantined alone."""
        joined = b",".join([found[i] for i in read])
        try:
            bodies = json.loads(b"[%s]" % joined)
        except ValueError:
            bodies = None
        if bodies is None or len(bodies) != len(read):
            bodies = [None] * len(read)
        decoded = []
        for position, body in zip(read, bodies):
            try:
                found[position] = decode(
                    json.loads(found[position]) if body is None else body
                )
                decoded.append(position)
            except (ValueError, KeyError, TypeError) as exc:
                self._discard(shard, keys[position], exc)
                found[position] = None
        return decoded

    # -- public API -------------------------------------------------------------

    def get_bodies(self, keys: Sequence[str]) -> list[bytes | None]:
        """The verified canonical body text of each key's cell record,
        ``None`` for a miss: the bytes :meth:`get_many` decodes.

        Quarantines and counts like :meth:`get_many` but decodes
        nothing, so a checksum-valid body that does not decode is a hit
        here (the campaign service streams it as stored and its client
        names the cell).  Thread-safe.
        """
        return self._batch(CELLS, keys)

    def get_many(self, keys: Sequence[str]) -> list[Measurement | None]:
        """The stored measurement of each key, ``None`` for a miss.

        Unreadable, corrupt (checksum-mismatched) or format-mismatched
        entries are quarantined: counted in :meth:`fault_stats`, logged,
        and served as misses so the executor re-measures and overwrites
        them.  Thread-safe: readers serialize on the store lock, one
        shard group at a time (they share per-shard file handles).
        """
        decode = functools.partial(Measurement.from_dict, configs={})
        return self._batch(CELLS, keys, decode)

    def get_kernels(self, keys: Sequence[str]) -> list[Kernel | None]:
        """The kernel stored under each recipe key, ``None`` for a miss.

        Quarantines like :meth:`get_many` -- an I/O error, checksum
        failure, bad shape or wrong key is a counted fault and a miss,
        so the caller synthesizes the kernel and writes it again -- and
        moves ``kernel_hits``/``kernel_misses``, never the cell
        counters.  A record in a retired format is a plain miss, no
        fault.  A hit is checked and digested at load; its slots are
        built on first read (:meth:`Kernel.from_slot_table`).
        """
        return self._batch(KERNELS, keys, kernel_from_body)

    def get_body(self, key: str) -> bytes | None:
        """:meth:`get_bodies` of one key."""
        return self.get_bodies([key])[0]

    def get(self, key: str) -> Measurement | None:
        """:meth:`get_many` of one key."""
        return self.get_many([key])[0]

    def get_kernel(self, key: str) -> Kernel | None:
        """:meth:`get_kernels` of one key."""
        return self.get_kernels([key])[0]

    def put(self, key: str, measurement: Measurement) -> None:
        """Persist one measurement under ``key``."""
        self.put_many([(key, measurement)])

    def put_many(
        self, entries: Sequence[tuple[str, Measurement]]
    ) -> None:
        """Persist a whole batch: one locked append per touched shard.

        The batch groups by shard, each shard's lines are rendered
        (checksummed) and written with a single ``write`` under an
        exclusive ``flock``, and the in-memory index is updated from
        the append position -- O(batch) work and O(shards-touched)
        syscall round trips, no matter how large the store already is.
        Raises ``OSError`` on I/O failure; the executors retry with
        bounded backoff (results are never lost to a failed append --
        at worst the cells re-measure next run).
        """
        with self._lock:
            for shard, batch in self._by_shard(CELLS, entries):
                self._append(shard, batch, Measurement.to_dict, _tampered_cell)

    def put_kernels(self, entries: Sequence[tuple[str, Kernel]]) -> None:
        """Persist synthesized kernels: one locked append per shard.

        Best effort, never raising: a shard whose append fails is
        counted as an I/O error, and its kernels simply synthesize
        again on the next run.  A kernel without a record body (a
        mnemonic that is not identifier-like) is not written: it could
        only read back as a miss.
        """
        bodies = [(key, kernel_body(kernel)) for key, kernel in entries]
        bodies = [(key, body) for key, body in bodies if body is not None]
        with self._lock:
            for shard, batch in self._by_shard(KERNELS, bodies):
                try:
                    shard.path.parent.mkdir(exist_ok=True)
                    self._append(shard, batch, dict, _tampered_kernel)
                except OSError as exc:
                    self._count_io_error(shard.path, exc)

    def _by_shard(self, kind: RecordKind, entries) -> list:
        """``(shard, [(key, value), ...])`` for each shard touched."""
        by_shard: dict[str, list] = {}
        for key, value in entries:
            by_shard.setdefault(key[:2], []).append((key, value))
        return [
            (self._shard(name, kind), batch)
            for name, batch in by_shard.items()
        ]

    def _append(
        self,
        shard: _Shard,
        batch: Sequence[tuple[str, object]],
        encode: Callable,
        tamper: Callable,
    ) -> None:
        """Render one shard's batch and append it under the shard flock.

        One open (``a+b``) serves the write and the torn-tail check: the
        last byte is read with ``pread`` on the same descriptor, so the
        check reads the very inode being appended to.
        """
        kind = shard.kind
        site = shard.path.stem
        if kind is not CELLS:
            site = f"{kind.directory}/{site}"
        fault_plan = faults.active()
        if fault_plan is not None:
            fault_plan.maybe_io_error(f"put:{site}")
        lines = []
        for key, value in batch:
            body = encode(value)
            if fault_plan is not None and fault_plan.fire(
                "corrupt", f"put:{key}"
            ):
                # Tamper *after* the checksum is computed: the written
                # record lies, and only the read-side verification can
                # catch it.
                digest = record_checksum(key, body, kind)
                text = json.dumps(tamper(body), sort_keys=True)
                lines.append(_line(kind, key, text, digest))
            else:
                lines.append(render_record(key, body, kind))
        payload = b"".join(lines)
        with shard.path.open("a+b") as handle:
            descriptor = handle.fileno()
            if fcntl is not None:
                fcntl.flock(descriptor, fcntl.LOCK_EX)
            try:
                # Repair a crashed writer's torn tail so our first
                # line starts on a fresh line boundary.
                end = handle.seek(0, os.SEEK_END)
                if end > 0 and os.pread(descriptor, 1, end - 1) != b"\n":
                    handle.write(b"\n")
                    end += 1
                    self.torn_tails_repaired += 1
                    logger.warning(
                        "repaired torn tail in store shard %s "
                        "(a previous writer crashed mid-append)",
                        shard.path,
                    )
                if fault_plan is not None and fault_plan.fire(
                    "torn", f"put:{site}"
                ):  # pragma: no cover - kills the process
                    # Simulate `kill -9` mid-write: half the payload
                    # lands, then the process is gone.
                    handle.write(payload[: max(1, len(payload) // 2)])
                    handle.flush()
                    logging.shutdown()
                    os._exit(109)
                handle.write(payload)
                handle.flush()
            finally:
                if fcntl is not None:
                    fcntl.flock(descriptor, fcntl.LOCK_UN)
        offset = end
        for (key, _), line in zip(batch, lines):
            shard.offsets[key] = (offset, len(line))
            offset += len(line)
        if shard.scanned == end:
            shard.scanned = offset

    # -- integrity audit / repair ----------------------------------------------

    def _shard_paths(self) -> list[tuple[RecordKind, Path]]:
        return [
            (kind, path)
            for kind in (CELLS, KERNELS)
            for path in sorted((self.root / kind.directory).glob("??.jsonl"))
        ]

    def verify(self) -> StoreReport:
        """Audit every shard of both record types, modifying nothing.

        Counts parseable records, checksummed lines, corrupt lines,
        checksum mismatches (a missing checksum included) and torn
        (unterminated) tails; the report's :attr:`~StoreReport.ok` is
        the clean-store verdict.
        """
        report = StoreReport()
        keys: dict[RecordKind, set[str]] = {CELLS: set(), KERNELS: set()}
        for kind, path in self._shard_paths():
            report.shards += 1
            name = f"{kind.directory}/{path.name}"
            try:
                data = path.read_bytes()
            except OSError as exc:
                self._count_io_error(path, exc)
                report.problems.append(f"{name}: unreadable ({exc})")
                continue
            lines = data.split(b"\n")
            torn = lines.pop() if lines and lines[-1] else None
            for number, raw in enumerate(lines):
                if not raw:
                    continue
                status, key, _payload = _classify_line(raw, kind)
                if status == "corrupt":
                    report.corrupt_lines += 1
                    report.problems.append(
                        f"{name}:{number + 1}: unparseable record"
                    )
                    continue
                keys[kind].add(key)
                if kind is CELLS:
                    report.records += 1
                else:
                    report.kernel_records += 1
                if status == "mismatch":
                    report.checksum_mismatches += 1
                    report.problems.append(
                        f"{name}:{number + 1}: checksum mismatch on {key}"
                    )
                elif kind is CELLS:
                    report.checksummed += 1
            if torn is not None:
                report.torn_tails += 1
                report.problems.append(
                    f"{name}: torn tail ({len(torn)} bytes, no "
                    "trailing newline)"
                )
        report.keys = len(keys[CELLS])
        report.kernel_keys = len(keys[KERNELS])
        return report

    def scrub(self) -> StoreReport:
        """Repair and compact every shard of both record types in place.

        Each shard is rewritten -- under its exclusive ``flock``, via an
        atomic replace -- keeping only the newest *valid* record per
        key: corrupt lines, checksum mismatches (sum-less lines
        included) and torn tails are dropped (their cells simply
        re-measure, their kernels re-synthesize, next run), and
        superseded duplicates are compacted away.  Concurrent *readers*
        stay safe throughout (their stale offsets fail the key check
        and re-scan); do not scrub under concurrent writers.
        """
        report = StoreReport()
        keys: dict[RecordKind, set[str]] = {CELLS: set(), KERNELS: set()}
        for kind, path in self._shard_paths():
            report.shards += 1
            try:
                with path.open("r+b") as handle:
                    if fcntl is not None:
                        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                    try:
                        data = handle.read()
                        lines = data.split(b"\n")
                        torn = lines.pop() if lines and lines[-1] else None
                        newest: dict[str, bytes] = {}
                        for raw in lines:
                            if not raw:
                                continue
                            status, key, payload = _classify_line(raw, kind)
                            if status in ("corrupt", "mismatch"):
                                report.dropped += 1
                                if status == "mismatch":
                                    report.checksum_mismatches += 1
                                else:
                                    report.corrupt_lines += 1
                                continue
                            if kind is CELLS:
                                report.records += 1
                            else:
                                report.kernel_records += 1
                            if status == "retired":
                                # Superseded by the current format: it
                                # never serves, so it is compacted away.
                                report.compacted += 1
                                continue
                            if key in newest:
                                report.compacted += 1
                            # A verified line re-renders to the bytes
                            # this store writes.
                            newest[key] = render_record(
                                key, payload[kind.field], kind
                            )
                        if torn is not None:
                            report.torn_tails += 1
                            report.dropped += 1
                        replacement = b"".join(newest.values())
                        temp = path.with_name(path.name + ".scrub")
                        temp.write_bytes(replacement)
                        os.replace(temp, path)
                        keys[kind].update(newest)
                        if kind is CELLS:
                            report.checksummed += len(newest)
                    finally:
                        if fcntl is not None:
                            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            except OSError as exc:
                self._count_io_error(path, exc)
                report.problems.append(
                    f"{kind.directory}/{path.name}: unreadable ({exc})"
                )
                continue
            # The rewritten shard invalidates this process's offsets
            # and cached read handle; the next lookup rescans.
            with self._lock:
                shards = self._shards if kind is CELLS else self._kernel_shards
                stale = shards.pop(path.stem, None)
                if stale is not None:
                    stale.invalidate()
        report.keys = len(keys[CELLS])
        report.kernel_keys = len(keys[KERNELS])
        return report

    # -- enumeration -----------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        with self._lock:
            shard = self._shard(key)
            if key not in shard.offsets:
                self._refresh(shard)
            return key in shard.offsets

    def _all_keys(self) -> set[str]:
        with self._lock:
            for path in self.shard_dir.glob("??.jsonl"):
                shard = self._shard(path.stem + "00")
                self._refresh(shard)
            return {
                key
                for shard in self._shards.values()
                for key in shard.offsets
            }

    def __len__(self) -> int:
        return len(self._all_keys())

    def keys(self) -> list[str]:
        """All stored cell keys."""
        return sorted(self._all_keys())

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r})"
