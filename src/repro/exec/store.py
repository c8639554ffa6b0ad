"""Persistent measurement results, keyed by content-addressed cell keys.

A :class:`ResultStore` is a directory of *shard* files --
``shards/<xx>.jsonl``, fanned out on the first key byte -- each an
append-only sequence of JSON lines, one per persisted measurement
cell.  Because keys are derived from the architecture, machine seed,
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

Reads are served from a lazy per-shard offset index: the first lookup
touching a shard scans it once, later lookups seek straight to the
line (verifying the key, so an externally rewritten shard is a miss,
never a wrong entry).  A miss re-checks whether another process has
grown the shard since it was scanned, so concurrent campaigns sharing
one store see each other's results.  That scan is the only index:
none is persisted, so a read never writes, and index files older
releases kept beside the shards are ignored.  Shard files are the only
layout: per-cell ``<xx>/<key>.json`` files of the pre-shard layout are
ignored, so such a store simply re-measures.

Shard locking uses POSIX ``flock``; on platforms without ``fcntl``
(Windows) appends are lock-free and a store directory should have a
single writer at a time (readers are always safe).  :meth:`scrub`
replaces shard files and must not race concurrent *writers* (readers
are safe): run it between campaigns.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

try:  # POSIX shard locking; on platforms without fcntl the store
    import fcntl  # degrades to lock-free appends (single-writer safe).
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.exec import faults
from repro.hashing import content_hex
from repro.measure.measurement import Measurement

logger = logging.getLogger("repro.exec.store")

#: Store layout version; bump when the payload format changes.
FORMAT = "repro-result-v1"


def record_checksum(key: str, measurement_dict: dict) -> str:
    """Content checksum of one record: key + canonical measurement JSON.

    JSON round-trips floats at shortest-repr precision, so re-dumping a
    parsed record reproduces the canonical text -- and therefore the
    checksum -- exactly; any torn or bit-flipped payload that still
    parses as JSON changes it.
    """
    return content_hex(
        "sum-v1|" + key + "|" + json.dumps(measurement_dict, sort_keys=True),
        size=8,
    )


def render_record(key: str, measurement_dict: dict) -> bytes:
    """One checksummed store line (newline-terminated).

    ``measurement_dict`` is :meth:`Measurement.to_dict`'s compact body:
    each distinct per-thread counter set once under ``counters``, plus
    one set index per hardware thread under ``threads``.  A measurement
    whose threads all ran one benchmark copy renders in about 0.8 KB
    instead of the 3.9 KB of one counter set per thread.  Records
    written before the compact body carry ``thread_counters`` instead;
    they verify and decode as before, and :meth:`ResultStore.scrub`
    re-renders them byte for byte.

    The measurement is serialized exactly once and the record assembled
    around that canonical text -- byte-identical to dumping the whole
    record with ``sort_keys=True``, but half the serialization work,
    and it guarantees the canonical measurement bytes appear verbatim
    in the line so readers can verify the checksum with a slice and a
    hash instead of a re-serialization (see :func:`_checksum_matches`).
    """
    body = json.dumps(measurement_dict, sort_keys=True)
    digest = content_hex("sum-v1|" + key + "|" + body, size=8)
    return (
        '{"format": "%s", "key": %s, "measurement": %s, "sum": "%s"}\n'
        % (FORMAT, json.dumps(key), body, digest)
    ).encode()


_MEASUREMENT_FIELD = b'"measurement": '
_SUM_FIELD = b', "sum": "'
_KEY_PREFIX = b'{"format": "' + FORMAT.encode() + b'", "key": "'


def _checksum_matches(
    key: str, recorded: str | None, raw: bytes, measurement_dict: dict
) -> bool:
    """Whether a record's checksum verifies, preferring the raw bytes.

    A record without one (``recorded`` is ``None``) never verifies.

    Lines written by :func:`render_record` carry the canonical
    measurement text verbatim between the ``measurement`` field and the
    trailing ``sum`` field, so the common case is a slice and a hash.
    ``rfind`` is safe: nothing after the *real* sum separator but the
    checksum hex and the closing brace.  Foreign formatting (re-written
    or hand-edited lines) falls back to the canonical recompute.
    """
    start = raw.find(_MEASUREMENT_FIELD)
    end = raw.rfind(_SUM_FIELD)
    if start != -1 and end > start:
        body = raw[start + len(_MEASUREMENT_FIELD) : end]
        if (
            content_hex("sum-v1|" + key + "|" + body.decode(), size=8)
            == recorded
        ):
            return True
    return recorded == record_checksum(key, measurement_dict)


class _Shard:
    """Offset index of one shard file."""

    __slots__ = ("path", "offsets", "scanned", "handle")

    def __init__(self, path: Path) -> None:
        self.path = path
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

    ``records`` counts parsed lines (superseded duplicates included);
    ``keys`` distinct newest keys.  A store is :attr:`ok` when nothing
    is corrupt, mismatched or torn.
    """

    shards: int = 0
    records: int = 0
    keys: int = 0
    checksummed: int = 0
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


def _classify_line(line: bytes) -> tuple[str, str | None, dict | None]:
    """(status, key, payload) of one shard line.

    Status is ``ok`` (checksummed and verified), ``mismatch`` (checksum
    missing or wrong) or ``corrupt`` (unparseable / wrong shape).
    """
    try:
        payload = json.loads(line)
        key = str(payload["key"])
        measurement = payload["measurement"]
        if payload.get("format") != FORMAT or not isinstance(
            measurement, dict
        ):
            return ("corrupt", None, None)
    except (ValueError, KeyError, TypeError):
        return ("corrupt", None, None)
    if not _checksum_matches(key, payload.get("sum"), line, measurement):
        return ("mismatch", key, payload)
    return ("ok", key, payload)


class ResultStore:
    """On-disk measurement store: sharded, append-style JSON lines."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.shard_dir = self.root / "shards"
        self.shard_dir.mkdir(parents=True, exist_ok=True)
        #: Cells served from disk / missed since construction.
        self.hits = 0
        self.misses = 0
        #: Fault visibility: swallowed I/O errors, quarantined corrupt
        #: records, repaired torn tails (see :meth:`fault_stats`).
        self.io_errors = 0
        self.checksum_failures = 0
        self.corrupt_records = 0
        self.torn_tails_repaired = 0
        self._io_warned: set[str] = set()
        self._shards: dict[str, _Shard] = {}
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
        healed.
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
            for shard in self._shards.values():
                if shard.handle is not None:
                    shard.handle.close()
                    shard.handle = None

    # -- shard plumbing --------------------------------------------------------

    def _shard(self, key: str) -> _Shard:
        name = key[:2]
        shard = self._shards.get(name)
        if shard is None:
            shard = self._shards[name] = _Shard(
                self.shard_dir / f"{name}.jsonl"
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
        # on ``get``.  Lines this store wrote (both generations render
        # with ``sort_keys``) open with a fixed prefix, so the key is a
        # slice -- no JSON parse per line while scanning a shard.
        # Foreign formatting falls back to a full parse; unparseable
        # lines are skipped (a miss at worst).
        if line.startswith(_KEY_PREFIX):
            end = line.find(b'"', len(_KEY_PREFIX))
            if end != -1:
                try:
                    key = line[len(_KEY_PREFIX) : end].decode()
                except UnicodeDecodeError:
                    pass  # a flipped key byte: the parse below skips it
                else:
                    shard.offsets[key] = (offset, length)
                    return
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

    def _read_at(self, shard: _Shard, offset: int, length: int) -> bytes:
        handle = shard.reader()
        handle.seek(offset)
        return handle.read(length)

    # -- public API -------------------------------------------------------------

    def get(self, key: str) -> Measurement | None:
        """The stored measurement for ``key``, or ``None`` on a miss.

        Unreadable, corrupt (checksum-mismatched) or format-mismatched
        entries are quarantined: counted in :meth:`fault_stats`, logged,
        and served as misses so the executor re-measures and overwrites
        them.  Thread-safe: concurrent readers serialize on the store
        lock (they share per-shard file handles).
        """
        with self._lock:
            return self._get(key)

    def _get(self, key: str) -> Measurement | None:
        shard = self._shard(key)
        location = shard.offsets.get(key)
        if location is None:
            # Another process may have appended since the last scan.
            self._refresh(shard)
            location = shard.offsets.get(key)
        if location is None:
            self.misses += 1
            return None
        try:
            fault_plan = faults.active()
            if fault_plan is not None:
                fault_plan.maybe_io_error(f"get:{key}")
            raw = self._read_at(shard, *location)
        except OSError as exc:
            self._count_io_error(shard.path, exc)
            self.misses += 1
            return None
        try:
            # Parsing is inside the quarantine block: the key-slice
            # index never parsed this line, so it may be a crashed
            # writer's torn remnant.
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                raise ValueError("store record is not a JSON object")
            if payload.get("format") != FORMAT:
                raise ValueError(
                    f"unknown store format {payload.get('format')!r}"
                )
            if payload.get("key") != key:
                # The shard was rewritten out from under a long-lived
                # index (external compaction/cleanup): never serve
                # whatever entry now occupies the stale offset.
                raise ValueError(
                    f"stale shard index: found {payload.get('key')!r}"
                )
            if not _checksum_matches(
                key, payload.get("sum"), raw, payload["measurement"]
            ):
                self.checksum_failures += 1
                logger.warning(
                    "quarantining corrupt store record %s[%s]: "
                    "checksum missing or mismatched (re-measuring; run "
                    "`python -m repro store scrub` to repair the shard)",
                    shard.path,
                    key,
                )
                self.misses += 1
                return None
            measurement = Measurement.from_dict(payload["measurement"])
        except (ValueError, KeyError, TypeError) as exc:
            self.corrupt_records += 1
            logger.warning(
                "discarding unreadable store entry %s[%s]: %s",
                shard.path,
                key,
                exc,
            )
            self.misses += 1
            return None
        self.hits += 1
        return measurement

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
            self._put_many(entries)

    def _put_many(
        self, entries: Sequence[tuple[str, Measurement]]
    ) -> None:
        fault_plan = faults.active()
        by_shard: dict[str, list[tuple[str, Measurement]]] = {}
        for key, measurement in entries:
            by_shard.setdefault(key[:2], []).append((key, measurement))
        for name, batch in by_shard.items():
            shard = self._shard(batch[0][0])
            if fault_plan is not None:
                fault_plan.maybe_io_error(f"put:{name}")
            lines = []
            rendered = []
            for key, measurement in batch:
                payload_dict = measurement.to_dict()
                if fault_plan is not None and fault_plan.fire(
                    "corrupt", f"put:{key}"
                ):
                    # Tamper *after* the checksum is computed: the
                    # written record lies, and only the read-side
                    # verification can catch it.
                    digest = record_checksum(key, payload_dict)
                    payload_dict = dict(
                        payload_dict, mean_power=payload_dict["mean_power"] + 1.0
                    )
                    line = (
                        json.dumps(
                            {
                                "format": FORMAT,
                                "key": key,
                                "measurement": payload_dict,
                                "sum": digest,
                            },
                            sort_keys=True,
                        ).encode()
                        + b"\n"
                    )
                else:
                    line = render_record(key, payload_dict)
                lines.append(line)
                rendered.append((key, len(line)))
            payload = b"".join(lines)
            with shard.path.open("ab") as handle:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                try:
                    # Repair a crashed writer's torn tail so our first
                    # line starts on a fresh line boundary.
                    end = handle.seek(0, os.SEEK_END)
                    if end > 0:
                        with shard.path.open("rb") as reader:
                            reader.seek(end - 1)
                            if reader.read(1) != b"\n":
                                handle.write(b"\n")
                                end += 1
                                self.torn_tails_repaired += 1
                                logger.warning(
                                    "repaired torn tail in store shard %s "
                                    "(a previous writer crashed mid-append)",
                                    shard.path,
                                )
                    if fault_plan is not None and fault_plan.fire(
                        "torn", f"put:{name}"
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
                        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            offset = end
            for key, length in rendered:
                shard.offsets[key] = (offset, length)
                offset += length
            if shard.scanned == end:
                shard.scanned = offset

    # -- integrity audit / repair ----------------------------------------------

    def _shard_paths(self) -> list[Path]:
        return sorted(self.shard_dir.glob("??.jsonl"))

    def verify(self) -> StoreReport:
        """Audit every shard without modifying anything.

        Counts parseable records, checksummed lines, corrupt lines,
        checksum mismatches (a missing checksum included) and torn
        (unterminated) tails; the report's :attr:`~StoreReport.ok` is
        the clean-store verdict.
        """
        report = StoreReport()
        keys: set[str] = set()
        for path in self._shard_paths():
            report.shards += 1
            try:
                data = path.read_bytes()
            except OSError as exc:
                self._count_io_error(path, exc)
                report.problems.append(f"{path.name}: unreadable ({exc})")
                continue
            lines = data.split(b"\n")
            torn = lines.pop() if lines and lines[-1] else None
            for number, raw in enumerate(lines):
                if not raw:
                    continue
                status, key, _payload = _classify_line(raw)
                if status == "corrupt":
                    report.corrupt_lines += 1
                    report.problems.append(
                        f"{path.name}:{number + 1}: unparseable record"
                    )
                    continue
                report.records += 1
                keys.add(key)
                if status == "mismatch":
                    report.checksum_mismatches += 1
                    report.problems.append(
                        f"{path.name}:{number + 1}: checksum mismatch "
                        f"on {key}"
                    )
                else:
                    report.checksummed += 1
            if torn is not None:
                report.torn_tails += 1
                report.problems.append(
                    f"{path.name}: torn tail ({len(torn)} bytes, no "
                    "trailing newline)"
                )
        report.keys = len(keys)
        return report

    def scrub(self) -> StoreReport:
        """Repair and compact every shard in place.

        Each shard is rewritten -- under its exclusive ``flock``, via an
        atomic replace -- keeping only the newest *valid* record per
        key: corrupt lines, checksum mismatches (sum-less lines
        included) and torn tails are dropped (their cells simply
        re-measure next run), and superseded duplicates are compacted
        away.  Concurrent *readers* stay
        safe throughout (their stale offsets fail the key check and
        re-scan); do not scrub under concurrent writers.
        """
        report = StoreReport()
        keys: set[str] = set()
        for path in self._shard_paths():
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
                            status, key, payload = _classify_line(raw)
                            if status in ("corrupt", "mismatch"):
                                report.dropped += 1
                                if status == "mismatch":
                                    report.checksum_mismatches += 1
                                else:
                                    report.corrupt_lines += 1
                                continue
                            report.records += 1
                            if key in newest:
                                report.compacted += 1
                            # A verified line re-renders to the bytes
                            # this store writes.
                            newest[key] = render_record(
                                key, payload["measurement"]
                            )
                        if torn is not None:
                            report.torn_tails += 1
                            report.dropped += 1
                        replacement = b"".join(newest.values())
                        temp = path.with_name(path.name + ".scrub")
                        temp.write_bytes(replacement)
                        os.replace(temp, path)
                        keys.update(newest)
                        report.checksummed += len(newest)
                    finally:
                        if fcntl is not None:
                            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            except OSError as exc:
                self._count_io_error(path, exc)
                report.problems.append(f"{path.name}: unreadable ({exc})")
                continue
            # The rewritten shard invalidates this process's offsets
            # and cached read handle; the next lookup rescans.
            with self._lock:
                stale = self._shards.pop(path.stem, None)
                if stale is not None:
                    stale.invalidate()
        report.keys = len(keys)
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
