"""The run ledger: every store-backed run, durably, in one file.

Every execution against a :class:`~repro.exec.store.ResultStore` -- a
CLI campaign, a library ``SerialExecutor`` run, a request served by
the campaign service -- is one run in ``<store>/registry.jsonl``.  A
run appends two records through its
:class:`~repro.exec.journal.RunJournal`: ``running`` when it starts,
and one final record (state, accounting, fault counters, quarantined
cells) when it ends.  Per run, the *last* record wins on replay, its
fields merged over the earlier ones::

    {"registry": "repro-registry-v1", "run": ..., "state": "running",
     "cells": N, "plan": ..., "plan_digest": ..., "sum": ...}
    {"registry": "repro-registry-v1", "run": ..., "state": "complete",
     "measured": N, "warm": N, "sum": ...}

Each record carries a checksum of its canonical JSON, like a store
record.  Replay skips and counts every line that is not an intact
record -- a torn tail from a ``kill -9`` mid-append, a flipped byte,
valid JSON that is not an object, a ``run`` or ``state`` of the wrong
type -- so a damaged ledger never stops a server from starting nor
invents a run.  The ledger is accounting, never a second store:
appends log and continue on ``OSError``.

A run still ``running`` when a server *starts* was interrupted by the
previous process's death, so :meth:`RunRegistry.recover` records it
``interrupted``; resubmitting its plan resumes from the store.
:meth:`RunRegistry.compact` rewrites the file to one line per run
(``python -m repro store scrub``).
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.hashing import content_hex

logger = logging.getLogger("repro.exec.registry")

FORMAT = "repro-registry-v1"

STATES = ("running", "complete", "interrupted", "quarantined")
#: States of a run that has not recorded its end.
UNFINISHED = ("running", "interrupted")


def plan_digest(cell_keys) -> str:
    """Content digest of a plan as submitted: its store keys, in order.

    Distinct from the run id only in salt -- recorded separately so a
    ledger consumer can group resubmissions of the same plan without
    re-deriving key lists.
    """
    return content_hex("plan-v1|" + "|".join(cell_keys), size=12)


def _checksum(entry: dict) -> str:
    return content_hex(
        "ledger-v1|" + json.dumps(entry, sort_keys=True), size=8
    )


def render_entry(record: dict) -> bytes:
    """One checksummed ledger line (newline-terminated)."""
    entry = {"registry": FORMAT, **record}
    entry["sum"] = _checksum(entry)
    return json.dumps(entry, sort_keys=True).encode() + b"\n"


def _parse_entry(line: bytes) -> dict | None:
    """The record one ledger line spells, or ``None`` if it is not one."""
    try:
        entry = json.loads(line)
    except ValueError:
        return None
    if not isinstance(entry, dict):
        return None
    recorded = entry.pop("sum", None)
    if recorded != _checksum(entry):
        return None
    entry.pop("registry", None)
    run, state = entry.get("run"), entry.get("state")
    if not isinstance(run, str) or not run or state not in STATES:
        return None
    # The last name occurs in records written by older servers.
    if any(
        type(entry.get(name, 0)) is not int
        for name in ("cells", "measured", "warm", "deduped")
    ):
        return None
    failures = entry.get("quarantined", [])
    if isinstance(failures, list) and all(type(f) is dict for f in failures):
        return entry
    return None


def append_line(path: Path, line: bytes) -> None:
    """Append one line to ``path`` under an exclusive ``flock``.

    The parent directory is created on demand, the line is written
    with a single ``write`` call and flushed, and the lock is always
    released.  Raises ``OSError`` on failure.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("ab") as handle:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            handle.write(line)
            handle.flush()
        finally:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


class RunRegistry:
    """Durable, replayable record of every run against one store."""

    def __init__(self, store_root: str | os.PathLike) -> None:
        self.root = Path(store_root)
        self.path = self.root / "registry.jsonl"
        self._lock = threading.Lock()
        #: run id -> merged record (last state wins), insertion-ordered
        #: by first sighting, so listings read oldest-first.
        self._runs: dict[str, dict] = {}
        #: Lines replay skipped: torn, damaged or not a run record.
        self.skipped = 0
        self._replay()

    # -- reading ---------------------------------------------------------------

    def _replay(self) -> None:
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return
        except OSError as exc:
            logger.warning("cannot read run ledger %s: %s", self.path, exc)
            return
        for line in data.split(b"\n"):
            if not line:
                continue
            entry = _parse_entry(line)
            if entry is None:
                self.skipped += 1
                continue
            merged = self._runs.get(entry["run"])
            if merged is None:
                self._runs[entry["run"]] = entry
            else:
                merged.update(entry)
        if self.skipped:
            # Later appends land on their own line (whole-line writes),
            # so a torn tail loses only its own remnant.
            logger.warning(
                "run ledger %s: skipped %d line(s) that are not intact "
                "run records",
                self.path,
                self.skipped,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._runs)

    def __contains__(self, run: str) -> bool:
        with self._lock:
            return run in self._runs

    def get(self, run: str) -> dict | None:
        """The merged record of one run, or ``None``."""
        with self._lock:
            found = self._runs.get(run)
            return dict(found) if found is not None else None

    def runs(self) -> list[dict]:
        """Every run's merged record, oldest first."""
        with self._lock:
            return [dict(record) for record in self._runs.values()]

    def summary(self) -> dict[str, int]:
        """Run counts per state, for ``GET /stats`` and ``store verify``."""
        totals = {"runs": 0, **{state: 0 for state in STATES}}
        with self._lock:
            for record in self._runs.values():
                totals["runs"] += 1
                totals[record["state"]] += 1
        return totals

    def journal_summary(self) -> dict[str, int]:
        """Runs that recorded their end (``complete``) and runs that did
        not (``interrupted``): the ``journals`` view of the ledger."""
        totals = self.summary()
        unfinished = sum(totals[state] for state in UNFINISHED)
        return {
            "runs": totals["runs"],
            "complete": totals["runs"] - unfinished,
            "interrupted": unfinished,
        }

    # -- writing ---------------------------------------------------------------

    def record(self, run: str, state: str, **fields) -> None:
        """Append one record (and merge it in memory).

        ``fields`` ride along on the record -- plan description and
        digest when a run starts, accounting when it ends.  Never
        raises: the ledger is accounting, the store has the results.
        """
        entry: dict = {"run": run, "state": state, **fields}
        with self._lock:
            merged = self._runs.get(run)
            if merged is None:
                entry.setdefault("first_seen", time.time())
                self._runs[run] = dict(entry)
            else:
                merged.update(entry)
            entry["updated"] = self._runs[run]["updated"] = time.time()
        try:
            append_line(self.path, render_entry(entry))
        except OSError as exc:
            logger.warning("cannot append to run ledger %s: %s", self.path, exc)

    def recover(self) -> int:
        """Record every run still ``running`` as ``interrupted``; how many.

        Called on server start, before any request: a fresh server runs
        nothing, so every such run died with the previous process.
        """
        with self._lock:
            stale = [
                run
                for run, record in self._runs.items()
                if record["state"] == "running"
            ]
        for run in stale:
            self.record(run, "interrupted", recovered=True)
            logger.warning(
                "run %s was in flight when the previous server died; "
                "the ledger now records it interrupted",
                run,
            )
        return len(stale)

    def compact(self) -> int:
        """Rewrite the file to one line per run; lines dropped, or -1.

        Writes a sibling then ``os.replace``, dropping the lines replay
        skipped: run it from ``store scrub``, between campaigns.
        """
        with self._lock:
            records = [dict(record) for record in self._runs.values()]
        try:
            raw = self.path.read_bytes() if self.path.exists() else b""
            before = sum(1 for line in raw.split(b"\n") if line)
            fresh = self.path.with_suffix(".jsonl.compact")
            with fresh.open("wb") as handle:
                handle.write(b"".join(render_entry(r) for r in records))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(fresh, self.path)
        except OSError as exc:
            logger.warning("cannot compact run ledger %s: %s", self.path, exc)
            return -1
        return before - len(records)
