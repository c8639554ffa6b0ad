"""Per-run handles on the run ledger, and the manifest sweep.

A store-backed execution records itself in the store's run ledger
(:class:`~repro.exec.registry.RunRegistry`) through one
:class:`RunJournal`, with the same writes however many shards it
appends to: :meth:`~RunJournal.start` writes the run's key manifest once
(``<store>/journal/<run_id>.json``, the plan's store keys in order)
and a ``running`` record; :meth:`~RunJournal.complete` writes one
final record and drops the manifest if the run completed cleanly.  A
run that owes no cells when it starts (the store holds every one)
writes no manifest at all.

"Done" means present in the store.  A run killed mid-flight leaves its
``running`` record and its manifest: ``store verify`` counts it
interrupted, ``GET /runs/<id>`` lists which of its cells the store
holds, and re-running the plan resumes from the store.  ``store
scrub`` sweeps the manifests of runs that recorded their end
(:func:`gc_journals`).

The run id is content-addressed from the plan's store keys, so the
same campaign always records under the same id, and a re-run of an
interrupted campaign is recorded as its resumption.
"""

from __future__ import annotations

import json
import logging
import os
from collections.abc import Sequence
from pathlib import Path

from repro.exec.registry import RunRegistry, UNFINISHED, plan_digest
from repro.hashing import content_hex

logger = logging.getLogger("repro.exec.journal")

FORMAT = "repro-run-v2"


def run_id(cell_keys: Sequence[str]) -> str:
    """Content-addressed identity of one plan execution.

    Derived from the plan's store keys in plan order; the keys already
    fold everything a measurement depends on, so identical campaigns
    share a run id across processes and machine reboots.
    """
    return content_hex("run-v1|" + "|".join(cell_keys), size=12)


def manifest_path(store_root: str | os.PathLike, run: str) -> Path:
    """Where a run's key manifest lives."""
    return Path(store_root) / "journal" / f"{run}.json"


def read_manifest(store_root: str | os.PathLike, run: str) -> list[str] | None:
    """The store keys of ``run``, or ``None`` without an intact manifest."""
    try:
        entry = json.loads(manifest_path(store_root, run).read_bytes())
    except (OSError, ValueError):
        return None
    if not isinstance(entry, dict) or entry.get("manifest") != FORMAT:
        return None
    keys = entry.get("keys") if entry.get("run") == run else None
    if not isinstance(keys, list) or not all(
        isinstance(key, str) for key in keys
    ):
        return None
    return keys


class RunJournal:
    """One run's handle on the ledger: manifest once, start, end.

    Between :meth:`start` and :meth:`complete` the journal accumulates
    the fault counters and quarantined cells of every execution that is
    part of the run (:meth:`absorb`), so its final record carries them.
    """

    def __init__(self, ledger: RunRegistry, run: str) -> None:
        self.ledger = ledger
        self.run = run
        self.path = manifest_path(ledger.root, run)
        previous = ledger.get(run)
        #: Whether this run resumes one that never recorded its end.
        self.resumed = (
            previous is not None and previous["state"] in UNFINISHED
        )
        self.counters: dict[str, int] = {}
        self.failures: list = []

    def start(
        self,
        keys: Sequence[str],
        description: str,
        owes: bool = True,
        **fields,
    ) -> None:
        """Write the key manifest, then record the run ``running``.

        A run that ``owes`` no cells -- the store already holds every
        one -- writes no manifest: there is nothing a re-run would
        resume.  ``fields`` (architecture, seed) ride along on the
        record.  The manifest lands atomically (a sibling, then
        ``os.replace``) and is never load-bearing for results: a failed
        write is logged.
        """
        if owes:
            body = {"manifest": FORMAT, "run": self.run, "keys": list(keys)}
            staging = self.path.with_name(f"{self.run}.{os.getpid()}.tmp")
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                staging.write_bytes(json.dumps(body).encode() + b"\n")
                os.replace(staging, self.path)
            except OSError as exc:
                logger.warning(
                    "cannot write run manifest %s: %s", self.path, exc
                )
        self.ledger.record(
            self.run,
            "running",
            cells=len(keys),
            plan=description,
            plan_digest=plan_digest(keys),
            resumed=self.resumed,
            **fields,
        )
        if self.resumed:
            logger.info(
                "resuming interrupted run %s (%d cells)", self.run, len(keys)
            )

    def absorb(self, report) -> None:
        """Fold one execution's fault counters and quarantines in."""
        for name, value in report.fault_counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.failures.extend(report.failures)

    def interrupt(self, exc: BaseException) -> None:
        """Record the run ``interrupted`` by ``exc``; its manifest stays,
        naming the cells a re-run still owes."""
        self.ledger.record(
            self.run, "interrupted", error=f"{type(exc).__name__}: {exc}"
        )

    def complete(self, measured: int, *, warm: int = 0) -> bool:
        """Record the run's end; whether its manifest was dropped.

        The final record's state is ``quarantined`` when any cell
        failed, else ``complete``; it counts the ``measured`` cells and
        the ``warm`` ones the store served.  A clean run drops its
        manifest -- everything it named is in the store -- or the one
        an earlier attempt left if it wrote none.
        """
        fields: dict = {}
        if self.counters:
            fields["counters"] = dict(self.counters)
        if self.failures:
            fields["quarantined"] = [f.to_dict() for f in self.failures]
        self.ledger.record(
            self.run,
            "quarantined" if self.failures else "complete",
            measured=measured,
            warm=warm,
            **fields,
        )
        if self.failures:
            return False
        try:
            self.path.unlink()
        except OSError:
            return False
        return True


def gc_journals(ledger: RunRegistry) -> int:
    """Sweep the manifests left behind next to ``ledger``; how many.

    A manifest is kept exactly while its run is unfinished in the
    ledger (``running`` or ``interrupted``): it is then the record of
    which cells the run still owes.  Every other file in the manifest
    directory -- the manifest of a finished or unknown run, a stale
    staging file -- carries nothing the ledger and the store do not,
    and is removed.  Unlinking failures are logged and skipped.
    """
    directory = ledger.root / "journal"
    if not directory.is_dir():
        return 0
    removed = 0
    for path in sorted(directory.iterdir()):
        record = ledger.get(path.name.split(".")[0])
        if (
            path.suffix == ".json"
            and record is not None
            and record["state"] in UNFINISHED
        ):
            continue
        try:
            path.unlink()
        except OSError as exc:
            logger.warning("cannot drop run manifest %s: %s", path, exc)
            continue
        removed += 1
    return removed
