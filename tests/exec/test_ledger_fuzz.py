"""Seeded mutational fuzzing of run-ledger lines and run manifests.

The run ledger (``<store>/registry.jsonl``) is replayed whenever a
server starts and whenever ``store verify`` or ``store scrub`` runs,
so a damaged line must never take either down.  Every mutated input
must leave replay:

* raising nothing -- no ``AttributeError`` from a line that is valid
  JSON but not an object, no ``TypeError`` from a ``run`` that is a
  list;
* inventing no run: every run replay reports is one the intact ledger
  recorded (each record carries a checksum, so a flipped run id is a
  skipped line, not a new run);
* with ``store verify`` exiting 0 or 1, never with a traceback.

Manifests (``<store>/journal/<run>.json``) face the same mutations:
reading one yields the run's keys or nothing, and neither
``GET /runs/<id>`` nor the scrub sweep raises.

Mutations are stdlib ``random`` only: single-byte XOR flips,
truncations (with and without the trailing newline), non-object JSON,
and structural edits giving ``run``, ``state``, the counts, ``keys``
and the quarantined failures the wrong type.  Structural edits to
ledger records are applied twice: keeping the stale checksum, and
re-signed so they reach the validation behind it.
"""

import json
import random

import pytest

from repro.__main__ import main
from repro.exec import RunJournal, RunRegistry
from repro.exec.journal import gc_journals, manifest_path, read_manifest
from repro.exec.registry import STATES, render_entry
from repro.exec.report import CellFailure, ExecutionReport
from repro.exec.service import MeasurementService

_SEED = 20121201

_FAILURE = CellFailure(
    workload_name="bad",
    config_label="1-1",
    duration=1.0,
    attempts=2,
    kind="FaultInjectedError",
    message="poisoned",
    key="k9",
)

#: Valid JSON that is not a record object.
_NON_OBJECTS = [b"[1, 2]", b"null", b"5", b'"run"', b"true", b"[]", b"{}"]

#: Wrong-typed values per field of a ledger record.
_RECORD_EDITS = {
    "run": [["r"], 7, None, "", {"run": "x"}],
    "state": [5, None, "finished", ["complete"]],
    "measured": ["3", 1.5, True, None],
    "cells": [[6], "6"],
    "quarantined": ["x", [1], [None], 5, {"k": 1}],
}

#: Wrong-typed manifest bodies.
_MANIFEST_EDITS = [
    {"keys": "k1"},
    {"keys": [1, 2]},
    {"keys": None},
    {"keys": {"k1": 1}},
    {"run": ["x"]},
    {"run": "someone-else"},
]


def _build_ledger(root) -> dict[str, str]:
    """An intact ledger of four runs; run id -> final state."""
    ledger = RunRegistry(root)
    clean = RunJournal(ledger, "aa01")
    clean.start(["k1", "k2"], "clean plan", arch="POWER7", seed=0)
    clean.absorb(ExecutionReport((), fault_counters={"retries": 1}))
    clean.complete(2, warm=0)
    failed = RunJournal(ledger, "aa02")
    failed.start(["k9"], "poisoned plan")
    failed.absorb(ExecutionReport((None,), failures=(_FAILURE,)))
    failed.complete(0, warm=0)
    RunJournal(ledger, "aa03").start(["k3", "k4"], "killed plan")
    RunJournal(ledger, "aa04").start(["k5"], "failed plan")
    ledger.record("aa04", "interrupted", error="RuntimeError: boom")
    return {run["run"]: run["state"] for run in ledger.runs()}


def _flip(rng: random.Random, line: bytes) -> bytes:
    body = bytearray(line)
    body[rng.randrange(len(body))] ^= rng.randrange(1, 256)
    return bytes(body)


def _truncate(rng: random.Random, line: bytes) -> bytes:
    return line[: rng.randrange(1, len(line))]


def _edit(line: bytes, field: str, value, resign: bool) -> bytes:
    """``line`` with ``field`` set to ``value``; re-signed or not."""
    entry = json.loads(line)
    entry[field] = value
    if not resign:
        return json.dumps(entry, sort_keys=True).encode()
    entry.pop("sum")
    entry.pop("registry")
    return render_entry(entry).rstrip(b"\n")


def _ledger_mutants(lines: list[bytes], count: int):
    """(description, mutated ledger lines) pairs, seeded."""
    rng = random.Random(_SEED)
    for number in range(count):
        target = rng.randrange(len(lines))
        line = lines[target]
        kind = rng.choice(("flip", "truncate", "non-object", "edit"))
        if kind == "flip":
            mutated = _flip(rng, line)
        elif kind == "truncate":
            mutated = _truncate(rng, line)
        elif kind == "non-object":
            mutated = rng.choice(_NON_OBJECTS)
        else:
            field = rng.choice(sorted(_RECORD_EDITS))
            value = rng.choice(_RECORD_EDITS[field])
            resign = rng.random() < 0.5
            kind = f"edit {field}={value!r} resign={resign}"
            mutated = _edit(line, field, value, resign)
        yield (
            f"#{number} line {target}: {kind}",
            lines[:target] + [mutated] + lines[target + 1 :],
        )


def _replay_checked(root, intact: dict[str, str], case: str) -> RunRegistry:
    ledger = RunRegistry(root)
    runs = {record["run"]: record for record in ledger.runs()}
    assert set(runs) <= set(intact), case
    for record in runs.values():
        assert record["state"] in STATES, case
    summary = ledger.summary()
    assert summary["runs"] == len(runs), case
    assert ledger.journal_summary()["runs"] == len(runs), case
    return ledger


def _verify_exits_cleanly(root, capsys) -> None:
    code = main(["store", "verify", "--store", str(root)])
    assert code in (0, 1)
    capsys.readouterr()


class TestLedgerReplay:
    def test_non_object_registry_line_is_skipped(self, tmp_path, capsys):
        """Valid JSON that is not a record -- ``[1, 2]`` -- used to
        raise ``AttributeError`` out of replay: the server could not
        start and ``store verify`` died with a traceback."""
        intact = _build_ledger(tmp_path)
        with (tmp_path / "registry.jsonl").open("ab") as handle:
            handle.write(b"[1, 2]\nnull\n")
        ledger = _replay_checked(tmp_path, intact, "[1, 2]")
        assert ledger.skipped == 2
        assert len(ledger) == len(intact)
        service = MeasurementService(store=tmp_path)
        try:
            assert len(service.runs_listing()["runs"]) == len(intact)
        finally:
            service.close()
        assert main(["store", "verify", "--store", str(tmp_path)]) == 0
        assert "2 line(s) skipped" in capsys.readouterr().out

    def test_intact_ledger_replays_every_run(self, tmp_path):
        intact = _build_ledger(tmp_path)
        ledger = _replay_checked(tmp_path, intact, "intact")
        assert ledger.skipped == 0
        assert {r["run"]: r["state"] for r in ledger.runs()} == intact
        assert ledger.get("aa02")["quarantined"] == [_FAILURE.to_dict()]

    def test_mutated_ledgers_replay_safely(self, tmp_path, capsys):
        store = tmp_path / "store"
        intact = _build_ledger(store)
        path = store / "registry.jsonl"
        lines = path.read_bytes().splitlines()
        skipped = 0
        for case, mutated in _ledger_mutants(lines, 240):
            path.write_bytes(b"\n".join(mutated) + b"\n")
            ledger = _replay_checked(store, intact, case)
            skipped += ledger.skipped
            _verify_exits_cleanly(store, capsys)
        # The mutations really produced damage replay had to skip.
        assert skipped > 100

    def test_recover_and_compact_survive_damage(self, tmp_path):
        intact = _build_ledger(tmp_path)
        path = tmp_path / "registry.jsonl"
        lines = path.read_bytes().splitlines()
        for case, mutated in _ledger_mutants(lines, 40):
            path.write_bytes(b"\n".join(mutated) + b"\n")
            ledger = _replay_checked(tmp_path, intact, case)
            ledger.recover()
            assert ledger.compact() >= 0, case
            compacted = _replay_checked(tmp_path, intact, case)
            assert compacted.skipped == 0, case
            assert "running" not in {r["state"] for r in compacted.runs()}


class TestManifestReplay:
    def _mutants(self, line: bytes, count: int):
        rng = random.Random(_SEED + 1)
        for number in range(count):
            kind = rng.choice(("flip", "truncate", "non-object", "edit"))
            if kind == "flip":
                yield f"#{number} flip", _flip(rng, line)
            elif kind == "truncate":
                yield f"#{number} truncate", _truncate(rng, line)
            elif kind == "non-object":
                yield f"#{number} non-object", rng.choice(_NON_OBJECTS)
            else:
                edit = rng.choice(_MANIFEST_EDITS)
                body = {**json.loads(line), **edit}
                yield f"#{number} edit {edit}", json.dumps(body).encode()

    @pytest.fixture()
    def service(self, tmp_path):
        service = MeasurementService(store=tmp_path / "store")
        yield service
        service.close()

    def test_mutated_manifests_read_safely(self, service, capsys):
        root = service.store.root
        RunJournal(service.registry, "bb01").start(["k1", "k2"], "plan")
        path = manifest_path(root, "bb01")
        line = path.read_bytes()
        for case, mutated in self._mutants(line, 160):
            path.write_bytes(mutated)
            keys = read_manifest(root, "bb01")
            assert keys is None or all(isinstance(k, str) for k in keys), case
            status, cells = service.run_status("bb01")
            assert status["found"] is True, case
            assert status["done"] == len(cells) == 0, case
            _verify_exits_cleanly(root, capsys)
        # A stray manifest of a run the ledger never saw is swept; the
        # killed run's manifest is kept.
        manifest_path(root, "cc01").write_bytes(line)
        path.write_bytes(line)
        assert gc_journals(RunRegistry(root)) == 1
        assert read_manifest(root, "bb01") == ["k1", "k2"]

    def test_unknown_and_unsafe_run_ids_are_not_found(self, service):
        for run in ("0" * 24, "../registry", "bb01/../x", ""):
            status, cells = service.run_status(run)
            assert status["found"] is False and cells == []
