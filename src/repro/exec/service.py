"""Campaign service: a resident, multi-tenant measurement server.

``python -m repro serve`` turns the execution engine into a
long-running HTTP service.  Where every CLI invocation rebuilds hot
machines and packed-kernel caches from scratch, the service keeps them
*resident*: one :class:`~repro.sim.machine.Machine` and
:class:`~repro.exec.executors.SerialExecutor` per (architecture, seed)
with its summary/stack memos warm (at most :data:`MAX_ENGINES`, the
least recently used evicted first), and one
:class:`~repro.exec.store.ResultStore` that every client request reads
and feeds.  Because measurements are pure functions of content, the
service can cache aggressively without changing a single bit of
output: a response is always bit-identical to a one-shot
``SerialExecutor.run`` of the same plan.

Endpoints (all JSON; streamed bodies are chunked JSON Lines):

``POST /plans``
    Submit a plan (the pooled :func:`~repro.exec.serialize.plan_to_dict_v2`
    body plus ``arch``/``seed``; a body without its
    ``"wire": "plan-v2"`` marker is answered 400 before the stream
    header, measuring nothing).  The response streams one
    header line, then one line per unique cell *ordered by
    completion* -- warm cells first, then the measured ones once the
    store holds them -- and a trailer with the run's accounting.  Each
    cell line carries the cell's index in the submitted plan, its
    store key, its ``source`` (``store``/``measured``) and the full
    measurement; a quarantined cell gets a ``failure`` line at its
    index instead.  A warm line carries the stored record's verified
    body bytes verbatim (:meth:`ResultStore.get_body`), never decoded
    on the server, so a checksum-valid body that does not decode
    reaches the client, whose :class:`RemoteExecutor` raises
    ``ServiceError`` naming the cell.  The header and all warm lines go
    out as one chunk; measured lines go out one chunk each, so the
    client decodes one while the server encodes the next.
``GET /runs``
    The run ledger (:class:`~repro.exec.registry.RunRegistry`): every
    run ever recorded against this store -- id, plan digest, state
    (``running``/``complete``/``interrupted``/``quarantined``) and
    accounting -- surviving server restarts.
``GET /runs/<id>``
    Resume/status endpoint: the run's ledger record plus, while the
    run's key manifest exists (an unfinished or quarantined run that
    owed cells), the stored body of every one of its cells the store
    holds, as stored, in one chunk.
    Resubmitting the plan is always the resume path (warm cells serve
    from the store with zero re-measurement).
``GET /stats``
    Cache / store / fault / admission / intern counters of the whole
    service.
``GET /health``
    Liveness probe (the only endpoint exempt from token auth).

Every other path answers 404.

Hardening:

* **run ledger** -- every submission is one run in the store's ledger,
  under the run id its stream header reports; the sub-plan of its
  cold cells is part of it.  A restarted server records runs left in
  flight by the previous process ``interrupted``, so ``kill -9`` loses
  no run history, and resubmitted plans re-measure nothing the store
  already holds.
* **admission control** -- optional bearer-token auth (``REPRO_TOKEN``
  / ``--token``; 401 without it), a bounded in-flight cell budget and
  request cap answering ``429 Too Many Requests`` with ``Retry-After``
  (measurements are pure, so a retried submission is bit-identical),
  per-connection write deadlines so one stalled reader can never
  wedge the engine queue other requests wait in, and ``413 Payload
  Too Large`` for a body longer than :data:`MAX_BODY_BYTES`, before it
  is read.
* **graceful drain** -- SIGTERM stops admission (503 +
  ``Retry-After``), lets in-flight submissions finish streaming, and
  exits 0 with every run's final record written.

Multi-tenant contracts: a cell already in the store is served straight
from disk (a fully warm plan performs zero ``Machine.run`` calls and
writes no key manifest).  A request probes the store before it starts
its run, streams its warm cells before it queues for the engine lock,
then runs its cold cells as one sub-plan under the lock; that
sub-plan's own store probe serves every cell a concurrent request
persisted meanwhile.  So with a store, concurrent clients submitting
overlapping plans measure each distinct cell once; without one,
overlapping requests re-measure the cells they share, bit-identically.

Executions serialize on one engine lock (plans queue), which keeps the
resident machines' caches single-writer; warm serving stays
concurrent.  Everything is stdlib --
:class:`http.server.ThreadingHTTPServer`, one thread per client.
"""

from __future__ import annotations

import hmac
import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

import numpy as np

from repro.errors import (
    MicroProbeError,
    PlanValidationError,
    ServiceError,
    UnknownArchitectureError,
)
from repro.exec import faults
from repro.exec.executors import SerialExecutor
from repro.exec.journal import RunJournal, read_manifest, run_id
from repro.exec.plan import ExperimentPlan
from repro.exec.registry import UNFINISHED, RunRegistry
from repro.exec.serialize import WireInternCache, plan_from_dict
from repro.exec.store import ResultStore
from repro.sim.cells import first_seen
from repro.sim.kernel import Kernel
from repro.sim.machine import Machine

logger = logging.getLogger("repro.exec.service")

FORMAT = "repro-serve-v1"

#: Per-connection socket deadline: the longest one blocking read or
#: write against a client may stall.  Measured cells stream while their
#: request holds the engine lock, so without a deadline one reader that
#: stops draining its socket wedges every queued plan; with it, the
#: write raises and the run completes server-side (the store still gets
#: every cell).
DEFAULT_WRITE_DEADLINE_S = 60.0

#: ``Retry-After`` seconds on backpressure responses (429/503).
#: Deliberately short: clients own the capped exponential backoff, the
#: header only keeps the first retry from landing instantly.
DEFAULT_RETRY_AFTER_S = 0.25

#: Largest ``POST /plans`` body the handler reads, bytes.  A longer
#: ``Content-Length`` is answered 413 before any byte is read (reading
#: it would allocate the claimed length up front).  About 4.6x the
#: largest body a repo flow sends: the gathering plan of ``repro
#: campaign --scale 1.0 --loop-size 4096 --server`` pools 583 aperiodic
#: 4,096-slot kernels into 73.2 MB.
MAX_BODY_BYTES = 320 * 1024 * 1024

#: Most resident engines (a machine and its executor per architecture
#: and seed) the service keeps; past it the least recently used one is
#: dropped.  Each holds its machine's caches, and the seed comes from
#: the request body.  No repo flow uses more than two.
MAX_ENGINES = 8


# -- the service ---------------------------------------------------------------


def _json_line(payload: dict) -> bytes:
    """One stream line of ``payload``."""
    return json.dumps(payload).encode() + b"\n"


def _store_line(index: int, key: str, body: bytes) -> bytes:
    """One warm cell line: plan index, store key and the stored body
    text, spliced in as stored.  Keys come from
    :meth:`SerialExecutor.keys_of`, content hex, so they need no
    escaping."""
    return (
        b'{"cell": %d, "key": "%s", "source": "store", "measurement": %s}\n'
        % (index, key.encode(), body)
    )


def _check_mnemonics(plan: ExperimentPlan, machine: Machine) -> None:
    """Refuse a kernel slot some core class of the plan cannot run.

    A wire kernel may name any mnemonic, and the engine would retry and
    quarantine such a cell.  Each distinct workload is checked once per
    set of core classes its cells' configurations use, every kernel of a
    placement included, against those classes' property tables, each
    kernel's mnemonics read from its table (O(period) for a wire kernel).

    Raises:
        ServiceError: 400, naming the cell, the kernel and the mnemonic.
    """
    columns = plan.columns
    class_sets: dict[tuple, int] = {}
    set_of_config = []
    for config in columns.configs:
        clusters = getattr(config, "clusters", ())
        classes = tuple(cluster.core_class for cluster in clusters) or (None,)
        set_of_config.append(class_sets.setdefault(classes, len(class_sets)))
    sets = list(class_sets)
    # Each (workload, class set) pair once, at its first cell.
    pairs = columns.workload_index * len(sets) + np.asarray(
        set_of_config, dtype=np.intp
    )[columns.config_index]
    for index in first_seen(pairs)[0].tolist():
        workload = columns.workloads[columns.workload_index[index]]
        classes = sets[set_of_config[columns.config_index[index]]]
        placed = getattr(workload, "thread_workloads", (workload,))
        for kernel in {id(kernel): kernel for kernel in placed}.values():
            if not isinstance(kernel, Kernel):
                continue
            names = dict.fromkeys(field[0] for field in kernel.slot_parts()[0])
            for arch in map(machine.cluster_arch, classes):
                for mnemonic in names:
                    if mnemonic not in arch.properties:
                        raise ServiceError(
                            f"plan-v2 cell {index}: kernel {kernel.name!r} "
                            f"names mnemonic {mnemonic!r}, which core class "
                            f"{arch.name} has no properties for"
                        )


class MeasurementService:
    """The resident measurement plane behind the HTTP handler.

    Holds the resident executors (and their machines), the shared
    store, the run ledger and the service counters.
    Usable directly (tests drive :meth:`submit` without a socket) or
    through :func:`build_server`.
    """

    def __init__(
        self,
        store: ResultStore | str | None = None,
        retries: int | None = None,
        token: str | None = None,
        max_inflight_cells: int | None = None,
        max_requests: int | None = None,
        write_deadline: float = DEFAULT_WRITE_DEADLINE_S,
        retry_after: float = DEFAULT_RETRY_AFTER_S,
    ) -> None:
        self.store = (
            ResultStore(store)
            if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__")
            else store
        )
        self.retries = retries
        self.token = token or None
        self.max_inflight_cells = max_inflight_cells
        self.max_requests = max_requests
        self.write_deadline = write_deadline
        self.retry_after = retry_after
        #: Cross-request intern cache: wire digest -> rebuilt object.
        self.intern = WireInternCache()
        #: (arch, seed) -> resident executor, least recently used first.
        self._engines: dict[tuple, SerialExecutor] = {}
        #: Serializes executor.execute calls: the resident machines'
        #: caches are single-writer.  Warm serving (store probes) stays
        #: concurrent.
        self._engine_lock = threading.Lock()
        self._state_lock = threading.Lock()
        #: Admitted-but-unfinished work, bounded by the budgets above.
        self._inflight_requests = 0
        self._inflight_cells = 0
        self._idle = threading.Condition(self._state_lock)
        self._draining = threading.Event()
        self._counters = {
            "requests": 0,
            "cells_requested": 0,
            "warm_cells": 0,
            "measured_cells": 0,
            "quarantined_cells": 0,
            "journals_gcd": 0,
            "rejected_requests": 0,
            "drain_rejected": 0,
            "auth_failures": 0,
            "broken_streams": 0,
        }
        #: The run ledger, replayed from ``<store>/registry.jsonl``:
        #: nothing can be ``running`` before this process serves its
        #: first request, so such runs are recorded interrupted.
        self.registry: RunRegistry | None = None
        if self.store is not None:
            self.registry = RunRegistry(self.store.root)
            recovered = self.registry.recover()
            if recovered:
                logger.warning(
                    "run ledger: %d run(s) left in flight by the previous "
                    "server process recorded interrupted",
                    recovered,
                )

    # -- counters --------------------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        with self._state_lock:
            self._counters[name] = self._counters.get(name, 0) + value

    # -- admission control -----------------------------------------------------

    def authorized(self, header: str | None) -> bool:
        """Whether ``Authorization: Bearer <token>`` matches the service
        token (constant-time compare); trivially true without a token."""
        if self.token is None:
            return True
        if not header:
            return False
        presented = header.strip()
        if presented.lower().startswith("bearer "):
            presented = presented[len("bearer ") :].strip()
        return hmac.compare_digest(presented, self.token)

    def _admit(self, run: str, cells: int) -> None:
        """Admit one plan submission or raise the backpressure error.

        Rejections are cheap and honest: they happen before the stream
        header, before the journal, before any store probe -- the
        client sees a clean 429/503 with ``Retry-After`` and resubmits,
        and because measurements are pure the retried submission is
        bit-identical to one that was admitted first try.
        """
        if self._draining.is_set():
            self._count("drain_rejected")
            raise ServiceError(
                "service is draining (shutdown in progress)",
                status=503,
                retry_after=self.retry_after,
            )
        plan = faults.active()
        if plan is not None and plan.maybe_reject(f"serve:{run}"):
            self._count("rejected_requests")
            raise ServiceError(
                "injected admission rejection (chaos testing)",
                status=429,
                retry_after=self.retry_after,
            )
        with self._state_lock:
            over_requests = (
                self.max_requests is not None
                and self._inflight_requests >= self.max_requests
            )
            # A request's first admission always passes an empty cell
            # budget, so one oversized plan degrades to "alone on the
            # service" instead of being unservable.
            over_cells = (
                self.max_inflight_cells is not None
                and self._inflight_cells > 0
                and self._inflight_cells + cells > self.max_inflight_cells
            )
            if over_requests or over_cells:
                self._counters["rejected_requests"] += 1
                kind = "requests" if over_requests else "cells"
                raise ServiceError(
                    f"service at capacity ({kind} budget); retry shortly",
                    status=429,
                    retry_after=self.retry_after,
                )
            self._inflight_requests += 1
            self._inflight_cells += cells

    def _release(self, cells: int) -> None:
        with self._idle:
            self._inflight_requests -= 1
            self._inflight_cells -= cells
            if self._inflight_requests == 0:
                self._idle.notify_all()

    def drain(self) -> None:
        """Stop admitting work; in-flight submissions finish streaming."""
        if not self._draining.is_set():
            self._draining.set()
            logger.warning(
                "drain: admission closed; finishing in-flight submissions"
            )

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no admitted submission is in flight.

        Completion records append synchronously, so once this returns
        true the registry is flushed; ``True`` iff idle within
        ``timeout``.
        """
        with self._idle:
            return self._idle.wait_for(
                lambda: self._inflight_requests == 0, timeout
            )

    # -- engines ---------------------------------------------------------------

    def _engine(self, arch_name: str, seed: int) -> SerialExecutor:
        """The resident executor (and machine) of one tenant.

        Past :data:`MAX_ENGINES` the least recently used engine is
        dropped; a request already holding it finishes on it.
        """
        key = (arch_name.upper(), seed)
        with self._state_lock:
            executor = self._engines.pop(key, None)
            if executor is None:
                from repro.march.definition import get_architecture

                executor = SerialExecutor(
                    Machine(get_architecture(arch_name), seed=seed),
                    store=self.store,
                    retries=self.retries,
                )
                logger.info("engine up: %s seed=%d", arch_name, seed)
            self._engines[key] = executor
            if len(self._engines) > MAX_ENGINES:
                evicted = next(iter(self._engines))
                del self._engines[evicted]
                logger.info("engine dropped: %s seed=%d", *evicted)
            return executor

    def close(self) -> None:
        """Release the store's handles."""
        if self.store is not None:
            self.store.close()

    # -- request handling ------------------------------------------------------

    def submit(self, request: dict, start) -> dict:
        """Serve one ``POST /plans`` request.

        ``request`` is the parsed JSON body; ``start`` is a callable
        returning the emit function, which takes bytes -- one or more
        whole JSON lines, sent as one chunk.  ``start`` is only invoked
        once the request has validated, so malformed plans surface as
        a clean HTTP error instead of a half-streamed response.
        Returns the trailer summary (also emitted as the final line).
        """
        arch_name = str(request.get("arch", "POWER7"))
        try:
            seed = int(request.get("seed", 0))
        except (TypeError, ValueError, OverflowError):
            raise ServiceError("plan request carries a non-integer seed")
        try:
            plan = plan_from_dict(request, intern=self.intern)
            executor = self._engine(arch_name, seed)
            plan.validate_against(executor.machine)
        except UnknownArchitectureError as exc:
            raise ServiceError(str(exc), status=404) from None
        except (PlanValidationError, MicroProbeError) as exc:
            raise ServiceError(str(exc)) from None
        _check_mnemonics(plan, executor.machine)
        keys = executor.keys_of(plan)
        run = run_id(keys)
        self._admit(run, len(keys))
        try:
            return self._serve(
                plan, keys, run, arch_name, seed, executor, start
            )
        finally:
            self._release(len(keys))

    def _serve(
        self,
        plan: ExperimentPlan,
        keys: list[str],
        run: str,
        arch_name: str,
        seed: int,
        executor,
        start,
    ) -> dict:
        """The admitted half of :meth:`submit`: the store probe, the
        run's ledger records around execution and the trailer."""
        self._count("requests")
        self._count("cells_requested", len(keys))
        logger.info(
            "request: %s on %s seed=%d (run %s)",
            plan.describe(),
            arch_name,
            seed,
            run,
        )
        # The probe comes first, as one batch read: a run that owes no
        # cells writes no key manifest.  Warm cells stay stored body
        # bytes, never decoded.
        bodies = (
            self.store.get_bodies(keys)
            if self.store is not None
            else [None] * len(keys)
        )
        cold = [index for index, body in enumerate(bodies) if body is None]
        journal: RunJournal | None = None
        if self.registry is not None:
            journal = RunJournal(self.registry, run)
            journal.start(
                keys, plan.describe(), owes=bool(cold), arch=arch_name,
                seed=seed,
            )

        emit = start()
        fault_plan = faults.active()
        if fault_plan is not None:
            fault_plan.maybe_stall(f"serve:{run}")
        # The header and every warm line go out as one chunk.
        header = {
            "service": FORMAT,
            "run": run,
            "cells": len(keys),
            "arch": arch_name,
            "seed": seed,
        }
        emit(
            _json_line(header)
            + b"".join(
                _store_line(index, keys[index], body)
                for index, body in enumerate(bodies)
                if body is not None
            )
        )
        try:
            trailer = self._execute(
                plan, keys, run, executor, journal, emit, cold
            )
        except BaseException as exc:
            # The run died mid-flight (engine failure, shutdown): the
            # ledger must not keep saying "running" -- the store holds
            # whatever landed, so a resubmit resumes warm.
            if journal is not None:
                journal.interrupt(exc)
            raise
        if journal is not None and journal.complete(
            trailer["measured"], warm=trailer["warm"]
        ):
            self._count("journals_gcd")
        emit(_json_line(trailer))
        return trailer

    def _execute(
        self,
        plan: ExperimentPlan,
        keys: list[str],
        run: str,
        executor,
        journal: RunJournal | None,
        emit,
        cold: list[int],
    ) -> dict:
        """Run the ``cold`` cells of one admitted run; its trailer.

        The warm cells have streamed already.  The cold ones run as one
        sub-plan under the engine lock, as part of the request's run;
        that execution's own store probe serves every cell a concurrent
        request persisted while this one queued, and those stream as
        ``store`` lines and count as warm.
        """
        warm = len(keys) - len(cold)
        measured = 0
        failures: list[dict] = []
        if cold:
            # The sub-plan's unique cells are the cold cells in order
            # (the plan's unique cells are pairwise distinct), and
            # ``progress`` hands back rows of its ``cells``.
            subplan = ExperimentPlan(plan.columns.take(cold))
            index_of = {
                id(cell): index for cell, index in zip(subplan.cells, cold)
            }

            def stream(batch_cells, batch_measurements, stored: bool) -> None:
                nonlocal warm, measured
                if stored:
                    warm += len(batch_cells)
                else:
                    measured += len(batch_cells)
                source = "store" if stored else "measured"
                # One chunk per line: the client decodes each line while
                # the next one is encoded.  Batched into one chunk, these
                # lines cost perfbench serve about a tenth of its cold_s.
                for cell, measurement in zip(batch_cells, batch_measurements):
                    index = index_of[id(cell)]
                    line = {
                        "cell": index,
                        "key": keys[index],
                        "source": source,
                        "measurement": measurement.to_dict(),
                    }
                    emit(_json_line(line))

            with self._engine_lock:
                report = executor.execute(
                    subplan, progress=stream, journal=journal
                )
            # The executor quarantines in sub-plan order, so the cells
            # left without a measurement pair with its failures in order.
            missing = [
                index
                for index, measurement in zip(cold, report.measurements)
                if measurement is None
            ]
            for index, failure in zip(missing, report.failures):
                record = failure.to_dict()
                failures.append(record)
                line = {"cell": index, "key": keys[index], "failure": record}
                emit(_json_line(line))

        self._count("warm_cells", warm)
        self._count("measured_cells", measured)
        self._count("quarantined_cells", len(failures))
        return {
            "complete": True,
            "run": run,
            "cells": len(keys),
            "warm": warm,
            "measured": measured,
            "failures": failures,
        }

    # -- observability ---------------------------------------------------------

    def stats(self) -> dict:
        """Cache / store / fault / admission counters, JSON-able."""
        with self._state_lock:
            counters = dict(self._counters)
            engines = dict(self._engines)
        payload: dict = {
            "service": counters,
            "admission": {
                "draining": self.draining,
                "inflight_requests": self._inflight_requests,
                "admitted_cells": self._inflight_cells,
                "max_requests": self.max_requests,
                "max_inflight_cells": self.max_inflight_cells,
                "auth": self.token is not None,
                "write_deadline_s": self.write_deadline,
            },
            "store": None,
            "engines": [],
            "intern": self.intern.stats(),
        }
        if self.store is not None:
            payload["store"] = {
                **self.store.snapshot_stats(),
                "journals": self.registry.journal_summary(),
            }
            payload["registry"] = self.registry.summary()
        for (arch_name, seed), executor in engines.items():
            report = executor.last_report
            payload["engines"].append(
                {
                    "arch": arch_name,
                    "seed": seed,
                    "executor": type(executor).__name__,
                    "caches": executor.machine.cache_stats(),
                    "last_report": (
                        report.describe() if report is not None else None
                    ),
                }
            )
        return payload

    def runs_listing(self) -> dict:
        """The ``GET /runs`` payload: every run in the ledger."""
        if self.registry is None:
            raise ServiceError(
                "the service has no result store attached; the run "
                "ledger needs --store", status=404,
            )
        return {
            "journals": self.registry.journal_summary(),
            "registry": self.registry.summary(),
            "runs": self.registry.runs(),
        }

    def run_status(self, run: str) -> tuple[dict, list[bytes]]:
        """Status + stored cell lines of one run, for ``GET /runs/<id>``.

        The status is the run's ledger record; the stored-cell lines
        (``{"key": ..., "measurement": ...}``, the body as stored) come
        from its key manifest, which a run keeps until it completes
        cleanly and a run that owed no cells never writes.
        Resubmitting the plan is the resume path.
        """
        if self.registry is None:
            raise ServiceError(
                "the service has no result store attached; resume needs "
                "--store", status=404,
            )
        record = self.registry.get(run)
        if record is None:
            note = "unknown run (never recorded against this store)"
            return {"run": run, "found": False, "note": note}, []
        status = {
            "run": run,
            "found": True,
            "state": record["state"],
            "completed": record["state"] not in UNFINISHED,
            "resumed": bool(record.get("resumed")),
            "quarantined": record.get("quarantined", []),
            "registry": record,
        }
        keys = read_manifest(self.store.root, run)
        if keys is None:
            status["done"] = record.get("warm", 0) + record.get("measured", 0)
            status["note"] = (
                "no key manifest: the run owed no cells when it started, "
                "or its manifest was lost"
                if record["state"] in UNFINISHED
                else "run finished: no key manifest is kept"
            )
            return status, []
        lines = []
        keys = sorted(set(keys))
        for key, body in zip(keys, self.store.get_bodies(keys)):
            if body is not None:
                # Manifest keys are read from disk: escape them.
                lines.append(
                    b'{"key": %s, "measurement": %s}\n'
                    % (json.dumps(key).encode(), body)
                )
        status["done"] = len(lines)
        return status, lines


# -- HTTP plumbing -------------------------------------------------------------


class ServiceHandler(BaseHTTPRequestHandler):
    """Thin HTTP adapter over :class:`MeasurementService`.

    Streamed responses use chunked transfer encoding: each chunk is
    one or more whole JSON lines, flushed as results land --
    ``http.client`` (and any HTTP/1.1 client) reassembles them
    transparently.
    """

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> MeasurementService:
        return self.server.service  # type: ignore[attr-defined]

    def setup(self) -> None:
        # The write deadline doubles as the read deadline: a client
        # that stops draining its response -- or never finishes sending
        # its request -- gets its socket operations timed out instead
        # of holding a handler thread (and, while its request holds the
        # engine lock, every queued plan) hostage.
        self.timeout = self.service.write_deadline
        super().setup()

    def log_message(self, format: str, *args) -> None:
        logger.info("%s %s", self.address_string(), format % args)

    # -- response helpers ------------------------------------------------------

    def _send_json(
        self, status: int, payload: dict, retry_after: float | None = None
    ) -> None:
        body = _json_line(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{retry_after:g}")
        self.end_headers()
        try:
            self.wfile.write(body)
        except OSError:
            self.close_connection = True

    def _send_error(self, exc: ServiceError) -> None:
        self._send_json(
            exc.status, {"error": str(exc)}, retry_after=exc.retry_after
        )

    def _authorized(self) -> bool:
        """Gate every endpoint but ``/health`` behind the bearer token."""
        if self.service.authorized(self.headers.get("Authorization")):
            return True
        self.service._count("auth_failures")
        self._send_json(
            401, {"error": "unauthorized: missing or wrong bearer token"}
        )
        return False

    def _start_stream(self):
        """Send stream headers; the returned emit never raises.

        A client that disconnects mid-stream must not abort the
        server-side execution (its cells still land in the store for
        the next request), so write failures flip a flag and further
        lines are dropped.
        """
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        self.close_connection = True
        state = {"broken": False}

        def emit(data: bytes) -> None:
            if state["broken"]:
                return
            try:
                self.wfile.write(b"%x\r\n" % len(data) + data + b"\r\n")
                self.wfile.flush()
            except OSError:
                state["broken"] = True
                self.service._count("broken_streams")
                logger.warning(
                    "client %s went away or stalled past the %.0fs write "
                    "deadline mid-stream; continuing the run for the "
                    "store",
                    self.address_string(),
                    self.service.write_deadline,
                )

        state["emit"] = emit
        return emit, state

    def _end_stream(self, state) -> None:
        if not state["broken"]:
            try:
                self.wfile.write(b"0\r\n\r\n")
                self.wfile.flush()
            except OSError:
                pass

    # -- verbs -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        path = urlsplit(self.path).path.rstrip("/") or "/"
        if path == "/health":
            self._send_json(
                200,
                {
                    "ok": True,
                    "service": FORMAT,
                    "draining": self.service.draining,
                },
            )
            return
        if not self._authorized():
            return
        if path == "/stats":
            self._send_json(200, self.service.stats())
        elif path == "/runs":
            try:
                self._send_json(200, self.service.runs_listing())
            except ServiceError as exc:
                self._send_error(exc)
        elif path.startswith("/runs/"):
            self._get_run(path[len("/runs/") :])
        else:
            self._send_json(404, {"error": f"unknown endpoint {path!r}"})

    def _get_run(self, run: str) -> None:
        try:
            status, lines = self.service.run_status(run)
        except ServiceError as exc:
            self._send_error(exc)
            return
        emit, state = self._start_stream()
        emit(_json_line(status) + b"".join(lines))
        self._end_stream(state)

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        path = urlsplit(self.path).path.rstrip("/")
        if path != "/plans":
            self._send_json(404, {"error": f"unknown endpoint {path!r}"})
            return
        if not self._authorized():
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:
                # rfile.read(-1) would block until the client closes.
                raise ValueError(f"negative Content-Length {length}")
            if length > MAX_BODY_BYTES:
                # The body stays unread: close rather than parse it as
                # the connection's next request.
                self.close_connection = True
                self._send_json(
                    413,
                    {
                        "error": f"request body of {length} bytes exceeds "
                        f"the {MAX_BODY_BYTES}-byte limit"
                    },
                )
                return
            request = json.loads(self.rfile.read(length))
            if not isinstance(request, dict):
                raise ValueError("plan request must be a JSON object")
        except (ValueError, TypeError) as exc:
            # The body may be unread: close rather than parse it as the
            # connection's next request.
            self.close_connection = True
            self._send_json(400, {"error": f"malformed request body: {exc}"})
            return

        state = None

        def start():
            nonlocal state
            emit, state = self._start_stream()
            return emit

        try:
            self.service.submit(request, start)
        except ServiceError as exc:
            if state is None:
                self._send_error(exc)
                return
            state["emit"](_json_line({"error": str(exc)}))
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("request failed")
            if state is None:
                self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
                return
            error = f"{type(exc).__name__}: {exc}"
            state["emit"](_json_line({"error": error}))
        if state is not None:
            self._end_stream(state)


def build_server(
    service: MeasurementService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A ready-to-serve threading HTTP server bound to ``host:port``.

    ``port=0`` binds an ephemeral port (``server.server_port`` has the
    real one -- the test-suite idiom).  One thread per connected
    client; threads are daemonic so a hard exit never hangs on a
    straggler.
    """
    server = ThreadingHTTPServer((host, port), ServiceHandler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    return server
