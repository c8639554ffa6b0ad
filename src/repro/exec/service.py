"""Campaign service: a resident, multi-tenant measurement server.

``python -m repro serve`` turns the execution engine into a
long-running HTTP service.  Where every CLI invocation rebuilds hot
machines and packed-kernel caches from scratch, the service keeps them
*resident*: one :class:`~repro.sim.machine.Machine` and
:class:`~repro.exec.executors.SerialExecutor` per (architecture, seed)
with its summary/stack memos warm, and one
:class:`~repro.exec.store.ResultStore` that every client request reads
and feeds.  Because measurements are pure functions of content, the
service can dedupe and cache aggressively without changing a single
bit of output: a response is always bit-identical to a one-shot
``SerialExecutor.run`` of the same plan.

Endpoints (all JSON; streamed bodies are chunked JSON Lines):

``POST /plans``
    Submit a plan (the pooled :func:`~repro.exec.serialize.plan_to_dict_v2`
    body plus ``arch``/``seed``; a body without its
    ``"wire": "plan-v2"`` marker is answered 400 before the stream
    header, measuring nothing).  The response streams one
    header line, then one line per unique cell *ordered by
    completion* -- warm cells first, measured batches as they land --
    and a trailer with the run's accounting.  Each cell line carries
    the cell's index in the submitted plan, its store key, its
    ``source`` (``store``/``measured``/``dedup``) and the full
    measurement.
``GET /runs``
    The run ledger (:class:`~repro.exec.registry.RunRegistry`): every
    run ever recorded against this store -- id, plan digest, state
    (``running``/``complete``/``interrupted``/``quarantined``) and
    accounting -- surviving server restarts.
``GET /runs/<id>``
    Resume/status endpoint: the run's ledger record plus, while the
    run's key manifest exists (an unfinished or quarantined run), the
    stored measurement of every one of its cells the store holds.
    Resubmitting the plan is always the resume path (warm cells serve
    from the store with zero re-measurement).
``GET /stats``
    Cache / store / fault / dedup / admission / intern counters of the
    whole service.
``GET /health``
    Liveness probe (the only endpoint exempt from token auth).

Every other path answers 404.

Hardening:

* **run ledger** -- every submission is one run in the store's ledger,
  under the run id its stream header reports; the leader's sub-plan
  and a follower's rescue are part of it.  A restarted server records
  runs left in flight by the previous process ``interrupted``, so
  ``kill -9`` loses no run history, and resubmitted plans re-measure
  nothing the store already holds.
* **admission control** -- optional bearer-token auth (``REPRO_TOKEN``
  / ``--token``; 401 without it), a bounded in-flight cell budget and
  request cap answering ``429 Too Many Requests`` with ``Retry-After``
  (measurements are pure, so a retried submission is bit-identical),
  and per-connection write deadlines so one stalled reader can never
  wedge a flight other clients wait on.
* **graceful drain** -- SIGTERM stops admission (503 +
  ``Retry-After``), lets in-flight submissions finish streaming, and
  exits 0 with every run's final record written.

Multi-tenant contracts: a cell already in the store is served straight
from disk (a fully warm plan performs zero ``Machine.run`` calls), and
concurrent clients submitting overlapping plans trigger each distinct
in-flight cell at most once (*single-flight*): the first client to
claim a cell's key measures it (the *leader*), every other client
waits on the same flight and receives the leader's bytes.  A follower
whose leader fails rescues the cell itself, so one client's disconnect
never loses another's results.

Executions serialize on one engine lock (plans queue), which keeps the
resident machines' caches single-writer; classification (store probes,
flight claims) stays concurrent.  Everything is stdlib --
:class:`http.server.ThreadingHTTPServer`, one thread per client.
"""

from __future__ import annotations

import hmac
import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

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
from repro.measure.measurement import Measurement
from repro.sim.machine import Machine

logger = logging.getLogger("repro.exec.service")

FORMAT = "repro-serve-v1"

#: How long a follower waits on another client's in-flight cell before
#: rescuing it (re-probing the store, then measuring it itself).
DEFAULT_FLIGHT_TIMEOUT_S = 600.0

#: Per-connection socket deadline: the longest one blocking read or
#: write against a client may stall.  Leaders emit while holding the
#: engine lock, so without a deadline one reader that stops draining
#: its socket wedges every queued plan; with it, the write raises and
#: the run completes server-side (followers and the store still get
#: every cell).
DEFAULT_WRITE_DEADLINE_S = 60.0

#: ``Retry-After`` seconds on backpressure responses (429/503).
#: Deliberately short: clients own the capped exponential backoff, the
#: header only keeps the first retry from landing instantly.
DEFAULT_RETRY_AFTER_S = 0.25


# -- single-flight registry ----------------------------------------------------


class _Flight:
    """One in-flight cell: the leader resolves, followers wait."""

    __slots__ = ("event", "measurement", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.measurement: Measurement | None = None
        self.error: str | None = None


class _FlightRegistry:
    """Single-flight map: content-addressed cell key -> in-flight cell.

    ``claim`` either registers a new flight (the caller becomes the
    leader and *must* eventually resolve or fail it) or returns the
    existing one (the caller is a follower).  Resolution removes the
    flight, so later requests fall through to the store.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[str, _Flight] = {}

    def claim(self, key: str) -> tuple[_Flight, bool]:
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                return flight, False
            flight = _Flight()
            self._flights[key] = flight
            return flight, True

    def resolve(self, key: str, measurement: Measurement) -> None:
        with self._lock:
            flight = self._flights.pop(key, None)
        if flight is not None:
            flight.measurement = measurement
            flight.event.set()

    def fail(self, key: str, error: str) -> None:
        with self._lock:
            flight = self._flights.pop(key, None)
        if flight is not None:
            flight.error = error
            flight.event.set()

    def __len__(self) -> int:
        with self._lock:
            return len(self._flights)


# -- the service ---------------------------------------------------------------


def _cell_line(index: int, key: str, source: str, measurement) -> dict:
    """One streamed cell line: plan index, store key, source, body."""
    return {
        "cell": index,
        "key": key,
        "source": source,
        "measurement": measurement.to_dict(),
    }


class MeasurementService:
    """The resident measurement plane behind the HTTP handler.

    Holds one resident executor (and its machine) per (architecture,
    seed), the shared store, the run ledger, the single-flight registry
    and the service counters.
    Usable directly (tests drive :meth:`submit` without a socket) or
    through :func:`build_server`.
    """

    def __init__(
        self,
        store: ResultStore | str | None = None,
        retries: int | None = None,
        flight_timeout: float = DEFAULT_FLIGHT_TIMEOUT_S,
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
        self.flight_timeout = flight_timeout
        self.token = token or None
        self.max_inflight_cells = max_inflight_cells
        self.max_requests = max_requests
        self.write_deadline = write_deadline
        self.retry_after = retry_after
        #: Cross-request intern cache: wire digest -> rebuilt object.
        self.intern = WireInternCache()
        self._engines: dict[tuple, SerialExecutor] = {}
        #: Serializes executor.execute calls: the resident machines'
        #: caches are single-writer.
        #: Classification (store probes, flight claims) stays
        #: concurrent, so overlapping clients dedupe while a plan runs.
        self._engine_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._flights = _FlightRegistry()
        #: Admitted-but-unfinished work, bounded by the budgets above.
        self._inflight_requests = 0
        self._inflight_cells = 0
        self._idle = threading.Condition(self._state_lock)
        self._draining = threading.Event()
        self._counters = {
            "requests": 0,
            "cells_requested": 0,
            "warm_cells": 0,
            "leader_cells": 0,
            "measured_cells": 0,
            "dedup_waits": 0,
            "follower_rescues": 0,
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
        header, before the journal, before any flight claim -- the
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
        """The resident executor (and machine) of one tenant."""
        key = (arch_name.upper(), seed)
        with self._state_lock:
            executor = self._engines.get(key)
            if executor is None:
                from repro.march.definition import get_architecture

                executor = SerialExecutor(
                    Machine(get_architecture(arch_name), seed=seed),
                    store=self.store,
                    retries=self.retries,
                )
                self._engines[key] = executor
                logger.info("engine up: %s seed=%d", arch_name, seed)
            return executor

    def close(self) -> None:
        """Release the store's handles."""
        if self.store is not None:
            self.store.close()

    # -- request handling ------------------------------------------------------

    def submit(self, request: dict, start) -> dict:
        """Serve one ``POST /plans`` request.

        ``request`` is the parsed JSON body; ``start`` is a callable
        returning the line-emit function -- it is only invoked once the
        request has validated, so malformed plans surface as a clean
        HTTP error instead of a half-streamed response.  Returns the
        trailer summary (also emitted as the final line).
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
        keys = [executor.key_of(cell) for cell in plan.cells]
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
        """The admitted half of :meth:`submit`: the run's ledger records
        around classification, execution and the trailer."""
        self._count("requests")
        self._count("cells_requested", len(keys))
        logger.info(
            "request: %s on %s seed=%d (run %s)",
            plan.describe(),
            arch_name,
            seed,
            run,
        )
        journal: RunJournal | None = None
        if self.registry is not None:
            journal = RunJournal(self.registry, run)
            journal.start(keys, plan.describe(), arch=arch_name, seed=seed)

        emit = start()
        fault_plan = faults.active()
        if fault_plan is not None:
            fault_plan.maybe_stall(f"serve:{run}")
        emit(
            {
                "service": FORMAT,
                "run": run,
                "cells": len(keys),
                "arch": arch_name,
                "seed": seed,
            }
        )
        try:
            trailer = self._execute(plan, keys, run, executor, journal, emit)
        except BaseException as exc:
            # The run died mid-flight (engine failure, shutdown): the
            # ledger must not keep saying "running" -- the store holds
            # whatever landed, so a resubmit resumes warm.
            if journal is not None:
                error = f"{type(exc).__name__}: {exc}"
                self.registry.record(run, "interrupted", error=error)
            raise
        if journal is not None and journal.complete(
            trailer["measured"],
            warm=trailer["warm"],
            deduped=trailer["deduped"],
        ):
            self._count("journals_gcd")
        emit(trailer)
        return trailer

    def _execute(
        self,
        plan: ExperimentPlan,
        keys: list[str],
        run: str,
        executor,
        journal: RunJournal | None,
        emit,
    ) -> dict:
        """Classify, measure and stream one admitted run; its trailer."""
        # Classification: warm cells stream immediately; cold cells are
        # either claimed (this request leads their measurement) or
        # followed (another request is already measuring them).
        warm = 0
        leaders: list[int] = []
        followers: list[tuple[int, str, _Flight]] = []
        for index, (cell, key) in enumerate(zip(plan.cells, keys)):
            found = self.store.get(key) if self.store is not None else None
            if found is not None:
                warm += 1
                emit(_cell_line(index, key, "store", found))
                continue
            flight, leading = self._flights.claim(key)
            if leading:
                leaders.append(index)
            else:
                followers.append((index, key, flight))
        self._count("warm_cells", warm)
        self._count("leader_cells", len(leaders))
        self._count("dedup_waits", len(followers))

        measured = 0
        rescued = 0
        failures: list[dict] = []
        if leaders:
            measured, leader_failures = self._lead(
                plan, keys, leaders, executor, journal, emit
            )
            failures.extend(leader_failures)
        for index, key, flight in followers:
            outcome = self._follow(
                plan.cells[index], index, key, flight, executor, journal, emit
            )
            if outcome == "rescued":
                rescued += 1
                measured += 1
            elif isinstance(outcome, dict):
                failures.append(outcome)

        self._count("measured_cells", measured)
        self._count("follower_rescues", rescued)
        self._count("quarantined_cells", len(failures))
        return {
            "complete": True,
            "run": run,
            "cells": len(keys),
            "warm": warm,
            "measured": measured,
            "deduped": len(followers),
            "failures": failures,
        }

    def _lead(
        self,
        plan: ExperimentPlan,
        keys: list[str],
        leaders: list[int],
        executor,
        journal: RunJournal | None,
        emit,
    ) -> tuple[int, list[dict]]:
        """Measure the cells this request claimed; resolve their flights.

        The sub-plan executes under the engine lock, as part of the
        request's run; the executor's ``progress`` hook publishes every
        landed batch to the flight registry *before* it is written to
        this client's stream, so followers receive results even if this
        client's connection breaks mid-response.
        """
        owned = {
            id(plan.cells[index]): (index, keys[index]) for index in leaders
        }
        resolved: set[str] = set()
        measured = 0

        def publish(batch_cells, batch_measurements, warm: bool) -> None:
            nonlocal measured
            for cell, measurement in zip(batch_cells, batch_measurements):
                index, key = owned[id(cell)]
                self._flights.resolve(key, measurement)
                resolved.add(key)
                if not warm:
                    measured += 1
                source = "store" if warm else "measured"
                emit(_cell_line(index, key, source, measurement))

        subplan = ExperimentPlan(plan.cells[index] for index in leaders)
        failures: list[dict] = []
        try:
            with self._engine_lock:
                report = executor.execute(
                    subplan, progress=publish, journal=journal
                )
        finally:
            # Whatever this leader could not resolve -- a quarantined
            # cell, or an unexpected abort -- must not strand followers.
            for index, key in owned.values():
                if key not in resolved:
                    self._flights.fail(key, "leader did not produce the cell")

        if not report.ok:
            failures_by_key = {
                failure.key: failure
                for failure in report.failures
                if failure.key
            }
            unmatched = [
                failure for failure in report.failures if not failure.key
            ]
            for position, measurement in enumerate(report.measurements):
                if measurement is not None:
                    continue
                index, key = owned[id(subplan.cells[position])]
                failure = failures_by_key.get(key)
                if failure is None and unmatched:
                    failure = unmatched.pop(0)
                record = failure.to_dict() if failure is not None else {}
                failures.append(record)
                emit({"cell": index, "key": key, "failure": record})
        return measured, failures

    def _follow(
        self,
        cell,
        index: int,
        key: str,
        flight: _Flight,
        executor,
        journal: RunJournal | None,
        emit,
    ):
        """Wait on another request's flight; rescue the cell if it fails.

        Returns ``"dedup"``, ``"rescued"`` or a failure dict.
        """
        landed = flight.event.wait(self.flight_timeout)
        if landed and flight.measurement is not None:
            emit(_cell_line(index, key, "dedup", flight.measurement))
            return "dedup"
        # The leader failed or timed out: the store may still have the
        # cell (leader persisted, then died); otherwise measure it
        # ourselves -- one client's death never loses another's cells.
        found = self.store.get(key) if self.store is not None else None
        if found is not None:
            emit(_cell_line(index, key, "store", found))
            return "dedup"
        logger.warning(
            "rescuing cell %s: its leader %s", key,
            "timed out" if not landed else "failed",
        )
        with self._engine_lock:
            report = executor.execute(ExperimentPlan([cell]), journal=journal)
        measurement = report.measurements[0]
        if measurement is not None:
            emit(_cell_line(index, key, "measured", measurement))
            return "rescued"
        record = report.failures[0].to_dict() if report.failures else {}
        emit({"cell": index, "key": key, "failure": record})
        return record

    # -- observability ---------------------------------------------------------

    def stats(self) -> dict:
        """Cache / store / fault / dedup counters, JSON-able."""
        with self._state_lock:
            counters = dict(self._counters)
            engines = dict(self._engines)
        payload: dict = {
            "service": counters,
            "inflight_cells": len(self._flights),
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

    def run_status(self, run: str) -> tuple[dict, list[tuple[str, dict | None]]]:
        """Status + stored results of one run, for ``GET /runs/<id>``.

        The status is the run's ledger record; the stored-cell lines
        come from its key manifest, which a run keeps until it
        completes cleanly.  Resubmitting the plan is the resume path.
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
            status["note"] = "manifest dropped on clean completion"
            return status, []
        results = []
        for key in sorted(set(keys)):
            found = self.store.get(key)
            if found is not None:
                results.append((key, found.to_dict()))
        status["done"] = len(results)
        return status, results


# -- HTTP plumbing -------------------------------------------------------------


class ServiceHandler(BaseHTTPRequestHandler):
    """Thin HTTP adapter over :class:`MeasurementService`.

    Streamed responses use chunked transfer encoding, one JSON line
    per chunk, flushed as results land -- ``http.client`` (and any
    HTTP/1.1 client) reassembles them transparently.
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
        # of holding a handler thread (and, for leaders, the engine
        # lock's queue) hostage.
        self.timeout = self.service.write_deadline
        super().setup()

    def log_message(self, format: str, *args) -> None:
        logger.info("%s %s", self.address_string(), format % args)

    # -- response helpers ------------------------------------------------------

    def _send_json(
        self, status: int, payload: dict, retry_after: float | None = None
    ) -> None:
        body = json.dumps(payload).encode() + b"\n"
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
        server-side execution (followers may be waiting on the cells
        this request leads), so write failures flip a flag and further
        lines are dropped.
        """
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        self.close_connection = True
        state = {"broken": False}

        def emit(line: dict) -> None:
            if state["broken"]:
                return
            data = json.dumps(line).encode() + b"\n"
            try:
                self.wfile.write(b"%x\r\n" % len(data) + data + b"\r\n")
                self.wfile.flush()
            except OSError:
                state["broken"] = True
                self.service._count("broken_streams")
                logger.warning(
                    "client %s went away or stalled past the %.0fs write "
                    "deadline mid-stream; continuing the run for its "
                    "followers and the store",
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
            status, results = self.service.run_status(run)
        except ServiceError as exc:
            self._send_error(exc)
            return
        emit, state = self._start_stream()
        emit(status)
        for key, measurement in results:
            emit({"key": key, "measurement": measurement})
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
            state["emit"]({"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("request failed")
            if state is None:
                self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
                return
            state["emit"]({"error": f"{type(exc).__name__}: {exc}"})
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
