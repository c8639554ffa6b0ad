"""Client side of the campaign service: talk to ``python -m repro serve``.

Two layers:

* :class:`ServiceClient` -- a thin stdlib (:mod:`http.client`) wrapper
  over the service's HTTP/JSON endpoints.  Streams ``POST /plans``
  responses line by line as the server completes cells.
* :class:`RemoteExecutor` -- the executor-shaped adapter: it exposes
  the same ``execute(plan)`` / ``run(plan)`` / ``last_report`` surface
  as :class:`~repro.exec.executors.SerialExecutor`, so
  ``python -m repro sweep --server URL`` and
  :class:`~repro.measure.runner.MeasurementRunner` route through the
  service without any caller changes.  Because the service's responses
  are bit-identical to local execution, swapping executors never
  changes a result byte.

Wire notes: plan bodies are the one pooled form
(:func:`~repro.exec.serialize.plan_to_dict_v2`); responses are chunked
JSON Lines, which ``http.client`` decodes transparently, and its
response object supports ``readline()``, so streaming consumption is
just a loop.  Errors surface as :class:`~repro.errors.ServiceError` --
connection refusals, HTTP error documents and mid-stream
``{"error": ...}`` lines alike.

Resilience: both layers retry *transient* failures with capped,
deterministic (jitter-free -- reproducibility is the house rule)
exponential backoff.  :class:`ServiceClient` retries its idempotent
GETs (``/health``, ``/stats``, ``/runs``) through connection resets;
:class:`RemoteExecutor` retries whole plan submissions on transport
deaths and on the service's admission-control ``429``/``503`` answers,
honoring their ``Retry-After``.  Retrying a submission is always safe:
measurements are pure functions of content, so the retried response is
bit-identical, and a server with a store serves every cell an earlier
attempt persisted instead of measuring it again.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import time
from collections.abc import Iterator
from urllib.parse import urlsplit

from repro.errors import ServiceError
from repro.exec.plan import ExperimentPlan
from repro.exec.report import CellFailure, ExecutionReport
from repro.exec.serialize import plan_to_dict_v2
from repro.measure.measurement import Measurement

logger = logging.getLogger("repro.exec.client")

#: Deterministic client backoff: attempt N sleeps min(cap, base * 2^N)
#: (or the server's ``Retry-After`` if longer).  No jitter on purpose.
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 2.0

#: Default attempts-after-the-first for transient failures.
DEFAULT_CLIENT_RETRIES = 3


def _retry_sleep(attempt: int, retry_after: float | None = None) -> None:
    delay = min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * (2.0**attempt))
    if retry_after is not None:
        delay = max(delay, min(_BACKOFF_CAP_S, retry_after))
    time.sleep(delay)


def _retry_after_of(response: http.client.HTTPResponse) -> float | None:
    header = response.getheader("Retry-After")
    if header is None:
        return None
    try:
        return float(header)
    except ValueError:
        return None


def _decode_measurement(data, index: int) -> Measurement:
    """One streamed measurement; a body that does not decode is a
    :class:`ServiceError`, like any other malformed stream."""
    try:
        return Measurement.from_dict(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise ServiceError(
            f"campaign service streamed an undecodable measurement for "
            f"cell {index}: {exc!r}"
        ) from None


class ServiceClient:
    """HTTP client for one campaign-service endpoint.

    ``url`` is the server base, e.g. ``http://127.0.0.1:8787``.  One
    connection per request (the service closes streamed connections),
    so a client object is cheap and thread-compatible as long as each
    thread drives its own calls to completion.

    ``token`` (default: the ``REPRO_TOKEN`` environment variable) is
    sent as ``Authorization: Bearer <token>`` on every request when
    set.  ``retries`` bounds the transparent re-attempts of idempotent
    GETs through connection resets; plan submissions stream, so their
    retry policy lives in :class:`RemoteExecutor`.
    """

    def __init__(
        self,
        url: str,
        timeout: float | None = None,
        token: str | None = None,
        retries: int = DEFAULT_CLIENT_RETRIES,
    ) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http"):
            raise ServiceError(
                f"unsupported service URL scheme {parts.scheme!r} "
                "(the campaign service speaks plain http)"
            )
        try:
            port = parts.port
        except ValueError as exc:
            raise ServiceError(
                f"invalid campaign service URL {url!r}: {exc}"
            ) from None
        self.host = parts.hostname or "127.0.0.1"
        self.port = port or 80
        self.timeout = timeout
        self.token = (
            token if token is not None else os.environ.get("REPRO_TOKEN")
        ) or None
        self.retries = max(0, retries)
        self.url = f"http://{self.host}:{self.port}"

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def _request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        connection = self._connect()
        try:
            payload = None
            headers = {}
            if self.token:
                headers["Authorization"] = f"Bearer {self.token}"
            if body is not None:
                payload = json.dumps(body).encode()
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            raise ServiceError(
                f"cannot reach campaign service at {self.url}: {exc}",
                status=503,
            ) from None
        return connection, response

    def _json_once(self, method: str, path: str) -> dict:
        connection, response = self._request(method, path)
        try:
            try:
                data = response.read()
            except (OSError, http.client.HTTPException) as exc:
                raise ServiceError(
                    f"campaign service connection to {self.url} reset "
                    f"mid-response: {exc}",
                    status=503,
                ) from None
        finally:
            connection.close()
        document = self._decode(response, data)
        if response.status >= 400:
            raise ServiceError(
                document.get("error", f"HTTP {response.status} on {path}"),
                status=response.status,
                retry_after=_retry_after_of(response),
            )
        return document

    def _json(self, path: str) -> dict:
        """One ``GET`` round trip, retrying transient failures.

        Every JSON endpoint is an idempotent ``GET``, safe to re-issue
        by construction, so connection resets and backpressure answers
        get ``retries`` deterministic backed-off re-attempts.  The one
        ``POST`` (``/plans``) streams; its retry policy lives in
        :class:`RemoteExecutor`.
        """
        attempts = 1 + self.retries
        for attempt in range(attempts):
            try:
                return self._json_once("GET", path)
            except ServiceError as exc:
                if not exc.transient or attempt + 1 >= attempts:
                    raise
                logger.warning(
                    "retrying GET %s after transient failure "
                    "(attempt %d/%d): %s",
                    path, attempt + 1, attempts, exc,
                )
                _retry_sleep(attempt, exc.retry_after)
        raise AssertionError("unreachable")  # pragma: no cover

    @staticmethod
    def _decode(response: http.client.HTTPResponse, data: bytes) -> dict:
        try:
            document = json.loads(data) if data else {}
        except ValueError:
            raise ServiceError(
                f"campaign service answered HTTP {response.status} with "
                "a non-JSON body"
            ) from None
        if not isinstance(document, dict):
            raise ServiceError("campaign service answered a non-object body")
        return document

    def _stream(
        self, method: str, path: str, body: dict | None = None
    ) -> Iterator[dict]:
        connection, response = self._request(method, path, body)
        try:
            if response.status >= 400:
                document = self._decode(response, response.read())
                raise ServiceError(
                    document.get("error", f"HTTP {response.status} on {path}"),
                    status=response.status,
                    retry_after=_retry_after_of(response),
                )
            while True:
                try:
                    raw = response.readline()
                except (OSError, http.client.HTTPException) as exc:
                    # A mid-stream transport death (server killed, torn
                    # chunk framing) surfaces as the same error class
                    # as every other service failure, so callers (the
                    # executor's resubmission above all) handle one
                    # exception type.
                    raise ServiceError(
                        f"campaign service stream from {self.url} died "
                        f"mid-response: {exc}",
                        status=503,
                    ) from None
                if not raw:
                    break
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    line = json.loads(raw)
                except ValueError:
                    raise ServiceError(
                        "campaign service streamed a torn line; the "
                        "connection likely dropped mid-response"
                    ) from None
                if not isinstance(line, dict):
                    raise ServiceError(
                        "campaign service streamed a non-object line"
                    )
                if "error" in line:
                    raise ServiceError(str(line["error"]))
                yield line
        finally:
            connection.close()

    # -- endpoints -------------------------------------------------------------

    def health(self) -> dict:
        return self._json("/health")

    def stats(self) -> dict:
        return self._json("/stats")

    def runs(self) -> dict:
        return self._json("/runs")

    def run_status(self, run: str) -> Iterator[dict]:
        """Stream the ledger status and stored cells of one run."""
        return self._stream("GET", f"/runs/{run}")

    def submit(
        self,
        plan: ExperimentPlan,
        arch: str = "POWER7",
        seed: int = 0,
    ) -> Iterator[dict]:
        """Submit a plan; yield response lines as the server streams them.

        The first line is the run header, then one line per unique
        cell ordered by completion, then the trailer
        (``{"complete": true, ...}``).
        """
        request = plan_to_dict_v2(plan)
        request["arch"] = arch
        request["seed"] = seed
        return self._stream("POST", "/plans", request)


class RemoteExecutor:
    """Executor-shaped adapter running plans on a campaign service.

    Drop-in for the local executors: ``execute`` returns the same
    :class:`~repro.exec.report.ExecutionReport` (expanded measurements,
    structured failures) it would locally, built from the service's
    streamed lines.  ``store`` is ``None`` -- the store lives on the
    server.  On a run with quarantined cells the report's
    ``fault_counters`` carry the service-side accounting under
    ``service.*`` keys; clean runs keep them empty, matching the local
    executors (and keeping CLI output byte-identical either way).

    Transient failures -- the connection dying mid-stream, the service
    answering ``429``/``503`` backpressure -- are retried by
    resubmitting the whole plan up to ``retries`` times with capped
    deterministic backoff (``Retry-After`` honored).  Purity makes the
    resubmission free of side effects: the assembled report is
    bit-identical, and on a server with a store every cell the first
    attempt landed is warm, so the retry re-measures none of them.
    ``progress`` fires once per unique cell across all attempts.
    """

    def __init__(
        self,
        client: ServiceClient | str,
        arch: str = "POWER7",
        seed: int = 0,
        retries: int = DEFAULT_CLIENT_RETRIES,
    ) -> None:
        self.client = (
            client if isinstance(client, ServiceClient) else ServiceClient(client)
        )
        self.arch = arch
        self.seed = seed
        self.retries = max(0, retries)
        self.store = None
        self.last_report: ExecutionReport | None = None
        #: Transient-submission re-attempts performed over this
        #: executor's lifetime.
        self.transport_retries = 0

    def execute(self, plan: ExperimentPlan, progress=None) -> ExecutionReport:
        unique: list[Measurement | None] = [None] * plan.size
        counters: dict[str, int] = {}
        #: Cell indices already handed to ``progress`` -- a retried
        #: submission re-streams cells the dead attempt delivered, and
        #: callers must see each exactly once.
        delivered: set[int] = set()
        attempts = 1 + self.retries
        for attempt in range(attempts):
            failures: list[CellFailure] = []
            try:
                for line in self.client.submit(
                    plan, arch=self.arch, seed=self.seed
                ):
                    if "measurement" in line and "cell" in line:
                        index = line["cell"]
                        if type(index) is not int or not (
                            0 <= index < len(unique)
                        ):
                            raise ServiceError(
                                f"campaign service streamed cell {index!r} "
                                f"for a {len(unique)}-cell plan"
                            )
                        measurement = _decode_measurement(
                            line["measurement"], index
                        )
                        unique[index] = measurement
                        source = line.get("source", "measured")
                        if index not in delivered:
                            delivered.add(index)
                            counters[f"service.{source}"] = (
                                counters.get(f"service.{source}", 0) + 1
                            )
                            if progress is not None:
                                progress(
                                    [plan.cells[index]],
                                    [measurement],
                                    source == "store",
                                )
                    elif "failure" in line:
                        failures.append(
                            CellFailure.from_dict(line["failure"])
                        )
                    elif line.get("complete"):
                        counters["service.measured"] = line.get("measured", 0)
                break
            except ServiceError as exc:
                if not exc.transient or attempt + 1 >= attempts:
                    raise
                self.transport_retries += 1
                counters["service.retries"] = (
                    counters.get("service.retries", 0) + 1
                )
                logger.warning(
                    "resubmitting plan to %s after transient failure "
                    "(attempt %d/%d): %s",
                    self.client.url, attempt + 1, attempts, exc,
                )
                _retry_sleep(attempt, exc.retry_after)
        missing = sum(1 for entry in unique if entry is None)
        if missing and len(failures) < missing:
            raise ServiceError(
                f"campaign service stream ended with {missing} of "
                f"{len(unique)} cells unaccounted for"
            )
        report = ExecutionReport(
            measurements=tuple(plan.expand(unique)),
            failures=tuple(failures),
            fault_counters=counters if failures else {},
        )
        self.last_report = report
        return report

    def run(self, plan: ExperimentPlan) -> list[Measurement]:
        """Measurements in request order; raises if any cell failed."""
        return self.execute(plan).require_complete()
