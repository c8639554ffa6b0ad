"""Service hardening: run registry, admission control, drain, healing.

The robustness properties layered onto the campaign service:

* **durable run history** -- the flock'd run ledger
  ``<store>/registry.jsonl`` survives server restarts: a fresh service
  on the same store lists every past run, and runs left ``running`` by
  a dead process are recorded ``interrupted`` on start;
* **admission control** -- bearer-token auth (401), request/cell
  budgets and injected rejections answer 429 + ``Retry-After``, drain
  answers 503, and the client layers retry transparently with capped
  deterministic backoff -- always byte-identical to an un-throttled
  run, because measurements are pure and the store dedupes;
* **bounded engines** -- each seed a request names builds a resident
  engine, and past ``MAX_ENGINES`` the least recently used is dropped;
* **bounded reads** -- a malformed request body, a negative
  ``Content-Length`` included, is a prompt 400, never a handler
  blocked until its socket deadline, and a ``Content-Length`` above
  the service's cap is a 413 before any byte of the body is read.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.exec import (
    ExperimentPlan,
    MeasurementService,
    RemoteExecutor,
    RunRegistry,
    SerialExecutor,
    ServiceClient,
    build_server,
)
from repro.exec import faults
from repro.exec import service as service_module
from repro.exec.faults import FaultPlan
from repro.exec.journal import run_id
from repro.exec.registry import plan_digest
from repro.exec.serialize import plan_to_dict_v2
from repro.sim import Machine, MachineConfig

_DURATION = 1.0


def _start(service):
    server = build_server(service)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, f"http://127.0.0.1:{server.server_port}"


def _plan(make_kernel, count=24) -> ExperimentPlan:
    return ExperimentPlan.cross(
        [make_kernel("add", count=count), make_kernel("mulld", count=count)],
        [MachineConfig(1, 1), MachineConfig(2, 2)],
        duration=_DURATION,
    )


# -- run registry --------------------------------------------------------------


class TestRunRegistry:
    def test_record_replay_and_summary(self, tmp_path):
        registry = RunRegistry(tmp_path)
        registry.record("r1", "running", cells=4, plan="p")
        registry.record("r1", "complete", measured=4)
        registry.record("r2", "running", cells=2)
        assert len(registry) == 2 and "r1" in registry
        assert registry.get("r1")["state"] == "complete"
        assert registry.get("r1")["cells"] == 4  # earlier fields merge
        summary = registry.summary()
        assert summary["runs"] == 2
        assert summary["complete"] == 1 and summary["running"] == 1
        # A fresh instance replays the same view from disk.
        replayed = RunRegistry(tmp_path)
        assert [r["run"] for r in replayed.runs()] == ["r1", "r2"]
        assert replayed.get("r1")["measured"] == 4

    def test_torn_tail_is_skipped(self, tmp_path):
        registry = RunRegistry(tmp_path)
        registry.record("r1", "complete", measured=1)
        with registry.path.open("ab") as handle:
            handle.write(b'{"registry": "repro-registry-v1", "run": "r2"')
        replayed = RunRegistry(tmp_path)
        assert len(replayed) == 1
        assert replayed.get("r1")["state"] == "complete"

    def test_recover_reconciles_stale_running_entries(self, tmp_path):
        registry = RunRegistry(tmp_path)
        registry.record("dead", "running", cells=3)
        registry.record("fine", "complete", measured=1)
        registry.record("gone", "running", cells=1)
        registry.record("gone", "interrupted", error="boom")
        # The ledger is the only word: a run still "running" when a
        # server starts was interrupted by the previous process.
        corrected = registry.recover()
        assert corrected == 1
        assert registry.get("dead")["state"] == "interrupted"
        assert registry.get("dead")["recovered"] is True
        assert registry.get("fine")["state"] == "complete"
        assert "recovered" not in registry.get("gone")
        # Recovery is durable, not just in-memory.
        assert RunRegistry(tmp_path).get("dead")["state"] == "interrupted"
        assert RunRegistry(tmp_path).recover() == 0

    def test_compact_collapses_to_one_line_per_run(self, tmp_path):
        registry = RunRegistry(tmp_path)
        for attempt in range(3):
            registry.record("r1", "running", attempt=attempt)
            registry.record("r1", "complete", measured=attempt)
        assert registry.compact() == 5
        lines = [
            json.loads(line)
            for line in registry.path.read_bytes().splitlines()
            if line
        ]
        assert len(lines) == 1
        assert lines[0]["state"] == "complete" and lines[0]["measured"] == 2
        assert RunRegistry(tmp_path).get("r1")["state"] == "complete"

    def test_registry_survives_service_restart(
        self, tmp_path, small_kernel_factory, power7_arch
    ):
        plan = _plan(small_kernel_factory)
        keys = None
        service = MeasurementService(store=tmp_path / "store")
        try:
            lines = []
            trailer = service.submit(
                plan_request(plan), lambda: _collect(lines)
            )
            keys = [
                service._engine("POWER7", 0).key_of(cell)
                for cell in plan.cells
            ]
            assert trailer["complete"] is True
        finally:
            service.close()
        run = run_id(keys)
        # A brand-new service on the same store remembers the run even
        # though it dropped its key manifest on completion.
        reborn = MeasurementService(store=tmp_path / "store")
        try:
            listing = reborn.runs_listing()
            assert [r["run"] for r in listing["runs"]] == [run]
            record = reborn.registry.get(run)
            assert record["state"] == "complete"
            assert record["plan_digest"] == plan_digest(keys)
            status, _ = reborn.run_status(run)
            assert status["found"] is True and status["state"] == "complete"
        finally:
            reborn.close()


def plan_request(plan, **extra):
    request = plan_to_dict_v2(plan)
    request.update(extra)
    return request


def _collect(lines: list):
    """An emit for driving :meth:`MeasurementService.submit` directly:
    it decodes each streamed chunk's JSON lines into ``lines``."""
    return lambda data: lines.extend(map(json.loads, data.splitlines()))


# -- admission control ---------------------------------------------------------


class TestAdmissionControl:
    def test_token_auth(self, tmp_path, small_kernel_factory):
        service = MeasurementService(store=tmp_path / "store", token="s3cret")
        server, url = _start(service)
        try:
            # /health stays open (load balancers probe unauthenticated).
            assert ServiceClient(url, token=None).health()["ok"] is True
            with pytest.raises(ServiceError) as excinfo:
                ServiceClient(url, token=None).stats()
            assert excinfo.value.status == 401
            with pytest.raises(ServiceError) as excinfo:
                ServiceClient(url, token="wrong").runs()
            assert excinfo.value.status == 401
            authed = ServiceClient(url, token="s3cret")
            assert authed.stats()["admission"]["auth"] is True
            plan = ExperimentPlan.single(
                small_kernel_factory("add", count=24),
                MachineConfig(1, 1),
                _DURATION,
            )
            report = RemoteExecutor(authed).execute(plan)
            assert report.ok
            assert service._counters["auth_failures"] == 2
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_request_budget_answers_429_and_retry_succeeds(
        self, tmp_path, small_kernel_factory, power7_arch
    ):
        plan = ExperimentPlan.single(
            small_kernel_factory("add", count=24),
            MachineConfig(1, 1),
            _DURATION,
        )
        baseline = SerialExecutor(Machine(power7_arch)).run(plan)
        service = MeasurementService(
            store=tmp_path / "store", max_requests=1, retry_after=0.05
        )
        server, url = _start(service)
        try:
            # Saturate the budget, as a stuck request would.
            service._admit("occupier", 0)
            with pytest.raises(ServiceError) as excinfo:
                RemoteExecutor(url, retries=0).execute(plan)
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == pytest.approx(0.05)
            assert excinfo.value.transient
            # With retry budget, the client rides out the backpressure
            # window transparently -- and the bytes are identical.
            releaser = threading.Timer(0.2, service._release, args=(0,))
            releaser.start()
            try:
                report = RemoteExecutor(url, retries=4).execute(plan)
            finally:
                releaser.join()
            assert report.ok
            assert list(report.measurements) == baseline
            assert service._counters["rejected_requests"] >= 1
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_cell_budget_rejects_second_plan_not_first(self, tmp_path):
        service = MeasurementService(
            store=tmp_path / "store", max_inflight_cells=10
        )
        try:
            # An oversized plan admits against an empty budget...
            service._admit("big", 50)
            # ...but the next submission bounces until it drains.
            with pytest.raises(ServiceError) as excinfo:
                service._admit("next", 1)
            assert excinfo.value.status == 429
            service._release(50)
            service._admit("next", 1)
            service._release(1)
        finally:
            service.close()

    def test_injected_rejection_is_deterministic_and_retryable(
        self, tmp_path, small_kernel_factory, power7_arch
    ):
        plan = _plan(small_kernel_factory)
        baseline = SerialExecutor(Machine(power7_arch)).run(plan)
        with faults.injected(FaultPlan(seed=3).arm("reject")):
            service = MeasurementService(store=tmp_path / "store")
            server, url = _start(service)
            try:
                with pytest.raises(ServiceError) as excinfo:
                    RemoteExecutor(url, retries=0).execute(plan)
                assert excinfo.value.status == 429
                # The reject site is transient (times=1): the same
                # submission retried passes admission and the response
                # byte-matches the serial baseline.
                report = RemoteExecutor(url, retries=2).execute(plan)
                assert report.ok
                assert list(report.measurements) == baseline
                assert service._counters["rejected_requests"] >= 1
            finally:
                server.shutdown()
                server.server_close()
                service.close()

    def test_drain_rejects_with_503_and_goes_idle(
        self, tmp_path, small_kernel_factory
    ):
        plan = _plan(small_kernel_factory)
        service = MeasurementService(store=tmp_path / "store")
        server, url = _start(service)
        try:
            report = RemoteExecutor(url, retries=0).execute(plan)
            assert report.ok
            service.drain()
            assert ServiceClient(url).health()["draining"] is True
            with pytest.raises(ServiceError) as excinfo:
                RemoteExecutor(url, retries=0).execute(plan)
            assert excinfo.value.status == 503
            assert excinfo.value.transient
            assert service.wait_idle(timeout=5.0) is True
            assert service._counters["drain_rejected"] == 1
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_stalled_service_stream_is_still_bit_identical(
        self, tmp_path, small_kernel_factory, power7_arch
    ):
        plan = _plan(small_kernel_factory)
        baseline = SerialExecutor(Machine(power7_arch)).run(plan)
        with faults.injected(
            FaultPlan(seed=1).arm("stall"),
        ) as armed:
            armed.stall_s = 0.2
            service = MeasurementService(store=tmp_path / "store")
            server, url = _start(service)
            try:
                report = RemoteExecutor(url).execute(plan)
            finally:
                server.shutdown()
                server.server_close()
                service.close()
        assert report.ok
        assert list(report.measurements) == baseline


class TestResidentEngines:
    def test_engines_are_bounded_least_recently_used_first(
        self, small_kernel_factory, power7_arch
    ):
        """Seeds come from request bodies: past ``MAX_ENGINES`` the
        least recently used engine is dropped, and a returning seed
        gets a fresh engine that measures the same bytes."""
        limit = service_module.MAX_ENGINES
        plan = ExperimentPlan.single(
            small_kernel_factory("add", count=24),
            MachineConfig(2, 2),
            _DURATION,
        )
        body = plan_to_dict_v2(plan)
        service = MeasurementService()
        lines: list[dict] = []
        try:
            for seed in range(limit + 2):
                service.submit({**body, "seed": seed}, lambda: _collect(lines))
            seeds = [engine["seed"] for engine in service.stats()["engines"]]
            assert seeds == list(range(2, limit + 2))
            # A hit makes seed 2 the most recently used, so seed 3 goes.
            service.submit({**body, "seed": 2}, lambda: _collect(lines))
            lines.clear()
            service.submit({**body, "seed": 0}, lambda: _collect(lines))
            seeds = [engine["seed"] for engine in service.stats()["engines"]]
            assert seeds == [*range(4, limit + 2), 2, 0]
        finally:
            service.close()
        (cell,) = [line for line in lines if "measurement" in line]
        expected = SerialExecutor(Machine(power7_arch, seed=0)).run(plan)
        assert cell["measurement"] == expected[0].to_dict()


class TestClientRetries:
    def test_idempotent_gets_retry_through_transient_failures(
        self, monkeypatch
    ):
        client = ServiceClient("http://127.0.0.1:1", retries=3)
        calls = {"n": 0}

        def flaky(method, path, body=None):
            calls["n"] += 1
            if calls["n"] < 3:
                raise ServiceError("connection reset", status=503)
            return {"ok": True}

        monkeypatch.setattr(client, "_json_once", flaky)
        monkeypatch.setattr("repro.exec.client.time.sleep", lambda s: None)
        assert client.health() == {"ok": True}
        assert calls["n"] == 3

    def test_post_never_retries_and_terminal_errors_propagate(
        self, monkeypatch, small_kernel_factory
    ):
        client = ServiceClient("http://127.0.0.1:1", retries=3)
        calls = {"n": 0}

        def always_down(method, path, body=None):
            calls["n"] += 1
            raise ServiceError("boom", status=503)

        monkeypatch.setattr(client, "_request", always_down)
        monkeypatch.setattr("repro.exec.client.time.sleep", lambda s: None)
        plan = ExperimentPlan.single(
            small_kernel_factory("add", count=24), MachineConfig(1, 1), _DURATION
        )
        with pytest.raises(ServiceError):
            list(client.submit(plan))
        # POST /plans: no transparent retry (RemoteExecutor owns it).
        assert calls["n"] == 1
        calls["n"] = 0
        with pytest.raises(ServiceError):
            client.stats()
        assert calls["n"] == 4  # GET: 1 + retries attempts

    def test_non_transient_errors_never_retry(self, monkeypatch):
        client = ServiceClient("http://127.0.0.1:1", retries=3)
        calls = {"n": 0}

        def bad_request(method, path, body=None):
            calls["n"] += 1
            raise ServiceError("nope", status=404)

        monkeypatch.setattr(client, "_json_once", bad_request)
        with pytest.raises(ServiceError):
            client.runs()
        assert calls["n"] == 1


def _raw_post(server, length_header: bytes, body: bytes):
    """(whole reply, seconds to it) of one raw ``POST /plans``."""
    with socket.create_connection(
        ("127.0.0.1", server.server_port), timeout=10
    ) as sock:
        start = time.monotonic()
        sock.sendall(
            b"POST /plans HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\n"
            + length_header
            + b"\r\n"
            + body
        )
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
        return reply, time.monotonic() - start


class TestMalformedRequests:
    def test_negative_content_length_is_a_prompt_400(self):
        """``rfile.read(-1)`` would block until the client hangs up; the
        handler must answer at once instead of at its socket deadline."""
        service = MeasurementService(write_deadline=3.0)
        server, _url = _start(service)
        try:
            reply, elapsed = _raw_post(server, b"Content-Length: -1\r\n", b"")
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"malformed request body" in reply
        assert elapsed < 1.5  # the write deadline is 3 s

    def test_oversized_content_length_is_a_prompt_413(self):
        """A claimed length the server cannot hold is refused unread:
        ``rfile.read`` would allocate all of it up front."""
        service = MeasurementService(write_deadline=3.0)
        server, url = _start(service)
        try:
            reply, elapsed = _raw_post(
                server, b"Content-Length: %d\r\n" % 10**15, b'{"wire": "plan-v2"}'
            )
            # The server keeps serving.
            health = ServiceClient(url, retries=0).health()
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        assert reply.startswith(b"HTTP/1.1 413 ")
        assert b"exceeds the" in reply
        assert elapsed < 1.0
        assert health["ok"] is True

    def test_body_cap_is_inclusive(self, monkeypatch, small_kernel_factory):
        body = plan_to_dict_v2(_plan(small_kernel_factory, count=12))
        body.update(arch="POWER7", seed=0)
        data = json.dumps(body).encode()
        monkeypatch.setattr(service_module, "MAX_BODY_BYTES", len(data))
        service = MeasurementService(write_deadline=3.0)
        server, _url = _start(service)
        try:
            length = b"Content-Length: %d\r\n" % len(data)
            accepted, _ = _raw_post(server, length, data)
            longer = b"Content-Length: %d\r\n" % (len(data) + 1)
            refused, _ = _raw_post(server, longer, data + b" ")
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        assert accepted.startswith(b"HTTP/1.1 200 ")
        assert b'"measurement"' in accepted
        assert refused.startswith(b"HTTP/1.1 413 ")

    def test_non_numeric_port_is_a_service_error(self):
        for url in ("http://127.0.0.1:notaport", "127.0.0.1:99999"):
            with pytest.raises(ServiceError, match="invalid campaign service"):
                ServiceClient(url)
        with pytest.raises(ServiceError, match="notaport"):
            RemoteExecutor("http://127.0.0.1:notaport")


# -- kill -9 the server --------------------------------------------------------


def _serve_env(fault_spec: str | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), "src") if p
    )
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_TOKEN", None)
    if fault_spec:
        env["REPRO_FAULTS"] = fault_spec
    return env


def _spawn_server(store_dir, fault_spec=None):
    """``python -m repro serve`` on an ephemeral port; (process, url)."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--store",
            str(store_dir),
            "--port",
            "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_serve_env(fault_spec),
    )
    # The banner line carries the bound ephemeral port.
    banner = process.stdout.readline()
    assert "campaign service on " in banner, banner
    url = banner.split("campaign service on ", 1)[1].split()[0]
    return process, url


class TestServerKillNineRestart:
    def test_sigkilled_server_restarts_and_resumes_warm(
        self, tmp_path, power7_arch, open_store
    ):
        """The tentpole acceptance: kill -9 ``repro serve`` mid-run,
        restart it on the same store, and the restarted server (a) lists
        the interrupted run in ``GET /runs`` via the recovered registry,
        and (b) serves the resubmitted plan with zero re-measurement of
        warm cells, byte-identical to a one-shot serial execution."""
        from repro.march import get_architecture
        from repro.workloads import daxpy_kernels

        store_dir = tmp_path / "store"
        arch = get_architecture("POWER7")
        plan = ExperimentPlan.cross(
            [daxpy_kernels(arch, loop_size=96)[0]],
            [
                MachineConfig(1, 1), MachineConfig(2, 1), MachineConfig(2, 2),
                MachineConfig(4, 1), MachineConfig(4, 2), MachineConfig(4, 4),
            ],
            duration=_DURATION,
        )
        keys = [
            SerialExecutor(Machine(arch)).key_of(cell) for cell in plan.cells
        ]
        run = run_id(keys)

        # First server: paced (each shard append sleeps 0.5 s) so it
        # is killable between durable appends.
        process, url = _spawn_server(store_dir, "slow:1,slow_s:0.5")
        failure: list = []

        def submit_and_die():
            try:
                RemoteExecutor(url, retries=0).execute(plan)
            except ServiceError:
                pass  # the stream dies with the server -- expected
            except Exception as exc:  # pragma: no cover - diagnostics
                failure.append(exc)

        client_thread = threading.Thread(target=submit_and_die, daemon=True)
        try:
            client_thread.start()
            deadline = time.monotonic() + 60
            while len(open_store(store_dir)) < 2:
                assert time.monotonic() < deadline, "no progress to kill"
                assert process.poll() is None, process.communicate()[1]
                time.sleep(0.05)
            os.kill(process.pid, signal.SIGKILL)
            process.communicate(timeout=30)
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.communicate()
        assert process.returncode == -signal.SIGKILL
        client_thread.join(timeout=30)
        assert not failure, failure
        persisted = len(open_store(store_dir))
        assert 2 <= persisted < len(plan.cells)
        # The kill -9 left the registry's last word at "running".
        assert RunRegistry(store_dir).get(run)["state"] == "running"

        # Second server, same store, no faults: start-up recovery
        # reconciles the stale entry, GET /runs lists the interruption.
        process, url = _spawn_server(store_dir)
        try:
            client = ServiceClient(url)
            listing = client.runs()
            record = {r["run"]: r for r in listing["runs"]}[run]
            assert record["state"] == "interrupted"
            assert record["recovered"] is True
            assert listing["journals"]["interrupted"] == 1

            # Resubmit: the warm cells serve from the store with zero
            # re-measurement, the rest measure, and the whole response
            # is byte-identical to a one-shot serial run.
            report = RemoteExecutor(url).execute(plan)
            assert report.ok
            stats = client.stats()
            assert stats["service"]["warm_cells"] == persisted
            assert stats["service"]["measured_cells"] == (
                len(plan.cells) - persisted
            )
            assert client.runs()["registry"]["complete"] == 1
            clean = SerialExecutor(Machine(power7_arch)).run(plan)
            assert list(report.measurements) == clean
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                out, err = process.communicate(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover
                process.kill()
                out, err = process.communicate()
        # SIGTERM is the drain path: exit 0, drain banner printed.
        assert process.returncode == 0, (out, err)
        assert "drained" in out
