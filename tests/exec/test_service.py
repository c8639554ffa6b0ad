"""Campaign service: equivalence, at-most-once, warm serving, chaos.

The acceptance properties of ``python -m repro serve``:

* **equivalence** -- a plan submitted over HTTP streams back
  bit-identical measurements (same bytes, same noise draws, same store
  keys) to a one-shot in-process ``SerialExecutor.run``, on both the
  vectorized and the scalar measurement plane, across randomized
  topology/placement/p-state plans;
* **at-most-once** -- with a store, concurrent clients submitting
  overlapping plans trigger each distinct cell's measurement exactly
  once (a request queued behind another is served what that one
  persisted), and every client still receives complete results;
* **warm serving** -- a re-submitted plan is answered entirely from
  the result store with *zero* ``Machine`` measurement calls;
* **chaos** -- transient store I/O faults under the server leave the
  response byte-identical, with zero quarantined cells;
* **one run per request** -- a served request is exactly one run in
  the ledger, under the id its stream header reports.
"""

import json
import random
import threading

import pytest

from repro.errors import ServiceError
from repro.exec import (
    ExperimentPlan,
    MeasurementService,
    PlanCell,
    RemoteExecutor,
    SerialExecutor,
    ServiceClient,
    build_server,
)
from repro.exec import faults
from repro.exec.faults import FaultPlan
from repro.exec.journal import RunJournal
from repro.exec.plan import workload_fingerprint
from repro.exec.serialize import plan_to_dict_v2
from repro.measure.measurement import Measurement
from repro.sim import Machine, MachineConfig, Placement, get_pstate
from repro.sim.topology import parse_topology
from repro.workloads import spec_cpu2006
from tests.oracle import OracleMachine

_DURATION = 1.0


# -- plumbing ------------------------------------------------------------------


def _start(service):
    """Serve ``service`` on an ephemeral port; return (server, url)."""
    server = build_server(service)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, f"http://127.0.0.1:{server.server_port}"


def _collect(lines: list):
    """An emit for driving :meth:`MeasurementService.submit` directly:
    it decodes each streamed chunk's JSON lines into ``lines``."""
    return lambda data: lines.extend(map(json.loads, data.splitlines()))


@pytest.fixture()
def served(tmp_path):
    """A store-backed serial service listening on localhost."""
    service = MeasurementService(store=tmp_path / "store")
    server, url = _start(service)
    yield service, url
    server.shutdown()
    server.server_close()
    service.close()


def _instrument(machine):
    """Count every measurement entering ``machine``, by cell identity.

    ``run_cells`` is the executor's one measurement entry point, so
    wrapping it observes every physical measurement the service
    performs.
    """
    measured: list[tuple] = []
    lock = threading.Lock()
    original = machine.run_cells

    def counting_cells(cells, plan=None):
        with lock:
            measured.extend(
                (
                    workload_fingerprint(cell.workload),
                    cell.config.label,
                    cell.duration,
                )
                for cell in cells
            )
        return original(cells, plan=plan)

    machine.run_cells = counting_cells
    return measured


def _random_plan(rng, make_kernel) -> ExperimentPlan:
    """One randomized plan: workload kinds x configs/topologies x DVFS."""
    kernels = [
        make_kernel("add", count=24),
        make_kernel("mulld", count=24, dep=4),
        make_kernel("lxvw4x", count=24, level="L1"),
        make_kernel("ld", count=24, level="MEM"),
    ]
    workloads = rng.sample(kernels, rng.randint(1, 3))
    if rng.random() < 0.5:
        workloads.append(spec_cpu2006()[rng.randrange(6)])
    configs = rng.sample(
        [
            MachineConfig(1, 1),
            MachineConfig(2, 2),
            MachineConfig(4, 1),
            parse_topology("2big+2little"),
            parse_topology("2big-2@p2+2little"),
        ],
        rng.randint(1, 2),
    )
    p_states = (
        [get_pstate(name) for name in rng.sample(["turbo", "nominal", "p3"], 2)]
        if rng.random() < 0.5
        else None
    )
    plan = ExperimentPlan.cross(
        workloads, configs, p_states=p_states, duration=_DURATION
    )
    if rng.random() < 0.5:
        # A placement cell must match its configuration's geometry
        # exactly, so it rides along on its own 2x1 scenario.
        mix = Placement("mix", ((kernels[0],), (kernels[3],)))
        extra = PlanCell(mix, MachineConfig(2, 1), _DURATION)
        plan = ExperimentPlan(list(plan.cells) + [extra])
    return plan


# -- equivalence ---------------------------------------------------------------


class TestServedEquivalence:
    def test_randomized_plans_bit_identical_both_planes(
        self, served, power7_arch, small_kernel_factory
    ):
        """Property: for random plans, server responses equal one-shot
        serial execution exactly, on the fused plane and on the scalar
        oracle."""
        service, url = served
        rng = random.Random(20120212)
        for round_number in range(4):
            plan = _random_plan(rng, small_kernel_factory)
            local_machine = (
                Machine(power7_arch)
                if round_number % 2 == 0
                else OracleMachine(power7_arch)
            )
            local = SerialExecutor(local_machine).run(plan)
            remote = RemoteExecutor(url).run(plan)
            assert remote == local, f"round {round_number} diverged"

    def test_streamed_lines_carry_store_keys(
        self, served, machine, small_kernel_factory
    ):
        """Response lines carry the same content-addressed keys the
        local engine computes, in a complete header/cells/trailer
        stream."""
        service, url = served
        plan = ExperimentPlan.cross(
            [small_kernel_factory("add", count=24)],
            [MachineConfig(1, 1), MachineConfig(2, 2)],
            duration=_DURATION,
        )
        local = SerialExecutor(machine)
        expected = {local.key_of(cell) for cell in plan.cells}
        lines = list(ServiceClient(url).submit(plan))
        header, cells, trailer = lines[0], lines[1:-1], lines[-1]
        assert header["cells"] == plan.size
        assert {line["key"] for line in cells} == expected
        assert trailer["complete"] and trailer["measured"] == plan.size

    def test_seeded_machines_are_distinct_tenants(
        self, served, power7_arch, small_kernel_factory
    ):
        service, url = served
        plan = ExperimentPlan.single(
            small_kernel_factory("add", count=24),
            MachineConfig(2, 2),
            _DURATION,
        )
        seed0 = RemoteExecutor(url, seed=0).run(plan)[0]
        seed7 = RemoteExecutor(url, seed=7).run(plan)[0]
        assert seed0 == SerialExecutor(Machine(power7_arch, seed=0)).run(plan)[0]
        assert seed7 == SerialExecutor(Machine(power7_arch, seed=7)).run(plan)[0]
        assert seed0 != seed7


# -- warm serving and concurrent clients ---------------------------------------


class TestWarmAndSingleFlight:
    def test_warm_requery_performs_zero_measurements(
        self, served, small_kernel_factory
    ):
        service, url = served
        plan = ExperimentPlan.cross(
            [
                small_kernel_factory("add", count=24),
                small_kernel_factory("mulld", count=24),
            ],
            [MachineConfig(1, 1), MachineConfig(2, 2)],
            duration=_DURATION,
        )
        remote = RemoteExecutor(url)
        cold = remote.run(plan)
        engine = next(iter(service._engines.values()))
        measured = _instrument(engine.machine)
        warm = remote.run(plan)
        assert warm == cold
        assert measured == []  # served entirely from the store
        counters = ServiceClient(url).stats()["service"]
        assert counters["measured_cells"] == plan.size
        assert counters["warm_cells"] == plan.size

    def test_concurrent_overlapping_clients_measure_each_cell_once(
        self, served, power7_arch, small_kernel_factory
    ):
        """N clients, overlapping plans: every client gets complete,
        bit-identical results; each distinct cell is measured at most
        once across the whole service."""
        service, url = served
        kernels = [
            small_kernel_factory(mnemonic, count=24)
            for mnemonic in ("add", "mulld", "addic", "ld")
        ]
        shared = [MachineConfig(1, 1), MachineConfig(2, 2)]
        plans = [
            ExperimentPlan.cross(
                [kernels[number], kernels[(number + 1) % 4]],
                shared,
                duration=_DURATION,
            )
            for number in range(4)
        ]
        # Pre-create the engine so the measurement instrumentation is
        # in place before any client arrives.
        engine = service._engine("POWER7", 0)
        measured = _instrument(engine.machine)

        results: dict[int, list] = {}
        errors: list[Exception] = []
        barrier = threading.Barrier(len(plans))

        def client(number: int) -> None:
            try:
                barrier.wait()
                results[number] = RemoteExecutor(url).run(plans[number])
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(number,))
            for number in range(len(plans))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        # Complete, bit-identical results for every client.
        reference = SerialExecutor(Machine(power7_arch))
        for number, plan in enumerate(plans):
            assert results[number] == reference.run(plan)
        # Each distinct cell measured exactly once service-wide.
        distinct = {
            cell.identity() for plan in plans for cell in plan.cells
        }
        assert len(measured) == len(set(measured)) == len(distinct)
        counters = ServiceClient(url).stats()["service"]
        assert counters["measured_cells"] == len(distinct)
        assert counters["warm_cells"] + counters["measured_cells"] == sum(
            plan.size for plan in plans
        )

    def test_queued_duplicate_is_served_from_the_store(
        self, tmp_path, small_kernel_factory
    ):
        """While one request measures, an identical one queues for the
        engine; once it runs, its own store probe serves every cell
        the first persisted -- the same bytes, nothing re-measured."""
        service = MeasurementService(store=tmp_path / "store")
        try:
            plan = ExperimentPlan.cross(
                [small_kernel_factory("add", count=24)],
                [MachineConfig(1, 1), MachineConfig(2, 2)],
                duration=_DURATION,
            )
            engine = service._engine("POWER7", 0)
            entered, release = threading.Event(), threading.Event()
            original = engine.machine.run_cells

            def gated(cells, plan=None):
                entered.set()
                assert release.wait(30)
                return original(cells, plan=plan)

            engine.machine.run_cells = gated
            outputs: dict[str, list] = {"first": [], "duplicate": []}

            def submit(label: str) -> None:
                service.submit(
                    plan_to_dict_v2(plan), lambda: _collect(outputs[label])
                )

            first = threading.Thread(target=submit, args=("first",))
            first.start()
            assert entered.wait(30)  # the first is inside the measurement
            duplicate = threading.Thread(target=submit, args=("duplicate",))
            duplicate.start()
            # Give the duplicate time to probe the store (every cell is
            # still cold) and queue for the engine, then let the first
            # request's measurement finish.
            threading.Event().wait(0.3)
            release.set()
            first.join(timeout=60)
            duplicate.join(timeout=60)
            assert not first.is_alive() and not duplicate.is_alive()
            counters = service.stats()["service"]
            assert counters["measured_cells"] == plan.size
            assert counters["warm_cells"] == plan.size
            cells = {
                label: [line for line in lines if "measurement" in line]
                for label, lines in outputs.items()
            }
            assert {line["source"] for line in cells["first"]} == {"measured"}
            assert {line["source"] for line in cells["duplicate"]} == {"store"}
            assert len(cells["duplicate"]) == plan.size
            assert {
                line["key"]: line["measurement"] for line in cells["duplicate"]
            } == {line["key"]: line["measurement"] for line in cells["first"]}
        finally:
            service.close()


# -- serving from bytes --------------------------------------------------------


def _stored_bodies(root) -> dict[bytes, bytes]:
    """Store key -> the body bytes of its record, as in the shard file."""
    bodies = {}
    for shard in sorted((root / "shards").glob("*.jsonl")):
        for line in shard.read_bytes().splitlines():
            start = line.index(b'"measurement": ') + len(b'"measurement": ')
            key = json.loads(line)["key"].encode()
            bodies[key] = line[start : line.rindex(b', "sum": "')]
    return bodies


class TestServeFromBytes:
    def test_warm_serving_does_no_codec_work(
        self, tmp_path, small_kernel_factory, monkeypatch
    ):
        """A fully warm ``POST /plans`` and ``GET /runs/<id>`` decode and
        encode no measurement on the server: each warm line carries the
        cell's stored body bytes verbatim."""
        service = MeasurementService(store=tmp_path / "store")
        plan = ExperimentPlan.cross(
            [
                small_kernel_factory("add", count=24),
                small_kernel_factory("lxvw4x", count=24, level="L1"),
            ],
            [MachineConfig(1, 1), MachineConfig(4, 4)],
            duration=_DURATION,
        )
        request = plan_to_dict_v2(plan)
        chunks: list[bytes] = []
        try:
            service.submit(request, lambda: _collect([]))
            stored = _stored_bodies(service.store.root)

            def forbid(*args, **kwargs):  # pragma: no cover - failure path
                raise AssertionError("measurement codec on a warm serve")

            monkeypatch.setattr(Measurement, "from_dict", forbid)
            monkeypatch.setattr(Measurement, "to_dict", forbid)
            trailer = service.submit(request, lambda: chunks.append)
            # An unfinished attempt of the run keeps a manifest, so
            # ``GET /runs/<id>`` streams the cells the store holds.
            keys = service._engine("POWER7", 0).keys_of(plan)
            RunJournal(service.registry, trailer["run"]).start(
                keys, plan.describe()
            )
            status, lines = service.run_status(trailer["run"])
            monkeypatch.undo()
        finally:
            service.close()
        header, *cells, end = b"".join(chunks).splitlines(keepends=True)
        assert json.loads(header)["run"] == trailer["run"]
        assert json.loads(end)["warm"] == plan.size == len(cells)
        assert status["done"] == plan.size == len(lines)
        for line in cells + lines:
            record = json.loads(line)
            assert record.get("source", "store") == "store"
            body = stored[record["key"].encode()]
            assert line.endswith(b'"measurement": ' + body + b"}\n")


# -- chaos ---------------------------------------------------------------------


class TestServedChaos:
    def test_transient_store_io_is_survived(
        self, tmp_path, power7_arch, small_kernel_factory
    ):
        plan = ExperimentPlan.cross(
            [small_kernel_factory("add", count=24)],
            [MachineConfig(1, 1), MachineConfig(2, 2)],
            duration=_DURATION,
        )
        baseline = SerialExecutor(Machine(power7_arch)).run(plan)
        with faults.injected(FaultPlan(seed=5).arm("io")):
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

    @pytest.mark.parametrize(
        "stored", [False, True], ids=["storeless", "store"]
    )
    def test_quarantined_cells_stream_failure_lines(
        self, tmp_path, power7_arch, stored
    ):
        """Cells that fail every attempt stream one ``failure`` line at
        their own index; every other cell matches the local run."""
        plan = ExperimentPlan.cross(
            spec_cpu2006()[:4],
            [MachineConfig(1, 1), MachineConfig(2, 2)],
            duration=_DURATION,
        )

        def poison() -> FaultPlan:
            return FaultPlan(seed=4).arm("poison", probability=0.4)

        with faults.injected(poison()):
            local = SerialExecutor(Machine(power7_arch), retries=0).execute(
                plan
            )
        quarantined = [
            index
            for index, measurement in enumerate(local.measurements)
            if measurement is None
        ]
        assert quarantined == [0, 1, 7]
        service = MeasurementService(
            store=tmp_path / "store" if stored else None, retries=0
        )
        server, url = _start(service)
        try:
            with faults.injected(poison()):
                lines = list(ServiceClient(url).submit(plan))
            counters = service.stats()["service"]
            trailer = lines[-1]
            if stored:
                record = service.registry.get(trailer["run"])
                assert record["state"] == "quarantined"
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        failed = {
            line["cell"]: line["failure"] for line in lines if "failure" in line
        }
        assert sorted(failed) == quarantined
        assert len(failed) == sum(1 for line in lines if "failure" in line)
        for index in quarantined:
            cell = plan.cells[index]
            assert failed[index]["workload_name"] == cell.workload.name
            assert failed[index]["config_label"] == cell.config.label
        assert trailer["failures"] == [failed[index] for index in quarantined]
        assert {
            line["cell"]: line["measurement"]
            for line in lines
            if "measurement" in line
        } == {
            index: measurement.to_dict()
            for index, measurement in enumerate(local.measurements)
            if measurement is not None
        }
        assert counters["quarantined_cells"] == 3


# -- endpoints and error paths -------------------------------------------------


class TestEndpoints:
    def test_health_stats_and_runs(self, served, small_kernel_factory):
        service, url = served
        client = ServiceClient(url)
        assert client.health()["ok"] is True
        plan = ExperimentPlan.single(
            small_kernel_factory("add", count=24),
            MachineConfig(1, 1),
            _DURATION,
        )
        lines = list(client.submit(plan))
        run = lines[0]["run"]
        stats = client.stats()
        assert stats["service"]["requests"] == 1
        assert stats["store"]["cells"] == 1
        # The run completed cleanly, so it dropped its key manifest --
        # but the run ledger still remembers it, and the resume
        # endpoint serves the durable record.
        status = next(iter(client.run_status(run)))
        assert status["found"] is True
        assert status["state"] == "complete"
        assert status["registry"]["measured"] == 1
        assert stats["service"]["journals_gcd"] == 1
        assert stats["registry"]["complete"] == 1
        listing = client.runs()
        assert [record["run"] for record in listing["runs"]] == [run]
        assert listing["registry"]["runs"] == 1
        # A run id never seen by this store is a clean not-found.
        missing = next(iter(client.run_status("0" * 24)))
        assert missing["found"] is False

    def test_interrupted_run_is_resumable(self, served, small_kernel_factory):
        """A run that never recorded its end keeps its manifest and
        serves its stored cells through ``GET /runs/<id>``."""
        service, url = served
        client = ServiceClient(url)
        plan = ExperimentPlan.single(
            small_kernel_factory("add", count=24),
            MachineConfig(1, 1),
            _DURATION,
        )
        lines = list(client.submit(plan))
        run, key = lines[0]["run"], lines[1]["key"]
        # Reconstruct an interrupted attempt: manifest + running record,
        # no final record.
        from repro.exec.journal import RunJournal

        RunJournal(service.registry, run).start([key], plan.describe())
        status, *cells = list(client.run_status(run))
        assert status["found"] is True and status["completed"] is False
        assert status["state"] == "running" and status["done"] == 1
        assert cells[0]["key"] == key
        assert cells[0]["measurement"] is not None

    def test_cold_request_with_warm_cells_is_one_run(
        self, served, small_kernel_factory
    ):
        """Warm cells, a cold sub-plan and the request around them:
        exactly one run in ``GET /runs``, under the header's run id."""
        service, url = served
        client = ServiceClient(url)
        add = small_kernel_factory("add", count=24)
        configs = [MachineConfig(1, 1), MachineConfig(2, 2)]
        warmup = ExperimentPlan.cross([add], configs, duration=_DURATION)
        list(client.submit(warmup))
        plan = ExperimentPlan.cross(
            [add, small_kernel_factory("mulld", count=24)],
            configs,
            duration=_DURATION,
        )
        lines = list(client.submit(plan))
        header, trailer = lines[0], lines[-1]
        assert trailer["warm"] == 2 and trailer["measured"] == 2
        runs = client.runs()["runs"]
        assert len(runs) == 2  # the warm-up request and this one
        (record,) = [r for r in runs if r["run"] == header["run"]]
        assert record["state"] == "complete"
        assert (record["warm"], record["measured"]) == (2, 2)

    def test_fully_warm_request_writes_no_manifest(
        self, tmp_path, small_kernel_factory
    ):
        """A served run that owes no cells writes no key manifest: while
        it streams, ``journal/`` is empty and ``GET /runs/<id>`` does not
        claim a dropped manifest.  The cold request before it writes and
        drops one, which ``journals_gcd`` counts; the warm one is not."""
        service = MeasurementService(store=tmp_path / "store")
        journal = service.store.root / "journal"
        plan = ExperimentPlan.cross(
            [small_kernel_factory("add", count=24)],
            [MachineConfig(1, 1), MachineConfig(2, 2)],
            duration=_DURATION,
        )
        seen: list[tuple] = []

        def emit(data: bytes) -> None:
            header = json.loads(data.splitlines()[0])
            if "service" in header:  # streamed while the run is running
                status, _ = service.run_status(header["run"])
                names = (
                    sorted(path.name for path in journal.iterdir())
                    if journal.is_dir()
                    else []
                )
                seen.append((names, status["state"], status.get("note", "")))

        try:
            trailers = [
                service.submit(plan_to_dict_v2(plan), lambda: emit)
                for _ in range(2)
            ]
            gcd = service.stats()["service"]["journals_gcd"]
            record = service.registry.get(trailers[0]["run"])
            assert service.store.verify().ok
        finally:
            service.close()
        run = trailers[0]["run"]
        assert [(t["warm"], t["measured"]) for t in trailers] == [
            (0, plan.size), (plan.size, 0),
        ]
        (cold, warm) = seen
        assert cold == ([f"{run}.json"], "running", "")
        assert warm[:2] == ([], "running")
        assert "dropped on clean completion" not in warm[2]
        assert list(journal.iterdir()) == []
        assert gcd == 1
        assert record["state"] == "complete"
        assert (record["warm"], record["measured"]) == (plan.size, 0)

    def test_malformed_and_unknown_requests_are_clean_errors(self, served):
        service, url = served
        client = ServiceClient(url)
        with pytest.raises(ServiceError):
            list(client._stream("POST", "/plans", {"cells": None}))
        with pytest.raises(ServiceError) as excinfo:
            client._json("/nowhere")
        assert excinfo.value.status == 404

    def test_unknown_architecture_is_404(self, served, small_kernel_factory):
        service, url = served
        plan = ExperimentPlan.single(
            small_kernel_factory("add", count=24),
            MachineConfig(1, 1),
            _DURATION,
        )
        with pytest.raises(ServiceError) as excinfo:
            RemoteExecutor(url, arch="VAX").run(plan)
        assert excinfo.value.status == 404

    def test_unreachable_service_is_a_clean_error(self, small_kernel_factory):
        plan = ExperimentPlan.single(
            small_kernel_factory("add", count=24),
            MachineConfig(1, 1),
            _DURATION,
        )
        with pytest.raises(ServiceError) as excinfo:
            RemoteExecutor(ServiceClient("http://127.0.0.1:9", timeout=2)).run(plan)
        assert excinfo.value.status == 503
