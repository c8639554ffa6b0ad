"""Plan wire format v2: digest-interned pools, bit-identity.

The one plan body's acceptance properties:

* a pooled plan body rebuilds to the same fingerprints, store keys and
  measurement bytes as the original plan and as local execution --
  through real JSON bytes;
* the server's cross-request intern cache hands repeat campaigns the
  *same* rebuilt objects with zero re-deserialization, verifying each
  claimed digest exactly once;
* a body without the ``plan-v2`` marker (the retired inline-cell v1
  shape) is refused with a 400 before the stream header;
* malformed pools -- duplicate digests, tampered entries, dangling
  references -- are rejected naming the offending cell.
"""

import http.client
import json
import threading

import pytest

from repro.errors import MeasurementError
from repro.exec import (
    ExperimentPlan,
    MeasurementService,
    PlanCell,
    RemoteExecutor,
    SerialExecutor,
    build_server,
)
from repro.exec.plan import workload_fingerprint
from repro.exec.serialize import (
    WireInternCache,
    config_to_dict,
    plan_from_dict,
    plan_to_dict_v2,
    wire_digest,
    workload_to_dict,
)
from repro.sim import Machine, MachineConfig, Placement, get_pstate
from repro.sim.topology import parse_topology
from repro.workloads import spec_cpu2006

_DURATION = 1.0


def _wire(data: dict) -> dict:
    """Round-trip through real JSON bytes, as the socket does."""
    return json.loads(json.dumps(data))


def _mixed_plan(make_kernel) -> ExperimentPlan:
    """Every workload kind x both config shapes x a DVFS point."""
    kernels = [
        make_kernel("add", count=24),
        make_kernel("ld", count=24, level="MEM"),
    ]
    mix = Placement("mix", ((kernels[0],), (kernels[1],)))
    configs = [
        MachineConfig(1, 1),
        MachineConfig(2, 1),
        MachineConfig(2, 2).with_p_state(get_pstate("p2")),
        parse_topology("2big+2little"),
    ]
    plan = ExperimentPlan.cross(
        kernels + [spec_cpu2006()[2]], configs, duration=_DURATION
    )
    extra = PlanCell(mix, MachineConfig(2, 1), _DURATION)
    return ExperimentPlan(list(plan.cells) + [extra])


def _inline_body(plan: ExperimentPlan) -> dict:
    """Every cell carrying its full workload and config, unpooled."""
    return {
        "cells": [
            {
                "workload": workload_to_dict(cell.workload),
                "config": config_to_dict(cell.config),
                "duration": cell.duration,
            }
            for cell in plan.cells
        ]
    }


class TestV2RoundTrip:
    def test_fingerprints_and_keys_match_v1(
        self, power7_arch, small_kernel_factory
    ):
        """A decoded body keys every cell as the original plan does."""
        plan = _mixed_plan(small_kernel_factory)
        executor = SerialExecutor(Machine(power7_arch))
        from_v2 = plan_from_dict(_wire(plan_to_dict_v2(plan)))
        assert [workload_fingerprint(c.workload) for c in from_v2.cells] == [
            workload_fingerprint(c.workload) for c in plan.cells
        ]
        assert [executor.key_of(c) for c in from_v2.cells] == [
            executor.key_of(c) for c in plan.cells
        ]

    def test_pool_ships_each_ingredient_once(self, small_kernel_factory):
        kernel = small_kernel_factory("add", count=24)
        configs = [MachineConfig(1, s) for s in (1, 2, 4)]
        plan = ExperimentPlan.cross([kernel], configs, duration=_DURATION)
        body = plan_to_dict_v2(plan)
        assert len(body["pool"]["workloads"]) == 1
        assert len(body["pool"]["configs"]) == 3
        assert len(body["cells"]) == 3
        # The pooled body is strictly smaller than an inline one.
        assert len(json.dumps(body)) < len(json.dumps(_inline_body(plan)))

    def test_unmarked_body_is_rejected(self, small_kernel_factory):
        plan = ExperimentPlan.cross(
            [small_kernel_factory("add", count=24)],
            [MachineConfig(1, 1)],
            duration=_DURATION,
        )
        with pytest.raises(MeasurementError, match="plan-v2"):
            plan_from_dict(_wire(_inline_body(plan)))

    def test_content_equal_objects_share_one_pool_entry(
        self, small_kernel_factory
    ):
        # Two distinct-but-equal kernel objects collapse to one digest.
        a = small_kernel_factory("add", count=24)
        b = small_kernel_factory("add", count=24)
        plan = ExperimentPlan(
            [
                PlanCell(a, MachineConfig(1, 1), _DURATION),
                PlanCell(b, MachineConfig(2, 1), _DURATION),
            ]
        )
        body = plan_to_dict_v2(plan)
        assert len(body["pool"]["workloads"]) == 1


class TestInternCache:
    def test_repeat_decode_rebuilds_nothing(self, small_kernel_factory):
        plan = _mixed_plan(small_kernel_factory)
        body = plan_to_dict_v2(plan)
        intern = WireInternCache()
        first = plan_from_dict(_wire(body), intern=intern)
        misses = intern.stats()["workloads"]["misses"]
        second = plan_from_dict(_wire(body), intern=intern)
        assert intern.stats()["workloads"]["misses"] == misses
        for one, two in zip(first.cells, second.cells):
            assert one.workload is two.workload
            assert one.config is two.config

    def test_claimed_digests_verify_exactly_once(self, small_kernel_factory):
        plan = _mixed_plan(small_kernel_factory)
        intern = WireInternCache()
        plan_from_dict(_wire(plan_to_dict_v2(plan)), intern=intern)
        verified = intern.stats()["verified"]
        assert verified > 0
        plan_from_dict(_wire(plan_to_dict_v2(plan)), intern=intern)
        assert intern.stats()["verified"] == verified

    def test_capacity_bounds_and_counts_evictions(self, small_kernel_factory):
        intern = WireInternCache(capacity=1)
        kernels = [
            small_kernel_factory("add", count=24),
            small_kernel_factory("mulld", count=24),
        ]
        for kernel in kernels:
            entry = workload_to_dict(kernel)
            intern.workload(wire_digest(entry), entry)
        stats = intern.stats()["workloads"]
        assert stats["size"] == 1
        assert stats["evictions"] == 1


class TestMalformedPools:
    @pytest.fixture()
    def body(self, small_kernel_factory):
        plan = ExperimentPlan.cross(
            [small_kernel_factory("add", count=24)],
            [MachineConfig(1, 1), MachineConfig(2, 1)],
            duration=_DURATION,
        )
        return _wire(plan_to_dict_v2(plan))

    def test_duplicate_digest_rejected_with_cell_index(self, body):
        body["pool"]["workloads"].append(body["pool"]["workloads"][0])
        with pytest.raises(MeasurementError, match=r"twice.*cell 0"):
            plan_from_dict(body)

    def test_tampered_entry_rejected_with_cell_index(self, body):
        body["pool"]["workloads"][0][1]["kernel"]["name"] = "tampered"
        with pytest.raises(MeasurementError, match=r"cell 0:.*hashes to"):
            plan_from_dict(body)

    def test_dangling_reference_rejected_with_cell_index(self, body):
        body["pool"]["workloads"] = []
        with pytest.raises(
            MeasurementError, match=r"cell 0:.*does not define"
        ):
            plan_from_dict(body)

    def test_non_list_pool_rejected(self, body):
        body["pool"]["configs"] = {"digest": {}}
        with pytest.raises(MeasurementError, match="list of"):
            plan_from_dict(body)

    def test_malformed_pair_rejected(self, body):
        body["pool"]["workloads"].append(["digest-without-entry"])
        with pytest.raises(MeasurementError, match="pair"):
            plan_from_dict(body)

    def test_missing_pool_rejected(self, body):
        del body["pool"]
        with pytest.raises(MeasurementError, match="pool"):
            plan_from_dict(body)

    def test_malformed_cell_rejected_with_index(self, body):
        del body["cells"][1]["duration"]
        with pytest.raises(MeasurementError, match="cell 1"):
            plan_from_dict(body)


# -- over real sockets ------------------------------------------------------------


def _start(service):
    server = build_server(service)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, f"http://127.0.0.1:{server.server_port}"


def _post(url: str, path: str, body: dict) -> tuple:
    """``(response, parsed JSON document)`` of one raw POST."""
    host, port = url.removeprefix("http://").split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        connection.request(
            "POST",
            path,
            body=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response, json.loads(response.read())
    finally:
        connection.close()


@pytest.fixture()
def served(tmp_path):
    """One store-backed service on an ephemeral port."""
    service = MeasurementService(store=tmp_path / "store")
    server, url = _start(service)
    yield service, url
    server.shutdown()
    server.server_close()
    service.close()


class TestServedOverSocket:
    def test_v2_client_v2_server_bit_identical(
        self, served, power7_arch, small_kernel_factory
    ):
        service, url = served
        plan = _mixed_plan(small_kernel_factory)
        served_dicts = [m.to_dict() for m in RemoteExecutor(url).run(plan)]
        serial = SerialExecutor(Machine(power7_arch)).run(plan)
        assert served_dicts == [m.to_dict() for m in serial]
        assert service.stats()["intern"]["workloads"]["misses"] > 0

    def test_repeat_campaign_rebuilds_zero_ingredients(
        self, served, small_kernel_factory
    ):
        service, url = served
        plan = _mixed_plan(small_kernel_factory)
        RemoteExecutor(url).run(plan)
        before = service.intern.stats()
        RemoteExecutor(url).run(plan)
        after = service.intern.stats()
        assert after["workloads"]["misses"] == before["workloads"]["misses"]
        assert after["configs"]["misses"] == before["configs"]["misses"]
        assert after["workloads"]["hits"] > before["workloads"]["hits"]

    def test_v1_body_gets_400_before_the_stream_header(
        self, served, small_kernel_factory
    ):
        service, url = served
        plan = _mixed_plan(small_kernel_factory)
        body = dict(_inline_body(plan), arch="POWER7", seed=0)
        response, document = _post(url, "/plans", body)
        assert response.status == 400
        assert response.getheader("Content-Type") == "application/json"
        assert "plan-v2" in document["error"]
        stats = service.stats()["service"]
        assert stats["requests"] == 0 and stats["measured_cells"] == 0
        assert len(service.store) == 0

    def test_probe_endpoint_is_gone(self, served, power7_arch):
        _service, url = served
        body = {"arch": "POWER7", "digest": power7_arch.content_digest()}
        response, document = _post(url, "/probe", body)
        assert response.status == 404
        assert "unknown endpoint" in document["error"]
