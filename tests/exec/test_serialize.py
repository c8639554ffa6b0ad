"""Plan wire forms preserve content identity exactly.

The campaign service's correctness rests on one property: a plan cell
rebuilt from its JSON wire form has the same workload fingerprint and
therefore the same content-addressed store key -- and the same noise
draws, so the same measurement bytes -- as the original.  These tests
pin the round trip for every workload kind, both configuration shapes
and a full plan, through an actual ``json.dumps``/``loads`` cycle (the
bytes that really cross the socket).
"""

import json

import pytest

from repro.errors import MeasurementError
from repro.exec import ExperimentPlan, PlanCell, SerialExecutor
from repro.exec.plan import workload_fingerprint
from repro.exec.serialize import (
    plan_from_dict,
    plan_to_dict_v2,
    profile_from_dict,
    profile_to_dict,
    wire_digest,
    workload_from_dict,
    workload_to_dict,
)
from repro.sim import Machine, MachineConfig, Placement, get_pstate
from repro.sim.topology import parse_topology
from repro.workloads import spec_cpu2006

_DURATION = 1.0


def _wire(data: dict) -> dict:
    """Round-trip through real JSON bytes, as the socket does."""
    return json.loads(json.dumps(data))


def _cell_round_trip(cell: PlanCell) -> PlanCell:
    """One cell through a one-cell plan body and back."""
    (rebuilt,) = plan_from_dict(
        _wire(plan_to_dict_v2(ExperimentPlan([cell])))
    ).cells
    return rebuilt


class TestWorkloadRoundTrip:
    def test_kernel(self, small_kernel_factory):
        kernel = small_kernel_factory("lxvw4x", count=24, level="L1")
        rebuilt = workload_from_dict(_wire(workload_to_dict(kernel)))
        assert workload_fingerprint(rebuilt) == workload_fingerprint(kernel)

    def test_placement(self, small_kernel_factory):
        mix = Placement(
            "mix",
            (
                (
                    small_kernel_factory("addic", count=24),
                    small_kernel_factory("ld", count=24, level="MEM"),
                ),
            ),
        )
        rebuilt = workload_from_dict(_wire(workload_to_dict(mix)))
        assert workload_fingerprint(rebuilt) == workload_fingerprint(mix)

    def test_profiled_workload(self):
        mcf = spec_cpu2006()[5]
        rebuilt = workload_from_dict(_wire(workload_to_dict(mcf)))
        # The fingerprint hashes repr(profile): the rebuilt profile
        # must be repr-identical (field order, int smt keys and all).
        assert repr(rebuilt.profile) == repr(mcf.profile)
        assert workload_fingerprint(rebuilt) == workload_fingerprint(mcf)

    def test_profile_smt_keys_restored_as_ints(self):
        profile = spec_cpu2006()[0].profile
        rebuilt = profile_from_dict(_wire(profile_to_dict(profile)))
        assert rebuilt == profile
        assert all(isinstance(way, int) for way in rebuilt.smt_scaling)

    def test_opaque_workload_is_rejected(self):
        class Opaque:
            name = "mystery"

        with pytest.raises(MeasurementError):
            workload_to_dict(Opaque())

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(MeasurementError):
            workload_from_dict({"kind": "hologram"})


class TestCellAndPlanRoundTrip:
    def test_cell_key_is_preserved(self, machine, small_kernel_factory):
        executor = SerialExecutor(machine)
        cell = PlanCell(
            small_kernel_factory("add", count=24),
            MachineConfig(2, 2, p_state=get_pstate("p2")),
            _DURATION,
        )
        rebuilt = _cell_round_trip(cell)
        assert executor.key_of(rebuilt) == executor.key_of(cell)

    def test_topology_cell_key_is_preserved(
        self, machine, small_kernel_factory
    ):
        executor = SerialExecutor(machine)
        cell = PlanCell(
            small_kernel_factory("add", count=24),
            parse_topology("2big-2@p2+2little"),
            _DURATION,
        )
        rebuilt = _cell_round_trip(cell)
        assert executor.key_of(rebuilt) == executor.key_of(cell)

    def test_malformed_cell_is_rejected(self):
        entry = {"kind": "kernel"}
        body = {
            "wire": "plan-v2",
            "pool": {"workloads": [[wire_digest(entry), entry]], "configs": []},
            "cells": [
                {"workload": wire_digest(entry), "config": "c", "duration": 1}
            ],
        }
        with pytest.raises(MeasurementError, match="cell 0"):
            plan_from_dict(body)

    def test_plan_round_trip_measures_identically(
        self, power7_arch, small_kernel_factory
    ):
        plan = ExperimentPlan.cross(
            [
                small_kernel_factory("add", count=24),
                spec_cpu2006()[5],
            ],
            [MachineConfig(1, 1), MachineConfig(2, 2)],
            p_states=[get_pstate("nominal"), get_pstate("p3")],
            duration=_DURATION,
        )
        rebuilt = plan_from_dict(_wire(plan_to_dict_v2(plan)))
        assert rebuilt.size == plan.size
        original = SerialExecutor(Machine(power7_arch)).run(plan)
        again = SerialExecutor(Machine(power7_arch)).run(rebuilt)
        assert original == again

    def test_plan_without_cells_is_rejected(self):
        with pytest.raises(MeasurementError, match="'cells' list"):
            plan_from_dict({"wire": "plan-v2", "pool": {}, "cells": None})
