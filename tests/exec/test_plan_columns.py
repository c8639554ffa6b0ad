"""Columnar plans against the row builder they replaced.

:mod:`tests.oracle.plans` keeps the row builder verbatim: one frozen
cell per requested cell, deduplicated by hashing each cell's identity.
Seeded random plans are built both ways -- through ``cross``,
``crosses`` and ``ExperimentPlan(cells)`` -- from ingredients chosen
to stress the identity rules: same-name kernels with different content,
equal-content distinct kernel objects, SPEC profiles (and a fresh
adapter around the same profile), mix placements, degenerate and real
topologies, same-scale p-states under different names, repeated
workloads and configurations, and two windows.  Every observable must
agree: the unique cells, the expansion, ``describe()``, every store
key, the wire body bytes and the measurements.
"""

import dataclasses
import json
import random

import pytest

from repro.exec import ExperimentPlan, PlanCell, SerialExecutor
from repro.exec.plan import workload_fingerprint
from repro.exec.serialize import (
    plan_from_dict,
    plan_to_dict_v2,
    workload_to_dict,
)
from repro.sim import (
    ChipTopology,
    Machine,
    MachineConfig,
    Placement,
    PState,
    get_pstate,
    parse_topology,
)
from repro.workloads import spec_cpu2006
from tests.oracle import plans as oracle

_WINDOWS = (1.0, 2.0)


def _ingredients(make_kernel) -> tuple[list, list, list]:
    """``(workloads, configs, (placement, config) pairs)``."""
    add = make_kernel("add", count=24)
    renamed = make_kernel("mulld", count=24, dep=4)
    object.__setattr__(renamed, "name", add.name)  # same name, new content
    ld = make_kernel("ld", count=24, level="MEM")
    spec = spec_cpu2006()
    workloads = [
        add,
        make_kernel("add", count=24),  # equal content, distinct object
        # The same cell identity under another wire form: the declared
        # period is in the body, not in the content digest.
        dataclasses.replace(add, period=len(add.instructions)),
        renamed,
        ld,
        spec[0],
        spec[5],
        spec_cpu2006()[0],  # a fresh adapter around the same profile
    ]
    eco, slow = PState("eco", 0.8, 0.9), PState("slow", 0.8, 0.9)
    configs = [
        MachineConfig(1, 1),
        MachineConfig(2, 2),
        MachineConfig(2, 1).with_p_state(eco),
        MachineConfig(2, 1).with_p_state(slow),  # equal, but another label
        ChipTopology.from_config(MachineConfig(2, 2)),  # degenerate
        parse_topology("2big+2little"),
        parse_topology("2big-2@p2+2little"),
    ]
    placed = [
        (Placement.round_robin([add, ld], config, f"mix-{index}"), config)
        for index, config in enumerate(
            [MachineConfig(2, 1), MachineConfig(1, 2), configs[5]]
        )
    ]
    return workloads, configs, placed


def _picks(rng, pool, most: int) -> list:
    """Some entries of ``pool``, repeats allowed."""
    return [rng.choice(pool) for _ in range(rng.randint(1, most))]


def _plans(seed: int, make_kernel):
    """``(kind, columnar plan, row-built reference)`` for one seed."""
    rng = random.Random(seed)
    workloads, configs, placed = _ingredients(make_kernel)
    window = rng.choice(_WINDOWS)
    chosen = (_picks(rng, workloads, 6), _picks(rng, configs, 4))
    p_states = (
        [get_pstate(name) for name in rng.sample(["turbo", "nominal", "p3"], 2)]
        if rng.random() < 0.5
        else None
    )
    yield (
        "cross",
        ExperimentPlan.cross(*chosen, p_states=p_states, duration=window),
        oracle.ExperimentPlan.cross(
            *chosen, p_states=p_states, duration=window
        ),
    )

    blocks = [
        (_picks(rng, workloads, 4), _picks(rng, configs, 3)) for _ in range(3)
    ]
    blocks.append(([placed[0][0]], [placed[0][1]]))
    yield (
        "crosses",
        ExperimentPlan.crosses(blocks, window),
        oracle.ExperimentPlan(
            oracle.PlanCell(workload, config, window)
            for block_workloads, block_configs in blocks
            for config in block_configs
            for workload in block_workloads
        ),
    )

    pairs = [(w, c) for w in workloads for c in configs] + placed
    rows = [
        (*rng.choice(pairs), rng.choice(_WINDOWS))
        for _ in range(rng.randint(1, 40))
    ]
    yield (
        "rows",
        ExperimentPlan(PlanCell(*row) for row in rows),
        oracle.ExperimentPlan(oracle.PlanCell(*row) for row in rows),
    )


@pytest.mark.parametrize("seed", range(10))
def test_columnar_plans_equal_the_row_builder(
    seed, power7_arch, small_kernel_factory
):
    machine = Machine(power7_arch, seed=seed)
    executor = SerialExecutor(machine)
    for kind, plan, reference in _plans(seed, small_kernel_factory):
        where = f"seed {seed}, {kind}"
        assert (plan.size, plan.requested) == (
            reference.size,
            reference.requested,
        ), where
        for cell, want in zip(plan.cells, reference.cells):
            assert cell.workload is want.workload, where
            assert cell.config == want.config, where
            assert cell.config.label == want.config.label, where
            assert cell.duration == want.duration, where
        ordinals = list(range(plan.size))
        assert plan.expand(ordinals) == reference.expand(ordinals), where
        assert plan.describe() == reference.describe(), where

        # Every store key, cell-v1 and cell-topo-v1 alike.
        keys = executor.keys_of(plan)
        assert keys == [executor.key_of(cell) for cell in reference.cells]

        # The v2 body, byte for byte, and its decode.
        body = json.dumps(plan_to_dict_v2(plan))
        assert body == json.dumps(oracle.plan_to_dict_v2(reference)), where
        rebuilt = plan_from_dict(json.loads(body))
        assert json.dumps(plan_to_dict_v2(rebuilt)) == body, where
        assert executor.keys_of(rebuilt) == keys, where

        # Measurements and their order.
        measured = executor.run(plan)
        expected = reference.expand(
            Machine(power7_arch, seed=seed).run_cells(reference.cells)
        )
        assert [m.to_dict() for m in measured] == [
            m.to_dict() for m in expected
        ], where


def test_the_seeds_cover_every_ingredient(small_kernel_factory):
    add, twin, wire_twin = _ingredients(small_kernel_factory)[0][:3]
    assert twin is not add and wire_twin is not add
    assert workload_fingerprint(twin) == workload_fingerprint(add)
    assert workload_fingerprint(wire_twin) == workload_fingerprint(add)
    assert workload_to_dict(wire_twin) != workload_to_dict(add)
    cells = [
        cell
        for seed in range(10)
        for _, plan, _ in _plans(seed, small_kernel_factory)
        for cell in plan.cells
    ]
    kinds = {type(cell.workload).__name__ for cell in cells}
    assert kinds == {"Kernel", "ProfiledWorkload", "Placement"}
    shapes = {type(cell.config).__name__ for cell in cells}
    assert shapes == {"MachineConfig", "ChipTopology"}
    assert {cell.duration for cell in cells} == set(_WINDOWS)
    labels = {cell.config.label for cell in cells}
    assert {"2-1@eco", "2-1@slow"} <= labels


def test_tables_follow_first_reference_order(small_kernel_factory):
    """A workload first requested in a duplicate cell enters the plan's
    tables, and its wire pool entry, where a unique cell first uses it."""
    workloads, configs, _ = _ingredients(small_kernel_factory)
    add, wire_twin, ld = workloads[0], workloads[2], workloads[4]
    one, two = configs[:2]
    rows = [
        (add, one, 1.0),
        (wire_twin, one, 1.0),  # a duplicate of the first cell
        (ld, one, 1.0),
        (wire_twin, two, 1.0),
    ]
    plan = ExperimentPlan(PlanCell(*row) for row in rows)
    reference = oracle.ExperimentPlan(oracle.PlanCell(*row) for row in rows)
    assert plan.columns.workloads == (add, ld, wire_twin)
    assert json.dumps(plan_to_dict_v2(plan)) == json.dumps(
        oracle.plan_to_dict_v2(reference)
    )


def test_typed_windows_keep_the_first_cells_window(small_kernel_factory):
    """``1`` and ``1.0`` are one window for deduplication, and the
    unique cell keeps the first requested cell's spelling, whose text
    enters the store key."""
    kernel = small_kernel_factory("add", count=16)
    config = MachineConfig(1, 1)
    rows = [(kernel, config, 1), (kernel, config, 1.0), (kernel, config, 2.0)]
    plan = ExperimentPlan(PlanCell(*row) for row in rows)
    reference = oracle.ExperimentPlan(oracle.PlanCell(*row) for row in rows)
    assert [type(cell.duration) for cell in plan.cells] == [int, float]
    assert plan.expand([0, 1]) == reference.expand([0, 1]) == [0, 0, 1]
    assert plan.keys("POWER7", 0) == [
        cell.key("POWER7", 0) for cell in reference.cells
    ]


class TestNoRowsOnTheHotPath:
    """An execution reads the plan's columns: without ``progress`` and
    with no fault armed, it never builds a :class:`PlanCell`."""

    @pytest.fixture()
    def constructions(self, monkeypatch):
        built = []
        post_init = PlanCell.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(PlanCell, "__post_init__", counting)
        return built

    @pytest.fixture()
    def plan(self, small_kernel_factory):
        return ExperimentPlan.cross(
            [
                small_kernel_factory(mnemonic, count=24)
                for mnemonic in ("add", "mulld")
            ]
            + spec_cpu2006()[:2],
            [MachineConfig(1, 1), parse_topology("2big+2little")],
            duration=1.0,
        )

    def test_store_less_execution(self, power7_arch, plan, constructions):
        report = SerialExecutor(Machine(power7_arch)).execute(plan)
        assert report.ok and len(report) == plan.size
        assert constructions == []

    def test_store_backed_execution(
        self, power7_arch, plan, constructions, tmp_path, open_store
    ):
        store = open_store(tmp_path / "store")
        for _ in ("cold", "warm"):
            report = SerialExecutor(Machine(power7_arch), store=store).execute(
                plan
            )
            assert report.ok
        assert len(store) == plan.size
        assert constructions == []

    def test_rows_are_built_once_for_callers_that_iterate(
        self, plan, constructions
    ):
        assert plan.cells is plan.cells
        assert len(constructions) == plan.size
