"""Seeded mutational fuzzing of wire-v2 plan bodies.

``POST /plans`` bodies come from any client, and a pool entry is
checked only against its digest, which a client can always recompute
(:func:`~repro.exec.serialize.wire_digest`).  So every mutated pool
entry here is re-signed before submission: it carries its new digest,
and every cell that referenced it follows.  Each body must end one of
two ways:

* a :class:`~repro.errors.ServiceError` with a 4xx status, raised
  before the stream header (``start`` is never called) and measuring
  nothing;
* a stream in which every measurement has a finite ``mean_power``.

Nothing else may escape :meth:`MeasurementService.submit` -- no
``OverflowError``, ``AttributeError``, unhashable ``TypeError`` or
``MemoryError`` -- because the HTTP handler answers those with a 500.
Well-typed cells the machine cannot run are 400s too: a kernel slot
naming a mnemonic that some core class of the plan has no properties
for, and a workload pool declaring more loop slots than the request
budget (:data:`~repro.exec.serialize.MAX_PLAN_SLOTS`).

Mutations are stdlib ``random`` only: one field of a cell, of the body
or anywhere inside one pool entry is overwritten with a value from a
fixed palette of wrong types, bad signs, huge and non-finite numbers,
or is deleted.
"""

import json
import math
import random

import pytest

from repro.errors import ServiceError
from repro.exec import ExperimentPlan, ResultStore
from repro.exec.serialize import MAX_PLAN_SLOTS, plan_to_dict_v2, wire_digest
from repro.exec.service import MeasurementService
from repro.sim import MachineConfig, Placement, get_pstate, parse_topology
from repro.stressmark.search import build_stressmark
from repro.workloads import ProfiledWorkload
from repro.workloads.spec import spec_profile

_SEED = 20121201
_DURATION = 1.0
_TRIALS = 600

#: Values written over a field: wrong types, bad signs, non-finite.
_PALETTE = [
    None,
    True,
    0,
    -1,
    3,
    2**40,
    1.5,
    -0.5,
    math.nan,
    math.inf,
    -math.inf,
    "",
    "x",
    [],
    [1, 2],
    {},
    {"x": 1},
]

#: Marks a deleted field.
_DELETE = object()


@pytest.fixture(scope="module")
def body(power7_arch):
    kernels = [
        build_stressmark(power7_arch, sequence, 24)
        for sequence in (("mulldo", "lxvw4x"), ("xvnmsubmdp", "mulldo"))
    ]
    mix = Placement(
        "mix", ((kernels[0], kernels[1]), (kernels[1], kernels[1]))
    )
    cells = list(
        ExperimentPlan.cross(
            [kernels[0], ProfiledWorkload(spec_profile("mcf"))],
            [MachineConfig(2, 2), MachineConfig(1, 1, get_pstate("p2"))],
            duration=_DURATION,
        ).cells
    )
    cells += ExperimentPlan.cross(
        kernels[:1], [parse_topology("2big-2@p2+2little")], duration=_DURATION
    ).cells
    cells += ExperimentPlan.cross(
        [mix], [MachineConfig(2, 2)], duration=_DURATION
    ).cells
    request = plan_to_dict_v2(ExperimentPlan(cells))
    request.update(arch="POWER7", seed=0)
    return request


@pytest.fixture(scope="module")
def services(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("wire-fuzz-store"))
    pair = [
        MeasurementService(retries=0),
        MeasurementService(store, retries=0),
    ]
    yield pair
    for service in pair:
        service.close()


def _measured(service) -> int:
    return service.stats()["service"]["measured_cells"]


def _submit(service, request) -> str:
    """Submit one body; ``"rejected"`` or ``"streamed"``.

    Asserts the contract above: a rejection is a 4xx
    :class:`ServiceError` raised before the stream header with nothing
    measured, and every streamed measurement has a finite power.
    """
    lines: list[dict] = []
    started = []

    def start():
        started.append(True)
        # The emit takes byte chunks of whole JSON lines.
        return lambda data: lines.extend(map(json.loads, data.splitlines()))

    before = _measured(service)
    try:
        service.submit(json.loads(json.dumps(request)), start)
    except ServiceError as exc:
        assert 400 <= exc.status < 500, exc
        assert not started, exc
        assert _measured(service) == before
        return "rejected"
    assert started
    for line in lines:
        measurement = line.get("measurement")
        if measurement is not None:
            assert math.isfinite(measurement["mean_power"]), line
    return "streamed"


# -- mutators -----------------------------------------------------------------


def _paths(value, prefix=()):
    """Every (container path, key) inside one JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix, key
        yield from _paths(child, prefix + (key,))


def _overwrite(container, key, value) -> None:
    if value is _DELETE:
        if isinstance(container, dict):
            del container[key]
        else:
            container.pop(key)
    else:
        container[key] = value


def _resign(request, section: str, field: str, index: int, entry) -> None:
    """Replace pool entry ``index`` and follow it from every cell."""
    pool = request["pool"][section]
    old = pool[index][0]
    new = wire_digest(entry)
    pool[index] = [new, entry]
    for cell in request["cells"]:
        if cell.get(field) == old:
            cell[field] = new


def _mutate_entry(rng, request) -> str:
    section, field = rng.choice(
        [("workloads", "workload"), ("configs", "config")]
    )
    index = rng.randrange(len(request["pool"][section]))
    entry = request["pool"][section][index][1]
    prefix, key = rng.choice(list(_paths(entry)))
    container = entry
    for step in prefix:
        container = container[step]
    value = rng.choice(_PALETTE + [_DELETE])
    _overwrite(container, key, value)
    _resign(request, section, field, index, entry)
    return f"{section}[{index}]{list(prefix) + [key]} = {value!r}"


def _mutate_cell(rng, request) -> str:
    index = rng.randrange(len(request["cells"]))
    key = rng.choice(["workload", "config", "duration"])
    value = rng.choice(_PALETTE + [_DELETE])
    _overwrite(request["cells"][index], key, value)
    return f"cells[{index}].{key} = {value!r}"


def _mutate_body(rng, request) -> str:
    key = rng.choice(["seed", "cells", "pool"])
    value = rng.choice(_PALETTE + [_DELETE])
    _overwrite(request, key, value)
    return f"{key} = {value!r}"


def test_mutated_bodies(body, services):
    rng = random.Random(_SEED)
    assert all(_submit(service, body) == "streamed" for service in services)
    outcomes = {"rejected": 0, "streamed": 0}
    for trial in range(_TRIALS):
        request = json.loads(json.dumps(body))
        mutator = rng.choices(
            [_mutate_entry, _mutate_cell, _mutate_body], weights=[6, 3, 1]
        )[0]
        what = mutator(rng, request)
        service = services[trial % 2]
        try:
            outcomes[_submit(service, request)] += 1
        except Exception as exc:
            raise AssertionError(f"trial {trial}, {what}: {exc!r}") from exc
    # Most mutations must be caught at decode time.
    assert outcomes["rejected"] > outcomes["streamed"]


# -- pinned cases -------------------------------------------------------------
#
# Each case must be refused at decode time: past the decoders it
# escapes as a 500, quarantines every cell, or streams (and stores) a
# non-finite power.


def _with_entry(body, section: str, field: str, path: tuple, value):
    """``body`` with ``path`` set in the first pool entry that has it.

    The entry is re-signed, so the edit reaches the decoders.
    """
    request = json.loads(json.dumps(body))
    for index, (_, entry) in enumerate(request["pool"][section]):
        if path[0] in entry:
            container = entry
            for step in path[:-1]:
                container = container[step]
            container[path[-1]] = value
            _resign(request, section, field, index, entry)
            return request
    raise AssertionError(f"no {path[0]!r} entry in the {section} pool")


def _rejected(service, request) -> str:
    """The 400 message ``request`` earns; nothing streams or measures."""
    before = _measured(service)
    with pytest.raises(ServiceError) as caught:
        service.submit(request, lambda: pytest.fail("stream started"))
    assert caught.value.status == 400
    assert _measured(service) == before
    return str(caught.value)


@pytest.mark.parametrize("duration", [-1, 0, math.nan, math.inf, -math.inf])
def test_bad_cell_duration_is_a_400(body, services, duration):
    request = json.loads(json.dumps(body))
    for cell in request["cells"]:
        cell["duration"] = duration
    for service in services:
        assert "cell 0" in _rejected(service, request)


@pytest.mark.parametrize("seed", [math.inf, -math.inf])
def test_infinite_seed_is_a_400(body, services, seed):
    for service in services:
        _rejected(service, dict(body, seed=seed))


_PROFILE_CASES = [
    pytest.param(("profile", "smt_scaling"), [1, 2], id="smt_scaling-list"),
    pytest.param(("profile", "smt_scaling"), "x", id="smt_scaling-str"),
    pytest.param(("profile", "locality"), 1.0, id="locality-float"),
    pytest.param(("profile", "locality"), [1, 2], id="locality-list"),
    pytest.param(("profile", "name"), {"x": 1}, id="name-object"),
    pytest.param(("profile", "ipc"), math.nan, id="ipc-nan"),
    pytest.param(("profile", "memory_per_insn"), math.inf, id="memory-inf"),
    pytest.param(("profile", "alternation"), math.nan, id="alternation-nan"),
    pytest.param(("profile", "locality", "L2"), math.nan, id="L2-nan"),
    pytest.param(("profile", "unit_mix", "FXU"), math.inf, id="FXU-inf"),
]

_CONFIG_CASES = [
    pytest.param(("p_state", "freq_scale"), math.nan, id="freq-nan"),
    pytest.param(("p_state", "volt_scale"), math.nan, id="volt-nan"),
    pytest.param(("p_state", "freq_scale"), math.inf, id="freq-inf"),
    pytest.param(("cores",), math.nan, id="cores-nan"),
    pytest.param(("cores",), 2.0, id="cores-float"),
    pytest.param(("cores",), True, id="cores-bool"),
]


@pytest.mark.parametrize("path, value", _PROFILE_CASES)
def test_malformed_profile_is_a_400(body, services, path, value):
    request = _with_entry(body, "workloads", "workload", path, value)
    for service in services:
        assert "cell 1" in _rejected(service, request)


@pytest.mark.parametrize("path, value", _CONFIG_CASES)
def test_malformed_config_is_a_400(body, services, path, value):
    request = _with_entry(body, "configs", "config", path, value)
    for service in services:
        assert "cell 0" in _rejected(service, request)


@pytest.mark.parametrize("repeats", [2**40, 0, -1, 1.5, True])
def test_bad_kernel_repeats_is_a_400(body, services, repeats):
    request = _with_entry(
        body, "workloads", "workload", ("kernel", "repeats"), repeats
    )
    for service in services:
        message = _rejected(service, request)
        assert "repeats" in message or "budget" in message, message


def _pool_kernels(entry: dict) -> list[dict]:
    """Every kernel form inside one workload pool entry."""
    if "kernel" in entry:
        return [entry["kernel"]]
    groups = entry.get("placement", {}).get("core_groups", [])
    return [kernel for group in groups for kernel in group]


def test_pool_over_the_slot_budget_is_a_400(body, services):
    """Kernels each under the budget still add up past it."""
    request = json.loads(json.dumps(body))
    pool = request["pool"]["workloads"]
    count = sum(len(_pool_kernels(entry)) for _, entry in pool)
    assert count >= 3
    for index, (_, entry) in enumerate(pool):
        for kernel in _pool_kernels(entry):
            kernel["repeats"] = (
                MAX_PLAN_SLOTS // (count - 1) // len(kernel["pattern"])
            )
            assert len(kernel["pattern"]) * kernel["repeats"] < MAX_PLAN_SLOTS
        _resign(request, "workloads", "workload", index, entry)
    for service in services:
        assert "budget" in _rejected(service, request)


@pytest.mark.parametrize(
    "path, cell",
    [
        pytest.param(("kernel", "pattern", 0, 0), "cell 0", id="kernel"),
        pytest.param(
            ("placement", "core_groups", 1, 0, "pattern", 0, 0),
            "cell 5",
            id="placement",
        ),
    ],
)
def test_unknown_mnemonic_is_a_400(body, services, path, cell):
    request = _with_entry(body, "workloads", "workload", path, "frobnicate")
    for service in services:
        message = _rejected(service, request)
        assert cell in message and "'frobnicate'" in message, message
