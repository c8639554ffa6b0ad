"""The compact measurement record: round trips, content identity, rejects.

``Measurement.to_dict`` writes each distinct per-thread counter set once
(``counters``) plus one set index per hardware thread (``threads``);
``from_dict`` reads that body and the older one-set-per-thread
``thread_counters`` body.  These tests pin the three properties the
store and the service stream rely on: a bit-exact round trip for every
kind of measurement the machine produces, an encoding determined by
content alone, and a ``ValueError`` for every malformed compact body.
"""

import json
import math
import struct

import pytest

from repro.exec import ExperimentPlan, SerialExecutor
from repro.measure.measurement import Measurement
from repro.sim import Machine, MachineConfig, Placement, parse_topology
from repro.sim.config import standard_configurations
from repro.stressmark.search import build_stressmark
from tests.oracle import OracleMachine

_DURATION = 1.0
_SEQUENCES = (
    ("mulldo", "lxvw4x"),
    ("xvnmsubmdp", "mulldo", "lxvw4x"),
    ("lxvw4x", "xvnmsubmdp"),
    ("mulldo", "xvnmsubmdp", "mulldo"),
)


def _bits(value):
    """A value's exact identity: float bits, or the value itself."""
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    return (type(value).__name__, value)


def _exact(measurement: Measurement) -> tuple:
    """Every field of a measurement, floats compared by their bits."""
    return (
        measurement.workload_name,
        measurement.config,
        type(measurement.config),
        _bits(measurement.duration),
        tuple(
            tuple((name, _bits(value)) for name, value in counters.items())
            for counters in measurement.thread_counters
        ),
        _bits(measurement.mean_power),
        _bits(measurement.power_std),
        measurement.sample_count,
        measurement.thread_workloads,
    )


def _round_trip(measurement: Measurement) -> Measurement:
    return Measurement.from_dict(json.loads(json.dumps(measurement.to_dict())))


def _legacy_body(measurement: Measurement) -> dict:
    """The pre-compact record body: one counters object per thread."""
    body = measurement.to_dict()
    rows, threads = body.pop("counters"), body.pop("threads")
    body["thread_counters"] = [rows[index] for index in threads]
    return body


def _kernels(arch):
    return [build_stressmark(arch, sequence, 96) for sequence in _SEQUENCES]


@pytest.fixture(scope="module")
def measured(power7_arch):
    """One measurement of every kind the machine produces."""
    arch = power7_arch
    kernels = _kernels(arch)
    scalar = OracleMachine(arch)
    topology = parse_topology("2big-2@p2+2little")
    fused_plan = ExperimentPlan.cross(
        kernels, standard_configurations(4, (1, 2, 4)), duration=_DURATION
    )
    fused = SerialExecutor(Machine(arch)).run(fused_plan)
    # Eight distinct topology cells: enough for the fused plane.
    topo_plan = ExperimentPlan.cross(
        kernels, [topology, parse_topology("1big-4+2little-2")],
        duration=_DURATION,
    )
    fused_topology = SerialExecutor(Machine(arch)).run(topo_plan)
    mix = Placement(
        "mix", ((kernels[0], kernels[1]), (kernels[1], kernels[1]))
    )
    return {
        "scalar": scalar.run(kernels[0], MachineConfig(4, 4), _DURATION),
        "fused": fused[-1],
        "mixed-placement": scalar.run(mix, MachineConfig(2, 2), _DURATION),
        "multi-cluster": scalar.run(kernels[1], topology, _DURATION),
        "fused-multi-cluster": fused_topology[-1],
        "idle": scalar.run_idle(topology, _DURATION),
    }


def _special(measurement: Measurement) -> Measurement:
    """A copy whose second thread reads -0.0 and NaN counter values."""
    threads = list(measurement.thread_counters)
    odd = dict(threads[0])
    names = list(odd)
    odd[names[0]] = -0.0
    odd[names[1]] = math.nan
    threads[1] = odd
    return Measurement(
        workload_name=measurement.workload_name,
        config=measurement.config,
        duration=measurement.duration,
        thread_counters=tuple(threads),
        mean_power=-0.0,
        power_std=measurement.power_std,
        sample_count=measurement.sample_count,
        thread_workloads=measurement.thread_workloads,
    )


_KINDS = (
    "scalar",
    "fused",
    "mixed-placement",
    "multi-cluster",
    "fused-multi-cluster",
    "idle",
)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", _KINDS)
    def test_field_for_field(self, measured, kind):
        measurement = measured[kind]
        rebuilt = _round_trip(measurement)
        assert _exact(rebuilt) == _exact(measurement)
        assert rebuilt == measurement

    @pytest.mark.parametrize("kind", _KINDS)
    def test_signed_zero_and_nan(self, measured, kind):
        measurement = _special(measured[kind])
        rebuilt = _round_trip(measurement)
        assert _exact(rebuilt) == _exact(measurement)
        assert math.copysign(1.0, rebuilt.mean_power) == -1.0

    def test_fused_views_really_are_lazy(self, measured):
        # The fixture must cover the fused plane's row views, not only
        # the scalar walk's dicts.
        for kind in ("fused", "fused-multi-cluster"):
            assert type(measured[kind].thread_counters[0]) is not dict

    def test_one_benchmark_copy_per_thread_writes_one_set(self, measured):
        body = measured["fused"].to_dict()
        assert len(body["counters"]) == 1
        assert body["threads"] == [0] * measured["fused"].threads
        assert "thread_counters" not in body

    def test_mixed_placement_writes_sets_in_first_use_order(self, measured):
        measurement = measured["mixed-placement"]
        body = measurement.to_dict()
        # Core 0 runs both kernels, core 1 the second kernel twice: the
        # second kernel reads differently on the two cores.
        assert body["threads"] == [0, 1, 2, 2]
        assert body["counters"][0] == dict(measurement.thread_counters[0])

    def test_decoded_threads_share_one_dict_per_set(self, measured):
        rebuilt = _round_trip(measured["multi-cluster"])
        threads = rebuilt.thread_counters
        assert threads[0] is threads[3]  # the 2big-2 cluster's four threads
        assert threads[4] is threads[5]  # the 2little cluster's two
        assert threads[0] is not threads[4]

    @pytest.mark.parametrize("kind", _KINDS)
    def test_legacy_body_still_reads(self, measured, kind):
        measurement = measured[kind]
        legacy = json.loads(json.dumps(_legacy_body(measurement)))
        assert _exact(Measurement.from_dict(legacy)) == _exact(measurement)


class TestContentDeterminedEncoding:
    @pytest.mark.parametrize("kind", _KINDS)
    def test_shared_copied_and_legacy_encode_identically(
        self, measured, kind
    ):
        measurement = measured[kind]
        copied = Measurement(
            workload_name=measurement.workload_name,
            config=measurement.config,
            duration=measurement.duration,
            thread_counters=tuple(
                dict(counters.items())
                for counters in measurement.thread_counters
            ),
            mean_power=measurement.mean_power,
            power_std=measurement.power_std,
            sample_count=measurement.sample_count,
            thread_workloads=measurement.thread_workloads,
        )
        legacy = Measurement.from_dict(_legacy_body(measurement))
        encoded = measurement.to_dict()
        assert copied.to_dict() == encoded
        assert legacy.to_dict() == encoded
        assert json.dumps(legacy.to_dict()) == json.dumps(encoded)

    def _two_threads(self, first: dict, second: dict) -> Measurement:
        return Measurement(
            workload_name="w",
            config=MachineConfig(1, 2),
            duration=_DURATION,
            thread_counters=(first, second),
            mean_power=1.0,
            power_std=0.1,
            sample_count=1000,
        )

    def test_signed_zeros_stay_distinct_sets(self):
        # 0.0 == -0.0, but the two encode to different bytes.
        body = self._two_threads({"A": 0.0}, {"A": -0.0}).to_dict()
        assert body["threads"] == [0, 1]
        assert math.copysign(1.0, body["counters"][1]["A"]) == -1.0

    def test_nan_copies_with_identical_bits_merge(self):
        # nan != nan, but two copies of one NaN are one counter set.
        body = self._two_threads(
            {"A": float("nan")}, {"A": float("nan")}
        ).to_dict()
        assert body["threads"] == [0, 0]
        assert len(body["counters"]) == 1

    def test_int_and_float_values_stay_distinct_sets(self):
        # 1 == 1.0, but JSON writes them differently.
        body = self._two_threads({"A": 1}, {"A": 1.0}).to_dict()
        assert body["threads"] == [0, 1]
        assert json.dumps(body["counters"]) == '[{"A": 1}, {"A": 1.0}]'

    def test_key_order_is_content(self):
        body = self._two_threads(
            {"A": 1.0, "B": 2.0}, {"B": 2.0, "A": 1.0}
        ).to_dict()
        assert body["threads"] == [0, 1]


class TestMalformedCompactBodies:
    @pytest.fixture
    def body(self, measured):
        return json.loads(json.dumps(measured["multi-cluster"].to_dict()))

    @pytest.mark.parametrize(
        "threads",
        [
            [0, 0, 0, 0, 1, 2],  # index past the last set
            [0, 0, 0, 0, 1, -1],  # negative index
            [0, 0, 0, 0, 1, 1.0],  # float index
            [0, 0, 0, 0, 1, "1"],  # string index
            [0, 0, 0, 0, 1, True],  # bool index
            [0, 0, 0, 0, 1, None],
            [0, 0, 0, 0, 1, [1]],
            [0, 0, 0, 0, 1],  # one thread short
            [0, 0, 0, 0, 1, 1, 1],  # one thread too many
            [],
            {"0": 0},
            "000011",
            None,
        ],
    )
    def test_bad_threads_rejected(self, body, threads):
        body["threads"] = threads
        with pytest.raises(ValueError):
            Measurement.from_dict(body)

    @pytest.mark.parametrize("row", [[1.0, 2.0], "counters", 3.0, None])
    def test_row_that_is_not_a_mapping_rejected(self, body, row):
        body["counters"][1] = row
        with pytest.raises(ValueError):
            Measurement.from_dict(body)

    @pytest.mark.parametrize("counters", [{"0": {}}, "rows", 7])
    def test_counters_that_are_not_a_list_rejected(self, body, counters):
        body["counters"] = counters
        with pytest.raises(ValueError):
            Measurement.from_dict(body)

    def test_empty_counters_rejected(self, body):
        body["counters"] = []
        with pytest.raises(ValueError):
            Measurement.from_dict(body)

    def test_missing_threads_is_a_key_error(self, body):
        del body["threads"]
        with pytest.raises(KeyError):
            Measurement.from_dict(body)

    @pytest.mark.parametrize("config", [[], "2-2", [{"cores": 2}]])
    def test_config_that_is_not_a_mapping_rejected(self, body, config):
        body["config"] = config
        with pytest.raises((ValueError, TypeError)):
            Measurement.from_dict(body)

    def test_cluster_that_is_not_a_mapping_rejected(self, body):
        body["config"]["clusters"][0] = ["big", 2, 2]
        with pytest.raises(ValueError):
            Measurement.from_dict(body)

    def test_legacy_row_that_is_not_a_mapping_rejected(self, measured):
        body = _legacy_body(measured["scalar"])
        body["thread_counters"][3] = [["PM_RUN_CYC", 1.0]]
        with pytest.raises(ValueError):
            Measurement.from_dict(body)
