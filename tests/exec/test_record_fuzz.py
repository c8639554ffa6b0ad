"""Seeded mutational fuzzing of store lines and service stream lines.

Every mutated input has one of three acceptable outcomes:

* the original measurement, bit for bit;
* a counted store miss (the record is quarantined and re-measured);
* a :class:`~repro.errors.ServiceError` from :class:`RemoteExecutor`.

Nothing else may escape -- no ``IndexError``, no ``AttributeError``,
no stray ``UnicodeDecodeError`` -- and a store read never returns a
measurement other than the one written: every record carries a
checksum.  Stream lines carry none (HTTP over TCP already protects
them), so they admit one more outcome: a flip that turns one number
into another well-formed number decodes to exactly the measurement the
mutated line spells, which the fuzzer checks against an independent
expansion of the line.

Mutations are stdlib ``random`` only: single-byte XOR flips, truncations
(with and without the trailing newline), and structural edits to the
compact ``threads``/``counters`` section and to the older
``thread_counters`` body.  Structural edits are applied twice: keeping
the stale checksum, and re-signed so they reach the decoder.
"""

import io
import json
import random
import struct

import pytest

from repro.errors import ServiceError
from repro.exec import ExperimentPlan, ResultStore, SerialExecutor
from repro.exec.client import RemoteExecutor, ServiceClient
from repro.exec.serialize import plan_to_dict_v2
from repro.exec.service import MeasurementService
from repro.exec.store import render_record
from repro.sim import Machine, MachineConfig, Placement, parse_topology
from repro.stressmark.search import build_stressmark

_SEED = 20121201
_DURATION = 1.0


def _bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


def _exact(measurement, ordered: bool = True) -> tuple:
    """Every field, floats by their bits; store reads sort counter names."""
    sets = []
    for counters in measurement.thread_counters:
        items = [(name, _bits(value)) for name, value in counters.items()]
        sets.append(tuple(items if ordered else sorted(items)))
    return (
        measurement.workload_name,
        measurement.config,
        _bits(measurement.duration),
        tuple(sets),
        _bits(measurement.mean_power),
        _bits(measurement.power_std),
        measurement.sample_count,
        measurement.thread_workloads,
    )


def _legacy_body(body: dict) -> dict:
    """The pre-compact body of a compact one: one set per thread."""
    legacy = {
        name: value
        for name, value in body.items()
        if name not in ("counters", "threads")
    }
    legacy["thread_counters"] = [
        body["counters"][index] for index in body["threads"]
    ]
    return legacy


def _spelled(body) -> str | None:
    """What a stream body says, per thread, independent of the decoder.

    ``None`` when the body is not even shaped like a measurement.
    """
    try:
        expanded = dict(body)
        if expanded.get("counters") is not None:
            rows = expanded.pop("counters")
            expanded["thread_counters"] = [
                rows[index] for index in expanded.pop("threads")
            ]
        expanded.pop("threads", None)
        return json.dumps(expanded, sort_keys=True)
    except (TypeError, KeyError, IndexError, ValueError):
        return None


# -- mutators -----------------------------------------------------------------


def _flip(rng: random.Random, line: bytes) -> bytes:
    body = bytearray(line[:-1])
    body[rng.randrange(len(body))] ^= rng.randrange(1, 256)
    return bytes(body) + b"\n"


def _truncate(rng: random.Random, line: bytes) -> bytes:
    cut = line[: rng.randrange(1, len(line) - 1)]
    return cut + b"\n" if rng.random() < 0.5 else cut


def _set(path, value):
    def edit(body):
        target = body
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value

    return edit


def _call(path, method, *args):
    def edit(body):
        getattr(body[path], method)(*args)

    return edit


def _delete(name):
    def edit(body):
        del body[name]

    return edit


#: Malformed edits of a compact body: each must be rejected.
_COMPACT_EDITS = [
    _set(("threads", -1), 99),
    _set(("threads", 0), -1),
    _set(("threads", 0), 0.0),
    _set(("threads", 0), "0"),
    _set(("threads", 0), True),
    _set(("threads", 0), None),
    _set(("threads", 0), [0]),
    _call("threads", "pop"),
    _call("threads", "append", 0),
    _set(("threads",), "0000"),
    _set(("threads",), {}),
    _set(("threads",), None),
    _set(("counters", 0), [["PM_RUN_CYC", 1.0]]),
    _set(("counters", 0), "counters"),
    _set(("counters", 0), 1.0),
    _set(("counters", 0), None),
    _set(("counters",), {"0": {}}),
    _set(("counters",), "rows"),
    _set(("counters",), []),
    _delete("threads"),
    _delete("counters"),
]

#: Malformed edits of a pre-compact body: each must be rejected.
_LEGACY_EDITS = [
    _set(("thread_counters", 0), [["PM_RUN_CYC", 1.0]]),
    _set(("thread_counters", 0), "counters"),
    _set(("thread_counters", 0), None),
    _set(("thread_counters", 0), 7),
    _call("thread_counters", "pop"),
    _call("thread_counters", "append", {}),
    _set(("thread_counters",), {}),
    _set(("thread_counters",), "rows"),
    _set(("thread_counters",), None),
    _delete("thread_counters"),
]


def _edited(body: dict, edit) -> dict:
    copy = json.loads(json.dumps(body))
    edit(copy)
    return copy


def _with_sum(line: bytes, digest: bytes) -> bytes:
    """``line`` carrying another record's checksum."""
    head, _, _ = line.rpartition(b', "sum": "')
    return head + b', "sum": "' + digest + b'"}\n'


def _sum_of(line: bytes) -> bytes:
    return line.rpartition(b', "sum": "')[2][:-3]


# -- fixtures -----------------------------------------------------------------


@pytest.fixture(scope="module")
def plan(power7_arch):
    kernels = [
        build_stressmark(power7_arch, sequence, 96)
        for sequence in (("mulldo", "lxvw4x"), ("xvnmsubmdp", "mulldo"))
    ]
    mix = Placement(
        "mix", ((kernels[0], kernels[1]), (kernels[1], kernels[1]))
    )
    cells = list(
        ExperimentPlan.cross(
            kernels, [MachineConfig(4, 4), MachineConfig(1, 1)],
            duration=_DURATION,
        ).cells
    )
    cells += ExperimentPlan.cross(
        kernels[:1],
        [parse_topology("2big-2@p2+2little")],
        duration=_DURATION,
    ).cells
    cells += ExperimentPlan.cross(
        [mix], [MachineConfig(2, 2)], duration=_DURATION
    ).cells
    return ExperimentPlan(cells)


@pytest.fixture(scope="module")
def stream(plan):
    """The real service's stream lines for ``plan``, as sent on the wire."""
    lines: list[bytes] = []

    def emit(line: dict) -> None:
        lines.append(json.dumps(line).encode() + b"\n")

    service = MeasurementService()
    try:
        request = plan_to_dict_v2(plan)
        request.update(arch="POWER7", seed=0)
        service.submit(request, lambda: emit)
    finally:
        service.close()
    return lines


@pytest.fixture(scope="module")
def measurements(plan, stream):
    executor = RemoteExecutor(_client(b"".join(stream)), retries=0)
    return executor.execute(plan).require_complete()


class _Response(io.BytesIO):
    status = 200


class _Connection:
    def close(self) -> None:
        pass


def _client(data: bytes) -> ServiceClient:
    """A client whose every request answers ``data`` as the stream."""
    client = ServiceClient("http://127.0.0.1:9", retries=0)
    client._request = lambda *args, **kwargs: (_Connection(), _Response(data))
    return client


# -- store lines --------------------------------------------------------------


def _store_read(root, key: str, line: bytes, original) -> tuple:
    """``(outcome, store)`` of reading ``key`` from a one-line shard."""
    shards = root / "shards"
    shards.mkdir(parents=True)
    (shards / f"{key[:2]}.jsonl").write_bytes(line)
    store = ResultStore(root)
    try:
        found = store.get(key)
    finally:
        store.close()
    if found is None:
        assert store.misses == 1
        return "miss", store
    assert _exact(found, ordered=False) == _exact(original, ordered=False)
    return "original", store


def test_store_lines(tmp_path, measurements):
    rng = random.Random(_SEED)
    outcomes = {"original": 0, "miss": 0}
    trial = 0
    for number, measurement in enumerate(measurements):
        key = f"{number:02x}" + "5e" * 15
        compact = measurement.to_dict()
        for body, edits in (
            (compact, _COMPACT_EDITS),
            (_legacy_body(compact), _LEGACY_EDITS),
        ):
            line = render_record(key, body)
            clean, _ = _store_read(
                tmp_path / str(trial), key, line, measurement
            )
            assert clean == "original"
            trial += 1
            mutated = [_flip(rng, line) for _ in range(30)]
            mutated += [_truncate(rng, line) for _ in range(10)]
            for edit in edits:
                resigned = render_record(key, _edited(body, edit))
                mutated.append(_with_sum(resigned, _sum_of(line)))
                # Re-signed, the edit reaches the decoder: it must be
                # rejected there, as a counted corrupt record.
                root = tmp_path / str(trial)
                trial += 1
                outcome, store = _store_read(root, key, resigned, measurement)
                assert outcome == "miss"
                assert store.fault_stats() == {"corrupt_records": 1}
                assert ResultStore(root).verify().ok  # checksum is valid
            for candidate in mutated:
                outcome, _ = _store_read(
                    tmp_path / str(trial), key, candidate, measurement
                )
                trial += 1
                outcomes[outcome] += 1
    # Nearly every flip breaks the checksum; the rare survivors (a
    # space flipped to a tab) must have read back as the original.
    assert outcomes["miss"] > 0.9 * sum(outcomes.values())


def test_store_quarantine_is_counted_as_corrupt(tmp_path, measurements):
    key = "ab" * 16
    body = _edited(measurements[0].to_dict(), _set(("threads", 0), 99))
    (tmp_path / "shards").mkdir()
    (tmp_path / "shards" / "ab.jsonl").write_bytes(render_record(key, body))
    store = ResultStore(tmp_path)
    found = store.get(key)
    store.close()
    assert found is None
    assert store.fault_stats()["corrupt_records"] == 1
    assert store.misses == 1


def test_non_object_record_is_a_counted_miss(tmp_path, measurements):
    # A lying sidecar index can point a key at any line of the shard;
    # one that parses to a JSON array must read as a miss, not crash.
    key = "ab" * 16
    record = render_record(key, measurements[0].to_dict())
    stray = b"[1, 2]\n"
    (tmp_path / "shards").mkdir()
    (tmp_path / "shards" / "ab.jsonl").write_bytes(record + stray)
    size = len(record) + len(stray)
    (tmp_path / "shards" / "ab.idx").write_text(
        '{"format": "repro-idx-v1"}\n'
        f'["{key}", {len(record)}, {len(stray)}]\n'
        f'{{"commit": [0, {size}]}}\n'
    )
    store = ResultStore(tmp_path)
    found = store.get(key)
    store.close()
    assert found is None
    assert store.fault_stats()["corrupt_records"] == 1
    assert store.misses == 1


# -- stream lines -------------------------------------------------------------


def _stream_read(plan, stream, index: int, line: bytes, measurements) -> str:
    data = b"".join(stream[:index] + [line] + stream[index + 1 :])
    try:
        report = RemoteExecutor(_client(data), retries=0).execute(plan)
    except ServiceError:
        return "rejected"
    got = report.require_complete()
    differing = [
        cell
        for cell, (found, original) in enumerate(zip(got, measurements))
        if _exact(found) != _exact(original)
    ]
    if not differing:
        return "original"
    # Only a well-formed rewrite of one cell's numbers gets here: that
    # cell must decode to exactly what the mutated line spells.
    mutated = json.loads(line)
    original = json.loads(stream[index])
    assert mutated != original
    assert differing == [mutated["cell"]] == [original["cell"]]
    spelled = _spelled(mutated["measurement"])
    assert spelled is not None
    assert _spelled(got[mutated["cell"]].to_dict()) == spelled
    return "rewritten"


def test_stream_lines(plan, stream, measurements):
    rng = random.Random(_SEED + 1)
    outcomes = {"original": 0, "rejected": 0, "rewritten": 0}
    cell_lines = [
        index for index, line in enumerate(stream) if b'"measurement"' in line
    ]
    assert len(cell_lines) == plan.size
    trials = [
        (index, _flip(rng, stream[index]))
        for index in (rng.randrange(len(stream)) for _ in range(240))
    ]
    trials += [
        (index, _truncate(rng, stream[index]))
        for index in (rng.randrange(len(stream)) for _ in range(40))
    ]
    for index in cell_lines:
        line = json.loads(stream[index])
        body = line["measurement"]
        for edit in _COMPACT_EDITS:
            edited = dict(line, measurement=_edited(body, edit))
            outcome = _stream_read(
                plan, stream, index,
                json.dumps(edited).encode() + b"\n", measurements,
            )
            assert outcome == "rejected"
        legacy = _legacy_body(body)
        for edit in _LEGACY_EDITS:
            edited = dict(line, measurement=_edited(legacy, edit))
            outcome = _stream_read(
                plan, stream, index,
                json.dumps(edited).encode() + b"\n", measurements,
            )
            assert outcome == "rejected"
    for index, mutated in trials:
        outcomes[_stream_read(plan, stream, index, mutated, measurements)] += 1
    assert all(outcomes.values()), outcomes


def test_wire_measurements_equal_one_shot(plan, measurements, power7_arch):
    one_shot = SerialExecutor(Machine(power7_arch)).run(plan)
    assert [_exact(m) for m in measurements] == [_exact(m) for m in one_shot]


def test_stream_of_pre_change_bodies_decodes(plan, stream, measurements):
    legacy = []
    for raw in stream:
        line = json.loads(raw)
        if "measurement" in line:
            line["measurement"] = _legacy_body(line["measurement"])
        legacy.append(json.dumps(line).encode() + b"\n")
    report = RemoteExecutor(_client(b"".join(legacy)), retries=0).execute(plan)
    assert [_exact(m) for m in report.require_complete()] == [
        _exact(m) for m in measurements
    ]


@pytest.mark.parametrize(
    "cell", [-1, 99, "0", 0.0, None], ids=lambda value: repr(value)
)
def test_stream_cell_index_is_validated(plan, stream, cell):
    index = next(i for i, raw in enumerate(stream) if b'"cell"' in raw)
    line = dict(json.loads(stream[index]), cell=cell)
    mutated = json.dumps(line).encode() + b"\n"
    data = b"".join(stream[:index] + [mutated] + stream[index + 1 :])
    with pytest.raises(ServiceError):
        RemoteExecutor(_client(data), retries=0).execute(plan)


def test_stream_line_that_is_not_an_object(plan, stream):
    data = b"".join([stream[0], b"[1, 2]\n"] + stream[1:])
    with pytest.raises(ServiceError, match="non-object"):
        RemoteExecutor(_client(data), retries=0).execute(plan)

