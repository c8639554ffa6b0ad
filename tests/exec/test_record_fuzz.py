"""Seeded mutational fuzzing of store lines and service stream lines.

Every mutated input has one of three acceptable outcomes:

* the original measurement, bit for bit;
* a counted store miss (the record is quarantined and re-measured);
* a :class:`~repro.errors.ServiceError` from :class:`RemoteExecutor`.

The same store-line mutants are also served warm by a store-backed
:class:`MeasurementService`, which streams a record's verified body
bytes without decoding them; each served outcome is what
:meth:`ResultStore.get` does with the line.  The original comes back
bit for bit, a miss is re-measured to the original, and a record whose
checksum verifies but whose body does not decode reaches the client,
whose :class:`RemoteExecutor` raises a :class:`ServiceError` naming the
cell.

Kernel records, the store's second record type, admit two: the
original kernel, or a counted miss whose re-synthesized kernel equals
fresh synthesis output -- so either way the memo serves exactly the
kernel synthesis builds.

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
compact ``threads``/``counters`` section, to the older
``thread_counters`` body and to a kernel record's slot table and index.
Structural edits are applied twice: keeping the stale checksum, and
re-signed so they reach the decoder.
"""

import io
import json
import random
import struct

import pytest

from repro.core.passes import (
    DependencyDistance,
    EndlessLoopSkeleton,
    InitImmediates,
    InitRegisters,
    InstructionDistribution,
    MemoryModel,
)
from repro.core.synthesizer import KernelMemo, Synthesizer
from repro.errors import ServiceError
from repro.exec import ExperimentPlan, ResultStore, SerialExecutor, faults
from repro.exec.client import RemoteExecutor, ServiceClient
from repro.exec.serialize import plan_to_dict_v2
from repro.exec.service import MeasurementService
from repro.exec.faults import FaultPlan
from repro.exec.store import KERNELS, kernel_body, render_record
from repro.march import get_architecture
from repro.sim import Machine, MachineConfig, Placement, parse_topology
from repro.sim.kernel import Kernel, KernelInstruction
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

    def emit(data: bytes) -> None:
        lines.extend(data.splitlines(keepends=True))

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


def _store_mutants(rng: random.Random, key: str, measurement):
    """``(kind, line)`` of every store-line mutant of ``measurement``'s
    record under ``key``, compact and pre-compact body alike: the clean
    line, each structural edit re-signed (``resigned``), then flips,
    truncations and the edits under the stale checksum (``mutant``)."""
    compact = measurement.to_dict()
    for body, edits in (
        (compact, _COMPACT_EDITS),
        (_legacy_body(compact), _LEGACY_EDITS),
    ):
        line = render_record(key, body)
        yield "clean", line
        mutated = [_flip(rng, line) for _ in range(30)]
        mutated += [_truncate(rng, line) for _ in range(10)]
        for edit in edits:
            resigned = render_record(key, _edited(body, edit))
            mutated.append(_with_sum(resigned, _sum_of(line)))
            yield "resigned", resigned
        for candidate in mutated:
            yield "mutant", candidate


def test_store_lines(tmp_path, measurements):
    rng = random.Random(_SEED)
    outcomes = {"original": 0, "miss": 0}
    trial = 0
    for number, measurement in enumerate(measurements):
        key = f"{number:02x}" + "5e" * 15
        for kind, line in _store_mutants(rng, key, measurement):
            root = tmp_path / str(trial)
            trial += 1
            outcome, store = _store_read(root, key, line, measurement)
            if kind == "clean":
                assert outcome == "original"
            elif kind == "resigned":
                # Re-signed, the edit reaches the decoder: it must be
                # rejected there, as a counted corrupt record.
                assert outcome == "miss"
                assert store.fault_stats() == {"corrupt_records": 1}
                assert ResultStore(root).verify().ok  # checksum is valid
            else:
                outcomes[outcome] += 1
    # Nearly every flip breaks the checksum; the rare survivors (a
    # space flipped to a tab) must have read back as the original.
    assert outcomes["miss"] > 0.9 * sum(outcomes.values())


@pytest.fixture(scope="module")
def served_machine(memo_arch):
    """One machine for every served trial, so each measures warm."""
    return Machine(memo_arch, seed=0)


def _served(root, machine, request, plan) -> tuple:
    """``(outcome, service counters)`` of serving ``plan`` warm from the
    store at ``root`` and reading the stream with :class:`RemoteExecutor`:
    its measurements, or the :class:`ServiceError` it raised."""
    service = MeasurementService(store=root, retries=0)
    service._engines[("POWER7", 0)] = SerialExecutor(
        machine, store=service.store, retries=0
    )
    chunks: list[bytes] = []
    try:
        service.submit(request, lambda: chunks.append)
        counters = service.stats()["service"]
    finally:
        service.close()
    executor = RemoteExecutor(_client(b"".join(chunks)), retries=0)
    try:
        return executor.execute(plan).require_complete(), counters
    except ServiceError as exc:
        return exc, counters


def test_served_store_lines(tmp_path, plan, measurements, served_machine):
    """The store-line mutants above, served warm by a store-backed
    service: each served outcome is what :meth:`ResultStore.get` does
    with the line.  The original comes back bit for bit; a miss is
    re-measured to the original; a checksum-valid body that does not
    decode reaches the client, whose executor names the cell."""
    rng = random.Random(_SEED)
    outcomes = {"original": 0, "miss": 0, "undecodable": 0}
    keys = SerialExecutor(served_machine).keys_of(plan)
    trial = 0
    for number, measurement in enumerate(measurements):
        single = ExperimentPlan([plan.cells[number]])
        request = plan_to_dict_v2(single)
        request.update(arch="POWER7", seed=0)
        key = keys[number]
        for kind, line in _store_mutants(rng, key, measurement):
            root = tmp_path / str(trial)
            trial += 1
            expected, store = _store_read(root, key, line, measurement)
            if expected == "miss" and store.fault_stats() == {
                "corrupt_records": 1
            }:
                report = ResultStore(root).verify()
                if report.ok and report.checksummed == 1:
                    expected = "undecodable"
            assert expected == {
                "clean": "original", "resigned": "undecodable"
            }.get(kind, expected)
            outcomes[expected] += 1
            served, counters = _served(
                root, served_machine, request, single
            )
            if expected == "undecodable":
                assert isinstance(served, ServiceError)
                assert "for cell 0:" in str(served)
                assert counters["measured_cells"] == 0
                continue
            assert not isinstance(served, ServiceError), served
            (found,) = served
            if expected == "original":
                assert _exact(found, ordered=False) == _exact(
                    measurement, ordered=False
                )
                assert counters["measured_cells"] == 0
            else:
                assert _exact(found) == _exact(measurement)
                assert counters["measured_cells"] == 1
    assert all(outcomes.values()), outcomes


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


#: Valid JSON that is not a record object.
_NON_OBJECTS = [b"[1, 2]", b"null", b"5", b'"ab"', b"true", b"[]"]


def _shard_lines(root, *lines: bytes) -> None:
    (root / "shards").mkdir(parents=True)
    (root / "shards" / "ab.jsonl").write_bytes(b"".join(lines))


def test_non_object_lines_are_skipped_and_counted(tmp_path, measurements):
    # The scan parses every line that does not open like a record: a
    # non-object must be skipped and counted, never crash the scan or
    # shadow the record before it.
    key = "ab" * 16
    _shard_lines(
        tmp_path,
        render_record(key, measurements[0].to_dict()),
        *(line + b"\n" for line in _NON_OBJECTS),
    )
    store = ResultStore(tmp_path)
    found = store.get(key)
    store.close()
    assert _exact(found, ordered=False) == _exact(
        measurements[0], ordered=False
    )
    assert store.fault_stats() == {"corrupt_records": len(_NON_OBJECTS)}
    assert store.hits == 1


def test_non_object_shard_is_a_counted_miss(tmp_path):
    _shard_lines(tmp_path, *(line + b"\n" for line in _NON_OBJECTS))
    store = ResultStore(tmp_path)
    found = store.get("ab" * 16)
    store.close()
    assert found is None
    assert store.fault_stats() == {"corrupt_records": len(_NON_OBJECTS)}
    assert store.misses == 1


def test_non_object_record_is_a_counted_miss(tmp_path, measurements):
    # A long-lived store's offsets can outlive an external rewrite of
    # the shard: a key can point at any line, and one that parses to a
    # JSON array must read as a miss, not crash.
    key = "ab" * 16
    record = render_record(key, measurements[0].to_dict())
    _shard_lines(tmp_path, record)
    store = ResultStore(tmp_path)
    assert key in store
    stray = b"[1, 2]".ljust(len(record) - 1) + b"\n"
    (tmp_path / "shards" / "ab.jsonl").write_bytes(stray)
    found = store.get(key)
    store.close()
    assert found is None
    assert store.fault_stats() == {"corrupt_records": 1}
    assert store.misses == 1


def test_unencodable_key_is_a_counted_miss(tmp_path):
    # A foreign line (its key first, so the scan parses it) may spell
    # its key with an escaped lone surrogate, which no checksum can
    # encode: a counted corrupt miss on both read paths, never an
    # escaping UnicodeEncodeError.
    key = "ab\ud800" + "0" * 29
    record = {"key": key, "format": "repro-result-v1", "measurement": {}}
    _shard_lines(tmp_path, json.dumps(dict(record, sum="0")).encode() + b"\n")
    store = ResultStore(tmp_path)
    assert store.get(key) is None
    assert store.get_body(key) is None
    store.close()
    assert store.fault_stats() == {"corrupt_records": 2}
    assert store.misses == 2


def test_garbage_index_files_are_ignored(
    tmp_path, plan, power7_arch, open_store
):
    # Older releases kept an index file beside each shard.  The store
    # reads none: garbage ones change nothing, and reads never write.
    root = tmp_path / "store"
    cold = SerialExecutor(Machine(power7_arch), store=open_store(root)).run(
        plan
    )
    rng = random.Random(_SEED + 2)
    keys = open_store(root).keys()
    shards = sorted(root.glob("shards/*.jsonl"))
    for number, shard in enumerate(shards):
        # Random bytes, a foreign header, and an old-style index that
        # points every key at the wrong bytes yet claims the whole shard.
        shard.with_suffix(".idx").write_bytes(
            [
                bytes(rng.randrange(256) for _ in range(64)),
                b"not an index\n",
                b'{"format": "repro-idx-v1"}\n'
                + b"".join(b'["%s", 0, 7]\n' % key.encode() for key in keys)
                + b'{"commit": [0, %d]}\n' % shard.stat().st_size,
            ][number % 3]
        )
    planted = {path: path.read_bytes() for path in root.glob("shards/*")}
    assert len(planted) == 2 * len(shards) >= 6

    machine = Machine(power7_arch)

    def forbid(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("machine invoked on a warm store")

    machine.run = machine.run_many = machine.run_cells = forbid
    store = open_store(root)
    warm = SerialExecutor(machine, store=store).run(plan)
    store.close()
    assert warm == cold
    assert store.hits == plan.size and store.misses == 0
    assert store.fault_stats() == {}
    assert ResultStore(root).verify().ok
    after = {path: path.read_bytes() for path in root.glob("shards/*")}
    assert after == planted


# -- kernel records -----------------------------------------------------------


def _slots(edit):
    """An edit of a kernel body's slot table text."""

    def apply(body):
        body["slots"] = edit(body["slots"])

    return apply


def _set_slot(text: str):
    """Replace the table's first slot with ``text``."""
    return _slots(lambda slots: "|".join([text, *slots.split("|")[1:]]))


def _set_field(field: int, text: str):
    """Replace one field of the table's first slot with ``text``."""

    def edit(slots):
        first, *rest = slots.split("|")
        fields = first.split(",")
        fields[field] = text
        return "|".join([",".join(fields), *rest])

    return _slots(edit)


def _index_past_the_table(body):
    body["index"][0] = body["slots"].count("|") + 1


#: Malformed edits of a kernel record body: each must be rejected.  The
#: slot table is one text (``mnemonic,dep,level,address`` per slot,
#: joined by ``|``), so the edits of a slot's shape and field types
#: are edits of that text.
_KERNEL_EDITS = [
    # A slot with a missing or extra field, or no slot at all.
    _set_slot("add,None,None"),
    _set_slot("add,None,None,None,None"),
    _set_slot("add"),
    _set_slot(""),
    _set_slot('{"mnemonic": "add"}'),
    _slots(lambda slots: slots + "|7"),
    _slots(lambda slots: slots + "|"),
    _slots(lambda slots: "|" + slots),
    _set(("slots",), "slots"),
    _set(("slots",), ""),
    _set(("slots",), None),
    _set(("slots",), [["add", None, None, None]]),
    _set(("slots",), {"0": "add,None,None,None"}),
    _delete("slots"),
    # A mnemonic that is not one: a number, None, a list, empty, a
    # separator inside it, padding.
    _set_field(0, "7"),
    _set_field(0, "None"),
    _set_field(0, '["add"]'),
    _set_field(0, ""),
    _set_field(0, "ad,d"),
    _set_field(0, "ad|d"),
    _set_field(0, " add"),
    # A dependency distance that is not a canonical int >= 1.
    _set_field(1, '"3"'),
    _set_field(1, "1.0"),
    _set_field(1, "True"),
    _set_field(1, "0"),
    _set_field(1, "-0"),
    _set_field(1, "-1"),
    _set_field(1, "03"),
    _set_field(1, "null"),
    _set_field(1, ""),
    # A level that is not a name, an address that is not a canonical
    # int >= 0.
    _set_field(2, "1"),
    _set_field(2, ""),
    _set_field(3, "0x10"),
    _set_field(3, "010"),
    _set_field(3, "-0"),
    _set_field(3, "-16"),
    _set_field(3, "1.0"),
    _set_field(3, "True"),
    # An index out of range or not an int.
    _set(("index", 0), 10**6),
    _set(("index", 0), -1),
    _index_past_the_table,
    _set(("index", 0), 0.0),
    _set(("index", 0), "0"),
    _set(("index", 0), True),
    _set(("index", 0), None),
    _set(("index", 0), [0]),
    _set(("index",), "0,1"),
    _set(("index",), {}),
    _set(("index",), []),
    _delete("index"),
    # Scalars.
    _set(("operand_entropy",), 1),
    _set(("operand_entropy",), "1.0"),
    _set(("operand_entropy",), 2.0),
    _set(("period",), 0),
    _set(("period",), 1.5),
    _set(("analytic_period",), "2"),
    _set(("analytic_period",), 7),
    _set(("name",), 7),
    _delete("name"),
    _delete("period"),
]


def _kernel_recipes(arch):
    """Synthesizer factories of two small recipes, one with memory."""

    def plain():
        synth = Synthesizer(arch, seed=3, name_prefix="fuzz-plain")
        synth.add_pass(EndlessLoopSkeleton(24))
        synth.add_pass(InstructionDistribution(["add", "mulld", "fmadd"]))
        synth.add_pass(InitRegisters("pattern"))
        synth.add_pass(DependencyDistance("random", max_distance=6))
        return synth

    def memory():
        synth = Synthesizer(arch, seed="4", name_prefix="fuzz-memory")
        synth.add_pass(EndlessLoopSkeleton(96))
        synth.add_pass(InstructionDistribution(["lwz", "stw", "add"]))
        synth.add_pass(MemoryModel({"L1": 0.5, "L2": 0.5}))
        synth.add_pass(InitImmediates("random"))
        synth.add_pass(DependencyDistance("fixed", distance=2))
        return synth

    return [plain, memory]


@pytest.fixture(scope="module")
def memo_arch():
    """POWER7 with its content digest computed once: the fuzzer opens
    hundreds of memos, each asking for it."""
    arch = get_architecture("POWER7")
    digest = arch.content_digest()
    arch.content_digest = lambda: digest
    return arch


def _kernel_read(
    root, arch, recipe, fresh, line: bytes, stale=None, counted=None
) -> str:
    """Load ``recipe``'s kernel through a memo over a one-line shard.

    Whatever the line holds, the memo hands back exactly the freshly
    synthesized kernel ``fresh``: loaded on a hit, synthesized again on
    a miss.  ``stale`` is a valid line the store indexes first; ``line``
    then replaces it under the same offsets.  ``counted``, if given, is
    the fault count a miss must leave.
    """
    key = recipe().recipe_key(arch.content_digest())
    shard = root / "kernels" / f"{key[:2]}.jsonl"
    shard.parent.mkdir(parents=True)
    store = ResultStore(root)
    if stale is not None:
        shard.write_bytes(stale)
        assert store.get_kernel(key) == fresh
        store.kernel_hits = 0
    shard.write_bytes(line)
    try:
        with KernelMemo(store, arch) as memo:
            served = recipe().kernel(memo)
            assert memo.pending == ([] if store.kernel_hits else [(key, fresh)])
    finally:
        store.close()
    assert served == fresh
    assert served.digest() == fresh.digest()
    assert store.kernel_hits + store.kernel_misses == 1
    assert (store.hits, store.misses) == (0, 0)
    if store.kernel_hits:
        assert store.fault_stats() == {}
        return "original"
    if counted is not None:
        assert store.fault_stats() == counted
    return "miss"


def test_kernel_records(tmp_path, memo_arch):
    rng = random.Random(_SEED + 3)
    outcomes = {"original": 0, "miss": 0}
    trial = 0

    def read(line, **kwargs):
        nonlocal trial
        trial += 1
        root = tmp_path / str(trial)
        return _kernel_read(root, memo_arch, recipe, fresh, line, **kwargs)

    for recipe in _kernel_recipes(memo_arch):
        key = recipe().recipe_key(memo_arch.content_digest())
        fresh = recipe().kernel()
        body = kernel_body(fresh)
        line = render_record(key, body, KERNELS)
        assert read(line) == "original"
        mutated = [_flip(rng, line) for _ in range(60)]
        mutated += [_truncate(rng, line) for _ in range(20)]
        for edit in _KERNEL_EDITS:
            resigned = render_record(key, _edited(body, edit), KERNELS)
            mutated.append(_with_sum(resigned, _sum_of(line)))
            # Re-signed, the edit reaches the decoder: a counted
            # corrupt record.
            assert read(resigned, counted={"corrupt_records": 1}) == "miss"
        # A record of another key where the index expects this one.
        other = "0" * 32 if key[0] != "0" else "f" * 32
        wrong_key = render_record(other, body, KERNELS)
        assert len(wrong_key) == len(line)
        assert read(wrong_key, stale=line) == "miss"
        # The same body in the retired v1 layout: a plain miss.
        retired = render_record(key, _v1_body(fresh), KERNELS).replace(
            KERNELS.format.encode(), b"repro-kernel-v1", 1
        )
        assert read(retired, counted={}) == "miss"
        for candidate in mutated:
            outcomes[read(candidate)] += 1
    assert outcomes["miss"] > 0.9 * sum(outcomes.values())


def _v1_body(kernel) -> dict:
    """A kernel's body as the v1 record wrote it: the slot table as one
    ``[mnemonic, dep_distance, source_level, address]`` list per slot."""
    body = kernel_body(kernel)
    body["slots"] = [
        [
            mnemonic,
            None if distance == "None" else int(distance),
            None if level == "None" else level,
            None if address == "None" else int(address),
        ]
        for mnemonic, distance, level, address in (
            slot.split(",") for slot in body["slots"].split("|")
        )
    ]
    return body


#: Field texts a mutated slot may take: canonical ones the grammar
#: admits beside near misses it must reject.
_TOKENS = [
    "None", "0", "1", "2", "7", "16", "4096", "01", "-0", "-1", "1.0",
    "True", "false", "add", "lwz", "fmadd", "add.", "L1", "L2", "MEM",
    "Nonee", "_x", "a-b", "", " ", "x y",
]
_CHARACTERS = "0123456789Nonaddlwz.,|_-+ L"


def _mutated_body(rng: random.Random, body: dict) -> dict:
    """``body`` after one to three random edits of its slot table text,
    index or period fields; many stay inside the grammar."""
    body = json.loads(json.dumps(body))
    for _ in range(rng.randint(1, 3)):
        table = body["slots"].split("|")
        slot = rng.randrange(len(table))
        choice = rng.random()
        if choice < 0.45:
            fields = table[slot].split(",")
            fields[rng.randrange(len(fields))] = rng.choice(_TOKENS)
            table[slot] = ",".join(fields)
            body["slots"] = "|".join(table)
        elif choice < 0.65:
            text = body["slots"]
            at = rng.randrange(len(text) + 1)
            cut = rng.choice([0, 1])
            body["slots"] = (
                text[:at] + rng.choice(["", *_CHARACTERS]) + text[at + cut:]
            )
        elif choice < 0.75:
            table[slot] = table[rng.randrange(len(table))]
            body["slots"] = "|".join(table)
        elif choice < 0.9:
            index = body["index"]
            index[rng.randrange(len(index))] = rng.randint(-1, len(table))
        else:
            name = rng.choice(["period", "analytic_period"])
            body[name] = rng.choice([None, 0, 1, 2, 3, 5, 64, 10**6])
    return body


def test_accepted_kernel_records_materialize_as_loaded(tmp_path, memo_arch):
    """Every re-signed record the loader accepts builds its slots
    without raising, each slot renders back to its table text, and the
    digest computed at load is the one the built slots hash to."""
    rng = random.Random(_SEED + 4)
    accepted = 0
    records = []
    for recipe in _kernel_recipes(memo_arch):
        body = kernel_body(recipe().kernel())
        records += [
            (f"{rng.getrandbits(128):032x}", _mutated_body(rng, body))
            for _ in range(300)
        ]
    (tmp_path / "kernels").mkdir()
    for key, body in records:
        shard = tmp_path / "kernels" / f"{key[:2]}.jsonl"
        with shard.open("ab") as handle:
            handle.write(render_record(key, body, KERNELS))
    store = ResultStore(tmp_path)
    for key, body in records:
        kernel = store.get_kernel(key)
        if kernel is None:
            continue
        accepted += 1
        loaded_digest = vars(kernel)["_digest"]
        assert "instructions" not in vars(kernel)
        instructions = kernel.instructions
        table = body["slots"].split("|")
        assert len(instructions) == len(kernel) == len(body["index"])
        for slot, position in zip(instructions, body["index"]):
            rendered = (
                f"{slot.mnemonic},{slot.dep_distance},"
                f"{slot.source_level},{slot.address}"
            )
            assert rendered == table[position]
        # Fresh slot objects (no cached text) through the checking
        # constructor: every kernel condition holds, and the digest
        # recomputed from the fields is the one computed at load.
        rebuilt = Kernel(
            kernel.name,
            tuple(
                KernelInstruction(
                    slot.mnemonic, slot.dep_distance, slot.source_level,
                    slot.address,
                )
                for slot in instructions
            ),
            kernel.operand_entropy,
            kernel.period,
            kernel.analytic_period,
        )
        assert rebuilt.digest() == loaded_digest == kernel.digest()
    store.close()
    # Rejections are counted misses, never anything else.
    assert store.kernel_misses == len(records) - accepted
    assert store.fault_stats() == {"corrupt_records": store.kernel_misses}
    assert 0.2 * len(records) < accepted < 0.9 * len(records)


def test_kernel_record_faults_are_counted(tmp_path, power7_arch, open_store):
    plain = _kernel_recipes(power7_arch)[0]
    key = plain().recipe_key(power7_arch.content_digest())
    body = kernel_body(plain().kernel())
    counted = {
        "checksum_failures": _with_sum(
            render_record(key, dict(body, name="renamed"), KERNELS),
            _sum_of(render_record(key, body, KERNELS)),
        ),
        "corrupt_records": render_record(
            key, _edited(body, _set(("index", 0), -1)), KERNELS
        ),
    }
    for number, (counter, line) in enumerate(counted.items()):
        root = tmp_path / str(number)
        (root / "kernels").mkdir(parents=True)
        (root / "kernels" / f"{key[:2]}.jsonl").write_bytes(line)
        store = open_store(root)
        assert store.get_kernel(key) is None
        assert store.fault_stats() == {counter: 1}
        assert (store.kernel_misses, store.misses) == (1, 0)
    with faults.injected(FaultPlan(seed=1).arm("io")):
        store = open_store(root)
        assert store.get_kernel(key) is None
        store.put_kernels([(key, plain().kernel())])  # never raises
        assert store.fault_stats() == {"io_errors": 2}


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

