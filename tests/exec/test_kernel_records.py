"""Kernel records beside cell records, after a store-backed campaign.

A store-backed :class:`ModelingCampaign` writes its training kernels as
a second record type.  They must stay out of the cell accounting, pass
``verify``, compact under ``scrub``, and -- under injected I/O faults
and tampered records -- never change the campaign's result.  A kernel
builds its slot objects only when its ``instructions`` are read, and a
campaign reads none: synthesis, digests, kernel records and summaries
all read slot tables, so a store-backed campaign builds no slot --
cold, fully warm, or with every cell missing over a warm memo.
"""

import hashlib
import json
import os
import shutil

import pytest

from repro.core import synthesizer as synthesizer_module
from repro.exec import ResultStore, SerialExecutor, executors, faults
from repro.exec.faults import FaultPlan
from repro.exec.store import KERNELS, render_record
from repro.power_model import campaign as campaign_module
from repro.power_model.campaign import ModelingCampaign
from repro.sim import Machine
from repro.sim import kernel as kernel_module
from repro.sim.kernel import KernelInstruction

SCALE = 0.05
LOOP = 128
DURATION = 1.0


class _KeyedExecutor(SerialExecutor):
    """A store-backed executor that remembers every cell key it ran."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cell_keys: set[str] = set()

    def execute(self, plan, progress=None):
        report = super().execute(plan, progress)
        self.cell_keys.update(self.key_of(cell) for cell in plan.cells)
        return report


def _campaign(arch, root=None, executor_class=SerialExecutor):
    machine = Machine(arch)
    store = ResultStore(root) if root is not None else None
    executor = executor_class(machine, store=store)
    try:
        result = ModelingCampaign(
            machine, scale=SCALE, loop_size=LOOP, duration=DURATION,
            executor=executor,
        ).run()
    finally:
        if store is not None:
            store.close()
    return result, executor


def _fingerprint(result) -> str:
    """Digest of every fitted number and measurement, floats by repr.

    Store reads list counters by name, so measurements render with
    sorted keys.
    """
    bottom_up = result.bottom_up
    text = repr(
        (
            sorted(bottom_up.weights.items()),
            bottom_up.smt_effect,
            bottom_up.cmp_effect,
            bottom_up.uncore,
            bottom_up.workload_independent,
            [
                (name, list(model.coefficients), model.intercept)
                for name, model in sorted(result.top_down.items())
            ],
            [
                json.dumps(measurement.to_dict(), sort_keys=True)
                for measurements in result.spec_by_config.values()
                for measurement in measurements
            ],
            json.dumps(result.idle.to_dict(), sort_keys=True),
        )
    )
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


@pytest.fixture(scope="module")
def clean(power7_arch):
    """The store-less campaign: the result every store run must match."""
    return _fingerprint(_campaign(power7_arch)[0])


@pytest.fixture(scope="module")
def campaign_store(power7_arch, tmp_path_factory):
    root = tmp_path_factory.mktemp("campaign-store")
    result, executor = _campaign(power7_arch, root, _KeyedExecutor)
    return root, result, executor


def _kernel_lines(root) -> list[bytes]:
    return [
        line
        for path in sorted((root / "kernels").glob("??.jsonl"))
        for line in path.read_bytes().splitlines(keepends=True)
    ]


def test_store_counts_cells_only(campaign_store, clean, open_store):
    root, result, executor = campaign_store
    assert _fingerprint(result) == clean
    store = open_store(root)
    assert len(store) == len(executor.cell_keys)
    assert set(store.keys()) == executor.cell_keys
    assert store.snapshot_stats()["cells"] == len(executor.cell_keys)
    # Each distinct cell missed once; kernel lookups are counted apart.
    assert executor.store.misses == len(executor.cell_keys)
    assert executor.store.kernel_misses == len(_kernel_lines(root)) > 0
    assert executor.store.kernel_hits == 0
    # The campaign's stages share one plan: no cell is read back.
    assert executor.store.hits == 0


def test_verify_counts_kernel_records_apart(campaign_store):
    root, _, executor = campaign_store
    report = ResultStore(root).verify()
    assert report.ok, report.problems
    assert report.keys == report.records == len(executor.cell_keys)
    assert report.checksummed == report.records
    assert report.kernel_keys == report.kernel_records
    assert report.kernel_records == executor.store.kernel_misses
    assert f"{report.kernel_keys} kernel(s)" in report.describe()


def test_warm_campaign_loads_every_kernel(campaign_store, clean, power7_arch):
    root, _, executor = campaign_store
    result, warm = _campaign(power7_arch, root)
    assert _fingerprint(result) == clean
    assert warm.store.kernel_hits == executor.store.kernel_misses
    assert warm.store.kernel_misses == 0
    assert warm.store.misses == 0
    assert warm.store.fault_stats() == {}


@pytest.fixture
def slot_builds(monkeypatch):
    """Slot tables turned into slot objects by table kernels (each one
    kept alive, so ``id``s stay distinct) and :class:`KernelInstruction`
    objects constructed, by a table kernel or by the constructor.  The
    count sees this process only, so kernels are built in it; a test
    may still fork the build (see :func:`suite_kernels`)."""
    built = {"tables": [], "instructions": 0}
    build = kernel_module._slots_of
    construct = KernelInstruction.__init__

    def counting_build(texts, fields, index):
        built["tables"].append(texts)
        built["instructions"] += len(texts)
        return build(texts, fields, index)

    def counting_construct(self, *args, **kwargs):
        built["instructions"] += 1
        construct(self, *args, **kwargs)

    monkeypatch.setattr(kernel_module, "_slots_of", counting_build)
    monkeypatch.setattr(KernelInstruction, "__init__", counting_construct)
    monkeypatch.setattr(synthesizer_module, "_usable_cpus", lambda: 1)
    return built


@pytest.fixture
def suite_kernels(monkeypatch):
    """Every kernel the campaign's suite builders return.  One built in
    a forked child would carry slots built there as ``instructions``
    in its ``vars()``."""
    kernels = []
    for name in ("generate_micro_suite", "generate_random_suite"):

        def recording(*args, _generate=getattr(campaign_module, name), **kw):
            suite = _generate(*args, **kw)
            kernels.extend(bench.kernel for bench in suite)
            return suite

        monkeypatch.setattr(campaign_module, name, recording)
    return kernels


def _built_no_slot(kernels) -> bool:
    return bool(kernels) and not any(
        "instructions" in vars(kernel) for kernel in kernels
    )


def test_fully_warm_campaign_builds_no_slot(
    campaign_store, clean, power7_arch, slot_builds, suite_kernels
):
    root, _, executor = campaign_store
    result, warm = _campaign(power7_arch, root)
    assert _fingerprint(result) == clean
    assert warm.store.kernel_hits == executor.store.kernel_misses > 0
    assert warm.store.misses == 0
    assert slot_builds == {"tables": [], "instructions": 0}
    assert _built_no_slot(suite_kernels)


@pytest.mark.parametrize("cpus", [1, 2], ids=["one-process", "forked"])
def test_fully_cold_campaign_builds_no_slot(
    power7_arch, clean, tmp_path, slot_builds, suite_kernels, monkeypatch,
    cpus,
):
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        forks.append(pid)
        return pid

    # The smoke suites' shares sit below the fork break-even: let any fork.
    monkeypatch.setattr(synthesizer_module, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(synthesizer_module, "FORK_MIN_INSTRUCTIONS", 1)
    monkeypatch.setattr(os, "fork", counting_fork)
    result, cold = _campaign(power7_arch, tmp_path)
    assert bool(forks) == (cpus > 1)
    assert _fingerprint(result) == clean
    assert cold.store.kernel_misses == len(_kernel_lines(tmp_path)) > 0
    assert (cold.store.kernel_hits, cold.store.hits) == (0, 0)
    assert slot_builds == {"tables": [], "instructions": 0}
    assert _built_no_slot(suite_kernels)


def test_cold_cells_over_a_warm_memo_build_no_slot(
    campaign_store, clean, power7_arch, tmp_path, slot_builds, suite_kernels
):
    root, _, executor = campaign_store
    shutil.copytree(root / "kernels", tmp_path / "kernels")
    result, run = _campaign(power7_arch, tmp_path)
    assert _fingerprint(result) == clean
    loaded = executor.store.kernel_misses
    assert (run.store.kernel_hits, run.store.kernel_misses) == (loaded, 0)
    assert (run.store.hits, run.store.misses) == (
        0, len(executor.cell_keys)
    )
    # Every cell is measured, so every loaded kernel is summarized --
    # from its slot table.
    assert slot_builds == {"tables": [], "instructions": 0}
    assert _built_no_slot(suite_kernels)


def test_scrub_keeps_the_newest_valid_kernel_record(
    campaign_store, tmp_path, open_store
):
    source, _, _ = campaign_store
    lines = _kernel_lines(source)[:2]
    first, second = (json.loads(line) for line in lines)
    superseded = render_record(
        first["key"], dict(first["kernel"], name="superseded"), KERNELS
    )
    tampered = dict(second, kernel=dict(second["kernel"], name="tampered"))
    shards = {}
    for record, line in (
        (first, superseded),
        (first, lines[0]),
        (second, lines[1]),
        (second, json.dumps(tampered).encode() + b"\n"),
    ):
        shards.setdefault(record["key"][:2], []).append(line)
    (tmp_path / "kernels").mkdir()
    for name, shard_lines in shards.items():
        (tmp_path / "kernels" / f"{name}.jsonl").write_bytes(
            b"".join(shard_lines)
        )
    torn_shard = tmp_path / "kernels" / f"{second['key'][:2]}.jsonl"
    with torn_shard.open("ab") as handle:
        handle.write(KERNELS.prefixes[0])

    report = ResultStore(tmp_path).verify()
    assert not report.ok
    assert (report.kernel_records, report.kernel_keys) == (4, 2)
    assert (report.checksum_mismatches, report.torn_tails) == (1, 1)
    assert (report.records, report.keys) == (0, 0)

    report = ResultStore(tmp_path).scrub()
    assert (report.dropped, report.compacted) == (2, 1)
    assert _kernel_lines(tmp_path) == sorted(
        lines, key=lambda line: json.loads(line)["key"][:2]
    )
    report = ResultStore(tmp_path).verify()
    assert report.ok and (report.kernel_records, report.kernel_keys) == (2, 2)
    store = open_store(tmp_path)
    names = [
        store.get_kernel(record["key"]).name for record in (first, second)
    ]
    assert names == [first["kernel"]["name"], second["kernel"]["name"]]
    assert store.fault_stats() == {}


def test_faulted_kernel_reads_and_writes_keep_the_result(
    power7_arch, clean, tmp_path, monkeypatch
):
    """Injected I/O errors and tampered records on kernel (and cell)
    gets and puts cost re-synthesis, never a different result."""
    # Retried cell appends need no wall-clock backoff here.
    monkeypatch.setattr(executors, "_backoff_sleep", lambda attempt: None)
    plan = FaultPlan(seed=5).arm("io", 0.1).arm("corrupt", 0.3)
    with faults.injected(plan):
        cold_result, cold = _campaign(power7_arch, tmp_path)
    assert _fingerprint(cold_result) == clean
    assert cold.store.fault_stats().get("io_errors", 0) > 0
    verified = ResultStore(tmp_path).verify()
    assert verified.checksum_mismatches > 0
    written = verified.kernel_keys
    assert 0 < written < cold.store.kernel_misses  # some appends failed

    with faults.injected(FaultPlan(seed=6).arm("io", 0.1).arm("corrupt", 0.3)):
        warm_result, warm = _campaign(power7_arch, tmp_path)
    assert _fingerprint(warm_result) == clean
    # Tampered and unreadable kernel records were misses, synthesized
    # again; the rest loaded.
    assert 0 < warm.store.kernel_hits < cold.store.kernel_misses
    assert warm.store.kernel_misses > 0
    stats = warm.store.fault_stats()
    assert stats.get("checksum_failures", 0) > 0
    assert stats.get("io_errors", 0) > 0

    # Fault-free, the repaired store serves the same result again.
    final_result, final = _campaign(power7_arch, tmp_path)
    assert _fingerprint(final_result) == clean
    assert final.store.kernel_misses <= warm.store.kernel_misses
