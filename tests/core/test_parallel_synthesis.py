"""Forked and single-process kernel builds agree.

``build_kernels`` splits a batch's memo misses between this process
and a forked child.  Whatever the split, the build must return the
same kernels (down to their ``vars()``), queue the same memo writes,
count the same memo hits and misses, leave every ordinal where the
single-process build leaves it, fail exactly as it fails, and leave no
child process behind.  Most tests let any share fork
(``FORK_MIN_INSTRUCTIONS`` 1); one keeps the real break-even.
"""

from __future__ import annotations

import errno
import os
import shutil
import threading
import warnings
from types import SimpleNamespace

import pytest

from repro.core import synthesizer as synthesizer_module
from repro.core.passes import (
    DependencyDistance,
    EndlessLoopSkeleton,
    InitImmediates,
    InitRegisters,
    InstructionDistribution,
    MemoryModel,
)
from repro.core.synthesizer import KernelMemo, Synthesizer, build_kernels
from repro.errors import SynthesisError
from repro.exec import ResultStore
from repro.exec.store import KERNELS, kernel_body, render_record
from repro.march import bootstrap as bootstrap_module
from repro.march.bootstrap import Bootstrapper
from repro.power_model import training as training_module
from repro.power_model.training import (
    generate_micro_suite,
    generate_random_suite,
)
from repro.workloads import random_gen as random_gen_module
from repro.workloads.random_gen import RandomBenchmarkPolicy

_KEY = "0" * 32


def _table2(arch, store):
    for seed in (0, 1):
        generate_micro_suite(arch, 1024, 0.3, seed, store)
        generate_random_suite(arch, 1024, 0.3, seed, store)


def _random_policy(arch, store):
    RandomBenchmarkPolicy(arch, loop_size=256, seed=9).build(40, store)


def _bootstrap(arch, store):
    mnemonics = [
        ins.mnemonic for ins in arch.isa
        if not ins.is_branch and not ins.is_nop
    ]
    specs = [(m, chained) for chained in (True, False) for m in mnemonics]
    executor = SimpleNamespace(store=store)
    Bootstrapper(arch, None, loop_size=32, executor=executor)._kernels(
        specs + [("nop", False)]
    )


SOURCES = {
    "table2": _table2,
    "random policy": _random_policy,
    "bootstrap": _bootstrap,
}


@pytest.fixture
def forks(monkeypatch):
    """The pids ``os.fork`` returned to this process."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


@pytest.fixture
def builds(monkeypatch):
    """Every ``build_kernels`` call of the library builders: its
    kernels, the memo writes it queued and the ordinals it left."""
    calls = []

    def recording(synthesizers, memo=None):
        kernels = build_kernels(synthesizers, memo)
        pending = [] if memo is None else list(memo.pending)
        calls.append((kernels, pending, [s._counter for s in synthesizers]))
        return kernels

    for module in (training_module, random_gen_module, bootstrap_module):
        monkeypatch.setattr(module, "build_kernels", recording)
    return calls


def _cpus(monkeypatch, cpus: int, fork_min: int = 1) -> None:
    """Pin the usable CPUs and the loop instructions a forked share
    must hold (by default any share with a loop forks)."""
    monkeypatch.setattr(synthesizer_module, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(synthesizer_module, "FORK_MIN_INSTRUCTIONS", fork_min)


def assert_no_child_left(pids=()) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _kernel_facts(kernel) -> tuple:
    """Everything compared, ``vars()`` first: the readers add to it."""
    keys = list(vars(kernel))
    return (
        keys,
        kernel.digest(),
        kernel.slot_table(),
        render_record(_KEY, kernel_body(kernel), KERNELS),
    )


@pytest.mark.parametrize("source", SOURCES.values(), ids=SOURCES)
def test_forked_builds_equal_single_process_builds(
    power7_arch, tmp_path, monkeypatch, builds, forks, source
):
    # A store holding every third kernel, so each build mixes hits
    # with misses.
    _cpus(monkeypatch, 1)
    source(power7_arch, ResultStore(tmp_path / "all"))
    partial = ResultStore(tmp_path / "partial")
    for _, pending, _ in builds:
        partial.put_kernels(pending[::3])
    builds.clear()

    runs = {}
    for cpus in (1, 3):
        _cpus(monkeypatch, cpus)
        root = tmp_path / f"cpus-{cpus}"
        shutil.copytree(tmp_path / "partial", root)
        store = ResultStore(root)
        source(power7_arch, store)
        runs[cpus] = (
            list(builds), store.kernel_hits, store.kernel_misses, len(forks)
        )
        builds.clear()
    (single, *single_counts, single_forks) = runs[1]
    (forked, *forked_counts, forked_forks) = runs[3]
    assert single_forks == 0 and forked_forks > 0
    assert_no_child_left(forks)
    assert forked_counts == single_counts
    hits, misses = single_counts
    assert 0 < hits < misses

    assert len(forked) == len(single)
    for (kernels, pending, ordinals), (reference, expected, counters) in zip(
        forked, single
    ):
        assert [_kernel_facts(k) for k in kernels] == [
            _kernel_facts(k) for k in reference
        ]
        assert [key for key, _ in pending] == [key for key, _ in expected]
        assert [k.digest() for _, k in pending] == [
            k.digest() for _, k in expected
        ]
        assert ordinals == counters
        assert kernels == reference


def _recipe(arch, name, pool=("add", "lwz", "stw", "fmadd"), weights=None):
    synth = Synthesizer(arch, seed=3, name_prefix=name)
    synth.add_pass(EndlessLoopSkeleton(64))
    synth.add_pass(InstructionDistribution(list(pool)))
    synth.add_pass(MemoryModel(weights or {"L1": 0.5, "L2": 0.5}))
    synth.add_pass(InitRegisters("random"))
    synth.add_pass(InitImmediates("random"))
    synth.add_pass(DependencyDistance("mean", mean_distance=3.0))
    return synth


def _failing_batch(arch):
    """Nine recipes; 6 and 7 fail differently.  With recipes 1 and 8
    memo hits and the misses split two ways, 6 falls to the child and 7
    to this process."""
    recipes = [_recipe(arch, f"r{i}") for i in range(9)]
    recipes[6] = _recipe(arch, "r6", pool=("add", "bogus"))
    recipes[7] = _recipe(arch, "r7", weights={"L9": 1.0})
    return recipes


def _one_by_one(recipes, memo):
    """The batch as single ``kernel()`` calls, each its own batch."""
    return [synth.kernel(memo) for synth in recipes]


def _failed_build(arch, root, build=build_kernels):
    """The error, the memo writes, the ordinals and the store's kernel
    hits and misses of a failed build over a store holding 1 and 8."""
    store = ResultStore(root)
    recipes = _failing_batch(arch)
    with KernelMemo(store, arch) as memo:
        with pytest.raises(Exception) as failure:
            build(recipes, memo)
        pending = [(key, kernel.digest()) for key, kernel in memo.pending]
    return (
        type(failure.value),
        str(failure.value),
        pending,
        [synth._counter for synth in recipes],
        (store.kernel_hits, store.kernel_misses),
    )


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_failing_recipe_fails_the_build_as_in_one_process(
    power7_arch, tmp_path, monkeypatch, forks, cpus
):
    warm = ResultStore(tmp_path / "warm")
    with KernelMemo(warm, power7_arch) as memo:
        build_kernels(_failing_batch(power7_arch)[1::7], memo)
    _cpus(monkeypatch, 1)
    runs = {}
    for name, build in (("single", build_kernels), ("one by one", _one_by_one)):
        shutil.copytree(tmp_path / "warm", tmp_path / name)
        runs[name] = _failed_build(power7_arch, tmp_path / name, build)
    assert not forks
    _cpus(monkeypatch, cpus)
    shutil.copytree(tmp_path / "warm", tmp_path / "forked")
    forked = _failed_build(power7_arch, tmp_path / "forked")
    # One child at most, whatever the CPU count.
    assert len(forks) == 1
    assert_no_child_left(forks)

    assert forked == runs["single"]
    kind, text, pending, ordinals, counts = forked
    # The first failing position wins: recipe 6's error, not 7's.
    assert (kind.__name__, text) == (
        "UnknownInstructionError", "unknown instruction: 'bogus'"
    )
    # The memo holds exactly the kernels ahead of it (1 was a hit).
    reference = [
        (synth.recipe_key(power7_arch.content_digest()), synth.kernel())
        for synth in _failing_batch(power7_arch)[:6]
    ]
    del reference[1]
    assert pending == [(key, kernel.digest()) for key, kernel in reference]
    # Ordinals move up to the failing recipe; the hit past it, 8, stays.
    assert ordinals == [1] * 7 + [0, 0]
    # Error, memo writes and ordinals are those of building the recipes
    # one kernel() call at a time; only the store's counters differ, as
    # the batch looks every recipe up before synthesizing any.
    assert forked[:4] == runs["one by one"][:4]
    assert counts == (2, 7)
    assert runs["one by one"][4] == (1, 6)


def test_a_child_that_exits_without_kernels_fails_the_build(
    power7_arch, monkeypatch, forks
):
    parent = os.getpid()
    synthesize = Synthesizer.synthesize

    def dying(self, name=None):
        if os.getpid() != parent:
            os._exit(3)
        return synthesize(self, name)

    monkeypatch.setattr(Synthesizer, "synthesize", dying)
    _cpus(monkeypatch, 2)
    recipes = [_recipe(power7_arch, f"r{i}") for i in range(4)]
    with pytest.raises(SynthesisError, match="exited with status 3"):
        build_kernels(recipes)
    assert len(forks) == 1
    assert_no_child_left(forks)


def test_a_failed_fork_builds_in_this_process(power7_arch, monkeypatch):
    pipes = []
    pipe = os.pipe

    def recording_pipe():
        pipes.extend(pipe())
        return pipes[-2:]

    def failing_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "pipe", recording_pipe)
    monkeypatch.setattr(os, "fork", failing_fork)
    _cpus(monkeypatch, 2)
    recipes = [_recipe(power7_arch, f"r{i}") for i in range(5)]
    # An end left to the garbage collector would warn as it closes.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kernels = build_kernels(recipes)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert len(pipes) == 2
    for end in pipes:  # both ends closed
        with pytest.raises(OSError):
            os.fstat(end)
    assert_no_child_left()
    assert [synth._counter for synth in recipes] == [1] * 5
    assert [_kernel_facts(k) for k in kernels] == [
        _kernel_facts(_recipe(power7_arch, f"r{i}").kernel()) for i in range(5)
    ]


def test_a_share_below_the_break_even_builds_in_this_process(
    power7_arch, monkeypatch, forks
):
    # A bootstrap pair: the child's share is one loop.  At loop 256 the
    # fork costs more than the loop (the pair takes 2.5 ms forked
    # against 0.7 ms in one process on a 2-vCPU host).
    minimum = synthesizer_module.FORK_MIN_INSTRUCTIONS
    _cpus(monkeypatch, 2, fork_min=minimum)
    for loop, forked in ((256, 0), (minimum - 1, 0), (minimum, 1)):
        bootstrapper = Bootstrapper(
            power7_arch, None, loop_size=loop,
            executor=SimpleNamespace(store=None),
        )
        kernels = bootstrapper._kernels([("add", True), ("add", False)])
        assert len(forks) == forked
        assert kernels == [
            bootstrapper._build("add", chained).kernel()
            for chained in (True, False)
        ]
    assert_no_child_left(forks)


def test_an_interrupted_build_leaves_no_child(power7_arch, monkeypatch, forks):
    parent = os.getpid()
    synthesize = Synthesizer.synthesize
    calls = []

    def interrupted(self, name=None):
        if os.getpid() == parent:
            calls.append(self.name_prefix)
            if len(calls) == 2:
                raise KeyboardInterrupt
        return synthesize(self, name)

    monkeypatch.setattr(Synthesizer, "synthesize", interrupted)
    _cpus(monkeypatch, 3)
    recipes = [_recipe(power7_arch, f"r{i}") for i in range(9)]
    with pytest.raises(KeyboardInterrupt):
        build_kernels(recipes)
    assert len(forks) == 1
    assert_no_child_left(forks)
    assert [synth._counter for synth in recipes] == [0] * 9

    # The same batch builds afterwards, forked, and leaves no child.
    monkeypatch.setattr(Synthesizer, "synthesize", synthesize)
    kernels = build_kernels(recipes)
    assert len(forks) == 2
    assert_no_child_left(forks)
    assert kernels == [
        _recipe(power7_arch, f"r{i}").kernel() for i in range(9)
    ]


def test_nothing_forks_beside_a_second_thread(power7_arch, monkeypatch, forks):
    _cpus(monkeypatch, 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        recipes = [_recipe(power7_arch, f"r{i}") for i in range(4)]
        # os.fork issues its multi-threaded-fork DeprecationWarning (3.12+)
        # and clears it at once, so an "error" filter would not see it.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            kernels = build_kernels(recipes)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]
    assert kernels == [
        _recipe(power7_arch, f"r{i}").kernel() for i in range(4)
    ]
    assert [synth._counter for synth in recipes] == [1] * 4
