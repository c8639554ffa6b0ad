"""The kernel memo: synthesized kernels loaded from a result store.

A memo-served kernel must ``==`` the kernel synthesis builds (dataclass
equality, not only an equal digest), its recipe key must move with
everything synthesis reads, and a recipe the key cannot describe
exactly is never memoized.  The Table-2 training suite and the
whole-ISA bootstrap both build through the memo.
"""

import math
import sys
from dataclasses import replace

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
from repro.core.synthesizer import KernelMemo, Synthesizer
from repro.exec import ResultStore, SerialExecutor
from repro.march import get_architecture
from repro.march.bootstrap import Bootstrapper
from repro.power_model.training import generate_training_suite
from repro.sim import Kernel, KernelInstruction, Machine

SCALE = 0.05
LOOP = 128


@pytest.fixture
def synthesize_calls(monkeypatch):
    """How many programs the pass pipeline has built, in one process
    (a forked child's syntheses never reach the patch)."""
    calls = []
    synthesize = Synthesizer.synthesize

    def counting(self, name=None):
        calls.append(self.name_prefix)
        return synthesize(self, name)

    monkeypatch.setattr(Synthesizer, "synthesize", counting)
    monkeypatch.setattr(synthesizer_module, "_usable_cpus", lambda: 1)
    return calls


def _recipe(arch, seed=7, prefix="memo", mean=3.5, weights=None):
    synth = Synthesizer(arch, seed=seed, name_prefix=prefix)
    synth.add_pass(EndlessLoopSkeleton(LOOP))
    synth.add_pass(InstructionDistribution(["add", "lwz", "stw", "fmadd"]))
    synth.add_pass(MemoryModel(weights or {"L1": 0.5, "L2": 0.5}))
    synth.add_pass(InitRegisters("random"))
    synth.add_pass(InitImmediates("random"))
    synth.add_pass(DependencyDistance("mean", mean_distance=mean))
    return synth


def _shared_like_to_kernel(kernel) -> bool:
    """Equal slots are one object, as ``Program.to_kernel`` builds them."""
    return len({id(slot) for slot in kernel.instructions}) == len(
        set(kernel.instructions)
    )


@pytest.mark.parametrize("seed", [0, 3])
def test_memo_served_suite_equals_fresh_synthesis(
    power7_arch, tmp_path, seed, open_store
):
    fresh = generate_training_suite(power7_arch, LOOP, SCALE, seed)
    cold = generate_training_suite(
        power7_arch, LOOP, SCALE, seed, open_store(tmp_path)
    )
    store = open_store(tmp_path)
    warm = generate_training_suite(power7_arch, LOOP, SCALE, seed, store)
    assert store.kernel_hits == len(fresh) and store.kernel_misses == 0
    assert cold == fresh
    # A hit carries the digest computed from its record's slot text at
    # load -- the value synthesis output hashes to -- and has built no
    # slot yet.
    for bench, reference in zip(warm, fresh):
        assert "instructions" not in vars(bench.kernel)
        assert vars(bench.kernel)["_digest"] == reference.kernel.digest()
    assert warm == fresh
    for bench in warm:
        kernel = bench.kernel
        assert _shared_like_to_kernel(kernel)
        assert all(
            slot.mnemonic is sys.intern(slot.mnemonic)
            and (
                slot.source_level is None
                or slot.source_level is sys.intern(slot.source_level)
            )
            for slot in kernel.instructions
        )
        # The rows are built once and kept beside the table they came from.
        assert {"instructions", "_index"} <= vars(kernel).keys()
    # Rebuilt from the loaded slots, each kernel digests alike.
    assert [replace(b.kernel).digest() for b in warm] == [
        b.kernel.digest() for b in fresh
    ]


def test_second_run_synthesizes_nothing(
    power7_arch, tmp_path, synthesize_calls, open_store
):
    generate_training_suite(power7_arch, LOOP, SCALE, 1, open_store(tmp_path))
    built = len(synthesize_calls)
    assert built > 0
    store = open_store(tmp_path)
    generate_training_suite(power7_arch, LOOP, SCALE, 1, store)
    assert len(synthesize_calls) == built
    assert store.kernel_hits == built
    # Kernel lookups never move the cell counters.
    assert (store.hits, store.misses, len(store)) == (0, 0, 0)


def test_ordinal_advances_on_a_hit_as_on_a_miss(
    power7_arch, tmp_path, open_store
):
    with KernelMemo(open_store(tmp_path), power7_arch) as memo:
        cold = _recipe(power7_arch)
        first = [cold.kernel(memo) for _ in range(3)]
    store = open_store(tmp_path)
    with KernelMemo(store, power7_arch) as memo:
        warm = _recipe(power7_arch)
        served = [warm.kernel(memo) for _ in range(3)]
        assert store.kernel_hits == 3
        fourth = warm.kernel(memo)
    assert [kernel.name for kernel in served] == [
        "memo-0", "memo-1", "memo-2",
    ]
    assert served == first
    fresh = _recipe(power7_arch)
    assert [fresh.kernel() for _ in range(4)] == served + [fourth]


def _key(synth, arch=None):
    return synth.recipe_key((arch or synth.arch).content_digest())


def test_every_recipe_ingredient_moves_the_key(power7_arch, monkeypatch):
    base = _key(_recipe(power7_arch))
    assert base == _key(_recipe(power7_arch))
    eco = get_architecture("POWER7_ECO")
    variants = {
        "arch digest": _key(_recipe(power7_arch), arch=eco),
        "seed": _key(_recipe(power7_arch, seed=8)),
        "seed type": _key(_recipe(power7_arch, seed="7")),
        "prefix": _key(_recipe(power7_arch, prefix="other")),
        "float parameter": _key(_recipe(power7_arch, mean=3.25)),
        "mapping order": _key(
            _recipe(power7_arch, weights={"L2": 0.5, "L1": 0.5})
        ),
    }
    skeleton = _recipe(power7_arch)
    skeleton.passes[0].size = LOOP + 1
    variants["int parameter"] = _key(skeleton)
    pool = _recipe(power7_arch)
    pool.passes[1].pool.append("add")
    variants["pool"] = _key(pool)
    unvalidated = _recipe(power7_arch)
    unvalidated.validate = False
    variants["validate"] = _key(unvalidated)
    later = _recipe(power7_arch)
    later.synthesize()
    variants["ordinal"] = _key(later)
    fewer = _recipe(power7_arch)
    fewer._passes.pop()
    variants["pass list"] = _key(fewer)
    monkeypatch.setattr(synthesizer_module, "SYNTHESIS_VERSION", 2)
    variants["version"] = _key(_recipe(power7_arch))
    assert None not in variants.values()
    assert base not in variants.values()
    assert len(set(variants.values())) == len(variants)


def test_a_changed_recipe_misses_in_the_store(
    power7_arch, tmp_path, open_store
):
    with KernelMemo(open_store(tmp_path), power7_arch) as memo:
        _recipe(power7_arch).kernel(memo)
    store = open_store(tmp_path)
    with KernelMemo(store, power7_arch) as memo:
        kernel = _recipe(power7_arch, prefix="other").kernel(memo)
        assert (store.kernel_hits, store.kernel_misses) == (0, 1)
        assert kernel == _recipe(power7_arch, prefix="other").kernel()
        _recipe(power7_arch).kernel(memo)
        assert (store.kernel_hits, store.kernel_misses) == (1, 1)


class _LocalDistribution(InstructionDistribution):
    """A pass class outside the library: its behaviour is not pinned."""


_NON_CANONICAL = {
    "foreign pass class": lambda synth: synth.add_pass(
        _LocalDistribution(["add"])
    ),
    "InstructionDef in a pool": lambda synth: setattr(
        synth.passes[1],
        "pool",
        [synth.arch.isa.instruction("add"), "lwz", "stw"],
    ),
    "tuple parameter": lambda synth: setattr(
        synth.passes[1], "pool", ("add", "lwz", "stw")
    ),
    "NaN parameter": lambda synth: setattr(
        synth.passes[5], "mean_distance", math.nan
    ),
    "non-string mapping key": lambda synth: setattr(
        synth.passes[2], "weights", {1: 1.0}
    ),
    "parameter not kept": lambda synth: delattr(synth.passes[3], "pattern"),
    "float seed": lambda synth: setattr(synth, "seed", 7.0),
    "no passes": lambda synth: synth.clear_passes(),
}


@pytest.mark.parametrize("edit", _NON_CANONICAL.values(), ids=_NON_CANONICAL)
def test_non_canonical_recipes_have_no_key(power7_arch, edit):
    synth = _recipe(power7_arch)
    edit(synth)
    assert _key(synth) is None


@pytest.mark.parametrize(
    "name", ["foreign pass class", "InstructionDef in a pool", "tuple parameter"]
)
def test_non_canonical_recipes_are_synthesized_unmemoized(
    power7_arch, tmp_path, name, open_store
):
    synth = _recipe(power7_arch)
    _NON_CANONICAL[name](synth)
    store = open_store(tmp_path)
    with KernelMemo(store, power7_arch) as memo:
        assert synth.kernel(memo).name == "memo-0"
        assert memo.pending == []
    assert (store.kernel_hits, store.kernel_misses) == (0, 0)
    assert not (tmp_path / "kernels").exists()


def test_synthesis_reads_nothing_the_arch_digest_excludes(power7_arch):
    """Bootstrap write-backs and descriptions stay out of the digest,
    so synthesis must not read them either."""
    edited = get_architecture("POWER7")
    for prop in list(edited.properties):
        edited.properties.update(prop.with_bootstrap(epi=9.9, avg_power=99.0))
    edited.isa._instructions = {
        mnemonic: replace(ins, description="edited")
        for mnemonic, ins in edited.isa._instructions.items()
    }
    assert edited.content_digest() == power7_arch.content_digest()
    assert generate_training_suite(edited, LOOP, SCALE, 2) == (
        generate_training_suite(power7_arch, LOOP, SCALE, 2)
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_memo_served_bootstrap_equals_fresh(
    tmp_path, seed, synthesize_calls, monkeypatch, open_store
):
    """The whole-ISA bootstrap loads its kernels from a warm store.

    Loaded kernels equal the ones synthesis wrote, and a machine of
    another seed -- whose cells all miss -- measures the loaded kernels
    into the records a store-less bootstrap derives.
    """
    written = []
    put_kernels = ResultStore.put_kernels

    def recording(self, entries):
        written.extend(kernel for _, kernel in entries)
        put_kernels(self, entries)

    monkeypatch.setattr(ResultStore, "put_kernels", recording)

    def bootstrapper(store=None, machine_seed=seed):
        arch = get_architecture("POWER7")
        machine = Machine(arch, seed=machine_seed)
        return Bootstrapper(
            arch,
            machine,
            loop_size=32,
            duration=1.0,
            seed=seed,
            executor=SerialExecutor(machine, store=store),
        )

    cold_store = open_store(tmp_path)
    cold = bootstrapper(cold_store).run()
    built = len(synthesize_calls)
    # Two benchmarks per probeable instruction plus the nop reference.
    assert built == cold_store.kernel_misses == len(written)
    assert built == 2 * len(cold) + 1 > 300
    warm_store = open_store(tmp_path)
    warm = bootstrapper(warm_store)
    assert warm.run() == cold
    assert (warm_store.kernel_hits, warm_store.kernel_misses) == (built, 0)
    assert warm_store.misses == 0
    assert len(synthesize_calls) == built

    specs = [(m, chained) for chained in (True, False) for m in cold]
    loaded = warm._kernels(specs + [("nop", False)])
    assert [k.digest() for k in loaded] == [k.digest() for k in written]
    assert loaded == written

    other_store = open_store(tmp_path)
    other = bootstrapper(other_store, machine_seed=seed + 7).run()
    assert (other_store.kernel_hits, other_store.kernel_misses) == (built, 0)
    assert other_store.misses == built
    assert len(synthesize_calls) == built
    assert other == bootstrapper(machine_seed=seed + 7).run()


def test_a_kernel_outside_the_record_grammar_is_not_written(
    tmp_path, open_store
):
    """A slot text the record grammar rejects could only read back as a
    miss, so the kernel is not written at all."""
    odd = Kernel("odd", (KernelInstruction("ld,x"), KernelInstruction("b")))
    plain = Kernel("plain", (KernelInstruction("ld"), KernelInstruction("b")))
    assert odd.slot_table() is None
    assert plain.slot_table() == ("ld,None,None,None|b,None,None,None", [0, 1])
    store = open_store(tmp_path)
    store.put_kernels([("ab" * 16, odd), ("cd" * 16, plain)])
    assert store.get_kernel("ab" * 16) is None
    assert store.get_kernel("cd" * 16) == plain
    assert store.fault_stats() == {}
    assert ResultStore(tmp_path).verify().kernel_records == 1
