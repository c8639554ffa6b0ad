"""Kernel slots: one fixed layout, whichever producer builds them.

A :class:`KernelInstruction` is an immutable value with no instance
``__dict__``; its analytic key and digest text are set when it is
built.  Slots come from synthesis (``Program.to_kernel``), the
stressmark builder, the wire decoder (``Kernel.from_dict``), the first
``instructions`` read of a memo-loaded kernel, the mix builders and
direct construction.  Each producer's slots must hold what
``analytic_key()``, ``Kernel.digest()`` and ``Kernel.slot_table()``
read, in either order of digesting and summarizing, and its kernels
must come back equal from ``copy.deepcopy`` and ``pickle``.
"""

import copy
import dataclasses
import json
import pickle
import sys
from dataclasses import FrozenInstanceError

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
from repro.exec import ResultStore
from repro.hashing import content_hash
from repro.sim import Kernel, KernelInstruction
from repro.sim.pipeline import CorePipelineModel
from repro.stressmark.search import build_stressmark
from repro.workloads.mixes import memory_bound_kernel

PRODUCERS = (
    "to_kernel", "stressmark", "from_dict", "memo", "mix", "constructor",
)


def _recipe(arch) -> Synthesizer:
    synth = Synthesizer(arch, seed=5, name_prefix="layout")
    synth.add_pass(EndlessLoopSkeleton(96))
    synth.add_pass(InstructionDistribution(["add", "lwz", "stw", "fmadd"]))
    synth.add_pass(MemoryModel({"L1": 0.5, "L2": 0.5}))
    synth.add_pass(InitRegisters("random"))
    synth.add_pass(InitImmediates("random"))
    synth.add_pass(DependencyDistance("mean", mean_distance=2.5))
    return synth


@pytest.fixture(scope="module")
def memo_root(power7_arch, tmp_path_factory):
    """A store holding the recipe's kernel record."""
    root = tmp_path_factory.mktemp("memo")
    with KernelMemo(ResultStore(root), power7_arch) as memo:
        _recipe(power7_arch).kernel(memo)
    return root


@pytest.fixture
def produce(power7_arch, memo_root):
    """A fresh kernel from the named producer."""

    def memo_loaded() -> Kernel:
        with ResultStore(memo_root) as store, KernelMemo(
            store, power7_arch
        ) as memo:
            kernel = _recipe(power7_arch).kernel(memo)
        assert store.kernel_hits == 1
        assert "instructions" not in vars(kernel)
        return kernel

    def constructed() -> Kernel:
        slots = (
            KernelInstruction("lwz", None, "L2", 4096),
            KernelInstruction("fmadd", dep_distance=1),
            KernelInstruction("lwz", 2, "L1", 128),
        )
        return Kernel("constructed", slots * 5 + (KernelInstruction("b"),),
                      period=3)

    builders = {
        "to_kernel": lambda: _recipe(power7_arch).kernel(),
        "stressmark": lambda: build_stressmark(
            power7_arch, ("mulldo", "lxvw4x", "xvnmsubmdp"), 256
        ),
        "from_dict": lambda: Kernel.from_dict(json.loads(json.dumps(
            _recipe(power7_arch).kernel().to_dict()
        ))),
        "memo": memo_loaded,
        "mix": lambda: memory_bound_kernel(64),
        "constructor": constructed,
    }
    return lambda producer: builders[producer]()


def _text(slot: KernelInstruction) -> str:
    return (
        f"{slot.mnemonic},{slot.dep_distance},{slot.source_level},"
        f"{slot.address}"
    )


def _digest_of(kernel: Kernel, texts: list[str]) -> int:
    """The digest of a kernel whose slots render as ``texts``."""
    pattern, repeats, tail = kernel.periodic_parts()
    return content_hash(
        f"{kernel.operand_entropy}:{len(pattern)}:{repeats}:"
        f"{'|'.join(texts[:len(pattern)])}#"
        f"{'|'.join(texts[len(texts) - len(tail):])}"
    )


def _keys_first(kernel: Kernel, pipeline: CorePipelineModel) -> None:
    # Every slot's key is read before any digest text.
    [slot.analytic_key() for slot in kernel.instructions]
    kernel.validate_period()
    pipeline.summarize(kernel)
    kernel.slot_table()


def _digest_first(kernel: Kernel, pipeline: CorePipelineModel) -> None:
    kernel.digest()
    kernel.slot_table()
    pipeline.summarize(kernel)


@pytest.mark.parametrize("order", [_keys_first, _digest_first],
                         ids=["keys-first", "digest-first"])
@pytest.mark.parametrize("producer", PRODUCERS)
def test_slots_have_one_layout(produce, producer, order, power7_arch):
    kernel = produce(producer)
    order(kernel, CorePipelineModel(power7_arch))
    size = sys.getsizeof(KernelInstruction("add"))
    for slot in kernel.instructions:
        assert type(slot) is KernelInstruction
        assert not hasattr(slot, "__dict__")
        assert sys.getsizeof(slot) == size
        assert slot.analytic_key() == (
            slot.mnemonic, slot.dep_distance, slot.source_level
        )
    texts = list(map(_text, kernel.instructions))
    assert kernel.digest() == _digest_of(kernel, texts)
    # A kernel over the same slots digests from their texts.
    assert dataclasses.replace(kernel).digest() == kernel.digest()
    slots, index = kernel.slot_table()
    table = slots.split("|")
    assert [table[position] for position in index] == texts


def _pickled(kernel: Kernel) -> Kernel:
    return pickle.loads(pickle.dumps(kernel))


@pytest.mark.parametrize("copier", [copy.deepcopy, _pickled],
                         ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("producer", PRODUCERS)
def test_kernels_copy_and_pickle(produce, producer, copier):
    kernel = produce(producer)
    reference = produce(producer)
    # A memo-loaded kernel is copied before and after its first read.
    copies = [copier(kernel)]
    len(kernel)
    copies.append(copier(kernel))
    for copied in copies:
        assert copied == kernel == reference
        assert copied.digest() == kernel.digest() == reference.digest()
        assert copied.slot_table() == kernel.slot_table()
        assert dataclasses.replace(copied).digest() == kernel.digest()
        assert not any(
            hasattr(slot, "__dict__") for slot in copied.instructions
        )
        # Shared slots stay shared within the copy.
        assert len(set(map(id, copied.instructions))) == len(
            set(map(id, kernel.instructions))
        )


def test_slots_are_immutable_values():
    slot = KernelInstruction("fadd", 1)
    for name in KernelInstruction.__slots__:
        with pytest.raises(FrozenInstanceError):
            setattr(slot, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(slot, name)
    assert (slot.mnemonic, slot.dep_distance) == ("fadd", 1)
    assert slot.analytic_key() == ("fadd", 1, None)
    # Equality, hashing and repr cover the four fields only.
    assert slot == KernelInstruction("fadd", 1.0, None, None)
    assert hash(slot) == hash(("fadd", 1, None, None))
    assert slot != KernelInstruction("fadd", 1, "L1")
    assert slot != ("fadd", 1, None, None)
    assert repr(slot) == (
        "KernelInstruction(mnemonic='fadd', dep_distance=1, "
        "source_level=None, address=None)"
    )
    assert copy.copy(slot) == copy.deepcopy(slot) == _pickled(slot) == slot
