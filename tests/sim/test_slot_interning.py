"""Interned kernel slots: one shared instance per distinct loop slot.

``KernelInstruction.from_list`` and the stressmark builder draw slots
from one bounded table, so a server that keeps thousands of decoded
kernels holds each distinct slot once.  Sharing must be invisible: a
kernel's digest, plan fingerprint, store key and wire form are the
same as when every slot is a fresh instance.
"""

import json
import sys
import threading

import pytest

from repro.caching import LRUCache
from repro.exec import ExperimentPlan
from repro.exec.plan import workload_fingerprint
from repro.sim import Kernel, KernelInstruction, MachineConfig
from repro.sim import kernel as kernel_module
from repro.sim.kernel import intern_slot
from repro.stressmark.search import build_stressmark
from tests.conftest import make_uniform_kernel


def _decode(kernel: Kernel) -> Kernel:
    return Kernel.from_dict(json.loads(json.dumps(kernel.to_dict())))


def _decode_fresh(kernel: Kernel) -> Kernel:
    """The kernel rebuilt with a private instance per slot."""
    data = json.loads(json.dumps(kernel.to_dict()))
    pattern = tuple(KernelInstruction(*item) for item in data["pattern"])
    tail = tuple(KernelInstruction(*item) for item in data["tail"])
    return Kernel(
        name=data["name"],
        instructions=pattern * data["repeats"] + tail,
        operand_entropy=data["operand_entropy"],
        period=data["period"],
        analytic_period=data["analytic_period"],
    )


@pytest.fixture(scope="module")
def kernels(power7_arch):
    return [
        build_stressmark(power7_arch, ("mulldo", "lxvw4x", "xvnmsubmdp"), 256),
        make_uniform_kernel("ld", count=24, dep=3, level="L2"),
        make_uniform_kernel("fmadd", count=16, dep=1),
    ]


class TestSlotInterning:
    def test_kernels_decoded_twice_share_slots(self, kernels):
        for kernel in kernels:
            first, second = _decode(kernel), _decode(kernel)
            assert all(
                a is b for a, b in zip(first.instructions, second.instructions)
            )

    def test_sharing_changes_no_identity(self, kernels, power7_arch):
        config = MachineConfig(2, 2)
        for kernel in kernels:
            shared, fresh = _decode(kernel), _decode_fresh(kernel)
            assert shared == fresh
            assert shared.digest() == fresh.digest() == kernel.digest()
            assert workload_fingerprint(shared) == workload_fingerprint(fresh)
            keys = [
                ExperimentPlan.cross([decoded], [config], duration=1.0)
                .cells[0]
                .key("POWER7", 0, power7_arch.content_digest())
                for decoded in (shared, fresh)
            ]
            assert keys[0] == keys[1]
            assert shared.to_dict() == fresh.to_dict() == kernel.to_dict()

    def test_builder_and_decoder_use_one_table(self, kernels):
        stressmark = kernels[0]
        pattern, _, tail = stressmark.periodic_parts()
        read_pattern, _, read_tail = _decode(stressmark).periodic_parts()
        assert all(
            built is read
            for built, read in zip(pattern + tail, read_pattern + read_tail)
        )
        branch = stressmark.instructions[-1]
        assert branch is intern_slot("b")
        assert branch is KernelInstruction.from_list(["b", None, None, None])

    def test_non_canonical_fields_are_not_interned(self):
        # 1 == 1.0 == True, but each renders different digest text.
        canonical = KernelInstruction.from_list(["fadd", 1, None, None])
        for odd in (1.0, True):
            slot = KernelInstruction.from_list(["fadd", odd, None, None])
            assert slot is not canonical
            assert type(slot.dep_distance) is type(odd)
            body = (slot,) * 4
            assert (
                Kernel("k", body).digest()
                != Kernel("k", (canonical,) * 4).digest()
            )

    def test_table_is_bounded(self):
        assert kernel_module._SLOTS.capacity == 65_536


def test_concurrent_interning_under_eviction(monkeypatch):
    """Handler threads decode kernels concurrently: a lookup racing an
    eviction of the same slot must neither raise nor mix up slots."""
    monkeypatch.setattr(kernel_module, "_SLOTS", LRUCache(64, "test.slots"))
    errors: list[Exception] = []

    def hammer(mnemonic: str, addresses) -> None:
        try:
            for address in addresses:
                slot = intern_slot(mnemonic, None, "L1", address)
                assert (slot.mnemonic, slot.address) == (mnemonic, address)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    # Readers re-read a cycle of slots that just fits the table (each
    # hit is the least recently used entry) while writers insert fresh
    # slots, each evicting exactly that entry.
    cycle = [index % 64 for index in range(20_000)]
    workers = [
        threading.Thread(target=hammer, args=("add", cycle))
        for _ in range(2)
    ] + [
        threading.Thread(
            target=hammer,
            args=(f"sub{n}", range(n * 20_000, (n + 1) * 20_000)),
        )
        for n in range(2)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
