"""Tests for stressmark construction, sets, search and reporting."""

from math import comb

import pytest

from repro.errors import SearchError
from repro.march import get_architecture
from repro.sim import Machine, MachineConfig
from repro.stressmark.expert import (
    EXPERT_INSTRUCTIONS,
    expert_dse_set,
    expert_manual_set,
)
from repro.stressmark.report import (
    OrderSpread,
    best_sequence,
    order_spread_analysis,
    summarize_set,
)
from repro.stressmark.search import (
    build_stressmark,
    covering_sequences,
    spec_power_baseline,
    stressmark_search,
)
from repro.workloads import spec_cpu2006


@pytest.fixture(scope="module")
def arch():
    return get_architecture("POWER7")


class TestBuildStressmark:
    def test_replicates_sequence(self, arch):
        kernel = build_stressmark(
            arch, ("mulldo", "lxvw4x", "xvnmsubmdp"), loop_size=12
        )
        mnemonics = [ins.mnemonic for ins in kernel.instructions[:-1]]
        assert mnemonics == ["mulldo", "lxvw4x", "xvnmsubmdp"] * 4
        assert kernel.instructions[-1].mnemonic == "b"

    def test_memory_slots_l1_resident(self, arch):
        kernel = build_stressmark(arch, ("lxvw4x",), loop_size=64)
        for ins in kernel.instructions[:-1]:
            assert ins.source_level == "L1"
            assert ins.address is not None

    def test_no_dependencies(self, arch):
        kernel = build_stressmark(arch, ("mulldo", "mullw"), loop_size=32)
        assert all(ins.dep_distance is None for ins in kernel.instructions)

    def test_empty_sequence_rejected(self, arch):
        with pytest.raises(ValueError):
            build_stressmark(arch, ())


class TestSequenceSpaces:
    def test_covering_sequences_is_540(self):
        # The paper's "540 possible combinations": 3^6 minus sequences
        # that drop one of the three instructions.
        sequences = covering_sequences(("a", "b", "c"))
        assert len(sequences) == 540
        for sequence in sequences:
            assert set(sequence) == {"a", "b", "c"}

    @pytest.mark.parametrize(
        "count, length", [(1, 1), (1, 4), (2, 3), (3, 3), (4, 5), (4, 3)]
    )
    def test_covering_sequences_are_the_surjections(self, count, length):
        candidates = tuple("abcd"[:count])
        sequences = covering_sequences(candidates, length)
        # Inclusion-exclusion over the candidates a sequence leaves out.
        assert len(sequences) == sum(
            (-1) ** left_out
            * comb(count, left_out)
            * (count - left_out) ** length
            for left_out in range(count + 1)
        )
        assert len(set(sequences)) == len(sequences)
        for sequence in sequences:
            assert len(sequence) == length
            assert set(sequence) == set(candidates)

    def test_expert_sets(self):
        assert len(expert_dse_set()) == 540
        manual = expert_manual_set()
        assert len(manual) >= 3
        for pattern in manual:
            assert set(pattern) <= set(EXPERT_INSTRUCTIONS)


class TestReporting:
    def _rows(self):
        return [
            (("a",), 1, 100.0, 2.0),
            (("b",), 1, 110.0, 2.0),
            (("c",), 1, 90.0, 1.5),
            (("a",), 2, 105.0, 1.8),
        ]

    def test_summary(self):
        summary = summarize_set("X", self._rows(), baseline_power=100.0)
        assert summary.minimum == pytest.approx(0.9)
        assert summary.maximum == pytest.approx(1.1)
        assert summary.count == 4

    def test_best_sequence(self):
        assert best_sequence(self._rows()) == ("b",)

    def test_order_spread_at_max_ipc(self):
        spread = order_spread_analysis(self._rows(), 100.0, smt=1)
        # Only the two IPC-2.0 rows qualify.
        assert spread.sequences_at_max_ipc == 2
        assert spread.min_normalized == pytest.approx(1.0)
        assert spread.max_normalized == pytest.approx(1.1)
        assert spread.spread_percent == pytest.approx(10.0)

    def test_order_spread_percent_guard(self):
        spread = OrderSpread(1, 0.0, 0.0)
        assert spread.spread_percent == 0.0

    def test_empty_sets_rejected(self):
        with pytest.raises(SearchError):
            summarize_set("X", [], 100.0)
        with pytest.raises(SearchError):
            best_sequence([])
        with pytest.raises(SearchError):
            order_spread_analysis(self._rows(), 100.0, smt=4)


class TestStressmarkSearch:
    """The section-6 search: one row per (sequence, SMT mode), each the
    measurement of that stressmark on all cores."""

    _SEQUENCES = covering_sequences(("mulldo", "lxvw4x"), length=3)
    _MODES = (1, 2, 4)

    @pytest.fixture(scope="class")
    def rows(self, arch):
        return stressmark_search(
            Machine(arch),
            self._SEQUENCES,
            smt_modes=self._MODES,
            loop_size=48,
            duration=1.0,
        )

    def test_one_row_per_sequence_and_mode(self, rows):
        assert len(self._SEQUENCES) == 6
        assert [(sequence, smt) for sequence, smt, _, _ in rows] == [
            (sequence, smt)
            for sequence in self._SEQUENCES
            for smt in self._MODES
        ]

    def test_rows_match_direct_runs(self, arch, rows):
        machine = Machine(arch)
        cores = arch.chip.max_cores
        for sequence, smt, power, core_ipc in rows:
            measurement = machine.run(
                build_stressmark(arch, sequence, 48),
                MachineConfig(cores, smt),
                1.0,
            )
            assert power == measurement.mean_power
            # Core IPC: one thread's IPC times the threads sharing it.
            assert core_ipc == arch.ipc(measurement.thread_counters[0]) * smt

    def test_interleaving_outdraws_every_blocked_rotation(self, arch):
        # Section 6: order alone moves power.  Same mix, same IPC; the
        # orders that switch units every slot draw more than any
        # rotation of the blocked order.
        blocked = ("mulldo",) * 3 + ("lxvw4x",) * 3
        rotations = [blocked[i:] + blocked[:i] for i in range(6)]
        interleaved = [("mulldo", "lxvw4x") * 3, ("lxvw4x", "mulldo") * 3]
        rows = stressmark_search(
            Machine(arch),
            rotations + interleaved,
            smt_modes=(1, 4),
            loop_size=48,
            duration=1.0,
        )
        for mode in (1, 4):
            power = {seq: watts for seq, smt, watts, _ in rows if smt == mode}
            assert len({ipc for _, smt, _, ipc in rows if smt == mode}) == 1
            assert min(power[seq] for seq in interleaved) > max(
                power[seq] for seq in rotations
            )

    def test_spec_baseline_is_the_hottest_proxy(self, arch):
        machine = Machine(arch)
        baseline = spec_power_baseline(machine, duration=1.0)
        cores = arch.chip.max_cores
        powers = [
            machine.run(workload, MachineConfig(cores, smt), 1.0).mean_power
            for workload in spec_cpu2006()
            for smt in arch.chip.smt_modes()
        ]
        assert baseline == max(powers)
