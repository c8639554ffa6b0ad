"""Integration tests: the paper's case studies end to end (small scale).

These are the load-bearing checks that the three case studies reproduce
their headline shapes; the benchmark harness runs the same flows at
larger scale and prints the full tables.
"""

import statistics

import pytest

from repro.power_model.campaign import ModelingCampaign
from repro.power_model.metrics import paae
from repro.sim import MachineConfig


@pytest.fixture(scope="module")
def arch(power7_arch):
    return power7_arch


@pytest.fixture(scope="module")
def campaign_result(machine):
    return ModelingCampaign(machine, scale=0.15, loop_size=512).run()


class TestCaseStudyA:
    """Bottom-up power model (section 4)."""

    def test_bu_model_accuracy_on_spec(self, campaign_result):
        model = campaign_result.bottom_up
        errors = [
            paae(model, measurements)
            for measurements in campaign_result.spec_by_config.values()
        ]
        assert statistics.fmean(errors) < 4.0
        assert max(errors) < 8.0

    def test_bu_beats_workload_trained_models(self, campaign_result):
        def mean_paae(model):
            return statistics.fmean(
                paae(model, ms)
                for ms in campaign_result.spec_by_config.values()
            )

        bu = mean_paae(campaign_result.bottom_up)
        assert bu <= mean_paae(campaign_result.top_down["TD_Random"])

    def test_weights_are_physical(self, campaign_result):
        weights = campaign_result.bottom_up.weights
        # Energies ordered by structure size: L1 < L2 < L3 < MEM.
        assert weights["L1"] < weights["L2"] < weights["L3"] < weights["MEM"]
        assert all(value >= 0 for value in weights.values())

    def test_breakdown_sums_to_prediction(self, campaign_result):
        model = campaign_result.bottom_up
        config = MachineConfig(4, 4)
        measurement = campaign_result.spec_by_config[config][0]
        breakdown = model.breakdown(measurement)
        assert sum(breakdown.values()) == pytest.approx(
            model.predict(measurement)
        )

    def test_smt_effect_small(self, campaign_result):
        assert 0.0 <= campaign_result.bottom_up.smt_effect < 2.0


class TestCaseStudyB:
    """EPI taxonomy (section 5)."""

    def test_taxonomy_reproduces_table3_orderings(self, arch, bootstrap_records):
        from repro.epi import build_taxonomy
        taxonomy = build_taxonomy(arch, bootstrap_records)
        epi = {
            entry.mnemonic: entry.epi_nj
            for entries in taxonomy.values()
            for entry in entries
        }
        assert epi["addic"] < epi["subf"] < epi["mulldo"]
        assert epi["and"] < epi["nor"] < epi["add"]
        assert epi["xstsqrtdp"] < epi["xvmaddadp"] < epi["xvnmsubmdp"]
        assert epi["stfd"] < epi["stxsdx"] < epi["stxvw4x"]

    def test_bootstrap_derives_units_and_latency(self, arch, bootstrap_records):
        assert set(bootstrap_records["lhaux"].units) == {"LSU", "FXU"}
        assert bootstrap_records["fadd"].latency == pytest.approx(6.0, rel=0.05)
        assert bootstrap_records["add"].throughput_ipc == pytest.approx(
            3.5, rel=0.05
        )

    def test_bootstrap_writes_back(self, arch, bootstrap_records):
        assert arch.props("xvmaddadp").epi is not None


class TestCaseStudyC:
    """Max-power stressmark (section 6)."""

    def test_candidates_match_paper(self, arch, bootstrap_records):
        from repro.stressmark import select_candidates
        assert select_candidates(arch, bootstrap_records) == {
            "FXU": "mulldo", "LSU": "lxvw4x", "VSU": "xvnmsubmdp",
        }

    def test_stressmark_beats_spec_max(self, machine, arch, bootstrap_records):
        from repro.stressmark import select_candidates, stressmark_search
        from repro.stressmark.search import build_stressmark
        from repro.workloads import spec_cpu2006

        candidates = select_candidates(arch, bootstrap_records)
        sequence = tuple(candidates.values()) * 2
        results = stressmark_search(machine, [sequence], loop_size=192)
        best = max(power for _, _, power, _ in results)
        spec_max = max(
            machine.run(w, MachineConfig(8, smt)).mean_power
            for w in spec_cpu2006() for smt in (1, 2, 4)
        )
        assert best > spec_max

    def test_order_changes_power_at_same_ipc(self, machine, arch):
        from repro.stressmark import stressmark_search
        blocked = ("mullw", "mullw", "xvmaddadp", "xvmaddadp", "lxvd2x", "lxvd2x")
        interleaved = ("mullw", "xvmaddadp", "lxvd2x") * 2
        rows = stressmark_search(
            machine, [blocked, interleaved], smt_modes=(1,), loop_size=192
        )
        by_seq = {row[0]: row for row in rows}
        assert by_seq[interleaved][3] == pytest.approx(
            by_seq[blocked][3], rel=0.01
        )  # same IPC
        assert by_seq[interleaved][2] > by_seq[blocked][2]  # more power


class TestFeatureMatrix:
    """Table 1: the framework provides every claimed feature."""

    def test_isa_queries(self, arch):
        assert any(ins.is_load for ins in arch.isa)
        assert arch.isa.instruction("lwz").width == 32  # operand length

    def test_march_queries(self, arch):
        assert arch.stresses("xvmaddadp", "VSU")  # functional unit
        assert arch.props("fadd").latency > 0  # latency
        assert arch.props("fadd").inv_throughput > 0  # throughput

    def test_epi_queries_after_bootstrap(self, arch, bootstrap_records):
        assert arch.props("mulldo").epi is not None  # EPI
        assert arch.props("mulldo").avg_power is not None  # avg power

    def test_cache_model(self, arch):
        from repro.march.cache_model import SetAssociativeCacheModel
        model = SetAssociativeCacheModel.for_architecture(arch)
        assert model.plan({"L2": 1.0}, 64).predicted["L2"] == 1.0

    def test_code_generation_passes(self):
        from repro.core import passes
        for name in ("EndlessLoopSkeleton", "InstructionDistribution",
                      "MemoryModel", "BranchBehavior", "DependencyDistance",
                      "InitRegisters", "InitImmediates", "SequenceOrder"):
            assert hasattr(passes, name)
