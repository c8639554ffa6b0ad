"""ChipTopology model: labels, parsing, serialization, march clusters."""

import pytest

from repro.errors import DefinitionError
from repro.isa.registry import load_default_isa
from repro.march import get_architecture, parse_march_text
from repro.sim import (
    ChipTopology,
    CoreCluster,
    MachineConfig,
    parse_topology,
    topology_from_arch,
    topology_ladder,
)
from repro.sim.pstate import NOMINAL, get_pstate
from repro.sim.topology import DEFAULT_CORE_CLASSES


class TestCoreCluster:
    def test_label_grammar(self):
        assert CoreCluster(cores=4, smt=4).label == "4-4"
        assert CoreCluster(cores=4, smt=1).label == "4-1"
        assert CoreCluster("big", 4, 1).label == "4big"
        assert CoreCluster("big", 4, 2).label == "4big-2"
        assert (
            CoreCluster("big", 4, 2, get_pstate("p2")).label == "4big-2@p2"
        )
        assert (
            CoreCluster(cores=2, smt=4, p_state=get_pstate("p3")).label
            == "2-4@p3"
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            CoreCluster(cores=0)
        with pytest.raises(ValueError):
            CoreCluster(cores=1, smt=3)
        with pytest.raises(ValueError):
            CoreCluster(name="big cluster", cores=1)

    def test_threads_and_round_trip(self):
        cluster = CoreCluster(
            "little", 4, 2, get_pstate("p2"), "POWER7_ECO"
        )
        assert cluster.threads == 8
        assert CoreCluster.from_dict(cluster.to_dict()) == cluster


class TestChipTopology:
    def test_label_joins_clusters(self):
        topology = parse_topology("4big-2@p2+4little")
        assert topology.label == "4big-2@p2+4little"
        assert topology.cores == 8
        assert topology.threads == 12
        assert topology.smt_enabled

    def test_needs_distinguishable_clusters(self):
        cluster = CoreCluster("big", 4, 1)
        with pytest.raises(ValueError):
            ChipTopology(clusters=(cluster, cluster))
        with pytest.raises(ValueError):
            ChipTopology(clusters=())

    def test_degenerate_config_round_trip(self):
        config = MachineConfig(4, 2, get_pstate("p2"))
        topology = ChipTopology.from_config(config)
        assert topology.label == config.label
        assert topology.degenerate_config() == config
        # Named or cross-class single clusters are not degenerate.
        assert (
            ChipTopology(
                clusters=(CoreCluster("big", 4, 2),)
            ).degenerate_config()
            is None
        )
        assert (
            ChipTopology(
                clusters=(
                    CoreCluster(cores=4, smt=2, core_class="POWER7_ECO"),
                )
            ).degenerate_config()
            is None
        )

    def test_with_p_state_moves_every_cluster(self):
        topology = parse_topology("4big+4little")
        moved = topology.with_p_state(get_pstate("p2"))
        assert moved.label == "4big@p2+4little@p2"
        per = topology.with_cluster_p_states(
            [get_pstate("turbo"), NOMINAL]
        )
        assert per.label == "4big@turbo+4little"
        with pytest.raises(ValueError):
            topology.with_cluster_p_states([NOMINAL])

    def test_round_trip(self):
        topology = parse_topology("2big-4@turbo+6little-2@p3")
        assert ChipTopology.from_dict(topology.to_dict()) == topology

    def test_core_classes(self):
        topology = parse_topology("2big+2little+2eco")
        assert topology.core_classes == (None, "POWER7_ECO")


class TestParseTopology:
    def test_default_name_map(self):
        assert DEFAULT_CORE_CLASSES["little"] == "POWER7_ECO"
        topology = parse_topology("4big+4little")
        assert topology.clusters[0].core_class is None
        assert topology.clusters[1].core_class == "POWER7_ECO"

    def test_unnamed_spellings(self):
        assert parse_topology("4-4").degenerate_config() == MachineConfig(
            4, 4
        )
        assert parse_topology("4").degenerate_config() == MachineConfig(4, 1)

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_topology("4huge")
        with pytest.raises(ValueError):
            parse_topology("big4")
        with pytest.raises(ValueError):
            parse_topology("4big@warp9")
        with pytest.raises(ValueError):
            parse_topology("4big-3")

    def test_custom_class_map(self):
        topology = parse_topology(
            "2fast+2slow",
            core_classes={"fast": None, "slow": "POWER7_ECO"},
        )
        assert topology.clusters[1].core_class == "POWER7_ECO"

    @pytest.mark.parametrize(
        "label",
        ["8big", "4big-2@p2+4little", "1big-4+3little-2@p3", "2-4@turbo+2big"],
    )
    def test_labels_parse_back(self, label):
        topology = parse_topology(label)
        assert topology.label == str(topology) == label
        assert parse_topology(topology.label) == topology
        # The model-facing SMT summary is the widest cluster's way.
        assert topology.smt == max(
            cluster.smt for cluster in topology.clusters
        )
        for cluster in topology.clusters:
            assert str(cluster) == cluster.label


class TestTopologyLadder:
    def test_ratio_ladder(self):
        ladder = topology_ladder(8, step=2)
        assert [t.label for t in ladder] == [
            "8big",
            "6big+2little",
            "4big+4little",
            "2big+6little",
            "8little",
        ]

    def test_smt_carries(self):
        ladder = topology_ladder(4, step=2, smt=2)
        assert ladder[1].label == "2big-2+2little-2"

    @pytest.mark.parametrize("budget, step", [(0, 1), (4, 0)])
    def test_empty_budget_or_step_rejected(self, budget, step):
        with pytest.raises(ValueError, match="must be >= 1"):
            topology_ladder(budget, step=step)


_CLUSTERED = """
march MINI

[chip]
cores = 8
smt = 4
frequency_ghz = 3.0
dispatch_width = 6
issue_width = 8

[unit FXU]
pipes = 2
counter = PM_FXU_FIN

[cache L1]
level = 1
size_kb = 32
line_bytes = 128
ways = 8
latency = 2

[memory]
latency = 230
counter = PM_DATA_FROM_LMEM

[counter PM_RUN_CYC]
[counter PM_RUN_INST_CMPL]
[counter PM_FXU_FIN]
[counter PM_LD_REF_L1]
[counter PM_ST_REF_L1]
[counter PM_DATA_FROM_LMEM]

[formula IPC]
expr = PM_RUN_INST_CMPL / PM_RUN_CYC

[cluster big]
core_class = self
cores = 4
smt = 4

[cluster little]
core_class = POWER7_ECO
cores = 4
smt = 2
p_state = p2

[iproperties]
default type:int     | FXU | 2 | 1.0
default type:load    | FXU | 3 | 1.0
default type:store   | FXU | 3 | 1.0
default type:float   | FXU | 6 | 1.0
default type:vector  | FXU | 6 | 1.0
default type:decimal | FXU | 7 | 2.0
default type:branch  | FXU | 2 | 1.0
default type:cr      | FXU | 2 | 1.0
default type:nop     | -   | 1 | 1.0
"""


class TestMarchClusterBlocks:
    def test_cluster_blocks_parse(self):
        arch = parse_march_text(_CLUSTERED, load_default_isa())
        assert len(arch.clusters) == 2
        big, little = arch.clusters
        assert big.core_class == "self" and big.smt == 4
        assert little.core_class == "POWER7_ECO"
        assert little.p_state == "p2"

    def test_default_topology_from_arch(self):
        arch = parse_march_text(_CLUSTERED, load_default_isa())
        topology = topology_from_arch(arch)
        assert topology.label == "4big-4+4little-2@p2"
        assert topology.clusters[0].core_class is None
        assert topology.clusters[1].core_class == "POWER7_ECO"

    def test_homogeneous_arch_has_no_topology(self, power7_arch):
        assert power7_arch.clusters == ()
        assert topology_from_arch(power7_arch) is None

    def test_cluster_exceeding_own_chip_rejected(self):
        bad = _CLUSTERED.replace("cores = 4\nsmt = 4", "cores = 12\nsmt = 4")
        with pytest.raises(DefinitionError):
            parse_march_text(bad, load_default_isa())

    def test_duplicate_cluster_names_rejected(self):
        bad = _CLUSTERED.replace("[cluster little]", "[cluster big]")
        with pytest.raises(DefinitionError):
            parse_march_text(bad, load_default_isa())

    def test_cluster_blocks_join_content_digest(self):
        isa = load_default_isa()
        with_clusters = parse_march_text(_CLUSTERED, isa)
        without = parse_march_text(
            _CLUSTERED[: _CLUSTERED.index("[cluster big]")]
            + _CLUSTERED[_CLUSTERED.index("[iproperties]") :],
            isa,
        )
        assert with_clusters.content_digest() != without.content_digest()


class TestEcoDefinition:
    def test_eco_is_registered(self):
        eco = get_architecture("POWER7_ECO")
        assert eco.chip.max_smt == 2
        assert eco.chip.dispatch_width == 2
        assert eco.chip.energy_scale == 0.55

    def test_energy_scale_repr_hidden(self, power7_arch):
        # The knob must not leak into ChipGeometry's repr: every
        # pre-heterogeneity definition digest (and with it every
        # persisted store key) depends on that repr staying unchanged.
        assert "energy_scale" not in repr(power7_arch.chip)
        assert power7_arch.chip.energy_scale == 1.0

    def test_energy_scale_joins_digest_when_set(self):
        eco_a = get_architecture("POWER7_ECO")
        eco_b = get_architecture("POWER7_ECO")
        assert eco_a.content_digest() == eco_b.content_digest()
        object.__setattr__(eco_b.chip, "energy_scale", 0.7)
        assert eco_a.content_digest() != eco_b.content_digest()
