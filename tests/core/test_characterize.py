"""Tests for sensitivity/contentiousness characterization (Eqs. 1-2)."""

import pytest

from repro.core.characterize import (
    Characterization,
    characterize,
    characterize_many,
)
from repro.errors import CharacterizationError
from repro.rulers.base import Dimension


class TestCharacterize:
    def test_covers_all_dimensions(self, ivy_sim, ivy_rulers, namd):
        char = characterize(ivy_sim, namd, ivy_rulers)
        assert char.dimensions == tuple(Dimension)
        assert char.workload == "444.namd"

    def test_matches_pair_measurements(self, ivy_sim, ivy_rulers, namd):
        """Eq. 1/2: Sen is the app's degradation, Con the Ruler's."""
        char = characterize(ivy_sim, namd, ivy_rulers)
        ruler = ivy_rulers[Dimension.FP_MUL]
        measured = ivy_sim.measure_pair(namd, ruler.profile, "smt")
        assert char.sensitivity[Dimension.FP_MUL] == measured.degradation_a
        assert char.contentiousness[Dimension.FP_MUL] == measured.degradation_b

    def test_paper_anchor_mcf_port_insensitive(self, ivy_sim, ivy_rulers,
                                               mcf, namd):
        """Finding 2: 429.mcf barely cares about port 1; 444.namd does."""
        mcf_char = characterize(ivy_sim, mcf, ivy_rulers)
        namd_char = characterize(ivy_sim, namd, ivy_rulers)
        assert mcf_char.sensitivity[Dimension.FP_ADD] < 0.10
        assert namd_char.sensitivity[Dimension.FP_ADD] > 0.30

    def test_paper_anchor_calculix_l1_reliance(self, ivy_sim, ivy_rulers,
                                               calculix):
        """Finding 7: calculix's L1 and L2 sensitivities are close."""
        char = characterize(ivy_sim, calculix, ivy_rulers)
        gap = abs(char.sensitivity[Dimension.L1]
                  - char.sensitivity[Dimension.L2])
        assert gap < 0.15

    def test_paper_anchor_calculix_vs_lbm_ports(self, ivy_sim, ivy_rulers,
                                                calculix, lbm):
        """Finding 4: calculix is more port-0-contentious, lbm more port-1."""
        cal = characterize(ivy_sim, calculix, ivy_rulers)
        lb = characterize(ivy_sim, lbm, ivy_rulers)
        assert cal.contentiousness[Dimension.FP_MUL] > \
            cal.contentiousness[Dimension.FP_ADD]
        assert lb.contentiousness[Dimension.FP_ADD] > \
            lb.contentiousness[Dimension.FP_MUL]

    def test_cmp_mode_gentler_on_fu(self, ivy_sim, ivy_rulers, namd):
        smt = characterize(ivy_sim, namd, ivy_rulers, mode="smt")
        cmp_ = characterize(ivy_sim, namd, ivy_rulers, mode="cmp")
        assert cmp_.sensitivity[Dimension.FP_MUL] < \
            smt.sensitivity[Dimension.FP_MUL]

    def test_characterize_many(self, ivy_sim, ivy_rulers, mcf, namd):
        chars = characterize_many(ivy_sim, [mcf, namd], ivy_rulers)
        assert set(chars) == {"429.mcf", "444.namd"}


class TestCharacterizationType:
    def test_vectors_in_canonical_order(self, ivy_sim, ivy_rulers, mcf):
        char = characterize(ivy_sim, mcf, ivy_rulers)
        vec = char.sensitivity_vector()
        assert len(vec) == 7
        assert vec[0] == char.sensitivity[Dimension.FP_MUL]

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(CharacterizationError):
            Characterization(
                workload="x",
                sensitivity={Dimension.L1: 0.1},
                contentiousness={Dimension.L2: 0.1},
            )

    def test_empty_rejected(self):
        with pytest.raises(CharacterizationError):
            Characterization(workload="x", sensitivity={}, contentiousness={})

    def test_describe_mentions_dimensions(self, ivy_sim, ivy_rulers, mcf):
        text = characterize(ivy_sim, mcf, ivy_rulers).describe()
        assert "FP_MUL" in text and "L3" in text

    def test_dimensions_computed_once_in_canonical_order(self):
        char = Characterization(
            workload="x",
            sensitivity={Dimension.L3: 0.2, Dimension.FP_MUL: 0.1},
            contentiousness={Dimension.FP_MUL: 0.3, Dimension.L3: 0.4},
        )
        assert char.dimensions == (Dimension.FP_MUL, Dimension.L3)
        assert char.dimensions is char.dimensions
        assert char == Characterization(
            workload="x", sensitivity=dict(char.sensitivity),
            contentiousness=dict(char.contentiousness),
        )
