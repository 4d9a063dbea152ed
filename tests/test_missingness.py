"""Mechanism families: probabilities, sampling, p_star, rho, classification."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from amplipriv import (
    CappedBernoulli,
    CompleteDataset,
    DatasetMechanism,
    DimensionError,
    MarAnchoredPattern,
    Mask,
    McarBernoulli,
    McarPattern,
    MechanismClass,
    SchemaError,
    UnsupportedMechanismError,
    make_standard_query,
    p_star,
    sample_mask,
    sensitivity_masked,
    tight_rho,
    verify_rho,
)
from amplipriv.audit import _row_supports
from amplipriv.cli import feature_mechanism_from_spec
from oracles import product_support


# the first candidate when the anchor value is >= 0, the second below it
SIGN_SCORE = {"thresholds": [[0.0]], "score_table": {"1": [1.0, 0.0], "0": [0.0, 1.0]}}


def mar_example():
    return MarAnchoredPattern(anchor=(0,), q_all=0.2, candidates=[(0, 0), (0, 1)], **SIGN_SCORE)


def all_masks(d):
    for bits in itertools.product((0, 1), repeat=d):
        yield Mask(bits)


def prob(mech, sample, mask):
    """P[F(sample) = mask], read off the support: 0 off it."""
    return dict(mech.support(sample)).get(mask, 0.0)


def matrix_prob(mech, dataset, rows):
    """P[mask matrix = rows], read off the enumerated product support."""
    masks, probs = product_support(mech, dataset)
    hits = [p for m, p in zip(masks.astype(int).tolist(), probs.tolist())
            if m == [list(r) for r in rows]]
    return hits[0] if hits else 0.0


class TestMaskProbability:
    def test_bernoulli_product(self):
        mech = McarBernoulli((0.5, 0.5))
        assert prob(mech, (7.0, -3.0), Mask((0, 1))) == 0.25
        total = sum(prob(mech, (0.0, 0.0), m) for m in all_masks(2))
        assert abs(total - 1.0) < 1e-12

    def test_pattern_lookup(self):
        mech = McarPattern([((0, 0), 0.7), ((1, 1), 0.3)])
        assert prob(mech, (1.0, 2.0), Mask((1, 1))) == 0.3
        assert prob(mech, (1.0, 2.0), Mask((0, 1))) == 0.0

    def test_mar_anchored_scores(self):
        mech = mar_example()
        # anchor value is negative, so the second candidate fires
        assert prob(mech, (-1.0, 5.0), Mask((0, 1))) == pytest.approx(
            0.8, abs=0
        )
        support = {m.bits: p for m, p in mech.support((-1.0, 5.0))}
        assert support == {(1, 1): 0.2, (0, 1): 0.8}
        assert abs(sum(support.values()) - 1.0) < 1e-12

    def test_normalization_across_families(self):
        rng = np.random.default_rng(3)
        mechs = [
            McarBernoulli((0.3, 0.9, 0.0)),
            CappedBernoulli((0.5, 0.5, 0.5), rho_cap=2 / 3),
            McarPattern([((0, 1), 0.25), ((1, 0), 0.75)]),
            mar_example(),
        ]
        for mech in mechs:
            for _ in range(5):
                z = tuple(rng.uniform(-1, 1, mech.d))
                total = sum(prob(mech, z, m) for m in all_masks(mech.d))
                assert abs(total - 1.0) < 1e-12


class TestDatasetMaskProbability:
    def test_product_of_rows(self):
        mech = DatasetMechanism(McarBernoulli((0.5, 0.5)), n=2)
        z = CompleteDataset(((0.0, 0.0), (1.0, 1.0)))
        assert matrix_prob(mech, z, ((0, 1), (1, 0))) == 0.0625

    def test_all_matrices_sum_to_one(self):
        mech = DatasetMechanism(McarBernoulli((0.5, 0.5)), n=2)
        z = CompleteDataset(((0.0, 0.0), (1.0, 1.0)))
        masks, probs = product_support(mech, z)
        assert len(masks) == 16
        assert abs(math.fsum(probs.tolist()) - 1.0) < 1e-12

    def test_single_row_equals_feature_probability(self):
        mech = DatasetMechanism(mar_example(), n=1)
        z = CompleteDataset(((0.5, 3.0),))
        want = prob(mech.feature_mech, (0.5, 3.0), Mask((0, 0)))
        assert matrix_prob(mech, z, ((0, 0),)) == want

    def test_repeated_pattern_rows(self):
        mech = DatasetMechanism(McarPattern([((0, 0), 0.7), ((1, 1), 0.3)]), n=3)
        z = CompleteDataset(((0.0, 0.0),) * 3)
        assert matrix_prob(mech, z, ((1, 1),) * 3) == pytest.approx(0.027, abs=1e-12)
        total = 0.0
        for combo in itertools.product([(0, 0), (1, 1)], repeat=3):
            total += matrix_prob(mech, z, combo)
        assert abs(total - 1.0) < 1e-12

    def test_shape_mismatch(self):
        mech = DatasetMechanism(McarBernoulli((0.5, 0.5)), n=2)
        with pytest.raises(DimensionError):
            _row_supports(mech, [CompleteDataset(((0.0, 0.0),))])
        with pytest.raises(DimensionError):
            _row_supports(mech, [CompleteDataset(((0.0,), (0.0,)))])


class TestSupportSize:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 1.0, 0.5, 0.3, 1e-200, 1e-120, 1.0 - 1e-16, 1e-310]),
                    min_size=1, max_size=9))
    def test_bernoulli_states_its_support_or_leaves_it_to_enumeration(self, pi):
        fm = McarBernoulli(pi)
        size, read = fm.support_size(), len(list(fm.support(())))
        free = sum(1 for p in pi if 0.0 < p < 1.0)
        # a mask whose probability underflows to 0 is not in the support
        assert size == read if size is not None else read < 2 ** free

    def test_stated_size_counts_only_the_free_features(self):
        assert McarBernoulli([0.5, 0.0, 1.0, 0.25]).support_size() == 4
        assert McarBernoulli([1e-200, 1e-200, 0.5]).support_size() is None

    def test_other_families_leave_it_to_enumeration(self):
        assert McarPattern([((0, 0), 0.7), ((1, 1), 0.3)]).support_size() is None
        assert mar_example().support_size() is None


class TestSampleMask:
    def test_point_mass_pattern(self):
        mech = DatasetMechanism(McarPattern([((0, 0), 1.0)]), n=3)
        z = CompleteDataset(((0.0, 0.0),) * 3)
        out = sample_mask(mech, z, seed=0)
        assert out.bits_tuple() == ((0, 0),) * 3

    def test_certain_missingness(self):
        mech = DatasetMechanism(McarBernoulli((1.0, 1.0)), n=2)
        z = CompleteDataset(((0.0, 0.0),) * 2)
        out = sample_mask(mech, z, seed=4)
        assert out.bits_tuple() == ((1, 1),) * 2

    def test_deterministic_given_seed(self):
        mech = DatasetMechanism(McarBernoulli((0.5, 0.2)), n=4)
        z = CompleteDataset(((0.0, 0.0),) * 4)
        assert sample_mask(mech, z, 9).bits_tuple() == sample_mask(mech, z, 9).bits_tuple()

    def test_row_streams_do_not_depend_on_n(self):
        z3 = CompleteDataset(((0.0, 0.0),) * 3)
        z2 = CompleteDataset(((0.0, 0.0),) * 2)
        m3 = sample_mask(DatasetMechanism(McarBernoulli((0.5, 0.5)), 3), z3, 7)
        m2 = sample_mask(DatasetMechanism(McarBernoulli((0.5, 0.5)), 2), z2, 7)
        assert m3.bits_tuple()[:2] == m2.bits_tuple()

    def test_empirical_frequencies_match_probabilities(self):
        mech = DatasetMechanism(McarBernoulli((0.5, 0.5)), n=1)
        z = CompleteDataset(((0.0, 0.0),))
        counts = {}
        draws = 10**5
        for s in range(draws):
            bits = sample_mask(mech, z, s).bits_tuple()[0]
            counts[bits] = counts.get(bits, 0) + 1
        for bits, c in counts.items():
            assert abs(c / draws - 0.25) < 0.01

    def test_rows_are_independent(self):
        # chi-square independence between the two row masks at alpha = 1e-3
        mech = DatasetMechanism(McarPattern([((0,), 0.6), ((1,), 0.4)]), n=2)
        z = CompleteDataset(((0.0,), (0.0,)))
        table = np.zeros((2, 2))
        for s in range(20000):
            bits = sample_mask(mech, z, s).bits_tuple()
            table[bits[0][0], bits[1][0]] += 1
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 1e-3

    def test_mar_draws_follow_anchor(self):
        mech = DatasetMechanism(mar_example(), n=1)
        zpos = CompleteDataset(((1.0, 0.0),))
        seen = set()
        for s in range(200):
            seen.add(sample_mask(mech, zpos, s).bits_tuple()[0])
        # positive anchor never selects the (0, 1) candidate
        assert (0, 1) not in seen and (0, 0) in seen and (1, 1) in seen


class LastUniform:
    """A generator stub whose every uniform is the largest float below 1."""

    def random(self):
        return 1.0 - 2.0 ** -53


class TestDrawNeverPicksAZeroProbabilityMask:
    """Probabilities that sum to 1 - 1e-13, within the validation's tolerance,
    leave a float cumulative sum below the largest uniform; the draw must then
    fall on the last mask of positive probability, not on (1, 1, 0, 0), which
    observes 2 features where the support observes 1."""

    LAW = [((0, 1, 1, 1), 0.5), ((1, 0, 1, 1), 0.5 - 1e-13), ((1, 1, 0, 0), 0.0)]

    def test_pattern(self):
        mech = McarPattern(self.LAW)
        assert [m.bits for m, _ in mech.support(None)] == [(0, 1, 1, 1), (1, 0, 1, 1)]
        assert mech.max_observed_count() == 1
        assert mech.draw(None, LastUniform()).bits == (1, 0, 1, 1)

    def test_mar_anchored(self):
        bits, scores = zip(*self.LAW)
        mech = MarAnchoredPattern(anchor=(), q_all=0.0, candidates=bits, thresholds=[],
                                  score_table={"": list(scores)})
        assert mech.max_observed_count() == 1
        assert mech.draw(None, LastUniform()).bits == (1, 0, 1, 1)


class TestAnchoredObservedCountFollowsTheSupport:
    """rho is the largest observed fraction over the masks a row's law can
    draw; a candidate of score 0 in every row, or hidden by q_all = 1, is
    never drawn and must not loosen it."""

    @staticmethod
    def mechanism(q_all):
        return DatasetMechanism(MarAnchoredPattern(
            anchor=(0,), q_all=q_all, candidates=[(0, 0, 0), (0, 1, 1)], thresholds=[[0.0]],
            score_table={"0": [0.0, 1.0], "1": [0.0, 1.0]}), n=1)

    def test_a_candidate_of_score_0_everywhere_is_not_counted(self):
        mech = self.mechanism(0.0)
        assert mech.feature_mech.max_observed_count() == 1
        assert tight_rho(mech) == 1 / 3

    def test_q_all_1_observes_nothing(self):
        mech = self.mechanism(1.0)
        assert mech.feature_mech.max_observed_count() == 0
        assert tight_rho(mech) == 0.0


class TestPStar:
    def test_bernoulli(self):
        mech = DatasetMechanism(McarBernoulli((0.5, 0.5)), n=3)
        assert p_star(mech) == 0.75

    def test_mar_without_atom_is_one(self):
        mech = DatasetMechanism(
            MarAnchoredPattern(
                anchor=(0,), q_all=0.0, candidates=[(0, 0), (0, 1)], **SIGN_SCORE
            ),
            n=2,
        )
        assert p_star(mech) == 1.0

    def test_pattern_with_all_missing_atom(self):
        mech = DatasetMechanism(McarPattern([((0, 0), 0.7), ((1, 1), 0.3)]), n=2)
        assert p_star(mech) == 0.7

    def test_capped_bernoulli_renormalizes(self):
        pi = (0.5, 0.5)
        mech = CappedBernoulli(pi, rho_cap=0.5)
        # masks observing <= 1 of 2 features: mass 0.75, all-ones mass 0.25
        assert p_star(DatasetMechanism(mech, 1)) == pytest.approx(
            1.0 - 0.25 / 0.75, abs=1e-15
        )

    def test_enumeration_matches_for_random_pairs(self):
        rng = np.random.default_rng(17)
        mech = DatasetMechanism(mar_example(), n=2)
        expected = p_star(mech)
        for _ in range(100):
            vals = rng.uniform(-1, 1, (2, 2))
            left = CompleteDataset(tuple(map(tuple, vals)))
            i_star = int(rng.integers(2))
            right = left.substitute(i_star, rng.uniform(-1, 1, 2))
            for ds in (left, right):
                mass = 0.0
                for r1, p1 in mech.feature_mech.support(ds.rows[0]):
                    for r2, p2 in mech.feature_mech.support(ds.rows[1]):
                        rows = (r1, r2)
                        if not rows[i_star].observed_count == 0:
                            mass += p1 * p2
                assert abs(mass - expected) < 1e-12


class TestVerifyRho:
    def test_unrestricted_bernoulli_fails_half(self):
        mech = DatasetMechanism(McarBernoulli((0.5, 0.5)), n=1)
        assert verify_rho(mech, 0.5) is False

    def test_pattern_single_observed(self):
        patterns = [((0, 1, 1, 1), 0.25), ((1, 0, 1, 1), 0.25),
                    ((1, 1, 0, 1), 0.25), ((1, 1, 1, 0), 0.25)]
        mech = DatasetMechanism(McarPattern(patterns), n=2)
        assert verify_rho(mech, 0.25) is True
        assert tight_rho(mech) == 0.25

    def test_rho_one_is_vacuous(self):
        for fm in (McarBernoulli((0.5,)), mar_example()):
            assert verify_rho(DatasetMechanism(fm, 1), 1.0) is True

    def test_capped_bernoulli_meets_its_cap(self):
        mech = DatasetMechanism(CappedBernoulli((0.5, 0.5, 0.5, 0.5), 0.5), n=1)
        assert verify_rho(mech, 0.5) is True
        assert tight_rho(mech) == 0.5

    def test_tight_rho_keeps_every_observed_count(self):
        # c / d * d can round below c (15 / 22 * 22 is 14.999999999999998), so
        # flooring rho * d kept one constant too few and refused the tight rho
        for d in range(1, 65):
            q = make_standard_query("bounded_mean", n=1, d=d)  # every constant 1
            for c in range(d + 1):
                mech = DatasetMechanism(McarBernoulli([0.5] * c + [1.0] * (d - c)), n=1)
                rho = tight_rho(mech)
                assert verify_rho(mech, rho), (c, d)
                assert sensitivity_masked(q, 1.0, rho).C_tilde_p == 2.0 * c, (c, d)
                if c:
                    assert CappedBernoulli([0.5] * d, rho).obs_cap == c, (c, d)


def two_anchor_example():
    # thresholds pair with the anchors in order: feature 0 takes
    # [0.5, -0.25] and feature 2 takes [0.0]
    return MarAnchoredPattern(
        anchor=(0, 2), q_all=0.1,
        candidates=[(0, 1, 0, 1), (0, 0, 0, 1), (0, 1, 0, 0)],
        thresholds=[[0.5, -0.25], [0.0]],
        score_table={
            "0,0": [0.2, 0.3, 0.5], "0,1": [1.0, 0.0, 0.0], "1,0": [0.0, 0.5, 0.5],
            "1,1": [0.25, 0.25, 0.5], "2,0": [0.6, 0.4, 0.0], "2,1": [0.1, 0.1, 0.8],
        },
    )


FAMILIES = {
    "bernoulli": lambda: McarBernoulli((0.3, 0.9, 0.0)),
    "capped": lambda: CappedBernoulli((0.5, 0.2, 0.7), rho_cap=2 / 3),
    "pattern": lambda: McarPattern([((0, 1, 1), 0.25), ((1, 1, 1), 0.5), ((0, 0, 0), 0.25)]),
    # with no anchor an all-missing candidate is allowed
    "mar-empty-anchor": lambda: MarAnchoredPattern(
        anchor=(), q_all=0.1, candidates=[(0, 1, 1), (1, 1, 1), (0, 0, 0)],
        thresholds=[], score_table={"": [0.2, 0.3, 0.5]},
    ),
    "mar-one-anchor": mar_example,
    "mar-two-anchors": two_anchor_example,
}

# on and around every threshold above, signed zeros included
COORDINATE = st.one_of(
    st.floats(-2.0, 2.0), st.sampled_from([-0.25, 0.0, -0.0, 0.5, 5e-324, -5e-324])
)


class TestClassify:
    def test_bernoulli_is_mcar(self):
        assert McarBernoulli((0.2, 0.9)).mechanism_class is MechanismClass.MCAR

    def test_anchored_with_dependent_scores_is_mar(self):
        assert mar_example().mechanism_class is MechanismClass.MAR

    def test_anchored_with_constant_scores_is_mcar(self):
        mech = MarAnchoredPattern(
            anchor=(0,), q_all=0.1, candidates=[(0, 0), (0, 1)],
            thresholds=[[0.0, 3.0]],
            score_table={"0": [0.5, 0.5], "1": [0.5, 0.5], "2": [0.5, 0.5]},
        )
        assert mech.mechanism_class is MechanismClass.MCAR

    def test_mcar_never_labeled_mnar(self):
        assert set(MechanismClass) == {MechanismClass.MCAR, MechanismClass.MAR}
        for mech in (McarBernoulli((0.3, 0.3)), McarPattern([((0, 0), 1.0)])):
            assert mech.mechanism_class is MechanismClass.MCAR

    @pytest.mark.parametrize("build, expected", [
        (FAMILIES["capped"], MechanismClass.MCAR),
        (FAMILIES["pattern"], MechanismClass.MCAR),
        (FAMILIES["mar-empty-anchor"], MechanismClass.MCAR),
        (FAMILIES["mar-two-anchors"], MechanismClass.MAR),
        # the rows differ, but q_all = 1 hides every row whatever its bin
        (lambda: MarAnchoredPattern(anchor=(0,), q_all=1.0, candidates=[(0, 0), (0, 1)],
                                    **SIGN_SCORE), MechanismClass.MCAR),
        # only anchor values >= 5 reach the second row: still MAR
        (lambda: MarAnchoredPattern(
            anchor=(0,), q_all=0.0, candidates=[(0, 0), (0, 1)], thresholds=[[5.0]],
            score_table={"0": [0.5, 0.5], "1": [0.5000000000000001, 0.4999999999999999]},
        ), MechanismClass.MAR),
        (lambda: feature_mechanism_from_spec(json.loads(
            (Path(__file__).resolve().parent.parent / "scenarios" / "laplace_mean_rho05.json")
            .read_text())["mechanism"]), MechanismClass.MAR),
    ], ids=["capped", "pattern", "empty-anchor", "two-anchors", "all-hidden", "far-bin",
            "shipped-spec"])
    def test_mechanism_class_table(self, build, expected):
        assert build().mechanism_class is expected

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_law_ignores_unobserved_features(self, family, data):
        """The MAR property: z and z' that agree on m's observed features give
        m the same probability, bit for bit, and the law is normalised."""
        mech = FAMILIES[family]()
        z = data.draw(st.tuples(*[COORDINATE] * mech.d))
        mask = Mask(data.draw(st.tuples(*[st.integers(0, 1)] * mech.d)))
        z_alt = tuple(data.draw(COORDINATE) if b else v for v, b in zip(z, mask.bits))
        assert prob(mech, z, mask) == prob(mech, z_alt, mask)
        assert abs(math.fsum(p for _, p in mech.support(z)) - 1.0) <= 1e-12
        # so the hiding probability is one constant
        assert prob(mech, z, Mask((1,) * mech.d)) == mech.all_missing_probability()


class TestHiddenMaskCoincidence:
    def test_mar_probability_equal_when_row_fully_masked(self):
        mech = DatasetMechanism(mar_example(), n=2)
        rng = np.random.default_rng(29)
        for _ in range(100):
            vals = rng.uniform(-1, 1, (2, 2))
            left = CompleteDataset(tuple(map(tuple, vals)))
            right = left.substitute(0, rng.uniform(-1, 1, 2))
            for other_bits in ((0, 0), (0, 1), (1, 1)):
                rows = ((1, 1), other_bits)
                pl = matrix_prob(mech, left, rows)
                pr = matrix_prob(mech, right, rows)
                assert pl == pr  # bit-exact equality


class TestSpecParsing:
    def test_bernoulli_round_trip(self):
        mech = feature_mechanism_from_spec({"kind": "mcar_bernoulli", "pi": [0.5, 0.25]})
        assert isinstance(mech, McarBernoulli) and mech.pi == (0.5, 0.25)

    def test_pattern_spec(self):
        mech = feature_mechanism_from_spec(
            {
                "kind": "mcar_pattern",
                "patterns": [
                    {"mask": [0, 0], "prob": 0.7},
                    {"mask": [1, 1], "prob": 0.3},
                ],
            }
        )
        assert mech.all_missing_probability() == 0.3

    def test_mar_spec_with_table(self):
        spec = {
            "kind": "mar_anchored",
            "anchor": [0],
            "q_all": 0.2,
            "candidates": [[0, 0], [0, 1]],
            "thresholds": [[0.0]],
            "score_table": {"1": [1.0, 0.0], "0": [0.0, 1.0]},
        }
        mech = feature_mechanism_from_spec(spec)
        assert prob(mech, (-1.0, 5.0), Mask((0, 1))) == pytest.approx(0.8)
        assert prob(mech, (3.0, 5.0), Mask((0, 0))) == pytest.approx(0.8)

    def test_mnar_kind_rejected_with_mar_message(self):
        with pytest.raises(UnsupportedMechanismError, match="MAR"):
            feature_mechanism_from_spec({"kind": "mnar_logistic"})

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            feature_mechanism_from_spec({"kind": "bogus"})

    def test_missing_bin_key_rejected_at_construction(self):
        with pytest.raises(ValueError, match="no entry for bin key '1'"):
            MarAnchoredPattern(anchor=(0,), q_all=0.0, candidates=[(0, 0), (0, 1)],
                               thresholds=[[0.0]], score_table={"0": [1.0, 0.0]})


class TestValidation:
    def test_pattern_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            McarPattern([((0,), 0.5), ((1,), 0.4)])

    def test_bernoulli_range(self):
        with pytest.raises(ValueError):
            McarBernoulli((1.5,))

    def test_candidates_must_observe_anchor(self):
        with pytest.raises(ValueError):
            MarAnchoredPattern(
                anchor=(0,), q_all=0.0, candidates=[(1, 0)],
                thresholds=[[]], score_table={"0": [1.0]},
            )

    @pytest.mark.parametrize("row", [[0.9, 0.3], [1.0], [1.2, -0.2], [float("nan"), 1.0]],
                             ids=["sum-above-one", "short", "negative", "nan"])
    def test_bad_scores_rejected_at_construction(self, row):
        with pytest.raises(ValueError, match="score_table: row '1'"):
            MarAnchoredPattern(anchor=(0,), q_all=0.0, candidates=[(0, 0), (0, 1)],
                               thresholds=[[0.0]], score_table={"0": [1.0, 0.0], "1": row})

    @pytest.mark.parametrize("build, field", [
        (lambda: McarBernoulli([float("nan"), 0.5]), "pi"),
        (lambda: CappedBernoulli([float("nan"), 0.5], 0.5), "pi"),
        (lambda: McarPattern([((0, 0), float("nan")), ((1, 1), 1.0)]), "patterns"),
        (lambda: MarAnchoredPattern(anchor=(0,), q_all=float("nan"), candidates=[(0, 0)],
                                    thresholds=[[]], score_table={"0": [1.0]}), "q_all"),
        (lambda: MarAnchoredPattern(anchor=(0,), q_all=0.0, candidates=[(0, 0), (0, 1)],
                                    thresholds=[[float("nan")]],
                                    score_table=SIGN_SCORE["score_table"]), "thresholds"),
        (lambda: MarAnchoredPattern(anchor=(0,), q_all=0.0, candidates=[(0, 0), (0, 1)],
                                    thresholds=[[0.0], [1.0]],
                                    score_table=SIGN_SCORE["score_table"]), "thresholds"),
    ], ids=["bernoulli-pi", "capped-pi", "pattern-prob", "q_all", "threshold", "threshold-count"])
    def test_nan_and_misshapen_fields_rejected(self, build, field):
        with pytest.raises(ValueError, match=f"^{field}: "):
            build()
