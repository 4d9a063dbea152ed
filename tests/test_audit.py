"""Audit engine: hidden-mask coincidence, theorem verification, tightness instance."""

import math

import numpy as np
import pytest

from amplipriv import (
    ComposedMechanism,
    CompleteDataset,
    DatasetMechanism,
    DimensionError,
    MarAnchoredPattern,
    McarBernoulli,
    McarPattern,
    NeighborPair,
    VectorMixture,
    amplify_generic,
    calibrate_gaussian,
    calibrate_laplace,
    composed_output_mixture,
    hockey_stick_mixture_1d,
    make_standard_query,
    named_postprocess,
    p_star,
    tightness_counterexample,
    verify_amplification,
)
from amplipriv.audit import _support_arrays
from amplipriv.noise import PrivacyBudget


def sum_query(n, d, B):
    base = make_standard_query("clipped_mean", n=n, d=d, clip=B)
    return named_postprocess(base, "sum")


def anchored_mechanism(n):
    return DatasetMechanism(
        MarAnchoredPattern(
            anchor=(0,),
            q_all=0.0,
            candidates=[(0, 1, 1, 1), (0, 0, 1, 1)],
            thresholds=[[0.0]],
            score_table={"1": [0.3, 0.7], "0": [0.8, 0.2]},
        ),
        n=n,
    )


def neighbor_pair(B=0.5):
    left = CompleteDataset(
        ((0.3, -0.2, 0.5, -0.5), (-0.4, 0.1, 0.2, 0.3)), bound_B=B
    )
    right = left.substitute(0, (-0.3, 0.5, -0.1, 0.2))
    return NeighborPair(left, right)


def split_support(mech, dataset, i_star):
    """The audit's mask support of ``dataset`` split by whether row ``i_star``
    is all missing: (hidden masks, their probabilities, the other
    probabilities)."""
    masks, probs = _support_arrays(mech, dataset)
    hidden = masks[:, i_star].all(axis=1)
    return masks[hidden], probs[hidden], probs[~hidden]


class TestMixtureDecomposition:
    """For neighbours differing in row i*, the masks that hide row i* entirely
    and their probabilities are bit-identical between the two datasets: the
    hidden part of the two output mixtures coincides, which is what the
    amplification proof rests on."""

    def test_mass_identity(self):
        mech = DatasetMechanism(
            McarPattern([((0, 0, 1, 1), 0.35), ((1, 1, 0, 0), 0.35), ((1, 1, 1, 1), 0.3)]),
            n=2,
        )
        pair = neighbor_pair()
        for ds in (pair.left, pair.right):
            hidden, p_hidden, p_rest = split_support(mech, ds, 0)
            assert len(hidden)
            assert math.fsum(p_hidden.tolist()) == pytest.approx(1 - p_star(mech), abs=1e-12)
            assert math.fsum(p_rest.tolist()) == pytest.approx(p_star(mech), abs=1e-12)

    def test_hidden_part_supported_on_fully_masked_row(self):
        mech = DatasetMechanism(
            McarPattern([((0, 0, 1, 1), 0.7), ((1, 1, 1, 1), 0.3)]), n=2
        )
        assert p_star(mech) == pytest.approx(0.7)
        masks, probs = _support_arrays(mech, neighbor_pair().left)
        hidden = masks[:, 0].all(axis=1)
        # the hidden part carries the all-missing mass, the rest row 0's one other pattern
        assert hidden.any() and not hidden.all()
        assert math.fsum(probs[hidden].tolist()) == pytest.approx(0.3, abs=1e-12)
        assert (masks[~hidden, 0] == [False, False, True, True]).all()

    def test_mar_hidden_tables_bit_exact_over_random_pairs(self):
        mech = DatasetMechanism(
            MarAnchoredPattern(
                anchor=(0,),
                q_all=0.25,
                candidates=[(0, 1, 1, 1), (0, 0, 1, 1)],
                thresholds=[[0.0]],
                score_table={"1": [0.3, 0.7], "0": [0.8, 0.2]},
            ),
            n=2,
        )
        assert abs(p_star(mech) - 0.75) < 1e-15
        rng = np.random.default_rng(13)
        for _ in range(100):
            vals = rng.uniform(-0.5, 0.5, (2, 4))
            left = CompleteDataset(tuple(map(tuple, vals)))
            i_star = int(rng.integers(2))
            right = left.substitute(i_star, rng.uniform(-0.5, 0.5, 4))
            masks_l, probs_l, _ = split_support(mech, left, i_star)
            masks_r, probs_r, _ = split_support(mech, right, i_star)
            assert len(masks_l) and masks_l.tobytes() == masks_r.tobytes()
            assert probs_l.tobytes() == probs_r.tobytes()

    def test_p_star_one_has_empty_hidden_table(self):
        mech = anchored_mechanism(2)
        assert p_star(mech) == 1.0
        assert len(split_support(mech, neighbor_pair().left, 0)[0]) == 0

    def test_broken_mar_detected(self):
        class LeakyPattern(McarPattern):
            def support(self, sample):
                # hidden-mask probability depends on an unobserved value
                shift = 0.05 if sample[0] > 0 else -0.05
                out = []
                for m, p in super().support(sample):
                    out.append((m, p + shift if m.is_all_missing() else p - shift))
                return out

        mech = DatasetMechanism(
            LeakyPattern([((0, 0, 1, 1), 0.5), ((1, 1, 1, 1), 0.5)]), n=2
        )
        pair = neighbor_pair()
        masks_l, probs_l, _ = split_support(mech, pair.left, 0)
        masks_r, probs_r, _ = split_support(mech, pair.right, 0)
        assert masks_l.tobytes() == masks_r.tobytes()
        assert probs_l.tobytes() != probs_r.tobytes()


class TestComposedOutputMixture:
    def test_weights_match_mask_law(self):
        B = 0.5
        q = sum_query(2, 4, B)
        mech = DatasetMechanism(
            McarPattern([((0, 0, 1, 1), 0.25), ((1, 1, 1, 1), 0.75)]), n=2
        )
        cm = ComposedMechanism(noise=calibrate_laplace(q, 1.0, B), missing=mech)
        z = CompleteDataset(((0.3, -0.2, 0.5, -0.5), (-0.4, 0.1, 0.2, 0.3)))
        mix = composed_output_mixture(cm, z)
        assert math.fsum(w for w, _, _, _ in mix.components) == pytest.approx(1.0)
        # four mask matrices, possibly fewer centers after merging
        assert 1 <= len(mix.components) <= 4

    def test_vector_output_rejected(self):
        B = 0.5
        q = make_standard_query("clipped_mean", n=2, d=4, clip=B)
        mech = DatasetMechanism(McarPattern([((0, 0, 1, 1), 1.0)]), n=2)
        cm = ComposedMechanism(noise=calibrate_laplace(q, 1.0, B), missing=mech)
        with pytest.raises(DimensionError):
            composed_output_mixture(cm, CompleteDataset(((0.0,) * 4, (0.0,) * 4)))


class TestVerifyAmplification:
    def test_point_mass_all_zero_equals_base(self):
        # composition with a never-masking mechanism is the base mechanism
        B = 0.5
        q = sum_query(2, 4, B)
        mech = DatasetMechanism(McarPattern([((0, 0, 0, 0), 1.0)]), n=2)
        noise = calibrate_gaussian(q, epsilon=0.5, delta=1e-4, B=B)
        cm = ComposedMechanism(noise=noise, missing=mech)
        pair = neighbor_pair()
        pm = composed_output_mixture(cm, pair.left)
        qm = composed_output_mixture(cm, pair.right)
        base_l = q(pair.left.as_incomplete())[0]
        base_r = q(pair.right.as_incomplete())[0]
        for eps in (0.1, 0.5):
            composed = hockey_stick_mixture_1d(pm, qm, eps, tol=1e-10)
            base = hockey_stick_mixture_1d(
                *(VectorMixture(weights=[1.0], centers=[[c]], family="gaussian",
                                scale=noise.scale) for c in (base_l, base_r)),
                eps,
                tol=1e-10,
            )
            assert composed.value == pytest.approx(base.value, abs=1e-12)
        table = verify_amplification(cm, pair, [0.5], method="exact", tol=1e-9)
        assert table.passed
        assert table.rows[0].epsilon_eval == 0.5  # p* = 1, ratio = 1: no change

    def test_laplace_anchored_rho_half(self):
        B = 0.5
        q = sum_query(2, 4, B)
        cm = ComposedMechanism(
            noise=calibrate_laplace(q, epsilon=1.0, B=B),
            missing=anchored_mechanism(2),
        )
        table = verify_amplification(
            cm, neighbor_pair(), [0.25, 0.5, 1.0], method="exact", tol=1e-7
        )
        assert table.passed
        for row in table.rows:
            assert row.epsilon_eval == pytest.approx(0.5 * row.epsilon_base)
            assert row.bound == 0.0
            assert row.empirical <= 1e-6

    def test_gaussian_mcar_half(self):
        B = 0.5
        q = sum_query(2, 4, B)
        mech = DatasetMechanism(
            McarPattern(
                [((1, 1, 1, 1), 0.5), ((0, 0, 1, 1), 0.25), ((1, 1, 0, 0), 0.25)]
            ),
            n=2,
        )
        noise = calibrate_gaussian(q, epsilon=1.0, delta=1e-4, B=B)
        cm = ComposedMechanism(noise=noise, missing=mech)
        table = verify_amplification(
            cm, neighbor_pair(), [0.5, 1.0], method="exact", tol=1e-7
        )
        assert table.passed
        for row in table.rows:
            assert row.bound == pytest.approx(0.5e-4)
            assert row.empirical <= row.bound + 1e-6

    def test_monte_carlo_route(self):
        B = 0.5
        q = sum_query(2, 4, B)
        cm = ComposedMechanism(
            noise=calibrate_laplace(q, epsilon=1.0, B=B),
            missing=anchored_mechanism(2),
        )
        table = verify_amplification(
            cm, neighbor_pair(), [1.0], method="mc", n_samples=50_000, seed=2
        )
        assert table.rows[0].method == "monte_carlo"
        assert table.passed

    def test_vector_output_goes_through_monte_carlo(self):
        # k = 4 output: exact is rejected, the MC path audits it anyway
        B = 0.5
        q = make_standard_query("clipped_mean", n=2, d=4, clip=B)
        cm = ComposedMechanism(
            noise=calibrate_laplace(q, epsilon=1.0, B=B),
            missing=anchored_mechanism(2),
        )
        pair = neighbor_pair()
        with pytest.raises(DimensionError):
            verify_amplification(cm, pair, [1.0], method="exact")
        table = verify_amplification(
            cm, pair, [1.0], method="mc", n_samples=50_000, seed=6
        )
        assert table.passed

    def test_vector_mc_matches_quadrature_on_scalar_query(self):
        from amplipriv import composed_vector_mixture, mc_delta_vector

        B = 0.5
        q = sum_query(2, 4, B)
        cm = ComposedMechanism(
            noise=calibrate_laplace(q, epsilon=1.0, B=B),
            missing=anchored_mechanism(2),
        )
        pair = neighbor_pair()
        pv = composed_vector_mixture(cm, pair.left)
        qv = composed_vector_mixture(cm, pair.right)
        pm = composed_output_mixture(cm, pair.left)
        qm = composed_output_mixture(cm, pair.right)
        for eps in (0.0, 0.05):
            quad = hockey_stick_mixture_1d(pm, qm, eps, tol=1e-9)
            mc = mc_delta_vector(pv, qv, eps, n_samples=200_000, seed=5)
            half = (mc.ci[1] - mc.ci[0]) / 2
            assert abs(mc.value - quad.value) <= 3 * half + 1e-9

    def test_false_claim_fails(self):
        B = 0.5
        q = sum_query(2, 4, B)
        cm = ComposedMechanism(
            noise=calibrate_laplace(q, epsilon=1.0, B=B),
            missing=anchored_mechanism(2),
        )
        table = verify_amplification(
            cm,
            neighbor_pair(),
            [1.0],
            method="exact",
            tol=1e-9,
            claim={"epsilon": 0.05, "delta": 0.0},
        )
        assert not table.passed
        assert table.rows[0].empirical > 0.0


class TestTightnessCounterexample:
    def test_gap_vanishes(self):
        for eps in (0.1, 0.5, 1.0):
            res = tightness_counterexample(eps, 1e-3)
            assert res.equality_gap <= 1e-9

    def test_p_star_is_one_exactly(self):
        res = tightness_counterexample(0.5, 1e-3)
        assert res.p_star == 1.0

    def test_generic_amplification_returns_unchanged_budget(self):
        res = tightness_counterexample(0.5, 1e-3)
        budget = PrivacyBudget(0.5, 1e-3)
        report = amplify_generic(budget, res.p_star)
        assert report.amplified == budget

    def test_masking_changes_data_but_not_output(self):
        res = tightness_counterexample(0.5, 1e-3)
        # the mechanism masks different features for the two datasets, yet the
        # query reads only the always-observed coordinate
        mixes = [
            composed_output_mixture(res.composed, ds)
            for ds in (res.pair.left, res.pair.right)
        ]
        for mix in mixes:
            assert len(mix.components) == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            tightness_counterexample(1.5, 1e-3)
        with pytest.raises(ValueError):
            tightness_counterexample(0.5, 0.0)


class TestArrayEnumeration:
    def test_support_arrays_match_row_by_row_product(self):
        import itertools

        from amplipriv import audit

        mech = DatasetMechanism(
            MarAnchoredPattern(
                anchor=(0,), q_all=0.15,
                candidates=[(0, 1, 1, 1), (0, 0, 1, 0), (0, 1, 0, 0)],
                thresholds=[[0.0]],
                score_table={"1": [0.3, 0.6, 0.1], "0": [0.7, 0.1, 0.2]},
            ),
            n=3,
        )
        data = CompleteDataset(
            ((0.3, -0.2, 0.5, -0.5), (-0.4, 0.1, 0.2, 0.3), (0.1, 0.1, -0.3, 0.2))
        )
        masks, probs = audit._support_arrays(mech, data)
        per_row = [list(mech.feature_mech.support(r)) for r in data.rows]
        combos = list(itertools.product(*per_row))
        assert masks.shape == (len(combos), 3, 4)
        for mask, prob, combo in zip(masks, probs.tolist(), combos):
            want = 1.0
            for _, p in combo:
                want *= p
            assert prob == want  # the same running product, bit for bit
            assert mask.astype(int).tolist() == [list(m.bits) for m, _ in combo]

    @pytest.mark.parametrize("rows", [((0.1, 0.2), (0.3, 0.4)), ((0.1, 0.2, 0.3),)])
    def test_support_arrays_refuse_a_dataset_of_another_shape(self, rows):
        from amplipriv import audit

        mech = DatasetMechanism(McarBernoulli([0.5] * 3), n=2)
        with pytest.raises(DimensionError, match="dataset shape"):
            audit._support_arrays(mech, CompleteDataset(rows))

    @pytest.mark.parametrize("grid", [[1.0], [0.25, 0.5, 1.0, 0.75, 0.125]])
    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_centre_law_built_once_per_dataset(self, monkeypatch, grid, method):
        from amplipriv import audit

        calls = []
        real = audit._centre_law

        def counting(cm, dataset):
            calls.append(dataset)
            return real(cm, dataset)

        monkeypatch.setattr(audit, "_centre_law", counting)
        B = 0.5
        q = sum_query(2, 4, B)
        cm = ComposedMechanism(
            noise=calibrate_laplace(q, epsilon=1.0, B=B), missing=anchored_mechanism(2)
        )
        pair = neighbor_pair()
        table = verify_amplification(cm, pair, grid, method=method, n_samples=2000)
        assert len(table.rows) == len(grid)
        assert calls == [pair.left, pair.right]

    def test_hoisted_law_matches_per_epsilon_mixtures(self):
        B = 0.5
        q = sum_query(2, 4, B)
        cm = ComposedMechanism(
            noise=calibrate_laplace(q, epsilon=1.0, B=B), missing=anchored_mechanism(2)
        )
        pair = neighbor_pair()
        grid = [0.25, 0.5, 1.0]
        table = verify_amplification(cm, pair, grid, method="exact", tol=1e-7)
        for eps, row in zip(grid, table.rows):
            sub = ComposedMechanism(noise=calibrate_laplace(q, eps, B), missing=cm.missing)
            est = hockey_stick_mixture_1d(
                composed_output_mixture(sub, pair.left),
                composed_output_mixture(sub, pair.right),
                row.epsilon_eval,
                tol=1e-7,
            )
            assert (row.empirical, row.tolerance) == (est.value, est.tolerance)
