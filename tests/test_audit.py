"""Audit engine: hidden-mask coincidence, theorem verification, tightness instance."""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amplipriv import audit, divergence, missingness
from amplipriv import (
    CappedBernoulli,
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
from amplipriv.errors import UnsupportedMechanismError
from amplipriv.missingness import MechanismClass
from amplipriv.noise import PrivacyBudget
from amplipriv.queries import QUERY_KINDS
from oracles import dict_centre_law, enumerated_centre_law, product_support


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
    """The product mask support of ``dataset`` split by whether row ``i_star``
    is all missing: (hidden masks, their probabilities, the other
    probabilities)."""
    masks, probs = product_support(mech, dataset)
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
        masks, probs = product_support(mech, neighbor_pair().left)
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
                    out.append((m, p + shift if m.observed_count == 0 else p - shift))
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

    @pytest.mark.parametrize("family, method", [("laplace", "interval"),
                                                 ("gaussian", "monte_carlo")])
    def test_monte_carlo_route(self, monkeypatch, family, method):
        # claimed at eps = 0.05, where delta > 0 and the quadrature gives it:
        # a Laplace row takes the box interval and draws nothing, a Gaussian
        # row takes the draw
        B = 0.5
        q = sum_query(2, 4, B)
        noise = (calibrate_laplace(q, 1.0, B) if family == "laplace"
                 else calibrate_gaussian(q, 1.0, 1e-5, B))
        cm = ComposedMechanism(noise=noise, missing=anchored_mechanism(2))
        pair = neighbor_pair()
        exact = hockey_stick_mixture_1d(
            *(composed_output_mixture(cm, ds) for ds in (pair.left, pair.right)), 0.05)
        if method == "interval":
            monkeypatch.setattr(VectorMixture, "sample", None)
        table = verify_amplification(cm, pair, [1.0], method="mc", n_samples=50_000, seed=2,
                                     claim={"epsilon": 0.05, "delta": exact.value})
        row = table.rows[0]
        assert row.method == method and table.passed
        assert exact.value > 0.0 and row.ci[0] <= exact.value <= row.ci[1]

    def test_a_certified_monte_carlo_row_draws_nothing(self, monkeypatch):
        # at eps' = 0.5 the centre lattice certifies delta = 0: the row is the
        # sampled one without a stream or a sample
        B = 0.5
        q = sum_query(2, 4, B)
        cm = ComposedMechanism(
            noise=calibrate_laplace(q, epsilon=1.0, B=B),
            missing=anchored_mechanism(2),
        )

        def rows():
            return verify_amplification(
                cm, neighbor_pair(), [1.0], method="mc", n_samples=50_000, seed=2
            ).rows

        with monkeypatch.context() as mp:
            mp.setattr(divergence, "_lattice_sup", lambda *args: None)
            sampled = rows()

        def refuse(*args, **kwargs):
            raise AssertionError("a certified row drew a sample")

        monkeypatch.setattr(VectorMixture, "sample", refuse)
        for module in (missingness, divergence):
            monkeypatch.setattr(module, "substream", refuse)
        assert repr(rows()) == repr(sampled)
        assert sampled[0].empirical == 0.0

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

    def test_masking_changes_data_but_not_output(self, monkeypatch):
        # the mechanism masks different features for the two datasets, yet the
        # query reads only the always-observed coordinate: each composed law,
        # the first pair the instance measures, has one component
        pairs = []
        real = audit.hockey_stick_mixture_1d

        def spy(P, Q, *args, **kwargs):
            pairs.append((P, Q))
            return real(P, Q, *args, **kwargs)

        monkeypatch.setattr(audit, "hockey_stick_mixture_1d", spy)
        tightness_counterexample(0.5, 1e-3)
        assert [len(mix.components) for mix in pairs[0]] == [1, 1]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            tightness_counterexample(1.5, 1e-3)
        with pytest.raises(ValueError):
            tightness_counterexample(0.5, 0.0)


class TestArrayEnumeration:
    def test_dataset_support_matches_row_by_row_product(self):
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
        support = list(audit._dataset_support(mech, data))
        masks, probs = product_support(mech, data)
        per_row = [list(mech.feature_mech.support(r)) for r in data.rows]
        combos = list(itertools.product(*per_row))
        assert len(support) == masks.shape[0] == len(combos) and masks.shape[1:] == (3, 4)
        for (matrix, prob), mask, want_prob, combo in zip(support, masks, probs.tolist(), combos):
            want = 1.0
            for _, p in combo:
                want *= p
            assert prob == want_prob == want  # the same running product, bit for bit
            assert [list(r.bits) for r in matrix.rows] == [list(m.bits) for m, _ in combo]
            assert mask.astype(int).tolist() == [list(m.bits) for m, _ in combo]

    @pytest.mark.parametrize("rows", [((0.1, 0.2), (0.3, 0.4)), ((0.1, 0.2, 0.3),)])
    def test_row_supports_refuse_a_dataset_of_another_shape(self, rows):
        from amplipriv import audit

        mech = DatasetMechanism(McarBernoulli([0.5] * 3), n=2)
        with pytest.raises(DimensionError, match="dataset shape"):
            audit._row_supports(mech, [CompleteDataset(rows)])

    @pytest.mark.parametrize("grid", [[1.0], [0.25, 0.5, 1.0, 0.75, 0.125]])
    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_centre_law_built_once_per_dataset(self, monkeypatch, grid, method):
        # each dataset's centre law is built once, one row law per row,
        # whatever the grid
        from amplipriv import audit

        calls = []
        real = audit._row_law

        def counting(query, data, i, support):
            calls.append((data.tolist(), i))
            return real(query, data, i, support)

        monkeypatch.setattr(audit, "_row_law", counting)
        B = 0.5
        q = sum_query(2, 4, B)
        cm = ComposedMechanism(
            noise=calibrate_laplace(q, epsilon=1.0, B=B), missing=anchored_mechanism(2)
        )
        pair = neighbor_pair()
        table = verify_amplification(cm, pair, grid, method=method, n_samples=2000)
        assert len(table.rows) == len(grid)
        assert calls == [(ds.to_array().tolist(), i) for ds in (pair.left, pair.right)
                         for i in range(2)]

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


def _bits(law):
    """Each (centre, weight) as float.hex, which shows the sign of a zero."""
    return [(tuple(map(float.hex, c)), float.hex(w)) for c, w in law]


_POOL = [-0.0, 0.0, 0.25, -0.25, 0.1, 0.1 + 1e-17, 1.0 / 3.0, -2.5, 7.0]


class TestCentreLawMerge:
    """The array merge of equal centres gives the dict merge's bits."""

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.sampled_from([1, 3]),
        rows=st.lists(st.tuples(st.integers(0, len(_POOL) - 1), st.integers(0, len(_POOL) - 1),
                                st.integers(0, len(_POOL) - 1),
                                st.sampled_from([0.0, 0.5, 0.1, 1e-300, 0.3, 1.0 / 7.0])),
                      min_size=1, max_size=60),
    )
    @example(k=1, rows=[(0, 0, 0, 0.5), (1, 0, 0, 0.25), (2, 0, 0, 0.25)])  # -0.0 first
    @example(k=1, rows=[(1, 0, 0, 0.5), (0, 0, 0, 0.25), (2, 0, 0, 0.25)])  # 0.0 first
    @example(k=3, rows=[(0, 1, 2, 0.0), (1, 0, 2, 0.1), (2, 2, 2, 0.0)])
    def test_matches_the_dict_merge(self, k, rows):
        centres = np.array([[_POOL[i] for i in r[:k]] for r in rows])
        probs = np.array([r[3] for r in rows])
        got_weights, got_centres = audit._merge(centres, probs)
        got = list(zip(map(tuple, got_centres.tolist()), got_weights.tolist()))
        assert _bits(got) == _bits(dict_centre_law(centres, probs))


class TestEnumerationCount:
    """How often the audit reads a feature mechanism's support."""

    @staticmethod
    def count_support(monkeypatch, cls):
        rows = []
        real = cls.support

        def counting(self, sample):
            rows.append(tuple(sample))
            return real(self, sample)

        monkeypatch.setattr(cls, "support", counting)
        return rows

    @staticmethod
    def run_audit(missing):
        q = sum_query(2, 4, 0.5)
        cm = ComposedMechanism(noise=calibrate_laplace(q, epsilon=1.0, B=0.5), missing=missing)
        return verify_amplification(cm, neighbor_pair(), [0.5, 1.0], method="exact")

    def test_mcar_support_read_once(self, monkeypatch):
        rows = self.count_support(monkeypatch, McarBernoulli)
        self.run_audit(DatasetMechanism(McarBernoulli([0.5, 0.2, 0.0, 1.0]), n=2))
        assert len(rows) == 1

    def test_mar_support_read_per_row_and_dataset(self, monkeypatch):
        rows = self.count_support(monkeypatch, MarAnchoredPattern)
        missing = anchored_mechanism(2)
        assert missing.feature_mech.mechanism_class is MechanismClass.MAR
        self.run_audit(missing)
        pair = neighbor_pair()
        assert rows == list(pair.left.rows + pair.right.rows)

    def test_anchored_spec_labelled_mcar_is_shared(self, monkeypatch):
        rows = self.count_support(monkeypatch, MarAnchoredPattern)
        fm = MarAnchoredPattern(
            anchor=(0,), q_all=0.1, candidates=[(0, 1, 1, 1), (0, 0, 1, 1)],
            thresholds=[[0.0]], score_table={"1": [0.3, 0.7], "0": [0.3, 0.7]},
        )
        assert fm.mechanism_class is MechanismClass.MCAR
        shared = self.run_audit(DatasetMechanism(fm, n=2))
        assert len(rows) == 1
        # the shared support gives the rows the per-row one does
        monkeypatch.setattr(fm, "mechanism_class", MechanismClass.MAR)
        assert self.run_audit(DatasetMechanism(fm, n=2)).rows == shared.rows
        assert len(rows) == 1 + 4


class TestSupportSizeRefusal:
    def test_oversized_bernoulli_row_refused_at_the_shipped_limit(self):
        mech = DatasetMechanism(McarBernoulli([0.5] * 24), n=1)
        start = time.perf_counter()
        with pytest.raises(UnsupportedMechanismError,
                           match=f"mask support has more than {audit._SUPPORT_LIMIT} elements"):
            audit._row_supports(mech, [CompleteDataset(((0.0,) * 24,))])
        assert time.perf_counter() - start < 0.05


# entries and parameters: multiples of 1/8 (dyadic, so every sum below is
# exact) or values whose sums round (0.1 + 0.2 != 0.3)
_DYADIC = [-0.5, -0.375, -0.125, 0.0, 0.25, 0.5]
_ROUNDING = [-0.5, -0.3, -0.1, 0.0, 0.2, 0.1 + 0.2, 1.0 / 3.0, 0.5]
_POSTS = [
    [],
    [("clamp", {"lo": -0.125, "hi": 0.25}), ("sum", {})],
    [("sum", {}), ("clamp", {"lo": -0.25, "hi": 0.125})],
    [("scale", {"factor": -0.75}), ("clamp", {"lo": -0.25, "hi": 0.25}), ("sum", {}),
     ("scale", {"factor": 0.5})],
]


@st.composite
def _convolution_cases(draw):
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dyadic = draw(st.booleans())
    pool = _DYADIC if dyadic else _ROUNDING
    entry = st.sampled_from(pool)
    rows = tuple(tuple(draw(entry) for _ in range(d)) for _ in range(n))
    matrix = lambda k: np.array([[draw(entry) for _ in range(d)] for _ in range(k)])  # noqa: E731
    kind = draw(st.sampled_from(QUERY_KINDS))
    params = {
        "linear": lambda: {"matrices": [matrix(2) for _ in range(draw(st.sampled_from([1, n])))]},
        "bounded_mean": dict,
        "clipped_mean": lambda: {"clip": 0.375 if dyadic else 0.3},
        "covariance": lambda: {"B": 0.5},
        "mean_projection": lambda: {"projection": matrix(2)},
        "histogram": lambda: {"lo": -0.5, "hi": 0.5, "bins": draw(st.sampled_from([1, 2, 4]))},
    }[kind]()
    query = make_standard_query(kind, n=n, d=d, **params)
    for name, args in draw(st.sampled_from(_POSTS)):
        query = named_postprocess(query, name, **args)

    prob = st.sampled_from([0.0, 0.25, 0.5, 1.0] if dyadic else [0.0, 0.1, 0.3, 0.5, 1.0])
    family = draw(st.sampled_from(["bernoulli", "capped", "pattern", "mar"]))
    if family in ("bernoulli", "capped"):
        pi = [draw(prob) for _ in range(d)]
        fm = McarBernoulli(pi) if family == "bernoulli" else CappedBernoulli(
            [min(max(p, 0.25), 0.75) for p in pi], rho_cap=draw(st.sampled_from([0.5, 1.0])))
    else:
        bits = st.tuples(*[st.integers(0, 1)] * d)
        cands = list(dict.fromkeys(draw(st.lists(bits, min_size=1, max_size=3))))
        split = [0.5, 0.25, 0.25] if dyadic else [0.3, 0.6, 0.1]
        weights = split[:len(cands) - 1] + [1.0 - sum(split[:len(cands) - 1])]
        if family == "pattern":
            fm = McarPattern(list(zip(cands, weights)))
        else:  # anchored on feature 0, which every candidate observes
            cands = list(dict.fromkeys((0, *c[1:]) for c in cands))
            low = [1.0] + [0.0] * (len(cands) - 1)
            fm = MarAnchoredPattern(anchor=(0,), q_all=draw(prob) * 0.5, candidates=cands,
                                    thresholds=[[0.0]],
                                    score_table={"0": low, "1": low[::-1]})
    return query, DatasetMechanism(fm, n=n), CompleteDataset(rows), dyadic


class TestRowConvolution:
    """The centre law convolved row by row is the law of the query on every
    mask matrix, merged: bit for bit (up to the sign of a zero) when every
    sum is exact, and within 32 ulp of the largest centre otherwise."""

    @settings(max_examples=200, deadline=None)
    @given(case=_convolution_cases())
    def test_matches_the_enumerated_law(self, case):
        query, mech, dataset, dyadic = case
        weights, centres = audit._centre_law(query, dataset,
                                             audit._row_supports(mech, [dataset])[0])
        want = enumerated_centre_law(query, mech, dataset)
        want_centres = np.array([c for c, _ in want])
        want_weights = np.array([w for _, w in want])
        assert math.fsum(weights.tolist()) == pytest.approx(1.0, abs=1e-12)
        probs = product_support(mech, dataset)[1]
        if dyadic and mech.n in (1, 2) and all((p * 1024).is_integer() for p in probs.tolist()):
            assert centres.shape == want_centres.shape
            assert (centres == want_centres).all()
            assert weights.tobytes() == want_weights.tobytes()
            return
        # pooled: every centre of either law carries the same weight within
        # the tolerance in both
        tol = 32 * np.finfo(float).eps * max(1.0, np.abs(want_centres).max())
        for c in np.vstack((centres, want_centres)):
            got = weights[(np.abs(centres - c) <= tol).all(axis=1)].sum()
            ref = want_weights[(np.abs(want_centres - c) <= tol).all(axis=1)].sum()
            assert got == pytest.approx(ref, abs=1e-12)
