"""Query catalog constants, closure combinators, sensitivity bounds, and the
empirical FWL check."""

import itertools
import math

import numpy as np
import pytest

import amplipriv.queries as queries
from amplipriv import (
    CompleteDataset,
    DimensionError,
    LipschitzContractError,
    Mask,
    MaskMatrix,
    apply_mask,
    linear_combination,
    lipschitz_postprocess,
    make_standard_query,
    sensitivity_complete,
    sensitivity_masked,
    verify_fwl,
)


def full_mask(n, d):
    return MaskMatrix(tuple(Mask(tuple([0] * d)) for _ in range(n)))


def brute_force_gap(q, B, n, d, mask_rows=None, grid=(-1.0, 1.0)):
    """Worst output change over corner substitutions of row 0 (independent oracle)."""
    mask = full_mask(n, d) if mask_rows is None else MaskMatrix(mask_rows)
    rest = tuple((0.0,) * d for _ in range(n - 1))
    worst = 0.0
    corners = [tuple(B * g for g in c) for c in itertools.product(grid, repeat=d)]
    for left_row in corners:
        masked_l = apply_mask(CompleteDataset((left_row,) + rest), mask)
        fl = q(masked_l)
        for right_row in corners:
            masked_r = apply_mask(CompleteDataset((right_row,) + rest), mask)
            diff = fl - q(masked_r)
            norm = np.abs(diff).sum() if q.norm_p == 1 else np.sqrt((diff**2).sum())
            worst = max(worst, float(norm))
    return worst


class TestStandardConstants:
    def test_covariance_constants(self):
        q = make_standard_query("covariance", n=10, d=3, B=1.0)
        assert np.allclose(q.constants_L, 2 * 1.0 * 3 / 10)
        assert q.output_dim == 9

    def test_linear_identity_constants(self):
        q = make_standard_query("linear", matrices=[np.eye(3)], n=2, d=3)
        assert np.allclose(q.constants_L, 1.0)
        # canonical-vector oracle: move row 0 along e_j by 2B and measure
        B = 1.0
        rest = ((0.0, 0.0, 0.0),)
        for j in range(3):
            row = [0.0, 0.0, 0.0]
            row[j] = B
            left = CompleteDataset((tuple(row),) + rest).as_incomplete()
            row[j] = -B
            right = CompleteDataset((tuple(row),) + rest).as_incomplete()
            change = np.abs(q(left) - q(right)).sum()
            assert change == pytest.approx(2 * B * q.constants_L[j])

    def test_linear_max_over_rows(self):
        b1 = np.array([[1.0, 0.0]])
        b2 = np.array([[3.0, 0.5]])
        q = make_standard_query("linear", matrices=[b1, b2], n=2, d=2)
        assert q.constants_L.tolist() == [3.0, 0.5]

    def test_bounded_mean_constants(self):
        q = make_standard_query("bounded_mean", n=4, d=2)
        assert q.constants_L.tolist() == [0.25, 0.25]
        # exhaustive two-point-grid oracle: the constant is attained
        assert brute_force_gap(q, 1.0, 4, 2) == pytest.approx(2 * 1.0 * 0.5)

    def test_clipped_mean_clips(self):
        q = make_standard_query("clipped_mean", n=2, d=2, clip=0.5)
        data = CompleteDataset(((10.0, -10.0), (0.25, 0.25))).as_incomplete()
        assert q(data) == pytest.approx([(0.5 + 0.25) / 2, (-0.5 + 0.25) / 2])

    def test_histogram_constants_and_mass(self):
        q = make_standard_query("histogram", n=5, d=2, lo=-1.0, hi=1.0, bins=2)
        assert np.allclose(q.constants_L, 2.0 / (5 * 1.0))
        data = CompleteDataset(((0.5, -0.5),) * 5).as_incomplete()
        out = q(data)
        assert out.shape == (4,)
        # hat memberships sum to 1 per observed value inside the range
        assert out.sum() == pytest.approx(2.0)

    def test_mean_projection_constants(self):
        P = np.array([[1.0, 2.0], [0.0, 1.0]])
        q = make_standard_query("mean_projection", n=4, d=2, projection=P)
        assert q.norm_p == 2
        assert np.allclose(q.constants_L, np.sqrt((P * P).sum(axis=0)) / 4)

    def test_na_cells_contribute_zero_with_fixed_denominator(self):
        q = make_standard_query("bounded_mean", n=2, d=2)
        z = CompleteDataset(((1.0, 1.0), (1.0, 1.0)))
        masked = apply_mask(z, MaskMatrix((Mask((1, 0)), Mask((0, 0)))))
        assert q(masked) == pytest.approx([0.5, 1.0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_standard_query("median")

    def test_bad_params(self):
        with pytest.raises(DimensionError):
            make_standard_query(
                "linear", matrices=[np.eye(2), np.eye(3)], n=2, d=2
            )


class TestCombinators:
    def test_identity_postprocess_keeps_constants(self):
        q = make_standard_query("bounded_mean", n=4, d=2)
        out = lipschitz_postprocess(q, lambda v: v, 1.0)
        assert np.array_equal(out.constants_L, q.constants_L)

    def test_constant_map_zeroes_constants(self):
        q = make_standard_query("bounded_mean", n=4, d=2)
        out = lipschitz_postprocess(q, lambda v: np.zeros_like(v), 0.0)
        assert np.all(out.constants_L == 0.0)

    def test_scaling_doubles_constants(self):
        q = make_standard_query("bounded_mean", n=4, d=2)
        out = lipschitz_postprocess(q, lambda v: 2.0 * v, 2.0)
        assert out.constants_L.tolist() == [0.5, 0.5]

    def test_lipschitz_violation_detected(self):
        q = make_standard_query("bounded_mean", n=4, d=2)
        with pytest.raises(LipschitzContractError):
            lipschitz_postprocess(q, lambda v: 10.0 * v, 1.0)

    def test_linear_combination_single(self):
        q = make_standard_query("bounded_mean", n=4, d=2)
        out = linear_combination([q], [1.0])
        data = CompleteDataset(((1.0, 2.0),) * 4).as_incomplete()
        assert np.array_equal(out(data), q(data))
        assert np.array_equal(out.constants_L, q.constants_L)

    def test_cancellation_keeps_absolute_constants(self):
        q = make_standard_query("bounded_mean", n=4, d=2)
        out = linear_combination([q, q], [1.0, -1.0])
        data = CompleteDataset(((1.0, 2.0),) * 4).as_incomplete()
        assert np.all(out(data) == 0.0)
        assert out.constants_L.tolist() == [0.5, 0.5]

    def test_per_coordinate_sum(self):
        q1 = make_standard_query("linear", matrices=[np.array([[1.0, 0.0]])], n=1, d=2)
        q2 = make_standard_query("linear", matrices=[np.array([[0.0, 1.0]])], n=1, d=2)
        out = linear_combination([q1, q2], [2.0, 3.0])
        assert out.constants_L.tolist() == [2.0, 3.0]

    def test_dimension_mismatch(self):
        q1 = make_standard_query("bounded_mean", n=4, d=2)
        q2 = make_standard_query("bounded_mean", n=4, d=3)
        with pytest.raises(DimensionError):
            linear_combination([q1, q2], [1.0, 1.0])


class TestSensitivity:
    def test_complete_formula(self):
        q = make_standard_query("linear", matrices=[np.eye(4)], n=1, d=4)
        assert sensitivity_complete(q, 0.5) == 4.0
        # brute force on the corner grid attains but never exceeds the bound
        assert brute_force_gap(q, 0.5, 1, 4) <= 4.0 + 1e-12

    def test_zero_cases(self):
        q = make_standard_query("bounded_mean", n=4, d=2)
        zero = lipschitz_postprocess(q, lambda v: np.zeros_like(v), 0.0)
        assert sensitivity_complete(zero, 1.0) == 0.0
        assert sensitivity_complete(q, 0.0) == 0.0

    def test_masked_equal_constants(self):
        q = make_standard_query("linear", matrices=[np.eye(4)], n=1, d=4)
        bounds = sensitivity_masked(q, 0.5, rho=0.5)
        assert bounds.C_tilde_p == 2.0
        assert bounds.ratio == 0.5

    def test_masked_largest_constant_dominates(self):
        q = make_standard_query(
            "linear", matrices=[np.diag([4.0, 1.0, 1.0, 1.0])], n=1, d=4
        )
        bounds = sensitivity_masked(q, 0.5, rho=0.25)
        assert bounds.C_tilde_p == 4.0
        # oracle: every single-observed-feature mask stays within the bound
        for j in range(4):
            bits = [1, 1, 1, 1]
            bits[j] = 0
            gap = brute_force_gap(q, 0.5, 1, 4, mask_rows=(Mask(tuple(bits)),))
            assert gap <= bounds.C_tilde_p + 1e-12

    def test_masked_equals_complete_at_rho_one(self):
        q = make_standard_query("covariance", n=6, d=3, B=1.0)
        bounds = sensitivity_masked(q, 1.0, rho=1.0)
        assert bounds.C_tilde_p == bounds.C_p

    def test_monotone_in_rho(self):
        q = make_standard_query(
            "linear", matrices=[np.diag([3.0, 2.0, 1.0, 0.5])], n=1, d=4
        )
        values = [sensitivity_masked(q, 1.0, rho).C_tilde_p for rho in
                  (0.25, 0.5, 0.75, 1.0)]
        assert values == sorted(values)

    def test_floor_zero_gives_zero(self):
        q = make_standard_query("bounded_mean", n=2, d=3)
        assert sensitivity_masked(q, 1.0, rho=0.2).C_tilde_p == 0.0

    def test_rho_zero_gives_zero(self):
        # a mechanism that observes no feature has tight rho 0
        q = make_standard_query("bounded_mean", n=2, d=3)
        assert sensitivity_masked(q, 1.0, rho=0.0).C_tilde_p == 0.0
        for rho in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="rho: must lie in"):
                sensitivity_masked(q, 1.0, rho=rho)


class TestVerifyFwl:
    CATALOG = [
        lambda: make_standard_query("bounded_mean", n=3, d=4),
        lambda: make_standard_query("clipped_mean", n=3, d=4, clip=0.7),
        lambda: make_standard_query("covariance", n=3, d=3, B=1.0),
        lambda: make_standard_query(
            "linear", matrices=[np.arange(8.0).reshape(2, 4)], n=3, d=4
        ),
        lambda: make_standard_query("histogram", n=3, d=2, lo=-1, hi=1, bins=3),
    ]

    @pytest.mark.parametrize("build", CATALOG)
    def test_catalog_queries_pass(self, build):
        q = build()
        report = verify_fwl(q, trials=400, B=1.0, seed=3)
        assert report.max_violation <= 1e-12

    def test_ten_thousand_trials_clean(self):
        q = make_standard_query("bounded_mean", n=3, d=4)
        report = verify_fwl(q, trials=10_000, B=1.0, seed=14)
        assert report.max_violation <= 1e-12
        assert report.trials == 10_000

    def test_halved_constants_violate(self):
        q = make_standard_query("bounded_mean", n=3, d=4)
        cheat = type(q)(
            batch=q.batch,
            constants_L=q.constants_L / 2.0,
            norm_p=q.norm_p,
            output_dim=q.output_dim,
            n=q.n,
            d=q.d,
        )
        report = verify_fwl(cheat, trials=50, B=1.0, seed=3)
        assert report.max_violation > 0.0
        assert report.worst_case is not None

    def test_constant_query_never_violates(self):
        q = make_standard_query("bounded_mean", n=3, d=4)
        const = lipschitz_postprocess(q, lambda v: np.zeros_like(v), 0.0)
        report = verify_fwl(const, trials=100, B=1.0, seed=0)
        assert report.max_violation <= 0.0

    def test_l1_query_valid_under_l2(self):
        q = make_standard_query("covariance", n=3, d=3, B=1.0)
        as_l2 = type(q)(
            batch=q.batch,
            constants_L=q.constants_L,
            norm_p=2,
            output_dim=q.output_dim,
            n=q.n,
            d=q.d,
        )
        report = verify_fwl(as_l2, trials=300, B=1.0, seed=8)
        assert report.max_violation <= 1e-12

    def test_closure_soundness_depth_three(self):
        base = make_standard_query("bounded_mean", n=3, d=4)
        level1 = lipschitz_postprocess(base, lambda v: 0.5 * v, 0.5)
        level2 = linear_combination([level1, base], [2.0, -1.0])
        level3 = lipschitz_postprocess(level2, lambda v: v.sum(axis=-1, keepdims=True), 1.0)
        for q in (level1, level2, level3):
            report = verify_fwl(q, trials=300, B=1.0, seed=5)
            assert report.max_violation <= 1e-12


def _random_masked_stack(rng, n, d, masks=40):
    """A complete dataset, a random (M, n, d) mask stack and the masked values."""
    data = CompleteDataset(tuple(map(tuple, rng.uniform(-1.0, 1.0, (n, d)))))
    na = rng.random((masks, n, d)) < 0.4
    return data, na, np.where(na, 0.0, data.to_array())


def _masked(data, na):
    """``data`` under each mask matrix of the stack ``na``, one dataset at a time."""
    return [apply_mask(data, MaskMatrix(tuple(Mask(tuple(int(b) for b in r)) for r in m)))
            for m in na]


def _per_mask(q, data, na):
    return np.array([q(ds) for ds in _masked(data, na)])


def _catalog_cases():
    rng = np.random.default_rng(3)
    for n, d in ((1, 1), (3, 4), (9, 1), (9, 3)):
        k = 2
        yield make_standard_query("bounded_mean", n=n, d=d)
        yield make_standard_query("clipped_mean", n=n, d=d, clip=0.6)
        yield make_standard_query("covariance", n=n, d=d, B=1.0)
        yield make_standard_query("mean_projection", n=n, d=d, projection=rng.normal(size=(k, d)))
        yield make_standard_query("linear", n=n, d=d, matrices=[rng.normal(size=(k, d))])
        yield make_standard_query(
            "linear", n=n, d=d, matrices=[rng.normal(size=(k, d)) for _ in range(n)]
        )
        for bins in (1, 3):
            yield make_standard_query("histogram", n=n, d=d, lo=-1.0, hi=1.0, bins=bins)
        yield make_standard_query("histogram", n=n, d=d, lo=-0.5, hi=1.0, bins=2, features=[0])


def _named_map_cases():
    from amplipriv.cli import Scenario

    for kind, params in (
        ("clipped_mean", {"n": 3, "d": 4, "clip": 0.6}),
        ("mean_projection", {"n": 9, "d": 3, "projection": [[0.3, -0.8, 0.5], [1.0, 0.2, -0.4]]}),
    ):
        for post in (
            [{"map": "identity"}],
            [{"map": "scale", "factor": -0.7}],
            [{"map": "project", "indices": [1, 0]}],
            [{"map": "clamp", "lo": -0.1, "hi": 0.2}],
            [{"map": "sum"}],
            [{"map": "clamp", "lo": -0.1, "hi": 0.2}, {"map": "scale", "factor": 3.0}, {"map": "sum"}],
        ):
            raw = {"seed": 0, "bound_B": 1.0,
                   "query": {"kind": kind, "params": params, "post": post}}
            yield Scenario(raw, base_dir=None).query()


class TestNamedMaps:
    """Each named map carries its proven constant; nothing runs at build time."""

    BASES = {  # an l1 query with 4 outputs and an l2 query with 3
        1: make_standard_query("clipped_mean", n=3, d=4, clip=0.6),
        2: make_standard_query("mean_projection", n=9, d=3, projection=[
            [0.3, -0.8, 0.5], [1.0, 0.2, -0.4], [0.1, 0.1, 0.1]]),
    }

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("name, params, Lambda", [
        ("identity", {}, lambda p, k: 1.0),
        ("scale", {"factor": -2.5}, lambda p, k: 2.5),
        ("project", {"indices": [1, 0]}, lambda p, k: 1.0),
        ("clamp", {"lo": -0.1, "hi": 0.2}, lambda p, k: 1.0),
        ("sum", {}, lambda p, k: 1.0 if p == 1 else math.sqrt(k)),
    ])
    def test_constants_are_the_proven_ones(self, p, name, params, Lambda):
        q = self.BASES[p]
        out = queries.named_postprocess(q, name, **params)
        want = Lambda(p, q.output_dim) * q.constants_L
        assert out.constants_L.tobytes() == want.tobytes()
        assert out.norm_p == q.norm_p
        report = verify_fwl(out, trials=200, B=1.0, seed=4)
        assert report.max_violation <= 1e-12

    def test_repeated_project_index_refused(self):
        # [0, 0] copies a coordinate: under l1 it moves outputs twice as far as 1 allows
        with pytest.raises(ValueError, match="indices: must be distinct"):
            queries.named_postprocess(self.BASES[1], "project", indices=[0, 0])

    def test_nan_factor_refused(self):
        with pytest.raises(ValueError, match="Lipschitz constants must be nonnegative"):
            queries.named_postprocess(self.BASES[1], "scale", factor=float("nan"))

    def test_scenario_query_builds_them_without_a_spot_check(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a named map was spot-checked")

        monkeypatch.setattr(queries, "lipschitz_postprocess", refuse)
        built = list(_named_map_cases())
        assert len(built) == 12
        assert {q.descriptor["kind"] for q in built} == {"postprocess"}


class TestBatchEvaluation:
    """``evaluate_batch`` row m is the query on masked dataset m, bit for bit."""

    @pytest.mark.parametrize("q", list(_catalog_cases()), ids=lambda q: q.descriptor["kind"])
    def test_catalog_kinds(self, q):
        data, na, values = _random_masked_stack(np.random.default_rng(q.n * 10 + q.d), q.n, q.d)
        got = q.evaluate_batch(values, na)
        want = _per_mask(q, data, na)
        assert got.shape == want.shape == (len(na), q.output_dim)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("q", list(_named_map_cases()), ids=lambda q: q.descriptor["inner"]["kind"])
    def test_named_post_maps(self, q):
        data, na, values = _random_masked_stack(np.random.default_rng(11), q.n, q.d)
        assert q.evaluate_batch(values, na).tobytes() == _per_mask(q, data, na).tobytes()

    def test_linear_combination(self):
        a = make_standard_query("clipped_mean", n=3, d=2, clip=0.4)
        b = make_standard_query("bounded_mean", n=3, d=2)
        q = linear_combination([a, b], [0.3, -1.7])
        data, na, values = _random_masked_stack(np.random.default_rng(5), 3, 2)
        assert q.evaluate_batch(values, na).tobytes() == _per_mask(q, data, na).tobytes()

    @pytest.mark.parametrize("mapping", [
        lambda v: np.array([v.sum()]),  # sums the whole stack, not each row
        lambda v: np.zeros(3),  # one vector whatever the input
        lambda v: v.sum(axis=-1),  # one number per row, not a row
        lambda v: v[0] + 0.0 * v,  # every row sent to the first row's image
    ])
    def test_map_not_acting_on_rows_refused(self, mapping):
        base = make_standard_query("clipped_mean", n=2, d=3, clip=0.5)
        with pytest.raises(ValueError, match=r"^mapping: must map each row of an \(M, 3\) stack"):
            lipschitz_postprocess(base, mapping, 1.0)

    def test_map_raising_on_a_stack_is_not_hidden(self):
        def one_vector(v):
            if np.ndim(v) != 1:
                raise TypeError("one vector only")
            return v

        with pytest.raises(TypeError, match="one vector only"):
            lipschitz_postprocess(make_standard_query("bounded_mean", n=2, d=3), one_vector, 1.0)

    def test_map_acting_on_rows_runs_once(self):
        base = make_standard_query("clipped_mean", n=2, d=3, clip=0.5)
        shapes = []

        def double(v):
            shapes.append(np.shape(v))
            return 2.0 * v

        q = lipschitz_postprocess(base, double, 2.0)
        data, na, values = _random_masked_stack(np.random.default_rng(8), 2, 3)
        want = np.array([2.0 * base(ds) for ds in _masked(data, na)])
        shapes.clear()
        assert q.evaluate_batch(values, na).tobytes() == want.tobytes()
        assert shapes == [(len(na), 3)]

    def test_shape_mismatch_rejected(self):
        q = make_standard_query("bounded_mean", n=2, d=3)
        with pytest.raises(DimensionError):
            q.evaluate_batch(np.zeros((4, 3, 2)), np.zeros((4, 3, 2), dtype=bool))
