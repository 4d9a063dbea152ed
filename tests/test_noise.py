"""Calibration, noise sampling, composition, densities, release records."""

import json
import math

import numpy as np
import pytest

from amplipriv import (
    BudgetRangeError,
    ComposedMechanism,
    CompleteDataset,
    DatasetMechanism,
    DegenerateQueryError,
    McarBernoulli,
    McarPattern,
    VectorMixture,
    calibrate_gaussian,
    calibrate_laplace,
    make_standard_query,
    named_postprocess,
    release_record,
    run_composed,
    run_mechanism,
)
from amplipriv.cli import emit_report
from amplipriv.noise import FAMILIES, NoiseMechanism, calibrate
from oracles import ORACLE_DRAWS

# frozen from a 40-digit evaluation of (1 + 1e-6) * sqrt(2 * ln(1.25 / 1e-5))
SIGMA_C2_1_EPS_1_DELTA_1E5 = 4.844810107410652


def unit_query():
    return make_standard_query("bounded_mean", n=2, d=1)  # C_1 = 2B * 1/2 = B


def log_output_density(mech, data, point):
    """The mechanism's output log-density at ``point`` on one dataset: the
    one-component mixture at the query's value."""
    mix = VectorMixture([1.0], [mech.query(data)], mech.family, mech.scale)
    return float(mix.log_density(np.array([point], dtype=float))[0])


class TestCalibrateDispatch:
    def test_each_family_calibrates_as_its_own_function(self):
        q = unit_query()
        assert calibrate(q, "laplace", 0.5, 0.0, 1.0) == calibrate_laplace(q, 0.5, 1.0)
        assert calibrate(q, "gaussian", 0.5, 1e-5, 1.0) == calibrate_gaussian(q, 0.5, 1e-5, 1.0)

    @pytest.mark.parametrize("family, epsilon, delta, param", [
        ("laplace", 0.0, 0.0, "epsilon"),
        ("gaussian", 1.5, 1e-5, "epsilon"),
        ("gaussian", 0.5, 0.0, "delta"),
        ("cauchy", 0.5, 0.0, "family"),
    ])
    def test_out_of_range_argument_is_named(self, family, epsilon, delta, param):
        with pytest.raises(ValueError, match=f"^{param}: "):
            calibrate(unit_query(), family, epsilon, delta, 1.0)


class TestCalibrateLaplace:
    def test_scale_is_c_over_epsilon(self):
        q = make_standard_query("linear", matrices=[np.eye(4)], n=1, d=4)
        assert calibrate_laplace(q, epsilon=1.0, B=0.5).scale == 4.0
        assert calibrate_laplace(q, epsilon=2.0, B=0.5).scale == 2.0

    def test_invalid_epsilon(self):
        with pytest.raises(BudgetRangeError):
            calibrate_laplace(unit_query(), epsilon=0.0, B=1.0)

    def test_degenerate_query_refused(self):
        q = unit_query()
        zero = named_postprocess(q, "scale", factor=0.0)
        with pytest.raises(DegenerateQueryError):
            calibrate_laplace(zero, epsilon=1.0, B=1.0)

    def test_nan_bound_refused(self):
        # NaN < 0 is False: the bound once gave scale nan and a release of nan
        with pytest.raises(ValueError, match="^B: must be finite and nonnegative"):
            calibrate_laplace(unit_query(), 1.0, float("nan"))

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0])
    def test_mechanism_scale_must_be_finite_and_positive(self, scale):
        good = calibrate_laplace(unit_query(), epsilon=1.0, B=1.0)
        with pytest.raises(ValueError, match="^scale: must be finite and positive"):
            NoiseMechanism(query=good.query, family=good.family, scale=scale,
                           budget=good.budget, C_used=good.C_used, bound_B=good.bound_B)


class TestCalibrateGaussian:
    def test_scale_value(self):
        q = make_standard_query("linear", matrices=[np.array([[1.0]])], n=1, d=1)
        mech = calibrate_gaussian(q, epsilon=1.0, delta=1e-5, B=0.5)  # C_2 = 1
        assert mech.scale == pytest.approx(SIGMA_C2_1_EPS_1_DELTA_1E5, abs=1e-12)
        assert mech.scale > math.sqrt(2 * math.log(1.25 / 1e-5))  # strict margin

    def test_scale_linear_in_c2(self):
        q = make_standard_query("linear", matrices=[np.array([[1.0]])], n=1, d=1)
        s1 = calibrate_gaussian(q, 1.0, 1e-5, B=0.5).scale
        s2 = calibrate_gaussian(q, 1.0, 1e-5, B=1.0).scale  # doubles C_2
        assert s2 == pytest.approx(2 * s1)

    def test_epsilon_range(self):
        with pytest.raises(BudgetRangeError):
            calibrate_gaussian(unit_query(), epsilon=1.5, delta=1e-5, B=1.0)
        with pytest.raises(BudgetRangeError):
            calibrate_gaussian(unit_query(), epsilon=1.0, delta=0.0, B=1.0)


class TestRunMechanism:
    def test_vanishing_noise_recovers_query(self):
        q = unit_query()
        mech = calibrate_laplace(q, epsilon=1.0, B=1.0)
        tiny = type(mech)(
            query=q, family=mech.family, scale=1e-12, budget=mech.budget,
            C_used=mech.C_used, bound_B=1.0,
        )
        data = CompleteDataset(((0.6,), (0.2,))).as_incomplete()
        out = run_mechanism(tiny, data, seed=1)
        assert abs(out[0] - 0.4) < 1e-9

    def test_deterministic_given_seed(self):
        mech = calibrate_laplace(unit_query(), epsilon=1.0, B=1.0)
        data = CompleteDataset(((0.6,), (0.2,))).as_incomplete()
        a = run_mechanism(mech, data, seed=7)
        b = run_mechanism(mech, data, seed=7)
        assert np.array_equal(a, b)
        c = run_mechanism(mech, data, seed=8)
        assert not np.array_equal(a, c)

    # released values pinned bit for bit: (family, k, seed) -> repr of each output
    GOLDEN = {
        ("laplace", 1, 0): ["2.4630466104226505"],
        ("laplace", 1, 2024): ["-1.4938457883286582"],
        ("gaussian", 1, 0): ["-1.1313947416003676"],
        ("gaussian", 1, 2024): ["-10.194755729103457"],
        ("laplace", 3, 0): ["6.8891398312679515", "-1.0825065240403617", "1.3187421409938158"],
        ("laplace", 3, 2024): ["-4.981537364985975", "-0.28512506814767286", "-1.349011761158713"],
        ("gaussian", 3, 0): ["-2.253885567634312", "-12.6422649195736", "-4.057104688068903"],
        ("gaussian", 3, 2024): ["-10.790639422095921", "13.932234635843647", "30.253594004810772"],
    }

    @pytest.mark.parametrize("family, k, seed", sorted(GOLDEN))
    def test_released_noise_is_pinned(self, family, k, seed):
        q = make_standard_query("linear", matrices=[np.eye(k)], n=1, d=k)
        data = CompleteDataset((tuple([0.25, -0.5, 0.125][:k]),)).as_incomplete()
        if family == "laplace":
            mech = calibrate_laplace(q, 1.0, 0.5)
        else:
            mech = calibrate_gaussian(q, 1.0, 1e-5, 0.5)
        out = run_mechanism(mech, data, seed)
        assert [repr(float(v)) for v in out] == self.GOLDEN[(family, k, seed)]

    @pytest.mark.parametrize("family", ["laplace", "gaussian"])
    def test_component_variance(self, family):
        # one release with 1e5 i.i.d. components
        k = 100_000
        mats = [np.ones((k, 1))]
        q = make_standard_query("linear", matrices=mats, n=1, d=1)
        if family == "laplace":
            mech = calibrate_laplace(q, epsilon=float(2 * k), B=1.0)
            target = 2.0 * mech.scale**2
        else:
            mech = calibrate_gaussian(q, epsilon=1.0, delta=1e-5, B=1.0)
            target = mech.scale**2
        data = CompleteDataset(((0.0,),)).as_incomplete()
        out = run_mechanism(mech, data, seed=123)
        assert abs(out.var() / target - 1.0) < 0.02


class TestUnitDraws:
    @pytest.mark.parametrize("family", ["laplace", "gaussian"])
    @pytest.mark.parametrize("shape", [(1,), (3,), (7,), (1001, 3), (50_000, 3)])
    def test_in_place_draw_matches_the_oracle(self, family, shape):
        # same values bit for bit, and the stream left at the same position
        ours, theirs = np.random.default_rng(2024), np.random.default_rng(2024)
        got, want = FAMILIES[family].draw(ours, shape), ORACLE_DRAWS[family](theirs, shape)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("family", ["laplace", "gaussian"])
    def test_draw_is_a_fresh_writable_array(self, family):
        rng = np.random.default_rng(5)
        a, b = (FAMILIES[family].draw(rng, (7,)) for _ in range(2))
        assert a.flags.writeable and not np.shares_memory(a, b)


class TestRunComposed:
    def test_all_zero_point_mass_equals_base(self):
        mech = calibrate_laplace(unit_query(), epsilon=1.0, B=1.0)
        missing = DatasetMechanism(McarPattern([((0,), 1.0)]), n=2)
        cm = ComposedMechanism(noise=mech, missing=missing)
        z = CompleteDataset(((0.3,), (0.5,)))
        run = run_composed(cm, z, seed=42)
        assert np.array_equal(run.output, run_mechanism(mech, z.as_incomplete(), 42))
        assert run.mask_used.bits_tuple() == ((0,), (0,))

    def test_all_one_point_mass_is_data_independent(self):
        mech = calibrate_laplace(unit_query(), epsilon=1.0, B=1.0)
        missing = DatasetMechanism(McarBernoulli((1.0,)), n=2)
        cm = ComposedMechanism(noise=mech, missing=missing)
        za = CompleteDataset(((0.9,), (0.1,)))
        zb = CompleteDataset(((-0.7,), (0.4,)))
        ra = run_composed(cm, za, seed=5)
        rb = run_composed(cm, zb, seed=5)
        assert np.array_equal(ra.output, rb.output)

    def test_two_pattern_mixture_matches_component_frequencies(self):
        # the drawn mask selects between two centers; frequencies follow the law
        mech = calibrate_laplace(unit_query(), epsilon=10.0, B=1.0)
        missing = DatasetMechanism(
            McarPattern([((0,), 0.75), ((1,), 0.25)]), n=2
        )
        cm = ComposedMechanism(noise=mech, missing=missing)
        z = CompleteDataset(((1.0,), (1.0,)))
        hidden = 0
        draws = 4000
        for s in range(draws):
            run = run_composed(cm, z, seed=s)
            hidden += all(b == (1,) for b in run.mask_used.bits_tuple())
        # both rows fully masked has probability 1/16
        assert abs(hidden / draws - 1 / 16) < 0.02

    def test_empirical_density_matches_mixture(self):
        # n=1 so the output law is an explicit 2-component Laplace mixture
        q = make_standard_query("bounded_mean", n=1, d=1)
        mech = calibrate_laplace(q, epsilon=2.0, B=1.0)  # b = 1
        missing = DatasetMechanism(McarPattern([((0,), 0.5), ((1,), 0.5)]), n=1)
        cm = ComposedMechanism(noise=mech, missing=missing)
        z = CompleteDataset(((1.0,),))
        samples = np.array([run_composed(cm, z, seed=s).output[0] for s in range(20000)])

        def mixture_cdf(t):
            def lap_cdf(x, mu, b):
                return np.where(
                    x < mu, 0.5 * np.exp((x - mu) / b), 1 - 0.5 * np.exp(-(x - mu) / b)
                )
            return 0.5 * lap_cdf(t, 1.0, mech.scale) + 0.5 * lap_cdf(t, 0.0, mech.scale)

        grid = np.linspace(-3, 4, 15)
        empirical = np.array([(samples <= t).mean() for t in grid])
        assert np.max(np.abs(empirical - mixture_cdf(grid))) < 0.015


class TestOutputDensity:
    def test_laplace_at_center(self):
        q = make_standard_query("bounded_mean", n=2, d=1)
        mech = calibrate_laplace(q, epsilon=1.0, B=1.0)  # b = 1
        data = CompleteDataset(((0.0,), (0.0,))).as_incomplete()
        assert math.exp(log_output_density(mech, data, [0.0])) == pytest.approx(0.5)

    def test_gaussian_at_center(self):
        q = make_standard_query("linear", matrices=[np.array([[1.0]])], n=1, d=1)
        mech = calibrate_gaussian(q, epsilon=1.0, delta=1e-5, B=0.5)
        forced = type(mech)(
            query=q, family="gaussian", scale=1.0, budget=mech.budget,
            C_used=mech.C_used, bound_B=0.5,
        )
        data = CompleteDataset(((0.0,),)).as_incomplete()
        assert math.exp(log_output_density(forced, data, [0.0])) == pytest.approx(
            0.3989422804014327, abs=1e-12
        )

    def test_symmetry_about_center(self):
        q = make_standard_query("bounded_mean", n=2, d=1)
        mech = calibrate_laplace(q, epsilon=1.3, B=1.0)
        data = CompleteDataset(((0.4,), (0.8,))).as_incomplete()
        center = q(data)[0]
        for t in (0.1, 0.5, 2.0):
            assert math.exp(log_output_density(mech, data, [center + t])) == pytest.approx(
                math.exp(log_output_density(mech, data, [center - t]))
            )

    def test_mixture_law_pointwise(self):
        # composed density equals the probability-weighted density sum
        q = make_standard_query("bounded_mean", n=1, d=1)
        mech = calibrate_laplace(q, epsilon=2.0, B=1.0)
        missing = DatasetMechanism(McarPattern([((0,), 0.5), ((1,), 0.5)]), n=1)
        from amplipriv import apply_mask, composed_output_mixture, MaskMatrix

        cm = ComposedMechanism(noise=mech, missing=missing)
        z = CompleteDataset(((1.0,),))
        mix = composed_output_mixture(cm, z)
        for t in np.linspace(-2, 3, 21):
            manual = 0.5 * math.exp(log_output_density(
                mech, apply_mask(z, MaskMatrix(((0,),))), [t]
            )) + 0.5 * math.exp(log_output_density(
                mech, apply_mask(z, MaskMatrix(((1,),))), [t]
            ))
            assert math.exp(mix.log_density(np.array([[t]]))[0]) == pytest.approx(manual, abs=1e-10)


class TestFixedMaskCertificate:
    def test_laplace_density_ratio_under_masked_sensitivity(self):
        # under any supported mask the masked pair's density ratio stays within
        # the reduced budget exp((C_tilde / C) * eps)
        from amplipriv import MaskMatrix, apply_mask, sensitivity_masked

        B, eps, rho = 0.5, 1.0, 0.5
        base = make_standard_query("clipped_mean", n=2, d=4, clip=B)
        q = named_postprocess(base, "sum")
        mech = calibrate_laplace(q, epsilon=eps, B=B)
        bounds = sensitivity_masked(q, B, rho)
        cap = math.exp(bounds.ratio * eps) * (1 + 1e-9)
        rng = np.random.default_rng(31)
        for _ in range(30):
            bits = [1, 1, 1, 1]
            observed = rng.choice(4, size=2, replace=False)
            for j in observed:
                bits[j] = 0
            mask = MaskMatrix((bits, (1, 1, 1, 1)))
            left = CompleteDataset(tuple(map(tuple, rng.uniform(-B, B, (2, 4)))))
            right = left.substitute(0, rng.uniform(-B, B, 4))
            ml, mr = apply_mask(left, mask), apply_mask(right, mask)
            for t in np.linspace(-5 * mech.scale, 5 * mech.scale, 101):
                ratio = math.exp(
                    log_output_density(mech, ml, [t])
                    - log_output_density(mech, mr, [t])
                )
                assert ratio <= cap


class TestReleaseRecord:
    def test_privacy_mode_never_contains_mask(self):
        mech = calibrate_laplace(unit_query(), epsilon=1.0, B=1.0)
        missing = DatasetMechanism(McarBernoulli((0.5,)), n=2)
        cm = ComposedMechanism(noise=mech, missing=missing)
        run = run_composed(cm, CompleteDataset(((0.3,), (0.5,))), seed=3)
        record = release_record(mech, run.output, seed=3)
        assert "mask" not in record
        assert set(record) == {"output", "epsilon_base", "delta_base", "family", "scale"}
        assert record["epsilon_base"] == "1.0"

    def test_no_field_matches_a_brute_force_over_seeds(self):
        # the noise is reproducible from the seed, so no published field may
        # be found by a search over seeds: neither a seed nor a hash of one
        import hashlib

        mech = calibrate_laplace(unit_query(), epsilon=1.0, B=1.0)
        missing = DatasetMechanism(McarBernoulli((0.5,)), n=2)
        cm = ComposedMechanism(noise=mech, missing=missing)
        run = run_composed(cm, CompleteDataset(((0.3,), (0.5,))), seed=20240)
        record = release_record(mech, run.output, seed=20240)
        published = {v for value in record.values()
                     for v in (value if isinstance(value, list) else [value])}
        for seed in range(10**5 + 1):
            text = str(seed).encode()
            guesses = {text.decode(), hashlib.sha256(text).hexdigest(),
                       hashlib.sha1(text).hexdigest(), hashlib.md5(text).hexdigest()}
            assert not guesses & published, seed

    def test_audit_mode_adds_mask(self):
        mech = calibrate_laplace(unit_query(), epsilon=1.0, B=1.0)
        missing = DatasetMechanism(McarBernoulli((0.5,)), n=2)
        cm = ComposedMechanism(noise=mech, missing=missing)
        run = run_composed(cm, CompleteDataset(((0.3,), (0.5,))), seed=3)
        record = release_record(mech, run.output, seed=3, mask=run.mask_used, audit=True)
        assert record["mask"] == list(map(list, run.mask_used.bits_tuple()))
        assert {type(b) for row in record["mask"] for b in row} == {int}
        with pytest.raises(ValueError):
            release_record(mech, run.output, seed=3, audit=True)

    def test_json_stable(self, tmp_path):
        mech = calibrate_laplace(unit_query(), epsilon=1.0, B=1.0)
        record = release_record(mech, np.array([0.25]), seed=3)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        emit_report(record, "json", first)
        emit_report(json.loads(first.read_text()), "json", second)
        assert first.read_bytes() == second.read_bytes()
