"""Data model: masking, NA conventions, and the substitute-one relation."""

import numpy as np
import pytest

from amplipriv import (
    CellTagError,
    CompleteDataset,
    DimensionError,
    IncompleteDataset,
    Mask,
    MaskMatrix,
    apply_mask,
    feature_gap,
    is_neighbor,
    load_dataset_csv,
    observed_indices,
    save_dataset_csv,
)


def mk_mask(*rows):
    return MaskMatrix(tuple(Mask(tuple(r)) for r in rows))


class TestApplyMask:
    def test_identity_mask_keeps_all_values(self):
        z = CompleteDataset(((1.0, 2.0), (3.0, 4.0)))
        out = apply_mask(z, mk_mask((0, 0), (0, 0)))
        assert out.cells == ((1.0, 2.0), (3.0, 4.0))
        assert not out.na_mask.any()

    def test_total_mask_yields_all_na(self):
        z = CompleteDataset(((1.0, 2.0), (3.0, 4.0)))
        out = apply_mask(z, mk_mask((1, 1), (1, 1)))
        assert out.cells == ((None, None), (None, None))

    def test_mixed_mask(self):
        z = CompleteDataset(((1.0, 2.0), (3.0, 4.0)))
        out = apply_mask(z, mk_mask((0, 1), (1, 0)))
        assert out.cells == ((1.0, None), (None, 4.0))

    def test_shape_mismatch_raises(self):
        z = CompleteDataset(((1.0, 2.0),))
        with pytest.raises(DimensionError):
            apply_mask(z, mk_mask((0, 0), (0, 0)))

    def test_round_trip_at_observed_positions(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            vals = rng.normal(size=(n, d))
            bits = rng.integers(0, 2, (n, d))
            z = CompleteDataset(tuple(map(tuple, vals)))
            out = apply_mask(z, MaskMatrix(tuple(map(tuple, bits))))
            for i in range(n):
                for j in range(d):
                    if bits[i, j] == 0:
                        assert out.cells[i][j] == vals[i, j]
                    else:
                        assert out.cells[i][j] is None

    def test_idempotent_in_mask_support(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            z = CompleteDataset(tuple(map(tuple, rng.normal(size=(n, d)))))
            mask = MaskMatrix(tuple(map(tuple, rng.integers(0, 2, (n, d)))))
            once = apply_mask(z, mask)
            twice = apply_mask(once, mask)
            assert once == twice


class TestObservedIndices:
    def test_nothing_masked(self):
        assert observed_indices(Mask((0, 0, 0))) == (0, 1, 2)

    def test_all_masked(self):
        assert observed_indices(Mask((1, 1))) == ()

    def test_alternating(self):
        assert observed_indices(Mask((0, 1, 0, 1))) == (0, 2)


class TestFeatureGap:
    def test_both_na(self):
        assert feature_gap(None, None) == 0.0

    def test_both_real(self):
        assert feature_gap(3.0, 1.0) == 2.0

    def test_mixed_raises(self):
        with pytest.raises(CellTagError):
            feature_gap(None, 1.0)
        with pytest.raises(CellTagError):
            feature_gap(1.0, None)


class TestIsNeighbor:
    def test_equal_datasets(self):
        z = CompleteDataset(((1.0,), (2.0,)))
        pair = is_neighbor(z, z)
        assert pair is not None and pair.differing_index is None

    def test_single_substitution(self):
        a = CompleteDataset(((1.0,), (2.0,), (3.0,)))
        b = CompleteDataset(((1.0,), (9.0,), (3.0,)))
        pair = is_neighbor(a, b)
        assert pair is not None and pair.differing_index == 1

    def test_two_rows_differ(self):
        a = CompleteDataset(((1.0,), (2.0,)))
        b = CompleteDataset(((9.0,), (8.0,)))
        assert is_neighbor(a, b) is None

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            is_neighbor(CompleteDataset(((1.0,),)), CompleteDataset(((1.0,), (2.0,))))
        with pytest.raises(DimensionError):
            is_neighbor(
                CompleteDataset(((1.0,),)),
                CompleteDataset(((1.0,),)).as_incomplete(),
            )

    def test_symmetry_and_permutation_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n, d = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            vals = rng.integers(0, 3, (n, d)).astype(float)
            a = CompleteDataset(tuple(map(tuple, vals)))
            other = vals.copy()
            k = int(rng.integers(0, 3))
            for idx in rng.choice(n, size=k, replace=False):
                other[idx] = rng.integers(4, 7, d)
            perm = rng.permutation(n)
            b = CompleteDataset(tuple(map(tuple, other[perm])))
            b_unperm = CompleteDataset(tuple(map(tuple, other)))
            forward = is_neighbor(a, b)
            assert (forward is None) == (is_neighbor(b, a) is None)
            assert (forward is None) == (is_neighbor(a, b_unperm) is None)
            assert (forward is None) == (k > 1)

    def test_rows_compared_bit_exactly(self):
        a = CompleteDataset(((0.0, 1.0), (2.0, 3.0)))
        b = CompleteDataset(((-0.0, 1.0), (2.0, 3.0)))
        pair = is_neighbor(a, b)
        # -0.0 has different bits than 0.0, so exactly one row differs
        assert pair is not None and pair.differing_index == 0

    def test_incomplete_neighbors(self):
        z = CompleteDataset(((1.0, 2.0), (3.0, 4.0)))
        mask = mk_mask((0, 1), (1, 0))
        left = apply_mask(z, mask)
        right = apply_mask(z.substitute(0, (5.0, 6.0)), mask)
        pair = is_neighbor(left, right)
        assert pair is not None and pair.differing_index == 0


class TestDatasetValidation:
    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            CompleteDataset(((2.0,),), bound_B=1.0)
        CompleteDataset(((1.0,),), bound_B=1.0)

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionError):
            CompleteDataset(((1.0, 2.0), (3.0,)))

    def test_substitute_out_of_range(self):
        z = CompleteDataset(((1.0,),))
        with pytest.raises(IndexError):
            z.substitute(3, (1.0,))

    def test_non_finite_entries_rejected(self):
        # NaN is exactly the sentinel the tagged-cell design forbids
        with pytest.raises(ValueError):
            CompleteDataset(((float("nan"),),))
        with pytest.raises(ValueError):
            CompleteDataset(((float("inf"), 1.0),))
        with pytest.raises(ValueError):
            IncompleteDataset(((None, float("nan")),))

    @pytest.mark.parametrize("bit", [2, 1.5, -0.5, float("nan"), float("inf"), "1"])
    def test_mask_bits_are_zero_or_one(self, bit):
        # int() would turn 1.5 and -0.5 into valid bits
        with pytest.raises(ValueError, match="mask bits must be 0 or 1"):
            Mask((0, bit))


class TestCsvRoundTrip:
    def test_complete_bit_exact(self, tmp_path):
        vals = ((0.1, 1e-17, -0.0), (3.0, 2.5e300, 7.000000000000001))
        z = CompleteDataset(vals)
        path = tmp_path / "z.csv"
        save_dataset_csv(z, path)
        back = load_dataset_csv(path)
        assert isinstance(back, CompleteDataset)
        for r1, r2 in zip(z.rows, back.rows):
            for v1, v2 in zip(r1, r2):
                assert repr(v1) == repr(v2)

    def test_incomplete_uses_na_token(self, tmp_path):
        z = CompleteDataset(((1.5, 2.5), (3.5, 4.5)))
        masked = apply_mask(z, mk_mask((0, 1), (1, 0)))
        path = tmp_path / "m.csv"
        save_dataset_csv(masked, path)
        text = path.read_text()
        assert "NA" in text and text.splitlines()[0] == "f1,f2"
        back = load_dataset_csv(path)
        assert isinstance(back, IncompleteDataset)
        assert back == masked

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_dataset_csv(path)
