"""Data model: masking, NA conventions, and the substitute-one relation."""

import numpy as np
import pytest

from amplipriv import (
    CompleteDataset,
    DimensionError,
    IncompleteDataset,
    Mask,
    MaskMatrix,
    apply_mask,
    load_dataset_csv,
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
            assert once.cells == twice.cells

    def test_incomplete_neighbors(self):
        # a shared mask gives both neighbours one NA pattern, so every cell pair
        # is NA/NA or real/real, and the rows other than i* stay identical
        rng = np.random.default_rng(21)
        for _ in range(50):
            n, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            left = CompleteDataset(tuple(map(tuple, rng.normal(size=(n, d)))))
            i_star = int(rng.integers(n))
            right = left.substitute(i_star, rng.normal(size=d))
            mask = MaskMatrix(tuple(map(tuple, rng.integers(0, 2, (n, d)))))
            ml, mr = apply_mask(left, mask), apply_mask(right, mask)
            assert np.array_equal(ml.na_mask, mr.na_mask)
            assert [i for i in range(n) if ml.cells[i] != mr.cells[i]] in ([], [i_star])


class TestObservedCount:
    def test_nothing_masked(self):
        assert Mask((0, 0, 0)).observed_count == 3

    def test_all_masked(self):
        assert Mask((1, 1)).observed_count == 0

    def test_alternating(self):
        assert Mask((0, 1, 0, 1)).observed_count == 2


class TestSubstitute:
    """``substitute`` is the neighbour move every audit pair is built with."""

    def test_single_substitution(self):
        a = CompleteDataset(((1.0,), (2.0,), (3.0,)), bound_B=9.0)
        b = a.substitute(1, (9.0,))
        assert b.rows == ((1.0,), (9.0,), (3.0,)) and b.bound_B == 9.0
        assert a.rows == ((1.0,), (2.0,), (3.0,))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            CompleteDataset(((1.0, 2.0),)).substitute(0, (1.0,))

    def test_replacement_past_bound_rejected(self):
        z = CompleteDataset(((0.5, -0.5),), bound_B=0.5)
        with pytest.raises(ValueError, match="exceeds declared bound"):
            z.substitute(0, (0.5, 0.75))


class TestDatasetValidation:
    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            CompleteDataset(((2.0,),), bound_B=1.0)
        CompleteDataset(((1.0,),), bound_B=1.0)

    @pytest.mark.parametrize("bound", [float("nan"), float("inf"), -1.0])
    def test_bound_must_be_finite_and_nonnegative(self, bound):
        # NaN < 0 is False, so a NaN bound once passed as no bound at all
        with pytest.raises(ValueError, match="bound_B: must be finite and nonnegative"):
            CompleteDataset(((1.0,),), bound_B=bound)

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

    def test_incomplete_dataset_is_immutable(self):
        out = apply_mask(CompleteDataset(((1.0, 2.0),)), mk_mask((0, 1)))
        with pytest.raises(AttributeError):
            out.cells = ()
        with pytest.raises(ValueError):
            out.values_filled[0, 0] = 5.0


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
        assert back.cells == masked.cells

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_dataset_csv(path)
