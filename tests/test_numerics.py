import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp

from uotpool import (
    DegenerateRowError,
    kl_divergence,
    logsumexp_cols,
    logsumexp_rows,
    row_conditional,
    softmax,
    softplus,
    softplus_inverse,
)
from uotpool.numerics import validate_simplex

finite_floats = st.floats(min_value=-50.0, max_value=50.0,
                          allow_nan=False, allow_infinity=False)


class TestLogsumexp:
    def test_rows_pair_of_zeros(self):
        assert logsumexp_rows(np.array([[0.0, 0.0]])) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_rows_constant_row(self):
        out = logsumexp_rows(np.array([[1.0, 1.0, 1.0]]))
        assert out == pytest.approx(1.0 + math.log(3.0), abs=1e-15)

    def test_rows_no_overflow(self):
        out = logsumexp_rows(np.array([[1000.0, 1000.0]]))
        assert out == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)

    def test_cols_reduces_feature_axis(self):
        out = logsumexp_cols(np.array([[1.0, 2.0], [3.0, 4.0]]))
        expected = [np.logaddexp(1.0, 3.0), np.logaddexp(2.0, 4.0)]
        np.testing.assert_allclose(out, expected, atol=1e-14)
        assert out[0] == pytest.approx(3.1269280110429727, abs=1e-12)

    def test_batched_shapes(self):
        m = np.zeros((2, 3, 4))
        assert logsumexp_rows(m).shape == (2, 3)
        assert logsumexp_cols(m).shape == (2, 4)

    @pytest.mark.parametrize("bad", [np.array([1.0, 2.0]), np.zeros((0, 3)), np.zeros((3, 0))])
    def test_rejects_vectors_and_empty(self, bad):
        with pytest.raises(ValueError):
            logsumexp_rows(bad)
        with pytest.raises(ValueError):
            logsumexp_cols(bad)

    @settings(max_examples=50)
    @given(
        hnp.arrays(np.float64, (3, 4), elements=finite_floats),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    def test_shift_equivariance(self, m, c):
        np.testing.assert_allclose(
            logsumexp_rows(m + c), logsumexp_rows(m) + c, atol=1e-9
        )

    @settings(max_examples=200)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=4, max_side=7),
                      elements=st.floats(min_value=-1e3, max_value=1e3)))
    def test_matches_scipy(self, m):
        # The error of a log-sum-exp is bounded relative to its largest input
        # magnitude: an output near zero comes from cancellation, in scipy too.
        for ours, axis in ((logsumexp_rows, -1), (logsumexp_cols, -2)):
            want = logsumexp(m, axis=axis)
            scale = np.maximum(np.abs(want), np.abs(m).max(axis=axis))
            assert np.all(np.abs(ours(m) - want) <= 1e-15 * scale)

    @pytest.mark.parametrize("row", [
        [-np.inf, -np.inf, -np.inf],
        [np.inf, 1.0, -2.0],
        [np.nan, 1.0, -2.0],
        [np.inf, -np.inf, 0.5],
        [np.inf, np.nan, 0.5],
        [800.0, np.inf, -np.inf],
        [-np.inf, 2.0, -np.inf],
    ])
    def test_non_finite_rows_match_scipy(self, row):
        # assert_allclose requires non-finite entries to match exactly.
        m = np.array([row, [0.0, 1.0, 2.0]])
        np.testing.assert_allclose(logsumexp_rows(m), logsumexp(m, axis=-1), rtol=1e-15)
        np.testing.assert_allclose(logsumexp_cols(m.T), logsumexp(m.T, axis=-2), rtol=1e-15)

    @pytest.mark.parametrize("fill", [0.0, np.inf, -np.inf, np.nan])
    def test_input_unchanged(self, fill):
        m = np.random.default_rng(0).uniform(-3.0, 3.0, (2, 3, 4))
        m[0, 1, :] = fill
        m[1, :, 2] = fill
        before = m.copy()
        m.flags.writeable = False
        logsumexp_rows(m)
        logsumexp_cols(m)
        np.testing.assert_array_equal(m, before)


class TestSoftmax:
    def test_log_odds_example(self):
        out = softmax(np.log(np.array([1.0, 3.0])))
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-15)

    def test_large_entries_no_overflow(self):
        out = softmax(np.array([1000.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-300)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))

    def test_batched_rows_sum_to_one(self):
        out = softmax(np.arange(12.0).reshape(3, 4))
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-15)

    @settings(max_examples=50)
    @given(
        hnp.arrays(np.float64, (5,), elements=finite_floats),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    def test_shift_invariance(self, v, c):
        np.testing.assert_allclose(softmax(v + c), softmax(v), atol=1e-12)


class TestSoftplus:
    def test_at_zero(self):
        assert softplus(0.0) == pytest.approx(math.log(2.0), abs=1e-16)

    def test_large_positive_is_identity(self):
        assert abs(float(softplus(100.0)) - 100.0) < 1e-40

    def test_large_negative_vanishes(self):
        val = float(softplus(-100.0))
        assert 0.0 < val < 1e-43

    def test_inverse_rejects_nonpositive(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                softplus_inverse(bad)

    def test_inverse_of_known_value(self):
        assert softplus_inverse(math.log(2.0)) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=100)
    @given(st.floats(min_value=-15.0, max_value=30.0))
    def test_round_trip(self, x):
        # Below about -15 the forward value underflows toward zero and the
        # inverse loses precision, so the round trip is only tested where
        # solver weights actually live.
        assert float(softplus_inverse(softplus(x))) == pytest.approx(x, abs=1e-8)

    @settings(max_examples=50)
    @given(st.floats(min_value=-30.0, max_value=30.0),
           st.floats(min_value=1e-6, max_value=10.0))
    def test_strictly_increasing(self, x, step):
        assert float(softplus(x)) < float(softplus(x + step))


class TestKlDivergence:
    def test_half_half_against_skewed(self):
        val = kl_divergence([0.5, 0.5], [0.25, 0.75])
        assert val == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-15)

    def test_point_mass_uses_zero_log_zero(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_unnormalized_second_argument(self):
        # sum(a log(a/b)) - sum(a) + sum(b) = 0 + 0 - 1 + 2
        assert kl_divergence([0.0, 1.0], [1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_self_divergence_is_zero(self):
        v = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(v, v) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [1.0])
        with pytest.raises(ValueError):
            kl_divergence([-0.1, 1.1], [0.5, 0.5])
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [0.0, 1.0])

    @pytest.mark.parametrize("a,b", [
        ([np.nan, 1.0], [0.5, 0.5]),
        ([0.5, 0.5], [np.nan, 0.5]),
        ([np.inf, 1.0], [0.5, 0.5]),
        ([0.5, 0.5], [np.inf, 0.5]),
    ])
    def test_rejects_non_finite(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            kl_divergence(a, b)

    @settings(max_examples=100)
    @given(
        hnp.arrays(np.float64, (4,), elements=st.floats(min_value=0.0, max_value=10.0)),
        hnp.arrays(np.float64, (4,), elements=st.floats(min_value=1e-6, max_value=10.0)),
    )
    def test_nonnegative(self, a, b):
        assert kl_divergence(a, b) >= -1e-12


class TestRowConditional:
    def test_two_row_example(self):
        out = row_conditional(np.array([[1.0, 1.0], [2.0, 6.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.25, 0.75]], atol=1e-15)

    def test_zero_row_raises_with_index(self):
        with pytest.raises(DegenerateRowError, match="row 1 has zero total mass") as info:
            row_conditional(np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert info.value.row == 1

    def test_zero_row_in_batch(self):
        m = np.ones((2, 3, 4))
        m[1, 2] = 0.0
        with pytest.raises(DegenerateRowError) as info:
            row_conditional(m)
        assert info.value.row == 2

    def test_zero_row_names_flat_batch_item(self):
        m = np.ones((2, 3, 2, 4))
        m[1, 0] = 0.0
        with pytest.raises(DegenerateRowError, match="row 0 of item 3 has zero") as info:
            row_conditional(m)
        assert (info.value.row, info.value.item) == (0, 3)
        with pytest.raises(DegenerateRowError) as info:
            row_conditional(np.zeros((2, 2)))
        assert info.value.item is None

    def test_nan_propagates_without_raising(self):
        m = np.array([[np.nan, 1.0], [1.0, 1.0]])
        out = row_conditional(m)
        assert np.isnan(out[0]).all()
        np.testing.assert_allclose(out[1], [0.5, 0.5])

    @settings(max_examples=50)
    @given(hnp.arrays(np.float64, (3, 5),
                      elements=st.floats(min_value=1e-3, max_value=100.0)))
    def test_rows_sum_to_one(self, m):
        np.testing.assert_allclose(row_conditional(m).sum(axis=-1), 1.0, atol=1e-12)


class TestValidateSimplex:
    def test_accepts_probability_vector(self):
        v = validate_simplex(np.array([0.25, 0.75]))
        np.testing.assert_array_equal(v, [0.25, 0.75])

    @pytest.mark.parametrize("bad", [
        np.array([[0.5, 0.5]]),
        np.array([]),
        np.array([-0.5, 1.5]),
        np.array([0.3, 0.3]),
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            validate_simplex(bad)

    def test_rejects_nan_entry(self):
        # NaN fails neither ``v < 0`` nor the tolerance on the sum.
        with pytest.raises(ValueError, match="finite"):
            validate_simplex(np.array([np.nan, 0.5, 0.5]))
