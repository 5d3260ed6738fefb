"""The numpy special functions against scipy.special, which serves as the oracle.

The runtime needs numpy only; scipy is a test dependency. Each replacement
is checked on random inputs and on the edge inputs where scipy branches:
zeros, the smallest subnormal, ratios that under- or overflow, +-inf and
NaN. Tolerances are stated per test; softmax copies scipy's arithmetic
and must agree bit for bit.
"""

import numpy as np
import pytest
from scipy import special

from uotpool import expit, kl_divergence, softmax, uot_objective
from uotpool.solvers import Regularizer, _kl, _log0

EPS = np.finfo(np.float64).eps
TINY_SUB = 5e-324
EDGE = np.array([0.0, TINY_SUB, 1e-310, np.finfo(np.float64).tiny, 1e-200, 0.3,
                 1.0, 2.0, 1e200, 1e300])


class TestKlDivergence:
    # Each term a log(a/b) uses numpy's log or log1p where scipy uses the C
    # library's; the two differ by at most a few ulps. The bound is 8 ulps
    # of the sum of magnitudes that enter the result.
    @staticmethod
    def _check(a, b):
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        terms = special.rel_entr(a, b)
        want = float(np.sum(terms) - np.sum(a) + np.sum(b))
        got = kl_divergence(a, b)
        scale = float(np.sum(np.abs(terms)) + np.sum(a) + np.sum(b))
        if np.isinf(want):
            assert got == want
        else:
            assert abs(got - want) <= 8 * EPS * scale, (a, b, got, want)

    def test_random(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            n = int(rng.integers(1, 12))
            a = rng.dirichlet(np.ones(n)) * 10.0 ** rng.uniform(-3, 3)
            b = rng.dirichlet(np.ones(n)) * 10.0 ** rng.uniform(-3, 3)
            a[rng.random(n) < 0.2] = 0.0
            self._check(a, b)

    def test_near_ratio_one_uses_log1p_branch(self):
        b = np.array([0.2, 0.3, 0.5])
        for rel in (1e-15, 1e-9, 1e-3, 0.4, -0.4):
            self._check(b * (1.0 + rel), b)

    @pytest.mark.parametrize("a,b", [
        ([TINY_SUB, 0.0, 0.0, 0.0], [2.0, 2.0, 2.0, 2.0]),  # ratio underflows
        ([1e-300], [1e300]),                                  # ratio underflows
        ([1e300], [1e-300]),                                  # ratio overflows
        ([1e308], [1e-300]),                                  # term overflows
        ([TINY_SUB], [TINY_SUB]),
        ([1e-310], [3e-310]),                                 # subnormal operands
        ([0.0, 1.0], [1e-300, 1e300]),
    ])
    def test_edges(self, a, b):
        self._check(a, b)

    def test_edge_grid(self):
        for x in EDGE:
            for y in EDGE[1:]:
                self._check([x], [y])


class TestSolverKl:
    # The solve loop's KL takes the log prior and evaluates v (log v - log p)
    # - v; scipy's rel_entr branches on v/p. Finite results agree within 8
    # ulps of the sum of magnitudes; NaN and infinity land where they do in
    # scipy's, except that an infinite v gives inf where scipy's inf - inf
    # gives NaN (both are non-finite, which is all the trace acts on).
    @staticmethod
    def _pair(v, prior):
        v, prior = np.asarray(v, dtype=np.float64), np.asarray(prior, dtype=np.float64)
        with np.errstate(all="ignore"):
            want = special.rel_entr(v, prior).sum(axis=-1) - v.sum(axis=-1) + prior.sum()
            got = _kl(v, prior, np.log(prior))
        scale = (np.abs(special.rel_entr(v, prior)).sum(axis=-1) + np.abs(v).sum(axis=-1)
                 + prior.sum())
        return got, want, scale

    def test_random_batches(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            prior = rng.dirichlet(np.ones(n))
            v = rng.dirichlet(np.ones(n), size=(3, 2)) * 10.0 ** rng.uniform(-5, 5)
            v[rng.random(v.shape) < 0.1] = 0.0
            got, want, scale = self._pair(v, prior)
            np.testing.assert_array_less(np.abs(got - want), 8 * EPS * scale + 1e-300)

    def test_edges(self):
        prior = np.full(4, 0.25)
        for x in EDGE:
            got, want, scale = self._pair([x, 0.25, 0.25, 0.25], prior)
            assert abs(got - want) <= 8 * EPS * scale + 1e-305, x

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_stays_non_finite(self, bad):
        got, want, _ = self._pair([[bad, 0.5], [0.5, 0.5]], [0.5, 0.5])
        assert not np.isfinite(got[0]) and not np.isfinite(want[0])
        assert np.isnan(got[0]) == (bad != bad)
        assert got[1] == want[1] == 0.0


class TestXlogy:
    # v * _log0(v) equals xlogy(v, v) within 2 ulps for v at or above the
    # smallest normal float, is exactly 0 at 0, and below that float differs
    # by under 1e-305 in absolute terms.
    def test_random_and_edges(self):
        rng = np.random.default_rng(3)
        v = np.concatenate([rng.random(1000) * 10.0 ** rng.uniform(-300, 300, 1000), EDGE])
        got, want = v * _log0(v), special.xlogy(v, v)
        normal = v >= np.finfo(np.float64).tiny
        np.testing.assert_allclose(got[normal], want[normal], rtol=2 * EPS, atol=0)
        assert np.all(np.abs(got[~normal] - want[~normal]) < 1e-305)
        assert got[v == 0].tolist() == [0.0]

    def test_non_finite(self):
        v = np.array([np.inf, np.nan])
        with np.errstate(invalid="ignore"):
            want = special.xlogy(v, v)
        got = v * _log0(v)
        assert got[0] == want[0] == np.inf
        assert np.isnan(got[1]) and np.isnan(want[1])

    @pytest.mark.parametrize("reg", list(Regularizer))
    def test_objective_matches_scipy_formula(self, reg):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d, n = rng.integers(2, 8, size=2)
            x = rng.normal(size=(d, n))
            p = rng.random((d, n)) / (d * n)
            p[rng.random((d, n)) < 0.2] = 0.0
            p0, q0 = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(n))
            a0, a1, a2 = 10.0 ** rng.uniform(-3, 3, 3)
            if reg is Regularizer.ENTROPIC:
                r = special.xlogy(p, p).sum() - p.sum()
            else:
                r = (p * p).sum()
            kl = [special.rel_entr(m, w).sum() - m.sum() + w.sum()
                  for m, w in ((p.sum(axis=-1), p0), (p.sum(axis=-2), q0))]
            want = -(x * p).sum() + a0 * r + a1 * kl[0] + a2 * kl[1]
            scale = (np.abs(x * p).sum() + a0 * abs(r)
                     + a1 * (abs(kl[0]) + 2.0) + a2 * (abs(kl[1]) + 2.0))
            got = uot_objective(x, p, a0, a1, a2, p0, q0, reg)
            assert abs(got - want) <= 16 * EPS * scale


class TestExpit:
    # Same formula as scipy; numpy's exp differs from the C library's by at
    # most a few ulps, so the bound is 4 ulps relative. Where exp(-x)
    # overflows, both give exactly 0.
    def test_random(self):
        x = np.concatenate([np.random.default_rng(6).normal(scale=20.0, size=100_000),
                            np.linspace(-760.0, 760.0, 20001)])
        got, want = expit(x), special.expit(x)
        np.testing.assert_allclose(got, want, rtol=4 * EPS, atol=0)

    @pytest.mark.parametrize("x,want", [
        (0.0, 0.5), (-0.0, 0.5), (TINY_SUB, 0.5), (-TINY_SUB, 0.5),
        (800.0, 1.0), (-800.0, 0.0), (np.inf, 1.0), (-np.inf, 0.0),
    ])
    def test_edges_exact(self, x, want):
        assert expit(np.float64(x)) == special.expit(x) == want
        assert expit(np.array([x]))[0] == want

    def test_nan(self):
        assert np.isnan(expit(np.nan)) and np.isnan(special.expit(np.nan))

    def test_scalar_in_scalar_out(self):
        assert np.ndim(expit(1.5)) == 0
        assert expit(1.5) == pytest.approx(special.expit(1.5), rel=4 * EPS)


class TestSoftmax:
    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (2, 4, 6)])
    def test_bitwise_equal_random(self, shape):
        v = np.random.default_rng(7).normal(scale=30.0, size=shape)
        assert softmax(v).tobytes() == special.softmax(v, axis=-1).tobytes()

    @pytest.mark.parametrize("row", [
        [1e300, -1e300, 0.0], [-1e300, -1e300], [-np.inf, 0.0, 1.0],
        [TINY_SUB, 0.0, -TINY_SUB], [745.0, -745.0, 0.0],
    ])
    def test_bitwise_equal_edges(self, row):
        v = np.array(row)
        assert softmax(v).tobytes() == special.softmax(v, axis=-1).tobytes()

    @pytest.mark.parametrize("row", [[np.inf, 0.0], [np.nan, 0.0]])
    def test_non_finite_matches(self, row):
        v = np.array(row)
        with np.errstate(invalid="ignore"):
            got, want = softmax(v), special.softmax(v, axis=-1)
        np.testing.assert_array_equal(got, want)

