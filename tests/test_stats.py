"""Wasserstein distance, Welch test, Student-t evaluation, and LOESS."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from villagenet.stats import (
    StatsError,
    betainc_regularized,
    loess_fit,
    student_t_ppf,
    student_t_sf,
    wasserstein1,
    welch_ttest,
)


def sorted_pair_oracle(a, b):
    """Equal-size oracle: mean absolute difference of sorted samples."""
    a, b = np.sort(a), np.sort(b)
    return float(np.mean(np.abs(a - b)))


def fraction_grid_wasserstein1(sample_a, sample_b):
    """Oracle: the same quantile-grid sum with each breakpoint an exact Fraction."""
    a = sorted(float(x) for x in sample_a)
    b = sorted(float(x) for x in sample_b)
    n, m = len(a), len(b)
    total = 0.0
    pos = Fraction(0)
    ia = ib = 0
    while ia < n and ib < m:
        next_a = Fraction(ia + 1, n)
        next_b = Fraction(ib + 1, m)
        cut = min(next_a, next_b)
        total += abs(a[ia] - b[ib]) * float(cut - pos)
        pos = cut
        if next_a == cut:
            ia += 1
        if next_b == cut:
            ib += 1
    return total


SAMPLE = st.lists(st.one_of(st.integers(0, 9).map(float),
                            st.floats(-1e6, 1e6, allow_nan=False)),
                  min_size=1, max_size=200)


class TestWasserstein:
    @settings(max_examples=300, deadline=None)
    @given(a=SAMPLE, b=SAMPLE)
    def test_matches_fraction_grid_bit_for_bit(self, a, b):
        # both widths are the correctly rounded quotient of one rational
        assert wasserstein1(a, b) == fraction_grid_wasserstein1(a, b)

    def test_identical_zero(self):
        assert wasserstein1([3, 1, 4], [4, 3, 1]) == 0.0

    def test_shifted_pair(self):
        assert wasserstein1([0, 1], [1, 2]) == pytest.approx(1.0)

    def test_crossing_pair(self):
        assert wasserstein1([0, 2], [1, 1]) == pytest.approx(1.0)

    def test_unequal_sizes(self):
        # F_a puts mass 1/2 at 0,1; F_b mass 1/3 at 0,1,2: integral by hand.
        # segments: [0,1/3):|0-0|, [1/3,1/2):|0-1|, [1/2,2/3):|1-1|, [2/3,1):|1-2|
        assert wasserstein1([0, 1], [0, 1, 2]) == pytest.approx(1 / 6 + 1 / 3)

    def test_empty_sample_errors(self):
        with pytest.raises(StatsError):
            wasserstein1([], [1])

    def test_matches_sorted_oracle_equal_sizes(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            a = rng.integers(0, 30, size=n).astype(float)
            b = rng.integers(0, 30, size=n).astype(float)
            assert wasserstein1(a, b) == pytest.approx(sorted_pair_oracle(a, b), abs=1e-9)

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a = rng.integers(0, 12, size=int(rng.integers(1, 15))).astype(float)
            b = rng.integers(0, 12, size=int(rng.integers(1, 15))).astype(float)
            c = rng.integers(0, 12, size=int(rng.integers(1, 15))).astype(float)
            dab, dba = wasserstein1(a, b), wasserstein1(b, a)
            dac, dbc = wasserstein1(a, c), wasserstein1(b, c)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert dab >= 0
            assert dab <= dac + dbc + 1e-9
            if sorted(a.tolist()) == sorted(b.tolist()):
                assert dab == 0.0

    def test_translation_properties(self):
        rng = np.random.default_rng(21)
        a = rng.integers(0, 9, size=12).astype(float)
        b = rng.integers(0, 9, size=12).astype(float)
        base = wasserstein1(a, b)
        assert wasserstein1(a + 2.5, b + 2.5) == pytest.approx(base, abs=1e-12)
        shifted = wasserstein1(a + 0.7, b)
        assert shifted <= base + 0.7 + 1e-12
        assert wasserstein1(a + 0.7, a) == pytest.approx(0.7)


class TestWelch:
    def test_hand_dataset(self):
        res = welch_ttest([1, 2, 3], [2, 3, 4])
        assert res.t == pytest.approx(-1.224744871, abs=1e-8)
        assert res.df == pytest.approx(4.0, abs=1e-12)

    def test_identical_groups(self):
        res = welch_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.t == 0.0
        assert res.p == pytest.approx(1.0)

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=10), rng.normal(1.0, size=14)
        r1, r2 = welch_ttest(a, b), welch_ttest(b, a)
        assert r1.t == pytest.approx(-r2.t, abs=1e-12)
        assert r1.p == pytest.approx(r2.p, abs=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = rng.normal(size=int(rng.integers(2, 30)))
            b = rng.normal(0.4, 1.7, size=int(rng.integers(2, 30)))
            mine = welch_ttest(a, b)
            ref = sps.ttest_ind(a, b, equal_var=False)
            assert mine.t == pytest.approx(ref.statistic, abs=1e-10)
            assert mine.p == pytest.approx(ref.pvalue, abs=1e-10)

    def test_degenerate_variance_errors(self):
        with pytest.raises(StatsError):
            welch_ttest([1.0, 1.0], [1.0, 1.0])

    def test_arm_layout(self):
        # one result per arm comparison for a 22 vs 44 distance layout
        rng = np.random.default_rng(12)
        control = rng.normal(1.0, 0.3, 22)
        low = rng.normal(1.1, 0.3, 44)
        high = rng.normal(0.9, 0.3, 44)
        results = {"low": welch_ttest(control, low), "high": welch_ttest(control, high)}
        assert set(results) == {"low", "high"}
        for r in results.values():
            assert 0 < r.p <= 1
            assert r.df <= 22 + 44 - 2


class TestStudentT:
    def test_sf_matches_scipy(self):
        for df in (1, 2, 4.7, 10, 43.1, 120):
            for t in (-6.0, -1.2247, -0.5, 0.0, 0.523, 2.0, 8.0):
                assert student_t_sf(t, df) == pytest.approx(
                    sps.t.sf(t, df), abs=1e-10)

    def test_ppf_matches_scipy(self):
        for df in (2, 5, 28.1, 60):
            for q in (0.025, 0.1, 0.5, 0.9, 0.975):
                assert student_t_ppf(q, df) == pytest.approx(
                    sps.t.ppf(q, df), abs=1e-8)

    def test_betainc_matches_scipy(self):
        from scipy.special import betainc
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = rng.uniform(0.2, 20, 2)
            x = rng.uniform(0, 1)
            assert betainc_regularized(a, b, x) == pytest.approx(
                betainc(a, b, x), abs=1e-10)


class TestLoess:
    def test_constant_data(self):
        pts = [(x, 2.0) for x in np.linspace(0, 1, 9)]
        curve = loess_fit(pts, span=0.6, degree=1)
        assert all(y == pytest.approx(2.0, abs=1e-9) for _, y in curve.fitted)

    def test_linear_data_exact(self):
        for span in (0.4, 0.75, 1.0):
            pts = [(x, 3.0 - 2.0 * x) for x in np.linspace(0, 1, 11)]
            curve = loess_fit(pts, span=span, degree=1)
            for x, y in curve.fitted:
                assert y == pytest.approx(3.0 - 2.0 * x, abs=1e-9)

    def test_quadratic_degree2_exact(self):
        pts = [(x, 1.0 + x - 0.5 * x * x) for x in np.linspace(0, 2, 12)]
        curve = loess_fit(pts, span=1.0, degree=2)
        for x, y in curve.fitted:
            assert y == pytest.approx(1.0 + x - 0.5 * x * x, abs=1e-8)

    def test_bimodal_sign_change_in_window(self):
        # planted dose response: negative below 0.5, positive above
        dosages = [0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0] * 4
        rng = np.random.default_rng(4)
        pts = [(d, (-1.0 if d < 0.45 else 1.0) + rng.normal(0, 0.05))
               for d in dosages]
        curve = loess_fit(pts, span=0.5, degree=1)
        fitted = dict(curve.fitted)
        assert fitted[0.3] < 0 < fitted[0.5]
        xs = sorted(fitted)
        crossings = [(a, b) for a, b in zip(xs, xs[1:])
                     if fitted[a] < 0 <= fitted[b]]
        assert crossings and all(0.3 <= a and b <= 0.5 for a, b in crossings)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(6)
        xs = np.linspace(0, 1, 15)
        ys = rng.normal(size=15)
        base = loess_fit(list(zip(xs, ys)), span=0.7, degree=1)
        scaled = loess_fit(list(zip(xs, 3.0 * ys + 1.0)), span=0.7, degree=1)
        for (x1, y1), (x2, y2) in zip(base.fitted, scaled.fitted):
            assert x1 == x2
            assert y2 == pytest.approx(3.0 * y1 + 1.0, abs=1e-8)

    def test_too_few_points_errors(self):
        with pytest.raises(StatsError):
            loess_fit([(0, 1), (1, 2)], span=1.0, degree=1)

    def test_duplicate_x_widening(self):
        pts = [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
        curve = loess_fit(pts, span=0.6, degree=1)
        fitted = dict(curve.fitted)
        assert fitted[0.0] == pytest.approx(1.0, abs=1e-6)
