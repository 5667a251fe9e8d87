import numpy as np
import pytest
from scipy import stats
from scipy.special import chdtrc

from coppit.calibration import (
    HistogramResult,
    clical_curve,
    coppit,
    coppit_interval,
    histogram,
    multivariate_rank,
    pit,
    rank_histogram,
)
from coppit.copulas import ArchimedeanCopula
from coppit.forecasts import (
    CopulaMarginalForecast,
    EnsembleForecast,
    GaussianForecast,
    Normal,
    cone_signs,
)
from coppit.kendall import analytic_kendall, pseudo_kendall, select_kendall, uniform_kendall
from coppit.samplers import substream


def test_cone_signs_parsing():
    assert np.array_equal(cone_signs("sw"), [-1, -1])
    assert np.array_equal(cone_signs("se"), [1, -1])
    assert np.array_equal(cone_signs("ne"), [1, 1])
    assert np.array_equal(cone_signs("NW"), [-1, 1])
    assert np.array_equal(cone_signs("+-+"), [1, -1, 1])
    assert np.array_equal(cone_signs("--"), [-1, -1])
    assert np.array_equal(cone_signs([1, -1], dim=2), [1, -1])
    with pytest.raises(ValueError):
        cone_signs("north")
    with pytest.raises(ValueError):
        cone_signs("+-", dim=3)
    with pytest.raises(ValueError):
        cone_signs([1, 0])
    with pytest.raises(ValueError):
        cone_signs("")
    for booleans in ([True, True], [True, -1], (np.True_, 1), np.array([True, True])):
        with pytest.raises(ValueError, match="vector of \\+-1"):
            cone_signs(booleans, dim=2)
    with pytest.raises(ValueError, match="needs a dimension"):
        cone_signs(None)
    assert np.array_equal(cone_signs(None, dim=3), [-1, -1, -1])


def test_pit_discrete_interval():
    fc = EnsembleForecast(np.array([1.0, 2.0, 3.0]))
    assert pit(fc, 2.0, 0.0) == 1 / 3
    assert pit(fc, 2.0, 1.0) == 2 / 3
    assert pit(fc, 2.0, 0.5) == 0.5
    assert pit(fc, 0.0, 0.7) == 0.0
    assert pit(fc, 9.0, 0.7) == 1.0
    with pytest.raises(ValueError):
        pit(fc, 2.0, 1.5)


def test_pit_continuous_ignores_v():
    fc = Normal(1.0, 2.0)
    vals = [pit(fc, 1.5, v) for v in (0.0, 0.37, 1.0)]
    assert vals[0] == vals[1] == vals[2] == pytest.approx(stats.norm.cdf(0.25), abs=1e-14)


def test_coppit_continuous_chain():
    # gumbel theta=2 with standard normal margins at y=(0,0):
    # h = C(1/2, 1/2), u = K(h) = h * (1 - log(h)/2)
    cop = ArchimedeanCopula("gumbel", theta=2.0)
    fc = CopulaMarginalForecast(cop, [Normal(0.0, 1.0), Normal(0.0, 1.0)])
    kf = analytic_kendall(cop)
    rec = coppit(fc, kf, np.array([0.0, 0.0]), v=0.3)
    assert rec.h == pytest.approx(0.3752142272464818, abs=1e-15)
    assert rec.u == pytest.approx(0.5591176281482927, abs=1e-15)
    assert rec.k_left == rec.k_right == rec.u
    assert rec.v == 0.3
    assert rec.rank is None


def test_coppit_ensemble_jump():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
    fc = EnsembleForecast(pts)
    kf = pseudo_kendall(pts)
    y = np.array([2.5, 2.5])
    rec = coppit(fc, kf, y, v=0.5)
    assert rec.h == 0.6
    assert (rec.k_left, rec.k_right) == (0.4, 0.6)
    assert rec.u == 0.5
    assert coppit(fc, kf, y, v=0.0).u == 0.4
    assert coppit(fc, kf, y, v=1.0).u == 0.6


def test_coppit_interval_matches_kendall_evaluations():
    rng = substream(51, 0)
    for i in range(300):
        m = int(rng.integers(1, 21))
        d = int(rng.integers(1, 4))
        pts = np.round(rng.normal(size=(m, d)), 1)  # rounding forces ties
        y = np.round(rng.normal(size=d), 1)
        fc = EnsembleForecast(pts)
        kf = pseudo_kendall(pts)
        h = float(fc.cdf(y))
        assert coppit_interval(pts, y) == (kf.interval(h)[0], kf.eval(h))


def test_coppit_interval_small_cases():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert coppit_interval(pts, [0.5, 0.5]) == (0.0, 0.5)
    assert coppit_interval(pts, [-1.0, 5.0]) == (0.0, 0.0)
    assert coppit_interval(pts, [2.0, 2.0]) == (0.5, 1.0)
    assert coppit_interval(np.array([[0.0, 0.0]]), [1.0, 1.0]) == (0.0, 1.0)
    assert coppit_interval(np.array([[0.0, 0.0]]), [-1.0, -1.0]) == (0.0, 0.0)


def test_coppit_interval_orthant_reflection():
    rng = substream(51, 1)
    pts = rng.normal(size=(15, 2))
    y = rng.normal(size=2)
    assert coppit_interval(pts, y, signs=(1, 1)) == coppit_interval(-pts, -y)
    assert coppit_interval(pts, y, signs=(-1, -1)) == coppit_interval(pts, y)


def test_multivariate_rank_deterministic():
    pts = np.array([[0.0, 0.0], [5.0, 5.0]])
    y = np.array([1.0, 1.0])
    # pre-ranks: rho0=2, ensemble (1, 3) -> rank 2 without randomization
    rng = substream(52, 0)
    assert all(multivariate_rank(pts, y, rng) == 2 for _ in range(10))
    assert multivariate_rank(pts, [-1.0, -1.0], rng) == 1
    assert multivariate_rank(pts, [9.0, 9.0], rng) == 3


def test_multivariate_rank_tie_distribution():
    # y coincides with two ensemble members: pre-ranks (4 | 1, 4, 4),
    # so the rank must be uniform on {2, 3, 4}
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([1.0, 1.0])
    rng = substream(52, 1)
    ranks = np.array([multivariate_rank(pts, y, rng) for _ in range(10_000)])
    counts = np.bincount(ranks, minlength=5)
    assert counts[0] == counts[1] == 0 and counts.sum() == 10_000
    chi2 = ((counts[2:5] - 10_000 / 3) ** 2 / (10_000 / 3)).sum()
    assert chi2 < stats.chi2.ppf(0.99, 2)


def test_multivariate_rank_uniform_when_exchangeable():
    # observation drawn from the same distribution as the ensemble:
    # every rank 1..m+1 equally likely
    rng = substream(52, 2)
    m = 5
    ranks = []
    for _ in range(6_000):
        pool = rng.normal(size=(m + 1, 2))
        ranks.append(multivariate_rank(pool[:m], pool[m], rng))
    res = rank_histogram(np.array(ranks), m)
    assert res.chi2_pvalue > 0.01


def test_histogram_binning_rule():
    res = histogram(np.array([0.0, 0.05, 0.051, 1.0, 0.5]), bins=20)
    assert res.counts[0] == 2  # 0 and 0.05 both land in bin 1
    assert res.counts[1] == 1
    assert res.counts[9] == 1  # 0.5 in bin 10, interval (0.45, 0.5]
    assert res.counts[19] == 1
    assert res.counts.sum() == 5
    assert np.array_equal(res.edges, np.linspace(0, 1, 21))


def test_histogram_degenerate_statistics():
    res = histogram(np.full(4000, 0.5), bins=20)
    assert res.chi2 == 76_000.0
    assert res.chi2_df == 19
    assert res.chi2_pvalue == 0.0
    single = histogram(np.array([0.5]), bins=20)
    assert single.ks == 0.5
    assert single.n == 1


def test_histogram_uniform_sample():
    u = substream(53, 0).uniform(size=2000)
    res = histogram(u, bins=20)
    assert res.chi2_pvalue > 0.01
    assert res.ks_pvalue > 0.01
    assert res.ks == pytest.approx(stats.kstest(u, "uniform").statistic, abs=1e-12)
    assert res.ks_pvalue == pytest.approx(stats.kstest(u, "uniform").pvalue, rel=1e-6)


def test_chi2_pvalue_bits_match_scipy_stats():
    rng = substream(53, 1)
    for df in [*range(1, 61), 99, 1000]:
        bins = df + 1
        samples = [np.full(bins, 7),                               # chi2 = 0
                   np.eye(bins, dtype=int)[0] * (76_000 // df),   # chi2 = n * df
                   *(rng.poisson(lam, bins) + 1 for lam in (0.5, 3.0, 40.0, 2_000.0))]
        results = [HistogramResult(counts, np.arange(bins + 1.0)) for counts in samples]
        assert results[0].chi2 == 0.0
        for res in results:
            assert res.chi2_df == df
            assert res.chi2_pvalue == float(stats.chi2.sf(res.chi2, df))
        for x in (0.0, 76_000.0):
            assert float(chdtrc(df, x)) == float(stats.chi2.sf(x, df))
    assert HistogramResult(np.eye(20, dtype=int)[3] * 4000, np.arange(21.0)).chi2 == 76_000.0


def test_ks_pvalue_bits_match_scipy_stats():
    rng = substream(53, 2)
    for n in (1, 2, 7, 40, 141, 2000, 100_001):
        for sample in (rng.random(n), rng.random(n) ** 2):
            res = histogram(sample, bins=10)
            assert res.n == n
            assert res.ks_pvalue == float(stats.kstwo.sf(res.ks, n))
    assert rank_histogram(np.array([1, 2, 2]), m=2).ks_pvalue is None


def test_histogram_validation():
    with pytest.raises(ValueError):
        histogram(np.array([0.5, 1.2]))
    with pytest.raises(ValueError):
        histogram(np.array([]))
    with pytest.raises(ValueError):
        histogram(np.array([0.5]), bins=0)


def test_rank_histogram_counts():
    res = rank_histogram(np.array([1, 1, 2, 4, 4, 4]), m=3)
    assert np.array_equal(res.counts, [2, 1, 0, 3])
    assert res.chi2 == pytest.approx(((2 - 1.5) ** 2 + (1 - 1.5) ** 2 + 1.5**2 + (3 - 1.5) ** 2) / 1.5)
    assert res.chi2_df == 3
    assert res.ks is None
    with pytest.raises(ValueError):
        rank_histogram(np.array([0, 1]), m=3)
    with pytest.raises(ValueError):
        rank_histogram(np.array([5]), m=3)


def test_coppit_near_uniform_for_large_ensembles():
    # exchangeable case: the ensemble copula PIT is uniform only in the
    # large-m limit (small m leaves an atom at u=0 where no member
    # dominates), so assert closeness of the ECDF rather than a p-value
    rng = substream(54, 0)
    vstream = substream(54, 1)
    us = np.empty(1200)
    for j in range(1200):
        pts = rng.normal(size=(200, 2))
        y = rng.normal(size=2)
        fc = EnsembleForecast(pts)
        rec = coppit(fc, select_kendall(fc), y, v=float(vstream.uniform()))
        us[j] = rec.u
    res = histogram(us, bins=10)
    assert res.ks <= 0.05


def test_coppit_small_ensemble_atom_at_zero():
    # with m members, about (1 - h)^m of cases have no dominating member,
    # collapsing the jump interval to [0, 0]: u == 0 exactly
    pts = substream(54, 2).normal(size=(5, 2))
    fc = EnsembleForecast(pts)
    rec = coppit(fc, select_kendall(fc), np.array([-10.0, -10.0]), v=0.9)
    assert rec.h == 0.0
    assert (rec.k_left, rec.k_right) == (0.0, 0.0)
    assert rec.u == 0.0


def test_coppit_directional_gaussian():
    # centered Gaussian: NE-cone u values are uniform too when the Kendall
    # function is estimated in the same direction
    fc = GaussianForecast([0.0, 0.0], [[1.0, 0.6], [0.6, 1.0]])
    signs = cone_signs("ne")
    kf = select_kendall(fc, "mc", rng=substream(55, 0), n=20_000, signs=signs)
    rng = substream(55, 1)
    vs = substream(55, 2)
    us = np.array(
        [
            coppit(fc, kf, y, v=float(vs.uniform()), signs=signs).u
            for y in fc.sample(rng, 1200)
        ]
    )
    assert histogram(us, bins=10).ks_pvalue > 0.01


def test_clical_curve_shared_kendall():
    cop = ArchimedeanCopula("gumbel", tau=0.4)
    fc = CopulaMarginalForecast(cop, [Normal(0.0, 1.0), Normal(0.0, 1.0)])
    y = fc.sample(substream(56, 0), 1500)
    h = fc.cdf(y)
    grid = np.linspace(0.0, 1.0, 101)
    curve = clical_curve(h, analytic_kendall(cop).eval(grid), grid)
    assert curve.max_abs_gap <= 0.04
    assert curve.grid.size == 101
    assert curve.lhs[0] == 0.0 and curve.lhs[-1] == 1.0
    assert curve.rhs[-1] == 1.0


def test_clical_curve_per_case_and_gap():
    # two degenerate cases with known step functions
    h = np.array([0.2, 0.6])
    grid = np.array([0.0, 0.5, 1.0])
    kf = uniform_kendall()
    mean_k = np.mean([kf.eval(grid), kf.eval(grid)], axis=0)
    curve = clical_curve(h, mean_k, grid)
    assert np.array_equal(curve.lhs, [0.0, 0.5, 1.0])
    assert np.array_equal(curve.rhs, [0.0, 0.5, 1.0])
    assert curve.max_abs_gap == 0.0
    shifted = clical_curve(np.array([0.9, 0.95]), mean_k, grid)
    assert shifted.max_abs_gap == 0.5  # lhs 0 vs rhs 0.5 at w=0.5
    mixed = clical_curve(h, np.mean([kf.eval(grid), grid**2], axis=0), grid)
    assert np.array_equal(mixed.rhs, [0.0, 0.375, 1.0])
    assert mixed.max_abs_gap == 0.125  # lhs 0.5 vs rhs 0.375 at w=0.5


def test_clical_curve_validation():
    grid = np.array([0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        clical_curve(np.array([0.5, 1.3]), grid, grid)
    with pytest.raises(ValueError, match="shape"):
        clical_curve(np.array([0.5, 0.6]), grid[:2], grid)
    with pytest.raises(ValueError, match="shape"):
        clical_curve(np.array([0.5, 0.6]), np.stack([grid, grid]), grid)
    with pytest.raises(ValueError):
        clical_curve(np.array([0.5]), np.array([0.5, 1.0]), np.array([0.5, 2.0]))


def test_coppit_v_validation():
    fc = EnsembleForecast(np.zeros((3, 2)))
    kf = pseudo_kendall(fc.points)
    with pytest.raises(ValueError):
        coppit(fc, kf, np.zeros(2), v=-0.1)
    with pytest.raises(ValueError):
        coppit(fc, kf, np.zeros(2), v=1.1)
