"""Forecast object tests: CDFs, orthants, sampling, transforms."""

import numpy as np
import pytest
from scipy import stats

from coppit import samplers as sp
from coppit.copulas import ArchimedeanCopula
from coppit.forecasts import (
    CopulaMarginalForecast,
    EnsembleForecast,
    GaussianForecast,
    Normal,
    apply_monotone,
    apply_permutation,
    margin_forecast,
)

QUADRANTS = ((-1, -1), (1, -1), (1, 1), (-1, 1))


def _gumbel_forecast(tau=0.5):
    cop = ArchimedeanCopula("gumbel", tau=tau, dim=2)
    return CopulaMarginalForecast(cop, [Normal(1.0, 2.0), Normal(-0.5, 0.7)])


# --- margins -----------------------------------------------------------------


def test_normal_margin():
    m = Normal(2.0, 3.0)
    assert m.cdf(2.0) == pytest.approx(0.5, abs=1e-15)
    assert m.ppf(0.5) == pytest.approx(2.0, abs=1e-12)
    x = np.linspace(-5, 9, 41)
    assert np.allclose(m.ppf(m.cdf(x)), x, atol=1e-9)
    with pytest.raises(ValueError):
        Normal(0.0, 0.0)
    with pytest.raises(ValueError):
        m.ppf(0.0)


def test_normal_cdf_takes_outcomes_like_every_forecast():
    """Normal.cdf reads y through the shared outcome coercion, as the
    ensemble CDF does: a one-entry y is one point, and a second coordinate
    is a dimension error."""
    m, e = Normal(0.0, 1.0), EnsembleForecast([[-1.0], [0.5], [2.0]])
    for y in (0.25, [0.25], np.array([0.25])):
        assert type(m.cdf(y)) is float and m.cdf(y) == m.cdf(0.25)
        assert type(e.cdf(y)) is float
    assert m.cdf([0.1, 0.2]).shape == m.cdf([[0.1], [0.2]]).shape == (2,)
    with pytest.raises(ValueError, match="^y has dimension 2, forecast has 1$"):
        m.cdf(np.zeros((3, 2)))


# --- ensemble -----------------------------------------------------------------


def test_ensemble_cdf_weak_inequalities():
    e = EnsembleForecast([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    # boundary points count (weak coordinatewise <=)
    assert e.cdf([1.0, 1.0]) == pytest.approx(2 / 3, abs=1e-15)
    assert e.cdf([0.0, 0.0]) == pytest.approx(1 / 3, abs=1e-15)
    assert e.cdf([-1.0, 5.0]) == 0.0
    assert e.cdf([2.0, 1.0]) == 1.0
    batch = e.cdf(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(batch, np.array([2 / 3, 1 / 3]))


def test_ensemble_orthant_reflection_is_exact():
    e = EnsembleForecast(sp.make_rng(5).normal(size=(8, 2)))
    ys = sp.make_rng(6).normal(size=(100, 2))
    for s in QUADRANTS:
        got = e.cdf(ys, s)
        manual = np.mean(np.all(np.asarray(s) * (e.points[None, :, :] - ys[:, None, :]) >= 0, axis=2), axis=1)
        assert np.array_equal(got, manual)
    assert np.array_equal(e.cdf(ys, (-1, -1)), e.cdf(ys))


def test_ensemble_univariate_left_limit():
    e = EnsembleForecast([[1.0], [1.0], [2.0]])
    assert e.cdf([1.0]) == pytest.approx(2 / 3)
    assert e.cdf_left([1.0]) == 0.0
    assert e.cdf_left([2.5]) == 1.0


def test_ensemble_validation_and_sampling():
    with pytest.raises(ValueError):
        EnsembleForecast(np.empty((0, 2)))
    with pytest.raises(ValueError):
        EnsembleForecast([[np.inf, 0.0]])
    e = EnsembleForecast([[0.0, 1.0], [2.0, 3.0]])
    x = e.sample(sp.make_rng(1), 1000)
    assert x.shape == (1000, 2)
    assert set(map(tuple, x)) <= {(0.0, 1.0), (2.0, 3.0)}
    with pytest.raises(ValueError):
        e.cdf([0.0, 0.0, 0.0])


def test_ensemble_points_never_alias_the_input():
    for given in (np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([0.5, 1.5, 2.5])):
        e = EnsembleForecast(given)
        before = e.points.copy()
        given[0] = 99.0
        assert np.array_equal(e.points, before)
        assert not np.shares_memory(e.points, given)
    members = [[0.0, 1.0], [2.0, 3.0]]
    e = EnsembleForecast(members)
    members[0][0] = 99.0
    assert e.points[0, 0] == 0.0


# --- gaussian -----------------------------------------------------------------


def test_gaussian_cdf_matches_scipy():
    g = GaussianForecast([0.5, -1.0], [[2.0, 0.8], [0.8, 1.0]])
    mvn = stats.multivariate_normal(mean=[0.5, -1.0], cov=[[2.0, 0.8], [0.8, 1.0]])
    ys = sp.make_rng(7).normal(size=(50, 2))
    assert np.allclose(g.cdf(ys), mvn.cdf(ys), atol=1e-9)


def test_gaussian_orthants_sum_to_one_and_match_mc():
    g = GaussianForecast([0.5, -1.0], [[2.0, 0.8], [0.8, 1.0]])
    y = np.array([1.2, -0.3])
    total = sum(g.cdf(y, s) for s in QUADRANTS)
    assert total == pytest.approx(1.0, abs=1e-12)
    x = g.sample(sp.make_rng(4), 200_000)
    for s in QUADRANTS:
        emp = np.mean(np.all(np.asarray(s) * (x - y) >= 0, axis=1))
        assert abs(emp - g.cdf(y, s)) <= 0.01


def test_gaussian_validation():
    with pytest.raises(ValueError):
        GaussianForecast([0.0, 0.0, 0.0], np.eye(3))  # bivariate only
    with pytest.raises(ValueError):
        GaussianForecast([0.0, 0.0], [[1.0, 0.2], [0.3, 1.0]])
    with pytest.raises(ValueError):
        GaussianForecast([0.0, 0.0], [[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        GaussianForecast([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])  # |rho| = 1


def test_gaussian_sampling_moments():
    g = GaussianForecast([1.0, -2.0], [[1.5, -0.6], [-0.6, 0.8]])
    x = g.sample(sp.make_rng(8), 100_000)
    assert np.allclose(x.mean(axis=0), [1.0, -2.0], atol=0.02)
    assert np.allclose(np.cov(x.T), [[1.5, -0.6], [-0.6, 0.8]], atol=0.03)


# --- copula-marginal ------------------------------------------------------------


def test_copula_marginal_cdf_composition():
    f = _gumbel_forecast()
    y = np.array([[1.2, -0.3], [0.0, 0.0]])
    u = np.column_stack([f.margins[0].cdf(y[:, 0]), f.margins[1].cdf(y[:, 1])])
    assert np.allclose(f.cdf(y), f.copula.cdf(u), atol=1e-15)


def test_copula_marginal_orthants():
    f = _gumbel_forecast()
    y = np.array([1.2, -0.3])
    assert sum(f.cdf(y, s) for s in QUADRANTS) == pytest.approx(1.0, abs=1e-12)
    assert f.cdf(y, (-1, -1)) == pytest.approx(f.cdf(y), abs=1e-15)
    x = f.sample(sp.make_rng(3), 200_000)
    for s in QUADRANTS:
        emp = np.mean(np.all(np.asarray(s) * (x - y) >= 0, axis=1))
        assert abs(emp - f.cdf(y, s)) <= 0.01


def test_copula_marginal_sampling_margins():
    f = _gumbel_forecast()
    x = f.sample(sp.make_rng(9), 20_000)
    assert stats.kstest(x[:, 0], "norm", args=(1.0, 2.0)).pvalue >= 0.01
    assert stats.kstest(x[:, 1], "norm", args=(-0.5, 0.7)).pvalue >= 0.01


def test_copula_marginal_validation():
    cop = ArchimedeanCopula("gumbel", theta=2.0, dim=3)
    with pytest.raises(ValueError):
        CopulaMarginalForecast(cop, [Normal(0, 1), Normal(0, 1)])
    with pytest.raises(ValueError):
        CopulaMarginalForecast("gumbel", [Normal(0, 1), Normal(0, 1)])


# --- univariate -------------------------------------------------------------------


def test_univariate_forecast():
    f = Normal(0.0, 1.0)
    assert f.cdf(0.0) == pytest.approx(0.5)
    assert f.cdf_left(0.0) == f.cdf(0.0)
    assert f.cdf(0.0, (-1,)) == pytest.approx(0.5)
    assert f.cdf(0.0, (1,)) == pytest.approx(0.5)
    x = f.sample(sp.make_rng(10), 20_000)
    assert x.shape == (20_000, 1)
    assert stats.kstest(x[:, 0], "norm").pvalue >= 0.01


# --- transforms -----------------------------------------------------------------


def test_apply_monotone_and_permutation():
    e = EnsembleForecast([[0.0, 10.0], [1.0, 11.0], [2.0, 9.0]])
    t = apply_monotone(e, [lambda v: 2.0 * v + 1.0, np.exp])
    assert np.array_equal(t.points[:, 0], [1.0, 3.0, 5.0])
    assert np.array_equal(t.points[:, 1], np.exp([10.0, 11.0, 9.0]))
    p = apply_permutation(e, [1, 0])
    assert np.array_equal(p.points, e.points[:, [1, 0]])
    assert apply_permutation(p, [1, 0]) == e
    g = GaussianForecast([1.0, 2.0], [[1.0, 0.3], [0.3, 2.0]])
    gp = apply_permutation(g, [1, 0])
    assert np.array_equal(gp.mean, [2.0, 1.0])
    assert gp.cov[0, 0] == 2.0 and gp.cov[0, 1] == 0.3
    with pytest.raises(TypeError):
        apply_monotone(g, [np.exp, np.exp])
    with pytest.raises(ValueError):
        apply_permutation(e, [0, 0])


def test_margin_forecast_consistency():
    f = _gumbel_forecast()
    g = GaussianForecast([0.5, -1.0], [[2.0, 0.8], [0.8, 1.0]])
    e = EnsembleForecast([[0.0, 5.0], [1.0, 6.0]])
    assert margin_forecast(f, 1).cdf(-0.5) == pytest.approx(0.5)
    assert margin_forecast(g, 0).cdf(0.5) == pytest.approx(0.5)
    assert margin_forecast(e, 1).cdf(5.5) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        margin_forecast(f, 2)
