"""Kendall distribution functions: K_H(w) = pr{H(X) <= w} for X ~ H.

K is the CDF of the forecast's own CDF evaluated at a draw from itself.
Both the value K(w) and the left limit K(w-) matter: the copula PIT places
a randomized point inside the jump interval [K(H(y)-), K(H(y))].

Construction routes:

- uniform_kendall: K(w) = w, exact for continuous univariate forecasts.
- analytic_kendall: bivariate Archimedean closed form w - phi(w)/phi'(w).
- monte_carlo_kendall: empirical CDF of H(X_1..n) for X_i sampled from the
  forecast; works for any forecast and any orthant direction.
- archimedean_mc_kendall: the same for a d-dimensional Archimedean copula,
  sampled through the frailty identity.
- empirical_kendall: the empirical CDF of a given sample of H values; the
  Monte Carlo routes are built on it.
- pseudo_kendall: the empirical Kendall function of an ensemble, built from
  pseudo-observations w_k = (1/m) #{j : x_j <= x_k coordinatewise}.  The
  O(m^2 d) count runs at the first evaluation, not at construction, so a
  caller that never evaluates it (``coppit`` on stacked ensembles) pays
  nothing for it.

``select_kendall`` takes the route the forecast fixes: uniform for
univariate continuous forecasts, pseudo-observations for ensembles, the
closed form for bivariate copula-marginal forecasts, Monte Carlo otherwise.
The one alternative, 'mc', estimates every forecast's by Monte Carlo.
"""

from functools import cached_property

import numpy as np

from .copulas import ArchimedeanCopula, kendall_sample
from .forecasts import (
    CopulaMarginalForecast,
    EnsembleForecast,
    UnivariateForecast,
    _as_members,
    cone_signs,
    dominance_counts,
)

DEFAULT_MC_SIZE = 10_000

__all__ = [
    "DEFAULT_MC_SIZE",
    "KendallFn",
    "uniform_kendall",
    "analytic_kendall",
    "empirical_kendall",
    "monte_carlo_kendall",
    "archimedean_mc_kendall",
    "pseudo_kendall",
    "pseudo_observations",
    "select_kendall",
]


def _check_w(w):
    arr = np.asarray(w, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("Kendall function arguments must lie in [0, 1]")
    return arr


class KendallFn:
    """A Kendall distribution function with value and left-limit evaluation."""

    def __init__(self, source):
        self.source = source

    def eval(self, w):
        raise NotImplementedError

    def eval_left(self, w):
        raise NotImplementedError


class _Uniform(KendallFn):
    def __init__(self):
        super().__init__("uniform")

    def eval(self, w):
        arr = _check_w(w)
        return float(arr) if arr.ndim == 0 else arr.copy()

    eval_left = eval


class _Analytic(KendallFn):
    def __init__(self, copula):
        if not isinstance(copula, ArchimedeanCopula) or copula.dim != 2:
            raise ValueError("analytic Kendall functions require a bivariate Archimedean copula")
        super().__init__("analytic")
        self.copula = copula

    def eval(self, w):
        return self.copula.kendall_cdf(_check_w(w))

    eval_left = eval  # continuous: no jumps


class _Empirical(KendallFn):
    def __init__(self, values, source):
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("empirical Kendall function needs a non-empty 1-d sample")
        if not np.all((vals >= 0.0) & (vals <= 1.0)):
            raise ValueError("empirical Kendall sample must lie in [0, 1]")
        super().__init__(source)
        self.values = np.sort(vals)
        self.n = vals.size

    def eval(self, w):
        arr = _check_w(w)
        out = np.searchsorted(self.values, arr, side="right") / self.n
        return float(out) if arr.ndim == 0 else out

    def eval_left(self, w):
        arr = _check_w(w)
        out = np.searchsorted(self.values, arr, side="left") / self.n
        return float(out) if arr.ndim == 0 else out


class _Pseudo(_Empirical):
    """Pseudo-observation Kendall function whose sample is counted on first use."""

    def __init__(self, points):
        KendallFn.__init__(self, "pseudo")
        self._points = _as_members(points)
        self.n = self._points.shape[0]

    @cached_property
    def values(self):
        return np.sort(pseudo_observations(self._points))


def uniform_kendall():
    """K(w) = w: the Kendall function of any continuous univariate forecast."""
    return _Uniform()


def analytic_kendall(copula):
    """Closed-form bivariate Archimedean Kendall function."""
    return _Analytic(copula)


def empirical_kendall(values):
    """Empirical Kendall function of a Monte Carlo sample of H values in [0, 1]."""
    return _Empirical(values, "mc")


def monte_carlo_kendall(forecast, rng, n=DEFAULT_MC_SIZE, signs=None):
    """Empirical Kendall function of H(X) from n forecast draws.

    With ``signs``, estimates the Kendall function of the orthant CDF
    H^signs(X) instead of the joint CDF.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"Monte Carlo sample size must be positive, got {n}")
    x = forecast.sample(rng, n)
    h = forecast.cdf(x, signs)
    return empirical_kendall(h)


def archimedean_mc_kendall(family, theta, dim, rng, n=DEFAULT_MC_SIZE):
    """Empirical Kendall function of a d-dimensional Archimedean copula.

    Samples the Kendall distribution directly through the frailty identity
    instead of evaluating the copula CDF at each draw; the result is
    distributed identically to ``monte_carlo_kendall`` on a copula-marginal
    forecast but far cheaper in high dimension.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"Monte Carlo sample size must be positive, got {n}")
    return empirical_kendall(kendall_sample(family, rng, theta=theta, dim=dim, n=n))


def pseudo_observations(points):
    """w_k = (1/m) #{j : x_j <= x_k coordinatewise} for an (m, d) point set."""
    pts = _as_members(points)
    return dominance_counts(pts, pts) / pts.shape[0]


def pseudo_kendall(points):
    """Empirical Kendall function of an ensemble from its own pseudo-observations.

    The points are validated now; the pseudo-observations are counted and
    sorted at the first ``eval``, ``eval_left`` or ``values``, once.
    """
    return _Pseudo(points)


def select_kendall(forecast, strategy="auto", rng=None, n=DEFAULT_MC_SIZE, signs=None):
    """Build the Kendall function for a forecast.

    The forecast fixes the route under 'auto': uniform for univariate
    continuous forecasts, pseudo-observations for ensembles (reflected along
    the '+' axes of a cone), the closed form for bivariate copula-marginal
    forecasts evaluated on the plain CDF, and Monte Carlo otherwise.  'mc'
    estimates every forecast's Kendall function by Monte Carlo instead.
    """
    if strategy not in ("auto", "mc"):
        raise ValueError(f"unknown Kendall strategy {strategy!r} (use auto or mc)")
    if signs is not None:
        signs = cone_signs(signs, forecast.dim)
    plain = signs is None or bool(np.all(signs < 0))
    if strategy == "auto":
        if isinstance(forecast, UnivariateForecast):
            return uniform_kendall()
        if isinstance(forecast, EnsembleForecast):
            # a cone CDF is the plain CDF of the ensemble reflected along the '+' axes
            return pseudo_kendall(forecast.points if plain else forecast.points * -signs)
        if isinstance(forecast, CopulaMarginalForecast) and forecast.dim == 2 and plain:
            return analytic_kendall(forecast.copula)
    if rng is None:
        raise ValueError("Monte Carlo Kendall estimation needs an rng")
    return monte_carlo_kendall(forecast, rng, n, signs)
