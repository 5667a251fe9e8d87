"""Kendall distribution functions: K_H(w) = pr{H(X) <= w} for X ~ H.

K is the CDF of the forecast's own CDF evaluated at a draw from itself.
Both the value K(w) and the left limit K(w-) matter: the copula PIT places
a randomized point inside the jump interval [K(H(y)-), K(H(y))].

K comes in two shapes (Genest & Rivest 1993), and each has one type:

- ``KendallFn``, a continuous K given by its CDF, where K(w-) = K(w):
  - uniform_kendall: K(w) = w, exact for continuous univariate forecasts,
    which ``select_kendall`` takes for a ``Normal``;
  - analytic_kendall: the bivariate Archimedean closed form
    w - phi(w)/phi'(w).
- ``_Empirical``, the step function of a sample of H values, which it
  takes at the first evaluation; it counts for one point, and sorts once
  for many:
  - empirical_kendall: the step function of a given sample in [0, 1],
    such as the frailty draws of ``copulas.kendall_sample``;
  - monte_carlo_kendall: the sample H(X_1..n) for X_i drawn from the
    forecast; works for any forecast and any orthant direction;
  - pseudo_kendall: the ensemble's own pseudo-observations
    w_k = (1/m) #{j : x_j <= x_k coordinatewise}.  Their O(m^2 d) count
    runs at the first evaluation, so a caller that never evaluates it (the
    cli on stacked ensembles, which takes K from the counts) pays nothing
    for it.

Both types answer ``eval(w)``, K(w), and ``interval(w)``, the jump interval
(K(w-), K(w)) that the copula PIT needs, in one call.  Every argument w and
every given sample passes ``samplers._check_unit`` or ``_check_sample``.

``select_kendall`` takes the route the forecast fixes: uniform for a
``Normal``, pseudo-observations for ensembles, the closed form for
bivariate copula-marginal forecasts, Monte Carlo otherwise.
The one alternative, 'mc', estimates every forecast's by Monte Carlo.
"""

from functools import cached_property

import numpy as np

from .copulas import ArchimedeanCopula
from .forecasts import (
    CopulaMarginalForecast,
    EnsembleForecast,
    Normal,
    _as_members,
    cone_signs,
    dominance_counts,
)
from .samplers import _check_int, _check_sample, _check_unit

DEFAULT_MC_SIZE = 10_000

__all__ = [
    "DEFAULT_MC_SIZE",
    "KendallFn",
    "uniform_kendall",
    "analytic_kendall",
    "empirical_kendall",
    "monte_carlo_kendall",
    "pseudo_kendall",
    "pseudo_observations",
    "select_kendall",
]


class KendallFn:
    """A continuous Kendall function K(w) = cdf(w); without jumps K(w-) = K(w)."""

    def __init__(self, source, cdf):
        self.source = source
        self.cdf = cdf

    def eval(self, w):
        return self.cdf(_check_unit(w, "Kendall function arguments"))

    def interval(self, w):
        """(K(w-), K(w)), one CDF evaluation for both ends."""
        k = self.eval(w)
        return k, k


class _Empirical:
    """The step Kendall function of n values in [0, 1]: K(w) counts the values
    <= w and K(w-) those < w, over n.  ``sample()`` gives the values at first
    use, and the sampler is dropped then.  It counts for one point, on the
    unsorted values, and sorts once for many: the first evaluation on an
    array of points (or a read of ``values``) sorts the values, and from then
    on the Kendall function holds only its sorted values."""

    def __init__(self, source, n, sample):
        self.source = source
        self.n = n
        self._sample = sample

    @cached_property
    def _unsorted(self):
        sample = self._sample()
        del self._sample
        return sample

    @cached_property
    def values(self):
        values = np.sort(self._unsorted)
        del self._unsorted
        return values

    def _at(self, arr, side):
        """K(w) ('right') or K(w-) ('left') at each checked w of ``arr``."""
        if arr.ndim == 0 and "values" not in self.__dict__:
            sample = self._unsorted
            out = np.count_nonzero(sample <= arr if side == "right" else sample < arr) / self.n
        else:
            out = np.searchsorted(self.values, arr, side=side) / self.n
        return float(out) if arr.ndim == 0 else out

    def eval(self, w):
        return self._at(_check_unit(w, "Kendall function arguments"), "right")

    def interval(self, w):
        """(K(w-), K(w)) from one check of w."""
        arr = _check_unit(w, "Kendall function arguments")
        return self._at(arr, "left"), self._at(arr, "right")


def uniform_kendall():
    """K(w) = w: the Kendall function of any continuous univariate forecast."""
    return KendallFn("uniform", lambda w: float(w) if w.ndim == 0 else w.copy())


def analytic_kendall(copula):
    """Closed-form bivariate Archimedean Kendall function."""
    if not isinstance(copula, ArchimedeanCopula) or copula.dim != 2:
        raise ValueError("analytic Kendall functions require a bivariate Archimedean copula")
    return KendallFn("analytic", copula.kendall_cdf)


def empirical_kendall(values):
    """Empirical Kendall function of a Monte Carlo sample of H values in [0, 1]."""
    vals = _check_sample(values, "empirical Kendall sample")
    return _Empirical("mc", vals.size, lambda: vals)


def monte_carlo_kendall(forecast, rng, n=DEFAULT_MC_SIZE, signs=None):
    """Empirical Kendall function of H(X) from n forecast draws.

    With ``signs``, estimates the Kendall function of the orthant CDF
    H^signs(X) instead of the joint CDF.
    """
    x = forecast.sample(rng, _check_int(n, "n", 1))
    h = forecast.cdf(x, signs)
    return empirical_kendall(h)


def pseudo_observations(points):
    """w_k = (1/m) #{j : x_j <= x_k coordinatewise} for an (m, d) point set."""
    pts = _as_members(points)
    return dominance_counts(pts, pts) / pts.shape[0]


def pseudo_kendall(points):
    """Empirical Kendall function of an ensemble from its own pseudo-observations.

    The points are validated now; the pseudo-observations are counted at
    the first evaluation or read of ``values``, once.
    """
    pts = _as_members(points)
    return _Empirical("pseudo", pts.shape[0], lambda: pseudo_observations(pts))


def select_kendall(forecast, strategy="auto", rng=None, n=DEFAULT_MC_SIZE, signs=None):
    """Build the Kendall function for a forecast.

    The forecast fixes the route under 'auto': uniform for a ``Normal``,
    pseudo-observations for ensembles (reflected along the '+' axes of a
    cone), the closed form for bivariate copula-marginal forecasts evaluated
    on the plain CDF, and Monte Carlo otherwise.  'mc'
    estimates every forecast's Kendall function by Monte Carlo instead.
    The Monte Carlo size n is checked on every route.
    """
    if strategy not in ("auto", "mc"):
        raise ValueError(f"unknown Kendall strategy {strategy!r} (use auto or mc)")
    n = _check_int(n, "n", 1)
    if signs is not None:
        signs = cone_signs(signs, forecast.dim)
    plain = signs is None or bool(np.all(signs < 0))
    if strategy == "auto":
        if isinstance(forecast, Normal):
            return uniform_kendall()
        if isinstance(forecast, EnsembleForecast):
            # a cone CDF is the plain CDF of the ensemble reflected along the '+' axes
            return pseudo_kendall(forecast.points if plain else forecast.points * -signs)
        if isinstance(forecast, CopulaMarginalForecast) and forecast.dim == 2 and plain:
            return analytic_kendall(forecast.copula)
    if rng is None:
        raise ValueError("Monte Carlo Kendall estimation needs an rng")
    return monte_carlo_kendall(forecast, rng, n, signs)
