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
    forecast; works for any forecast and any orthant direction.  The draws
    are taken when it is built and H is evaluated at first use; a Gaussian
    forecast counts one point through ``bvn_cdf``'s Frechet bounds, so only
    the draws whose bounds hold the point run the quadrature;
  - pseudo_kendall: the ensemble's own pseudo-observations
    w_k = (1/m) #{j : x_j <= x_k coordinatewise}.  Their O(m^2 d) count
    runs at the first evaluation, so a caller that never evaluates it (the
    cli on stacked ensembles, which takes K from the counts) pays nothing
    for it.

Both types answer ``eval(w)``, K(w), and ``interval(w)``, the jump interval
(K(w-), K(w)) that the copula PIT needs, in one call.  Every argument w and
every given sample passes ``samplers._check_unit`` or ``_check_sample``.

``select_kendall`` takes the route the forecast fixes, which
``kendall_route`` names: uniform for a ``Normal``, pseudo-observations for
ensembles, the closed form for bivariate copula-marginal forecasts, Monte
Carlo otherwise.  The one alternative, 'mc', estimates every forecast's by
Monte Carlo.  ``analytic_kendall_rows`` evaluates the closed form of many
copulas at once, one ``kendall_cdf`` call per family, with the bits of
each copula's own ``analytic_kendall``.
"""

from functools import cached_property, partial

import numpy as np

from .copulas import ArchimedeanCopula, kendall_cdf
from .forecasts import (
    CopulaMarginalForecast,
    EnsembleForecast,
    GaussianForecast,
    Normal,
    _as_members,
    _groups,
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
    "analytic_kendall_rows",
    "empirical_kendall",
    "monte_carlo_kendall",
    "pseudo_kendall",
    "pseudo_observations",
    "kendall_route",
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
    use, and the sampler is dropped then.  It counts for one point and sorts
    once for many.  One point is counted by ``count(w)``, the pair
    (#values < w, #values <= w), when the caller has a way to count without
    every value; else on the unsorted values.  The first evaluation on an
    array of points (or a read of ``values``) sorts the values, and from then
    on the Kendall function holds only its sorted values."""

    def __init__(self, source, n, sample, count=None):
        self.source = source
        self.n = n
        self._sample = sample
        self._count = count

    @cached_property
    def _unsorted(self):
        sample = self._sample()
        del self._sample
        return sample

    @cached_property
    def values(self):
        values = np.sort(self._unsorted)
        del self._unsorted
        self._count = None
        return values

    def _counts(self, arr):
        """(#values < w, #values <= w) at each checked w of ``arr``; one
        point is counted before any sort."""
        if arr.ndim == 0 and "values" not in self.__dict__:
            if self._count is not None:
                return self._count(arr)
            sample = self._unsorted
            return np.count_nonzero(sample < arr), np.count_nonzero(sample <= arr)
        return tuple(np.searchsorted(self.values, arr, side=side) for side in ("left", "right"))

    def interval(self, w):
        """(K(w-), K(w)) from one check of w, as floats for one w."""
        arr = _check_unit(w, "Kendall function arguments")
        out = tuple(c / self.n for c in self._counts(arr))
        return tuple(map(float, out)) if arr.ndim == 0 else out

    def eval(self, w):
        return self.interval(w)[1]


def uniform_kendall():
    """K(w) = w: the Kendall function of any continuous univariate forecast."""
    return KendallFn("uniform", lambda w: float(w) if w.ndim == 0 else w.copy())


def analytic_kendall(copula):
    """Closed-form bivariate Archimedean Kendall function."""
    if not isinstance(copula, ArchimedeanCopula) or copula.dim != 2:
        raise ValueError("analytic Kendall functions require a bivariate Archimedean copula")
    return KendallFn("analytic", copula.kendall_cdf)


def analytic_kendall_rows(copulas, w):
    """K_i(w_i) of bivariate copula i at row i of w, (n,) or (n, g): one
    ``kendall_cdf`` call per family, each copula's theta in its rows.  The
    values carry the bits of each copula's own ``analytic_kendall``."""
    w = _check_unit(w, "Kendall function arguments")
    out = np.empty(w.shape)
    for family, idx in _groups([c.family for c in copulas]).items():
        thetas = [copulas[i].theta for i in idx]  # None for the independence family
        theta = None if thetas[0] is None else np.array(thetas).reshape((-1,) + (1,) * (w.ndim - 1))
        out[idx] = kendall_cdf(family, w[idx], theta)
    return out


def empirical_kendall(values):
    """Empirical Kendall function of a Monte Carlo sample of H values in [0, 1]."""
    vals = _check_sample(values, "empirical Kendall sample")
    return _Empirical("mc", vals.size, lambda: vals)


def monte_carlo_kendall(forecast, rng, n=DEFAULT_MC_SIZE, signs=None):
    """Empirical Kendall function of H(X) from n forecast draws.

    With ``signs``, estimates the Kendall function of the orthant CDF
    H^signs(X) instead of the joint CDF.  The n draws are taken now, and
    H(X) is evaluated at first use.  A ``GaussianForecast`` counts one point
    through ``bvn_cdf_counts``, which settles each draw by the cheapest exact
    bound that decides it (its score against ndtri of the point, then the
    Frechet bounds, then a Slepian-Plackett bracket around Phi(h) Phi(k)),
    so only the draws that none of them settles run the quadrature (8% on
    the bench's seed-1 archive, where half need no ``ndtr``); a grid, or a
    read of ``values``, evaluates H at every draw.
    """
    if signs is not None:
        signs = cone_signs(signs, forecast.dim)
    x = forecast.sample(rng, _check_int(n, "n", 1))
    count = partial(forecast._cdf_counts, x, signs=signs) if isinstance(
        forecast, GaussianForecast) else None
    return _Empirical("mc", len(x), lambda: _check_sample(forecast.cdf(x, signs),
                                                         "empirical Kendall sample"), count)


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


def kendall_route(forecast, strategy="auto", signs=None):
    """The route ``select_kendall`` takes for the forecast: 'uniform',
    'pseudo', 'analytic' or 'mc'.

    The forecast fixes it under 'auto': uniform for a ``Normal``,
    pseudo-observations for ensembles, the closed form for bivariate
    copula-marginal forecasts evaluated on the plain CDF, and Monte Carlo
    otherwise.  'mc' takes Monte Carlo for every forecast.
    """
    if strategy not in ("auto", "mc"):
        raise ValueError(f"unknown Kendall strategy {strategy!r} (use auto or mc)")
    if strategy == "auto":
        if isinstance(forecast, Normal):
            return "uniform"
        if isinstance(forecast, EnsembleForecast):
            return "pseudo"
        plain = signs is None or bool(np.all(cone_signs(signs, forecast.dim) < 0))
        if isinstance(forecast, CopulaMarginalForecast) and forecast.dim == 2 and plain:
            return "analytic"
    return "mc"


def select_kendall(forecast, strategy="auto", rng=None, n=DEFAULT_MC_SIZE, signs=None):
    """Build the Kendall function for a forecast on its ``kendall_route``;
    an ensemble's pseudo-observations are reflected along the '+' axes of a
    cone.  The Monte Carlo size n is checked on every route.
    """
    route = kendall_route(forecast, strategy, signs)
    n = _check_int(n, "n", 1)
    if signs is not None:
        signs = cone_signs(signs, forecast.dim)
    if route == "uniform":
        return uniform_kendall()
    if route == "pseudo":
        # a cone CDF is the plain CDF of the ensemble reflected along the '+' axes
        plain = signs is None or bool(np.all(signs < 0))
        return pseudo_kendall(forecast.points if plain else forecast.points * -signs)
    if route == "analytic":
        return analytic_kendall(forecast.copula)
    if rng is None:
        raise ValueError("Monte Carlo Kendall estimation needs an rng")
    return monte_carlo_kendall(forecast, rng, n, signs)
