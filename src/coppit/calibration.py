"""Calibration diagnostics for multivariate probabilistic forecasts.

The central object is the copula probability integral transform: push the
observation through the forecast CDF, h = H(y), then through the forecast's
Kendall distribution function, randomizing across any jump,

    u = K(h-) + v * (K(h) - K(h-)),      v ~ uniform(0, 1).

Under a calibrated forecast u is uniform on (0, 1), so departures show up in
a histogram of u values exactly as univariate PIT miscalibration does.  The
same machinery supports orthant directions other than the lower-left one
(``signs``), multivariate rank histograms with randomized tie-breaking, and
a climatological calibration curve that compares the pooled distribution of
h values, the step Kendall function ``empirical_kendall(h)``, against the
case-averaged Kendall function, which the caller evaluates on the curve's
grid.  Every producer of copula PIT values returns them as ``Records``
columns (h, k_left, k_right, v, u, rank), and ``randomize`` is the one
place u is computed.  Histogram and curve results store only what the data
fixes and derive their statistics on access; only the KS p-value imports
``scipy.stats``.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import chdtrc

from .forecasts import _as_members, cone_signs, dominance_counts
from .kendall import empirical_kendall
from .samplers import _check_finite, _check_int, _check_sample, _check_unit

__all__ = [
    "Records",
    "HistogramResult",
    "ClicalCurve",
    "randomize",
    "pit",
    "coppit",
    "coppit_interval",
    "EnsembleCounts",
    "ensemble_counts",
    "multivariate_rank",
    "histogram",
    "rank_histogram",
    "clical_curve",
]


def randomize(lo, hi, v):
    """The point lo + v * (hi - lo) of the jump interval [lo, hi].

    The single place where a (copula) PIT is randomized across a jump;
    scalars and arrays alike.
    """
    return lo + v * (hi - lo)


def _same(a, b):
    return a is b if a is None or b is None else np.array_equal(a, b)


@dataclass(eq=False)
class Records:
    """Copula PIT records as columns: row i is the jump interval
    [k_left[i], k_right[i]] of a Kendall function at h[i] = H(y_i) and the
    value u[i] randomized inside it at position v[i].

    ``u`` defaults to ``randomize(k_left, k_right, v)``.  ``rank`` is None
    when no row has a multivariate rank; otherwise an integer column in
    which 0 marks a row without one.  ``coppit`` returns a one-case record
    whose fields are plain floats.
    """

    COLUMNS = ("h", "k_left", "k_right", "v", "u", "rank")

    h: np.ndarray
    k_left: np.ndarray
    k_right: np.ndarray
    v: np.ndarray
    u: Optional[np.ndarray] = None
    rank: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.u is None:
            self.u = randomize(self.k_left, self.k_right, self.v)

    def __len__(self):
        return int(np.size(self.h))

    def __eq__(self, other):
        if not isinstance(other, Records):
            return NotImplemented
        return all(_same(getattr(self, c), getattr(other, c)) for c in self.COLUMNS)

    @classmethod
    def stack(cls, rows):
        """Records of a sequence of one-case records, in order."""
        rows = list(rows)
        cols = {c: np.array([getattr(r, c) for r in rows], dtype=float) for c in cls.COLUMNS[:5]}
        if any(r.rank is not None for r in rows):
            cols["rank"] = np.array([0 if r.rank is None else r.rank for r in rows], dtype=int)
        return cls(**cols)


@dataclass
class HistogramResult:
    """Bin counts over ``edges`` and the KS statistic of the sample behind
    them (None for rank histograms); n and the chi-square test against flat
    bins derive from the counts."""

    counts: np.ndarray
    edges: np.ndarray
    ks: Optional[float] = None

    @property
    def n(self):
        return int(self.counts.sum())

    @property
    def chi2(self):
        expected = self.n / self.counts.size
        return float(((self.counts - expected) ** 2 / expected).sum())

    @property
    def chi2_df(self):
        return self.counts.size - 1

    @property
    def chi2_pvalue(self):
        return float(chdtrc(self.chi2_df, self.chi2))

    @property
    def ks_pvalue(self):
        """Exact KS p-value; imports ``scipy.stats`` on use, as it is most of the import time."""
        if self.ks is None:
            return None
        from scipy import stats

        return float(stats.kstwo.sf(self.ks, self.n))


@dataclass
class ClicalCurve:
    grid: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def max_abs_gap(self):
        return float(np.max(np.abs(self.lhs - self.rhs)))


def pit(forecast, y, v):
    """Randomized univariate PIT, F(y-) + v * (F(y) - F(y-))."""
    v = _check_unit(v, "randomization draws v")
    out = randomize(forecast.cdf_left(y), forecast.cdf(y), v)
    return float(out) if np.ndim(out) == 0 else out


def coppit(forecast, kendall_fn, y, v, signs=None):
    """Copula PIT of one observation under one forecast, as a one-case record.

    ``kendall_fn`` must describe the same direction as ``signs``; use
    ``select_kendall`` with matching arguments to build it.
    """
    v = float(_check_unit(v, "randomization draw v"))
    h = float(forecast.cdf(y, signs))
    k_left, k_right = kendall_fn.interval(h)
    return Records(h, float(k_left), float(k_right), v)


class EnsembleCounts(NamedTuple):
    """Integer counts behind the copula PIT and the rank of stacked ensemble
    cases, one entry per case; m is the member count.

    ``h`` counts the members below the observation, so H(y) = h / m.  With
    w_k the pseudo-observation of member k, ``k_left`` and ``k_right`` count
    the members with w_k < H(y) and w_k <= H(y), so the jump interval
    [K(H(y)-), K(H(y))] of the ensemble's own empirical Kendall function is
    [k_left, k_right] / m.  ``below`` and ``tied`` count the members whose
    pre-rank in the pooled set (members and observation) is below or equal
    to the observation's; in one dimension below / m is H(y-).  ``members``
    is (n, m): member k's count m w_k of the members at or below it, from
    which the cli evaluates each case's Kendall function on a grid.
    """

    h: np.ndarray
    k_left: np.ndarray
    k_right: np.ndarray
    below: np.ndarray
    tied: np.ndarray
    members: np.ndarray


def _tie_ranks(below, offsets):
    """Ranks in 1..m+1 from ``EnsembleCounts.below``, given each case's
    uniform tie-break offset ``offsets[i]`` in 0..tied[i]."""
    return 1 + below + offsets


def ensemble_counts(points, y, signs=None):
    """``EnsembleCounts`` of n ensemble cases that share a member count.

    ``points`` is (n, m, d) and ``y`` is (n, d).  Every pooled point is
    counted against the members once, plus against the observation for
    the pre-ranks; with ``signs`` all points are first reflected into the
    cone, which turns the cone CDF into the plain one.
    """
    pts = np.asarray(points, dtype=float)
    yv = _check_finite(y, "outcome coordinates")
    if pts.ndim != 3 or min(pts.shape[1:]) < 1 or yv.shape != (pts.shape[0], pts.shape[2]):
        raise ValueError(f"need points (n, m, d) and y (n, d) with m, d >= 1, got {pts.shape} "
                         f"and {yv.shape}")
    pooled = np.concatenate([pts, yv[:, None, :]], axis=1)
    if signs is not None:
        pooled = pooled * -cone_signs(signs, dim=pts.shape[2])
    cnt = dominance_counts(pooled[:, :-1], pooled)  # the observation's count is last
    rho = cnt + dominance_counts(pooled[:, -1:], pooled)  # pre-ranks count the observation too
    members, h = cnt[:, :-1], cnt[:, -1:]
    pre = rho[:, -1:]
    return EnsembleCounts(h[:, 0], (members < h).sum(axis=1), (members <= h).sum(axis=1),
                          (rho[:, :-1] < pre).sum(axis=1), (rho[:, :-1] == pre).sum(axis=1), members)


def _one_case(points, y, signs):
    pts = _as_members(points)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if yv.size != pts.shape[1]:
        raise ValueError(f"observation has {yv.size} coordinates, ensemble has {pts.shape[1]}")
    return pts.shape[0], ensemble_counts(pts[None], yv[None], signs)


def multivariate_rank(points, y, rng, signs=None):
    """Rank of the observation's pre-rank among the ensemble's, ties random.

    Pre-ranks count coordinatewise domination within the pooled set; the
    returned rank is uniform over the positions the observation could take
    among tied pre-ranks, an integer in 1..m+1.
    """
    _, c = _one_case(points, y, signs)
    return int(_tie_ranks(c.below, rng.integers(0, c.tied + 1))[0])


def coppit_interval(points, y, signs=None):
    """Jump interval of the ensemble copula PIT, computed from pre-ranks.

    Removing the observation's own contribution from each pre-rank leaves
    the member counts below each member and below the observation; comparing
    them yields exactly the pair (K_m(H(y)-), K_m(H(y))) under the ensemble's
    own empirical Kendall function.
    """
    m, c = _one_case(points, y, signs)
    return (int(c.k_left[0]) / m, int(c.k_right[0]) / m)


def histogram(values, bins=20):
    """Fixed-width histogram of values in [0, 1] with uniformity statistics.

    Bin i covers ((i-1)/B, i/B], with 0 folded into the first bin.  The
    chi-square statistic compares counts against the flat expectation; the
    Kolmogorov-Smirnov statistic compares the sample against the uniform
    distribution.
    """
    vals = _check_sample(values, "histogram values")
    bins = _check_int(bins, "bins", 1)
    n = vals.size
    idx = np.clip(np.ceil(vals * bins).astype(int) - 1, 0, bins - 1)
    srt = np.sort(vals)
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    ks = float(max(np.max(grid_hi - srt), np.max(srt - grid_lo)))
    return HistogramResult(np.bincount(idx, minlength=bins), np.linspace(0.0, 1.0, bins + 1), ks)


def rank_histogram(ranks, m):
    """Histogram of integer ranks over the m+1 possible positions."""
    m = _check_int(m, "m", 1)
    r = np.asarray(ranks)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("rank histogram needs a non-empty 1-d sample")
    if not np.all((r == np.floor(r)) & (r >= 1) & (r <= m + 1)):
        raise ValueError(f"ranks must be integers in 1..{m + 1}")
    return HistogramResult(np.bincount(r.astype(int) - 1, minlength=m + 1), np.arange(1, m + 3) - 0.5)


def clical_curve(h_obs, mean_k, grid):
    """Climatological copula-calibration curve.

    Compares the pooled empirical CDF of the h = H_j(y_j) values, the step
    function ``empirical_kendall(h)`` (lhs), against ``mean_k``, the
    case-averaged Kendall function evaluated on ``grid`` (rhs); for a
    calibrated system the two coincide.
    """
    pooled = empirical_kendall(h_obs)
    grid = _check_sample(grid, "grid")
    rhs = _check_unit(mean_k, "mean Kendall function")
    if rhs.shape != grid.shape:
        raise ValueError(f"mean Kendall function has shape {rhs.shape}, grid has {grid.shape}")
    return ClicalCurve(grid=grid, lhs=pooled.eval(grid), rhs=rhs)
