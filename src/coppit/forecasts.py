"""Forecast objects: multivariate CDFs in any orthant, sampling, serialization.

Three multivariate forecast types share one interface (``dim``,
``cdf(y, signs=None)``, ``sample``, ``to_dict``):

- EnsembleForecast: the empirical measure of m member vectors; CDF counts
  are weak (<=) coordinatewise.
- GaussianForecast: a non-degenerate bivariate normal law.
- CopulaMarginalForecast: an Archimedean copula with normal margins.

``cdf(y, signs)`` evaluates the probability of the closed cone
{x : signs_i (x_i - y_i) >= 0 for all i} anchored at y; ``signs=None`` is
the lower-left orthant (all -1), the ordinary CDF.  Ensembles and Gaussians
evaluate cones by the exact reflection identity (negate the relevant
coordinates and use the plain CDF); copula-marginal forecasts use
inclusion-exclusion over the "+" coordinates.

``UnivariateForecast`` adapts a scalar margin to the same interface for
one-dimensional work, where the left-limit CDF also matters for randomized
PITs of discrete forecasts.
"""

import itertools

import numpy as np
from scipy.special import ndtr, ndtri

from .bvn import bvn_cdf
from .copulas import ArchimedeanCopula

__all__ = [
    "Normal",
    "PointMass",
    "EnsembleForecast",
    "GaussianForecast",
    "CopulaMarginalForecast",
    "UnivariateForecast",
    "forecast_from_dict",
    "apply_monotone",
    "apply_permutation",
    "margin_forecast",
    "dominance_counts",
]


# --- scalar margins ---------------------------------------------------------


class Normal:
    """Normal margin with mean mu and standard deviation sigma > 0."""

    def __init__(self, mu, sigma):
        mu, sigma = float(mu), float(sigma)
        if not (np.isfinite(mu) and np.isfinite(sigma)) or sigma <= 0.0:
            raise ValueError(f"normal margin requires finite mu and sigma > 0, got mu={mu}, sigma={sigma}")
        self.mu = mu
        self.sigma = sigma

    def cdf(self, x):
        return ndtr((np.asarray(x, dtype=float) - self.mu) / self.sigma)

    def cdf_left(self, x):
        return self.cdf(x)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        if not np.all((q > 0.0) & (q < 1.0)):
            raise ValueError("quantile levels must lie in (0, 1)")
        return self.mu + self.sigma * ndtri(q)

    def to_dict(self):
        return {"dist": "normal", "mu": self.mu, "sigma": self.sigma}

    def __eq__(self, other):
        return isinstance(other, Normal) and (self.mu, self.sigma) == (other.mu, other.sigma)

    def __repr__(self):
        return f"Normal(mu={self.mu!r}, sigma={self.sigma!r})"


class PointMass:
    """Degenerate margin at c: cdf jumps 0 -> 1 at c, left limit stays 0 at c."""

    def __init__(self, c):
        self.c = float(c)

    def cdf(self, x):
        return np.where(np.asarray(x, dtype=float) >= self.c, 1.0, 0.0)[()]

    def cdf_left(self, x):
        return np.where(np.asarray(x, dtype=float) > self.c, 1.0, 0.0)[()]

    def ppf(self, q):
        return np.full_like(np.asarray(q, dtype=float), self.c)[()]

    def __repr__(self):
        return f"PointMass({self.c!r})"


def _margin_from_dict(d):
    if not isinstance(d, dict) or d.get("dist") != "normal":
        raise ValueError(f"unsupported margin descriptor: {d!r} (expected dist 'normal')")
    extra = set(d) - {"dist", "mu", "sigma"}
    if extra:
        raise ValueError(f"unknown margin fields: {sorted(extra)}")
    if "mu" not in d or "sigma" not in d:
        raise ValueError("normal margin requires 'mu' and 'sigma'")
    return Normal(d["mu"], d["sigma"])


# --- shared helpers -----------------------------------------------------------


def _as_points(y, dim, what="y"):
    """Coerce y to (n, dim); report whether the input was a single point."""
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 0 and dim == 1:
        return arr[None, None], True
    if arr.ndim == 1:
        if dim == 1 and arr.shape[0] != 1:
            return arr[:, None], False
        if arr.shape[0] != dim:
            raise ValueError(f"{what} has dimension {arr.shape[0]}, forecast has {dim}")
        return arr[None, :], True
    if arr.ndim == 2:
        if arr.shape[1] != dim:
            raise ValueError(f"{what} has dimension {arr.shape[1]}, forecast has {dim}")
        return arr, False
    raise ValueError(f"{what} must have shape ({dim},) or (n, {dim}), got {arr.shape}")


def _as_members(points):
    """Coerce ensemble members to an (m, d) float array; 1-d input is m scalars."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError(f"ensemble points must have shape (m, d) with m >= 1, got {np.shape(points)}")
    return pts


_CHUNK_ELEMENTS = 4_000_000


def dominance_counts(points, queries):
    """#{j : points_j <= q coordinatewise} for each row q of ``queries``.

    ``points`` is (m, d) and ``queries`` (n, d), giving n counts; or both
    carry the same leading case axis, (c, m, d) and (c, n, d), giving (c, n)
    counts of each case's queries against that case's points.  The
    (c, n, m, d) comparison runs in chunks of at most ~_CHUNK_ELEMENTS
    elements; counts are exact integers.
    """
    stacked = points.ndim == 3
    if not stacked:
        points, queries = points[None], queries[None]
    c, m, d = points.shape
    n = queries.shape[1]
    rows = max(1, _CHUNK_ELEMENTS // max(1, m * d))  # query rows per chunk
    step = max(1, rows // max(1, n))  # cases per chunk; 1 when one case needs row chunks
    out = np.empty((c, n), dtype=np.int64)
    for a in range(0, c, step):
        b = min(c, a + step)
        for lo in range(0, n, rows):
            hi = min(n, lo + rows)
            le = points[a:b, None, :, :] <= queries[a:b, lo:hi, None, :]
            out[a:b, lo:hi] = le.all(axis=3).sum(axis=2)
    return out if stacked else out[0]


def _check_signs(signs, dim):
    """Cone signs as floats; None is the lower-left orthant."""
    if signs is None:
        return -np.ones(dim)
    s = np.asarray(signs, dtype=float)
    if s.shape != (dim,) or not np.all(np.isin(s, (-1.0, 1.0))):
        raise ValueError(f"cone signs must be a vector of +-1 with length {dim}, got {signs!r}")
    return s


# --- forecast types -----------------------------------------------------------


class EnsembleForecast:
    """Empirical measure of m member vectors, shape (m, d)."""

    kind = "ensemble"

    def __init__(self, points):
        pts = _as_members(points)
        if not np.all(np.isfinite(pts)):
            raise ValueError("ensemble points must be finite")
        self.points = pts.copy()
        self.m = pts.shape[0]
        self.dim = pts.shape[1]

    def cdf(self, y, signs=None):
        y_mat, single = _as_points(y, self.dim)
        pts = self.points
        if signs is not None:
            s = -_check_signs(signs, self.dim)
            pts, y_mat = pts * s, y_mat * s
        vals = dominance_counts(pts, y_mat) / self.m
        return float(vals[0]) if single else vals

    def cdf_left(self, y):
        """Strict-inequality CDF limit; defined for univariate ensembles."""
        if self.dim != 1:
            raise ValueError("cdf_left is defined for univariate ensembles only")
        y_mat, single = _as_points(y, 1)
        vals = (self.points[None, :, 0] < y_mat[:, 0][:, None]).sum(axis=1) / self.m
        return float(vals[0]) if single else vals

    def sample(self, rng, n=None):
        rows = rng.integers(0, self.m, size=1 if n is None else int(n))
        picked = self.points[rows]
        return picked[0] if n is None else picked

    def to_dict(self):
        return {"type": "ensemble", "points": self.points.tolist()}

    def __eq__(self, other):
        return isinstance(other, EnsembleForecast) and np.array_equal(self.points, other.points)

    def __repr__(self):
        return f"EnsembleForecast(m={self.m}, dim={self.dim})"


class GaussianForecast:
    """Bivariate normal forecast with non-degenerate covariance."""

    kind = "mvgauss"

    def __init__(self, mean, cov):
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mean.shape != (2,) or cov.shape != (2, 2):
            raise ValueError("mvgauss forecast is bivariate: mean (2,), cov (2, 2)")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mvgauss parameters must be finite")
        if abs(cov[0, 1] - cov[1, 0]) > 1e-12 * max(1.0, abs(cov[0, 1])):
            raise ValueError("covariance must be symmetric")
        if cov[0, 0] <= 0.0 or cov[1, 1] <= 0.0:
            raise ValueError("covariance must have positive variances")
        sds = np.sqrt(np.diag(cov))
        rho = cov[0, 1] / (sds[0] * sds[1])
        if not abs(rho) < 1.0:
            raise ValueError(f"covariance is degenerate (correlation {rho})")
        self.mean = mean.copy()
        self.cov = cov.copy()
        self._sds = sds
        self._rho = float(rho)
        self.dim = 2

    def cdf(self, y, signs=None):
        s = _check_signs(signs, 2)
        y_mat, single = _as_points(y, 2)
        h = -s * (y_mat - self.mean) / self._sds
        vals = np.atleast_1d(bvn_cdf(h[:, 0], h[:, 1], s[0] * s[1] * self._rho))
        return float(vals[0]) if single else vals

    def sample(self, rng, n=None):
        chol = np.linalg.cholesky(self.cov)
        z = rng.standard_normal((1 if n is None else int(n), 2))
        draws = self.mean + z @ chol.T
        return draws[0] if n is None else draws

    def to_dict(self):
        return {"type": "mvgauss", "mean": self.mean.tolist(), "cov": self.cov.tolist()}

    def __eq__(self, other):
        return (isinstance(other, GaussianForecast)
                and np.array_equal(self.mean, other.mean) and np.array_equal(self.cov, other.cov))

    def __repr__(self):
        return f"GaussianForecast(mean={self.mean.tolist()}, cov={self.cov.tolist()})"


class CopulaMarginalForecast:
    """Archimedean copula joined to one normal margin per coordinate."""

    kind = "copula_marginal"

    def __init__(self, copula, margins):
        if not isinstance(copula, ArchimedeanCopula):
            raise ValueError("copula must be an ArchimedeanCopula")
        margins = list(margins)
        if len(margins) != copula.dim:
            raise ValueError(f"need {copula.dim} margins for a {copula.dim}-dimensional copula, got {len(margins)}")
        if not all(isinstance(mg, Normal) for mg in margins):
            raise ValueError("margins must be Normal")
        self.copula = copula
        self.margins = margins
        self.dim = copula.dim

    def _margin_cdfs(self, y_mat):
        u = np.empty_like(y_mat)
        for j, mg in enumerate(self.margins):
            u[:, j] = mg.cdf(y_mat[:, j])
        return u

    def cdf(self, y, signs=None):
        s = _check_signs(signs, self.dim)
        y_mat, single = _as_points(y, self.dim)
        u = self._margin_cdfs(y_mat)
        plus = np.flatnonzero(s > 0)
        if plus.size > 20:
            raise ValueError("inclusion-exclusion over more than 20 '+' coordinates is intractable")
        total = np.zeros(y_mat.shape[0])
        for r in range(plus.size + 1):
            for subset in itertools.combinations(plus.tolist(), r):
                arg = u.copy()
                arg[:, plus] = 1.0
                if subset:
                    arg[:, list(subset)] = u[:, list(subset)]
                total += (-1.0) ** r * np.atleast_1d(self.copula.cdf(arg))
        vals = np.clip(total, 0.0, 1.0)
        return float(vals[0]) if single else vals

    def sample(self, rng, n=None):
        u = self.copula.sample(rng, 1 if n is None else int(n))
        draws = np.empty_like(u)
        for j, mg in enumerate(self.margins):
            draws[:, j] = mg.ppf(u[:, j])
        return draws[0] if n is None else draws

    def to_dict(self):
        return {"type": "copula_marginal", "copula": self.copula.to_dict(),
                "margins": [mg.to_dict() for mg in self.margins]}

    def __eq__(self, other):
        return (isinstance(other, CopulaMarginalForecast)
                and self.copula == other.copula and self.margins == other.margins)

    def __repr__(self):
        return f"CopulaMarginalForecast({self.copula!r}, margins={self.margins!r})"


class UnivariateForecast:
    """A scalar margin viewed as a one-dimensional forecast."""

    kind = "univariate"

    def __init__(self, margin):
        self.margin = margin
        self.dim = 1

    def _flat(self, y):
        arr = np.asarray(y, dtype=float)
        if arr.ndim == 0:
            return arr[None], True
        if arr.ndim == 1:
            return arr, False
        if arr.ndim == 2 and arr.shape[1] == 1:
            return arr[:, 0], False
        raise ValueError(f"univariate outcome must be scalar, (n,), or (n, 1); got {arr.shape}")

    def cdf(self, y, signs=None):
        flat, single = self._flat(y)
        if _check_signs(signs, 1)[0] < 0:
            vals = np.atleast_1d(self.margin.cdf(flat))
        else:
            vals = 1.0 - np.atleast_1d(self.margin.cdf_left(flat))
        return float(vals[0]) if single else vals

    def cdf_left(self, y):
        flat, single = self._flat(y)
        vals = np.atleast_1d(self.margin.cdf_left(flat))
        return float(vals[0]) if single else vals

    def sample(self, rng, n=None):
        q = rng.random((1 if n is None else int(n), 1))
        q = np.clip(q, 2.0**-53, 1.0 - 2.0**-53)
        draws = np.asarray(self.margin.ppf(q), dtype=float)
        return draws[0] if n is None else draws

    def __repr__(self):
        return f"UnivariateForecast({self.margin!r})"


# --- serialization and transforms ----------------------------------------------


def forecast_from_dict(d):
    """Build a forecast object from its JSON descriptor."""
    if not isinstance(d, dict) or "type" not in d:
        raise ValueError(f"forecast descriptor must be an object with a 'type', got {d!r}")
    t = d["type"]
    if t == "ensemble":
        extra = set(d) - {"type", "points"}
        if extra:
            raise ValueError(f"unknown ensemble fields: {sorted(extra)}")
        if "points" not in d:
            raise ValueError("ensemble descriptor requires 'points'")
        return EnsembleForecast(d["points"])
    if t == "mvgauss":
        extra = set(d) - {"type", "mean", "cov"}
        if extra:
            raise ValueError(f"unknown mvgauss fields: {sorted(extra)}")
        if "mean" not in d or "cov" not in d:
            raise ValueError("mvgauss descriptor requires 'mean' and 'cov'")
        return GaussianForecast(d["mean"], d["cov"])
    if t == "copula_marginal":
        extra = set(d) - {"type", "copula", "margins"}
        if extra:
            raise ValueError(f"unknown copula_marginal fields: {sorted(extra)}")
        if "copula" not in d or "margins" not in d:
            raise ValueError("copula_marginal descriptor requires 'copula' and 'margins'")
        copula = ArchimedeanCopula.from_dict(d["copula"])
        margins = [_margin_from_dict(m) for m in d["margins"]]
        return CopulaMarginalForecast(copula, margins)
    raise ValueError(f"unknown forecast type {t!r} (expected ensemble, mvgauss, or copula_marginal)")


def apply_monotone(forecast, transforms):
    """Transform an ensemble coordinatewise by strictly increasing maps."""
    if not isinstance(forecast, EnsembleForecast):
        raise TypeError("monotone transforms are supported for ensemble forecasts only")
    if len(transforms) != forecast.dim:
        raise ValueError(f"need {forecast.dim} transforms, got {len(transforms)}")
    cols = [np.asarray(fn(forecast.points[:, j]), dtype=float) for j, fn in enumerate(transforms)]
    return EnsembleForecast(np.column_stack(cols))


def apply_permutation(forecast, perm):
    """Permute forecast coordinates: new coordinate j is old coordinate perm[j]."""
    perm = np.asarray(perm)
    if sorted(perm.tolist()) != list(range(forecast.dim)):
        raise ValueError(f"perm must be a permutation of 0..{forecast.dim - 1}, got {perm.tolist()}")
    if isinstance(forecast, EnsembleForecast):
        return EnsembleForecast(forecast.points[:, perm])
    if isinstance(forecast, GaussianForecast):
        return GaussianForecast(forecast.mean[perm], forecast.cov[np.ix_(perm, perm)])
    if isinstance(forecast, CopulaMarginalForecast):
        # exchangeable copula: permuting margins permutes the law
        return CopulaMarginalForecast(forecast.copula, [forecast.margins[j] for j in perm])
    raise TypeError(f"cannot permute forecast of type {type(forecast).__name__}")


def margin_forecast(forecast, k):
    """The univariate forecast for coordinate k implied by a multivariate one."""
    if not isinstance(k, (int, np.integer)) or not 0 <= k < forecast.dim:
        raise ValueError(f"margin index must be in [0, {forecast.dim}), got {k!r}")
    if isinstance(forecast, EnsembleForecast):
        return EnsembleForecast(forecast.points[:, [k]])
    if isinstance(forecast, GaussianForecast):
        return UnivariateForecast(Normal(forecast.mean[k], np.sqrt(forecast.cov[k, k])))
    if isinstance(forecast, CopulaMarginalForecast):
        return UnivariateForecast(forecast.margins[k])
    if isinstance(forecast, UnivariateForecast):
        return forecast
    raise TypeError(f"cannot extract a margin from {type(forecast).__name__}")
