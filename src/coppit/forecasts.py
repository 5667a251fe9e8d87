"""Forecast objects: multivariate CDFs in any orthant, and sampling.

Three multivariate forecast types share one interface (``dim``,
``cdf(y, signs=None)``, and ``sample(rng, n)``, which returns n draws as an
(n, dim) array), and ``io`` reads and writes their JSON descriptors:

- EnsembleForecast: the empirical measure of m member vectors; CDF counts
  are weak (<=) coordinatewise.
- GaussianForecast: a non-degenerate bivariate normal law.
- CopulaMarginalForecast: an Archimedean copula with normal margins.

``cdf(y, signs)`` evaluates the probability of the closed cone
{x : signs_i (x_i - y_i) >= 0 for all i} anchored at y.  Ensembles and
Gaussians evaluate cones by the exact reflection identity (negate the
relevant coordinates and use the plain CDF); copula-marginal forecasts use
inclusion-exclusion over the "+" coordinates.  ``cone_signs`` is the one
parser of a cone direction; every ``cdf``, ``select_kendall``,
``monte_carlo_kendall`` and ``ensemble_counts`` resolves ``signs`` through
it, so each accepts the same specs:

- None: the lower-left orthant (all -1), the ordinary CDF;
- a quadrant name 'sw', 'se', 'ne' or 'nw' (d = 2; the first letter places
  the second coordinate south/north, the second the first west/east);
- a string of '+'/'-' characters, one per coordinate;
- a sequence of +-1 values (not booleans), one per coordinate.

``Normal`` is both the margin of a copula-marginal forecast and the one
univariate forecast: it has the same interface with ``dim = 1``, plus the
left-limit CDF that randomized PITs take.  Every CDF takes only finite
outcomes: y passes ``samplers._check_finite`` in ``Normal.cdf`` and in
``_as_points``, behind every other ``cdf`` and ``cdf_left``.
"""

import itertools

import numpy as np
from scipy.special import ndtr, ndtri

from .bvn import bvn_cdf, bvn_cdf_counts
from .copulas import ArchimedeanCopula, copula_cdf
from .samplers import _check_finite, _check_int

__all__ = [
    "Normal",
    "EnsembleForecast",
    "GaussianForecast",
    "CopulaMarginalForecast",
    "apply_monotone",
    "apply_permutation",
    "margin_forecast",
    "cdf_rows",
    "dominance_counts",
    "cone_signs",
]


# --- scalar margins ---------------------------------------------------------


class Normal:
    """Normal law with mean mu and standard deviation sigma > 0: a margin, and
    the univariate forecast.  Its outcomes pass ``_as_points``: a scalar or
    one-entry y gives a float, an (n,) or (n, 1) one gives n values; the
    '+' cone's CDF is 1 - F(y-)."""

    dim = 1

    def __init__(self, mu, sigma):
        mu, sigma = float(mu), float(sigma)
        if not (np.isfinite(mu) and np.isfinite(sigma)) or sigma <= 0.0:
            raise ValueError(f"normal margin requires finite mu and sigma > 0, got mu={mu}, sigma={sigma}")
        self.mu = mu
        self.sigma = sigma

    def cdf(self, y, signs=None):
        x, single = _as_points(y, 1)
        vals = ndtr((x[:, 0] - self.mu) / self.sigma)
        if signs is not None and cone_signs(signs, 1)[0] > 0:
            vals = 1.0 - vals
        return float(vals[0]) if single else vals

    def cdf_left(self, y):
        return self.cdf(y)

    def sample(self, rng, n):
        return self.ppf(np.clip(rng.random((_check_int(n, "n"), 1)), 2.0**-53, 1.0 - 2.0**-53))

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        if not np.all((q > 0.0) & (q < 1.0)):
            raise ValueError("quantile levels must lie in (0, 1)")
        return self.mu + self.sigma * ndtri(q)

    def __eq__(self, other):
        return isinstance(other, Normal) and (self.mu, self.sigma) == (other.mu, other.sigma)

    def __repr__(self):
        return f"Normal(mu={self.mu!r}, sigma={self.sigma!r})"


# --- shared helpers -----------------------------------------------------------


def _as_points(y, dim):
    """Coerce the finite outcomes y to (n, dim); report whether the input was
    a single point."""
    arr = _check_finite(y, "outcome coordinates")
    if arr.ndim == 0 and dim == 1:
        return arr[None, None], True
    if arr.ndim == 1:
        if dim == 1 and arr.shape[0] != 1:
            return arr[:, None], False
        if arr.shape[0] != dim:
            raise ValueError(f"y has dimension {arr.shape[0]}, forecast has {dim}")
        return arr[None, :], True
    if arr.ndim == 2:
        if arr.shape[1] != dim:
            raise ValueError(f"y has dimension {arr.shape[1]}, forecast has {dim}")
        return arr, False
    raise ValueError(f"y must have shape ({dim},) or (n, {dim}), got {arr.shape}")


def _as_members(points):
    """Coerce ensemble members to an (m, d) float array; 1-d input is m scalars."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
        raise ValueError(f"ensemble points must have shape (m, d) with m, d >= 1, got {np.shape(points)}")
    return pts


def _groups(keys):
    """{key: the indices i with keys[i] == key}, keys in order of first appearance."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


_CHUNK_ELEMENTS = 4_000_000


def dominance_counts(points, queries):
    """#{j : points_j <= q coordinatewise} for each row q of ``queries``.

    ``points`` is (m, d) and ``queries`` (n, d), giving n counts; or both
    carry the same leading case axis, (c, m, d) and (c, n, d), giving (c, n)
    counts of each case's queries against that case's points.  A (c, n, m)
    boolean block starts from the comparison of coordinate 0 and ands in
    the others one at a time, in chunks of at most ~_CHUNK_ELEMENTS
    elements; counts are exact integers.
    """
    stacked = points.ndim == 3
    if not stacked:
        points, queries = points[None], queries[None]
    c, m, d = points.shape
    n = queries.shape[1]
    rows = max(1, _CHUNK_ELEMENTS // max(1, m))  # query rows per chunk
    step = max(1, rows // max(1, n))  # cases per chunk; 1 when one case needs row chunks
    out = np.empty((c, n), dtype=np.int64)
    for a in range(0, c, step):
        b = min(c, a + step)
        for lo in range(0, n, rows):
            hi = min(n, lo + rows)
            p, q = points[a:b, None, :, :], queries[a:b, lo:hi, None, :]
            le = p[..., 0] <= q[..., 0]
            for k in range(1, d):
                le &= p[..., k] <= q[..., k]
            out[a:b, lo:hi] = np.count_nonzero(le, axis=2)
    return out if stacked else out[0]


_QUADRANTS = {"sw": (-1, -1), "se": (1, -1), "ne": (1, 1), "nw": (-1, 1)}


def cone_signs(spec, dim=None):
    """A cone direction, given as any spec the module docstring lists, as a
    vector of +-1 ints; with ``dim``, it must have that many signs."""
    if spec is None:
        if dim is None:
            raise ValueError("the default cone direction needs a dimension")
        return -np.ones(dim, dtype=int)
    if isinstance(spec, str):
        key = spec.strip().lower()
        if key in _QUADRANTS:
            signs = np.array(_QUADRANTS[key], dtype=int)
        elif key and set(key) <= {"+", "-"}:
            signs = np.array([1 if c == "+" else -1 for c in key], dtype=int)
        else:
            raise ValueError(f"cannot parse cone direction {spec!r}")
    else:
        signs = np.asarray(spec)
        if (signs.ndim != 1 or signs.size == 0 or not np.all(np.isin(signs, (-1, 1)))
                or any(isinstance(x, (bool, np.bool_)) for x in spec)):
            raise ValueError(f"cone signs must be a vector of +-1 values, got {spec!r}")
        signs = signs.astype(int)
    if dim is not None and signs.size != dim:
        raise ValueError(f"cone direction has {signs.size} signs, expected {dim}")
    return signs


# --- forecast types -----------------------------------------------------------


class EnsembleForecast:
    """Empirical measure of m member vectors, shape (m, d)."""

    def __init__(self, points):
        pts = _as_members(np.array(points, dtype=float))  # the one copy: never the caller's array
        self.points = _check_finite(pts, "ensemble points")
        self.m = pts.shape[0]
        self.dim = pts.shape[1]

    @classmethod
    def _checked(cls, points):
        """The ensemble of ``points``, an (m, d) float array whose values the
        caller has already checked finite; it is taken as is, without a copy."""
        self = cls.__new__(cls)
        self.points = points
        self.m, self.dim = points.shape
        return self

    def cdf(self, y, signs=None):
        y_mat, single = _as_points(y, self.dim)
        pts = self.points
        if signs is not None:
            s = -cone_signs(signs, self.dim)
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

    def sample(self, rng, n):
        return self.points[rng.integers(0, self.m, size=_check_int(n, "n"))]

    def __eq__(self, other):
        return isinstance(other, EnsembleForecast) and np.array_equal(self.points, other.points)

    def __repr__(self):
        return f"EnsembleForecast(m={self.m}, dim={self.dim})"


class GaussianForecast:
    """Bivariate normal forecast with non-degenerate covariance."""

    def __init__(self, mean, cov):
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mean.shape != (2,) or cov.shape != (2, 2):
            raise ValueError("mvgauss forecast is bivariate: mean (2,), cov (2, 2)")
        _check_finite(mean, "mvgauss mean")
        _check_finite(cov, "mvgauss cov")
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
        self._chol = np.linalg.cholesky(self.cov)
        self.dim = 2

    def cdf(self, y, signs=None):
        y_mat, single = _as_points(y, 2)
        vals = np.atleast_1d(bvn_cdf(*_gauss_args(y_mat, self.mean, self._sds, self._rho,
                                                  cone_signs(signs, 2))))
        return float(vals[0]) if single else vals

    def _cdf_counts(self, x, w, signs=None):
        """(#{i : H(x_i) < w}, #{i : H(x_i) <= w}) for the cone CDF H over the
        rows of x, counted by ``bvn_cdf_counts``: each row is settled in score
        space, by the Frechet bounds or by a Slepian-Plackett bracket where
        one of them decides it, and only the rest run the quadrature."""
        x_mat, _ = _as_points(x, 2)
        return bvn_cdf_counts(*_gauss_args(x_mat, self.mean, self._sds, self._rho,
                                           cone_signs(signs, 2)), w)

    def sample(self, rng, n):
        x = rng.standard_normal((_check_int(n, "n"), 2)) @ self._chol.T
        for j in (0, 1):  # in place, one column at a time: a (2,) row broadcast is slower
            x[:, j] += self.mean[j]
        return x

    def __eq__(self, other):
        return (isinstance(other, GaussianForecast)
                and np.array_equal(self.mean, other.mean) and np.array_equal(self.cov, other.cov))

    def __repr__(self):
        return f"GaussianForecast(mean={self.mean.tolist()}, cov={self.cov.tolist()})"


class CopulaMarginalForecast:
    """Archimedean copula joined to one normal margin per coordinate."""

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

    def cdf(self, y, signs=None):
        y_mat, single = _as_points(y, self.dim)
        vals = _copula_marginal_cdf(self.copula.family, self.copula.theta,
                                    *_margin_params([self]), y_mat, cone_signs(signs, self.dim))
        return float(vals[0]) if single else vals

    def sample(self, rng, n):
        u = self.copula.sample(rng, n)
        draws = np.empty_like(u)
        for j, mg in enumerate(self.margins):
            draws[:, j] = mg.ppf(u[:, j])
        return draws

    def __eq__(self, other):
        return (isinstance(other, CopulaMarginalForecast)
                and self.copula == other.copula and self.margins == other.margins)

    def __repr__(self):
        return f"CopulaMarginalForecast({self.copula!r}, margins={self.margins!r})"


# --- H formulas, for one law or one per row ----------------------------------


def _gauss_args(y, mean, sds, rho, signs):
    """The ``bvn_cdf`` arguments (h, k, rho) of the cone CDF at the rows of y
    for bivariate normals with means ``mean``, standard deviations ``sds``
    and correlation ``rho``: (2,), (2,) and a scalar for one law, or (n, 2),
    (n, 2) and (n,) for one law per row.  Each coordinate becomes its own
    contiguous array, so bvn_cdf reads no strided column."""
    h, k = (-signs[j] * (y[:, j] - mean[..., j]) / sds[..., j] for j in (0, 1))
    return h, k, signs[0] * signs[1] * rho


def _margin_params(forecasts):
    """The normal margins' mu and sigma of copula-marginal forecasts, (n, d) each."""
    return (np.array([[mg.mu for mg in fc.margins] for fc in forecasts]),
            np.array([[mg.sigma for mg in fc.margins] for fc in forecasts]))


def _copula_marginal_cdf(family, theta, mu, sigma, y, signs):
    """The cone CDF at the rows of y for a ``family`` copula with normal
    margins: theta (or None) and mu, sigma (1, d) for one law, or (n,) and
    (n, d) for one law per row.  The '+' coordinates enter by
    inclusion-exclusion over copula CDFs."""
    u = np.empty(y.shape)
    for j in range(y.shape[1]):  # by columns: one law's (1, d) rows would make 2-long inner loops
        u[:, j] = ndtr((y[:, j] - mu[:, j]) / sigma[:, j])
    plus = np.flatnonzero(signs > 0)
    if plus.size > 20:
        raise ValueError("inclusion-exclusion over more than 20 '+' coordinates is intractable")
    total = np.zeros(y.shape[0])
    for r in range(plus.size + 1):
        for subset in itertools.combinations(plus.tolist(), r):
            arg = u.copy()
            arg[:, plus] = 1.0
            if subset:
                arg[:, list(subset)] = u[:, list(subset)]
            total += (-1.0) ** r * np.atleast_1d(copula_cdf(family, arg, theta))
    return np.clip(total, 0.0, 1.0)


def cdf_rows(forecasts, y, signs=None):
    """H^signs(y_i) under forecast i, for the rows of y, (n, d), and n
    Gaussian and copula-marginal forecasts of dimension d.

    One ``bvn_cdf`` call takes every Gaussian row and one margin and
    ``copula_cdf`` pass every copula family, each law's parameters in its
    rows.  The one-case ``cdf`` runs the same formula with its parameters as
    scalars, and the values carry its bits.
    """
    forecasts = list(forecasts)
    if not forecasts:
        return np.empty(0)
    dim = forecasts[0].dim
    y_mat, _ = _as_points(y, dim)
    if y_mat.shape[0] != len(forecasts):
        raise ValueError(f"y has {y_mat.shape[0]} rows for {len(forecasts)} forecasts")
    s = cone_signs(signs, dim)
    out = np.empty(len(forecasts))
    kinds = [(type(fc), fc.copula.family if isinstance(fc, CopulaMarginalForecast) else None)
             for fc in forecasts]
    for (kind, family), idx in _groups(kinds).items():
        fcs = [forecasts[i] for i in idx]
        if any(fc.dim != dim for fc in fcs):
            raise ValueError("cdf_rows needs forecasts of one dimension")
        if kind is GaussianForecast:
            out[idx] = bvn_cdf(*_gauss_args(y_mat[idx], np.array([fc.mean for fc in fcs]),
                                            np.array([fc._sds for fc in fcs]),
                                            np.array([fc._rho for fc in fcs]), s))
        elif kind is CopulaMarginalForecast:
            thetas = [fc.copula.theta for fc in fcs]  # None for the independence family
            out[idx] = _copula_marginal_cdf(family, None if thetas[0] is None else np.array(thetas),
                                            *_margin_params(fcs), y_mat[idx], s)
        else:
            raise TypeError(f"cdf_rows takes Gaussian and copula-marginal forecasts, "
                            f"not {kind.__name__}")
    return out


# --- transforms ---------------------------------------------------------------


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
    if _check_int(k, "margin index") >= forecast.dim:
        raise ValueError(f"margin index must be in [0, {forecast.dim}), got {k!r}")
    if isinstance(forecast, EnsembleForecast):
        return EnsembleForecast(forecast.points[:, [k]])
    if isinstance(forecast, GaussianForecast):
        return Normal(forecast.mean[k], np.sqrt(forecast.cov[k, k]))
    if isinstance(forecast, CopulaMarginalForecast):
        return forecast.margins[k]
    if isinstance(forecast, Normal):
        return forecast
    raise TypeError(f"cannot extract a margin from {type(forecast).__name__}")
