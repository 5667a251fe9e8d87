"""Archimedean copula families: CDFs, generators, sampling, Kendall structure.

Supported families and parameter ranges:

- independence (no parameter)
- gumbel   theta >= 1
- clayton  theta > 0
- frank    theta > 0
- joe      theta >= 1

Each family is exchangeable with generator phi and inverse psi, C(u) =
psi(sum_i phi(u_i)).  Sampling uses the frailty (Laplace-transform)
construction: U_i = psi_LT(E_i / V) with iid unit exponentials E_i and a
frailty V whose Laplace transform is psi_LT — positive stable for Gumbel,
logarithmic series for Frank, Sibuya for Joe, Gamma for Clayton, and V = 1
for independence.  psi_LT is psi for every family but Clayton, whose
Laplace transform (1 + s)^(-1/theta) is the generator inverse
(1 + theta s)^(-1/theta) with its argument scaled by 1/theta; the scaling
leaves the copula unchanged.  The same identity gives the Kendall sampler
C(U) = psi_LT(S / V), S ~ Gamma(dim), for every family.

The bivariate Kendall distribution function K(w) = pr{C(U) <= w} has the
closed form K(w) = w - phi(w)/phi'(w), specialized per family below.

Everything that can overflow in the naive forms (Gumbel powers at high
dimension or theta, Frank exponentials for theta past ~700, Joe powers
(1-u)^theta) is evaluated in log space.  The copula's JSON descriptor is
read and written by ``io``.
"""

import numpy as np
from scipy.special import digamma, spence, zeta

from . import samplers

FAMILY_NAMES = ("independence", "gumbel", "clayton", "frank", "joe")

_LN2 = 0.6931471805599453

__all__ = [
    "FAMILY_NAMES",
    "ArchimedeanCopula",
    "tau_to_theta",
    "theta_to_tau",
    "kendall_cdf",
    "copula_cdf",
    "sample_copula",
    "kendall_sample",
    "generator",
    "generator_inverse",
]


def _log1mexp(s):
    """log(1 - exp(-s)) for s >= 0, accurate in both regimes."""
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(s <= _LN2, np.log(-np.expm1(-np.minimum(s, _LN2))),
                        np.log1p(-np.exp(-np.maximum(s, _LN2))))


def _logsumexp(a):
    """log(sum(exp(a))) over the last axis, with the bits of scipy 1.17's
    ``logsumexp(a, axis=-1)`` on real input but without its array-API
    overhead.  The row max is exact in any order, so it is taken column by
    column.  The max entries are zeroed by multiplying by the ``!= max``
    mask, whose count also gives the max's tie count m (``==`` and ``!=``
    are complements, also for nan).  The other terms are summed shifted by
    the max, in numpy's own row-sum order: below 8 columns in sequence, on
    a column-major copy in which each column is a contiguous 1-d array;
    from 8 pairwise, with ``np.sum`` over the rows of the input's layout.
    Rows that come out non-finite (an infinite or nan max) fall back to the
    direct log(sum(exp(a))).
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[-1]
    cols = np.moveaxis(a, -1, 0)
    if d < 8:
        cols = cols.copy()
    a_max = cols[0]
    for c in cols[1:]:
        a_max = np.maximum(a_max, c)
    if d < 8:
        off = cols != a_max
        e = np.exp(cols - a_max) * off
        s = e[0]
        for j in range(1, d):
            s = s + e[j]
        m = d - np.count_nonzero(off, axis=0)
    else:
        off = a != a_max[..., None]
        s = np.sum(np.exp(a - a_max[..., None]) * off, axis=-1)
        m = d - np.count_nonzero(off, axis=-1)
    s = np.where(s == 0, s, s / m)
    out = np.log1p(s) + np.log(m) + a_max
    bad = ~np.isfinite(out)
    if np.any(bad):
        out = np.where(bad, np.log(np.sum(np.exp(a), axis=-1)), out)
    return out[()]


# --- family namespaces ----------------------------------------------------
# Staticmethod-style vectorized math; theta may be a scalar or an array
# broadcasting against the data (one parameter per row in batch use).


class _Archimedean:
    """An Archimedean family: C(u) = psi(sum_i phi(u_i)), frailty Laplace
    transform psi.  A one-parameter family takes theta finite and above
    ``theta_min``, or at it when ``theta_closed`` (where the family reaches
    independence, tau = 0); without a closed form, ``theta_from_tau``
    solves tau(theta) = tau for the whole array with ``_brent_solve``
    inside the family's ``_tau_bracket``."""

    theta_min = 0.0
    theta_closed = False

    @classmethod
    def check_theta(cls, theta):
        if theta is None:
            raise ValueError(f"{cls.name} requires theta or tau")
        arr = samplers._check_finite(theta, f"{cls.name} copula parameter")
        if np.any(arr < cls.theta_min if cls.theta_closed else arr <= cls.theta_min):
            op = ">=" if cls.theta_closed else ">"
            raise ValueError(f"{cls.name} requires theta {op} {cls.theta_min:g}, got {theta!r}")

    @classmethod
    def cdf(cls, u, theta):
        theta = np.asarray(theta, dtype=float)
        th = theta[..., None] if theta.ndim else theta
        return cls.psi(np.sum(cls.phi(u, th), axis=-1), theta)

    @classmethod
    def psi_frailty(cls, s, theta):
        return cls.psi(s, theta)

    @classmethod
    def theta_from_tau(cls, tau):
        # tau = 0 is exactly the closed bound theta_min (Joe's independence);
        # tau_to_theta passes it to no open family
        theta = np.full(tau.shape, cls.theta_min)
        solve = tau != 0.0
        t = tau[solve]
        theta[solve] = _brent_solve(cls.tau, t, *cls._tau_bracket(t))
        return theta


class _Independence(_Archimedean):
    name = "independence"
    theta_closed = True  # tau_to_theta accepts tau = 0, its one value

    @staticmethod
    def check_theta(theta):
        if theta is not None:
            raise ValueError("independence copula takes no parameter")

    @staticmethod
    def phi(t, theta=None):
        return -np.log(t)

    @staticmethod
    def psi(s, theta=None):
        return np.exp(-s)

    @staticmethod
    def cdf(u, theta=None):
        return np.prod(u, axis=-1)

    @staticmethod
    def kendall(w, theta=None):
        w = np.asarray(w, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            k = w - w * np.log(w)
        return np.where(w == 0.0, 0.0, k)

    @staticmethod
    def tau(theta):
        return 0.0

    @staticmethod
    def theta_from_tau(tau):
        if not np.all(np.asarray(tau) == 0):
            raise ValueError("independence copula has tau = 0 only")
        return None

    @staticmethod
    def frailty(rng, theta, n):
        return np.ones(n)


class _Gumbel(_Archimedean):
    name = "gumbel"
    theta_min = 1.0
    theta_closed = True

    @staticmethod
    def phi(t, theta):
        return (-np.log(t)) ** theta

    @staticmethod
    def psi(s, theta):
        return np.exp(-(s ** (1.0 / theta)))

    @staticmethod
    def cdf(u, theta):
        # C = exp(-(sum (-log u_i)^theta)^(1/theta)), summed in log space
        theta = np.asarray(theta, dtype=float)
        th = theta[..., None] if theta.ndim else theta
        with np.errstate(divide="ignore", over="ignore"):
            lt = np.log(-np.log(u))
            inner = _logsumexp(th * lt) / theta
            return np.exp(-np.exp(inner))

    @staticmethod
    def kendall(w, theta):
        w = np.asarray(w, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            k = w - w * np.log(w) / theta
        return np.where(w == 0.0, 0.0, k)

    @staticmethod
    def tau(theta):
        return 1.0 - 1.0 / theta

    @staticmethod
    def theta_from_tau(tau):
        return 1.0 / (1.0 - tau)

    @staticmethod
    def frailty(rng, theta, n):
        return samplers.positive_stable(rng, 1.0 / np.asarray(theta, dtype=float), n)


class _Clayton(_Archimedean):
    name = "clayton"

    @staticmethod
    def phi(t, theta):
        with np.errstate(divide="ignore", over="ignore"):
            return np.expm1(-theta * np.log(t)) / theta

    @staticmethod
    def psi(s, theta):
        return np.exp(-np.log1p(theta * s) / theta)

    @staticmethod
    def kendall(w, theta):
        w = np.asarray(w, dtype=float)
        return w + w * (1.0 - w**theta) / theta

    @staticmethod
    def tau(theta):
        theta = np.asarray(theta, dtype=float)
        return theta / (theta + 2.0)

    @staticmethod
    def theta_from_tau(tau):
        return 2.0 * tau / (1.0 - tau)

    @staticmethod
    def frailty(rng, theta, n):
        return rng.standard_gamma(1.0 / np.asarray(theta, dtype=float), n)

    @staticmethod
    def psi_frailty(s, theta):
        # Gamma(1/theta) Laplace transform (1+s)^(-1/theta)
        return np.exp(-np.log1p(s) / theta)


class _Frank(_Archimedean):
    name = "frank"

    @staticmethod
    def phi(t, theta):
        # -log( (e^{-theta t} - 1) / (e^{-theta} - 1) )
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return _log1mexp(theta * np.ones_like(t)) - _log1mexp(theta * t)

    @staticmethod
    def psi(s, theta):
        # -(1/theta) log(1 + e^{-s}(e^{-theta} - 1)); when the argument of
        # log1p nears -1 (large theta, tiny s) switch to the expanded form
        # 1 - e^{-s} + e^{-s-theta}, which keeps s below float eps alive
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore", divide="ignore"):
            x = np.exp(-s) * np.expm1(-theta)
            near = -np.log1p(np.maximum(x, -0.5)) / theta
            arg = -np.expm1(-s) + np.exp(-s - theta)
            far = -np.log(np.maximum(arg, 1e-320)) / theta
        out = np.where(x > -0.5, near, far)
        return np.where(s == 0.0, 1.0, out)

    @staticmethod
    def kendall(w, theta):
        w, theta = np.broadcast_arrays(np.asarray(w, dtype=float), np.asarray(theta, dtype=float))
        tw = theta * w
        out = np.empty(w.shape)
        lo = tw <= 500.0
        if np.any(lo):
            wl, thl = w[lo], theta[lo]
            with np.errstate(invalid="ignore", over="ignore"):
                ph = _log1mexp(thl) - _log1mexp(thl * wl)
                k = wl + ph * np.expm1(thl * wl) / thl
            k = np.where(wl == 0.0, 0.0, k)
            out[lo] = k
        hi = ~lo
        if np.any(hi):
            wh, thh = w[hi], theta[hi]
            # exp(theta w) overflows; expanded product of the two branches
            out[hi] = wh + (-np.expm1(-thh * (1.0 - wh)) - np.exp(-thh * wh)) / thh
        return out

    @staticmethod
    def tau(theta):
        theta = np.asarray(theta, dtype=float)
        return 1.0 - 4.0 * (1.0 - _debye1(theta)) / theta

    @staticmethod
    def _tau_bracket(tau):
        return 1e-10, np.maximum(100.0, 8.0 / (1.0 - tau))

    @staticmethod
    def frailty(rng, theta, n):
        # log-series with p = 1 - e^{-theta}, driven by log(1-p) = -theta
        # directly so large theta stays exact
        return samplers._log_series_from_log1mp(rng, -np.asarray(theta, dtype=float), n)


class _Joe(_Archimedean):
    name = "joe"
    theta_min = 1.0
    theta_closed = True

    @staticmethod
    def phi(t, theta):
        # -log(1 - (1-t)^theta)
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            x = -theta * np.log1p(-t)
        return -_log1mexp(x)

    @staticmethod
    def psi(s, theta):
        # 1 - (1 - e^{-s})^{1/theta}
        return -np.expm1(_log1mexp(s) / theta)

    @staticmethod
    def kendall(w, theta):
        w, theta = np.broadcast_arrays(np.asarray(w, dtype=float), np.asarray(theta, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            q = np.exp(theta * np.log1p(-w))  # (1-w)^theta
            k = w - (1.0 - w) * (1.0 - q) * np.log1p(-q) / (theta * q)
            # q -> 0: (1-q) log1p(-q)/q -> -1
            k = np.where(q < 1e-280, w + (1.0 - w) / theta, k)
        k = np.where(w == 0.0, 0.0, k)
        k = np.where(w == 1.0, 1.0, k)
        return k

    @staticmethod
    def tau(theta):
        theta = np.asarray(theta, dtype=float)
        scalar = theta.ndim == 0
        th = np.atleast_1d(theta).astype(float)
        a = 2.0 / th
        egamma = np.euler_gamma
        # (digamma(a) + gamma) / (1 - a) is 0/0 at theta = 2; near it take the
        # Taylor series -sum_j (1 - a)^j zeta(j + 2), six terms
        second = np.empty(th.shape)
        near = np.abs(a - 1.0) < 1e-4
        x = 1.0 - a[near]
        second[near] = -sum(x**j * zeta(j + 2.0) for j in range(6))
        rest = ~near
        second[rest] = (digamma(a[rest]) + egamma) / (1.0 - a[rest])
        ssum = -(digamma(1.0 + a) + egamma) / a - second
        out = 1.0 - 4.0 * ssum / th**2
        return float(out[0]) if scalar else out

    @staticmethod
    def _tau_bracket(tau):
        return 1.0, np.maximum(10.0, 6.0 / (1.0 - tau))

    @staticmethod
    def frailty(rng, theta, n):
        return samplers.sibuya(rng, 1.0 / np.asarray(theta, dtype=float), n)


def _brent_solve(g, y, lo, hi):
    """theta in [lo, hi] with g(theta) = y, for a 1-d array y; lo and hi
    broadcast against it.

    Brent's method (Brent 1973, "Algorithms for Minimization without
    Derivatives", ch. 4), step for step the C ``brentq`` behind
    ``scipy.optimize.brentq`` with xtol = 1e-13, rtol = 1e-15 and 100
    iterations applied to f = g - y: the same float expressions, the same
    branch tests and so the same root to the bit.  Every element follows
    its own bracket and stops at its own convergence; g is evaluated once
    per iteration, on the elements still active.  A bracket whose ends
    share a sign, a nan from g, or an element still active after 100
    iterations raises ValueError.
    """
    xtol, rtol = 1e-13, 1e-15
    n = y.size
    xpre, xcur = np.broadcast_to(lo, y.shape), np.broadcast_to(hi, y.shape)

    def f(x, target):
        fx = g(x) - target
        if np.any(np.isnan(fx)):
            raise ValueError(f"tau solve: function value is nan at theta={x[np.isnan(fx)][0]!r}")
        return fx

    both = f(np.concatenate([xpre, xcur]), np.concatenate([y, y]))
    fpre, fcur = both[:n], both[n:]
    root = np.where(fpre == 0, xpre, xcur)
    act = (fpre != 0) & (fcur != 0)
    if np.any(act & (np.signbit(fpre) == np.signbit(fcur))):
        raise ValueError("tau solve: g - y has the same sign at both ends of a bracket")
    at = np.flatnonzero(act)
    xpre, xcur, fpre, fcur = xpre[at], xcur[at], fpre[at], fcur[at]
    xblk, fblk, spre, scur = (np.zeros(at.size) for _ in range(4))
    for _ in range(100):
        # keep the root between xcur and xblk
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre, scur = np.where(flip, xcur - xpre, spre), np.where(flip, xcur - xpre, scur)
        # xcur is the better end: swap it with xblk, xpre taking the old xcur
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
        fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)

        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        root[at[done]] = xcur[done]
        keep = ~done
        at = at[keep]
        if not at.size:
            return root
        xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
            v[keep] for v in (xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis))

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, interpolate, extrapolate)
        # a good short step, or bisection
        good = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = np.where(np.abs(scur) > delta, xcur + scur, xcur + np.where(sbis > 0, delta, -delta))
        fcur = f(xcur, y[at])
    raise ValueError(f"tau solve: {at.size} element(s) did not converge in 100 iterations")


def _debye1(x):
    """Debye function D1(x) = (1/x) int_0^x t/(e^t - 1) dt for x > 0.

    Closed form via the dilogarithm: the integral is
    pi^2/6 + x log(1 - e^{-x}) - Li2(e^{-x}), and scipy's spence(z) is
    Li2(1-z).  Small x switches to the Taylor series (the closed form
    cancels catastrophically as x -> 0).
    """
    x = np.asarray(x, dtype=float)
    small = x < 1e-6
    xs = np.where(small, 1.0, x)
    with np.errstate(divide="ignore"):
        integral = np.pi**2 / 6.0 + xs * np.log1p(-np.exp(-xs)) - spence(-np.expm1(-xs))
    return np.where(small, 1.0 - x / 4.0 + x**2 / 36.0, integral / xs)


_FAMILIES = {f.name: f for f in (_Independence, _Gumbel, _Clayton, _Frank, _Joe)}


def _family(name):
    try:
        return _FAMILIES[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown copula family {name!r}; choose from {FAMILY_NAMES}") from None


def _checked(family, theta):
    """The family namespace and its checked theta as a float array (None stays None)."""
    fam = _family(family)
    fam.check_theta(theta)
    return fam, None if theta is None else np.asarray(theta, dtype=float)


def tau_to_theta(family, tau):
    """Parameter theta giving population Kendall's tau ``tau`` (scalar or array)."""
    fam = _family(family)
    arr = np.asarray(tau, dtype=float)
    closed = fam.theta_closed  # tau = 0 sits at a closed theta bound
    if not (((arr >= 0.0) if closed else (arr > 0.0)) & (arr < 1.0)).all():  # nan fails both
        raise ValueError(f"{fam.name} supports tau in {'[' if closed else '('}0, 1), got {tau!r}")
    theta = fam.theta_from_tau(arr)
    return float(theta) if theta is not None and np.ndim(theta) == 0 else theta


def theta_to_tau(family, theta=None):
    """Population Kendall's tau for the family at ``theta`` (scalar or array)."""
    fam, th = _checked(family, theta)
    out = fam.tau(th)
    return float(out) if np.ndim(out) == 0 else out


def kendall_cdf(family, w, theta=None):
    """Bivariate Kendall distribution function K(w) = pr{C(U) <= w}.

    Vectorized over ``w`` and, for batch work, over ``theta`` (broadcast
    against w).  Returns exact 0 and 1 at the endpoints.
    """
    fam, th = _checked(family, theta)
    w_arr = samplers._check_unit(w, "kendall_cdf argument")
    out = np.clip(fam.kendall(w_arr, th), 0.0, 1.0)
    return float(out) if w_arr.ndim == 0 and np.ndim(out) == 0 else out


def copula_cdf(family, u, theta=None):
    """Copula CDF C(u) for u of shape (d,) or (n, d); theta scalar or (n,)."""
    fam, th = _checked(family, theta)
    u_arr = np.asarray(u, dtype=float)
    if u_arr.ndim == 1:
        u_mat, scalar = u_arr[None, :], True
    elif u_arr.ndim == 2:
        u_mat, scalar = u_arr, False
    else:
        raise ValueError(f"u must have shape (d,) or (n, d), got {u_arr.shape}")
    if u_mat.shape[-1] < 2:
        raise ValueError("copula dimension must be at least 2")
    samplers._check_unit(u_mat, "copula arguments")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c = fam.cdf(u_mat, th)
    c = np.clip(c, 0.0, 1.0)
    return float(c[0]) if scalar else c


def generator(family, t, theta=None):
    """Archimedean generator phi(t) on (0, 1]."""
    fam, th = _checked(family, theta)
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr > 0.0) & (t_arr <= 1.0)):
        raise ValueError("generator argument must lie in (0, 1]")
    out = fam.phi(t_arr, th)
    return float(out) if t_arr.ndim == 0 and np.ndim(out) == 0 else out


def generator_inverse(family, s, theta=None):
    """Generator inverse psi(s) on [0, inf); psi(phi(t)) = t."""
    fam, th = _checked(family, theta)
    s_arr = np.asarray(s, dtype=float)
    if not np.all(s_arr >= 0.0):
        raise ValueError("generator_inverse argument must be non-negative")
    out = fam.psi(s_arr, th)
    return float(out) if s_arr.ndim == 0 and np.ndim(out) == 0 else out


def _frailties(family, rng, theta, dim, n, min_dim):
    """Checked (family, theta, n) and the n frailties V, drawn first."""
    fam, th = _checked(family, theta)
    samplers._check_int(dim, "dim", min_dim)
    n = samplers._check_int(n, "n")
    if th is not None and th.ndim > 0 and th.shape != (n,):
        raise ValueError(f"theta array must have shape ({n},), got {th.shape}")
    return fam, th, n, np.asarray(fam.frailty(rng, th, n), dtype=float)


def sample_copula(family, rng, theta, dim, n):
    """n draws from the copula, shape (n, dim); ``theta`` is None for the
    independence family.

    ``theta`` may be an array of length n (one parameter per row), which
    draws each row from its own copula.  Draw order is fixed: n frailties,
    then the n*dim exponentials, so extending a run never reshuffles
    earlier rows.  Values are clipped into the open unit cube.
    """
    fam, th, n, v = _frailties(family, rng, theta, dim, n, 2)
    e = rng.standard_exponential((n, dim))
    u = fam.psi_frailty(e / v[:, None], th[:, None] if (th is not None and th.ndim > 0) else th)
    return np.clip(u, 1e-300, 1.0 - 2.0**-53)


def kendall_sample(family, rng, theta, dim, n):
    """n draws from the Kendall distribution, shape (n,): values C(U) with U ~ C.

    In the frailty representation U_i = psi_LT(E_i / V), the generator
    values phi(U_i) recombine exactly, so C(U) = psi_LT(S / V) with
    S ~ Gamma(dim) -- one Laplace-transform evaluation per draw instead of
    a full coordinatewise CDF evaluation.  ``theta`` may be an array of
    length n.  Draw order is fixed: n frailties, then n gamma variables.
    """
    fam, th, n, v = _frailties(family, rng, theta, dim, n, 1)
    s = rng.standard_gamma(float(dim), size=n) / v
    return np.clip(fam.psi_frailty(s, th), 0.0, 1.0)


class ArchimedeanCopula:
    """An exchangeable Archimedean copula of a given family, parameter, dimension.

    Exactly one of ``theta`` and ``tau`` must be given (neither for the
    independence family).
    """

    def __init__(self, family, theta=None, tau=None, dim=2):
        fam = _family(family)
        if theta is not None and tau is not None:
            raise ValueError("give exactly one of theta and tau, not both")
        if tau is not None:
            theta = tau_to_theta(fam.name, float(tau))
        if theta is not None:
            theta = float(theta)
        fam.check_theta(theta)
        self.family = fam.name
        self.theta = theta
        self.dim = samplers._check_int(dim, "dim", 2)

    @property
    def tau(self):
        return theta_to_tau(self.family, self.theta)

    def cdf(self, u):
        u_arr = np.asarray(u, dtype=float)
        if u_arr.shape[-1] != self.dim:
            raise ValueError(f"expected points of dimension {self.dim}, got shape {u_arr.shape}")
        return copula_cdf(self.family, u_arr, self.theta)

    def sample(self, rng, n):
        return sample_copula(self.family, rng, self.theta, self.dim, n)

    def kendall_cdf(self, w):
        if self.dim != 2:
            raise ValueError("closed-form Kendall distribution is bivariate only; "
                             "use a Monte Carlo estimate for higher dimensions")
        return kendall_cdf(self.family, w, self.theta)

    def __eq__(self, other):
        return (isinstance(other, ArchimedeanCopula)
                and (self.family, self.theta, self.dim) == (other.family, other.theta, other.dim))

    def __repr__(self):
        if self.theta is None:
            return f"ArchimedeanCopula({self.family!r}, dim={self.dim})"
        return f"ArchimedeanCopula({self.family!r}, theta={self.theta!r}, dim={self.dim})"
