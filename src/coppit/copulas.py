"""Archimedean copula families: CDFs, generators, sampling, Kendall structure.

Supported families and parameter ranges:

- independence (no parameter)
- gumbel   theta >= 1
- clayton  theta > 0
- frank    theta > 0
- joe      theta >= 1

Each family is exchangeable with generator phi and inverse psi, C(u) =
psi(sum_i phi(u_i)).  Sampling uses the frailty (Laplace-transform)
construction: U_i = psi(E_i / V) with iid unit exponentials E_i and a
frailty V whose Laplace transform is psi — positive stable for Gumbel,
logarithmic series for Frank, Sibuya for Joe, Gamma for Clayton.  Note the
Clayton sampler evaluates the Laplace-transform normalization
(1 + s)^(-1/theta) rather than the (1 + theta s)^(-1/theta) generator
inverse used elsewhere; the two generators differ by the inner scaling
t -> theta t, which leaves the copula unchanged but only the former is the
Gamma(1/theta) transform.

The bivariate Kendall distribution function K(w) = pr{C(U) <= w} has the
closed form K(w) = w - phi(w)/phi'(w), specialized per family below.

Everything that can overflow in the naive forms (Gumbel powers at high
dimension or theta, Frank exponentials for theta past ~700, Joe powers
(1-u)^theta) is evaluated in log space.
"""

import numpy as np
from scipy import optimize
from scipy.special import digamma, logsumexp, spence

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


# --- family namespaces ----------------------------------------------------
# Staticmethod-style vectorized math; theta may be a scalar or an array
# broadcasting against the data (one parameter per row in batch use).


class _Independence:
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
    def theta_from_tau(tau):
        if not np.all(np.asarray(tau) == 0):
            raise ValueError("independence copula has tau = 0 only")
        return None

    @staticmethod
    def frailty(rng, theta, size):
        return np.ones(size)

    @staticmethod
    def psi_frailty(s, theta=None):
        return np.exp(-s)


class _Archimedean:
    """A one-parameter family: theta finite and above ``theta_min``, or at
    it when ``theta_closed`` (where the family reaches independence, tau = 0),
    with C(u) = psi(sum_i phi(u_i)) and frailty Laplace transform psi."""

    theta_min = 0.0
    theta_closed = False

    @classmethod
    def check_theta(cls, theta):
        arr = np.asarray(theta, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{cls.name} copula parameter must be finite, got {theta!r}")
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
            inner = logsumexp(th * lt, axis=-1) / theta
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
    def frailty(rng, theta, size):
        return samplers.positive_stable(rng, 1.0 / np.asarray(theta, dtype=float), size)


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
    def frailty(rng, theta, size):
        return samplers.gamma(rng, 1.0 / np.asarray(theta, dtype=float), size)

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
    def theta_from_tau(tau):
        hi = max(100.0, 8.0 / (1.0 - tau))
        return optimize.brentq(lambda th: float(_Frank.tau(th)) - tau, 1e-10, hi, xtol=1e-13, rtol=1e-15)

    @staticmethod
    def frailty(rng, theta, size):
        # log-series with p = 1 - e^{-theta}, driven by log(1-p) = -theta
        # directly so large theta stays exact
        return samplers._log_series_from_log1mp(rng, -np.asarray(theta, dtype=float), size)


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
    def _tau_series(theta, terms=200_000):
        k = np.arange(1, terms + 1, dtype=float)
        s = np.sum(1.0 / (k * (theta * k + 2.0) * (theta * (k - 1.0) + 2.0)))
        s += 1.0 / (2.0 * theta**2 * terms**2)  # integral tail estimate
        return 1.0 - 4.0 * s

    @staticmethod
    def tau(theta):
        theta = np.asarray(theta, dtype=float)
        scalar = theta.ndim == 0
        th = np.atleast_1d(theta).astype(float)
        a = 2.0 / th
        out = np.empty(th.shape)
        near = np.abs(a - 1.0) < 1e-4  # partial fractions degenerate at theta = 2
        if np.any(near):
            out[near] = [_Joe._tau_series(t) for t in th[near]]
        rest = ~near
        if np.any(rest):
            ar, tr = a[rest], th[rest]
            egamma = np.euler_gamma
            ssum = -(digamma(1.0 + ar) + egamma) / ar - (digamma(ar) + egamma) / (1.0 - ar)
            out[rest] = 1.0 - 4.0 * ssum / tr**2
        return float(out[0]) if scalar else out

    @staticmethod
    def theta_from_tau(tau):
        if tau == 0.0:
            return 1.0
        hi = max(10.0, 6.0 / (1.0 - tau))
        return optimize.brentq(lambda th: float(_Joe.tau(th)) - tau, 1.0, hi, xtol=1e-13, rtol=1e-15)

    @staticmethod
    def frailty(rng, theta, size):
        return samplers.sibuya(rng, 1.0 / np.asarray(theta, dtype=float), size)


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


def tau_to_theta(family, tau):
    """Parameter theta giving population Kendall's tau ``tau`` (scalar or array)."""
    fam = _family(family)
    arr = np.asarray(tau, dtype=float)
    lo = -1e-9 if fam.theta_closed else 0.0  # tau = 0 sits at a closed theta bound
    if not np.all((arr > lo) & (arr < 1.0)):
        raise ValueError(f"{fam.name} supports tau in ({max(lo, 0.0)}, 1), got {tau!r}")
    if fam.name == "independence":
        return fam.theta_from_tau(arr)
    if arr.ndim == 0:
        return float(fam.theta_from_tau(float(arr)))
    return np.array([fam.theta_from_tau(float(t)) for t in arr.ravel()]).reshape(arr.shape)


def theta_to_tau(family, theta=None):
    """Population Kendall's tau for the family at ``theta`` (scalar or array)."""
    fam = _family(family)
    fam.check_theta(theta)
    if fam.name == "independence":
        return 0.0
    out = fam.tau(np.asarray(theta, dtype=float))
    return float(out) if np.ndim(out) == 0 else out


def kendall_cdf(family, w, theta=None):
    """Bivariate Kendall distribution function K(w) = pr{C(U) <= w}.

    Vectorized over ``w`` and, for batch work, over ``theta`` (broadcast
    against w).  Returns exact 0 and 1 at the endpoints.
    """
    fam = _family(family)
    fam.check_theta(theta)
    w_arr = np.asarray(w, dtype=float)
    if not np.all((w_arr >= 0.0) & (w_arr <= 1.0)):
        raise ValueError("kendall_cdf argument must lie in [0, 1]")
    out = fam.kendall(w_arr, None if theta is None else np.asarray(theta, dtype=float))
    out = np.clip(out, 0.0, 1.0)
    return float(out) if w_arr.ndim == 0 and np.ndim(out) == 0 else out


def copula_cdf(family, u, theta=None):
    """Copula CDF C(u) for u of shape (d,) or (n, d); theta scalar or (n,)."""
    fam = _family(family)
    fam.check_theta(theta)
    u_arr = np.asarray(u, dtype=float)
    if u_arr.ndim == 1:
        u_mat, scalar = u_arr[None, :], True
    elif u_arr.ndim == 2:
        u_mat, scalar = u_arr, False
    else:
        raise ValueError(f"u must have shape (d,) or (n, d), got {u_arr.shape}")
    if u_mat.shape[-1] < 2:
        raise ValueError("copula dimension must be at least 2")
    if not np.all((u_mat >= 0.0) & (u_mat <= 1.0)):
        raise ValueError("copula arguments must lie in [0, 1]")
    th = None if theta is None else np.asarray(theta, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c = fam.cdf(u_mat, th)
    c = np.clip(c, 0.0, 1.0)
    return float(c[0]) if scalar else c


def generator(family, t, theta=None):
    """Archimedean generator phi(t) on (0, 1]."""
    fam = _family(family)
    fam.check_theta(theta)
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr > 0.0) & (t_arr <= 1.0)):
        raise ValueError("generator argument must lie in (0, 1]")
    out = fam.phi(t_arr, None if theta is None else np.asarray(theta, dtype=float))
    return float(out) if t_arr.ndim == 0 and np.ndim(out) == 0 else out


def generator_inverse(family, s, theta=None):
    """Generator inverse psi(s) on [0, inf); psi(phi(t)) = t."""
    fam = _family(family)
    fam.check_theta(theta)
    s_arr = np.asarray(s, dtype=float)
    if not np.all(s_arr >= 0.0):
        raise ValueError("generator_inverse argument must be non-negative")
    out = fam.psi(s_arr, None if theta is None else np.asarray(theta, dtype=float))
    return float(out) if s_arr.ndim == 0 and np.ndim(out) == 0 else out


def sample_copula(family, rng, theta=None, dim=2, n=None):
    """Draw from the copula: shape (n, dim), or (dim,) when n is None.

    ``theta`` may be an array of length n (one parameter per row), which
    draws each row from its own copula.  Draw order is fixed: n frailties,
    then the n*dim exponentials, so extending a run never reshuffles
    earlier rows.  Values are clipped into the open unit cube.
    """
    fam = _family(family)
    fam.check_theta(theta)
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise ValueError(f"dim must be an integer >= 2, got {dim!r}")
    rows = 1 if n is None else int(n)
    if rows < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    th = None if theta is None else np.asarray(theta, dtype=float)
    if th is not None and th.ndim > 0 and th.shape != (rows,):
        raise ValueError(f"theta array must have shape ({rows},), got {th.shape}")
    v = fam.frailty(rng, th, rows)
    e = rng.standard_exponential((rows, dim))
    s = e / np.asarray(v, dtype=float)[:, None]
    u = fam.psi_frailty(s, th[:, None] if (th is not None and th.ndim > 0) else th)
    u = np.clip(u, 1e-300, 1.0 - 2.0**-53)
    return u[0] if n is None else u


def kendall_sample(family, rng, theta=None, dim=2, n=None):
    """Draw from the Kendall distribution: values C(U) with U ~ C.

    In the frailty representation U_i = psi_LT(E_i / V), the generator
    values phi(U_i) recombine exactly, so C(U) = psi(S / V) with
    S ~ Gamma(dim) -- one psi evaluation per draw instead of a full
    coordinatewise CDF evaluation.  (For the Clayton parameterization used
    here phi(psi_LT(x)) = x/theta, hence the extra 1/theta factor.)
    ``theta`` may be an array of length n.  Draw order is fixed: n
    frailties, then n gamma variables.
    """
    fam = _family(family)
    fam.check_theta(theta)
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    rows = 1 if n is None else int(n)
    if rows < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    th = None if theta is None else np.asarray(theta, dtype=float)
    if th is not None and th.ndim > 0 and th.shape != (rows,):
        raise ValueError(f"theta array must have shape ({rows},), got {th.shape}")
    v = np.asarray(fam.frailty(rng, th, rows), dtype=float)
    s = rng.standard_gamma(float(dim), size=rows) / v
    if fam.name == "clayton":
        s = s / th
    c = fam.psi(s, th)
    c = np.clip(c, 0.0, 1.0)
    return float(c[0]) if n is None else c


class ArchimedeanCopula:
    """An exchangeable Archimedean copula of a given family, parameter, dimension.

    Exactly one of ``theta`` and ``tau`` must be given (neither for the
    independence family).
    """

    def __init__(self, family, theta=None, tau=None, dim=2):
        fam = _family(family)
        if theta is not None and tau is not None:
            raise ValueError("give exactly one of theta and tau, not both")
        if fam.name != "independence" and theta is None and tau is None:
            raise ValueError(f"{fam.name} requires theta or tau")
        if tau is not None:
            theta = tau_to_theta(fam.name, float(tau))
        if theta is not None:
            theta = float(theta)
        fam.check_theta(theta)
        if not isinstance(dim, (int, np.integer)) or dim < 2:
            raise ValueError(f"dim must be an integer >= 2, got {dim!r}")
        self._fam = fam
        self.family = fam.name
        self.theta = theta
        self.dim = int(dim)

    @property
    def tau(self):
        return theta_to_tau(self.family, self.theta)

    def cdf(self, u):
        u_arr = np.asarray(u, dtype=float)
        if u_arr.shape[-1] != self.dim:
            raise ValueError(f"expected points of dimension {self.dim}, got shape {u_arr.shape}")
        return copula_cdf(self.family, u_arr, self.theta)

    def sample(self, rng, n=None):
        return sample_copula(self.family, rng, self.theta, self.dim, n)

    def kendall_cdf(self, w):
        if self.dim != 2:
            raise ValueError("closed-form Kendall distribution is bivariate only; "
                             "use a Monte Carlo estimate for higher dimensions")
        return kendall_cdf(self.family, w, self.theta)

    def generator(self, t):
        return generator(self.family, t, self.theta)

    def generator_inverse(self, s):
        return generator_inverse(self.family, s, self.theta)

    def to_dict(self):
        d = {"family": self.family, "dim": self.dim}
        if self.theta is not None:
            d["theta"] = self.theta
        return d

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError(f"copula descriptor must be an object, got {type(d).__name__}")
        extra = set(d) - {"family", "theta", "tau", "dim"}
        if extra:
            raise ValueError(f"unknown copula descriptor fields: {sorted(extra)}")
        if "family" not in d or "dim" not in d:
            raise ValueError("copula descriptor requires 'family' and 'dim'")
        if "theta" in d and "tau" in d:
            raise ValueError("copula descriptor must give exactly one of 'theta' and 'tau'")
        return cls(d["family"], theta=d.get("theta"), tau=d.get("tau"), dim=d["dim"])

    def __eq__(self, other):
        return (isinstance(other, ArchimedeanCopula)
                and (self.family, self.theta, self.dim) == (other.family, other.theta, other.dim))

    def __repr__(self):
        if self.theta is None:
            return f"ArchimedeanCopula({self.family!r}, dim={self.dim})"
        return f"ArchimedeanCopula({self.family!r}, theta={self.theta!r}, dim={self.dim})"
