"""Standard bivariate normal CDF.

Drezner-Wesolowsky Gauss-Legendre quadrature of the tetrachoric series in
Genz's arrangement: fixed 6/12/20-point rules chosen by |rho| below 0.925,
and a transformed integral plus asymptotic expansion for |rho| >= 0.925,
with the |rho| = 1 limits exact.  Absolute error is below 5e-16 over the
whole range, far inside the 1e-7 the calibration checks require.

Everything is vectorized over (h, k); rho may be a scalar or an array
broadcasting with them.
"""

import numpy as np
from scipy.special import ndtr

__all__ = ["bvn_cdf", "bvn_upper"]

# Gauss-Legendre nodes (positive half, [-1, 1]) and weights
_GL_RULES = (
    (0.3,
     np.array([0.9324695142031522, 0.6612093864662647, 0.2386191860831970]),
     np.array([0.1713244923791705, 0.3607615730481384, 0.4679139345726904])),
    (0.75,
     np.array([0.9815606342467191, 0.9041172563704750, 0.7699026741943050,
               0.5873179542866171, 0.3678314989981802, 0.1252334085114692]),
     np.array([0.04717533638651177, 0.1069393259953183, 0.1600783285433464,
               0.2031674267230659, 0.2334925365383547, 0.2491470458134029])),
    (0.925,
     np.array([0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
               0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
               0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
               0.07652652113349733]),
     np.array([0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
               0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
               0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
               0.1527533871307259])),
)
_X20, _W20 = _GL_RULES[2][1], _GL_RULES[2][2]
_SATURATE = 40.0


def _bvnu_moderate(h, k, r, x, w):
    """Upper-orthant probability for |r| < 0.925 with the given GL rule."""
    hk = h * k
    hs = (h * h + k * k) / 2.0
    asr = np.arcsin(r) / 2.0
    sn = np.sin(asr[..., None] * np.concatenate([1.0 - x, 1.0 + x]))
    terms = np.exp((sn * hk[..., None] - hs[..., None]) / (1.0 - sn * sn))
    total = np.sum(np.concatenate([w, w]) * terms, axis=-1)
    return total * asr / (2.0 * np.pi) + ndtr(-h) * ndtr(-k)


def _bvnu_high(h, k, r):
    """Upper-orthant probability for 0.925 <= |r| <= 1."""
    neg = r < 0
    k = np.where(neg, -k, k)
    hk = h * k
    bvn = np.zeros(np.broadcast(h, k, r).shape)
    interior = np.abs(r) < 1.0
    if np.any(interior):
        rs_ = np.abs(r)
        a_s = (1.0 - rs_) * (1.0 + rs_)
        a = np.sqrt(np.maximum(a_s, 0.0))
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            asr0 = -(bs / a_s + hk) / 2.0
            t0 = a * np.exp(asr0) * (1.0 - c * (bs - a_s) * (1.0 - d * bs / 5.0) / 3.0
                                     + c * d * a_s * a_s / 5.0)
            acc = np.where(asr0 > -100.0, t0, 0.0)
            b = np.sqrt(bs)
            sp0 = np.sqrt(2.0 * np.pi) * ndtr(-b / np.where(a > 0, a, np.inf))
            t1 = np.exp(-hk / 2.0) * sp0 * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
            acc = acc - np.where(-hk < 100.0, t1, 0.0)
            a2 = a / 2.0
            for sign in (-1.0, 1.0):
                xs = (a2[..., None] * (sign * _X20 + 1.0)) ** 2
                rs = np.sqrt(np.maximum(1.0 - xs, 0.0))
                asr1 = -(bs[..., None] / np.where(xs > 0, xs, np.inf) + hk[..., None]) / 2.0
                sp = 1.0 + c[..., None] * xs * (1.0 + d[..., None] * xs)
                ep = np.exp(-hk[..., None] * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
                term = a2[..., None] * _W20 * np.exp(asr1) * (ep - sp)
                acc = acc + np.sum(np.where(asr1 > -100.0, term, 0.0), axis=-1)
        bvn = np.where(interior, -acc / (2.0 * np.pi), bvn)
    pos_part = bvn + ndtr(-np.maximum(h, k))
    neg_part = np.maximum(0.0, ndtr(-h) - ndtr(-k)) - bvn
    return np.where(neg, neg_part, pos_part)


def bvn_upper(h, k, rho):
    """P(X > h, Y > k) for standard bivariate normal with correlation rho."""
    h_arr, k_arr, r_arr = np.broadcast_arrays(
        np.asarray(h, dtype=float), np.asarray(k, dtype=float), np.asarray(rho, dtype=float))
    scalar = h_arr.ndim == 0
    h_arr, k_arr, r_arr = np.atleast_1d(h_arr), np.atleast_1d(k_arr), np.atleast_1d(r_arr)
    if not (np.all(np.isfinite(h_arr)) and np.all(np.isfinite(k_arr))):
        raise ValueError("bvn bounds must be finite")
    if np.any(np.abs(r_arr) > 1.0) or not np.all(np.isfinite(r_arr)):
        raise ValueError("correlation must lie in [-1, 1]")
    # Phi is exactly 0 or 1 in double beyond |x| = 38.5: saturating the bounds
    # there changes no probability and keeps their squares and products finite
    h_arr = np.clip(h_arr, -_SATURATE, _SATURATE)
    k_arr = np.clip(k_arr, -_SATURATE, _SATURATE)
    out = np.empty(h_arr.shape)
    ar = np.abs(r_arr)
    done = np.zeros(h_arr.shape, dtype=bool)
    for hi, x, w in _GL_RULES:
        m = ~done & (ar < hi)
        if np.any(m):
            out[m] = _bvnu_moderate(h_arr[m], k_arr[m], r_arr[m], x, w)
            done |= m
    m = ~done
    if np.any(m):
        out[m] = _bvnu_high(h_arr[m], k_arr[m], r_arr[m])
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def bvn_cdf(h, k, rho):
    """P(X <= h, Y <= k) for standard bivariate normal with correlation rho.

    The joint probability is assembled from the upper-orthant routine as
    Phi(h) + Phi(k) - 1 + P(X > h, Y > k) and clipped into the Frechet
    bounds [max(0, Phi(h)+Phi(k)-1), min(Phi(h), Phi(k))].
    """
    h_arr = np.asarray(h, dtype=float)
    k_arr = np.asarray(k, dtype=float)
    upper = bvn_upper(h_arr, k_arr, rho)
    ph, pk = ndtr(h_arr), ndtr(k_arr)
    p = ph + pk - 1.0 + upper
    return np.clip(p, np.maximum(ph + pk - 1.0, 0.0), np.minimum(ph, pk))
