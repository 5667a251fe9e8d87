"""Standard bivariate normal CDF.

Drezner-Wesolowsky Gauss-Legendre quadrature of the tetrachoric series in
Genz's arrangement: fixed 6/12/20-point rules chosen by |rho| below 0.925,
and a transformed integral plus asymptotic expansion for |rho| >= 0.925,
with the |rho| = 1 limits exact.  Absolute error is below 5e-16 over the
whole range, far inside the 1e-7 the calibration checks require.

Everything is vectorized over (h, k).  rho keeps its own shape: a scalar rho
has its rule chosen and its node terms (arcsin, the node sines) computed once
per call, so only the terms in h and k are evaluated per point.  An array rho
takes the points' shape and runs through the same lines, one rule per point.

``bvn_cdf`` clips Phi(h) + Phi(k) - 1 + P(X > h, Y > k) into the Frechet
bounds built from the same ``ndtr`` values.  ``bvn_cdf_counts`` counts the
points whose value lies below a threshold w with the same expression, but
first settles each point by the cheapest exact bound that decides it: its
score min(h, k) against ndtri(w) and ndtri((1 + w) / 2), with no ``ndtr``;
then the Frechet bounds; then a bracket around Phi(h) Phi(k), on the
sign-of-rho side of it by Slepian's inequality (Slepian 1962) and as wide as
Plackett's identity allows.  Each test keeps a margin far above the rounding
and the quadrature error it has to absorb, so the counts are those of the
whole sample.  On the Monte Carlo draws of the bench's seed-1 bivariate
archive, ``ndtr`` runs on 47.7% of the draws (at most 88.5% in one case) and
the quadrature on 7.9% (at most 36.0%); Slepian's side of the bracket alone
would leave it 18.7%, and the Frechet bounds alone, with ``ndtr`` on every
draw, 32.7% (at most 53.7%).

The quadrature terms are laid out node-major, (nodes, points), so every
elementwise step runs along the points rather than over a 6-20 long inner
axis.  The nodes are then summed row by row by ``_node_sum`` in numpy's own
order for ``np.sum(terms, axis=-1)`` on the (points, nodes) layout: any other
order changes last bits, and the golden digests record those bits.
"""

import numpy as np
from scipy.special import ndtr, ndtri

from .samplers import _check_finite, _check_unit

__all__ = ["bvn_cdf", "bvn_cdf_counts", "bvn_upper"]

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
# each rule as its 2K nodes 1 -/+ x on [0, 2] with their weights, built once
_DOUBLED_RULES = tuple(
    (cut, np.concatenate([1.0 - x, 1.0 + x]), np.concatenate([w, w])) for cut, x, w in _GL_RULES)
_X20, _W20 = _GL_RULES[2][1], _GL_RULES[2][2]
_SATURATE = 40.0


def _node_sum(terms):
    """Sum node-major terms (nodes, points) over the nodes, bit for bit as
    ``np.sum`` sums each row of the (points, nodes) transpose.

    numpy adds a row of fewer than 8 terms in sequence; from 8 (up to its
    128-term pairwise block, beyond every rule here) it runs 8 accumulators
    over the whole groups of 8, combines them as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and adds the rest in sequence.  The
    result is added to the +0.0 the reduction starts from, so a row of -0.0
    sums to +0.0.
    """
    n = len(terms)
    if n < 8:
        total = terms[0].copy()
        for row in terms[1:]:
            total += row
    else:
        acc = terms[:8]
        for i in range(8, n - n % 8, 8):
            acc = acc + terms[i:i + 8]
        total = (acc[0] + acc[1]) + (acc[2] + acc[3])
        total += (acc[4] + acc[5]) + (acc[6] + acc[7])
        for row in terms[n - n % 8:]:
            total += row
    total += 0.0
    return total


def _bvnu_moderate(h, k, r, x2, w2):
    """Upper-orthant probability for |r| < 0.925 with the given doubled GL rule.

    r holds one value shared by every point, shape (1,), or one value per
    point.  Its node terms are computed at that shape as (nodes, 1) or
    (nodes, points) and broadcast along the points.  The (nodes, points)
    terms are updated in place, so a call allocates one such array rather
    than one per operation, and each in-place step runs along the points.
    ``_node_sum`` adds the node rows in the order ``np.sum(axis=-1)`` adds
    the same terms laid out (points, nodes): the golden digests record the
    bits of that order.
    """
    hk = h * k
    hs = (h * h + k * k) / 2.0
    asr = np.arcsin(r) / 2.0
    sn = np.sin(x2[:, None] * asr)
    terms = sn * hk
    terms -= hs
    terms /= 1.0 - sn * sn
    np.exp(terms, out=terms)
    terms *= w2[:, None]
    total = _node_sum(terms)
    return total * asr / (2.0 * np.pi) + ndtr(-h) * ndtr(-k)


def _bvnu_high(h, k, r):
    """Upper-orthant probability for 0.925 <= |r| <= 1, r as in _bvnu_moderate.

    The 20-point rule's terms for each sign of the node offsets are built
    node-major, (10, points), and summed by ``_node_sum`` like the moderate
    rules' terms.
    """
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
                xs = ((sign * _X20 + 1.0)[:, None] * a2) ** 2
                rs = np.sqrt(np.maximum(1.0 - xs, 0.0))
                asr1 = -(bs / np.where(xs > 0, xs, np.inf) + hk) / 2.0
                sp = 1.0 + c * xs * (1.0 + d * xs)
                ep = np.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
                term = _W20[:, None] * a2 * np.exp(asr1) * (ep - sp)
                acc = acc + _node_sum(np.where(asr1 > -100.0, term, 0.0))
        bvn = np.where(interior, -acc / (2.0 * np.pi), bvn)
    pos_part = bvn + ndtr(-np.maximum(h, k))
    neg_part = np.maximum(0.0, ndtr(-h) - ndtr(-k)) - bvn
    return np.where(neg, neg_part, pos_part)


def _check_args(h, k, rho):
    """(h, k, rho, scalar): h and k as float arrays broadcast with rho and
    made at least 1-d, rho as a float array at its own shape or, if it has
    one, at theirs, and whether all three were scalars; a ValueError unless
    every bound is finite and every |rho| <= 1."""
    r_arr = np.asarray(rho, dtype=float)
    h_arr, k_arr = np.broadcast_arrays(
        np.asarray(h, dtype=float), np.asarray(k, dtype=float), r_arr)[:2]
    scalar = h_arr.ndim == 0
    h_arr, k_arr = np.atleast_1d(h_arr, k_arr)
    _check_finite(h_arr, "bvn bounds")
    _check_finite(k_arr, "bvn bounds")
    if not (np.abs(r_arr) <= 1.0).all():  # nan fails too
        raise ValueError("correlation must lie in [-1, 1]")
    return h_arr, k_arr, np.broadcast_to(r_arr, h_arr.shape) if r_arr.ndim else r_arr, scalar


def _upper(h, k, r):
    """``bvn_upper`` of the arrays ``_check_args`` returns, as an array."""
    shape = h.shape
    # Phi is exactly 0 or 1 in double beyond |x| = 38.5: saturating the bounds
    # there changes no probability and keeps their squares and products finite
    h = np.clip(h, -_SATURATE, _SATURATE).ravel()
    k = np.clip(k, -_SATURATE, _SATURATE).ravel()
    r = r.ravel() if r.ndim else r
    out = np.empty(h.shape)
    ar = np.abs(r)
    # the branch masks live at rho's shape: for a scalar rho each is one bool,
    # indexing rho with it gives the single (1,) value every point shares, and
    # the rule it selects takes the whole point arrays (Ellipsis), ungathered
    done = np.zeros(r.shape, dtype=bool)
    for hi, x2, w2 in _DOUBLED_RULES:
        m = ~done & (ar < hi)
        if m.any():
            at = np.broadcast_to(m, out.shape) if m.ndim else Ellipsis
            out[at] = _bvnu_moderate(h[at], k[at], r[m], x2, w2)
            done |= m
    m = ~done
    if m.any():
        at = np.broadcast_to(m, out.shape) if m.ndim else Ellipsis
        out[at] = _bvnu_high(h[at], k[at], r[m])
    return np.clip(out, 0.0, 1.0).reshape(shape)


def bvn_upper(h, k, rho):
    """P(X > h, Y > k) for standard bivariate normal with correlation rho."""
    h_arr, k_arr, r_arr, scalar = _check_args(h, k, rho)
    out = _upper(h_arr, k_arr, r_arr)
    return float(out[0]) if scalar else out


def _bounds(ph, pk):
    """Phi(h) + Phi(k) - 1 and the Frechet bounds max(that, 0) and
    min(Phi(h), Phi(k)) that ``bvn_cdf`` clips into, from the ``ndtr``
    values ph and pk of the bounds."""
    s = ph + pk - 1.0
    return s, np.maximum(s, 0.0), np.minimum(ph, pk)


def _joint(h, k, r, s, lo, hi):
    """P(X <= h, Y <= k) as s + P(X > h, Y > k), clipped into [lo, hi]:
    ``bvn_cdf``'s one expression, given checked arguments and their
    ``_bounds``."""
    return np.clip(s + _upper(h, k, r), lo, hi)


def bvn_cdf(h, k, rho):
    """P(X <= h, Y <= k) for standard bivariate normal with correlation rho.

    The joint probability is assembled from the upper-orthant routine as
    Phi(h) + Phi(k) - 1 + P(X > h, Y > k) and clipped into the Frechet
    bounds [max(0, Phi(h)+Phi(k)-1), min(Phi(h), Phi(k))].
    """
    h_arr, k_arr, r_arr, scalar = _check_args(h, k, rho)
    p = _joint(h_arr, k_arr, r_arr, *_bounds(ndtr(h_arr), ndtr(k_arr)))
    return p[0] if scalar else p


# The score-space settle: inside this open range of w, a point with
# min(h, k) < ndtri(w) - delta has Phi(min(h, k)) < w, and one with
# min(h, k) > ndtri((1 + w) / 2) + delta has Phi(h) + Phi(k) - 1 > w.  The
# ndtr and ndtri rounding there is below 1e-9 in score units (at most a few
# ulp of 1 over a density above 2e-6 at the top of the range), so delta =
# 1e-6 leaves a margin of three orders of magnitude.
_SCORE_W = (1e-280, 1.0 - 1e-6)
_SCORE_DELTA = 1e-6
# Slepian's inequality puts Phi2(h, k; rho) on the sign-of-rho side of
# Phi(h) Phi(k), and Plackett's identity, d Phi2 / d rho = phi2, bounds how
# far: the density phi2(h, k; r) for |r| <= |rho| is at most
# exp(-(h^2 + k^2) / (2 (1 + |rho|))) / (2 pi sqrt(1 - r^2)), whose integral
# over r is ``width`` below.  The margin covers the quadrature's 5e-16
# absolute error and the rounding of ndtr, the product and the width, a few
# 1e-16 in all.
_BRACKET_MARGIN = 1e-13


def bvn_cdf_counts(h, k, rho, w):
    """(#{p < w}, #{p <= w}) over the ``bvn_cdf`` values p of the points
    (h, k), with rho one correlation or one per point.

    Every point is checked as ``bvn_cdf`` checks it, and then settled by the
    first of three bounds that decides it, each one exact with a margin far
    above the rounding it has to absorb:

    1. score space, no ``ndtr``: for w inside ``_SCORE_W``, min(h, k) below
       ndtri(w) - delta puts Phi(min(h, k)) = hi below w, and min(h, k) above
       ndtri((1 + w) / 2) + delta puts lo above w;
    2. the Frechet bounds: ``bvn_cdf`` clips p into [min(lo, hi), hi] (np.clip
       takes hi when the bounds cross), so hi < w is below w and
       min(lo, hi) > w above it, from the same ``ndtr`` values as the clip;
    3. a bracket around Phi(h) Phi(k): by Slepian's inequality p lies at or
       above it for rho >= 0 and at or below it for rho <= 0, and by
       Plackett's identity at most ``width`` from it, so a bracket that
       clears w by the margin puts p on that side of w.

    Only the points that none of them settles get the expression of
    ``bvn_cdf``, and their p carry its bits, so the counts equal those of the
    whole sample of p.
    """
    h, k, r, _ = _check_args(h, k, rho)
    h, k, r = h.ravel(), k.ravel(), r.ravel() if r.ndim else r
    w = _check_unit(w, "count threshold w")
    n_below = 0
    if _SCORE_W[0] < w < _SCORE_W[1]:
        t, t2 = ndtri((w, (1.0 + w) / 2.0))
        m = np.minimum(h, k)
        low = m < t - _SCORE_DELTA
        n_below = np.count_nonzero(low)
        rest = np.flatnonzero(~low & (m <= t2 + _SCORE_DELTA))
        h, k, r = h[rest], k[rest], r[rest] if r.ndim else r
    ph, pk = ndtr(h), ndtr(k)
    s, lo, hi = _bounds(ph, pk)
    below = hi < w
    near = np.flatnonzero(~below & (np.minimum(lo, hi) <= w))  # indices: cheaper than masks
    r_near = r[near] if r.ndim else r
    prod = ph[near] * pk[near]
    ar = np.abs(r_near)
    # saturating the bounds, as the quadrature does, only widens the bracket
    hn, kn = np.clip(h[near], -_SATURATE, _SATURATE), np.clip(k[near], -_SATURATE, _SATURATE)
    width = np.arcsin(ar) / (2.0 * np.pi) * np.exp(-(hn * hn + kn * kn) / (2.0 + 2.0 * ar))
    bracket_below = prod + width * (r_near > 0.0) < w - _BRACKET_MARGIN
    left = near[~bracket_below & ~(prod - width * (r_near < 0.0) > w + _BRACKET_MARGIN)]
    p = _joint(h[left], k[left], r[left] if r.ndim else r, s[left], lo[left], hi[left])
    n_below += np.count_nonzero(below) + np.count_nonzero(bracket_below)
    return n_below + np.count_nonzero(p < w), n_below + np.count_nonzero(p <= w)
