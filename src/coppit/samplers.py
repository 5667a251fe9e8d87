"""Seedable random streams and the distribution samplers the package needs.

Every random quantity in the package is drawn from a numpy Generator backed
by the counter-based Philox bit generator, so runs are reproducible bit for
bit across platforms for a given seed.  Independent simulation components
get independent sub-streams derived from the master seed through
SeedSequence spawn keys: ``substream(seed, k, ...)`` is the stream for
component ``(k, ...)``, and adding a new component (a new spawn key) never
perturbs the draws of existing ones.  ``substream_integers`` gives, for
many components ``(k, ..., i)`` at once, the one bounded integer that each
of their streams would draw first, bit for bit, without building the
generators.

Callers draw uniforms, normals and exponentials from the Generator itself.
Beyond parameter-checked beta and gamma, the module provides three samplers
numpy lacks: positive stable variates (Kanter's representation),
logarithmic-series variates (Kemp's LS scheme, parameterized by log(1-p) so
p arbitrarily close to 1 stays well-posed), and Sibuya variates (asymptotic
inversion corrected by the exact survival function).  The latter three are
the frailty distributions used for Archimedean copula sampling.
"""

import math

import numpy as np
from scipy.special import gammaln

DEFAULT_SEED = 123456789

__all__ = [
    "DEFAULT_SEED",
    "make_rng",
    "substream",
    "substream_integers",
    "beta",
    "gamma",
    "positive_stable",
    "log_series",
    "sibuya",
]


def _check_seed(seed):
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return int(seed)


def make_rng(seed=DEFAULT_SEED):
    """Master Generator for ``seed`` (Philox; counter-based, jump-free)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(_check_seed(seed))))


def _check_key(key):
    if not key:
        raise ValueError("substream requires at least one key component")
    key = tuple(int(k) for k in key)
    if any(k < 0 for k in key):
        raise ValueError(f"substream key components must be non-negative, got {key}")
    return key


def substream(seed, *key):
    """Independent Generator for component ``key`` under ``seed``.

    The key is an arbitrary tuple of non-negative integers.  Streams for
    distinct keys are statistically independent, and the mapping
    (seed, key) -> stream is stable: new keys never disturb old ones.
    """
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(_check_seed(seed), spawn_key=_check_key(key))))


# numpy's SeedSequence hash constants (O'Neill's seed_seq_fe) and the
# Philox4x64-10 multipliers and Weyl key increments (Salmon et al. 2011)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _words(x):
    """The number of uint32 words SeedSequence makes of the integer ``x``."""
    return max(1, -(-x.bit_length() // 32))


def _hash(x, const, mult):
    """SeedSequence's hashmix step on the uint32 array ``x``, and the next constant."""
    following = const * mult & _MASK32
    x = (x ^ np.uint32(const)) * np.uint32(following)
    return x ^ x >> np.uint32(16), following


def _mulhilo(a, b):
    """High and low 64-bit words of the 128-bit products of the constant
    ``a`` and the uint64 array ``b``, from 32-bit halves."""
    lo32 = np.uint64(_MASK32)
    a0, a1, b0, b1 = np.uint64(a & _MASK32), np.uint64(a >> 32), b & lo32, b >> np.uint64(32)
    cross0, cross1 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> np.uint64(32)) + (cross0 & lo32) + (cross1 & lo32)
    hi = a1 * b1 + (cross0 >> np.uint64(32)) + (cross1 >> np.uint64(32)) + (mid >> np.uint64(32))
    return hi, np.uint64(a) * b


def _first_words(seed, key, idx):
    """Low 32 bits of the first 64-bit output of the Philox stream of each
    component ``(*key, idx[i])``, for ``idx`` below 2**32.

    A child's entropy is its parent's plus the one word idx[i], so its pool
    is the parent's pool mixed with that word: four hashmix/mix steps whose
    hash constant continues past the parent's 16 + 4 (words - 4) calls.
    ``generate_state(2, uint64)`` hashes the pool into the Philox key, and
    the first output is block 1: Philox increments its counter before it
    generates.
    """
    words = max(4, _words(seed)) + sum(_words(k) for k in key)
    const = _INIT_A * pow(_MULT_A, 16 + 4 * (words - 4), 1 << 32) & _MASK32
    pool = np.random.SeedSequence(seed, spawn_key=key).pool.tolist()
    x = idx.astype(np.uint32)
    state, hash_b = [], _INIT_B
    with np.errstate(over="ignore"):
        for p in pool:
            hashed, const = _hash(x, const, _MULT_A)
            mixed = np.uint32(_MIX_L * p & _MASK32) - np.uint32(_MIX_R) * hashed
            word, hash_b = _hash(mixed ^ mixed >> np.uint32(16), hash_b, _MULT_B)
            state.append(word.astype(np.uint64))
        k0, k1 = state[0] | state[1] << np.uint64(32), state[2] | state[3] << np.uint64(32)
        c0 = np.ones(idx.shape, dtype=np.uint64)
        c1 = c2 = c3 = np.zeros(idx.shape, dtype=np.uint64)
        for r in range(10):
            if r:
                k0, k1 = k0 + np.uint64(_PHILOX_W[0]), k1 + np.uint64(_PHILOX_W[1])
            hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0 & np.uint64(_MASK32)


def substream_integers(seed, key, idx, high):
    """``substream(seed, *key, idx[i]).integers(0, high[i])`` for each i, as
    an int64 array, bit for bit, without building the generators.

    ``idx`` and ``high`` are equal-length integer sequences, with idx >= 0
    and high >= 1.  The draw is Lemire's bounded integer on the stream's
    first 32-bit output: u * high >> 32, rejected when the low word of
    u * high falls below (2**32 - high) mod high.  Rejected draws, idx of
    2**32 or more and high past 2**32 - 1 are drawn by ``substream``
    itself; high = 1 gives 0, as numpy does without drawing.
    """
    seed, key = _check_seed(seed), _check_key(key)
    idx = np.asarray(idx, dtype=np.int64).reshape(-1)
    high = np.asarray(high, dtype=np.int64).reshape(-1)
    if idx.shape != high.shape or np.any(idx < 0) or np.any(high < 1):
        raise ValueError("need equal-length idx >= 0 and high >= 1")
    u = _first_words(seed, key, idx)
    with np.errstate(over="ignore"):
        h = high.astype(np.uint64)
        scaled = u * h
        rejected = (scaled & np.uint64(_MASK32)) < (np.uint64(1 << 32) - h) % h
    out = (scaled >> np.uint64(32)).astype(np.int64)
    for i in np.flatnonzero(rejected | (idx > _MASK32) | (high > _MASK32)).tolist():
        out[i] = substream(seed, *key, int(idx[i])).integers(0, int(high[i]))
    return out


def beta(rng, a, b, size=None):
    if np.any(np.asarray(a) <= 0) or np.any(np.asarray(b) <= 0):
        raise ValueError(f"beta requires a > 0 and b > 0, got a={a}, b={b}")
    return rng.beta(a, b, size)


def gamma(rng, shape, size=None):
    if np.any(np.asarray(shape) <= 0):
        raise ValueError(f"gamma requires shape > 0, got {shape}")
    return rng.standard_gamma(shape, size)


def _broadcast(arr, size):
    """``arr`` broadcast to the draw shape, the shape, and whether the output
    is a scalar: ``size`` draws, or one per element of ``arr`` without it."""
    shape = arr.shape if size is None else (size if isinstance(size, tuple) else (size,))
    return np.broadcast_to(arr, shape), shape, size is None and arr.shape == ()


def _broadcast_param(alpha, size):
    arr = np.asarray(alpha, dtype=float)
    if not np.all((arr > 0.0) & (arr <= 1.0)):
        raise ValueError(f"alpha must lie in (0.0, 1.0], got {alpha!r}")
    return _broadcast(arr, size)


def positive_stable(rng, alpha, size=None):
    """Positive stable variates with index ``alpha`` in (0, 1].

    Kanter's representation: with Theta ~ U(0, pi) and W ~ Exp(1),

        V = (A(Theta) / W)^((1 - alpha) / alpha),
        A(t) = [sin(alpha t)^alpha * sin((1-alpha) t)^(1-alpha) / sin(t)]^(1/(1-alpha)),

    has Laplace transform E exp(-sV) = exp(-s^alpha).  Computed in log
    space; alpha = 1 gives the degenerate unit mass.  ``alpha`` may be an
    array (one index per draw).
    """
    alpha_b, shape, scalar_out = _broadcast_param(alpha, size)
    theta = rng.random(shape) * np.pi
    w = rng.standard_exponential(shape)
    # guard the open-interval assumptions; p(boundary) = 0 but floats happen
    theta = np.clip(theta, 1e-300, np.pi * (1 - 1e-16))
    w = np.maximum(w, 1e-300)
    out = np.ones(shape)
    # alpha keeps its own shape: a scalar index is one active flag and one
    # pair of exponents for every draw; an array selects its active draws
    a = np.asarray(alpha, dtype=float)
    act = a < 1.0
    if np.any(act):
        if a.ndim:
            act = np.broadcast_to(act, shape)
            a, theta, w = alpha_b[act], theta[act], w[act]
        b = 1 - a
        log_a_num = a * np.log(np.sin(a * theta)) + b * np.log(np.sin(b * theta)) - np.log(np.sin(theta))
        # V = (A/W)^((1-a)/a), log A = log_a_num / (1 - a)
        out[act] = np.exp(b / a * (log_a_num / b - np.log(w)))
    if scalar_out:
        return float(out[()])
    return out


def _log_series_from_log1mp(rng, log1mp, size=None):
    """Log-series variates given r = log(1 - p) < 0 (may be an array).

    Kemp's LS scheme: draw V ~ U(0,1); if V >= p return 1; else draw
    U ~ U(0,1) and set Q = 1 - exp(U * log(1-p)) = 1 - (1-p)^U; return
    floor(1 + log(V) / log(Q)), with the degenerate Q cases mapped to 1.
    Works directly from log(1-p), so p indistinguishable from 1.0 in
    float64 is still exact.
    """
    r = np.asarray(log1mp, dtype=float)
    if not np.all(r < 0):
        raise ValueError(f"log(1-p) must be negative, got {log1mp!r}")
    r, shape, scalar_out = _broadcast(r, size)
    v = np.maximum(rng.random(shape), 2.0**-53)
    u = np.maximum(rng.random(shape), 2.0**-53)
    out = np.ones(shape)
    big = v < -np.expm1(r)  # V >= p is an immediate K = 1
    if np.any(big):
        x = u[big] * r[big]  # log((1-p)^U) < 0
        lv = np.log(v[big])
        # geometric inversion K = floor(1 + log V / log Q), Q = 1 - e^x
        log_q = np.where(x > -0.6931471805599453, np.log(-np.expm1(x)), np.log1p(-np.exp(x)))
        with np.errstate(divide="ignore"):
            ratio = lv / log_q
        deep = x < -600.0
        if np.any(deep):
            # e^x underflows; log Q = -e^x exactly, so the ratio is -log(V) e^{-x}
            lr = np.log(-lv[deep]) - x[deep]
            ratio[deep] = np.exp(np.minimum(lr, 690.0))
        out[big] = np.maximum(np.floor(1.0 + ratio), 1.0)
    if scalar_out:
        return float(out[()])
    return out


def log_series(rng, p, size=None):
    """Logarithmic-series variates, pmf(k) = -p^k / (k log(1-p)), k >= 1.

    Returns integer-valued float64 (the tails of companion frailty uses
    exceed int64 for extreme parameters).  ``p`` in (0, 1), array ok.
    """
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0) & (arr < 1)):
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    return _log_series_from_log1mp(rng, np.log1p(-arr), size)


def _sibuya_log_sf(k, alpha, lgamma_1ma):
    """log S(k) for the Sibuya(alpha) survival S(k) = 1/(k B(k, 1-alpha)),
    given ``lgamma_1ma`` = gammaln(1 - alpha); the three broadcast.

    The gammaln difference cancels catastrophically for large k (both terms
    ~ k log k while the result is ~ -alpha log k), so past 1e6 the
    asymptotic expansion takes over; at the crossover both forms agree to
    ~1e-9 absolute.  Each element evaluates only its own form.
    """
    k, alpha, lgamma_1ma = np.broadcast_arrays(np.asarray(k, dtype=float), alpha, lgamma_1ma)
    out = np.empty(k.shape)
    direct = k <= 1e6
    kd, ad = k[direct], alpha[direct]
    out[direct] = gammaln(kd + 1 - ad) - gammaln(kd + 1) - lgamma_1ma[direct]
    expand = ~direct
    ke, ae = k[expand], alpha[expand]
    out[expand] = -ae * np.log(ke) - lgamma_1ma[expand] - ae * (1 - ae) / (2 * ke)
    return out


_SIBUYA_TABLE_K = 24


def _sibuya_invert(u, alpha):
    """Smallest integer k >= 1 with S(k) <= 1 - u, for u, alpha arrays.

    Answers up to _SIBUYA_TABLE_K come from the exact product
    S(k) = prod_{j<=k} (1 - alpha/j), tabulated once when alpha is a scalar;
    larger ones from the asymptotic inverse k ~ ((1-u) Gamma(1-alpha))^(-1/alpha),
    which is within one of the truth once k is past the table (verified
    exhaustively in tests), followed by exact-survival correction steps.
    """
    alpha = np.asarray(alpha, dtype=float)
    shape = np.broadcast(u, alpha).shape
    u = np.broadcast_to(np.asarray(u, dtype=float), shape)
    out = np.ones(shape)
    big = u > alpha  # pr(K = 1) = alpha
    if not np.any(big):
        return out
    # one table row per draw, or one row for all draws when alpha is a scalar
    a = alpha[None] if alpha.ndim == 0 else np.broadcast_to(alpha, shape)[big]
    log_tail = np.log1p(-u[big])  # log(1 - u) = target log-survival
    ks = np.arange(1, _SIBUYA_TABLE_K + 1, dtype=float)
    log_sf_table = np.cumsum(np.log1p(-a[:, None] / ks[None, :]), axis=1)
    in_table = log_sf_table[:, -1] <= log_tail
    k_big = np.ones(log_tail.shape)
    if np.any(in_table):
        # first column whose log-survival drops to the target: each row falls
        rows = log_sf_table if a.size == 1 else log_sf_table[in_table]
        k_big[in_table] = 1.0 + (rows > log_tail[in_table, None]).sum(axis=1)
    rest = ~in_table
    if np.any(rest):
        tr = log_tail[rest]
        # gammaln(1 - alpha) once per table row, so once for a scalar alpha
        a = a if a.size == 1 else a[rest]
        ar = np.broadcast_to(a, tr.shape)
        lg = np.broadcast_to(gammaln(1 - a), tr.shape)
        # solve -alpha log k - alpha (1-alpha)/(2k) = T for log k; the
        # second-order term matters because the residual gets divided by
        # alpha.  Past float granularity (k ~ 2^53) skip the refinement,
        # and cap at ~1e299: beyond that no representable integer is exact.
        log_kc = -(tr + lg) / ar
        log_kc = np.minimum(log_kc, 690.0)
        small_enough = log_kc < 36.0
        k0 = np.exp(np.minimum(log_kc, 36.0))
        log_kc = np.where(small_enough, log_kc - (1 - ar) / (2 * k0), log_kc)
        k = np.maximum(np.floor(np.exp(log_kc)) - 2.0, float(_SIBUYA_TABLE_K))
        # the survival falls in k, so an entry that did not step never steps again
        moving = np.arange(k.size)
        for _ in range(6):
            moving = moving[_sibuya_log_sf(k[moving], ar[moving], lg[moving]) > tr[moving]]
            if not moving.size:
                break
            k[moving] += 1.0
        k_big[rest] = k
    out[big] = k_big
    return out


def sibuya(rng, alpha, size=None):
    """Sibuya(alpha) variates, alpha in (0, 1]: pr(K > k) = 1/(k B(k, 1-alpha)).

    Inverts one uniform per draw: u <= alpha gives K = 1 (pr(K=1) = alpha);
    otherwise the asymptotic inverse k ~ ((1-u) Gamma(1-alpha))^(-1/alpha)
    locates the answer to within one, and evaluating the exact survival
    function at the neighbouring integers pins it down.  Returns
    integer-valued float64 (infinite mean for alpha < 1; values can exceed
    int64).  ``alpha`` may be an array (one index per draw).
    """
    alpha_b, shape, scalar_out = _broadcast_param(alpha, size)
    u = rng.random(shape)
    out = _sibuya_invert(u, alpha if np.ndim(alpha) == 0 else alpha_b)
    if scalar_out:
        return float(out[()])
    return out
