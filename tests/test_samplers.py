"""Distributional and determinism tests for the random-stream layer.

Statistical tests run on fixed seeds, so they are deterministic; tolerances
are set at the 1% significance level of the corresponding exact test (or at
explicitly frozen analytic values).
"""

import numpy as np
import pytest
from scipy import stats
from scipy.special import erfc, gammaln

from coppit import samplers as sp

N = 100_000


def test_make_rng_deterministic():
    a = sp.make_rng(42).random(100)
    b = sp.make_rng(42).random(100)
    assert np.array_equal(a, b)
    c = sp.make_rng(43).random(100)
    assert not np.array_equal(a, c)


def test_substream_independent_and_stable():
    a0 = sp.substream(42, 0).random(50)
    a1 = sp.substream(42, 1).random(50)
    assert not np.array_equal(a0, a1)
    # creating other substreams never perturbs an existing one
    sp.substream(42, 7, 3).random(1000)
    assert np.array_equal(sp.substream(42, 0).random(50), a0)
    # nested keys are distinct from flat ones
    assert not np.array_equal(sp.substream(42, 0, 0).random(50), a0)


def test_substream_integers_match_substreams(monkeypatch):
    # every idx from 2**32 on, and the rejected draws, go to substream itself;
    # idx is a reversed (negative-stride) view of gapped values
    idx = np.r_[np.arange(0, 300, 3), 2**32 - 1, 2**32, 2**32 + 7][::-1]
    high = np.resize([1, *range(2, 22), 2**31 + 6, 2**32 - 1], idx.size)
    real, big, rejected = sp.substream, int(np.sum(idx >= 2**32)), 0
    for seed in (0, 1, 123456789, 2**32 - 1, 2**32, 2**64 + 3, 2**130):
        for key in ((2,), (7, 3), (2**33,)):
            want = [real(seed, *key, i).integers(0, h)
                    for i, h in zip(idx.tolist(), high.tolist())]
            calls = []
            monkeypatch.setattr(sp, "substream", lambda *a: calls.append(a) or real(*a))
            got = sp.substream_integers(seed, key, idx, high)
            monkeypatch.setattr(sp, "substream", real)
            assert got.dtype == np.int64 and got.tolist() == want, (seed, key)
            # high = 2**31 + 6 rejects about half its draws; smaller ranges almost never
            assert big <= len(calls) <= np.sum((idx >= 2**32) | (high > 2**31))
            rejected += len(calls) - big
    assert rejected > 10
    assert sp.substream_integers(5, (2,), [], []).size == 0
    for bad in ([-1], [0, 1]):
        with pytest.raises(ValueError):
            sp.substream_integers(5, (2,), bad, [3])
    with pytest.raises(ValueError):
        sp.substream_integers(5, (2,), [0], [0])
    with pytest.raises(ValueError):
        sp.substream_integers(5, (), [0], [3])


def test_substream_integers_keep_unsigned_idx_past_int64():
    idx = np.array([2**63 + 5, 2**64 - 1], dtype=np.uint64)
    want = [sp.substream(1, 2, i).integers(0, 1000) for i in idx.tolist()]
    assert sp.substream_integers(1, (2,), idx, [1000, 1000]).tolist() == want


def test_one_call_tie_draws_match_per_element_draws():
    # the studies and multivariate_rank draw every case's tie-break in one
    # broadcast integers call; it must take the scalar calls' draws, high = 1
    # drawing nothing, and leave the stream where they leave it
    high = np.r_[1, 1, np.arange(1, 2001), 2**31 + 6, 1]
    for seed in range(10):
        one, each = sp.substream(seed, 2), sp.substream(seed, 2)
        got = one.integers(0, high)
        assert got.tolist() == [each.integers(0, h) for h in high.tolist()], seed
        assert np.array_equal(one.random(4), each.random(4)), seed


def test_seed_validation():
    for bad in (-1, 1.5, "7", None, True):
        with pytest.raises(ValueError):
            sp.make_rng(bad)
    with pytest.raises(ValueError):
        sp.substream(42)
    with pytest.raises(ValueError):
        sp.substream(42, -3)


def test_parameter_validation():
    rng = sp.make_rng(0)
    with pytest.raises(ValueError, match=r"^alpha must lie in \(0\.0, 1\.0\], got 0\.0$"):
        sp.positive_stable(rng, 0.0, 5)
    with pytest.raises(ValueError):
        sp.positive_stable(rng, 1.2, 5)
    with pytest.raises(ValueError):
        sp.log_series(rng, 1.0, 5)
    with pytest.raises(ValueError):
        sp.log_series(rng, 0.0, 5)
    with pytest.raises(ValueError):
        sp.sibuya(rng, 0.0, 5)
    with pytest.raises(ValueError, match=r"^alpha must lie in \(0\.0, 1\.0\], got 1\.0001$"):
        sp.sibuya(rng, 1.0001, 5)


def test_positive_stable_levy_half():
    # alpha = 1/2 is the Levy law with CDF erfc(1/(2 sqrt x))
    v = sp.positive_stable(sp.make_rng(7), 0.5, N)
    ks = stats.kstest(v, lambda x: erfc(1.0 / (2.0 * np.sqrt(x))))
    assert ks.pvalue >= 0.01


def test_positive_stable_laplace_transform():
    # E exp(-sV) = exp(-s^alpha); MC error at n=2e5 is well under 0.01
    for alpha in (0.3, 0.8):
        v = sp.positive_stable(sp.make_rng(11), alpha, 200_000)
        for s in (0.5, 1.0, 2.0):
            assert abs(np.mean(np.exp(-s * v)) - np.exp(-(s**alpha))) <= 0.01


def test_positive_stable_degenerate_and_array_alpha():
    assert np.all(sp.positive_stable(sp.make_rng(1), 1.0, 100) == 1.0)
    alpha = np.array([0.2, 1.0, 0.7])
    v = sp.positive_stable(sp.make_rng(2), alpha, 3)
    assert v.shape == (3,) and v[1] == 1.0 and v[0] > 0 and v[2] > 0


def _kanter(rng, alpha, n):
    """Kanter's formula evaluated term by term, one alpha per draw."""
    a = np.full(n, alpha)
    t = np.clip(rng.random(n) * np.pi, 1e-300, np.pi * (1 - 1e-16))
    w = np.maximum(rng.standard_exponential(n), 1e-300)
    if alpha == 1.0:
        return np.ones(n)
    log_a_num = a * np.log(np.sin(a * t)) + (1 - a) * np.log(np.sin((1 - a) * t)) - np.log(np.sin(t))
    return np.exp((1 - a) / a * (log_a_num / (1 - a) - np.log(w)))


def test_positive_stable_scalar_alpha_matches_array_alpha():
    # a scalar alpha computes its exponents once for every draw; the draws
    # must not change.  alpha = 0.004 overflows some draws to inf, 1.0 gives
    # V = 1 throughout; a 0-d array alpha counts as a scalar
    for i, alpha in enumerate((0.004, 0.05, 0.5, 0.93, 1.0)):
        for n in (1, 4000):
            with np.errstate(over="ignore"):
                array = sp.positive_stable(sp.make_rng(40 + i), np.full(n, alpha), n)
                assert array.tobytes() == _kanter(sp.make_rng(40 + i), alpha, n).tobytes()
                for a in (alpha, np.asarray(alpha)):
                    scalar = sp.positive_stable(sp.make_rng(40 + i), a, n)
                    assert scalar.shape == (n,) and scalar.tobytes() == array.tobytes()


def _log_series_pmf(k, p):
    return -(p**k) / (k * np.log1p(-p))


def test_log_series_pmf_chi2():
    for seed, p in ((3, 0.3), (4, 0.7), (5, 0.99)):
        x = sp.log_series(sp.make_rng(seed), p, N)
        assert x.dtype == np.float64 and np.all(x == np.floor(x)) and np.all(x >= 1)
        kmax = 40
        obs = np.bincount(np.minimum(x.astype(int), kmax + 1), minlength=kmax + 2)[1:]
        pmf = _log_series_pmf(np.arange(1, kmax + 1, dtype=float), p)
        expected = np.append(pmf, 1 - pmf.sum()) * N
        keep = expected > 5
        chi2 = np.sum((obs[keep] - expected[keep]) ** 2 / expected[keep])
        assert stats.chi2.sf(chi2, keep.sum() - 1) >= 0.01


def test_log_series_first_mass():
    # pr(K=1) = -p / log(1-p); at p = 1/2 that is 1/(2 log 2)
    x = sp.log_series(sp.make_rng(6), 0.5, N)
    assert abs(np.mean(x == 1.0) - 0.7213475204444817) <= 0.01


def test_log_series_extreme_parameter():
    # parameterized by log(1-p) = -50: p is 1.0 in float64 yet the sampler
    # must stay exact.  pr(K=k) = p^k/(50k) ~ 1/(50k) for k << e^50, so
    # log K is nearly uniform on (0, 50).
    x = sp._log_series_from_log1mp(sp.make_rng(8), np.full(N, -50.0), N)
    assert np.all(x >= 1) and np.all(np.isfinite(x))
    assert abs(np.mean(x == 1.0) - 1 / 50) <= 0.005
    d = stats.kstest((np.log(x) + np.euler_gamma) / 50.0, "uniform").statistic
    assert d <= 0.02


def test_sibuya_inversion_exact():
    # smallest k with S(k) <= 1-u, checked against the exact survival
    u = np.linspace(1e-9, 1 - 2**-53, 2001)
    for alpha in (0.01, 0.3, 0.99):
        keep = -(np.log1p(-u) + gammaln(1 - alpha)) / alpha < 688.0
        uu = u[keep]
        k = sp._sibuya_invert(uu, np.full_like(uu, alpha))
        lt = np.log1p(-uu)
        assert np.all(sp._sibuya_log_sf(k, alpha, gammaln(1 - alpha)) <= lt + 1e-9)
        km1 = np.maximum(k - 1, 1)
        high = (k > 1) & (sp._sibuya_log_sf(km1, alpha, gammaln(1 - alpha)) <= lt - 1e-9)
        assert not np.any(high)


def test_sibuya_scalar_alpha_matches_array_alpha():
    # a scalar alpha shares one survival table; the draws must not change.
    # Small alpha puts most draws past the table (92% at 0.02), alpha near 1
    # almost none, and 1.0 gives K = 1 throughout
    for i, alpha in enumerate((0.005, 0.02, 0.3, 0.75, 0.999, 1.0)):
        scalar = sp.sibuya(sp.make_rng(30 + i), alpha, 5000)
        array = sp.sibuya(sp.make_rng(30 + i), np.full(5000, alpha), 5000)
        assert np.array_equal(scalar, array)
        u = np.linspace(0.0, 1 - 2**-53, 3001)
        assert np.array_equal(sp._sibuya_invert(u, alpha),
                              sp._sibuya_invert(u, np.full_like(u, alpha)))


def test_sibuya_correction_stops_when_settled(monkeypatch):
    """The correction rounds end once every draw has settled: the exact
    survival is never evaluated on an empty set of draws."""
    sizes = []
    real = sp._sibuya_log_sf

    def spy(k, alpha, lgamma_1ma):
        sizes.append(np.size(k))
        return real(k, alpha, lgamma_1ma)

    monkeypatch.setattr(sp, "_sibuya_log_sf", spy)
    sp.sibuya(sp.make_rng(7), 0.4, 10_000)
    assert sizes and min(sizes) > 0


def test_sibuya_pmf_chi2():
    for seed, alpha in ((16, 0.3), (17, 0.5), (18, 0.8)):
        x = sp.sibuya(sp.make_rng(seed), alpha, N)
        assert x.dtype == np.float64 and np.all(x == np.floor(x)) and np.all(x >= 1)
        assert abs(np.mean(x == 1.0) - alpha) <= 0.01
        kmax = 30
        ks = np.arange(1, kmax + 1, dtype=float)
        sf = np.exp(sp._sibuya_log_sf(ks, alpha, gammaln(1 - alpha)))
        pmf = np.diff(np.concatenate([[0.0], 1 - sf]))
        obs = np.bincount(np.minimum(x.astype(int), kmax + 1), minlength=kmax + 2)[1:]
        expected = np.append(pmf, sf[-1]) * N
        keep = expected > 5
        chi2 = np.sum((obs[keep] - expected[keep]) ** 2 / expected[keep])
        assert stats.chi2.sf(chi2, keep.sum() - 1) >= 0.01


def test_sibuya_degenerate_and_array_alpha():
    assert np.all(sp.sibuya(sp.make_rng(19), 1.0, 100) == 1.0)
    alpha = np.array([0.1, 1.0, 0.9])
    v = sp.sibuya(sp.make_rng(20), alpha, 3)
    assert v.shape == (3,) and v[1] == 1.0
