"""Bivariate normal CDF tests: identities, reference values, branch behaviour."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial.legendre import leggauss
from scipy import stats
from scipy.special import ndtr, ndtri

from coppit import bvn
from coppit.bvn import _GL_RULES, _bounds, _node_sum, bvn_cdf, bvn_cdf_counts, bvn_upper

GRID = np.array([-3.5, -2.0, -1.5, -0.5, 0.0, 0.7, 2.0, 3.5])
RHOS = (-0.99, -0.95, -0.926, -0.924, -0.6, -0.2, 0.0, 0.3, 0.75, 0.9, 0.924, 0.926, 0.99)


def test_quadrature_tables_match_leggauss():
    for (cut, x, w), n in zip(_GL_RULES, (6, 12, 20)):
        xs, ws = leggauss(n)
        pos = xs > 0
        assert np.allclose(np.sort(x), np.sort(xs[pos]), atol=1e-14)
        assert np.allclose(np.sort(w), np.sort(ws[pos]), atol=1e-14)


def test_arcsin_identity():
    # P(X<=0, Y<=0) = 1/4 + arcsin(rho)/(2 pi)
    for rho in np.linspace(-0.95, 0.95, 19):
        assert bvn_cdf(0.0, 0.0, rho) == pytest.approx(0.25 + np.arcsin(rho) / (2 * np.pi), abs=1e-7)


def test_independence_factorizes():
    for h in GRID:
        for k in GRID:
            assert bvn_cdf(h, k, 0.0) == pytest.approx(stats.norm.cdf(h) * stats.norm.cdf(k), abs=1e-15)


def test_against_scipy_mvn():
    for rho in RHOS:
        mvn = stats.multivariate_normal(mean=[0, 0], cov=[[1, rho], [rho, 1]])
        pts = np.array([(h, k) for h in GRID for k in GRID])
        got = bvn_cdf(pts[:, 0], pts[:, 1], rho)
        ref = mvn.cdf(pts)
        assert np.max(np.abs(got - ref)) <= 1e-9


def test_degenerate_correlations():
    for h in GRID:
        for k in GRID:
            assert bvn_cdf(h, k, 1.0) == pytest.approx(stats.norm.cdf(min(h, k)), abs=1e-15)
            lower = max(0.0, stats.norm.cdf(h) + stats.norm.cdf(k) - 1.0)
            assert bvn_cdf(h, k, -1.0) == pytest.approx(lower, abs=1e-15)


def test_branch_continuity():
    eps = 1e-9
    for h, k in ((0.3, -0.7), (1.2, 1.1), (-2.0, 0.5)):
        for s in (1.0, -1.0):
            lo = bvn_cdf(h, k, s * (0.925 - eps))
            hi = bvn_cdf(h, k, s * (0.925 + eps))
            assert abs(lo - hi) <= 1e-8


def test_frechet_bounds_and_symmetries():
    rng = np.random.default_rng(5)
    h = rng.normal(size=500) * 2
    k = rng.normal(size=500) * 2
    for rho in RHOS:
        p = bvn_cdf(h, k, rho)
        ph, pk = stats.norm.cdf(h), stats.norm.cdf(k)
        assert np.all(p >= np.maximum(ph + pk - 1, 0.0) - 1e-14)
        assert np.all(p <= np.minimum(ph, pk) + 1e-14)
        # argument symmetry
        assert np.allclose(p, bvn_cdf(k, h, rho), atol=1e-14)
        # reflection: P(X<=-h, Y<=-k) = 1 - Phi(h) - Phi(k) + P(X<=h, Y<=k)
        assert np.allclose(bvn_cdf(-h, -k, rho), 1.0 - ph - pk + p, atol=1e-13)


def test_upper_orthant_relation():
    rng = np.random.default_rng(6)
    h = rng.normal(size=200)
    k = rng.normal(size=200)
    for rho in (-0.8, 0.0, 0.5, 0.95):
        up = bvn_upper(h, k, rho)
        cdf = bvn_cdf(h, k, rho)
        assert np.allclose(up, 1.0 - stats.norm.cdf(h) - stats.norm.cdf(k) + cdf, atol=1e-13)


def test_vector_rho_and_scalars():
    rho = np.array([-0.9, 0.0, 0.5, 0.99])
    h = np.zeros(4)
    out = bvn_cdf(h, h, rho)
    assert out.shape == (4,)
    assert out == pytest.approx(0.25 + np.arcsin(rho) / (2 * np.pi), abs=1e-8)
    assert isinstance(bvn_cdf(0.0, 0.0, 0.5), float)


def test_scalar_rho_matches_per_point_rho_bitwise():
    # a scalar rho has its rule and node terms computed once per call; that
    # must give the same bits as the value repeated at every point
    rng = np.random.default_rng(8)
    saturated = (np.array([45.0, -1e300, 60.0, 0.3, -41.0]),
                 np.array([-50.0, 2.0, 1e200, -45.0, -41.0]))
    for rho in (*RHOS, -1.0, 1.0):
        cases = [rng.normal(size=(2, *shape)) * 3 for shape in ((), (0,), (9,), (3, 4))]
        for h, k in (*cases, saturated):
            per_point = np.full(h.shape or (1,), rho)
            for fn in (bvn_cdf, bvn_upper):
                got, ref = fn(h, k, rho), fn(h, k, per_point)
                assert np.array_equal(np.atleast_1d(got), ref), (fn.__name__, rho, h.shape)



def test_node_sum_matches_numpy_row_sum_bitwise():
    # the node-major sum must reproduce np.sum over the rows of the
    # (points, nodes) layout bit for bit, signed zeros included
    rng = np.random.default_rng(9)
    for nodes in range(1, 25):
        rows = rng.normal(size=(12, nodes)) * 10.0 ** rng.integers(-8, 9, size=(12, nodes))
        rows[0] = -0.0
        rows[1] = 0.0
        rows[2] = rng.choice([0.0, -0.0], size=nodes)
        rows[3] = rng.choice([1.0, -1.0], size=nodes) * rng.choice([0.0, 1e-8, 1e8], size=nodes)
        rows[4] = np.abs(rows[4])
        rows[5] = -np.abs(rows[5])
        got = _node_sum(np.ascontiguousarray(rows.T))
        ref = np.sum(rows, axis=-1)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64)), nodes


def test_strided_inputs_match_contiguous_bitwise():
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(2000, 2)) * 2.5
    h, k = pts[:, 0], pts[:, 1]
    assert not h.flags.c_contiguous
    for rho in (0.2, -0.2, 0.5, -0.5, 0.85, -0.85, 0.95, -0.95):
        for fn in (bvn_cdf, bvn_upper):
            got, ref = fn(h, k, rho), fn(h.copy(), k.copy(), rho)
            assert np.array_equal(got.view(np.int64), ref.view(np.int64)), (fn.__name__, rho)


def _full_counts(p, w):
    return np.count_nonzero(p < w), np.count_nonzero(p <= w)


# thresholds on, just inside and just outside each end of the open w range
# in which bvn_cdf_counts settles points in score space
_W_LO, _W_HI = bvn._SCORE_W
SCORE_EDGES = (_W_LO / 2.0, _W_LO, np.nextafter(_W_LO, 1.0), 2.0 * _W_LO,
               _W_HI - 1e-9, np.nextafter(_W_HI, 0.0), _W_HI, np.nextafter(_W_HI, 1.0), _W_HI + 1e-9)


def _count_points(rng):
    """Moderate points, repeats (ties in p), h = k and h = -k (the Frechet
    bounds meet or reach 0), and bounds past the +-40 saturation."""
    h, k = rng.normal(size=(2, 300)) * 3.0
    h[:40], k[:40] = h[40:80], k[40:80]
    k[80:100] = h[80:100]
    k[100:120] = -h[100:120]
    far = np.array([45.0, -45.0, 1e3, -1e3, 1e300, -1e300, 40.0, -40.0, 0.0, 38.5])
    h[120:220], k[120:220] = np.repeat(far, 10), np.tile(far, 10)
    return h, k


@pytest.mark.parametrize("rho", (*RHOS, -1.0, 1.0))
def test_bounded_counts_equal_full_sample(rho):
    # every rule: the 6/12/20-point ones below |rho| = 0.925, the high branch
    # above, and the |rho| = 1 limits
    h, k = _count_points(np.random.default_rng(11))
    p = bvn_cdf(h, k, rho)
    _, lo, hi = _bounds(ndtr(h), ndtr(k))
    ws = np.concatenate([[0.0, 1.0, 0.5, 1e-300, 1.0 - 2.0**-53], SCORE_EDGES, p[::2], lo[::5],
                         hi[::5], np.random.default_rng(12).random(20)])
    for w in ws:
        assert bvn_cdf_counts(h, k, rho, w) == _full_counts(p, w), (rho, w)
    per_point = np.full(h.shape, rho)
    for w in ws[::7]:
        assert bvn_cdf_counts(h, k, per_point, w) == _full_counts(p, w), (rho, w)


@settings(max_examples=200, deadline=None)
@given(hk=arrays(np.float64, (2, 12), elements=st.one_of(
           st.floats(-6.0, 6.0), st.sampled_from([-1e300, -45.0, -40.0, 0.0, 40.0, 45.0, 1e300]))),
       rho=st.one_of(st.floats(-1.0, 1.0),
                     st.sampled_from([-1.0, -0.925, 0.0, 0.3, 0.75, 0.925, 1.0])),
       data=st.data())
def test_bounded_counts_fuzz(hk, rho, data):
    h, k = hk
    p = bvn_cdf(h, k, rho)
    w = data.draw(st.one_of(st.sampled_from([0.0, 1.0, *SCORE_EDGES, *p.tolist()]),
                            st.floats(0.0, 1.0)), label="w")
    assert bvn_cdf_counts(h, k, rho, w) == _full_counts(p, w)


@pytest.mark.parametrize("w", (np.nextafter(_W_LO, 1.0), 1e-200, 1e-12, 0.01, 0.3, 0.5, 0.9,
                               1.0 - 1e-5, np.nextafter(_W_HI, 0.0)))
def test_bounded_counts_at_score_cuts(w):
    # points within a few delta of the score-space cuts ndtri(w) (where
    # Phi(min(h, k)) crosses w: p = hi at rho = 1) and ndtri((1 + w) / 2)
    # (where Phi(h) + Phi(k) - 1 does: p = lo at rho = -1), on both sides;
    # the counts are taken at w and at the points' own values
    delta = bvn._SCORE_DELTA
    off = np.array([-3.0, -1.01, -1.0, -0.99, -0.5, -1e-6, 0.0, 1e-6, 0.5, 0.99, 1.0, 1.01, 3.0])
    t, t2 = ndtri(w) + off * delta, ndtri((1.0 + w) / 2.0) + off * delta
    h = np.concatenate([t, t + 2.0, t2, t2, np.full(off.size, 40.0)])
    k = np.concatenate([t + 2.0, t, t2, t2[::-1], t2])
    for rho in (-1.0, -0.95, -0.5, 0.0, 0.5, 0.95, 1.0):
        p = bvn_cdf(h, k, rho)
        for v in (w, *p):
            assert bvn_cdf_counts(h, k, rho, v) == _full_counts(p, v), (rho, v)


def _settled(h, k, rho, w):
    """The points that bvn_cdf_counts' score-space and Frechet bounds settle,
    and those its bracket settles on the Slepian side (the product) and on
    the Plackett side (the product plus or minus the width), as masks."""
    m = np.minimum(h, k)
    score = np.zeros(h.shape, dtype=bool)
    if _W_LO < w < _W_HI:
        score = ((m < ndtri(w) - bvn._SCORE_DELTA)
                 | (m > ndtri((1.0 + w) / 2.0) + bvn._SCORE_DELTA))
    ph, pk = ndtr(h), ndtr(k)
    _, lo, hi = _bounds(ph, pk)
    frechet = (hi < w) | (np.minimum(lo, hi) > w)
    prod, ar, margin = ph * pk, np.abs(rho), bvn._BRACKET_MARGIN
    hs, ks = np.clip(h, -40.0, 40.0), np.clip(k, -40.0, 40.0)
    width = np.arcsin(ar) / (2.0 * np.pi) * np.exp(-(hs * hs + ks * ks) / (2.0 + 2.0 * ar))
    slepian = ((rho >= 0.0) & (prod > w + margin)) | ((rho <= 0.0) & (prod < w - margin))
    plackett = ((rho > 0.0) & (prod + width < w - margin)) | ((rho < 0.0) & (prod - width > w + margin))
    return score, frechet, slepian, plackett


def test_quadrature_gets_only_unsettled_points(monkeypatch):
    """The quadrature rules receive exactly the points that no bound settles,
    each once, and each bound settles points the earlier ones leave."""
    seen = []
    for name in ("_bvnu_moderate", "_bvnu_high"):
        def spy(h, k, *args, real=getattr(bvn, name)):
            seen.append(np.stack([h, k]))
            return real(h, k, *args)

        monkeypatch.setattr(bvn, name, spy)
    h, k = _count_points(np.random.default_rng(13))
    per_point = np.random.default_rng(14).uniform(-1.0, 1.0, h.size)
    reached = np.zeros(4, dtype=bool)
    for rho in (-1.0, -0.95, -0.5, 0.0, 0.5, 0.95, 1.0, per_point):
        for w in (0.0, 1.0, 1e-290, 1e-9, 0.05, 0.3, 0.5, 0.7, 0.97, 1.0 - 1e-7):
            seen.clear()
            bvn_cdf_counts(h, k, rho, w)
            score, frechet, slepian, plackett = _settled(h, k, rho, w)
            left = ~(score | frechet | slepian | plackett)
            got = np.concatenate(seen, axis=1) if seen else np.empty((2, 0))
            want = np.clip(np.stack([h[left], k[left]]), -40.0, 40.0)
            assert np.array_equal(got[:, np.lexsort(got)], want[:, np.lexsort(want)]), (rho, w)
            earlier = score | frechet
            reached |= [score.any(), (frechet & ~score).any(), (slepian & ~earlier).any(),
                        (plackett & ~earlier & ~slepian).any()]
    assert reached.all()


_BOUNDS, _RHO = "^bvn bounds must be finite$", r"^correlation must lie in \[-1, 1\]$"


@pytest.mark.parametrize("h, k, rho, message", [
    ([0.0, np.nan], [0.0, 0.0], 0.5, _BOUNDS),
    ([-np.inf], [0.0], 0.5, _BOUNDS),
    ([0.0, 1.0], [np.inf, 0.0], -0.3, _BOUNDS),
    ([-9.0, 0.0], [0.0, 0.0], [1.5, 0.5], _RHO),
    ([0.0, 9.0], [0.0, 9.0], [0.5, np.nan], _RHO),
    ([0.0], [0.0], -1.5, _RHO),
])
def test_bounded_counts_check_every_point(h, k, rho, message):
    # as bvn_cdf refuses them, also where a bound would settle the point
    # before the quadrature sees it (h = -9 lies below any w of 0.3)
    with pytest.raises(ValueError, match=message):
        bvn_cdf(h, k, rho)
    for w in (0.0, 0.3, 1.0):
        with pytest.raises(ValueError, match=message):
            bvn_cdf_counts(h, k, rho, w)


def test_bounded_counts_check_w():
    for bad in (-0.1, 1.5, np.nan):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            bvn_cdf_counts([0.0], [0.0], 0.5, bad)


def test_large_finite_bounds_saturate():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bvn_cdf(1e155, 1e155, 0.3) == 1.0
        assert bvn_cdf(1e160, 3.0, 0.99) == pytest.approx(ndtr(3.0), abs=2e-16)
        assert bvn_cdf(-1e300, 1e300, -0.5) == 0.0
        assert bvn_upper(-1e300, -1e300, 0.5) == 1.0


def test_validation():
    with pytest.raises(ValueError):
        bvn_cdf(np.inf, 0.0, 0.5)
    with pytest.raises(ValueError):
        bvn_cdf(0.0, np.nan, 0.5)
    with pytest.raises(ValueError):
        bvn_cdf(0.0, 0.0, 1.5)
