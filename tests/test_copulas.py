"""Archimedean family tests: exact values, dual-route oracles, sampling GoF."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats
from scipy.integrate import quad
from scipy.special import logsumexp

from coppit import copulas as cp
from coppit import samplers as sp

PARAM_FAMILIES = ("gumbel", "clayton", "frank", "joe")


# --- exact frozen values ----------------------------------------------------


def test_gumbel_cdf_exact():
    # C(u,u) = exp(-2^(1/theta) log(1/u)); at theta=2, u=1/2: exp(-sqrt(2) log 2)
    got = cp.copula_cdf("gumbel", [0.5, 0.5], 2.0)
    assert got == pytest.approx(0.37521422724648174, abs=1e-15)


def test_independence_cdf_is_product():
    assert cp.copula_cdf("independence", [0.3, 0.5, 0.2]) == pytest.approx(0.03, abs=1e-15)


def test_kendall_exact_values():
    # independence: K(w) = w - w log w
    assert cp.kendall_cdf("independence", np.exp(-1.0)) == pytest.approx(2 / np.e, abs=1e-15)
    assert cp.kendall_cdf("independence", 0.5) == pytest.approx(0.8465735902799727, abs=1e-15)
    # gumbel: K(w) = w - w log w / theta
    assert cp.kendall_cdf("gumbel", 0.5, 2.0) == pytest.approx(0.6732867951399863, abs=1e-15)
    # clayton: K(w) = w + w(1 - w^theta)/theta
    assert cp.kendall_cdf("clayton", 0.5, 1.0) == pytest.approx(0.75, abs=1e-15)


def test_kendall_endpoints_and_dominance():
    w = np.linspace(0.0, 1.0, 201)
    for fam, th in (("independence", None), ("gumbel", 3.0), ("clayton", 0.7),
                    ("frank", 12.0), ("frank", 800.0), ("joe", 4.2)):
        k = cp.kendall_cdf(fam, w, th)
        assert k[0] == 0.0 and k[-1] == 1.0
        assert np.all(k >= w)          # K(w) >= w for any copula
        assert np.all(np.diff(k) >= -1e-12)


def test_kendall_matches_generator_derivative():
    # K(w) = w - phi(w)/phi'(w) with phi' from a five-point numeric stencil
    w = np.linspace(0.02, 0.98, 49)
    h = 1e-6
    for fam, th in (("gumbel", 2.5), ("clayton", 1.7), ("frank", 4.0), ("joe", 3.3)):
        phi = lambda t: cp.generator(fam, t, th)
        dphi = (-phi(w + 2 * h) + 8 * phi(w + h) - 8 * phi(w - h) + phi(w - 2 * h)) / (12 * h)
        expected = w - phi(w) / dphi
        got = cp.kendall_cdf(fam, w, th)
        assert np.allclose(got, expected, atol=1e-8)


# --- generator / inverse ----------------------------------------------------


def test_generator_roundtrip():
    t = np.linspace(1e-6, 1.0, 57)
    for fam, th in (("independence", None), ("gumbel", 5.0), ("clayton", 2.0),
                    ("frank", 20.0), ("joe", 6.0)):
        s = cp.generator(fam, t, th)
        assert np.all(s >= 0) and s[-1] == pytest.approx(0.0, abs=1e-12)
        back = cp.generator_inverse(fam, s, th)
        assert np.allclose(back, t, atol=1e-9)


def test_generator_domain_errors():
    with pytest.raises(ValueError):
        cp.generator("gumbel", 0.0, 2.0)
    with pytest.raises(ValueError):
        cp.generator("gumbel", 1.5, 2.0)
    with pytest.raises(ValueError):
        cp.generator_inverse("gumbel", -0.1, 2.0)


# --- cdf properties ----------------------------------------------------------


def test_cdf_frechet_bounds_and_symmetry():
    rng = sp.make_rng(33)
    for d in (2, 5, 50):
        u = rng.random((200, d))
        for fam, th in (("gumbel", 3.0), ("clayton", 1.2), ("frank", 7.0),
                        ("joe", 2.2), ("independence", None)):
            c = cp.copula_cdf(fam, u, th)
            lower = np.maximum(u.sum(axis=1) - (d - 1), 0.0)
            upper = u.min(axis=1)
            assert np.all(c >= lower - 1e-12)
            assert np.all(c <= upper + 1e-12)
            c_perm = cp.copula_cdf(fam, u[:, ::-1], th)
            assert np.allclose(c, c_perm, atol=1e-12)


def test_cdf_boundary_and_margin():
    for fam, th in (("gumbel", 2.0), ("clayton", 1.0), ("frank", 5.0), ("joe", 3.0)):
        assert cp.copula_cdf(fam, [0.0, 0.7], th) == 0.0
        assert cp.copula_cdf(fam, [1.0, 1.0], th) == pytest.approx(1.0, abs=1e-12)
        # grounding: C(u, 1) = u
        u = np.linspace(0.05, 0.95, 19)
        pts = np.column_stack([u, np.ones_like(u)])
        assert np.allclose(cp.copula_cdf(fam, pts, th), u, atol=1e-10)


def test_cdf_extreme_theta_no_overflow():
    # naive forms overflow; log-space forms must not
    c = cp.copula_cdf("gumbel", [0.01, 0.02], 150.0)
    assert 0.0 <= c <= 0.01 and np.isfinite(c)
    assert c == pytest.approx(0.01, abs=1e-6)  # theta -> inf is comonotone: min(u)
    c = cp.copula_cdf("frank", [0.3, 0.4], 900.0)
    assert c == pytest.approx(0.3, abs=1e-3)
    c = cp.copula_cdf("joe", [0.3, 0.4], 400.0)
    assert c == pytest.approx(0.3, abs=1e-3)
    c = cp.copula_cdf("clayton", [0.3, 0.4], 500.0)
    assert c == pytest.approx(0.3, abs=1e-3)
    # high dimension
    u50 = np.full(50, 0.9)
    c = cp.copula_cdf("gumbel", u50, 40.0)
    assert 0.0 < c <= 0.9


def _lse_rows(rng, n, d):
    """Rows of every scale, with tied maxima, +-inf, nan and all -inf rows."""
    a = rng.standard_normal((n, d)) * rng.choice([1e-3, 1.0, 40.0, 700.0], size=(n, 1))
    top = a.max(axis=1)
    a[::5, : min(d, 3)] = top[::5, None]  # two or three ties at the max
    a[1::9, -1] = -np.inf
    a[2::11, 0] = np.inf
    a[3::13, d // 2] = np.nan
    a[4] = -np.inf
    a[6] = 0.0
    a[7, 0] = -0.0
    a[8] = 1e308
    a[10] = -1e308
    a[12] = np.inf
    return a


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 9, 16, 50, 128, 129])
def test_logsumexp_matches_scipy_bits(d):
    # numpy adds a row of fewer than 8 terms in sequence and pairwise from 8,
    # in blocks of 128 terms (129 splits the row); np.logaddexp, or summing
    # the columns in another order, changes bits
    a = _lse_rows(np.random.default_rng(300 + d), 4000, d)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        assert cp._logsumexp(a).tobytes() == logsumexp(a, axis=-1).tobytes()
        for row in a[:13]:
            got, want = cp._logsumexp(row), logsumexp(row, axis=-1)
            assert type(got) is type(want) and got.tobytes() == want.tobytes()


def _gumbel_cdf_scipy(u, theta):
    theta = np.asarray(theta, dtype=float)
    th = theta[..., None] if theta.ndim else theta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inner = logsumexp(th * np.log(-np.log(u)), axis=-1) / theta
        return np.clip(np.exp(-np.exp(inner)), 0.0, 1.0)


@pytest.mark.parametrize("d", [2, 3, 9])
def test_gumbel_cdf_matches_scipy_logsumexp_bits(d):
    rng = np.random.default_rng(400 + d)
    u = rng.random((3000, d)) ** rng.choice([0.01, 1.0, 30.0], size=(3000, 1))
    u[::4, 0] = 0.0
    u[1::5, -1] = 1.0
    u[2::7] = 1.0
    u[3::11, :2] = [0.0, 1.0]
    for theta in (1.0, 1.7, 40.0, rng.uniform(1.0, 20.0, 3000)):
        assert cp.copula_cdf("gumbel", u, theta).tobytes() == _gumbel_cdf_scipy(u, theta).tobytes()


def test_cdf_validation():
    with pytest.raises(ValueError):
        cp.copula_cdf("gumbel", [0.5, 1.2], 2.0)
    with pytest.raises(ValueError):
        cp.copula_cdf("gumbel", [0.5], 2.0)
    with pytest.raises(ValueError):
        cp.copula_cdf("nope", [0.5, 0.5], 2.0)


# --- tau <-> theta ------------------------------------------------------------


def test_tau_closed_forms():
    assert cp.theta_to_tau("gumbel", 4.0) == pytest.approx(0.75, abs=1e-15)
    assert cp.theta_to_tau("clayton", 2.0) == pytest.approx(0.5, abs=1e-15)
    assert cp.theta_to_tau("joe", 1.0) == pytest.approx(0.0, abs=1e-12)
    assert cp.theta_to_tau("independence") == 0.0


def test_frank_tau_against_quadrature():
    # tau = 1 - 4(1 - D1(theta))/theta with D1 by adaptive quadrature
    for th in (0.5, 2.0, 5.0, 18.0, 100.0):
        d1 = quad(lambda t: t / np.expm1(t), 0.0, th, limit=200)[0] / th
        expected = 1.0 - 4.0 * (1.0 - d1) / th
        assert cp.theta_to_tau("frank", th) == pytest.approx(expected, abs=1e-10)


def _joe_tau_series(theta, terms):
    k = np.arange(1, terms + 1, dtype=float)
    s = np.sum(1.0 / (k * (theta * k + 2.0) * (theta * (k - 1.0) + 2.0)))
    s += 1.0 / (2.0 * theta**2 * terms**2)  # integral tail estimate
    return 1.0 - 4.0 * s


def test_joe_tau_against_series():
    for th in (1.3, 1.9999, 2.0, 2.0001, 7.0, 40.0):
        assert cp.theta_to_tau("joe", th) == pytest.approx(_joe_tau_series(th, 500_000), abs=1e-9)


def test_tau_roundtrip():
    taus = np.array([0.02, 0.2, 0.5, 0.8, 0.95, 0.99])
    for fam in PARAM_FAMILIES:
        th = cp.tau_to_theta(fam, taus)
        back = cp.theta_to_tau(fam, th)
        assert np.allclose(back, taus, atol=1e-8)


def test_tau_to_theta_array_matches_scalar_calls():
    taus = np.random.default_rng(3).uniform(0.001, 0.999, size=(40, 5))
    for fam in PARAM_FAMILIES:
        th = cp.tau_to_theta(fam, taus)
        scalars = [[cp.tau_to_theta(fam, float(t)) for t in row] for row in taus]
        assert all(isinstance(t, float) for row in scalars for t in row)
        assert th.shape == taus.shape and np.array_equal(th, scalars), fam


def _brentq_theta(fam, tau):
    """theta for one tau by scipy's brentq on the family's 0-d tau, in the
    bracket ``tau_to_theta`` uses; Joe's tau = 0 is theta = 1 exactly."""
    if fam == "joe" and tau == 0.0:
        return 1.0
    f = cp._family(fam)
    lo, hi = (1e-10, max(100.0, 8.0 / (1.0 - tau))) if fam == "frank" else (1.0, max(10.0, 6.0 / (1.0 - tau)))
    return optimize.brentq(lambda th: float(f.tau(th)) - tau, lo, hi, xtol=1e-13, rtol=1e-15)


@pytest.mark.parametrize("fam", ["frank", "joe"])
def test_tau_solve_matches_scipy_brentq_bits(fam):
    # the array Brent solve is scipy's brentq to the bit, element by element:
    # random tau, Frank's small-theta region (the strict xfail below), Joe's
    # independence, Joe's theta near 2 (the series branch of its tau) and
    # tau near 1, for 0-d, empty and 2-d input
    special = [1e-9, 0.999999]
    if fam == "joe":
        near2 = [float(cp._Joe.tau(th)) for th in (1.99995, 2.0, 2.00003)]
        assert all(abs(2.0 / _brentq_theta("joe", t) - 1.0) < 1e-4 for t in near2)
        special += [0.0] + near2
    taus = np.concatenate([np.random.default_rng(11).uniform(0.0, 1.0, 10_000), special])
    got = cp.tau_to_theta(fam, taus)
    expected = [_brentq_theta(fam, float(t)) for t in taus]
    assert [i for i, (a, b) in enumerate(zip(got, expected)) if a != b] == []
    block = taus[:200].reshape(40, 5)
    assert np.array_equal(cp.tau_to_theta(fam, block), np.reshape(expected[:200], (40, 5)))
    assert cp.tau_to_theta(fam, np.float64(taus[0])) == expected[0]
    assert cp.tau_to_theta(fam, np.array(taus[-1])) == expected[-1]
    empty = cp.tau_to_theta(fam, np.zeros(0))
    assert empty.shape == (0,) and empty.dtype == float


def test_tau_solve_errors():
    one = np.array([0.5])
    with pytest.raises(ValueError, match="same sign"):
        cp._brent_solve(cp._Frank.tau, one, 2.0, np.array([3.0]))
    with pytest.raises(ValueError, match="same sign"):
        cp.tau_to_theta("joe", -5e-10)
    with pytest.raises(ValueError, match="nan"):
        cp._brent_solve(lambda th: np.where(th > 0.6, np.nan, th), one, 0.0, np.array([1.0]))
    # a step across 1e300 needs ~1000 bisections to close to xtol
    with pytest.raises(ValueError, match="did not converge"):
        cp._brent_solve(lambda th: np.sign(th - 1e200), np.zeros(1), 0.0, np.array([1e300]))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the Frank tau closed form "
                                       "cancels catastrophically at small theta")
def test_frank_tau_small_theta():
    # tau = theta/9 - theta^3/900 + ... (mpmath: tau(1e-6) = 1.11e-7)
    assert cp.theta_to_tau("frank", 1e-6) > 0
    assert cp.tau_to_theta("frank", 1e-9) == pytest.approx(9e-9, rel=1e-6)


# --- properties of every family ---------------------------------------------

# coordinates: the ends 0 and 1, values rounded to 3 places (ties), and any
# value from 1e-3; smaller coordinates and tau are the extremes below
_COORD = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0).map(lambda x: round(x, 3)),
                   st.floats(1e-3, 1.0))


@st.composite
def _copulas(draw):
    """(family, theta) at a tau in [1e-3, 0.95]; independence has no theta."""
    family = draw(st.sampled_from(cp.FAMILY_NAMES))
    if family == "independence":
        return family, None
    return family, cp.tau_to_theta(family, draw(st.floats(1e-3, 0.95)))


@settings(max_examples=150, deadline=None)
@given(copula=_copulas(), d=st.sampled_from([2, 3, 5]), data=st.data())
def test_copula_cdf_properties(copula, d, data):
    """C is finite, inside the Frechet bounds, has uniform margins
    C(v, 1, ..., 1) = v and is non-decreasing in each coordinate."""
    family, theta = copula
    u = np.array(data.draw(st.lists(st.lists(_COORD, min_size=d, max_size=d), min_size=1, max_size=8),
                           label="u"))
    c = cp.copula_cdf(family, u, theta)
    assert np.isfinite(c).all()
    assert (c <= u.min(axis=1) * (1.0 + 1e-14)).all()
    assert (c >= np.maximum(0.0, u.sum(axis=1) - d + 1.0) - 1e-15).all()
    j = data.draw(st.integers(0, d - 1), label="margin")
    margin = np.ones_like(u)
    margin[:, j] = u[:, j]
    assert np.allclose(cp.copula_cdf(family, margin, theta), u[:, j], rtol=1e-14, atol=0.0)
    above = np.array(data.draw(st.lists(_COORD, min_size=len(u), max_size=len(u)), label="above"))
    for k in range(d):
        raised = u.copy()
        raised[:, k] = np.maximum(u[:, k], above)
        assert (cp.copula_cdf(family, raised, theta) >= c).all()


@settings(max_examples=100, deadline=None)
@given(copula=_copulas(), w=st.lists(_COORD, max_size=20))
def test_kendall_cdf_properties(copula, w):
    """K(0) = 0, K(1) = 1, K(w) >= w, and K is non-decreasing."""
    family, theta = copula
    w = np.sort(np.concatenate([[0.0, 1.0], w]))
    k = cp.kendall_cdf(family, w, theta)
    assert k[0] == 0.0 and k[-1] == 1.0
    assert (k >= w).all() and (np.diff(k) >= 0.0).all()


# each names a point where a kernel leaves the bounds the properties above check
_EXTREMES = {
    "clayton-large-theta": lambda: cp.copula_cdf("clayton", [1.0, 0.02], 198.0) == pytest.approx(0.02),
    "joe-large-theta": lambda: cp.copula_cdf("joe", [1.0, 0.98], 200.0) == pytest.approx(0.98),
    "frank-large-theta": lambda: cp.copula_cdf("frank", [0.19, 0.8], 4000.0) <= 0.19,
    # tau = 0.95 is theta = 38: phi(1e-10) = (1e380 - 1) / 38 overflows
    "clayton-small-u": lambda: cp.copula_cdf("clayton", [1e-10, 1.0], 38.0) == pytest.approx(1e-10),
    "frank-small-theta": lambda: cp.copula_cdf("frank", [0.97, 1.0], 1e-8) >= 0.97 - 1e-15,
    "positive_stable-small-alpha": lambda: np.isfinite(sp.positive_stable(sp.make_rng(1), 1 / 400, 1000)).all(),
}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: generators under- or overflow at large "
                                       "theta and small u, Frank loses digits at small theta, "
                                       "and positive_stable fails for small alpha")
@pytest.mark.parametrize("case", sorted(_EXTREMES))
def test_kernels_at_extreme_parameters(case):
    assert _EXTREMES[case]()


def test_tau_sampling_concordance():
    # empirical Kendall tau of samples matches the requested tau
    for fam in PARAM_FAMILIES:
        for tau in (0.2, 0.5, 0.8):
            th = cp.tau_to_theta(fam, tau)
            u = cp.sample_copula(fam, sp.make_rng(5), th, 2, 20_000)
            t_hat = stats.kendalltau(u[:, 0], u[:, 1]).statistic
            assert abs(t_hat - tau) <= 0.02, (fam, tau, t_hat)


def test_tau_domain_errors():
    with pytest.raises(ValueError):
        cp.tau_to_theta("clayton", 0.0)
    with pytest.raises(ValueError):
        cp.tau_to_theta("gumbel", 1.0)
    with pytest.raises(ValueError):
        cp.tau_to_theta("frank", -0.2)
    with pytest.raises(ValueError, match="tau = 0"):
        cp.tau_to_theta("independence", 0.5)
    with pytest.raises(ValueError, match="tau = 0"):
        cp.ArchimedeanCopula("independence", tau=0.5)
    assert cp.tau_to_theta("independence", 0.0) is None
    assert cp.tau_to_theta("independence", np.zeros(3)) is None
    ind = cp.ArchimedeanCopula("independence", tau=0.0)
    assert ind.theta is None and ind.tau == 0.0


# --- sampling ------------------------------------------------------------------


def test_sample_margins_uniform():
    for fam, th in (("gumbel", 4.0), ("clayton", 3.0), ("frank", 10.0),
                    ("joe", 3.0), ("independence", None)):
        u = cp.sample_copula(fam, sp.make_rng(6), th, 3, 20_000)
        assert u.shape == (20_000, 3)
        assert np.all((u > 0) & (u < 1))
        for j in range(3):
            assert stats.kstest(u[:, j], "uniform").pvalue >= 0.01, (fam, j)


def test_sample_cdf_goodness_of_fit():
    # P(U <= u) estimated from samples matches C(u); MC se <= 0.0016 at n=1e5
    for fam, th in (("gumbel", 2.0), ("clayton", 1.0), ("frank", 5.0), ("joe", 2.5)):
        u = cp.sample_copula(fam, sp.make_rng(7), th, 2, 100_000)
        for pt in ([0.3, 0.7], [0.5, 0.5], [0.8, 0.2]):
            emp = np.mean(np.all(u <= np.array(pt), axis=1))
            assert abs(emp - cp.copula_cdf(fam, pt, th)) <= 0.01


def test_sample_kendall_gof():
    # W = C(U) has CDF K; empirical CDF vs closed form, sup over a grid
    w = np.linspace(0.0, 1.0, 101)
    for fam, th in (("gumbel", 3.0), ("clayton", 2.0), ("frank", 8.0), ("joe", 2.0)):
        u = cp.sample_copula(fam, sp.make_rng(8), th, 2, 50_000)
        wvals = cp.copula_cdf(fam, u, th)
        emp = np.searchsorted(np.sort(wvals), w, side="right") / wvals.size
        assert np.max(np.abs(emp - cp.kendall_cdf(fam, w, th))) <= 0.015, fam


def test_sample_batch_theta():
    # per-row parameters: rows with tau 0.1 vs 0.9 should straddle
    theta = cp.tau_to_theta("gumbel", np.full(4000, 0.9))
    theta[:2000] = cp.tau_to_theta("gumbel", 0.1)
    u = cp.sample_copula("gumbel", sp.make_rng(9), theta, 2, 4000)
    t_lo = stats.kendalltau(u[:2000, 0], u[:2000, 1]).statistic
    t_hi = stats.kendalltau(u[2000:, 0], u[2000:, 1]).statistic
    assert abs(t_lo - 0.1) < 0.06 and abs(t_hi - 0.9) < 0.06


def test_sample_determinism_and_extension():
    a = cp.sample_copula("frank", sp.make_rng(10), 5.0, 2, 100)
    b = cp.sample_copula("frank", sp.make_rng(10), 5.0, 2, 100)
    assert np.array_equal(a, b)


def test_theta_validation():
    with pytest.raises(ValueError):
        cp.ArchimedeanCopula("gumbel", theta=0.5)
    with pytest.raises(ValueError):
        cp.ArchimedeanCopula("clayton", theta=0.0)
    with pytest.raises(ValueError):
        cp.ArchimedeanCopula("frank", theta=-1.0)
    with pytest.raises(ValueError):
        cp.ArchimedeanCopula("joe", theta=0.99)
    with pytest.raises(ValueError):
        cp.ArchimedeanCopula("independence", theta=2.0)
    with pytest.raises(ValueError):
        cp.ArchimedeanCopula("gumbel", theta=2.0, tau=0.5)
    with pytest.raises(ValueError):
        cp.ArchimedeanCopula("gumbel")
    with pytest.raises(ValueError):
        cp.ArchimedeanCopula("gumbel", theta=2.0, dim=1)


def test_copula_object_api():
    c = cp.ArchimedeanCopula("gumbel", tau=0.5, dim=3)
    assert c.theta == pytest.approx(2.0, abs=1e-12)
    assert c.tau == pytest.approx(0.5, abs=1e-12)
    x = c.sample(sp.make_rng(3), 50)
    assert x.shape == (50, 3)
    assert c.cdf(x).shape == (50,)
    with pytest.raises(ValueError):
        c.kendall_cdf(0.5)  # closed form is bivariate only
    c2 = cp.ArchimedeanCopula("gumbel", theta=2.0, dim=2)
    assert c2.kendall_cdf(0.5) == pytest.approx(0.6732867951399863, abs=1e-12)


def test_kendall_sample_matches_analytic_d2():
    cases = [("gumbel", 2.5), ("clayton", 1.5), ("frank", 5.0), ("joe", 3.0),
             ("independence", None)]
    w = np.linspace(0.0, 1.0, 201)
    for i, (fam, theta) in enumerate(cases):
        vals = np.sort(cp.kendall_sample(fam, sp.substream(71, i), theta=theta, dim=2, n=20_000))
        ecdf = np.searchsorted(vals, w, side="right") / vals.size
        exact = cp.kendall_cdf(fam, w, theta)
        assert np.max(np.abs(ecdf - exact)) <= 0.015, fam


def test_kendall_sample_cross_route_d3():
    # same law as evaluating the CDF at plain copula draws
    for i, (fam, theta) in enumerate([("gumbel", 2.0), ("clayton", 2.0),
                                      ("frank", 4.0), ("joe", 2.5)]):
        direct = cp.kendall_sample(fam, sp.substream(72, i), theta=theta, dim=3, n=8_000)
        u = cp.sample_copula(fam, sp.substream(73, i), theta=theta, dim=3, n=8_000)
        via_cdf = cp.copula_cdf(fam, u, theta)
        assert stats.ks_2samp(direct, via_cdf).pvalue > 0.01, fam


def test_kendall_sample_shapes_and_batch_theta():
    rng = sp.substream(74, 0)
    out = cp.kendall_sample("gumbel", rng, theta=2.0, dim=5, n=100)
    assert out.shape == (100,) and np.all((out >= 0) & (out <= 1))
    one = cp.kendall_sample("frank", rng, theta=3.0, dim=2, n=1)
    assert one.shape == (1,)
    th = np.linspace(1.5, 8.0, 64)
    batch = cp.kendall_sample("clayton", rng, theta=th, dim=4, n=64)
    assert batch.shape == (64,)
    with pytest.raises(ValueError):
        cp.kendall_sample("gumbel", rng, theta=2.0, dim=0, n=5)
    with pytest.raises(ValueError):
        cp.kendall_sample("gumbel", rng, theta=np.ones(3), dim=2, n=5)


# each sampler with its scalar parameter and the shape of one draw
_DRAWS = {
    "positive_stable": (sp.positive_stable, 0.5, ()),
    "sibuya": (sp.sibuya, 0.5, ()),
    "log_series": (sp.log_series, 0.5, ()),
    "sample_copula": (functools.partial(cp.sample_copula, "gumbel", dim=3), 2.0, (3,)),
    "kendall_sample": (functools.partial(cp.kendall_sample, "gumbel", dim=3), 2.0, ()),
}


@pytest.mark.parametrize("name", sorted(_DRAWS))
def test_draw_contract(name):
    # a count n gives n draws as an array, for a scalar parameter and for one
    # parameter per draw alike; there is no draw without a count
    draw, param, one = _DRAWS[name]
    for p in (param, np.full(7, param)):
        out = draw(sp.make_rng(3), p, n=7)
        assert isinstance(out, np.ndarray) and out.shape == (7, *one)
    with pytest.raises(TypeError):
        draw(sp.make_rng(3), param)
