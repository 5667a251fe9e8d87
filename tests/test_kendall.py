import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coppit import kendall
from coppit.copulas import ArchimedeanCopula
from coppit.forecasts import (
    CopulaMarginalForecast,
    EnsembleForecast,
    GaussianForecast,
    Normal,
)
from coppit.kendall import (
    analytic_kendall,
    empirical_kendall,
    monte_carlo_kendall,
    pseudo_kendall,
    pseudo_observations,
    select_kendall,
    uniform_kendall,
)
from coppit.samplers import substream


def _gumbel_cm(tau=0.5):
    cop = ArchimedeanCopula("gumbel", tau=tau)
    return CopulaMarginalForecast(cop, [Normal(0.0, 1.0), Normal(1.0, 2.0)])


def test_uniform_identity():
    kf = uniform_kendall()
    w = np.linspace(0.0, 1.0, 11)
    assert np.array_equal(kf.eval(w), w)
    assert np.array_equal(kf.eval_left(w), w)
    assert kf.eval(0.3) == 0.3
    assert isinstance(kf.eval(0.3), float)
    assert kf.interval(0.3) == (0.3, 0.3)
    assert kf.source == "uniform"


def test_analytic_matches_copula():
    cop = ArchimedeanCopula("clayton", theta=2.0)
    kf = analytic_kendall(cop)
    w = np.linspace(0.0, 1.0, 21)
    assert np.array_equal(kf.eval(w), cop.kendall_cdf(w))
    assert np.array_equal(kf.eval_left(w), kf.eval(w))
    lo, hi = kf.interval(w)
    assert lo.tobytes() == hi.tobytes() == kf.eval(w).tobytes()
    assert kf.source == "analytic"
    with pytest.raises(ValueError):
        analytic_kendall(ArchimedeanCopula("clayton", theta=2.0, dim=3))


def test_pseudo_observations_small_example():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    w = pseudo_observations(pts)
    assert np.array_equal(w, [1 / 3, 2 / 3, 2 / 3])


def test_pseudo_observations_univariate_are_ranks():
    x = np.array([3.0, -1.0, 7.0, 0.5])
    w = pseudo_observations(x)
    assert np.array_equal(w, [3 / 4, 1 / 4, 4 / 4, 2 / 4])


def test_pseudo_observations_ties_counted_weakly():
    pts = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 2.0]])
    w = pseudo_observations(pts)
    assert np.array_equal(w, [2 / 3, 2 / 3, 1 / 3])


def test_empirical_step_semantics():
    kf = pseudo_kendall(np.array([[0.2], [0.4], [0.4], [0.8]]))
    # univariate pseudo-obs of distinct-ish values are ranks/m: (1, 3, 3, 4)/4
    assert np.array_equal(kf.values, [0.25, 0.75, 0.75, 1.0])
    assert kf.eval(0.75) == 0.75
    assert kf.eval_left(0.75) == 0.25
    assert kf.eval(0.75) - kf.eval_left(0.75) == 0.5
    assert kf.eval(0.1) == 0.0
    assert kf.eval_left(0.25) == 0.0
    assert kf.eval(1.0) == 1.0
    assert kf.eval_left(1.0) == 0.75
    out = kf.eval(np.array([0.0, 0.5, 1.0]))
    assert np.array_equal(out, [0.0, 0.25, 1.0])


def test_mc_matches_analytic():
    fc = _gumbel_cm(tau=0.5)
    kf = monte_carlo_kendall(fc, substream(11, 0), n=20_000)
    exact = analytic_kendall(fc.copula)
    w = np.linspace(0.0, 1.0, 401)
    assert np.max(np.abs(kf.eval(w) - exact.eval(w))) <= 0.02
    assert kf.source == "mc"


def test_pseudo_converges_to_analytic():
    fc = _gumbel_cm(tau=0.5)
    exact = analytic_kendall(fc.copula)
    w = np.linspace(0.0, 1.0, 401)
    sups = []
    for i, m in enumerate([100, 1_000, 10_000]):
        pts = fc.sample(substream(37, i), m)
        kf = pseudo_kendall(pts)
        sups.append(np.max(np.abs(kf.eval(w) - exact.eval(w))))
    assert sups[2] < sups[1] < sups[0]
    assert sups[2] <= 0.03


def test_ensemble_cdf_at_own_points_equals_pseudo():
    rng = substream(5, 9)
    pts = rng.normal(size=(200, 3))
    fc = EnsembleForecast(pts)
    kf = pseudo_kendall(pts)
    assert np.array_equal(np.sort(fc.cdf(pts)), kf.values)


def test_pseudo_orthant_reflection_exact():
    rng = substream(6, 2)
    pts = rng.normal(size=(150, 2))
    fc = EnsembleForecast(pts)
    signs = (1, -1)
    kf = select_kendall(fc, signs=signs)
    assert np.array_equal(np.sort(fc.cdf(pts, signs)), kf.values)


def test_mc_orthant_gaussian_symmetry():
    # a centered Gaussian is sign-symmetric, so the NE and SW orthant
    # functions share one Kendall distribution
    fc = GaussianForecast([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
    sw = monte_carlo_kendall(fc, substream(21, 0), n=20_000)
    ne = monte_carlo_kendall(fc, substream(21, 1), n=20_000, signs=(1, 1))
    w = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(sw.eval(w) - ne.eval(w))) <= 0.03


def test_select_auto_routes():
    uni = Normal(0.0, 1.0)
    assert select_kendall(uni).source == "uniform"

    pts = substream(3, 3).normal(size=(50, 2))
    ens = EnsembleForecast(pts)
    assert select_kendall(ens).source == "pseudo"
    assert select_kendall(ens, signs=(-1, -1)).source == "pseudo"

    cm = _gumbel_cm()
    assert select_kendall(cm).source == "analytic"
    # off-axis cones have no closed form; auto falls back to sampling
    kf = select_kendall(cm, signs=(1, 1), rng=substream(3, 4), n=500)
    assert kf.source == "mc"

    gauss = GaussianForecast([0.0, 0.0], np.eye(2))
    assert select_kendall(gauss, rng=substream(3, 5), n=500).source == "mc"

    # auto reflects a cone along its '+' axes, also for tied 1-d ensembles
    tied = EnsembleForecast([0.0, 0.0, 1.0])
    assert np.array_equal(select_kendall(tied, signs=(1,)).values,
                          pseudo_kendall(-tied.points).values)


def test_select_rejects_malformed_cones():
    ens = EnsembleForecast(substream(3, 6).normal(size=(20, 2)))
    for signs in ((1,), (1, 0), (2, -1)):
        with pytest.raises(ValueError):
            select_kendall(ens, signs=signs)


def test_cone_names_match_sign_tuples():
    y = np.array([[0.3, -0.2], [1.5, 0.4], [-0.7, 2.0]])
    ens = EnsembleForecast(substream(3, 7).normal(size=(40, 2)))
    gauss = GaussianForecast([0.5, -0.5], [[1.0, 0.3], [0.3, 2.0]])
    for fc in (ens, gauss, _gumbel_cm()):
        assert np.array_equal(fc.cdf(y, "se"), fc.cdf(y, (1, -1)))
    assert np.array_equal(select_kendall(ens, signs="ne").values,
                          select_kendall(ens, signs=(1, 1)).values)
    cm = select_kendall(_gumbel_cm(), signs="ne", rng=substream(3, 8), n=500)
    assert np.array_equal(cm.values, select_kendall(_gumbel_cm(), signs=(1, 1),
                                                    rng=substream(3, 8), n=500).values)
    nw = monte_carlo_kendall(gauss, substream(3, 9), n=500, signs="nw")
    assert np.array_equal(nw.values,
                          monte_carlo_kendall(gauss, substream(3, 9), n=500, signs=(-1, 1)).values)


def test_select_explicit_strategies():
    cm = _gumbel_cm()
    kf = select_kendall(cm, "mc", rng=substream(8, 0), n=1_000)
    assert kf.source == "mc" and kf.n == 1_000

    ens = EnsembleForecast(substream(8, 1).normal(size=(30, 2)))
    with pytest.raises(ValueError):
        select_kendall(ens, "analytic")
    with pytest.raises(ValueError):
        select_kendall(cm, "pseudo")
    with pytest.raises(ValueError):
        select_kendall(cm, "analytic", signs=(1, 1))
    with pytest.raises(ValueError):
        select_kendall(cm, "mc")  # no rng
    with pytest.raises(ValueError):
        select_kendall(cm, "bootstrap", rng=substream(8, 2))


def test_domain_and_input_errors():
    kf = uniform_kendall()
    with pytest.raises(ValueError):
        kf.eval(1.2)
    with pytest.raises(ValueError):
        kf.eval(-0.1)
    emp = pseudo_kendall(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        emp.eval(np.array([0.5, 1.0001]))
    with pytest.raises(ValueError):
        monte_carlo_kendall(_gumbel_cm(), substream(1, 0), n=0)
    with pytest.raises(ValueError):
        pseudo_observations(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        pseudo_observations(np.zeros((2, 2, 2)))


def test_pseudo_kendall_counts_on_first_use(monkeypatch):
    pts = substream(15, 1).normal(size=(40, 3)).round(1)  # rounding forces ties
    eager = np.sort(pseudo_observations(pts))
    calls = []
    monkeypatch.setattr(kendall, "pseudo_observations", lambda p: calls.append(1) or eager)
    kf = pseudo_kendall(pts)
    assert calls == [] and kf.n == 40 and kf.source == "pseudo"
    # one point first (counted on the unsorted values), then a grid (sorted)
    lo, hi = kf.interval(0.5)
    assert (lo, hi) == (np.searchsorted(eager, 0.5, side="left") / 40,
                        np.searchsorted(eager, 0.5, side="right") / 40)
    assert len(calls) == 1
    w = np.linspace(0.0, 1.0, 81)
    assert kf.eval(w).tobytes() == (np.searchsorted(eager, w, side="right") / 40).tobytes()
    assert kf.eval_left(w).tobytes() == (np.searchsorted(eager, w, side="left") / 40).tobytes()
    assert kf.eval(0.5) == np.searchsorted(eager, 0.5, side="right") / 40
    assert kf.values.tobytes() == eager.tobytes()
    assert len(calls) == 1
    for bad in (np.zeros((0, 2)), np.zeros((3, 0)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError):
            pseudo_kendall(bad)


def test_pseudo_chunking_consistent():
    rng = substream(14, 0)
    pts = rng.normal(size=(250, 8))
    w = pseudo_observations(pts)
    brute = np.all(pts[None, :, :] <= pts[:, None, :], axis=2).mean(axis=1)
    assert np.array_equal(w, brute)
    assert np.all(w >= 1 / 250)


# sample values from a small pool (ties, the ends 0 and 1) or anywhere in [0, 1]
_K_VALUES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                      st.floats(0.0, 1.0, allow_subnormal=False))


@settings(max_examples=300, deadline=None)
@given(sample=st.lists(_K_VALUES, min_size=1, max_size=40), data=st.data())
@example(sample=[0.5], data=None)  # n = 1, h at the value
@example(sample=[0.0, 0.0, 1.0, 1.0, 0.25], data=None)  # ties at both ends
def test_one_point_interval_counts_like_a_sorted_search(sample, data):
    sample = np.array(sample)
    n = sample.size
    points = (sample[0], 0.0, 1.0) if data is None else (data.draw(st.one_of(
        st.sampled_from(list(sample)), _K_VALUES), label="h"),)
    grid = np.linspace(0.0, 1.0, 41)

    def want(h, side):
        return np.searchsorted(np.sort(sample), h, side=side) / n

    def bits(lo_hi):
        return tuple(np.float64(k).tobytes() for k in lo_hi)

    for h in points:
        expect = bits((want(h, "left"), want(h, "right")))
        kf = empirical_kendall(sample)
        first = kf.interval(h)  # counted on the unsorted sample
        assert all(type(k) is float for k in first) and bits(first) == expect
        assert kf.eval(grid).tobytes() == empirical_kendall(sample).eval(grid).tobytes()
        assert bits(kf.interval(h)) == expect  # searched in the sorted values
        assert bits((kf.eval_left(h), kf.eval(h))) == expect
        fresh = empirical_kendall(sample)
        assert bits((fresh.eval_left(h), fresh.eval(h))) == expect
        lo, hi = empirical_kendall(sample).interval(np.array([h]))
        assert bits((lo[0], hi[0])) == expect
