"""Blocks by kind against the per-case library path.

``cli._analyze`` scores mvgauss and copula-marginal cases in blocks: one
``cdf_rows`` call for H(y), one ``analytic_kendall_rows`` call per family for
the closed-form K at h and on the ``clical`` grid, and a Monte Carlo Kendall
function per case only where one is needed.  Every record column and the
case-mean Kendall row must equal, bit for bit, what ``select_kendall`` and
``calibration.coppit`` give case by case, with the same substreams.  The
blocks take each law's parameters (rho, theta, mu, sigma) one per row, the
per-case path takes them as scalars: the two agree only while numpy's ufuncs
give per-row parameters the bits of scalar ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coppit.calibration import Records, coppit
from coppit.cli import _analyze
from coppit.copulas import FAMILY_NAMES, ArchimedeanCopula
from coppit.forecasts import CopulaMarginalForecast, GaussianForecast, Normal, cdf_rows
from coppit.io import CaseArchive
from coppit.kendall import analytic_kendall_rows, select_kendall
from coppit.samplers import substream

# both sides of the 6/12/20-point rule cuts and of the high-|rho| branch
RHOS = [s * r for s in (-1.0, 1.0) for r in (0.0, 0.1, 0.2999, 0.3, 0.5, 0.7499, 0.75, 0.9,
                                             0.9249, 0.925, 0.95, 0.999)]
THETAS = {"independence": (None, None), "gumbel": (1.0, 6.0), "clayton": (0.05, 8.0),
          "frank": (0.2, 30.0), "joe": (1.0, 6.0)}
CONES = {2: (None, "sw", "ne", "+-", "nw"), 3: (None, "+-+", "-+-", "---")}


def _per_case(archive, seed, strategy, n, signs, grid):
    """Records and case-mean Kendall row from ``select_kendall`` and ``coppit``,
    case by case; each Monte Carlo interval is also checked against the
    Kendall function's full, sorted sample."""
    cases = archive.cases
    v = substream(seed, 1).random(len(cases))
    rows = []
    mean_k = None if grid is None else np.zeros_like(grid)
    for i, (fc, y) in enumerate(cases):
        kfn = select_kendall(fc, strategy=strategy, rng=substream(seed, 3, i), n=n, signs=signs)
        rec = coppit(fc, kfn, y, float(v[i]), signs=signs)
        rows.append(rec)
        if grid is not None:
            mean_k += kfn.eval(grid)
        if kfn.source == "mc":
            assert kfn.values.size == n  # H at every draw, sorted
            assert kfn.interval(rec.h) == (rec.k_left, rec.k_right)
    return Records.stack(rows), None if grid is None else mean_k / len(cases)


def _assert_same(archive, seed, strategy, n, signs, threads, grid):
    recs, mean_k = _analyze(archive, seed, strategy, n, signs, threads, grid)
    want, want_k = _per_case(archive, seed, strategy, n, signs, grid)
    assert recs.rank is None
    for col in ("h", "k_left", "k_right", "v", "u"):
        assert getattr(recs, col).tobytes() == getattr(want, col).tobytes(), col
    assert (mean_k is None and want_k is None) or mean_k.tobytes() == want_k.tobytes()


def _gauss(mean, sds, rho):
    c = rho * sds[0] * sds[1]
    return GaussianForecast(mean, [[sds[0] ** 2, c], [c, sds[1] ** 2]])


def _copula_case(family, theta, dim, mu, sigma):
    return CopulaMarginalForecast(ArchimedeanCopula(family, theta=theta, dim=dim),
                                  [Normal(m, s) for m, s in zip(mu, sigma)])


def _fixed_archive(dim):
    """Every mvgauss rho of RHOS (d = 2) and every family at three thetas,
    with outcomes spread over both tails."""
    rng = np.random.default_rng(31 + dim)
    forecasts = []
    if dim == 2:
        forecasts += [_gauss(rng.normal(0, 1, 2), rng.uniform(0.5, 2.0, 2), r) for r in RHOS]
    for family in FAMILY_NAMES:
        lo, hi = THETAS[family]
        for theta in ((None,) if lo is None else (lo, (lo + hi) / 2, hi)):
            forecasts.append(_copula_case(family, theta, dim, rng.normal(0, 1, dim),
                                          rng.uniform(0.5, 2.0, dim)))
    order = rng.permutation(len(forecasts))  # kinds interleaved
    cases = tuple((forecasts[i], rng.normal(0.0, 2.0, dim)) for i in order)
    return CaseArchive(dim=dim, cases=cases, metadata={})


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("strategy", ("auto", "mc"))
def test_every_kind_and_cone_matches_per_case(dim, strategy):
    archive = _fixed_archive(dim)
    for cone in CONES[dim]:
        for threads, grid in ((1, None), (2, np.linspace(0.0, 1.0, 11)), (1, np.array([0.5]))):
            _assert_same(archive, 7, strategy, 120, cone, threads, grid)


@st.composite
def archives(draw):
    dim = draw(st.sampled_from((2, 3)))
    coord = st.floats(-4.0, 4.0, allow_subnormal=False)
    cases = []
    for _ in range(draw(st.integers(1, 8))):
        mean = [draw(coord) for _ in range(dim)]
        sds = [draw(st.floats(0.3, 3.0)) for _ in range(dim)]
        if dim == 2 and draw(st.booleans()):
            rho = draw(st.one_of(st.sampled_from(RHOS), st.floats(-0.999, 0.999)))
            fc = _gauss(np.array(mean), np.array(sds), rho)
        else:
            family = draw(st.sampled_from(FAMILY_NAMES))
            lo, hi = THETAS[family]
            theta = None if lo is None else draw(st.floats(lo, hi))
            fc = _copula_case(family, theta, dim, mean, sds)
        y = np.array([draw(coord) for _ in range(dim)])
        cases.append((fc, y))
    return CaseArchive(dim=dim, cases=tuple(cases), metadata={})


@settings(max_examples=60, deadline=None)
@given(archive=archives(), data=st.data())
def test_blocks_match_per_case(archive, data):
    cone = data.draw(st.sampled_from(CONES[archive.dim]), label="cone")
    strategy = data.draw(st.sampled_from(("auto", "mc")), label="strategy")
    threads = data.draw(st.sampled_from((1, 2)), label="threads")
    size = data.draw(st.sampled_from((None, 1, 2, 21)), label="grid")
    grid = None if size is None else np.linspace(0.0, 1.0, size)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    _assert_same(archive, seed, strategy, 60, cone, threads, grid)


def test_block_functions_check_their_input():
    gauss = _gauss(np.zeros(2), np.ones(2), 0.5)
    with pytest.raises(ValueError, match="rows"):
        cdf_rows([gauss, gauss], np.zeros((3, 2)))
    with pytest.raises(ValueError, match="finite"):
        cdf_rows([gauss], np.array([[np.nan, 0.0]]))
    with pytest.raises(TypeError):
        cdf_rows([Normal(0.0, 1.0)], np.zeros((1, 1)))
    clayton = ArchimedeanCopula("clayton", theta=2.0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        analytic_kendall_rows([clayton], np.array([1.5]))
    assert cdf_rows([], np.zeros((0, 2))).shape == (0,)
