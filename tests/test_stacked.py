"""Stacked evaluation of ensemble cases against the per-case functions.

The cli evaluates ensemble cases in one ``ensemble_counts`` pass per member
count; every count must equal, bit for bit, what the per-case route gives:
``coppit`` with the ensemble's own pseudo-observation Kendall function for
h and the jump interval, that function's ``eval`` for the Kendall rows on a
grid, ``cdf_left`` for H(y-) in one dimension, and the pooled pre-ranks for
the rank.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coppit import forecasts
from coppit.calibration import coppit, ensemble_counts, multivariate_rank
from coppit.cli import _ensemble_groups, _stacked
from coppit.forecasts import EnsembleForecast, dominance_counts
from coppit.kendall import pseudo_kendall

# half-integers force ties between members and with the outcome
COORDS = st.one_of(st.integers(-3, 3).map(lambda k: k / 2.0),
                   st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False))


@st.composite
def batches(draw):
    """Ensemble cases of several member counts, in random order, plus a cone."""
    d = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 20), min_size=1, max_size=3))
    cases = []
    for _ in range(draw(st.integers(1, 10))):
        m = draw(st.sampled_from(sizes))
        pts = draw(arrays(np.float64, (m, d), elements=COORDS))
        if draw(st.booleans()):
            y = pts[draw(st.integers(0, m - 1))].copy()  # outcome equal to a member
        else:
            y = draw(arrays(np.float64, (d,), elements=COORDS))
        cases.append((EnsembleForecast(pts), y))
    signs = draw(st.one_of(st.none(), st.lists(st.sampled_from((-1, 1)), min_size=d,
                                                max_size=d)))
    return cases, signs


class _TieDraw:
    """Stands in for the tie-breaking rng and records the number of positions."""

    def integers(self, low, high):
        self.high = high
        return low


def _preranks(points, y, signs):
    pooled = np.vstack([points, y])
    if signs is not None:
        pooled = pooled * -np.asarray(signs, dtype=float)
    return np.array([sum(bool(np.all(p <= q)) for p in pooled) for q in pooled])


@settings(max_examples=60, deadline=None)
@given(batches())
def test_stacked_pass_equals_per_case(batch):
    cases, signs = batch
    seen = []
    for m, idx, c in _ensemble_groups(cases, range(len(cases)), signs):
        for j, i in enumerate(idx.tolist()):
            fc, y = cases[i]
            assert fc.m == m
            pts = fc.points if signs is None else fc.points * -np.asarray(signs, dtype=float)
            rec = coppit(fc, pseudo_kendall(pts), y, 0.375, signs=signs)
            assert (c.h[j] / m, c.k_left[j] / m, c.k_right[j] / m) == \
                (rec.h, rec.k_left, rec.k_right)

            rho = _preranks(fc.points, y, signs)
            below, tied = (rho[:-1] < rho[-1]).sum(), (rho[:-1] == rho[-1]).sum()
            assert (c.below[j], c.tied[j]) == (below, tied)
            draw = _TieDraw()
            assert multivariate_rank(fc.points, y, draw, signs=signs) == 1 + below
            assert draw.high == tied + 1
            seen.append(i)
    assert sorted(seen) == list(range(len(cases)))

    for size in (1, 21, 101):
        grid = np.linspace(0.0, 1.0, size)
        k_grid = np.empty((len(cases), size))
        h_left = _stacked(cases, 0, signs, grid, k_grid)[2]
        for i, (fc, y) in enumerate(cases):
            pts = fc.points if signs is None else fc.points * -np.asarray(signs, dtype=float)
            assert k_grid[i].tobytes() == pseudo_kendall(pts).eval(grid).tobytes()
            if fc.dim == 1 and (signs is None or signs[0] < 0):
                assert h_left[i] == fc.cdf_left(y)


def test_ensemble_counts_validation():
    with pytest.raises(ValueError):
        ensemble_counts(np.zeros((2, 3, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ensemble_counts(np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        ensemble_counts(np.zeros((2, 0, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ensemble_counts(np.zeros((2, 3, 0)), np.zeros((2, 0)))


def test_dominance_counts_chunks(monkeypatch):
    rng = np.random.default_rng(12)
    for d in (1, 2, 3, 50):
        pts = rng.integers(0, 3, (7, 5, d)).astype(float)
        # each query is the coordinatewise max of a random subset of its case's
        # members: it dominates them, ties them in many coordinates, and is
        # one of them when the subset has one member
        pick = rng.random((7, 9, 5)) < 0.4
        queries = np.where(pick[..., None], pts[:, None], -np.inf).max(axis=2)
        want = (pts[:, None, :, :] <= queries[:, :, None, :]).all(axis=3).sum(axis=2)
        assert len(np.unique(want)) > 2
        # a case is 9 x 5 = 45 elements: budgets give row chunks within a case,
        # one case per chunk, two, and all seven
        for budget in (10, 25, 50, 100, 10_000):
            monkeypatch.setattr(forecasts, "_CHUNK_ELEMENTS", budget)
            assert np.array_equal(dominance_counts(pts, queries), want)
            assert np.array_equal(dominance_counts(pts[0], queries[0]), want[0])
