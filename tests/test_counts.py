"""One integer check for every count, dimension, index, seed and key.

Each function below takes its integer argument through
``samplers._check_int``: a float, a bool, a numeric string or a value below
the argument's minimum raises a ValueError that names the argument, and a
numpy integer is accepted.
"""

import re

import numpy as np
import pytest

from coppit import calibration, copulas, forecasts, kendall, samplers, simstudy

_GAUSS = forecasts.GaussianForecast([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
_ENS = forecasts.EnsembleForecast([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])


def _rng():
    return samplers.make_rng(0)


def _highdim(**kw):
    return simstudy.run_highdim("true-frank", **{"j": 2, "d": 3, "m": 2, "kendall_n": 20, **kw})


def _demo(variant, **kw):
    return simstudy.run_demo_emos(variant, **{"j": 2, "m": 2, "kendall_n": 20, **kw})


# name -> (argument as the error names it, its minimum, the call with it set to v)
CASES = {
    "positive_stable": ("n", 0, lambda v: samplers.positive_stable(_rng(), 0.5, v)),
    "sibuya": ("n", 0, lambda v: samplers.sibuya(_rng(), 0.5, v)),
    "log_series": ("n", 0, lambda v: samplers.log_series(_rng(), 0.5, v)),
    "sample_copula.n": ("n", 0, lambda v: copulas.sample_copula("gumbel", _rng(), 2.0, 2, v)),
    "sample_copula.dim": ("dim", 2, lambda v: copulas.sample_copula("gumbel", _rng(), 2.0, v, 3)),
    "kendall_sample.n": ("n", 0, lambda v: copulas.kendall_sample("frank", _rng(), 2.0, 2, v)),
    "kendall_sample.dim": ("dim", 1, lambda v: copulas.kendall_sample("joe", _rng(), 2.0, v, 3)),
    "ArchimedeanCopula": ("dim", 2, lambda v: copulas.ArchimedeanCopula("clayton", theta=1.0, dim=v)),
    "Normal.sample": ("n", 0, lambda v: forecasts.Normal(0.0, 1.0).sample(_rng(), v)),
    "EnsembleForecast.sample": ("n", 0, lambda v: _ENS.sample(_rng(), v)),
    "GaussianForecast.sample": ("n", 0, lambda v: _GAUSS.sample(_rng(), v)),
    "monte_carlo_kendall": ("n", 1, lambda v: kendall.monte_carlo_kendall(_GAUSS, _rng(), v)),
    "histogram": ("bins", 1, lambda v: calibration.histogram(np.linspace(0.05, 0.95, 10), bins=v)),
    "rank_histogram": ("m", 1, lambda v: calibration.rank_histogram(np.array([1, 2]), v)),
    "margin_forecast.mvgauss": ("margin index", 0, lambda v: forecasts.margin_forecast(_GAUSS, v)),
    "margin_forecast.ensemble": ("margin index", 0, lambda v: forecasts.margin_forecast(_ENS, v)),
    "make_rng": ("seed", 0, samplers.make_rng),
    "substream.seed": ("seed", 0, lambda v: samplers.substream(v, 1)),
    "substream.key": ("key", 0, lambda v: samplers.substream(1, 0, v)),
    "substream_integers.seed": ("seed", 0, lambda v: samplers.substream_integers(v, (2,), [1], [5])),
    "substream_integers.key": ("key", 0, lambda v: samplers.substream_integers(1, (v,), [1], [5])),
    "substream_integers.idx": ("idx", 0, lambda v: samplers.substream_integers(1, (2,), [v], [5])),
    "substream_integers.high": ("high", 1, lambda v: samplers.substream_integers(1, (2,), [1], [v])),
    "run_bivariate.j": ("j", 1, lambda v: simstudy.run_bivariate(j=v, labels=("TTT",))),
    "run_bivariate.directional_n": ("directional_n", 1, lambda v: simstudy.run_bivariate(
        j=2, labels=("TTT",), include_directional=True, directional_n=v)),
    "run_highdim.j": ("j", 1, lambda v: _highdim(j=v)),
    "run_highdim.d": ("d", 2, lambda v: _highdim(d=v)),
    "run_highdim.m": ("m", 1, lambda v: _highdim(m=v)),
    "run_highdim.kendall_n": ("kendall_n", 1, lambda v: _highdim(kendall_n=v)),
    "run_demo_emos.j": ("j", 1, lambda v: _demo("independent", j=v)),
    "run_demo_emos.m": ("m", 1, lambda v: _demo("ensemble", m=v)),
    "run_demo_emos.kendall_n": ("kendall_n", 1, lambda v: _demo("correct", kendall_n=v)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_integer_arguments_are_checked(case):
    what, minimum, call = CASES[case]
    for bad in (2.7, True, "3", minimum - 1):
        with pytest.raises(ValueError, match=re.escape(what)):
            call(bad)
    call(np.int64(minimum + 1))
