"""One check per kind of value: probabilities, samples and finite values.

Each argument below is decided by one of the checks in ``samplers``:
``_check_unit`` (every entry in [0, 1]), ``_check_sample`` (a non-empty 1-d
sample in [0, 1]) or ``_check_finite``.  A bad value raises a ValueError that
names the argument, from the check itself, and the ends 0.0 and 1.0 are
accepted.  Every outcome is finite where it enters the library: nan or an
infinity in y raises "outcome coordinates must be finite" from every
forecast's CDF and from every ensemble route.
"""

import re

import numpy as np
import pytest

from coppit import bvn, calibration, copulas, forecasts, kendall, samplers

_NORMAL = forecasts.Normal(0.0, 1.0)
_ENS = forecasts.EnsembleForecast([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
_GAUSS = forecasts.GaussianForecast([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
_CM = forecasts.CopulaMarginalForecast(copulas.ArchimedeanCopula("gumbel", tau=0.5),
                                       [forecasts.Normal(0.0, 1.0), forecasts.Normal(1.0, 2.0)])

_BAD = {"unit": (np.nan, -0.5, 1.5), "finite": (np.nan, np.inf, -np.inf)}

# name -> (argument as the error names it, kind, the call with one entry set to v)
CASES = {
    "KendallFn.eval": ("Kendall function arguments", "unit",
                       lambda v: kendall.uniform_kendall().eval(v)),
    "KendallFn.interval": ("Kendall function arguments", "unit",
                           lambda v: kendall.uniform_kendall().interval([0.5, v])),
    "_Empirical.eval": ("Kendall function arguments", "unit",
                        lambda v: kendall.empirical_kendall([0.2, 0.7]).eval(v)),
    "_Empirical.interval": ("Kendall function arguments", "unit",
                            lambda v: kendall.empirical_kendall([0.2, 0.7]).interval(v)),
    "coppit.v": ("randomization draw v", "unit",
                 lambda v: calibration.coppit(_NORMAL, kendall.uniform_kendall(), 0.3, v)),
    "pit.v": ("randomization draws v", "unit", lambda v: calibration.pit(_NORMAL, [0.3, 0.4], [0.5, v])),
    "kendall_cdf": ("kendall_cdf argument", "unit", lambda v: copulas.kendall_cdf("gumbel", v, 2.0)),
    "copula_cdf": ("copula arguments", "unit", lambda v: copulas.copula_cdf("gumbel", [0.5, v], 2.0)),
    "clical_curve.mean_k": ("mean Kendall function", "unit",
                            lambda v: calibration.clical_curve([0.5], [0.5, v], [0.0, 1.0])),
    "histogram": ("histogram values", "unit", lambda v: calibration.histogram([0.5, v])),
    "empirical_kendall": ("empirical Kendall sample", "unit", lambda v: kendall.empirical_kendall([0.5, v])),
    "clical_curve.grid": ("grid", "unit", lambda v: calibration.clical_curve([0.5], [0.5, 0.5], [0.5, v])),
    "EnsembleForecast": ("ensemble points", "finite", lambda v: forecasts.EnsembleForecast([[0.0, v]])),
    "GaussianForecast.mean": ("mvgauss mean", "finite",
                              lambda v: forecasts.GaussianForecast([0.0, v], np.eye(2))),
    "GaussianForecast.cov": ("mvgauss cov", "finite",
                             lambda v: forecasts.GaussianForecast([0.0, 0.0], [[2.0, v], [v, 2.0]])),
    "bvn_upper.h": ("bvn bounds", "finite", lambda v: bvn.bvn_upper([0.0, v], 0.0, 0.5)),
    "bvn_upper.k": ("bvn bounds", "finite", lambda v: bvn.bvn_upper(0.0, v, 0.5)),
    "bvn_cdf_counts.h": ("bvn bounds", "finite",
                         lambda v: bvn.bvn_cdf_counts([0.0, v], [0.0, 0.0], 0.5, 0.3)),
    "bvn_cdf_counts.k": ("bvn bounds", "finite",
                         lambda v: bvn.bvn_cdf_counts([0.0, 0.0], [-9.0, v], 0.5, 0.3)),
    "check_theta": ("gumbel copula parameter", "finite",
                    lambda v: copulas.ArchimedeanCopula("gumbel", theta=1.0 + v)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_values_are_checked(case):
    what, kind, call = CASES[case]
    message = f"^{re.escape(what)} must " + ("lie in \\[0, 1\\]$" if kind == "unit" else "be finite$")
    for bad in _BAD[kind]:
        with pytest.raises(ValueError, match=message) as exc:
            call(bad)
        assert exc.traceback[-1].path.name == "samplers.py"  # raised by the one check
    call(0.0)
    call(1.0)


@pytest.mark.parametrize("call", [
    lambda: calibration.histogram(np.zeros((2, 2))),
    lambda: calibration.histogram([]),
    lambda: kendall.empirical_kendall(0.5),
    lambda: calibration.clical_curve([0.5], [0.5], [[0.5]]),
], ids=["histogram.2d", "histogram.empty", "empirical_kendall.0d", "clical_curve.grid.2d"])
def test_samples_are_non_empty_and_one_dimensional(call):
    with pytest.raises(ValueError, match="must be a non-empty 1-d sample$") as exc:
        call()
    assert exc.traceback[-1].path.name == "samplers.py"


_UNIVARIATE = forecasts.EnsembleForecast([[0.0], [1.0]])

# name -> the call on two outcomes y: one bivariate outcome, or two univariate ones
OUTCOMES = {
    "Normal.cdf": lambda y: _NORMAL.cdf(y),
    "Normal.cdf.scalar": lambda y: [_NORMAL.cdf(float(yi)) for yi in y],
    "EnsembleForecast.cdf": lambda y: _ENS.cdf(y),
    "EnsembleForecast.cdf_left": lambda y: _UNIVARIATE.cdf_left(y),
    "GaussianForecast.cdf": lambda y: _GAUSS.cdf(y),
    "GaussianForecast.cdf.cone": lambda y: _GAUSS.cdf(y, "ne"),
    "CopulaMarginalForecast.cdf": lambda y: _CM.cdf(y),
    "CopulaMarginalForecast.cdf.cone": lambda y: _CM.cdf(y, "se"),
    "coppit": lambda y: calibration.coppit(_ENS, kendall.select_kendall(_ENS), y, 0.5),
    "ensemble_counts": lambda y: calibration.ensemble_counts(_ENS.points[None], y[None]),
    "coppit_interval": lambda y: calibration.coppit_interval(_ENS.points, y),
    "multivariate_rank": lambda y: calibration.multivariate_rank(_ENS.points, y, samplers.make_rng(0)),
    "pit.Normal": lambda y: calibration.pit(_NORMAL, y, 0.5),
    "pit.EnsembleForecast": lambda y: calibration.pit(_UNIVARIATE, y, 0.5),
}


@pytest.mark.parametrize("case", sorted(OUTCOMES))
def test_outcomes_must_be_finite(case):
    call = OUTCOMES[case]
    for bad in (np.nan, np.inf, -np.inf):
        for y in ([bad, 0.5], [0.5, bad]):
            with pytest.raises(ValueError, match="^outcome coordinates must be finite$"):
                call(np.array(y))
    call(np.array([0.5, 0.5]))
