"""Calibration checks for multivariate probabilistic forecasts.

The package evaluates whether a stream of probabilistic forecasts for a
vector outcome is calibrated, using the probability integral transform of
the forecast's own multivariate CDF (the copula PIT), Kendall distribution
functions, multivariate rank histograms, and climatological copula
calibration curves.  Sub-modules:

- samplers: seedable random streams and frailty-distribution samplers
- copulas: Archimedean families (cdf, generators, Kendall CDFs, sampling,
  Kendall's tau conversions)
- bvn: bivariate normal CDF (Genz's algorithm)
- forecasts: forecast objects (ensemble, bivariate Gaussian,
  copula + margins) with joint/orthant CDFs and sampling
- kendall: Kendall distribution function estimators and evaluators
- calibration: the columnar ``Records`` result type, copula PIT, randomized
  PIT, multivariate ranks, histograms, climatological calibration curves,
  directional (orthant) variants
- simstudy: packaged simulation studies (bivariate forecaster suite,
  high-dimensional rank-vs-copula-PIT contrast, ensemble demo)
- io: every on-disk format: forecast descriptors, case archives, result
  tables, SVG rendering
- cli: the ``coppit`` command
"""

__version__ = "0.1.0"

from .samplers import DEFAULT_SEED, make_rng, substream

__all__ = ["DEFAULT_SEED", "make_rng", "substream", "__version__"]
