"""Synthetic forecast-verification scenarios with known deficiencies.

Three scenario generators, each producing forecast-observation pairs from a
latent-parameter truth together with the full set of calibration records:

- ``run_bivariate``: a d=2 Gumbel-copula truth with per-case latent betas
  and eight forecasters labelled by which of (margin 1, margin 2, copula)
  they get right; e.g. FTT biases the first margin, TFT underdisperses the
  second, TTF shrinks the dependence.
- ``run_highdim``: a d=50 Frank-copula truth against a correct forecast, an
  attenuated-dependence Frank forecast, and a Joe forecast with matched
  pairwise tau; computes both copula PIT values and m=8 multivariate ranks,
  which is where the two diagnostics visibly part ways.
- ``run_demo_emos``: a bivariate Gaussian truth with a correct forecast, a
  zero-correlation variant, and an underdispersed m=8 ensemble.

Each result is a ``Records`` batch (one row per case) extended with the
values the scenario computed; none echoes its seed, variant or case count
(``len`` gives the cases).  All randomness flows through fixed sub-streams
of the run seed (latent draws, the shared randomization draws v, rank
tie-breaking, per-forecaster Monte Carlo), so any subset of forecasters
reproduces the full run's values bit for bit and reruns are deterministic.
The case count j and the sizes d, m, kendall_n and directional_n must be
integers: a float or a bool raises ValueError instead of being truncated.
"""

import hashlib
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np
from scipy.special import ndtr, ndtri

from .calibration import Records, _tie_ranks, clical_curve, ensemble_counts
from .copulas import (ArchimedeanCopula, copula_cdf, kendall_cdf, kendall_sample, sample_copula,
                      tau_to_theta)
from .forecasts import _QUADRANTS, CopulaMarginalForecast, GaussianForecast, Normal
from .kendall import empirical_kendall, select_kendall
from .samplers import DEFAULT_SEED, _check_int, substream

BIVARIATE_LABELS = ("TTT", "TTF", "TFT", "TFF", "FTT", "FTF", "FFT", "FFF")
QUADRANTS = tuple(_QUADRANTS)  # sw, se, ne, nw
HIGHDIM_VARIANTS = ("true-frank", "shrunk-frank", "joe-swap")
DEMO_VARIANTS = ("correct", "independent", "ensemble")

_DEMO_RHO = 0.6
_DEMO_SHRINK = 0.7  # sd scale of the underdispersed demo ensemble

__all__ = [
    "BIVARIATE_LABELS",
    "QUADRANTS",
    "HIGHDIM_VARIANTS",
    "DEMO_VARIANTS",
    "ForecasterBatch",
    "BivariateStudy",
    "HighDimBatch",
    "DemoBatch",
    "run_bivariate",
    "run_highdim",
    "run_demo_emos",
    "bivariate_clical",
    "batch_digest",
]


@dataclass(eq=False, kw_only=True)
class ForecasterBatch(Records):
    """Per-case records of one bivariate-study forecaster; ``directional``
    maps each quadrant to its orthant records when they were computed."""

    label: str
    mu1: np.ndarray
    sd2: np.ndarray
    theta: np.ndarray
    pit1: np.ndarray
    pit2: np.ndarray
    directional: Optional[dict] = None

    def forecast(self, j):
        """The announced forecast distribution of case j."""
        cop = ArchimedeanCopula("gumbel", theta=float(self.theta[j]))
        margins = [Normal(float(self.mu1[j]), 1.0), Normal(0.0, float(self.sd2[j]))]
        return CopulaMarginalForecast(cop, margins)


@dataclass
class BivariateStudy:
    b1: np.ndarray
    b2: np.ndarray
    tau: np.ndarray
    y: np.ndarray
    forecasters: tuple

    def batch(self, label):
        for fb in self.forecasters:
            if fb.label == label:
                return fb
        raise KeyError(f"no forecaster {label!r} in this run")


def _latent_truth(seed, family, dim, j):
    """The studies' shared truth, drawn in this order on substream (seed, 0):
    B1 ~ Beta(2,5) and B2 ~ Beta(5,2) per case, tau = (B1+B2)/2, theta of
    the family at tau, and one draw of that copula per case.  Returns
    (b1, b2, tau, theta, u)."""
    lat = substream(seed, 0)
    b1 = lat.beta(2.0, 5.0, j)
    b2 = lat.beta(5.0, 2.0, j)
    tau = (b1 + b2) / 2.0
    if not np.all(tau > 0.0):
        raise ValueError(f"latent tau must be positive for the {family} truth")
    theta = tau_to_theta(family, tau)
    return b1, b2, tau, theta, sample_copula(family, lat, theta=theta, dim=dim, n=j)


def run_bivariate(j=4000, seed=DEFAULT_SEED, labels=BIVARIATE_LABELS,
                  include_directional=False, directional_n=10_000):
    """Bivariate Gumbel study: latent betas, truth sampling, eight forecasters.

    Truth per case: B1 ~ Beta(2,5), B2 ~ Beta(5,2); Y has a Gumbel copula
    with tau = (B1+B2)/2, margin 1 ~ N(2-B1, 1), margin 2 ~ N(0, 1/B2).
    A label's letters flag (margin 1, margin 2, copula): F entries bias the
    first mean by 0.8, shrink the second variance by 0.8, and shrink tau by
    0.6.  The copula PIT uses the closed-form Gumbel Kendall function; with
    ``include_directional``, the four quadrant orthant records are added
    using one shared Monte Carlo sample per case for the four directions.
    """
    j = _check_int(j, "j", 1)
    directional_n = _check_int(directional_n, "directional_n", 1)
    labels = tuple(labels)
    unknown = set(labels) - set(BIVARIATE_LABELS)
    if unknown or not labels:
        raise ValueError(f"labels must be a non-empty subset of {BIVARIATE_LABELS}, got {labels!r}")

    b1, b2, tau, _, u_truth = _latent_truth(seed, "gumbel", 2, j)
    y1 = (2.0 - b1) + ndtri(u_truth[:, 0])
    y2 = np.sqrt(1.0 / b2) * ndtri(u_truth[:, 1])
    y = np.column_stack([y1, y2])

    v = substream(seed, 1).random(j)

    batches = []
    for label in BIVARIATE_LABELS:  # canonical order, stable sub-streams
        if label not in labels:
            continue
        f_idx = BIVARIATE_LABELS.index(label)
        mu1 = (2.0 - b1) if label[0] == "T" else 0.8 * (2.0 - b1)
        var2 = 1.0 / b2 if label[1] == "T" else 0.8 / b2
        sd2 = np.sqrt(var2)
        tau_hat = tau if label[2] == "T" else 0.6 * tau
        theta_hat = tau_to_theta("gumbel", tau_hat)

        pit1 = ndtr(y1 - mu1)
        pit2 = ndtr(y2 / sd2)
        h = copula_cdf("gumbel", np.column_stack([pit1, pit2]), theta_hat)
        k = kendall_cdf("gumbel", h, theta_hat)  # continuous: the jump interval is a point

        directional = None
        if include_directional:
            directional = _bivariate_directional(
                substream(seed, 3, f_idx), theta_hat, pit1, pit2, h, v, directional_n)

        batches.append(ForecasterBatch(
            h, k, k, v, label=label, mu1=mu1, sd2=sd2, theta=theta_hat,
            pit1=pit1, pit2=pit2, directional=directional))

    return BivariateStudy(b1=b1, b2=b2, tau=tau, y=y, forecasters=tuple(batches))


def _bivariate_directional(rng, theta_hat, pit1, pit2, h, v, n):
    """Quadrant orthant records; Kendall functions by per-case Monte Carlo."""
    cols = {q: np.empty((3, h.size)) for q in QUADRANTS}  # h, k_left, k_right
    for i in range(h.size):
        draws = sample_copula("gumbel", rng, theta=float(theta_hat[i]), dim=2, n=n)
        c = copula_cdf("gumbel", draws, float(theta_hat[i]))
        # orthant value at the outcome and at each copula draw, per quadrant
        pairs = {
            "sw": (h[i], c),
            "se": (pit2[i] - h[i], draws[:, 1] - c),
            "ne": (1.0 - pit1[i] - pit2[i] + h[i], 1.0 - draws[:, 0] - draws[:, 1] + c),
            "nw": (pit1[i] - h[i], draws[:, 0] - c),
        }
        for q, (hq, g) in pairs.items():
            kfn = empirical_kendall(np.clip(g, 0.0, 1.0))
            hq = min(max(hq, 0.0), 1.0)
            cols[q][:, i] = hq, *kfn.interval(hq)
    return {q: Records(*cols[q], v) for q in QUADRANTS}


def bivariate_clical(study, label):
    """Climatological calibration curve of one forecaster in a bivariate run.

    lhs is the empirical CDF of the h values; rhs is the case mean of the
    closed-form Gumbel Kendall functions, both on 101 evenly spaced points
    of [0, 1].
    """
    fb = study.batch(label)
    grid = np.linspace(0.0, 1.0, 101)
    mean_k = kendall_cdf("gumbel", grid[None, :], fb.theta[:, None]).mean(axis=0)
    return clical_curve(fb.h, mean_k, grid)


@dataclass(eq=False, kw_only=True)
class HighDimBatch(Records):
    family: str
    m: int
    theta_true: np.ndarray
    theta_hat: np.ndarray


def run_highdim(variant, j=4000, seed=DEFAULT_SEED, d=50, m=8, kendall_n=10_000):
    """High-dimensional Frank study: one forecast variant against the truth.

    Truth per case: Frank copula in dimension d with pairwise
    tau = (B1+B2)/2 and standard normal margins.  Variants: 'true-frank'
    announces the truth, 'shrunk-frank' uses 0.8*tau, 'joe-swap' keeps tau
    but swaps in a Joe copula.  The forecast Kendall function is estimated
    per case by Monte Carlo (``kendall_n`` draws through the frailty
    identity); ranks come from a fresh m-member ensemble drawn from the
    forecast.  Runs with the same (j, seed, d) share the identical truth
    sample across variants.  Per-case Monte Carlo draw order: ensemble
    first, then the Kendall sample.
    """
    if variant not in HIGHDIM_VARIANTS:
        raise ValueError(f"variant must be one of {HIGHDIM_VARIANTS}, got {variant!r}")
    j = _check_int(j, "j", 1)
    d = _check_int(d, "d", 2)
    m = _check_int(m, "m", 1)
    kendall_n = _check_int(kendall_n, "kendall_n", 1)

    _, _, tau, theta_true, u_truth = _latent_truth(seed, "frank", d, j)
    y = ndtri(u_truth)

    v = substream(seed, 1).random(j)
    ties = substream(seed, 2)

    family, tau_hat = {
        "true-frank": ("frank", tau),
        "shrunk-frank": ("frank", 0.8 * tau),
        "joe-swap": ("joe", tau),
    }[variant]
    theta_hat = tau_to_theta(family, tau_hat)

    h = copula_cdf(family, ndtr(y), theta_hat)

    rng_f = substream(seed, 3, HIGHDIM_VARIANTS.index(variant))
    k_left = np.empty(j)
    k_right = np.empty(j)
    ens = np.empty((j, m, d))
    for i in range(j):
        th = float(theta_hat[i])
        ens[i] = ndtri(sample_copula(family, rng_f, theta=th, dim=d, n=m))
        kfn = empirical_kendall(kendall_sample(family, rng_f, theta=th, dim=d, n=kendall_n))
        k_left[i], k_right[i] = kfn.interval(h[i])
    counts = ensemble_counts(ens, y)
    ranks = _tie_ranks(counts.below, ties.integers(0, counts.tied + 1))

    return HighDimBatch(h, k_left, k_right, v, rank=ranks, family=family, m=m,
                        theta_true=theta_true, theta_hat=theta_hat)


@dataclass(eq=False, kw_only=True)
class DemoBatch(Records):
    m: Optional[int]


def run_demo_emos(variant, j=4000, seed=DEFAULT_SEED, m=8, kendall_n=100_000):
    """Bivariate Gaussian demo: correct, zero-correlation, ensemble variants.

    Truth per case: mean drawn N(0, I), covariance fixed with unit variances
    and correlation 0.6.  'correct' announces the truth; 'independent' keeps
    the margins but forces correlation zero (independence copula).  Both
    score every case's standardized residual against one forecast, whose
    Kendall function ``select_kendall`` builds once: a shared Monte Carlo
    estimate for 'correct', the closed form for 'independent'.  'ensemble'
    issues m draws with standard deviations shrunk to 0.7.
    """
    if variant not in DEMO_VARIANTS:
        raise ValueError(f"variant must be one of {DEMO_VARIANTS}, got {variant!r}")
    j = _check_int(j, "j", 1)
    m = _check_int(m, "m", 1)
    kendall_n = _check_int(kendall_n, "kendall_n", 1)

    rho = _DEMO_RHO
    chol = np.linalg.cholesky(np.array([[1.0, rho], [rho, 1.0]]))
    lat = substream(seed, 0)
    mu = lat.normal(size=(j, 2))
    y = mu + lat.normal(size=(j, 2)) @ chol.T
    v = substream(seed, 1).random(j)
    ties = substream(seed, 2)
    resid = y - mu

    ranks = None
    if variant != "ensemble":
        fc = (demo_truth_forecast(np.zeros(2), rho) if variant == "correct" else
              CopulaMarginalForecast(ArchimedeanCopula("independence"), [Normal(0.0, 1.0)] * 2))
        h = fc.cdf(resid)
        k_left, k_right = select_kendall(fc, rng=substream(seed, 3, 0), n=kendall_n).interval(h)
    else:
        rng_f = substream(seed, 3, 2)
        pts = mu[:, None, :] + rng_f.normal(size=(j, m, 2)) @ (_DEMO_SHRINK * chol).T
        counts = ensemble_counts(pts, y)
        h, k_left, k_right = counts.h / m, counts.k_left / m, counts.k_right / m
        ranks = _tie_ranks(counts.below, ties.integers(0, counts.tied + 1))

    return DemoBatch(h, k_left, k_right, v, rank=ranks, m=m if variant == "ensemble" else None)


def demo_truth_forecast(mu, rho=_DEMO_RHO):
    """The demo scenario's announced truth for one case mean."""
    cov = np.array([[1.0, rho], [rho, 1.0]])
    return GaussianForecast(np.asarray(mu, dtype=float), cov)


def batch_digest(obj):
    """Hex digest of every field of a result dataclass, field order fixed."""
    hasher = hashlib.sha256()
    for f in fields(obj):
        val = getattr(obj, f.name)
        hasher.update(f.name.encode())
        if isinstance(val, np.ndarray):
            hasher.update(np.ascontiguousarray(val).tobytes())
        elif isinstance(val, dict):
            for key in sorted(val):
                hasher.update(f"{key}:{batch_digest(val[key])}".encode())
        elif isinstance(val, tuple):
            for item in val:
                hasher.update(batch_digest(item).encode())
        elif val is not None:
            hasher.update(repr(val).encode())
    return hasher.hexdigest()
