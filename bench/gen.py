"""Seeded case archives for the archive workloads.

The generator is plain numpy/scipy and shares no code with coppit, so a
change to the program's samplers never changes the benchmark's inputs.
Every outcome is drawn from the case's own announced forecast, which makes
the copula PIT values of both archives uniform under a correct program:

- ensemble archive: m-member d-dimensional ensembles; the outcome is one
  member picked uniformly (a draw from the empirical measure).
- bivariate archive: half ``mvgauss`` cases, half ``copula_marginal`` cases
  cycling through Gumbel, Clayton, Frank and Joe copulas with normal
  margins; copula draws use the Marshall-Olkin frailty construction.

Usage: python3 bench/gen.py {ensemble,bivariate} SEED N OUT.jsonl
"""

import json
import sys
from collections import Counter

import numpy as np
from scipy.special import ndtri

FAMILIES = ("gumbel", "clayton", "frank", "joe")
THETA_RANGE = {"gumbel": (1.2, 3.0), "clayton": (0.5, 4.0),
               "frank": (1.0, 10.0), "joe": (1.2, 3.5)}
# keep outcomes finite: margins are inverted at u in [EPS, 1 - EPS]
EPS = 1e-12


def _rng(seed, kind):
    return np.random.default_rng([int(seed), {"ensemble": 1, "bivariate": 2}[kind]])


def _frailty(rng, family, theta):
    if family == "clayton":
        return rng.gamma(1.0 / theta)
    if family == "gumbel":  # positive stable, index 1/theta (Chambers-Mallows-Stuck)
        a = 1.0 / theta
        t = rng.uniform(0.0, np.pi)
        w = rng.standard_exponential()
        return (np.sin(a * t) / np.sin(t) ** (1.0 / a)
                * (np.sin((1.0 - a) * t) / w) ** ((1.0 - a) / a))
    if family == "frank":
        return float(rng.logseries(-np.expm1(-theta)))
    # joe: Sibuya(1/theta) is geometric with a Beta(1/theta, 1 - 1/theta) rate
    a = 1.0 / theta
    p = np.clip(rng.beta(a, 1.0 - a), 1e-300, 1.0 - 2.0**-53)
    return 1.0 + np.floor(np.log(rng.random()) / np.log1p(-p))


def _psi(family, theta, s):
    """Laplace transform of the frailty: u_i = psi(E_i / V)."""
    if family == "clayton":
        return (1.0 + s) ** (-1.0 / theta)
    if family == "gumbel":
        return np.exp(-s ** (1.0 / theta))
    if family == "frank":
        return -np.log1p(np.expm1(-theta) * np.exp(-s)) / theta
    return 1.0 - (-np.expm1(-s)) ** (1.0 / theta)


def copula_draw(rng, family, theta, dim=2):
    v = _frailty(rng, family, theta)
    e = rng.standard_exponential(dim)
    return np.clip(_psi(family, theta, e / v), EPS, 1.0 - EPS)


def ensemble_cases(rng, n, m=20, d=3):
    for _ in range(n):
        mean = rng.normal(0.0, 2.0, d)
        mix = rng.normal(0.0, 1.0, (d, d))
        points = mean + rng.standard_normal((m, d)) @ mix
        y = points[rng.integers(m)]
        yield {"forecast": {"type": "ensemble", "points": points.tolist()}, "y": y.tolist()}


def bivariate_cases(rng, n):
    for i in range(n):
        if i % 2 == 0:
            mean = rng.normal(0.0, 2.0, 2)
            sd = rng.uniform(0.5, 2.0, 2)
            r = rng.uniform(-0.8, 0.8)
            cov = [[sd[0] ** 2, r * sd[0] * sd[1]], [r * sd[0] * sd[1], sd[1] ** 2]]
            y = rng.multivariate_normal(mean, cov)
            fc = {"type": "mvgauss", "mean": mean.tolist(), "cov": cov}
        else:
            family = FAMILIES[(i // 2) % len(FAMILIES)]
            theta = float(rng.uniform(*THETA_RANGE[family]))
            mu = rng.normal(0.0, 2.0, 2)
            sigma = rng.uniform(0.5, 2.0, 2)
            y = mu + sigma * ndtri(copula_draw(rng, family, theta))
            fc = {"type": "copula_marginal",
                  "copula": {"family": family, "theta": theta, "dim": 2},
                  "margins": [{"dist": "normal", "mu": float(a), "sigma": float(b)}
                              for a, b in zip(mu, sigma)]}
        yield {"forecast": fc, "y": [float(c) for c in y]}


def _kind(forecast):
    if forecast["type"] == "copula_marginal":
        return f"copula_marginal/{forecast['copula']['family']}"
    return forecast["type"]


def write_archive(kind, seed, n, path):
    """Write an n-case archive; returns its metadata (seed and case mix)."""
    rng = _rng(seed, kind)
    cases = list(ensemble_cases(rng, n) if kind == "ensemble" else bivariate_cases(rng, n))
    mix = Counter(_kind(case["forecast"]) for case in cases)
    meta = {"generator": "bench/gen.py", "kind": kind, "seed": int(seed),
            "cases": int(n), "case_mix": dict(mix)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"metadata": meta}, sort_keys=True) + "\n")
        for case in cases:
            fh.write(json.dumps(case) + "\n")
    return meta


if __name__ == "__main__":
    if len(sys.argv) != 5 or sys.argv[1] not in ("ensemble", "bivariate"):
        sys.exit(__doc__.rsplit("Usage: ", 1)[1])
    print(json.dumps(write_archive(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4])))
