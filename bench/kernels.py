"""Fixed-size kernel timings, one fresh process.

Usage: python3 bench/kernels.py

Times the kernels under the CLI workloads at the sizes of the ROADMAP
layer table and prints one JSON object mapping each ``kernel.*`` metric to
the median of REPEATS timings.  Inputs are fixed, so every run times the
same work; random streams are built outside the timed call.
"""

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coppit import bvn, copulas, kendall, samplers  # noqa: E402

REPEATS = 7
N = 10_000
TAUS = np.linspace(0.1, 0.8, 20)
SUBSTREAM_CALLS = 200


def _median_s(fn, make_args=tuple):
    times = []
    for _ in range(REPEATS):
        args = make_args()
        t = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _rng():
    return (samplers.make_rng(0),)


def main():
    fixed = np.random.default_rng(0)
    h, k = fixed.standard_normal((2, N))
    u2 = fixed.uniform(0.01, 0.99, (N, 2))
    points = fixed.standard_normal((1000, 10))
    ms = {
        "kernel.bvn_cdf": _median_s(lambda: bvn.bvn_cdf(h, k, 0.5)),
        "kernel.copula_cdf.gumbel": _median_s(lambda: copulas.copula_cdf("gumbel", u2, 2.0)),
        "kernel.sibuya": _median_s(lambda r: samplers.sibuya(r, 0.5, N), _rng),
        "kernel.positive_stable": _median_s(lambda r: samplers.positive_stable(r, 0.5, N), _rng),
        "kernel.pseudo_observations": _median_s(lambda: kendall.pseudo_observations(points)),
    }
    for family, theta in (("frank", 5.0), ("gumbel", 2.0), ("joe", 2.0)):
        ms[f"kernel.kendall_sample.{family}"] = _median_s(
            lambda r: copulas.kendall_sample(family, r, theta=theta, dim=50, n=N), _rng)
    for family in ("frank", "joe"):
        ms[f"kernel.tau_to_theta.{family}"] = _median_s(
            lambda: copulas.tau_to_theta(family, TAUS)) / TAUS.size
    out = {name: 1e3 * value for name, value in ms.items()}
    out["kernel.substream"] = 1e6 * _median_s(
        lambda: [samplers.substream(0, 3, i) for i in range(SUBSTREAM_CALLS)]) / SUBSTREAM_CALLS
    print(json.dumps(out))


if __name__ == "__main__":
    main()
