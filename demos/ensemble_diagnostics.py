"""Scoring raw ensembles: the copula PIT interval and the rank histogram
are two views of the same counts.

A bivariate Gaussian truth is forecast three ways: the exact predictive
law (correct), the same margins with the dependence dropped (independent),
and an 8-member underdispersed ensemble drawn around the predictive mean
(ensemble).  For the ensemble variant the Kendall function is the
empirical one built from the members' own pseudo-observations, so the
copula PIT lands in an interval [k_left, k_right] and the randomized value
is drawn inside it -- the same randomization that breaks rank ties.

The underdispersion shows up as a U-shaped copula PIT histogram and as
overpopulated extreme ranks.
"""

import argparse

import numpy as np

from coppit.calibration import histogram, rank_histogram
from coppit.simstudy import DEMO_VARIANTS, run_demo_emos


def _bar(count, scale):
    return "#" * max(int(round(count * scale)), 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--j", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=2)
    args = ap.parse_args()

    for variant in DEMO_VARIANTS:
        b = run_demo_emos(variant, j=args.j, seed=args.seed)
        hist = histogram(b.u, bins=10)
        print(f"\n{variant}: copula PIT chi2={hist.chi2:.1f} (df {hist.chi2_df}), "
              f"KS p={hist.ks_pvalue:.3f}")
        scale = 30.0 / hist.counts.max()
        for i, c in enumerate(hist.counts):
            print(f"  ({i / 10:.1f},{(i + 1) / 10:.1f}] {c:>5} {_bar(c, scale)}")
        if b.rank is not None:
            rh = rank_histogram(b.rank, b.m)
            print(f"  rank histogram (m={b.m}): chi2={rh.chi2:.1f} (df {rh.chi2_df})")
            scale = 30.0 / rh.counts.max()
            for r, c in enumerate(rh.counts, start=1):
                print(f"    rank {r:>2} {c:>5} {_bar(c, scale)}")
            # interval width reflects pseudo-observation ties among members
            width = np.mean(b.k_right - b.k_left)
            print(f"  mean copula PIT interval width: {width:.3f}")


if __name__ == "__main__":
    main()
