"""Checking calibration direction by direction.

The plain copula PIT pushes the observation through the forecast's
lower-orthant CDF.  Replacing that CDF with the probability of any other
closed quadrant (SE, NE, NW) gives a directional variant: each quadrant
has its own H, its own Kendall function, and its own PIT histogram, and a
forecast can be fine in one direction while broken in another.

Here the truthful forecaster TTT stays uniform in all four quadrants,
while TTF (dependence announced too weak) is caught most loudly in the
mixed quadrants SE and NW: flipping one coordinate's orientation turns
the understated positive dependence into an overstatement, which the
directional PIT punishes far harder than the aligned SW/NE views do.
"""

import argparse

from coppit.calibration import histogram
from coppit.simstudy import QUADRANTS, run_bivariate

CHI2_999 = 43.8


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--j", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=40)
    ap.add_argument("--n", type=int, default=4000,
                    help="Monte Carlo size per case for quadrant Kendall functions")
    args = ap.parse_args()

    study = run_bivariate(j=args.j, seed=args.seed, labels=("TTT", "TTF"),
                          include_directional=True, directional_n=args.n)
    print(f"J={args.j}, seed={args.seed}; 20-bin chi2, threshold {CHI2_999}")
    header = f"{'label':<6}" + "".join(f" {q.upper():>10}" for q in QUADRANTS)
    print(header)
    for fb in study.forecasters:
        cells = []
        for q in QUADRANTS:
            chi2 = histogram(fb.directional[q].u, bins=20).chi2
            mark = "*" if chi2 > CHI2_999 else " "
            cells.append(f" {chi2:>9.1f}{mark}")
        print(f"{fb.label:<6}" + "".join(cells))
    print("\n* = above the rejection threshold")


if __name__ == "__main__":
    main()
