"""End-to-end acceptance checks.

Each test prints one ``[acceptance] ... PASS/FAIL`` line (visible with
``pytest -s``) and then asserts.  Statistical checks run at J=4000 with
pinned seeds; bit-exactness checks sweep randomized cases.
"""

import json
import time

import numpy as np
import pytest

from coppit.bvn import bvn_cdf
from coppit.calibration import coppit, coppit_interval, histogram, multivariate_rank, pit
from coppit.cli import main
from coppit.copulas import ArchimedeanCopula, kendall_cdf, tau_to_theta
from coppit.forecasts import CopulaMarginalForecast, EnsembleForecast, Normal
from coppit.kendall import monte_carlo_kendall, pseudo_kendall, uniform_kendall
from coppit.samplers import substream
from coppit.simstudy import (
    BIVARIATE_LABELS,
    bivariate_clical,
    run_bivariate,
    run_demo_emos,
    run_highdim,
)

CHI2_CRIT = 43.8  # 0.999 quantile of chi-square with 19 degrees of freedom


def _report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{name}: {detail}"


_CACHE = {}


def _ideal_studies():
    """Five J=4000 runs of the truth-announcing bivariate forecaster."""
    if "studies" not in _CACHE:
        t0 = time.perf_counter()
        _CACHE["studies"] = {s: run_bivariate(j=4000, seed=s, labels=("TTT",))
                             for s in (1, 2, 3, 4, 5)}
        _CACHE["elapsed"] = time.perf_counter() - t0
    return _CACHE["studies"], _CACHE["elapsed"]


def test_01_ideal_forecaster_coppit_uniform():
    studies, elapsed = _ideal_studies()
    pvals = {s: histogram(st.batch("TTT").u, bins=20).ks_pvalue for s, st in studies.items()}
    passing = sum(p >= 0.01 for p in pvals.values())
    ok = passing >= 4 and elapsed <= 120.0
    detail = (f"KS p-values {[f'{p:.3f}' for p in pvals.values()]}, {passing}/5 >= 0.01, "
              f"runtime {elapsed:.1f}s <= 120s")
    _report("criterion 1 (ideal forecaster, uniform CopPIT)", ok, detail)


def test_02_ideal_forecaster_clical_gap():
    studies, _ = _ideal_studies()
    gaps = {s: bivariate_clical(st, "TTT").max_abs_gap for s, st in studies.items()}
    ok = all(g <= 0.05 for g in gaps.values())
    detail = f"max |lhs-rhs| on 101-point grid: {[f'{g:.4f}' for g in gaps.values()]}, all <= 0.05"
    _report("criterion 2 (ideal forecaster, calibration curve)", ok, detail)


def test_03_deficient_forecasters_detected():
    study = run_bivariate(j=4000, seed=40)
    hists = {label: histogram(study.batch(label).u, bins=20) for label in BIVARIATE_LABELS}

    chi2 = {label: hists[label].chi2 for label in BIVARIATE_LABELS if label != "TTT"}
    all_flagged = all(c > CHI2_CRIT for c in chi2.values())

    c = hists["FTT"].counts
    first, last = c[0] + c[1], c[18] + c[19]
    skew = max(first, last) / max(min(first, last), 1)
    skew_ok = skew >= 1.5

    ushape = {}
    for label in ("TFT", "TFF"):
        cc = hists[label].counts
        mid = cc[1:19].mean()
        ushape[label] = (cc[0] / mid, cc[19] / mid)
    ushape_ok = all(lo >= 1.3 and hi >= 1.3 for lo, hi in ushape.values())

    ok = all_flagged and skew_ok and ushape_ok
    detail = (f"min chi2 over F-labels {min(chi2.values()):.1f} > {CHI2_CRIT}; "
              f"FTT decile ratio {skew:.2f} >= 1.5; "
              f"underdispersed end/middle ratios "
              f"{ {k: (f'{a:.2f}', f'{b:.2f}') for k, (a, b) in ushape.items()} } >= 1.3")
    _report("criterion 3 (deficiency detection)", ok, detail)


def test_04_highdim_coppit_beats_rank_histogram():
    t0 = time.perf_counter()
    batches = {v: run_highdim(v, j=4000, seed=7) for v in
               ("true-frank", "shrunk-frank", "joe-swap")}
    elapsed = time.perf_counter() - t0

    ratios = {}
    for variant in ("shrunk-frank", "joe-swap"):
        b = batches[variant]
        coppit_hist = histogram(b.u, bins=20)
        rank_counts = np.bincount(b.rank, minlength=b.m + 2)[1:]
        expected = len(b) / (b.m + 1)
        rank_chi2 = ((rank_counts - expected) ** 2 / expected).sum()
        ratios[variant] = (coppit_hist.chi2 / coppit_hist.chi2_df) / (rank_chi2 / b.m)
    true_p = histogram(batches["true-frank"].u, bins=20).ks_pvalue

    ok = all(r > 5.0 for r in ratios.values()) and true_p >= 0.01 and elapsed <= 900.0
    detail = (f"per-df chi2 ratios {{'shrunk-frank': {ratios['shrunk-frank']:.1f}, "
              f"'joe-swap': {ratios['joe-swap']:.1f}}} > 5; "
              f"true-frank KS p {true_p:.3f} >= 0.01; runtime {elapsed:.0f}s <= 900s")
    _report("criterion 4 (d=50 discrimination)", ok, detail)


def test_05_interval_equals_pseudo_kendall_bit_exact():
    rng = substream(424242, 0)
    bad = 0
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 21))
        pts = rng.standard_normal((m, d))
        if rng.random() < 0.5:
            pts = np.round(pts * 2.0) / 2.0     # force coordinate ties
        if m > 1 and rng.random() < 0.3:
            pts[int(rng.integers(0, m))] = pts[int(rng.integers(0, m))]
        y = pts[int(rng.integers(0, m))].copy() if rng.random() < 0.3 \
            else rng.standard_normal(d)
        if rng.random() < 0.5:
            y = np.round(y * 2.0) / 2.0
        fc = EnsembleForecast(pts)
        kf = pseudo_kendall(pts)
        h = fc.cdf(y)
        lo, hi = coppit_interval(pts, y)
        if lo != kf.eval_left(h) or hi != kf.eval(h):
            bad += 1
    _report("criterion 5 (rank identity, bit-exact)", bad == 0,
            f"{1000 - bad}/1000 randomized ensembles match (m in [1,20], d in 1..3)")


def test_06_monte_carlo_kendall_matches_closed_form():
    grid = np.linspace(0.0, 1.0, 1001)
    sups = {}
    for fi, family in enumerate(("gumbel", "frank", "joe", "clayton")):
        for ti, tau in enumerate((0.2, 0.5, 0.8)):
            theta = tau_to_theta(family, tau)
            cop = ArchimedeanCopula(family, theta=theta)
            fc = CopulaMarginalForecast(cop, [Normal(0.0, 1.0), Normal(0.0, 1.0)])
            kf = monte_carlo_kendall(fc, substream(2026, fi, ti), n=100_000)
            sups[(family, tau)] = float(np.max(np.abs(kf.eval(grid) -
                                                      kendall_cdf(family, grid, theta))))
    worst = max(sups.values())
    _report("criterion 6 (Monte Carlo Kendall oracle)", worst <= 0.01,
            f"worst sup-distance over 12 family/tau cases: {worst:.4f} <= 0.01")


def test_07_monotone_and_permutation_invariance():
    rng = substream(515151, 0)
    bad = 0
    for case in range(500):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(2, 16))
        # lattice coordinates: multiples of 1/8, so scale-by-2^k and integer
        # shift are exact and strictly increasing
        pts = rng.integers(-40, 41, size=(m, d)) / 8.0
        y = rng.integers(-40, 41, size=d) / 8.0
        scales = 2.0 ** rng.integers(-2, 4, size=d)
        shifts = rng.integers(-3, 4, size=d).astype(float)
        perm = rng.permutation(d)
        v = float(rng.random())

        fc = EnsembleForecast(pts)
        rec = coppit(fc, pseudo_kendall(pts), y, v)
        rank = multivariate_rank(pts, y, substream(999, 7, case))

        pts2 = (pts * scales + shifts)[:, perm]
        y2 = (y * scales + shifts)[perm]
        rec2 = coppit(EnsembleForecast(pts2), pseudo_kendall(pts2), y2, v)
        rank2 = multivariate_rank(pts2, y2, substream(999, 7, case))

        if ((rec.h, rec.k_left, rec.k_right, rec.u) !=
                (rec2.h, rec2.k_left, rec2.k_right, rec2.u)) or rank != rank2:
            bad += 1
    _report("criterion 7 (monotone/permutation invariance)", bad == 0,
            f"{500 - bad}/500 cases bit-identical in h, k_left, k_right, u, rank")


def test_08_univariate_reduction_to_pit():
    rng = substream(616161, 0)
    worst = 0.0
    for _ in range(100):
        mu = 3.0 * float(rng.standard_normal())
        sigma = 0.2 + 2.0 * float(rng.random())
        fc = Normal(mu, sigma)
        y = mu + 2.5 * sigma * float(rng.standard_normal())
        v = float(rng.random())
        rec = coppit(fc, uniform_kendall(), y, v)
        worst = max(worst, abs(rec.u - pit(fc, y, v)))
    _report("criterion 8 (d=1 reduction)", worst <= 1e-12,
            f"max |coppit - pit| over 100 continuous cases: {worst:.2e} <= 1e-12")


def test_09_bivariate_normal_orthant_values():
    rho = np.linspace(-0.9, 0.9, 19)
    exact = 0.25 + np.arcsin(rho) / (2.0 * np.pi)
    got = np.array([bvn_cdf(0.0, 0.0, r) for r in rho])
    worst = float(np.max(np.abs(got - exact)))
    _report("criterion 9 (bivariate normal CDF)", worst <= 1e-7,
            f"max |cdf(0,0;rho) - closed form| over 19 rho: {worst:.2e} <= 1e-7")


def test_10_cli_byte_determinism(tmp_path):
    rng = np.random.default_rng(77)
    lines = []
    for _ in range(20):
        pts = rng.standard_normal((8, 2)).round(4).tolist()
        y = rng.standard_normal(2).round(4).tolist()
        lines.append(json.dumps({"forecast": {"type": "ensemble", "points": pts}, "y": y}))
    archive = tmp_path / "cases.jsonl"
    archive.write_text("\n".join(lines) + "\n")

    def snapshot(run_dir):
        out = {}
        for p in sorted(run_dir.rglob("*")):
            if p.is_file():
                rel = str(p.relative_to(run_dir))
                if p.name == "manifest.json":
                    doc = json.loads(p.read_text())
                    doc.pop("created")
                    out[rel] = json.dumps(doc, sort_keys=True)
                else:
                    out[rel] = p.read_bytes()
        return out

    diffs = []
    for label, argv in [
        ("coppit", ["coppit", "--in", str(archive), "--out", str(tmp_path / "r1"),
                    "--seed", "13"]),
        ("simulate bivariate", ["simulate", "bivariate", "--j", "50", "--seed", "13",
                                "--out", str(tmp_path / "r2")]),
        ("simulate highdim", ["simulate", "highdim", "--variant", "joe-swap", "--j", "15",
                              "--d", "4", "--kendall-n", "300", "--seed", "13",
                              "--out", str(tmp_path / "r3")]),
    ]:
        out_dir = tmp_path / argv[argv.index("--out") + 1].rsplit("/", 1)[-1]
        assert main(argv) == 0
        first = snapshot(out_dir)
        assert main(argv) == 0
        second = snapshot(out_dir)
        if not first or first != second:
            diffs.append(label)
    _report("criterion 10 (CLI determinism)", not diffs,
            f"3 command repeats byte-identical apart from manifest timestamp; diffs={diffs}")


def test_11_gaussian_demo_contrast():
    indep = run_demo_emos("independent", j=4000, seed=2)
    correct = run_demo_emos("correct", j=4000, seed=2)
    chi2 = histogram(indep.u, bins=20).chi2
    ks_p = histogram(correct.u, bins=20).ks_pvalue
    ok = chi2 > CHI2_CRIT and ks_p >= 0.01
    _report("substitute scenario (Gaussian demo)", ok,
            f"zero-correlation chi2 {chi2:.1f} > {CHI2_CRIT}; correct-variant KS p {ks_p:.3f} >= 0.01")
