import numpy as np
import pytest
from scipy.special import ndtr

from coppit import simstudy as ss
from coppit.calibration import histogram, rank_histogram
from coppit.copulas import tau_to_theta
from coppit.forecasts import CopulaMarginalForecast


def test_bivariate_truth_moments():
    study = ss.run_bivariate(j=4000, seed=101, labels=("TTT",))
    assert abs(study.y[:, 0].mean() - (2 - 2 / 7)) <= 0.05
    # E var(Y2) = E[1/B2] = (5+2-1)/(5-1) for Beta(5,2)
    assert abs(study.y[:, 1].var() - 1.5) <= 0.075
    assert np.all((study.b1 > 0) & (study.b1 < 1))
    assert np.all((study.tau > 0) & (study.tau < 1))


def test_ideal_forecaster_announces_truth():
    study = ss.run_bivariate(j=500, seed=5, labels=("TTT",))
    fb = study.batch("TTT")
    assert np.array_equal(fb.mu1, 2.0 - study.b1)
    assert np.array_equal(fb.sd2, np.sqrt(1.0 / study.b2))
    assert np.array_equal(fb.theta, tau_to_theta("gumbel", study.tau))
    fc = fb.forecast(3)
    assert isinstance(fc, CopulaMarginalForecast)
    assert fc.cdf(study.y[3]) == pytest.approx(fb.h[3], rel=1e-12)


def test_false_labels_distort_parameters():
    study = ss.run_bivariate(j=50, seed=5)
    ttt, fff = study.batch("TTT"), study.batch("FFF")
    assert np.array_equal(fff.mu1, 0.8 * ttt.mu1)
    assert np.allclose(fff.sd2**2, 0.8 * ttt.sd2**2, rtol=1e-14)
    assert np.array_equal(fff.theta, tau_to_theta("gumbel", 0.6 * study.tau))
    tft = study.batch("TFT")
    assert np.array_equal(tft.mu1, ttt.mu1)
    assert np.array_equal(tft.theta, ttt.theta)


def test_bivariate_records_consistent():
    study = ss.run_bivariate(j=300, seed=8, labels=("TTF",))
    fb = study.batch("TTF")
    assert np.array_equal(fb.k_left, fb.k_right)  # continuous forecasts
    assert np.array_equal(fb.u, fb.k_left)
    assert np.array_equal(fb.pit1, ndtr(study.y[:, 0] - fb.mu1))
    assert np.array_equal(fb.pit2, ndtr(study.y[:, 1] / fb.sd2))
    for arr in (fb.h, fb.u, fb.v):
        assert np.all((arr >= 0) & (arr <= 1))


def test_bivariate_determinism_and_seed_sensitivity():
    a = ss.run_bivariate(j=200, seed=13)
    b = ss.run_bivariate(j=200, seed=13)
    c = ss.run_bivariate(j=200, seed=14)
    assert ss.batch_digest(a) == ss.batch_digest(b)
    assert ss.batch_digest(a) != ss.batch_digest(c)


def test_bivariate_label_subset_matches_full_run():
    full = ss.run_bivariate(j=150, seed=21)
    solo = ss.run_bivariate(j=150, seed=21, labels=("FTF",))
    assert ss.batch_digest(solo.batch("FTF")) == ss.batch_digest(full.batch("FTF"))
    assert np.array_equal(solo.y, full.y)


def test_bivariate_ideal_uniform_and_deficient_not():
    study = ss.run_bivariate(j=2000, seed=3, labels=("TTT", "FFF"))
    good = histogram(study.batch("TTT").u, 20)
    bad = histogram(study.batch("FFF").u, 20)
    assert good.ks_pvalue > 0.001
    assert bad.chi2 > good.chi2
    assert bad.chi2 > 43.8


def test_bivariate_clical_gap_orders_forecasters():
    study = ss.run_bivariate(j=2000, seed=3, labels=("TTT", "FFF"))
    good = ss.bivariate_clical(study, "TTT")
    bad = ss.bivariate_clical(study, "FFF")
    assert good.max_abs_gap <= 0.05
    assert bad.max_abs_gap > good.max_abs_gap
    assert good.grid.size == 101


def test_bivariate_directional_records():
    study = ss.run_bivariate(j=150, seed=31, labels=("TTT",),
                             include_directional=True, directional_n=2000)
    fb = study.batch("TTT")
    assert set(fb.directional) == set(ss.QUADRANTS)
    sw, ne = fb.directional["sw"], fb.directional["ne"]
    assert np.array_equal(sw.h, fb.h)  # lower-left orthant is the plain CDF
    expect_ne = np.clip(1.0 - fb.pit1 - fb.pit2 + fb.h, 0.0, 1.0)
    assert np.allclose(ne.h, expect_ne, atol=1e-12)
    for q in ss.QUADRANTS:
        rec = fb.directional[q]
        assert np.all(rec.k_left <= rec.k_right)
        for key in ("h", "k_left", "k_right", "u"):
            assert np.all((getattr(rec, key) >= 0) & (getattr(rec, key) <= 1))
    again = ss.run_bivariate(j=150, seed=31, labels=("TTT",),
                             include_directional=True, directional_n=2000)
    assert ss.batch_digest(again.batch("TTT")) == ss.batch_digest(fb)


def test_highdim_shapes_and_shared_truth():
    a = ss.run_highdim("true-frank", j=120, seed=41, d=10, m=8, kendall_n=1500)
    b = ss.run_highdim("joe-swap", j=120, seed=41, d=10, m=8, kendall_n=1500)
    assert np.array_equal(a.theta_true, b.theta_true)
    assert a.family == "frank" and b.family == "joe"
    assert np.array_equal(a.theta_hat, a.theta_true)
    assert a.rank.shape == (120,)
    assert np.all((a.rank >= 1) & (a.rank <= 9))
    for arr in (a.h, a.u, a.k_left, a.k_right):
        assert np.all((arr >= 0) & (arr <= 1))
    assert np.all(a.k_left <= a.k_right)
    assert ss.batch_digest(a) == ss.batch_digest(
        ss.run_highdim("true-frank", j=120, seed=41, d=10, m=8, kendall_n=1500))


def test_highdim_shrunk_uses_attenuated_tau():
    a = ss.run_highdim("true-frank", j=40, seed=42, d=5, kendall_n=200)
    s = ss.run_highdim("shrunk-frank", j=40, seed=42, d=5, kendall_n=200)
    tau = (ss.run_bivariate(j=40, seed=42, labels=("TTT",)).tau)  # same latent stream layout
    assert np.array_equal(s.theta_hat, tau_to_theta("frank", 0.8 * tau))
    assert np.all(s.theta_hat < a.theta_hat)


def test_highdim_discrimination_smoke():
    good = ss.run_highdim("true-frank", j=600, seed=7, kendall_n=3000)
    swap = ss.run_highdim("joe-swap", j=600, seed=7, kendall_n=3000)
    g, s = histogram(good.u, 20), histogram(swap.u, 20)
    assert g.ks_pvalue > 0.001
    assert s.chi2 > 5 * g.chi2
    ranks = rank_histogram(swap.rank, swap.m)
    assert (s.chi2 / s.chi2_df) > 3 * (ranks.chi2 / ranks.chi2_df)


def test_demo_variants():
    correct = ss.run_demo_emos("correct", j=1500, seed=2)
    indep = ss.run_demo_emos("independent", j=1500, seed=2)
    ens = ss.run_demo_emos("ensemble", j=1500, seed=2, m=8)
    assert histogram(correct.u, 20).ks_pvalue > 0.001
    assert histogram(indep.u, 20).chi2 > 43.8
    assert correct.rank is None and indep.rank is None
    assert np.all((ens.rank >= 1) & (ens.rank <= 9))
    res = histogram(ens.u, 20)
    mid = res.counts[1:19].mean()
    assert res.counts[0] > 1.3 * mid  # underdispersed: U-shape
    assert np.array_equal(correct.h, ss.run_demo_emos("correct", j=1500, seed=2).h)


def test_demo_truth_forecast():
    fc = ss.demo_truth_forecast([1.0, -2.0])
    assert np.allclose(fc.mean, [1.0, -2.0])
    assert fc.cov[0, 1] == 0.6


def test_scenario_validation():
    with pytest.raises(ValueError):
        ss.run_bivariate(j=0)
    with pytest.raises(ValueError):
        ss.run_bivariate(labels=("TTT", "XYZ"))
    with pytest.raises(ValueError):
        ss.run_bivariate(labels=())
    with pytest.raises(ValueError):
        ss.run_bivariate(j=10, include_directional=True, directional_n=0)
    with pytest.raises(ValueError):
        ss.run_highdim("nope")
    with pytest.raises(ValueError):
        ss.run_highdim("true-frank", d=1)
    with pytest.raises(ValueError):
        ss.run_demo_emos("wrong")
    with pytest.raises(ValueError):
        ss.run_demo_emos("ensemble", m=0)
