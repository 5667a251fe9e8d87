import json

import numpy as np
import pytest

from coppit import cli
from coppit.calibration import coppit, multivariate_rank
from coppit.cli import main
from coppit.forecasts import EnsembleForecast
from coppit.io import read_records
from coppit.kendall import select_kendall
from coppit.samplers import substream


@pytest.fixture()
def ensemble_archive(tmp_path):
    rng = np.random.default_rng(5)
    lines = []
    for _ in range(12):
        pts = rng.standard_normal((6, 2)).round(3).tolist()
        y = rng.standard_normal(2).round(3).tolist()
        lines.append(json.dumps({"forecast": {"type": "ensemble", "points": pts}, "y": y}))
    path = tmp_path / "cases.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def gaussian_archive(tmp_path):
    rng = np.random.default_rng(6)
    lines = []
    for _ in range(10):
        mean = rng.standard_normal(2).round(3).tolist()
        y = rng.standard_normal(2).round(3).tolist()
        fc = {"type": "mvgauss", "mean": mean, "cov": [[1.0, 0.4], [0.4, 1.0]]}
        lines.append(json.dumps({"forecast": fc, "y": y}))
    path = tmp_path / "gauss.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def mixed_archive(tmp_path):
    """Ensembles of 4 and 7 members interleaved with mvgauss and copula cases."""
    rng = np.random.default_rng(8)
    lines = []
    for i in range(24):
        kind = i % 4
        y = rng.standard_normal(2).round(2).tolist()
        if kind in (0, 2):
            pts = rng.standard_normal((4 if kind == 0 else 7, 2)).round(1).tolist()
            fc = {"type": "ensemble", "points": pts}
        elif kind == 1:
            fc = {"type": "mvgauss", "mean": [0.0, 0.1], "cov": [[1.0, 0.3], [0.3, 1.5]]}
        else:
            fc = {"type": "copula_marginal",
                  "copula": {"family": "clayton", "theta": 2.0, "dim": 2},
                  "margins": [{"dist": "normal", "mu": 0.0, "sigma": 1.0},
                              {"dist": "normal", "mu": 0.2, "sigma": 1.2}]}
        lines.append(json.dumps({"forecast": fc, "y": y}))
    path = tmp_path / "mixed.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def _snapshot(run_dir):
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.is_file()}


def test_coppit_outputs(ensemble_archive, tmp_path):
    out = tmp_path / "run"
    rc = main(["coppit", "--in", str(ensemble_archive), "--out", str(out),
               "--seed", "7", "--bins", "10"])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == \
        ["hist.csv", "hist.svg", "manifest.json", "records.csv"]
    recs = read_records(out / "records.csv")
    assert len(recs) == 12
    assert recs.rank is not None and np.all((recs.rank >= 1) & (recs.rank <= 7))
    assert np.all((recs.u >= 0.0) & (recs.u <= 1.0))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["flags"]["seed"] == 7
    assert manifest["command"] == "coppit"
    assert manifest["outputs"] == ["hist.csv", "hist.svg", "records.csv"]


def test_repeat_run_is_byte_identical(ensemble_archive, tmp_path):
    out = tmp_path / "run"
    argv = ["coppit", "--in", str(ensemble_archive), "--out", str(out), "--seed", "11"]
    assert main(argv) == 0
    first = _snapshot(out)
    assert main(argv) == 0
    second = _snapshot(out)
    assert set(first) == set(second)
    for name in first:
        if name == "manifest.json":
            a = {k: v for k, v in json.loads(first[name]).items() if k != "created"}
            b = {k: v for k, v in json.loads(second[name]).items() if k != "created"}
            assert a == b
        else:
            assert first[name] == second[name], name


def test_threads_do_not_change_output(gaussian_archive, ensemble_archive, mixed_archive,
                                      tmp_path):
    for archive in (gaussian_archive, ensemble_archive, mixed_archive):
        for cone in ([], ["--cone", "se"]):
            base = ["coppit", "--in", str(archive), "--seed", "3", "--kendall-n", "400", *cone]
            one = tmp_path / f"{archive.stem}{len(cone)}-1"
            four = tmp_path / f"{archive.stem}{len(cone)}-4"
            assert main(base + ["--out", str(one)]) == 0
            assert main(base + ["--out", str(four), "--threads", "4"]) == 0
            records = (one / "records.csv").read_bytes()
            assert records == (four / "records.csv").read_bytes()
            assert len(records.splitlines()) == 1 + len(archive.read_text().splitlines())


def test_stacked_blocks_do_not_change_output(mixed_archive, ensemble_archive, tmp_path,
                                             monkeypatch):
    runs = [["coppit", "--in", str(mixed_archive), "--kendall-n", "300", "--cone", "ne"],
            ["rank-hist", "--in", str(ensemble_archive)]]
    for budget in (None, 1, 200):  # one block per member count, one case, a few cases
        if budget is not None:
            monkeypatch.setattr(cli, "_STACK_COMPARISONS", budget)
        for k, argv in enumerate(runs):
            assert main(argv + ["--out", str(tmp_path / f"{budget}-{k}"), "--seed", "6"]) == 0
    for k, name in enumerate(["records.csv", "ranks.csv"]):
        want = (tmp_path / f"None-{k}" / name).read_bytes()
        assert (tmp_path / f"1-{k}" / name).read_bytes() == want
        assert (tmp_path / f"200-{k}" / name).read_bytes() == want


def test_mixed_archive_matches_case_by_case(mixed_archive, tmp_path):
    # the stacked ensemble cases must equal a run on each case alone, in archive order
    assert main(["coppit", "--in", str(mixed_archive), "--out", str(tmp_path / "all"),
                 "--seed", "4", "--kendall-n", "300"]) == 0
    recs = read_records(tmp_path / "all" / "records.csv")
    lines = mixed_archive.read_text().splitlines()
    for i, line in enumerate(lines):
        doc = json.loads(line)
        if doc["forecast"]["type"] != "ensemble":
            assert recs.rank[i] == 0
            continue
        fc = EnsembleForecast(doc["forecast"]["points"])
        kfn = select_kendall(fc, "pseudo")
        one = coppit(fc, kfn, doc["y"], recs.v[i])
        assert (recs.h[i], recs.k_left[i], recs.k_right[i], recs.u[i]) == \
            (one.h, one.k_left, one.k_right, one.u)
        assert recs.rank[i] == multivariate_rank(fc.points, doc["y"], substream(4, 2, i))


def test_seed_env_override(ensemble_archive, tmp_path, monkeypatch):
    base = ["coppit", "--in", str(ensemble_archive)]
    monkeypatch.setenv("COPPIT_SEED", "21")
    assert main(base + ["--out", str(tmp_path / "env")]) == 0
    monkeypatch.delenv("COPPIT_SEED")
    assert main(base + ["--out", str(tmp_path / "flag"), "--seed", "21"]) == 0
    assert (tmp_path / "env" / "records.csv").read_bytes() == \
           (tmp_path / "flag" / "records.csv").read_bytes()
    # explicit flag wins over the environment
    monkeypatch.setenv("COPPIT_SEED", "99")
    assert main(base + ["--out", str(tmp_path / "both"), "--seed", "21"]) == 0
    assert (tmp_path / "both" / "records.csv").read_bytes() == \
           (tmp_path / "flag" / "records.csv").read_bytes()
    monkeypatch.setenv("COPPIT_SEED", "not-a-number")
    assert main(base + ["--out", str(tmp_path / "bad")]) == 1


def test_pit_and_clical_and_rank_hist(gaussian_archive, ensemble_archive, tmp_path):
    rc = main(["pit", "--in", str(gaussian_archive), "--out", str(tmp_path / "p"),
               "--seed", "2", "--margin", "2"])
    assert rc == 0
    recs = read_records(tmp_path / "p" / "records.csv")
    assert np.array_equal(recs.k_left, recs.h)   # continuous margin
    assert np.array_equal(recs.k_right, recs.h)
    assert np.array_equal(recs.u, recs.h)

    rc = main(["clical", "--in", str(gaussian_archive), "--out", str(tmp_path / "c"),
               "--seed", "2", "--grid", "21", "--kendall-n", "300"])
    assert rc == 0
    lines = (tmp_path / "c" / "curve.csv").read_text().splitlines()
    assert lines[0] == "w,lhs,rhs" and len(lines) == 22

    rc = main(["rank-hist", "--in", str(ensemble_archive), "--out", str(tmp_path / "r"),
               "--seed", "2"])
    assert rc == 0
    ranks = (tmp_path / "r" / "ranks.csv").read_text().splitlines()
    assert ranks[0] == "case,rank" and len(ranks) == 13
    hist = (tmp_path / "r" / "hist.csv").read_text().splitlines()
    assert len(hist) == 9                                     # header + 7 bins + trailer


def test_cone_flag(ensemble_archive, tmp_path):
    rc = main(["coppit", "--in", str(ensemble_archive), "--out", str(tmp_path / "ne"),
               "--seed", "5", "--cone", "ne"])
    assert rc == 0
    assert main(["coppit", "--in", str(ensemble_archive), "--out", str(tmp_path / "x"),
                 "--cone", "upward"]) == 1


def test_usage_errors(ensemble_archive, tmp_path):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["coppit", "--nope"]) == 1
    assert main(["coppit", "--in", str(ensemble_archive)]) == 1          # missing --out
    assert main(["coppit", "--in", str(ensemble_archive), "--out", str(tmp_path / "o"),
                 "--seed", "abc"]) == 1
    assert main(["coppit", "--in", str(ensemble_archive), "--out", str(tmp_path / "o"),
                 "--bins", "0"]) == 1
    assert main(["simulate"]) == 1
    assert main(["simulate", "highdim", "--out", str(tmp_path / "o"),
                 "--variant", "wrong"]) == 1
    assert main(["--version"]) == 0
    assert main(["--help"]) == 0


def test_data_errors(tmp_path, gaussian_archive, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": [0, 0]}\n'
                   "{broken\n")
    assert main(["coppit", "--in", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "line 2" in capsys.readouterr().err

    assert main(["coppit", "--in", str(tmp_path / "missing.jsonl"),
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["rank-hist", "--in", str(gaussian_archive),
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["pit", "--in", str(gaussian_archive), "--out", str(tmp_path / "o"),
                 "--margin", "5"]) == 2
    garbage = tmp_path / "garbage.csv"
    garbage.write_text("what,is,this\n1,2,3\n")
    assert main(["render", "--in", str(garbage), "--out", str(tmp_path / "g.svg")]) == 2
    assert not (tmp_path / "g.svg").exists()

    capsys.readouterr()
    nested = tmp_path / "nested.jsonl"
    nested.write_text('{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": [0, 0]}\n'
                      '{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": [[0], [1]]}\n')
    assert main(["coppit", "--in", str(nested), "--out", str(tmp_path / "o")]) == 2
    assert "line 2" in capsys.readouterr().err

    ens = tmp_path / "ens.jsonl"
    ens.write_text('{"forecast": {"type": "ensemble", "points": [[0, 0], [1, 1]]}, "y": [0, 0]}\n')
    assert main(["coppit", "--in", str(ens), "--out", str(tmp_path / "o"),
                 "--kendall", "analytic"]) == 2
    assert "error: case 1: analytic Kendall functions require" in capsys.readouterr().err
    assert main(["clical", "--in", str(gaussian_archive), "--out", str(tmp_path / "o"),
                 "--kendall", "pseudo"]) == 2
    assert "error: case 1: pseudo-observation Kendall functions" in capsys.readouterr().err

    short = tmp_path / "short.csv"
    short.write_text("w,lhs,rhs\n0,0,0\n1,1\n")
    assert main(["render", "--in", str(short), "--out", str(tmp_path / "s.svg")]) == 2
    assert "line 3" in capsys.readouterr().err

    nonfinite = tmp_path / "nonfinite.csv"
    nonfinite.write_text("y1,y2,x1_1,x1_2\n1,2,3,4\n1,2,nan,4\n")
    assert main(["coppit", "--in", str(nonfinite), "--out", str(tmp_path / "o")]) == 2
    assert "line 3" in capsys.readouterr().err

    indep = tmp_path / "indep.jsonl"
    margin = {"dist": "normal", "mu": 0, "sigma": 1}
    indep.write_text(json.dumps({"forecast": {
        "type": "copula_marginal", "copula": {"family": "independence", "tau": 0.5, "dim": 2},
        "margins": [margin, margin]}, "y": [0, 0]}) + "\n")
    assert main(["coppit", "--in", str(indep), "--out", str(tmp_path / "o")]) == 2
    assert "line 1" in capsys.readouterr().err


def test_mvgauss_extreme_outcome(tmp_path):
    path = tmp_path / "far.jsonl"
    fc = {"type": "mvgauss", "mean": [0.0, 0.0], "cov": [[1.0, 0.3], [0.3, 1.0]]}
    path.write_text(json.dumps({"forecast": fc, "y": [1e155, 1e155]}) + "\n"
                    + json.dumps({"forecast": fc, "y": [-1e160, 0.5]}) + "\n")
    assert main(["coppit", "--in", str(path), "--out", str(tmp_path / "o"),
                 "--kendall-n", "200"]) == 0
    recs = read_records(tmp_path / "o" / "records.csv")
    assert np.array_equal(recs.h, [1.0, 0.0])
    assert np.array_equal(recs.u, [1.0, 0.0])


def test_render_roundtrip(ensemble_archive, tmp_path):
    out = tmp_path / "run"
    assert main(["coppit", "--in", str(ensemble_archive), "--out", str(out),
                 "--seed", "7"]) == 0
    svg = tmp_path / "again.svg"
    assert main(["render", "--in", str(out / "hist.csv"), "--out", str(svg)]) == 0
    assert svg.read_bytes() == (out / "hist.svg").read_bytes()


def test_simulate_bivariate_layout(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "bivariate", "--j", "40", "--seed", "3", "--out", str(out)])
    assert rc == 0
    labels = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert labels == ["FFF", "FFT", "FTF", "FTT", "TFF", "TFT", "TTF", "TTT"]
    for label in labels:
        files = sorted(p.name for p in (out / label).iterdir())
        assert files == ["curve.csv", "curve.svg", "hist.csv", "hist.svg", "records.csv"]
        assert len(read_records(out / label / "records.csv")) == 40


def test_simulate_highdim_and_demo(tmp_path):
    out = tmp_path / "hd"
    rc = main(["simulate", "highdim", "--variant", "true-frank", "--j", "15", "--d", "4",
               "--kendall-n", "300", "--seed", "3", "--out", str(out)])
    assert rc == 0
    recs = read_records(out / "records.csv")
    assert len(recs) == 15 and np.all((recs.rank >= 1) & (recs.rank <= 9))
    assert (out / "rank_hist.csv").exists()

    out2 = tmp_path / "demo"
    rc = main(["simulate", "demo-emos", "--variant", "independent", "--j", "15",
               "--kendall-n", "300", "--seed", "3", "--out", str(out2)])
    assert rc == 0
    assert not (out2 / "rank_hist.csv").exists()             # analytic variant: no ranks
    assert len(read_records(out2 / "records.csv")) == 15
