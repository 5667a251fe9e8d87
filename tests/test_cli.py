import argparse
import ast
import collections
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coppit import cli, kendall, simstudy
from coppit.calibration import coppit, multivariate_rank
from coppit.cli import main
from coppit.forecasts import EnsembleForecast
from coppit.io import CaseArchive, read_records, write_archive
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
    """Workers write their cases' record fields and grid rows; switching
    threads often would show a lost or reordered update."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for archive in (gaussian_archive, ensemble_archive, mixed_archive):
            cases = len(archive.read_text().splitlines())
            runs = (("coppit", "records.csv", cases, []),
                    ("clical", "curve.csv", 21, ["--grid", "21"]))
            for cone in ([], ["--cone", "se"]):
                for command, name, rows, extra in runs:
                    base = [command, "--in", str(archive), "--seed", "3", "--kendall-n", "400",
                            *extra, *cone]
                    one = tmp_path / f"{command}-{archive.stem}{len(cone)}-1"
                    four = tmp_path / f"{command}-{archive.stem}{len(cone)}-4"
                    assert main(base + ["--out", str(one)]) == 0
                    assert main(base + ["--out", str(four), "--threads", "4"]) == 0
                    written = (one / name).read_bytes()
                    assert written == (four / name).read_bytes()
                    assert len(written.splitlines()) == 1 + rows
    finally:
        sys.setswitchinterval(interval)


def test_no_kendall_function_outlives_its_case(gaussian_archive, ensemble_archive, tmp_path,
                                              monkeypatch):
    """Each case drops its Kendall function once it is scored, so none is
    alive while coppit writes its records or clical its curve."""
    def live():
        gc.collect()
        return sum(isinstance(o, (kendall.KendallFn, kendall._Empirical)) for o in gc.get_objects())

    def counted(write):
        def wrapper(*args, **kwargs):
            seen.append(live())
            return write(*args, **kwargs)
        return wrapper

    seen = []
    before = live()
    monkeypatch.setattr(cli, "write_records", counted(cli.write_records))
    monkeypatch.setattr(cli, "write_curve", counted(cli.write_curve))
    for archive in (gaussian_archive, ensemble_archive):  # Monte Carlo and pseudo routes
        for command in ("coppit", "clical"):
            out = tmp_path / f"{command}-{archive.stem}"
            argv = [command, "--in", str(archive), "--out", str(out), "--kendall-n", "200"]
            assert main(argv) == 0
    assert seen == [before] * 4


def test_stacked_blocks_do_not_change_output(mixed_archive, ensemble_archive, tmp_path,
                                             monkeypatch):
    runs = [["coppit", "--in", str(mixed_archive), "--kendall-n", "300", "--cone", "ne"],
            ["rank-hist", "--in", str(ensemble_archive)],
            ["clical", "--in", str(mixed_archive), "--kendall-n", "300", "--grid", "21"],
            ["pit", "--in", str(mixed_archive), "--margin", "2"]]
    # every pass draws all of its tie-breaks in one substream_integers call
    calls = []

    def counted(name):
        real = getattr(cli, name)
        return lambda *a, **kw: calls.append(name) or real(*a, **kw)

    for name in ("_stacked", "substream_integers"):
        monkeypatch.setattr(cli, name, counted(name))
    for budget in (None, 1, 200):  # one block per member count, one case, a few cases
        if budget is not None:
            monkeypatch.setattr(cli, "_STACK_COMPARISONS", budget)
        for k, argv in enumerate(runs):
            calls.clear()
            assert main(argv + ["--out", str(tmp_path / f"{budget}-{k}"), "--seed", "6"]) == 0
            assert calls == ["_stacked", "substream_integers"], (budget, argv[0], calls)
    for k, name in enumerate(["records.csv", "ranks.csv", "curve.csv", "records.csv"]):
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
        kfn = select_kendall(fc)
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


def _subcommands():
    """(argv words, parser) of each runnable subcommand."""
    def walk(parser, words):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield words, parser
        for action in subs:
            for name, sp in action.choices.items():
                yield from walk(sp, [*words, name])
    return list(walk(cli.build_parser(), []))


def _required(parser, path):
    """The required flags of ``parser``, each with ``path`` or its first choice."""
    argv = []
    for a in parser._actions:
        if a.required and a.option_strings:
            argv += [a.option_strings[0], a.choices[0] if a.choices else str(path)]
    return argv


def test_every_option_has_help(capsys):
    commands = _subcommands()
    assert sorted(" ".join(w) for w, _ in commands) == [
        "clical", "coppit", "pit", "rank-hist", "render",
        "simulate bivariate", "simulate demo-emos", "simulate highdim"]
    for words, parser in commands:
        bare = [a.option_strings for a in parser._actions if a.option_strings and not a.help]
        assert not bare, (words, bare)
        assert main([*words, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: coppit {' '.join(words)} ")


def test_each_flag_is_defined_once():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    flags = collections.Counter(
        node.args[0].value for node in ast.walk(tree)
        if isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("add_argument", "add")
        and str(node.args[0].value).startswith("--"))
    # render's --in and --out name a result file and an SVG, not an archive and a directory
    assert flags.pop("--in") == 2 and flags.pop("--out") == 2
    assert flags and set(flags.values()) == {1}, flags


# every integer flag: the library name and minimum _check_int applies to it
INTEGER_FLAGS = {"--bins": ("bins", 1), "--margin": ("margin", 1), "--grid": ("grid", 1),
                 "--j": ("j", 1), "--d": ("d", 2), "--m": ("m", 1),
                 "--kendall-n": ("kendall_n", 1), "--directional-n": ("directional_n", 1),
                 "--threads": ("threads", 1), "--seed": ("seed", 0)}


@pytest.mark.parametrize("flag", sorted(INTEGER_FLAGS))
def test_integer_flags_are_usage_errors(flag, tmp_path, capsys):
    what, minimum = INTEGER_FLAGS[flag]
    commands = [(w, p) for w, p in _subcommands() if flag in p._option_string_actions]
    assert commands
    for words, parser in commands:
        for text, shown in ((str(minimum - 1), minimum - 1), ("2.5", "'2.5'"), ("x", "'x'")):
            argv = [*words, *_required(parser, tmp_path / "missing"), flag, text]
            assert main(argv) == 1, argv
            assert capsys.readouterr().err == (f"error: coppit {' '.join(words)}: argument {flag}: "
                                               f"{what} must be an integer >= {minimum}, got {shown}\n")
    assert not (tmp_path / "missing").exists()


def test_integer_flag_table_is_complete():
    ints = {flag for _, parser in _subcommands() for flag, action in
            parser._option_string_actions.items()
            if type(action.default) is int or action.dest == "seed"}
    assert ints == set(INTEGER_FLAGS)


def test_highdim_dimension_one_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "hd"
    assert main(["simulate", "highdim", "--variant", "true-frank", "--d", "1",
                 "--out", str(out)]) == 1
    assert "argument --d: d must be an integer >= 2, got 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, shown", [("-1", -1), ("2.5", "'2.5'"), ("x", "'x'")])
def test_seed_environment_is_checked_like_the_flag(text, shown, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COPPIT_SEED", text)
    out = tmp_path / "o"
    assert main(["coppit", "--in", str(tmp_path / "missing.jsonl"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: COPPIT_SEED: seed must be an integer >= 0, got {shown}\n"
    assert not out.exists()


def test_cone_is_parsed_before_any_file_is_read(tmp_path, capsys):
    for command in ("coppit", "rank-hist", "clical"):
        assert main([command, "--in", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "o"),
                     "--cone", "upward"]) == 1
        assert capsys.readouterr().err == \
            f"error: coppit {command}: argument --cone: cannot parse cone direction 'upward'\n"
    assert not (tmp_path / "o").exists()


def test_empty_path_is_a_usage_error(ensemble_archive, tmp_path, capsys, monkeypatch):
    """An empty --in or --out would name the current directory; every
    subcommand refuses it before any file is read or written."""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    checked = []
    for words, parser in _subcommands():
        for flag in ("--in", "--out"):
            if flag not in parser._option_string_actions:  # the studies read no archive
                continue
            for given in (tmp_path / "missing", ensemble_archive):
                argv = [*words, *_required(parser, given), flag, ""]
                assert main(argv) == 1, argv
                assert capsys.readouterr().err == \
                    f"error: coppit {' '.join(words)}: argument {flag}: path must not be empty\n"
            checked.append(f"{' '.join(words)} {flag}")
    assert len(checked) == 13
    assert not list(cwd.iterdir()) and not (tmp_path / "missing").exists()


def test_each_manifest_lists_exactly_its_files(ensemble_archive, mixed_archive, tmp_path):
    study = ["--kendall-n", "100", "--j", "20"]
    runs = {
        "coppit": ["coppit", "--in", str(mixed_archive), "--kendall-n", "100"],
        "pit": ["pit", "--in", str(mixed_archive), "--margin", "2"],
        "rank-hist": ["rank-hist", "--in", str(ensemble_archive)],
        "clical": ["clical", "--in", str(mixed_archive), "--kendall-n", "100", "--grid", "11"],
        "bivariate": ["simulate", "bivariate", "--j", "20", "--directional",
                      "--directional-n", "50"],
        "highdim": ["simulate", "highdim", "--variant", "joe-swap", "--d", "3", *study],
        "demo-correct": ["simulate", "demo-emos", "--variant", "correct", *study],
        "demo-ensemble": ["simulate", "demo-emos", "--variant", "ensemble", *study],
    }
    listed = {}
    for name, argv in runs.items():
        out = tmp_path / name
        assert main([*argv, "--seed", "2", "--out", str(out)]) == 0, name
        files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
        listed[name] = json.loads((out / "manifest.json").read_text())["outputs"]
        assert listed[name] == [f for f in files if f != "manifest.json"], name
    assert "TTT/records_sw.csv" in listed["bivariate"] and "rank_hist.svg" in listed["demo-ensemble"]


def test_data_errors(tmp_path, gaussian_archive, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": [0, 0]}\n'
                   "{broken\n")
    assert main(["coppit", "--in", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "line 2" in capsys.readouterr().err
    # a byte that is not UTF-8 is reported at its line too
    bad.write_bytes(b'{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": [0, 0]}\n'
                    b"\xff\n")
    assert main(["coppit", "--in", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: line 2: not UTF-8 text\n"

    assert main(["coppit", "--in", str(tmp_path / "missing.jsonl"),
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["rank-hist", "--in", str(gaussian_archive),
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["pit", "--in", str(gaussian_archive), "--out", str(tmp_path / "o"),
                 "--margin", "5"]) == 2

    capsys.readouterr()
    nested = tmp_path / "nested.jsonl"
    nested.write_text('{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": [0, 0]}\n'
                      '{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": [[0], [1]]}\n')
    assert main(["coppit", "--in", str(nested), "--out", str(tmp_path / "o")]) == 2
    assert "line 2" in capsys.readouterr().err

    # 21 '+' axes are past the inclusion-exclusion limit of the Monte Carlo route
    wide = tmp_path / "wide.jsonl"
    margin = {"dist": "normal", "mu": 0, "sigma": 1}
    wide.write_text(json.dumps({"forecast": {
        "type": "copula_marginal", "copula": {"family": "clayton", "theta": 1.0, "dim": 21},
        "margins": [margin] * 21}, "y": [0] * 21}) + "\n")
    for command in ("coppit", "clical"):
        assert main([command, "--in", str(wide), "--out", str(tmp_path / "o"),
                     "--cone", "+" * 21, "--kendall-n", "50"]) == 2
        assert "error: case 1: inclusion-exclusion" in capsys.readouterr().err
    for strategy in ("analytic", "pseudo"):
        assert main(["coppit", "--in", str(gaussian_archive), "--out", str(tmp_path / "o"),
                     "--kendall", strategy]) == 1

    flat = tmp_path / "flat.jsonl"
    flat.write_text('{"forecast": {"type": "ensemble", "points": [[], []]}, "y": []}\n')
    quoted = tmp_path / "quoted.jsonl"
    quoted.write_text('{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": [0, 0]}\n'
                      '{"forecast": {"type": "mvgauss", "mean": [0, 0], '
                      '"cov": [["1", 0.2], [0.2, true]]}, "y": [0, 0]}\n')
    for path, line in ((flat, "line 1"), (quoted, "line 2")):
        for command in ("coppit", "clical", "rank-hist"):
            assert main([command, "--in", str(path), "--out", str(tmp_path / "o")]) == 2
            assert f"error: {line}: bad forecast descriptor" in capsys.readouterr().err

    # JSON integers past the float range, and past Python's 4300-digit limit
    big = str(10**400)
    margin = '{"dist": "normal", "mu": 0, "sigma": 1}'
    for forecast, y in [
            ('{"type": "ensemble", "points": [[0, 0]]}', f"[0, {big}]"),
            ('{"type": "ensemble", "points": [[0, %s]]}' % big, "[0, 0]"),
            ('{"type": "mvgauss", "mean": [0, 0], "cov": [[%s, 0], [0, 1]]}' % big, "[0, 0]"),
            ('{"type": "copula_marginal", "copula": {"family": "clayton", "theta": %s, "dim": 2}, '
             '"margins": [%s, %s]}' % (big, margin, margin.replace("1}", big + "}")), "[0, 0]"),
            ('{"type": "ensemble", "points": [[0, 0]]}', "[0, 1%s]" % ("0" * 5000))]:
        huge = tmp_path / "huge.jsonl"
        huge.write_text('{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": [0, 0]}\n'
                        '{"forecast": %s, "y": %s}\n' % (forecast, y))
        for command in ("coppit", "clical"):
            assert main([command, "--in", str(huge), "--out", str(tmp_path / "o")]) == 2
            assert "error: line 2: " in capsys.readouterr().err

    # malformed shapes name their field, not a Python or numpy internal
    for forecast, message in [
            ('{"type": "mvgauss", "mean": [0, 0], "cov": [[1, 2], [3]]}',
             "mvgauss 'cov' must be evenly nested lists"),
            ('{"type": "copula_marginal", "copula": {"family": "clayton", "theta": [2.0, 3.0], '
             '"dim": 2}, "margins": [%s, %s]}' % (margin, margin),
             "copula 'theta' must be one number, got a list"),
            ('{"type": "copula_marginal", "copula": {"family": "clayton", "theta": 2.0, "dim": 2}, '
             '"margins": 5}', "copula_marginal 'margins' must be a list, got int")]:
        shaped = tmp_path / "shaped.jsonl"
        shaped.write_text('{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": [0, 0]}\n'
                          '{"forecast": %s, "y": [0, 0]}\n' % forecast)
        for command in ("coppit", "clical"):
            assert main([command, "--in", str(shaped), "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == f"error: line 2: bad forecast descriptor: {message}\n"

    capsys.readouterr()
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


def test_coppit_and_clical_take_no_pseudo_pass(ensemble_archive, tmp_path, monkeypatch):
    """coppit and clical take their ensemble records and Kendall functions
    from the stacked counts, so neither counts a case's own
    pseudo-observations.  Both write what eager Kendall functions give."""
    real = kendall.pseudo_observations

    def eager_kendall(pts):
        w = real(pts)
        return kendall._Empirical("pseudo", w.size, lambda: w)

    def outputs(command, cone, out):
        argv = [command, "--in", str(ensemble_archive), "--out", str(out), "--seed", "4", *cone]
        assert main(argv) == 0
        return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}

    for command in ("coppit", "clical"):
        for cone in ([], ["--cone", "se"]):
            with monkeypatch.context() as mp:
                mp.setattr(kendall, "pseudo_kendall", eager_kendall)
                eager = outputs(command, cone, tmp_path / "eager")
            calls = []
            with monkeypatch.context() as mp:
                mp.setattr(kendall, "pseudo_observations", lambda pts: calls.append(1) or real(pts))
                lazy = outputs(command, cone, tmp_path / "lazy")
            assert not calls, (command, cone)
            assert lazy == eager


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
    assert main(["clical", "--in", str(ensemble_archive), "--out", str(out),
                 "--seed", "7", "--grid", "21"]) == 0
    for stem in ("hist", "curve"):
        svg = tmp_path / f"{stem}-again.svg"
        assert main(["render", "--in", str(out / f"{stem}.csv"), "--out", str(svg)]) == 0
        assert svg.read_bytes() == (out / f"{stem}.svg").read_bytes()


def test_commands_leave_scipy_stats_unimported(ensemble_archive, tmp_path):
    """``scipy.stats`` is most of the import time, and no command needs it:
    only ``HistogramResult.ks_pvalue`` imports it, and nothing writes that."""
    script = (
        "import sys\n"
        "import coppit.cli\n"
        "assert 'scipy.stats' not in sys.modules, 'import'\n"
        "out, archive = sys.argv[1], sys.argv[2]\n"
        "for argv in (['coppit', '--in', archive, '--out', out + '/c', '--seed', '3'],\n"
        "             ['simulate', 'bivariate', '--j', '50', '--seed', '3', '--out', out + '/s'],\n"
        "             ['render', '--in', out + '/c/hist.csv', '--out', out + '/h.svg']):\n"
        "    assert coppit.cli.main(argv) == 0, argv\n"
        "    assert 'scipy.stats' not in sys.modules, argv\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path), str(ensemble_archive)],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_commands_leave_scipy_optimize_linalg_sparse_unimported(ensemble_archive, tmp_path):
    """The tau solve is the package's own, so no command loads
    ``scipy.optimize`` or the ``scipy.linalg`` and ``scipy.sparse`` it
    pulls in; joe-swap solves tau -> theta for both Frank and Joe."""
    script = (
        "import sys\n"
        "import coppit.cli\n"
        "heavy = ('scipy.optimize', 'scipy.linalg', 'scipy.sparse')\n"
        "assert not [m for m in heavy if m in sys.modules], 'import'\n"
        "out, archive = sys.argv[1], sys.argv[2]\n"
        "for argv in (['coppit', '--in', archive, '--out', out + '/c', '--seed', '3'],\n"
        "             ['simulate', 'bivariate', '--j', '50', '--seed', '3', '--out', out + '/s'],\n"
        "             ['simulate', 'highdim', '--variant', 'joe-swap', '--j', '20', '--d', '3',\n"
        "              '--m', '10', '--kendall-n', '50', '--seed', '3', '--out', out + '/h']):\n"
        "    assert coppit.cli.main(argv) == 0, argv\n"
        "    assert not [m for m in heavy if m in sys.modules], argv\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path), str(ensemble_archive)],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


HIST_TRAILER = "# chi2=1,df=1,ks=\n"


@pytest.mark.parametrize("text, message", [
    ("what,is,this\n1,2,3\n", "line 1: unrecognized result file"),
    ("w,lhs,rhs\n0,0,0\n1,1\n", "line 3: malformed curve row"),
    ('{"counts": [1, 2], "edges": [0.0, 0.5], "n": 3}\n', "line 1: unrecognized result file"),
    ('{"w": [0, 1], "lhs": [0, 1], "rhs": [0, 1]}\n', "line 1: unrecognized result file"),
    ("bin_lo,bin_hi,count\n0,0.5,-3\n0.5,1,2\n" + HIST_TRAILER, "line 2: negative"),
    ("bin_lo,bin_hi,count\n0,0.2,3\n0.7,1,2\n" + HIST_TRAILER, "line 3: bins"),
    ("bin_lo,bin_hi,count\n" + HIST_TRAILER, "line 1: histogram has no bins"),
    ("w,lhs,rhs\n", "line 1: curve has no rows"),
    ("w,lhs,rhs\n0,0,0\n0.5,nan,0.5\n1,1,1\n", "line 3: curve values"),
    ("bin_lo,bin_hi,count\n0,0.5,3\n0.5,1,2\n" + HIST_TRAILER,
     "line 4: histogram trailer's chi2 and df disagree"),
], ids=["garbage", "short-row", "json-histogram", "json-curve", "negative-count", "bin-gap",
        "no-bins", "no-rows", "nan-curve", "tampered-trailer"])
def test_render_rejects_bad_files(tmp_path, capsys, text, message):
    src, svg = tmp_path / "result.csv", tmp_path / "out.svg"
    src.write_text(text)
    assert main(["render", "--in", str(src), "--out", str(svg)]) == 2
    assert message in capsys.readouterr().err
    assert not svg.exists()


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


def test_simulate_bivariate_matches_archive(tmp_path):
    """The study's closed-form outputs are those of its cases read from an
    archive: coppit gives each forecaster's records and histogram, clical its
    curve, byte for byte under the same seed."""
    j, seed = 200, "7"
    study = tmp_path / "study"
    assert main(["simulate", "bivariate", "--j", str(j), "--seed", seed, "--out", str(study)]) == 0
    run = simstudy.run_bivariate(j=j, seed=int(seed))
    assert len(run.forecasters) == 8
    for fb in run.forecasters:
        path = tmp_path / f"{fb.label}.jsonl"
        cases = tuple((fb.forecast(i), run.y[i]) for i in range(j))
        write_archive(CaseArchive(dim=2, cases=cases, metadata={}), path)
        out = tmp_path / fb.label
        for command, files in (("coppit", ("records.csv", "hist.csv", "hist.svg")),
                               ("clical", ("curve.csv", "curve.svg"))):
            assert main([command, "--in", str(path), "--out", str(out), "--seed", seed]) == 0
            for name in files:
                assert (out / name).read_bytes() == (study / fb.label / name).read_bytes(), \
                    (fb.label, name)


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
