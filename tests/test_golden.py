"""Byte-level guard on CLI outputs: one SHA-256 digest per fixed-seed run.

A run's digest covers the relative path and the contents of every file the
run writes; ``manifest.json`` is digested without its ``created`` timestamp.
The runs are small, fixed-seed and path-independent (they execute inside the
temporary directory with relative paths), so a refactor that claims to keep
outputs byte-identical must leave every constant below unchanged.  A
deliberate output change re-records the constants (``pytest -k golden -s``
prints the digests of failing runs) and says so in CHANGES.md.

The constants were recorded with numpy 2.4 and scipy 1.17; other versions
may legitimately produce different bytes.
"""

import hashlib
import json

import numpy as np
import pytest

from coppit.cli import main


def _ensemble_lines(rng, n, m, d):
    lines = []
    for _ in range(n):
        pts = rng.standard_normal((m, d)).round(1).tolist()  # rounding forces ties
        y = rng.standard_normal(d).round(1).tolist()
        lines.append({"forecast": {"type": "ensemble", "points": pts}, "y": y})
    return lines


def _write_archives(root):
    rng = np.random.default_rng(2024)
    (root / "ensemble.jsonl").write_text(
        "".join(json.dumps(obj) + "\n" for obj in _ensemble_lines(rng, 40, 7, 2)))

    m, d = 6, 3
    header = [f"y{i}" for i in range(1, d + 1)] + [
        f"x{k}_{i}" for k in range(1, m + 1) for i in range(1, d + 1)]
    rows = [",".join(header)]
    for _ in range(30):
        rows.append(",".join(repr(float(x)) for x in rng.standard_normal(d + m * d).round(2)))
    (root / "ensemble.csv").write_text("\n".join(rows) + "\n")

    mixed = []
    families = [("gumbel", 1.8), ("clayton", 2.5), ("frank", 4.0), ("joe", 1.6)]
    for i in range(36):
        kind = i % 3
        if kind == 0:
            mixed += _ensemble_lines(rng, 1, 5, 2)
            continue
        mean = rng.standard_normal(2).round(3)
        y = (mean + rng.standard_normal(2)).round(3).tolist()
        if kind == 1:
            fc = {"type": "mvgauss", "mean": mean.tolist(), "cov": [[1.0, 0.5], [0.5, 2.0]]}
        else:
            family, theta = families[(i // 3) % 4]
            fc = {"type": "copula_marginal", "copula": {"family": family, "theta": theta,
                                                         "dim": 2},
                  "margins": [{"dist": "normal", "mu": float(mean[0]), "sigma": 1.0},
                              {"dist": "normal", "mu": float(mean[1]), "sigma": 1.5}]}
        mixed.append({"forecast": fc, "y": y})
    (root / "mixed.jsonl").write_text("".join(json.dumps(obj) + "\n" for obj in mixed))

    # one correlation per bvn branch: the 6-, 12- and 20-point rules, then
    # |rho| >= 0.925 on each side; under --cone se every correlation flips sign
    gauss = []
    for rho in (0.1, 0.5, 0.8, 0.95, -0.97):
        for sd in (0.8, 1.5):
            mean = rng.standard_normal(2).round(3)
            y = (mean + rng.standard_normal(2)).round(3).tolist()
            cov = [[1.0, rho * sd], [rho * sd, sd * sd]]
            gauss.append({"forecast": {"type": "mvgauss", "mean": mean.tolist(), "cov": cov},
                          "y": y})
    (root / "gauss.jsonl").write_text("".join(json.dumps(obj) + "\n" for obj in gauss))

    # Gumbel above d = 2: d = 3 sums the log-sum-exp terms in sequence, d = 9
    # pairwise; both reach the positive stable sampler through --kendall mc
    for d in (3, 9):
        cases = []
        for theta in (1.0, 1.3, 2.2, 4.0, 7.5, 15.0):
            mean = rng.standard_normal(d).round(3)
            y = (mean + rng.standard_normal(d)).round(3).tolist()
            fc = {"type": "copula_marginal",
                  "copula": {"family": "gumbel", "theta": theta, "dim": d},
                  "margins": [{"dist": "normal", "mu": float(mu), "sigma": 1.0} for mu in mean]}
            cases.append({"forecast": fc, "y": y})
        (root / f"gumbel{d}.jsonl").write_text("".join(json.dumps(obj) + "\n" for obj in cases))


def _digest(out):
    total = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            doc = json.loads(data)
            doc.pop("created")
            data = json.dumps(doc, sort_keys=True).encode()
        total.update(path.relative_to(out).as_posix().encode() + b"\0")
        total.update(hashlib.sha256(data).digest())
    return total.hexdigest()


HIGHDIM = ["--j", "20", "--d", "4", "--m", "5", "--kendall-n", "300", "--bins", "5"]
DEMO = ["--j", "120", "--m", "6", "--kendall-n", "2000", "--bins", "8"]

RUNS = {
    "coppit-ensemble": (
        [["coppit", "--in", "ensemble.jsonl", "--bins", "10"]],
        "3f922adbd079aada5946293550f65d7d9f523828dc5ac98b2182833d943c69a7"),
    "coppit-ensemble-mc": (
        [["coppit", "--in", "ensemble.jsonl", "--kendall", "mc", "--kendall-n", "200"]],
        "ec915fc161a20957d84a380d25e86f490746949562cc8aed12223e5ca17912c6"),
    "coppit-csv": (
        [["coppit", "--in", "ensemble.csv"]],
        "0fd5776ab7aa4f3b4301eacb9901a7d684d24efc77d6e4f03bfe2ea0e5dd5511"),
    "coppit-mixed": (
        [["coppit", "--in", "mixed.jsonl", "--kendall-n", "500"]],
        "d5e57e901e2f6b4118a4ab5ba3ee1a41d7b5aed9c764ef4c4b801526bbf7da2d"),
    "coppit-cone": (
        [["coppit", "--in", "mixed.jsonl", "--kendall-n", "500", "--cone", "se"]],
        "1c1b3d37bc261d46df8ce42555660be7007f5a53257eb5f96a9524d95255d2a1"),
    "coppit-gauss-branches": (
        [["coppit", "--in", "gauss.jsonl", "--kendall-n", "400"],
         ["coppit", "--in", "gauss.jsonl", "--kendall-n", "400", "--cone", "se"]],
        "8b582d6528dd8c609f16eb5265e57d7fcd887ca444f9a7fa284cba2b02288e70"),
    "pit": (
        [["pit", "--in", "mixed.jsonl", "--margin", "2", "--bins", "6"]],
        "4307fc2e427e39ad5e69e0c9c8376ec77c9b1f0abe0a9ba26d8c1272ef7c821d"),
    "rank-hist": (
        [["rank-hist", "--in", "ensemble.jsonl"]],
        "8a8b9b4c77fa0c1fc73f71d4473dc54c82ddea5898e9728646736397367769de"),
    "clical": (
        [["clical", "--in", "mixed.jsonl", "--kendall-n", "500", "--grid", "21"]],
        "67e860544471e491b76be87511ba6f80be7f05e8c7750b8d9ebb1966019f8342"),
    "clical-cone": (
        [["clical", "--in", "mixed.jsonl", "--kendall-n", "500", "--grid", "21", "--cone", "se"]],
        "db9f66ac212598f275d4289c42db70db127ad59fb94eb5f1c2bc393ddcb0b119"),
    "clical-threads": (
        [["clical", "--in", "mixed.jsonl", "--kendall-n", "500", "--grid", "21", "--threads", "3"]],
        "3f3440d9fb45e03aefbae8ae20da1d071b96a336984e9c9c8d65457d991216ac"),
    "coppit-gumbel-dims": (
        [["coppit", "--in", f"gumbel{d}.jsonl", "--kendall", "mc", "--kendall-n", "300"]
         for d in (3, 9)],
        "5fa056436a053d2301d5749dba179e7aaa0718ace643a8ea4fa83657a3d69df8"),
    "bivariate-directional": (
        [["simulate", "bivariate", "--directional", "--j", "12", "--directional-n", "300",
          "--bins", "5"]],
        "3e5f65cfad61aae5cfc7deaf5c1d801675bf25b4d8008ca52e9773bdd4b62fe0"),
    "highdim": (
        [["simulate", "highdim", "--variant", v, *HIGHDIM] for v in
         ("true-frank", "shrunk-frank", "joe-swap")],
        "19fe4b1998bbb92a6c01089314f70c13aebc3232d3ea589fe72c831080fd3ae2"),
    "demo-emos": (
        [["simulate", "demo-emos", "--variant", v, *DEMO] for v in
         ("correct", "independent", "ensemble")],
        "8ff096bd7ef94cc32565000232d09b46fc6cae9197c5a86d7c5dc956306976c7"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_digest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_archives(tmp_path)
    commands, expected = RUNS[name]
    for i, argv in enumerate(commands):
        assert main([*argv, "--out", f"out/{i}", "--seed", "5"]) == 0
    got = _digest(tmp_path / "out")
    print(f"{name}: {got}")
    assert got == expected
