"""The benchmark's layer tracing still sees what its gates count.

Runs ``bench/child.py`` with a trace file on a small mixed archive and reads
the trace back with ``bench/spans.py``.  A refactor that renames a traced
argument, or lets a case bypass ``select_kendall``, fails here rather than
only in a traced benchmark run.
"""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _spans():
    spec = importlib.util.spec_from_file_location("spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mixed_archive(path):
    """3 ensemble, 3 mvgauss and 3 copula_marginal cases of dimension 2."""
    margin = {"dist": "normal", "mu": 0.0, "sigma": 1.0}
    forecasts = (
        [{"type": "ensemble", "points": [[0.1 * k, -0.2 * k], [1.0, k], [-k, 0.5], [0.3, 0.3]]}
         for k in range(3)]
        + [{"type": "mvgauss", "mean": [0.0, 0.1 * k], "cov": [[1.0, 0.3], [0.3, 1.5]]}
           for k in range(3)]
        + [{"type": "copula_marginal", "copula": {"family": family, "theta": 2.0, "dim": 2},
            "margins": [margin, margin]} for family in ("clayton", "gumbel", "frank")])
    path.write_text("".join(json.dumps({"forecast": fc, "y": [0.2 * i - 0.8, 0.4 - 0.1 * i]}) + "\n"
                            for i, fc in enumerate(forecasts)))


def test_child_trace_counts_routes_and_rows(tmp_path):
    _mixed_archive(tmp_path / "mixed.jsonl")
    plan = [["coppit", "--in", "mixed.jsonl", "--out", "out", "--seed", "1",
             "--kendall-n", "200"]]
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "plan.json", "result.json",
         repr(time.monotonic()), "trace.json"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "result.json").read_text())["codes"] == [0]

    metrics = _spans().summarize(tmp_path / "trace.json")
    routes = {r: metrics[f"kendall.route.{r}"] for r in ("pseudo", "mc", "analytic", "uniform")}
    assert routes == {"pseudo": 3, "mc": 3, "analytic": 3, "uniform": 0}
    assert metrics["io.write_records.rows"] == 9
