"""The coppit benchmark: CLI workloads, an output gate, end-to-end and layer metrics.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --seed 1 --seconds 1 --trace 0 --golden

All four workloads, one after another:
    for w in ensemble-archive bivariate-archive highdim-study bivariate-study; do
        python3 bench/run.py --workload $w --seed 1 --seconds 25 --trace 0; done

The seed drives everything a run feeds the program: archive workloads
generate their inputs from it (gen.py), and every command gets it as
``--seed``.

Paths resolve against the checkout holding this file; scratch files go to
``.bench_work/`` there and are removed at exit, except the last Chrome trace
of each workload (``.bench_work/trace-NAME.json``).

One invocation is one fresh process (child.py, single-threaded BLAS) that
runs the workload's commands through ``coppit.cli.main``.  Invocations run
back to back -- a closed loop with one client -- until ``--seconds`` have
passed and at least MIN_INVOCATIONS have run; timings are reported as
medians over invocations.  Every invocation passes through the output gate
(see ``Gate``); ``failed`` counts the ones that did not, and ``correct`` is
false when any failed.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` repeats (untraced, traced, untraced ``--threads 2``)
invocations and reports the per-layer metrics: span-derived self times and
work counts (spans.py), ``tracing_overhead_s``, ``cli.threads2_speedup``
(time inside ``main()`` with one thread over two; the studies ignore
``--threads``, so it reads about 1 there) and the fixed-size ``kernel.*``
timings (kernels.py).

``--golden`` records the output digests of the first invocation into
spec.json; use it with the spec's golden seed after a deliberate output
change.  spec.json also holds each workload's commands, case mix and
rationale, the uniformity threshold and the layer predictions.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC_PATH = BENCH / "spec.json"
WORK_ROOT = ROOT / ".bench_work"

MIN_INVOCATIONS = 3
RUN_BUDGET_S = 170.0  # a run must end within 180 s
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Failure(Exception):
    """An invocation that failed the output gate."""


def digest(path):
    data = path.read_bytes()
    if path.name == "manifest.json":
        doc = json.loads(data)
        doc.pop("created", None)
        data = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def ks_pvalue(records_csv):
    from scipy import stats

    with open(records_csv, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        col = header.index("u")
        u = [float(line.split(",")[col]) for line in fh if line.strip()]
    return float(stats.kstest(u, "uniform").pvalue)


class Gate:
    """Output checks every invocation must pass.

    An invocation passes when every command exited 0, the output tree holds
    exactly the expected files, each manifest lists exactly the files beside
    it, every file (manifests without their ``created`` field) matches the
    golden digest for the golden seed or, for other seeds, the first
    invocation of this run byte for byte, and the u values of the
    calibrated parts pass a Kolmogorov-Smirnov uniformity test.
    """

    def __init__(self, spec, workload, seed, calibrated, recording):
        golden = spec["golden"].get(workload, {})
        self.expected = None if recording else set(golden)
        self.reference = golden if seed == spec["golden_seed"] and not recording else None
        self.calibrated = calibrated
        self.min_pvalue = spec["uniformity"]["min_pvalue"]
        self.pvalues = {}

    def check(self, work, child, compare_manifests=True):
        if child["returncode"] != 0 or any(c != 0 for c in child.get("codes", [1])):
            raise Failure(f"exit status {child['returncode']}, command codes {child.get('codes')}")
        files = {p.relative_to(work).as_posix() for p in (work / "out").rglob("*") if p.is_file()}
        expected = files if self.expected is None else self.expected
        if files != expected:
            raise Failure(f"missing {sorted(expected - files)}, unexpected {sorted(files - expected)}")
        for man in sorted(f for f in files if f.endswith("/manifest.json")):
            prefix = man[: -len("manifest.json")]
            beside = sorted(f[len(prefix):] for f in files
                            if f.startswith(prefix) and f != man)
            listed = json.loads((work / man).read_text(encoding="utf-8"))["outputs"]
            if listed != beside:
                raise Failure(f"{man} lists {listed}, expected {beside}")
        digests = {f: digest(work / f) for f in sorted(files)}
        if self.reference is None:
            self.reference = digests
            self.expected = set(digests)
        for f, value in digests.items():
            if (compare_manifests or not f.endswith("manifest.json")) and value != self.reference[f]:
                raise Failure(f"{f} differs from the reference output (sha256 {value})")
        for f in self.calibrated:
            key = digests[f]
            if key not in self.pvalues:
                self.pvalues[key] = ks_pvalue(work / f)
            if self.pvalues[key] < self.min_pvalue:
                raise Failure(f"{f}: u fails the uniformity test (KS p={self.pvalues[key]:.3g})")
        return digests


def invoke(work, commands, timeout, trace_file=None):
    """Run one child process; returns its result dict plus wall_s and returncode."""
    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "plan.json").write_text(json.dumps(commands), encoding="utf-8")
    result_file = work / "result.json"
    result_file.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "plan.json", "result.json"]
    env = dict(os.environ, **CHILD_ENV)
    with open(work / "child.log", "w", encoding="utf-8") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd + [repr(t0)] + ([trace_file] if trace_file else []),
                                cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            returncode = proc.wait()
        finally:
            killer.cancel()
        wall_s = time.monotonic() - t0
    out = {"returncode": returncode, "wall_s": wall_s}
    if returncode == 0 and result_file.exists():
        out.update(json.loads(result_file.read_text(encoding="utf-8")))
    else:
        tail = (work / "child.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"invocation failed (exit {returncode}):\n{tail}", file=sys.stderr)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Run:
    def __init__(self, args, spec):
        self.args = args
        self.start = time.monotonic()
        self.deadline = self.start + RUN_BUDGET_S
        self.work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.plan = spec["workloads"][args.workload]
        self.commands = [c + ["--seed", str(args.seed)] for c in self.plan["commands"]]
        self.cases = self.plan["cases_per_invocation"]
        self.gate = Gate(spec, args.workload, args.seed, self.plan["calibrated"], args.golden)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metadata = None

    def prepare(self):
        self.work.mkdir(parents=True)
        archive = self.plan.get("archive")
        if archive is not None:
            import gen

            kind = archive["kind"]
            self.metadata = gen.write_archive(kind, self.args.seed, archive["cases"],
                                              self.work / f"{kind}.jsonl")
        warm = invoke(self.work, [], self.deadline - time.monotonic())
        if warm["returncode"] != 0:
            raise SystemExit("the program does not import; nothing to measure")

    def once(self, commands=None, trace_file=None, compare_manifests=True):
        """One gated invocation; returns its result, or None when it failed."""
        self.attempted += 1
        res = invoke(self.work, commands or self.commands,
                     self.deadline - time.monotonic(), trace_file)
        try:
            res["digests"] = self.gate.check(self.work, res, compare_manifests)
        except Failure as exc:
            self.failed += 1
            print(f"gate: invocation {self.attempted} failed: {exc}", file=sys.stderr)
            return None
        return res

    def more(self, done, last_wall, minimum):
        now = time.monotonic()
        if now + 1.5 * last_wall > self.deadline:
            return False
        return done < minimum or now - self.loop_start < self.args.seconds

    def end_to_end(self):
        results = []
        self.loop_start = time.monotonic()
        last = 0.0
        while self.more(self.attempted, last, MIN_INVOCATIONS):
            res = self.once()
            if res is not None:
                results.append(res)
                last = res["wall_s"]
        if not results:
            return {}
        for i, cmd in enumerate(self.commands):
            q1, med, q3 = quartiles([r["main_s"][i] for r in results])
            print(f"main() of {' '.join(cmd[:-2])}: median {med:.6g} s (q1 {q1:.6g}, q3 {q3:.6g})")
        return {
            "setup_s": [r["setup_s"] for r in results],
            "wall_s": [r["wall_s"] for r in results],
            "cases_per_s": [self.cases / sum(r["main_s"]) for r in results],
            "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        }

    def per_layer(self):
        plain, traced, threaded = [], [], []
        trace_file = "trace.json"
        threads2 = [c + ["--threads", "2"] for c in self.commands]
        self.loop_start = time.monotonic()
        last = 0.0
        while self.more(len(traced), last, 1):
            a = self.once()
            b = self.once(trace_file=trace_file)
            c = self.once(threads2, compare_manifests=False)
            if a is None or b is None or c is None:
                break
            b["layers"] = spans.summarize(self.work / trace_file)
            plain.append(a)
            traced.append(b)
            threaded.append(c)
            last = a["wall_s"] + b["wall_s"] + c["wall_s"]
        if not traced:
            return {}
        shutil.copyfile(self.work / trace_file, WORK_ROOT / f"trace-{self.args.workload}.json")
        metrics = {name: [t["layers"][name] for t in traced] for name in spans.metric_names()}
        self.check_routes(metrics)
        wall = [r["wall_s"] for r in plain]
        metrics["tracing_overhead_s"] = [statistics.median(r["wall_s"] for r in traced)
                                         - statistics.median(wall)]
        metrics["cli.threads2_speedup"] = [statistics.median(sum(r["main_s"]) for r in plain)
                                           / statistics.median(sum(r["main_s"]) for r in threaded)]
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "kernels.py")], cwd=self.work,
                                  env=dict(os.environ, **CHILD_ENV), capture_output=True,
                                  text=True, timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            self.problems.append("kernel timings ran out of time")
            return {}
        if proc.returncode != 0:
            self.problems.append(f"kernel timings failed:\n{proc.stderr[-2000:]}")
            return {}
        kernels = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics.update({name: [value] for name, value in kernels.items()})
        return metrics

    def check_routes(self, metrics):
        """Every archive case must take the Kendall route its forecast type implies."""
        if self.metadata is None:
            return
        mix = self.metadata["case_mix"]
        want = {"pseudo": mix.get("ensemble", 0), "mc": mix.get("mvgauss", 0),
                "analytic": sum(n for k, n in mix.items() if k.startswith("copula_marginal/")),
                "uniform": 0}
        got = {r: sorted(set(metrics[f"kendall.route.{r}"])) for r in want}
        if any(got[r] != [want[r]] for r in want):
            self.problems.append(f"Kendall routes {got} do not match the case mix {want}")


def main():
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description="coppit benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", action="store_true",
                    help="record this run's output digests as the golden ones")
    args = ap.parse_args()
    if not (ROOT / "src" / "coppit" / "cli.py").is_file():
        sys.exit(f"no coppit sources under {ROOT / 'src'}; run from a full checkout")
    if args.seed < 0:
        sys.exit("--seed must be non-negative")
    if args.golden and args.seed != spec["golden_seed"]:
        sys.exit(f"--golden needs --seed {spec['golden_seed']}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    run = Run(args, spec)
    try:
        run.prepare()
        samples = run.per_layer() if args.trace else run.end_to_end()
        if args.golden and run.gate.reference is not None:
            spec["golden"][args.workload] = run.gate.reference
            SPEC_PATH.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    for problem in run.problems:
        print(f"gate: {problem}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in samples]
    if missing and run.failed == 0 and not run.problems:
        sys.exit(f"benchmark bug: no value for {missing}")
    metrics = {}
    for m in wanted:
        values = samples.get(m["name"])
        if values:
            q1, med, q3 = quartiles(values)
            metrics[m["name"]] = {"value": med, "unit": m["unit"]}
            print(f"{m['name']}: median {med:.6g} {m['unit']} "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    print(f"workload {args.workload}, seed {args.seed}: {run.attempted} invocations, "
          f"{run.failed} failed; failed_frac {run.failed / max(run.attempted, 1):.6g} "
          f"(share of invocations; closed loop, 1 client, {time.monotonic() - run.start:.1f} s)")
    correct = run.failed == 0 and not run.problems and not missing
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
