"""Command-line frontend: analyze case archives, run packaged simulation
studies, and render result files to SVG.

Every run writes its outputs plus a ``manifest.json`` (seed, resolved flags,
tool version) into the output directory, so a run can be reproduced from the
manifest alone.  With a fixed seed all outputs are byte-identical across
runs; the manifest's ``created`` timestamp is the single exception.

Exit codes: 0 success, 1 usage error, 2 malformed input or validation error.
The seed defaults to the documented package constant, can be set with
``--seed``, or with the ``COPPIT_SEED`` environment variable when the flag
is absent.
"""

import argparse
import functools
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, simstudy
from .calibration import (
    Records,
    _tie_ranks,
    clical_curve,
    coppit,
    ensemble_counts,
    histogram,
    rank_histogram,
)
from .forecasts import EnsembleForecast, Normal, cone_signs, margin_forecast
from .io import (
    ArchiveError,
    read_archive,
    read_result,
    render_svg,
    write_curve,
    write_histogram,
    write_manifest,
    write_ranks,
    write_records,
)
from .kendall import DEFAULT_MC_SIZE, select_kendall
from .samplers import DEFAULT_SEED, substream, substream_integers

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    """Bad flags or malformed invocation (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _positive(kind):
    def convert(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < 1:
            raise argparse.ArgumentTypeError(f"expected a positive {kind}, got {value}")
        return value
    return convert


def _seed_value(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def build_parser():
    p = _Parser(prog="coppit",
                description="Calibration checks for multivariate probabilistic forecasts.")
    p.add_argument("--version", action="version", version=f"coppit {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add_io(sp):
        sp.add_argument("--in", dest="inp", required=True, metavar="FILE",
                        help="case archive (JSON lines, or CSV ensemble shorthand)")
        sp.add_argument("--out", required=True, metavar="DIR", help="output directory")

    def add_common(sp):
        sp.add_argument("--seed", type=_seed_value, default=None,
                        help="master seed (default: COPPIT_SEED or the package constant)")
        sp.add_argument("--threads", type=_positive("thread count"), default=1,
                        help="worker threads for per-case computation")

    sp = sub.add_parser("coppit", help="copula PIT records and histogram for an archive")
    sp.set_defaults(func=_cmd_coppit)
    add_io(sp)
    add_common(sp)
    sp.add_argument("--bins", type=_positive("bin count"), default=20)
    sp.add_argument("--kendall", choices=("auto", "mc"), default="auto",
                    help="Kendall function: auto takes the route the forecast fixes, "
                         "mc estimates every case by Monte Carlo")
    sp.add_argument("--kendall-n", type=_positive("sample size"), default=DEFAULT_MC_SIZE,
                    help="Monte Carlo sample size for the mc strategy")
    sp.add_argument("--cone", default=None, metavar="SPEC",
                    help="orthant direction: sw/se/ne/nw or a +- string, one sign per coordinate")

    sp = sub.add_parser("pit", help="randomized PIT of one margin for an archive")
    sp.set_defaults(func=_cmd_pit)
    add_io(sp)
    add_common(sp)
    sp.add_argument("--bins", type=_positive("bin count"), default=20)
    sp.add_argument("--margin", type=_positive("margin index"), default=1,
                    help="1-based coordinate whose margin is checked")

    sp = sub.add_parser("rank-hist", help="multivariate rank histogram for an ensemble archive")
    sp.set_defaults(func=_cmd_rank_hist)
    add_io(sp)
    add_common(sp)
    sp.add_argument("--cone", default=None, metavar="SPEC")

    sp = sub.add_parser("clical", help="climatological copula-calibration curve for an archive")
    sp.set_defaults(func=_cmd_clical)
    add_io(sp)
    add_common(sp)
    sp.add_argument("--grid", type=_positive("grid size"), default=101,
                    help="number of evaluation points on [0, 1]")
    sp.add_argument("--kendall", choices=("auto", "mc"), default="auto")
    sp.add_argument("--kendall-n", type=_positive("sample size"), default=DEFAULT_MC_SIZE)
    sp.add_argument("--cone", default=None, metavar="SPEC")

    sim = sub.add_parser("simulate", help="run a packaged simulation study")
    study = sim.add_subparsers(dest="study", required=True, metavar="STUDY")

    sp = study.add_parser("bivariate", help="eight-forecaster bivariate study")
    sp.set_defaults(func=_cmd_simulate_bivariate)
    sp.add_argument("--out", required=True, metavar="DIR")
    add_common(sp)
    sp.add_argument("--j", type=_positive("case count"), default=4000)
    sp.add_argument("--bins", type=_positive("bin count"), default=20)
    sp.add_argument("--directional", action="store_true",
                    help="also write per-quadrant orthant records")
    sp.add_argument("--directional-n", type=_positive("sample size"), default=DEFAULT_MC_SIZE,
                    help="Monte Carlo size per case for directional Kendall functions")

    sp = study.add_parser("highdim", help="high-dimensional rank vs copula PIT contrast")
    sp.set_defaults(func=functools.partial(_cmd_simulate_batch, simstudy.run_highdim))
    sp.add_argument("--out", required=True, metavar="DIR")
    add_common(sp)
    sp.add_argument("--variant", required=True, choices=simstudy.HIGHDIM_VARIANTS)
    sp.add_argument("--j", type=_positive("case count"), default=4000)
    sp.add_argument("--d", type=_positive("dimension"), default=50)
    sp.add_argument("--m", type=_positive("ensemble size"), default=8)
    sp.add_argument("--kendall-n", type=_positive("sample size"), default=10_000)
    sp.add_argument("--bins", type=_positive("bin count"), default=20)

    sp = study.add_parser("demo-emos", help="bivariate Gaussian forecasting demo")
    sp.set_defaults(func=functools.partial(_cmd_simulate_batch, simstudy.run_demo_emos))
    sp.add_argument("--out", required=True, metavar="DIR")
    add_common(sp)
    sp.add_argument("--variant", required=True, choices=simstudy.DEMO_VARIANTS)
    sp.add_argument("--j", type=_positive("case count"), default=4000)
    sp.add_argument("--m", type=_positive("ensemble size"), default=8)
    sp.add_argument("--kendall-n", type=_positive("sample size"), default=100_000)
    sp.add_argument("--bins", type=_positive("bin count"), default=20)

    sp = sub.add_parser("render", help="render a result file (histogram or curve CSV) to SVG")
    sp.set_defaults(func=_cmd_render)
    sp.add_argument("--in", dest="inp", required=True, metavar="FILE")
    sp.add_argument("--out", required=True, metavar="FILE.svg")

    return p


def _resolve_seed(args):
    if not hasattr(args, "seed"):  # render draws nothing
        return None
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get("COPPIT_SEED")
    if env is not None:
        try:
            return _seed_value(env)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"COPPIT_SEED: {exc}")
    return DEFAULT_SEED


def _check_cone_syntax(spec):
    try:
        cone_signs(spec)
    except ValueError as exc:
        raise UsageError(f"--cone: {exc}")


def _flags(args, seed):
    skip = {"command", "study", "inp", "out", "seed", "func"}
    out = {"seed": seed, "in": getattr(args, "inp", None), "out": args.out}
    for key, value in sorted(vars(args).items()):
        if key not in skip:
            out[key.replace("_", "-")] = value
    return out


def _finish(args, seed, out_dir, outputs, argv, n_cases):
    command = args.command if args.command != "simulate" else f"simulate {args.study}"
    write_manifest(out_dir, {
        "tool": "coppit",
        "version": __version__,
        "command": command,
        "argv": list(argv),
        "flags": _flags(args, seed),
        "outputs": sorted(outputs),
    })
    print(f"coppit {command}: {n_cases} cases -> {out_dir}", file=sys.stderr)


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _map_cases(work, indices, threads):
    """[work(i) for i in indices] on ``threads`` workers; a failure names its 1-based case."""
    def numbered(i):
        try:
            return work(i)
        except ValueError as exc:
            raise ValueError(f"case {i + 1}: {exc}") from exc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(numbered, indices))
    return [numbered(i) for i in indices]


_STACK_COMPARISONS = 500_000  # coordinate comparisons per stacked block


def _ensemble_groups(cases, indices, signs):
    """(m, case indices, ``EnsembleCounts``) for the given ensemble cases,
    stacked per member count m in blocks of ~_STACK_COMPARISONS coordinate
    comparisons, which keeps memory near that of one case at a time."""
    groups = {}
    for i in indices:
        groups.setdefault(cases[i][0].m, []).append(i)
    for m, idx in groups.items():
        size = max(1, _STACK_COMPARISONS // ((m + 1) * m * cases[idx[0]][0].dim))
        for lo in range(0, len(idx), size):
            block = idx[lo:lo + size]
            pts = np.stack([cases[i][0].points for i in block])
            ys = np.stack([cases[i][1] for i in block])
            yield m, np.array(block), ensemble_counts(pts, ys, signs)


def _stacked(cases, seed, signs, grid=None, k_grid=None):
    """Columns rank, h, h_left, k_left, k_right of the ensemble cases from one
    stacked pass per member count; case i breaks its pre-rank ties with
    substream (2, i), every case's drawn in one call after the pass.  rank
    is None without ensembles, else 0 on every other case.  h_left is
    below / m, which is H(y-) of a one-dimensional ensemble.

    Given a ``grid`` and an (n, grid size) array ``k_grid``, it also writes
    each ensemble case's Kendall function K(g) = #{k : w_k <= g} / m into its
    row, one grid column at a time, from the members' counts m w_k.
    """
    n = len(cases)
    ens = [i for i, (fc, _) in enumerate(cases) if isinstance(fc, EnsembleForecast)]
    rank = np.zeros(n, dtype=int) if ens else None
    below, tied = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    h, h_left, k_left, k_right = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    for m, idx, c in _ensemble_groups(cases, ens, signs):
        below[idx], tied[idx] = c.below, c.tied
        h[idx], h_left[idx] = c.h / m, c.below / m
        k_left[idx], k_right[idx] = c.k_left / m, c.k_right / m
        if k_grid is not None:
            w = c.members / m  # the pseudo-observations, as pseudo_observations divides them
            for j, g in enumerate(grid.tolist()):
                k_grid[idx, j] = (w <= g).sum(axis=1) / m
    if ens:
        rank[ens] = _tie_ranks(below[ens], substream_integers(seed, (2,), ens, tied[ens] + 1))
    return rank, h, h_left, k_left, k_right


def _analyze(archive, seed, strategy, kendall_n, signs, threads, grid=None):
    """Copula PIT records per case (substreams: 1=v, 2=ties, 3=Monte Carlo);
    given a ``grid``, also the case mean of the Kendall functions on it.

    Under the auto strategy the stacked pass finishes the ensemble cases:
    their records and Kendall rows come from its counts.  Every other case
    (mvgauss and copula cases, and all cases under mc) builds its Kendall
    function, uses it and drops it, on ``threads`` workers.
    """
    cases = archive.cases
    n = len(cases)
    v = substream(seed, 1).random(n)
    k_grid = None if grid is None else np.empty((n, grid.size))
    auto = strategy == "auto"
    rank, h, _, k_left, k_right = _stacked(cases, seed, signs, grid, k_grid if auto else None)
    done = rank > 0 if rank is not None and auto else np.zeros(n, dtype=bool)
    # the finished cases' Kendall functions are never used; this call per case
    # only records its route, which traced runs count against the case mix
    for i in np.flatnonzero(done).tolist():
        select_kendall(cases[i][0], strategy=strategy, signs=signs)

    def work(i):
        fc, y = cases[i]
        kfn = select_kendall(fc, strategy=strategy, rng=substream(seed, 3, i), n=kendall_n,
                             signs=signs)
        rec = coppit(fc, kfn, y, float(v[i]), signs=signs)
        h[i], k_left[i], k_right[i] = rec.h, rec.k_left, rec.k_right
        if grid is not None:
            k_grid[i] = kfn.eval(grid)

    _map_cases(work, np.flatnonzero(~done).tolist(), threads)
    recs = Records(h, k_left, k_right, v, rank=rank)
    if grid is None:
        return recs
    mean_k = np.zeros_like(grid)
    for row in k_grid:  # one at a time in case order; .mean sums a one-point grid pairwise
        mean_k += row
    return recs, mean_k / n


def _write_hist(values, bins, out, stem, outputs, ranks_m=None):
    if ranks_m is None:
        hist = histogram(values, bins=bins)
    else:
        hist = rank_histogram(values, ranks_m)
    write_histogram(hist, out / f"{stem}.csv")
    render_svg(hist, out / f"{stem}.svg")
    outputs += [f"{stem}.csv", f"{stem}.svg"]


def _write_pit(recs, bins, out, outputs, suffix="", ranks_m=None):
    """records{suffix}.csv, the u histogram hist{suffix}, and with ranks_m the rank histogram."""
    write_records(recs, out / f"records{suffix}.csv")
    outputs.append(f"records{suffix}.csv")
    _write_hist(recs.u, bins, out, f"hist{suffix}", outputs)
    if ranks_m is not None:
        _write_hist(recs.rank, None, out, "rank_hist", outputs, ranks_m=ranks_m)


def _cmd_coppit(args, seed, argv):
    archive = read_archive(args.inp)
    signs = None if args.cone is None else cone_signs(args.cone, dim=archive.dim)
    recs = _analyze(archive, seed, args.kendall, args.kendall_n, signs, args.threads)
    out = _out_dir(args)
    outputs = []
    _write_pit(recs, args.bins, out, outputs)
    _finish(args, seed, out, outputs, argv, len(recs))
    return 0


def _cmd_pit(args, seed, argv):
    archive = read_archive(args.inp)
    if args.margin > archive.dim:
        raise ValueError(f"--margin {args.margin} exceeds archive dimension {archive.dim}")
    k = args.margin - 1
    cases = [(margin_forecast(fc, k), y[k:k + 1]) for fc, y in archive.cases]
    v = substream(seed, 1).random(len(cases))
    rank, hi, lo = _stacked(cases, seed, None)[:3]  # F(y) and F(y-) of the ensemble margins
    for i, (mfc, yk) in enumerate(cases):
        if isinstance(mfc, Normal):
            lo[i], hi[i] = mfc.cdf_left(yk[0]), mfc.cdf(yk[0])
    recs = Records(hi, lo, hi, v, rank=rank)
    out = _out_dir(args)
    outputs = []
    _write_pit(recs, args.bins, out, outputs)
    _finish(args, seed, out, outputs, argv, len(recs))
    return 0


def _cmd_rank_hist(args, seed, argv):
    archive = read_archive(args.inp)
    signs = None if args.cone is None else cone_signs(args.cone, dim=archive.dim)
    sizes = set()
    for i, (fc, _) in enumerate(archive.cases):
        if not isinstance(fc, EnsembleForecast):
            raise ValueError(f"case {i + 1}: rank histograms need ensemble forecasts")
        sizes.add(fc.m)
    if len(sizes) != 1:
        raise ValueError(f"rank histograms need one common ensemble size, found {sorted(sizes)}")
    ranks = _stacked(archive.cases, seed, signs)[0]
    out = _out_dir(args)
    write_ranks(ranks, out / "ranks.csv")
    outputs = ["ranks.csv"]
    _write_hist(ranks, None, out, "hist", outputs, ranks_m=sizes.pop())
    _finish(args, seed, out, outputs, argv, len(ranks))
    return 0


def _cmd_clical(args, seed, argv):
    archive = read_archive(args.inp)
    signs = None if args.cone is None else cone_signs(args.cone, dim=archive.dim)
    grid = np.linspace(0.0, 1.0, args.grid)
    recs, mean_k = _analyze(archive, seed, args.kendall, args.kendall_n, signs, args.threads, grid)
    curve = clical_curve(recs.h, mean_k, grid)
    out = _out_dir(args)
    write_curve(curve, out / "curve.csv")
    render_svg(curve, out / "curve.svg")
    _finish(args, seed, out, ["curve.csv", "curve.svg"], argv, len(recs))
    return 0


def _cmd_simulate_bivariate(args, seed, argv):
    study = simstudy.run_bivariate(j=args.j, seed=seed,
                                   include_directional=args.directional,
                                   directional_n=args.directional_n)
    out = _out_dir(args)
    outputs = []
    for fb in study.forecasters:
        sub = out / fb.label
        sub.mkdir(exist_ok=True)
        sub_outputs = []
        _write_pit(fb, args.bins, sub, sub_outputs)
        curve = simstudy.bivariate_clical(study, fb.label)
        write_curve(curve, sub / "curve.csv")
        render_svg(curve, sub / "curve.svg")
        sub_outputs += ["curve.csv", "curve.svg"]
        for quadrant, rec in (fb.directional or {}).items():
            _write_pit(rec, args.bins, sub, sub_outputs, f"_{quadrant}")
        outputs += [f"{fb.label}/{name}" for name in sub_outputs]
    _finish(args, seed, out, outputs, argv, len(study.y) * len(study.forecasters))
    return 0


def _cmd_simulate_batch(run, args, seed, argv):
    """simulate highdim and demo-emos: one batch of records with ranks."""
    sizes = {k: v for k, v in vars(args).items() if k in ("j", "d", "m", "kendall_n")}
    batch = run(args.variant, seed=seed, **sizes)
    out = _out_dir(args)
    outputs = []
    _write_pit(batch, args.bins, out, outputs, ranks_m=batch.m)
    _finish(args, seed, out, outputs, argv, len(batch))
    return 0


def _cmd_render(args, seed, argv):
    render_svg(read_result(args.inp), args.out)
    print(f"coppit render: {args.inp} -> {args.out}", file=sys.stderr)
    return 0


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "cone", None) is not None:
            _check_cone_syntax(args.cone)
        seed = _resolve_seed(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code is None else int(exc.code)

    try:
        return args.func(args, seed, argv)
    except (ArchiveError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
