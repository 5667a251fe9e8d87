"""Command-line frontend: analyze case archives, run packaged simulation
studies, and render result files to SVG.

Each command returns its results; ``main`` writes them (``_write``), then a
``manifest.json`` (seed, resolved flags, tool version, the files written)
into the output directory, so a run can be reproduced from the manifest
alone.  With a fixed seed all outputs are byte-identical across runs; the
manifest's ``created`` timestamp is the single exception.

``coppit`` and ``clical`` score an archive in blocks by kind: one stacked
pass for the ensembles, one H(y) call for the mvgauss and copula-marginal
cases, one closed-form Kendall call per copula family, and a Kendall
function of its own only for each Monte Carlo case.  Every value has the
bits the library's one-case functions give.

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
    ClicalCurve,
    Records,
    _tie_ranks,
    clical_curve,
    ensemble_counts,
    histogram,
    rank_histogram,
)
from .forecasts import EnsembleForecast, Normal, _groups, cdf_rows, cone_signs, margin_forecast
from .io import (
    read_archive,
    read_result,
    render_svg,
    write_curve,
    write_histogram,
    write_manifest,
    write_ranks,
    write_records,
)
from .kendall import DEFAULT_MC_SIZE, analytic_kendall_rows, kendall_route, select_kendall
from .samplers import DEFAULT_SEED, _check_int, substream, substream_integers

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    """Bad flags or malformed invocation (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _checked(check):
    """An argparse type that keeps what ``check`` makes of the flag's text;
    the library check's ValueError becomes a usage error with its message."""
    def convert(text):
        try:
            return check(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(exc) from None
    return convert


def _integer(what, minimum):
    """argparse type: ``_check_int`` at the library's ``minimum`` decides the
    text's int, or the text itself when it is not one."""
    def check(text):
        try:
            value = int(text)
        except ValueError:
            value = text
        return _check_int(value, what, minimum)
    return _checked(check)


_SEED = _integer("seed", 0)


@_checked
def _path(text):
    """argparse type: a path, kept as its text; an empty one would name the cwd."""
    if not text:
        raise ValueError("path must not be empty")
    return text


@_checked
def _cone(text):
    """argparse type: a direction ``cone_signs`` parses, kept as the text the
    manifest records; its dimension is checked against the archive's."""
    cone_signs(text)
    return text


def build_parser():
    p = _Parser(prog="coppit",
                description="Calibration checks for multivariate probabilistic forecasts.")
    p.add_argument("--version", action="version", version=f"coppit {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(parent, name, func, summary, archive=True):
        """A subcommand with the flags every analysis and study shares."""
        sp = parent.add_parser(name, help=summary)
        sp.set_defaults(func=func)
        if archive:
            sp.add_argument("--in", dest="inp", required=True, type=_path, metavar="FILE",
                            help="case archive (JSON lines, or CSV ensemble shorthand)")
        sp.add_argument("--out", required=True, type=_path, metavar="DIR", help="output directory")
        sp.add_argument("--seed", type=_SEED, default=None,
                        help="master seed (default: COPPIT_SEED or the package constant)")
        sp.add_argument("--threads", type=_integer("threads", 1), default=1,
                        help="worker threads for the per-case Kendall functions of coppit "
                             "and clical; other commands record it in the manifest only")
        return sp

    def add(flag, parsers, **spec):
        """Add ``flag`` to each parser; a dict maps a parser to the keywords
        that differ there."""
        for sp in parsers:
            sp.add_argument(flag, **spec | (parsers[sp] if isinstance(parsers, dict) else {}))

    cop = command(sub, "coppit", _cmd_coppit, "copula PIT records and histogram for an archive")
    pit = command(sub, "pit", _cmd_pit, "randomized PIT of one margin for an archive")
    ranks = command(sub, "rank-hist", _cmd_rank_hist,
                    "multivariate rank histogram for an ensemble archive")
    clical = command(sub, "clical", _cmd_clical,
                     "climatological copula-calibration curve for an archive")
    study = sub.add_parser("simulate", help="run a packaged simulation study").add_subparsers(
        dest="study", required=True, metavar="STUDY")
    biv = command(study, "bivariate", _cmd_simulate_bivariate,
                  "eight-forecaster bivariate study", archive=False)
    high = command(study, "highdim", functools.partial(_cmd_simulate_batch, simstudy.run_highdim),
                   "high-dimensional rank vs copula PIT contrast", archive=False)
    demo = command(study, "demo-emos",
                   functools.partial(_cmd_simulate_batch, simstudy.run_demo_emos),
                   "bivariate Gaussian forecasting demo", archive=False)

    add("--bins", (cop, pit, biv, high, demo), type=_integer("bins", 1), default=20,
        help="histogram bin count (default: %(default)s)")
    add("--kendall", (cop, clical), choices=("auto", "mc"), default="auto",
        help="Kendall function: auto takes the route the forecast fixes, "
             "mc estimates every case by Monte Carlo")
    add("--kendall-n", {cop: {}, clical: {}, high: {"default": 10_000}, demo: {"default": 100_000}},
        type=_integer("kendall_n", 1), default=DEFAULT_MC_SIZE,
        help="Monte Carlo sample size of each estimated Kendall function (default: %(default)s)")
    add("--cone", (cop, ranks, clical), type=_cone, default=None, metavar="SPEC",
        help="orthant direction: sw/se/ne/nw or a +- string, one sign per coordinate")
    add("--variant", {high: {"choices": simstudy.HIGHDIM_VARIANTS},
                      demo: {"choices": simstudy.DEMO_VARIANTS}},
        required=True, help="study variant")
    add("--j", (biv, high, demo), type=_integer("j", 1), default=4000,
        help="number of cases (default: %(default)s)")
    add("--m", (high, demo), type=_integer("m", 1), default=8,
        help="ensemble size (default: %(default)s)")
    pit.add_argument("--margin", type=_integer("margin", 1), default=1,
                     help="1-based coordinate whose margin is checked (default: %(default)s)")
    clical.add_argument("--grid", type=_integer("grid", 1), default=101,
                        help="number of evaluation points on [0, 1] (default: %(default)s)")
    biv.add_argument("--directional", action="store_true",
                     help="also write per-quadrant orthant records")
    biv.add_argument("--directional-n", type=_integer("directional_n", 1), default=DEFAULT_MC_SIZE,
                     help="Monte Carlo size per case for directional Kendall functions "
                          "(default: %(default)s)")
    high.add_argument("--d", type=_integer("d", 2), default=50,
                      help="dimension (default: %(default)s)")

    sp = sub.add_parser("render", help="render a result file (histogram or curve CSV) to SVG")
    sp.set_defaults(func=_cmd_render)
    sp.add_argument("--in", dest="inp", required=True, type=_path, metavar="FILE",
                    help="result file: a histogram or curve CSV")
    sp.add_argument("--out", required=True, type=_path, metavar="FILE.svg",
                    help="SVG file to write")

    return p


def _resolve_seed(args):
    if not hasattr(args, "seed"):  # render draws nothing
        return None
    if args.seed is not None:
        return args.seed
    env = os.environ.get("COPPIT_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return _SEED(env)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"COPPIT_SEED: {exc}") from None


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
    for m, pos in _groups([cases[i][0].m for i in indices]).items():
        idx = [indices[p] for p in pos]
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
    """Copula PIT records per case (substreams: 1=v, 2=ties, 3=Monte Carlo)
    and, given a ``grid``, the case mean of the Kendall functions on it
    (else None).

    The cases are scored in blocks by kind.  The stacked pass gives every
    ensemble case's H(y), and under the auto strategy also its records and
    Kendall rows.  One ``cdf_rows`` call gives H(y) of every mvgauss and
    copula-marginal case.  The analytic cases take K from one
    ``analytic_kendall_rows`` call, at h and on the grid.  Only the Monte
    Carlo cases (every case under mc, mvgauss and the remaining copula cases
    under auto) build their Kendall function one at a time, use it and drop
    it, on ``threads`` workers.
    """
    cases = archive.cases
    n = len(cases)
    v = substream(seed, 1).random(n)
    k_grid = None if grid is None else np.empty((n, grid.size))
    auto = strategy == "auto"
    rank, h, _, k_left, k_right = _stacked(cases, seed, signs, grid, k_grid if auto else None)
    ens = rank > 0 if rank is not None else np.zeros(n, dtype=bool)
    other = np.flatnonzero(~ens).tolist()
    try:
        h[other] = cdf_rows([cases[i][0] for i in other], np.array([cases[i][1] for i in other]),
                            signs)
    except ValueError:  # name the first case that fails on its own
        _map_cases(lambda i: cases[i][0].cdf(cases[i][1], signs), other, 1)
        raise
    analytic = [i for i in other if kendall_route(cases[i][0], strategy, signs) == "analytic"]
    done = ens & auto  # under mc every case builds its own Kendall function
    done[analytic] = True
    # the cases finished in blocks use no Kendall function; this call per case
    # only records its route, which traced runs count against the case mix
    for i in np.flatnonzero(done).tolist():
        select_kendall(cases[i][0], strategy=strategy, signs=signs)
    copulas = [cases[i][0].copula for i in analytic]
    k_left[analytic] = k_right[analytic] = analytic_kendall_rows(copulas, h[analytic])
    if grid is not None:
        k_grid[analytic] = analytic_kendall_rows(copulas,
                                                 np.broadcast_to(grid, (len(analytic), grid.size)))

    def work(i):
        kfn = select_kendall(cases[i][0], strategy=strategy, rng=substream(seed, 3, i),
                             n=kendall_n, signs=signs)
        if grid is not None:  # sorts the sample once; the interval then searches it
            k_grid[i] = kfn.eval(grid)
        k_left[i], k_right[i] = kfn.interval(h[i])

    _map_cases(work, np.flatnonzero(~done).tolist(), threads)
    recs = Records(h, k_left, k_right, v, rank=rank)
    if grid is None:
        return recs, None
    mean_k = np.zeros_like(grid)
    for row in k_grid:  # one at a time in case order; .mean sums a one-point grid pairwise
        mean_k += row
    return recs, mean_k / n


def _read(args):
    """The archive at --in and the signs of --cone (None without it) at its dimension."""
    archive = read_archive(args.inp)
    return archive, None if args.cone is None else cone_signs(args.cone, dim=archive.dim)


def _pit(recs, bins, prefix="", suffix=""):
    """The records as {prefix}records{suffix} and their u's histogram as {prefix}hist{suffix}."""
    return {f"{prefix}records{suffix}": recs, f"{prefix}hist{suffix}": histogram(recs.u, bins=bins)}


def _cmd_coppit(args, seed):
    archive, signs = _read(args)
    recs, _ = _analyze(archive, seed, args.kendall, args.kendall_n, signs, args.threads)
    return _pit(recs, args.bins), len(recs)


def _cmd_pit(args, seed):
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
    return _pit(Records(hi, lo, hi, v, rank=rank), args.bins), len(cases)


def _cmd_rank_hist(args, seed):
    archive, signs = _read(args)
    sizes = set()
    for i, (fc, _) in enumerate(archive.cases):
        if not isinstance(fc, EnsembleForecast):
            raise ValueError(f"case {i + 1}: rank histograms need ensemble forecasts")
        sizes.add(fc.m)
    if len(sizes) != 1:
        raise ValueError(f"rank histograms need one common ensemble size, found {sorted(sizes)}")
    ranks = _stacked(archive.cases, seed, signs)[0]
    return {"ranks": ranks, "hist": rank_histogram(ranks, sizes.pop())}, len(ranks)


def _cmd_clical(args, seed):
    archive, signs = _read(args)
    grid = np.linspace(0.0, 1.0, args.grid)
    recs, mean_k = _analyze(archive, seed, args.kendall, args.kendall_n, signs, args.threads, grid)
    return {"curve": clical_curve(recs.h, mean_k, grid)}, len(recs)


def _cmd_simulate_bivariate(args, seed):
    study = simstudy.run_bivariate(j=args.j, seed=seed, include_directional=args.directional,
                                   directional_n=args.directional_n)
    results = {}
    for fb in study.forecasters:
        results |= _pit(fb, args.bins, f"{fb.label}/")
        results[f"{fb.label}/curve"] = simstudy.bivariate_clical(study, fb.label)
        for quadrant, rec in (fb.directional or {}).items():
            results |= _pit(rec, args.bins, f"{fb.label}/", f"_{quadrant}")
    return results, len(study.y) * len(study.forecasters)


def _cmd_simulate_batch(run, args, seed):
    """simulate highdim and demo-emos: one batch of records, and its ranks' histogram."""
    sizes = {k: v for k, v in vars(args).items() if k in ("j", "d", "m", "kendall_n")}
    batch = run(args.variant, seed=seed, **sizes)
    results = _pit(batch, args.bins)
    if batch.m is not None:  # the demo's Gaussian variants issue no ensemble
        results["rank_hist"] = rank_histogram(batch.rank, batch.m)
    return results, len(batch)


def _cmd_render(args, seed):
    render_svg(read_result(args.inp), args.out)
    print(f"coppit render: {args.inp} -> {args.out}", file=sys.stderr)


def _write(out, results):
    """Write each result under ``out`` by its '/'-separated stem, making subdirectories as
    needed: records or ranks as {stem}.csv, a histogram or curve as {stem}.csv and {stem}.svg.
    Returns the names written."""
    names = []
    for stem, result in results.items():
        csv = out / f"{stem}.csv"
        csv.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(result, Records):
            write_records(result, csv)
        elif isinstance(result, np.ndarray):
            write_ranks(result, csv)
        else:
            (write_curve if isinstance(result, ClicalCurve) else write_histogram)(result, csv)
            render_svg(result, csv.with_suffix(".svg"))
            names.append(f"{stem}.svg")
        names.append(f"{stem}.csv")
    return names


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        seed = _resolve_seed(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code is None else int(exc.code)

    try:
        done = args.func(args, seed)
        if done is not None:  # render writes its one SVG itself
            results, n_cases = done
            command = args.command if args.command != "simulate" else f"simulate {args.study}"
            skip = {"command", "study", "inp", "out", "seed", "func"}
            flags = {k.replace("_", "-"): v for k, v in vars(args).items() if k not in skip}
            flags |= {"seed": seed, "in": getattr(args, "inp", None), "out": args.out}
            out = Path(args.out)
            write_manifest(out, {"tool": "coppit", "version": __version__, "command": command,
                                 "argv": argv, "flags": flags,
                                 "outputs": sorted(_write(out, results))})
            print(f"coppit {command}: {n_cases} cases -> {out}", file=sys.stderr)
    except (OSError, ValueError, KeyError) as exc:  # an ArchiveError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
