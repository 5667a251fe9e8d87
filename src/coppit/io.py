"""Forecast-case archives, result files, and dependency-free SVG plots.

Archives hold the evaluation sample: one (forecast, observation) pair per
case.  Two on-disk forms are supported, chosen by file suffix:

- JSON lines (any suffix but ``.csv``): one object per line,
  ``{"forecast": {...}, "y": [...]}``, with an optional leading
  ``{"metadata": {...}}`` line.  Forecast descriptors are the dictionaries
  understood by ``forecasts.forecast_from_dict``.
- CSV ensemble shorthand (suffix ``.csv``): header
  ``y1..yd, x1_1..x1_d, ..., xm_1..xm_d`` and one row of floats per case;
  every case is an m-member ensemble.

Result writers serialize copula PIT ``Records``, histograms, and
calibration curves to CSV or JSON with 17-significant-digit floats, so a
read/write cycle is value-exact.  ``render_svg`` emits standalone fixed-size
SVG: histogram bars with a dashed flat-reference line, or a curve with the
diagonal.  All outputs are byte-deterministic given their inputs; the only
timestamp lives in ``manifest.json``.
"""

import csv
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from scipy import stats

from .calibration import ClicalCurve, HistogramResult, Records
from .forecasts import EnsembleForecast, forecast_from_dict

__all__ = [
    "ArchiveError",
    "CaseArchive",
    "read_archive",
    "write_archive",
    "write_results",
    "read_records",
    "write_records",
    "read_histogram",
    "write_histogram",
    "read_curve",
    "write_curve",
    "render_svg",
    "write_manifest",
]


class ArchiveError(ValueError):
    """Malformed archive or result file; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class CaseArchive:
    dim: int
    cases: tuple  # of (forecast, observation ndarray) pairs
    metadata: dict


def _fmt(x):
    return format(float(x), ".17g")


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_case(forecast, y, dim, lineno):
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != forecast.dim:
        raise ArchiveError(
            f"outcome has {y.size} coordinates but the forecast has dimension {forecast.dim}",
            lineno)
    if not np.all(np.isfinite(y)):
        raise ArchiveError("outcome coordinates must be finite", lineno)
    if dim is not None and forecast.dim != dim:
        raise ArchiveError(f"dimension {forecast.dim} differs from earlier cases ({dim})", lineno)
    return forecast.dim, y


def read_archive(path):
    """Load a case archive; suffix '.csv' selects the ensemble shorthand."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _read_archive_csv(path)
    return _read_archive_jsonl(path)


def _read_archive_jsonl(path):
    cases = []
    metadata = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            try:
                obj = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ArchiveError(f"invalid JSON ({exc.msg})", lineno) from None
            if not isinstance(obj, dict):
                raise ArchiveError("expected a JSON object", lineno)
            if not cases and set(obj) == {"metadata"}:
                if not isinstance(obj["metadata"], dict):
                    raise ArchiveError("metadata must be an object", lineno)
                metadata = obj["metadata"]
                continue
            if set(obj) != {"forecast", "y"}:
                raise ArchiveError("expected exactly the keys 'forecast' and 'y'", lineno)
            y = obj["y"]
            if not (_is_number(y) or isinstance(y, list) and all(map(_is_number, y))):
                raise ArchiveError("'y' must be a number or a flat list of numbers", lineno)
            try:
                fc = forecast_from_dict(obj["forecast"])
            except (ValueError, TypeError, KeyError) as exc:
                raise ArchiveError(f"bad forecast descriptor: {exc}", lineno) from None
            dim, y = _check_case(fc, y, dim, lineno)
            cases.append((fc, y))
    if not cases:
        raise ArchiveError("archive contains no cases")
    return CaseArchive(dim=dim, cases=tuple(cases), metadata=metadata)


def _csv_header(d, m):
    return [f"y{i}" for i in range(1, d + 1)] + [
        f"x{k}_{i}" for k in range(1, m + 1) for i in range(1, d + 1)]


def _read_archive_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [c.strip() for c in next(reader)]
        except StopIteration:
            raise ArchiveError("empty file", 1) from None
        d = 0
        while d < len(header) and header[d] == f"y{d + 1}":
            d += 1
        if d == 0:
            raise ArchiveError("header must start with y1..yd", 1)
        rest = len(header) - d
        if rest == 0 or rest % d != 0:
            raise ArchiveError(
                f"{rest} member columns do not form whole members of dimension {d}", 1)
        m = rest // d
        if header != _csv_header(d, m):
            raise ArchiveError(
                f"header does not match the y1..y{d}, x1_1..x{m}_{d} layout", 1)
        cases = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ArchiveError(f"expected {len(header)} fields, got {len(row)}", lineno)
            try:
                vals = np.array([float(c) for c in row])
            except ValueError:
                raise ArchiveError("non-numeric field", lineno) from None
            try:
                fc = EnsembleForecast(vals[d:].reshape(m, d))
            except ValueError as exc:
                raise ArchiveError(str(exc), lineno) from None
            _, y = _check_case(fc, vals[:d], d, lineno)
            cases.append((fc, y))
    if not cases:
        raise ArchiveError("archive contains no cases")
    return CaseArchive(dim=d, cases=tuple(cases), metadata={})


def write_archive(archive, path):
    """Write an archive; suffix '.csv' selects the ensemble shorthand."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        _write_archive_csv(archive, path)
    else:
        _write_archive_jsonl(archive, path)


def _write_archive_jsonl(archive, path):
    with open(path, "w", encoding="utf-8") as fh:
        if archive.metadata:
            fh.write(json.dumps({"metadata": archive.metadata}, sort_keys=True) + "\n")
        for fc, y in archive.cases:
            fh.write(json.dumps({"forecast": fc.to_dict(), "y": [float(c) for c in y]}) + "\n")


def _write_archive_csv(archive, path):
    ms = {fc.points.shape[0] for fc, _ in archive.cases
          if isinstance(fc, EnsembleForecast)}
    if len(ms) != 1 or any(not isinstance(fc, EnsembleForecast) for fc, _ in archive.cases):
        raise ValueError("CSV archives require ensemble forecasts with one common member count")
    m = ms.pop()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_csv_header(archive.dim, m))
        for fc, y in archive.cases:
            writer.writerow([_fmt(c) for c in y] + [_fmt(c) for c in fc.points.ravel()])


# --- result files -----------------------------------------------------------


def _lines(text):
    """(line number, text) of each non-blank line."""
    return [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln]


def _parse_rows(lines, header, what, convert):
    """Convert each CSV row under ``header``; a bad row raises ArchiveError
    with its line number."""
    if not lines or lines[0][1] != header:
        raise ArchiveError(f"unexpected {what} layout", 1)
    width = header.count(",") + 1
    out = []
    for lineno, text in lines[1:]:
        fields = text.split(",")
        try:
            if len(fields) != width:
                raise ValueError
            out.append(convert(fields))
        except ValueError:
            raise ArchiveError(f"malformed {what} row", lineno) from None
    return out


def write_records(records, path, format="csv"):
    """Persist ``Records`` (columns h,k_left,k_right,v,u,rank; no rank is empty)."""
    if format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")
    cols = [np.atleast_1d(getattr(records, c)).tolist() for c in Records.COLUMNS[:5]]
    ranks = [0] * len(records) if records.rank is None else np.atleast_1d(records.rank).tolist()
    path = Path(path)
    if format == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(Records.COLUMNS)
            for *vals, rank in zip(*cols, ranks):
                writer.writerow([_fmt(x) for x in vals] + [rank or ""])
    else:
        doc = [dict(zip(Records.COLUMNS, (*vals, rank or None)))
               for *vals, rank in zip(*cols, ranks)]
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def read_records(path):
    """Load ``Records`` written by ``write_records`` (CSV or JSON)."""
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("["):
        rows = [[r[c] for c in Records.COLUMNS[:5]] + [r["rank"] or 0] for r in json.loads(text)]
    else:
        rows = _parse_rows(_lines(text), ",".join(Records.COLUMNS), "record",
                           lambda f: [float(c) for c in f[:5]] + [int(f[5]) if f[5] else 0])
    h, k_left, k_right, v, u, rank = np.array(rows, dtype=float).reshape(-1, 6).T.copy()
    rank = rank.astype(int)
    return Records(h, k_left, k_right, v, u, rank if rank.any() else None)


def write_histogram(hist, path, format="csv"):
    """Persist a histogram (rows bin_lo,bin_hi,count; statistics in a trailer)."""
    path = Path(path)
    if format == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_lo", "bin_hi", "count"])
            for i, c in enumerate(hist.counts):
                writer.writerow([_fmt(hist.edges[i]), _fmt(hist.edges[i + 1]), int(c)])
            ks = "" if hist.ks is None else _fmt(hist.ks)
            fh.write(f"# chi2={_fmt(hist.chi2)},df={int(hist.chi2_df)},ks={ks}\n")
    elif format == "json":
        doc = {"counts": [int(c) for c in hist.counts],
               "edges": [float(e) for e in hist.edges],
               "n": int(hist.n), "chi2": hist.chi2, "chi2_df": int(hist.chi2_df),
               "chi2_pvalue": hist.chi2_pvalue, "ks": hist.ks,
               "ks_pvalue": hist.ks_pvalue}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")


def read_histogram(path):
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        return HistogramResult(
            counts=np.array(doc["counts"]), edges=np.array(doc["edges"], dtype=float),
            n=doc["n"], chi2=doc["chi2"], chi2_df=doc["chi2_df"],
            chi2_pvalue=doc["chi2_pvalue"], ks=doc["ks"], ks_pvalue=doc["ks_pvalue"])
    lines = _lines(text)
    if not lines or not lines[-1][1].startswith("# "):
        raise ArchiveError("unexpected histogram layout", 1)
    rows = _parse_rows(lines[:-1], "bin_lo,bin_hi,count", "histogram",
                       lambda f: (float(f[0]), float(f[1]), int(f[2])))
    edges = [lo for lo, _, _ in rows] + [hi for _, hi, _ in rows[-1:]]
    counts = np.array([c for _, _, c in rows])
    try:
        trailer = dict(part.split("=", 1) for part in lines[-1][1][2:].split(","))
        chi2 = float(trailer["chi2"])
        df = int(trailer["df"])
        ks = None if trailer["ks"] == "" else float(trailer["ks"])
    except (ValueError, KeyError):
        raise ArchiveError("malformed histogram trailer", lines[-1][0]) from None
    n = int(counts.sum())
    return HistogramResult(
        counts=counts, edges=np.array(edges), n=n, chi2=chi2, chi2_df=df,
        chi2_pvalue=float(stats.chi2.sf(chi2, df)), ks=ks,
        ks_pvalue=None if ks is None else float(stats.kstwo.sf(ks, n)))


def write_curve(curve, path, format="csv"):
    """Persist a calibration curve (columns w,lhs,rhs)."""
    path = Path(path)
    if format == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["w", "lhs", "rhs"])
            for w, lhs, rhs in zip(curve.grid, curve.lhs, curve.rhs):
                writer.writerow([_fmt(w), _fmt(lhs), _fmt(rhs)])
    elif format == "json":
        doc = {"w": [float(x) for x in curve.grid],
               "lhs": [float(x) for x in curve.lhs],
               "rhs": [float(x) for x in curve.rhs]}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {format!r}")


def read_curve(path):
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        grid = np.array(doc["w"], dtype=float)
        lhs = np.array(doc["lhs"], dtype=float)
        rhs = np.array(doc["rhs"], dtype=float)
    else:
        rows = _parse_rows(_lines(text), "w,lhs,rhs", "curve", lambda f: [float(c) for c in f])
        grid, lhs, rhs = np.array(rows, dtype=float).reshape(-1, 3).T.copy()
    return ClicalCurve(grid=grid, lhs=lhs, rhs=rhs,
                       max_abs_gap=float(np.max(np.abs(lhs - rhs))))


def write_results(obj, path, format="csv"):
    """Dispatch on result type: record batch, histogram, or curve."""
    if isinstance(obj, HistogramResult):
        write_histogram(obj, path, format)
    elif isinstance(obj, ClicalCurve):
        write_curve(obj, path, format)
    elif isinstance(obj, Records):
        write_records(obj, path, format)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


# --- SVG --------------------------------------------------------------------

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 60, 15, 15, 40


def _svg_open(parts):
    parts.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
                 f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">')


def _svg_axes(parts, x0, x1, y0, y1, xticks, yticks):
    left, right = _ML, _W - _MR
    top, bottom = _MT, _H - _MB
    parts.append(f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>')
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>')
    for t in xticks:
        px = left + (t - x0) / (x1 - x0) * (right - left)
        parts.append(f'<line x1="{px:.2f}" y1="{bottom}" x2="{px:.2f}" y2="{bottom + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{bottom + 18}" text-anchor="middle">{t:g}</text>')
    for t in yticks:
        py = bottom - (t - y0) / (y1 - y0) * (bottom - top)
        parts.append(f'<line x1="{left - 5}" y1="{py:.2f}" x2="{left}" y2="{py:.2f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8}" y="{py + 4:.2f}" text-anchor="end">{t:g}</text>')


def _render_histogram(hist):
    counts = np.asarray(hist.counts)
    edges = np.asarray(hist.edges, dtype=float)
    if counts.size == 0:
        raise ValueError("cannot render an empty histogram")
    expected = hist.n / counts.size
    x0, x1 = float(edges[0]), float(edges[-1])
    ymax = max(float(counts.max()), expected) * 1.1
    ymax = ymax if ymax > 0 else 1.0
    left, right = _ML, _W - _MR
    top, bottom = _MT, _H - _MB

    def px(x):
        return left + (x - x0) / (x1 - x0) * (right - left)

    def py(y):
        return bottom - y / ymax * (bottom - top)

    parts = []
    _svg_open(parts)
    for i, c in enumerate(counts):
        bx = px(edges[i])
        bw = px(edges[i + 1]) - bx
        by = py(float(c))
        parts.append(f'<rect x="{bx:.2f}" y="{by:.2f}" width="{bw:.2f}" '
                     f'height="{bottom - by:.2f}" fill="#5b8cb8" stroke="white" stroke-width="0.5"/>')
    ey = py(expected)
    parts.append(f'<line x1="{left}" y1="{ey:.2f}" x2="{right}" y2="{ey:.2f}" '
                 f'stroke="#b03030" stroke-dasharray="6 4"/>')
    yticks = [0, round(ymax / 2), round(ymax)] if ymax >= 2 else [0, ymax]
    _svg_axes(parts, x0, x1, 0.0, ymax, [x0, (x0 + x1) / 2, x1], yticks)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _render_curve(curve):
    grid = np.asarray(curve.grid, dtype=float)
    if grid.size == 0:
        raise ValueError("cannot render an empty curve")
    left, right = _ML, _W - _MR
    top, bottom = _MT, _H - _MB

    def px(x):
        return left + x * (right - left)

    def py(y):
        return bottom - y * (bottom - top)

    parts = []
    _svg_open(parts)
    parts.append(f'<line x1="{px(0):.2f}" y1="{py(0):.2f}" x2="{px(1):.2f}" y2="{py(1):.2f}" '
                 f'stroke="#b03030" stroke-dasharray="6 4"/>')
    pts = " ".join(f"{px(r):.2f},{py(l):.2f}" for r, l in zip(curve.rhs, curve.lhs))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#2f5d8a" stroke-width="1.5"/>')
    _svg_axes(parts, 0.0, 1.0, 0.0, 1.0, [0, 0.5, 1], [0, 0.5, 1])
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_svg(obj, path):
    """Render a histogram or curve to a standalone 640x480 SVG file.

    Raises before touching the filesystem when the input is empty, and is
    byte-deterministic for a given input.
    """
    if isinstance(obj, HistogramResult):
        text = _render_histogram(obj)
    elif isinstance(obj, ClicalCurve):
        text = _render_curve(obj)
    else:
        raise TypeError(f"cannot render {type(obj).__name__}")
    Path(path).write_text(text, encoding="utf-8")


def write_manifest(directory, payload):
    """Write manifest.json; 'created' is the only non-reproducible field."""
    doc = {"created": datetime.now(timezone.utc).isoformat(timespec="seconds")}
    doc.update(payload)
    path = Path(directory) / "manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
