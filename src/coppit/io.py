"""The on-disk formats: forecast descriptors, case archives, result files,
and dependency-free SVG plots.  No other module reads or writes JSON or CSV.

A forecast descriptor is one forecast's JSON object, ``type`` first:
``ensemble`` (``points``), ``mvgauss`` (``mean``, ``cov``) or
``copula_marginal`` (``copula``: ``family``, ``dim`` and ``theta`` or
``tau``; ``margins``: ``dist`` "normal", ``mu``, ``sigma``).
``forecast_from_dict`` checks every field before it builds the forecast:
a malformed one (a non-number, a ragged list, a list where one number
belongs, ``margins`` that is no list) raises ValueError naming the field.
``forecast_to_dict`` writes the descriptor.

Archives hold the evaluation sample: one (forecast, observation) pair per
case.  Two on-disk forms are supported, chosen by file suffix:

- JSON lines (any suffix but ``.csv``): one object per line,
  ``{"forecast": {...}, "y": [...]}``, with an optional leading
  ``{"metadata": {...}}`` line.  Canonical ensemble lines, laid out as
  ``write_archive`` writes them, are read in blocks of a few hundred: each
  line's head and tail are compared literally; in each block, deleting the
  number alphabet must leave the skeleton of the file's one m and d, with
  its brackets unbroken, and one ``orjson.loads`` of the block, its layout
  blanked to whitespace, reads every number.  Every other line, and
  every line from the first one the block path is unsure of, goes through
  the per-line validator, the one source of archive errors and their line
  numbers, so both paths give the same archive and the same errors.  The
  validator reads each line with stdlib ``json``, which words its errors.
- CSV ensemble shorthand (suffix ``.csv``): header
  ``y1..yd, x1_1..x1_d, ..., xm_1..xm_d`` and one row of floats per case;
  every case is an m-member ensemble.  ``float()`` reads each field, but a
  field with an underscore, such as ``1_0``, is non-numeric, not 10.  Each
  row is checked in turn, so the first bad line is the one reported; the
  rows then become one array, and each case a row of it, as in the block
  path.

Every reader, of archives and of result files, decodes bytes that are not
UTF-8 to escapes, so the line that holds one raises "not UTF-8 text" with
its line number.

Result writers serialize copula PIT ``Records``, multivariate ranks,
histograms, and calibration curves to CSV with 17-significant-digit floats,
so a read/write cycle is value-exact; ``read_result`` tells a histogram from
a curve by its header line.  ``render_svg`` emits standalone fixed-size SVG:
histogram bars with a dashed flat-reference line, or a curve with the
diagonal.  All outputs are byte-deterministic given their inputs; the only
timestamp lives in ``manifest.json``.
"""

import array
import csv
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import orjson

from .calibration import ClicalCurve, HistogramResult, Records
from .copulas import ArchimedeanCopula
from .forecasts import CopulaMarginalForecast, EnsembleForecast, GaussianForecast, Normal

__all__ = [
    "ArchiveError",
    "CaseArchive",
    "forecast_from_dict",
    "forecast_to_dict",
    "read_archive",
    "write_archive",
    "read_records",
    "write_records",
    "write_ranks",
    "read_histogram",
    "write_histogram",
    "read_curve",
    "write_curve",
    "read_result",
    "render_svg",
    "write_manifest",
]


class ArchiveError(ValueError):
    """Malformed archive or result file; its message names the offending line, if any."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class CaseArchive:
    dim: int
    cases: tuple  # of (forecast, observation ndarray) pairs
    metadata: dict


# --- forecast descriptors ---------------------------------------------------


def _is_number(x):
    """A float, or an int (not a bool) that a float can hold: JSON integers
    have no size limit, and one past the float range overflows ``float()``."""
    return isinstance(x, float) or (isinstance(x, int) and not isinstance(x, bool)
                                    and abs(x) <= sys.float_info.max)


def _check_fields(d, what, required, optional=()):
    """ValueError unless the descriptor ``d`` has every required field and no
    fields besides the required and optional ones."""
    extra = set(d) - set(required) - set(optional)
    if extra:
        raise ValueError(f"unknown {what} fields: {sorted(extra)}")
    if not all(key in d for key in required):
        raise ValueError(f"{what} descriptor requires {' and '.join(map(repr, required))}")


def _check_numbers(value, what):
    """``value`` if it is a number or evenly nested lists of numbers, else ValueError.

    Descriptor fields pass through ``float()``, which would take "1.5" and
    true as silently as 1.5 and 1, and raise OverflowError on an int past
    the float range.  The walk goes one nesting level at a time and looks at
    each element only through ``set(map(type, ...))`` unless that level
    holds something other than lists or floats.
    """
    level = [value]
    while level:
        kinds = set(map(type, level))
        if kinds == {list}:
            if len(set(map(len, level))) > 1:
                raise ValueError(f"{what} must be evenly nested lists")
            level = list(itertools.chain.from_iterable(level))
            continue
        if kinds != {float}:
            bad = [x for x in level if not _is_number(x)]
            if bad:
                shown = "an integer past the float range" if type(bad[0]) is int else repr(bad[0])
                raise ValueError(f"{what} must hold numbers only, got {shown}")
        break
    return value


def _check_number(value, what):
    """``value`` if it is one number, else ValueError."""
    if isinstance(value, list):
        raise ValueError(f"{what} must be one number, got a list")
    return _check_numbers(value, what)


def _copula_from_dict(d):
    if not isinstance(d, dict):
        raise ValueError(f"copula descriptor must be an object, got {type(d).__name__}")
    _check_fields(d, "copula", ("family", "dim"), ("theta", "tau"))
    for key in ("theta", "tau"):
        if key in d:
            _check_number(d[key], f"copula {key!r}")
    return ArchimedeanCopula(d["family"], theta=d.get("theta"), tau=d.get("tau"), dim=d["dim"])


def _margin_from_dict(d):
    if not isinstance(d, dict) or d.get("dist") != "normal":
        raise ValueError(f"unsupported margin descriptor: {d!r} (expected dist 'normal')")
    _check_fields(d, "margin", ("mu", "sigma"), ("dist",))
    return Normal(_check_number(d["mu"], "margin 'mu'"),
                  _check_number(d["sigma"], "margin 'sigma'"))


def forecast_from_dict(d):
    """Build a forecast object from its JSON descriptor."""
    if not isinstance(d, dict) or "type" not in d:
        raise ValueError(f"forecast descriptor must be an object with a 'type', got {d!r}")
    t = d["type"]
    if t == "ensemble":
        _check_fields(d, t, ("points",), ("type",))
        return EnsembleForecast(_check_numbers(d["points"], "ensemble 'points'"))
    if t == "mvgauss":
        _check_fields(d, t, ("mean", "cov"), ("type",))
        return GaussianForecast(_check_numbers(d["mean"], "mvgauss 'mean'"),
                                _check_numbers(d["cov"], "mvgauss 'cov'"))
    if t == "copula_marginal":
        _check_fields(d, t, ("copula", "margins"), ("type",))
        margins = d["margins"]
        if not isinstance(margins, list):
            raise ValueError(f"copula_marginal 'margins' must be a list, got {type(margins).__name__}")
        return CopulaMarginalForecast(_copula_from_dict(d["copula"]),
                                      [_margin_from_dict(m) for m in margins])
    raise ValueError(f"unknown forecast type {t!r} (expected ensemble, mvgauss, or copula_marginal)")


def forecast_to_dict(forecast):
    """The JSON descriptor of a forecast, which ``forecast_from_dict`` reads back."""
    if isinstance(forecast, EnsembleForecast):
        return {"type": "ensemble", "points": forecast.points.tolist()}
    if isinstance(forecast, GaussianForecast):
        return {"type": "mvgauss", "mean": forecast.mean.tolist(), "cov": forecast.cov.tolist()}
    if isinstance(forecast, CopulaMarginalForecast):
        cop = forecast.copula
        copula = {"family": cop.family, "dim": cop.dim}
        if cop.theta is not None:
            copula["theta"] = cop.theta
        return {"type": "copula_marginal", "copula": copula,
                "margins": [{"dist": "normal", "mu": mg.mu, "sigma": mg.sigma}
                            for mg in forecast.margins]}
    raise TypeError(f"cannot describe forecast of type {type(forecast).__name__}")


# --- case archives ----------------------------------------------------------


def read_archive(path):
    """Load a case archive; suffix '.csv' selects the ensemble shorthand."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _read_archive_csv(path)
    return _read_archive_jsonl(path)


def _numbered(lines):
    """(line number, stripped text) of each non-blank line of an open file or a list."""
    return ((n, text) for n, text in enumerate(map(str.strip, lines), start=1) if text)


def _read_archive_jsonl(path):
    cases = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        metadata, rest = _read_blocks(_numbered(fh), cases)
        metadata = _validate_lines(rest, cases, metadata)
    if not cases:
        raise ArchiveError("archive contains no cases")
    return CaseArchive(dim=cases[0][0].dim, cases=tuple(cases), metadata=metadata)


# a byte that is not UTF-8, as errors="surrogateescape" decodes it
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _not_utf8(text):
    """Whether ``text`` holds a byte that was not UTF-8; ``isascii`` answers
    for an ASCII line, most archive lines, without a scan."""
    return not text.isascii() and _ESCAPED_BYTE.search(text) is not None


def _validate_lines(lines, cases, metadata):
    """The per-line archive validator, the one source of errors about a line.

    Parses and checks each (line number, text) of ``lines``, appends its case
    to ``cases`` and returns the metadata: ``metadata``, unless a metadata
    line before the first case replaces it.
    """
    dim = cases[0][0].dim if cases else None
    for lineno, text in lines:
        if _not_utf8(text):
            raise ArchiveError("not UTF-8 text", lineno)
        try:
            obj = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
            raise ArchiveError(f"invalid JSON ({getattr(exc, 'msg', exc)})", lineno) from None
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
            raise ArchiveError(
                "'y' must be a number or a flat list of numbers in the float range", lineno)
        try:
            fc = forecast_from_dict(obj["forecast"])
        except (ValueError, TypeError, KeyError) as exc:
            raise ArchiveError(f"bad forecast descriptor: {exc}", lineno) from None
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.size != fc.dim:
            raise ArchiveError(
                f"outcome has {y.size} coordinates but the forecast has dimension {fc.dim}", lineno)
        if not np.isfinite(y).all():
            raise ArchiveError("outcome coordinates must be finite", lineno)
        if dim is not None and fc.dim != dim:
            raise ArchiveError(f"dimension {fc.dim} differs from earlier cases ({dim})", lineno)
        dim = fc.dim
        cases.append((fc, y))
    return metadata


# The canonical ensemble line, as write_archive writes it:
# {"forecast": {"type": "ensemble", "points": [[x, ...], ...]}, "y": [y, ...]}
_ENSEMBLE_HEAD = '{"forecast": {"type": "ensemble", "points": [['
_MEMBERS, _Y = b"], [", b']]}, "y": ['
_BLOCK_LINES = 256
_NUMBER_CHARS = b"-+.0123456789eE"  # what a JSON number is made of
# every character of the layout but "," becomes JSON whitespace
_BLANK_LAYOUT = bytes.maketrans(b'[]}":y', b"      ")


def _take_block(block, m, d, cases):
    """Append the cases of ``block``, (line number, text) pairs of lines that
    start with ``_ENSEMBLE_HEAD`` and end with ``]}``, and return ``[]``; or,
    unless every line is canonical with m members of dimension d and every
    token a JSON number below the largest float in magnitude, append nothing
    and return ``block``.

    The middles of the lines, between head and tail, are checked in one
    ASCII text joined by ",\\n" (a character past ASCII becomes "?").
    Deleting the number alphabet must leave the skeleton: ", " between
    tokens, "], [" between members and ']]}, "y": [' before y.  Each "], ["
    and ']]}, "y": [' must stand unbroken, or a token moved across a bracket
    would pass (``[[1, 2], 3[, 4]]``).  With the skeleton blanked to spaces,
    ``orjson.loads`` must read a flat list: a number character anywhere but
    inside a token puts two tokens side by side, and an empty token leaves
    a bare comma, so each stretch between two commas holds one JSON number.
    A line is thus taken only if ``json`` reads it as the canonical object
    with these numbers, and every canonical line of JSON numbers is taken:
    both paths give the same archive, error text and line number.  orjson
    reads each number to the bits of ``float(json.loads(token))`` and
    refuses one that ``json`` reads as infinite.  The cases are rows of the
    block's array, taken without a copy.
    """
    if not block:
        return block
    n = len(block)
    middles = ",\n".join(text[len(_ENSEMBLE_HEAD):-2] for _, text in block)
    middles = middles.encode("ascii", "replace")
    member = b", " * (d - 1)
    skeleton = member + (_MEMBERS + member) * (m - 1) + _Y + member
    if (middles.translate(None, _NUMBER_CHARS) != b",\n".join([skeleton] * n)
            or middles.count(_MEMBERS) != n * (m - 1) or middles.count(_Y) != n):
        return block
    try:  # "01", "1." or "+1"; a number past the float range
        values = np.array(orjson.loads(b"[%s]" % middles.translate(_BLANK_LAYOUT)), dtype=float)
    except ValueError:
        return block
    if not (np.abs(values) < sys.float_info.max).all():  # also an int rounded to the largest float
        return block
    cases.extend((EnsembleForecast._checked(row[:m]), row[m])
                 for row in values.reshape(n, m + 1, d))
    return []


def _read_blocks(lines, cases):
    """The block path: read the ensemble lines at the head of ``lines``,
    after an optional metadata line, ``_BLOCK_LINES`` at a time.

    A line stays on the block path while it starts with ``_ENSEMBLE_HEAD``
    and ends with ``]}``; the first line sets the m and d that
    ``_take_block`` checks every line of a block against, by its skeleton.
    Appends their cases to ``cases`` and returns the metadata and the lines
    left to ``_validate_lines``: from the first line without that head and
    tail, or from the start of a block that ``_take_block`` leaves.  It
    raises nothing of its own, so the validator alone words every error.
    """
    metadata, block, m, d = {}, [], None, None
    for lineno, text in lines:
        if not cases and not block and text.startswith('{"metadata": '):
            metadata = _validate_lines([(lineno, text)], cases, metadata)
            continue
        if not (text.startswith(_ENSEMBLE_HEAD) and text.endswith("]}")):
            return metadata, itertools.chain(_take_block(block, m, d, cases), [(lineno, text)], lines)
        if m is None:
            m = text.count("], [") + 1
            d = text[len(_ENSEMBLE_HEAD):].partition("]")[0].count(", ") + 1
        block.append((lineno, text))
        if len(block) == _BLOCK_LINES:
            left = _take_block(block, m, d, cases)
            if left:
                return metadata, itertools.chain(left, lines)
            block = []
    return metadata, _take_block(block, m, d, cases)


def _csv_header(d, m):
    return [f"y{i}" for i in range(1, d + 1)] + [
        f"x{k}_{i}" for k in range(1, m + 1) for i in range(1, d + 1)]


def _read_archive_csv(path):
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = [c.strip() for c in next(reader)]
        except StopIteration:
            raise ArchiveError("empty file", 1) from None
        if _not_utf8("".join(header)):
            raise ArchiveError("not UTF-8 text", 1)
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
        values = array.array("d")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            text = "".join(row)
            if _not_utf8(text):
                raise ArchiveError("not UTF-8 text", lineno)
            if len(row) != len(header):
                raise ArchiveError(f"expected {len(header)} fields, got {len(row)}", lineno)
            try:
                if "_" in text:  # float() reads "1_0" as 10.0
                    raise ValueError
                vals = list(map(float, row))
            except ValueError:
                raise ArchiveError("non-numeric field", lineno) from None
            for what, part in (("ensemble points", vals[d:]), ("outcome coordinates", vals[:d])):
                if not all(map(math.isfinite, part)):
                    raise ArchiveError(f"{what} must be finite", lineno)
            values.extend(vals)
    if not values:
        raise ArchiveError("archive contains no cases")
    rows = np.frombuffer(values).reshape(-1, len(header))
    cases = tuple((EnsembleForecast._checked(row[d:].reshape(m, d)), row[:d]) for row in rows)
    return CaseArchive(dim=d, cases=cases, metadata={})


def write_archive(archive, path):
    """Write an archive; suffix '.csv' selects the ensemble shorthand, which
    holds no metadata: an archive with metadata raises there."""
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
            fh.write(json.dumps({"forecast": forecast_to_dict(fc), "y": [float(c) for c in y]}) + "\n")


def _write_archive_csv(archive, path):
    if archive.metadata:
        raise ValueError("CSV archives hold no metadata; cannot keep the keys "
                         f"{sorted(archive.metadata)} (write JSON lines instead)")
    ms = {fc.points.shape[0] for fc, _ in archive.cases
          if isinstance(fc, EnsembleForecast)}
    if len(ms) != 1 or any(not isinstance(fc, EnsembleForecast) for fc, _ in archive.cases):
        raise ValueError("CSV archives require ensemble forecasts with one common member count")
    m = ms.pop()
    header = _csv_header(archive.dim, m)
    _write_rows(path, header, ",".join(["%.17g"] * len(header)),
                ((*np.ravel(y).tolist(), *fc.points.ravel().tolist()) for fc, y in archive.cases))


# --- result files -----------------------------------------------------------


def _write_rows(path, header, row_format, rows, trailer=""):
    """The one CSV row writer: the header, then ``row_format % row`` for each
    row, each ending in csv's CRLF, then ``trailer``.  Every field is a number
    or empty, so none needs csv quoting; floats go out as %.17g, which reads
    back value-exact."""
    row_format += "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row_format % row for row in rows)
        fh.write(trailer)


def _lines(path):
    """(line number, stripped text) of each non-blank line of a result file;
    a line holding a byte that is not UTF-8 raises."""
    lines = list(_numbered(
        Path(path).read_text(encoding="utf-8", errors="surrogateescape").splitlines()))
    for lineno, text in lines:
        if _not_utf8(text):
            raise ArchiveError("not UTF-8 text", lineno)
    return lines


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


def write_records(records, path):
    """Persist ``Records`` (columns h,k_left,k_right,v,u,rank; no rank is empty)."""
    cols = [np.atleast_1d(getattr(records, c)).tolist() for c in Records.COLUMNS[:5]]
    ranks = ([""] * len(records) if records.rank is None
             else [r or "" for r in np.atleast_1d(records.rank).tolist()])
    _write_rows(path, Records.COLUMNS, "%.17g,%.17g,%.17g,%.17g,%.17g,%s", zip(*cols, ranks))


def write_ranks(ranks, path):
    """Persist integer ranks as rows case,rank, cases numbered from 1."""
    _write_rows(path, ["case", "rank"], "%d,%d", enumerate(np.asarray(ranks).tolist(), start=1))


def read_records(path):
    """Load ``Records`` written by ``write_records``."""
    rows = _parse_rows(_lines(path), ",".join(Records.COLUMNS), "record",
                       lambda f: [float(c) for c in f[:5]] + [int(f[5]) if f[5] else 0])
    h, k_left, k_right, v, u, rank = np.array(rows, dtype=float).reshape(-1, 6).T.copy()
    rank = rank.astype(int)
    return Records(h, k_left, k_right, v, u, rank if rank.any() else None)


def write_histogram(hist, path):
    """Persist a histogram (rows bin_lo,bin_hi,count; statistics in a trailer)."""
    edges = np.asarray(hist.edges, dtype=float).tolist()
    ks = "" if hist.ks is None else "%.17g" % hist.ks
    _write_rows(path, ["bin_lo", "bin_hi", "count"], "%.17g,%.17g,%d",
                zip(edges, edges[1:], np.asarray(hist.counts).tolist()),
                "# chi2=%.17g,df=%d,ks=%s\n" % (hist.chi2, hist.chi2_df, ks))


def read_histogram(path):
    """Load a histogram written by ``write_histogram``; the bins must be
    finite, contiguous and increasing, the counts non-negative, and the
    trailer's chi2 and df those of the counts."""
    lines = _lines(path)
    if not lines or not lines[-1][1].startswith("# "):
        raise ArchiveError("unexpected histogram layout", 1)
    rows = _parse_rows(lines[:-1], "bin_lo,bin_hi,count", "histogram",
                       lambda f: (float(f[0]), float(f[1]), int(f[2])))
    if not rows:
        raise ArchiveError("histogram has no bins", 1)
    prev_hi = rows[0][0]
    for (lineno, _), (lo, hi, count) in zip(lines[1:], rows):
        if count < 0:
            raise ArchiveError("negative bin count", lineno)
        if not -np.inf < lo == prev_hi < hi < np.inf:
            raise ArchiveError("bins must be finite, contiguous and increasing", lineno)
        prev_hi = hi
    edges = [lo for lo, _, _ in rows] + [prev_hi]
    try:
        trailer = dict(part.split("=", 1) for part in lines[-1][1][2:].split(","))
        chi2 = float(trailer["chi2"])
        df = int(trailer["df"])
        ks = None if trailer["ks"] == "" else float(trailer["ks"])
    except (ValueError, KeyError):
        raise ArchiveError("malformed histogram trailer", lines[-1][0]) from None
    hist = HistogramResult(np.array([c for _, _, c in rows]), np.array(edges), ks)
    if (chi2, df) != (hist.chi2, hist.chi2_df):
        raise ArchiveError("histogram trailer's chi2 and df disagree with the bins", lines[-1][0])
    return hist


def write_curve(curve, path):
    """Persist a calibration curve (columns w,lhs,rhs)."""
    cols = (np.asarray(c, dtype=float).tolist() for c in (curve.grid, curve.lhs, curve.rhs))
    _write_rows(path, ["w", "lhs", "rhs"], "%.17g,%.17g,%.17g", zip(*cols))


def read_curve(path):
    """Load a curve written by ``write_curve``; every value must lie in [0, 1]."""
    lines = _lines(path)
    rows = _parse_rows(lines, "w,lhs,rhs", "curve", lambda f: [float(c) for c in f])
    if not rows:
        raise ArchiveError("curve has no rows", 1)
    for (lineno, _), row in zip(lines[1:], rows):
        if not all(0.0 <= x <= 1.0 for x in row):
            raise ArchiveError("curve values must lie in [0, 1]", lineno)
    grid, lhs, rhs = np.array(rows).T.copy()
    return ClicalCurve(grid=grid, lhs=lhs, rhs=rhs)


def read_result(path):
    """Load a histogram or a curve written above, told apart by its header line."""
    readers = {"bin_lo,bin_hi,count": read_histogram, "w,lhs,rhs": read_curve}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        head = fh.readline().strip()
    if _not_utf8(head):
        raise ArchiveError("not UTF-8 text", 1)
    if head not in readers:
        raise ArchiveError("unrecognized result file", 1)
    return readers[head](path)


# --- SVG --------------------------------------------------------------------

_W, _H = 640, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 60, _W - 15, 15, _H - 40


def _svg_open(parts):
    parts.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
                 f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">')


def _frame(x0, x1, y0, y1):
    """The maps (px, py) from data in [x0, x1] x [y0, y1] to plot-area pixels."""
    return (lambda x: _LEFT + (x - x0) / (x1 - x0) * (_RIGHT - _LEFT),
            lambda y: _BOTTOM - (y - y0) / (y1 - y0) * (_BOTTOM - _TOP))


def _svg_axes(parts, px, py, xticks, yticks):
    parts.append(f'<line x1="{_LEFT}" y1="{_BOTTOM}" x2="{_RIGHT}" y2="{_BOTTOM}" stroke="black"/>')
    parts.append(f'<line x1="{_LEFT}" y1="{_TOP}" x2="{_LEFT}" y2="{_BOTTOM}" stroke="black"/>')
    for t in xticks:
        x = px(t)
        parts.append(f'<line x1="{x:.2f}" y1="{_BOTTOM}" x2="{x:.2f}" y2="{_BOTTOM + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{_BOTTOM + 18}" text-anchor="middle">{t:g}</text>')
    for t in yticks:
        y = py(t)
        parts.append(f'<line x1="{_LEFT - 5}" y1="{y:.2f}" x2="{_LEFT}" y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end">{t:g}</text>')


def _render_histogram(hist):
    counts = np.asarray(hist.counts)
    edges = np.asarray(hist.edges, dtype=float)
    if counts.size == 0:
        raise ValueError("cannot render an empty histogram")
    expected = hist.n / counts.size
    x0, x1 = float(edges[0]), float(edges[-1])
    ymax = max(float(counts.max()), expected) * 1.1
    ymax = ymax if ymax > 0 else 1.0
    px, py = _frame(x0, x1, 0.0, ymax)
    parts = []
    _svg_open(parts)
    for i, c in enumerate(counts):
        bx = px(edges[i])
        bw = px(edges[i + 1]) - bx
        by = py(float(c))
        parts.append(f'<rect x="{bx:.2f}" y="{by:.2f}" width="{bw:.2f}" '
                     f'height="{_BOTTOM - by:.2f}" fill="#5b8cb8" stroke="white" stroke-width="0.5"/>')
    ey = py(expected)
    parts.append(f'<line x1="{_LEFT}" y1="{ey:.2f}" x2="{_RIGHT}" y2="{ey:.2f}" '
                 f'stroke="#b03030" stroke-dasharray="6 4"/>')
    yticks = [0, round(ymax / 2), round(ymax)] if ymax >= 2 else [0, ymax]
    _svg_axes(parts, px, py, [x0, (x0 + x1) / 2, x1], yticks)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _render_curve(curve):
    grid = np.asarray(curve.grid, dtype=float)
    if grid.size == 0:
        raise ValueError("cannot render an empty curve")
    px, py = _frame(0.0, 1.0, 0.0, 1.0)
    parts = []
    _svg_open(parts)
    parts.append(f'<line x1="{px(0):.2f}" y1="{py(0):.2f}" x2="{px(1):.2f}" y2="{py(1):.2f}" '
                 f'stroke="#b03030" stroke-dasharray="6 4"/>')
    pts = " ".join(f"{px(r):.2f},{py(l):.2f}" for r, l in zip(curve.rhs, curve.lhs))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#2f5d8a" stroke-width="1.5"/>')
    _svg_axes(parts, px, py, [0, 0.5, 1], [0, 0.5, 1])
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
