import csv
import io
import itertools
import json
import sys
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coppit.calibration import ClicalCurve, HistogramResult, Records, histogram, rank_histogram
from coppit.forecasts import (
    CopulaMarginalForecast,
    EnsembleForecast,
    GaussianForecast,
    Normal,
)
from coppit.copulas import ArchimedeanCopula
import coppit.io as coppit_io
from coppit.io import (
    ArchiveError,
    CaseArchive,
    forecast_from_dict,
    forecast_to_dict,
    read_archive,
    read_curve,
    read_histogram,
    read_records,
    render_svg,
    write_archive,
    write_curve,
    write_histogram,
    write_manifest,
    write_ranks,
    write_records,
)


def _random_records(rng, n, with_rank):
    out = []
    for _ in range(n):
        k_left, k_right = np.sort(rng.random(2))
        v = float(rng.random())
        out.append(Records(
            h=float(rng.random()), k_left=float(k_left), k_right=float(k_right),
            v=v, u=float(k_left + v * (k_right - k_left)),
            rank=int(rng.integers(1, 9)) if with_rank else None))
    return Records.stack(out)


def _hist_equal(a, b):
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.edges, b.edges)
    assert a.n == b.n
    assert a.chi2 == b.chi2 and a.chi2_df == b.chi2_df
    assert a.chi2_pvalue == b.chi2_pvalue
    assert a.ks == b.ks and a.ks_pvalue == b.ks_pvalue


def test_records_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(10)
    for with_rank in (False, True):
        recs = _random_records(rng, 40, with_rank)
        path = tmp_path / f"r_{with_rank}.csv"
        write_records(recs, path)
        assert read_records(path) == recs


def test_records_csv_layout(tmp_path):
    recs = Records.stack([Records(h=0.5, k_left=0.25, k_right=0.75, v=0.5, u=0.5, rank=None),
                          Records(h=0.1, k_left=0.1, k_right=0.1, v=0.3, u=0.1, rank=4)])
    path = tmp_path / "records.csv"
    write_records(recs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "h,k_left,k_right,v,u,rank"
    assert lines[1].endswith(",")           # missing rank -> empty trailing field
    assert lines[2].endswith(",4")
    assert len(lines) == 3


def test_histogram_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(11)
    plain = histogram(rng.random(500), bins=20)
    ranks = rank_histogram(rng.integers(1, 10, size=300), m=8)
    for i, hist in enumerate([plain, ranks]):
        path = tmp_path / f"h{i}.csv"
        write_histogram(hist, path)
        _hist_equal(read_histogram(path), hist)


def test_histogram_csv_trailer(tmp_path):
    hist = histogram(np.random.default_rng(3).random(200), bins=10)
    path = tmp_path / "hist.csv"
    write_histogram(hist, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 12                 # header + 10 bins + trailer
    assert lines[-1].startswith("# chi2=") and ",df=9,ks=" in lines[-1]
    counts = [int(ln.split(",")[2]) for ln in lines[1:-1]]
    assert sum(counts) == 200


def test_curve_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(12)
    grid = np.linspace(0.0, 1.0, 101)
    lhs = np.sort(rng.random(101))
    rhs = np.sort(rng.random(101))
    curve = ClicalCurve(grid=grid, lhs=lhs, rhs=rhs)
    path = tmp_path / "c.csv"
    write_curve(curve, path)
    back = read_curve(path)
    assert np.array_equal(back.grid, curve.grid)
    assert np.array_equal(back.lhs, curve.lhs)
    assert np.array_equal(back.rhs, curve.rhs)
    assert back.max_abs_gap == curve.max_abs_gap == float(np.max(np.abs(lhs - rhs)))


def _gumbel_forecast(tau=0.5):
    cop = ArchimedeanCopula("gumbel", tau=tau, dim=2)
    return CopulaMarginalForecast(cop, [Normal(1.0, 2.0), Normal(-0.5, 0.7)])


def _with_copula(copula, dim=2):
    """A copula_marginal descriptor around a copula descriptor, standard normal margins."""
    return {"type": "copula_marginal", "copula": copula,
            "margins": [{"dist": "normal", "mu": 0.0, "sigma": 1.0}] * dim}


def test_descriptor_roundtrips():
    cases = [
        EnsembleForecast([[0.0, 1.0], [2.0, -1.0]]),
        GaussianForecast([0.5, -1.0], [[2.0, 0.8], [0.8, 1.0]]),
        _gumbel_forecast(),
    ]
    for f in cases:
        assert forecast_from_dict(forecast_to_dict(f)) == f
    # archives keep this key order: type first, then family, dim, theta and dist, mu, sigma
    assert json.dumps(forecast_to_dict(_gumbel_forecast())) == (
        '{"type": "copula_marginal", "copula": {"family": "gumbel", "dim": 2, "theta": 2.0}, '
        '"margins": [{"dist": "normal", "mu": 1.0, "sigma": 2.0}, '
        '{"dist": "normal", "mu": -0.5, "sigma": 0.7}]}')

    c = ArchimedeanCopula("gumbel", tau=0.5, dim=3)
    d = forecast_to_dict(CopulaMarginalForecast(c, [Normal(0.0, 1.0)] * 3))["copula"]
    assert d == {"family": "gumbel", "dim": 3, "theta": c.theta}
    assert forecast_from_dict(_with_copula(d, 3)).copula == c
    assert forecast_from_dict(_with_copula({"family": "gumbel", "tau": 0.5, "dim": 3}, 3)).copula == c
    ind = CopulaMarginalForecast(ArchimedeanCopula("independence", dim=2), [Normal(0.0, 1.0)] * 2)
    assert forecast_from_dict(forecast_to_dict(ind)) == ind


def test_descriptor_validation():
    with pytest.raises(ValueError):
        forecast_from_dict({"points": [[0.0]]})
    with pytest.raises(ValueError):
        forecast_from_dict({"type": "banana"})
    with pytest.raises(ValueError):
        forecast_from_dict({"type": "ensemble"})
    with pytest.raises(ValueError):
        forecast_from_dict({"type": "ensemble", "points": [[0.0]], "extra": 1})
    with pytest.raises(ValueError):
        forecast_from_dict({"type": "mvgauss", "mean": [0, 0]})
    with pytest.raises(ValueError, match="numbers only"):
        forecast_from_dict({"type": "ensemble", "points": [["1.5", True], [0.0, 1.0]]})
    with pytest.raises(ValueError, match="shape"):
        forecast_from_dict({"type": "ensemble", "points": [[], []]})
    with pytest.raises(ValueError, match="numbers only"):
        forecast_from_dict({"type": "mvgauss", "mean": [0, 0], "cov": [["1", 0.2], [0.2, True]]})
    assert forecast_from_dict({"type": "ensemble", "points": [[np.float64(1.5), 2]]}) \
        == EnsembleForecast([[1.5, 2.0]])
    with pytest.raises(ValueError):
        forecast_from_dict({"type": "copula_marginal",
                            "copula": {"family": "gumbel", "theta": 2.0, "dim": 2},
                            "margins": [{"dist": "lognormal", "mu": 0, "sigma": 1},
                                        {"dist": "normal", "mu": 0, "sigma": 1}]})

    with pytest.raises(ValueError):
        forecast_from_dict(_with_copula({"family": "gumbel", "theta": 2.0, "tau": 0.5, "dim": 2}))
    with pytest.raises(ValueError):
        forecast_from_dict(_with_copula({"family": "gumbel", "theta": 2.0}))
    with pytest.raises(ValueError):
        forecast_from_dict(_with_copula({"family": "gumbel", "theta": 2.0, "dim": 2, "color": "red"}))
    for field, value in (("theta", "2"), ("theta", True), ("tau", "0.5")):
        with pytest.raises(ValueError, match="numbers only"):
            forecast_from_dict(_with_copula({"family": "gumbel", field: value, "dim": 2}))
    with pytest.raises(ValueError, match="copula descriptor must be an object, got list"):
        forecast_from_dict(_with_copula(["gumbel", 2.0]))


def test_jsonl_archive_roundtrip(tmp_path):
    cop = ArchimedeanCopula("gumbel", theta=2.0)
    cases = [
        (EnsembleForecast([[0.0, 1.0], [2.0, -1.0], [0.5, 0.25]]), np.array([0.1, 0.2])),
        (GaussianForecast([0.0, 1.0], [[1.0, 0.3], [0.3, 2.0]]), np.array([-1.0, 0.5])),
        (CopulaMarginalForecast(cop, [Normal(0.0, 1.0), Normal(1.0, 2.0)]),
         np.array([0.7, -0.3])),
    ]
    archive = CaseArchive(dim=2, cases=tuple(cases), metadata={"label": "demo", "seed": 7})
    path = tmp_path / "cases.jsonl"
    write_archive(archive, path)
    back = read_archive(path)
    assert back.dim == 2
    assert back.metadata == {"label": "demo", "seed": 7}
    assert len(back.cases) == 3
    for (fc, y), (fc2, y2) in zip(cases, back.cases):
        assert fc2 == fc
        assert np.array_equal(y2, y)


def test_jsonl_two_line_ensemble_file(tmp_path):
    path = tmp_path / "two.jsonl"
    path.write_text(
        '{"forecast": {"type": "ensemble", "points": [[0, 0], [1, 1]]}, "y": [0.5, 0.5]}\n'
        '{"forecast": {"type": "ensemble", "points": [[2, 2], [3, 3]]}, "y": [2.5, 2.5]}\n')
    archive = read_archive(path)
    assert archive.dim == 2 and len(archive.cases) == 2
    out = tmp_path / "copy.jsonl"
    write_archive(archive, out)
    back = read_archive(out)
    for (fc, y), (fc2, y2) in zip(archive.cases, back.cases):
        assert fc2 == fc and np.array_equal(y2, y)


def test_jsonl_archive_errors(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": [0, 0]}\n'
                    "{nope\n")
    with pytest.raises(ArchiveError, match="line 2"):
        read_archive(path)

    path.write_text('{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": [0, 0]}\n'
                    '{"forecast": {"type": "ensemble", "points": [[0, 0, 0]]}, "y": [0, 0, 0]}\n')
    with pytest.raises(ArchiveError, match="line 2.*dimension"):
        read_archive(path)

    path.write_text('{"forecast": {"type": "warp"}, "y": [0]}\n')
    with pytest.raises(ArchiveError, match="line 1"):
        read_archive(path)

    path.write_text('{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": [0]}\n')
    with pytest.raises(ArchiveError, match="line 1.*coordinates"):
        read_archive(path)

    path.write_text('{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": [0, 0]}\n'
                    '{"forecast": {"type": "copula_marginal", "copula": {"family": "independence", '
                    '"tau": 0.5, "dim": 2}, "margins": [{"dist": "normal", "mu": 0, "sigma": 1}, '
                    '{"dist": "normal", "mu": 0, "sigma": 1}]}, "y": [0, 0]}\n')
    with pytest.raises(ArchiveError, match="line 2.*tau = 0"):
        read_archive(path)

    path.write_text('{"forecast": {"type": "ensemble", "points": [[], []]}, "y": []}\n')
    with pytest.raises(ArchiveError, match="line 1.*m, d >= 1"):
        read_archive(path)

    normal = '{"dist": "normal", "mu": 0, "sigma": 1}'
    copula = ('{"type": "copula_marginal", "copula": {"family": "gumbel", %s, "dim": 2}, '
              '"margins": [%s, %s]}')
    for field, forecast in [
            ("ensemble 'points'", '{"type": "ensemble", "points": [["1.5", true], [0, 0]]}'),
            ("ensemble 'points'", '{"type": "ensemble", "points": [[1.5, true], [0, 0]]}'),
            ("mvgauss 'mean'", '{"type": "mvgauss", "mean": [0, null], "cov": [[1, 0], [0, 1]]}'),
            ("mvgauss 'cov'",
             '{"type": "mvgauss", "mean": [0, 0], "cov": [["1", 0.2], [0.2, true]]}'),
            ("copula 'theta'", copula % ('"theta": "2"', normal, normal)),
            ("copula 'tau'", copula % ('"tau": false', normal, normal)),
            ("margin 'sigma'", copula % ('"theta": 2', normal, normal.replace("1}", "true}"))),
    ]:
        path.write_text('{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": [0, 0]}\n'
                        '{"forecast": %s, "y": [0, 0]}\n' % forecast)
        with pytest.raises(ArchiveError, match=f"line 2.*{field} must hold numbers only"):
            read_archive(path)

    # a JSON integer past the float range is no number: float() would overflow
    big = str(10**400)
    for field, forecast in [
            ("ensemble 'points'", '{"type": "ensemble", "points": [[0, %s], [0, 0]]}' % big),
            ("mvgauss 'mean'",
             '{"type": "mvgauss", "mean": [0, -%s], "cov": [[1, 0], [0, 1]]}' % big),
            ("mvgauss 'cov'",
             '{"type": "mvgauss", "mean": [0, 0], "cov": [[1, 0], [0, %s]]}' % big),
            ("copula 'theta'", copula % ('"theta": %s' % big, normal, normal)),
            ("copula 'tau'", copula % ('"tau": %s' % big, normal, normal)),
            ("margin 'mu'",
             copula % ('"theta": 2', normal, normal.replace('"mu": 0', '"mu": ' + big))),
            ("margin 'sigma'", copula % ('"theta": 2', normal, normal.replace("1}", big + "}"))),
    ]:
        path.write_text('{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": [0, 0]}\n'
                        '{"forecast": %s, "y": [0, 0]}\n' % forecast)
        with pytest.raises(ArchiveError, match=f"line 2.*{field} must hold numbers only, got an "
                                               "integer past the float range"):
            read_archive(path)
    # ragged lists, a list in a one-number field, and 'margins' that is no list
    margins = '{"type": "copula_marginal", "copula": {"family": "gumbel", "theta": 2, "dim": 2}, ' \
              '"margins": %s}'
    for message, forecast in [
            ("ensemble 'points' must be evenly nested lists",
             '{"type": "ensemble", "points": [[1, 2], [3]]}'),
            ("mvgauss 'cov' must be evenly nested lists",
             '{"type": "mvgauss", "mean": [0, 0], "cov": [[1, 0], [0]]}'),
            ("copula 'theta' must be one number, got a list",
             copula % ('"theta": [2.0, 3.0]', normal, normal)),
            ("copula 'tau' must be one number, got a list", copula % ('"tau": [0.5]', normal, normal)),
            ("margin 'mu' must be one number, got a list",
             copula % ('"theta": 2', normal.replace('"mu": 0', '"mu": [0]'), normal)),
            ("margin 'sigma' must be one number, got a list",
             copula % ('"theta": 2', normal, normal.replace("1}", "[1]}"))),
            ("copula_marginal 'margins' must be a list, got int", margins % "5"),
            ("copula_marginal 'margins' must be a list, got dict", margins % normal),
            ("copula_marginal 'margins' must be a list, got str", margins % '"normal"'),
    ]:
        path.write_text('{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": [0, 0]}\n'
                        '{"forecast": %s, "y": [0, 0]}\n' % forecast)
        with pytest.raises(ArchiveError, match=f"^line 2: bad forecast descriptor: {message}$"):
            read_archive(path)
    # ints up to the largest float are numbers, as are their floats
    path.write_text('{"forecast": {"type": "ensemble", "points": [[0, %d]]}, "y": [0, 0]}\n'
                    % int(sys.float_info.max))
    assert read_archive(path).cases[0][0].points[0, 1] == sys.float_info.max
    # Python refuses to parse an int of more than 4300 digits
    for y in (f"[0, {big}]", big, "[0, 1%s]" % ("0" * 5000)):
        path.write_text('{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": [0, 0]}\n'
                        '{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": %s}\n' % y)
        with pytest.raises(ArchiveError, match="line 2"):
            read_archive(path)

    for y in ("[[0], [1]]", "[true, false]", '["a", "b"]', "true"):
        path.write_text('{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": [0, 0]}\n'
                        '{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": %s}\n' % y)
        with pytest.raises(ArchiveError, match="line 2.*'y'"):
            read_archive(path)

    path.write_text("\n")
    with pytest.raises(ArchiveError, match="no cases"):
        read_archive(path)



_NUMBERS = st.one_of(st.floats(), st.integers(),
                     st.sampled_from([int(sys.float_info.max), 2**1024, -10**400, 10**400]))
_JSON_SCALARS = st.one_of(_NUMBERS, st.booleans(), st.none(), st.text(max_size=3))


@st.composite
def _even_lists(draw):
    """A number, or evenly nested lists of numbers of a drawn shape."""
    shape = draw(st.lists(st.integers(0, 3), max_size=3))
    flat = draw(st.lists(_NUMBERS, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(flat, dtype=object).reshape(shape).tolist()


_JSON_VALUES = st.one_of(
    _JSON_SCALARS, _even_lists(),
    st.recursive(_JSON_SCALARS, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner, max_size=2)),
        max_leaves=8))

_NORMAL = {"dist": "normal", "mu": 0.0, "sigma": 1.0}
_DESCRIPTORS = {
    "ensemble": {"type": "ensemble", "points": [[0.0, 1.0], [1.0, 0.0]]},
    "mvgauss": {"type": "mvgauss", "mean": [0.0, 0.0], "cov": [[1.0, 0.5], [0.5, 1.0]]},
    "theta": {"type": "copula_marginal", "copula": {"family": "gumbel", "theta": 2.0, "dim": 2},
              "margins": [_NORMAL, _NORMAL]},
    "tau": {"type": "copula_marginal", "copula": {"family": "clayton", "tau": 0.5, "dim": 2},
            "margins": [_NORMAL, _NORMAL]},
}
# (descriptor, path to the field) for every numeric field, and for 'margins'
_FIELDS = [("ensemble", ("points",)), ("mvgauss", ("mean",)), ("mvgauss", ("cov",)),
           ("theta", ("copula", "theta")), ("theta", ("copula", "dim")), ("tau", ("copula", "tau")),
           ("theta", ("margins",)), ("theta", ("margins", 0, "mu")), ("tau", ("margins", 1, "sigma"))]


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(_FIELDS), value=_JSON_VALUES)
def test_descriptor_fields_fuzz(tmp_path_factory, field, value):
    """Whatever JSON value a descriptor field holds, a one-line archive reads
    or raises an ArchiveError naming line 1, never a Python or numpy internal."""
    kind, keys = field
    forecast = json.loads(json.dumps(_DESCRIPTORS[kind]))
    parent = forecast
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
    path.write_text(json.dumps({"forecast": forecast, "y": [0.5, 0.5]}) + "\n")
    try:
        read_archive(path)
    except ArchiveError as exc:
        text = str(exc)
        assert text.startswith("line 1: "), text
        for internal in ("inhomogeneous", "setting an array element", "float() argument",
                         "is not iterable", "has no attribute"):
            assert internal not in text, text


def test_csv_archive_reads_three_cases(tmp_path):
    d, m = 2, 8
    rng = np.random.default_rng(21)
    rows = rng.standard_normal((3, d + m * d))
    header = "y1,y2," + ",".join(f"x{k}_{i}" for k in range(1, m + 1) for i in range(1, d + 1))
    path = tmp_path / "cases.csv"
    path.write_text(header + "\n" + "\n".join(
        ",".join(format(v, ".17g") for v in row) for row in rows) + "\n")
    archive = read_archive(path)
    assert archive.dim == 2 and len(archive.cases) == 3
    for row, (fc, y) in zip(rows, archive.cases):
        assert isinstance(fc, EnsembleForecast)
        assert np.array_equal(y, row[:d])
        assert np.array_equal(fc.points, row[d:].reshape(m, d))


def test_csv_archive_roundtrip(tmp_path):
    rng = np.random.default_rng(22)
    cases = tuple((EnsembleForecast(rng.standard_normal((4, 3))), rng.standard_normal(3))
                  for _ in range(5))
    archive = CaseArchive(dim=3, cases=cases, metadata={})
    path = tmp_path / "ens.csv"
    write_archive(archive, path)
    back = read_archive(path)
    for (fc, y), (fc2, y2) in zip(cases, back.cases):
        assert fc2 == fc and np.array_equal(y2, y)


def test_csv_archive_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ArchiveError, match="line 1"):
        read_archive(path)

    path.write_text("y1,y2,x1_1,x1_2\n1,2,3\n")
    with pytest.raises(ArchiveError, match="line 2.*4 fields"):
        read_archive(path)

    path.write_text("y1,y2,x1_1,x1_2\n1,2,three,4\n")
    with pytest.raises(ArchiveError, match="line 2.*non-numeric"):
        read_archive(path)

    path.write_text("y1,y2,x1_1\n")
    with pytest.raises(ArchiveError, match="line 1"):
        read_archive(path)

    # each row is checked in full before the next: a non-finite row is
    # reported at its own line, not at a later short or non-numeric row
    for rows, message in [("1,2,3,4\n1,2,nan,4", "line 3: ensemble points must be finite"),
                          ("1,2,3,4\n1,2,inf,4", "line 3: ensemble points must be finite"),
                          ("1,2,nan,4\n1,2,3", "line 2: ensemble points must be finite"),
                          ("nan,2,-inf,4", "line 2: ensemble points must be finite"),
                          ("1,2,3,4\n1,inf,3,4\n1,2,x,4",
                           "line 3: outcome coordinates must be finite")]:
        path.write_text("y1,y2,x1_1,x1_2\n%s\n" % rows)
        with pytest.raises(ArchiveError, match=f"^{message}$"):
            read_archive(path)

    # every value is finite, only their sum overflows
    path.write_text("y1,y2,x1_1,x1_2\n" + ",".join(["1e308"] * 4) + "\n")
    (fc, y), = read_archive(path).cases
    assert np.array_equal(fc.points, [[1e308, 1e308]]) and np.array_equal(y, [1e308, 1e308])

    # float() reads digit-group underscores: "1_0" would be 10.0
    for row in ("1_0,0.5,3,4", "1,2,3,4_5", "1,2,_3,4", "1,2,3.5_0,4", "1,2,1e1_0,4"):
        path.write_text("y1,y2,x1_1,x1_2\n1,2,3,4\n%s\n" % row)
        with pytest.raises(ArchiveError, match="^line 3: non-numeric field$"):
            read_archive(path)

    mixed = CaseArchive(dim=2, cases=(
        (EnsembleForecast([[0.0, 0.0]]), np.zeros(2)),
        (GaussianForecast([0.0, 0.0], np.eye(2)), np.zeros(2))), metadata={})
    with pytest.raises(ValueError, match="ensemble"):
        write_archive(mixed, tmp_path / "mixed.csv")


def test_csv_archive_refuses_metadata(tmp_path):
    cases = ((EnsembleForecast([[0.0, 1.0], [2.0, 3.0]]), np.zeros(2)),)
    path = tmp_path / "meta.csv"
    archive = CaseArchive(dim=2, cases=cases, metadata={"source": "toy", "seed": 7})
    with pytest.raises(ValueError, match=r"metadata.*\['seed', 'source'\]"):
        write_archive(archive, path)
    assert not path.exists()
    write_archive(archive, tmp_path / "meta.jsonl")  # JSON lines keep it
    assert read_archive(tmp_path / "meta.jsonl").metadata == {"source": "toy", "seed": 7}
    write_archive(CaseArchive(dim=2, cases=cases, metadata={}), path)
    assert read_archive(path).metadata == {}


def test_result_files_skip_whitespace_lines(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text(" w,lhs,rhs\n0,0,0 \n   \n\t\n1,1,1\n")
    back = read_curve(path)
    assert back.grid.tolist() == [0.0, 1.0] and back.lhs.tolist() == [0.0, 1.0]
    path.write_text("w,lhs,rhs\n0,0,0\n  \n0.5,0.5\n")
    with pytest.raises(ArchiveError, match="^line 4: malformed curve row$"):
        read_curve(path)


def _validated(path):
    """The archive as the per-line validator alone reads it."""
    cases = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        metadata = coppit_io._validate_lines(coppit_io._numbered(fh), cases, {})
    if not cases:
        raise ArchiveError("archive contains no cases")
    return CaseArchive(dim=cases[0][0].dim, cases=tuple(cases), metadata=metadata)


def _read_both(path, block_lines):
    """(read_archive's result, the validator's) for ``path``: an archive, or
    the text of the ArchiveError raised."""
    out = []
    for read in (read_archive, _validated):
        try:
            with mock.patch.object(coppit_io, "_BLOCK_LINES", block_lines):
                out.append(read(path))
        except ArchiveError as exc:
            out.append(str(exc))
    return out


def _assert_same_archive(a, b):
    assert a.dim == b.dim and a.metadata == b.metadata and len(a.cases) == len(b.cases)
    for (fc, y), (fc2, y2) in zip(a.cases, b.cases):
        assert type(fc) is type(fc2) and fc.dim == fc2.dim
        if isinstance(fc, EnsembleForecast):
            assert fc.m == fc2.m
            assert (fc.points.dtype, fc.points.shape) == (fc2.points.dtype, fc2.points.shape)
            assert fc.points.tobytes() == fc2.points.tobytes()
        else:
            assert fc == fc2
        assert (y.dtype, y.shape, y.tobytes()) == (y2.dtype, y2.shape, y2.tobytes())


# number texts as JSON writes them, and the ones it reads but never writes
_NUMBER_TEXTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True,
              min_value=-1e-300, max_value=1e-300).map(json.dumps),
    st.integers().map(str),
    st.integers(-2**1023, 2**1023).map(str),
    st.sampled_from(["-0", "0", "-0.0", "5e-324", "-2.225073858507201e-308", "1E5", "1e+5",
                     "0.30000000000000004", "1.7976931348623157e308", "-1.7976931348623157e+308",
                     str(2**53 + 1), str(-2**64 - 3), str(int(sys.float_info.max))]),
)


@st.composite
def _canonical_archives(draw):
    """(metadata line or None, per case the token texts of its m members and
    of y, d): a canonical ensemble archive before it is written out."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 7))
    cases = [([draw(st.lists(_NUMBER_TEXTS, min_size=d, max_size=d)) for _ in range(m)],
              draw(st.lists(_NUMBER_TEXTS, min_size=d, max_size=d))) for _ in range(n)]
    metadata = draw(st.one_of(st.none(), st.just('{"metadata": {"seed": 7}}')))
    return metadata, cases


def _canonical_line(points, y):
    pts = ", ".join("[%s]" % ", ".join(member) for member in points)
    return '{"forecast": {"type": "ensemble", "points": [%s]}, "y": [%s]}' % (pts, ", ".join(y))


def _write_lines(path, metadata, lines, newline="\n"):
    path.write_text("".join(line + newline for line in ([metadata] if metadata else []) + lines))


@settings(max_examples=200, deadline=None)
@given(archive=_canonical_archives(), block_lines=st.integers(1, 4), crlf=st.booleans())
def test_block_path_matches_validator(tmp_path_factory, archive, block_lines, crlf):
    """On canonical archives the block path gives, bit for bit, the
    validator's archive: subnormals, -0.0 and -0, 17-digit reprs, ints past
    2**53, d = 1 and d > 1, any m, any block boundary."""
    metadata, cases = archive
    path = tmp_path_factory.getbasetemp() / "canonical.jsonl"
    _write_lines(path, metadata, [_canonical_line(p, y) for p, y in cases], "\r\n" if crlf else "\n")
    _assert_same_archive(*_read_both(path, block_lines))


_BAD_NUMBERS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "01", "-01", "1.", "+1", ".5",
                "1e", "-", "true", "null", '"1"', str(10**400), str(-10**400),
                str(int(sys.float_info.max) + 1), str(int(sys.float_info.max)), "1" + "0" * 5000]
_MVGAUSS = '{"forecast": {"type": "mvgauss", "mean": [0, 0], "cov": [[1, 0], [0, 1]]}, "y": [0, 0]}'


def _changed_line(kind, points, y, token):
    """A canonical line changed as ``kind`` says, or, for a kind from
    ``_BAD_NUMBERS``, with that text in place of its ``token``-th number."""
    if kind in _BAD_NUMBERS:
        numbers = [t for member in points for t in member] + y
        numbers[token % len(numbers)] = kind
        d = len(y)
        return _canonical_line([numbers[i:i + d] for i in range(0, len(numbers) - d, d)],
                               numbers[-d:])
    obj = {"forecast": {"type": "ensemble", "points": [[json.loads(t) for t in member]
                                                        for member in points]},
           "y": [json.loads(t) for t in y]}
    return {
        "key order": lambda: json.dumps({"y": obj["y"], "forecast": obj["forecast"]}),
        "compact": lambda: json.dumps(obj, separators=(",", ":")),
        "mvgauss": lambda: _MVGAUSS,
        "ragged": lambda: _canonical_line([points[0][:-1] or ["0", "0"]] + points[1:], y),
        "more members": lambda: _canonical_line(points + points[:1], y),
        "another d": lambda: _canonical_line([member + ["0"] for member in points], y + ["0"]),
        "metadata": lambda: '{"metadata": {}}',
        "y number": lambda: _canonical_line(points, y)[:-len(", ".join(y)) - 3] + y[0] + "}",
    }[kind]()


@pytest.mark.parametrize("kind", _BAD_NUMBERS + [
    "key order", "compact", "mvgauss", "ragged", "more members", "another d", "metadata",
    "y number"], ids=lambda kind: kind if len(kind) < 20 else f"{kind[:2]}..{kind[-2:]}({len(kind)})")
@settings(max_examples=25, deadline=None)
@given(archive=_canonical_archives(), token=st.integers(0, 50), at=st.integers(0, 6),
       block_lines=st.integers(1, 4))
def test_block_path_changed_line(tmp_path_factory, kind, archive, token, at, block_lines):
    """One line of a canonical archive changed: another key order or
    spacing, another kind, a ragged member, another m or d, NaN, 1e400, 01,
    1., +1, an int past the float range or Python's digit limit.  The
    block path reads it as the validator does, with the same ArchiveError
    text and line."""
    metadata, cases = archive
    lines = [_canonical_line(p, y) for p, y in cases]
    at %= len(lines)
    lines[at] = _changed_line(kind, *cases[at], token)
    path = tmp_path_factory.getbasetemp() / "changed.jsonl"
    _write_lines(path, metadata, lines)
    block, validated = _read_both(path, block_lines)
    if isinstance(validated, str):
        assert block == validated
        if kind in _BAD_NUMBERS:
            assert validated.startswith(f"line {at + 1 + bool(metadata)}: "), validated
    else:
        _assert_same_archive(block, validated)


def test_block_path_reads_written_archives(tmp_path, monkeypatch):
    """An archive that ``write_archive`` writes never reaches the per-case
    descriptor check, with a leading metadata line, blank lines and CRLF
    endings; an archive of other kinds leaves the block path at its first
    case line and reads the file once."""
    rng = np.random.default_rng(29)
    cases = tuple((EnsembleForecast(rng.standard_normal((5, 3))), rng.standard_normal(3))
                  for _ in range(700))  # three blocks
    path = tmp_path / "ensemble.jsonl"
    write_archive(CaseArchive(dim=3, cases=cases, metadata={"seed": 29}), path)
    lines = path.read_text().splitlines()
    path.write_bytes("\r\n".join(lines[:300] + [""] + lines[300:] + ["", ""]).encode())

    def refuse(d):
        raise AssertionError("forecast_from_dict called")

    calls = []
    validate = coppit_io._validate_lines

    def spy(lines, cases, metadata):
        lines = list(lines)
        calls.append([n for n, _ in lines])
        return validate(lines, cases, metadata)

    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(coppit_io, "_validate_lines", spy)
    monkeypatch.setattr(coppit_io, "open", counting_open, raising=False)
    with monkeypatch.context() as patch:
        patch.setattr(coppit_io, "forecast_from_dict", refuse)
        back = read_archive(path)
    assert back.metadata == {"seed": 29} and len(back.cases) == len(cases)
    for (fc, y), (fc2, y2) in zip(cases, back.cases):
        assert fc2 == fc and np.array_equal(y2, y)
    assert calls == [[1], []] and opened == [path]  # the validator reads the metadata line only

    cop = ArchimedeanCopula("gumbel", theta=2.0)
    mixed = tuple((GaussianForecast([0.0, 1.0], [[1.0, 0.3], [0.3, 2.0]]), np.array([0.5, -1.0]))
                  if i % 2 else (CopulaMarginalForecast(cop, [Normal(0.0, 1.0)] * 2), np.zeros(2))
                  for i in range(6))
    write_archive(CaseArchive(dim=2, cases=mixed, metadata={"seed": 29}), path)
    calls.clear()
    opened.clear()
    assert len(read_archive(path).cases) == 6
    assert calls == [[1], [2, 3, 4, 5, 6, 7]] and opened == [path]


def test_block_path_not_utf8(tmp_path):
    """A byte that is not UTF-8 raises "not UTF-8 text" at its line, on the
    metadata line, on the first case line and after a full block, on both
    paths; UTF-8 text beyond ASCII still reads."""
    line = _canonical_line([["0", "1"], ["2", "3"]], ["0.5", "-1"]).encode()
    full = [line] * coppit_io._BLOCK_LINES
    path = tmp_path / "bytes.jsonl"
    for lines, at in [([b'{"metadata": {"note": "\xff"}}', line], 1),
                      ([b'{"metadata": {}}', line.replace(b"0.5", b"0.\xff5")], 2),
                      ([line, b"\xff"], 2),
                      (full + [line.replace(b'"y"', b'"\xe9"')], len(full) + 1),
                      (full + [line[:-1] + b"\xc3"], len(full) + 1)]:
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert _read_both(path, coppit_io._BLOCK_LINES) == [f"line {at}: not UTF-8 text"] * 2
    path.write_bytes('{"metadata": {"note": "\u00e9\u00df"}}\n'.encode() + line + b"\n")
    assert read_archive(path).metadata == {"note": "\u00e9\u00df"}


def test_csv_archive_not_utf8(tmp_path):
    """A CSV archive reports a byte that is not UTF-8 at its line, before
    any other check of that line."""
    path = tmp_path / "bytes.csv"
    for text, at in [(b"y1,y2,x1_\xff,x1_2\n1,2,3,4\n", 1),
                     (b"y1,y2,x1_1,x1_2\n1,2,3,4\n1,\xff,3,4\n", 3),
                     (b"y1,y2,x1_1,x1_2\n1,2,\xe93\n", 2)]:
        path.write_bytes(text)
        with pytest.raises(ArchiveError, match=f"^line {at}: not UTF-8 text$"):
            read_archive(path)


def _loads(loads, text):
    """``loads(text)``, or None where it refuses the text."""
    try:
        return loads(text)
    except ValueError:
        return None


def _decoder_tokens():
    """Number-like tokens: every one of up to 5 characters over ``-+.019eE``,
    and a seeded fuzz of 17-digit reprs, subnormals, ``%.16e`` strings and
    long digit strings with exponents from -340 to 310."""
    tokens = ["".join(t) for n in range(1, 6) for t in itertools.product("-+.019eE", repeat=n)]
    rng = np.random.default_rng(32)
    floats = rng.integers(0, 2**64, 3000, dtype=np.uint64).view(np.float64)
    subnormals = rng.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
    for x in floats[np.isfinite(floats)].tolist() + subnormals.tolist():
        tokens += [repr(x), "%.17g" % x, "%.16e" % x]
    for _ in range(3000):
        digits = "".join(map(str, rng.integers(0, 10, rng.integers(1, 60))))
        point = int(rng.integers(0, len(digits) + 1))
        mantissa = digits[:point] + ("." + digits[point:] if point < len(digits) else "")
        tokens.append("%s%se%d" % (rng.choice(["", "-"]), mantissa or "0", rng.integers(-340, 311)))
    return tokens


def test_block_decoder_matches_json(tmp_path):
    """The block path's decoder, orjson, against stdlib ``json``, with each
    token first, in the middle and last of a list: orjson never accepts what
    ``json`` refuses, where both accept the float64 bits are equal, and where
    only ``json`` accepts, the block path still gives the validator's archive."""
    only_json = set()
    for token in _decoder_tokens():
        for text in (f"[{token}, 0]", f"[0, {token}, 0]", f"[0, {token}]"):
            ours, theirs = _loads(orjson.loads, text), _loads(json.loads, text)
            if theirs is None:
                assert ours is None, text
            elif ours is None:
                only_json.add(token)
            else:
                assert np.array(ours, float).tobytes() == np.array(theirs, float).tobytes(), text
    assert only_json  # numbers json reads as infinite, such as 1e400
    path = tmp_path / "decoder.jsonl"
    for token in sorted(only_json):
        for points, y in [([[token], ["0"]], ["1"]), ([["0"], [token]], ["1"]),
                          ([["0"], ["1"]], [token])]:
            _write_lines(path, None, [_canonical_line([["0"], ["1"]], ["2"]),
                                      _canonical_line(points, y)])
            block, validated = _read_both(path, 4)
            if isinstance(validated, str):
                assert block == validated
            else:
                _assert_same_archive(block, validated)


def test_result_file_row_errors(tmp_path):
    hist = tmp_path / "hist.csv"
    write_histogram(histogram(np.random.default_rng(4).random(50), bins=4), hist)
    lines = hist.read_text().splitlines()
    hist.write_text("\n".join(lines[:2] + ["0.25,0.5"] + lines[3:]) + "\n")
    with pytest.raises(ArchiveError, match="line 3.*histogram row"):
        read_histogram(hist)
    hist.write_text("\n".join(lines[:-1] + ["# chi2=1.5"]) + "\n")
    with pytest.raises(ArchiveError, match="line 6.*trailer"):
        read_histogram(hist)

    curve = tmp_path / "curve.csv"
    curve.write_text("w,lhs,rhs\n0,0,0\n\n0.5,0.5\n1,1,1\n")
    with pytest.raises(ArchiveError, match="line 4.*curve row"):
        read_curve(curve)

    records = tmp_path / "records.csv"
    records.write_text("h,k_left,k_right,v,u,rank\n0.5,0.5,0.5,0.1,0.5,\n0.5,0.5,0.5,0.1\n")
    with pytest.raises(ArchiveError, match="line 3.*record row"):
        read_records(records)


@pytest.mark.parametrize("tamper", ["count", "chi2", "df"])
def test_histogram_rejects_tampered_trailer(tmp_path, tamper):
    path = tmp_path / "hist.csv"
    hist = histogram(np.random.default_rng(5).random(60), bins=4)
    write_histogram(hist, path)
    lines = path.read_text().splitlines()
    if tamper == "count":  # a bin moved, the trailer kept: the chi2 no longer matches
        lo, hi, count = lines[1].split(",")
        lines[1] = f"{lo},{hi},{int(count) + 1}"
    else:
        trailer = dict(part.split("=", 1) for part in lines[-1][2:].split(","))
        trailer[tamper] = "1" if tamper == "chi2" else "5"
        lines[-1] = "# " + ",".join(f"{k}={v}" for k, v in trailer.items())
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ArchiveError, match="line 6.*trailer.*disagree"):
        read_histogram(path)


TRAILER = "# chi2=1,df=1,ks=\n"


@pytest.mark.parametrize("body, match", [
    ("0,0.5,-3\n0.5,1,2\n", "line 2.*negative"),          # negative count
    ("0,0.2,3\n0.7,1,2\n", "line 3.*contiguous"),          # gap between bins
    ("0,0.5,3\n0.5,0.5,2\n", "line 3.*increasing"),        # empty bin
    ("0,0.5,3\n0.5,0.25,2\n", "line 3.*increasing"),       # decreasing edges
    ("nan,0.5,3\n0.5,1,2\n", "line 2.*finite"),
    ("-inf,0.5,3\n0.5,1,2\n", "line 2.*finite"),
    ("0,0.5,3\n0.5,inf,2\n", "line 3.*finite"),
    ("", "line 1.*no bins"),                                # trailer but no bin rows
], ids=["negative", "gap", "empty-bin", "decreasing", "nan", "-inf", "inf", "no-bins"])
def test_histogram_rejects_bad_bins(tmp_path, body, match):
    path = tmp_path / "hist.csv"
    path.write_text("bin_lo,bin_hi,count\n" + body + TRAILER)
    with pytest.raises(ArchiveError, match=match):
        read_histogram(path)


@pytest.mark.parametrize("body, match", [
    ("", "line 1.*no rows"),
    ("0,0,0\n0.5,nan,0.5\n", "line 3.*\\[0, 1\\]"),
    ("0,0,0\n0.5,0.5,inf\n", "line 3.*\\[0, 1\\]"),
    ("0,0,-0.25\n", "line 2.*\\[0, 1\\]"),
    ("1.5,1,1\n", "line 2.*\\[0, 1\\]"),
], ids=["no-rows", "nan", "inf", "negative", "above-one"])
def test_curve_rejects_bad_values(tmp_path, body, match):
    path = tmp_path / "curve.csv"
    path.write_text("w,lhs,rhs\n" + body)
    with pytest.raises(ArchiveError, match=match):
        read_curve(path)


EXTREMES = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1]


def _csv_reference(header, rows):
    """What csv.writer writes for rows of format(x, ".17g") floats and ints."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(x, ".17g") if isinstance(x, float) else x for x in row])
    return buf.getvalue().encode()


def test_writers_match_csv_reference(tmp_path):
    path = tmp_path / "out.csv"
    vals = EXTREMES
    cols = [np.roll(vals, k) for k in range(5)]
    m = 6
    for rank in (None, np.array([0, m + 1, 1, 0, 3, m + 1, 2])):
        write_records(Records(*cols, rank=rank), path)
        ranks = [""] * len(vals) if rank is None else [r or "" for r in rank.tolist()]
        rows = [[*(float(c[i]) for c in cols), ranks[i]] for i in range(len(vals))]
        assert path.read_bytes() == _csv_reference(Records.COLUMNS, rows)

    ranks = np.array([1, m + 1, 2**62, 3])
    write_ranks(ranks, path)
    assert path.read_bytes() == _csv_reference(["case", "rank"], enumerate(ranks.tolist(), start=1))

    counts = np.array([3, 0, 5, 1, 0, 2, 7])
    chi2 = sum((c - 18 / 7) ** 2 / (18 / 7) for c in counts.tolist())
    for ks in (None, 5e-324):
        hist = HistogramResult(counts=counts, edges=np.array(vals + [1.0]), ks=ks)
        assert hist.n == 18 and hist.chi2 == pytest.approx(chi2, rel=1e-15)
        write_histogram(hist, path)
        rows = [[vals[i], (vals + [1.0])[i + 1], int(counts[i])] for i in range(len(vals))]
        trailer = (f"# chi2={hist.chi2:.17g},df=6,"
                   f"ks={'' if ks is None else '4.9406564584124654e-324'}\n")
        assert path.read_bytes() == _csv_reference(["bin_lo", "bin_hi", "count"], rows) + \
            trailer.encode()

    write_curve(ClicalCurve(grid=cols[0], lhs=cols[1], rhs=cols[2]), path)
    rows = [[float(cols[k][i]) for k in range(3)] for i in range(len(vals))]
    assert path.read_bytes() == _csv_reference(["w", "lhs", "rhs"], rows)

    finite = [v for v in vals if np.isfinite(v)]
    cases = tuple((EnsembleForecast(np.reshape(np.roll(finite, k), (2, 2))),
                   np.array([vals[k], vals[-1 - k]])) for k in range(len(vals)))
    write_archive(CaseArchive(dim=2, cases=cases, metadata={}), path)
    rows = [[float(c) for c in (*y, *fc.points.ravel())] for fc, y in cases]
    assert path.read_bytes() == _csv_reference(["y1", "y2", "x1_1", "x1_2", "x2_1", "x2_2"], rows)


def test_svg_histogram_structure(tmp_path):
    vals = np.random.default_rng(30).random(400)
    hist = histogram(vals, bins=20)
    path = tmp_path / "hist.svg"
    render_svg(hist, path)
    text = path.read_text()
    assert text.startswith("<svg ")
    assert 'width="640" height="480"' in text
    assert text.count("<rect") == 20
    assert text.count("stroke-dasharray") == 1


def test_svg_curve_structure(tmp_path):
    grid = np.linspace(0.0, 1.0, 101)
    curve = ClicalCurve(grid=grid, lhs=grid, rhs=grid)
    path = tmp_path / "curve.svg"
    render_svg(curve, path)
    text = path.read_text()
    assert text.count("<polyline") == 1
    start = text.index('points="') + len('points="')
    pts = text[start:text.index('"', start)].split()
    assert len(pts) == 101
    assert text.count("stroke-dasharray") == 1


def test_svg_deterministic_and_empty_errors(tmp_path):
    hist = histogram(np.random.default_rng(31).random(100), bins=10)
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    render_svg(hist, p1)
    render_svg(hist, p2)
    assert p1.read_bytes() == p2.read_bytes()

    empty = ClicalCurve(grid=np.array([]), lhs=np.array([]), rhs=np.array([]))
    target = tmp_path / "never.svg"
    with pytest.raises(ValueError, match="empty"):
        render_svg(empty, target)
    assert not target.exists()
    with pytest.raises(TypeError):
        render_svg([1, 2, 3], target)
    assert not target.exists()


def test_manifest_contents(tmp_path):
    path = write_manifest(tmp_path, {"seed": 99, "argv": ["simulate", "bivariate"], "version": "1.0"})
    assert path.name == "manifest.json"
    doc = json.loads(path.read_text())
    assert doc["seed"] == 99 and doc["argv"] == ["simulate", "bivariate"]
    assert "created" in doc
    # everything except the timestamp is reproducible
    write_manifest(tmp_path, {"seed": 99, "argv": ["simulate", "bivariate"], "version": "1.0"})
    doc2 = json.loads(path.read_text())
    assert {k: v for k, v in doc.items() if k != "created"} == \
           {k: v for k, v in doc2.items() if k != "created"}
