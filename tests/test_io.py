import json

import numpy as np
import pytest

from coppit.calibration import ClicalCurve, Records, histogram, rank_histogram
from coppit.forecasts import (
    CopulaMarginalForecast,
    EnsembleForecast,
    GaussianForecast,
    Normal,
)
from coppit.copulas import ArchimedeanCopula
from coppit.io import (
    ArchiveError,
    CaseArchive,
    read_archive,
    read_curve,
    read_histogram,
    read_records,
    render_svg,
    write_archive,
    write_curve,
    write_histogram,
    write_manifest,
    write_records,
    write_results,
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
    for fmt, with_rank in [("csv", False), ("csv", True), ("json", False), ("json", True)]:
        recs = _random_records(rng, 40, with_rank)
        path = tmp_path / f"r_{fmt}_{with_rank}.{fmt}"
        write_records(recs, path, format=fmt)
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
        for fmt in ["csv", "json"]:
            path = tmp_path / f"h{i}.{fmt}"
            write_histogram(hist, path, format=fmt)
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
    curve = ClicalCurve(grid=grid, lhs=lhs, rhs=rhs,
                        max_abs_gap=float(np.max(np.abs(lhs - rhs))))
    for fmt in ["csv", "json"]:
        path = tmp_path / f"c.{fmt}"
        write_curve(curve, path, format=fmt)
        back = read_curve(path)
        assert np.array_equal(back.grid, curve.grid)
        assert np.array_equal(back.lhs, curve.lhs)
        assert np.array_equal(back.rhs, curve.rhs)
        assert back.max_abs_gap == curve.max_abs_gap


def test_write_results_dispatch(tmp_path):
    rng = np.random.default_rng(13)
    write_results(_random_records(rng, 5, True), tmp_path / "r.csv")
    write_results(histogram(rng.random(100), bins=5), tmp_path / "h.csv")
    grid = np.array([0.0, 1.0])
    write_results(ClicalCurve(grid, grid, grid, 0.0), tmp_path / "c.csv")
    assert read_records(tmp_path / "r.csv").rank[0] >= 1
    assert read_histogram(tmp_path / "h.csv").n == 100
    with pytest.raises(TypeError):
        write_results({"not": "a result"}, tmp_path / "x.csv")
    with pytest.raises(ValueError):
        write_records([], tmp_path / "y.txt", format="yaml")


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

    for y in ("[[0], [1]]", "[true, false]", '["a", "b"]', "true"):
        path.write_text('{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": [0, 0]}\n'
                        '{"forecast": {"type": "ensemble", "points": [[0, 0]]}, "y": %s}\n' % y)
        with pytest.raises(ArchiveError, match="line 2.*'y'"):
            read_archive(path)

    path.write_text("\n")
    with pytest.raises(ArchiveError, match="no cases"):
        read_archive(path)


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

    for bad in ("nan", "inf"):
        path.write_text("y1,y2,x1_1,x1_2\n1,2,3,4\n1,2,%s,4\n" % bad)
        with pytest.raises(ArchiveError, match="line 3.*finite"):
            read_archive(path)

    mixed = CaseArchive(dim=2, cases=(
        (EnsembleForecast([[0.0, 0.0]]), np.zeros(2)),
        (GaussianForecast([0.0, 0.0], np.eye(2)), np.zeros(2))), metadata={})
    with pytest.raises(ValueError, match="ensemble"):
        write_archive(mixed, tmp_path / "mixed.csv")


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
    curve = ClicalCurve(grid=grid, lhs=grid, rhs=grid, max_abs_gap=0.0)
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

    empty = ClicalCurve(grid=np.array([]), lhs=np.array([]), rhs=np.array([]), max_abs_gap=0.0)
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
