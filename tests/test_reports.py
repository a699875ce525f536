import csv
import re

import numpy as np
import orjson
import pytest

from cdam import reports
from cdam.dynamics import SimulationTrace
from cdam.errors import CdamError
from cdam.experiments import ExperimentReport
from cdam.stats import one_way_anova

# subnormals, signed zero, extremes and values the CSV writers spell unlike repr (1e-7, 1e16)
VALUES = [-0.0, 5e-324, 0.1, 3.0, 1e16, 1e22, 1e-7, 1.5e-5, 2.5e15, 1.2345678901234568e17,
          1e300, -1e300, 2.2250738585072014e-308]


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def read_csv(path):
    raw = path.read_bytes()
    assert raw.count(b"\r\n") == raw.count(b"\n")  # every line ends in CRLF
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def make_trace(with_energy):
    corr = np.array([VALUES, VALUES[::-1], VALUES[2:] + VALUES[:2]])
    mean = np.array(VALUES[:3])
    sd = np.array(VALUES[3:6])
    energies = np.array(VALUES[6:9]) if with_energy else None
    return SimulationTrace(corr, mean, sd, energies, np.zeros(2), "max-steps")


@pytest.mark.parametrize("with_energy", [False, True])
def test_trace_csv_reads_back_bit_for_bit(tmp_path, with_energy):
    trace = make_trace(with_energy)
    reports.trace_to_csv(trace, tmp_path / "trace.csv")
    header, *rows = read_csv(tmp_path / "trace.csv")
    p = len(VALUES)
    assert header == ["t", "mean_activity", "sd_activity", "energy"] + [f"r_{mu}" for mu in range(p)]
    assert [row[0] for row in rows] == ["0", "1", "2"]
    assert all(len(row) == 4 + p for row in rows)
    assert np.array_equal(bits([[float(v) for v in row[4:]] for row in rows]), bits(trace.correlations))
    assert np.array_equal(bits([float(row[1]) for row in rows]), bits(trace.mean_activity))
    assert np.array_equal(bits([float(row[2]) for row in rows]), bits(trace.sd_activity))
    if with_energy:
        assert np.array_equal(bits([float(row[3]) for row in rows]), bits(trace.energies))
    else:
        assert [row[3] for row in rows] == ["", "", ""]


def test_matrix_csv_reads_back_bit_for_bit(tmp_path):
    matrix = np.array([VALUES, VALUES[::-1]])
    reports.matrix_to_csv(matrix, tmp_path / "m.csv")
    assert np.array_equal(bits([[float(v) for v in row] for row in read_csv(tmp_path / "m.csv")]),
                          bits(matrix))
    # integer matrices are written as floats
    reports.matrix_to_csv(np.arange(6).reshape(2, 3), tmp_path / "i.csv")
    assert (tmp_path / "i.csv").read_bytes() == b"0.0,1.0,2.0\r\n3.0,4.0,5.0\r\n"


def test_csv_spells_small_and_large_floats_shortest(tmp_path):
    reports.matrix_to_csv([[1e-7, 1.5e-5, 1e16, 0.0001, 1e15]], tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_bytes() == b"1e-7,0.000015,1e16,0.0001,1000000000000000.0\r\n"


def test_matrix_csv_writes_empty_shapes(tmp_path):
    reports.matrix_to_csv(np.zeros((0, 3)), tmp_path / "rows.csv")
    reports.matrix_to_csv(np.zeros((2, 0)), tmp_path / "cols.csv")
    assert (tmp_path / "rows.csv").read_bytes() == b""
    assert (tmp_path / "cols.csv").read_bytes() == b"\r\n\r\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_are_rejected_and_nothing_is_written(tmp_path, bad):
    matrix = np.array([[0.5, bad], [1.0, 2.0]])
    with pytest.raises(CdamError, match="finite"):
        reports.matrix_to_csv(matrix, tmp_path / "m.csv")
    for field in ("correlations", "mean_activity", "sd_activity", "energies"):
        trace = make_trace(with_energy=True)
        getattr(trace, field).flat[1] = bad
        with pytest.raises(CdamError, match="finite"):
            reports.trace_to_csv(trace, tmp_path / "trace.csv")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2)], ids=["1-D", "3-D"])
def test_matrix_csv_rejects_an_array_that_is_not_2d(tmp_path, shape):
    with pytest.raises(CdamError, match="2-D"):
        reports.matrix_to_csv(np.ones(shape), tmp_path / "m.csv")
    assert list(tmp_path.iterdir()) == []


def test_report_json_reads_back_bit_for_bit_and_spells_floats_as_the_csvs(tmp_path):
    small = np.array([[1e-7, 1.5e-5, 1e16], VALUES[:3], VALUES[3:6]])
    transposed = np.array([VALUES[:4], VALUES[4:8]]).T  # not C-contiguous
    assert not transposed.flags.c_contiguous
    rep = ExperimentReport("demo", {"levels": (10, 20), "beta": np.float64(0.1)})
    rep.outputs.update(small=small, transposed=transposed,
                       accuracy={"a+1_h+0": {10: np.float64(0.3), 2: 1 / 3}},
                       count=np.int64(7), value=np.float64(2.5e-6), pair=(1e-7, 3))
    rep.write(tmp_path)
    doc = orjson.loads((tmp_path / "report.json").read_bytes())  # strict: no NaN or Infinity
    assert doc["params"] == {"levels": [10, 20], "beta": 0.1}
    outputs = doc["outputs"]
    assert np.array_equal(bits(outputs["small"]), bits(small))
    assert np.array_equal(bits(outputs["transposed"]), bits(transposed))
    assert outputs["accuracy"] == {"a+1_h+0": {"10": 0.3, "2": 1 / 3}}
    assert bits(outputs["accuracy"]["a+1_h+0"]["2"]) == bits(1 / 3)
    assert outputs["count"] == 7 and type(outputs["count"]) is int
    assert bits(outputs["value"]) == bits(2.5e-6)
    assert outputs["pair"] == [1e-7, 3]
    text = (tmp_path / "report.json").read_text()
    for key in ("small", "transposed"):
        block = re.search(rf'"{key}": (\[.*?\n    \])', text, re.S).group(1)
        csv_text = (tmp_path / "matrices" / f"{key}.csv").read_text()
        assert re.findall(r"[^\s,\[\]]+", block) == csv_text.replace("\n", ",").split(",")[:-1]


def test_report_json_writes_an_infinite_anova_f_as_null(tmp_path):
    # zero within-group variance: one_way_anova reports F = inf, p = 0
    rep = ExperimentReport("demo", {})
    rep.outputs["anova"] = one_way_anova([[1.0, 1.0], [2.0, 2.0]])
    rep.write(tmp_path)
    raw = (tmp_path / "report.json").read_bytes()
    assert b'"f": null' in raw and b'"p": 0.0' in raw
    assert orjson.loads(raw)["outputs"]["anova"] == {"f": None, "p": 0.0, "df": [1, 2]}


def test_manifest_with_an_int_beyond_64_bits_is_rejected_and_not_written(tmp_path):
    with pytest.raises(CdamError, match="64-bit"):
        reports.write_manifest({"steps": 2**64}, tmp_path / "run" / "manifest.json")
    assert list(tmp_path.iterdir()) == []  # not even the directory


def test_each_writer_makes_its_missing_nested_directory(tmp_path):
    reports.trace_to_csv(make_trace(with_energy=True), tmp_path / "a" / "b" / "trace.csv")
    reports.matrix_to_csv(np.eye(2), tmp_path / "c" / "d" / "m.csv")
    reports.matrix_to_pgm(2 * np.eye(2) - 1, tmp_path / "e" / "f" / "m.pgm")
    reports.write_pnm(tmp_path / "g" / "h" / "f.ppm", np.zeros((2, 2, 3)))
    reports.write_manifest({"seed": 0}, tmp_path / "i" / "j" / "manifest.json")
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    assert written == ["a/b/trace.csv", "c/d/m.csv", "e/f/m.pgm", "g/h/f.ppm",
                       "i/j/manifest.json"]
    assert (tmp_path / "e" / "f" / "m.pgm").read_bytes() == b"P5\n2 2\n255\n\xff\x00\x00\xff"
    assert (tmp_path / "g" / "h" / "f.ppm").read_bytes() == b"P6\n2 2\n255\n" + bytes(12)


@pytest.mark.parametrize("shape", [(4,), (2, 2, 4), (2, 2, 3, 1)])
def test_write_pnm_rejects_an_array_that_is_not_gray_or_rgb(tmp_path, shape):
    with pytest.raises(CdamError, match=rf"cannot write array of shape \({shape[0]},"):
        reports.write_pnm(tmp_path / "f.pnm", np.zeros(shape))
    assert list(tmp_path.iterdir()) == []


def test_report_makes_only_the_subdirectories_it_fills(tmp_path):
    # the miyashita outputs: a 5 x 7 matrix, a per-seed list and a scalar
    rep = ExperimentReport("miyashita", {}, {"profiles": np.ones((5, 7)),
                                             "r2_per_seed": [0.9] * 5, "r2_mean": 0.9})
    rep.write(tmp_path / "fresh" / "fit")
    out = tmp_path / "fresh" / "fit"
    assert sorted(str(p.relative_to(out)) for p in out.rglob("*")) == [
        "matrices", "matrices/profiles.csv", "report.json", "traces", "traces/r2_per_seed.csv"]
    ExperimentReport("square", {}, {"m": np.eye(3)}).write(tmp_path / "sq")
    assert {p.name for p in (tmp_path / "sq").iterdir()} == {"matrices", "heatmaps", "report.json"}
