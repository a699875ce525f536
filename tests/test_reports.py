import csv

import numpy as np
import pytest

from cdam import reports
from cdam.dynamics import SimulationTrace

VALUES = [-0.0, 5e-324, 0.1, 3.0, 1e16, 1e22]


def csv_writer_bytes(rows, path):
    """What csv.writer writes for these rows, floats as repr(float(v))."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([v if isinstance(v, (int, str)) else repr(float(v)) for v in row])
    return path.read_bytes()


@pytest.mark.parametrize("with_energy", [False, True])
def test_trace_csv_is_csv_writer_bytes(tmp_path, with_energy):
    corr = np.array([VALUES, VALUES[::-1], VALUES[2:] + VALUES[:2]])
    mean = np.array(VALUES[:3])
    sd = np.array(VALUES[3:])
    energies = np.array(VALUES[1:4]) if with_energy else None
    trace = SimulationTrace(corr, mean, sd, energies, np.zeros(2), "max-steps")
    reports.trace_to_csv(trace, tmp_path / "trace.csv")
    rows = [["t", "mean_activity", "sd_activity", "energy"] + [f"r_{mu}" for mu in range(6)]]
    for t in range(3):
        energy = energies[t] if with_energy else ""
        rows.append([t, mean[t], sd[t], energy, *corr[t]])
    assert (tmp_path / "trace.csv").read_bytes() == csv_writer_bytes(rows, tmp_path / "want.csv")


def test_matrix_csv_is_csv_writer_bytes(tmp_path):
    matrix = np.array([VALUES, VALUES[::-1]])
    reports.matrix_to_csv(matrix, tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_bytes() == csv_writer_bytes(matrix, tmp_path / "want.csv")
    # integer matrices are written as floats, as repr(float(v)) does
    reports.matrix_to_csv(np.arange(6).reshape(2, 3), tmp_path / "i.csv")
    assert (tmp_path / "i.csv").read_bytes() == b"0.0,1.0,2.0\r\n3.0,4.0,5.0\r\n"
