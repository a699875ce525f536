"""Artifact writers: trace CSVs, run manifests, matrices, PGM heatmaps.

CSV layout for a trace: one row per step with columns
t, mean_activity, sd_activity, energy, r_0..r_{p-1}; the energy column is
left empty when the run recorded no energy.  Grayscale heatmaps map
correlation values linearly from [-1, 1] onto [0, 255].
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dynamics import SimulationTrace
from .ingest import write_pnm


def _csv_line(fields) -> str:
    """One CSV row as csv.writer writes these fields (none needs quoting)."""
    return ",".join(fields) + "\r\n"


def trace_to_csv(trace: SimulationTrace, path) -> None:
    steps = trace.correlations.shape[0]
    energies = [""] * steps if trace.energies is None else map(repr, trace.energies.tolist())
    lines = [_csv_line(["t", "mean_activity", "sd_activity", "energy",
                        *(f"r_{mu}" for mu in range(trace.correlations.shape[1]))])]
    for t, (mean, sd, energy, r) in enumerate(zip(trace.mean_activity.tolist(),
                                                  trace.sd_activity.tolist(), energies,
                                                  trace.correlations.tolist())):
        lines.append(_csv_line([str(t), repr(mean), repr(sd), energy, *map(repr, r)]))
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def matrix_to_csv(matrix: np.ndarray, path) -> None:
    rows = np.asarray(matrix, dtype=float).tolist()
    with open(path, "w", newline="") as fh:
        fh.write("".join(_csv_line(map(repr, row)) for row in rows))


def matrix_to_pgm(matrix: np.ndarray, path) -> None:
    """Correlation matrix as grayscale: -1 -> 0, +1 -> 255."""
    arr = np.clip(np.asarray(matrix, dtype=float), -1.0, 1.0)
    write_pnm(path, (arr + 1.0) / 2.0 * 255)


def write_manifest(manifest: dict, path) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
