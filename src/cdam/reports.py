"""Artifact writers: trace CSVs, run manifests, matrices, PGM heatmaps.

CSV layout for a trace: one row per step with columns
t, mean_activity, sd_activity, energy, r_0..r_{p-1}; the energy column is
left empty when no energy graph was configured.  Grayscale heatmaps map
correlation values linearly from [-1, 1] onto [0, 255].
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .dynamics import SimulationTrace
from .ingest import write_pnm


def trace_to_csv(trace: SimulationTrace, path) -> None:
    p = trace.correlations.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "mean_activity", "sd_activity", "energy"]
                        + [f"r_{mu}" for mu in range(p)])
        for t in range(trace.correlations.shape[0]):
            energy = "" if trace.energies is None else repr(float(trace.energies[t]))
            writer.writerow(
                [t, repr(float(trace.mean_activity[t])), repr(float(trace.sd_activity[t])), energy]
                + [repr(float(v)) for v in trace.correlations[t]]
            )


def matrix_to_csv(matrix: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.asarray(matrix):
            writer.writerow([repr(float(v)) for v in row])


def matrix_to_pgm(matrix: np.ndarray, path) -> None:
    """Correlation matrix as grayscale: -1 -> 0, +1 -> 255."""
    arr = np.clip(np.asarray(matrix, dtype=float), -1.0, 1.0)
    write_pnm(path, (arr + 1.0) / 2.0 * 255)


def write_manifest(manifest: dict, path) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
