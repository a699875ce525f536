"""Artifact writers: trace CSVs, run manifests, matrices, PGM heatmaps.

CSV layout for a trace: one row per step with columns
t, mean_activity, sd_activity, energy, r_0..r_{p-1}; the energy column is
left empty when the run recorded no energy.  CSV lines end in CRLF, and each
float is the shortest decimal that reads back to its bits (orjson writes
`1e-7`, `0.000015`, `1e16` where repr writes `1e-07`, `1.5e-05`, `1e+16`);
a NaN or infinite value is a CdamError and writes no file.  Grayscale
heatmaps map correlation values linearly from [-1, 1] onto [0, 255].
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import orjson

from .dynamics import SimulationTrace
from .errors import CdamError
from .ingest import write_pnm


def _float_rows(values) -> list[str]:
    """Each row of a 2-D array as its comma-joined floats, from one orjson call."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise CdamError(f"a CSV matrix must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise CdamError("a CSV matrix must hold only finite values")
    if arr.size == 0:
        return [""] * arr.shape[0]
    text = orjson.dumps(np.ascontiguousarray(arr), option=orjson.OPT_SERIALIZE_NUMPY).decode()
    return text[2:-2].split("],[")


def _write_lines(lines, path) -> None:
    Path(path).write_text("".join(line + "\r\n" for line in lines), newline="")


def trace_to_csv(trace: SimulationTrace, path) -> None:
    steps, p = trace.correlations.shape
    energies = [""] * steps if trace.energies is None else _float_rows(trace.energies[:, None])
    fields = [map(str, range(steps)),
              _float_rows(np.column_stack([trace.mean_activity, trace.sd_activity])), energies,
              _float_rows(trace.correlations)]
    header = ["t", "mean_activity", "sd_activity", "energy", *(f"r_{mu}" for mu in range(p))]
    _write_lines([",".join(header), *map(",".join, zip(*fields))], path)


def matrix_to_csv(matrix: np.ndarray, path) -> None:
    _write_lines(_float_rows(matrix), path)


def matrix_to_pgm(matrix: np.ndarray, path) -> None:
    """Correlation matrix as grayscale: -1 -> 0, +1 -> 255."""
    arr = np.clip(np.asarray(matrix, dtype=float), -1.0, 1.0)
    write_pnm(path, (arr + 1.0) / 2.0 * 255)


def write_manifest(manifest: dict, path) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
