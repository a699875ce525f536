"""Artifact writers: trace CSVs, run manifests, matrices, PGM heatmaps.

Every float is written by orjson as the shortest decimal that reads back
to its bits (`1e-7`, `0.000015`, `1e16` where repr writes `1e-07`,
`1.5e-05`, `1e+16`).  CSV layout for a trace: one row per step with
columns t, mean_activity, sd_activity, energy, r_0..r_{p-1}; the energy
column is left empty when the run recorded no energy.  CSV lines end in
CRLF; a NaN or infinite value is a CdamError and writes no file.  JSON is
UTF-8 with 2-space indents and sorted keys; int keys become strings,
tuples and numpy arrays lists, and a non-finite float null.  Grayscale
heatmaps map correlation values linearly from [-1, 1] onto [0, 255].
"""

from __future__ import annotations

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
    """manifest as JSON; a value JSON cannot hold, such as an int beyond 64
    bits, is a CdamError and writes no file."""
    options = (orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
               | orjson.OPT_NON_STR_KEYS | orjson.OPT_APPEND_NEWLINE)
    try:  # orjson writes only C-contiguous arrays itself and hands others to default
        text = orjson.dumps(manifest, default=np.ndarray.tolist, option=options)
    except TypeError as exc:
        raise CdamError(f"{path}: {exc}") from exc
    Path(path).write_bytes(text)
