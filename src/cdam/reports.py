"""Artifact writers, the one module that writes files: trace CSVs, run manifests,
matrices, netpbm images, PGM heatmaps; each makes its file's directory.

Every float is written by orjson as the shortest decimal that reads back
to its bits (`1e-7`, `0.000015`, `1e16` where repr writes `1e-07`,
`1.5e-05`, `1e+16`).  CSV layout for a trace: one row per step with
columns t, mean_activity, sd_activity, energy, r_0..r_{p-1}; the energy
column is left empty when the run recorded no energy.  CSV lines end in
CRLF.  JSON is UTF-8 with 2-space indents and sorted keys; int keys become
strings, tuples and numpy arrays lists, and a non-finite float null.
Grayscale heatmaps map correlation values linearly from [-1, 1] onto
[0, 255].  A NaN or infinite value in a CSV, a netpbm image or a heatmap
is a CdamError and writes no file.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import orjson

from .dynamics import SimulationTrace
from .errors import CdamError


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


def _write(data: bytes, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def _write_lines(lines, path) -> None:
    _write("".join(line + "\r\n" for line in lines).encode(), path)


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


def write_pnm(path, array: np.ndarray) -> None:
    """Write a P5 (2-D input) or P6 (h,w,3 input) binary netpbm file of
    8-bit samples (maxval 255)."""
    arr = np.asarray(array)
    if arr.ndim not in (2, 3) or arr.shape[2:] not in ((), (3,)):
        raise CdamError(f"cannot write array of shape {arr.shape} as netpbm")
    kind, (h, w) = "P5" if arr.ndim == 2 else "P6", arr.shape[:2]
    if not np.isfinite(arr).all():
        raise CdamError("a netpbm image must hold only finite values")
    data = np.clip(np.round(arr), 0, 255).astype(np.uint8)
    _write(f"{kind}\n{w} {h}\n255\n".encode() + data.tobytes(), path)


def matrix_to_pgm(matrix: np.ndarray, path) -> None:
    """Correlation matrix as grayscale: -1 -> 0, +1 -> 255."""
    arr = np.asarray(matrix, dtype=float)
    if not np.isfinite(arr).all():
        raise CdamError("a heatmap matrix must hold only finite values")
    write_pnm(path, (np.clip(arr, -1.0, 1.0) + 1.0) / 2.0 * 255)


def write_manifest(manifest: dict, path) -> None:
    """manifest as JSON; a value JSON cannot hold, such as an int beyond 64
    bits or a str that is not UTF-8, is a CdamError and writes no file or directory."""
    options = (orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
               | orjson.OPT_NON_STR_KEYS | orjson.OPT_APPEND_NEWLINE)
    try:  # orjson writes only C-contiguous arrays itself and hands others to default
        text = orjson.dumps(manifest, default=np.ndarray.tolist, option=options)
    except TypeError as exc:
        raise CdamError(f"{path}: {exc}") from exc
    _write(text, path)
