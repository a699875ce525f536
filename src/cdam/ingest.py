"""Pattern sources: random vectors, IDX image archives, pre-extracted video
frames (PGM/PPM or CSV), and word-vector files for transition labels.

Every path is bit-reproducible per seed and produces values in [0, 1]:
frames are divided by their declared maxval (or, for CSV, their largest
value).  Word-vector files with non-finite components are rejected.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .automata import AutomatonSpec
from .dynamics import PatternMatrix
from .errors import FormatError, IngestError, LengthError
from .graphs import MemoryGraph, build_automaton_graph

IDX_IMAGES_MAGIC = 0x00000803

FRAME_SUFFIXES = (".pgm", ".ppm", ".pnm", ".csv")

# Fallback label embeddings are sparse binary: a seeded quarter of the slots
# set to one.  Sparsity is what keeps the automaton readout unambiguous:
# a label's self-match beats any state content, and state content beats the
# overlap between two different labels.
FALLBACK_DENSITY = 0.25


def random_patterns(n: int, p: int, seed: int = 0) -> PatternMatrix:
    """n x p matrix of uniform [0,1] entries, deterministic per seed."""
    if n < 1 or p < 1:
        raise IngestError(f"need n, p >= 1, got n={n}, p={p}")
    return PatternMatrix(np.random.default_rng(seed).uniform(0.0, 1.0, (n, p)))


# -- IDX ------------------------------------------------------------------


def load_idx(images_path) -> np.ndarray:
    """Parse a big-endian IDX image archive into (count, rows*cols) float
    rows scaled by 1/255."""
    raw = Path(images_path).read_bytes()
    if len(raw) < 16:
        raise LengthError(f"{images_path}: too short for an IDX image header")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise FormatError(f"{images_path}: magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
    need = 16 + count * rows * cols
    if len(raw) < need:
        raise LengthError(f"{images_path}: payload {len(raw) - 16} bytes, header needs {need - 16}")
    pixels = np.frombuffer(raw[16:need], dtype=np.uint8)
    return pixels.reshape(count, rows * cols).astype(float) / 255.0


# -- PGM / PPM / CSV frames -------------------------------------------------


def read_pnm(path):
    """Read P2/P3 (ASCII) or P5/P6 (binary) netpbm files.

    Returns (array, maxval); array shape is (h, w) for grayscale or
    (h, w, 3) for color, raw sample values in [0, maxval] (not yet
    normalized).  A sample outside that range is a FormatError.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 2 or raw[0:1] != b"P" or raw[1:2] not in b"2356":
        raise FormatError(f"{path}: not a P2/P3/P5/P6 netpbm file")
    kind = raw[:2].decode()

    # header tokens: width, height, maxval; '#' comments run to end of line
    tokens = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(raw):
            raise LengthError(f"{path}: truncated header")
        ch = raw[pos : pos + 1]
        if ch == b"#":
            nl = raw.find(b"\n", pos)
            pos = len(raw) if nl < 0 else nl + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(raw) and not raw[end : end + 1].isspace():
                end += 1
            tokens.append(raw[pos:end])
            pos = end
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric header fields {tokens}") from exc
    if width < 1 or height < 1:
        raise FormatError(f"{path}: image size {width}x{height} is not positive")
    if not 0 < maxval <= 65535:
        raise FormatError(f"{path}: maxval {maxval} outside (0, 65535]")
    channels = 3 if kind in ("P3", "P6") else 1
    count = width * height * channels

    if kind in ("P2", "P3"):
        try:
            values = np.array(raw[pos:].split()[:count], dtype=float)
        except ValueError as exc:
            raise FormatError(f"{path}: non-numeric sample data") from exc
        if values.size < count:
            raise LengthError(f"{path}: {values.size} samples, header needs {count}")
    else:
        pos += 1  # single whitespace byte after maxval
        want = count * (2 if maxval > 255 else 1)
        body = raw[pos : pos + want]
        if len(body) < want:
            raise LengthError(f"{path}: {len(body)} payload bytes, header needs {want}")
        dtype = ">u2" if maxval > 255 else np.uint8
        values = np.frombuffer(body, dtype=dtype).astype(float)
    if not np.all((values >= 0) & (values <= maxval)):
        raise FormatError(f"{path}: sample values outside [0, {maxval}]")

    shape = (height, width, 3) if channels == 3 else (height, width)
    return values.reshape(shape), maxval


def write_pnm(path, array: np.ndarray, maxval: int = 255) -> None:
    """Write a P5 (2-D input) or P6 (h,w,3 input) binary netpbm file."""
    arr = np.asarray(array)
    if arr.ndim == 2:
        kind, (h, w) = "P5", arr.shape
    elif arr.ndim == 3 and arr.shape[2] == 3:
        kind, (h, w) = "P6", arr.shape[:2]
    else:
        raise FormatError(f"cannot write array of shape {arr.shape} as netpbm")
    data = np.clip(np.round(arr), 0, maxval)
    data = data.astype(">u2" if maxval > 255 else np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"{kind}\n{w} {h}\n{maxval}\n".encode())
        fh.write(data.tobytes())


def read_csv_frame(path):
    """Whitespace/comma separated numeric matrix; returns (array, None)."""
    try:
        arr = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError:
        try:
            arr = np.loadtxt(path, ndmin=2)
        except ValueError as exc:
            raise FormatError(f"{path}: not a numeric matrix") from exc
    return arr, None


def ingest_frames(frame_dir, n: int, seed: int = 0) -> PatternMatrix:
    """Flatten, normalize, and subsample every frame in a directory.

    Frames are read in lexicographic filename order; all must share one
    shape.  Flattening is row-major with color channels interleaved last.
    Every frame is divided by the files' declared maxval (which must agree
    across frames) or, for CSV frames, by the maximum value observed
    anywhere, and sampled at the same n seeded indices.
    """
    files = sorted(
        f for f in Path(frame_dir).iterdir()
        if f.is_file() and f.suffix.lower() in FRAME_SUFFIXES
    )
    if not files:
        raise IngestError(f"no frame files found in {frame_dir}")
    arrays, maxvals = [], []
    for f in files:
        arr, maxval = (read_csv_frame(f) if f.suffix.lower() == ".csv" else read_pnm(f))
        arrays.append(arr)
        maxvals.append(maxval)
    shape = arrays[0].shape
    for f, arr in zip(files, arrays):
        if arr.shape != shape:
            raise IngestError(f"{f.name}: shape {arr.shape} != first frame {shape}")
    declared = {v for v in maxvals if v is not None}
    if len(declared) > 1:
        raise IngestError(f"frames declare conflicting maxvals {sorted(declared)}")
    normalizer = float(declared.pop()) if declared else float(max(a.max() for a in arrays))
    if normalizer <= 0:
        raise IngestError(f"normalizer must be positive, got {normalizer}")

    flat_len = int(np.prod(shape))
    if not 0 < n <= flat_len:
        raise IngestError(f"cannot sample n={n} from frames of length {flat_len}")
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(flat_len, n, replace=False))
    return PatternMatrix(np.column_stack([arr.reshape(-1)[indices] / normalizer for arr in arrays]))


# -- word vectors -----------------------------------------------------------


def load_word_vectors(path) -> dict[str, np.ndarray]:
    """One token per line followed by space-separated floats, constant dim."""
    table: dict[str, np.ndarray] = {}
    dim = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            try:
                vec = np.array(values, dtype=float)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: non-numeric components") from exc
            if vec.size == 0:
                raise FormatError(f"{path}:{lineno}: token {token!r} has no components")
            if not np.all(np.isfinite(vec)):
                raise FormatError(f"{path}:{lineno}: token {token!r} has non-finite components")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise FormatError(
                    f"{path}:{lineno}: dimension {vec.size} != first line's {dim}"
                )
            table[token] = vec
    return table


def fallback_embedding(label: str, slot_length: int, seed: int = 0) -> np.ndarray:
    """Deterministic sparse binary vector derived from a hash of the label."""
    h64 = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")
    rng = np.random.default_rng([seed, h64])
    vec = np.zeros(slot_length)
    k = max(1, round(FALLBACK_DENSITY * slot_length))
    vec[rng.choice(slot_length, k, replace=False)] = 1.0
    return vec


def embed_label(
    label: str,
    slot_length: int,
    vectors: dict[str, np.ndarray] | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Fit a label's vector to slot_length and rescale to [0, 1].

    File-loaded vectors are truncated or cyclically tiled to the slot length
    and min-max rescaled (a constant vector maps to all 0.5); an empty or
    non-finite one is an IngestError.  A label missing from `vectors` (or
    with no table) always gets the seeded fallback_embedding.
    """
    if slot_length < 1:
        raise IngestError(f"slot_length must be >= 1, got {slot_length}")
    if vectors is not None and label in vectors:
        raw = np.asarray(vectors[label], dtype=float)
        if raw.size == 0 or not np.all(np.isfinite(raw)):
            raise IngestError(f"vector of label {label!r} is empty or non-finite")
        if raw.size >= slot_length:
            fitted = raw[:slot_length]
        else:
            reps = -(-slot_length // raw.size)
            fitted = np.tile(raw, reps)[:slot_length]
        lo, hi = fitted.min(), fitted.max()
        if hi == lo:
            return np.full(slot_length, 0.5)
        return (fitted - lo) / (hi - lo)
    return fallback_embedding(label, slot_length, seed)


# -- automaton pattern composition -------------------------------------------


def compose_automaton_patterns(
    spec: AutomatonSpec, n: int, seed: int = 0
) -> tuple[PatternMatrix, MemoryGraph, np.ndarray]:
    """Build the pattern matrix, memory graph, and free-slot indices for an
    automaton.

    A seeded random subset of floor(reserve_fraction * n) neuron indices is
    reserved; the rest are free, returned sorted.  State patterns carry
    their full content vector; transition patterns copy the source state's
    reserved slots exactly and put the label's embedding on the free slots.
    """
    spec.validate()
    n_reserved, n_free = spec.slot_counts(n)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    reserved, free = np.sort(perm[:n_reserved]), np.sort(perm[n_reserved:])

    if spec.state_content is not None:
        content = {}
        for name in spec.states:
            vec = np.asarray(spec.state_content[name], dtype=float)
            if vec.shape[0] != n:
                raise IngestError(
                    f"content for {name!r} has length {vec.shape[0]}, expected n={n}"
                )
            content[name] = vec
    else:
        content = {name: rng.uniform(0.0, 1.0, n) for name in spec.states}

    embeddings = {
        label: embed_label(label, n_free, vectors=spec.label_vectors, seed=seed)
        for label in spec.labels()
    }
    columns = [content[name] for name in spec.states]
    for src, label, _ in spec.transitions:
        col = np.empty(n)
        col[reserved] = content[src][reserved]
        col[free] = embeddings[label]
        columns.append(col)
    patterns = PatternMatrix(np.column_stack(columns))
    return patterns, build_automaton_graph(spec), free
