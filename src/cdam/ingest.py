"""Pattern sources: random vectors, IDX image archives, pre-extracted video
frames (PGM/PPM or CSV), and the composite patterns of an automaton.

Every path is bit-reproducible per seed and produces values in [0, 1]:
frames are divided by their declared maxval (or, for CSV, their largest
value), and a negative or non-finite CSV entry is a FormatError.
"""

from __future__ import annotations

import hashlib
import struct
import warnings
from pathlib import Path

import numpy as np

from .automata import AutomatonSpec
from .dynamics import PatternMatrix
from .errors import FormatError, IngestError, LengthError
from .graphs import MemoryGraph, build_automaton_graph

IDX_IMAGES_MAGIC = 0x00000803

FRAME_SUFFIXES = (".pgm", ".ppm", ".pnm", ".csv")

# Label embeddings are sparse binary: a seeded quarter of the slots set to
# one.  Sparsity is what keeps the automaton readout unambiguous:
# a label's self-match beats any state content, and state content beats the
# overlap between two different labels.
LABEL_DENSITY = 0.25


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
    if rows * cols > np.iinfo(np.intp).max:
        raise FormatError(f"{images_path}: image size {rows}x{cols} exceeds any array dimension")
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
    normalized).  A sample outside that range, or an ASCII sample that is
    not a decimal integer, is a FormatError.
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
        samples = raw[pos:].split()[:count]
        try:
            values = np.array(samples, dtype=float)
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
    if kind in ("P2", "P3") and not all(t.isdigit() for t in samples):
        raise FormatError(f"{path}: ASCII samples must be decimal integers")

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
    """Whitespace/comma separated matrix of finite, non-negative numbers;
    returns (array, None)."""
    with warnings.catch_warnings():
        # a file with no data is rejected below; numpy would warn of it first
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            arr = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError:
            try:
                arr = np.loadtxt(path, ndmin=2)
            except ValueError as exc:
                raise FormatError(f"{path}: not a numeric matrix") from exc
    if arr.size == 0 or not np.all((arr >= 0) & (arr < np.inf)):
        raise FormatError(f"{path}: CSV frame is empty or holds a negative or non-finite value")
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


# -- automaton pattern composition -------------------------------------------


def embed_label(label: str, slot_length: int, seed: int) -> np.ndarray:
    """Deterministic sparse binary vector derived from a hash of the label."""
    h64 = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")
    rng = np.random.default_rng([seed, h64])
    vec = np.zeros(slot_length)
    k = max(1, round(LABEL_DENSITY * slot_length))
    vec[rng.choice(slot_length, k, replace=False)] = 1.0
    return vec


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

    embeddings = {label: embed_label(label, n_free, seed) for label in spec.labels()}
    columns = [content[name] for name in spec.states]
    for src, label, _ in spec.transitions:
        col = np.empty(n)
        col[reserved] = content[src][reserved]
        col[free] = embeddings[label]
        columns.append(col)
    patterns = PatternMatrix(np.column_stack(columns))
    return patterns, build_automaton_graph(spec), free
