"""Pattern sources: random vectors, IDX image archives, pre-extracted video
frames (PGM/PPM or CSV), and the composite patterns of an automaton.  This
module only reads; every writer, `write_pnm` included, is in `cdam.reports`.

Every path is bit-reproducible per seed and produces values in [0, 1]:
frames are divided by their declared maxval (or, for CSV, their largest
value), a directory holding both CSV and netpbm frames is a CdamError, and
so is a negative or non-finite CSV entry.
"""

from __future__ import annotations

import hashlib
import re
import struct
import warnings
from pathlib import Path

import numpy as np

from .automata import AutomatonSpec
from .dynamics import PatternMatrix
from .errors import CdamError
from .graphs import MemoryGraph

IDX_IMAGES_MAGIC = 0x00000803

FRAME_SUFFIXES = (".pgm", ".ppm", ".pnm", ".csv")

# A netpbm header after its magic: width, height and maxval, separated by
# whitespace and '#' comments that run to the end of a line.  A comment ends
# only at a newline or the end, and a token only at whitespace or the end, so
# a short header cannot match a token inside a comment or split one in two.
_PNM_HEADER = re.compile(3 * rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)(?!\S)")

# Label embeddings are sparse binary: a seeded quarter of the slots set to
# one.  Sparsity is what keeps the automaton readout unambiguous:
# a label's self-match beats any state content, and state content beats the
# overlap between two different labels.
LABEL_DENSITY = 0.25


def random_patterns(n: int, p: int, seed: int = 0) -> PatternMatrix:
    """n x p matrix of uniform [0,1] entries, deterministic per seed; an
    n x p too large for any array is a CdamError."""
    if n < 1 or p < 1:
        raise CdamError(f"need n, p >= 1, got n={n}, p={p}")
    try:
        values = np.random.default_rng(seed).uniform(0.0, 1.0, (n, p))
    except ValueError as exc:
        raise CdamError(f"cannot size a {n} x {p} pattern matrix: {exc}") from exc
    return PatternMatrix(values)


# -- IDX ------------------------------------------------------------------


def load_idx(images_path) -> np.ndarray:
    """Parse a big-endian IDX image archive into (count, rows*cols) float
    rows scaled by 1/255."""
    raw = Path(images_path).read_bytes()
    if len(raw) < 16:
        raise CdamError(f"{images_path}: too short for an IDX image header")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise CdamError(f"{images_path}: magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
    if rows * cols > np.iinfo(np.intp).max:
        raise CdamError(f"{images_path}: image size {rows}x{cols} exceeds any array dimension")
    need = 16 + count * rows * cols
    if len(raw) < need:
        raise CdamError(f"{images_path}: payload {len(raw) - 16} bytes, header needs {need - 16}")
    pixels = np.frombuffer(raw[16:need], dtype=np.uint8)
    return pixels.reshape(count, rows * cols).astype(float) / 255.0


# -- PGM / PPM / CSV frames -------------------------------------------------


def read_pnm(path):
    """Read P2/P3 (ASCII) or P5/P6 (binary) netpbm files.

    Returns (array, maxval); array shape is (h, w) for grayscale or
    (h, w, 3) for color, raw sample values in [0, maxval] (not yet
    normalized): float64 for P2/P3, and for P5/P6 a read-only array of the
    file's own type, uint8 or big-endian uint16 ('>u2').  A sample outside
    that range, or an ASCII sample that is not a decimal integer, is a
    CdamError.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 2 or raw[0:1] != b"P" or raw[1:2] not in b"2356":
        raise CdamError(f"{path}: not a P2/P3/P5/P6 netpbm file")
    kind = raw[:2].decode()

    header = _PNM_HEADER.match(raw, 2)
    if header is None:
        raise CdamError(f"{path}: truncated header")
    tokens, pos = list(header.groups()), header.end()
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise CdamError(f"{path}: non-numeric header fields {tokens}") from exc
    if width < 1 or height < 1:
        raise CdamError(f"{path}: image size {width}x{height} is not positive")
    if not 0 < maxval <= 65535:
        raise CdamError(f"{path}: maxval {maxval} outside (0, 65535]")
    channels = 3 if kind in ("P3", "P6") else 1
    count = width * height * channels

    if kind in ("P2", "P3"):
        samples = raw[pos:].split()[:count]
        try:
            values = np.array(samples, dtype=float)
        except ValueError as exc:
            raise CdamError(f"{path}: non-numeric sample data") from exc
        if values.size < count:
            raise CdamError(f"{path}: {values.size} samples, header needs {count}")
    else:
        pos += 1  # single whitespace byte after maxval
        want = count * (2 if maxval > 255 else 1)
        body = raw[pos : pos + want]
        if len(body) < want:
            raise CdamError(f"{path}: {len(body)} payload bytes, header needs {want}")
        dtype = ">u2" if maxval > 255 else np.uint8
        values = np.frombuffer(body, dtype=dtype)
    if not np.all((values >= 0) & (values <= maxval)):
        raise CdamError(f"{path}: sample values outside [0, {maxval}]")
    if kind in ("P2", "P3") and not all(t.isdigit() for t in samples):
        raise CdamError(f"{path}: ASCII samples must be decimal integers")

    shape = (height, width, 3) if channels == 3 else (height, width)
    return values.reshape(shape), maxval


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
                raise CdamError(f"{path}: not a numeric matrix") from exc
    if arr.size == 0 or not np.all((arr >= 0) & (arr < np.inf)):
        raise CdamError(f"{path}: CSV frame is empty or holds a negative or non-finite value")
    return arr, None


def ingest_frames(frame_dir, n: int, seed: int = 0) -> PatternMatrix:
    """Flatten, normalize, and subsample every frame in a directory.

    Frames are read in lexicographic filename order; all must share one
    shape, checked as each is read.  Flattening is row-major with color
    channels interleaved last.  The frames are all CSV or all netpbm.  Each
    is sampled at the same n seeded indices, and only those samples are
    divided, as floats, by the files' declared maxval (which must agree
    across frames) or, for CSV frames, by the maximum value observed anywhere.
    """
    files = sorted(
        f for f in Path(frame_dir).iterdir()
        if f.is_file() and f.suffix.lower() in FRAME_SUFFIXES
    )
    if not files:
        raise CdamError(f"no frame files found in {frame_dir}")
    csv = [f.suffix.lower() == ".csv" for f in files]
    if any(csv) and not all(csv):
        raise CdamError(f"{frame_dir} mixes CSV frame {files[csv.index(True)].name} and "
                        f"netpbm frame {files[csv.index(False)].name}; use one kind")
    arrays, declared = [], set()
    for f, is_csv in zip(files, csv):
        arr, maxval = read_csv_frame(f) if is_csv else read_pnm(f)
        if arrays and arr.shape != arrays[0].shape:
            raise CdamError(f"{f.name}: shape {arr.shape} != first frame {arrays[0].shape}")
        arrays.append(arr)
        declared.add(maxval)  # None for every CSV frame
    if len(declared) > 1:
        raise CdamError(f"frames declare conflicting maxvals {sorted(declared)}")
    normalizer = float(max(a.max() for a in arrays) if csv[0] else declared.pop())
    if normalizer <= 0:
        raise CdamError(f"normalizer must be positive, got {normalizer}")

    flat_len = arrays[0].size
    if not 0 < n <= flat_len:
        raise CdamError(f"cannot sample n={n} from frames of length {flat_len}")
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

    One vertex per state, then one per (state, label) transition in spec
    order, as `AutomatonSpec.vertex_names` lists them.  A seeded random
    subset of floor(reserve_fraction * n) neuron indices is reserved; the
    rest are free, returned sorted.  State patterns carry their full content
    vector; transition patterns copy the source state's reserved slots
    exactly and put the label's embedding on the free slots.  The directed
    graph puts a self-loop on every state vertex and gives each transition
    vertex a single out-edge to its target state and no in-edges, so
    stimulating a transition pattern retrieves the target while states are
    attractors of their own.  An n too large for any array is a CdamError.
    """
    n_reserved = int(np.floor(spec.reserve_fraction * n))
    if not 0 < n_reserved < n:
        raise CdamError(f"reserve fraction {spec.reserve_fraction} leaves an empty block at n={n}")
    rng = np.random.default_rng(seed)
    try:
        perm = rng.permutation(n)
    except ValueError as exc:
        raise CdamError(f"cannot size n={n} neurons: {exc}") from exc
    reserved, free = np.sort(perm[:n_reserved]), np.sort(perm[n_reserved:])

    content = spec.state_content
    if content is None:
        content = {name: rng.uniform(0.0, 1.0, n) for name in spec.states}
    for name in spec.states:
        if len(content[name]) != n:
            raise CdamError(f"content for {name!r} has length {len(content[name])}, expected n={n}")

    embeddings = {label: embed_label(label, free.size, seed) for label in spec.labels()}
    index = {name: i for i, name in enumerate(spec.states)}
    columns = [content[name] for name in spec.states]
    edges = [(i, i, 1.0) for i in range(len(columns))]
    for src, label, dst in spec.transitions:
        edges.append((len(columns), index[dst], 1.0))
        col = np.empty(n)
        col[reserved] = content[src][reserved]
        col[free] = embeddings[label]
        columns.append(col)
    graph = MemoryGraph(len(columns), tuple(edges), directed=True)
    return PatternMatrix(np.column_stack(columns)), graph, free
