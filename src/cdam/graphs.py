"""Memory graphs and their coupling matrices.

A memory graph has one vertex per stored pattern; its edges define which
patterns hetero-associate.  The update rule couples patterns through the
normalized adjacency matrix D^{-1/2} A D^{-1/2}, so this module owns graph
construction (cycles, barbells, the bundled karate-club and Tutte graphs,
random regular graphs, nearest-neighbor scaffolds), normalization, and the
plain-text serialization format.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import CdamError

NAMED_GRAPHS = ("karate", "tutte")

# Largest vertex count a graph may have, whether built or read from a file:
# the dense p x p float64 coupling of such a graph takes 2 GiB.
MAX_GRAPH_P = 16_384


def _check_vertex_count(p: int) -> None:
    """Raise CdamError for a vertex count above MAX_GRAPH_P, before any edge
    list of that size is built."""
    if p > MAX_GRAPH_P:
        raise CdamError(f"p={p} vertices exceeds the graph limit of {MAX_GRAPH_P}")


def _data_path(filename: str) -> Path:
    return Path(str(resources.files("cdam.data") / filename))


@dataclass(frozen=True)
class MemoryGraph:
    """Positively weighted directed multigraph over pattern vertices of finite degree.

    Undirected graphs store each edge once in canonical (min, max) order and
    expand it symmetrically when the adjacency matrix is built.  Edges are
    stored sorted; parallel edges are kept and summed into the adjacency matrix.
    """

    p: int
    edges: tuple[tuple[int, int, float], ...]
    directed: bool

    def __post_init__(self):
        if self.p < 1:
            raise CdamError(f"graph needs at least one vertex, got p={self.p}")
        kinds = ("out-degree", "in-degree") if self.directed else ("degree", "degree")
        canon, degree = [], Counter()
        for src, dst, w in self.edges:
            src, dst, w = int(src), int(dst), float(w)
            if not (0 <= src < self.p and 0 <= dst < self.p):
                raise CdamError(f"edge ({src},{dst}) outside [0,{self.p})")
            if not np.isfinite(w):
                raise CdamError(f"edge ({src},{dst}) weight {w} not finite")
            if w <= 0:
                raise CdamError(f"edge ({src},{dst}) weight {w} not positive")
            if not self.directed and src > dst:
                src, dst = dst, src
            canon.append((src, dst, w))
            degree.update({(src, kinds[0]): w, (dst, kinds[1]): w})  # undirected loop: one key
        overflow = sorted(end for end, total in degree.items() if total == np.inf)
        if overflow:
            raise CdamError(f"weighted {overflow[0][1]} of vertex {overflow[0][0]} is not finite")
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    def adjacency(self) -> np.ndarray:
        """Dense adjacency; A[i, j] is the total weight of edges i -> j."""
        a = np.zeros((self.p, self.p))
        for src, dst, w in self.edges:
            a[src, dst] += w
            if not self.directed and src != dst:
                a[dst, src] += w
        return a

    def fingerprint(self) -> str:
        digest = hashlib.sha256(to_text(self).encode()).hexdigest()
        return digest[:16]


@dataclass(frozen=True)
class NormalizedAdjacency:
    """Coupling matrix for the hetero-associative term (a read-only copy)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def normalize(graph: MemoryGraph) -> NormalizedAdjacency:
    """D^{-1/2} A D^{-1/2} with zero rows/columns for isolated vertices.

    Directed graphs scale row i by 1/sqrt(out-degree i) and column j by
    1/sqrt(in-degree j), which keeps a directed cycle's coupling equal to its
    adjacency so sequence recall advances one vertex per retrieval.
    """
    a = graph.adjacency()
    left = _inv_sqrt(a.sum(axis=1))
    right = _inv_sqrt(a.sum(axis=0)) if graph.directed else left
    return NormalizedAdjacency(left[:, None] * a * right[None, :])


def _inv_sqrt(degrees: np.ndarray) -> np.ndarray:
    return np.divide(1.0, np.sqrt(degrees), out=np.zeros(degrees.shape), where=degrees > 0)


# -- builders ------------------------------------------------------------


def build_cycle(p: int, directed: bool = False) -> MemoryGraph:
    """Cycle on p >= 3 vertices, edges i -> (i+1 mod p)."""
    if p < 3:
        raise CdamError(f"cycle needs p >= 3, got {p}")
    _check_vertex_count(p)
    edges = [(i, (i + 1) % p, 1.0) for i in range(p)]
    return MemoryGraph(p, tuple(edges), directed=directed)


def build_barbell(n: int, m: int) -> MemoryGraph:
    """Two K_n cliques joined by an m-vertex path (2n + m vertices total).

    The path attaches to the last vertex of the first clique and the first
    vertex of the second; with m = 0 those two are bridged directly.
    """
    if n < 2:
        raise CdamError(f"barbell cliques need n >= 2, got {n}")
    if m < 0:
        raise CdamError(f"barbell path length must be >= 0, got {m}")
    p = 2 * n + m
    _check_vertex_count(p)
    edges = [(start + i, start + j, 1.0) for start in (0, n + m)
             for i, j in combinations(range(n), 2)]
    chain = [n - 1, *range(n, n + m), n + m]
    edges += [(u, v, 1.0) for u, v in zip(chain, chain[1:])]
    return MemoryGraph(p, tuple(edges), directed=False)


def build_named(name: str) -> MemoryGraph:
    """Load a bundled graph by name ('karate' or 'tutte')."""
    if name not in NAMED_GRAPHS:
        raise CdamError(f"unknown graph {name!r}; known: {', '.join(NAMED_GRAPHS)}")
    return read_graph(_data_path(f"{name}.txt"))


def named_communities(name: str) -> list[list[int]]:
    """Ground-truth vertex blocks for a bundled graph (factions / fragments)."""
    with open(_data_path("communities.json")) as fh:
        table = json.load(fh)
    if name not in table:
        raise CdamError(f"no community data for {name!r}")
    return table[name]


def build_random_regular(p: int, k: int, seed: int) -> MemoryGraph:
    """Simple k-regular graph via the pairing model with rejection."""
    if k >= p or k < 1:
        raise CdamError(f"need 1 <= k < p, got k={k}, p={p}")
    if (p * k) % 2 != 0:
        raise CdamError(f"p*k must be even, got p={p}, k={k}")
    _check_vertex_count(p)
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(p), k)
    for _ in range(1000):
        pairs = rng.permutation(stubs).reshape(-1, 2).tolist()
        canon = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
        if len(canon) == len(pairs):  # simple: no pair is a loop and none repeats
            return MemoryGraph(p, tuple((u, v, 1.0) for u, v in canon), directed=False)
    raise CdamError(f"no simple {k}-regular graph on {p} vertices in 1000 draws")


def build_nn_scaffold(values: np.ndarray) -> MemoryGraph:
    """One undirected edge from each column of an n x p array to its
    Euclidean nearest neighbor.

    Duplicate proposals collapse to a single edge; distance ties break toward
    the lowest vertex index.  A squared distance that is not finite raises CdamError.
    """
    values = np.asarray(values, dtype=float)
    p = values.shape[1]
    if p < 2:
        raise CdamError(f"nearest-neighbor scaffold needs p >= 2, got {p}")
    with np.errstate(all="ignore"):
        sq = (values**2).sum(axis=0)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (values.T @ values)
    if not np.isfinite(d2).all():
        raise CdamError("nearest-neighbor scaffold: a squared distance is not finite")
    np.fill_diagonal(d2, np.inf)
    nearest = np.argmin(d2, axis=1).tolist()  # argmin takes the lowest index on ties
    edges = {(min(v, nn), max(v, nn), 1.0) for v, nn in enumerate(nearest)}
    return MemoryGraph(p, tuple(sorted(edges)), directed=False)


# -- traversal helpers ----------------------------------------------------


def hop_distances(graph: MemoryGraph) -> np.ndarray:
    """Hop distance [s, v] from s to v on the undirected support, -1 where unreachable:
    breadth-first from every source at once, one p x p frontier product per hop."""
    edge = graph.adjacency() > 0
    support = (edge | edge.T).astype(float)  # a float product runs through BLAS
    frontier = reached = np.eye(graph.p, dtype=bool)
    dist = np.full((graph.p, graph.p), -1, dtype=int)
    hops = 0
    while frontier.any():
        dist[frontier] = hops
        frontier = (frontier @ support > 0) & ~reached
        reached = reached | frontier
        hops += 1
    return dist


# -- serialization ---------------------------------------------------------
#
# Text format: first line 'directed' or 'undirected', then one edge per line
# 'src dst [weight]' (0-based).  Blank lines and '#' comments are ignored,
# except that a '# p=N' comment pins the vertex count so graphs with trailing
# isolated vertices survive a round trip.


def to_text(graph: MemoryGraph) -> str:
    lines = ["directed" if graph.directed else "undirected", f"# p={graph.p}"]
    for src, dst, w in graph.edges:
        if w == 1.0:
            lines.append(f"{src} {dst}")
        else:
            lines.append(f"{src} {dst} {w!r}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> MemoryGraph:
    """Parse the text format of `to_text`; CdamError on any malformed
    line and on a vertex count (declared by `# p=N` or implied by the largest
    vertex) above MAX_GRAPH_P."""
    directed = declared_p = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            pragma = line[1:].strip()
            if pragma.startswith("p="):
                try:
                    declared_p = int(pragma[2:])
                except ValueError as exc:
                    raise CdamError(f"line {lineno}: bad vertex count {pragma!r}") from exc
        elif line and directed is None:
            if line not in ("directed", "undirected"):
                raise CdamError(f"line {lineno}: expected 'directed' or 'undirected' header")
            directed = line == "directed"
        elif line:
            parts = line.split()
            if len(parts) not in (2, 3):
                raise CdamError(f"line {lineno}: expected 'src dst [weight]', got {line!r}")
            try:
                src, dst = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as exc:
                raise CdamError(f"line {lineno}: {line!r}") from exc
            edges.append((src, dst, w))
    if directed is None:
        raise CdamError("missing 'directed'/'undirected' header line")
    max_seen = max([-1] + [max(src, dst) for src, dst, _ in edges])
    p = declared_p if declared_p is not None else max_seen + 1
    if edges and p <= max_seen:
        raise CdamError(f"declared p={p} but saw vertex {max_seen}")
    _check_vertex_count(p)
    return MemoryGraph(p, tuple(edges), directed=directed)


def read_graph(path) -> MemoryGraph:
    """from_text of a UTF-8 file; CdamError if it cannot be read or decoded."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CdamError(f"cannot read graph file {path}: {exc}") from exc
    return from_text(text)
