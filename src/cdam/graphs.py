"""Memory graphs and their coupling matrices.

A memory graph has one vertex per stored pattern; its edges define which
patterns hetero-associate.  The update rule couples patterns through the
normalized adjacency matrix D^{-1/2} A D^{-1/2}, so this module owns graph
construction (cycles, barbells, the bundled karate-club and Tutte graphs,
random regular graphs, nearest-neighbor scaffolds, automaton graphs),
normalization, and the plain-text serialization format.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    ContractError,
    GraphFormatError,
    InvalidSizeError,
    RetryExhaustedError,
    UnknownNameError,
)

NAMED_GRAPHS = ("karate", "tutte")

# Largest vertex count a graph may have, whether built or read from a file:
# the dense p x p float64 coupling of such a graph takes 2 GiB.
MAX_GRAPH_P = 16_384


def _check_vertex_count(p: int, error: type[Exception]) -> None:
    """Raise `error` for a vertex count above MAX_GRAPH_P, before any edge
    list of that size is built."""
    if p > MAX_GRAPH_P:
        raise error(f"p={p} vertices exceeds the graph limit of {MAX_GRAPH_P}")


def _data_path(filename: str) -> Path:
    return Path(str(resources.files("cdam.data") / filename))


@dataclass(frozen=True)
class MemoryGraph:
    """Weighted directed multigraph over pattern vertices.

    Undirected graphs store each edge once in canonical (min, max) order and
    expand it symmetrically when the adjacency matrix is built.  Edges are
    stored sorted; parallel edges are kept and summed into the adjacency matrix.
    """

    p: int
    edges: tuple[tuple[int, int, float], ...]
    directed: bool

    def __post_init__(self):
        if self.p < 1:
            raise InvalidSizeError(f"graph needs at least one vertex, got p={self.p}")
        canon = []
        for src, dst, w in self.edges:
            src, dst, w = int(src), int(dst), float(w)
            if not (0 <= src < self.p and 0 <= dst < self.p):
                raise ContractError(f"edge ({src},{dst}) outside [0,{self.p})")
            if not np.isfinite(w):
                raise ContractError(f"edge ({src},{dst}) weight {w} not finite")
            if not self.directed and src > dst:
                src, dst = dst, src
            canon.append((src, dst, w))
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
    """Coupling matrix for the hetero-associative term (read-only)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
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
    out = np.zeros_like(degrees, dtype=float)
    nz = degrees > 0
    out[nz] = 1.0 / np.sqrt(degrees[nz])
    return out


# -- builders ------------------------------------------------------------


def build_cycle(p: int, directed: bool = False) -> MemoryGraph:
    """Cycle on p >= 3 vertices, edges i -> (i+1 mod p)."""
    if p < 3:
        raise InvalidSizeError(f"cycle needs p >= 3, got {p}")
    _check_vertex_count(p, InvalidSizeError)
    edges = [(i, (i + 1) % p, 1.0) for i in range(p)]
    return MemoryGraph(p, tuple(edges), directed=directed)


def build_barbell(n: int, m: int) -> MemoryGraph:
    """Two K_n cliques joined by an m-vertex path (2n + m vertices total).

    The path attaches to the last vertex of the first clique and the first
    vertex of the second; with m = 0 those two are bridged directly.
    """
    if n < 2:
        raise InvalidSizeError(f"barbell cliques need n >= 2, got {n}")
    if m < 0:
        raise InvalidSizeError(f"barbell path length must be >= 0, got {m}")
    p = 2 * n + m
    _check_vertex_count(p, InvalidSizeError)
    edges = []
    for block_start in (0, n + m):
        for i in range(n):
            for j in range(i + 1, n):
                edges.append((block_start + i, block_start + j, 1.0))
    chain = [n - 1] + list(range(n, n + m)) + [n + m]
    for u, v in zip(chain, chain[1:]):
        edges.append((u, v, 1.0))
    return MemoryGraph(p, tuple(edges), directed=False)


def build_named(name: str) -> MemoryGraph:
    """Load a bundled graph by name ('karate' or 'tutte')."""
    if name not in NAMED_GRAPHS:
        raise UnknownNameError(f"unknown graph {name!r}; known: {', '.join(NAMED_GRAPHS)}")
    return read_graph(_data_path(f"{name}.txt"))


def named_communities(name: str) -> list[list[int]]:
    """Ground-truth vertex blocks for a bundled graph (factions / fragments)."""
    with open(_data_path("communities.json")) as fh:
        table = json.load(fh)
    if name not in table:
        raise UnknownNameError(f"no community data for {name!r}")
    return table[name]


def build_random_regular(p: int, k: int, seed: int) -> MemoryGraph:
    """Simple k-regular graph via the pairing model with rejection."""
    if k >= p or k < 1:
        raise InvalidSizeError(f"need 1 <= k < p, got k={k}, p={p}")
    if (p * k) % 2 != 0:
        raise InvalidSizeError(f"p*k must be even, got p={p}, k={k}")
    _check_vertex_count(p, InvalidSizeError)
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(p), k)
    for _ in range(1000):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        canon = {(min(u, v), max(u, v)) for u, v in pairs}
        if len(canon) < len(pairs):
            continue
        edges = tuple((u, v, 1.0) for u, v in sorted(canon))
        return MemoryGraph(p, edges, directed=False)
    raise RetryExhaustedError(f"no simple {k}-regular graph on {p} vertices in 1000 draws")


def build_nn_scaffold(values: np.ndarray) -> MemoryGraph:
    """One undirected edge from each column of an n x p array to its
    Euclidean nearest neighbor.

    Duplicate proposals collapse to a single edge; distance ties break toward
    the lowest vertex index.
    """
    values = np.asarray(values, dtype=float)
    p = values.shape[1]
    if p < 2:
        raise InvalidSizeError(f"nearest-neighbor scaffold needs p >= 2, got {p}")
    sq = (values**2).sum(axis=0)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (values.T @ values)
    np.fill_diagonal(d2, np.inf)
    edges = set()
    for v in range(p):
        nn = int(np.argmin(d2[v]))  # argmin takes the lowest index on ties
        edges.add((min(v, nn), max(v, nn), 1.0))
    return MemoryGraph(p, tuple(sorted(edges)), directed=False)


def build_automaton_graph(spec) -> MemoryGraph:
    """Directed graph realizing a finite automaton over composite patterns.

    One vertex per state and one per (state, label) transition.  Every state
    vertex carries a self-loop; each transition vertex has a single out-edge
    to its target state and no in-edges, so stimulating a transition pattern
    retrieves the target while states are attractors of their own.
    """
    spec.validate()
    names = spec.vertex_names()
    index = {name: i for i, name in enumerate(names)}
    n_states = len(spec.states)
    edges = [(index[s], index[s], 1.0) for s in spec.states]
    for pos, (_, _, dst) in enumerate(spec.transitions):
        edges.append((n_states + pos, index[dst], 1.0))
    return MemoryGraph(len(names), tuple(edges), directed=True)


# -- traversal helpers ----------------------------------------------------


def hop_distances(graph: MemoryGraph) -> np.ndarray:
    """All-pairs BFS hop distances on the undirected support: entry [s, v] is
    the distance from s to v, -1 where v is unreachable from s."""
    adj: list[set[int]] = [set() for _ in range(graph.p)]
    for src, dst, _ in graph.edges:
        if src != dst:
            adj[src].add(dst)
            adj[dst].add(src)
    dist = np.full((graph.p, graph.p), -1, dtype=int)
    for source, row in enumerate(dist):
        row[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if row[u] < 0:
                    row[u] = row[v] + 1
                    queue.append(u)
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
    """Parse the text format of `to_text`; GraphFormatError on any malformed
    line and on a vertex count (declared by `# p=N` or implied by the largest
    vertex) above MAX_GRAPH_P."""
    directed = None
    declared_p = None
    edges = []
    max_seen = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            pragma = line[1:].strip()
            if pragma.startswith("p="):
                try:
                    declared_p = int(pragma[2:])
                except ValueError as exc:
                    raise GraphFormatError(f"line {lineno}: bad vertex count {pragma!r}") from exc
            continue
        if not line:
            continue
        if directed is None:
            if line not in ("directed", "undirected"):
                raise GraphFormatError(f"line {lineno}: expected 'directed' or 'undirected' header")
            directed = line == "directed"
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphFormatError(f"line {lineno}: expected 'src dst [weight]', got {line!r}")
        try:
            src, dst = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: {line!r}") from exc
        edges.append((src, dst, w))
        max_seen = max(max_seen, src, dst)
    if directed is None:
        raise GraphFormatError("missing 'directed'/'undirected' header line")
    p = declared_p if declared_p is not None else max_seen + 1
    if p <= max_seen:
        raise GraphFormatError(f"declared p={p} but saw vertex {max_seen}")
    _check_vertex_count(p, GraphFormatError)
    return MemoryGraph(p, tuple(edges), directed=directed)


def read_graph(path) -> MemoryGraph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GraphFormatError(f"cannot read graph file {path}: {exc}") from exc
    return from_text(text)
