"""Correlated dense associative memory: continuous attractor networks with a
tunable mixture of auto- and hetero-association over an arbitrary memory
graph."""

from .dynamics import (
    ModelParams,
    PatternMatrix,
    SimulationTrace,
    energy,
    init_state,
    iterate,
    overlap,
    pearson,
    run,
    softmax_beta,
    update_step,
)
from .graphs import (
    MemoryGraph,
    NormalizedAdjacency,
    adjacency_coupling,
    build_automaton_graph,
    build_barbell,
    build_cycle,
    build_named,
    build_nn_scaffold,
    build_random_regular,
    normalize,
    read_graph,
    write_graph,
)

__all__ = [
    "MemoryGraph", "NormalizedAdjacency", "ModelParams", "PatternMatrix", "SimulationTrace",
    "adjacency_coupling", "build_automaton_graph", "build_barbell",
    "build_cycle", "build_named", "build_nn_scaffold", "build_random_regular",
    "energy", "init_state", "iterate", "normalize", "overlap", "pearson", "read_graph",
    "run", "softmax_beta", "update_step", "write_graph",
]

__version__ = "0.1.0"
