"""Correlated dense associative memory: continuous attractor networks with a
tunable mixture of auto- and hetero-association over an arbitrary memory
graph."""

__version__ = "0.1.0"
