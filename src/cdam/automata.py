"""Finite automata as composite memory patterns.

A state machine becomes an associative memory by giving every state a
content vector and every (state, label) transition its own composite
pattern: the state's content on a reserved block of neurons, the label's
embedding on the remaining free block.  The memory graph puts a self-loop
on every state vertex and one directed edge from each transition vertex to
its target, so stimulating the free block with a label embedding walks the
machine one step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import SpecError

DEFAULT_RESERVE_FRACTION = 0.75


@dataclass
class AutomatonSpec:
    """States, labelled transitions, and pattern-composition knobs.

    state_content optionally maps state names to content vectors (all the
    same length); when absent, compose_automaton_patterns draws seeded
    random content.  Every label gets a seeded sparse embedding.
    """

    states: list[str]
    transitions: list[tuple[str, str, str]]  # (source, label, target)
    reserve_fraction: float = DEFAULT_RESERVE_FRACTION
    state_content: dict[str, np.ndarray] | None = None

    def validate(self) -> None:
        if not isinstance(self.states, list) or not all(isinstance(s, str) for s in self.states):
            raise SpecError("states must be a list of strings")
        if not isinstance(self.transitions, list) or not all(
            isinstance(t, (list, tuple)) and len(t) == 3 and all(isinstance(v, str) for v in t)
            for t in self.transitions
        ):
            raise SpecError("transitions must be a list of (source, label, target) string triples")
        if not self.states:
            raise SpecError("automaton needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise SpecError("state names must be unique")
        known = set(self.states)
        seen = set()
        for src, label, dst in self.transitions:
            if src not in known:
                raise SpecError(f"transition source {src!r} is not a state")
            if dst not in known:
                raise SpecError(f"transition target {dst!r} is not a state")
            if (src, label) in seen:
                raise SpecError(f"duplicate transition for ({src!r}, {label!r})")
            seen.add((src, label))
        if not isinstance(self.reserve_fraction, Real) or not 0.0 < self.reserve_fraction < 1.0:
            raise SpecError(f"reserve fraction {self.reserve_fraction} outside (0, 1)")
        if self.state_content is not None:
            arrays = _vectors(self.state_content, "state content")
            lengths = {v.shape[0] for v in arrays}
            if len(lengths) > 1:
                raise SpecError(f"state content vectors differ in length: {sorted(lengths)}")
            missing = known - set(self.state_content)
            if missing:
                raise SpecError(f"content missing for states: {sorted(missing)}")

    def vertex_names(self) -> list[str]:
        """States first, then one 'src+label' vertex per transition."""
        return list(self.states) + [f"{s}+{l}" for s, l, _ in self.transitions]

    def labels(self) -> list[str]:
        return sorted({label for _, label, _ in self.transitions})

    def slot_counts(self, n: int) -> tuple[int, int]:
        reserved = int(np.floor(self.reserve_fraction * n))
        free = n - reserved
        if reserved < 1 or free < 1:
            raise SpecError(
                f"reserve fraction {self.reserve_fraction} leaves an empty block at n={n}"
            )
        return reserved, free


def _vectors(table, what: str) -> list[np.ndarray]:
    """The vectors of a name -> vector dict; SpecError unless every key is
    a string and every vector is 1-D, non-empty, real and finite."""
    if not isinstance(table, dict) or not all(isinstance(k, str) for k in table):
        raise SpecError(f"{what} must be a dict of name -> vector")
    try:
        arrays = [np.asarray(v) for v in table.values()]
    except ValueError as exc:
        raise SpecError(f"{what} is not a numeric vector: {exc}") from exc
    if any(v.ndim != 1 or v.size == 0 or v.dtype.kind not in "iuf" or not np.isfinite(v).all()
           for v in arrays):
        raise SpecError(f"{what} must hold non-empty, 1-D, real, finite vectors")
    return arrays


def load_spec_file(path) -> AutomatonSpec:
    """UTF-8 JSON: {"states": [...], "transitions": [[src, label, dst], ...],
    "reserve_fraction": 0.75 (optional)}."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers undecodable bytes and malformed JSON; RecursionError, nesting
        # too deep for the parser
        raise SpecError(f"cannot parse automaton spec {path}: {exc}") from exc
    if not isinstance(doc, dict) or "states" not in doc or "transitions" not in doc:
        raise SpecError(f"{path}: expected keys 'states' and 'transitions'")
    try:
        reserve_fraction = float(doc.get("reserve_fraction", DEFAULT_RESERVE_FRACTION))
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"{path}: malformed automaton spec: {exc}") from exc
    spec = AutomatonSpec(doc["states"], doc["transitions"], reserve_fraction)
    spec.validate()
    spec.transitions = [tuple(t) for t in spec.transitions]
    return spec


def family_tree() -> AutomatonSpec:
    """The four-person family machine used as the stock example: every
    parent/child/sibling/spouse relation that exists gets a transition."""
    return AutomatonSpec(
        states=["Homer", "Marge", "Lisa", "Bart"],
        transitions=[
            ("Homer", "wife", "Marge"),
            ("Homer", "son", "Bart"),
            ("Homer", "daughter", "Lisa"),
            ("Marge", "husband", "Homer"),
            ("Marge", "son", "Bart"),
            ("Marge", "daughter", "Lisa"),
            ("Lisa", "mother", "Marge"),
            ("Lisa", "father", "Homer"),
            ("Lisa", "brother", "Bart"),
            ("Bart", "mother", "Marge"),
            ("Bart", "father", "Homer"),
            ("Bart", "sister", "Lisa"),
        ],
    )
