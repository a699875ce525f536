"""Finite automata as composite memory patterns.

A state machine becomes an associative memory by giving every state a
content vector and every (state, label) transition its own composite
pattern: the state's content on a reserved block of neurons, the label's
embedding on the remaining free block.  The memory graph puts a self-loop
on every state vertex and one directed edge from each transition vertex to
its target, so stimulating the free block with a label embedding walks the
machine one step.  A spec is checked when it is made and cannot change
afterwards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import CdamError

DEFAULT_RESERVE_FRACTION = 0.75


@dataclass(frozen=True)
class AutomatonSpec:
    """States, labelled transitions, and pattern-composition knobs, checked
    when made (CdamError) and unchangeable after.  states and transitions,
    given as lists or tuples, are stored as tuples; the optional
    state_content (state name -> content vector, all one length) as a copied
    dict of read-only float vectors.  Without it, compose_automaton_patterns
    draws seeded random content.  Every label gets a seeded sparse embedding.
    """

    states: tuple[str, ...]
    transitions: tuple[tuple[str, str, str], ...]  # (source, label, target)
    reserve_fraction: float = DEFAULT_RESERVE_FRACTION
    state_content: dict[str, np.ndarray] | None = None

    def __post_init__(self) -> None:
        states, transitions, content = self.states, self.transitions, self.state_content
        if not isinstance(states, (list, tuple)) or not all(isinstance(s, str) for s in states):
            raise CdamError("states must be a list of strings")
        if not isinstance(transitions, (list, tuple)) or not all(
            isinstance(t, (list, tuple)) and len(t) == 3 and all(isinstance(v, str) for v in t)
            for t in transitions
        ):
            raise CdamError("transitions must be a list of (source, label, target) string triples")
        if not states:
            raise CdamError("automaton needs at least one state")
        if len(set(states)) != len(states):
            raise CdamError("state names must be unique")
        known, seen = set(states), {}  # seen: transition vertex name -> (source, label)
        for src, label, dst in transitions:
            if src not in known:
                raise CdamError(f"transition source {src!r} is not a state")
            if dst not in known:
                raise CdamError(f"transition target {dst!r} is not a state")
            name = f"{src}+{label}"
            if seen.get(name) == (src, label):
                raise CdamError(f"duplicate transition for ({src!r}, {label!r})")
            if name in known or name in seen:
                raise CdamError(f"transition vertex {name!r} has the name of another vertex")
            seen[name] = (src, label)
        if not isinstance(self.reserve_fraction, Real) or not 0.0 < self.reserve_fraction < 1.0:
            raise CdamError(f"reserve fraction {self.reserve_fraction} outside (0, 1)")
        if content is not None:
            if not isinstance(content, dict) or not all(isinstance(k, str) for k in content):
                raise CdamError("state content must be a dict of name -> vector")
            try:
                arrays = {k: np.asarray(v) for k, v in content.items()}
            except ValueError as exc:
                raise CdamError(f"state content is not a numeric vector: {exc}") from exc
            if any(v.ndim != 1 or v.size == 0 or v.dtype.kind not in "iuf"
                   or not np.isfinite(v).all() for v in arrays.values()):
                raise CdamError("state content must hold non-empty, 1-D, real, finite vectors")
            lengths = {v.shape[0] for v in arrays.values()}
            if len(lengths) > 1:
                raise CdamError(f"state content vectors differ in length: {sorted(lengths)}")
            missing = known - set(content)
            if missing:
                raise CdamError(f"content missing for states: {sorted(missing)}")
            content = {k: np.array(v, dtype=float) for k, v in arrays.items()}
            for v in content.values():
                v.flags.writeable = False
        object.__setattr__(self, "states", tuple(states))
        object.__setattr__(self, "transitions", tuple(tuple(t) for t in transitions))
        object.__setattr__(self, "state_content", content)

    def vertex_names(self) -> list[str]:
        """States first, then one 'src+label' vertex per transition; all distinct."""
        return list(self.states) + [f"{s}+{l}" for s, l, _ in self.transitions]

    def labels(self) -> list[str]:
        return sorted({label for _, label, _ in self.transitions})


def load_spec_file(path) -> AutomatonSpec:
    """UTF-8 JSON: {"states": [...], "transitions": [[src, label, dst], ...],
    "reserve_fraction": 0.75 (optional)}."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers undecodable bytes and malformed JSON; RecursionError, nesting
        # too deep for the parser
        raise CdamError(f"cannot parse automaton spec {path}: {exc}") from exc
    if not isinstance(doc, dict) or "states" not in doc or "transitions" not in doc:
        raise CdamError(f"{path}: expected keys 'states' and 'transitions'")
    try:
        reserve_fraction = float(doc.get("reserve_fraction", DEFAULT_RESERVE_FRACTION))
    except (TypeError, ValueError, OverflowError) as exc:
        raise CdamError(f"{path}: malformed automaton spec: {exc}") from exc
    return AutomatonSpec(doc["states"], doc["transitions"], reserve_fraction)


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
