import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdam.automata import AutomatonSpec, family_tree, load_spec_file
from cdam.errors import CdamError
from cdam.experiments import AutomatonRunner, automaton_sweep
from cdam.ingest import compose_automaton_patterns


# The message each malformed spec must raise.  The parametrize ids below
# are the ones pytest gives the input columns alone, so that adding the
# message column renames no case.
NOT_STATES = "states must be a list of strings"
NOT_TRIPLES = r"transitions must be a list of \(source, label, target\) string triples"
NOT_A_DICT = "state content must be a dict of name -> vector"
NOT_VECTORS = "state content must hold non-empty, 1-D, real, finite vectors"
BAD_FIELDS = [
    ({"states": ["a", ["b"]], "transitions": []}, NOT_STATES),  # list-valued state name
    ({"states": "ab", "transitions": []}, NOT_STATES),          # a string is not a list of states
    ({"states": ["a"], "transitions": [("a", 1, "a")]}, NOT_TRIPLES),   # non-string label
    ({"states": ["a"], "transitions": [("a", "go")]}, NOT_TRIPLES),     # not a triple
    ({"states": ["a"], "transitions": ("a", "go", "a")}, NOT_TRIPLES),  # one triple, not a list
    ({"states": ["a"], "transitions": [], "reserve_fraction": "0.5"},
     r"reserve fraction 0.5 outside \(0, 1\)"),
    ({"states": ["a"], "transitions": [], "state_content": {"a": 3}},        # not a vector
     NOT_VECTORS),
    ({"states": ["a"], "transitions": [], "state_content": [np.zeros(4)]},  # not a dict
     NOT_A_DICT),
    ({"states": ["a"], "transitions": [], "state_content": {"a": "abc"}},   # not numeric
     NOT_VECTORS),
    ({"states": ["a"], "transitions": [], "state_content": {"a": np.zeros((2, 2))}},  # 2-D
     NOT_VECTORS),
    ({"states": ["a"], "transitions": [], "state_content": {1: np.ones(3)}},      # key not a str
     NOT_A_DICT),
    ({"states": ["a"], "transitions": [], "state_content": {"a": np.zeros(0)}},   # empty
     NOT_VECTORS),
    ({"states": ["a"], "transitions": [], "state_content": {"a": [1.0, np.nan]}},  # not finite
     NOT_VECTORS),
    ({"states": ["a"], "transitions": [], "state_content": {"a": np.ones(2, dtype=complex)}},
     NOT_VECTORS),
    ({"states": ["a"], "transitions": [], "state_content": {"a": [[1.0], [2.0, 3.0]]}},  # ragged
     "state content is not a numeric vector"),
    ({"states": ["a", "b"], "transitions": [],
      "state_content": {"a": np.ones(3), "b": np.ones(4)}},                      # lengths differ
     r"state content vectors differ in length: \[3, 4\]"),
    ({"states": ["a", "b"], "transitions": [], "state_content": {"a": np.ones(3)}},  # missing "b"
     r"content missing for states: \['b'\]"),
    ({"states": ["a", "a+go", "b"], "transitions": [("a", "go", "b"), ("b", "back", "a")]},
     r"^transition vertex 'a\+go' has the name of another vertex$"),  # a state's name
    ({"states": ["a", "a+b"], "transitions": [("a", "b+c", "a"), ("a+b", "c", "a")]},
     r"^transition vertex 'a\+b\+c' has the name of another vertex$"),  # a transition's name
]
UNREADABLE_SPECS = [
    (b'{"states": ["caf\xe9"], "transitions": []}',                  # Latin-1, not UTF-8
     "cannot parse automaton spec .*'utf-8' codec can't decode"),
    (b'{"states": ["a"], "transitions": [], "reserve_fraction": 1' + b"0" * 400 + b"}",
     "malformed automaton spec: int too large to convert to float"),
    (b"[" * 100_000 + b"]" * 100_000,                                # nested past the parser
     "cannot parse automaton spec .*recursion"),
]
NON_STRING_FIELDS = [
    ("ab", [["a", "go", "b"]], NOT_STATES),                # a string is not a list of states
    (["a", ["b"]], [["a", "go", "a"]], NOT_STATES),        # list-valued state name
    (["a", "b"], [["a", ["go"], "b"]], NOT_TRIPLES),       # list-valued label
    (["a", "b"], [["a", "go", 1]], NOT_TRIPLES),           # non-string target
    (["a", "b"], [["a", "go"]], NOT_TRIPLES),              # not a triple
    (["a", "b"], {"a": "b"}, NOT_TRIPLES),                 # transitions not a list
    (["a", "b"], ["a go b"], NOT_TRIPLES),                 # transition not a list
]


class TestSpecValidation:
    def test_family_tree_valid(self):
        family_tree()

    def test_unknown_target(self):
        with pytest.raises(CdamError, match="transition target 'b' is not a state"):
            AutomatonSpec(states=["a"], transitions=[("a", "go", "b")])

    def test_unknown_source(self):
        with pytest.raises(CdamError, match="transition source 'b' is not a state"):
            AutomatonSpec(states=["a"], transitions=[("b", "go", "a")])

    def test_duplicate_state(self):
        with pytest.raises(CdamError, match="state names must be unique"):
            AutomatonSpec(states=["a", "a"], transitions=[])

    def test_duplicate_transition_pair(self):
        with pytest.raises(CdamError, match=r"duplicate transition for \('a', 'go'\)"):
            AutomatonSpec(states=["a", "b"], transitions=[("a", "go", "b"), ("a", "go", "a")])

    def test_bad_reserve_fraction(self):
        with pytest.raises(CdamError, match=r"reserve fraction 1.0 outside \(0, 1\)"):
            AutomatonSpec(states=["a"], transitions=[], reserve_fraction=1.0)

    @pytest.mark.parametrize("fields, message", BAD_FIELDS,
                             ids=[f"fields{i}" for i in range(len(BAD_FIELDS))])
    def test_field_types_raise_spec_error(self, fields, message):
        with pytest.raises(CdamError, match=message):
            AutomatonSpec(**fields)

    def test_checked_spec_cannot_change(self):
        vec = np.linspace(0.0, 1.0, 100)
        content = {"a": vec, "b": 1.0 - vec}
        given = {name: v.copy() for name, v in content.items()}
        spec = AutomatonSpec(["a", "b"], [("a", "go", "b")], state_content=content)
        for field in ("states", "transitions", "reserve_fraction", "state_content"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, field, None)
        runner = AutomatonRunner(spec, n=100, seed=0)
        patterns = runner.patterns.values.copy()
        vec[:] = 0.5
        content["b"] = np.zeros(100)
        content["c"] = np.ones(100)
        assert list(spec.state_content) == ["a", "b"]
        assert all(np.array_equal(spec.state_content[name], given[name]) for name in given)
        assert np.array_equal(runner.patterns.values, patterns)
        assert not any(v.flags.writeable for v in spec.state_content.values())
        with pytest.raises(ValueError, match="read-only"):
            spec.state_content["a"][0] = 1.0

    def test_reserve_split_needs_both_blocks(self):
        spec = AutomatonSpec(states=["a"], transitions=[], reserve_fraction=0.04)
        with pytest.raises(CdamError, match="reserve fraction 0.04 leaves an empty block at n=10"):
            compose_automaton_patterns(spec, 10, 0)  # floor(0.04 * 10) leaves no reserved slots

    # the spec is checked when it is made, so construction raises before
    # either builder runs
    @pytest.mark.parametrize("build", [lambda spec: compose_automaton_patterns(spec, 100, 0),
                                       lambda spec: AutomatonRunner(spec, n=100, seed=0)],
                             ids=["compose", "runner"])
    def test_unknown_target_rejected_when_built(self, build):
        with pytest.raises(CdamError, match="transition target 'b' is not a state"):
            build(AutomatonSpec(["a"], [("a", "go", "b")]))


class TestGraphConstruction:
    def test_family_tree_shape(self):
        _, g, _ = compose_automaton_patterns(family_tree(), 100, 0)
        assert g.p == 16
        a = g.adjacency()
        # self-loop on every state vertex, none on transition vertices
        assert np.array_equal(np.diag(a)[:4], np.ones(4))
        assert np.all(np.diag(a)[4:] == 0)
        # transition vertices: one out-edge, no in-edges
        assert np.all(a.sum(axis=1)[4:] == 1)
        assert np.all(a.sum(axis=0)[4:] == 0)

    def test_edges_realize_transition_table(self):
        spec = family_tree()
        _, g, _ = compose_automaton_patterns(spec, 100, 0)
        names = spec.vertex_names()
        idx = {n: i for i, n in enumerate(names)}
        a = g.adjacency()
        assert a[idx["Marge+husband"], idx["Homer"]] == 1.0
        assert a[idx["Bart+sister"], idx["Lisa"]] == 1.0
        for src, label, dst in spec.transitions:
            assert a[idx[f"{src}+{label}"], idx[dst]] == 1.0

    def test_empty_transitions_all_self_loops(self):
        spec = AutomatonSpec(states=["x", "y", "z"], transitions=[])
        _, g, _ = compose_automaton_patterns(spec, 100, 0)
        assert np.array_equal(g.adjacency(), np.eye(3))


class TestSpecFile:
    def test_round_trip(self, tmp_path):
        doc = {"states": ["on", "off"],
               "transitions": [["on", "toggle", "off"], ["off", "toggle", "on"]],
               "reserve_fraction": 0.6}
        path = tmp_path / "machine.json"
        path.write_text(json.dumps(doc))
        spec = load_spec_file(path)
        assert spec.states == ("on", "off")
        assert spec.reserve_fraction == 0.6
        assert spec.transitions == (("on", "toggle", "off"), ("off", "toggle", "on"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(CdamError, match="cannot parse automaton spec"):
            load_spec_file(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(CdamError, match="expected keys 'states' and 'transitions'"):
            load_spec_file(path)

    @pytest.mark.parametrize("raw, message", UNREADABLE_SPECS,
                             ids=[raw for raw, _ in UNREADABLE_SPECS])
    def test_undecodable_or_out_of_range_raise_spec_error(self, tmp_path, raw, message):
        path = tmp_path / "odd.json"
        path.write_bytes(raw)
        with pytest.raises(CdamError, match=message):
            load_spec_file(path)

    @pytest.mark.parametrize(
        "states, transitions, message", NON_STRING_FIELDS,
        ids=[f"{s if isinstance(s, str) else f'states{i}'}-transitions{i}"
             for i, (s, _, _) in enumerate(NON_STRING_FIELDS)])
    def test_non_string_fields_raise_spec_error(self, tmp_path, states, transitions, message):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({"states": states, "transitions": transitions}))
        with pytest.raises(CdamError, match=message):
            load_spec_file(path)


_NAME = st.sampled_from(["a", "b", "go"]) | st.text(max_size=2)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


class TestSpecFileFuzz:
    # Documents are mostly well-typed with a small name alphabet, so that a
    # fair share of them load and the valid-spec branch is exercised.
    @settings(max_examples=200, deadline=None)
    @given(
        states=st.sampled_from([["a"], ["a", "b"], ["b", "a"]]) | st.lists(_NAME, max_size=3)
        | _JSON,
        transitions=st.lists(st.tuples(st.sampled_from("ab"), _NAME, st.sampled_from("ab")),
                             max_size=3) | _JSON,
        reserve=st.sampled_from([None] * 4 + [0.6, 0, 1, "0.5", "x", [], 10**400, float("nan")]),
        junk=st.one_of(st.none(), st.none(), st.binary(max_size=4)),
        at=st.integers(0, 60),
    )
    def test_fuzzed_spec_loads_or_raises_cdam_error(self, tmp_path_factory, states, transitions,
                                                    reserve, junk, at):
        # contract: a CdamError or a checked spec, never another exception
        doc = {"states": states, "transitions": transitions}
        if reserve is not None:
            doc["reserve_fraction"] = reserve
        raw = json.dumps(doc).encode()
        if junk is not None:
            raw = raw[:at] + junk + raw[at:]
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_bytes(raw)
        try:
            spec = load_spec_file(path)
        except CdamError:
            return
        assert dataclasses.replace(spec) == spec  # constructing it again passes the checks
        assert all(isinstance(t, tuple) for t in spec.transitions)


class TestRunner:
    def test_defined_transition(self):
        runner = AutomatonRunner(family_tree(), n=600, seed=0)
        runner.set_state("Marge")
        name, r = runner.query("husband")
        assert name == "Homer" and runner.state == "Homer"
        assert r > 0.5

    def test_undefined_returns_to_source(self):
        runner = AutomatonRunner(family_tree(), n=600, seed=0)
        runner.set_state("Homer")
        name, _ = runner.query("brother")
        assert name == "Homer" and runner.state == "Homer"

    def test_unknown_state(self):
        runner = AutomatonRunner(family_tree(), n=200, seed=0)
        with pytest.raises(CdamError, match="unknown state 'Maggie'"):
            runner.set_state("Maggie")

    def test_script_trajectories(self):
        runner = AutomatonRunner(family_tree(), n=600, seed=0)
        runner.set_state("Marge")
        after = []
        for label in ["husband", "brother", "daughter"]:
            runner.query(label)
            after.append(runner.state)
        assert after == ["Homer", "Homer", "Lisa"]

    def test_sweep_reproduces_edge_set(self):
        spec = family_tree()
        target = {(s, label): d for s, label, d in spec.transitions}
        report = automaton_sweep(spec, n=600, seed=0)
        assert (report.name, report.params) == ("automaton-sweep", {"n": 600, "seed": 0})
        landed = report.outputs["landed"]
        assert list(landed) == spec.vertex_names()
        for vertex, got in landed.items():
            if "+" in vertex:
                assert got == target[tuple(vertex.split("+", 1))]
            else:
                assert got == vertex
