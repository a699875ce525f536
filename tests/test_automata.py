import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdam.automata import AutomatonSpec, family_tree, load_spec_file
from cdam.errors import CdamError, SpecError, UnknownNameError
from cdam.experiments import AutomatonRunner, automaton_sweep
from cdam.graphs import build_automaton_graph


class TestSpecValidation:
    def test_family_tree_valid(self):
        family_tree().validate()

    def test_unknown_target(self):
        spec = AutomatonSpec(states=["a"], transitions=[("a", "go", "b")])
        with pytest.raises(SpecError):
            spec.validate()

    def test_unknown_source(self):
        spec = AutomatonSpec(states=["a"], transitions=[("b", "go", "a")])
        with pytest.raises(SpecError):
            spec.validate()

    def test_duplicate_state(self):
        with pytest.raises(SpecError):
            AutomatonSpec(states=["a", "a"], transitions=[]).validate()

    def test_duplicate_transition_pair(self):
        spec = AutomatonSpec(states=["a", "b"],
                             transitions=[("a", "go", "b"), ("a", "go", "a")])
        with pytest.raises(SpecError):
            spec.validate()

    def test_bad_reserve_fraction(self):
        spec = AutomatonSpec(states=["a"], transitions=[], reserve_fraction=1.0)
        with pytest.raises(SpecError):
            spec.validate()

    @pytest.mark.parametrize("fields", [
        {"states": ["a", ["b"]], "transitions": []},           # list-valued state name
        {"states": "ab", "transitions": []},                   # a string is not a list of states
        {"states": ["a"], "transitions": [("a", 1, "a")]},     # non-string label
        {"states": ["a"], "transitions": [("a", "go")]},       # not a triple
        {"states": ["a"], "transitions": ("a", "go", "a")},    # one triple, not a list of them
        {"states": ["a"], "transitions": [], "reserve_fraction": "0.5"},
        {"states": ["a"], "transitions": [], "state_content": {"a": 3}},        # not a vector
        {"states": ["a"], "transitions": [], "state_content": [np.zeros(4)]},  # not a dict
        {"states": ["a"], "transitions": [], "state_content": {"a": "abc"}},   # not numeric
        {"states": ["a"], "transitions": [], "state_content": {"a": np.zeros((2, 2))}},  # 2-D
        {"states": ["a"], "transitions": [], "state_content": {1: np.ones(3)}},      # key not a str
        {"states": ["a"], "transitions": [], "state_content": {"a": np.zeros(0)}},   # empty
        {"states": ["a"], "transitions": [], "state_content": {"a": [1.0, np.nan]}},  # not finite
        {"states": ["a"], "transitions": [], "state_content": {"a": np.ones(2, dtype=complex)}},
        {"states": ["a"], "transitions": [], "state_content": {"a": [[1.0], [2.0, 3.0]]}},  # ragged
        {"states": ["a", "b"], "transitions": [],
         "state_content": {"a": np.ones(3), "b": np.ones(4)}},                       # lengths differ
        {"states": ["a", "b"], "transitions": [], "state_content": {"a": np.ones(3)}},  # missing "b"
    ])
    def test_field_types_raise_spec_error(self, fields):
        with pytest.raises(SpecError):
            AutomatonSpec(**fields).validate()

    def test_slot_counts_need_both_blocks(self):
        spec = AutomatonSpec(states=["a"], transitions=[], reserve_fraction=0.04)
        with pytest.raises(SpecError):
            spec.slot_counts(10)  # floor(0.04 * 10) leaves no reserved slots


class TestGraphConstruction:
    def test_family_tree_shape(self):
        g = build_automaton_graph(family_tree())
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
        g = build_automaton_graph(spec)
        names = spec.vertex_names()
        idx = {n: i for i, n in enumerate(names)}
        a = g.adjacency()
        assert a[idx["Marge+husband"], idx["Homer"]] == 1.0
        assert a[idx["Bart+sister"], idx["Lisa"]] == 1.0
        for src, label, dst in spec.transitions:
            assert a[idx[f"{src}+{label}"], idx[dst]] == 1.0

    def test_empty_transitions_all_self_loops(self):
        spec = AutomatonSpec(states=["x", "y", "z"], transitions=[])
        g = build_automaton_graph(spec)
        assert np.array_equal(g.adjacency(), np.eye(3))


class TestSpecFile:
    def test_round_trip(self, tmp_path):
        doc = {"states": ["on", "off"],
               "transitions": [["on", "toggle", "off"], ["off", "toggle", "on"]],
               "reserve_fraction": 0.6}
        path = tmp_path / "machine.json"
        path.write_text(json.dumps(doc))
        spec = load_spec_file(path)
        assert spec.states == ["on", "off"]
        assert spec.reserve_fraction == 0.6
        assert spec.transitions == [("on", "toggle", "off"), ("off", "toggle", "on")]

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SpecError):
            load_spec_file(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(SpecError):
            load_spec_file(path)

    @pytest.mark.parametrize("raw", [
        b'{"states": ["caf\xe9"], "transitions": []}',                  # Latin-1, not UTF-8
        b'{"states": ["a"], "transitions": [], "reserve_fraction": 1' + b"0" * 400 + b"}",
        b"[" * 100_000 + b"]" * 100_000,                                # nested past the parser
    ])
    def test_undecodable_or_out_of_range_raise_spec_error(self, tmp_path, raw):
        path = tmp_path / "odd.json"
        path.write_bytes(raw)
        with pytest.raises(SpecError):
            load_spec_file(path)

    @pytest.mark.parametrize("states, transitions", [
        ("ab", [["a", "go", "b"]]),                # a string is not a list of states
        (["a", ["b"]], [["a", "go", "a"]]),        # list-valued state name
        (["a", "b"], [["a", ["go"], "b"]]),        # list-valued label
        (["a", "b"], [["a", "go", 1]]),            # non-string target
        (["a", "b"], [["a", "go"]]),               # not a triple
        (["a", "b"], {"a": "b"}),                  # transitions not a list
        (["a", "b"], ["a go b"]),                  # transition not a list
    ])
    def test_non_string_fields_raise_spec_error(self, tmp_path, states, transitions):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({"states": states, "transitions": transitions}))
        with pytest.raises(SpecError):
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
        # contract: a CdamError or a spec that validates, never another exception
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
        spec.validate()
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
        with pytest.raises(UnknownNameError):
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
