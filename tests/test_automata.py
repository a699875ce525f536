import json

import numpy as np
import pytest

from cdam.automata import AutomatonSpec, family_tree, load_spec_file
from cdam.errors import SpecError, UnknownNameError
from cdam.experiments import AutomatonRunner, automaton_run, automaton_sweep
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
        assert np.all(g.out_degrees()[4:] == 1)
        assert np.all(g.in_degrees()[4:] == 0)

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
        assert spec.target_of("on", "toggle") == "off"

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
        tr = automaton_run(family_tree(), ["husband", "brother", "daughter"],
                           start="Marge", n=600, seed=0)
        assert [e["state_after"] for e in tr.entries] == ["Homer", "Homer", "Lisa"]

    def test_sweep_reproduces_edge_set(self):
        spec = family_tree()
        landed = automaton_sweep(spec, n=600, seed=0)
        for vertex, got in landed.items():
            if "+" in vertex:
                src, label = vertex.split("+", 1)
                assert got == spec.target_of(src, label)
            else:
                assert got == vertex
