import json

import numpy as np
import pytest

from cdam import experiments as X
from cdam.automata import family_tree
from cdam.dynamics import (
    ModelParams,
    PatternMatrix,
    init_state,
    iterate,
    pearson_all,
)
from cdam.errors import (
    ContractError,
    InvalidSizeError,
    NumericDivergenceError,
    UndefinedCorrelationError,
)
from cdam.graphs import (
    MemoryGraph,
    build_cycle,
    build_named,
    build_nn_scaffold,
    hop_distances,
    normalize,
)
from cdam.ingest import random_patterns
from oracles import step_by_hand, uncached_pearson_matrix

# Overflows to a non-finite state within a few steps on any small store.
DIVERGENT = (1e308, 1e308)


class TestBatchedRunner:
    def test_matches_single_runs_exactly(self, monkeypatch):
        # the batched harness must agree with stepping each trigger on its
        # own with the same noise
        rng = np.random.default_rng(3)
        patterns = PatternMatrix(rng.uniform(0, 1, (60, 6)))
        coupling = normalize(build_cycle(6))
        params = ModelParams(a=-0.5, h=1.5)
        monkeypatch.setattr(X, "DEFAULT_STEPS", 20)
        res = X.run_all_triggers(patterns, coupling, params, seed=9)

        noise = np.random.default_rng(9).uniform(-0.5, 0.5, (60, 6))
        for trig in range(6):
            state = iterate(patterns.values[:, trig] + noise[:, trig], patterns, coupling, params,
                            20)[0]
            assert np.max(np.abs(state - res["final_states"][:, trig])) < 1e-12

    def test_cached_pattern_correlations_equal_uncached_formula(self, monkeypatch):
        # the experiments' shape: reduction-order changes show at this size
        rng = np.random.default_rng(5)
        patterns = PatternMatrix(rng.uniform(0, 1, (1000, 30)))
        coupling, params = normalize(build_cycle(30)), ModelParams(a=0.5, h=0.5)
        monkeypatch.setattr(X, "DEFAULT_STEPS", 25)
        res = X.run_all_triggers(patterns, coupling, params, seed=2, snapshots=(1, 10, 25))
        assert np.array_equal(res["pattern_correlations"],
                              uncached_pearson_matrix(patterns.values, res["final_states"]))
        for t, mat in res["snapshots"].items():
            monkeypatch.setattr(X, "DEFAULT_STEPS", t)
            sig = X.run_all_triggers(patterns, coupling, params, seed=2)["final_states"]
            assert np.array_equal(mat, uncached_pearson_matrix(patterns.values, sig))
        assert np.array_equal(X.state_correlation_matrix(res["final_states"]),
                              uncached_pearson_matrix(res["final_states"], res["final_states"]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_state_raises(self, monkeypatch):
        rng = np.random.default_rng(0)
        monkeypatch.setattr(X, "DEFAULT_STEPS", 5)
        with pytest.raises(NumericDivergenceError):
            X.run_all_triggers(PatternMatrix(rng.uniform(0, 1, (50, 6))), normalize(build_cycle(6)),
                               ModelParams(a=DIVERGENT[0], h=DIVERGENT[1], eta=1.0))

    @pytest.mark.parametrize("snapshots, step", [((), 101), ((1, 50), 1)])
    def test_overflowing_readout_raises(self, snapshots, step):
        # finite states of size 6e199, whose centered norms overflow
        with pytest.raises(NumericDivergenceError, match="readout") as caught:
            X.run_all_triggers(random_patterns(1000, 30, 0), normalize(build_cycle(30)),
                               ModelParams(a=1e200, h=0), snapshots=snapshots)
        assert caught.value.step == step

    def test_snapshot_times(self, monkeypatch):
        rng = np.random.default_rng(4)
        patterns = PatternMatrix(rng.uniform(0, 1, (40, 5)))
        monkeypatch.setattr(X, "DEFAULT_STEPS", 30)
        res = X.run_all_triggers(patterns, normalize(build_cycle(5)), ModelParams(),
                                 seed=1, snapshots=(1, 11, 26))
        assert set(res["snapshots"]) == {1, 11, 26}
        for mat in res["snapshots"].values():
            assert mat.shape == (5, 5)


class TestRelabelling:
    """Permuting the pattern columns and relabelling the graph by the same
    permutation only permutes the outputs (up to reduction order)."""

    @pytest.mark.parametrize("graph", [build_cycle(12), build_cycle(12, directed=True),
                                       build_named("karate")],
                             ids=["cycle12", "dicycle12", "karate"])
    @pytest.mark.parametrize("a, h", X.FOUR_MODE_SETTINGS)
    def test_relabelling_permutes_outputs(self, graph, a, h):
        rng = np.random.default_rng(graph.p)
        xi = rng.uniform(0, 1, (300, graph.p))
        sig0 = xi + rng.uniform(-0.5, 0.5, xi.shape)
        perm = rng.permutation(graph.p)  # new vertex k is old vertex perm[k]
        new_label = np.argsort(perm)
        relabelled = MemoryGraph(graph.p, tuple((new_label[u], new_label[v], w)
                                                for u, v, w in graph.edges), graph.directed)
        params = ModelParams(a=a, h=h)
        pm, pm_perm = PatternMatrix(xi), PatternMatrix(xi[:, perm])
        final = iterate(sig0, pm, normalize(graph), params, 101)[0]
        final_perm = iterate(sig0[:, perm], pm_perm, normalize(relabelled), params, 101)[0]
        assert np.max(np.abs(final_perm - final[:, perm])) < 1e-10
        for k in range(graph.p):
            r = pearson_all(final[:, perm[k]], pm)
            assert np.max(np.abs(pearson_all(final_perm[:, k], pm_perm) - r[perm])) < 1e-10


class TestHopProfiles:
    def test_state_correlation_matrix_properties(self):
        rng = np.random.default_rng(5)
        states = rng.normal(0, 1, (30, 7))
        mat = X.state_correlation_matrix(states)
        assert np.allclose(np.diag(mat), 1.0)
        assert np.allclose(mat, mat.T)

    def test_state_correlation_matrix_invariant_to_column_scale(self):
        rng = np.random.default_rng(8)
        states = rng.normal(0, 1, (60, 9))
        scale = rng.uniform(1e-3, 1e3, 9)
        diff = X.state_correlation_matrix(states * scale) - X.state_correlation_matrix(states)
        assert np.max(np.abs(diff)) < 1e-12

    def test_state_correlation_matrix_zero_variance_raises(self):
        with pytest.raises(UndefinedCorrelationError):
            X.state_correlation_matrix(np.ones((5, 3)))

    def test_profile_hop_zero_is_one(self):
        g = build_cycle(8)
        rng = np.random.default_rng(6)
        mat = X.state_correlation_matrix(rng.normal(0, 1, (50, 8)))
        means, _ = X.hop_profile(hop_distances(g), mat, max_hop=4)
        assert means[0] == pytest.approx(1.0)

    def test_permutation_consistency(self):
        rng = np.random.default_rng(7)
        states = rng.normal(0, 1, (40, 6))
        mat = X.state_correlation_matrix(states)
        perm = rng.permutation(6)
        permuted = X.state_correlation_matrix(states[:, perm])
        assert np.allclose(permuted, mat[np.ix_(perm, perm)])

    def test_effective_range_thresholding(self):
        # hop 4 exceeds the threshold even though hop 3 does not
        assert X.effective_range(np.array([1.0, 0.5, 0.2, 0.05, 0.3])) == 4
        assert X.effective_range(np.array([0.05, 0.01])) == 0

    def test_per_trigger_ranges_on_known_matrix(self):
        g = build_cycle(6)
        mat = np.eye(6)
        for i in range(6):
            mat[i, (i + 1) % 6] = mat[(i + 1) % 6, i] = 0.5
        ranges = X.per_trigger_ranges(hop_distances(g), mat, max_hop=3)
        assert list(ranges) == [1] * 6

    def test_hop_matrix_built_once_per_experiment(self, monkeypatch):
        calls = []
        monkeypatch.setattr(X, "hop_distances",
                            lambda *args: calls.append(args) or hop_distances(*args))
        X.hop_range(n=40, seed=1)
        assert len(calls) == 1
        calls.clear()
        monkeypatch.setattr(X, "MIYASHITA_SEEDS", (0, 1))
        X.miyashita_fit(n=40)
        assert len(calls) == 1


class TestBlockContrast:
    def test_perfect_blocks(self):
        mat = np.full((4, 4), -0.2)
        mat[:2, :2] = 0.8
        mat[2:, 2:] = 0.8
        np.fill_diagonal(mat, 1.0)
        assert X.block_contrast(mat, [[0, 1], [2, 3]]) == pytest.approx(1.0)

    def test_blocks_must_cover(self):
        with pytest.raises(ContractError):
            X.block_contrast(np.eye(4), [[0, 1], [2]])


class TestScheduleMetrics:
    def test_perfect_schedule(self):
        sched = [k // 3 % 5 for k in range(15 * 4)]
        m = X.schedule_metrics(sched, 5)
        assert m["visited_in_order"] and m["stalls"] == 0 and m["skips"] == 0
        assert m["steps_to_cover"] == 13

    def test_stall_counted_once_per_dwell(self):
        m = X.schedule_metrics([0] * 100 + [1] * 5, 5)
        assert m["stalls"] == 1
        assert not m["visited_in_order"]

    def test_skip_detection(self):
        m = X.schedule_metrics([0, 1, 3, 4], 5)
        assert m["skips"] == 1

    def test_backward_move_counts_as_skip(self):
        m = X.schedule_metrics([2, 1], 5)
        assert m["skips"] == 1


class TestSurrogates:
    def test_frames_deterministic_and_bounded(self):
        a = X.surrogate_frames(seed=3)
        b = X.surrogate_frames(seed=3)
        assert np.array_equal(a.values, b.values)
        assert a.values.min() >= 0 and a.values.max() <= 1
        assert a.p == 50 and a.n == 2000

    def test_frames_correlation_structure(self):
        frames = X.surrogate_frames(seed=0)
        cc = np.corrcoef(frames.values.T)
        adjacent = [cc[k, k + 1] for k in range(49) if k + 1 not in (17, 34)]
        assert min(adjacent) > 0.8  # smooth drift
        assert abs(cc[16, 17]) < 0.2 and abs(cc[33, 34]) < 0.2  # context switches

    def test_image_bank_shape_and_determinism(self):
        bank = X.surrogate_image_bank(seed=77)
        assert bank.shape == (784, 500)
        assert np.array_equal(bank, X.surrogate_image_bank(seed=77))
        assert bank.min() >= 0 and bank.max() <= 1


class TestReports:
    def test_write_report_directory(self, tmp_path):
        rep = X.ExperimentReport("demo", {"n": 3})
        rep.outputs["square"] = np.eye(3)
        rep.outputs["value"] = 1.25
        rep.outputs["series"] = np.arange(4.0)
        rep.write(tmp_path / "out")
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["name"] == "demo"
        assert doc["outputs"]["value"] == 1.25
        assert (tmp_path / "out" / "matrices" / "square.csv").exists()
        assert (tmp_path / "out" / "heatmaps" / "square.pgm").exists()
        assert (tmp_path / "out" / "traces" / "series.csv").exists()

    def test_heatmap_value_mapping(self, tmp_path):
        from cdam.ingest import read_pnm
        from cdam.reports import matrix_to_pgm
        matrix_to_pgm(np.array([[-1.0, 0.0], [0.5, 1.0]]), tmp_path / "m.pgm")
        arr, maxval = read_pnm(tmp_path / "m.pgm")
        assert maxval == 255
        assert list(arr.reshape(-1)) == [0, 128, 191, 255]


class TestSequenceRecall:
    def test_schedule_matches_update_step_by_hand(self, monkeypatch):
        for name, value in [("FRAME_COUNT", 8), ("FRAME_N", 200), ("FRAME_SWITCHES", (4,)),
                            ("SEQUENCE_STEPS", 60), ("SEQUENCE_TRIGGER", 2)]:
            monkeypatch.setattr(X, name, value)
        frames = X.surrogate_frames(seed=3)
        rep = X.sequence_recall(frames, seed=5)
        coupling = normalize(build_cycle(8, directed=True))
        for a, h in X.SEQUENCE_SETTINGS:
            sig = frames.values[:, 2] + np.random.default_rng(5).uniform(-0.5, 0.5, 200)
            states = step_by_hand(sig, frames, coupling, ModelParams(a=a, h=h), 60)[1:]
            schedule = [int(np.argmax(pearson_all(state, frames))) for state in states]
            assert rep.outputs[f"schedule_a{a:+g}_h{h:+g}"] == schedule

    def test_stock_schedules_match_state_space(self):
        # the pattern-basis readout against argmax(pearson_all) of the states
        frames = X.surrogate_frames(0)
        rep = X.sequence_recall(frames, seed=1)
        coupling = normalize(build_cycle(X.FRAME_COUNT, directed=True))
        for a, h in X.SEQUENCE_SETTINGS:
            schedule = []
            iterate(init_state(frames, X.SEQUENCE_TRIGGER, X.DEFAULT_NOISE, 1), frames, coupling,
                    ModelParams(a=a, h=h), X.SEQUENCE_STEPS,
                    observe=lambda t, s: schedule.append(int(np.argmax(pearson_all(s, frames)))))
            assert len(schedule) == 1500
            assert rep.outputs[f"schedule_a{a:+g}_h{h:+g}"] == schedule

    def test_zero_variance_frame_raises(self):
        values = np.random.default_rng(2).uniform(0, 1, (50, 6))
        values[:, 3] = 0.5
        with pytest.raises(UndefinedCorrelationError):
            X.sequence_recall(PatternMatrix(values))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_state_raises(self, monkeypatch):
        for name, value in [("FRAME_COUNT", 6), ("FRAME_N", 50),
                            ("SEQUENCE_SETTINGS", (DIVERGENT,)), ("SEQUENCE_STEPS", 20)]:
            monkeypatch.setattr(X, name, value)
        with pytest.raises(NumericDivergenceError):
            X.sequence_recall(X.surrogate_frames())


class TestAutomatonRunner:
    def test_settle_from_matches_update_step_by_hand(self):
        runner = X.AutomatonRunner(family_tree(), n=300, seed=1)
        for vertex in runner.names:
            sigma = runner.patterns.values[:, runner.index[vertex]].copy()
            state = step_by_hand(sigma, runner.patterns, runner.coupling, X.AUTOMATON_PARAMS,
                                 X.DEFAULT_STEPS, tol=1e-9)[-1]
            r = pearson_all(state, runner.patterns)
            top = int(np.argmax(r))
            assert runner.settle_from(vertex) == (runner.names[top], float(r[top]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_state_raises(self, monkeypatch):
        monkeypatch.setattr(X, "AUTOMATON_PARAMS",
                            ModelParams(a=DIVERGENT[0], h=DIVERGENT[1], eta=1.0))
        runner = X.AutomatonRunner(family_tree(), n=200)
        with pytest.raises(NumericDivergenceError):
            runner.settle_from("Homer")
        with pytest.raises(NumericDivergenceError):
            runner.query("wife")

    def test_settled_state_too_large_to_read_raises(self, monkeypatch):
        # the state stays finite, but its norm overflows
        monkeypatch.setattr(X, "AUTOMATON_PARAMS", ModelParams(a=1e200, h=0.0, beta=50.0, eta=1.0))
        runner = X.AutomatonRunner(family_tree(), n=200)
        with pytest.raises(NumericDivergenceError) as exc:
            runner.settle_from("Marge")
        assert "readout" in str(exc.value) and exc.value.step >= 1


class TestRetrievalSweep:
    def test_accuracy_matches_update_step_by_hand(self, monkeypatch):
        monkeypatch.setattr(X, "BANK_N", 100)
        bank = X.surrogate_image_bank(seed=3)[:, :12]
        settings = ((0.5, 0.5), (1.0, 0.0))
        monkeypatch.setattr(X, "SWEEP_SETTINGS", settings)
        monkeypatch.setattr(X, "DEFAULT_STEPS", 30)
        rep = X.retrieval_sweep(bank, p_levels=(6, 12), trials=2, seed=4)
        for p in (6, 12):
            patterns = PatternMatrix(bank[:, :p])
            coupling = normalize(build_nn_scaffold(bank[:, :p]))
            base = np.repeat(bank[:, :p], 2, axis=1)
            sig0 = base + np.random.default_rng(4).uniform(-0.5, 0.5, base.shape)
            targets = np.repeat(np.arange(p), 2)
            for a, h in settings:
                finals = [step_by_hand(sig0[:, j], patterns, coupling, ModelParams(a=a, h=h), 30)[-1]
                          for j in range(2 * p)]
                predicted = [int(np.argmax(bank[:, :p].T @ s)) for s in finals]
                want = float(np.mean(np.array(predicted) == targets))
                assert rep.outputs["accuracy"][f"a{a:+g}_h{h:+g}"][p] == want

    def test_logits_match_state_space_iterate(self):
        # the sweep iterates logits; the state-space loop is the reference
        bank = X.surrogate_image_bank(seed=5)[:, :60]
        levels, trials = (10, 30, 60), 2
        rep = X.retrieval_sweep(bank, p_levels=levels, trials=trials, seed=2)
        want = {f"a{a:+g}_h{h:+g}": {} for a, h in X.SWEEP_SETTINGS}
        for p in levels:
            xi = bank[:, :p]
            patterns, coupling = PatternMatrix(xi), normalize(build_nn_scaffold(xi))
            base = np.repeat(xi, trials, axis=1)
            sig0 = base + np.random.default_rng(2).uniform(-0.5, 0.5, base.shape)
            for a, h in X.SWEEP_SETTINGS:
                params = ModelParams(a=a, h=h)
                states = iterate(sig0, patterns, coupling, params, X.DEFAULT_STEPS)[0]
                logits = iterate(xi.T @ sig0, patterns, coupling, params, X.DEFAULT_STEPS,
                                 logits=True)[0]
                assert np.max(np.abs(logits - xi.T @ states)) < 1e-10
                hits = np.argmax(xi.T @ states, axis=0) == np.repeat(np.arange(p), trials)
                want[f"a{a:+g}_h{h:+g}"][p] = float(np.mean(hits))
        assert rep.outputs["accuracy"] == want

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_state_raises(self, monkeypatch):
        monkeypatch.setattr(X, "SWEEP_SETTINGS", (DIVERGENT,))
        monkeypatch.setattr(X, "DEFAULT_STEPS", 5)
        with pytest.raises(NumericDivergenceError):
            X.retrieval_sweep(X.surrogate_image_bank()[:, :10], p_levels=(6,), trials=1)


class TestExperimentDeterminism:
    def test_four_modes_reproducible(self, monkeypatch):
        g = build_cycle(30)
        monkeypatch.setattr(X, "FOUR_MODE_SETTINGS", ((1.0, 0.0),))
        a = X.four_modes(g, n=200, seed=5)
        b = X.four_modes(g, n=200, seed=5)
        assert np.array_equal(a.outputs["corr_a+1_h+0"], b.outputs["corr_a+1_h+0"])

    def test_retrieval_sweep_levels_validated(self):
        bank = X.surrogate_image_bank()[:, :50]
        with pytest.raises(ContractError):
            X.retrieval_sweep(bank, p_levels=(10, 100), trials=1)

    def test_retrieval_sweep_single_pattern_is_rejected(self):
        # one stored pattern has no nearest neighbor to build a scaffold from
        bank = X.surrogate_image_bank()[:, :4]
        with pytest.raises(InvalidSizeError):
            X.retrieval_sweep(bank, p_levels=(1,), trials=3, seed=1)

    def test_dataset_fingerprint_recorded(self, monkeypatch):
        bank = X.surrogate_image_bank()[:, :8]
        monkeypatch.setattr(X, "SWEEP_SETTINGS", ((1.0, 0.0),))
        rep = X.retrieval_sweep(bank, p_levels=(4,), trials=1)
        assert len(rep.manifest["dataset_fingerprint"]) == 16


class TestMiyashitaFit:
    def test_exact_table_gives_unit_r2(self):
        from cdam.stats import r_squared
        assert r_squared(X.MIYASHITA_MEANS, X.MIYASHITA_MEANS) == pytest.approx(1.0)

    def test_pure_auto_profile_fits_poorly(self, monkeypatch):
        # a spike at hop 0 with a flat tail cannot reach the 0.98 band
        monkeypatch.setattr(X, "MIYASHITA_PARAMS", (1.0, 0.0))
        monkeypatch.setattr(X, "MIYASHITA_SEEDS", (0,))
        rep = X.miyashita_fit(n=400)
        assert rep.outputs["r2_mean"] < 0.95
        prof = rep.outputs["profiles"][0]
        assert prof[0] == pytest.approx(1.0)
        assert np.all(np.abs(prof[1:]) < 0.3)


class TestHopRangeOp:
    def test_pure_auto_effective_range_zero(self):
        rep = X.hop_range(n=300, seed=2)
        assert rep.outputs["effective_range_a+1_h+0"] == 0
