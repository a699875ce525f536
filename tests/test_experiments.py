import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdam import experiments as X
from cdam.automata import family_tree
from cdam.dynamics import (
    ModelParams,
    PatternMatrix,
    init_state,
    iterate,
    pearson_all,
    softmax_beta,
)
from cdam.errors import CdamError, NumericDivergenceError
from cdam.graphs import (
    MemoryGraph,
    build_cycle,
    build_named,
    build_nn_scaffold,
    build_random_regular,
    hop_distances,
    normalize,
)
from cdam.ingest import random_patterns
from oracles import (
    fixed_point,
    jacobian_spectrum,
    linearized_fixed_point,
    mode_thresholds,
    narrow_mode_profile,
    naive_schedule_metrics,
    step_by_hand,
    uncached_pearson_matrix,
)

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
        final = X.run_all_triggers(patterns, coupling, params, seed=9)[0]

        noise = np.random.default_rng(9).uniform(-0.5, 0.5, (60, 6))
        for trig in range(6):
            state = iterate(patterns.values[:, trig] + noise[:, trig], patterns, coupling, params,
                            20)[0]
            assert np.max(np.abs(state - final[:, trig])) < 1e-12

    def test_cached_pattern_correlations_equal_uncached_formula(self, monkeypatch):
        # the experiments' shape: reduction-order changes show at this size
        rng = np.random.default_rng(5)
        patterns = PatternMatrix(rng.uniform(0, 1, (1000, 30)))
        coupling, params = normalize(build_cycle(30)), ModelParams(a=0.5, h=0.5)
        monkeypatch.setattr(X, "DEFAULT_STEPS", 25)
        final, readouts = X.run_all_triggers(patterns, coupling, params, seed=2,
                                             snapshots=(1, 10, 25))
        assert np.array_equal(readouts[25], uncached_pearson_matrix(patterns.values, final))
        for t, mat in readouts.items():
            monkeypatch.setattr(X, "DEFAULT_STEPS", t)
            sig = X.run_all_triggers(patterns, coupling, params, seed=2)[0]
            assert np.array_equal(mat, uncached_pearson_matrix(patterns.values, sig))
        assert np.array_equal(X.state_correlation_matrix(final),
                              uncached_pearson_matrix(final, final))

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

    def test_constant_state_whose_mean_rounds_raises(self, monkeypatch):
        # a = h = 0 and eta = 0.5 halve every state exactly, so states that
        # start at 0.1 * 2**101 are the constant 0.1 at the last step
        patterns = PatternMatrix(np.random.default_rng(6).uniform(0, 1, (3, 3)))
        monkeypatch.setattr(X, "init_state", lambda pm, *args: np.full((3, 3), 0.1 * 2.0**101))
        with pytest.raises(CdamError, match="pearson undefined: zero-variance state"):
            X.run_all_triggers(patterns, normalize(build_cycle(3)), ModelParams(a=0, h=0, eta=0.5))

    def test_snapshot_times(self, monkeypatch):
        rng = np.random.default_rng(4)
        patterns = PatternMatrix(rng.uniform(0, 1, (40, 5)))
        monkeypatch.setattr(X, "DEFAULT_STEPS", 30)
        _, readouts = X.run_all_triggers(patterns, normalize(build_cycle(5)), ModelParams(),
                                         seed=1, snapshots=(1, 11, 26))
        assert list(readouts) == [1, 11, 26, 30]  # the snapshots and the last step
        for mat in readouts.values():
            assert mat.shape == (5, 5)

    def test_four_modes_reads_each_step_once(self, monkeypatch):
        steps = []
        readout = X._readout
        monkeypatch.setattr(X, "_readout",
                            lambda states, pm, t: steps.append(t) or readout(states, pm, t))
        X.four_modes(build_cycle(6), n=100)
        assert steps == [1, 11, 26, 101] * 4

    @pytest.mark.parametrize("snapshots", [(0, 5, 200), (0,), (5, 102), (-1,)])
    def test_snapshot_outside_the_run_raises(self, snapshots):
        # a step the run never reaches would otherwise be left out silently
        patterns = PatternMatrix(np.random.default_rng(4).uniform(0, 1, (40, 5)))
        with pytest.raises(CdamError, match=r"not all in 1\.\.101"):
            X.run_all_triggers(patterns, normalize(build_cycle(5)), ModelParams(),
                               snapshots=snapshots)
        _, readouts = X.run_all_triggers(patterns, normalize(build_cycle(5)), ModelParams(),
                                         snapshots=(1, X.DEFAULT_STEPS))
        assert list(readouts) == [1, 101]


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
        # the final states are the patterns of this readout
        with pytest.raises(CdamError, match="pearson undefined: zero-variance pattern"):
            X.state_correlation_matrix(np.ones((5, 3)))

    @pytest.mark.parametrize("states, message", [
        (np.array([[0.1, 0.2], [np.nan, 0.3], [0.5, 0.4]]), "contains non-finite values"),
        (np.array([0.1, 0.2, 0.3]), "must be 2-D")])
    def test_state_correlation_matrix_checks_states(self, states, message):
        with pytest.raises(CdamError, match=message):
            X.state_correlation_matrix(states)

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


class TestZeroStateRule:
    # the dynamics docstring's rule on the 30-cycle, n = 1000, pattern seed 0, run seed 1:
    # (-1, 1) is quiescent though it is not below -k*h (k = 2)
    @pytest.mark.parametrize("a, h, quiescent", [(-1.0, 1.0, True), (-2.5, 1.0, True),
                                                 (0.5, 0.5, False)])
    def test_multipliers_predict_quiescence(self, a, h, quiescent):
        graph, n, params = build_cycle(30), 1000, ModelParams(a=a, h=h)
        coupling = normalize(graph)
        lam = np.linalg.eigvalsh(coupling.matrix)
        assert lam[-1] == pytest.approx(1.0) and lam[-2] < 1 - 1e-3  # one constant eigenvector
        c = params.beta * n / (12 * graph.p)
        multipliers = 1 - params.eta + params.eta * c * (a + h * lam[:-1])
        assert (np.abs(multipliers).max() < 1) == quiescent
        final = X.run_all_triggers(random_patterns(n, graph.p, 0), coupling, params, seed=1)[0]
        assert (np.abs(final).max() < 1e-4) == quiescent

    # The zero-state verdicts on a committed grid, n = 1000, pattern seed 0:
    # the closed form against the exact spectral radius of the Euler step at
    # sigma = 0, max |1 + eta*mu| over the eigenvalues mu of jacobian_spectrum
    # there (the softmax Jacobian is (beta/p)(I - 11^T/p)), and 1 - eta for
    # the other n - p directions.  The closed form misses only cells near a
    # boundary, where the Marchenko-Pastur spread of Xi^T Xc about
    # (n/12)(I - 11^T/p) decides.
    GRID = [(a / 2, h / 2) for a in range(-8, 5) for h in range(0, 9)]

    @pytest.mark.parametrize("name, agree", [("cycle", 112), ("tutte", 116), ("regular", 115)])
    def test_closed_form_agrees_with_exact_radius_on_grid(self, name, agree):
        graph = {"cycle": lambda: build_cycle(30), "tutte": lambda: build_named("tutte"),
                 "regular": lambda: build_random_regular(46, 3, 5)}[name]()
        n, p, eta = 1000, graph.p, ModelParams().eta
        coupling = normalize(graph)
        patterns = random_patterns(n, p, 0)
        lam = np.linalg.eigvalsh(coupling.matrix)[:-1]  # without the constant eigenvector's 1
        c = ModelParams().beta * n / (12 * p)
        verdicts = {}
        for a, h in self.GRID:
            x = c * (a + h * lam)
            closed = bool(np.all((-(2 - eta) / eta < x) & (x < 1)))
            mu = jacobian_spectrum(np.zeros(n), patterns, coupling, ModelParams(a=a, h=h))
            exact = bool(np.abs(1 + eta * mu).max() < 1)
            verdicts[a, h] = closed, exact
        assert len(verdicts) == 117
        assert sum(closed == exact for closed, exact in verdicts.values()) == agree
        if name == "cycle":
            assert verdicts[-1.0, 1.0][1]


class TestFixedPoints:
    """Fixed points without a run (ROADMAP item 17): sigma* = Xc c with
    c = G s(beta K c), found by the damped Newton of oracles.fixed_point,
    and their stability from jacobian_spectrum; n = 1000, pattern seed 0."""

    # Newton steps 7, 7 and 10; at (-3, 2) undamped Newton from G 1/p is
    # still at residual 1.8 after 50 steps
    @pytest.mark.parametrize("a, h", [(-2.5, 1.0), (-1.0, 1.0), (-3.0, 2.0)])
    def test_quiescent_points_on_karate_from_the_uniform_start(self, a, h):
        patterns, coupling = random_patterns(1000, 34, 0), normalize(build_named("karate"))
        params = ModelParams(a=a, h=h)
        sigma, _, _ = fixed_point(patterns, coupling, params)
        run, _, how = iterate(np.zeros(1000), patterns, coupling, params, 3000, tol=1e-14)
        assert how == "fixed-point"
        assert np.abs(sigma - run).max() <= 1e-10 * np.abs(run).max()
        mu = jacobian_spectrum(sigma, patterns, coupling, params)
        assert np.abs(1 + params.eta * mu).max() < 1
        if (a, h) == (-3.0, 2.0):  # inside the flip bound -2/eta = -20
            assert mu.real.min() == pytest.approx(-15.68, abs=0.01)

    # r at the argmax 0.470, 0.454 and 0.445; cosine with the linearized form
    # 0.9973, 0.9944 and 0.9936
    @pytest.mark.parametrize("a, h, r_top", [(-2.5, 1.0, 0.470), (-1.0, 1.0, 0.454),
                                             (-3.0, 2.0, 0.445)])
    def test_karate_quiescent_point_peaks_on_the_hub(self, a, h, r_top):
        patterns, graph = random_patterns(1000, 34, 0), build_named("karate")
        coupling, params = normalize(graph), ModelParams(a=a, h=h)
        sigma = fixed_point(patterns, coupling, params)[0]
        r = pearson_all(sigma, patterns)
        degree = (graph.adjacency() > 0).sum(axis=0)
        assert int(np.argmax(r)) == int(np.argmax(degree)) == 33 and degree[33] == 17
        assert r[33] == pytest.approx(r_top, abs=1e-3)
        linear = linearized_fixed_point(patterns, coupling, params)
        assert linear @ sigma / (np.linalg.norm(linear) * np.linalg.norm(sigma)) > 0.99

    def test_every_karate_trigger_reaches_the_quiescent_point(self):
        # worst distance 7.1e-16 after 3000 steps
        patterns, coupling = random_patterns(1000, 34, 0), normalize(build_named("karate"))
        params = ModelParams(a=-2.5, h=1.0)
        sigma = fixed_point(patterns, coupling, params)[0]
        final = iterate(init_state(patterns, np.arange(34), 1.0, 1), patterns, coupling,
                        params, 3000)[0]
        assert np.abs(final - sigma[:, None]).max() < 1e-14

    # max |sigma*| 4.0e-16 on the cycle and 3.8e-16 on tutte
    @pytest.mark.parametrize("name", ["cycle", "tutte"])
    def test_quiescent_point_is_zero_on_regular_graphs(self, name):
        graph = build_cycle(30) if name == "cycle" else build_named(name)
        patterns = random_patterns(1000, graph.p, 0)
        sigma = fixed_point(patterns, normalize(graph), ModelParams(a=-2.5, h=1.0))[0]
        assert np.abs(sigma).max() < 1e-12

    # the pair state's count is 1.974, on the edge (29, 0)
    @pytest.mark.parametrize("a, h, count", [(0.25, 0.75, 2.0), (0.5, 0.5, 1.0)],
                             ids=["pair", "narrow"])
    def test_pair_and_narrow_states_on_the_cycle_are_stable(self, a, h, count):
        patterns, coupling = random_patterns(1000, 30, 0), normalize(build_cycle(30))
        params = ModelParams(a=a, h=h, eta=0.02)
        sigma0 = init_state(patterns, 0, seed=1)
        early = iterate(sigma0, patterns, coupling, params, 100)[0]
        sigma, _, _ = fixed_point(patterns, coupling, params, sigma0=early)
        run, _, how = iterate(sigma0, patterns, coupling, params, 5000, tol=1e-13)
        assert how == "fixed-point"
        assert np.abs(sigma - run).max() <= 1e-10 * np.abs(run).max()
        s = softmax_beta(patterns.values.T @ sigma, params.beta)
        assert np.exp(-s @ np.log(s)) == pytest.approx(count, abs=0.05)
        assert set(np.argsort(s)[-round(count):]) <= {29, 0}
        mu = jacobian_spectrum(sigma, patterns, coupling, params)
        assert mu.real.max() < 0
        for eta in (0.02, 0.1):
            assert np.abs(1 + eta * mu).max() < 1


class TestNarrowModeLaw:
    """README's narrow-mode law at stock eta, n = 1000, pattern seed 0: along
    a + h = 1 the hop 1-4 means of the state x state correlations are those
    of np.corrcoef((a*I + h*M^T).T) while the softmax settles on the trigger
    (measured worst 0.0124 on the cycle, 0.0096 on karate, 0.0072 on tutte),
    and miss them once it spreads (by 0.85, 0.57 and 0.78 at a = 0)."""

    @pytest.mark.parametrize("name", ["cycle", "karate", "tutte"])
    def test_hop_profile_follows_the_mixing_columns(self, name):
        graph = build_cycle(30) if name == "cycle" else build_named(name)
        coupling, hops = normalize(graph), hop_distances(graph)
        patterns = random_patterns(1000, graph.p, 0)
        miss = {}
        for a in (0.5, 0.6, 0.7, 0.8, 0.9, 0.0):
            final = X.run_all_triggers(patterns, coupling, ModelParams(a=a, h=1 - a))[0]
            got = X.hop_profile(hops, X.state_correlation_matrix(final), 4)[0]
            law = narrow_mode_profile(a, 1 - a, coupling.matrix, hops)
            miss[a] = float(np.abs(got[1:] - law).max())
        assert max(miss[a] for a in (0.5, 0.6, 0.7, 0.8, 0.9)) < 0.02
        assert miss[0.0] > 0.2


class TestPairMode:
    """README's pair mode at stock eta and steps, n = 1000, patterns random_patterns(1000, p,
    0), triggers seed 1: along a + h = 1 each trigger's final softmax is narrow just above
    a*_j = m_j/(1 + m_j), an even pair on a graph edge between the pair edge and a*
    (oracles.mode_thresholds), and wide at a = 0.  A count is the effective number of
    patterns, exp of the softmax entropy; each bound's measured value is in its comment."""

    @staticmethod
    def _final_softmax(name, a):
        """The graph, (a*, pair edge) and the final softmax of every trigger (p x p) at a."""
        graph = build_cycle(30) if name == "cycle" else build_named(name)
        patterns, coupling = random_patterns(1000, graph.p, 0), normalize(graph)
        final = X.run_all_triggers(patterns, coupling, ModelParams(a=a, h=1 - a), seed=1)[0]
        s = softmax_beta(patterns.values.T @ final, 1.0)
        return graph, mode_thresholds(coupling.matrix.tolist()), s

    @staticmethod
    def _counts(s):
        return np.exp(-(s * np.log(s, out=np.zeros_like(s), where=s > 0)).sum(axis=0))

    @pytest.mark.parametrize("name, a, most, on_trigger", [
        ("cycle", 0.40, 1.06, 0.99),  # max count 1.0541, min weight 0.99106; a* = 1/3
        ("tutte", 0.35, 1.01, 0.999),  # 1.00698, 0.99922; a* = 1/4
        ("karate", 0.30, 1.3, 0.93),  # 1.27269, 0.93515; a* 0.146-0.261 by trigger
    ])
    def test_narrow_just_above_a_star(self, name, a, most, on_trigger):
        _, (a_star, _), s = self._final_softmax(name, a)
        assert a > max(a_star)
        assert self._counts(s).max() <= most
        assert np.diag(s).min() >= on_trigger

    @pytest.mark.parametrize("name, low, high, top_two", [
        ("cycle", 1.96, 2.04, 0.997),  # counts 1.96573-2.03115, top-2 weight >= 0.99756
        ("tutte", 1.88, 2.15, 0.96),  # 1.88785-2.13925, >= 0.96529
    ])
    def test_pair_on_an_edge_below_a_star(self, name, low, high, top_two):
        graph, (a_star, pair_edge), s = self._final_softmax(name, 0.2)
        assert pair_edge < 0.2 < min(a_star)
        counts = self._counts(s)
        assert low <= counts.min() and counts.max() <= high
        top = np.sort(s, axis=0)
        assert (top[-1] + top[-2]).min() >= top_two
        first, second = np.argsort(s, axis=0)[-2:]
        assert graph.adjacency()[first, second].min() > 0  # all 30 and all 46 on an edge

    @pytest.mark.parametrize("name", ["cycle", "tutte", "karate"])
    def test_wide_at_a_zero(self, name):
        # median counts 2.650, 3.445 and 3.536
        assert np.median(self._counts(self._final_softmax(name, 0.0)[2])) > 2.5


class TestStepSize:
    """README's "Step size": at (-2, 3) on karate (n = 1000, patterns
    random_patterns(1000, 34, 0), triggers init_state(..., seed=1)), every
    run to T = 10.1, the eta = 0.1 Euler step is flip-unstable at the final
    states and the block contrast it reports moves under a 1-ulp nudge of
    sigma0, while at eta = 0.02 and 0.01 the contrast has converged and the
    nudge does not move it."""

    @pytest.fixture(scope="class")
    def karate(self):
        graph = build_named("karate")
        patterns = random_patterns(1000, graph.p, 0)
        return patterns, normalize(graph), init_state(patterns, np.arange(graph.p), seed=1)

    def _final(self, karate, eta, nudge):
        patterns, coupling, sigma0 = karate
        start = sigma0 * (1 + 2.0**-52) if nudge else sigma0
        params = ModelParams(a=-2.0, h=3.0, eta=eta)
        return iterate(start, patterns, coupling, params, round(10.1 / eta))[0]

    def _contrast(self, final):
        return X.named_block_contrast("karate", X.state_correlation_matrix(final))

    def test_stock_step_is_past_the_flip_threshold(self, karate):
        # the Jacobian of some final state has Re mu < -2/eta = -20
        # (measured -100.98)
        patterns, coupling, _ = karate
        params = ModelParams(a=-2.0, h=3.0, eta=0.1)
        final = self._final(karate, params.eta, False)
        lowest = min(jacobian_spectrum(state, patterns, coupling, params).real.min()
                     for state in final.T)
        assert lowest < -20

    def test_contrast_converges_as_eta_falls(self, karate):
        # 1.463341 at eta = 0.02 and 1.464225 at 0.01, each nudged by < 1e-15
        contrasts = []
        for eta in (0.02, 0.01):
            plain = self._contrast(self._final(karate, eta, False))
            assert abs(self._contrast(self._final(karate, eta, True)) - plain) < 1e-12
            contrasts.append(plain)
        assert abs(contrasts[0] - contrasts[1]) < 2e-3

    def test_stock_contrast_moves_under_a_nudge(self, karate):
        # 1.223780 -> 1.230700
        plain = self._contrast(self._final(karate, 0.1, False))
        assert abs(self._contrast(self._final(karate, 0.1, True)) - plain) > 1e-4


class TestBlockContrast:
    def test_perfect_blocks(self):
        mat = np.full((4, 4), -0.2)
        mat[:2, :2] = 0.8
        mat[2:, 2:] = 0.8
        np.fill_diagonal(mat, 1.0)
        assert X.block_contrast(mat, [[0, 1], [2, 3]]) == pytest.approx(1.0)

    def test_blocks_must_cover(self):
        with pytest.raises(CdamError, match="blocks do not cover every vertex"):
            X.block_contrast(np.eye(4), [[0, 1], [2]])

    @pytest.mark.parametrize("blocks", [
        [[0, 1], [2, -1]],  # -1 once read as vertex 3
        [[0, 1], [2, 4]],  # once a bare IndexError
        [[0, 1, 2], [2, 3]],  # 2 once given to the last block
        [[0, 1.0], [2, 3]],  # once an IndexError
        [[0, "1"], [2, 3]],  # once a TypeError
        [[0, True], [2, 3]],  # once a ValueError
    ])
    def test_members_must_be_vertices_of_one_block(self, blocks):
        with pytest.raises(CdamError, match=r"not an int in \[0,4\) or in an earlier block"):
            X.block_contrast(np.eye(4), blocks)

    def test_a_member_repeated_in_its_own_block_is_kept(self):
        mat = np.full((4, 4), 0.5)
        assert X.block_contrast(mat, [[0, 1, 1], [2, 3]]) == 0.0

    @pytest.mark.parametrize("matrix", [np.zeros((3, 4)), np.zeros(3), np.zeros((3, 3, 1))])
    def test_matrix_must_be_square(self, matrix):
        # once an IndexError
        with pytest.raises(CdamError, match="needs a square matrix, got shape"):
            X.block_contrast(matrix, [[0, 1], [2]])

    @pytest.mark.parametrize("blocks", [[[0, 1, 2]], [[0], [1], [2]]])
    def test_blocks_need_within_and_cross_pairs(self, blocks):
        # one block has no cross-block pair, singletons no within-block pair
        with pytest.raises(CdamError, match="no within-block pair or no cross-block pair"):
            X.block_contrast(np.eye(3), blocks)


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

    @pytest.mark.parametrize("schedule, p", [
        ([], 5),  # once an IndexError
        ([0, 1], 0),  # once a divide-by-zero warning and steps_to_cover 2
        ([0, 5], 5), ([0, -1], 5),  # once read as cycle positions
        ([[0, 1]], 5), ([0.0, 1.0], 5), ([0, 1], 5.0), ([0, 1], True),
    ])
    def test_schedule_must_be_ints_in_range(self, schedule, p):
        with pytest.raises(CdamError, match=rf"is not ints in \[0, p\), p={p!r}"):
            X.schedule_metrics(schedule, p)

    # Dwells up to twice PATIENCE; moves of 0 (a repeated value), +1 (in
    # order), more (a skip) or backward; short schedules that never cover p.
    @settings(max_examples=300, deadline=None)
    @given(p=st.integers(2, 8), data=st.data())
    def test_matches_the_step_loop(self, p, data):
        value = data.draw(st.integers(0, p - 1))
        schedule = []
        for move, dwell in data.draw(st.lists(
                st.tuples(st.just(1) | st.integers(-p, p), st.integers(1, 2 * X.PATIENCE)),
                min_size=1, max_size=40)):
            value = (value + move) % p
            schedule += [value] * dwell
        schedule = schedule[:data.draw(st.integers(1, 300))]
        got = X.schedule_metrics(schedule, p)
        want = naive_schedule_metrics(schedule, p, X.PATIENCE)
        assert got == want
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


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

    @pytest.mark.parametrize("seed, fingerprint", [(77, "9ea733b97a453ca1"),
                                                   (78, "20ca47995832825b")])
    def test_image_bank_fingerprint_is_pinned(self, seed, fingerprint):
        # the bytes of the column-by-column draw the bank was first built with
        assert X._array_fingerprint(X.surrogate_image_bank(seed)) == fingerprint


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

    def test_low_contrast_schedules_match_state_space(self, monkeypatch):
        # frames near 0.99: a readout through the raw logits Xi^T sigma would
        # cancel n*m_mu*mean(sigma) and part from the state space at step 211.
        # By step 300 the states' SD is 5e-15; from about step 350 it is the
        # rounding floor (1e-16), where a state-space r is noise.
        monkeypatch.setattr(X, "SEQUENCE_STEPS", 300)
        rng = np.random.default_rng(0)
        frames = PatternMatrix(np.clip(0.99 + 0.002 * rng.normal(size=(2000, 50)), 0.0, 1.0))
        rep = X.sequence_recall(frames, seed=1)
        coupling = normalize(build_cycle(50, directed=True))
        for a, h in X.SEQUENCE_SETTINGS:
            schedule = []
            iterate(init_state(frames, X.SEQUENCE_TRIGGER, X.DEFAULT_NOISE, 1), frames, coupling,
                    ModelParams(a=a, h=h), 300,
                    observe=lambda t, s: schedule.append(int(np.argmax(pearson_all(s, frames)))))
            assert rep.outputs[f"schedule_a{a:+g}_h{h:+g}"] == schedule

    def test_zero_variance_frame_raises(self):
        values = np.random.default_rng(2).uniform(0, 1, (50, 6))
        values[:, 3] = 0.5
        with pytest.raises(CdamError, match="pearson undefined: zero-variance pattern"):
            X.sequence_recall(PatternMatrix(values))

    def test_frames_too_large_to_read_raise_without_a_warning(self):
        # the basis operator and the first basis rows overflow; they once warned
        frames = PatternMatrix(X.surrogate_frames().values * 1e200)
        with pytest.raises((CdamError, NumericDivergenceError)):
            X.sequence_recall(frames)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_state_raises(self, monkeypatch):
        # at the stock 2000 pixels; at 50 every entry of the centred basis
        # operator stays below 0.9, so even a = h = 1e308 keeps the rows finite
        for name, value in [("FRAME_COUNT", 6),
                            ("SEQUENCE_SETTINGS", (DIVERGENT,)), ("SEQUENCE_STEPS", 20)]:
            monkeypatch.setattr(X, name, value)
        with pytest.raises(NumericDivergenceError):
            X.sequence_recall(X.surrogate_frames())


class TestSequenceWave:
    """Sequence recall is a travelling wave (ROADMAP item 16): on the
    directed frame cycle at (-2, 3) the pair state of frames (k, k+1) has
    logits in the ratio a : a + h : h = -2 : 1 : 3 for frames k, k+1, k+2,
    so the softmax moves forward.  The runs are sequence_recall's, in its
    basis [Xi | yc], with frames from seed s and noise from s + 1 as the CLI
    seeds them, to T = 150 (round(150/eta) steps)."""

    T = 150

    def _schedule(self, seed, eta):
        frames = X.surrogate_frames(seed)
        yc, ys, _ = frames.centered
        basis, rows = np.hstack([frames.values, yc]), []
        iterate(init_state(frames, X.SEQUENCE_TRIGGER, X.DEFAULT_NOISE, seed + 1), frames,
                normalize(build_cycle(frames.p, directed=True)),
                ModelParams(a=-2.0, h=3.0, eta=eta), round(self.T / eta),
                observe=lambda t, x: rows.append(x[frames.p:]), basis=basis)
        return np.argmax(np.array(rows) / ys, axis=1)

    def test_skips_belong_to_the_stock_step(self):
        # seed 3 skips 11 times at eta = 0.1, as `cdam experiment sequence --seed 3`
        # reports; at 0.05 and below every move is one frame forward
        skips = {eta: X.schedule_metrics(self._schedule(3, eta), X.FRAME_COUNT)["skips"]
                 for eta in (0.1, 0.05, 0.02)}
        assert skips[0.1] > 0 and skips[0.05] == skips[0.02] == 0

    @pytest.mark.parametrize("seed", [0, 3])
    def test_speed_converges_as_eta_falls(self, seed):
        # frames advanced per unit time at eta = 0.02 and 0.01: 4.920 and
        # 4.967 at seed 0, 4.827 and 4.873 at seed 3
        speeds = []
        for eta in (0.02, 0.01):
            schedule = self._schedule(seed, eta)
            moves = np.flatnonzero(np.diff(schedule)) + 1
            advanced = (schedule[moves] - schedule[moves - 1]) % X.FRAME_COUNT
            speeds.append(advanced.sum() / self.T)
        assert abs(speeds[1] - speeds[0]) < 0.02 * speeds[1]


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

    def test_unknown_label_raises_before_any_step(self, monkeypatch):
        # once a settle from a fresh embedding: at Bart, query("cousin") gave ('Bart', 0.855...)
        import cdam.dynamics as D
        calls = []
        retrieval = D.retrieval_vector
        monkeypatch.setattr(D, "retrieval_vector",
                            lambda *args, **kw: calls.append(1) or retrieval(*args, **kw))
        runner = X.AutomatonRunner(family_tree(), n=200)
        runner.set_state("Bart")
        with pytest.raises(CdamError, match="unknown label 'cousin'"):
            runner.query("cousin")
        assert calls == [] and runner.state == "Bart"
        runner.query("father")
        assert calls and runner.state == "Homer"

    def test_settle_from_unknown_vertex(self):
        runner = X.AutomatonRunner(family_tree(), n=200)
        with pytest.raises(CdamError, match="unknown vertex 'Nobody'"):
            runner.settle_from("Nobody")

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
                logits = iterate(sig0, patterns, coupling, params, X.DEFAULT_STEPS, basis=xi)[0]
                assert np.max(np.abs(logits - xi.T @ states)) < 1e-10
                hits = np.argmax(xi.T @ states, axis=0) == np.repeat(np.arange(p), trials)
                want[f"a{a:+g}_h{h:+g}"][p] = float(np.mean(hits))
        assert rep.outputs["accuracy"] == want

    def test_numpy_levels_write_int_keys(self, tmp_path, monkeypatch):
        # the JSON writer takes int dict keys, not numpy ones
        monkeypatch.setattr(X, "SWEEP_SETTINGS", ((1.0, 0.0),))
        X.retrieval_sweep(X.surrogate_image_bank()[:, :8], p_levels=np.array([4]),
                          trials=1).write(tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert list(doc["outputs"]["accuracy"]["a+1_h+0"]) == ["4"]

    @pytest.mark.parametrize("kwargs, message", [
        ({"p_levels": (-1,)}, "needs p >= 2, got -1"),  # once "holds no states"
        ({"p_levels": (2.5,)}, "level 2.5 is not an int"),  # once numpy's TypeError
        ({"p_levels": (True,)}, "level True is not an int"),
        ({"p_levels": (5, 11)}, "p=11 exceeds dataset size 10"),  # once after level 5 ran
        ({"trials": 1.5}, r"trials >= 1, got 1.5 \(an int\)"),  # once ran one trial
        ({"trials": True}, r"trials >= 1, got True \(an int\)"),
    ])
    def test_arguments_are_checked_before_any_level_runs(self, monkeypatch, kwargs, message):
        monkeypatch.setattr(X, "iterate", lambda *args, **kw: pytest.fail("a level ran"))
        bank = np.random.default_rng(0).uniform(0, 1, (20, 10))
        with pytest.raises(CdamError, match=message):
            X.retrieval_sweep(bank, **{"p_levels": (5,), "trials": 1, **kwargs})

    def test_an_iterator_of_levels_runs_every_level(self):
        # once recorded in params and then exhausted, so no level ran
        bank = np.random.default_rng(0).uniform(0, 1, (20, 10))
        want = X.retrieval_sweep(bank, p_levels=(4, 6), trials=1)
        got = X.retrieval_sweep(bank, p_levels=iter((4, 6)), trials=1)
        assert got.params == want.params and got.outputs == want.outputs
        assert list(got.outputs["accuracy"]["a+1_h+0"]) == [4, 6]

    def test_numpy_integer_arguments_are_accepted(self):
        bank = np.random.default_rng(0).uniform(0, 1, (20, 10))
        want = X.retrieval_sweep(bank, p_levels=(5, 10), trials=2).outputs
        assert X.retrieval_sweep(bank, p_levels=np.array([5, 10]), trials=np.int64(2)).outputs == want

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
        with pytest.raises(CdamError, match="p=100 exceeds dataset size 50"):
            X.retrieval_sweep(bank, p_levels=(10, 100), trials=1)
        for trials in (0, -1):
            with pytest.raises(CdamError, match=f"needs trials >= 1, got {trials}"):
                X.retrieval_sweep(bank, p_levels=(10,), trials=trials)

    def test_retrieval_sweep_dataset_that_is_not_a_matrix_is_rejected(self):
        with pytest.raises(CdamError, match=r"n x p dataset, got shape \(5,\)"):
            X.retrieval_sweep(np.zeros(5), p_levels=(2,), trials=1)

    def test_retrieval_sweep_single_pattern_is_rejected(self):
        # one stored pattern has no nearest neighbor to build a scaffold from
        bank = X.surrogate_image_bank()[:, :4]
        with pytest.raises(CdamError, match="nearest-neighbor scaffold needs p >= 2, got 1"):
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
