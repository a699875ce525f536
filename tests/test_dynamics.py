import hashlib
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cdam import dynamics
from cdam.dynamics import (
    ModelParams,
    PatternMatrix,
    _basis_operator,
    init_state,
    iterate,
    overlaps_all,
    pearson_all,
    retrieval_vector,
    run,
    softmax_beta,
)
from cdam.errors import CdamError, NumericDivergenceError
from cdam.graphs import (
    MemoryGraph,
    NormalizedAdjacency,
    build_barbell,
    build_cycle,
    build_named,
    hop_distances,
    normalize,
)
from cdam.ingest import random_patterns
from oracles import (
    descent_energy,
    naive_energy_directed,
    naive_energy_undirected,
    naive_pearson,
    naive_update,
    retrieval_by_formula,
    step_by_hand,
    uncached_pearson_all,
    uncached_pearson_matrix,
)


def step(sigma, patterns, m, params):
    """One update: iterate for one step."""
    return iterate(sigma, patterns, m, params, 1)[0]


def energy_of(state, pm, graph, params):
    """The energy of one state: the package's block energy on one column."""
    e, _ = dynamics.energy(overlaps_all(state, pm)[:, None],
                           dynamics._energy_terms(graph, normalize(graph)), params)
    return float(e[0])


def naive_energy(state, pm, graph, params):
    cols = [list(pm.values[:, mu]) for mu in range(pm.p)]
    if graph.directed:
        return naive_energy_directed(list(state), cols, graph.edges, params.a, params.h,
                                     params.beta)
    return naive_energy_undirected(list(state), cols, [list(r) for r in normalize(graph).matrix],
                                   params.a, params.h, params.beta)


def assert_readouts_match(trace, states, pm, graph, params):
    """The trace's readouts equal the per-state Pearson, mean, std and
    energy references within 1e-13 (absolute for r, mean and SD, relative
    for energy)."""
    want_r = [uncached_pearson_all(s, pm.values) for s in states]
    assert np.max(np.abs(trace.correlations - want_r)) < 1e-13
    assert np.max(np.abs(trace.mean_activity - [s.mean() for s in states])) < 1e-13
    assert np.max(np.abs(trace.sd_activity - [s.std() for s in states])) < 1e-13
    if graph is not None:
        want = np.array([naive_energy(s, pm, graph, params) for s in states])
        assert np.max(np.abs(trace.energies - want) / np.abs(want)) < 1e-13


def random_instance(rng, n_max=20, p_max=5):
    n = int(rng.integers(3, n_max + 1))
    p = int(rng.integers(2, p_max + 1))
    xi = rng.uniform(0, 1, (n, p))
    directed = bool(rng.integers(2))
    edges = []
    for i in range(p):
        for j in range(p):
            if (directed or i < j) and i != j and rng.random() < 0.5:
                edges.append((i, j, float(rng.uniform(0.5, 2.0))))
    if directed and rng.random() < 0.3:
        edges.append((0, 0, 1.0))
    graph = MemoryGraph(p, tuple(edges), directed=directed)
    params = ModelParams(
        a=float(rng.normal()), h=float(rng.normal()),
        beta=float(rng.uniform(0.1, 3.0)), eta=float(rng.uniform(0.01, 1.0)),
    )
    sigma = rng.normal(0, 1, n)
    return xi, graph, params, sigma


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(softmax_beta(np.zeros(3), 1.0), 1 / 3)

    def test_analytic_two_entries(self):
        s = softmax_beta(np.array([math.log(2), 0.0]), 1.0)
        assert np.allclose(s, [2 / 3, 1 / 3])

    def test_saturation(self):
        s = softmax_beta(np.array([1.0, 0.0]), 100.0)
        assert s[0] >= 1 - 1e-10

    def test_overflow_safe(self):
        s = softmax_beta(np.array([1e8, 0.0]), 1.0)
        assert np.all(np.isfinite(s))

    def test_input_untouched_and_scalar_accepted(self):
        z = np.array([[1.0, -2.0], [3.0, 0.5]])
        s = softmax_beta(z, 2.0)
        assert np.array_equal(z, [[1.0, -2.0], [3.0, 0.5]])
        e = np.exp(2 * z - (2 * z).max(axis=0))
        assert np.array_equal(s, e / e.sum(axis=0))
        assert float(softmax_beta(5.0, 2.0)) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        z=st.lists(st.floats(-30, 30), min_size=1, max_size=10),
        beta=st.floats(0.01, 10),
        shift=st.floats(-30, 30),
    )
    def test_properties(self, z, beta, shift):
        # positivity holds while beta * spread stays under the exp underflow
        z = np.array(z)
        s = softmax_beta(z, beta)
        assert np.all(s > 0)
        assert abs(s.sum() - 1.0) < 1e-12
        assert np.allclose(s, softmax_beta(z + shift, beta))  # shift invariance

    def test_extreme_gap_saturates_cleanly(self):
        s = softmax_beta(np.array([0.0, 1000.0]), 10.0)
        assert np.all(s >= 0) and abs(s.sum() - 1.0) < 1e-12
        assert s[1] == pytest.approx(1.0)


class TestPatternMatrix:
    def test_mean_load_is_column_mean(self):
        rng = np.random.default_rng(0)
        pm = PatternMatrix(rng.uniform(0, 1, (50, 7)))
        assert np.max(np.abs(pm.mean_load - pm.values.mean(axis=1))) < 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(CdamError, match="pattern matrix contains non-finite values"):
            PatternMatrix(np.array([[1.0, np.inf]]))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_rejected(self, shape):
        with pytest.raises(CdamError, match="n, p >= 1"):
            PatternMatrix(np.zeros(shape))

    def test_values_frozen(self):
        pm = PatternMatrix(np.ones((3, 2)))
        with pytest.raises(ValueError):
            pm.values[0, 0] = 2.0

    def test_fields_cannot_be_reassigned(self):
        # derived statistics (mean load, centered columns) would go stale
        pm = PatternMatrix(np.arange(6.0).reshape(3, 2))
        mean_load, (cols, norms, shift) = pm.mean_load, pm.centered
        with pytest.raises(FrozenInstanceError):
            pm.values = np.ones((4, 5))
        assert pm.values.shape == (3, 2)
        assert pm.mean_load is mean_load and pm.centered[0] is cols
        with pytest.raises(ValueError):
            cols[0, 0] = 1.0
        with pytest.raises(ValueError):
            norms[0] = 1.0
        with pytest.raises(ValueError):
            shift[0] = 1.0


@st.composite
def caller_arrays(draw):
    """An n x p array in one of the layouts a caller may hand a value type:
    C-ordered, F-ordered, a strided slice or a transpose of a larger array,
    or integers.  Each is writeable, and writing it writes what it views."""
    n, p = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    layout = draw(st.sampled_from(["C", "F", "sliced", "transposed", "int"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if layout == "int":
        return rng.integers(-5, 6, (n, p))
    if layout == "sliced":
        return rng.uniform(0, 1, (n + 2, 2 * p + 1))[1:n + 1, ::2]
    if layout == "transposed":
        return rng.uniform(0, 1, (p, n)).T
    values = rng.uniform(0, 1, (n, p))
    return np.asfortranarray(values) if layout == "F" else values


class TestValueTypesOwnTheirArrays:
    """PatternMatrix and NormalizedAdjacency freeze a float copy of what they
    are given, so a caller passes its array as it is and may go on writing it."""

    @pytest.mark.parametrize("build, field", [(PatternMatrix, "values"),
                                              (NormalizedAdjacency, "matrix")])
    @settings(max_examples=60, deadline=None)
    @given(x=caller_arrays())
    def test_copy_keeps_the_layout_and_leaves_the_input_writeable(self, build, field, x):
        want = x.astype(float)
        owned = getattr(build(x), field)
        assert x.flags.writeable and not owned.flags.writeable
        assert not np.shares_memory(owned, x)
        assert owned.dtype == np.float64 and np.array_equal(owned, want)
        assert owned.flags.f_contiguous or not x.flags.f_contiguous
        assert owned.flags.c_contiguous or not x.flags.c_contiguous
        x += 1
        assert np.array_equal(owned, want)

    @settings(max_examples=60, deadline=None)
    @given(x=caller_arrays())
    @example(x=np.random.default_rng(0).uniform(0, 1, (5, 6))[:, :3])  # a column slice
    def test_statistics_ignore_later_writes_to_the_input(self, x):
        # `early` caches its statistics before the write, `late` after it; a
        # constant column has no centered statistics, before or after
        want = x.astype(float)
        constant = bool(np.any(want.min(axis=0) == want.max(axis=0)))

        def statistics(pm):
            if not constant:
                return [pm.mean_load, *pm.centered]
            with pytest.raises(CdamError, match="pearson undefined: zero-variance pattern"):
                pm.centered
            return [pm.mean_load]

        early, late = PatternMatrix(x), PatternMatrix(x)
        kept = [v.copy() for v in statistics(early)]
        x += 100
        for pm in (early, late):
            assert np.array_equal(pm.values, want)
            for got, old in zip(statistics(pm), kept, strict=True):
                assert np.array_equal(got, old)


class TestUpdateStep:
    """One update, through iterate."""

    def test_matches_oracle_on_seeded_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            xi, graph, params, sigma = random_instance(rng)
            m = normalize(graph)
            got = step(sigma.copy(), PatternMatrix(xi), m, params)
            want = naive_update(
                list(sigma), [list(xi[:, mu]) for mu in range(xi.shape[1])],
                [list(row) for row in m.matrix],
                params.a, params.h, params.beta, params.eta,
            )
            assert np.max(np.abs(got - np.array(want))) < 1e-10

    @pytest.mark.parametrize("h", [0.0, 0.7])
    def test_retrieval_is_bitwise_the_formula(self, h):
        # the in-place mean-load correction gives the out-of-place floats, and
        # at h = 0 the unconditional mixing a*s + 0*(M^T s) gives the oracle's a*s
        rng = np.random.default_rng(31)
        pm = PatternMatrix(rng.uniform(0, 1, (50, 7)))
        coupling = asymmetric_coupling()
        params = ModelParams(a=-0.4, h=h, beta=2.5)
        for sigma in (rng.normal(0, 1, 50), rng.normal(0, 1, (50, 4))):
            got = retrieval_vector(sigma, pm, coupling, params)
            assert got.shape == sigma.shape
            assert np.array_equal(got, retrieval_by_formula(sigma, pm, coupling, params))

    def test_input_state_unmodified(self):
        # sigma0 is never written, returned or observed (nor any memory of
        # it): a vector, a stack, a vector run in the pattern basis, and a
        # vector run to a tolerance, also through run
        rng = np.random.default_rng(1)
        pm = PatternMatrix(rng.uniform(0, 1, (10, 3)))
        coupling = normalize(build_cycle(3))
        params = ModelParams(a=0.5, h=0.5)
        vector = rng.normal(0, 1, 10)
        for sigma0, tol, is_logits in ((vector, 0.0, False), (rng.normal(0, 1, (10, 4)), 0.0, False),
                                       (vector, 0.0, True), (vector, 1e-3, False)):
            before = sigma0.copy()
            seen = []
            final, steps, termination = iterate(sigma0, pm, coupling, params, 200, tol=tol,
                                                observe=lambda t, s: seen.append(s),
                                                basis=pm.values if is_logits else None)
            assert np.array_equal(sigma0, before)
            assert (termination == "fixed-point") == (tol > 0) and len(seen) == steps
            assert final is seen[-1]
            assert not any(np.shares_memory(s, sigma0) for s in seen)
        trace = run(vector, pm, build_cycle(3), params, max_steps=200, fixed_point_tol=1e-3)
        assert np.array_equal(vector, before)
        assert not np.shares_memory(trace.final_state, vector)
        assert np.array_equal(trace.final_state, final)

    def test_zero_drive_decays_to_zero(self):
        # a = h = 0 leaves only the leak, so the state contracts to zero
        rng = np.random.default_rng(2)
        xi = rng.uniform(0, 1, (20, 4))
        pm = PatternMatrix(xi)
        m = normalize(build_cycle(4))
        params = ModelParams(a=0.0, h=0.0, eta=0.5)
        state = rng.normal(0, 1, 20)
        expected = state * 0.5
        assert np.allclose(step(state, pm, m, params), expected)
        state = iterate(state, pm, m, params, 200)[0]
        assert np.max(np.abs(state)) < 1e-12

    def test_single_pattern_store_decays(self):
        # p = 1: the only pattern equals the mean load, so retrieval vanishes
        xi = np.random.default_rng(3).uniform(0, 1, (15, 1))
        pm = PatternMatrix(xi)
        m = normalize(MemoryGraph(1, ((0, 0, 1.0),), directed=True))
        state = iterate(xi[:, 0].copy(), pm, m, ModelParams(a=1.0, h=0.0, eta=0.3), 300)[0]
        assert np.max(np.abs(state)) < 1e-6

    def test_dimension_mismatch(self):
        pm = PatternMatrix(np.ones((4, 3)))
        with pytest.raises(CdamError, match=r"state of shape \(5,\) does not fit neuron count 4"):
            step(np.ones(5), pm, normalize(build_cycle(3)), ModelParams())
        with pytest.raises(CdamError, match=r"coupling matrix is \(4, 4\), patterns hold p=3"):
            step(np.ones(4), pm, normalize(build_cycle(4)), ModelParams())

    def test_balanced_fixed_point_is_centered_pattern(self):
        # a=1, h=0: the attractor is the triggered pattern minus the mean load
        rng = np.random.default_rng(4)
        xi = rng.uniform(0, 1, (400, 6))
        pm = PatternMatrix(xi)
        m = normalize(build_cycle(6))
        state = iterate(xi[:, 2].copy(), pm, m, ModelParams(a=1.0, h=0.0, eta=0.2), 400)[0]
        assert np.max(np.abs(state - (xi[:, 2] - pm.mean_load))) < 1e-8


class TestRun:
    def test_exact_step_count_with_zero_tol(self):
        rng = np.random.default_rng(5)
        pm = PatternMatrix(rng.uniform(0, 1, (30, 4)))
        trace = run(init_state(pm, 0, seed=1), pm, build_cycle(4),
                    ModelParams(), max_steps=101, fixed_point_tol=0.0)
        assert trace.steps == 101
        assert trace.correlations.shape[0] == 102
        assert trace.termination == "max-steps"

    def test_tiny_eta_hits_fixed_point_immediately(self):
        rng = np.random.default_rng(6)
        pm = PatternMatrix(rng.uniform(0, 1, (30, 4)))
        trace = run(init_state(pm, 0, seed=1), pm, build_cycle(4),
                    ModelParams(eta=1e-12), max_steps=50, fixed_point_tol=1e-6)
        assert trace.termination == "fixed-point"
        assert trace.steps == 1

    def test_auto_retrieval_wins_argmax(self):
        rng = np.random.default_rng(7)
        pm = PatternMatrix(rng.uniform(0, 1, (1000, 8)))
        trace = run(init_state(pm, 3, c=1.0, seed=2), pm, build_cycle(8),
                    ModelParams(a=1.0, h=0.0))
        final_r = trace.correlations[-1]
        assert int(np.argmax(final_r)) == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self):
        rng = np.random.default_rng(19)
        pm = PatternMatrix(rng.uniform(0.5, 1.0, (4, 2)) * 1e160)
        graph = MemoryGraph(2, ((0, 1, 1.0),), directed=False)
        with pytest.raises(NumericDivergenceError):
            run(rng.uniform(0.5, 1.0, 4) * 1e160, pm, graph,
                ModelParams(a=1e10, h=0.0, eta=1.0), max_steps=10)

    def test_max_steps_validation(self):
        pm = PatternMatrix(np.ones((3, 2)) * 0.5)
        graph = MemoryGraph(2, ((0, 1, 1.0),), directed=False)
        with pytest.raises(CdamError, match="max_steps must be >= 1, got 0"):
            run(np.zeros(3), pm, graph, ModelParams(), max_steps=0)


def exact_instance():
    """Small-integer patterns, p = 4, and states whose logits tie in pairs
    or have one maximum, so that at beta = 1000 the softmax weights are
    exactly 1/2 or 1, and a 0/1 coupling: every sum below is exact in
    float64, so any two formulas of the same update agree bit for bit."""
    xi = np.array([[1, 0, 1, 3], [0, 2, 1, 0], [2, 0, 0, 0],
                   [0, 1, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
    sigma = np.array([[1, 1, 0], [1, 0, 0], [1, 0, 1],
                      [1, 0, 0], [1, 0, 0], [1, 0, 0]], dtype=float)
    return PatternMatrix(xi), normalize(build_cycle(4, directed=True)), sigma


def asymmetric_graph():
    return MemoryGraph(7, ((0, 1, 1.0), (1, 2, 2.0), (2, 0, 0.5), (0, 3, 1.5),
                           (3, 4, 1.0), (4, 5, 3.0), (5, 6, 0.7), (6, 0, 1.2),
                           (2, 5, 0.4), (4, 1, 2.5)), directed=True)


def asymmetric_coupling():
    """Directed, weighted and asymmetric, with row sums unlike column sums,
    so that using M for M^T or column sums for row sums moves the logits."""
    coupling = normalize(asymmetric_graph())
    assert not np.allclose(coupling.matrix.sum(axis=0), coupling.matrix.sum(axis=1))
    return coupling


class TestLogitBasis:
    def test_skipped_mixing_is_bitwise_the_oracle(self):
        pm, coupling, stack = exact_instance()
        params = ModelParams(a=-2.0, h=0.0, beta=1000.0, eta=0.5)
        cols = [list(pm.values[:, mu]) for mu in range(pm.p)]
        rows = [list(r) for r in coupling.matrix]

        def stepped(sigma):
            return sigma + params.eta * (retrieval_vector(sigma, pm, coupling, params) - sigma)

        want = [naive_update(list(col), cols, rows, params.a, params.h, params.beta, params.eta)
                for col in stack.T]
        assert np.array_equal(stepped(stack[:, 0]), want[0])
        assert np.array_equal(stepped(stack), np.array(want).T)

    @pytest.mark.parametrize("h", [0.0, 0.5])
    def test_logit_retrieval_is_pattern_image_of_state_retrieval(self, h):
        pm, coupling, stack = exact_instance()
        params = ModelParams(a=0.5, h=h, beta=1000.0)
        operator = _basis_operator(pm.values, pm, coupling, params)
        for sigma in (stack[:, 0], stack):
            got = retrieval_vector(pm.values.T @ sigma, pm, coupling, params, operator=operator)
            want = retrieval_vector(sigma, pm, coupling, params)
            assert got.shape == (pm.p, *sigma.shape[1:])
            assert np.array_equal(got, pm.values.T @ want)

    def test_iterated_logits_track_iterated_states(self):
        coupling = asymmetric_coupling()
        rng = np.random.default_rng(23)
        pm = PatternMatrix(rng.uniform(0, 1, (60, 7)))
        sig0 = rng.uniform(0, 1, (60, 5))
        for a, h in ((-0.5, 1.0), (0.3, 0.7), (1.0, 0.0)):
            params = ModelParams(a=a, h=h, beta=3.0)
            states, _, _ = iterate(sig0, pm, coupling, params, 50)
            logits, _, _ = iterate(sig0, pm, coupling, params, 50, basis=pm.values)
            assert logits.shape == (7, 5)
            assert np.max(np.abs(logits - pm.values.T @ states)) < 1e-10

    @pytest.mark.parametrize("a, h", [(-0.5, 0.0), (-0.5, 1.0), (0.3, 0.7)])
    def test_mean_row_tracks_state_mean(self, a, h):
        # a basis column of 1/n past the patterns reads the state mean
        coupling = asymmetric_coupling()
        rng = np.random.default_rng(29)
        pm = PatternMatrix(rng.uniform(0, 1, (60, 7)))
        sig0 = rng.uniform(0, 1, (60, 5))
        params = ModelParams(a=a, h=h, beta=3.0)
        basis = np.hstack([pm.values, np.full((60, 1), 1 / 60)])
        means, rows = [], []
        iterate(sig0, pm, coupling, params, 101, observe=lambda t, s: means.append(s.mean(axis=0)))
        final = iterate(sig0, pm, coupling, params, 101, basis=basis,
                        observe=lambda t, L: rows.append(L[-1]))[0]
        assert final.shape == (8, 5) and len(rows) == 101
        assert np.max(np.abs(np.array(rows) - np.array(means))) < 1e-10
        assert np.ptp(np.array(means)) > 0.1  # the mean moves, so the row is tested

    @pytest.mark.parametrize("case", ["low-contrast", "low-contrast-h0", "directed"])
    def test_basis_operator_contrasts_match_state_retrieval(self, case):
        # W s against basis^T of the state-space retrieval from the same
        # softmax s, for the sequence basis [Xi | yc].  On patterns near
        # 0.99, a W expanded as Xi^T Xi minus the mean-load outer product
        # cancels n*m_mu*m_nu and loses up to 7.8e-8 of the across-pattern contrasts.
        rng = np.random.default_rng(0)
        if case == "directed":
            pm, coupling = PatternMatrix(rng.uniform(0, 1, (60, 7))), asymmetric_coupling()
            params = ModelParams(a=-0.5, h=1.0, beta=3.0)
        else:
            pm = PatternMatrix(np.clip(0.99 + 0.002 * rng.normal(size=(2000, 50)), 0.0, 1.0))
            coupling = normalize(build_cycle(50, directed=True))
            a, h = (1.0, 0.0) if case.endswith("h0") else (-2.0, 3.0)
            params = ModelParams(a=a, h=h)
        basis = np.hstack([pm.values, pm.centered[0]])
        operator = _basis_operator(basis, pm, coupling, params)
        stack = init_state(pm, np.arange(pm.p), seed=1)
        for sigma in (stack[:, 0], stack):
            got = operator @ softmax_beta(pm.values.T @ sigma, params.beta)
            want = basis.T @ retrieval_vector(sigma, pm, coupling, params)
            for rows in (slice(None, pm.p), slice(pm.p, None)):
                g, w = got[rows] - got[rows].mean(axis=0), want[rows] - want[rows].mean(axis=0)
                assert np.max(np.abs(g - w)) <= 1e-10 * np.max(np.abs(w))

    def test_logit_step_is_the_out_of_place_step(self):
        coupling = asymmetric_coupling()
        rng = np.random.default_rng(27)
        pm = PatternMatrix(rng.uniform(0, 1, (40, 7)))
        sig0 = rng.uniform(0, 1, (40, 3))
        params = ModelParams(a=-0.5, h=1.0, beta=2.0, eta=0.3)
        basis = np.hstack([pm.values, pm.centered[0]])
        operator = _basis_operator(basis, pm, coupling, params)
        for sigma0 in (sig0[:, 0], sig0):
            x = basis.T @ sigma0
            want = x + params.eta * (operator @ softmax_beta(x[:pm.p], params.beta) - x)
            assert np.array_equal(iterate(sigma0, pm, coupling, params, 1, basis=basis)[0], want)

    def test_logit_shapes_validated(self):
        pm = PatternMatrix(np.random.default_rng(0).uniform(0, 1, (5, 3)))
        coupling = normalize(build_cycle(3))
        basis = np.hstack([pm.values, np.ones((5, 1))])
        for sigma0, rows in ((np.zeros((5, 2)), (4, 2)), (np.zeros(5), (4,))):
            assert iterate(sigma0, pm, coupling, ModelParams(), 1, basis=basis)[0].shape == rows
        # logit rows are not states
        for bad in (np.zeros(3), np.zeros(4), np.zeros((4, 2)), np.zeros((5, 2, 1)),
                    np.float64(1.0)):
            with pytest.raises(CdamError, match="does not fit neuron count 5"):
                iterate(bad, pm, coupling, ModelParams(), 1, basis=basis)
        # a basis must start with the patterns, whose rows the softmax reads
        for bad in (pm.values[:, :2], pm.values[:, ::-1], np.vstack([pm.values, pm.values]),
                    pm.values[:, 0]):
            with pytest.raises(CdamError, match="does not start with the patterns"):
                iterate(np.zeros(5), pm, coupling, ModelParams(), 1, basis=bad)

    def test_operator_built_once_per_iterate(self, monkeypatch):
        pm, coupling, stack = exact_instance()
        built, operators = [], []
        build, retrieve = dynamics._basis_operator, dynamics.retrieval_vector

        def counted_build(*args):
            built.append(build(*args))
            return built[-1]

        def counted_retrieve(*args, operator=None):
            operators.append(operator)
            return retrieve(*args, operator=operator)

        monkeypatch.setattr(dynamics, "_basis_operator", counted_build)
        monkeypatch.setattr(dynamics, "retrieval_vector", counted_retrieve)
        iterate(stack, pm, coupling, ModelParams(a=0.5, h=0.5), 9, basis=pm.values)
        assert len(built) == 1 and len(operators) == 9
        assert all(op is built[0] for op in operators)
        iterate(stack, pm, coupling, ModelParams(a=0.5, h=0.5), 4)
        assert len(built) == 1 and operators[9:] == [None] * 4


class TestIterate:
    @pytest.mark.parametrize("tol, eta", [(0.0, 0.1), (1e-6, 0.3)])
    def test_run_trace_matches_update_step_by_hand(self, tol, eta):
        rng = np.random.default_rng(21)
        pm = PatternMatrix(rng.uniform(0, 1, (80, 6)))
        graph = build_cycle(6)
        coupling = normalize(graph)
        params = ModelParams(a=0.5, h=0.5, eta=eta)
        initial = init_state(pm, 2, seed=4)
        trace = run(initial, pm, graph, params, max_steps=200,
                    fixed_point_tol=tol, with_energy=True)
        states = step_by_hand(initial, pm, coupling, params, 200, tol=tol)
        assert trace.steps == len(states) - 1
        assert trace.termination == ("fixed-point" if trace.steps < 200 else "max-steps")
        assert (trace.termination == "fixed-point") == (tol > 0)
        assert np.array_equal(trace.final_state, states[-1])
        # the readouts run a block of states through one product, which rounds
        # unlike a product per state
        assert_readouts_match(trace, states, pm, graph, params)

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_tolerance_never_met_is_no_tolerance(self, tol):
        rng = np.random.default_rng(24)
        pm = PatternMatrix(rng.uniform(0, 1, (30, 4)))
        coupling = normalize(build_cycle(4))
        sig0 = rng.uniform(0, 1, (30, 3))
        want, _, _ = iterate(sig0, pm, coupling, ModelParams(eta=1.0), 60)
        got, steps, termination = iterate(sig0, pm, coupling, ModelParams(eta=1.0), 60, tol=tol)
        assert (steps, termination) == (60, "max-steps")
        assert np.array_equal(got, want)

    def test_observer_sees_every_step(self):
        rng = np.random.default_rng(22)
        pm = PatternMatrix(rng.uniform(0, 1, (30, 4)))
        coupling = normalize(build_cycle(4))
        seen = []
        sigma, steps, termination = iterate(
            pm.values[:, 0], pm, coupling, ModelParams(), 7,
            observe=lambda t, s: seen.append((t, s.copy())))
        states = step_by_hand(pm.values[:, 0], pm, coupling, ModelParams(), 7)
        assert (steps, termination) == (7, "max-steps")
        assert [t for t, _ in seen] == list(range(1, 8))
        for (_, s), want in zip(seen, states[1:]):
            assert np.array_equal(s, want)
        assert np.array_equal(sigma, states[-1])

    @pytest.mark.parametrize("kind", ["vector", "stack", "logits"])
    def test_observed_states_are_never_written_again(self, kind):
        # run() keeps the states it observes without copying them
        rng = np.random.default_rng(30)
        pm = PatternMatrix(rng.uniform(0, 1, (40, 5)))
        coupling, params = normalize(build_cycle(5)), ModelParams(a=0.5, h=0.5, beta=3.0)
        stack = init_state(pm, np.arange(5), seed=2)
        sigma0 = stack[:, 1] if kind == "vector" else stack
        basis = pm.values if kind == "logits" else None
        kept, fresh = [sigma0], [sigma0.copy()]
        iterate(sigma0, pm, coupling, params, 4, observe=lambda t, s: kept.append(s), basis=basis)
        iterate(sigma0.copy(), pm, coupling, params, 4, observe=lambda t, s: fresh.append(s.copy()),
                basis=basis)
        assert len(kept) == len(fresh) == 5
        for state, want in zip(kept, fresh):
            assert np.array_equal(state, want)

    def test_shapes_validated(self):
        pm = PatternMatrix(np.random.default_rng(0).uniform(0, 1, (5, 3)))
        coupling = normalize(build_cycle(3))
        for bad in (np.float64(1.0), np.zeros((5, 3, 1)), np.zeros(4), np.zeros((4, 2))):
            with pytest.raises(CdamError, match="does not fit neuron count 5"):
                iterate(bad, pm, coupling, ModelParams(), 3)
        with pytest.raises(CdamError, match=r"coupling matrix is \(4, 4\), patterns hold p=3"):
            iterate(np.zeros(5), pm, normalize(build_cycle(4)), ModelParams(), 3)

    @pytest.mark.parametrize("steps", [-1, -3])
    def test_negative_steps_raise(self, steps):
        pm = PatternMatrix(np.random.default_rng(0).uniform(0, 1, (5, 3)))
        with pytest.raises(CdamError, match=f"steps must be >= 0, got {steps}"):
            iterate(pm.values[:, 0], pm, normalize(build_cycle(3)), ModelParams(), steps)
        assert iterate(pm.values[:, 0], pm, normalize(build_cycle(3)), ModelParams(), 0)[1:] == (
            0, "max-steps")

    @pytest.mark.parametrize("basis", [False, True])
    def test_nan_tol_raises(self, basis):
        # as in run: a NaN tol would never stop the run, without notice
        pm = PatternMatrix(np.random.default_rng(0).uniform(0, 1, (5, 3)))
        with pytest.raises(CdamError, match="fixed_point_tol must not be NaN"):
            iterate(pm.values[:, 0], pm, normalize(build_cycle(3)), ModelParams(), 3,
                    tol=math.nan, basis=pm.values if basis else None)

    @pytest.mark.parametrize("tol", [math.inf, -math.inf])
    @pytest.mark.parametrize("basis", [False, True])
    def test_infinite_tol_raises(self, basis, tol):
        # an inf tol would call the first step a fixed point
        pm = PatternMatrix(np.random.default_rng(0).uniform(0, 1, (5, 3)))
        with pytest.raises(CdamError, match="fixed_point_tol must not be NaN or infinite"):
            iterate(pm.values[:, 0], pm, normalize(build_cycle(3)), ModelParams(), 3,
                    tol=tol, basis=pm.values if basis else None)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_run_rejects_a_non_finite_tol(self, tol):
        pm = PatternMatrix(np.random.default_rng(0).uniform(0, 1, (5, 3)))
        with pytest.raises(CdamError, match="fixed_point_tol must not be NaN or infinite"):
            run(pm.values[:, 0], pm, build_cycle(3), ModelParams(), 3, fixed_point_tol=tol)

    @pytest.mark.parametrize("basis", [False, True])
    def test_empty_stack_raises(self, basis):
        pm = PatternMatrix(np.random.default_rng(0).uniform(0, 1, (5, 3)))
        with pytest.raises(CdamError, match=r"state stack of shape \(5, 0\) holds no states"):
            iterate(np.zeros((5, 0)), pm, normalize(build_cycle(3)), ModelParams(), 3,
                    basis=pm.values if basis else None)

    def test_pearson_all_rejects_an_empty_stack(self):
        pm = PatternMatrix(np.random.default_rng(0).uniform(0, 1, (5, 3)))
        with pytest.raises(CdamError, match=r"state stack of shape \(5, 0\) holds no states"):
            pearson_all(np.zeros((5, 0)), pm)

    @pytest.mark.parametrize("shape", [(4,), (4, 2), (5, 2, 2), (5, 1, 1), ()],
                             ids=str)
    def test_pearson_all_rejects_a_state_of_another_shape(self, shape):
        pm = PatternMatrix(np.random.default_rng(0).uniform(0, 1, (5, 3)))
        state = np.random.default_rng(1).normal(0, 1, shape)
        with pytest.raises(CdamError, match="does not fit neuron count 5"):
            pearson_all(state, pm)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_step_counts_from_the_initial_time(self):
        # the initial state's readouts are finite; the first update overflows
        rng = np.random.default_rng(19)
        pm = PatternMatrix(rng.uniform(0.5, 1.0, (4, 2)) * 1e100)
        graph = MemoryGraph(2, ((0, 1, 1.0),), directed=False)
        with pytest.raises(NumericDivergenceError) as exc:
            run(rng.uniform(0.5, 1.0, 4), pm, graph,
                ModelParams(a=1e300, h=0.0, eta=1.0), max_steps=10)
        assert exc.value.step == 1
        assert "network state" in str(exc.value)

    @pytest.mark.parametrize("scale, energy_graph", [(1e200, None), (1e154, build_cycle(3))])
    def test_non_finite_readout_of_the_initial_state_ends_the_run(self, scale, energy_graph):
        pm = PatternMatrix(np.random.default_rng(0).uniform(0, 1, (50, 3)))
        sigma = np.random.default_rng(1).uniform(-0.5, 0.5, 50) * scale
        with pytest.raises(NumericDivergenceError) as exc:
            run(sigma, pm, build_cycle(3), ModelParams(), with_energy=energy_graph is not None)
        assert exc.value.step == 0
        assert "readout" in str(exc.value)


K = dynamics.READOUT_BLOCK


def first_bad_readout(states, pm, graph, params):
    """The first step whose per-state readouts are not all finite, or None;
    a centered squared norm that overflows makes r unreadable."""
    with np.errstate(all="ignore"):
        for t, s in enumerate(states):
            x = s - s.mean()
            values = [x @ x, *uncached_pearson_all(s, pm.values), s.mean(), s.std()]
            if graph is not None:
                values.append(energy_of(s, pm, graph, params))
            if not np.isfinite(values).all():
                return t
    return None


class TestReadoutBlocks:
    """run() computes its readouts READOUT_BLOCK states at a time."""

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("records", [2, K - 1, K, K + 1, 2 * K + 1])
    def test_block_boundaries(self, records, directed):
        # a run records at least two states; the block of one state is the
        # tail of K + 1 and 2K + 1
        rng = np.random.default_rng(23)
        pm = PatternMatrix(rng.uniform(0, 1, (60, 7)))
        graph = asymmetric_graph() if directed else build_cycle(7)
        coupling, params = normalize(graph), ModelParams(a=0.5, h=0.5)
        initial = init_state(pm, 3, seed=2)
        trace = run(initial, pm, graph, params, max_steps=records - 1, fixed_point_tol=0.0,
                    with_energy=True)
        states = step_by_hand(initial, pm, coupling, params, records - 1)
        assert trace.steps + 1 == len(states) == records
        assert trace.termination == "max-steps"
        assert np.array_equal(trace.final_state, states[-1])
        assert_readouts_match(trace, states, pm, graph, params)

    @pytest.mark.parametrize("records", [2, K])
    def test_one_block_reads_pearson_all_of_its_states(self, records):
        # one Pearson routine: r of a block is pearson_all of the stacked block
        rng = np.random.default_rng(29)
        pm = PatternMatrix(rng.uniform(0, 1, (60, 7)))
        graph, params = build_cycle(7), ModelParams(a=0.5, h=0.5)
        initial = init_state(pm, 3, seed=2)
        trace = run(initial, pm, graph, params, max_steps=records - 1, fixed_point_tol=0.0)
        states = np.array(step_by_hand(initial, pm, normalize(graph), params, records - 1)).T
        assert np.array_equal(trace.correlations, pearson_all(states, pm).T)

    @pytest.mark.parametrize("directed", [False, True])
    def test_fixed_point_exit_mid_block(self, directed):
        rng = np.random.default_rng(24)
        pm = PatternMatrix(rng.uniform(0, 1, (60, 7)))
        graph = asymmetric_graph() if directed else build_cycle(7)
        coupling, params = normalize(graph), ModelParams(a=1.0, h=0.0, eta=0.3)
        initial = init_state(pm, 1, seed=5)
        trace = run(initial, pm, graph, params, max_steps=500, fixed_point_tol=1e-9,
                    with_energy=True)
        states = step_by_hand(initial, pm, coupling, params, 500, tol=1e-9)
        assert trace.termination == "fixed-point"
        assert trace.steps + 1 == len(states) and len(states) % K not in (0, 1)
        assert np.array_equal(trace.final_state, states[-1])
        assert_readouts_match(trace, states, pm, graph, params)

    @pytest.mark.parametrize("directed", [False, True])
    def test_energy_pairs_in_chunks_of_states(self, monkeypatch, directed):
        # the 14 or 10 pair terms of two states per chunk, the last chunk one state
        monkeypatch.setattr(dynamics, "ENERGY_PAIR_BUDGET", 29)
        rng = np.random.default_rng(25)
        pm = PatternMatrix(rng.uniform(0, 1, (60, 7)))
        graph = asymmetric_graph() if directed else build_cycle(7)
        coupling, params = normalize(graph), ModelParams(a=0.5, h=0.5)
        initial = init_state(pm, 4, seed=6)
        trace = run(initial, pm, graph, params, max_steps=K, fixed_point_tol=0.0,
                    with_energy=True)
        assert_readouts_match(trace, step_by_hand(initial, pm, coupling, params, K), pm, graph,
                              params)

    def test_undefined_energy_is_not_a_divergence(self):
        # a*sum exp(b*m^2) + h*sum w*exp(b*m_a*m_k) < 0 from the first state
        pm = PatternMatrix(np.random.default_rng(26).uniform(0, 1, (40, 7)))
        graph = asymmetric_graph()
        with pytest.raises(CdamError, match="energy log argument .* <= 0"):
            run(init_state(pm, 0, seed=1), pm, graph, ModelParams(a=-2.5, h=1.0),
                with_energy=True)

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_r_matches_loop_pearson_on_low_contrast_patterns(self, c):
        # every pattern value near 0.99: a readout through the raw logits
        # Xi^T S would cancel n*m_mu*mean(sigma) against them and lose 1e-9
        rng = np.random.default_rng(27)
        pm = PatternMatrix(np.clip(0.99 + 0.002 * rng.normal(size=(2000, 50)), 0.0, 1.0))
        graph, params = build_cycle(50), ModelParams(a=-2.0, h=3.0)
        initial = init_state(pm, 3, c=c, seed=1)
        trace = run(initial, pm, graph, params, max_steps=3, fixed_point_tol=0.0)
        states = [initial]
        iterate(initial, pm, normalize(graph), params, 3, observe=lambda t, s: states.append(s))
        cols = [list(pm.values[:, mu]) for mu in range(pm.p)]
        want = [[naive_pearson(list(s), col) for col in cols] for s in states]
        assert np.max(np.abs(trace.correlations - want)) <= 1e-12

    def test_r_matches_per_state_pearson_all_on_the_stock_simulate_run(self):
        # the states of cdam simulate --graph cycle:30 --patterns random:1000
        pm, graph = random_patterns(1000, 30, 0), build_cycle(30)
        initial = init_state(pm, 0, seed=0)
        trace = run(initial, pm, graph, ModelParams())
        states = [initial]
        iterate(initial, pm, normalize(graph), ModelParams(), trace.steps,
                observe=lambda t, s: states.append(s))
        assert len(states) == trace.steps + 1 > K
        want = [pearson_all(s, pm) for s in states]
        assert np.max(np.abs(trace.correlations - want)) <= 1e-13

    @pytest.mark.parametrize("what", ["state", "pattern"])
    def test_zero_variance_readout_raises(self, what):
        # a constant state and a constant pattern are told apart
        values = np.random.default_rng(28).uniform(0, 1, (40, 4))
        sigma = np.full(40, 0.3) if what == "state" else values[:, 0].copy()
        if what == "pattern":
            values[:, 2] = 0.5
        with pytest.raises(CdamError) as caught:
            run(sigma, PatternMatrix(values), build_cycle(4), ModelParams())
        assert str(caught.value) == f"pearson undefined: zero-variance {what}"

    def test_zero_variance_pattern_raises_before_the_first_step(self, monkeypatch):
        calls = []
        retrieval = dynamics.retrieval_vector
        monkeypatch.setattr(dynamics, "retrieval_vector",
                            lambda *args, **kw: calls.append(1) or retrieval(*args, **kw))
        values = np.random.default_rng(29).uniform(0, 1, (40, 4))
        values[:, 1] = 0.25
        pm = PatternMatrix(values)
        with pytest.raises(CdamError, match="pearson undefined: zero-variance pattern"):
            run(init_state(pm, 0, seed=1), pm, build_cycle(4), ModelParams(),
                max_steps=3 * K, fixed_point_tol=0.0)
        assert calls == []

    def test_constant_pattern_whose_mean_rounds_raises_before_the_first_step(self, monkeypatch):
        calls = []
        retrieval = dynamics.retrieval_vector
        monkeypatch.setattr(dynamics, "retrieval_vector",
                            lambda *args, **kw: calls.append(1) or retrieval(*args, **kw))
        pm = PatternMatrix([[0.1, 0.2, 0.7], [0.1, 0.5, 0.3], [0.1, 0.9, 0.4]])
        with pytest.raises(CdamError, match="pearson undefined: zero-variance pattern"):
            run(np.array([0.3, 0.1, 0.8]), pm, build_cycle(3), ModelParams(), max_steps=5)
        assert calls == []

    def test_pattern_too_large_to_read_is_a_bad_readout_at_step_0(self):
        # its r reads NaN, as a state's does, where it once read 0
        pm = PatternMatrix(np.random.default_rng(3).uniform(0, 1, (40, 4)) * 1e200)
        with pytest.raises(NumericDivergenceError) as exc:
            run(np.random.default_rng(4).uniform(0, 1, 40), pm, build_cycle(4), ModelParams())
        assert exc.value.step == 0
        assert "readout" in str(exc.value)

    @pytest.mark.parametrize("with_energy", [False, True])
    def test_pattern_sums_beyond_the_float_range_end_in_a_readout_error(self, with_energy):
        # the overlap shift n*m overflows; it once warned before the run began
        pm = PatternMatrix(np.random.default_rng(3).uniform(0, 1, (40, 4)) * 1e307)
        with pytest.raises(NumericDivergenceError) as exc:
            run(init_state(pm, 0, seed=1), pm, build_cycle(4), ModelParams(),
                with_energy=with_energy)
        assert exc.value.step == 0

    @pytest.mark.parametrize("a, eta, with_energy", [
        (1e154, 0.1, False),  # the state norm overflows; the state stays finite
        (1e154, 0.02, False),  # the same, in the second block
        (400.0, 0.1, True),  # the energy overflows
        (1.0, 1e5, False),  # the norm overflows, then the state, in the same block
    ])
    def test_bad_readout_mid_block_is_named_by_its_step(self, a, eta, with_energy):
        rng = np.random.default_rng(3)
        pm = PatternMatrix(rng.uniform(0, 1, (40, 4)))
        graph = build_cycle(4)
        coupling, params = normalize(graph), ModelParams(a=a, h=0.0, eta=eta)
        initial = init_state(pm, 0, seed=1)
        with np.errstate(all="ignore"):
            states = step_by_hand(initial, pm, coupling, params, 3 * K)
        finite = [bool(np.isfinite(s).all()) for s in states]
        limit = finite.index(False) if False in finite else len(states)
        t = first_bad_readout(states[:limit], pm, graph if with_energy else None, params)
        assert t is not None and t % K != 0
        # the later state divergence, if any, falls in the same block
        assert limit == len(states) or t < limit < (t // K + 1) * K
        with pytest.raises(NumericDivergenceError) as exc:
            run(initial, pm, graph, params, max_steps=3 * K, fixed_point_tol=0.0,
                with_energy=with_energy)
        assert exc.value.step == t
        assert "readout" in str(exc.value)


class TestMeasures:
    def test_overlap_zero_state(self):
        pm = PatternMatrix(np.random.default_rng(0).uniform(0, 1, (10, 2)))
        assert overlaps_all(np.zeros(10), pm)[0] == 0.0

    def test_overlap_law_of_large_numbers(self):
        rng = np.random.default_rng(8)
        pm = PatternMatrix(rng.uniform(0, 1, (10000, 2)))
        val = overlaps_all(pm.values[:, 0].copy(), pm)[0]
        assert abs(val - 1 / 3) < 0.02

    def test_overlap_linearity(self):
        rng = np.random.default_rng(9)
        pm = PatternMatrix(rng.uniform(0, 1, (100, 3)))
        base = overlaps_all(pm.values[:, 1].copy(), pm)[1]
        scaled = overlaps_all(2.5 * pm.values[:, 1], pm)[1]
        assert abs(scaled - 2.5 * base) < 1e-12

    def test_pearson_identity_and_negative_affine(self):
        rng = np.random.default_rng(10)
        pm = PatternMatrix(rng.uniform(0, 1, (50, 2)))
        assert pearson_all(pm.values[:, 0].copy(), pm)[0] == pytest.approx(1.0)
        flipped = -2.0 * pm.values[:, 0] + 5.0
        assert pearson_all(flipped, pm)[0] == pytest.approx(-1.0)

    def test_pearson_independent_draws_small(self):
        rng = np.random.default_rng(11)
        pm = PatternMatrix(rng.uniform(0, 1, (1000, 3)))
        state = rng.uniform(0, 1, 1000)
        assert np.all(np.abs(pearson_all(state, pm)) < 0.1)

    def test_pearson_matches_stdlib_oracle(self):
        rng = np.random.default_rng(12)
        pm = PatternMatrix(rng.uniform(0, 1, (40, 4)))
        state = rng.normal(0, 1, 40)
        for mu in range(4):
            want = naive_pearson(list(state), list(pm.values[:, mu]))
            assert pearson_all(state, pm)[mu] == pytest.approx(want, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_state_norm_gives_nan(self):
        pm = PatternMatrix(np.random.default_rng(0).uniform(0, 1, (50, 3)))
        sigma = np.random.default_rng(1).uniform(-0.5, 0.5, 50) * 1e200
        assert np.isnan(pearson_all(sigma, pm)).all()

    def test_overflowed_pattern_norm_gives_nan(self):
        # finite patterns whose centered norms overflow once read r = 0, with a warning
        pm = PatternMatrix(np.random.default_rng(0).uniform(0, 1, (50, 3)) * 1e200)
        sigma = np.random.default_rng(1).uniform(0, 1, (50, 2))
        assert np.isnan(pearson_all(sigma, pm)).all()
        mixed = PatternMatrix(np.column_stack([pm.values[:, 0], np.arange(50.0)]))
        r = pearson_all(sigma, mixed)
        assert np.isnan(r[0]).all() and np.isfinite(r[1]).all()

    def test_zero_variance_raises(self):
        pm = PatternMatrix(np.random.default_rng(0).uniform(0, 1, (10, 2)))
        with pytest.raises(CdamError, match="pearson undefined: zero-variance state"):
            pearson_all(np.ones(10), pm)
        flat = PatternMatrix(np.column_stack([np.ones(10), np.arange(10.0)]))
        with pytest.raises(CdamError, match="pearson undefined: zero-variance pattern"):
            pearson_all(np.arange(10.0), flat)

    def test_pearson_all_equals_uncached_matrix_exactly(self):
        rng = np.random.default_rng(13)
        shapes = [(2000, 50)] + [(int(rng.integers(3, 300)), int(rng.integers(1, 40)))
                                 for _ in range(15)]
        for n, p in shapes:
            pm = PatternMatrix(rng.uniform(0, 1, (n, p)))
            for k in (1, 3, 64):  # the first call fills the cache, later calls read it
                stack = rng.normal(0, 1, (n, k))
                got = pearson_all(stack, pm)
                assert got.shape == (p, k)
                assert np.array_equal(got, uncached_pearson_matrix(pm.values, stack))
                vector = pearson_all(stack[:, 0], pm)
                assert vector.shape == (p,)
                assert np.array_equal(vector, uncached_pearson_matrix(pm.values, stack[:, :1])[:, 0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_column_of_a_stack_reads_nan_alone(self):
        rng = np.random.default_rng(14)
        pm = PatternMatrix(rng.uniform(0, 1, (50, 3)))
        stack = rng.uniform(-0.5, 0.5, (50, 4))
        stack[:, 2] *= 1e200
        r = pearson_all(stack, pm)
        assert np.isnan(r[:, 2]).all()
        assert np.isfinite(np.delete(r, 2, axis=1)).all()
        # a column's product rounds by its block's shape, not by its neighbours' values
        for j in (0, 1, 3):
            assert np.max(np.abs(r[:, j] - pearson_all(stack[:, j], pm))) < 1e-15

    # a constant column whose mean rounds: 0.1 at n = 3 leaves a centered norm
    # of 2.4e-17, which a test of that norm alone read as variance
    ROUNDED = np.array([[0.1, 0.2, 0.7], [0.1, 0.5, 0.3], [0.1, 0.9, 0.4]])

    def test_constant_pattern_whose_mean_rounds_raises(self):
        with pytest.raises(CdamError, match="pearson undefined: zero-variance pattern"):
            pearson_all(np.array([0.3, 0.1, 0.8]), PatternMatrix(self.ROUNDED))

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_constant_state_whose_mean_rounds_raises(self, k):
        pm = PatternMatrix(self.ROUNDED[:, 1:])
        stack = np.random.default_rng(17).uniform(0, 1, (3, k))
        stack[:, k // 2] = 0.1
        with pytest.raises(CdamError, match="pearson undefined: zero-variance state"):
            pearson_all(stack, pm)
        with pytest.raises(CdamError, match="pearson undefined: zero-variance state"):
            pearson_all(np.full(3, 0.1), pm)

    def test_exact_mean_constants_raise(self):
        # integer columns and n = 1, whose means are exact
        ints = PatternMatrix(np.column_stack([np.arange(6), np.full(6, 4)]))
        with pytest.raises(CdamError, match="pearson undefined: zero-variance pattern"):
            pearson_all(np.arange(6.0) ** 2, ints)
        pm = PatternMatrix(np.random.default_rng(18).uniform(0, 1, (6, 2)))
        with pytest.raises(CdamError, match="pearson undefined: zero-variance state"):
            pearson_all(np.full(6, 4), pm)
        with pytest.raises(CdamError, match="pearson undefined: zero-variance pattern"):
            pearson_all(np.array([0.5]), PatternMatrix([[0.2, 0.7]]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n", [2, 3, 7, 64, 1000, 20000])
    def test_every_constant_column_raises(self, n):
        # rounding leaves a constant column at most n**1.5 eps/2 |mean| of
        # norm, or none finite once its square overflows: every value and
        # size, in either memory order, is caught
        rng = np.random.default_rng(n)
        values = [0.1, 1 / 3, 0.99, -7.3, 5e-324, 1e-300, 1e300, 1.7976931348623157e308,
                  *(rng.uniform(-1, 1, 12) * 10.0 ** rng.integers(-300, 300, 12))]
        pm = PatternMatrix(rng.uniform(0, 1, (n, 2)))
        for c in values:
            for stack in (rng.uniform(0, 1, (n, 3)), np.asfortranarray(rng.uniform(0, 1, (n, 3)))):
                stack[:, 1] = c
                with pytest.raises(CdamError, match="zero-variance state"):
                    pearson_all(stack, pm)
                with pytest.raises(CdamError, match="zero-variance pattern"):
                    PatternMatrix(stack).centered

    def test_shared_rule_refuses_what_the_full_max_min_test_refused(self):
        # a constant column whose mean may round, beside a varying one, and
        # the same column one ulp apart in one place: the rule compares only
        # near-constant columns, yet refuses exactly what comparing all did
        rng = np.random.default_rng(37)
        for n in range(2, 200):
            for c in (0.1, 0.3, 0.7, 1 / 3):
                values = np.column_stack([rng.uniform(0, 1, n), np.full(n, c)])
                for nudged in (False, True):
                    values[n // 2, 1] = math.nextafter(c, 1.0) if nudged else c
                    mean = values.mean(axis=0)
                    norms = np.sqrt(((values - mean) ** 2).sum(axis=0))
                    full = bool(np.any((norms == 0.0) | (values.max(axis=0) == values.min(axis=0))))
                    assert full is not nudged
                    try:
                        dynamics._refuse_flat(values, mean, norms, "pattern")
                    except CdamError:
                        refused = True
                    else:
                        refused = False
                    assert refused is full, (n, c, nudged)

    def test_nearly_constant_column_is_read(self):
        # one ulp of spread is variance: the exact test refuses only max == min
        pm = PatternMatrix(self.ROUNDED[:, 1:])
        state = np.array([0.1, 0.1, math.nextafter(0.1, 1.0)])
        assert np.isfinite(pearson_all(state, pm)).all()
        assert np.isfinite(pearson_all(pm.values[:, 0], PatternMatrix(state[:, None]))).all()

    def test_zero_variance_pattern_raises_on_every_call(self):
        flat = PatternMatrix(np.column_stack([np.arange(10.0), np.ones(10)]))
        state = np.arange(10.0) ** 2
        for _ in range(2):
            with pytest.raises(CdamError, match="pearson undefined: zero-variance pattern"):
                pearson_all(state, flat)

    @pytest.mark.parametrize("c", [1e-3, 0.5, 3.0, 1e3])
    def test_pearson_all_invariant_to_state_scale_and_shift(self, c):
        rng = np.random.default_rng(16)
        pm = PatternMatrix(rng.uniform(0, 1, (200, 8)))
        sigma = rng.normal(0, 1, 200)
        r = pearson_all(sigma, pm)
        assert np.max(np.abs(pearson_all(c * sigma, pm) - r)) < 1e-12
        for k in (-5.0, 5.0):
            assert np.max(np.abs(pearson_all(sigma + k, pm) - r)) < 1e-12
        assert np.max(np.abs(pearson_all(-2.0 * sigma, pm) + r)) < 1e-12


class TestEnergy:
    def test_single_pattern_collapses_to_minus_m_squared(self):
        rng = np.random.default_rng(13)
        xi = rng.uniform(0, 1, (20, 1))
        pm = PatternMatrix(xi)
        g = MemoryGraph(1, (), directed=False)
        state = xi[:, 0].copy()
        m = overlaps_all(state, pm)[0]
        val = energy_of(state, pm, g, ModelParams(a=1.0, h=0.0, beta=1.0))
        assert val == pytest.approx(-m * m)

    def test_directed_degenerate_raises(self):
        # a = h = 0: the log argument is 0 at every state
        pm = PatternMatrix(np.random.default_rng(0).uniform(0, 1, (10, 2)))
        g = MemoryGraph(2, ((0, 1, 1.0),), directed=True)
        state = np.random.default_rng(1).normal(0, 1, 10)
        with pytest.raises(CdamError, match="energy log argument 0.0 <= 0"):
            run(state, pm, g, ModelParams(a=0.0, h=0.0), max_steps=1, with_energy=True)

    def test_matches_oracles(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            xi, graph, params, sigma = random_instance(rng, n_max=8, p_max=4)
            pm = PatternMatrix(xi)
            try:
                want = naive_energy(sigma, pm, graph, params)
            except ValueError:
                # an undefined energy at t=0 is the first bad readout of the run
                with pytest.raises(CdamError, match="energy log argument .* <= 0"):
                    run(sigma, pm, graph, params, max_steps=1, with_energy=True)
                continue
            assert energy_of(sigma, pm, graph, params) == pytest.approx(want, abs=1e-10)

    def test_empty_edge_set_drops_hetero_term(self):
        rng = np.random.default_rng(15)
        pm = PatternMatrix(rng.uniform(0, 1, (10, 3)))
        state = rng.normal(0, 1, 10)
        lonely = MemoryGraph(3, (), directed=False)
        with_h = energy_of(state, pm, lonely, ModelParams(a=1.0, h=5.0))
        without_h = energy_of(state, pm, lonely, ModelParams(a=1.0, h=0.0))
        assert with_h == pytest.approx(without_h)

    def test_run_computes_each_states_overlaps_once(self, monkeypatch):
        # r and the energy's overlaps come from one pattern product per block
        # of recorded states, formed by _pearson_stack and by nothing else
        import cdam.dynamics as D
        shapes = []
        pearson_stack = D._pearson_stack
        monkeypatch.setattr(D, "_pearson_stack",
                            lambda s, *rest: shapes.append(s.shape) or pearson_stack(s, *rest))
        for name in ("overlaps_all", "pearson_all"):
            monkeypatch.setattr(D, name, lambda *args: pytest.fail("a second pattern product"))
        rng = np.random.default_rng(17)
        pm = PatternMatrix(rng.uniform(0, 1, (40, 5)))
        graph = build_cycle(5)
        trace = run(init_state(pm, 0, seed=1), pm, graph, ModelParams(),
                    max_steps=2 * D.READOUT_BLOCK + 7, fixed_point_tol=0.0, with_energy=True)
        assert shapes == [(40, D.READOUT_BLOCK), (40, D.READOUT_BLOCK), (40, 8)]
        assert 2 * D.READOUT_BLOCK + 8 == trace.steps + 1
        assert trace.energies[-1] == pytest.approx(
            energy_of(trace.final_state, pm, graph, ModelParams()), rel=1e-13, abs=0)

    def test_undirected_traces_are_pinned_bitwise(self):
        # the first 16 hex digits of the SHA-256 of the float64 bytes of every trace, as
        # recorded when a directed graph's energy still read its edge list (numpy with
        # OpenBLAS on x86-64): an undirected graph's energy was not moved by that change
        digest = hashlib.sha256()
        for graph in (build_cycle(30), build_named("karate"), build_named("tutte"),
                      build_barbell(5, 3)):
            pm = random_patterns(200, graph.p, 0)
            for a, h in ((1.0, 0.0), (0.5, 0.5), (-2.0, 3.0)):
                trace = run(init_state(pm, 0, seed=1), pm, graph, ModelParams(a=a, h=h),
                            max_steps=30, fixed_point_tol=0.0, with_energy=True)
                digest.update(trace.energies.tobytes())
        assert digest.hexdigest()[:16] == "d19b1b7f3b3e11ba"

    def test_directed_multigraph_matches_the_edge_oracle(self):
        # parallel edges (summed in the adjacency, one term each in the oracle), self-loops
        # and a vertex with no out-edge
        graph = MemoryGraph(5, ((0, 1, 0.5), (0, 1, 1.5), (1, 2, 1.0), (2, 0, 2.0), (2, 0, 0.25),
                                (2, 0, 1.0), (3, 3, 1.0), (3, 1, 0.75), (1, 3, 1.0), (4, 2, 3.0)),
                            directed=True)
        rng = np.random.default_rng(23)
        pm = PatternMatrix(rng.uniform(0, 1, (40, 5)))
        for a, h in ((0.5, 0.5), (-2.0, 3.0), (1.0, 2.0)):
            params = ModelParams(a=a, h=h, beta=3.0)
            initial = init_state(pm, 0, seed=5)
            trace = run(initial, pm, graph, params, max_steps=40, fixed_point_tol=0.0,
                        with_energy=True)
            states = step_by_hand(initial, pm, normalize(graph), params, 40)
            want = np.array([naive_energy(state, pm, graph, params) for state in states])
            assert np.max(np.abs(trace.energies - want) / np.abs(want)) < 1e-12

    def test_graph_size_mismatch(self):
        pm = PatternMatrix(np.random.default_rng(0).uniform(0, 1, (10, 3)))
        with pytest.raises(CdamError, match=r"coupling matrix is \(4, 4\)"):
            run(np.arange(10.0), pm, build_cycle(4), ModelParams(), with_energy=True)


class TestInitState:
    def test_noiseless_is_exact(self):
        pm = PatternMatrix(np.random.default_rng(0).uniform(0, 1, (30, 3)))
        state = init_state(pm, 1, c=0.0, seed=5)
        assert np.array_equal(state, pm.values[:, 1])

    def test_unit_noise_bounded(self):
        pm = PatternMatrix(np.random.default_rng(0).uniform(0, 1, (500, 2)))
        state = init_state(pm, 0, c=1.0, seed=5)
        assert np.max(np.abs(state - pm.values[:, 0])) <= 0.5

    def test_deterministic(self):
        pm = PatternMatrix(np.random.default_rng(0).uniform(0, 1, (30, 3)))
        a = init_state(pm, 2, c=1.0, seed=9)
        b = init_state(pm, 2, c=1.0, seed=9)
        assert np.array_equal(a, b)

    def test_validation(self):
        pm = PatternMatrix(np.ones((5, 2)) * 0.5)
        for trigger in (2, -1, np.array([0, 2]), np.array([[0]]), 1.0):
            with pytest.raises(CdamError, match=r"is not a pattern index in \[0,2\)"):
                init_state(pm, trigger)
        with pytest.raises(CdamError, match="noise amplitude must be finite and >= 0, got -1.0"):
            init_state(pm, 0, c=-1.0)

    def test_index_array_stacks_single_trigger_draws_bitwise(self):
        # the batched runs' initial states are the pattern columns plus one
        # (n, k) uniform draw; a one-index array gives the single-trigger state
        rng = np.random.default_rng(3)
        pm = PatternMatrix(rng.uniform(0, 1, (7, 4)))
        triggers = np.array([2, 0, 2, 3, 1])
        stack = init_state(pm, triggers, c=0.7, seed=11)
        noise = np.random.default_rng(11).uniform(-0.5, 0.5, (7, 5))
        assert np.array_equal(stack, pm.values[:, triggers] + 0.7 * noise)
        for t in range(4):
            single = init_state(pm, t, c=0.7, seed=11)
            assert np.array_equal(init_state(pm, np.array([t]), c=0.7, seed=11), single[:, None])


class TestModelParams:
    def test_positive_constraints(self):
        with pytest.raises(CdamError, match="beta must be > 0, got 0.0"):
            ModelParams(beta=0.0)
        with pytest.raises(CdamError, match="eta must be > 0, got -0.1"):
            ModelParams(eta=-0.1)

    def test_signs_unrestricted(self):
        ModelParams(a=-5.0, h=-3.0)


class TestTheoryProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        a=st.floats(0.05, 3.0),
        beta=st.floats(0.1, 20.0),
        eta=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_auto_update_never_raises_the_descent_energy(self, seed, a, beta, eta):
        # h = 0, a > 0, eta <= 1: each update is a damped concave-convex step on E'
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(2, 21)), int(rng.integers(1, 7))
        pm = PatternMatrix(rng.uniform(0, 1, (n, p)))
        states = [init_state(pm, int(rng.integers(p)), seed=seed)]
        iterate(states[0], pm, normalize(MemoryGraph(p, (), directed=False)),
                ModelParams(a=a, h=0.0, beta=beta, eta=eta), 200,
                observe=lambda t, sig: states.append(sig))
        cols = [list(pm.values[:, mu]) for mu in range(p)]
        energies = [descent_energy(list(sig), cols, a, beta) for sig in states]
        assert len(energies) == 201
        for before, after in zip(energies, energies[1:]):
            assert after - before <= 1e-12 * max(1.0, abs(before))

    def test_pure_hetero_one_step_successor(self):
        # a=0, h>0, out-degree one, hard softmax, full step: one-hop retrieval
        rng = np.random.default_rng(16)
        pm = PatternMatrix(rng.uniform(0, 1, (500, 10)))
        m = normalize(build_cycle(10, directed=True))
        params = ModelParams(a=0.0, h=1.0, beta=50.0, eta=1.0)
        for mu in (0, 4, 9):
            state = step(pm.values[:, mu].copy(), pm, m, params)
            assert int(np.argmax(pearson_all(state, pm))) == (mu + 1) % 10

    def test_no_pure_retrieval_with_mixed_hebbian(self):
        # a, h > 0 and a non-isolated trigger co-activates a graph neighbor
        rng = np.random.default_rng(17)
        pm = PatternMatrix(rng.uniform(0, 1, (1000, 30)))
        g = build_cycle(30)
        trace = run(init_state(pm, 7, c=1.0, seed=3), pm, g, ModelParams(a=0.5, h=0.5))
        final_r = trace.correlations[-1]
        assert int(np.argmax(final_r)) == 7
        assert max(final_r[u] for u in np.flatnonzero(hop_distances(g)[7] == 1)) > 0.2

    def test_connected_component_retrieval(self):
        # h > a >= 0: activation reaches the trigger's whole component and
        # never leaks into the other one; n large enough that baseline
        # cross-pattern correlation noise sits below the 0.05 leak bound
        rng = np.random.default_rng(18)
        pm = PatternMatrix(rng.uniform(0, 1, (8000, 12)))
        edges = [(i, i + 1, 1.0) for i in range(5)] + [(i, i + 1, 1.0) for i in range(6, 11)]
        g = MemoryGraph(12, tuple(edges), directed=False)
        m = normalize(g)
        params = ModelParams(a=0.0, h=1.0)
        states = []
        iterate(init_state(pm, 1, c=1.0, seed=5), pm, m, params, 101,
                observe=lambda t, s: states.append(s))
        r = pearson_all(np.column_stack(states), pm)
        assert r.shape == (12, 101)
        assert (np.abs(r[:6]) > 0.1).any(axis=1).all()
        # signed bound: the complement must never be positively retrieved
        # (mean-load centering makes it mildly anti-correlated instead)
        assert not (r[6:] > 0.05).any()
