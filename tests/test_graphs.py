from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cdam.errors import CdamError
from cdam.graphs import (
    MAX_GRAPH_P,
    MemoryGraph,
    build_barbell,
    build_cycle,
    build_named,
    build_nn_scaffold,
    build_random_regular,
    from_text,
    hop_distances,
    named_communities,
    normalize,
    read_graph,
    to_text,
)
from oracles import looped_barbell, looped_from_text, looped_random_regular, naive_hop_distances


def _outcome(build, *args):
    """The graph's p, direction, edges with each element's Python type and
    fingerprint, or the message of the CdamError raised instead."""
    try:
        g = build(*args)
    except CdamError as exc:
        return str(exc)
    return g.p, g.directed, g.edges, [tuple(map(type, e)) for e in g.edges], g.fingerprint()


class TestCycle:
    def test_c30_every_vertex_degree_two(self):
        g = build_cycle(30, directed=False)
        assert g.p == 30
        assert np.all(g.adjacency().sum(axis=1) == 2)

    def test_directed_c50_unit_degrees(self):
        g = build_cycle(50, directed=True)
        assert np.all(g.adjacency().sum(axis=0) == 1)
        assert np.all(g.adjacency().sum(axis=1) == 1)

    def test_triangle_normalizes_to_half(self):
        m = normalize(build_cycle(3, directed=False)).matrix
        off = m[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.5)
        assert np.allclose(np.diag(m), 0.0)

    def test_too_small_rejected(self):
        with pytest.raises(CdamError, match="cycle needs p >= 3, got 2"):
            build_cycle(2)


class TestBarbell:
    def test_paper_size(self):
        assert build_barbell(10, 10).p == 30

    def test_minimal_barbell_edges(self):
        # hand enumeration: K2 + K2 bridged directly
        g = build_barbell(2, 0)
        assert g.p == 4
        assert set((s, d) for s, d, _ in g.edges) == {(0, 1), (1, 2), (2, 3)}

    def test_single_path_vertex_degree(self):
        g = build_barbell(3, 1)
        assert g.p == 7
        assert g.adjacency().sum(axis=1)[3] == 2  # the lone path vertex

    def test_too_small_clique(self):
        with pytest.raises(CdamError, match="barbell cliques need n >= 2, got 1"):
            build_barbell(1, 5)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 12), m=st.integers(-1, 6))
    @example(n=MAX_GRAPH_P // 2, m=1)
    def test_equals_the_looped_builder(self, n, m):
        assert _outcome(build_barbell, n, m) == _outcome(looped_barbell, n, m)


class TestNamed:
    def test_karate_vertex_count(self):
        assert build_named("karate").p == 34

    def test_karate_canonical_structure(self):
        # 78 edges; the two club leaders are the highest-degree hubs
        g = build_named("karate")
        deg = g.adjacency().sum(axis=1)
        assert len(g.edges) == 78
        assert deg[0] == 16 and deg[33] == 17 and deg[32] == 12

    def test_tutte_three_regular(self):
        g = build_named("tutte")
        assert g.p == 46
        assert np.all(g.adjacency().sum(axis=1) == 3)

    def test_tutte_normalization_entries(self):
        m = normalize(build_named("tutte")).matrix
        nz = m[m != 0]
        assert np.allclose(nz, 1 / 3)

    def test_unknown_name(self):
        with pytest.raises(CdamError, match="unknown graph 'petersen'; known: karate, tutte"):
            build_named("petersen")

    def test_communities_cover_graphs(self):
        for name in ("karate", "tutte"):
            blocks = named_communities(name)
            members = sorted(v for b in blocks for v in b)
            assert members == list(range(build_named(name).p))


class TestRandomRegular:
    def test_degrees_exact(self):
        g = build_random_regular(46, 3, seed=5)
        assert np.all(g.adjacency().sum(axis=1) == 3)

    def test_k4_unique(self):
        g = build_random_regular(4, 3, seed=0)
        assert set((s, d) for s, d, _ in g.edges) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}

    def test_deterministic(self):
        assert build_random_regular(20, 3, seed=9).edges == build_random_regular(20, 3, seed=9).edges

    def test_odd_total_degree_rejected(self):
        with pytest.raises(CdamError, match=r"p\*k must be even, got p=5, k=3"):
            build_random_regular(5, 3, seed=0)

    def test_retries_exhausted(self):
        # 9-regular on 10 vertices is K_10, which no pairing of stubs hits in 1000 draws
        with pytest.raises(CdamError,
                           match="no simple 9-regular graph on 10 vertices in 1000 draws"):
            build_random_regular(10, 9, 0)

    # k up to 5: a larger k on 40 vertices almost never draws a simple graph
    @settings(max_examples=80, deadline=None)
    @given(p=st.integers(2, 40), seed=st.integers(0, 9), data=st.data())
    def test_equals_the_two_test_loop(self, p, seed, data):
        k = data.draw(st.integers(1, min(5, p - 1)).filter(lambda k: p * k % 2 == 0))
        args = p, k, seed
        assert _outcome(build_random_regular, *args) == _outcome(looped_random_regular, *args)

    @pytest.mark.parametrize("p, k", [(5, 3), (4, 4), (4, 0), (10, 9), (MAX_GRAPH_P + 2, 3)])
    def test_rejects_as_the_two_test_loop(self, p, k):
        assert _outcome(build_random_regular, p, k, 0) == _outcome(looped_random_regular, p, k, 0)


class TestVertexCap:
    @pytest.mark.parametrize("build", [
        lambda: build_cycle(MAX_GRAPH_P + 1),
        lambda: build_cycle(MAX_GRAPH_P + 1, directed=True),
        lambda: build_barbell(MAX_GRAPH_P // 2, 1),
        lambda: build_random_regular(MAX_GRAPH_P + 2, 3, seed=0),
    ], ids=["cycle", "dicycle", "barbell", "regular"])
    def test_builders_reject_counts_above_cap(self, build):
        with pytest.raises(CdamError, match="limit of 16384"):
            build()


class TestNnScaffold:
    def test_two_patterns_single_edge(self):
        g = build_nn_scaffold(np.array([[0.0, 1.0], [0.0, 1.0]]))
        assert set((s, d) for s, d, _ in g.edges) == {(0, 1)}

    def test_collinear_three_points(self):
        # positions 0, 1, 3 on a line: proposals 0-1, 1-0, 2-1 collapse
        g = build_nn_scaffold(np.array([[0.0, 1.0, 3.0]]))
        assert set((s, d) for s, d, _ in g.edges) == {(0, 1), (1, 2)}

    def test_at_most_one_edge_per_vertex_proposed(self):
        rng = np.random.default_rng(3)
        g = build_nn_scaffold(rng.uniform(0, 1, (40, 12)))
        assert len(g.edges) <= 12
        assert all(g.adjacency().sum(axis=1) >= 1)

    def test_distance_beyond_the_float_range_raises(self):
        # squares of 1e200 overflow; their NaN distances once made a star on vertex 0
        values = np.random.default_rng(3).uniform(0, 1, (40, 6)) * 1e200
        with pytest.raises(CdamError, match="squared distance is not finite"):
            build_nn_scaffold(values)


class TestNormalize:
    def test_directed_cycle_equals_adjacency(self):
        g = build_cycle(50, directed=True)
        assert np.array_equal(normalize(g).matrix, g.adjacency())

    def test_star_entries(self):
        # center 0 with three leaves: entries 1/sqrt(3*1)
        g = MemoryGraph(4, ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)), directed=False)
        m = normalize(g).matrix
        assert np.allclose(m[0, 1:], 1 / np.sqrt(3))
        assert np.allclose(m, m.T)  # undirected loop-free stays symmetric

    def test_isolated_vertex_row_stays_zero(self):
        g = MemoryGraph(3, ((0, 1, 1.0),), directed=False)
        m = normalize(g).matrix
        assert np.all(m[2] == 0) and np.all(m[:, 2] == 0)

    def test_zero_pattern_matches_adjacency(self):
        rng = np.random.default_rng(0)
        for directed in (False, True):
            edges = tuple(
                (int(rng.integers(6)), int(rng.integers(6)), 1.0) for _ in range(8)
            )
            g = MemoryGraph(6, edges, directed=directed)
            a = g.adjacency()
            m = normalize(g).matrix
            assert np.array_equal(m != 0, a != 0)

    def test_k_regular_is_adjacency_over_k(self):
        g = build_random_regular(12, 4, seed=2)
        assert np.allclose(normalize(g).matrix, g.adjacency() / 4)

    def test_spectral_radius_at_most_one(self):
        for p in (4, 9, 16):
            m = normalize(build_cycle(p)).matrix
            x = np.ones(p)
            for _ in range(200):
                x = m @ x
                x /= np.linalg.norm(x)
            assert abs(x @ (m @ x)) <= 1 + 1e-9

    def test_fingerprint_propagated_and_stable(self):
        g = build_cycle(7)
        assert g.fingerprint() == build_cycle(7).fingerprint()
        assert g.fingerprint() != build_cycle(8).fingerprint()


@st.composite
def _graphs(draw):
    p = draw(st.integers(1, 9))
    edges = draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1),
                                    st.sampled_from([1.0, 0.5, 2.5])), max_size=2 * p))
    return MemoryGraph(p, tuple(edges), directed=draw(st.booleans()))


class TestHops:
    def test_cycle_distances(self):
        d = hop_distances(build_cycle(6))[0]
        assert list(d) == [0, 1, 2, 3, 2, 1]

    # p = 1, self-loops, parallel edges, isolated vertices, either direction
    @settings(max_examples=200, deadline=None)
    @given(g=_graphs())
    @example(g=MemoryGraph(1, (), directed=False))
    @example(g=MemoryGraph(1, ((0, 0, 1.0),), directed=True))
    @example(g=MemoryGraph(5, ((1, 3, 1.0), (1, 3, 2.0), (1, 1, 1.0), (0, 1, 1.0)), directed=True))
    @example(g=MemoryGraph(5, ((1, 3, 1.0), (3, 1, 2.0), (2, 2, 1.0)), directed=False))
    def test_matches_floyd_warshall(self, g):
        p = g.p
        hops = hop_distances(g)
        assert hops.shape == (p, p) and hops.dtype == int
        for src in range(p):
            assert list(hops[src]) == naive_hop_distances(g.edges, p, src)


_VERTEX = st.integers(0, 6) | st.integers()
_WEIGHT = st.floats(0.1, 10.0) | st.floats() | st.sampled_from(["-1", "0", "x", "1e999", "nan"])
_SIGNED_VERTEX = st.integers(-3, 6) | st.integers()


class TestSerialization:
    def test_round_trip_with_isolated_vertex(self, tmp_path):
        g = MemoryGraph(7, ((0, 1, 1.0), (2, 3, 2.5)), directed=True)
        path = tmp_path / "g.txt"
        path.write_text(to_text(g))
        back = read_graph(path)
        assert back.p == g.p and back.directed == g.directed
        assert back.edges == g.edges

    @pytest.mark.parametrize("name, body", [("absent.txt", None),
                                            ("latin1.txt", b"undirected\n# caf\xe9\n0 1\n")])
    def test_unreadable_file_is_a_cdam_error(self, tmp_path, name, body):
        # a missing file and one that is not UTF-8 fail alike, not with OSError or
        # UnicodeDecodeError out of the library
        path = tmp_path / name
        if body is not None:
            path.write_bytes(body)
        with pytest.raises(CdamError, match=f"cannot read graph file .*{name}"):
            read_graph(path)

    def test_comments_and_blanks_ignored(self):
        g = from_text("# a comment\n\nundirected\n0 1\n\n# trailing\n1 2 0.5\n")
        assert g.p == 3
        assert g.edges == MemoryGraph(3, ((0, 1, 1.0), (1, 2, 0.5)), directed=False).edges

    def test_missing_header(self):
        with pytest.raises(CdamError, match="line 1: expected 'directed' or 'undirected' header"):
            from_text("0 1\n1 2\n")

    def test_malformed_edge_line(self):
        with pytest.raises(CdamError, match=r"line 2: expected 'src dst \[weight\]'"):
            from_text("directed\n0 1 2 3\n")

    @pytest.mark.parametrize("text", [
        "undirected\n# p=1000000000\n0 1\n",
        f"undirected\n# p={MAX_GRAPH_P + 1}\n",
        f"directed\n0 {MAX_GRAPH_P}\n",  # implied by the largest vertex
    ])
    def test_vertex_count_capped(self, text):
        with pytest.raises(CdamError, match="limit of 16384"):
            from_text(text)

    def test_negative_declared_count_without_edges(self):
        # no vertex was read, so the error is the graph's own, not a vertex mismatch
        with pytest.raises(CdamError, match="graph needs at least one vertex, got p=-1"):
            from_text("undirected\n# p=-1\n")

    def test_isolated_vertices_up_to_cap(self):
        g = from_text(f"undirected\n# p={MAX_GRAPH_P}\n0 1\n")
        assert g.p == MAX_GRAPH_P and g.edges == ((0, 1, 1.0),)

    # Headers and edge lines are drawn more often than junk, so that a
    # fair share of the texts parse and the valid-graph branch is exercised.
    @settings(max_examples=200, deadline=None)
    @given(
        header=st.sampled_from(["directed", "undirected"] * 3 + [""]),
        lines=st.lists(st.one_of(
            st.builds("{} {}".format, _VERTEX, _VERTEX),
            st.builds("{} {} {}".format, _VERTEX, _VERTEX, _WEIGHT),
            st.builds("# p={}".format, st.integers(-1, 12) | st.integers(MAX_GRAPH_P, MAX_GRAPH_P + 1)
                      | st.integers()),
        ), max_size=8),
        junk=st.sampled_from([None] * 4 + ["directed", "#", "# p=", "# p=x", "0 1 2 3"])
        | st.text(max_size=12),
        at=st.integers(0, 8),
    )
    def test_fuzzed_text_parses_or_raises_cdam_error(self, header, lines, junk, at):
        # contract: a CdamError or a valid graph, never another exception
        if junk is not None:
            lines.insert(at, junk)
        try:
            g = from_text("\n".join([header, *lines]))
        except CdamError:
            return
        assert isinstance(g, MemoryGraph) and 1 <= g.p <= MAX_GRAPH_P
        assert all(0 <= a < g.p and 0 <= b < g.p and np.isfinite(w) for a, b, w in g.edges)
        back = from_text(to_text(g))
        assert (back.p, back.directed, back.edges) == (g.p, g.directed, g.edges)

    # comments, pragmas good and bad, blank lines, 2- and 3-field lines with
    # negative or huge vertices, malformed lines, and a header anywhere or none
    @settings(max_examples=300, deadline=None)
    @given(
        header=st.sampled_from(["directed", "undirected", "  undirected ", None]),
        lines=st.lists(st.one_of(
            st.sampled_from(["", "  ", "#", "# a comment", "# p=", "# p=x", "#p=3", "# p = 3",
                             "directed", "0", "0 1 2 3", "a b", "0 x", "1\t2"]),
            st.builds("# p={}".format, st.integers(-2, 12) | st.sampled_from([MAX_GRAPH_P, 10**9])),
            st.builds("{} {}".format, _SIGNED_VERTEX, _SIGNED_VERTEX),
            st.builds("{} {} {}".format, _SIGNED_VERTEX, _SIGNED_VERTEX, _WEIGHT),
            st.text(max_size=8),
        ), max_size=10),
        at=st.integers(0, 10),
    )
    @example(header="directed", lines=["-3 -2"], at=0)
    @example(header="undirected", lines=["# p=-1"], at=0)
    def test_equals_the_looped_parser(self, header, lines, at):
        if header is not None:
            lines.insert(at, header)
        text = "\n".join(lines)
        assert _outcome(from_text, text) == _outcome(looped_from_text, text)

    @settings(max_examples=40, deadline=None)
    @given(
        directed=st.booleans(),
        p=st.integers(min_value=1, max_value=9),
        data=st.data(),
    )
    def test_round_trip_property(self, directed, p, data):
        n_edges = data.draw(st.integers(min_value=0, max_value=12))
        edges = tuple(
            (
                data.draw(st.integers(0, p - 1)),
                data.draw(st.integers(0, p - 1)),
                data.draw(st.floats(0.01, 100.0)),
            )
            for _ in range(n_edges)
        )
        g = MemoryGraph(p, edges, directed=directed)
        back = from_text(to_text(g))
        assert back.p == g.p
        assert back.directed == g.directed
        assert back.edges == g.edges


class TestInvariants:
    def test_edge_endpoint_validation(self):
        with pytest.raises(CdamError, match=r"edge \(0,3\) outside \[0,3\)"):
            MemoryGraph(3, ((0, 3, 1.0),), directed=False)

    def test_nonfinite_weight_rejected(self):
        with pytest.raises(CdamError, match=r"edge \(0,1\) weight nan not finite"):
            MemoryGraph(3, ((0, 1, float("nan")),), directed=False)

    # normalize's D^-1/2 would zero a vertex whose listed edges sum to <= 0
    @pytest.mark.parametrize("w", [-1.0, 0.0, -0.0])
    def test_non_positive_weight_rejected(self, w):
        with pytest.raises(CdamError, match=rf"edge \(0,1\) weight {w} not positive"):
            MemoryGraph(3, ((0, 1, w),), directed=False)

    # a summed weight that overflows would normalize that vertex's row and column to zero
    @pytest.mark.parametrize("edges, directed, name", [
        (((0, 1, 1e308), (0, 2, 1e308), (1, 2, 1.0)), False, "degree of vertex 0"),
        (((0, 1, 1e308), (0, 1, 1e308)), False, "degree of vertex 0"),
        (((0, 1, 1e308), (0, 1, 1e308)), True, "out-degree of vertex 0"),
        (((0, 1, 1e308), (2, 1, 1e308)), True, "in-degree of vertex 1"),
    ])
    def test_overflowing_degree_rejected(self, edges, directed, name):
        with pytest.raises(CdamError, match=f"^weighted {name} is not finite$"):
            MemoryGraph(3, edges, directed=directed)

    # a self-loop counts once in each degree of its vertex, as in the adjacency matrix
    @pytest.mark.parametrize("edges, directed", [
        (((0, 0, 1.5e308), (0, 1, 1e307)), False),
        (((0, 0, 1e308), (0, 1, 5e307), (1, 0, 5e307)), True),
    ])
    def test_largest_finite_degrees_normalize(self, edges, directed):
        assert np.isfinite(normalize(MemoryGraph(2, edges, directed)).matrix).all()

    def test_undirected_canonical_storage(self):
        g = MemoryGraph(3, ((2, 0, 1.0),), directed=False)
        assert g.edges == ((0, 2, 1.0),)
        a = g.adjacency()
        assert a[0, 2] == a[2, 0] == 1.0

    def test_parallel_edges_sum(self):
        g = MemoryGraph(2, ((0, 1, 1.0), (0, 1, 2.0)), directed=True)
        assert g.adjacency()[0, 1] == 3.0

    def test_shared_structures_are_immutable(self):
        # graphs and coupling matrices are shared across concurrent runs
        g = build_cycle(4)
        with pytest.raises(FrozenInstanceError):
            g.p = 5
        m = normalize(g)
        with pytest.raises(ValueError):
            m.matrix[0, 0] = 9.0
