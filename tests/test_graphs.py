import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqw import (
    OrthogonalReflection,
    Tessellation,
    build_graph,
    clique_expansion,
    from_document,
    grover_coined_walk,
    line_tessellations,
    reflection_from_tessellation,
    ring_graph,
    to_document,
    union_covers_edges,
    validate_tessellation,
)
from sqw.errors import (
    DegenerateAngle,
    EmptyPolygon,
    IsolatedVertex,
    NotAClique,
    NotNormalized,
    OddRingSize,
    OutOfRangeVertex,
    OverlappingPolygons,
    SelfLoop,
    UncoveredVertex,
    WalkError,
    ZeroAmplitude,
)

from sqw.graphs import Graph, _line_polygons, canonical_order, check_polygon_arrays, \
    document_texts, parse_polygons, size_blocks

from sqw.tolerances import NORM_TOL

from conftest import SPECIAL_LABELS, SPECIAL_PARTS, complete_graph, grid_graph, hub_fragment, \
    path_graph, random_state_array, reference_parse_polygons, reference_to_document, uniform


def degrees(g):
    return np.bincount(g.edge_array.ravel(), minlength=g.vertex_count).tolist()


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert g.vertex_count == 2
        assert g.edges == ((0, 1),)

    def test_isolated_vertex(self):
        g = build_graph(1, [])
        assert g.vertex_count == 1
        assert g.edges == ()

    def test_hub_fragment_degrees(self):
        g = hub_fragment()
        assert g.vertex_count == 8
        assert len(g.edges) == 7
        assert np.bincount(g.edge_array.ravel())[[0, 1]].tolist() == [5, 3]

    def test_canonical_form(self):
        g = build_graph(3, [(2, 1), (1, 2), (0, 2)])
        assert g.edges == ((0, 2), (1, 2))

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            build_graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRangeVertex):
            build_graph(2, [(0, 2)])


def default_amplitudes(*vertices):
    """The amplitudes a document polygon without an "amplitudes" key gets."""
    doc = {"vertices": 8, "tessellations": [{"polygons": [{"vertices": list(vertices)}]}]}
    return from_document(doc)[1][0].polygons[0][1]


class TestPolygons:
    """The polygon rules on (vertices, amplitudes) pairs and on document polygons."""

    def test_uniform_singleton(self):
        assert default_amplitudes(0) == (1.0 + 0j,)

    def test_uniform_pair(self):
        assert np.allclose(default_amplitudes(0, 1), (1 / math.sqrt(2),) * 2)

    def test_uniform_four(self):
        assert np.allclose(default_amplitudes(0, 1, 2, 3), (0.5,) * 4)

    def test_uniform_empty(self):
        with pytest.raises(EmptyPolygon):
            default_amplitudes()
        with pytest.raises(EmptyPolygon):
            Tessellation([((), ())], path_graph(3))

    def test_sorts_vertices_with_amplitudes(self):
        t = Tessellation([((3, 0), (0.6, 0.8j))], path_graph(4))
        assert t.polygons[0] == ((0, 3), (0.8j, 0.6 + 0j))

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ZeroAmplitude):
            Tessellation([((0, 1), (1.0, 0.0))], path_graph(2))

    def test_not_normalized_rejected(self):
        with pytest.raises(NotNormalized):
            Tessellation([((0, 1), (1.0, 1.0))], path_graph(2))

    def test_non_integer_vertex_rejected(self):
        # float ids were once truncated to integers without a word
        for build in (lambda: Tessellation([((0.6, 1.2), (0.6, 0.8))], path_graph(3)),
                      lambda: Tessellation.from_arrays(path_graph(3), [0.5], [1.0], [0]),
                      lambda: OrthogonalReflection(3, [((0.5,), (1.0,))])):
            with pytest.raises(ValueError, match="'vertices' must be integers"):
                build()

    @pytest.mark.parametrize("sizes", [(3, 3), (3, 1)])  # equal sizes, mixed sizes
    def test_tolerance_edges(self, sizes):
        # the bound a state has (test_simulation.py, TestCheckNorm.test_tolerance_edges):
        # |norm - 1| <= NORM_TOL, here on the first polygon of two
        rng = np.random.default_rng(4)
        first, second = (random_state_array(rng, d) for d in sizes)
        vertices, starts = np.arange(sum(sizes)), [0, sizes[0]]
        for inside in (1 - 0.5 * NORM_TOL, 1 + 0.5 * NORM_TOL):
            check_polygon_arrays(vertices, np.concatenate([first * inside, second]), starts)
        message = r"^polygon amplitudes square-sum to \S+, not 1$"
        for outside in (1 - 2 * NORM_TOL, 1 + 2 * NORM_TOL):
            with pytest.raises(NotNormalized, match=message):
                check_polygon_arrays(vertices, np.concatenate([first * outside, second]), starts)

    def test_nan_amplitude_rejected(self):
        with pytest.raises(NotNormalized):
            Tessellation([((0, 1), (math.nan, 1.0))], path_graph(2))

    def test_orthonormal_polygon_vectors(self):
        # disjoint supports force <a_k|a_k'> = delta
        t0, t1 = line_tessellations(12, 1.0, 2.0, 0.3, -0.7)
        for t in (t0, t1):
            dim = t.parent.vertex_count
            vecs = []
            for vertices, amplitudes in t.polygons:
                v = np.zeros(dim, dtype=complex)
                v[list(vertices)] = amplitudes
                vecs.append(v)
            gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
            assert np.max(np.abs(gram - np.eye(len(vecs)))) < 1e-12


class TestValidateTessellation:
    def path3(self):
        return path_graph(3)

    def test_valid_partition(self):
        g = self.path3()
        t = Tessellation((uniform(0, 1), uniform(2)), g)
        validate_tessellation(g, t)

    def test_not_a_clique(self):
        g = self.path3()
        t = Tessellation((uniform(0, 2), uniform(1)), g)
        with pytest.raises(NotAClique) as err:
            validate_tessellation(g, t)
        assert err.value.missing_edge == (0, 2)

    def test_overlap(self):
        g = self.path3()
        t = Tessellation((uniform(0, 1), uniform(1, 2)), g)
        with pytest.raises(OverlappingPolygons) as err:
            validate_tessellation(g, t)
        assert err.value.vertex == 1

    def test_uncovered(self):
        g = self.path3()
        t = Tessellation((uniform(0, 1),), g)
        with pytest.raises(UncoveredVertex) as err:
            validate_tessellation(g, t)
        assert err.value.vertex == 2

    def test_order_independent(self):
        g = self.path3()
        polys = (uniform(1, 2), uniform(0, 1))
        for perm in (polys, polys[::-1]):
            with pytest.raises(OverlappingPolygons):
                validate_tessellation(g, Tessellation(perm, g))


def _covered_by_enumeration(g, tessellations):
    # independent oracle: test every edge against every polygon's vertex set
    uncovered = set()
    for u, v in g.edges:
        hit = False
        for t in tessellations:
            for vertices, _ in t.polygons:
                if u in vertices and v in vertices:
                    hit = True
        if not hit:
            uncovered.add((u, v))
    return uncovered


class TestUnionCoversEdges:
    def test_segment_pair(self):
        g = path_graph(4)
        alpha = Tessellation((uniform(0, 1), uniform(2, 3)), g)
        beta = Tessellation((uniform(1, 2), uniform(0),
                             uniform(3)), g)
        assert union_covers_edges(g, [alpha, beta]) == set()

    def test_triangle_uncovered(self):
        g = complete_graph(3)
        alpha = Tessellation((uniform(0, 1), uniform(2)), g)
        beta = Tessellation((uniform(0), uniform(1, 2)), g)
        got = union_covers_edges(g, [alpha, beta])
        assert got == {(0, 2)}
        assert got == _covered_by_enumeration(g, [alpha, beta])

    def test_full_cover_plus_singletons(self):
        g = path_graph(5)
        alpha = Tessellation((uniform(0, 1), uniform(2, 3),
                              uniform(4)), g)
        beta = Tessellation(tuple(uniform(v) for v in range(5)), g)
        # alpha alone covers (0,1) and (2,3); (1,2) and (3,4) stay uncovered
        assert union_covers_edges(g, [alpha, beta]) == {(1, 2), (3, 4)}
        gamma = Tessellation((uniform(0), uniform(1, 2),
                              uniform(3, 4)), g)
        assert union_covers_edges(g, [alpha, gamma]) == set()


def relabelled_grid(m, seed):
    """m x m grid with shuffled vertex labels, plus its horizontal and
    vertical domino tessellations (pairs along even columns / even rows,
    singletons elsewhere), which together leave some edges uncovered."""
    label = np.random.default_rng(seed).permutation(m * m)

    def at(r, c):
        return int(label[r * m + c])

    edges = [(at(r, c), at(r, c + 1)) for r in range(m) for c in range(m - 1)]
    edges += [(at(r, c), at(r + 1, c)) for r in range(m - 1) for c in range(m)]
    g = build_graph(m * m, edges)
    tessellations = []
    for horizontal in (True, False):
        polys, used = [], set()
        for r in range(m):
            for c in range(m):
                a, b = ((r, c), (r, c + 1)) if horizontal else ((r, c), (r + 1, c))
                lead = c if horizontal else r
                if lead % 2 == 0 and max(b) < m and a not in used:
                    polys.append(uniform(at(*a), at(*b)))
                    used.update((a, b))
        polys += [uniform(at(r, c)) for r in range(m) for c in range(m)
                  if (r, c) not in used]
        tessellations.append(Tessellation(tuple(polys), g))
    return g, tessellations


class TestCoverageIndex:
    @pytest.mark.parametrize("m,seed", [(3, 0), (5, 1), (8, 2), (9, 3)])
    def test_relabelled_grid_matches_brute_force(self, m, seed):
        g, tessellations = relabelled_grid(m, seed)
        got = union_covers_edges(g, tessellations)
        assert got == _covered_by_enumeration(g, tessellations)
        assert got  # dominoes along even columns and rows miss the odd links

    def test_covers_matches_polygon_scan(self):
        g, tessellations = relabelled_grid(6, 4)
        for t in tessellations:
            assert union_covers_edges(g, [t]) == _covered_by_enumeration(g, [t])


class TestFlatTessellation:
    def test_from_arrays_matches_polygons(self):
        g = path_graph(4)
        amp = 1 / math.sqrt(2)
        t = Tessellation.from_arrays(g, [3, 2, 1, 0], [amp, amp, 0.6, 0.8j], [0, 2])
        assert list(t.polygons) == [((0, 1), (0.8j, 0.6 + 0j)), ((2, 3), (amp + 0j,) * 2)]
        assert t == Tessellation((uniform(2, 3), ((0, 1), (0.8j, 0.6))), g)
        assert len(t) == 2

    def test_polygons_rebuild_the_tessellation(self):
        line = line_tessellations(8, 1.1, 1.9, 0.3, -0.4)
        _, document = from_document({"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]],
                                     "tessellations": [{"polygons": [
                                         {"vertices": [3, 2]}, {"vertices": [0]},
                                         {"vertices": [1], "amplitudes": [[0, -1]]}]}]})
        coined = grover_coined_walk(hub_fragment(), 0.3).tessellations
        for t in (*line, *document, *coined):
            assert Tessellation(t.polygons, t.parent) == t
            assert len(t.polygons) == len(t)

    @pytest.mark.parametrize("vertices,amplitudes,starts,error", [
        ([0, 1], [1.0, 0.0], [0], ZeroAmplitude),
        ([0, 1], [1.0, 1.0], [0], NotNormalized),
        ([0, 1], [1.0, 1.0], [0, 2], EmptyPolygon),
        ([0, 0], [0.6, 0.8], [0], ValueError),
        ([-1], [1.0], [0], OutOfRangeVertex),
        ([0, 1], [math.nan, 1.0], [0], NotNormalized),
        # no part is infinite or NaN, so `embed` can write every amplitude part by %r
        ([0, 1], [complex(math.inf, 0.6), 0.8], [0], NotNormalized),
        ([0, 1], [complex(0.6, -math.inf), 0.8], [0], NotNormalized),
        ([0, 1], [complex(0.6, math.nan), 0.8], [0], NotNormalized),
    ])
    def test_from_arrays_checks_like_polygon(self, vertices, amplitudes, starts, error):
        with pytest.raises(error):
            Tessellation.from_arrays(path_graph(3), vertices, amplitudes, starts)

    # 0 and 8 share a hash slot on small inputs, as do 2 and 2 ** 40 + 2
    @settings(max_examples=300, deadline=None)
    @given(polygons=st.lists(st.lists(st.sampled_from([-3, 0, 2, 5, 8, 2 ** 40 + 2]),
                                      min_size=1, max_size=4), min_size=1, max_size=6))
    def test_repeated_vertex_found_as_a_scan_finds_it(self, polygons):
        repeats = [p for p in polygons if len(set(p)) < len(p)]
        arrays = (np.array([v for p in polygons for v in p]),
                  np.array([1 / math.sqrt(len(p)) for p in polygons for _ in p], dtype=complex),
                  np.cumsum([0, *map(len, polygons)])[:-1])
        if repeats:
            message = f"duplicate vertex in polygon {tuple(sorted(repeats[0]))}"
            with pytest.raises(ValueError, match=re.escape(message)):
                check_polygon_arrays(*arrays)
        elif min(arrays[0]) < 0:
            with pytest.raises(OutOfRangeVertex):
                check_polygon_arrays(*arrays)
        else:
            check_polygon_arrays(*arrays)

    def test_not_a_clique_names_canonical_polygon(self):
        # stored order {3}, {1}, {2, 0}; canonical order puts {0, 2} first
        amp = 1 / math.sqrt(2)
        t = Tessellation.from_arrays(path_graph(4), [3, 1, 2, 0], [1, 1, amp, amp], [0, 1, 2])
        with pytest.raises(NotAClique) as err:
            validate_tessellation(t.parent, t)
        assert err.value.polygon_index == 0 and err.value.missing_edge == (0, 2)

    def test_out_of_range_vertex(self):
        g = path_graph(2)
        t = Tessellation((uniform(0, 1), uniform(2)), g)
        with pytest.raises(OutOfRangeVertex) as err:
            validate_tessellation(g, t)
        assert err.value.vertex == 2


class TestReadOnlyArrays:
    """The arrays of the frozen objects are read-only views, so no write after
    construction bypasses the rules checked at construction."""

    def test_writes_raise(self):
        g = path_graph(4)
        t = Tessellation([((0, 1), (0.6, 0.8)), ((2, 3), (0.6, 0.8))], g)
        with pytest.raises(ValueError):
            t.amplitudes[0] = 5.0
        with pytest.raises(ValueError):
            g.edge_codes[0] = 2
        h, em = reflection_from_tessellation(t), clique_expansion(g)
        for a in (g.edge_array, t.vertices, t.starts, h.vertices, h.amplitudes, h.starts,
                  em.arcs, em.ends, em.offsets, em.expanded.edge_codes):
            assert not a.flags.writeable

    def test_arrays_passed_in_stay_writable(self):
        vertices, starts = np.arange(4), np.array([0, 2])
        amplitudes = np.array([0.6, 0.8, 0.6, 0.8], dtype=np.complex128)
        t = Tessellation.from_arrays(path_graph(4), vertices, amplitudes, starts)
        h = OrthogonalReflection.from_arrays(4, vertices, amplitudes, starts)
        codes = np.array([1, 6, 11])
        g = Graph(4, codes)
        assert all(a.flags.writeable for a in (vertices, amplitudes, starts, codes))
        assert not any(a.flags.writeable for a in (t.vertices, h.amplitudes, g.edge_codes))


class TestGraphArrays:
    def test_edge_array_and_lookups(self):
        g = build_graph(4, [(3, 0), (1, 2), (0, 3), (2, 0)])
        assert g.edge_array.tolist() == [[0, 2], [0, 3], [1, 2]]
        assert g.edges == ((0, 2), (0, 3), (1, 2))
        assert g.has_edges(np.array([3, 1, 0]), np.array([0, 3, 7])).tolist() == \
            [True, False, False]
        assert degrees(g) == [2, 1, 2, 1]
        offsets, arc_ends = g._incidence  # edge labels by vertex
        assert [(arc_ends[offsets[v]:offsets[v + 1]] // 2).tolist() for v in (0, 2)] == \
            [[0, 1], [0, 2]]

    def test_vertex_outside_graph_touches_nothing(self):
        g = build_graph(4, [(3, 0), (1, 2), (0, 3), (2, 0)])
        for v in (-1, 4, 10):
            assert not g.has_edges(np.full(5, v), np.arange(-1, 4)).any()

    def test_value_equality_and_hash(self):
        g, h = build_graph(4, [(0, 1), (2, 3)]), build_graph(4, [(3, 2), (1, 0)])
        assert g == h and hash(g) == hash(h) and g != build_graph(4, [(0, 1)])
        t0, t1 = line_tessellations(6, 1.1, 1.9)
        assert t0 == line_tessellations(6, 1.1, 1.9)[0] and t0 != t1
        assert hash(t0) == hash(Tessellation(t0.polygons, t0.parent))
        assert t0 == Tessellation(t0.polygons, t0.parent)

    def test_ring_graph(self):
        g = ring_graph(5)
        assert g.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
        assert degrees(g) == [2] * 5


def outcome(make):
    """make(), or the (type, message) of the WalkError it raises."""
    try:
        return make()
    except WalkError as err:
        return type(err), str(err)


class TestLineTessellations:
    def test_uniform_case(self):
        t0, t1 = line_tessellations(4, math.pi / 2, math.pi / 2)
        assert [vertices for vertices, _ in t0.polygons] == [(0, 1), (2, 3)]
        assert [vertices for vertices, _ in t1.polygons] == [(0, 3), (1, 2)]
        for t in (t0, t1):
            for _, amplitudes in t.polygons:
                assert np.allclose(np.abs(amplitudes), 1 / math.sqrt(2))

    def test_unequal_angles(self):
        t0, _ = line_tessellations(4, math.pi / 3, math.pi / 2)
        assert np.allclose(t0.polygons[0][1], (math.sqrt(3) / 2, 0.5))

    def test_phase(self):
        t0, _ = line_tessellations(6, math.pi / 2, math.pi / 2, math.pi, 0.0)
        assert np.allclose(t0.polygons[0][1], (1 / math.sqrt(2), -1 / math.sqrt(2)))

    def test_wrap_polygon_amplitudes(self):
        _, t1 = line_tessellations(4, math.pi / 2, math.pi / 3, 0.0, 0.5)
        wrap = dict(t1.polygons)[(0, 3)]
        # vertex 3 is the odd site (cos b/2), vertex 0 the wrapped even site
        assert np.isclose(wrap[1], math.cos(math.pi / 6))
        assert np.isclose(wrap[0],
                          math.sin(math.pi / 6) * complex(math.cos(0.5), math.sin(0.5)))

    @pytest.mark.parametrize("n,alpha,beta,phi0,phi1", [
        (4, math.pi / 2, math.pi / 2, 0.0, 0.0),
        (10, 1.1, 2.3, 0.4, -1.2),
        (64, math.pi / 3, math.pi / 2, math.pi, 0.0),
    ])
    def test_valid_and_covering(self, n, alpha, beta, phi0, phi1):
        g = ring_graph(n)
        t0, t1 = line_tessellations(n, alpha, beta, phi0, phi1)
        validate_tessellation(g, t0)
        validate_tessellation(g, t1)
        assert union_covers_edges(g, [t0, t1]) == set()

    def test_odd_ring_rejected(self):
        with pytest.raises(OddRingSize):
            line_tessellations(5, 1.0, 1.0)
        with pytest.raises(OddRingSize):
            line_tessellations(2, 1.0, 1.0)

    def test_degenerate_angle_rejected(self):
        for bad in (0.0, math.pi):
            with pytest.raises(DegenerateAngle):
                line_tessellations(4, bad, 1.0)
            with pytest.raises(DegenerateAngle):
                line_tessellations(4, 1.0, bad)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 32).map(lambda k: 2 * k),
           alpha=st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
           beta=st.floats(0.0, math.pi, exclude_min=True, exclude_max=True),
           phi0=st.floats(allow_nan=False, allow_infinity=False),
           phi1=st.floats(allow_nan=False, allow_infinity=False))
    def test_arrays_compile_as_the_tessellations(self, n, alpha, beta, phi0, phi1):
        # the CLI compiles the line's pairs with no graph; the library through the ring
        direct = outcome(lambda: [OrthogonalReflection.from_arrays(n, *p)
                                  for p in _line_polygons(n, alpha, beta, phi0, phi1)])
        via = outcome(lambda: [reflection_from_tessellation(t)
                               for t in line_tessellations(n, alpha, beta, phi0, phi1)])
        assert direct == via  # both lists, or both the same error (a 0 amplitude, say)
        if isinstance(direct, list):
            for h, k in zip(direct, via):
                for name in ("vertices", "amplitudes", "starts", "_partners", "_slot"):
                    assert np.array_equal(getattr(h, name), getattr(k, name))

    @pytest.mark.parametrize("n,alpha,beta", [
        (5, 1.0, 1.0), (2, 1.0, 1.0), (4, 0.0, 1.0), (4, 1.0, math.pi), (4, math.nan, 1.0),
        (3, 0.0, 1.0)])
    def test_arrays_raise_as_the_tessellations(self, n, alpha, beta):
        direct = outcome(lambda: _line_polygons(n, alpha, beta, 0.0, 0.0))
        via = outcome(lambda: line_tessellations(n, alpha, beta))
        assert isinstance(direct, tuple) and direct[0] in (OddRingSize, DegenerateAngle)
        assert direct == via


class TestCliqueExpansion:
    def test_single_edge(self):
        em = clique_expansion(build_graph(2, [(0, 1)]))
        assert em.expanded.vertex_count == 2
        assert em.expanded.edges == ((0, 1),)
        assert em.arcs.dtype == np.int64 and em.arcs.tolist() == [[0, 0], [1, 0]]
        assert not em.arcs.flags.writeable

    def test_hub_fragment(self):
        g = hub_fragment()
        em = clique_expansion(g)
        assert em.expanded.vertex_count == 14
        # the degree-5 hub becomes a 5-clique, the degree-3 hub a 3-clique
        hub0 = [em.arc_index(0, j) for j, e in enumerate(g.edges) if 0 in e]
        for i, u in enumerate(hub0):
            for w in hub0[i + 1:]:
                assert (min(u, w), max(u, w)) in em.expanded.edges
        assert len(em.expanded.edges) == 7 + 10 + 3

    def test_triangle_by_hand(self):
        em = clique_expansion(complete_graph(3))
        assert em.expanded.vertex_count == 6
        assert len(em.expanded.edges) == 6  # 3 two-cliques plus 3 crossing edges

    @pytest.mark.parametrize("g", [path_graph(6), complete_graph(5), hub_fragment()])
    def test_counts(self, g):
        em = clique_expansion(g)
        e = len(g.edges)
        assert em.expanded.vertex_count == 2 * e
        expected_edges = e + sum(math.comb(d, 2) for d in degrees(g))
        assert len(em.expanded.edges) == expected_edges
        assert set(map(tuple, em.arcs.tolist())) == {(v, j) for j, (u, w) in enumerate(g.edges)
                                                     for v in (u, w)}

    def test_labels(self):
        em = clique_expansion(build_graph(2, [(0, 1)]))
        assert em.expanded.labels == ("0,0", "1,0")

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertex):
            clique_expansion(build_graph(3, [(0, 1)]))


def brute_force_expansion(g):
    """Arcs, the (vertex, edge) -> arc dict and the edge set of the expansion, by loops."""
    arcs = [(v, j) for v in range(g.vertex_count) for j, e in enumerate(g.edges) if v in e]
    index = {a: i for i, a in enumerate(arcs)}
    edges = {(index[a], index[b]) for a in arcs for b in arcs
             if a[0] == b[0] and index[a] < index[b]}
    edges |= {tuple(sorted((index[(u, j)], index[(w, j)]))) for j, (u, w) in enumerate(g.edges)}
    return arcs, index, edges


class TestExpansionArrays:
    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_equals_brute_force_on_relabelled_grids(self, m):
        g = grid_graph(m, np.random.default_rng(m).permutation(m * m))
        em = clique_expansion(g)
        arcs, index, edges = brute_force_expansion(g)
        assert em.arcs.dtype == np.int64 and em.arcs.tolist() == list(map(list, arcs))
        assert em.arc_count == len(arcs)
        assert em.expanded.edges == tuple(sorted(edges))
        assert em.expanded.labels == tuple(f"{v},{j}" for v, j in arcs)
        assert all(em.arc_index(v, j) == i for (v, j), i in index.items())
        assert em.ends.tolist() == [[index[(u, j)], index[(w, j)]]
                                    for j, (u, w) in enumerate(g.edges)]
        assert em.offsets.tolist() == [0, *np.cumsum(degrees(g)).tolist()]

    def test_arc_index_of_a_non_arc(self):
        em = clique_expansion(path_graph(3))  # edges (0, 1) and (1, 2)
        for vertex, label in ((2, 0), (0, 1), (0, -1), (0, 2)):
            with pytest.raises(KeyError):
                em.arc_index(vertex, label)


@st.composite
def graphs_with_tessellations(draw):
    """A graph on 0-8 vertices with random edges and no labels, or labels drawn from
    SPECIAL_LABELS and any text, and 0-2 tessellations of random disjoint polygons.  Each
    polygon has random amplitude parts scaled to a unit norm, some entries with one part
    from SPECIAL_PARTS (the rules ask no partition of the graph, so none is made)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(0, 8))
    edges = [rng.choice(n, 2, replace=False).tolist() for _ in range(n)] if n > 1 else []
    labels = draw(st.none() | st.lists(st.sampled_from(SPECIAL_LABELS) | st.text(),
                                       min_size=n, max_size=n))
    g = build_graph(n, edges, labels)
    tessellations = []
    for _ in range(draw(st.integers(0, 2))):
        vertices = rng.permutation(n)[:int(rng.integers(n + 1))]
        cuts = np.flatnonzero(rng.random(max(len(vertices) - 1, 0)) < 0.5) + 1
        polygons = np.split(np.arange(len(vertices)), cuts) if len(vertices) else []
        parts = rng.standard_normal((len(vertices), 2))
        special = np.zeros(parts.shape, dtype=bool)
        for row, value in enumerate(draw(st.lists(st.sampled_from([None, *SPECIAL_PARTS]),
                                                  min_size=len(vertices),
                                                  max_size=len(vertices)))):
            if value is not None:  # one part of the entry; the other stays nonzero
                column = int(rng.integers(2))
                parts[row, column], special[row, column] = value, True
        for polygon in polygons:
            rows, mask = parts[polygon], special[polygon]
            rows[~mask] *= math.sqrt(1 - np.sum(rows[mask] ** 2)) / np.linalg.norm(rows[~mask])
            parts[polygon] = rows
        tessellations.append(Tessellation.from_arrays(
            g, vertices, parts.view(np.complex128).ravel(), [p[0] for p in polygons]))
    return g, tessellations


_LABELLED = build_graph(len(SPECIAL_LABELS), [(0, 1), (2, 3)], SPECIAL_LABELS)


class TestDocumentFormat:
    @settings(max_examples=200, deadline=None)
    @given(case=graphs_with_tessellations())
    @example(case=(_LABELLED, [Tessellation.from_arrays(
        _LABELLED, [3, 0, 1, 2],
        [complex(-0.0, 1.0), complex(1.0, 5e-324), 0.1 + 0.2, math.sqrt(1 - (0.1 + 0.2) ** 2)],
        [0, 1, 2])]))
    def test_writer_is_json_dumps_of_the_reference(self, case):
        # the text is the reference's indented dump, signs of zero and subnormals
        # included, and to_document reads it back to the reference
        g, tessellations = case
        reference = reference_to_document(g, tessellations)
        text = "".join(document_texts(g, tessellations))
        assert text == json.dumps(reference, indent=2) + "\n"
        assert json.dumps(to_document(g, tessellations)) == json.dumps(reference)

    def test_extra_keys_follow_as_json_writes_them(self):
        # a dict as an object, a (k, 2) int array as pairs, anything else by json.dumps
        g = ring_graph(4)
        tessellations = line_tessellations(4, math.pi / 3, math.pi / 2, 0.1, 0.0)
        arcs = np.array([[0, 1], [2, 3]])
        extra = {"report": {"deviation": math.nan, "arcs": arcs, "none": np.zeros((0, 2)),
                            "empty": {}},
                 "coin": {"type": "grover", "theta": [0.5, "pi"]}, "note": "%d"}
        expected = reference_to_document(g, tessellations) | extra
        expected["report"] = dict(extra["report"], arcs=arcs.tolist(), none=[])
        assert "".join(document_texts(g, tessellations, **extra)) \
            == json.dumps(expected, indent=2) + "\n"

    def test_round_trip(self):
        g = ring_graph(4)
        t0, t1 = line_tessellations(4, math.pi / 3, math.pi / 2, 0.1, 0.0)
        doc = to_document(g, [t0, t1])
        text = json.dumps(doc)
        g2, (u0, u1) = from_document(json.loads(text))
        assert g2 == g
        assert u0 == t0 and u1 == t1

    def test_empty_polygon_rejected(self):
        doc = {"vertices": 2, "edges": [[0, 1]],
               "tessellations": [{"polygons": [{"vertices": []}, {"vertices": [0, 1]}]}]}
        with pytest.raises(EmptyPolygon):
            from_document(doc)

    def test_default_uniform_amplitudes(self):
        doc = {"vertices": 2, "edges": [[0, 1]],
               "tessellations": [{"polygons": [{"vertices": [0, 1]}]}]}
        _, (t,) = from_document(doc)
        assert np.allclose(t.polygons[0][1], 1 / math.sqrt(2))


def parsed(parse, docs):
    """parse(docs) as (dtype, bytes) per array, or the (type, message) of what it raises."""
    try:
        return [(a.dtype, a.shape, a.tobytes()) for a in parse(docs)]
    except Exception as err:  # the reference's own errors, whatever their type
        return type(err), str(err)


# parts json can hold, and ints and bools, which numpy promotes with floats
amplitude_parts = st.one_of(st.floats(), st.integers(-2 ** 63, 2 ** 63 - 1), st.booleans(),
                            st.sampled_from([-0.0, 5e-324, 0.1 + 0.2, 1e308]))


@st.composite
def polygon_documents(draw):
    """0-6 polygon documents of 0-5 vertex ids; all, none or some carry "amplitudes"."""
    carry = draw(st.sampled_from(["all", "none", "some"]))
    docs = []
    for vertices in draw(st.lists(st.lists(st.integers(0, 2 ** 40), max_size=5), max_size=6)):
        docs.append({"vertices": vertices})
        if carry == "all" or carry == "some" and draw(st.booleans()):
            pair = st.lists(amplitude_parts, min_size=2, max_size=2)
            docs[-1]["amplitudes"] = draw(st.lists(pair, min_size=len(vertices),
                                                   max_size=len(vertices)))
    return docs


MALFORMED_POLYGONS = [
    {}, [0, 1], "p", None, {"vertices": 1}, {"vertices": "01"}, {"vertices": [0.5]},
    {"vertices": [[0, 1]]}, {"vertices": [0, 1], "amplitudes": 0.7},
    {"vertices": [0], "amplitudes": None}, {"vertices": [0, 1], "amplitudes": [[1, 0]]},
    {"vertices": [0], "amplitudes": [0.6]}, {"vertices": [0], "amplitudes": [["0.6", 0]]},
    {"vertices": [0], "amplitudes": [[1, 0, 0]]}, {"vertices": [0], "amplitudes": [[[1], [0]]]},
    {"vertices": [0], "amplitudes": [[2 ** 70, 0]]}, {"vertices": [0], "amplitudes": [[1j, 0]]},
    {"vertices": [0], "amplitudes": [[True, False]]}, {"vertices": [], "amplitudes": [[1, 0]]},
]

PAIRS = "polygon 'amplitudes' must be [re, im] pairs of numbers"


class TestParsePolygons:
    """`parse_polygons` reads the lists whole and matches the one-polygon-at-a-time oracle."""

    @settings(max_examples=300, deadline=None)
    @given(docs=polygon_documents())
    @example(docs=[])
    @example(docs=[{"vertices": [0, 1, 2]}, {"vertices": [3]}, {"vertices": []}])
    @example(docs=[{"vertices": [0]}, {"vertices": [1], "amplitudes": [[True, False]]}])
    def test_arrays_match_the_oracle_bit_for_bit(self, docs):
        assert parsed(parse_polygons, docs) == parsed(reference_parse_polygons, docs)

    @settings(max_examples=300, deadline=None)
    @given(docs=st.lists(st.one_of(polygon_documents().filter(len).map(lambda d: d[0]),
                                   st.sampled_from(MALFORMED_POLYGONS)), max_size=5))
    def test_malformed_lists_fail_as_the_oracle_does(self, docs):
        assert parsed(parse_polygons, docs) == parsed(reference_parse_polygons, docs)

    @pytest.mark.parametrize("docs,message", [
        ({}, "tessellation 'polygons' must be a list, got dict"),
        ([{}], "polygon needs a 'vertices' key"),
        ([[0, 1]], "polygon needs a 'vertices' key"),
        ([{"vertices": 1}], "polygon 'vertices' must be a list, got int"),
        ([{"vertices": [0, 1], "amplitudes": 0.7}],
         "polygon 'amplitudes' must be a list, got float"),
        ([{"vertices": [0], "amplitudes": None}],
         "polygon 'amplitudes' must be a list, got NoneType"),
        ([{"vertices": [0, 1], "amplitudes": [[1, 0]]}], "one amplitude per vertex required"),
        ([{"vertices": [0, 1], "amplitudes": [0.6, 0.8]}], PAIRS),
        ([{"vertices": [0, 1], "amplitudes": [["0.6", 0], [0.8, 0]]}], PAIRS),
        ([{"vertices": [0, 1], "amplitudes": [[1, 0], [0]]}], PAIRS),
        ([{"vertices": [0]}, {"vertices": [1], "amplitudes": [[0.6, 0.8, 0]]}], PAIRS),
        ([{"vertices": [0], "amplitudes": [[True, False]]}], PAIRS),
        ([{"vertices": [0.5]}], "polygon 'vertices' must be integers"),
        # two bad polygons in one list: the first one's error wins
        ([{"vertices": [0], "amplitudes": 3}, {}], "polygon 'amplitudes' must be a list, got int"),
        ([{}, {"vertices": 1}], "polygon needs a 'vertices' key"),
        ([{"vertices": [0, 1], "amplitudes": [[1, 0]]}, {"vertices": 2}],
         "one amplitude per vertex required"),
        ([{"vertices": [0]}, {"vertices": 2}, {"vertices": [1], "amplitudes": 5}],
         "polygon 'vertices' must be a list, got int"),
        # every polygon is read before the amplitude pairs, and those before the ids
        ([{"vertices": [0.5]}, {"vertices": [1], "amplitudes": [["x", 0]]}], PAIRS),
    ])
    def test_error_messages(self, docs, message):
        for parse in (parse_polygons, reference_parse_polygons):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                parse(docs)

    def test_uniform_amplitudes_are_one_over_sqrt_size(self):
        sizes = range(1, 70)
        _, amplitudes, starts = parse_polygons([{"vertices": list(range(d))} for d in sizes])
        assert amplitudes[starts].real.tolist() == [1.0 / math.sqrt(d) for d in sizes]
        assert amplitudes.imag.tobytes() == bytes(8 * len(amplitudes))  # +0.0 throughout


def flat(polygons):
    """Flat (vertices, starts) arrays of vertex lists."""
    sizes = [len(p) for p in polygons]
    return (np.array([v for p in polygons for v in p], dtype=np.int64),
            np.cumsum([0, *sizes], dtype=np.int64)[:-1])


# small vertex range: overlaps, shared first vertices, prefixes and repeats are common
polygon_lists = st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True),
                         max_size=8)


class TestCanonicalOrder:
    @settings(max_examples=400, deadline=None)
    @given(polygons=polygon_lists)
    @example(polygons=[[2, 0], [0], [0, 2], [1, 3], [0, 1, 2], [3, 1], [0]])
    def test_equals_sorted_vertex_tuples(self, polygons):
        vertices, starts = flat(polygons)
        amplitudes = np.arange(len(vertices)) + 0.5j  # tags: each entry is traceable
        got_v, got_a, got_s, order = canonical_order(vertices, amplitudes, starts)
        expected = sorted(range(len(polygons)), key=lambda k: tuple(sorted(polygons[k])))
        assert order.tolist() == expected  # Python's sort is stable: ties keep stored order
        want_v, want_a = [], []
        for k in expected:
            pairs = sorted(zip(polygons[k], amplitudes[starts[k]:].tolist()))
            want_v += [v for v, _ in pairs]
            want_a += [a for _, a in pairs]
        assert got_v.tolist() == want_v and got_a.tolist() == want_a
        assert got_s.tolist() == flat([polygons[k] for k in expected])[1].tolist()


@st.composite
def relisted_pairs(draw):
    """Random disjoint polygons with unit amplitudes, listed twice: the second time in
    another polygon order, with each polygon's vertices shuffled and every zero
    real or imaginary part given the other sign."""
    n = draw(st.integers(1, 9))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    polygons = []
    for part in np.split(np.array(order), cuts):
        amps = np.array([draw(st.floats(0.1, 1.0)) for _ in part])
        amps = amps / np.linalg.norm(amps)
        imaginary = np.array([draw(st.booleans()) for _ in part])
        polygons.append((part.tolist(), [complex(0.0, a) if im else complex(a, 0.0)
                                         for a, im in zip(amps.tolist(), imaginary)]))
    flipped = []
    for vertices, amps in draw(st.permutations(polygons)):
        perm = draw(st.permutations(range(len(vertices))))
        flipped.append(([vertices[i] for i in perm],
                        [complex(-amps[i].real if amps[i].real == 0 else amps[i].real,
                                 -amps[i].imag if amps[i].imag == 0 else amps[i].imag)
                         for i in perm]))
    return n, polygons, flipped


class TestValueEquality:
    @settings(max_examples=200, deadline=None)
    @given(case=relisted_pairs())
    def test_relisted_polygons_equal_and_hash_equal(self, case):
        n, polygons, relisted = case
        g = build_graph(n, [])
        t, u = Tessellation(polygons, g), Tessellation(relisted, g)
        assert t == u and hash(t) == hash(u)
        h, k = OrthogonalReflection(n, polygons), OrthogonalReflection(n, relisted)
        assert h == k and hash(h) == hash(k)
        vertices, amps = polygons[0]
        changed = [(vertices, [-a for a in amps]), *polygons[1:]]
        assert OrthogonalReflection(n, changed) != h
        assert Tessellation(changed, g) != t

    def test_hash_reads_the_edge_array(self):
        t0, _ = line_tessellations(8, 1.0, 2.0)
        hash(t0)
        assert "edges" not in vars(t0.parent)  # no tuple per edge was built


def reference_graph(n, edges):
    """The Graph of an edge list from np.unique of its (min, max) keys."""
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    keys = np.unique(pairs.min(axis=1) * n + pairs.max(axis=1))
    return Graph(n, keys), keys


@st.composite
def listed_edges(draw):
    """Distinct edges on 1-12 vertices, listed canonically, permuted, reversed or with
    repeats, each edge either way round unless canonical."""
    n = draw(st.integers(1, 12))
    edges = sorted(draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                                .filter(lambda e: e[0] < e[1]), max_size=30)))
    listing = draw(st.sampled_from(["canonical", "permuted", "reversed", "repeated"]))
    if listing == "permuted":
        edges = draw(st.permutations(edges))
    elif listing == "reversed":
        edges = edges[::-1]
    elif listing == "repeated" and edges:
        edges = draw(st.permutations(edges + draw(st.lists(st.sampled_from(edges), min_size=1))))
    if listing != "canonical":
        edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    return n, edges


class TestGraphConstruction:
    """`build_graph` keeps canonical rows as they are and sorts the rest; both give
    the graph of the sorted unique keys."""

    @settings(max_examples=300, deadline=None)
    @given(case=listed_edges())
    def test_equals_sorted_unique_keys(self, case):
        n, edges = case
        want, keys = reference_graph(n, edges)
        rows = np.stack(np.divmod(keys, max(n, 1)), axis=1)
        for given_as in (edges, np.array(edges, dtype=np.int64).reshape(-1, 2)):
            g = build_graph(n, given_as)
            assert g == want and g.edge_array.dtype == np.int64
            assert g.edge_codes.tolist() == keys.tolist()
            assert g.edge_array.tolist() == rows.tolist()
            assert g.edges == tuple(map(tuple, rows.tolist()))

    def test_a_graph_keeps_one_edge_array(self):
        # the ring's graph is built and checked through its codes: no (E, 2) rows
        t0, t1 = line_tessellations(64, 1.0, 2.0)
        reflection_from_tessellation(t0), reflection_from_tessellation(t1)
        assert "edge_codes" in vars(t0.parent) and "edge_array" not in vars(t0.parent)

    @settings(max_examples=200, deadline=None)
    @given(case=listed_edges(), queries=st.lists(
        st.tuples(st.integers(-2, 13), st.integers(-2, 13)), min_size=1, max_size=20))
    def test_has_edges_matches_the_edge_set(self, case, queries):
        # pairs in the graph, pairs not in it and pairs outside it; given as scalars,
        # one row and one column
        n, edges = case
        g = build_graph(n, edges)
        known = {(min(a, b), max(a, b)) for a, b in edges}
        want = [(min(u, v), max(u, v)) in known for u, v in queries]
        u, v = np.array(queries).T
        assert g.has_edges(u, v).tolist() == want
        assert g.has_edges(u[:, None], v[:, None]).ravel().tolist() == want
        assert [bool(g.has_edges(a, b)) for a, b in queries] == want

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 101, 4096])
    def test_ring_graph_is_the_graph_of_its_cycle(self, n):
        cycle = [(i, (i + 1) % n) for i in range(n)]
        assert ring_graph(n) == build_graph(n, cycle) == reference_graph(n, cycle)[0]
        assert ring_graph(n).edge_codes.tolist() == reference_graph(n, cycle)[1].tolist()

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(0, 6), edges=st.lists(st.tuples(st.integers(-2, 8), st.integers(-2, 8)),
                                               min_size=1, max_size=12))
    def test_first_bad_row_is_named(self, n, edges):
        bad = [(a, b) for a, b in edges if a == b or min(a, b) < 0 or max(a, b) >= n]
        if not bad:
            assert build_graph(n, edges) == reference_graph(n, edges)[0]
            return
        a, b = bad[0]
        with pytest.raises(SelfLoop if a == b else OutOfRangeVertex) as err:
            build_graph(n, edges)
        assert err.value.vertex == (a if a == b or not 0 <= a < n else b)


@st.composite
def size_layouts(draw):
    """Polygon sizes 1-8 stored in runs of equal size, scattered, or runs then scattered."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=40))
    layout = draw(st.sampled_from(["runs", "scattered", "mixed"]))
    if layout == "runs":
        runs = draw(st.permutations(sorted(set(sizes))))
        sizes = [d for d in runs for _ in range(sizes.count(d))]
    elif layout == "mixed":
        cut = draw(st.integers(0, len(sizes)))
        sizes = sorted(sizes[:cut]) + draw(st.permutations(sizes[cut:]))
    return sizes


class TestSizeBlocks:
    @settings(max_examples=300, deadline=None)
    @given(sizes=size_layouts(), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_a_per_polygon_grouping(self, sizes, seed):
        rng = np.random.default_rng(seed)
        starts = np.cumsum([0, *sizes])[:-1]
        vertices = rng.permutation(sum(sizes) + 5)[:sum(sizes)]
        blocks = size_blocks(starts, vertices)
        assert [pv.shape[1] for _, _, pv in blocks] == sorted(set(sizes))
        for ids, rows, pv in blocks:
            d = pv.shape[1]
            want_ids = [k for k, size in enumerate(sizes) if size == d]
            want_rows = [[starts[k] + c for c in range(d)] for k in want_ids]
            assert ids.tolist() == want_ids and rows.tolist() == want_rows
            assert pv.tolist() == vertices[want_rows].tolist()
