import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqw import (
    WalkState,
    apply_exp,
    basis_state,
    build_graph,
    certify_equivalence,
    clique_expansion,
    coin_tessellation,
    coined_walk_from_descriptor,
    dense_matrix,
    embed_coined_as_sqw,
    grover_coined_walk,
    grover_phase_apply,
    reflection_coined_walk,
    shift_tessellation,
    union_covers_edges,
    validate_tessellation,
)
from sqw.coined import coined_step, phase_invariant_distance
from sqw.errors import DimensionMismatch, IsolatedVertex, OutOfRangeVertex, UnsupportedCoin
from sqw.operators import LocalUnitary, OrthogonalReflection

from conftest import complete_graph, cycle_graph, dense_coin_matrix, dense_reflection, \
    dense_shift_matrix, grid_graph, hub_fragment, path_graph, random_state_array, uniform

PI = math.pi


def arcs_of(em, v):
    """The arcs of vertex v, read from the original edge list."""
    return [em.arc_index(v, j) for j, e in enumerate(em.original.edges) if v in e]


class TestFlipflopShift:
    def test_single_edge_is_pauli_x(self):
        s = grover_coined_walk(build_graph(2, [(0, 1)])).shift
        assert np.allclose(dense_reflection(s), [[0, 1], [1, 0]])

    @pytest.mark.parametrize("g", [path_graph(5), cycle_graph(6), complete_graph(4),
                                   hub_fragment()])
    def test_arc_permutation(self, g):
        cw = grover_coined_walk(g)
        em, s = cw.expansion, cw.shift
        for j, (u, w) in enumerate(g.edges):
            src, dst = em.arc_index(u, j), em.arc_index(w, j)
            out = s.apply(np.eye(em.arc_count, dtype=complex)[src])
            expected = np.eye(em.arc_count)[dst]
            assert np.max(np.abs(out - expected)) < 1e-12

    def test_involution(self):
        g = hub_fragment()
        s = grover_coined_walk(g).shift
        mat = dense_reflection(s)
        assert np.max(np.abs(mat @ mat - np.eye(s.dimension))) < 1e-12

    def test_isolated_vertex(self):
        with pytest.raises(IsolatedVertex):
            grover_coined_walk(build_graph(3, [(0, 1)]))


class TestGroverCoinReflection:
    def test_degree_two_block_is_x(self):
        g = cycle_graph(4)
        cw = grover_coined_walk(g)
        mat = dense_reflection(cw.coin_reflection)
        arcs = arcs_of(cw.expansion, 0)
        block = mat[np.ix_(arcs, arcs)]
        assert np.allclose(block, [[0, 1], [1, 0]])

    def test_degree_four_block(self):
        g = complete_graph(5)
        cw = grover_coined_walk(g)
        mat = dense_reflection(cw.coin_reflection)
        arcs = arcs_of(cw.expansion, 0)
        block = mat[np.ix_(arcs, arcs)]
        expected = np.full((4, 4), 0.5) - np.eye(4)
        assert np.max(np.abs(block - expected)) < 1e-12

    def test_degree_one_blocks_fix_arcs(self):
        g = build_graph(2, [(0, 1)])
        mat = dense_reflection(grover_coined_walk(g).coin_reflection)
        assert np.allclose(mat, np.eye(2))


class TestExpansionTessellations:
    @pytest.mark.parametrize("g", [path_graph(8), cycle_graph(8), complete_graph(4),
                                   complete_graph(8), hub_fragment()])
    def test_red_blue_cover_the_expansion(self, g):
        em = clique_expansion(g)
        red = shift_tessellation(em)
        blue = coin_tessellation(em)
        validate_tessellation(em.expanded, red)
        validate_tessellation(em.expanded, blue)
        assert union_covers_edges(em.expanded, [red, blue]) == set()


class TestEmbed:
    def test_k4_grover_step_matches_dense_oracle(self):
        g = complete_graph(4)
        cw = grover_coined_walk(g, PI / 2)
        em = cw.expansion
        dim = em.arc_count
        # oracle: permutation shift and explicit Grover blocks, assembled densely
        s = np.zeros((dim, dim), dtype=complex)
        for j, (u, w) in enumerate(g.edges):
            s[em.arc_index(u, j), em.arc_index(w, j)] = 1
            s[em.arc_index(w, j), em.arc_index(u, j)] = 1
        coin = np.zeros((dim, dim), dtype=complex)
        for v in range(4):
            arcs = arcs_of(em, v)
            d = len(arcs)
            coin[np.ix_(arcs, arcs)] = 2.0 / d * np.ones((d, d)) - np.eye(d)
        step = dense_matrix(embed_coined_as_sqw(cw))
        # exp(i pi/2 S) exp(i pi/2 H0) = (iS)(i coin): global phase -1 on S @ coin
        assert np.max(np.abs(step - (1j * s) @ (1j * coin))) < 1e-12

    def test_single_edge_unitary(self):
        cw = grover_coined_walk(build_graph(2, [(0, 1)]), PI / 2)
        m = dense_matrix(embed_coined_as_sqw(cw))
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12

    def test_cycle_x_coin_in_model(self):
        # degree-2 Grover blocks are Pauli X, so this is the exp(i theta X) coin
        cw = grover_coined_walk(cycle_graph(6), PI / 5)
        m = dense_matrix(embed_coined_as_sqw(cw))
        assert np.max(np.abs(m.conj().T @ m - np.eye(12))) < 1e-12


class TestGeneralizedGroverOperator:
    def test_single_polygon_selective_phase(self):
        # one uniform polygon over every vertex: I - (1 - e^{i phi})|psi><psi|
        # with phi = 2 theta, equal to e^{i theta} exp(i theta H)
        rng = np.random.default_rng(14)
        dim = 7
        h = OrthogonalReflection(dim, [uniform(*range(dim))])
        psi_uniform = np.full(dim, dim ** -0.5, dtype=complex)
        for theta in (0.3, PI / 2, -1.2):
            state = WalkState(random_state_array(rng, dim))
            got = grover_phase_apply(theta, h, state).amplitudes
            op = np.eye(dim) - (1 - cmath.exp(2j * theta)) * np.outer(psi_uniform,
                                                                      psi_uniform.conj())
            assert np.max(np.abs(got - op @ state.amplitudes)) < 1e-12
            scaled = cmath.exp(1j * theta) * apply_exp(LocalUnitary(theta, h), state).amplitudes
            assert np.max(np.abs(got - scaled)) < 1e-12


class TestCertifyEquivalence:
    def rng_state(self, rng, dim):
        return WalkState(random_state_array(rng, dim))

    def test_zero_steps(self):
        cw = grover_coined_walk(complete_graph(4))
        rng = np.random.default_rng(15)
        rep = certify_equivalence(cw, 0, self.rng_state(rng, cw.expansion.arc_count))
        assert rep.max_state_deviation == 0.0
        assert rep.steps_checked == 0

    def test_k8_grover(self):
        cw = grover_coined_walk(complete_graph(8))
        rng = np.random.default_rng(16)
        rep = certify_equivalence(cw, 32, self.rng_state(rng, cw.expansion.arc_count))
        assert rep.max_state_deviation <= 1e-10

    def test_cycle_x_coin(self):
        cw = grover_coined_walk(cycle_graph(6), PI / 5)
        rng = np.random.default_rng(17)
        rep = certify_equivalence(cw, 50, self.rng_state(rng, cw.expansion.arc_count))
        assert rep.max_state_deviation <= 1e-10

    def test_dimension_mismatch(self):
        cw = grover_coined_walk(complete_graph(4))
        with pytest.raises(DimensionMismatch):
            certify_equivalence(cw, 1, basis_state(3, 0))

    def test_phase_invariant_distance(self):
        rng = np.random.default_rng(18)
        v = random_state_array(rng, 9)
        assert phase_invariant_distance(v, np.exp(0.7j) * v) < 1e-15
        w = random_state_array(rng, 9)
        direct = min(np.linalg.norm(v - np.exp(1j * phi) * w)
                     for phi in np.linspace(0, 2 * PI, 20001))
        assert phase_invariant_distance(v, w) == pytest.approx(direct, abs=1e-6)


class TestCoinDescriptors:
    def test_grover_descriptor(self):
        cw = coined_walk_from_descriptor(complete_graph(4), {"type": "grover"})
        assert cw.coin_angle == PI / 2

    def test_grover_descriptor_with_angle(self):
        cw = coined_walk_from_descriptor(cycle_graph(4), {"type": "grover", "theta": PI / 5})
        assert cw.coin_angle == PI / 5

    def test_reflection_descriptor(self):
        g = build_graph(2, [(0, 1)])
        desc = {"type": "reflection", "theta": 0.4,
                "polygons": [{"vertices": [0]}, {"vertices": [1]}]}
        cw = coined_walk_from_descriptor(g, desc)
        rng = np.random.default_rng(19)
        rep = certify_equivalence(cw, 8, WalkState(random_state_array(rng, 2)))
        assert rep.max_state_deviation <= 1e-10

    def test_fourier_coin_rejected(self):
        with pytest.raises(UnsupportedCoin):
            coined_walk_from_descriptor(complete_graph(4), {"type": "fourier"})

    def test_polygon_crossing_vertices_rejected(self):
        g = build_graph(2, [(0, 1)])
        # arc 0 belongs to vertex 0 and arc 1 to vertex 1: not a coin
        with pytest.raises(UnsupportedCoin):
            reflection_coined_walk(g, 0.3, [uniform(0, 1)])

    def test_reflection_descriptor_missing_fields(self):
        with pytest.raises(UnsupportedCoin):
            coined_walk_from_descriptor(complete_graph(4), {"type": "reflection"})

    def test_out_of_range_arc_is_typed(self):
        g = complete_graph(4)  # 12 arcs
        desc = {"type": "reflection", "theta": 0.4, "polygons": [{"vertices": [99]}]}
        with pytest.raises(OutOfRangeVertex):
            coined_walk_from_descriptor(g, desc)
        with pytest.raises(OutOfRangeVertex):
            reflection_coined_walk(g, 0.4, [((99,), (1.0,))])

    def test_out_of_range_arc_beside_a_real_arc_is_not_a_coin(self):
        # arc 12 is past the arc space, so it belongs to no vertex of arc 11
        g = complete_graph(4)  # 12 arcs
        desc = {"type": "reflection", "theta": 0.4, "polygons": [{"vertices": [11, 12]}]}
        with pytest.raises(UnsupportedCoin):
            coined_walk_from_descriptor(g, desc)
        with pytest.raises(UnsupportedCoin):
            reflection_coined_walk(g, 0.4, [uniform(11, 12)])


@st.composite
def coined_walks(draw):
    """A random graph on 2-7 vertices with no isolated vertex and a random coin.

    The coin is the Grover coin, or a reflection coin whose polygons split
    each vertex's arcs at random and carry random complex amplitudes; the
    angle is random in [-pi, pi].
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(2, 7))
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}  # every vertex touches one
    for _ in range(draw(st.integers(0, n * (n - 1) // 2))):
        u, w = sorted(rng.choice(n, 2, replace=False).tolist())
        edges.add((u, w))
    g = build_graph(n, edges)
    theta = draw(st.floats(-PI, PI))
    if draw(st.booleans()):
        return grover_coined_walk(g, theta)
    offsets = clique_expansion(g).offsets
    polygons = []
    for v in range(n):
        arcs = rng.permutation(np.arange(offsets[v], offsets[v + 1]))
        cuts = rng.choice(np.arange(1, len(arcs)), int(rng.integers(len(arcs))), replace=False)
        for part in np.split(arcs, np.sort(cuts)):
            amps = rng.standard_normal(len(part)) + 1j * rng.standard_normal(len(part))
            amps[np.abs(amps) < 1e-3] = 1.0
            amps /= np.linalg.norm(amps)
            polygons.append((tuple(part.tolist()), tuple(amps.tolist())))
    return reflection_coined_walk(g, theta, polygons)


class TestLinearOracle:
    """The O(arcs) coined step against the dense 1j S C oracle."""

    @settings(max_examples=150, deadline=None)
    @given(cw=coined_walks(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_oracle(self, cw, seed):
        psi = random_state_array(np.random.default_rng(seed), cw.expansion.arc_count)
        dense = 1j * (dense_shift_matrix(cw) @ dense_coin_matrix(cw))
        assert np.max(np.abs(coined_step(cw)(psi) - dense @ psi)) <= 1e-12
        assert certify_equivalence(cw, 8, WalkState(psi)).max_state_deviation <= 1e-12

    def test_certify_memory_is_linear(self):
        # 1520 arcs: one dense arcs x arcs matrix would take 35 MiB
        cw = grover_coined_walk(grid_graph(20))
        psi = WalkState(random_state_array(np.random.default_rng(21), cw.expansion.arc_count))
        tracemalloc.start()
        try:
            report = certify_equivalence(cw, 16, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.max_state_deviation <= 1e-12
        assert peak < 16 * 2 ** 20
