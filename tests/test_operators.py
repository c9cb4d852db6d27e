import cmath
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sqw import (
    OrthogonalReflection,
    Tessellation,
    apply_exp,
    basis_state,
    compose,
    dense_matrix,
    evolve_final,
    grover_phase_apply,
    line_tessellations,
    reflection_from_tessellation,
    superposition_state,
)
from sqw import operators
from sqw.errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    EmptyFactorList,
    NotNormalized,
    OutOfRangeVertex,
    OverlappingPolygons,
)
from sqw.graphs import check_polygon_arrays
from sqw.operators import LEAD_STEPS, SMALLEST_NORMAL, STENCIL_CAP, ActiveSupport, \
    LocalUnitary, _runs
from sqw.state import WalkState
from sqw.tolerances import drift_bound

from conftest import dense_reflection, random_reflection, random_state_array, \
    segment_sum_evolve
from conftest import path_graph, uniform


def ring4_reflections():
    t0, t1 = line_tessellations(4, math.pi / 2, math.pi / 2)
    return reflection_from_tessellation(t0), reflection_from_tessellation(t1)


class TestReflectionConstruction:
    def test_all_singletons_is_identity(self):
        g = path_graph(3)
        t = Tessellation(tuple(uniform(v) for v in range(3)), g)
        h = reflection_from_tessellation(t)
        assert np.allclose(dense_reflection(h), np.eye(3))

    def test_ring4_pauli_x_blocks(self):
        h0, _ = ring4_reflections()
        x = np.array([[0, 1], [1, 0]])
        expected = np.kron(np.eye(2), x)
        assert np.max(np.abs(dense_reflection(h0) - expected)) < 1e-15

    def test_unsupported_vertex_gets_minus_one(self):
        h = OrthogonalReflection(3, (uniform(0, 1),))
        assert np.allclose(h.apply(basis_state(3, 2).amplitudes), [0, 0, -1])

    def test_overlapping_supports_rejected(self):
        amp = (1 / math.sqrt(2),) * 2
        with pytest.raises(OverlappingPolygons):
            OrthogonalReflection(3, (((0, 1), amp), ((1, 2), amp)))

    @pytest.mark.parametrize("pairs,vertex", [
        ([((10 ** 12,), (1.0,))], 10 ** 12),  # once a counting array sized by the vertex
        ([((5,), (1.0,)), ((4,), (1.0,))], 4),
    ])
    def test_out_of_range_names_smallest_vertex(self, pairs, vertex):
        with pytest.raises(OutOfRangeVertex) as err:
            OrthogonalReflection(3, pairs)
        assert str(err.value) == f"vertex {vertex} out of range for 3 vertices"

    def test_value_equality(self):
        vectors = (((0, 2), (0.6, 0.8j)), ((1,), (1.0,)))
        h, again = OrthogonalReflection(3, vectors), OrthogonalReflection(3, vectors)
        assert h == again and hash(h) == hash(again)
        assert h != OrthogonalReflection(3, (((0, 2), (0.8, 0.6j)), ((1,), (1.0,))))
        assert h != OrthogonalReflection(4, vectors)
        assert h == OrthogonalReflection(3, (((1,), (1.0,)), ((2, 0), (0.8j, 0.6))))
        t0, t1 = line_tessellations(6, 1.1, 1.9, 0.3, -0.4)
        for t in (t0, t1):  # t1 stores its wrap polygon last, as (5, 0)
            canonical = OrthogonalReflection(6, t.polygons)
            assert reflection_from_tessellation(t) == canonical
        assert compose([(0.3, h)]) == compose([(0.3, OrthogonalReflection(3, vectors))])

    def test_non_unit_vector_rejected(self):
        with pytest.raises(NotNormalized):
            OrthogonalReflection(2, (((0, 1), (1.0, 1.0)),))

    @pytest.mark.parametrize("vertices,amplitudes,starts,error", [
        ([0, 1, 1, 2], [0.6, 0.8, 0.6, 0.8], [0, 2], OverlappingPolygons),
        ([0, 4], [0.6, 0.8], [0], OutOfRangeVertex),
        ([0, 1], [3.0, 1.0], [0], NotNormalized),  # H|0> would read [17, 6, 0, 0]
    ])
    def test_from_arrays_checks_its_input(self, vertices, amplitudes, starts, error):
        with pytest.raises(error):
            OrthogonalReflection.from_arrays(4, vertices, amplitudes, starts)


class TestApplyReflection:
    def test_singletons_fix_everything(self):
        g = path_graph(3)
        t = Tessellation(tuple(uniform(v) for v in range(3)), g)
        h = reflection_from_tessellation(t)
        rng = np.random.default_rng(1)
        psi = random_state_array(rng, 3)
        assert np.allclose(h.apply(psi), psi)

    def test_x_block_swaps(self):
        h0, _ = ring4_reflections()
        out = h0.apply(basis_state(4, 0).amplitudes)
        assert np.max(np.abs(out - [0, 1, 0, 0])) < 1e-12

    def test_polygon_vector_is_plus_one_eigenvector(self):
        t0, _ = line_tessellations(6, 1.2, 2.1, 0.4, 0.0)
        h = reflection_from_tessellation(t0)
        vertices, amplitudes = t0.polygons[0]
        vec = np.zeros(6, dtype=complex)
        vec[list(vertices)] = amplitudes
        assert np.max(np.abs(h.apply(vec) - vec)) < 1e-12

    def test_involution_and_hermiticity_random(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            dim = int(rng.integers(2, 24))
            h = random_reflection(rng, dim, cover_all=bool(rng.integers(2)))
            mat = dense_reflection(h)
            assert np.max(np.abs(mat @ mat - np.eye(dim))) < 1e-12
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
            for j in range(dim):
                e = basis_state(dim, j).amplitudes
                assert np.max(np.abs(h.apply(h.apply(e)) - e)) < 1e-12


class TestApplyExp:
    def test_zero_angle(self):
        h0, _ = ring4_reflections()
        psi = basis_state(4, 1)
        out = apply_exp(LocalUnitary(0.0, h0), psi)
        assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_half_pi_gives_i_h(self):
        h0, _ = ring4_reflections()
        rng = np.random.default_rng(3)
        psi = WalkState(random_state_array(rng, 4))
        out = apply_exp(LocalUnitary(math.pi / 2, h0), psi)
        expected = 1j * h0.apply(psi.amplitudes)
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12

    def test_quarter_pi_on_basis(self):
        h0, _ = ring4_reflections()
        out = apply_exp(LocalUnitary(math.pi / 4, h0), basis_state(4, 0))
        expected = np.array([1, 1j, 0, 0]) / math.sqrt(2)
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12

    def test_inverse(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            dim = int(rng.integers(2, 20))
            h = random_reflection(rng, dim)
            theta = float(rng.uniform(-math.pi, math.pi))
            psi = WalkState(random_state_array(rng, dim))
            back = apply_exp(LocalUnitary(-theta, h), apply_exp(LocalUnitary(theta, h), psi))
            assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-12

    def test_dimension_mismatch(self):
        h0, _ = ring4_reflections()
        with pytest.raises(DimensionMismatch):
            apply_exp(LocalUnitary(0.3, h0), basis_state(6, 0))


class TestGroverPhase:
    def test_zero_angle_identity(self):
        h0, _ = ring4_reflections()
        psi = basis_state(4, 2)
        out = grover_phase_apply(0.0, h0, psi)
        assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_half_pi_is_minus_h(self):
        h0, _ = ring4_reflections()
        rng = np.random.default_rng(5)
        psi = WalkState(random_state_array(rng, 4))
        out = grover_phase_apply(math.pi / 2, h0, psi)
        expected = -h0.apply(psi.amplitudes)
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12

    def test_matches_scaled_exponential(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            dim = int(rng.integers(2, 20))
            h = random_reflection(rng, dim, cover_all=bool(rng.integers(2)))
            theta = float(rng.uniform(-math.pi, math.pi))
            psi = WalkState(random_state_array(rng, dim))
            got = grover_phase_apply(theta, h, psi).amplitudes
            expected = cmath.exp(1j * theta) * apply_exp(LocalUnitary(theta, h), psi).amplitudes
            assert np.max(np.abs(got - expected)) < 1e-12


class TestCompose:
    def test_standard_sqw_recovery(self):
        h0, h1 = ring4_reflections()
        u = compose([(-math.pi / 2, h0), (math.pi / 2, h1)])
        product = dense_reflection(h1) @ dense_reflection(h0)
        assert np.max(np.abs(dense_matrix(u) - product)) < 1e-12

    def test_single_factor(self):
        h0, _ = ring4_reflections()
        u = compose([(0.3, h0)])
        psi = basis_state(4, 0)
        assert np.allclose(evolve_final(u, psi, 1).amplitudes,
                           apply_exp(LocalUnitary(0.3, h0), psi).amplitudes)

    def test_three_factors(self):
        h0, h1 = ring4_reflections()
        u = compose([(0.2, h0), (0.4, h1), (0.6, h0)])
        m = dense_matrix(u)
        assert np.max(np.abs(m.conj().T @ m - np.eye(4))) < 1e-10

    def test_empty_rejected(self):
        with pytest.raises(EmptyFactorList):
            compose([])

    def test_dimension_mismatch(self):
        h0, _ = ring4_reflections()
        t0, _ = line_tessellations(6, 1.0, 1.0)
        other = reflection_from_tessellation(t0)
        with pytest.raises(DimensionMismatch):
            compose([(0.1, h0), (0.1, other)])


class TestDenseMatrix:
    def test_identity_factors(self):
        h0, _ = ring4_reflections()
        u = compose([(0.0, h0)])
        assert np.allclose(dense_matrix(u), np.eye(4))

    def test_ring4_standard_product(self):
        h0, h1 = ring4_reflections()
        u = compose([(-math.pi / 2, h0), (math.pi / 2, h1)])
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        h0_mat = np.kron(np.eye(2), x)
        h1_mat = np.zeros((4, 4), dtype=complex)
        h1_mat[1, 2] = h1_mat[2, 1] = h1_mat[0, 3] = h1_mat[3, 0] = 1
        assert np.max(np.abs(dense_matrix(u) - h1_mat @ h0_mat)) < 1e-12

    def test_unitarity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            dim = int(rng.integers(2, 32))
            factors = [(float(rng.uniform(-2, 2)), random_reflection(rng, dim))
                       for _ in range(int(rng.integers(1, 4)))]
            m = dense_matrix(compose(factors))
            assert np.max(np.abs(m.conj().T @ m - np.eye(dim))) < 1e-10

    def test_cap(self, monkeypatch):
        # the cap is read when dense_matrix runs
        h0, _ = ring4_reflections()
        monkeypatch.setattr(operators, "DENSE_CAP", 2)
        with pytest.raises(DimensionCapExceeded):
            dense_matrix(compose([(0.1, h0)]))

    def test_peak_memory_is_about_one_matrix(self):
        # dense_matrix steps column blocks into one result; one n-column step peaks at
        # four n x n complex matrices (its input, output and two work arrays)
        n = 1024
        t0, t1 = line_tessellations(n, math.pi / 3, math.pi / 2, 0.2, -0.4)
        u = compose([(0.4, reflection_from_tessellation(t0)),
                     (-1.1, reflection_from_tessellation(t1))])
        tracemalloc.start()
        try:
            m = dense_matrix(u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 16 * n * n
        assert np.array_equal(m, u.step_array(np.eye(n, dtype=np.complex128)))


class TestNormPreservation:
    def test_step_preserves_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            dim = 2 * int(rng.integers(2, 16))
            t0, t1 = line_tessellations(dim, float(rng.uniform(0.1, 3.0)),
                                        float(rng.uniform(0.1, 3.0)))
            u = compose([(float(rng.uniform(-3, 3)), reflection_from_tessellation(t0)),
                         (float(rng.uniform(-3, 3)), reflection_from_tessellation(t1))])
            psi = random_state_array(rng, dim)
            out = u.step_array(psi)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12


@st.composite
def reflections(draw):
    """Random partitions of a random subset of sites, polygon sizes 1-6.

    Sizes up to STENCIL_CAP become padded stencil rows, larger ones rank-1
    size blocks; spare sites are left uncovered.  Supports sit on shuffled or
    on consecutive sites.  Amplitudes are drawn per polygon, shared by all
    polygons of one size, or shared in the first entry only.
    """
    sizes = draw(st.lists(st.integers(1, 6), min_size=0, max_size=12))
    spare = draw(st.integers(0, 4))  # sites outside every support
    dim = max(1, sum(sizes) + spare)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sites = np.arange(dim) if draw(st.booleans()) else rng.permutation(dim)
    mode = draw(st.sampled_from(["random", "shared", "shared_first"]))
    by_size = {}
    vectors, pos = [], 0
    for size in sizes:
        if mode != "shared" or size not in by_size:
            amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            amps[np.abs(amps) < 1e-3] = 1.0
            amps /= np.linalg.norm(amps)
            if mode == "shared_first" and size > 1:
                amps[1:] *= math.sqrt(0.75) / np.linalg.norm(amps[1:])
                amps[0] = 0.5
            by_size[size] = amps
        vectors.append((tuple(int(v) for v in sites[pos:pos + size]),
                        tuple(complex(a) for a in by_size[size])))
        pos += size
    return OrthogonalReflection(dim, tuple(vectors))


class TestKernelProperties:
    """The stencil kernel against the dense outer-product oracle."""

    @settings(max_examples=200, deadline=None)
    @given(h=reflections(), theta=st.floats(-math.pi, math.pi), columns=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_oracle(self, h, theta, columns, seed):
        rng = np.random.default_rng(seed)
        n = h.dimension
        sizes = np.diff(np.append(h.starts, len(h.vertices)))
        event("a polygon above the cap" if np.any(sizes > STENCIL_CAP) else "stencil rows only")
        event("uncovered sites" if len(h.vertices) < n else "every site covered")
        shape = (n, 3) if columns else (n,)
        psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        dense = dense_reflection(h)
        projector = (dense + np.eye(n)) / 2
        assert np.max(np.abs(h.apply(psi) - dense @ psi)) < 1e-12
        exp_dense = math.cos(theta) * np.eye(n) + 1j * math.sin(theta) * dense
        got = LocalUnitary(theta, h).apply(psi)
        assert np.max(np.abs(got - exp_dense @ psi)) < 1e-12
        phase = cmath.exp(2j * theta) - 1
        assert np.max(np.abs(h.mix(psi, 1, phase) - (psi + phase * projector @ psi))) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(h=reflections())
    def test_dense_matrix_is_unitary(self, h):
        m = dense_matrix(compose([(0.4, h), (-1.1, h)]))
        assert np.max(np.abs(m.conj().T @ m - np.eye(h.dimension))) < 1e-12


@st.composite
def sparse_walks(draw):
    """A sparse walk: 2-3 factors on one to three rings, a start of 1-4 sites, and up to 300 steps.

    Rings have 6-2000 sites.  In a chain walk the first two factors pair
    neighbours from offsets 0 and 1, as on the line, so the reach keeps
    growing.  Every other factor cuts each ring into runs of 1-6 consecutive
    sites from its own offset (so polygon sizes mix, runs above STENCIL_CAP
    take the rank-1 update, and the reach can stay confined) and leaves runs
    uncovered with probability 0 or 1/4 (sites the kernel scales by alpha).
    The sites are numbered ring after ring, each in ring order (local
    polygons, but for the one that closes each ring), or relabelled at random
    (scattered polygons); the start sits on random sites, so it can span
    several components, or on sites n - 2 .. 2, so its window holds sites
    n - 1 and 0.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rings = [int(m) for m in rng.integers(6, 2001, size=draw(st.integers(1, 3)))]
    n = sum(rings)
    label = np.arange(n) if draw(st.booleans()) else rng.permutation(n)
    chain = draw(st.booleans())
    factors = []
    for k in range(draw(st.integers(2, 3))):
        paired = chain and k < 2
        drop = 0.0 if paired else float(rng.choice([0.0, 0.25]))
        vertices, sizes, base = [], [], 0
        for m in rings:
            ends = np.minimum(np.cumsum(np.full(m, 2) if paired else rng.integers(1, 7, m)), m)
            runs = np.diff(ends[:np.searchsorted(ends, m) + 1], prepend=0)
            keep = rng.random(len(runs)) >= drop
            ring = label[base + (np.arange(m) + (k if paired else rng.integers(m))) % m]
            vertices.append(ring[np.repeat(keep, runs)])
            sizes.append(runs[keep])
            base += m
        vertices, sizes = np.concatenate(vertices), np.concatenate(sizes)
        starts = np.cumsum(sizes) - sizes
        amps = rng.standard_normal(len(vertices)) + 1j * rng.standard_normal(len(vertices))
        amps[np.abs(amps) < 1e-3] = 1.0
        amps /= np.repeat(np.sqrt(np.add.reduceat(np.abs(amps) ** 2, starts)), sizes)
        check_polygon_arrays(vertices, amps, starts, n)
        factors.append((float(rng.uniform(-math.pi, math.pi)),
                        OrthogonalReflection.from_arrays(n, vertices, amps, starts)))
    psi0 = np.zeros(n, dtype=np.complex128)
    start = rng.choice(np.arange(-2, 3) % n if draw(st.booleans()) else n,
                       size=draw(st.integers(1, 4)), replace=False)
    psi0[start] = rng.standard_normal(len(start)) + 1j * rng.standard_normal(len(start))
    return compose(factors), psi0 / np.linalg.norm(psi0), draw(st.integers(1, 300))


def line(n, theta=0.6, alpha=0.7, beta=1.1, phi0=0.3, phi1=0.9):
    """The line's walk on an n-site ring in `line_tessellations` numbering."""
    return compose([(theta, reflection_from_tessellation(t))
                    for t in line_tessellations(n, alpha, beta, phi0, phi1)])


def stored(support) -> list[int]:
    """The sites each factor's store in an evolution's support holds stencil entries for."""
    return [len(c0) for _, c0, _ in support.stores]


def inside(window, n) -> np.ndarray:
    """The sites of a window (`ActiveSupport.window`) as a mask."""
    mask = np.zeros(n, dtype=bool)
    for a, b in _runs(*window, n):
        mask[a % n:a % n + b - a] = True
    return mask


def widened(window, spread, n) -> tuple[int, int]:
    """A window widened by `spread` sites on each side, as `ActiveSupport.ahead` widens it."""
    lo, hi = window
    return (0, n) if hi - lo + 2 * spread >= n else (lo - spread, hi + spread)


class TestActiveSupport:
    """The windowed step against the full step, and the window's width and cost.

    Each windowed step must equal the full step element for element
    (`array_equal`: bit for bit, with -0.0 equal to 0.0, since a zero the full
    step writes as c0 * 0 may carry a sign).  This rests on numpy rounding a
    complex multiply alike at every array length the kernel uses.  Measured on
    numpy 2.4.6 on an Intel Xeon with AVX-512 and FMA: an in-place multiply of
    a one-element array skips the fused multiply-add of the vector loop, while
    an out-of-place one-element multiply matches; the kernel multiplies out of
    place only, since a window may be one site wide.
    """

    @settings(max_examples=150, deadline=None)
    @given(walk=sparse_walks())
    def test_equals_full_path_every_step(self, walk):
        # the full step's state is flushed as the windowed one is, on every LEAD_STEPS-th step
        u, psi0, steps = walk
        n = u.dimension
        support = ActiveSupport(psi0)
        active = full = psi0
        partial = crossed = 0
        for step in range(1, steps + 1):
            active = u.step_array(active, support)
            full = u.step_array(full)
            if step % LEAD_STEPS == 0:
                parts = full.view(np.float64)
                parts[np.abs(parts) < SMALLEST_NORMAL] = 0.0
            assert np.array_equal(active, full)
            assert not np.any(active[~inside(support.window, n)])
            partial += support.window != (0, n)
            crossed += len(_runs(*support.window, n)) > 1
        event("every site from the first step" if not partial else
              "a partial window, then every site" if support.window == (0, n) else
              "a partial window throughout")
        event("the window held sites n - 1 and 0" if crossed else
              "the window never held sites n - 1 and 0")

    def test_full_path_flushes_subnormal_parts(self):
        # site 0 is uncovered by both factors, so a subnormal amplitude there only turns
        # its phase: the windowed step sets it to 0 on its LEAD_STEPS-th step and
        # leaves every other site as the plain step writes it
        rng = np.random.default_rng(13)

        def pairs(first):
            vertices = np.arange(first, first + 6) % 6 + 1
            amps = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            amps /= np.repeat(np.sqrt(np.add.reduceat(np.abs(amps) ** 2, [0, 2, 4])), 2)
            return OrthogonalReflection.from_arrays(7, vertices, amps, np.arange(0, 6, 2))
        u = compose([(0.9, pairs(0)), (-0.4, pairs(1))])
        psi0 = np.append(1e-310 - 2e-310j, random_state_array(rng, 6))
        support = ActiveSupport(psi0)  # a dense start: every site from the first step
        flushed = plain = psi0
        for step in range(1, 2 * LEAD_STEPS + 1):
            flushed = u.step_array(flushed, support)
            plain = u.step_array(plain)
            assert 0 < abs(plain[0]) < SMALLEST_NORMAL
            assert (flushed[0] == 0) == (step >= LEAD_STEPS)
            assert np.array_equal(flushed[1:], plain[1:])

    def test_one_uncovered_site_reached_first(self):
        # on a 400-site ring the first factor pairs (1, 2), (3, 4), ... and leaves
        # sites 0 and 399 uncovered, the second pairs (0, 1), (2, 3), ...; from site 0
        # the first factor's update of site 0 alone, a one-element multiply, equals
        # its full update, and so do the windowed steps
        n = 400
        rng = np.random.default_rng(11)
        for _ in range(40):
            def pairs(first):
                vertices = np.arange(first, first + 2 * ((n - first) // 2))
                amps = rng.standard_normal((len(vertices) // 2, 2)) + 1j * rng.standard_normal(
                    (len(vertices) // 2, 2))
                amps /= np.linalg.norm(amps, axis=1, keepdims=True)
                return OrthogonalReflection.from_arrays(n, vertices, amps.ravel(),
                                                        np.arange(0, len(vertices), 2))
            u = compose([(float(rng.uniform(-math.pi, math.pi)), pairs(1)),
                         (float(rng.uniform(-math.pi, math.pi)), pairs(0))])
            psi0 = np.zeros(n, dtype=np.complex128)
            psi0[0] = np.exp(1j * rng.uniform(-math.pi, math.pi))
            f, support = u.factors[0], ActiveSupport(psi0)  # its window is site 0 alone
            cut = support._cut(f.reflection, *support._grown(f, 0))
            [(_, c0, rows)], _ = cut
            assert not any(c.any() for _, c in rows)  # scaled by c0 alone
            assert c0[0] == cmath.exp(-1j * f.theta)  # alpha
            one = operators._mix(psi0, *cut, f._beta, np.zeros(n, dtype=np.complex128))
            assert np.array_equal(one, f.apply(psi0))
            support = ActiveSupport(psi0)
            active = full = psi0
            for _ in range(3):
                active = u.step_array(active, support)
                full = u.step_array(full)
                assert np.array_equal(active, full)

    @pytest.mark.parametrize("sites", [(-3, 2), (2 ** 14 - 1, 2 ** 14 + 1)])
    def test_window_stays_in_the_light_cone(self, sites):
        # each factor spreads by a site on each side: a step widens the window by
        # four, and the window runs up to LEAD_STEPS steps ahead of the state.  Round
        # site 0 the window holds sites n - 1 and 0; round the antipode it stays apart
        # from them; either way each factor's store holds at most three times the
        # window's sites, fewer than n
        n, steps = 2 ** 15, 500
        u = line(n)
        psi = superposition_state(n, [(sites[0] % n, 0.6), (sites[1], 0.8j)]).amplitudes
        support = ActiveSupport(psi)
        width = sites[1] - sites[0] + 1
        assert support.window[1] - support.window[0] == width
        for t in range(1, steps + 1):
            psi = u.step_array(psi, support)
            assert support.window[1] - support.window[0] <= width + 4 * (t + LEAD_STEPS - 1)
        assert (support.window[0] < 0) == (sites[0] < 0)
        assert max(stored(support)) <= 3 * (support.window[1] - support.window[0]) < n

    def test_steps_between_compile_runs_allocate_nothing_per_site(self):
        # a 40 000-site line from site 0: once the window is over 1000 sites wide, the
        # LEAD_STEPS steps of a batch that compiles nothing gather into and scatter from
        # the kept work arrays, the window's two runs alike: the peak is views and
        # scalars, whatever the width
        n = 40_000
        u = line(n)
        psi = basis_state(n, 0).amplitudes
        support = ActiveSupport(psi)
        while support.window[1] - support.window[0] < 1000:
            psi = u.step_array(psi, support)
        for _ in range(10):  # a store grows to three window widths: most batches compile nothing
            compiled, window = stored(support), support.window
            tracemalloc.start()
            try:
                for _ in range(LEAD_STEPS):  # one flush among them
                    psi = u.step_array(psi, support)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            if stored(support) == compiled:
                break
        assert stored(support) == compiled and window[0] < 0
        assert support.window == (window[0] - 2 * LEAD_STEPS, window[1] + 2 * LEAD_STEPS)
        assert peak < 4096

    def test_steps_between_compile_runs_allocate_nothing_per_big_column(self):
        # a 60 000-site ring cut into 6-site polygons, the second factor shifted by 3
        # and not closing the ring: every polygon takes the rank-1 update, and from
        # the middle of the ring the window, one run, grows by the factors' spread,
        # five sites each, on each side, as do the rows each size block updates
        n = 60_000

        def blocks(first):
            count = (n - first) // 6 * 6
            return OrthogonalReflection.from_arrays(n, np.arange(first, first + count),
                                                    np.full(count, 1 / math.sqrt(6)),
                                                    np.arange(0, count, 6))
        u = compose([(0.6, blocks(0)), (0.6, blocks(3))])
        psi = basis_state(n, n // 2).amplitudes
        support = ActiveSupport(psi)
        while support.window[1] < n // 2 + 1000:
            psi = u.step_array(psi, support)
        for _ in range(10):
            compiled, (lo, hi) = stored(support), support.window
            tracemalloc.start()
            try:
                for _ in range(LEAD_STEPS):
                    psi = u.step_array(psi, support)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            if stored(support) == compiled:
                break
        assert stored(support) == compiled and support.window == (lo - 80, hi + 80) and lo > 0
        assert peak < 4096

    def test_full_path_run_keeps_its_buffers_and_work_arrays_only(self):
        # a dense start on a 60 000-site ring cut into 6-site polygons: every step runs
        # on every site with the rank-1 update and the flush.  The support (two buffers
        # and two work arrays, 4 state sizes) and its first window, with each factor's
        # store of every site (one state size each), are made first: the steps then
        # allocate views and scalars only, 0.006 state sizes measured
        n = 60_000

        def blocks(first):
            return OrthogonalReflection.from_arrays(n, (np.arange(n) + first) % n,
                                                    np.full(n, 1 / math.sqrt(6)),
                                                    np.arange(0, n, 6))
        u = compose([(0.6, blocks(0)), (0.6, blocks(3))])
        psi = random_state_array(np.random.default_rng(3), n)
        support = ActiveSupport(psi)
        support.ahead(u.factors)
        tracemalloc.start()
        try:
            for _ in range(2 * LEAD_STEPS + 4):
                psi = u.step_array(psi, support)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert support.window == (0, n) and stored(support) == [n, n]
        assert peak < 16 * n // 10

    def test_long_sparse_walk_keeps_few_subnormal_parts(self):
        # with phi0 = phi1 = 0 the tail ahead of the front decays through the subnormal
        # range; the flush on every LEAD_STEPS-th step keeps a few dozen such parts
        n, steps = 2 ** 16, 3000
        u = line(n, math.pi / 4, math.pi / 3, math.pi / 3, 0.0, 0.0)
        final = evolve_final(u, basis_state(n, 0), steps).amplitudes
        parts = np.abs(final.view(np.float64))
        assert np.count_nonzero((parts > 0) & (parts < SMALLEST_NORMAL)) <= 48
        assert np.count_nonzero(final) > 2 * steps

@st.composite
def scattered_walks(draw):
    """A walk of 2-3 factors on 10 to 10^5 sites (log-uniform), and 1-24 steps.

    Each factor partitions a random half or more of the sites, in random
    order, into polygons of 1-8 sites with a random unit vector each, and
    leaves the rest uncovered.  So sizes up to STENCIL_CAP take padded stencil
    rows and larger ones the rank-1 update, and since a polygon joins
    scattered sites, the window from one site soon holds every site.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = int(10 ** draw(st.floats(1, 5)))
    factors = []
    for _ in range(draw(st.integers(2, 3))):
        sites = rng.permutation(n)[:int(rng.integers(max(1, n // 2), n + 1))]
        sizes = rng.integers(1, 9, size=len(sites))
        sizes = sizes[:np.searchsorted(np.cumsum(sizes), len(sites)) + 1]
        sizes[-1] -= sizes.sum() - len(sites)
        starts = np.cumsum(sizes) - sizes
        amps = rng.standard_normal(len(sites)) + 1j * rng.standard_normal(len(sites))
        amps[np.abs(amps) < 1e-3] = 1.0
        amps /= np.repeat(np.sqrt(np.add.reduceat(np.abs(amps) ** 2, starts)), sizes)
        check_polygon_arrays(sites, amps, starts, n)
        factors.append((float(rng.uniform(-math.pi, math.pi)),
                        OrthogonalReflection.from_arrays(n, sites, amps, starts)))
    return compose(factors), draw(st.integers(1, 24)), rng


class TestSegmentSumOracle:
    """The windowed loop and the plain step against `conftest.segment_sum_exp`,
    which reads only the polygon arrays, at up to 10^5 sites."""

    @settings(max_examples=30, deadline=None)
    @given(walk=scattered_walks())
    def test_evolutions_match_the_oracle(self, walk):
        u, steps, rng = walk
        n = u.dimension
        event("above the cap" if any(np.diff(np.append(f.reflection.starts, len(
            f.reflection.vertices))).max() > STENCIL_CAP for f in u.factors) else "rows only")
        start = basis_state(n, int(rng.integers(n)))  # a window, soon every site
        got = evolve_final(u, start, steps).amplitudes
        assert np.max(np.abs(got - segment_sum_evolve(u, start.amplitudes, steps))) <= \
            drift_bound(steps)
        psi = psi0 = random_state_array(rng, n)  # every site, without a support
        for _ in range(steps):
            psi = u.step_array(psi)
        assert np.max(np.abs(psi - segment_sum_evolve(u, psi0, steps))) <= drift_bound(steps)


class TestStencilCap:
    """A polygon above STENCIL_CAP sites keeps a rank-1 update of its own size."""

    def test_large_polygon_compiles_to_linear_size(self):
        # one 3000-site polygon plus singletons on 10^5 sites: as padded rows it
        # would take 3000 rows of 10^5 entries
        n, d, theta = 100_000, 3000, 0.7
        rng = np.random.default_rng(12)
        polygon = rng.choice(n, d, replace=False)
        vertices = np.concatenate([polygon, np.setdiff1d(np.arange(n), polygon)])
        amps = np.ones(n, dtype=np.complex128)
        amps[:d] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        amps[:d] /= np.linalg.norm(amps[:d])
        starts = np.concatenate([[0], np.arange(d, n)])
        h = OrthogonalReflection.from_arrays(n, vertices, amps, starts)
        u = LocalUnitary(theta, h)
        support = ActiveSupport(np.ones(n, dtype=np.complex128))  # every site
        support.ahead([u])
        held = [h._partners, *(a for block in h._big for a in block), *support.stores[0][1:]]
        assert sum({id(a): a.size for a in held}.values()) <= 2 * n + 3 * d

        # |s> inside the polygon maps to e^{-i theta} |s> + 2i sin(theta) conj(a_s) |a>
        k = 5
        psi = np.zeros(n, dtype=np.complex128)
        psi[polygon[k]] = 1.0
        expected = np.zeros(n, dtype=np.complex128)
        expected[polygon] = 2j * math.sin(theta) * np.conj(amps[k]) * amps[:d]
        expected[polygon[k]] += cmath.exp(-1j * theta)
        assert np.max(np.abs(u.apply(psi) - expected)) < 1e-12


class TestLazyRows:
    """An evolution compiles each factor's stencil entries in runs, as its window needs them."""

    def test_sparse_run_compiles_no_full_rows(self):
        # 32 steps from sites 0 and n - 1 of a 2^16-site line reach about 130 sites:
        # each factor compiles its stencil entries round them, and the run equals the
        # plain step on every site
        n = 2 ** 16
        u = line(n, 0.6, 1.1, 0.7, 0.3, 0.9)
        start = superposition_state(n, [(0, 0.6), (n - 1, 0.8j)])
        support, got = ActiveSupport(start.amplitudes), start.amplitudes
        for _ in range(32):
            got = u.step_array(got, support)
        assert max(stored(support)) < n // 2
        assert np.array_equal(got, evolve_final(u, start, 32).amplitudes)
        psi = start.amplitudes
        for _ in range(32):
            psi = u.step_array(psi)
        assert np.array_equal(got, psi)

    @settings(max_examples=40, deadline=None)
    @given(walk=scattered_walks(), cuts=st.lists(st.floats(0, 1), max_size=4))
    def test_run_entries_are_full_row_columns(self, walk, cuts):
        # byte for byte, the sign of a zero included, for any cut of the sites into runs
        u, _, _ = walk
        for f in u.factors:
            h, n = f.reflection, f.dimension
            bounds = sorted({0, n, *(int(c * n) for c in cuts)})
            c0 = np.empty(n, dtype=np.complex128)
            coefficients = np.empty(h._partners.shape, dtype=np.complex128)
            for lo, hi in zip(bounds, bounds[1:]):
                h._entries(lo, hi, f._alpha, f._beta, c0[lo:hi], coefficients[:, lo:hi])
            whole = np.empty_like(c0), np.empty_like(coefficients)
            h._entries(0, n, f._alpha, f._beta, *whole)
            assert c0.tobytes() == whole[0].tobytes()
            assert coefficients.tobytes() == whole[1].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(walk=sparse_walks(), data=st.data())
    def test_spread_holds_every_polygon_that_meets_the_window(self, walk, data):
        # for any window, not every site, the window widened by a factor's spread on
        # each side holds every site of a polygon with a site in the window
        u, _, _ = walk
        n = u.dimension
        lo, hi = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        window = widened((lo - n if lo > hi else lo, hi + 1), 0, n)
        for f in u.factors:
            h = f.reflection
            reach = inside(widened(window, h._spread, n), n)
            polygon = np.repeat(np.arange(len(h.starts)),
                                np.diff(np.append(h.starts, len(h.vertices))))
            met = np.zeros(len(h.starts), dtype=bool)
            met[polygon[inside(window, n)[h.vertices]]] = True
            assert reach[h.vertices[met[polygon]]].all()

    def test_spread_runs_round_the_ring(self):
        # the largest distance round the ring between two sites of a polygon: on 20
        # sites {3, 17} are 6 apart through site 0, and {10, 0, 9} 10; on a 5 x 5 grid
        # in row-major numbering the square {7, 8, 12, 13} spans 6; three sites a third
        # of a 30-site ring apart are 10 apart.  Above STENCIL_CAP sites a polygon
        # takes its shortest arc instead, less one: 24 for five sites 6 apart
        assert OrthogonalReflection(20, [((3, 17), (0.6, 0.8))])._spread == 6
        assert OrthogonalReflection(20, [((10, 0, 9), (0.6, 0.64, 0.48))])._spread == 10
        assert OrthogonalReflection(25, [((7, 8, 12, 13), (0.5,) * 4)])._spread == 6
        assert OrthogonalReflection(30, [((0, 10, 20), (0.6, 0.64, 0.48))])._spread == 10
        assert OrthogonalReflection(30, [((0, 6, 12, 18, 24), (0.2 ** 0.5,) * 5)])._spread == 24
        assert OrthogonalReflection(20, [((5,), (1,)), ((3, 4), (0.6, 0.8))])._spread == 1
        assert OrthogonalReflection(20, [((5,), (1,))])._spread == 0

    @staticmethod
    def assert_window_entries(f, windows):
        """For each window in turn (`ActiveSupport.window`, one frame, each holding the
        last), the factor's store grown to hold it reads, in each run of the window,
        the entries of the run's sites as one compile of every site holds them.
        Returns the sites of the last store."""
        n = f.dimension
        c0 = np.empty(n, dtype=np.complex128)
        coefficients = np.empty(f.reflection._partners.shape, dtype=np.complex128)
        f.reflection._entries(0, n, f._alpha, f._beta, c0, coefficients)
        support = ActiveSupport(basis_state(n, 0).amplitudes)
        store = (windows[0][0],)
        for support.window in windows:
            store = support._grown(f, *store)
            segments, _ = support._cut(f.reflection, *store)
            assert sum(len(c) for _, c, _ in segments) == inside(support.window, n).sum()
            for s, c, rows in segments:
                assert c.tobytes() == c0[s:s + len(c)].tobytes()
                assert [c.tobytes() for _, c in rows] == [
                    row[s:s + len(c)].tobytes() for row in coefficients]
        return len(store[1])

    @settings(max_examples=40, deadline=None)
    @given(walk=sparse_walks(), data=st.data())
    def test_window_entries_equal_one_compile(self, walk, data):
        # a window anywhere in its frame, widened on either side by random steps
        u, _, _ = walk
        n = u.dimension
        lo = data.draw(st.integers(-n + 1, n - 1))
        windows = [(lo, lo + data.draw(st.integers(1, n - 1)))]
        for left, right in data.draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)),
                                              max_size=4)):
            lo, hi = windows[-1]
            windows.append(widened((lo - left, hi + right), 0, n))
        for f in u.factors:
            self.assert_window_entries(f, windows)

    def test_store_follows_the_window_round_the_ring(self):
        # on a 1000-site line: a window near the end of the site order, then the same
        # window grown past site 0 (unwrapped sites 1000 and up, sites 0 and up), which
        # the store grows round the ring to take in without holding every site; then
        # every site, which the store takes in site order
        f = line(1000).factors[0]
        windows = [(900, 950), (890, 1010)]
        assert self.assert_window_entries(f, windows) == 3 * 120
        assert self.assert_window_entries(f, [*windows, (0, 1000)]) == 1000

    def test_saturated_run_compiles_each_factor_once(self, monkeypatch):
        # 150 steps on a 400-site line from one site: the window soon holds every site,
        # and each factor compiles the entries of each site exactly once, in stores
        # round the window and then in the store of every site
        compiled = []
        entries = OrthogonalReflection._entries
        monkeypatch.setattr(OrthogonalReflection, "_entries",
                            lambda h, lo, hi, *rest: compiled.append((id(h), lo, hi))
                            or entries(h, lo, hi, *rest))
        u = line(400, 0.6, 0.7, 1.1, 0.3, 0.9)
        evolve_final(u, basis_state(400, 5), 150)
        for f in u.factors:
            sites = np.concatenate([np.arange(lo, hi) for h, lo, hi in compiled
                                    if h == id(f.reflection)])
            assert np.array_equal(np.sort(sites), np.arange(400))

    @settings(max_examples=200, deadline=None)
    @given(walk=sparse_walks())
    def test_one_evolution_compiles_each_site_once_per_factor(self, walk):
        # no factor's compile covers a site twice in one evolution, also when a store
        # grows to every site, and each store holds the sites compiled for it: at most
        # three times the window's sites, or every site
        u, psi0, steps = walk
        n = u.dimension
        counts = {id(f.reflection): np.zeros(n, dtype=np.int64) for f in u.factors}
        entries = OrthogonalReflection._entries

        def counted(h, lo, hi, *rest):
            counts[id(h)][lo:hi] += 1
            return entries(h, lo, hi, *rest)
        support, psi, sizes = ActiveSupport(psi0), psi0, [[0] * len(u.factors)]
        with mock.patch.object(OrthogonalReflection, "_entries", counted):
            for _ in range(steps):
                psi = u.step_array(psi, support)
                width = support.window[1] - support.window[0]
                sizes.append(stored(support))
                assert all(size <= 3 * width or size == n for size in sizes[-1])
        assert max(c.max() for c in counts.values()) == 1
        assert sizes[-1] == [counts[id(f.reflection)].sum() for f in u.factors]
        event("a partial store grew to every site" if any(
            0 < a < n == b for old, new in zip(sizes, sizes[1:]) for a, b in zip(old, new))
            else "a store held every site from the first step" if n in sizes[1]
            else "every store stayed partial")


class TestConstructionMemory:
    """Building, checking and compiling the line holds O(n) memory at its peak."""

    def test_peak_is_linear_in_the_ring_size(self):
        # kept: the ring's edge codes (8 B per site), both tessellations (52 B), and
        # both factors' partner rows (16 B) and site slots (8 B), 84 B in all (5.25
        # state sizes); the stencil entries wait for an evolution, which keeps its own.
        # At the peak, construction's temporaries more: 7.1 state sizes measured at
        # both sizes
        for n in (2 ** 14, 2 ** 16):
            tracemalloc.start()
            try:
                t0, t1 = line_tessellations(n, 1.1, 0.7, 0.3, 0.9)
                factors = [LocalUnitary(0.6, reflection_from_tessellation(t)) for t in (t0, t1)]
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(factors) == 2 and peak < 7.5 * (16 * n)
            assert [sorted(vars(f)) for f in factors] == [["_alpha", "_beta", "reflection",
                                                           "theta"]] * 2
