"""Szegedy's walk is the staggered walk at theta = pi/2 on the line graph of its bipartite
graph: tessellation A groups the edges (x, y) that share an x, with amplitudes sqrt(p_xy),
and tessellation B those that share a y, with sqrt(q_yx).  exp(i pi/2 H) = i H, so the
staggered step is U = (i H_B)(i H_A) = -R_B R_A = -W.  Only the public API is used."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sqw import Tessellation, WalkState, build_graph, compose, dense_matrix, evolve_final, \
    reflection_from_tessellation, union_covers_edges, validate_tessellation
from sqw.tolerances import drift_bound

from conftest import dense_szegedy_walk, random_state_array


def szegedy_tessellations(x, y, sqrt_p, sqrt_q):
    """The line graph of the bipartite edges (x[i], y[i]), vertex i for edge i, and its
    tessellations A (edges sharing an x) and B (edges sharing a y)."""
    def grouped(owner, amplitudes):
        order = np.argsort(owner, kind="stable")
        starts = np.flatnonzero(np.diff(owner[order], prepend=-1))
        return order, amplitudes[order], starts

    g = build_graph(len(x), np.concatenate((shared_pairs(x), shared_pairs(y))))
    return g, [Tessellation.from_arrays(g, *grouped(x, sqrt_p)),
               Tessellation.from_arrays(g, *grouped(y, sqrt_q))]


def shared_pairs(owner) -> np.ndarray:
    """The pairs of edges i != j with owner[i] == owner[j], each once, as (k, 2) rows."""
    order = np.argsort(owner, kind="stable")
    sorted_owner = owner[order]
    pairs = [np.empty((0, 2), dtype=np.int64)]
    for gap in range(1, len(owner)):
        same = sorted_owner[gap:] == sorted_owner[:-gap]
        if not same.any():
            break
        pairs.append(np.stack((order[:-gap][same], order[gap:][same]), axis=1))
    return np.concatenate(pairs)


def stochastic(weights, owner, count) -> np.ndarray:
    """weights divided by the sum over each owner's edges."""
    return weights / np.bincount(owner, weights, minlength=count)[owner]


@st.composite
def bipartite_walks(draw):
    """(x, y, p, q): a bipartite graph on 1-4 + 1-4 vertices with no isolated vertex, as
    its edges (x[i], y[i]), and positive stochastic P and Q on those edges."""
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    mask = np.array(draw(st.lists(st.booleans(), min_size=nx * ny, max_size=nx * ny)))
    mask = mask.reshape(nx, ny)
    mask[np.flatnonzero(~mask.any(axis=1)), 0] = True  # an x with no edge joins y = 0
    mask[0, np.flatnonzero(~mask.any(axis=0))] = True  # a y with no edge joins x = 0
    x, y = np.nonzero(mask)
    weights = st.lists(st.floats(0.01, 1.0), min_size=len(x), max_size=len(x))
    p = stochastic(np.array(draw(weights)), x, nx)
    q = stochastic(np.array(draw(weights)), y, ny)
    return x, y, p, q


@settings(max_examples=200, deadline=None)
@given(bipartite_walks())
def test_staggered_step_is_minus_szegedy(walk):
    x, y, p, q = walk
    g, (t_a, t_b) = szegedy_tessellations(x, y, np.sqrt(p), np.sqrt(q))
    for t in (t_a, t_b):
        validate_tessellation(g, t)
    assert union_covers_edges(g, [t_a, t_b]) == set()
    nx, ny = x.max() + 1, y.max() + 1
    p_matrix, q_matrix = np.zeros((nx, ny)), np.zeros((ny, nx))
    p_matrix[x, y], q_matrix[y, x] = p, q
    w = dense_szegedy_walk(p_matrix, q_matrix, zip(x.tolist(), y.tolist()))
    u = dense_matrix(compose([(math.pi / 2, reflection_from_tessellation(t_a)),
                              (math.pi / 2, reflection_from_tessellation(t_b))]))
    assert np.max(np.abs(u + w)) <= 1e-12


def szegedy_step(psi, x, y, sqrt_p, sqrt_q) -> np.ndarray:
    """W psi = R_B R_A psi by segment sums: R psi = 2 a <a|psi> - psi per group of edges."""
    for owner, a in ((x, sqrt_p), (y, sqrt_q)):
        overlap = np.bincount(owner, a * psi.real) + 1j * np.bincount(owner, a * psi.imag)
        psi = 2.0 * a * overlap[owner] - psi
    return psi


def test_large_walk_against_segment_sums():
    # 2500 + 2500 vertices, every vertex of degree 4: 10 000 edges, 50 steps (an even
    # count, so this does not see the sign of U = -W; the dense test above does)
    rng = np.random.default_rng(21)
    side, steps = 2500, 50
    x = np.repeat(np.arange(side), 4)
    y = rng.permutation(side)[(x + np.tile([0, 1, 3, 7], side)) % side]
    sqrt_p = np.sqrt(stochastic(rng.uniform(0.05, 1.0, len(x)), x, side))
    sqrt_q = np.sqrt(stochastic(rng.uniform(0.05, 1.0, len(x)), y, side))
    g, (t_a, t_b) = szegedy_tessellations(x, y, sqrt_p, sqrt_q)
    u = compose([(math.pi / 2, reflection_from_tessellation(t_a)),
                 (math.pi / 2, reflection_from_tessellation(t_b))])
    psi0 = random_state_array(rng, len(x))
    final = evolve_final(u, WalkState(psi0), steps).amplitudes
    expected = psi0
    for _ in range(steps):
        expected = -szegedy_step(expected, x, y, sqrt_p, sqrt_q)
    assert np.linalg.norm(final - expected) <= drift_bound(steps)
