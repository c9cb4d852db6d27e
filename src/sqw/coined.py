"""Flip-flop coined walks recast as staggered walks on clique-expanded graphs.

The coined Hilbert space is spanned by arcs (vertex, incident edge).  The
flip-flop shift swaps the two arcs of each edge, so it is the orthogonal
reflection induced by one uniform two-arc polygon per edge; a coin of the
form exp(i theta H) with H an arc-space reflection supported vertex-by-vertex
induces the complementary tessellation.  Both live on the clique expansion of
the original graph, where the walk becomes a two-tessellation staggered walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, UnsupportedCoin
from .graphs import (
    ExpansionMap,
    Graph,
    Polygon,
    Tessellation,
    clique_expansion,
    uniform_polygon,
    uniform_tessellation,
)
from .operators import EvolutionOperator, OrthogonalReflection, compose, \
    reflection_from_tessellation
from .state import WalkState


def shift_tessellation(expansion: ExpansionMap) -> Tessellation:
    """One uniform polygon {(v,a), (v',a)} per original edge, on the expansion."""
    return uniform_tessellation(expansion.expanded,
                                ((expansion.arc_index(u, j), expansion.arc_index(w, j))
                                 for j, (u, w) in enumerate(expansion.original.edges)))


def coin_tessellation(expansion: ExpansionMap) -> Tessellation:
    """One uniform polygon per original vertex over all of its arcs.

    The induced reflection restricted to a degree-d vertex is the d-dimensional
    Grover matrix (2/d) J - I.
    """
    arcs = expansion.arc_index
    return uniform_tessellation(expansion.expanded,
                                ([arcs(v, j) for j in expansion.original.incident_edges(v)]
                                 for v in range(expansion.original.vertex_count)))


def flipflop_shift(g: Graph, expansion: ExpansionMap | None = None) -> OrthogonalReflection:
    """The edge-swap involution S as an orthogonal reflection on the arc space."""
    if expansion is None:
        expansion = clique_expansion(g)
    return reflection_from_tessellation(shift_tessellation(expansion))


def grover_coin_reflection(g: Graph, expansion: ExpansionMap | None = None) -> OrthogonalReflection:
    """Block-diagonal Grover reflection: a (2/d) J - I block on each vertex."""
    if expansion is None:
        expansion = clique_expansion(g)
    return reflection_from_tessellation(coin_tessellation(expansion))


@dataclass(frozen=True)
class CoinedWalk:
    """A flip-flop coined walk with coin exp(i coin_angle H) on the arc space."""

    graph: Graph
    coin_angle: float
    coin_reflection: OrthogonalReflection
    shift: OrthogonalReflection
    expansion: ExpansionMap

    def __post_init__(self):
        dim = 2 * len(self.graph.edges)
        for name, refl in (("coin", self.coin_reflection), ("shift", self.shift)):
            if refl.dimension != dim:
                raise DimensionMismatch(dim, refl.dimension)


def grover_coined_walk(g: Graph, theta: float = math.pi / 2) -> CoinedWalk:
    """Coined walk with the Grover reflection coin exp(i theta G) per vertex.

    theta = pi/2 gives the usual Grover coin (up to a global phase); on
    degree-2 vertices the block is the Pauli X, so theta there realizes the
    one-dimensional exp(i theta X) coin.
    """
    expansion = clique_expansion(g)
    return CoinedWalk(g, float(theta),
                      grover_coin_reflection(g, expansion),
                      flipflop_shift(g, expansion),
                      expansion)


def reflection_coined_walk(g: Graph, theta: float, polygons) -> CoinedWalk:
    """Coined walk from explicit arc-space coin polygons.

    Every polygon must sit inside a single vertex's arc set (a coin never
    moves the walker); anything else is not a coin and raises UnsupportedCoin.
    """
    expansion = clique_expansion(g)
    owner = {}
    for v, j in expansion.arcs:
        owner[expansion.arc_index(v, j)] = v
    for p in polygons:
        owners = {owner[a] for a in p.vertices}
        if len(owners) != 1:
            raise UnsupportedCoin(
                f"coin polygon {p.vertices} spans arcs of vertices {sorted(owners)}; "
                "a coin must act within one vertex's arc set")
    blue = Tessellation(tuple(polygons), expansion.expanded)
    return CoinedWalk(g, float(theta),
                      reflection_from_tessellation(blue),
                      flipflop_shift(g, expansion),
                      expansion)


def coined_walk_from_descriptor(g: Graph, descriptor: dict) -> CoinedWalk:
    """Build a CoinedWalk from the JSON coin descriptor.

    Accepted forms: {"type": "grover"} with optional "theta" (default pi/2),
    and {"type": "reflection", "theta": r, "polygons": [...]} with polygons
    over arc indices.  Any other coin raises UnsupportedCoin.
    """
    kind = descriptor.get("type")
    if kind == "grover":
        return grover_coined_walk(g, float(descriptor.get("theta", math.pi / 2)))
    if kind == "reflection":
        if "theta" not in descriptor or "polygons" not in descriptor:
            raise UnsupportedCoin("reflection coin needs 'theta' and 'polygons'")
        polygons = []
        for pdoc in descriptor["polygons"]:
            verts = tuple(int(v) for v in pdoc["vertices"])
            if "amplitudes" in pdoc:
                amps = tuple(complex(re, im) for re, im in pdoc["amplitudes"])
                polygons.append(Polygon(verts, amps))
            else:
                polygons.append(uniform_polygon(verts))
        return reflection_coined_walk(g, float(descriptor["theta"]), polygons)
    raise UnsupportedCoin(
        f"coin type {kind!r} is not of the form exp(i theta H) with H an "
        "orthogonal reflection")


def embed_coined_as_sqw(cw: CoinedWalk) -> EvolutionOperator:
    """The equivalent staggered step exp(i pi/2 S) exp(i theta H_coin)."""
    return compose([(cw.coin_angle, cw.coin_reflection),
                    (math.pi / 2, cw.shift)])


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the numerical equivalence certification."""

    max_state_deviation: float
    steps_checked: int
    bijection_used: ExpansionMap

    def __post_init__(self):
        if self.max_state_deviation < 0:
            raise ValueError("deviation cannot be negative")


def _dense_shift_matrix(cw: CoinedWalk) -> np.ndarray:
    """S as a permutation matrix straight from the edge list (no polygons)."""
    dim = cw.expansion.arc_count
    s = np.zeros((dim, dim), dtype=np.complex128)
    for j, (u, w) in enumerate(cw.graph.edges):
        a, b = cw.expansion.arc_index(u, j), cw.expansion.arc_index(w, j)
        s[a, b] = 1.0
        s[b, a] = 1.0
    return s

def _dense_coin_matrix(cw: CoinedWalk) -> np.ndarray:
    """exp(i theta H_coin) from dense outer products of the polygon vectors."""
    dim = cw.expansion.arc_count
    h = -np.eye(dim, dtype=np.complex128)
    for support, amplitudes in cw.coin_reflection.polygon_vectors:
        v = np.zeros(dim, dtype=np.complex128)
        v[list(support)] = amplitudes
        h += 2.0 * np.outer(v, np.conj(v))
    return math.cos(cw.coin_angle) * np.eye(dim) + 1j * math.sin(cw.coin_angle) * h


def phase_invariant_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over phases of ||a - e^{i phi} b||.

    The minimizing phase is the argument of <b|a>; the norm is taken on the
    aligned difference directly, which stays accurate for nearly identical
    vectors where sqrt(2 - 2|<a|b>|) would lose half the digits.
    """
    inner = np.vdot(a, b)
    phase = np.conj(inner) / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(a - phase * b))


def certify_equivalence(cw: CoinedWalk, steps: int, psi0: WalkState) -> EquivalenceReport:
    """Numerically certify coined step == staggered step on the expansion.

    Route (a) builds exp(i pi/2 S) exp(i theta H) densely from the raw edge
    permutation and outer-product coin blocks; route (b) is the staggered
    evolution operator assembled from the two tessellations.  Reports the
    maximum phase-invariant deviation between the two trajectories.
    """
    dim = cw.expansion.arc_count
    if psi0.dimension != dim:
        raise DimensionMismatch(dim, psi0.dimension)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    u_dense = 1j * (_dense_shift_matrix(cw) @ _dense_coin_matrix(cw))
    sqw_step = embed_coined_as_sqw(cw)
    a = psi0.amplitudes.copy()
    b = psi0.amplitudes
    worst = 0.0
    for _ in range(steps):
        a = u_dense @ a
        b = sqw_step.step_array(b)
        worst = max(worst, phase_invariant_distance(a, b))
    return EquivalenceReport(worst, steps, cw.expansion)
