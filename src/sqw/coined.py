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

from .errors import DimensionMismatch, OutOfRangeVertex, UnsupportedCoin
from .graphs import ExpansionMap, Graph, Tessellation, clique_expansion, parse_polygons
from .operators import EvolutionOperator, OrthogonalReflection, compose, \
    reflection_from_tessellation
from .state import WalkState


def shift_tessellation(expansion: ExpansionMap) -> Tessellation:
    """One uniform polygon {(v,a), (v',a)} per original edge, on the expansion."""
    ends = expansion.ends.ravel()
    return Tessellation.from_arrays(expansion.expanded, ends,
                                    np.full(len(ends), 1.0 / math.sqrt(2)),
                                    np.arange(0, len(ends), 2))


def coin_tessellation(expansion: ExpansionMap) -> Tessellation:
    """One uniform polygon per original vertex over all of its arcs.

    The induced reflection restricted to a degree-d vertex is the d-dimensional
    Grover matrix (2/d) J - I.
    """
    degrees = np.diff(expansion.offsets)
    return Tessellation.from_arrays(expansion.expanded, np.arange(expansion.arc_count),
                                    np.repeat(1.0 / np.sqrt(degrees), degrees),
                                    expansion.offsets[:-1])


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
    tessellations: tuple[Tessellation, Tessellation]  # (shift, coin): they induce the two above

    def __post_init__(self):
        dim = 2 * len(self.graph.edge_array)
        for refl in (self.coin_reflection, self.shift):
            if refl.dimension != dim:
                raise DimensionMismatch(dim, refl.dimension)


def _coined_walk(expansion: ExpansionMap, theta: float, coin: Tessellation) -> CoinedWalk:
    """The walk with coin tessellation `coin`; each polygon must lie in one vertex's arcs."""
    arcs, dim = coin.vertices, expansion.arc_count
    if np.any(arcs >= dim):
        raise OutOfRangeVertex(int(arcs[arcs >= dim].min()), dim)
    owner = np.repeat(np.arange(expansion.original.vertex_count), np.diff(expansion.offsets))[arcs]
    spans = np.minimum.reduceat(owner, coin.starts) != np.maximum.reduceat(owner, coin.starts)
    if spans.any():
        k = np.split(np.arange(len(arcs)), coin.starts[1:])[np.argmax(spans)]
        raise UnsupportedCoin(
            f"coin polygon {tuple(sorted(arcs[k].tolist()))} spans arcs of vertices "
            f"{sorted(set(owner[k].tolist()))}; a coin must act within one vertex's arc set")
    shift = shift_tessellation(expansion)
    return CoinedWalk(expansion.original, float(theta), reflection_from_tessellation(coin),
                      reflection_from_tessellation(shift), expansion, (shift, coin))


def grover_coined_walk(g: Graph, theta: float = math.pi / 2) -> CoinedWalk:
    """Coined walk with the Grover reflection coin exp(i theta G) per vertex.

    theta = pi/2 gives the usual Grover coin (up to a global phase); on
    degree-2 vertices the block is the Pauli X, so theta there realizes the
    one-dimensional exp(i theta X) coin.
    """
    expansion = clique_expansion(g)
    return _coined_walk(expansion, theta, coin_tessellation(expansion))


def reflection_coined_walk(g: Graph, theta: float, polygons) -> CoinedWalk:
    """Coined walk from explicit arc-space coin polygons.

    Every polygon must sit inside a single vertex's arc set (a coin never
    moves the walker); anything else is not a coin and raises UnsupportedCoin.
    An arc beyond the arc space raises OutOfRangeVertex.
    """
    expansion = clique_expansion(g)
    return _coined_walk(expansion, theta, Tessellation(polygons, expansion.expanded))


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
        expansion = clique_expansion(g)
        coin = parse_polygons(descriptor["polygons"])
        return _coined_walk(expansion, float(descriptor["theta"]),
                            Tessellation.from_arrays(expansion.expanded, *coin))
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


def phase_invariant_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over phases of ||a - e^{i phi} b||.

    The minimizing phase is the argument of <b|a>; the norm is taken on the
    aligned difference directly, which stays accurate for nearly identical
    vectors where sqrt(2 - 2|<a|b>|) would lose half the digits.
    """
    inner = np.vdot(a, b)
    phase = np.conj(inner) / abs(inner) if abs(inner) > 0 else 1.0
    return float(np.linalg.norm(a - phase * b))


def coined_step(cw: CoinedWalk):
    """The coined step psi -> i S exp(i theta H_coin) psi on 1-D arrays, in O(arcs).

    S is the arc swap read from the expansion's edge ends; the coin acts by
    segment sums over its polygon vectors.  No tessellation and no reflection
    kernel takes part: this is route (a) of :func:`certify_equivalence`.
    """
    ends = cw.expansion.ends
    swap = np.empty(cw.expansion.arc_count, dtype=np.intp)
    swap[ends] = ends[:, ::-1]
    h = cw.coin_reflection
    ids = np.repeat(np.arange(len(h.starts)), np.diff(np.append(h.starts, len(h.vertices))))
    cos, sin = math.cos(cw.coin_angle), math.sin(cw.coin_angle)

    def step(psi: np.ndarray) -> np.ndarray:
        overlaps = np.zeros(len(h.starts), dtype=np.complex128)
        np.add.at(overlaps, ids, h.amplitudes.conj() * psi[h.vertices])
        reflected = -psi  # H psi = 2 sum_k <a_k|psi> a_k - psi; supports are disjoint
        reflected[h.vertices] += 2.0 * h.amplitudes * overlaps[ids]
        return 1j * (cos * psi + 1j * sin * reflected)[swap]

    return step


def certify_equivalence(cw: CoinedWalk, steps: int, psi0: WalkState) -> EquivalenceReport:
    """Numerically certify coined step == staggered step on the expansion.

    Route (a) is :func:`coined_step`, built from the raw edge ends and the
    coin's polygon vectors; route (b) is the staggered evolution operator
    assembled from the two tessellations, run by `simulation.evolve_final`,
    with route (a) advanced by its observer; both cost O(arcs) per step.
    Reports the maximum phase-invariant deviation between the two trajectories.
    """
    # imported here: importing simulation with this module, ahead of line_analytic,
    # raised the peak RSS of each sqwbench line-long session by 0.35 MiB
    from .simulation import evolve_final

    coined = coined_step(cw)
    a, worst = psi0.amplitudes, 0.0

    def compare(step: int, b: np.ndarray) -> None:
        nonlocal a, worst
        if step:
            a = coined(a)
            worst = max(worst, phase_invariant_distance(a, b))

    evolve_final(embed_coined_as_sqw(cw), psi0, steps, [compare])
    return EquivalenceReport(worst, steps, cw.expansion)
