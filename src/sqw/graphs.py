"""Graphs, tessellations, polygon vectors, and the clique-expansion rewrite.

A tessellation partitions the vertex set of a simple undirected graph into
cliques (polygons).  Each polygon carries a unit vector supported exactly on
its vertices; those vectors later induce orthogonal reflections.  At the API
edge a polygon is a (vertices, amplitudes) pair; inside, polygons are flat arrays.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .errors import (
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
    ZeroAmplitude,
)
from .tolerances import NORM_TOL


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices 0 .. vertex_count-1.

    Edges are stored canonically as their codes u * vertex_count + v, u < v,
    ascending and without duplicates; the edge label of an edge is its index.
    `edge_array` and `edges` are the same edges as (u, v) pairs, made on first
    use.  Construct through :func:`build_graph`.  Its arrays are read-only.
    """

    vertex_count: int
    edge_codes: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "edge_codes", _read_only(self.edge_codes))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.vertex_count == other.vertex_count and self.labels == other.labels
                and np.array_equal(self.edge_codes, other.edge_codes))

    def __hash__(self):
        return hash((self.vertex_count, self.edge_codes.tobytes(), self.labels))

    @cached_property
    def edge_array(self) -> np.ndarray:
        """(E, 2) rows (u, v), u < v, in lexicographic order."""
        return _read_only(np.stack(np.divmod(self.edge_codes, max(self.vertex_count, 1)), axis=1))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.edge_array.tolist()))

    @cached_property
    def _incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR incidence over arcs: the arcs of v are offsets[v]:offsets[v + 1], by edge
        label; arc a is entry arc_ends[a] of edge_array.ravel(), on edge arc_ends[a] // 2."""
        arc_ends = np.argsort(self.edge_array.ravel(), kind="stable")
        counts = np.bincount(self.edge_array.ravel(), minlength=self.vertex_count)
        return np.concatenate(([0], np.cumsum(counts))), arc_ends

    def has_edges(self, u, v) -> np.ndarray:
        """Elementwise edge test over arrays of endpoints; an endpoint outside g has none.

        Each code lo * n + hi is looked up by one binary search in the sorted codes.
        """
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        codes, known = np.ravel(lo * self.vertex_count), self.edge_codes  # 1-D, even for scalars
        codes += np.ravel(hi)
        found = np.zeros(codes.shape, bool)
        if len(known):
            found = known.take(np.searchsorted(known, codes), mode="clip") == codes
        if codes.size and (np.min(lo) < 0 or np.max(hi) >= self.vertex_count):
            found &= np.ravel((lo >= 0) & (hi < self.vertex_count))
        return found.reshape(np.shape(lo))[()]  # a scalar for scalar endpoints


def _read_only(values) -> np.ndarray:
    """A read-only view of values: an array a caller passed in stays writable for it."""
    view = np.asarray(values).view()
    view.flags.writeable = False
    return view


def build_graph(vertex_count: int, edges, labels=None) -> Graph:
    """Normalize an edge list (or an (E, 2) array) into a :class:`Graph`.

    Endpoints must be in range and distinct; duplicate edges collapse to one.  The keys
    u * n + v are sorted only if one pass finds they do not strictly ascend already.
    """
    if vertex_count < 0:
        raise ValueError(f"vertex_count must be non-negative, got {vertex_count}")
    n = vertex_count
    pairs = _integers(edges if isinstance(edges, np.ndarray) else list(edges), "'edges' endpoints")
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (u, v) vertex pairs")
    lo, hi = np.minimum(*pairs.T), np.maximum(*pairs.T)
    if len(pairs) and (lo.min() < 0 or hi.max() >= n or np.any(lo == hi)):
        a, b = pairs[np.argmax((lo == hi) | (lo < 0) | (hi >= n))].tolist()
        if a == b:
            raise SelfLoop(a)
        raise OutOfRangeVertex(b if 0 <= a < n else a, n)
    keys = np.multiply(lo, n, out=lo)
    keys += hi
    if not np.all(keys[1:] > keys[:-1]):  # sort; np.unique would import numpy.ma
        keys.sort()
        keys = keys[np.append(True, keys[1:] != keys[:-1])]
    if labels is not None:
        labels = tuple(map(str, _list(labels, "'labels'")))
        if len(labels) != vertex_count:
            raise ValueError("labels must have one entry per vertex")
    return Graph(vertex_count, keys, labels)


def size_blocks(starts: np.ndarray, vertices: np.ndarray) -> list:
    """Polygons of flat arrays grouped by size.

    One (polygon ids, (P, d) positions into the flat arrays, (P, d) vertices)
    triple per distinct size d, in increasing size; rows follow the polygon order.
    A size whose polygons are stored next to each other takes its vertices as a
    view of the flat array (`block_entries` does the same for other flat arrays).
    """
    sizes = np.diff(starts, append=len(vertices))
    one_size = len(sizes) and sizes.min() == sizes.max()
    blocks = []
    for d in [int(sizes[0])] if one_size else np.flatnonzero(np.bincount(sizes)).tolist():
        ids = np.arange(len(sizes)) if one_size else np.flatnonzero(sizes == d)
        if ids[-1] - ids[0] == len(ids) - 1:  # one run of polygons
            rows = np.arange(starts[ids[0]], starts[ids[0]] + d * len(ids)).reshape(-1, d)
        else:
            rows = starts[ids, None] + np.arange(d)
        blocks.append((ids, rows, block_entries(vertices, (ids, rows))))
    return blocks


def block_entries(values: np.ndarray, block) -> np.ndarray:
    """values[rows] for a `size_blocks` block (ids, rows, ...): a view of values
    when the block's polygons are stored next to each other."""
    ids, rows = block[:2]
    if ids[-1] - ids[0] == len(ids) - 1:
        return values[rows[0, 0]:rows[0, 0] + rows.size].reshape(rows.shape)
    return values[rows]


def flatten_polygons(pairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat (vertices, amplitudes, starts) of pairs, for `check_polygon_arrays` to check."""
    pairs = tuple(pairs)
    if any(len(v) != len(a) for v, a in pairs):
        raise ValueError("one amplitude per vertex required")
    return (np.array(list(chain.from_iterable(v for v, _ in pairs))),
            np.fromiter(chain.from_iterable(a for _, a in pairs), np.complex128),
            np.cumsum([0, *(len(v) for v, _ in pairs)], dtype=np.int64)[:-1])


def canonical_order(vertices: np.ndarray, amplitudes: np.ndarray, starts: np.ndarray):
    """Flat polygon arrays in canonical order, plus the stored index of each polygon.

    Each polygon's vertices ascend, its amplitudes permuted to match.  The
    polygons follow Python tuple order of their vertex tuples: a proper prefix
    first, equal tuples in stored order.  Vertices must be non-negative and
    polygons non-empty.  Round c sorts by vertex c only the polygons still
    tied, so the cost is O(V log V) for V entries whatever the sizes.
    """
    sizes = np.diff(np.append(starts, len(vertices)))
    within = np.lexsort((vertices, np.repeat(np.arange(len(starts)), sizes)))
    ordered, order = vertices[within], np.arange(len(starts))
    tied, run, column = order.copy(), np.zeros(len(starts), dtype=np.int64), 0
    while len(tied):  # order[tied] splits into runs of polygons equal so far, run-numbered
        ids = order[tied]
        key = np.where(sizes[ids] > column,
                       ordered[starts[ids] + np.minimum(column, sizes[ids] - 1)], -1)
        sort = np.lexsort((key, run))  # stable, and runs keep their positions
        order[tied], key, run = ids[sort], key[sort], run[sort]
        first = np.append(True, (run[1:] != run[:-1]) | (key[1:] != key[:-1]))
        keep = ~(first & np.append(first[1:], True)) & (key >= 0)  # tied, not exhausted
        tied, run, column = tied[keep], np.cumsum(first)[keep], column + 1
    out_sizes = sizes[order]
    out_starts = np.cumsum(out_sizes) - out_sizes
    take = within[np.repeat(starts[order] - out_starts, out_sizes) + np.arange(len(vertices))]
    return vertices[take], amplitudes[take], out_starts, order


def check_polygon_arrays(vertices, amplitudes, starts, dimension: int | None = None) -> tuple:
    """The polygon rules, applied to every polygon of flat arrays at once; returns the
    arrays as int64 vertices, complex128 amplitudes and int64 starts.

    Each polygon needs at least one vertex, one amplitude per vertex, no
    repeated vertex, no negative vertex, no zero amplitude and a norm within
    NORM_TOL of 1, as a state has.  Given a dimension, also apply
    :func:`_check_partition` on that many vertices, without a graph.
    """
    vertices = _integers(vertices, "polygon 'vertices'")
    amplitudes = np.asarray(amplitudes, dtype=np.complex128)
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.diff(np.append(starts, len(vertices)))
    if np.any(sizes <= 0) or (len(vertices) and (not len(starts) or starts[0] != 0)):
        raise EmptyPolygon("polygon must contain at least one vertex")
    if len(vertices) != len(amplitudes):
        raise ValueError("one amplitude per vertex required")
    # Only a vertex listed twice can repeat in a polygon.  One count over ~V hash slots
    # (the low bits of the V vertices) leaves only entries sharing a slot to sort.
    low, high = (vertices.min(), vertices.max()) if len(vertices) else (0, 0)
    mask = (1 << (len(vertices) - 1).bit_length()) - 1  # no slot array if the vertices fit
    counts = np.bincount(vertices if 0 <= low and high <= mask else vertices & mask)
    if np.any(counts > 1):  # not when each vertex is listed once, as in a tessellation
        shared = np.flatnonzero(counts[vertices & mask] > 1)
        pairs = np.stack((np.searchsorted(starts, shared, side="right") - 1, vertices[shared]), 1)
        pairs, counts = np.unique(pairs, axis=0, return_counts=True)  # by polygon, then vertex
        if np.any(counts > 1):
            k = pairs[np.argmax(counts > 1), 0]
            polygon = sorted(vertices[starts[k]:starts[k] + sizes[k]].tolist())
            raise ValueError(f"duplicate vertex in polygon {tuple(polygon)}")
    if low < 0:
        raise OutOfRangeVertex(int(vertices[vertices < 0][0]), "any non-negative index")
    if np.any(amplitudes == 0):
        raise ZeroAmplitude(int(vertices[amplitudes == 0][0]))
    if len(starts):  # |a|^2 as re^2 + im^2, not through abs (a hypot)
        parts = np.ascontiguousarray(amplitudes).view(np.float64)
        if sizes.min() == sizes.max():  # one row of 2d parts per polygon
            parts = parts.reshape(len(starts), -1)
            norm2 = np.einsum("ij,ij->i", parts, parts)
        else:
            norm2 = np.add.reduceat(parts * parts, 2 * starts)
        # |norm - 1| <= NORM_TOL as `state.check_norm` reads it; sqrt is monotone; NaN fails
        if not abs(math.sqrt(norm2.min()) - 1.0) <= NORM_TOL >= abs(math.sqrt(norm2.max()) - 1.0):
            bad = ~(np.abs(np.sqrt(norm2) - 1.0) <= NORM_TOL)
            raise NotNormalized(f"polygon amplitudes square-sum to {float(norm2[bad][0])!r}, not 1")
    if dimension is not None:
        _check_partition(dimension, vertices, starts)
    return vertices, amplitudes, starts


def _check_partition(n: int, vertices: np.ndarray, starts: np.ndarray, g: Graph | None = None):
    """The partition rules for non-negative flat polygons on vertices 0 .. n-1.

    Checks, in this order, that every vertex is below n (OutOfRangeVertex); given a
    graph g, that every polygon is a clique of g (NotAClique); that no vertex is in two
    polygons (OverlappingPolygons); given g, that every vertex is in one
    (UncoveredVertex).  A vertex error names the smallest offending vertex, a clique
    error the first offending polygon in canonical order and its first missing edge, so
    the verdict does not depend on polygon order.  Given g, returns the clique rule's
    :func:`size_blocks`, which the reflection compile reuses.
    """
    if len(vertices) and vertices.max() >= n:
        raise OutOfRangeVertex(int(vertices[vertices >= n].min()), n)
    blocks = []
    if g is not None:
        blocks = size_blocks(starts, vertices)
        clique = np.ones(len(starts), dtype=bool)
        for ids, rows, pv in blocks:
            i, j = np.triu_indices(rows.shape[1], 1)
            # one row per vertex pair, so that all() reduces over whole rows
            clique[ids] = np.all(g.has_edges(pv.T[i], pv.T[j]), axis=0)
        if not clique.all():
            # amplitudes play no part in the order: pass the vertices in their place
            ordered, _, ordered_starts, order = canonical_order(vertices, vertices, starts)
            k = int(np.argmin(clique[order]))
            poly = ordered[ordered_starts[k]:np.append(ordered_starts, len(ordered))[k + 1]]
            i, j = np.triu_indices(len(poly), 1)
            m = int(np.argmin(g.has_edges(poly[i], poly[j])))
            raise NotAClique(k, (int(poly[i[m]]), int(poly[j[m]])))
    counts = np.bincount(vertices, minlength=n)
    if counts.max(initial=0) > 1:
        raise OverlappingPolygons(int(np.argmax(counts > 1)))
    if g is not None and counts.min(initial=1) == 0:
        raise UncoveredVertex(int(np.argmin(counts)))
    return blocks


class PolygonArrays:
    """Polygons stored flat: polygon k holds vertices[starts[k]:starts[k + 1]]
    (the last one runs to the end) with the matching amplitudes.

    Equality and hashing compare the space named by `_space` and the
    :func:`canonical_order` arrays, computed on first use, so neither depends
    on the order in which the polygons were listed.
    """

    _space: str  # the attribute naming the space the polygons live in

    @cached_property
    def canonical(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return canonical_order(self.vertices, self.amplitudes, self.starts)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (getattr(self, self._space) == getattr(other, self._space)
                and all(map(np.array_equal, self.canonical[:3], other.canonical[:3])))

    def __hash__(self):
        vertices, amplitudes, starts, _ = self.canonical
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((getattr(self, self._space), vertices.tobytes(),
                     (amplitudes + 0.0).tobytes(), starts.tobytes()))


@dataclass(frozen=True, init=False, eq=False)
class Tessellation(PolygonArrays):
    """A list of polygons partitioning the vertices of a parent graph.

    Built from (vertices, amplitudes) pairs, as :class:`~sqw.operators.OrthogonalReflection`
    is, or from flat arrays, and stored flat and read-only (see :class:`PolygonArrays`) in
    the order given.  `polygons` is the API-edge view: a tuple of the pairs in canonical order,
    made on first use, so ``Tessellation(t.polygons, t.parent) == t``.
    """

    parent: Graph
    vertices: np.ndarray
    amplitudes: np.ndarray
    starts: np.ndarray
    _space = "parent"

    def __init__(self, pairs, parent: Graph):
        self.__dict__.update(vars(Tessellation.from_arrays(parent, *flatten_polygons(pairs))))

    @classmethod
    def from_arrays(cls, parent: Graph, vertices, amplitudes, starts) -> Tessellation:
        """Tessellation from flat arrays, each polygon checked by :func:`check_polygon_arrays`."""
        t = cls.__new__(cls)
        vertices, amplitudes, starts = check_polygon_arrays(vertices, amplitudes, starts)
        t.__dict__.update(parent=parent, vertices=_read_only(vertices),
                          amplitudes=_read_only(amplitudes), starts=_read_only(starts))
        return t

    def __len__(self) -> int:
        return len(self.starts)

    @cached_property
    def polygons(self) -> tuple[tuple[tuple[int, ...], tuple[complex, ...]], ...]:
        vertices, amplitudes, starts, _ = self.canonical
        verts, amps = vertices.tolist(), amplitudes.tolist()
        bounds = [*starts.tolist(), len(verts)]
        return tuple((tuple(verts[i:j]), tuple(amps[i:j])) for i, j in zip(bounds, bounds[1:]))

    @cached_property
    def _polygon_ids(self) -> np.ndarray:
        """The polygon index of each flat entry."""
        return np.repeat(np.arange(len(self.starts)),
                         np.diff(np.append(self.starts, len(self.vertices))))


def validate_tessellation(g: Graph, t: Tessellation) -> list:
    """Check that t partitions the vertices of g into cliques of g by :func:`_check_partition`
    (range, clique, overlap, then coverage; a vertex error names the smallest offending
    vertex), and return its :func:`size_blocks`."""
    return _check_partition(g.vertex_count, t.vertices, t.starts, g)


def union_covers_edges(g: Graph, tessellations) -> set[tuple[int, int]]:
    """Edges of g lying inside no polygon of any tessellation, in O(E) per tessellation.

    An empty result means the family is admissible (covers every edge).
    Each tessellation is validated first.
    """
    tessellations = list(tessellations)
    for t in tessellations:
        validate_tessellation(g, t)
    return set(map(tuple, _uncovered_edges(g, tessellations).tolist()))


def _uncovered_edges(g: Graph, tessellations) -> np.ndarray:
    """The (k, 2) rows of `g.edge_array` that :func:`union_covers_edges` finds, in edge
    order, for tessellations already valid on g."""
    u, v = g.edge_array.T
    covered = np.zeros(len(u), dtype=bool)
    for t in tessellations:
        owner = np.empty(g.vertex_count, dtype=np.int64)
        owner[t.vertices] = t._polygon_ids  # valid: each vertex in exactly one polygon
        covered |= owner[u] == owner[v]
    return g.edge_array[~covered]


def ring_graph(size: int) -> Graph:
    """Cycle of `size` vertices; the finite-ring stand-in for the line."""
    if size < 3:
        raise ValueError(f"ring needs at least 3 vertices, got {size}")
    tail = np.lib.stride_tricks.sliding_window_view(np.arange(1, size), 2)  # (k, k + 1)
    return build_graph(size, np.concatenate(([(0, 1), (0, size - 1)], tail)))  # canonical order


def line_tessellations(ring_size: int, alpha: float, beta: float,
                       phi0: float = 0.0, phi1: float = 0.0) -> tuple[Tessellation, Tessellation]:
    """The two nearest-neighbour tessellations of an even ring.

    The first pairs {2x, 2x+1} with amplitudes (cos a/2, e^{i phi0} sin a/2);
    the second pairs {2x+1, 2x+2 mod N} with (cos b/2, e^{i phi1} sin b/2).
    Together they cover every ring edge.
    """
    polygons = _line_polygons(ring_size, alpha, beta, phi0, phi1)
    g = ring_graph(ring_size)
    return tuple(Tessellation.from_arrays(g, *p) for p in polygons)


def _check_line_angles(alpha: float, beta: float) -> None:
    """The line's rule for its tessellation angles: each strictly inside (0, pi)."""
    for name, angle in (("alpha", alpha), ("beta", beta)):
        if not 0.0 < angle < math.pi:
            raise DegenerateAngle(name, angle)


def _line_polygons(ring_size: int, alpha: float, beta: float, phi0: float, phi1: float):
    """The flat (vertices, amplitudes, starts) of the two `line_tessellations`; the ring
    size and angles are checked here, the polygon rules by the constructor they go to."""
    if ring_size < 4 or ring_size % 2 != 0:
        raise OddRingSize(ring_size)
    _check_line_angles(alpha, beta)
    a_even = complex(math.cos(alpha / 2))
    a_odd = complex(math.cos(phi0), math.sin(phi0)) * math.sin(alpha / 2)
    b_odd = complex(math.cos(beta / 2))
    b_even = complex(math.cos(phi1), math.sin(phi1)) * math.sin(beta / 2)
    pairs = ring_size // 2
    starts = np.arange(0, ring_size, 2)
    # Pairs {1, 2}, {3, 4}, ..., {N-1, 0}, each listed odd site first.
    shifted = np.arange(1, ring_size + 1)  # 1, 2, ..., N - 1, then 0
    shifted[-1] = 0
    return ((np.arange(ring_size), np.tile([a_even, a_odd], pairs), starts),
            (shifted, np.tile([b_odd, b_even], pairs), starts))


@dataclass(frozen=True)
class ExpansionMap:
    """Bijection between arcs (vertex, incident edge) and expanded-graph vertices.

    Arcs follow the CSR incidence of the original graph: by vertex, then by
    edge label.  Row i of the (A, 2) int64 array `arcs` is the (original vertex,
    edge label) of expanded vertex i; the arcs of vertex v are offsets[v]:offsets[v + 1];
    ends[j] holds the arcs at the two ends (u, w) of edge j = (u, w).  The arrays are
    read-only.
    """

    original: Graph
    expanded: Graph
    arcs: np.ndarray = field(compare=False, repr=False)
    ends: np.ndarray = field(compare=False, repr=False)
    offsets: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        for name in ("arcs", "ends", "offsets"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    def arc_index(self, vertex: int, edge_label: int) -> int:
        """Expanded vertex of arc (vertex, edge_label); KeyError if vertex is not on that edge."""
        if 0 <= edge_label < len(self.ends):
            u, w = self.original.edge_array[edge_label].tolist()
            if vertex in (u, w):
                return int(self.ends[edge_label, int(vertex == w)])
        raise KeyError((vertex, edge_label))

    @property
    def arc_count(self) -> int:
        return 2 * len(self.ends)


def clique_expansion(g: Graph) -> ExpansionMap:
    """Replace every degree-d vertex by a d-clique.

    The expanded graph has one vertex per arc (2|E| in total).  Arcs of the
    same original vertex are pairwise adjacent; for each original edge the
    two opposite arcs are adjacent.  Vertices are labeled "v,j".
    """
    offsets, arc_ends = g._incidence
    degrees = np.diff(offsets)
    if np.any(degrees == 0):
        raise IsolatedVertex(int(np.argmin(degrees)))
    arc_count = len(arc_ends)
    ends = np.empty(arc_count, dtype=np.int64)
    ends[arc_ends] = np.arange(arc_count)
    ends = ends.reshape(-1, 2)
    pairs = [ends]
    for _, _, rows in size_blocks(offsets[:-1], np.arange(arc_count)):  # a clique per vertex
        i, j = np.triu_indices(rows.shape[1], 1)
        pairs.append(np.stack((rows[:, i].ravel(), rows[:, j].ravel()), axis=1))
    arcs = np.stack((g.edge_array.ravel()[arc_ends], arc_ends // 2), axis=1)
    expanded = build_graph(arc_count, np.concatenate(pairs),
                           [f"{v},{j}" for v, j in arcs.tolist()])
    return ExpansionMap(g, expanded, arcs, ends, offsets)


# --- JSON document format -----------------------------------------------------


def document_texts(g: Graph, tessellations=(), **extra) -> list[str]:
    """`json.dumps(doc, indent=2) + "\\n"` of the document of g and its tessellations
    followed by the `extra` keys, in pieces to be written one after another (joined,
    they would be a second copy of the text).  Polygons are written in canonical order
    (see :func:`canonical_order`).

    The text is written straight from the arrays.  Each uniform part (the edges, a
    tessellation's polygons, an extra (k, 2) int array) is one %-template filled by one
    % call: ints by %d, amplitude parts by %r (`float.__repr__`, which json writes for
    a finite float; the polygon rules keep them finite).  Labels and keys are quoted by
    json's own encoder and never pass through %.  An extra dict is written as an object
    of such values, and any other extra value by `json.dumps`.
    """
    items = {"vertices": str(g.vertex_count), "edges": _pairs(g.edge_array, "  ")}
    if g.labels is not None:
        items["labels"] = _array(list(map(_quote, g.labels)), "  ")
    if tessellations:
        items["tessellations"] = _array([_polygons(t, "    ") for t in tessellations], "  ")
    items.update((key, _value(value, "  ")) for key, value in extra.items())
    return [*_object(items, ""), "\n"]


def to_document(g: Graph, tessellations=()) -> dict:
    """The JSON document of a graph plus tessellations, as :func:`document_texts` writes it."""
    return json.loads("".join(document_texts(g, tessellations)))


def _object(items: dict, indent: str) -> list[str]:
    """An indented JSON object of key -> value text items, as texts to join."""
    inner = indent + "  "
    pieces = []
    for key, text in items.items():
        pieces += (",\n" if pieces else "{\n", inner, _quote(key), ": ", text)
    return [*pieces, f"\n{indent}}}"] if pieces else ["{}"]


def _array(items: list, indent: str) -> str:
    """An indented JSON list of `items`, each a text whose later lines carry their indent."""
    inner = indent + "  "
    separator = ",\n" + inner
    return f"[\n{inner}{separator.join(items)}\n{indent}]" if items else "[]"


def _value(value, indent: str) -> str:
    """The text of an extra value of :func:`document_texts`, its later lines at `indent`."""
    if isinstance(value, dict):
        return "".join(_object({k: _value(v, indent + "  ") for k, v in value.items()}, indent))
    if isinstance(value, np.ndarray):
        return _pairs(value, indent)
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _pairs(rows: np.ndarray, indent: str) -> str:
    """(k, 2) int rows as an indented JSON list of [a, b] lists."""
    pair = _array(["%d"] * 2, indent + "  ")
    return _array([pair] * len(rows), indent) % tuple(rows.ravel().tolist())


def _polygons(t: Tessellation, indent: str) -> str:
    """The object {"polygons": [...]} of t at `indent`: a template per polygon size, joined
    in canonical order and filled by one % call with each polygon's d vertices, then its
    2d amplitude parts."""
    vertices, amplitudes, starts, _ = t.canonical
    sizes = np.diff(starts, append=len(vertices))
    inner = indent + "    "  # of each polygon object
    pair = _array(["%r"] * 2, inner + "    ")
    by_size = {d: "".join(_object({"vertices": _array(["%d"] * d, inner + "  "),
                                   "amplitudes": _array([pair] * d, inner + "  ")}, inner))
               for d in set(sizes.tolist())}
    template = "".join(_object(
        {"polygons": _array(list(map(by_size.get, sizes.tolist())), indent + "  ")}, indent))
    values = np.empty(3 * len(vertices), dtype=object)
    slots = np.repeat(np.tile([True, False], len(sizes)), np.outer(sizes, (1, 2)).ravel())
    values[slots], values[~slots] = vertices, amplitudes.view(np.float64)
    return template % tuple(values)


def from_document(doc: dict) -> tuple[Graph, list[Tessellation]]:
    """Parse the JSON document schema; absent amplitudes default to uniform.

    Malformed content (a missing key, a non-list where a list belongs, a
    non-integer vertex id, an amplitude that is not a [re, im] pair of
    numbers) raises ValueError naming the field.
    """
    count = _field(doc, "vertices", "graph document")
    if not isinstance(count, int) or isinstance(count, bool):
        raise ValueError(f"graph 'vertices' must be an integer, got {count!r}")
    g = build_graph(count, _list(doc.get("edges", []), "'edges'"), doc.get("labels"))
    return g, [Tessellation.from_arrays(g, *parse_polygons(_field(t, "polygons", "tessellation")))
               for t in _list(doc.get("tessellations", []), "'tessellations'")]


def _field(doc, key: str, what: str):
    """doc[key], or a ValueError naming the missing key."""
    try:
        return doc[key]
    except (KeyError, TypeError):
        raise ValueError(f"{what} needs a {key!r} key") from None


_LIST = (list, tuple)  # the types a document list may have


def _list(value, what: str):
    """value if it is a list (or tuple), else a ValueError naming `what`."""
    if not isinstance(value, _LIST):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _integers(values, what: str) -> np.ndarray:
    """values as an int64 array, or a ValueError naming `what` if one is not an integer."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers")
    return values.astype(np.int64, copy=False)


def parse_polygons(docs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat (vertices, amplitudes, starts) arrays of polygon documents.

    Each document is {"vertices": [...], "amplitudes": [[re, im], ...]}; absent
    amplitudes default to the uniform superposition 1/sqrt(size).  The lists are
    read whole, not polygon by polygon; a malformed document raises the error of
    the first offending polygon, as :func:`_check_polygon_docs` finds it.
    """
    docs = _list(docs, "tessellation 'polygons'")
    try:
        vertex_lists = [pdoc["vertices"] for pdoc in docs]
        carries = [*map(operator.contains, docs, repeat("amplitudes"))]
        given = [pdoc["amplitudes"] for pdoc in compress(docs, carries)]
        well_formed = all(map(isinstance, chain(vertex_lists, given), repeat(_LIST))) \
            and [*map(len, given)] == [*map(len, compress(vertex_lists, carries))]
    except (KeyError, TypeError):
        well_formed = False
    if not well_formed:
        _check_polygon_docs(docs)
    sizes = np.fromiter(map(len, vertex_lists), np.int64, len(vertex_lists))
    # 1.0 / sqrt(size) as math computes it: both operations are correctly rounded
    amplitudes = np.repeat(1.0 / np.sqrt(np.maximum(sizes, 1)), sizes).astype(np.complex128)
    pairs = list(chain.from_iterable(given))
    if pairs:
        count = len(pairs)
        if count < len(amplitudes):
            # one uniform pair stands for all: numpy then infers the dtype the whole list
            # of pairs has (a bool part beside a float part reads as a float)
            pairs.append([1.0, 0.0])
        message = "polygon 'amplitudes' must be [re, im] pairs of numbers"
        try:
            pairs = np.asarray(pairs)
        except ValueError:  # ragged entries
            raise ValueError(message) from None
        if pairs.dtype.kind not in "iuf" or pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(message)
        amplitudes[np.repeat(carries, sizes)] = \
            pairs[:count].astype(np.float64).view(np.complex128).ravel()
    return (_integers(list(chain.from_iterable(vertex_lists)), "polygon 'vertices'"),
            amplitudes, np.cumsum(sizes) - sizes)


def _check_polygon_docs(docs) -> None:
    """Raise the error of the first polygon document without a 'vertices' list, or with an
    'amplitudes' entry that is not a list of one amplitude per vertex."""
    for pdoc in docs:
        vertices = _list(_field(pdoc, "vertices", "polygon"), "polygon 'vertices'")
        if "amplitudes" in pdoc and \
                len(_list(pdoc["amplitudes"], "polygon 'amplitudes'")) != len(vertices):
            raise ValueError("one amplitude per vertex required")
