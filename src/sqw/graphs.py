"""Graphs, tessellations, polygon vectors, and the clique-expansion rewrite.

A tessellation partitions the vertex set of a simple undirected graph into
cliques (polygons).  Each polygon carries a unit vector supported exactly on
its vertices; those vectors later induce orthogonal reflections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

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

    Edges are stored canonically as an (E, 2) integer array of (min, max)
    rows in lexicographic order, with no duplicates and no self-loops; the
    edge label of an edge is its row.  Construct through :func:`build_graph`.
    """

    vertex_count: int
    edge_array: np.ndarray
    labels: tuple[str, ...] | None = None

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.vertex_count == other.vertex_count and self.labels == other.labels
                and np.array_equal(self.edge_array, other.edge_array))

    def __hash__(self):
        return hash((self.vertex_count, self.edges, self.labels))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.edge_array.tolist()))

    @cached_property
    def edge_keys(self) -> np.ndarray:
        """u * vertex_count + v for each edge (u, v), ascending."""
        return self.edge_array[:, 0] * self.vertex_count + self.edge_array[:, 1]

    @cached_property
    def _incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR incidence over arcs: the arcs of v are offsets[v]:offsets[v + 1], by edge
        label; arc a is entry arc_ends[a] of edge_array.ravel(), on edge arc_ends[a] // 2."""
        arc_ends = np.argsort(self.edge_array.ravel(), kind="stable")
        counts = np.bincount(self.edge_array.ravel(), minlength=self.vertex_count)
        return np.concatenate(([0], np.cumsum(counts))), arc_ends

    def has_edges(self, u, v) -> np.ndarray:
        """Elementwise has_edge over arrays of endpoints."""
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = lo * self.vertex_count + hi
        pos = np.minimum(np.searchsorted(self.edge_keys, keys), len(self.edge_keys) - 1)
        found = self.edge_keys[pos] == keys if len(self.edge_keys) else np.zeros(keys.shape, bool)
        return found & (lo >= 0) & (hi < self.vertex_count)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.has_edges(np.array([u]), np.array([v]))[0])

    def degree(self, v: int) -> int:
        return len(self.incident_edges(v))

    def degrees(self) -> list[int]:
        return np.diff(self._incidence[0]).tolist()

    def incident_edges(self, v: int) -> list[int]:
        """Indices (labels) of the edges touching v, in canonical edge order.

        A vertex outside the graph touches no edge.
        """
        if not 0 <= v < self.vertex_count:
            return []
        offsets, arc_ends = self._incidence
        return (arc_ends[offsets[v]:offsets[v + 1]] // 2).tolist()


def build_graph(vertex_count: int, edges, labels=None) -> Graph:
    """Normalize an edge list (or an (E, 2) array) into a :class:`Graph`.

    Endpoints must be in range and distinct; duplicate edges collapse to one.
    """
    if vertex_count < 0:
        raise ValueError(f"vertex_count must be non-negative, got {vertex_count}")
    n = vertex_count
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (u, v) vertex pairs")
    u, v = pairs[:, 0], pairs[:, 1]
    bad = (u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)
    if bad.any():
        a, b = pairs[np.argmax(bad)].tolist()
        if a == b:
            raise SelfLoop(a)
        raise OutOfRangeVertex(b if 0 <= a < n else a, n)
    keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    keys = keys[np.append(True, keys[1:] != keys[:-1])] if len(keys) else keys
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != vertex_count:
            raise ValueError("labels must have one entry per vertex")
    return Graph(vertex_count, np.stack(np.divmod(keys, max(n, 1)), axis=1), labels)


@dataclass(frozen=True)
class Polygon:
    """One tessellation element: vertices plus the amplitudes of its unit vector.

    Stored sorted by vertex with amplitudes permuted to match.  Amplitudes
    must be nonzero on every vertex and square-sum to 1 within 1e-12; inputs
    outside tolerance are rejected, never renormalized.
    """

    vertices: tuple[int, ...]
    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        check_polygon_arrays(np.asarray(self.vertices, dtype=np.int64),
                             np.asarray(self.amplitudes, dtype=np.complex128),
                             np.zeros(1, dtype=np.int64))
        self._sort(self.vertices, self.amplitudes)

    def _sort(self, vertices, amplitudes) -> Polygon:
        order = sorted(range(len(vertices)), key=vertices.__getitem__)
        object.__setattr__(self, "vertices", tuple(int(vertices[i]) for i in order))
        object.__setattr__(self, "amplitudes", tuple(complex(amplitudes[i]) for i in order))
        return self

    def __len__(self) -> int:
        return len(self.vertices)


def uniform_polygon(vertices) -> Polygon:
    """Polygon in the uniform superposition: each amplitude is 1/sqrt(size)."""
    vertices = tuple(vertices)
    if not vertices:
        raise EmptyPolygon("cannot build a uniform polygon on an empty vertex set")
    a = 1.0 / math.sqrt(len(vertices))
    return Polygon(vertices, (complex(a),) * len(vertices))


def size_blocks(starts: np.ndarray, total: int) -> list:
    """Polygons of flat arrays grouped by size.

    One (size d, polygon ids, (P, d) positions into the flat arrays) triple
    per distinct size, in increasing size; rows follow the polygon order.
    """
    sizes = np.diff(np.append(starts, total))
    blocks = []
    for d in np.flatnonzero(np.bincount(sizes)).tolist():
        ids = np.flatnonzero(sizes == d)
        blocks.append((d, ids, starts[ids, None] + np.arange(d)))
    return blocks


def flatten_polygons(pairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat (vertices, amplitudes, starts) arrays of (vertices, amplitudes) pairs."""
    pairs = tuple(pairs)
    if any(len(v) != len(a) for v, a in pairs):
        raise ValueError("one amplitude per vertex required")
    return (np.fromiter(chain.from_iterable(v for v, _ in pairs), np.int64),
            np.fromiter(chain.from_iterable(a for _, a in pairs), np.complex128),
            np.cumsum([0, *(len(v) for v, _ in pairs)])[:-1])


def split_polygons(vertices: np.ndarray, amplitudes: np.ndarray, starts: np.ndarray) -> list:
    """(vertices, amplitudes) tuple pairs of flat arrays, one per polygon, in stored order."""
    v, a = vertices.tolist(), amplitudes.tolist()
    bounds = zip(starts.tolist(), [*starts.tolist()[1:], len(v)])
    return [(tuple(v[i:j]), tuple(a[i:j])) for i, j in bounds]


def check_polygon_arrays(vertices: np.ndarray, amplitudes: np.ndarray, starts: np.ndarray,
                         dimension: int | None = None) -> None:
    """The polygon rules, applied to every polygon of flat arrays at once.

    Each polygon needs at least one vertex, one amplitude per vertex, no
    repeated vertex, no negative vertex, no zero amplitude and a square-sum
    of 1 within NORM_TOL.  Given a dimension, also require every vertex below
    it and no vertex in two polygons.  :class:`Polygon` checks through here.
    """
    sizes = np.diff(np.append(starts, len(vertices)))
    if np.any(sizes <= 0) or (len(vertices) and (not len(starts) or starts[0] != 0)):
        raise EmptyPolygon("polygon must contain at least one vertex")
    if len(vertices) != len(amplitudes):
        raise ValueError("one amplitude per vertex required")
    for _, _, rows in size_blocks(starts, len(vertices)):
        ordered = np.sort(vertices[rows], axis=1)
        dup = np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)
        if dup.any():
            raise ValueError(f"duplicate vertex in polygon {tuple(ordered[dup][0].tolist())}")
    if np.any(vertices < 0):
        raise OutOfRangeVertex(int(vertices[vertices < 0][0]), "any non-negative index")
    if np.any(amplitudes == 0):
        raise ZeroAmplitude(int(vertices[amplitudes == 0][0]))
    if len(starts):
        norm2 = np.add.reduceat(np.abs(amplitudes) ** 2, starts)
        bad = np.abs(norm2 - 1.0) > NORM_TOL
        if bad.any():
            raise NotNormalized(f"polygon amplitudes square-sum to {norm2[bad][0]!r}, not 1")
    if dimension is not None:
        counts = np.bincount(vertices, minlength=dimension)
        if len(counts) > dimension:
            raise OutOfRangeVertex(int(vertices.max()), dimension)
        if np.any(counts > 1):
            raise OverlappingPolygons(int(np.argmax(counts > 1)))


@dataclass(frozen=True, init=False, eq=False)
class Tessellation:
    """A list of polygons partitioning the vertices of a parent graph.

    Stored flat: polygon k holds vertices[starts[k]:starts[k + 1]] (the last
    one runs to the end) with the matching amplitudes.  The `polygons` tuple
    of :class:`Polygon` objects, sorted by vertex tuple, is built on first use.
    """

    parent: Graph
    vertices: np.ndarray
    amplitudes: np.ndarray
    starts: np.ndarray

    def __init__(self, polygons, parent: Graph):
        polygons = tuple(sorted(polygons, key=lambda p: p.vertices))
        self._set(parent, *flatten_polygons((p.vertices, p.amplitudes) for p in polygons))
        self.__dict__["polygons"] = polygons

    @classmethod
    def from_arrays(cls, parent: Graph, vertices, amplitudes, starts) -> Tessellation:
        """Tessellation from flat arrays, each polygon checked as :class:`Polygon` checks it."""
        t = cls.__new__(cls)
        t._set(parent, np.asarray(vertices, dtype=np.int64),
               np.asarray(amplitudes, dtype=np.complex128), np.asarray(starts, dtype=np.int64))
        check_polygon_arrays(t.vertices, t.amplitudes, t.starts)
        return t

    def _set(self, parent, vertices, amplitudes, starts):
        self.__dict__.update(parent=parent, vertices=vertices, amplitudes=amplitudes,
                             starts=starts)

    def __eq__(self, other):
        if not isinstance(other, Tessellation):
            return NotImplemented
        return self.parent == other.parent and self.polygons == other.polygons

    def __hash__(self):
        return hash((self.parent, self.polygons))

    def __len__(self) -> int:
        return len(self.starts)

    @cached_property
    def polygons(self) -> tuple[Polygon, ...]:
        pairs = split_polygons(self.vertices, self.amplitudes, self.starts)
        # The arrays passed the polygon rules already; only sort each polygon.
        polygons = (Polygon.__new__(Polygon)._sort(*pair) for pair in pairs)
        return tuple(sorted(polygons, key=lambda p: p.vertices))

    @cached_property
    def _owner(self) -> np.ndarray | None:
        """Vertex -> polygon index (-1 where none); None when polygons overlap."""
        size = max(self.parent.vertex_count, int(self.vertices.max(initial=-1)) + 1)
        if np.any(np.bincount(self.vertices, minlength=size) > 1):
            return None
        owner = np.full(size, -1)
        sizes = np.diff(np.append(self.starts, len(self.vertices)))
        owner[self.vertices] = np.repeat(np.arange(len(sizes)), sizes)
        return owner

    def covers(self, u: int, v: int) -> bool:
        """Whether some polygon contains both endpoints; O(1) via the vertex index."""
        owner = self._owner
        if owner is None:
            return any(u in p.vertices and v in p.vertices for p in self.polygons)
        inside = 0 <= u < len(owner) and 0 <= v < len(owner)
        return inside and owner[u] >= 0 and owner[u] == owner[v]


def validate_tessellation(g: Graph, t: Tessellation) -> None:
    """Check the partition-into-cliques conditions in one vectorised pass.

    Checks, in this order, that every vertex is in range (else
    OutOfRangeVertex), every polygon is a clique (NotAClique), no vertex is in
    two polygons (OverlappingPolygons) and every vertex is in one
    (UncoveredVertex).  A vertex error names the smallest offending vertex; a
    clique error the first offending polygon in canonical order (sorted
    vertex tuples).  So the verdict does not depend on polygon order.
    """
    n, verts = g.vertex_count, t.vertices
    if np.any(verts >= n):
        raise OutOfRangeVertex(int(verts[verts >= n].min()), n)
    offending = []
    for d, ids, rows in size_blocks(t.starts, len(verts)):
        i, j = np.triu_indices(d, 1)
        pv = verts[rows]
        offending.extend(ids[~np.all(g.has_edges(pv[:, i], pv[:, j]), axis=1)].tolist())
    if offending:
        pairs = split_polygons(verts, t.amplitudes, t.starts)
        poly = min(tuple(sorted(pairs[k][0])) for k in offending)
        missing = next((u, v) for a, u in enumerate(poly) for v in poly[a + 1:]
                       if not g.has_edge(u, v))
        raise NotAClique([p.vertices for p in t.polygons].index(poly), missing)
    counts = np.bincount(verts, minlength=n)
    if np.any(counts > 1):
        raise OverlappingPolygons(int(np.argmax(counts > 1)))
    if np.any(counts == 0):
        raise UncoveredVertex(int(np.argmin(counts)))


def union_covers_edges(g: Graph, tessellations) -> set[tuple[int, int]]:
    """Edges of g lying inside no polygon of any tessellation, in O(E) per tessellation.

    An empty result means the family is admissible (covers every edge).
    Each tessellation is validated first.
    """
    tessellations = list(tessellations)
    for t in tessellations:
        validate_tessellation(g, t)
    u, v = g.edge_array.T
    covered = np.zeros(len(u), dtype=bool)
    for t in tessellations:
        owner = t._owner
        covered |= owner[u] == owner[v]
    return set(map(tuple, g.edge_array[~covered].tolist()))


def ring_graph(size: int) -> Graph:
    """Cycle of `size` vertices; the finite-ring stand-in for the line."""
    if size < 3:
        raise ValueError(f"ring needs at least 3 vertices, got {size}")
    i = np.arange(size)
    return build_graph(size, np.stack((i, (i + 1) % size), axis=1))


def line_tessellations(ring_size: int, alpha: float, beta: float,
                       phi0: float = 0.0, phi1: float = 0.0) -> tuple[Tessellation, Tessellation]:
    """The two nearest-neighbour tessellations of an even ring.

    The first pairs {2x, 2x+1} with amplitudes (cos a/2, e^{i phi0} sin a/2);
    the second pairs {2x+1, 2x+2 mod N} with (cos b/2, e^{i phi1} sin b/2).
    Together they cover every ring edge.
    """
    if ring_size < 4 or ring_size % 2 != 0:
        raise OddRingSize(ring_size)
    for name, angle in (("alpha", alpha), ("beta", beta)):
        if not 0.0 < angle < math.pi:
            raise DegenerateAngle(name, angle)
    g = ring_graph(ring_size)
    a_even = complex(math.cos(alpha / 2))
    a_odd = complex(math.cos(phi0), math.sin(phi0)) * math.sin(alpha / 2)
    b_odd = complex(math.cos(beta / 2))
    b_even = complex(math.cos(phi1), math.sin(phi1)) * math.sin(beta / 2)
    pairs = ring_size // 2
    starts = np.arange(0, ring_size, 2)
    first = Tessellation.from_arrays(g, np.arange(ring_size), np.tile([a_even, a_odd], pairs),
                                     starts)
    # Pairs {1, 2}, {3, 4}, ..., {N-1, 0}, each listed odd site first.
    second = Tessellation.from_arrays(g, (np.arange(ring_size) + 1) % ring_size,
                                      np.tile([b_odd, b_even], pairs), starts)
    return first, second


@dataclass(frozen=True)
class ExpansionMap:
    """Bijection between arcs (vertex, incident edge) and expanded-graph vertices.

    Arcs follow the CSR incidence of the original graph: by vertex, then by
    edge label.  `arcs[i]` is the (original vertex, edge label) pair at
    expanded vertex i; the arcs of vertex v are offsets[v]:offsets[v + 1];
    ends[j] holds the arcs at the two ends (u, w) of edge j = (u, w).
    """

    original: Graph
    expanded: Graph
    arcs: tuple[tuple[int, int], ...] = field(compare=False, repr=False)
    ends: np.ndarray = field(compare=False, repr=False)
    offsets: np.ndarray = field(compare=False, repr=False)

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
    for d, _, rows in size_blocks(offsets[:-1], arc_count):  # the arcs of a vertex are a clique
        i, j = np.triu_indices(d, 1)
        pairs.append(np.stack((rows[:, i].ravel(), rows[:, j].ravel()), axis=1))
    arcs = tuple(zip(g.edge_array.ravel()[arc_ends].tolist(), (arc_ends // 2).tolist()))
    expanded = build_graph(arc_count, np.concatenate(pairs), [f"{v},{j}" for v, j in arcs])
    return ExpansionMap(g, expanded, arcs, ends, offsets)


# --- JSON document format -----------------------------------------------------


def to_document(g: Graph, tessellations=()) -> dict:
    """Serialize a graph plus tessellations to the JSON document schema."""
    doc = {
        "vertices": g.vertex_count,
        "edges": g.edge_array.tolist(),
    }
    if g.labels is not None:
        doc["labels"] = list(g.labels)
    if tessellations:
        doc["tessellations"] = [
            {
                "polygons": [
                    {
                        "vertices": list(p.vertices),
                        "amplitudes": [[a.real, a.imag] for a in p.amplitudes],
                    }
                    for p in t.polygons
                ]
            }
            for t in tessellations
        ]
    return doc


def from_document(doc: dict) -> tuple[Graph, list[Tessellation]]:
    """Parse the JSON document schema; absent amplitudes default to uniform."""
    g = build_graph(int(_field(doc, "vertices", "graph document")), doc.get("edges", []),
                    doc.get("labels"))
    return g, [Tessellation.from_arrays(g, *parse_polygons(_field(t, "polygons", "tessellation")))
               for t in doc.get("tessellations", [])]


def _field(doc, key: str, what: str):
    """doc[key], or a ValueError naming the missing key."""
    try:
        return doc[key]
    except (KeyError, TypeError):
        raise ValueError(f"{what} needs a {key!r} key") from None


def parse_polygons(docs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat (vertices, amplitudes, starts) arrays of polygon documents.

    Each document is {"vertices": [...], "amplitudes": [[re, im], ...]}; absent
    amplitudes default to the uniform superposition.
    """
    pairs = []
    for pdoc in docs:
        verts = [int(v) for v in _field(pdoc, "vertices", "polygon")]
        if "amplitudes" in pdoc:
            amps = [complex(re, im) for re, im in pdoc["amplitudes"]]
        else:
            amps = [1.0 / math.sqrt(len(verts))] * len(verts) if verts else []
        pairs.append((verts, amps))
    return flatten_polygons(pairs)
