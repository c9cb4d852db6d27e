"""Shared builders and independent dense oracles for the test suite."""

from __future__ import annotations

import cmath
import math

import numpy as np

from sqw import OrthogonalReflection, build_graph
from sqw.graphs import _field, _integers, _list
from sqw.operators import ActiveSupport


# amplitude parts a writer could get wrong, and label texts that a quoting writer or a
# %-template could: %, a quote, a backslash, a newline, non-ASCII, a lone surrogate, none
SPECIAL_PARTS = [-0.0, 5e-324, 0.1 + 0.2]
SPECIAL_LABELS = ["%d", "%s%%", '"', "\\", "\n", "\u00e9", "\ud83d", ""]


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def hub_fragment():
    """Degree-5 hub joined to a degree-3 hub, all other edges pendant."""
    return build_graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (1, 7)])


def uniform(*vertices):
    """(vertices, amplitudes) pair of the uniform superposition on the given vertices."""
    return vertices, (1.0 / math.sqrt(max(len(vertices), 1)),) * len(vertices)


def polygon_pairs(h: OrthogonalReflection):
    """(support, amplitudes) array pairs, one per polygon, cut from the flat arrays."""
    return zip(np.split(h.vertices, h.starts[1:]), np.split(h.amplitudes, h.starts[1:]))


def dense_reflection(h: OrthogonalReflection) -> np.ndarray:
    """Independent dense oracle: 2 sum |v><v| - I from explicit outer products."""
    out = -np.eye(h.dimension, dtype=np.complex128)
    for support, amplitudes in polygon_pairs(h):
        v = np.zeros(h.dimension, dtype=np.complex128)
        v[support] = amplitudes
        out += 2.0 * np.outer(v, np.conj(v))
    return out


def segment_sum_exp(h: OrthogonalReflection, theta: float, psi: np.ndarray) -> np.ndarray:
    """Independent oracle: exp(i theta H) psi = e^{-i theta} psi + 2i sin(theta) sum_k
    <a_k|psi> a_k, the overlaps summed with np.add.at over polygon ids.

    Reads only h.vertices, h.amplitudes and h.starts, none of the arrays the
    kernel compiles from them; O(n) per call, so it runs at any size.
    """
    ids = np.repeat(np.arange(len(h.starts)), np.diff(np.append(h.starts, len(h.vertices))))
    overlaps = np.zeros(len(h.starts), dtype=np.complex128)
    np.add.at(overlaps, ids, np.conj(h.amplitudes) * psi[h.vertices])
    out = cmath.exp(-1j * theta) * psi
    out[h.vertices] += 2j * math.sin(theta) * h.amplitudes * overlaps[ids]
    return out


def segment_sum_evolve(u, psi: np.ndarray, steps: int) -> np.ndarray:
    """U^steps psi by :func:`segment_sum_exp`, factor by factor, first factor first."""
    for _ in range(steps):
        for f in u.factors:
            psi = segment_sum_exp(f.reflection, f.theta, psi)
    return psi


def every_site_step(u, psi: np.ndarray) -> np.ndarray:
    """One step of u on every site, through a support whose window is every site, (0, n),
    whatever sites psi holds: the every-site update that a windowed step must equal bit
    for bit (an exact zero may differ in sign)."""
    support = ActiveSupport(psi)
    support.window = (0, u.dimension)
    return u.step_array(psi, support)


def random_reflection(rng, dimension, cover_all=True) -> OrthogonalReflection:
    """Reflection from a random partition with random unit amplitudes."""
    order = rng.permutation(dimension)
    cut = dimension if cover_all else int(rng.integers(1, dimension + 1))
    covered, vectors = order[:cut], []
    pos = 0
    while pos < len(covered):
        size = int(rng.integers(1, min(4, len(covered) - pos) + 1))
        support = sorted(int(v) for v in covered[pos:pos + size])
        amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        while np.any(np.abs(amps) < 1e-3):  # keep the nonzero-support condition honest
            amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        amps = amps / np.linalg.norm(amps)
        vectors.append((tuple(support), tuple(complex(a) for a in amps)))
        pos += size
    return OrthogonalReflection(dimension, tuple(vectors))


def random_state_array(rng, dimension) -> np.ndarray:
    raw = rng.standard_normal(dimension) + 1j * rng.standard_normal(dimension)
    return raw / np.linalg.norm(raw)


def grid_graph(m, relabel=None):
    """The m x m grid, vertex r*m + c renamed relabel[r*m + c] when given."""
    name = list(range(m * m)) if relabel is None else [int(v) for v in relabel]
    edges = [(name[r * m + c], name[r * m + c + 1]) for r in range(m) for c in range(m - 1)]
    edges += [(name[r * m + c], name[(r + 1) * m + c]) for r in range(m - 1) for c in range(m)]
    return build_graph(m * m, edges)


def dense_shift_matrix(cw) -> np.ndarray:
    """Dense oracle: S as a permutation matrix straight from the edge list (no polygons)."""
    dim = cw.expansion.arc_count
    s = np.zeros((dim, dim), dtype=np.complex128)
    for j, (u, w) in enumerate(cw.graph.edges):
        a, b = cw.expansion.arc_index(u, j), cw.expansion.arc_index(w, j)
        s[a, b] = 1.0
        s[b, a] = 1.0
    return s


def dense_coin_matrix(cw) -> np.ndarray:
    """Dense oracle: exp(i theta H_coin) from outer products of the coin's polygon vectors."""
    dim = cw.expansion.arc_count
    h = -np.eye(dim, dtype=np.complex128)
    for support, amplitudes in polygon_pairs(cw.coin_reflection):
        v = np.zeros(dim, dtype=np.complex128)
        v[support] = amplitudes
        h += 2.0 * np.outer(v, np.conj(v))
    return math.cos(cw.coin_angle) * np.eye(dim) + 1j * math.sin(cw.coin_angle) * h


def dense_szegedy_walk(p: np.ndarray, q: np.ndarray, edges) -> np.ndarray:
    """Dense oracle: Szegedy's step W = R_B R_A, restricted to the edges (x, y) listed.

    p is an |X| x |Y| and q a |Y| x |X| stochastic matrix, zero off the edges.  On
    C^|X| (x) C^|Y|, R_A = 2 sum_x |alpha_x><alpha_x| - I with alpha_x = sum_y sqrt(p_xy)
    |x, y>, and R_B = 2 sum_y |beta_y><beta_y| - I with beta_y = sum_x sqrt(q_yx) |x, y>.
    Both fix every non-edge |x, y> up to sign, so the edges span an invariant subspace;
    row and column i of the result belong to edges[i].
    """
    nx, ny = p.shape
    r_a, r_b = -np.eye(nx * ny), -np.eye(nx * ny)
    for x in range(nx):
        alpha = np.kron(np.eye(nx)[x], np.sqrt(p[x]))
        r_a += 2.0 * np.outer(alpha, alpha)
    for y in range(ny):
        beta = np.kron(np.sqrt(q[y]), np.eye(ny)[y])
        r_b += 2.0 * np.outer(beta, beta)
    index = [x * ny + y for x, y in edges]
    return (r_b @ r_a)[np.ix_(index, index)]


def direct_momentum_sum(k, weight, even, odd, positions) -> np.ndarray:
    """Independent oracle for momentum sums: sum_j weight c_j e^{-i x k_j} term by term.

    c is `even` at even positions x and `odd` at odd ones.  Positions are
    taken in blocks so the phase matrix stays small.
    """
    positions = np.asarray(positions, dtype=np.int64)
    out = np.empty(len(positions), dtype=np.complex128)
    for lo in range(0, len(positions), 256):
        block = positions[lo:lo + 256]
        phases = np.exp(-1j * np.outer(block, k))
        out[lo:lo + 256] = weight * np.where(block % 2 == 0, phases @ even, phases @ odd)
    return out


def reference_parse_polygons(docs):
    """Independent oracle of `graphs.parse_polygons`: the polygon documents read one at a
    time, each checked in turn, then the collected lists turned into arrays."""
    vertices, amplitudes, sizes = [], [], []
    for pdoc in _list(docs, "tessellation 'polygons'"):
        verts = _list(_field(pdoc, "vertices", "polygon"), "polygon 'vertices'")
        amps = _list(pdoc["amplitudes"], "polygon 'amplitudes'") if "amplitudes" in pdoc \
            else [[1.0 / math.sqrt(max(len(verts), 1)), 0.0]] * len(verts)
        if len(amps) != len(verts):
            raise ValueError("one amplitude per vertex required")
        vertices += verts
        amplitudes += amps
        sizes.append(len(verts))
    message = "polygon 'amplitudes' must be [re, im] pairs of numbers"
    try:
        pairs = np.asarray(amplitudes) if amplitudes else np.zeros((0, 2))
    except ValueError:  # ragged entries
        raise ValueError(message) from None
    if pairs.dtype.kind not in "iuf" or pairs.shape != (len(vertices), 2):
        raise ValueError(message)
    return (_integers(vertices, "polygon 'vertices'"),
            pairs.astype(np.float64).view(np.complex128).ravel(),
            np.cumsum([0, *sizes], dtype=np.int64)[:-1])


def reference_to_document(g, tessellations=()) -> dict:
    """Independent oracle of `graphs.to_document`: the document built as dicts and lists,
    one dict per polygon, from each tessellation's canonical arrays."""
    doc = {
        "vertices": g.vertex_count,
        "edges": g.edge_array.tolist(),
    }
    if g.labels is not None:
        doc["labels"] = list(g.labels)
    if tessellations:
        doc["tessellations"] = []
    for t in tessellations:
        vertices, amplitudes, starts, _ = t.canonical
        verts, amps = vertices.tolist(), np.stack((amplitudes.real, amplitudes.imag), 1).tolist()
        bounds = [*starts.tolist(), len(verts)]
        doc["tessellations"].append({"polygons": [
            {"vertices": verts[i:j], "amplitudes": amps[i:j]} for i, j in zip(bounds, bounds[1:])]})
    return doc


def reference_tsv(header, columns) -> str:
    """Oracle of `simulation.tsv_table`: every row through one %-template, %d for an
    integer column and %.17g for any other, value by value."""
    columns = [np.asarray(col) for col in columns]
    row = "\t".join("%d" if col.dtype.kind in "iu" else "%.17g" for col in columns)
    return "\n".join(["\t".join(header), *map(row.__mod__, zip(*columns))]) + "\n"
