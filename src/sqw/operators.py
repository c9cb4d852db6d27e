"""Orthogonal reflections, their exponentials, and composed evolution operators.

A reflection induced by disjoint polygon vectors {|a_k>} is H = 2 P - I with
P = sum_k |a_k><a_k|.  H is unitary, Hermitian and involutive, so the local
unitary exp(i t H) is exactly cos(t) I + i sin(t) H = e^{-it} I + 2i sin(t) P:
on a polygon of d sites a fixed d x d matrix.  A reflection keeps, for every
site, the other sites of its polygon as partner rows (polygons above
STENCIL_CAP sites take a rank-1 update instead).  A local unitary's stencil
entries, a self coefficient per site and one coefficient per partner, are
computed from the polygon amplitudes: for the sites a sparse evolution has
reached (`ActiveSupport`), or for every site once, when the full path first
needs them.  So a factor costs at most STENCIL_CAP terms per site, sum over
polygons of min(d, STENCIL_CAP) d on equal sizes: O(|V| + |E|) for a graph's
tessellation.  One walk step applies an ordered list of such local unitaries.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionCapExceeded, DimensionMismatch, EmptyFactorList
from .graphs import PolygonArrays, Tessellation, block_entries, check_polygon_arrays, \
    flatten_polygons, size_blocks, validate_tessellation
from .state import WalkState

DENSE_CAP = 4096
# Largest polygon a factor compiles into site-major stencil rows (one partner row
# per other site, padded on smaller polygons); a larger polygon takes a rank-1
# update, so a k-site polygon never becomes k rows of n entries.
STENCIL_CAP = 4
# Share of the state the reached sites may fill, as projected one batch of
# LEAD_STEPS steps ahead, before an evolution switches to the full path for
# good (CHANGES.md has the measurements behind it).
ACTIVE_SHARE = 0.25
# The reached sites run this many steps ahead of the state, so a factor packs
# its new polygons once per LEAD_STEPS steps, not on every step; after the
# switch, the full path flushes subnormal amplitudes once per LEAD_STEPS steps.
LEAD_STEPS = 8
SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)
ROW_RUN = 8192  # sites per run of a stencil-entry compile: its temporaries stay in cache


@dataclass(frozen=True, init=False, eq=False)
class OrthogonalReflection(PolygonArrays):
    """The operator 2 sum_k |a_k><a_k| - I, stored by its sparse polygon vectors.

    The k-th polygon vector is polygon k of the flat arrays (see
    :class:`~sqw.graphs.PolygonArrays`); supports are pairwise disjoint,
    amplitudes nonzero and unit-norm.  Basis vectors outside every support are
    eigenvectors with eigenvalue -1.

    Compiled for the kernel in site order: row j of `_partners` holds, for each
    site, the (j+1)-th other site of its polygon, or the site itself where
    there is none, and `_slot` each site's position in the flat arrays, or -1
    off the polygons of at most STENCIL_CAP sites.  There are m partner rows,
    m + 1 the largest polygon size up to STENCIL_CAP; each larger polygon keeps
    its column of a (d, P) site grid per size d, with its amplitudes, for a
    rank-1 update.  On the full path a function alpha I + beta P then costs
    m + 1 terms per site, at most STENCIL_CAP (sum over polygons of
    min(d, STENCIL_CAP) d when all have m + 1 sites), plus O(d) per larger
    polygon: O(n), and O(|V| + |E|) for a graph's tessellation.  The packed
    columns that `ActiveSupport` plans cost the same per site they update, and
    `_entries` computes them for those sites only.
    """

    dimension: int
    vertices: np.ndarray
    amplitudes: np.ndarray
    starts: np.ndarray
    _space = "dimension"

    def __init__(self, dimension: int, pairs):
        """Checked constructor from (support indices, amplitudes) pairs."""
        self.__dict__.update(vars(self.from_arrays(dimension, *flatten_polygons(pairs))))

    @classmethod
    def from_arrays(cls, dimension: int, vertices, amplitudes, starts) -> OrthogonalReflection:
        """Reflection from flat arrays, checked by :func:`~sqw.graphs.check_polygon_arrays`
        on `dimension` vertices (polygon rules, range and overlap)."""
        vertices, amplitudes, starts = check_polygon_arrays(vertices, amplitudes, starts, dimension)
        return cls._compile(dimension, vertices, amplitudes, starts, size_blocks(starts, vertices))

    @classmethod
    def _compile(cls, dimension: int, vertices, amplitudes, starts, blocks) -> OrthogonalReflection:
        """Reflection from checked flat arrays and their `graphs.size_blocks`."""
        stencil = max((pv.shape[1] for _, _, pv in blocks if pv.shape[1] <= STENCIL_CAP),
                      default=1)
        partners = np.empty((stencil - 1, dimension), dtype=np.intp)
        padded = sum(pv.size for _, _, pv in blocks if pv.shape[1] == stencil) < dimension
        if padded:
            partners[:] = np.arange(dimension)  # a site without stencil - 1 partners pads
        slot = np.full(dimension, -1, dtype=np.int32)  # site -> flat position, stencil polygons
        big = []  # per size d above STENCIL_CAP: (d, P) sites, amplitudes and conj
        for block in blocks:
            pv = block[2]
            if pv.shape[1] > STENCIL_CAP:
                amp = np.ascontiguousarray(block_entries(amplitudes, block).T)
                big.append((np.ascontiguousarray(pv.T, dtype=np.intp), amp, amp.conj()))
                continue
            slot[pv] = block[1]
            for j, i in np.ndindex(pv.shape[1] - 1, pv.shape[1]):  # column by column, no copy
                partners[j, pv[:, i]] = pv[:, (i + j + 1) % pv.shape[1]]
        h = cls.__new__(cls)
        h.__dict__.update(dimension=dimension, vertices=vertices, amplitudes=amplitudes,
                          starts=starts, _partners=partners, _slot=slot, _big=big,
                          _padded=padded)
        return h

    def _entries(self, sites, alpha: complex, beta: complex, c0, coefficients) -> None:
        """Write the stencil entries of alpha I + beta P at `sites` (every site if None)
        into c0 and the columns of coefficients, ROW_RUN sites at a time.

        c0[s] = alpha + beta |a_s|^2 and coefficients[j, s] = beta a_s conj(a_g),
        g = partners[j, s], on polygons up to STENCIL_CAP sites, read through `_slot`;
        c0 is alpha and the coefficients exactly 0 elsewhere (uncovered sites, padding,
        larger polygons); where every site has m partners (`_padded` is False, as on a
        ring), there is no such site.  Each multiply writes an array that is not one of
        its inputs (see `_mix`), so an entry rounds alike at any run length and any
        column: the packed entries of `_Front.pack` equal the full rows of `_rows` bit
        for bit.
        """
        count = self.dimension if sites is None else len(sites)
        for k in range(0, count, ROW_RUN):
            at = np.arange(k, min(k + ROW_RUN, count)) if sites is None else sites[k:k + ROW_RUN]
            slot = self._slot[at]
            a = (self.amplitudes.take(slot, mode="clip")  # -1 reads entry 0; overwritten below
                 if len(self.amplitudes) else np.zeros(len(at), np.complex128))
            product = np.multiply(np.conjugate(a), a)
            product.imag = 0.0  # |a_s|^2, without the rounding residue of x y - y x
            c = c0[k:k + len(at)]
            np.add(np.multiply(product, beta, out=c), alpha, out=c)
            if self._padded:  # alpha off the stencil polygons, rounded as on a vector
                np.putmask(c, slot < 0, (np.zeros(2, dtype=np.complex128) * beta + alpha)[0])
            for partners, row in zip(self._partners, coefficients[:, k:k + len(at)]):
                g = partners[at]
                partner = self.amplitudes.take(self._slot[g], mode="clip")
                np.multiply(np.conjugate(partner), a, out=product)
                np.multiply(product, beta, out=row)
                if self._padded:
                    np.putmask(row, g == at, 0)  # padding names the site itself

    def _rows(self, alpha: complex, beta: complex) -> tuple:
        """alpha I + beta P as stencil rows (None, c0, partners, coefficients) on every
        site: out[s] = c0[s] psi[s] + sum_j coefficients[j, s] psi[partners[j, s]]."""
        c0 = np.empty(self.dimension, dtype=np.complex128)
        coefficients = np.empty(self._partners.shape, dtype=np.complex128)
        self._entries(None, alpha, beta, c0, coefficients)
        return None, c0, self._partners, coefficients

    def mix(self, psi: np.ndarray, alpha: complex, beta: complex) -> np.ndarray:
        """alpha psi + beta P psi, P = sum_k |a_k><a_k|, on a raw array (1-D or columns).

        Every function of H = 2P - I has this form: exp(i t H) = e^{-it} I + 2i sin(t) P.
        Compiles the rows for (alpha, beta) on each call; `LocalUnitary` keeps its own.
        """
        alpha, beta = complex(alpha), complex(beta)
        return _mix(psi, (self._rows(alpha, beta), self._big), beta)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """H psi = 2 sum_k <a_k|psi> |a_k> - psi on a raw array (1-D or columns)."""
        return self.mix(psi, -1, 2)


@dataclass(frozen=True)
class LocalUnitary:
    """exp(i theta H) = e^{-i theta} I + 2i sin(theta) P for a reflection H = 2P - I.

    It keeps alpha = e^{-i theta} and beta = 2i sin(theta); theta never changes.
    Its full stencil rows (`OrthogonalReflection._rows`) are compiled once, on
    first use by the full path: `apply`, a step without a support, an evolution
    from a dense start or after saturation, `dense_matrix`.  An evolution that
    stays sparse never compiles them; `_Front.pack` computes the entries of the
    reached sites alone.
    """

    theta: float
    reflection: OrthogonalReflection

    def __post_init__(self):
        object.__setattr__(self, "_alpha", cmath.exp(-1j * self.theta))
        object.__setattr__(self, "_beta", 2j * math.sin(self.theta))

    @cached_property
    def _rows(self) -> tuple:
        return self.reflection._rows(self._alpha, self._beta)

    @property
    def dimension(self) -> int:
        return self.reflection.dimension

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """exp(i theta H) psi on a raw array (1-D or columns), into a new array."""
        return _mix(psi, (self._rows, self.reflection._big), self._beta)


def _mix(psi, update, beta, out=None, work=None) -> np.ndarray:
    """out = c0 psi + sum_j coefficients[j] psi[partners[j]] on the sites of the stencil
    rows (sites, c0, partners, coefficients), every site if sites is None, then
    out += beta <a|psi> a on each polygon of the big size blocks: update = (rows, big).

    Packed rows (columns for the given sites only) leave every other site of `out`
    as it is.  Every temporary is a view of `work`, three complex arrays shaped like
    psi (fresh ones if not given): a (d, P) grid of disjoint polygons holds d P <= n
    entries per column, and its overlaps 2 P <= n since d > STENCIL_CAP.  Every
    multiply writes to an array that is not one of its inputs: numpy 2.4.6 rounds
    an in-place multiply of a one-element array without the fused multiply-add of
    its vector loop (Intel Xeon with AVX-512 and FMA), and packed rows may hold one
    column.  So packed and full rows round alike at any length, bit for bit.
    """
    if out is None:
        out = np.empty(psi.shape, dtype=np.complex128)
    if work is None:
        work = [np.empty(psi.shape, dtype=np.complex128) for _ in range(3)]
    (sites, c0, partners, coefficients), big = update
    x, gathered, product = work
    if sites is None:
        if psi.ndim > 1:  # one row entry per site, for every column
            c0, coefficients = c0[:, None], coefficients[:, :, None]
        x = np.multiply(c0, psi, out=out)
    else:  # packed columns, gathered into the work arrays cut to their count
        x, gathered, product = x[:len(sites)], gathered[:len(sites)], product[:len(sites)]
        np.multiply(c0, psi.take(sites, out=gathered, mode="clip"), out=x)
    for g, c in zip(partners, coefficients):  # g is in range; "clip" skips the check
        psi.take(g, axis=0, out=gathered, mode="clip")
        x += np.multiply(c, gathered, out=product)
    if sites is not None:
        out[sites] = x
    for grid, amp, conj in big:
        shape = amp.shape + psi.shape[1:]
        x, product = (w.reshape(-1)[:math.prod(shape)].reshape(shape) for w in work[:2])
        overlap, scaled = work[2].reshape(-1)[:2 * math.prod(shape[1:])].reshape(2, *shape[1:])
        psi.take(grid, axis=0, out=x, mode="clip")
        np.einsum("dp...,dp->p...", x, conj, out=overlap)
        np.multiply(overlap, beta, out=scaled)
        np.copyto(x, scaled)  # spread over the rows here: a broadcast multiply allocates
        np.multiply(x, amp.reshape(amp.shape + (1,) * (psi.ndim - 1)), out=product)
        out.take(grid, axis=0, out=x, mode="clip")
        x += product
        out[grid] = x
    return out


@dataclass(frozen=True)
class EvolutionOperator:
    """Ordered product of local unitaries; the first factor acts first."""

    factors: tuple[LocalUnitary, ...]

    def __post_init__(self):
        if not self.factors:
            raise EmptyFactorList("an evolution operator needs at least one factor")
        dims = {f.dimension for f in self.factors}
        if len(dims) != 1:
            raise DimensionMismatch(self.factors[0].dimension, sorted(dims))

    @property
    def dimension(self) -> int:
        return self.factors[0].dimension

    def step_array(self, psi: np.ndarray, support: ActiveSupport | None = None) -> np.ndarray:
        """One step on a raw array, each factor writing a new array on the full path.

        Given `support`, made from the start state of a 1-D evolution, each factor writes
        into the support buffer that is not its input, using the support's work arrays, and
        updates only the polygons that touch reached sites until the state saturates; after
        that, `ActiveSupport.flush` clears subnormal parts once every LEAD_STEPS steps.
        """
        if support is None:
            for f in self.factors:
                psi = f.apply(psi)
            return psi
        plan = support.plan(self.factors)
        for i, f in enumerate(self.factors):
            psi = _mix(psi, plan[i] if plan else (f._rows, f.reflection._big), f._beta,
                       support.buffers[psi is support.buffers[0]], support.work)
        if plan is None:
            support.flush(psi)
        return psi


class ActiveSupport:
    """Two zeroed state buffers, three work arrays and the reached sites of one 1-D evolution.

    A site is reached once it is nonzero in the start state or lies in a
    polygon that a factor updated.  Every other site holds exactly 0 in the
    state and in both buffers, and a polygon whose sites are all 0 maps to 0.
    So each factor updates only the reached sites, one packed column of
    stencil entries per site in one `sites` array shared by every factor (and
    its polygons above STENCIL_CAP that touch them, as packed columns of its
    size blocks), with the full path's arithmetic per site: the result is
    the full path's bit for bit (an exact zero may differ in sign).  A factor
    costs O(reached sites), as the full path costs O(n), and so does its
    entry compile: a sparse run never builds a factor's full rows.

    The reached sites are tracked LEAD_STEPS steps ahead of the state, one
    batch of steps at a time, through each factor's partner rows at
    O(newly reached sites); each factor computes the entries of a batch's new
    sites once, into packed rows grown by `_room` as the packed sites are.
    Tracking ahead only makes a factor update some sites while they still
    hold 0, as a site does until the walk reaches it.  Tracking stops, and
    every later step runs the full path, once one tracked step's growth kept
    up for LEAD_STEPS more steps would carry the reached sites past `limit`,
    ACTIVE_SHARE of the state: so no batch packs more than `limit` sites, the
    sparse path then has at most about a batch left, and on a graph whose
    reach grows fast this ends the first batch after a few tracked steps.

    On the full path, every LEAD_STEPS steps, `flush` sets the subnormal
    components of the state to 0.  `work` holds every temporary of `_mix` and
    `flush` for the run: fresh arrays on every factor can make glibc trim and
    regrow the heap top each time, at a page fault per page (2x the wall time
    of a 2000-step walk on an 8012-site ring in some heap layouts).
    """

    def __init__(self, psi0: np.ndarray):
        # np.zeros, unlike zeros_like, leaves a large buffer's pages untouched until written
        self.buffers = (np.zeros(psi0.shape, psi0.dtype), np.zeros(psi0.shape, psi0.dtype))
        self.work = [np.empty(psi0.shape, np.complex128) for _ in range(3)]
        self.limit = int(ACTIVE_SHARE * psi0.shape[0])
        start = np.flatnonzero(psi0)
        self.reached = self.order = self.sites = self._fronts = self._plan = None  # None: saturated
        self._ahead = 0  # steps the reached sites still cover
        self._packed = 0  # reached sites packed so far
        self._full_steps = 0
        if len(start) <= self.limit:
            self.order = start.tolist()  # the reached sites, in the order reached
            self.reached = bytearray(psi0.shape[0])
            for site in self.order:
                self.reached[site] = 1
            self.sites = np.empty(0, dtype=np.intp)  # the packed ones, in that order

    def plan(self, factors):
        """Per factor, the (packed stencil rows, packed big blocks) it updates in the
        next step; None once the state is saturated."""
        if self.reached is None:
            return None
        if not self._ahead:
            if self._fronts is None:
                self._fronts = [_Front(f) for f in factors]
            for _ in range(LEAD_STEPS):
                before = len(self.order)
                for front in self._fronts:
                    front.advance(self.order, self.reached)
                if len(self.order) + LEAD_STEPS * (len(self.order) - before) > self.limit:
                    self.reached = self.order = self.sites = self._fronts = self._plan = None
                    return None
            old, count = self._packed, len(self.order)
            self.sites = _room(self.sites, count, old, self.limit)
            self.sites[old:count] = self.order[old:]
            self._plan = [front.pack(self.sites[:count], old, self.limit) for front in self._fronts]
            self._packed = count
            self._ahead = LEAD_STEPS
        self._ahead -= 1
        return self._plan

    def flush(self, psi: np.ndarray) -> None:
        """Count a full step; every LEAD_STEPS of them, set the subnormal real and
        imaginary parts of psi, the step's output buffer, to 0.

        A part below SMALLEST_NORMAL squares to a probability of 0, but x86
        arithmetic on a subnormal operand is far slower (a microcode assist).
        The tail ahead of a walk's front decays into that range: on a 2000-step
        walk on an 8012-site ring, 2618 of the 16 024 parts were subnormal by the
        last step, and a full step took 412 us instead of ~90 us (2-vCPU Xeon,
        numpy 2.4.6).  With this flush at most 24 parts are subnormal at any
        step, and a flush costs ~12 us.
        """
        self._full_steps += 1
        if self._full_steps % LEAD_STEPS:
            return
        parts = psi.view(np.float64)
        magnitude, below = self.work[0].view(np.float64), self.work[1].view(bool)[:parts.size]
        np.less(np.abs(parts, out=magnitude), SMALLEST_NORMAL, out=below)
        np.copyto(parts, 0.0, where=below)


class _Front:
    """One factor's share of the reach tracking, and its stencil entries for the reached sites.

    A newly reached site takes its polygon: its partners, read from the
    partner rows, or on a polygon above STENCIL_CAP sites its column of that
    size's site grid, found through an owner map that exists only when the
    factor has such polygons.  A taken big polygon's sites leave the owner
    map; their partner rows name only themselves.  The packed rows hold a
    column per reached site, computed once per batch for the batch's new sites
    (`OrthogonalReflection._entries`), so the factor's full rows are never
    built; each big size block is cut to its taken columns once per batch.
    """

    def __init__(self, f: LocalUnitary):
        h = f.reflection
        self.factor = f
        m = len(h._partners)
        self.packed = (np.empty(0, np.complex128), np.empty((m, 0), np.intp),
                       np.empty((m, 0), np.complex128))  # c0, partners, coefficients
        self.partners = [memoryview(row) for row in h._partners]
        self.big = h._big
        self.taken = [[] for _ in h._big]  # taken columns per big size block
        self.owner = None
        if h._big:
            owner = np.full(h.dimension, -1, dtype=np.int32)  # site -> column * blocks + block
            for b, (grid, _, _) in enumerate(h._big):
                owner[grid] = np.arange(grid.shape[1], dtype=np.int32) * len(h._big) + b
            self.owner = memoryview(owner)
        self.seen = 0

    def advance(self, order: list, reached: bytearray) -> None:
        """Take the polygons that touch sites reached since this factor last
        advanced, and mark their sites reached."""
        partners, owner = self.partners, self.owner
        for site in order[self.seen:]:
            g = -1 if owner is None else owner[site]
            if g < 0:
                polygon = [row[site] for row in partners]
            else:
                c, b = divmod(g, len(self.big))
                self.taken[b].append(c)
                polygon = self.big[b][0][:, c].tolist()
                for v in polygon:
                    owner[v] = -1
            for v in polygon:
                if not reached[v]:
                    reached[v] = 1
                    order.append(v)
        self.seen = len(order)  # the sites this factor just added are its own

    def pack(self, sites: np.ndarray, old: int, limit: int) -> tuple:
        """Compute the packed columns of sites[old:]; the (stencil rows, big blocks) to update."""
        f = self.factor
        self.packed = tuple(_room(a, len(sites), old, limit) for a in self.packed)
        c0, partners, coefficients = (a[..., :len(sites)] for a in self.packed)
        partners[:, old:] = f.reflection._partners[:, sites[old:]]
        f.reflection._entries(sites[old:], f._alpha, f._beta, c0[old:], coefficients[:, old:])
        big = [tuple(a.take(ids, axis=1) for a in block)  # contiguous, unlike a[:, ids]
               for block, ids in zip(self.big, self.taken) if ids]
        return (sites, c0, partners, coefficients), big


def _room(a: np.ndarray, count: int, keep: int, limit: int) -> np.ndarray:
    """`a` if it holds `count` columns, else its first `keep` columns in a wider array."""
    if count <= a.shape[-1]:
        return a
    grown = np.empty(a.shape[:-1] + (min(limit, max(count, 2 * a.shape[-1])),), a.dtype)
    grown[..., :keep] = a[..., :keep]
    return grown


def _check_dim(expected: int, state: WalkState) -> None:
    if state.dimension != expected:
        raise DimensionMismatch(expected, state.dimension)


def reflection_from_tessellation(t: Tessellation) -> OrthogonalReflection:
    """Embed a valid tessellation's polygon vectors as an orthogonal reflection."""
    return OrthogonalReflection._compile(t.parent.vertex_count, t.vertices, t.amplitudes,
                                         t.starts, validate_tessellation(t.parent, t))


def apply_exp(u: LocalUnitary, state: WalkState) -> WalkState:
    """Apply exp(i theta H); exact because H is an involution."""
    _check_dim(u.dimension, state)
    return WalkState(u.apply(state.amplitudes))


def grover_phase_apply(theta: float, h: OrthogonalReflection, state: WalkState) -> WalkState:
    """Apply I - (1 - e^{2 i theta}) sum_k |a_k><a_k|, which is e^{i theta} exp(i theta H)."""
    _check_dim(h.dimension, state)
    return WalkState(h.mix(state.amplitudes, 1, cmath.exp(2j * theta) - 1))


def compose(factors) -> EvolutionOperator:
    """Build an evolution operator from (angle, reflection) pairs.

    The first pair acts first on the state (rightmost in operator notation).
    """
    return EvolutionOperator(tuple(LocalUnitary(float(theta), h) for theta, h in factors))


def dense_matrix(u: EvolutionOperator) -> np.ndarray:
    """Materialize one step as a dense matrix, n <= DENSE_CAP; column j is step(|j>).

    Steps n // 16 identity columns at a time into the result, so the peak holds about
    one n x n matrix, not the five of a single n-column step."""
    n = u.dimension
    if n > DENSE_CAP:
        raise DimensionCapExceeded(n, DENSE_CAP)
    width = max(1, n // 16)
    out = np.empty((n, n), dtype=np.complex128)
    for j in range(0, n, width):
        out[:, j:j + width] = u.step_array(np.eye(n, min(width, n - j), -j, dtype=np.complex128))
    return out
