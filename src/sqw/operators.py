"""Orthogonal reflections, their exponentials, and composed evolution operators.

A reflection induced by disjoint polygon vectors {|a_k>} is H = 2 P - I with
P = sum_k |a_k><a_k|.  H is unitary, Hermitian and involutive, so the local
unitary exp(i t H) is exactly cos(t) I + i sin(t) H.  One walk step applies an
ordered list of such local unitaries.  An evolution from a sparse state
updates only the polygons its amplitude can have reached (`ActiveSupport`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapExceeded, DimensionMismatch, EmptyFactorList
from .graphs import PolygonArrays, Tessellation, check_polygon_arrays, flatten_polygons, \
    size_blocks, validate_tessellation
from .state import WalkState

DENSE_CAP = 4096
# Share of the state the reached sites may fill, as projected one batch of
# LEAD_STEPS steps ahead, before an evolution switches to the full path for
# good (CHANGES.md has the measurements behind it).
ACTIVE_SHARE = 0.25
# The reached sites run this many steps ahead of the state, so a factor packs
# its new polygons once per LEAD_STEPS steps, not on every step.
LEAD_STEPS = 8


@dataclass(frozen=True, init=False, eq=False)
class OrthogonalReflection(PolygonArrays):
    """The operator 2 sum_k |a_k><a_k| - I, stored by its sparse polygon vectors.

    Polygon vector k is polygon k of the flat arrays (see
    :class:`~sqw.graphs.PolygonArrays`); supports are pairwise disjoint,
    amplitudes nonzero and unit-norm.  Basis vectors outside every support are
    eigenvectors with eigenvalue -1.  The kernel gathers the polygons of each
    size d as one dense block whose column k is polygon k of that size.  A
    factor costs O(n) on the full path, and O(support of the polygons it
    updates) on the active path that `ActiveSupport` drives until the state
    saturates.
    """

    dimension: int
    vertices: np.ndarray
    amplitudes: np.ndarray
    starts: np.ndarray
    _space = "dimension"

    def __init__(self, dimension: int, pairs):
        """Checked constructor from (support indices, amplitudes) pairs."""
        arrays = flatten_polygons(pairs)
        check_polygon_arrays(*arrays, dimension)
        self.__dict__.update(vars(OrthogonalReflection.from_arrays(dimension, *arrays)))

    @classmethod
    def from_arrays(cls, dimension: int, vertices, amplitudes, starts) -> OrthogonalReflection:
        """Reflection from flat arrays that already passed the tessellation checks."""
        return cls._compile(dimension, vertices, amplitudes, starts, size_blocks(starts, vertices))

    @classmethod
    def _compile(cls, dimension: int, vertices, amplitudes, starts, blocks) -> OrthogonalReflection:
        """Reflection from checked flat arrays and their `graphs.size_blocks`; the gather
        index of a block is its (P, d) vertex matrix, transposed."""
        compiled = []  # (gather index, (d, P) amplitudes, their conjugates) per size d
        for _, rows, pv in blocks:
            amp = np.ascontiguousarray(amplitudes[rows].T)
            compiled.append((pv.T.ravel().astype(np.intp, copy=False), amp, amp.conj()))
        h = cls.__new__(cls)
        h.__dict__.update(dimension=dimension, vertices=vertices, amplitudes=amplitudes,
                          starts=starts, _full=len(vertices) == dimension, _blocks=compiled)
        return h

    def mix(self, psi: np.ndarray, alpha: complex, beta: complex,
            out: np.ndarray | None = None, active=None, scratch: dict | None = None) -> np.ndarray:
        """alpha psi + beta P psi, P = sum_k |a_k><a_k|, on a raw array (1-D or columns).

        Every function of H = 2P - I has this form: exp(i t H) = e^{-it} I + 2i sin(t) P.
        The result goes to `out` (complex, shaped like psi, not psi) if given, else to a new array.
        `active` (from `ActiveSupport.plan`) limits the update to its size blocks and
        uncovered sites; `out` must then hold 0 at every other site.  Without `active`,
        each block works in the arrays kept in `scratch` (from `ActiveSupport`), if given.
        """
        alpha, beta = complex(alpha), complex(beta)
        out = np.empty(psi.shape, dtype=np.complex128) if out is None else out
        if active is None:
            blocks = self._blocks
            if not self._full:
                np.multiply(psi, alpha, out=out)
        else:
            blocks, uncovered = active
            scratch = None  # packed blocks change shape batch by batch
            if len(uncovered):
                out[uncovered] = psi[uncovered] * alpha
        for sites, amp, conj in blocks:  # each column x becomes alpha x + beta <a|x> a
            x, overlap, product = _work_arrays(amp.shape + psi.shape[1:], scratch)
            psi.take(sites.reshape(amp.shape), axis=0, out=x, mode="clip")  # in range
            # einsum sums the products without a state-sized temporary (fewer page faults)
            np.einsum("dp...,dp->p...", x, conj, out=overlap)
            overlap *= beta
            x *= alpha
            x += np.multiply(overlap, amp.reshape(amp.shape + (1,) * (psi.ndim - 1)), out=product)
            out[sites] = x.reshape(sites.shape + psi.shape[1:])
        return out

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """H psi = 2 sum_k <a_k|psi> |a_k> - psi on a raw array (1-D or columns)."""
        return self.mix(psi, -1, 2)


@dataclass(frozen=True)
class LocalUnitary:
    """exp(i theta H) = cos(theta) I + i sin(theta) H for a reflection H."""

    theta: float
    reflection: OrthogonalReflection

    @property
    def dimension(self) -> int:
        return self.reflection.dimension

    def apply(self, psi: np.ndarray, out: np.ndarray | None = None, active=None,
              scratch: dict | None = None) -> np.ndarray:
        return self.reflection.mix(psi, cmath.exp(-1j * self.theta), 2j * math.sin(self.theta),
                                   out, active, scratch)


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

        Given `support`, made from the start state of a 1-D evolution, each factor
        writes into the support buffer that is not its input and updates only the
        polygons that touch reached sites, until the state saturates.
        """
        if support is None:
            for f in self.factors:
                psi = f.apply(psi)
            return psi
        plan = support.plan(self.factors)
        for i, f in enumerate(self.factors):
            psi = f.apply(psi, support.buffers[psi is support.buffers[0]], plan and plan[i],
                          support.scratch)
        return psi

    def step(self, state: WalkState) -> WalkState:
        _check_dim(self.dimension, state)
        return WalkState(self.step_array(state.amplitudes))


class ActiveSupport:
    """Two zeroed state buffers for one 1-D evolution, and the sites it can have reached.

    A site is reached once it is nonzero in the start state or lies in a
    polygon that a factor updated.  Every other site holds exactly 0 in the
    state and in both buffers, and a polygon whose sites are all 0 maps to 0.
    So each factor updates only the polygons that touch a reached site, and
    scales its reached uncovered sites by alpha, with the full kernel's
    arithmetic per column: the result is the full path's bit for bit (an exact
    zero may differ in sign).

    The reached sites are tracked LEAD_STEPS steps ahead of the state, one
    batch of steps at a time, through each factor's site -> polygon owner map
    at O(newly reached sites); a factor's new polygons are packed once per
    batch.  Tracking ahead only makes a factor update some polygons while
    their sites still hold 0.  Tracking stops, and every later step runs the
    full path, once one tracked step's growth kept up for LEAD_STEPS more
    steps would carry the reached sites past ACTIVE_SHARE of the state: the
    sparse path then has at most about a batch left, and on a graph whose
    reach grows fast this ends the first batch after a few tracked steps.
    """

    def __init__(self, psi0: np.ndarray):
        # np.zeros, unlike zeros_like, leaves a large buffer's pages untouched until written
        self.buffers = (np.zeros(psi0.shape, psi0.dtype), np.zeros(psi0.shape, psi0.dtype))
        self.scratch = {}  # the full path's work arrays by block shape (_work_arrays)
        self.limit = int(ACTIVE_SHARE * psi0.shape[0])
        start = np.flatnonzero(psi0)
        self.reached = self.order = self._fronts = self._plan = None  # None: saturated
        self._ahead = 0  # steps the reached sites still cover
        if len(start) <= self.limit:
            self.order = start.tolist()  # the reached sites, in the order reached
            self.reached = bytearray(psi0.shape[0])
            for site in self.order:
                self.reached[site] = 1

    def plan(self, factors):
        """Per factor, the (size blocks, uncovered sites) it updates in the next step;
        None once the state is saturated."""
        if self.reached is None:
            return None
        if not self._ahead:
            if self._fronts is None:
                self._fronts = [_Front(f.reflection) for f in factors]
            for _ in range(LEAD_STEPS):
                before = len(self.order)
                for front in self._fronts:
                    front.advance(self.order, self.reached)
                if len(self.order) + LEAD_STEPS * (len(self.order) - before) > self.limit:
                    self.reached = self.order = self._fronts = self._plan = None
                    return None
            self._plan = [front.pack() for front in self._fronts]
            self._ahead = LEAD_STEPS
        self._ahead -= 1
        return self._plan


class _Front:
    """The polygons of one factor that touch reached sites, packed per size block.

    Polygon k of size block b is packed into column count[b] of that block's
    (d, capacity) site, amplitude and conjugate arrays, which grow by doubling;
    the kernel reads their first count[b] columns.
    """

    def __init__(self, h: OrthogonalReflection):
        nb = len(h._blocks)
        owner = np.full(h.dimension, -1, dtype=np.int32)  # site -> column * nb + block
        for b, (sites, amp, _) in enumerate(h._blocks):
            owner[sites.reshape(amp.shape)] = np.arange(amp.shape[1], dtype=np.int32) * nb + b
        self.owner = memoryview(owner)
        self.grids = [(sites.reshape(amp.shape), amp, conj) for sites, amp, conj in h._blocks]
        self.flat = [(memoryview(sites), sites.size, amp.shape[1]) for sites, amp, _ in h._blocks]
        self.taken = [bytearray(amp.shape[1]) for _, amp, _ in h._blocks]
        self.fresh = [[] for _ in range(nb)]  # columns taken since the last pack
        self.packed = [None] * nb
        self.count = [0] * nb
        self.uncovered = []
        self.seen = 0

    def advance(self, order: list, reached: bytearray) -> None:
        """Take the polygons that touch sites reached since this factor last
        advanced, and mark their sites reached."""
        owner, nb = self.owner, len(self.taken)
        for site in order[self.seen:]:
            g = owner[site]
            if g < 0:
                self.uncovered.append(site)
                continue
            c, b = divmod(g, nb)
            if self.taken[b][c]:
                continue
            if not (self.count[b] or self.fresh[b]) and len(self.taken[b]) > 1:
                # numpy multiplies a one-element array in place without the fused
                # multiply-add of its vector loop, so a block packed to one column
                # would round differently from the full block: take a second one.
                # (Seen on numpy 2.4.6 on an Intel Xeon with AVX-512 and FMA; an
                # out-of-place one-element multiply, as on uncovered sites, matches.)
                self._take(b, 1 - min(c, 1), order, reached)
            self._take(b, c, order, reached)
        self.seen = len(order)  # the sites this factor just added are its own

    def _take(self, b: int, c: int, order: list, reached: bytearray) -> None:
        self.taken[b][c] = 1
        self.fresh[b].append(c)
        sites, size, stride = self.flat[b]
        for r in range(c, size, stride):
            v = sites[r]
            if not reached[v]:
                reached[v] = 1
                order.append(v)

    def pack(self):
        """Append the columns taken since the last pack; the (blocks, uncovered) to update."""
        for b, cols in enumerate(self.fresh):
            if not cols:
                continue
            k, m = self.count[b], len(cols)
            packed = self.packed[b]
            if packed is None or k + m > packed[0].shape[1]:
                grown = tuple(np.empty((a.shape[0], 2 * (k + m)), a.dtype) for a in self.grids[b])
                for old, new in zip(packed or (), grown):
                    new[:, :k] = old[:, :k]
                packed = self.packed[b] = grown
            cols = np.array(cols)
            for src, dst in zip(self.grids[b], packed):
                dst[:, k:k + m] = src[:, cols]
            self.count[b] = k + m
            self.fresh[b] = []
        blocks = [tuple(a[:, :k] for a in packed)
                  for packed, k in zip(self.packed, self.count) if k]
        return blocks, np.array(self.uncovered, dtype=np.intp)


def _work_arrays(shape: tuple, scratch: dict | None) -> list:
    """The (gather, overlap, product) arrays for a block of `shape`, kept in `scratch`.

    Fresh arrays on every factor can make glibc trim and regrow the heap top each
    time, at a page fault per page (2x the wall time of a 2000-step walk on an
    8012-site ring in some heap layouts); kept ones are allocated once per run.
    """
    work = None if scratch is None else scratch.get(shape)
    if work is None:
        # a list: tuple() of a generator shrinks an oversized tuple, and the 3-tuples it
        # frees pile up on CPython's free list (~2000, 128 KiB) over a run
        work = [np.empty(s, np.complex128) for s in (shape, shape[1:], shape)]
        if scratch is not None:
            scratch[shape] = work
    return work


def _check_dim(expected: int, state: WalkState) -> None:
    if state.dimension != expected:
        raise DimensionMismatch(expected, state.dimension)


def reflection_from_tessellation(t: Tessellation) -> OrthogonalReflection:
    """Embed a valid tessellation's polygon vectors as an orthogonal reflection."""
    return OrthogonalReflection._compile(t.parent.vertex_count, t.vertices, t.amplitudes,
                                         t.starts, validate_tessellation(t.parent, t))


def apply_reflection(h: OrthogonalReflection, state: WalkState) -> WalkState:
    _check_dim(h.dimension, state)
    return WalkState(h.apply(state.amplitudes))


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


def dense_matrix(u: EvolutionOperator, cap: int = DENSE_CAP) -> np.ndarray:
    """Materialize one step as a dense matrix; column j is step(|j>)."""
    n = u.dimension
    if n > cap:
        raise DimensionCapExceeded(n, cap)
    return u.step_array(np.eye(n, dtype=np.complex128))
