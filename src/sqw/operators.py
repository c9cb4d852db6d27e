"""Orthogonal reflections, their exponentials, and composed evolution operators.

A reflection induced by disjoint polygon vectors {|a_k>} is H = 2 P - I with
P = sum_k |a_k><a_k|.  H is unitary, Hermitian and involutive, so the local
unitary exp(i t H) is exactly cos(t) I + i sin(t) H = e^{-it} I + 2i sin(t) P:
on a polygon of d sites a fixed d x d matrix.  A reflection keeps, for every
site, the other sites of its polygon as partner rows (polygons above
STENCIL_CAP sites take a rank-1 update instead).  A local unitary's stencil
entries, a self coefficient per site and one coefficient per partner, are
computed from the polygon amplitudes for the sites an evolution's window
needs, grown in runs (`LocalUnitary`).  So a factor costs at most STENCIL_CAP
terms per site, sum over polygons of min(d, STENCIL_CAP) d on equal sizes:
O(|V| + |E|) for a graph's tessellation.  One walk step applies an ordered
list of such local unitaries.

An evolution (`ActiveSupport`) updates only a window of the sites that its
state can have reached: an interval of the sites read round the ring
0, 1, ..., n - 1, 0, which each factor widens on each side by its spread,
the largest distance round that ring between two sites of one of its
polygons.  Where polygons join nearby sites, as on the line's ring, that
window is the light cone of the start.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapExceeded, DimensionMismatch, EmptyFactorList
from .graphs import PolygonArrays, Tessellation, _read_only, block_entries, \
    check_polygon_arrays, flatten_polygons, size_blocks, validate_tessellation
from .state import WalkState

DENSE_CAP = 4096
# Largest polygon a factor compiles into site-major stencil rows (one partner row
# per other site, padded on smaller polygons); a larger polygon takes a rank-1
# update, so a k-site polygon never becomes k rows of n entries.
STENCIL_CAP = 4
# An evolution sets the subnormal parts of its state to 0 once every LEAD_STEPS steps.
LEAD_STEPS = 8
SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)
# Sites per run of a compile, so its temporaries stay in cache.
ROW_RUN = 4096
# Sites a factor compiles at least ahead of the window that needs them.
RUN_AHEAD = 256


def _spread(sites: np.ndarray, n: int) -> int:
    """The largest distance round the ring 0, 1, ..., n - 1, 0 between two sites of one
    row of a (P, d) site grid; for d above STENCIL_CAP, the length of the shortest arc
    that holds a row, less one, which is no less."""
    if sites.shape[1] > STENCIL_CAP:  # n less the largest gap round the ring
        ring = np.sort(sites, axis=1)
        return int(n - np.diff(ring, axis=1, append=ring[:, :1] + n).max(axis=1).min())
    spread = 0
    for i, j in itertools.combinations(range(sites.shape[1]), 2):
        distance = np.abs(sites[:, i] - sites[:, j])
        spread = max(spread, int(np.minimum(distance, n - distance).max()))
    return spread


def _interval(lo: int, hi: int, n: int) -> tuple[int, int]:
    """The window [lo, hi) of the unwrapped sites in its one form: the sites u mod n,
    lo <= u < hi, with 0 <= hi < n and hi - n < lo, so a window that holds site 0 and
    site n - 1 has lo < 0; every site is (0, n).  lo >= hi reads round the ring."""
    if lo >= hi:
        lo -= n
    if hi - lo >= n:
        return 0, n
    return (lo - n, hi - n) if hi >= n else (lo, hi)


def _pieces(lo: int, hi: int) -> list[tuple[int, int]]:
    """The unwrapped runs of a window (`_interval`): [max(lo, 0), hi), and [lo, 0) if
    lo < 0 (the sites n + lo .. n - 1); empty runs left out."""
    return [(a, b) for a, b in ((max(lo, 0), hi), (lo, min(hi, 0))) if a < b]


@dataclass(frozen=True, init=False, eq=False)
class OrthogonalReflection(PolygonArrays):
    """The operator 2 sum_k |a_k><a_k| - I, stored by its sparse polygon vectors.

    The k-th polygon vector is polygon k of the flat arrays (see
    :class:`~sqw.graphs.PolygonArrays`), which are read-only; supports are
    pairwise disjoint, amplitudes nonzero and unit-norm.  Basis vectors outside
    every support are eigenvectors with eigenvalue -1.

    Compiled for the kernel in site order: row j of `_partners` holds, for each
    site, the (j+1)-th other site of its polygon, or the site itself where
    there is none, and `_slot` each site's position in the flat arrays, or -1
    off the polygons of at most STENCIL_CAP sites.  There are m partner rows,
    m + 1 the largest polygon size up to STENCIL_CAP; each larger polygon keeps
    its row of a (P, d) site grid per size d, with its amplitudes, for a rank-1
    update, the rows sorted by their smallest site, which each block also
    keeps.  `_spread` is the largest of `_spread` over the polygons: how far
    the reflection can move amplitude round the ring of sites.  A function
    alpha I + beta P then costs m + 1 terms per site, at most STENCIL_CAP (sum
    over polygons of min(d, STENCIL_CAP) d when all have m + 1 sites), plus
    O(d) per larger polygon: O(n), and O(|V| + |E|) for a graph's tessellation.
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
        big = []  # per size d above STENCIL_CAP: (P, d) sites, amplitudes, conj, smallest sites
        spread = 0
        for block in blocks:
            pv = block[2]
            rows = max(1, ROW_RUN // pv.shape[1])  # in runs: no temporary meets the build's peak
            for k in range(0, len(pv), rows):
                spread = max(spread, _spread(pv[k:k + rows], dimension))
            if pv.shape[1] > STENCIL_CAP:
                smallest = pv.min(axis=1)
                order = np.argsort(smallest, kind="stable")
                grid = np.ascontiguousarray(pv[order], dtype=np.intp)
                amp = block_entries(amplitudes, block)[order]
                big.append((grid, amp, amp.conj(), smallest[order]))
                continue
            slot[pv] = block[1]
            for j, i in np.ndindex(pv.shape[1] - 1, pv.shape[1]):  # column by column, no copy
                partners[j, pv[:, i]] = pv[:, (i + j + 1) % pv.shape[1]]
        h = cls.__new__(cls)
        h.__dict__.update(dimension=dimension, vertices=_read_only(vertices),
                          amplitudes=_read_only(amplitudes), starts=_read_only(starts),
                          _partners=partners, _slot=slot, _big=big, _padded=padded,
                          _spread=spread)
        return h

    def _entries(self, lo: int, hi: int, alpha: complex, beta: complex, c0, coefficients) -> None:
        """Write the stencil entries of alpha I + beta P at the sites [lo, hi) into
        c0[:hi - lo] and coefficients[:, :hi - lo], ROW_RUN sites at a time.

        c0[s] = alpha + beta |a_s|^2 and coefficients[j, s] = beta a_s conj(a_g),
        g = partners[j, s], on polygons up to STENCIL_CAP sites, read through `_slot`;
        c0 is alpha and the coefficients exactly 0 elsewhere (uncovered sites, padding,
        larger polygons); where every site has m partners (`_padded` is False, as on a
        ring), there is no such site.  Each multiply writes an array that is not one of
        its inputs (see `_mix`), so an entry rounds alike at any run length: entries
        compiled in runs equal those of one whole compile bit for bit.
        """
        for k in range(lo, hi, ROW_RUN):
            at = np.arange(k, min(k + ROW_RUN, hi))
            slot = self._slot[at]
            a = (self.amplitudes.take(slot, mode="clip")  # -1 reads entry 0; overwritten below
                 if len(self.amplitudes) else np.zeros(len(at), np.complex128))
            product = np.multiply(np.conjugate(a), a)
            product.imag = 0.0  # |a_s|^2, without the rounding residue of x y - y x
            c = c0[k - lo:k - lo + len(at)]
            np.add(np.multiply(product, beta, out=c), alpha, out=c)
            if self._padded:  # alpha off the stencil polygons, rounded as on a vector
                np.putmask(c, slot < 0, (np.zeros(2, dtype=np.complex128) * beta + alpha)[0])
            for partners, row in zip(self._partners, coefficients[:, k - lo:k - lo + len(at)]):
                g = partners[at]
                partner = self.amplitudes.take(self._slot[g], mode="clip")
                np.multiply(np.conjugate(partner), a, out=product)
                np.multiply(product, beta, out=row)
                if self._padded:
                    np.putmask(row, g == at, 0)  # padding names the site itself

    def mix(self, psi: np.ndarray, alpha: complex, beta: complex) -> np.ndarray:
        """alpha psi + beta P psi, P = sum_k |a_k><a_k|, on a raw array (1-D or columns).

        Every function of H = 2P - I has this form: exp(i t H) = e^{-it} I + 2i sin(t) P.
        Compiles the rows for (alpha, beta) on each call; `LocalUnitary` keeps its own.
        """
        alpha, beta = complex(alpha), complex(beta)
        c0 = np.empty(self.dimension, dtype=np.complex128)
        coefficients = np.empty(self._partners.shape, dtype=np.complex128)
        self._entries(0, self.dimension, alpha, beta, c0, coefficients)
        return _mix(psi, [(0, c0, tuple(zip(self._partners, coefficients)))],
                    [block[:3] for block in self._big], beta)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """H psi = 2 sum_k <a_k|psi> |a_k> - psi on a raw array (1-D or columns)."""
        return self.mix(psi, -1, 2)


@dataclass(frozen=True)
class LocalUnitary:
    """exp(i theta H) = e^{-i theta} I + 2i sin(theta) P for a reflection H = 2P - I.

    It keeps alpha = e^{-i theta} and beta = 2i sin(theta); theta never changes.
    One store of stencil entries (c0, coefficients), `_rows`, serves `apply`
    (every site) and the windows of an evolution.  It holds the unwrapped
    sites [first, first + size), fewer than n, or every site from 0: site u
    mod n at position u - first.  `_grown` compiles it round the window that
    needs it, so an evolution whose window stays narrow never compiles a row
    of n entries, wherever it starts.
    """

    theta: float
    reflection: OrthogonalReflection

    def __post_init__(self):
        object.__setattr__(self, "_alpha", cmath.exp(-1j * self.theta))
        object.__setattr__(self, "_beta", 2j * math.sin(self.theta))
        m = len(self.reflection._partners)
        object.__setattr__(self, "_rows", (0, (np.empty(0, np.complex128),
                                               np.empty((m, 0), np.complex128))))

    @property
    def dimension(self) -> int:
        return self.reflection.dimension

    def _grown(self, lo: int, hi: int) -> tuple:
        """The store (first, (c0, coefficients)) holding the window [lo, hi) (`_interval`)
        in one run of positions: site u at position (u - first) mod n.

        A store that does not hold the window, its sites unwrapped nearest the store,
        grows to take it in, with as many sites again as the window has (at least
        RUN_AHEAD) on each side it grows: the sites it holds are copied, the new ones
        compiled.  One that would reach n sites holds every site from 0 instead."""
        first, arrays = self._rows
        stop, n = first + len(arrays[0]), self.dimension
        if (first, stop) == (0, n):
            return first, arrays
        if first == stop:  # an empty store starts at the window
            first = stop = lo
        shift = (first + stop - lo - hi + n) // (2 * n) * n  # the middles nearest, by n
        lo, hi = lo + shift, hi + shift
        if first <= lo and hi <= stop:
            return self._rows
        ahead = max(hi - lo, RUN_AHEAD)
        low = first if first <= lo else lo - ahead
        high = stop if hi <= stop else hi + ahead
        if high - low >= n:
            first, stop, low, high = 0, 0, 0, n
            arrays = tuple(a[..., :0] for a in arrays)
        grown = tuple(np.empty(a.shape[:-1] + (high - low,), a.dtype) for a in arrays)
        for old, new in zip(arrays, grown):
            new[..., first - low:stop - low] = old
        for a, b in ((stop, high), (low, first)):
            while a < b:  # a run of sites that does not pass site 0
                k = min(b - a, n - a % n)
                self.reflection._entries(a % n, a % n + k, self._alpha, self._beta,
                                         *(x[..., a - low:a - low + k] for x in grown))
                a += k
        object.__setattr__(self, "_rows", (low, grown))
        return low, grown

    def _window(self, lo: int, hi: int) -> tuple:
        """(stencil segments, big blocks) that update the sites of the window [lo, hi)
        (`_interval`) of a state whose image under this factor lies in it.

        Each run of the window (`_pieces`) gives a stencil segment (first site, c0,
        (partner row, coefficient row) pairs), and each big size block its rows whose
        smallest site lies in that run: every polygon that meets the state lies in
        the window, and the others hold zeros and map them to zeros.
        """
        h, n = self.reflection, self.dimension
        first, (c0, coefficients) = self._grown(lo, hi)
        segments, big = [], []
        for a, b in _pieces(lo, hi):
            s, p = a % n, (a - first) % n
            segments.append((s, c0[p:p + b - a], tuple(zip(h._partners[:, s:s + b - a],
                                                             coefficients[:, p:p + b - a]))))
            for grid, amp, conj, smallest in h._big:
                i, j = np.searchsorted(smallest, (s, s + b - a))
                big.append((grid[i:j], amp[i:j], conj[i:j]))
        return segments, big

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """exp(i theta H) psi on a raw array (1-D or columns), into a new array."""
        segments, big = self._window(0, self.dimension)
        return _mix(psi, segments, big, self._beta)


def _mix(psi, segments, big, beta, out=None, work=None) -> np.ndarray:
    """out[s:s + k] = c0 psi[s:s + k] + sum_j coefficients[j] psi[partners[j]] for each
    stencil segment (s, c0, ((partners[j], coefficients[j]), ...)) of k sites, then
    out += beta <a|psi> a on each polygon of the size blocks (grid, amplitudes, conj) in
    `big`.

    The rest of `out` is left as it is, but for the big polygons' sites.  Every
    temporary is a view of `work`, two complex arrays shaped like psi (fresh ones if
    not given), a segment's at its own sites: a (P, d) grid of disjoint polygons holds
    d P <= n entries per column, and its overlaps 2 P <= n since d > STENCIL_CAP.
    Every multiply writes to an array that is not one of its inputs: numpy 2.4.6
    rounds an in-place multiply of a one-element array without the fused
    multiply-add of its vector loop (Intel Xeon with AVX-512 and FMA), and a window
    may be one site wide.  So a site's entry rounds alike at any window width, bit
    for bit.
    """
    if out is None:
        out = np.empty(psi.shape, dtype=np.complex128)
    if work is None:
        work = [np.empty(psi.shape, dtype=np.complex128) for _ in range(2)]
    columns = psi.ndim > 1  # one row entry per site, for every column
    for s, c0, rows in segments:
        k = s + len(c0)
        x, gathered, product = out[s:k], work[0][s:k], work[1][s:k]
        np.multiply(c0[:, None] if columns else c0, psi[s:k], x)
        for g, c in rows:  # g is in range; "clip" skips the check
            psi.take(g, 0, gathered, "clip")
            np.add(x, np.multiply(c[:, None] if columns else c, gathered, product), x)
    for grid, amp, conj in big:
        shape = grid.shape + psi.shape[1:]
        x, product = (w.reshape(-1)[:math.prod(shape)].reshape(shape) for w in work)
        overlap, scaled = work[1].reshape(-1)[:2 * math.prod(shape) // grid.shape[1]].reshape(
            2, grid.shape[0], *psi.shape[1:])
        psi.take(grid, axis=0, out=x, mode="clip")
        np.einsum("pd...,pd->p...", x, conj, out=overlap)
        np.multiply(overlap, beta, out=scaled)
        np.copyto(x, scaled[:, None])  # spread over each polygon: a broadcast multiply allocates
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
        """One step on a raw array, each factor writing a new array on every site.

        Given `support`, made from the start state of a 1-D evolution, every LEAD_STEPS
        steps the support's window first widens by the spread of the next LEAD_STEPS
        steps (`ActiveSupport.ahead`); each factor then updates the window's sites
        (its cut, `LocalUnitary._window`) into the support buffer that is not its input,
        using the support's work arrays; then `ActiveSupport.flush` runs.
        """
        if support is None:
            for f in self.factors:
                psi = f.apply(psi)
            return psi
        if support.steps % LEAD_STEPS == 0:
            support.ahead(self.factors)
        for f, (segments, big) in zip(self.factors, support.cuts):
            psi = _mix(psi, segments, big, f._beta, support.buffers[psi is support.buffers[0]],
                       support.work)
        support.flush(psi)
        return psi


class ActiveSupport:
    """Two zeroed state buffers, two work arrays and the window of one 1-D evolution.

    Every site outside `window` (`_interval`) holds exactly 0 in the state and
    in both buffers.  The window starts as the shortest interval of the sites,
    read round the ring, that holds the nonzero sites of the start state, and
    every LEAD_STEPS steps `ahead` widens it on each side by the spread of that
    many steps: every site of a polygon that meets the window lies within the
    factor's spread (`_spread`) of it round the ring.  So each factor updates
    the window's sites only: its polygons that meet the state's nonzero sites
    lie there, and every other polygon holds zeros and maps them to zeros.
    The result is the full update's bit for bit (an exact zero may differ in
    sign).  Where the polygons join nearby sites, as on the line's ring in
    `line_tessellations` numbering (a spread of one site per factor), a step
    costs O(width), the light cone of the start; a dense start or a polygon
    that joins far sites widens the window to every site within a step.

    Every LEAD_STEPS steps, `flush` sets the subnormal components of the state to 0.
    `work` holds every temporary of `_mix` and `flush` for the run: fresh arrays on
    every factor can make glibc trim and regrow the heap top each time, at a page
    fault per page (2x the wall time of a 2000-step walk on an 8012-site ring in
    some heap layouts).
    """

    def __init__(self, psi0: np.ndarray):
        # np.zeros, unlike zeros_like, leaves a large buffer's pages untouched until written
        self.buffers = (np.zeros(psi0.shape, psi0.dtype), np.zeros(psi0.shape, psi0.dtype))
        self.work = [np.empty(psi0.shape, np.complex128) for _ in range(2)]
        nonzero = np.flatnonzero(psi0)
        gap = self.work[0].view(np.intp)[:len(nonzero)]  # to the next one round the ring
        np.subtract(nonzero[1:], nonzero[:-1], out=gap[:-1])
        gap[-1] = nonzero[0] + len(psi0) - nonzero[-1]
        after = int(np.argmax(gap))  # the window runs from past the largest gap
        self.window = _interval(int(nonzero[(after + 1) % len(nonzero)]),
                                int(nonzero[after]) + 1, len(psi0))
        self.steps = 0

    def ahead(self, factors) -> None:
        """Widen the window on each side by the spread of LEAD_STEPS steps of the factors,
        so it holds the state until the next call, and keep each factor's cut of its
        rows for it (`LocalUnitary._window`) in `cuts`."""
        spread = LEAD_STEPS * sum(f.reflection._spread for f in factors)
        lo, hi = self.window
        self.window = _interval(lo - spread, hi + spread, len(self.buffers[0]))
        self.cuts = [f._window(*self.window) for f in factors]

    def flush(self, psi: np.ndarray) -> None:
        """Count a step; every LEAD_STEPS of them, set the subnormal real and imaginary
        parts of psi, the step's output buffer, to 0 in the window.

        A part below SMALLEST_NORMAL squares to a probability of 0, but x86
        arithmetic on a subnormal operand is far slower (a microcode assist).
        The tail ahead of a walk's front decays into that range: on a 2000-step
        walk on an 8012-site ring, 2618 of the 16 024 parts were subnormal by the
        last step, and a full step took 412 us instead of ~90 us (2-vCPU Xeon,
        numpy 2.4.6).  With this flush at most 24 parts are subnormal at any
        step, and a flush costs ~12 us.
        """
        self.steps += 1
        if self.steps % LEAD_STEPS:
            return
        for a, b in _pieces(*self.window):
            parts = psi[a % len(psi):a % len(psi) + b - a].view(np.float64)
            magnitude = self.work[0].view(np.float64)[:parts.size]
            below = self.work[1].view(bool)[:parts.size]
            np.less(np.abs(parts, out=magnitude), SMALLEST_NORMAL, out=below)
            np.copyto(parts, 0.0, where=below)


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
