"""Orthogonal reflections, their exponentials, and composed evolution operators.

A reflection induced by disjoint polygon vectors {|a_k>} is H = 2 P - I with
P = sum_k |a_k><a_k|.  H is unitary, Hermitian and involutive, so the local
unitary exp(i t H) is exactly cos(t) I + i sin(t) H.  One walk step applies an
ordered list of such local unitaries.
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


@dataclass(frozen=True, init=False, eq=False)
class OrthogonalReflection(PolygonArrays):
    """The operator 2 sum_k |a_k><a_k| - I, stored by its sparse polygon vectors.

    Polygon vector k is polygon k of the flat arrays (see
    :class:`~sqw.graphs.PolygonArrays`); supports are pairwise disjoint,
    amplitudes nonzero and unit-norm.  Basis vectors outside every support are
    eigenvectors with eigenvalue -1.  The kernel gathers the polygons of each
    size d as one dense block whose column k is polygon k of that size.
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
        blocks = []  # (gather index, (d, P) amplitudes, their conjugates) per size d
        for _, _, rows in size_blocks(starts, len(vertices)):
            amp = np.ascontiguousarray(amplitudes[rows].T)
            blocks.append((vertices[rows].T.ravel().astype(np.intp), amp, amp.conj()))
        h = cls.__new__(cls)
        h.__dict__.update(dimension=dimension, vertices=vertices, amplitudes=amplitudes,
                          starts=starts, _full=len(vertices) == dimension, _blocks=blocks)
        return h

    def mix(self, psi: np.ndarray, alpha: complex, beta: complex,
            out: np.ndarray | None = None) -> np.ndarray:
        """alpha psi + beta P psi, P = sum_k |a_k><a_k|, on a raw array (1-D or columns).

        Every function of H = 2P - I has this form: exp(i t H) = e^{-it} I + 2i sin(t) P.
        The result goes to `out` (complex, shaped like psi, not psi) if given, else to a new array.
        """
        alpha, beta = complex(alpha), complex(beta)
        out = np.empty(psi.shape, dtype=np.complex128) if out is None else out
        if not self._full:
            np.multiply(psi, alpha, out=out)
        for sites, amp, conj in self._blocks:  # each column x becomes alpha x + beta <a|x> a
            x = psi[sites].reshape(amp.shape + psi.shape[1:])
            # einsum sums the products without a state-sized temporary (fewer page faults)
            overlap = np.einsum("dp...,dp->p...", x, conj)
            overlap *= beta
            x *= alpha
            x += overlap * amp.reshape(amp.shape + (1,) * (psi.ndim - 1))
            out[sites] = x.reshape((-1,) + psi.shape[1:])
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

    def apply(self, psi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return self.reflection.mix(psi, cmath.exp(-1j * self.theta), 2j * math.sin(self.theta),
                                   out)


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

    def step_array(self, psi: np.ndarray, buffers=None) -> np.ndarray:
        """One step on a raw array.  Given `buffers`, two complex arrays shaped like psi,
        each factor writes into the one that is not its input; else into a new array."""
        for f in self.factors:
            psi = f.apply(psi, None if buffers is None else buffers[psi is buffers[0]])
        return psi

    def step(self, state: WalkState) -> WalkState:
        _check_dim(self.dimension, state)
        return WalkState(self.step_array(state.amplitudes))


def _check_dim(expected: int, state: WalkState) -> None:
    if state.dimension != expected:
        raise DimensionMismatch(expected, state.dimension)


def reflection_from_tessellation(t: Tessellation) -> OrthogonalReflection:
    """Embed a valid tessellation's polygon vectors as an orthogonal reflection."""
    validate_tessellation(t.parent, t)
    return OrthogonalReflection.from_arrays(t.parent.vertex_count, t.vertices, t.amplitudes,
                                            t.starts)


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
