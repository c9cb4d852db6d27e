"""Closed-form momentum-space machinery for the one-dimensional walk.

For each momentum k the two-site unit cell reduces the step operator to the
2x2 unitary block [[a, -conj(b)], [b, conj(a)]] with eigenvalues e^{+-i lam},
cos(lam) = Re(a).  Everything here (wavefunctions, asymptotic moments, the
variance closed form) is built from those blocks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBlock, DomainError, QuadratureNotConverged
from .simulation import ring_labels, tsv_table
from .state import check_norm, summed_entries

QUAD_START_NODES = 512
QUAD_MAX_NODES = 1 << 18
QUAD_TOL = 1e-10
QUAD_FAIL_TOL = 1e-8
EPS_DEGENERATE = 1e-10


@dataclass(frozen=True)
class LineParams:
    """Angles of the two-tessellation walk on the line with a common theta."""

    theta: float
    alpha: float
    beta: float
    phi0: float = 0.0
    phi1: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta"):
            angle = getattr(self, name)
            if not 0.0 < angle < math.pi:
                raise DomainError(f"{name}={angle} must lie strictly inside (0, pi)")


@dataclass(frozen=True)
class ReducedBlock:
    """One momentum block: entries a, b, eigenphase lam, and normalizers c+-.

    Satisfies |a|^2 + |b|^2 = 1, cos(lam) = Re(a), and
    c+- = sin(lam) (2 sin(lam) +- i (a - conj(a))).
    """

    k: float
    a: complex
    b: complex
    lam: float
    c_plus: complex
    c_minus: complex

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, -np.conj(self.b)], [self.b, np.conj(self.a)]],
                        dtype=np.complex128)


def coefficients_AB(p: LineParams, k):
    """The diagonal and off-diagonal block coefficients at momentum k.

    Accepts a scalar or an array of k values and returns the pair (a, b)
    of matching shape; |a|^2 + |b|^2 = 1 for every k.
    """
    k = np.asarray(k, dtype=np.float64)
    st, ct = math.sin(p.theta), math.cos(p.theta)
    sa, ca = math.sin(p.alpha), math.cos(p.alpha)
    sb, cb = math.sin(p.beta), math.cos(p.beta)
    a = (st ** 2 * (ca * cb - sa * sb * np.exp(1j * (p.phi0 + p.phi1 + 2 * k)))
         + ct ** 2 + 1j * st * ct * (ca - cb))
    b = (st * sa * (1j * ct - st * cb) * np.exp(1j * (p.phi0 + k))
         + st * sb * (1j * ct - st * ca) * np.exp(-1j * (p.phi1 + k)))
    if k.ndim == 0:
        return complex(a), complex(b)
    return a, b


def _block_arrays(p: LineParams, k: np.ndarray):
    """Vectorized block data: a, b, Im(a), sin(lam), lam, and guarded ratios.

    sin(lam) is computed from the exact identity sin^2(lam) = Im(a)^2 + |b|^2,
    which keeps |Im(a)| <= sin(lam) and |b| <= sin(lam) well defined; at
    degenerate points (sin(lam) = 0) both ratios are set to 0, which is exact
    for the integer-step kernels because sin(lam * t) vanishes there too.
    """
    a, b = coefficients_AB(p, k)
    a = np.atleast_1d(a)
    b = np.atleast_1d(b)
    im_a = a.imag
    sin_lam = np.sqrt(im_a ** 2 + np.abs(b) ** 2)
    lam = np.arctan2(sin_lam, a.real)
    nz = sin_lam > 0
    safe = np.where(nz, sin_lam, 1.0)
    ratio_a = np.where(nz, im_a / safe, 0.0)
    ratio_b = np.where(nz, b / safe, 0.0)
    return a, b, im_a, sin_lam, lam, ratio_a, ratio_b


def reduced_block(p: LineParams, k: float) -> ReducedBlock:
    """Evaluate one momentum block, with lam = arccos(Re a) taken in [0, pi]."""
    a, b, im_a, sin_lam, lam, _, _ = _block_arrays(p, np.float64(k))
    a, b = complex(a[0]), complex(b[0])
    lam = float(lam[0])
    diff = a - np.conj(a)
    sl = float(sin_lam[0])
    c_plus = sl * (2 * sl + 1j * diff)
    c_minus = sl * (2 * sl - 1j * diff)
    return ReducedBlock(float(k), a, b, lam, complex(c_plus), complex(c_minus))


def block_eigenvectors(block: ReducedBlock, eps: float = EPS_DEGENERATE):
    """Unit eigenvectors (-conj(b), e^{+-i lam} - a)/sqrt(c+-) of the block.

    Raises DegenerateBlock when |b| or sin(lam) is below eps; the block is
    then diagonal and the basis vectors themselves are eigenvectors.
    """
    sin_lam = math.sin(block.lam)
    if abs(block.b) <= eps or sin_lam <= eps:
        raise DegenerateBlock(
            f"block at k={block.k} is diagonal (|b|={abs(block.b):.2e}, "
            f"sin lam={sin_lam:.2e}); eigenvectors are the basis vectors")
    vectors = []
    for sign, c in ((+1, block.c_plus), (-1, block.c_minus)):
        phase = cmath.exp(1j * sign * block.lam)
        v = np.array([-np.conj(block.b), phase - block.a], dtype=np.complex128)
        vectors.append(v / np.sqrt(c))
    return vectors[0], vectors[1]


# --- wavefunction -------------------------------------------------------------


def _brackets(p, k, t, entries):
    """Momentum-space coefficients of U^t applied to the initial state.

    Returns (even, odd): the coefficient functions whose inverse transforms
    give the amplitudes on even and odd sites.
    """
    _, _, _, _, lam, ratio_a, ratio_b = _block_arrays(p, k)
    cos_t = np.cos(lam * t)
    sin_t = np.sin(lam * t)
    f_even = np.zeros_like(k, dtype=np.complex128)
    f_odd = np.zeros_like(k, dtype=np.complex128)
    for s, c in entries:
        target = f_even if s % 2 == 0 else f_odd
        target += c * np.exp(1j * s * k)
    diag = cos_t + 1j * ratio_a * sin_t
    even = f_even * diag - f_odd * np.conj(ratio_b) * sin_t
    odd = f_even * ratio_b * sin_t + f_odd * np.conj(diag)
    return even, odd


def _transform(even, odd, positions, length: int):
    """(2 / length) sum_j c_j e^{-i x k_j} over the ring momenta k_j = 2 pi j / length.

    c is `even` at even x and `odd` at odd x (length / 2 momenta each, zero-padded
    to `length`).  The sum equals (2 / length) FFT_length(c)[x mod length] at
    every integer x, so one FFT of the two stacked coefficient rows serves every
    position.
    """
    spectra = np.fft.fft(np.stack((even, odd)), n=length, axis=1)
    return (2.0 / length) * spectra[positions % 2, positions % length]


def wavefunction(p: LineParams, t: int, positions=None, *,
                 initial=((0, 1.0),), ring_size: int | None = None) -> np.ndarray:
    """Amplitudes after t steps from a localized initial state, by momentum sum.

    On an even ring of N sites the walk is exactly the finite sum over the N/2
    ring momenta 2 pi j / N, one FFT: O(N log N + positions).  With
    ring_size=None this is the infinite line: every factor moves amplitude by
    at most one site, so after t steps it lies within the light cone
    [min source - 2t - 1, max source + 2t + 1], and on any even ring that
    holds the cone each ring amplitude equals the line amplitude; the ring
    used is the smallest power of two that does.  The final norm is checked
    against QUAD_FAIL_TOL (NotNormalized beyond it).

    `initial` lists (position, amplitude) pairs; the state is what they sum
    to (`state.summed_entries`), and its norm is checked within NORM_TOL first.
    `positions` selects which amplitudes to return (default: every position
    that can carry amplitude, or every ring site in ring mode).
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    entries = summed_entries(initial)
    check_norm(np.array(list(entries.values()), dtype=np.complex128))
    if ring_size is None:
        full = np.arange(min(entries) - 2 * t - 1, max(entries) + 2 * t + 2, dtype=np.int64)
        n = 1 << (len(full) - 1).bit_length()  # a power of two: no slow prime-length FFT
    else:
        if ring_size < 4 or ring_size % 2:
            raise ValueError(f"ring_size must be an even integer >= 4, got {ring_size}")
        n = ring_size
        full = ring_labels(n)
    even, odd = _brackets(p, 2.0 * math.pi * np.arange(n // 2) / n, t, entries.items())
    amps = _transform(even, odd, full, n)
    check_norm(amps, QUAD_FAIL_TOL)

    if positions is None:
        return amps
    # full holds the consecutive integers full.min()..full.max(), the entry for
    # x at index (x - full[0]) mod len(full) (the ring lists them from 0 up).
    requested = np.asarray(positions, dtype=np.int64)
    inside = (requested >= full.min()) & (requested <= full.max())
    return np.where(inside, amps[(requested - full[0]) % len(full)], 0.0)


# --- asymptotic moments and the variance closed form ---------------------------


def asymptotic_odd_moment(p: LineParams, n: int, t: int) -> float:
    """Leading-order <x^{2n-1}> at step t for the walk started at the origin.

    Evaluates t^{2n-1}/(4 pi) times the momentum integral of the drift integrand
    [(a - conj(a)) / (i sin lam)]^{2n} = (2 ratio_a)^{2n} (`_block_arrays`; at most
    4^n) on a uniform grid offset half a cell so removable 0/0 points never land
    on nodes, doubling until successive values agree.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    nodes = QUAD_START_NODES
    prev = None
    while True:
        k = -math.pi + (np.arange(nodes) + 0.5) * (2.0 * math.pi / nodes)
        ratio_a = _block_arrays(p, k)[5]
        integral = float(np.sum((2.0 * ratio_a) ** (2 * n))) * (2.0 * math.pi / nodes)
        if prev is not None and abs(integral - prev) <= QUAD_TOL * (1.0 + abs(integral)):
            break
        if nodes * 2 > QUAD_MAX_NODES:
            raise QuadratureNotConverged(nodes, abs(integral - (prev or 0.0)), QUAD_TOL)
        prev = integral
        nodes *= 2
    return t ** (2 * n - 1) / (4.0 * math.pi) * integral


def asymptotic_sigma2(p: LineParams, t: int) -> float:
    """Leading-order variance (2t - <x>) <x> from the first odd moment."""
    m1 = asymptotic_odd_moment(p, 1, t)
    return (2.0 * t - m1) * m1


def closed_form_sigma2(theta: float, alpha: float, t: int) -> float:
    """Variance 4 sqrt(1-s)(1-sqrt(1-s)) t^2 with s = sin^2(theta) sin^2(alpha).

    Valid for equal tessellation angles alpha = beta <= pi/2 with zero phases;
    alpha outside [0, pi/2] raises DomainError.
    """
    if not 0.0 <= alpha <= math.pi / 2:
        raise DomainError(f"alpha={alpha} outside [0, pi/2]")
    s = (math.sin(theta) * math.sin(alpha)) ** 2
    root = math.sqrt(max(0.0, 1.0 - s))
    return 4.0 * root * (1.0 - root) * t * t


def sigma2_surface(theta_values, alpha_values) -> np.ndarray:
    """Table of sigma^2/t^2 over a (theta, alpha) grid inside [0, pi]^2.

    Alpha beyond pi/2 is mirrored through pi/2: the closed form depends on
    alpha only through sin^2(alpha).
    """
    thetas = np.asarray(theta_values, dtype=np.float64)
    alphas = np.asarray(alpha_values, dtype=np.float64)
    for name, values in (("theta", thetas), ("alpha", alphas)):
        if values.size and (values.min() < 0.0 or values.max() > math.pi):
            raise ValueError(f"{name} grid must lie within [0, pi]")
    # closed_form_sigma2(theta, min(alpha, pi - alpha), 1) in every cell, operation for
    # operation; float_power squares through pow() as ** does (x * x can differ by an ulp)
    mirrored = np.minimum(alphas, math.pi - alphas)
    s = np.float_power(np.multiply.outer(np.sin(thetas), np.sin(mirrored)), 2.0)
    root = np.sqrt(np.maximum(0.0, 1.0 - s))
    return 4.0 * root * (1.0 - root)


# --- TSV tables ----------------------------------------------------------------


def surface_to_tsv(theta_values, alpha_values, table: np.ndarray) -> str:
    """TSV with columns theta, alpha, sigma2_over_t2, row-major over the grid."""
    thetas = np.asarray(theta_values, dtype=np.float64)
    alphas = np.asarray(alpha_values, dtype=np.float64)
    return tsv_table(("theta", "alpha", "sigma2_over_t2"),
                     (np.repeat(thetas, len(alphas)), np.tile(alphas, len(thetas)),
                      np.asarray(table, dtype=np.float64).ravel()))
