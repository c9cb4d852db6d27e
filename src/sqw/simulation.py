"""State-vector trajectories, probability distributions, and moments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LabelMismatch, WavefrontWrapped
from .operators import ROW_RUN, ActiveSupport, EvolutionOperator, _check_dim
from .state import WalkState, basis_state, superposition_state
from .tolerances import MOMENT_SLACK, PROB_TOL, WRAP_TOL, drift_bound

__all__ = [
    "WalkState", "basis_state", "superposition_state",
    "ProbabilityDistribution", "MomentSummary",
    "evolve", "evolve_final", "distribution", "moments", "wrap_check", "WrapGuard",
    "ring_labels", "distribution_to_tsv",
]


@dataclass(frozen=True)
class ProbabilityDistribution:
    """Per-vertex probabilities with signed position labels."""

    probabilities: np.ndarray
    position_labels: np.ndarray

    def __post_init__(self):
        self._freeze(np.array(self.probabilities, dtype=np.float64), self.position_labels)
        if np.any(self.probabilities < 0):
            raise ValueError("probabilities must be non-negative")
        total = float(self.probabilities.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @classmethod
    def _own(cls, p: np.ndarray, labels) -> ProbabilityDistribution:
        """Wrap `p`, a fresh float64 vector nothing else will write, without a copy or a sum
        check; it becomes read-only.  The labels are copied, as the constructor copies both."""
        d = object.__new__(cls)
        d._freeze(p, labels)
        return d

    def _freeze(self, p: np.ndarray, labels) -> None:
        labels = np.array(labels, dtype=np.int64)
        if p.shape != labels.shape or p.ndim != 1:
            raise LabelMismatch("need one integer label per probability")
        p.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "position_labels", labels)


@dataclass(frozen=True)
class MomentSummary:
    """Mean, raw second moment, and standard deviation at one time step."""

    mean: float
    second_moment: float
    sigma: float
    step: int

    def __post_init__(self):
        if self.second_moment < self.mean ** 2 - MOMENT_SLACK * max(1.0, self.second_moment):
            raise ValueError("second moment below squared mean")


def ring_labels(size: int) -> np.ndarray:
    """Signed line coordinates for ring indices: i for i < N/2, else i - N."""
    i = np.arange(size, dtype=np.int64)
    i[size // 2:] -= size
    return i


def evolve_final(u: EvolutionOperator, psi0: WalkState, steps: int, observers=()) -> WalkState:
    """U^steps psi0: the one evolution loop, on raw arrays, storing no trajectory.

    Each factor updates only a window of the sites that the amplitude can have
    reached (`operators.ActiveSupport`): an interval of the sites read round
    the ring, widened by the factors' spread, with each factor's stencil
    entries compiled round it once and kept for this run only.  A step costs
    O(window) for polygons of at most `operators.STENCIL_CAP` sites: the light
    cone of psi0 where polygons join nearby sites, as on the line's ring, and
    O(n) for a dense start or a scattered graph.  Every `operators.LEAD_STEPS` steps the
    subnormal parts of the state are set to 0; else the amplitudes are those
    of a step of every site bit for bit (an exact zero may differ in sign).

    Each observer is called as observer(step, psi) on psi0 (step 0) and after
    every step; psi is the raw amplitude array, which it must not modify.
    After step 0 it is one of two buffers the loop reuses, so the next step
    overwrites it: an observer that keeps a state copies it (as `evolve` does).
    Only the final norm is checked, against `tolerances.drift_bound(steps)`
    (NotNormalized beyond it); the final state holds the last loop buffer
    itself, made read-only, not a copy.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    _check_dim(u.dimension, psi0)
    psi = psi0.amplitudes
    support = ActiveSupport(psi)
    for step in range(steps + 1):
        if step:
            psi = u.step_array(psi, support)
        for observe in observers:
            observe(step, psi)
    del support  # free the other buffer and the work arrays; psi is the loop's alone
    if not steps:
        return psi0
    return WalkState._own(psi, drift_bound(steps))


def evolve(u: EvolutionOperator, psi0: WalkState, steps: int) -> list[WalkState]:
    """Trajectory [psi0, U psi0, ..., U^steps psi0]; holds steps + 1 states."""
    trajectory = []
    evolve_final(u, psi0, steps, [lambda step, psi: trajectory.append(
        WalkState._own(psi.copy(), None) if step else psi0)])
    return trajectory


def distribution(psi: WalkState, labeling) -> ProbabilityDistribution:
    """|amplitude|^2 per vertex, tagged with the given position labels, one per vertex.

    Squares |amplitude| in place (the bits of ** 2) and hands that one array to the
    distribution, which copies only the labels and checks no sum: a state's norm is
    checked where the state is made."""
    p = np.abs(psi.amplitudes)
    return ProbabilityDistribution._own(np.square(p, out=p), labeling)


def moments(d: ProbabilityDistribution, step: int = 0) -> MomentSummary:
    """Raw moments <x> and <x^2> plus sigma, the root of the centred second moment
    sum p (x - mean)^2: from <x^2> - mean^2 the two raw moments cancel far from the
    origin."""
    x = d.position_labels.astype(np.float64)
    mean = float(np.sum(d.probabilities * x))
    sigma = math.sqrt(float(np.sum(d.probabilities * (x - mean) ** 2)))
    return MomentSummary(mean, float(np.sum(d.probabilities * x ** 2)), sigma, step)


def wrap_check(trajectory, guard_band: int, first_step: int = 0) -> None:
    """Certify that a ring trajectory never reached the antipode of site 0.

    Checks that the probability within `guard_band` sites of the antipodal
    point stays within WRAP_TOL at every step; when it does, the finite ring
    reproduces the infinite line exactly.  Raises WavefrontWrapped otherwise.
    `trajectory` is any iterable of states or raw amplitude arrays, read one
    at a time; its first entry is step `first_step`.
    """
    window = None
    for step, state in enumerate(trajectory, first_step):
        psi = getattr(state, "amplitudes", state)
        if window is None:
            n = psi.shape[0]
            window = sorted({(n // 2 + off) % n for off in range(-guard_band, guard_band + 1)})
        mass = float(np.sum(np.abs(psi[window]) ** 2))
        if mass > WRAP_TOL:
            raise WavefrontWrapped(step, mass)


class WrapGuard:
    """Observer for `evolve_final` that fails a run once the probability at one site
    exceeds WRAP_TOL, as one amplitude read: on an n-site ring in ring order, site n // 2
    gives `wrap_check` with guard band 0, which fails a run once its front reaches the
    antipode."""

    def __init__(self, site: int):
        self.site = site

    def __call__(self, step: int, psi: np.ndarray) -> None:
        if psi[self.site] == 0:  # the seam outside the light cone: no mass to compute
            return
        # a one-element array, as in wrap_check: numpy's array abs and ** 2 can
        # differ in the last bit from abs and ** 2 on a scalar
        mass = float((np.abs(psi[self.site:self.site + 1]) ** 2)[0])
        if mass > WRAP_TOL:
            raise WavefrontWrapped(step, mass)


def distribution_to_tsv(d: ProbabilityDistribution, extra_columns=()) -> str:
    """TSV with columns `position`, `probability`, then any extra (name, values)
    columns, sorted by position.

    Rows whose probability and extra values are all zero are left out before the
    sort; only the rows kept are sorted and formatted.
    """
    labels = d.position_labels
    columns = [d.probabilities, *(np.asarray(col, dtype=np.float64) for _, col in extra_columns)]
    rows = _written_rows(labels, columns)
    return tsv_table(["position", "probability", *(name for name, _ in extra_columns)],
                     [labels[rows], *(col[rows] for col in columns)])


def _written_rows(labels: np.ndarray, columns) -> np.ndarray:
    """The rows `distribution_to_tsv` writes, in its order: those where some column is
    nonzero, sorted by label."""
    rows = np.flatnonzero(np.any([col != 0.0 for col in columns], axis=0))
    return rows[np.argsort(labels[rows], kind="stable")]


def tsv_table(header, columns) -> str:
    """Tab-separated text: the header, then row i holds entry i of every column.

    Integer columns are written as integers, all others as %.17g, which
    reads back to the same float bit for bit.  The rows are formatted
    `operators.ROW_RUN` at a time, so no temporary outgrows a run of rows.  In
    a run where a float64 column holds at most half as many distinct values
    as rows (by bits: -0.0 is not 0.0), each distinct value is formatted once
    and the texts are entered by %s (`_formatted_once`); a run with fewer
    repeats is formatted value by value.  The bytes are the same either way.
    """
    columns = [np.asarray(col) for col in columns]
    if len({len(col) for col in columns}) > 1:
        raise ValueError("TSV columns differ in length")
    return "\n".join(["\t".join(header), *_tsv_rows(columns)]) + "\n"


def _tsv_rows(columns):
    """The row strings of `tsv_table`, one run of ROW_RUN rows at a time; a generator,
    so a run's texts are freed before the rows are joined."""
    for lo in range(0, len(columns[0]) if columns else 0, ROW_RUN):
        run, formats = [col[lo:lo + ROW_RUN] for col in columns], []
        for i, col in enumerate(run):
            if col.dtype.kind in "iu":
                formats.append("%d")
                continue
            texts = _formatted_once(col, "%.17g") if col.dtype == np.float64 else None
            if texts is None:
                formats.append("%.17g")
            else:
                run[i] = texts
                formats.append("%s")
        yield from map("\t".join(formats).__mod__, zip(*run))


def _formatted_once(values: np.ndarray, fmt: str):
    """`fmt % v` for each v of a float64 array, as an object array of texts, with each
    distinct value formatted once; None when more than half the values are distinct, as
    a text per value would then cost memory and save little.  Values are told apart by
    their bits, so -0.0 and 0.0, and nans of different payloads, each get their own."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    if 2 * len(bits) > len(values):
        return None
    return np.array([fmt % v for v in bits.view(np.float64).tolist()], dtype=object)[inverse]
