"""Numerical tolerances shared by the whole package.

NORM_TOL bounds |norm - 1| for every vector that is *given*: polygon
amplitudes, reflection vectors and input states (what their entries sum to).
A state's norm is checked once, where the state is made: against NORM_TOL by
`WalkState` and `superposition_state`, `drift_bound(steps)` by `evolve_final`
(final state only) and QUAD_FAIL_TOL by `line_analytic.wavefunction`.
"""

from __future__ import annotations

NORM_TOL = 1e-12

# Each step applies a few exp(i theta H) factors, each exactly unitary in
# exact arithmetic; in floating point the norm takes a random walk of about
# one ulp per factor (measured: 1.9e-12 after 20 000 two-factor steps on a
# 1024-site ring, i.e. ~1e-16 per step).  The bound allows 1e-14 per step,
# two orders of magnitude above that, and still catches a non-unitary step,
# whose error grows geometrically.
STEP_DRIFT_TOL = 1e-14

PROB_TOL = 1e-10  # |sum - 1| of given probabilities: a float sum of n terms rounds by ~n ulp
WRAP_TOL = 1e-12  # antipode mass that fails a ring run; a smaller wrapped tail is negligible
QUAD_TOL = 1e-10  # relative change between node doublings that ends the odd-moment quadrature
QUAD_FAIL_TOL = 1e-8  # |norm - 1| of a momentum-sum wavefunction: FFT rounding grows with n
EPS_DEGENERATE = 1e-10  # |b| or sin(lam) at which a block is diagonal: its normalizer vanishes
MOMENT_SLACK = 1e-9  # relative slack of <x^2> >= <x>^2: raw moments round at ~1e-16 of size


def drift_bound(steps: int) -> float:
    """Largest |norm - 1| accepted after `steps` steps from a unit state."""
    return NORM_TOL + steps * STEP_DRIFT_TOL
