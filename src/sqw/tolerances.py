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


def drift_bound(steps: int) -> float:
    """Largest |norm - 1| accepted after `steps` steps from a unit state."""
    return NORM_TOL + steps * STEP_DRIFT_TOL
