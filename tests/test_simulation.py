import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqw import (
    MomentSummary,
    basis_state,
    closed_form_sigma2,
    compose,
    distribution,
    distribution_to_tsv,
    evolve,
    evolve_final,
    line_tessellations,
    moments,
    reflection_from_tessellation,
    ring_labels,
    superposition_state,
    wrap_check,
)
from sqw.errors import DimensionMismatch, LabelMismatch, NotNormalized, WavefrontWrapped
from sqw.simulation import ProbabilityDistribution, WalkState, WrapGuard
from sqw.state import check_norm
from sqw.tolerances import NORM_TOL, drift_bound

from conftest import random_state_array


def line_operator(n, theta, alpha=math.pi / 2, beta=math.pi / 2, phi0=0.0, phi1=0.0,
                  theta1=None):
    t0, t1 = line_tessellations(n, alpha, beta, phi0, phi1)
    return compose([(theta, reflection_from_tessellation(t0)),
                    (theta if theta1 is None else theta1,
                     reflection_from_tessellation(t1))])


class TestEvolve:
    def test_zero_steps(self):
        u = line_operator(8, 0.7)
        psi0 = basis_state(8, 0)
        traj = evolve(u, psi0, 0)
        assert len(traj) == 1 and traj[0] is psi0

    def test_identity_evolution_constant(self):
        u = line_operator(8, 0.0)
        psi0 = basis_state(8, 3)
        traj = evolve(u, psi0, 5)
        for state in traj:
            assert np.allclose(state.amplitudes, psi0.amplitudes)

    def test_norm_one_along_trajectory(self):
        u = line_operator(32, 1.1, 0.9, 2.2, 0.3, -0.4)
        rng = np.random.default_rng(9)
        traj = evolve(u, WalkState(random_state_array(rng, 32)), 40)
        assert len(traj) == 41
        for state in traj:
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_probability_conservation(self):
        u = line_operator(64, math.pi / 4)
        traj = evolve(u, basis_state(64, 0), 15)
        for state in traj:
            total = float(np.sum(np.abs(state.amplitudes) ** 2))
            assert abs(total - 1.0) < 1e-10

    def test_dimension_mismatch(self):
        u = line_operator(8, 0.5)
        with pytest.raises(DimensionMismatch):
            evolve(u, basis_state(6, 0), 1)

    def test_final_matches_trajectory(self):
        u = line_operator(16, 0.8)
        psi0 = basis_state(16, 1)
        assert np.allclose(evolve_final(u, psi0, 7).amplitudes,
                           evolve(u, psi0, 7)[-1].amplitudes)

    def test_two_peaked_spread_profile(self):
        # 60 steps at theta=pi/4 from (|0>+|1>)/sqrt(2): symmetric twin fronts
        n, t = 256, 60
        u = line_operator(n, math.pi / 4)
        psi0 = superposition_state(n, [(0, 2 ** -0.5), (1, 2 ** -0.5)])
        final = evolve(u, psi0, t)[-1]
        labels = ring_labels(n)
        p = np.abs(final.amplitudes) ** 2
        top = sorted(int(labels[i]) for i in np.argsort(p)[-4:])
        assert top[0] < -60 and top[-1] > 60  # peaks sit near the two fronts
        center_mass = p[np.abs(labels) <= t // 4].sum()
        assert center_mass < 0.25  # valley between the peaks


class TestStreamingLoop:
    """evolve_final is the one loop; the CLI runs it with the wrap guard as an observer."""

    def test_observers_see_every_step(self):
        u = line_operator(16, 0.8)
        psi0 = basis_state(16, 1)
        seen = []
        final = evolve_final(u, psi0, 5, [lambda step, psi: seen.append((step, psi.copy()))])
        assert [step for step, _ in seen] == list(range(6))
        for (_, psi), state in zip(seen, evolve(u, psi0, 5)):
            assert np.array_equal(psi, state.amplitudes)
        assert np.array_equal(final.amplitudes, seen[-1][1])

    def test_zero_steps_returns_input(self):
        psi0 = basis_state(8, 0)
        assert evolve_final(line_operator(8, 0.3), psi0, 0) is psi0

    def test_negative_steps(self):
        with pytest.raises(ValueError):
            evolve_final(line_operator(8, 0.3), basis_state(8, 0), -1)

    def test_wrap_guard_stops_at_same_step(self):
        n, t = 24, 24
        u = line_operator(n, math.pi / 4)
        with pytest.raises(WavefrontWrapped) as full:
            wrap_check(evolve(u, basis_state(n, 0), t), guard_band=1)

        def guard(step, psi):
            wrap_check((psi,), guard_band=1, first_step=step)

        with pytest.raises(WavefrontWrapped) as streamed:
            evolve_final(u, basis_state(n, 0), t, [guard])
        assert streamed.value.step == full.value.step
        assert streamed.value.mass == full.value.mass

    @pytest.mark.parametrize("start", [0, 117])
    def test_wrap_guard_runs_every_step(self, start):
        # a ring too small for its steps: the guard runs on every step from 0
        # and stops where `wrap_check` run on every step does, with the same
        # mass.  From site 0 the window holds sites n - 1 and 0; from site 117
        # it stays apart from them while it reaches the antipode (site 120).
        n, t = 240, 120
        u = line_operator(n, math.pi / 4)

        def every_step(step, psi):
            wrap_check((psi,), guard_band=0, first_step=step)

        with pytest.raises(WavefrontWrapped) as full:
            evolve_final(u, basis_state(n, start), t, [every_step])
        guarded, plain = [], []

        class Counted(WrapGuard):
            def __call__(self, step, psi):
                guarded.append(step)
                super().__call__(step, psi)

        with pytest.raises(WavefrontWrapped) as stopped:
            evolve_final(u, basis_state(n, start), t,
                         [Counted(n // 2), lambda step, psi: plain.append(step)])
        assert stopped.value.step == full.value.step
        assert stopped.value.mass == full.value.mass
        assert guarded == list(range(full.value.step + 1))
        # an observer after the guard runs on every step before it stops
        assert plain == list(range(full.value.step))

    def test_non_unitary_step_caught_at_the_end(self):
        class Leaky:
            dimension = 4

            def step_array(self, psi, buffers=None):
                return psi * (1 + 1e-9)

        with pytest.raises(NotNormalized):
            evolve_final(Leaky(), basis_state(4, 0), 1000)


class TestNormDrift:
    """Long unitary runs drift past 1e-12 by rounding alone; that is no error."""

    STEPS = 20_000

    def setup_method(self):
        self.u = line_operator(1024, 0.7, 1.1, 1.9, 0.3, -0.4)
        self.psi0 = WalkState(random_state_array(np.random.default_rng(11), 1024))

    def _check(self, final):
        drift = abs(np.linalg.norm(final.amplitudes) - 1.0)
        assert drift <= drift_bound(self.STEPS)

    def test_evolve_final(self):
        self._check(evolve_final(self.u, self.psi0, self.STEPS))

    def test_streaming_loop_with_observer(self):
        # the loop the CLI runs, with an observer on every step
        worst = []
        final = evolve_final(self.u, self.psi0, self.STEPS,
                     [lambda step, psi: worst.append(abs(np.linalg.norm(psi) - 1.0))
                      if step % 1000 == 0 else None])
        assert len(worst) == self.STEPS // 1000 + 1
        self._check(final)

    def test_bound_grows_with_steps(self):
        assert drift_bound(0) == NORM_TOL
        assert drift_bound(self.STEPS) > drift_bound(self.STEPS // 2) > NORM_TOL


class TestTimeReversal:
    """The same factors composed in reverse order with negated angles undo a run."""

    @pytest.mark.parametrize("dense", [False, True], ids=["two-site", "dense"])
    def test_reverse_run_returns_the_start(self, dense):
        # a two-site start stays on the sparse path both ways; a dense one runs the full path
        n, steps = 20_000, 400
        t0, t1 = line_tessellations(n, 0.9, 2.1, 0.4, -1.3)
        h0, h1 = reflection_from_tessellation(t0), reflection_from_tessellation(t1)
        rng = np.random.default_rng(24)
        if dense:
            psi0 = random_state_array(rng, n)
        else:
            psi0 = np.zeros(n, dtype=np.complex128)
            psi0[[n // 2, n // 2 + 1]] = random_state_array(rng, 2)
        there = evolve_final(compose([(0.7, h0), (-1.2, h1)]), WalkState(psi0), steps)
        back = evolve_final(compose([(1.2, h1), (-0.7, h0)]), there, steps)
        assert np.linalg.norm(there.amplitudes - psi0) > 0.5  # the run went somewhere
        assert np.max(np.abs(back.amplitudes - psi0)) <= drift_bound(2 * steps)


class TestCheckNorm:
    """check_norm on 2^18-site states, a size at which BLAS dot runs threaded."""

    SITES = 2 ** 18

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_agrees_with_linalg_norm(self, seed):
        psi = 3.0 * random_state_array(np.random.default_rng(seed), self.SITES)
        with pytest.raises(NotNormalized) as err:
            check_norm(psi, 0.0)  # names the norm it found
        found = re.fullmatch(r"state norm is (\S+), expected 1 within 0\.0", str(err.value))
        reference = float(np.linalg.norm(psi))
        assert abs(float(found.group(1)) - reference) <= 1e-14 * reference

    @pytest.mark.parametrize("tol", [NORM_TOL, drift_bound(2000)])
    def test_tolerance_edges(self, tol):
        psi = random_state_array(np.random.default_rng(4), self.SITES)
        for inside in (1 - 0.5 * tol, 1 + 0.5 * tol):
            check_norm(psi * inside, tol)
        message = rf"state norm is \S+, expected 1 within {re.escape(str(tol))}"
        for outside in (1 - 2 * tol, 1 + 2 * tol):
            with pytest.raises(NotNormalized, match=f"^{message}$"):
                check_norm(psi * outside, tol)


class TestDistribution:
    def test_point_mass(self):
        d = distribution(basis_state(4, 0), ring_labels(4))
        assert np.allclose(d.probabilities, [1, 0, 0, 0])

    def test_phases_drop(self):
        psi = superposition_state(2, [(0, 2 ** -0.5), (1, 1j * 2 ** -0.5)])
        d = distribution(psi, [0, 1])
        assert np.allclose(d.probabilities, [0.5, 0.5])

    def test_sums_to_one(self):
        rng = np.random.default_rng(10)
        psi = WalkState(random_state_array(rng, 37))
        d = distribution(psi, np.arange(37))
        assert abs(d.probabilities.sum() - 1.0) < 1e-10

    def test_label_mismatch(self):
        with pytest.raises(LabelMismatch):
            distribution(basis_state(4, 0), [0, 1, 2])


class TestMoments:
    def test_point_mass_zeroes(self):
        d = distribution(basis_state(5, 0), [0, 1, 2, -2, -1])
        m = moments(d)
        assert m.mean == 0 and m.second_moment == 0 and m.sigma == 0

    def test_uniform_two_sites(self):
        d = ProbabilityDistribution(np.array([0.5, 0.5]), np.array([-1, 1]))
        m = moments(d)
        assert m.mean == 0 and m.second_moment == 1 and m.sigma == 1

    def test_sigma_ratio_matches_closed_form(self):
        # theta=pi/4, alpha=beta=pi/2, origin start: variance rate ~ 0.8284
        n, t = 256, 60
        u = line_operator(n, math.pi / 4)
        final = evolve_final(u, basis_state(n, 0), t)
        m = moments(distribution(final, ring_labels(n)), step=t)
        expected = closed_form_sigma2(math.pi / 4, math.pi / 2, 1)
        assert abs(m.sigma ** 2 / t ** 2 - expected) / expected < 0.05

    def test_second_moment_below_squared_mean(self):
        with pytest.raises(ValueError, match="second moment below squared mean"):
            MomentSummary(1.0, 0.5, 0.0, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(10_000, 30_000), st.floats(0.0, 1e-6), st.booleans())
    def test_near_point_mass_far_from_origin(self, x0, q, negative):
        # raw moments of ~4e8 round at ~1e-7, far above an absolute slack of 1e-9
        sign = -1 if negative else 1
        d = ProbabilityDistribution(np.array([1.0 - q, q]), sign * np.array([x0, x0 + 1]))
        m = moments(d)
        assert m.sigma <= 1.0


class TestWrapCheck:
    def test_large_ring_passes(self):
        t = 20
        n = 4 * t + 8
        u = line_operator(n, math.pi / 4)
        traj = evolve(u, basis_state(n, 0), t)
        wrap_check(traj, guard_band=1)

    def test_small_ring_wraps(self):
        t = 24
        n = t  # far too small: the front reaches the antipode
        u = line_operator(n, math.pi / 4)
        traj = evolve(u, basis_state(n, 0), t)
        with pytest.raises(WavefrontWrapped):
            wrap_check(traj, guard_band=1)

    def test_identity_evolution_any_ring(self):
        for n in (4, 6, 8):
            u = line_operator(n, 0.0)
            traj = evolve(u, basis_state(n, 0), 10)
            wrap_check(traj, guard_band=1)


class TestParitySymmetry:
    @pytest.mark.parametrize("theta", [math.pi / 4, 0.9])
    def test_even_step_reflection_symmetry(self, theta):
        # uniform pair tessellations commute with x -> 1-x; the symmetric
        # initial state keeps the distribution mirror-symmetric at even steps
        n, t = 128, 24
        u = line_operator(n, theta)
        psi0 = superposition_state(n, [(0, 2 ** -0.5), (1, 2 ** -0.5)])
        traj = evolve(u, psi0, t)
        labels = ring_labels(n)
        slot = {int(x): i for i, x in enumerate(labels)}
        for s in range(0, t + 1, 2):
            p = np.abs(traj[s].amplitudes) ** 2
            for x in range(-n // 2 + 2, n // 2):
                assert abs(p[slot[x]] - p[slot[1 - x]]) < 1e-10


class TestLabelsAndTsv:
    def test_ring_labels(self):
        assert list(ring_labels(6)) == [0, 1, 2, -3, -2, -1]

    def test_distribution_tsv(self):
        d = distribution(basis_state(4, 1), ring_labels(4))
        text = distribution_to_tsv(d)
        # the three all-zero rows are left out
        assert text == "position\tprobability\n1\t1\n"

    def test_distribution_tsv_extra_columns(self):
        d = ProbabilityDistribution(np.array([0.5, 0.0, 0.5, 0.0]), np.array([2, -1, 0, 1]))
        text = distribution_to_tsv(d, extra_columns=[("sim", np.array([0.25, 0.0, 0.75, 0.5]))])
        assert text == "position\tprobability\tsim\n0\t0.5\t0.75\n1\t0\t0.5\n2\t0.5\t0.25\n"
