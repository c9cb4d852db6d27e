import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqw import (
    LineParams,
    asymptotic_odd_moment,
    asymptotic_sigma2,
    basis_state,
    block_eigenvectors,
    closed_form_sigma2,
    coefficients_AB,
    compose,
    evolve,
    evolve_final,
    line_tessellations,
    reduced_block,
    reflection_from_tessellation,
    ring_labels,
    sigma2_surface,
    superposition_state,
    surface_to_tsv,
    wavefunction,
)
from sqw import line_analytic
from sqw.errors import DegenerateAngle, DegenerateBlock, DomainError, NotNormalized
from sqw.tolerances import drift_bound

from conftest import direct_momentum_sum

PI = math.pi


def uniform_params(theta):
    return LineParams(theta, PI / 2, PI / 2)


def line_operator(n, p: LineParams):
    t0, t1 = line_tessellations(n, p.alpha, p.beta, p.phi0, p.phi1)
    return compose([(p.theta, reflection_from_tessellation(t0)),
                    (p.theta, reflection_from_tessellation(t1))])


class TestCoefficients:
    def test_theta_zero(self):
        a, b = coefficients_AB(LineParams(0.0, 1.0, 2.0, 0.3, 0.4), 0.7)
        assert a == 1.0 and b == 0.0

    def test_quarter_pi_closed_form(self):
        # at theta=pi/4, alpha=beta=pi/2: a = (1 - e^{2ik})/2 and b = i cos k
        p = uniform_params(PI / 4)
        for k in np.linspace(-PI, PI, 17):
            a, b = coefficients_AB(p, k)
            assert abs(a - (1 - np.exp(2j * k)) / 2) < 1e-14
            assert abs(b - 1j * math.cos(k)) < 1e-14

    def test_half_pi_closed_form(self):
        p = uniform_params(PI / 2)
        for k in np.linspace(-PI, PI, 17):
            a, b = coefficients_AB(p, k)
            assert abs(a + np.exp(2j * k)) < 1e-14
            assert abs(b) < 1e-12

    def test_unit_circle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = LineParams(rng.uniform(-PI, PI), rng.uniform(0.05, PI - 0.05),
                           rng.uniform(0.05, PI - 0.05), rng.uniform(-PI, PI),
                           rng.uniform(-PI, PI))
            k = rng.uniform(-PI, PI, size=50)
            a, b = coefficients_AB(p, k)
            assert np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0)) < 1e-12

    def test_array_and_scalar_agree(self):
        p = LineParams(0.9, 1.3, 2.0, 0.2, -0.1)
        ks = np.array([-1.0, 0.0, 2.0])
        a_arr, b_arr = coefficients_AB(p, ks)
        for i, k in enumerate(ks):
            a, b = coefficients_AB(p, float(k))
            assert a == a_arr[i] and b == b_arr[i]


class TestReducedBlock:
    def test_theta_zero_degenerate(self):
        blk = reduced_block(LineParams(0.0, 1.0, 1.0), 0.4)
        assert blk.a == 1.0 and blk.b == 0.0
        assert blk.lam == 0.0
        assert abs(blk.c_plus) < 1e-15 and abs(blk.c_minus) < 1e-15

    def test_quarter_pi_eigenphase(self):
        blk = reduced_block(uniform_params(PI / 4), PI / 4)
        assert abs(math.cos(blk.lam) - 0.5) < 1e-14
        assert abs(blk.lam - PI / 3) < 1e-14

    def test_k_zero_block(self):
        blk = reduced_block(uniform_params(PI / 4), 0.0)
        assert abs(blk.a) < 1e-15
        assert abs(blk.lam - PI / 2) < 1e-14
        assert abs(blk.b - 1j) < 1e-15

    def test_invariants_random(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            p = LineParams(rng.uniform(-PI, PI), rng.uniform(0.05, PI - 0.05),
                           rng.uniform(0.05, PI - 0.05), rng.uniform(-PI, PI),
                           rng.uniform(-PI, PI))
            blk = reduced_block(p, float(rng.uniform(-PI, PI)))
            assert abs(abs(blk.a) ** 2 + abs(blk.b) ** 2 - 1.0) < 1e-12
            assert abs(math.cos(blk.lam) - blk.a.real) < 1e-12
            assert 0.0 <= blk.lam <= PI
            diff = blk.a - blk.a.conjugate()
            sl = math.sin(blk.lam)
            assert abs(blk.c_plus - sl * (2 * sl + 1j * diff)) < 1e-12
            assert abs(blk.c_minus - sl * (2 * sl - 1j * diff)) < 1e-12


class TestBlockEigenvectors:
    def test_residual_and_orthogonality(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 100:
            p = LineParams(rng.uniform(0.2, PI - 0.2), rng.uniform(0.3, PI - 0.3),
                           rng.uniform(0.3, PI - 0.3), rng.uniform(-PI, PI),
                           rng.uniform(-PI, PI))
            blk = reduced_block(p, float(rng.uniform(-PI, PI)))
            try:
                v_plus, v_minus = block_eigenvectors(blk)
            except DegenerateBlock:
                continue
            m = blk.matrix()
            for sign, v in ((+1, v_plus), (-1, v_minus)):
                assert abs(np.linalg.norm(v) - 1.0) < 1e-10
                residual = m @ v - np.exp(1j * sign * blk.lam) * v
                assert np.linalg.norm(residual) <= 1e-10
            assert abs(np.vdot(v_plus, v_minus)) < 1e-10
            checked += 1

    def test_degenerate_block_rejected(self):
        blk = reduced_block(uniform_params(PI / 2), 0.3)  # b == 0 branch
        with pytest.raises(DegenerateBlock):
            block_eigenvectors(blk)

    def test_quarter_pi_case(self):
        blk = reduced_block(uniform_params(PI / 4), PI / 4)
        v_plus, v_minus = block_eigenvectors(blk)
        m = blk.matrix()
        assert np.linalg.norm(m @ v_plus - np.exp(1j * blk.lam) * v_plus) <= 1e-10
        assert np.linalg.norm(m @ v_minus - np.exp(-1j * blk.lam) * v_minus) <= 1e-10


class TestWavefunction:
    def test_time_zero_point_mass(self):
        psi = wavefunction(uniform_params(PI / 4), 0, positions=range(-4, 5))
        expected = np.zeros(9)
        expected[4] = 1.0
        assert np.max(np.abs(psi - expected)) < 1e-12

    def test_one_step_matches_operator(self):
        n = 256
        p = uniform_params(PI / 4)
        traj = evolve(line_operator(n, p), basis_state(n, 0), 1)
        psi = wavefunction(p, 1, positions=ring_labels(n))
        assert np.max(np.abs(psi - traj[-1].amplitudes)) < 1e-8

    @pytest.mark.parametrize("theta", [PI / 3, PI / 4])
    def test_sixty_steps_matches_simulation(self, theta):
        n, t = 256, 60
        p = uniform_params(theta)
        traj = evolve(line_operator(n, p), basis_state(n, 0), t)
        psi = wavefunction(p, t, positions=ring_labels(n))
        assert np.max(np.abs(psi - traj[-1].amplitudes)) < 1e-8

    def test_general_angles_ring_mode(self):
        n, t = 128, 25
        p = LineParams(1.2, 0.9, 2.1, 0.7, -0.3)
        traj = evolve(line_operator(n, p), basis_state(n, 0), t)
        psi = wavefunction(p, t, positions=ring_labels(n), ring_size=n)
        assert np.max(np.abs(psi - traj[-1].amplitudes)) < 1e-12

    def test_superposition_initial_state(self):
        n, t = 256, 40
        p = uniform_params(PI / 4)
        init = [(0, 2 ** -0.5), (1, 2 ** -0.5)]
        psi0 = superposition_state(n, init)
        traj = evolve(line_operator(n, p), psi0, t)
        psi = wavefunction(p, t, positions=ring_labels(n), initial=init)
        assert np.max(np.abs(psi - traj[-1].amplitudes)) < 1e-8

    def test_repeated_positions_are_summed(self, monkeypatch):
        # an initial state is the state its entries sum to, as for superposition_state
        p = LineParams(1.2, 0.9, 2.1, 0.7, -0.3)
        repeated = [(3, 0.25), (-2, 0.2j), (3, 0.35), (0, 0.64), (-2, 0.28j)]
        summed = [(3, 0j + 0.25 + 0.35), (-2, 0j + 0.2j + 0.28j), (0, 0j + 0.64)]
        for kw in ({}, {"ring_size": 64}):
            assert np.array_equal(wavefunction(p, 9, initial=repeated, **kw),
                                  wavefunction(p, 9, initial=summed, **kw))

        def no_transform(*args):
            raise AssertionError("an invalid initial state reached the momentum sum")

        monkeypatch.setattr(line_analytic, "_transform", no_transform)
        with pytest.raises(NotNormalized, match="^state norm is "):  # 1.4: 0.6 + 0.8 at 0
            wavefunction(p, 9, initial=((0, 0.6), (0, 0.8)))

    def test_odd_start(self):
        n, t = 128, 20
        p = LineParams(0.8, 1.1, 1.9)
        traj = evolve(line_operator(n, p), basis_state(n, 1), t)
        psi = wavefunction(p, t, positions=ring_labels(n), initial=[(1, 1.0)])
        assert np.max(np.abs(psi - traj[-1].amplitudes)) < 1e-8

    def test_quadrature_matches_ring_mode(self):
        p = LineParams(0.6, 1.4, 2.2, 0.5, 0.1)
        line = wavefunction(p, 12, positions=range(-30, 31))
        ring = wavefunction(p, 12, positions=range(-30, 31), ring_size=64)
        assert np.max(np.abs(line - ring)) < 1e-9

    def test_norm_is_one(self):
        psi = wavefunction(LineParams(1.0, 1.0, 2.5), 30)
        assert abs(np.sum(np.abs(psi) ** 2) - 1.0) < 1e-8

    def test_ballistic_at_half_pi(self):
        # b == 0: each parity channel translates rigidly, so the twin-start
        # state produces two unit peaks
        p = uniform_params(PI / 2)
        t = 10
        init = [(0, 2 ** -0.5), (1, 2 ** -0.5)]
        psi = wavefunction(p, t, positions=[2 * t, 1 - 2 * t], initial=init)
        assert np.allclose(np.abs(psi) ** 2, [0.5, 0.5], atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(t=st.integers(0, 300), theta=st.floats(-PI, PI),
           alpha=st.floats(0.01, PI - 0.01), beta=st.floats(0.01, PI - 0.01),
           phi0=st.floats(-PI, PI), phi1=st.floats(-PI, PI), seed=st.integers(0, 2 ** 32 - 1))
    def test_line_mode_matches_simulation(self, t, theta, alpha, beta, phi0, phi1, seed):
        # the ring holds twice the light cone, so the simulated front never wraps
        p = LineParams(theta, alpha, beta, phi0, phi1)
        rng = np.random.default_rng(seed)
        sites = rng.choice(np.arange(-20, 21), size=int(rng.integers(1, 4)), replace=False)
        amps = rng.standard_normal(len(sites)) + 1j * rng.standard_normal(len(sites))
        init = [(int(x), complex(a)) for x, a in zip(sites, amps / np.linalg.norm(amps))]
        n = 2 * (4 * t + 44)
        psi0 = superposition_state(n, [(x % n, a) for x, a in init])
        psi = evolve_final(line_operator(n, p), psi0, t).amplitudes
        labels = ring_labels(n)
        line = wavefunction(p, t, positions=labels, initial=init)
        assert np.max(np.abs(line - psi)) <= drift_bound(t)
        lo, hi = min(sites) - 2 * t - 1, max(sites) + 2 * t + 1
        outside = (labels < lo) | (labels > hi)
        assert not np.any(line[outside]) and not np.any(psi[outside])
        far = [lo - 1, hi + 1, lo - 10 ** 6, hi + 10 ** 6]
        assert not np.any(wavefunction(p, t, positions=far, initial=init))

    @pytest.mark.parametrize("init", [[(0, 1.0)], [(1, 1.0)], [(0, 0.6), (1, 0.8j)],
                                      [(-3, 0.6), (4, 0.8)]])
    @pytest.mark.parametrize("t", [0, 1, 3, 7, 15, 50])
    def test_light_cone_ring_matches_wider_ring(self, init, t):
        # line mode sums on the smallest power-of-two ring that holds the light cone
        # [lo, hi]: 4t + 3 sites from one source, 4t + 4 from two neighbours, so at
        # t = 2^m - 1 that ring has at most one site to spare
        p = LineParams(1.1, 0.8, 2.3, 0.4, -0.9)
        sources = [x for x, _ in init]
        lo, hi = min(sources) - 2 * t - 1, max(sources) + 2 * t + 1
        n = 4 * (hi - lo + 1)  # every cone here holds 0, so these ring labels hold it
        positions = ring_labels(n)
        wide = wavefunction(p, t, positions=positions, initial=init, ring_size=n)
        line = wavefunction(p, t, positions=positions, initial=init)
        assert np.max(np.abs(line - wide)) <= 1e-12


# The line-analytic benchmark shape: t = 1000 from a two-site start, general phases.
T1000_PARAMS = LineParams(PI / 3, PI / 3, PI / 3, 0.37, -1.1)
T1000_INIT = [(0, 0.6), (1, 0.48 + 0.64j)]

# L: a ring of L sites, with L/2 momenta 2 pi j / L
GRIDS = st.integers(2, 256).map(lambda h: 2 * h)


def ring_momenta(length):
    return 2.0 * PI * np.arange(length // 2) / length


class TestMomentumTransform:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), length=GRIDS, seed=st.integers(0, 2 ** 32 - 1))
    def test_fft_matches_direct_sum(self, data, length, seed):
        k = ring_momenta(length)
        rng = np.random.default_rng(seed)
        even, odd = rng.standard_normal((2, len(k))) + 1j * rng.standard_normal((2, len(k)))
        positions = np.array(data.draw(st.lists(st.integers(-3 * length, 3 * length),
                                                max_size=40)), dtype=np.int64)
        fast = line_analytic._transform(even, odd, positions, length)
        assert fast.shape == positions.shape
        assert np.max(np.abs(fast - direct_momentum_sum(k, 2.0 / length, even, odd, positions)),
                      initial=0.0) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), ring=st.booleans(), t=st.integers(0, 12),
           source=st.integers(-5, 5))
    def test_position_selection(self, data, ring, t, source):
        p = LineParams(0.9, 1.2, 2.0, 0.3, -0.4)
        init = [(source, 1.0)]
        if ring:
            n = data.draw(st.integers(2, 40).map(lambda h: 2 * h))
            labels, kw = ring_labels(n), {"ring_size": n}
        else:
            labels, kw = np.arange(source - 2 * t - 1, source + 2 * t + 2), {}
        lookup = dict(zip(labels.tolist(), wavefunction(p, t, initial=init, **kw)))
        span = int(np.abs(labels).max()) + 10
        drawn = data.draw(st.lists(st.integers(-span, span), max_size=40))
        positions = drawn + drawn[::-1]  # arbitrary order, every position twice
        expected = np.array([lookup.get(x, 0.0) for x in positions], dtype=np.complex128)
        assert np.array_equal(wavefunction(p, t, positions, initial=init, **kw), expected)

    @pytest.mark.parametrize("ring_size,rounds", [(None, 1), (4008, 1)])
    def test_t1000_matches_direct_sum(self, monkeypatch, ring_size, rounds):
        lengths = {"fft": [], "direct": []}
        fft = line_analytic._transform

        def counted(even, odd, positions, length):
            lengths["fft"].append(length)
            return fft(even, odd, positions, length)

        def direct(even, odd, positions, length):
            lengths["direct"].append(length)
            return direct_momentum_sum(ring_momenta(length), 2.0 / length, even, odd, positions)

        amps = {}
        for name, transform in (("fft", counted), ("direct", direct)):
            monkeypatch.setattr(line_analytic, "_transform", transform)
            amps[name] = wavefunction(T1000_PARAMS, 1000, initial=T1000_INIT,
                                      ring_size=ring_size)
        assert lengths["fft"] == lengths["direct"] and len(lengths["fft"]) == rounds
        assert np.max(np.abs(amps["fft"] - amps["direct"])) <= 1e-12

    def test_memory_at_t1000(self):
        tracemalloc.start()
        try:
            wavefunction(T1000_PARAMS, 1000, initial=T1000_INIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_import_does_not_load_fft(self):
        src = os.path.dirname(os.path.dirname(line_analytic.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); import sqw; "
                "print('numpy.fft' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == "False"


class TestRingOracleAtScale:
    """The direct simulation against the exact ring momentum sum, at scale.

    Rings reach ~10^4 sites and runs ~10^4 steps (the product is capped so
    each case costs well under a second); most runs cross the antipode, where
    the ring sum stays exact and the line amplitudes (ring_size=None) would
    not.  The bound on every amplitude is the norm-drift bound of
    `tolerances`, set beforehand.
    """

    @settings(max_examples=8, deadline=None)
    @given(half=st.integers(2, 5000), laps=st.floats(0.0, 4.0),
           theta=st.floats(-PI, PI), alpha=st.floats(0.01, PI - 0.01),
           beta=st.floats(0.01, PI - 0.01), phi0=st.floats(-PI, PI), phi1=st.floats(-PI, PI),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(half=5000, laps=0.3, theta=PI / 3, alpha=1.1, beta=2.0, phi0=0.4, phi1=-1.2, seed=0)
    @example(half=60, laps=4.0, theta=0.7, alpha=0.5, beta=2.9, phi0=-2.0, phi1=3.0, seed=1)
    def test_simulation_matches_ring_sum(self, half, laps, theta, alpha, beta, phi0, phi1, seed):
        n = 2 * half
        # the front moves up to two sites a step each way: it meets itself from laps = 1
        t = min(max(1, int(laps * n / 4)), 10_000, 10_000_000 // (n + 3000))
        p = LineParams(theta, alpha, beta, phi0, phi1)
        rng = np.random.default_rng(seed)
        sites = rng.choice(np.arange(-half, half), size=int(rng.integers(1, 4)), replace=False)
        amps = rng.standard_normal(len(sites)) + 1j * rng.standard_normal(len(sites))
        init = [(int(x), complex(a)) for x, a in zip(sites, amps / np.linalg.norm(amps))]
        psi0 = superposition_state(n, [(x % n, a) for x, a in init])
        psi = evolve_final(line_operator(n, p), psi0, t).amplitudes
        ring = wavefunction(p, t, positions=ring_labels(n), initial=init, ring_size=n)
        assert np.max(np.abs(psi - ring)) <= drift_bound(t)


class TestAsymptoticMoments:
    def test_theta_zero(self):
        p = LineParams(0.0, 1.0, 1.0)
        for n in (1, 2):
            assert asymptotic_odd_moment(p, n, 100) == 0.0
        assert asymptotic_sigma2(p, 100) == 0.0

    def test_maximum_spread_point(self):
        # theta=pi/3, alpha=beta=pi/2 attains sigma^2 = t^2
        t = 1000
        assert abs(asymptotic_sigma2(uniform_params(PI / 3), t) / t ** 2 - 1.0) < 1e-10

    def test_consistent_with_closed_form(self):
        for theta, alpha in [(PI / 4, PI / 2), (PI / 6, PI / 3), (0.7, 1.1), (PI / 2, PI / 4)]:
            p = LineParams(theta, alpha, alpha)
            t = 500
            closed = closed_form_sigma2(theta, alpha, t)
            got = asymptotic_sigma2(p, t)
            assert abs(got - closed) <= 1e-6 * closed

    def test_center_of_surface_is_zero(self):
        got = asymptotic_sigma2(uniform_params(PI / 2), 300)
        assert abs(got) < 1e-8

    def test_standard_sqw_limit_b_vanishes(self):
        _, b = coefficients_AB(uniform_params(PI / 2), np.linspace(-PI, PI, 4001))
        assert np.max(np.abs(b)) <= 1e-12

    def test_bad_order(self):
        with pytest.raises(ValueError):
            asymptotic_odd_moment(uniform_params(PI / 4), 0, 10)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-PI, PI),
           st.floats(0.0, PI, exclude_min=True, exclude_max=True),
           st.floats(0.0, PI, exclude_min=True, exclude_max=True),
           st.floats(-PI, PI), st.floats(-PI, PI),
           st.lists(st.floats(-PI, PI), min_size=1, max_size=64))
    def test_integrand_is_the_block_ratio(self, theta, alpha, beta, phi0, phi1, ks):
        # the drift integrand (2 Im a / sin lam)^2 read from _block_arrays against its
        # direct form 4 Im(a)^2 / (Im(a)^2 + |b|^2), on the blocks with sin lam > 1e-15
        # where Im(a) is 0 or Im(a)^2 is a normal number (a subnormal square keeps too
        # few bits for the direct form); _block_arrays calls only sin lam = 0 degenerate
        p = LineParams(theta, alpha, beta, phi0, phi1)
        a, b, _, sin_lam, _, ratio_a, _ = line_analytic._block_arrays(p, np.array(ks))
        im2 = a.imag ** 2
        denom = im2 + np.abs(b) ** 2
        direct = np.divide(4.0 * im2, denom, out=np.zeros_like(denom), where=denom > 0)
        regular = sin_lam > 1e-15
        exact = regular & ((a.imag == 0.0) | (im2 >= np.finfo(np.float64).tiny))
        np.testing.assert_allclose((2.0 * ratio_a[exact]) ** 2, direct[exact],
                                   rtol=1e-14, atol=0)
        assert not np.any(ratio_a[sin_lam == 0])
        # sin lam -> 0 with Im(a) away from 0 would need |a|^2 > 1 + 1e-9
        assert not np.any((1.0 - a.real ** 2 < 1e-20) & (im2 > 1e-9))

    @pytest.mark.parametrize("theta", [1e-15, PI - 8.9e-16])
    def test_near_degenerate_theta_converges(self, theta):
        # |sin theta| ~ 1e-15 puts sin lam near rounding on every block; those blocks
        # keep their ratios, so the integrand stays smooth and the quadrature converges
        got = asymptotic_odd_moment(LineParams(theta, 1.0, 2.0), 1, 100)
        assert got == pytest.approx(95.6449, abs=5e-5)


class TestClosedForm:
    def test_values(self):
        t = 7
        assert closed_form_sigma2(PI / 3, PI / 2, t) == pytest.approx(t * t, abs=1e-12)
        assert closed_form_sigma2(0.0, 1.0, t) == 0.0
        assert closed_form_sigma2(PI / 4, PI / 2, t) == pytest.approx(
            (2 * math.sqrt(2) - 2) * t * t, rel=1e-12)

    def test_alpha_out_of_range(self):
        with pytest.raises(DomainError):
            closed_form_sigma2(PI / 4, PI / 2 + 0.01, 5)


class TestSurface:
    def test_landmark_values(self):
        table = sigma2_surface([PI / 2, PI / 3], [PI / 2, PI / 3])
        assert table[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert table[1, 0] == pytest.approx(1.0, rel=1e-12)
        assert table[0, 1] == pytest.approx(1.0, rel=1e-12)  # symmetric in the two angles

    def test_mirror_symmetry_beyond_half_pi(self):
        eps = 0.3
        table = sigma2_surface([0.9], [PI / 2 - eps, PI / 2 + eps])
        assert table[0, 0] == pytest.approx(table[0, 1], rel=1e-12)

    def test_unit_locus(self):
        # sigma^2/t^2 = 1 exactly where sin^2(theta) sin^2(alpha) = 3/4
        theta = math.asin(0.75 ** 0.25)
        assert sigma2_surface([theta], [theta])[0, 0] == pytest.approx(1.0, rel=1e-10)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sigma2_surface([-0.1], [1.0])

    @settings(max_examples=200, deadline=None)
    @given(thetas=st.lists(st.floats(0.0, PI), max_size=12),
           alphas=st.lists(st.floats(0.0, PI), max_size=12), seed=st.integers(0, 2 ** 32 - 1))
    def test_bit_identical_to_closed_form(self, thetas, alphas, seed):
        # drawn edge values plus uniform ones: x * x and pow(x, 2) differ on ~1e-3 of the latter
        rng = np.random.default_rng(seed)
        thetas = thetas + rng.uniform(0.0, PI, 30).tolist()
        alphas = alphas + rng.uniform(0.0, PI, 30).tolist()
        table = sigma2_surface(thetas, alphas)
        assert table.shape == (len(thetas), len(alphas))
        expected = np.array([[closed_form_sigma2(th, min(al, PI - al), 1) for al in alphas]
                             for th in thetas]).reshape(table.shape)
        assert table.tobytes() == expected.tobytes()


class TestParamsAndTables:
    def test_params_validation(self):
        with pytest.raises(DomainError):
            LineParams(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            LineParams(1.0, 1.0, PI)

    def test_degenerate_angle_is_a_domain_error(self):
        # LineParams checks its angles by the rule the line's tessellations use
        with pytest.raises(DegenerateAngle) as info:
            LineParams(1.0, 0.0, 1.0)
        assert isinstance(info.value, DomainError) and info.value.name == "alpha"

    def test_surface_table(self):
        thetas, alphas = [0.0, PI / 3], [PI / 2]
        text = surface_to_tsv(thetas, alphas, sigma2_surface(thetas, alphas))
        lines = text.splitlines()
        assert lines[0] == "theta\talpha\tsigma2_over_t2"
        assert lines[1].endswith("\t0")
        assert lines[2].endswith("\t1")
