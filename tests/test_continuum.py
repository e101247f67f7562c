import numpy as np
import pytest

from heatchain import (
    CFLError,
    ChainParams,
    CompareScenario,
    ContinuumField,
    compare_discrete_continuum,
    diffusion_constant,
    dispersion,
    fourier_current,
    heat_capacity_density,
    kinetic_prediction,
    klemens_conductivity,
    solve_heat,
    transport_coefficients,
)


def params(**kw):
    base = dict(n_sites=64, mass=1.0, omega0=1.0, xi=1.0, lattice_const=1.0,
                lambda_fric=0.1, gamma_fric=0.0, bath_temp=2.0)
    base.update(kw)
    return ChainParams(**base)


class TestTransportCoefficients:
    def test_high_temperature_unit_values(self):
        # a = xi = m = k_B = 1, lambda = 1/2: kappa -> 1 and sigma = 1
        p = params(lambda_fric=0.5)
        tc = transport_coefficients(p, 1e4)
        assert tc.diff_const == 1.0
        assert tc.kappa == pytest.approx(1.0, rel=1e-3)

    def test_frozen_at_zero_temperature(self):
        tc = transport_coefficients(params(), 0.0)
        assert tc.kappa == 0.0

    def test_algebraic_identities_exact(self):
        p = params(mass=2.7, xi=0.9, lambda_fric=0.23, lattice_const=0.4)
        tc = transport_coefficients(p, 3.0)
        assert tc.kappa == tc.diff_const * heat_capacity_density(p, 3.0)
        assert tc.diff_const == pytest.approx(
            p.lattice_const**2 * p.xi / (2 * p.lambda_fric * p.mass), rel=1e-15)

    def test_effective_velocity_is_dispersion_slope(self):
        p = params(omega0=0.0, xi=2.0, mass=0.5, lattice_const=0.3)
        h = 1e-6
        slope = (dispersion(p, 2 * h) - dispersion(p, 0.0)) / (2 * h)
        assert p.sound_speed == pytest.approx(p.lattice_const * slope, rel=1e-6)


def explicit_heat_oracle(field0, p, s_value, times, dt):
    """The explicit step loop that `solve_heat` diagonalises, run step by step.

    Each interval is cut into max(1, ceil(span/dt - 1e-12)) steps of
    u <- u_eq + e^{-2 lambda h} (u - u_eq) + phi diff L u, with L the central
    periodic Laplacian and phi = (1 - e^{-2 lambda h}) / (2 lambda).
    """
    diff, lam, dx = diffusion_constant(p), p.lambda_fric, field0.dx
    u_eq = s_value / (2 * lam)
    u = field0.values
    out = [u]
    for t_prev, t_next in zip(times[:-1], times[1:]):
        steps = max(1, int(np.ceil((t_next - t_prev) / dt - 1e-12)))
        h = (t_next - t_prev) / steps
        decay, phi = np.exp(-2 * lam * h), -np.expm1(-2 * lam * h) / (2 * lam)
        for _ in range(steps):
            u = u_eq + decay * (u - u_eq) + phi * diff * (np.roll(u, -1) - 2 * u + np.roll(u, 1)) / dx**2
        out.append(u)
    return np.array(out)


class TestSolveHeat:
    @pytest.mark.parametrize("m", [3, 4, 31, 128])
    @pytest.mark.parametrize("times, dt", [
        ([0.0, 0.3, 0.31, 2.0, 2.0, 7.5, 7.55], 0.02),  # uneven, with an empty interval
        ([0.0, 0.01, 0.025, 0.03, 0.04], 0.02),  # one step per interval
        (list(np.linspace(0.0, 20.0, 83)), None),  # default dt: the stability bound
    ], ids=["uneven", "single_step", "default_dt"])
    def test_matches_explicit_step_loop(self, m, times, dt):
        p = params(lambda_fric=0.2, xi=0.3)
        dx = 0.7
        u0 = 2.0 + np.cos(np.arange(m) * 1.3) ** 3 + np.linspace(0.0, 1.0, m)
        s = 2 * p.lambda_fric * 2.5
        fields = solve_heat(ContinuumField(u0, dx), p, s, times, dt=dt)
        bound = min(0.4 * dx**2 / diffusion_constant(p), 0.1 / (2 * p.lambda_fric))
        want = explicit_heat_oracle(ContinuumField(u0, dx), p, s, times, bound if dt is None else dt)
        got = np.array([f.values for f in fields])
        assert [f.time for f in fields] == list(times)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_fixed_point_is_constant(self):
        p = params()
        s = 0.7
        u0 = np.full(32, s / (2 * p.lambda_fric))
        fields = solve_heat(ContinuumField(u0, 1.0), p, s, [0.0, 25.0])
        assert np.max(np.abs(fields[-1].values - u0)) < 1e-12 * u0[0]

    def test_uniform_field_decays_exponentially(self):
        p = params()
        u0 = np.full(16, 3.0)
        t_end = 3.0 / p.lambda_fric
        fields = solve_heat(ContinuumField(u0, 1.0), p, 0.0, [0.0, t_end])
        want = 3.0 * np.exp(-2 * p.lambda_fric * t_end)
        assert fields[-1].values[0] == pytest.approx(want, rel=1e-6)
        assert np.ptp(fields[-1].values) == 0.0

    def test_decay_compensated_mass_conserved(self):
        # with s = s_eq the integral of (u - u_eq) e^{2 lambda t} is constant
        p = params()
        m, dx = 128, 0.5
        x = dx * np.arange(m)
        u_eq = 2.0
        u0 = u_eq + np.exp(-0.5 * ((x - 32.0) / 4.0) ** 2)
        s = 2 * p.lambda_fric * u_eq
        t_end = 1.0 / p.lambda_fric
        fields = solve_heat(ContinuumField(u0, dx), p, s, np.linspace(0.0, t_end, 6))
        ref = np.sum(u0 - u_eq) * dx
        for f in fields:
            mass = np.sum(f.values - u_eq) * dx * np.exp(2 * p.lambda_fric * f.time)
            assert mass == pytest.approx(ref, rel=1e-6)

    def test_cfl_rejection_at_configuration_time(self):
        p = params()  # diff = 5
        field = ContinuumField(np.ones(16), 1.0)
        with pytest.raises(CFLError, match="stability bound"):
            solve_heat(field, p, 0.0, [0.0, 1.0], dt=0.5)

    def test_field_validation(self):
        with pytest.raises(ValueError, match="3 samples"):
            ContinuumField(np.ones(2), 1.0)
        with pytest.raises(ValueError, match="finite"):
            ContinuumField(np.array([np.nan] * 8), 1.0)
        with pytest.raises(ValueError, match="dx"):
            ContinuumField(np.ones(8), 0.0)

    def test_negative_source_rejected(self):
        with pytest.raises(ValueError, match="source"):
            solve_heat(ContinuumField(np.ones(8), 1.0), params(), -1.0, [0.0, 1.0])

    def test_times_start_at_initial_field(self):
        field = ContinuumField(np.ones(8), 1.0, time=2.0)
        with pytest.raises(ValueError, match="start at the initial field time"):
            solve_heat(field, params(), 0.0, [0.0, 3.0])
        with pytest.raises(ValueError, match="start at the initial field time"):
            solve_heat(field, params(), 0.0, [])

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError, match="must not decrease"):
            solve_heat(ContinuumField(np.ones(8), 1.0), params(), 0.0, [0.0, 2.0, 1.0])


class TestFourierCurrent:
    def test_uniform_field_carries_nothing(self):
        field = ContinuumField(np.full(16, 2.5), 0.5)
        assert np.all(fourier_current(field, params()) == 0.0)

    def test_linear_ramp_interior(self):
        p = params()
        m, dx, slope = 64, 0.5, 0.3
        values = slope * dx * np.arange(m)  # periodic sawtooth
        j = fourier_current(ContinuumField(values, dx), p)
        interior = j[1:-1]
        assert np.allclose(interior, -diffusion_constant(p) * slope, rtol=1e-12)

    def test_gaussian_bump_antisymmetric(self):
        p = params()
        m, dx = 64, 1.0
        x = dx * np.arange(m)
        field = ContinuumField(1.0 + np.exp(-0.5 * ((x - 32.0) / 5.0) ** 2), dx)
        j = fourier_current(field, p)
        # antisymmetric about the bump centre
        for r in range(1, 20):
            assert j[32 + r] == pytest.approx(-j[32 - r], abs=1e-12)


class TestKlemens:
    @pytest.mark.parametrize("omega0", [0.0, 0.5])
    def test_sound_velocity_sum_is_continuum_kappa(self, omega0):
        # one per-mode heat capacity: the acoustic zero mode counts k_B/2 in
        # both, so the sound-velocity mode sum is diff_const * C(T) at every T
        p = params(omega0=omega0)
        for temp in (0.01, 0.1, 1.0, 10.0, 1e3):
            kappa_sum = klemens_conductivity(p, temp, velocity="sound")
            assert abs(kappa_sum / transport_coefficients(p, temp).kappa - 1.0) <= 1e-12

    def test_vanishes_at_zero_temperature(self):
        assert klemens_conductivity(params(), 0.0) == 0.0
        assert klemens_conductivity(params(n_sites=256), 1e-3) < 1e-10

    def test_dispersion_velocity_strictly_below_long_wavelength_prediction(self):
        # zone-edge modes travel slower than sound; at low temperature the
        # full-slope sum stays below diff_const * C(T)
        p = params(n_sites=1024, omega0=0.0)
        temp = 0.1 * p.hbar * dispersion(p, np.pi) / p.k_boltz
        kappa_disp = klemens_conductivity(p, temp, velocity="dispersion")
        prediction = transport_coefficients(p, temp).kappa
        assert kappa_disp < prediction
        assert kappa_disp > 0.0

    def test_mode_sum_converged_at_n1024(self):
        temp = 1.0
        k512 = klemens_conductivity(params(n_sites=512, omega0=0.0), temp)
        k1024 = klemens_conductivity(params(n_sites=1024, omega0=0.0), temp)
        assert abs(k1024 / k512 - 1.0) <= 1e-3

    def test_velocity_convention_validation(self):
        with pytest.raises(ValueError, match="velocity"):
            klemens_conductivity(params(), 1.0, velocity="warp")


class TestCompare:
    def test_uniform_heating_reduces_to_exponential_law(self):
        # near-flat envelope: both sides follow the same closed-form decay
        p = params(n_sites=32, omega0=0.05, bath_temp=150.0, lambda_fric=0.25)
        sc = CompareScenario(t_hot=200.0, t_cold=150.0, width_sites=1e6,
                             t_final=3.0 / p.lambda_fric)
        rep = compare_discrete_continuum(p, sc)
        assert np.max(rep.dev_field) <= 1e-3

    def test_deviation_decreases_as_hotspot_widens(self):
        p = params(n_sites=96, omega0=0.05, bath_temp=150.0, lambda_fric=0.25)
        maxima = []
        for width in (4.0, 8.0, 16.0):
            sc = CompareScenario(t_hot=250.0, t_cold=150.0, width_sites=width,
                                 t_final=2.0 / p.lambda_fric)
            rep = compare_discrete_continuum(p, sc)
            window = rep.times >= 0.5 / p.lambda_fric
            maxima.append(np.max(rep.dev_transient[window]))
        assert maxima[0] > maxima[1] > maxima[2]

    def test_narrow_hotspot_and_strong_friction_flagged(self):
        p = params(n_sites=32, omega0=0.05, bath_temp=100.0, lambda_fric=0.6)
        sc = CompareScenario(t_hot=150.0, t_cold=100.0, width_sites=0.5, t_final=2.0)
        rep = compare_discrete_continuum(p, sc)
        text = " ".join(rep.warnings)
        assert "below the propagation range" in text
        assert "lattice constant" in text

    def test_runs_at_four_sites(self):
        # the ring minimum is 3 sites; the continuum field follows it down
        p = params(n_sites=4, omega0=0.5, lambda_fric=0.2)
        sc = CompareScenario(t_hot=3.0, t_cold=2.0, width_sites=1.0, t_final=5.0)
        rep = compare_discrete_continuum(p, sc)
        assert rep.u_pde.shape == rep.u_disc.shape == (len(rep.times), 4)
        assert np.array_equal(rep.u_pde[0], rep.u_disc[0])
        assert np.all(np.isfinite(rep.dev_field))


class TestKineticPrediction:
    @staticmethod
    def predict(p, times, **kw):
        sc = CompareScenario(t_hot=3.0, t_cold=2.0, width_sites=4.0,
                             t_final=3.0 / p.lambda_fric, **kw)
        return kinetic_prediction(p, sc, times)

    def test_no_current_at_start(self):
        # de(q) is even in q and v_q odd, so the mode sum of v_q de(q) cancels
        kin = self.predict(params(), [0.0, 10.0])
        assert np.max(np.abs(kin.j[1])) > 0.0
        assert np.max(np.abs(kin.j[0])) <= 1e-12 * np.max(np.abs(kin.j[1]))

    def test_excess_energy_decays_at_twice_lambda(self):
        # streaming conserves energy; only the on-site damping removes it
        p = params()
        times = np.linspace(0.0, 3.0 / p.lambda_fric, 13)
        kin = self.predict(p, times)
        excess = np.sum(kin.u - kin.u_eq, axis=1) * p.lattice_const
        want = excess[0] * np.exp(-2.0 * p.lambda_fric * times)
        assert np.max(np.abs(excess / want - 1.0)) <= 1e-12

    def test_site_current_independent_of_lattice_constant(self):
        # like the chain's J_k, which never sees a; u is energy per length
        times = np.linspace(0.0, 20.0, 5)
        k1 = self.predict(params(), times)
        k2 = self.predict(params(lattice_const=2.0), times)
        assert np.allclose(k2.j, k1.j, rtol=1e-12, atol=0.0)
        assert np.allclose(2.0 * (k2.u - k2.u_eq), k1.u - k1.u_eq, rtol=1e-12, atol=0.0)

    def test_rejects_what_free_streaming_does_not_cover(self):
        with pytest.raises(ValueError, match="thermal"):
            self.predict(params(), [0.0], hotspot_mode="diagonal")
        with pytest.raises(ValueError, match="on-site"):
            self.predict(params(gamma_fric=0.02), [0.0])
        with pytest.raises(ValueError, match="omega0"):
            self.predict(params(omega0=0.0), [0.0])
