import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from heatchain import (
    ChainParams,
    gibbs_covariance,
    gibbs_energy_density,
    heat_capacity_density,
    high_temp_diffusion,
    klemens_conductivity,
    mode_grid,
    mode_sum_diffusion,
    quad_diffusion,
    circulant,
    source_density,
    stiffness_row,
    thermal_matrices,
)
from heatchain.diffusion import mode_thermal_variances


def params(**kw):
    base = dict(n_sites=64, mass=1.0, omega0=1.0, xi=1.0, lattice_const=1.0,
                lambda_fric=0.1, gamma_fric=0.0, bath_temp=2.0)
    base.update(kw)
    return ChainParams(**base)


def quad_oracle(p, temp):
    """(D_xx, D_pp, D_ex) by adaptive scipy quadrature of the zone integrals.

    Independent of the library's trapezoid kernel: a scalar integrand on
    [0, pi] (the integrands are even), with break points at 1, 10 and 100 times
    q0 = omega0 sqrt(m / xi), the width of the zone-centre peak, so that
    small omega0 stays resolved.  Non-convergence raises.
    """
    def integrand(q, k):
        w = math.sqrt(p.omega0**2 + 4 * p.xi / p.mass * math.sin(q / 2) ** 2)
        fac = 1.0 if temp == 0 else 1.0 / math.tanh(p.hbar * w / (2 * p.k_boltz * temp))
        c_x = p.hbar / (2 * p.mass * w) * fac
        c = (c_x, p.hbar * p.mass * w / 2 * fac, math.cos(q) * c_x)[k]
        return (p.lambda_fric + 2 * p.gamma_fric * math.cos(q)) * c

    q0 = p.omega0 * math.sqrt(p.mass / p.xi) if p.xi > 0 else math.inf
    points = [b for b in (q0, 10 * q0, 100 * q0) if b < math.pi] or None

    def mean(k, epsabs):
        return quad(integrand, 0.0, math.pi, args=(k,), points=points, epsabs=epsabs,
                    epsrel=1e-12, limit=500)[0] / math.pi

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        d_xx = mean(0, 0.0)
        # |D_ex| <= D_xx and D_ex can vanish: its scale is D_xx
        return [d_xx, mean(1, 0.0), mean(2, 1e-13 * d_xx)]


def assert_matches_oracle(got, want, rel):
    """rel on D_xx and D_pp; on D_ex rel or rel * D_xx, its scale."""
    assert [got.d_xx, got.d_pp] == pytest.approx(want[:2], rel=rel)
    assert got.d_ex == pytest.approx(want[2], rel=rel, abs=rel * want[0])


def as_triple(ds):
    return [ds.d_xx, ds.d_pp, ds.d_ex]


class TestQuadDiffusion:
    def test_neighbour_coefficient_vanishes_for_flat_band(self):
        # xi = 0 makes the integrand q-independent; cos(q) averages to zero
        p = params(xi=0.0)
        for temp in (0.0, 1.0, 37.0):
            assert abs(quad_diffusion(p, temp).d_ex) < 1e-14

    @pytest.mark.parametrize("kw, temp", [
        (dict(gamma_fric=0.02), 2.0),
        (dict(gamma_fric=0.02), 0.0),
        (dict(gamma_fric=0.05), 1e4),
        (dict(omega0=1e-3, gamma_fric=0.02), 2.0),
        (dict(xi=100.0, gamma_fric=0.02), 2.0),
    ], ids=["gamma", "zero_temp", "high_temp", "small_omega0", "stiff_xi"])
    def test_against_scipy_quad(self, kw, temp):
        p = params(**kw)
        assert_matches_oracle(quad_diffusion(p, temp), quad_oracle(p, temp), rel=1e-10)

    def test_flat_band_high_temperature_value(self):
        # lambda k T / (m omega0^2) when xi = 0
        p = params(xi=0.0, omega0=1.0)
        temp = 1e4
        want = p.lambda_fric * p.k_boltz * temp / (p.mass * p.omega0**2)
        assert quad_diffusion(p, temp).d_xx == pytest.approx(want, rel=1e-7)

    def test_zero_temperature_ground_state_value(self):
        # coth -> 1: D_xx = lambda <x^2>_ground (continuum integral form)
        p = params()
        got = quad_diffusion(p, 0.0).d_xx
        assert got == pytest.approx(quad_oracle(p, 0.0)[0], rel=1e-10)
        assert got > 0.0

    def test_sweep_equals_single_temperatures(self):
        p = params(gamma_fric=0.03)
        temps = np.geomspace(1e-2, 1e3, 150)  # three temperature blocks
        sweep = quad_diffusion(p, temps)
        assert sweep.d_xx.shape == temps.shape
        for i in (0, 77, 149):
            assert [v[i] for v in as_triple(sweep)] == pytest.approx(
                as_triple(quad_diffusion(p, temps[i])), rel=1e-12)
        # the thermal mode sums: every entry exactly the scalar call, also
        # with the acoustic zero mode (omega0 = 0)
        thermal = (gibbs_energy_density, heat_capacity_density,
                   lambda p, t: klemens_conductivity(p, t, velocity="sound"),
                   lambda p, t: klemens_conductivity(p, t, velocity="dispersion"))
        for p in (params(gamma_fric=0.03), params(omega0=0.0)):
            for f in thermal:
                values = f(p, temps)
                assert values.shape == temps.shape
                assert values.tolist() == [f(p, t) for t in temps.tolist()]

    def test_rejections(self):
        with pytest.raises(ValueError, match="temperature"):
            quad_diffusion(params(), -1.0)
        for f in (quad_diffusion, gibbs_energy_density, heat_capacity_density, klemens_conductivity):
            with pytest.raises(ValueError, match="temperature"):
                f(params(), np.array([1.0, -1.0, 2.0]))

    def test_zero_pinning_rejected(self):
        # the position integrals diverge with the acoustic zero mode
        with pytest.raises(ValueError, match="zero mode|mode_sum"):
            quad_diffusion(params(omega0=0.0), 2.0)

    def test_point_cap_raises_without_large_allocation(self):
        # omega0 = 1e-12 puts the zeros of omega(q) within ~1e-6 of the real
        # axis even after the map; the point cap must stop the doubling with
        # a working set of TEMP_BLOCK x QUAD_CHUNK, not TEMP_BLOCK x the cap
        p = params(omega0=1e-12)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="did not converge"):
                quad_diffusion(p, np.linspace(0.5, 5.0, 64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestModeSumDiffusion:
    @pytest.mark.parametrize("kw", [dict(gamma_fric=0.03), dict(omega0=0.0, gamma_fric=0.05)])
    def test_equals_per_mode_means(self, kw):
        # one call over a sweep (with T = 0, and the zero mode at omega0 = 0)
        # against the per-mode variances, one temperature at a time
        p = params(n_sites=24, **kw)
        temps = np.array([0.0, 0.3, 2.0, 150.0])
        sums = mode_sum_diffusion(p, temps)
        for i, temp in enumerate(temps):
            q, _, c_x, c_p = mode_thermal_variances(p, temp)
            weight = p.lambda_fric + 2 * p.gamma_fric * np.cos(q)
            want = [np.mean(weight * c_x), np.mean(weight * c_p), np.mean(np.cos(q) * weight * c_x)]
            assert [v[i] for v in as_triple(sums)] == pytest.approx(want, rel=1e-14, abs=0.0)
            assert as_triple(mode_sum_diffusion(p, temp)) == pytest.approx(want, rel=1e-14, abs=0.0)


class TestHighTemperature:
    def test_momentum_coefficient_is_classical(self):
        p = params(lambda_fric=0.1)
        assert high_temp_diffusion(p, 100.0).d_pp == pytest.approx(10.0, rel=1e-15)

    def test_neighbour_coefficient_vanishes_with_coupling(self):
        p = params(xi=1e-8)
        ht = high_temp_diffusion(p, 100.0)
        # leading order lambda k T xi / (m^2 omega0^4)
        assert ht.d_ex == pytest.approx(p.lambda_fric * 100.0 * p.xi, rel=1e-6)

    @pytest.mark.parametrize("gamma", [0.0, 0.02])
    def test_matches_quadrature_at_high_temperature(self, gamma):
        p = params(gamma_fric=gamma)
        temp = 50.0 * p.hbar * p.omega_max / p.k_boltz
        closed = high_temp_diffusion(p, temp)
        assert as_triple(quad_diffusion(p, temp)) == pytest.approx(as_triple(closed), rel=0.01)

    def test_rejects_zero_pinning(self):
        with pytest.raises(ValueError, match="omega0"):
            high_temp_diffusion(params(omega0=0.0), 10.0)


class TestSourceDensity:
    @pytest.mark.parametrize("gamma", [0.0, 0.02])
    def test_newton_form_from_closed_coefficients(self, gamma):
        # the closed forms satisfy s = 2 lambda k_B T / a identically
        p = params(gamma_fric=gamma, omega0=0.7, xi=1.3, mass=2.0, lattice_const=0.5)
        for temp in (3.0, 50.0, 1e4):
            s = source_density(p, high_temp_diffusion(p, temp))
            assert s == pytest.approx(2 * p.lambda_fric * p.k_boltz * temp / p.lattice_const,
                                      rel=1e-12)

    def test_zero_temperature_source_matches_ground_state_energy(self):
        # s(0) = 2 lambda u_eq(0), with the ground-state energy density from
        # an independent mode sum of hbar omega / 2
        p = params()
        s = source_density(p, mode_sum_diffusion(p, 0.0))
        w = np.sqrt(p.omega0**2 + 4 * p.xi / p.mass * np.sin(mode_grid(p) / 2) ** 2)
        u0 = np.mean(p.hbar * w / 2) / p.lattice_const
        assert s == pytest.approx(2 * p.lambda_fric * u0, rel=1e-12)
        assert s > 0.0

    def test_fluctuation_dissipation_at_any_temperature(self):
        # gamma = 0: s = 2 lambda u_eq exactly, also away from high T
        p = params()
        for temp in (0.5, 2.0, 7.0):
            s = source_density(p, mode_sum_diffusion(p, temp))
            assert s == pytest.approx(2 * p.lambda_fric * gibbs_energy_density(p, temp),
                                      rel=1e-12)


class TestGibbsState:
    def test_decoupled_ground_state(self):
        p = params(xi=0.0, omega0=2.0, mass=1.5, n_sites=8)
        sigma, n = gibbs_covariance(p, 0.0).sigma, p.n_sites
        sxx, spp, sxp = sigma[:n, :n], sigma[n:, n:], sigma[:n, n:]
        assert np.allclose(np.diag(sxx), p.hbar / (2 * p.mass * p.omega0), rtol=1e-14)
        assert np.allclose(np.diag(spp), p.hbar * p.mass * p.omega0 / 2, rtol=1e-14)
        off = sxx - np.diag(np.diag(sxx))
        assert np.max(np.abs(off)) < 1e-15
        assert np.max(np.abs(sxp)) == 0.0

    def test_equipartition_at_high_temperature(self):
        p = params(n_sites=16)
        temp = 200.0 * p.omega_max
        sigma = gibbs_covariance(p, temp).sigma
        assert sigma[p.n_sites, p.n_sites] == pytest.approx(p.mass * p.k_boltz * temp, rel=1e-4)

    def test_matches_normal_mode_construction(self):
        # brute-force oracle: diagonalize K, populate each mode thermally,
        # rotate back to site coordinates
        p = params(n_sites=8, gamma_fric=0.0)
        temp = 2.0
        k = circulant(stiffness_row(p))
        evals, vecs = np.linalg.eigh(k)
        w = np.sqrt(evals / p.mass)
        cx = p.hbar / (2 * p.mass * w) / np.tanh(p.hbar * w / (2 * p.k_boltz * temp))
        cp = p.hbar * p.mass * w / 2 / np.tanh(p.hbar * w / (2 * p.k_boltz * temp))
        sxx = vecs @ np.diag(cx) @ vecs.T
        spp = vecs @ np.diag(cp) @ vecs.T
        sigma, n = gibbs_covariance(p, temp).sigma, p.n_sites
        assert np.max(np.abs(sigma[:n, :n] - sxx)) < 1e-12
        assert np.max(np.abs(sigma[n:, n:] - spp)) < 1e-12

    def test_translation_invariance_exact(self):
        p = params(n_sites=12)
        sigma = gibbs_covariance(p, 1.3).sigma
        n = p.n_sites
        sxx, spp = sigma[:n, :n], sigma[n:, n:]
        for r in range(1, 4):
            ref_x = sxx[0, r]
            ref_p = spp[0, r]
            for k in range(n):
                assert sxx[k, (k + r) % n] == ref_x
                assert spp[k, (k + r) % n] == ref_p

    def test_zero_pinning_zero_mode_handling(self):
        p = params(omega0=0.0, n_sites=16)
        g = gibbs_covariance(p, 2.0)
        # momentum of the free mode thermalizes; energy density finite
        assert np.isfinite(g.sigma).all()
        assert gibbs_energy_density(p, 2.0) > 0.0
        with pytest.raises(ValueError, match="omega0"):
            gibbs_covariance(params(omega0=0.0, xi=0.0), 1.0)

    def test_psd(self):
        for p in (params(), params(omega0=0.0), params(gamma_fric=0.05)):
            g = gibbs_covariance(p, 0.7)
            assert np.linalg.eigvalsh(g.sigma).min() > -1e-12 * np.abs(g.sigma).max()


class TestThermalDiffusionMatrix:
    def test_diagonal_matches_mode_sums(self):
        p = params(gamma_fric=0.03)
        d = thermal_matrices(p, 2.0).diffusion
        ds = mode_sum_diffusion(p, 2.0)
        n = p.n_sites
        assert d[0, 0] == pytest.approx(ds.d_xx, rel=1e-12)
        assert d[0, 1] == pytest.approx(ds.d_ex, rel=1e-12)
        assert d[n, n] == pytest.approx(ds.d_pp, rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.02, 0.05])
    def test_psd_including_critical_damping_edge(self, gamma):
        p = params(gamma_fric=gamma, lambda_fric=0.1)
        d = thermal_matrices(p, 0.5).diffusion
        eig = np.linalg.eigvalsh(d)
        assert eig.min() >= -1e-12 * eig.max()

    def test_fluctuation_dissipation_d_equals_lambda_covariance(self):
        # gamma = 0: D = lambda * (thermal covariance), block by block
        p = params()
        d = thermal_matrices(p, 2.0).diffusion
        g = gibbs_covariance(p, 2.0)
        assert np.allclose(d, p.lambda_fric * g.sigma, rtol=1e-12, atol=1e-15)

    def test_thermal_matrices_reject_acoustic_zero_mode(self):
        # omega0 = 0: the undamped-position zero mode has no stationary Gibbs state
        with pytest.raises(ValueError, match="omega0 > 0: the acoustic zero mode"):
            thermal_matrices(params(omega0=0.0, n_sites=8))

    def test_quadrature_matches_mode_sum_at_n64(self):
        # continuum integrals against the N = 64 ring sums (0.1% budget)
        p = params(gamma_fric=0.02)
        for temp in (0.5, 2.0, 50.0):
            ds_int = quad_diffusion(p, temp)
            ds_sum = mode_sum_diffusion(p, temp)
            assert ds_int.d_xx == pytest.approx(ds_sum.d_xx, rel=1e-3)
            assert ds_int.d_pp == pytest.approx(ds_sum.d_pp, rel=1e-3)
            assert ds_int.d_ex == pytest.approx(ds_sum.d_ex, rel=1e-3)


class TestEnergyAndHeatCapacity:
    def test_classical_limits(self):
        p = params()
        temp = 80.0 * p.omega_max
        assert gibbs_energy_density(p, temp) == pytest.approx(p.k_boltz * temp / p.lattice_const,
                                                              rel=1e-3)
        ratio = heat_capacity_density(p, temp) * p.lattice_const / p.k_boltz
        assert 0.99 <= ratio <= 1.0

    def test_frozen_at_zero_temperature(self):
        assert heat_capacity_density(params(), 0.0) == 0.0

    def test_subnormal_temperature_is_the_zero_limit(self):
        # hbar omega / (2 k_B T) overflows to inf at T = 5e-310: no warning,
        # and every quantity takes its T = 0 value
        p = params(n_sites=16, mass=0.01, xi=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (heat_capacity_density, klemens_conductivity):
                assert f(p, 5e-310) == f(p, 0.0)
            for f in (gibbs_energy_density, heat_capacity_density, klemens_conductivity):
                swept = f(p, np.array([0.0, 5e-310, 1.0])).tolist()
                assert swept == [f(p, 0.0), f(p, 0.0), f(p, 1.0)]
            assert np.array_equal(gibbs_covariance(p, 5e-310).sigma, gibbs_covariance(p, 0.0).sigma)
            hot, cold = thermal_matrices(p, 5e-310), thermal_matrices(p, 0.0)
            assert np.array_equal(hot.diffusion_xx, cold.diffusion_xx)
            assert np.array_equal(hot.diffusion_pp, cold.diffusion_pp)

    def test_energy_density_monotone_in_temperature(self):
        p = params(n_sites=16)
        temps = [0.0, 0.3, 1.0, 2.5, 10.0, 100.0]
        values = [gibbs_energy_density(p, t) for t in temps]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_heat_capacity_matches_finite_difference(self):
        # central difference of u_eq with step 1e-4 T
        p = params(n_sites=8)
        temp = 1.5
        h = 1e-4 * temp
        fd = (gibbs_energy_density(p, temp + h) - gibbs_energy_density(p, temp - h)) / (2 * h)
        assert heat_capacity_density(p, temp) == pytest.approx(fd, rel=1e-6)

    def test_si_units_classical_plateau(self):
        # explicit hbar and k_B: an argon-like chain reaching its classical
        # plateau at a laboratory-scale temperature
        p = ChainParams(
            n_sites=32, mass=6.63e-26, omega0=8e12, xi=4.3,
            lattice_const=3.4e-10, lambda_fric=5e10, gamma_fric=0.0,
            hbar=1.054571817e-34, k_boltz=1.380649e-23, bath_temp=300.0,
        )
        temp = 60.0 * p.hbar * p.omega_max / p.k_boltz
        ratio = heat_capacity_density(p, temp) * p.lattice_const / p.k_boltz
        assert 0.99 <= ratio <= 1.0
        assert gibbs_energy_density(p, temp) == pytest.approx(
            p.k_boltz * temp / p.lattice_const, rel=1e-3)

