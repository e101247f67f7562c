import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_lyapunov

from heatchain import (
    ChainParams,
    CovarianceState,
    PSDViolationError,
    build_matrices,
    circulant_symbol,
    energy_balance_residual,
    energy_balance_rhs,
    evolve,
    gaussian_site_weights,
    gibbs_covariance,
    gibbs_energy_density,
    hotspot_state,
    mode_sum_diffusion,
    moment_rhs,
    propagator,
    site_observables,
    stationary_covariance,
    symmetrize,
    thermal_matrices,
    total_energy,
    uniform_state,
)
from heatchain.verify import (
    check_moment_fidelity,
    transcribed_moment_rhs,
    undamped_matrices,
    van_loan_map,
)


def lyapunov_oracle(matrices):
    """Dense solve of A Sigma + Sigma A^T + 2 D = 0 (scipy's Bartels-Stewart), a
    reference for the per-mode Fourier solve of `stationary_covariance`."""
    return symmetrize(solve_continuous_lyapunov(matrices.drift, -2.0 * matrices.diffusion))


def params(**kw):
    base = dict(n_sites=8, mass=1.0, omega0=1.0, xi=1.0, lattice_const=1.0,
                lambda_fric=0.1, gamma_fric=0.0, bath_temp=2.0)
    base.update(kw)
    return ChainParams(**base)


class TestMomentRhs:
    def test_matches_literal_transcription(self):
        p = params(n_sites=4, gamma_fric=0.03)
        mats = thermal_matrices(p)
        rng = np.random.default_rng(7)
        n = p.n_sites
        idx = np.arange(n)
        for _ in range(100):
            raw = rng.normal(size=(2 * n, 2 * n))
            sigma = symmetrize(raw @ raw.T) / (2 * n)
            rhs = moment_rhs(CovarianceState(sigma), mats)
            dx2, dp2, dxnext = transcribed_moment_rhs(sigma, p, mats)
            assert np.max(np.abs(np.diag(rhs[:n, :n]) - dx2)) <= 1e-13
            assert np.max(np.abs(np.diag(rhs[n:, n:]) - dp2)) <= 1e-13
            assert np.max(np.abs(rhs[idx, (idx + 1) % n] - dxnext)) <= 1e-13

    def test_verify_transcription_clause_holds_at_extreme_scales(self):
        # rhs entries reach 2.8e6 on this chain, where an absolute 1e-13 bound
        # failed at 1.14e-13.  Only the transcription clause is asserted: the
        # same check's exact-step clause reads 1.2e-12 here, a weak-damping
        # precision limit of `propagator` with its own fix still open.
        p = params(n_sites=23, mass=0.01, omega0=1e-3, xi=68.8, lambda_fric=1e-3, bath_temp=27.8)
        detail = check_moment_fidelity(p).detail
        rel = re.search(r"max \|delta\| / max \|rhs\| (\S+) \(tol 1e-14\)", detail)
        assert float(rel.group(1)) <= 1e-14

    def test_gibbs_state_is_stationary(self):
        for gam in (0.0, 0.02):
            p = params(gamma_fric=gam)
            mats = thermal_matrices(p)
            rhs = moment_rhs(gibbs_covariance(p, p.bath_temp), mats)
            assert np.max(np.abs(rhs)) <= 1e-10 * np.max(np.abs(mats.diffusion))

    def test_closed_system_conserves_energy_instantaneously(self):
        p = params()
        mats = undamped_matrices(p)
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(16, 16))
        sigma = symmetrize(raw @ raw.T)
        rhs = moment_rhs(CovarianceState(sigma), mats)
        n = p.n_sites
        idx = np.arange(n)
        up, dn = (idx + 1) % n, (idx - 1) % n
        de = (np.diag(rhs[n:, n:]) / (2 * p.mass)
              + (p.mass * p.omega0**2 / 2 + p.xi) * np.diag(rhs[:n, :n])
              - (p.xi / 2) * (rhs[idx, up][: n] + rhs[idx, dn][: n]))
        assert abs(de.sum()) < 1e-11 * np.max(np.abs(sigma))

    def test_dimension_mismatch_rejected(self):
        p = params()
        with pytest.raises(ValueError, match="mismatch"):
            moment_rhs(CovarianceState(np.eye(4)), thermal_matrices(p))


class TestPropagator:
    def test_noiseless_chain_has_no_noise_term(self):
        # D = 0 (criterion 9's closed chain): Q vanishes exactly, not to rounding
        mats = undamped_matrices(params())
        p_exact, q_exact = propagator(mats, 0.3)
        assert not q_exact.any()
        assert np.max(np.abs(p_exact - van_loan_map(mats, 0.3)[0])) <= 1e-14

    @pytest.mark.parametrize("noise", ["xx", "pp", "both"])
    @pytest.mark.parametrize("wh", [1e-6, 1e-4, 1e-2, 1.0, 10.0])
    def test_undamped_noise_matches_per_mode_van_loan(self, wh, noise):
        # 2 gamma = lambda leaves the zone edge undamped, and the truncated
        # noise of build_matrices still drives it.  Q is linear in D: with the
        # p (x) noise alone, Q_xx (Q_pp) is the x - sin x term alone, which
        # loses digits as wh shrinks unless summed as a series
        p = params(n_sites=4, gamma_fric=0.05, lambda_fric=0.1)
        mats = build_matrices(p, mode_sum_diffusion(p, p.bath_temp))
        zero = np.zeros(p.n_sites)
        mats = {"xx": replace(mats, diffusion_pp=zero), "pp": replace(mats, diffusion_xx=zero),
                "both": mats}[noise]
        k, lam, dxx, dpp = (s[2] for s in mats.mode_symbols)  # q = pi
        assert lam == 0.0
        h = wh / np.sqrt(k / p.mass)
        n = p.n_sites
        q = propagator(mats, h)[1]
        got = np.array([[circulant_symbol(q[i * n, j * n:(j + 1) * n])[2] for j in (0, 1)]
                        for i in (0, 1)])
        block = np.zeros((4, 4))
        block[0, 1], block[2, 3] = 1.0 / p.mass, k  # A_q and -A_q^T at lambda_q = 0
        block[1, 0], block[3, 2] = -k, -1.0 / p.mass
        block[0, 2], block[1, 3] = 2.0 * dxx, 2.0 * dpp
        f = expm(block * h)
        want = f[:2, 2:] @ f[:2, :2].T
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-11


class TestEvolve:
    def test_undamped_energy_conservation(self):
        p = params(n_sites=16)
        mats = undamped_matrices(p)
        state0 = hotspot_state(p, 1.0, 3.0, gaussian_site_weights(16, 8.0, 2.0))
        traj = evolve(state0, mats, t_final=100.0 / p.omega_max, sample_stride=50)
        u = np.array([total_energy(s, p) for s in traj.states])
        assert np.max(np.abs(u - u[0])) <= 1e-9 * abs(u[0])
        assert np.min(traj.min_eig_ratios) >= -1e-10

    def test_uniform_decay_follows_closed_form(self):
        p = params(n_sites=16)
        mats = thermal_matrices(p)
        state0 = uniform_state(p, 5.0)
        traj = evolve(state0, mats, t_final=15.0, sample_stride=10)
        u = np.array([total_energy(s, p) for s in traj.states])
        u_eq = p.n_sites * p.lattice_const * gibbs_energy_density(p, p.bath_temp)
        want = u_eq + (u[0] - u_eq) * np.exp(-2 * p.lambda_fric * traj.times)
        assert np.allclose(u, want, rtol=1e-9)
        # log-linear fit of the decay rate
        y = np.log(np.abs(u - u_eq))
        a = np.vstack([traj.times, np.ones_like(traj.times)]).T
        slope = np.linalg.lstsq(a, y, rcond=None)[0][0]
        assert slope == pytest.approx(-2 * p.lambda_fric, rel=1e-3)

    def test_equilibrium_trajectory_is_stationary(self):
        p = params(n_sites=8)
        mats = thermal_matrices(p)
        state0 = gibbs_covariance(p, p.bath_temp)
        traj = evolve(state0, mats, t_final=10.0 / p.lambda_fric, sample_stride=100)
        drift = max(np.max(np.abs(s.sigma - state0.sigma)) for s in traj.states)
        assert drift <= 1e-8

    def test_observer_collects_without_storing_states(self):
        p = params()
        mats = thermal_matrices(p)
        traj = evolve(uniform_state(p, 3.0), mats, t_final=1.0,
                      observer=lambda s: total_energy(s, p))
        assert traj.states is None
        assert len(traj.observations) == len(traj.times)

    def test_psd_violation_aborts_with_diagnostic(self):
        p = params()
        mats = thermal_matrices(p)
        bad = np.eye(2 * p.n_sites)
        bad[0, 0] = -1.0
        with pytest.raises(PSDViolationError, match="t = "):
            evolve(CovarianceState(bad), mats, t_final=1.0)

    def test_argument_validation(self):
        p = params()
        mats = thermal_matrices(p)
        state = uniform_state(p, 2.0)
        with pytest.raises(ValueError, match="dt_max"):
            evolve(state, mats, 1.0, dt_max=0.0)
        with pytest.raises(ValueError, match="precedes"):
            evolve(CovarianceState(state.sigma, time=2.0), mats, 1.0)
        with pytest.raises(ValueError, match="sample_stride"):
            evolve(state, mats, 1.0, sample_stride=0)


class TestStationary:
    def test_fourier_and_dense_paths_agree(self):
        for n in (4, 8, 16):
            p = params(n_sites=n, gamma_fric=0.04)
            mats = thermal_matrices(p)
            sf = stationary_covariance(mats).sigma
            sd = lyapunov_oracle(mats)
            assert np.max(np.abs(sf - sd)) <= 1e-12 * max(1.0, np.max(np.abs(sd)))

    def test_fourier_solve_matches_gibbs_at_extreme_scales(self):
        # soft pinning against stiff coupling: the q = 0 stiffness m omega0^2 is
        # 1e-8 against 4 xi = 275; a row-built symbol lost 2e-7 here
        p = ChainParams(n_sites=23, mass=0.01, omega0=1e-3, xi=68.8, lambda_fric=1e-3,
                        bath_temp=27.8)
        st = stationary_covariance(thermal_matrices(p)).sigma
        gb = gibbs_covariance(p, p.bath_temp).sigma
        assert np.linalg.norm(st - gb) / np.linalg.norm(gb) <= 1e-9

    def test_non_hurwitz_rejected(self):
        # 2 gamma = lambda leaves the zone-edge mode undamped
        p = params(gamma_fric=0.05, lambda_fric=0.1)
        with pytest.raises(ValueError, match="Hurwitz"):
            stationary_covariance(thermal_matrices(p))
        with pytest.raises(ValueError, match="Hurwitz"):
            stationary_covariance(undamped_matrices(params()))


class TestSiteObservables:
    def test_gibbs_carries_no_current(self):
        p = params(n_sites=12)
        obs = site_observables(gibbs_covariance(p, 2.0), p)
        assert np.max(np.abs(obs.currents)) < 1e-14 * max(1.0, obs.total_energy)

    def test_decoupled_ground_state_energy(self):
        p = params(xi=0.0, omega0=2.0, n_sites=8)
        obs = site_observables(gibbs_covariance(p, 0.0), p)
        assert np.allclose(obs.energies, p.hbar * p.omega0 / 2, rtol=1e-14)

    def test_translation_invariant_state_uniform_observables(self):
        # uniformly heated state evolved briefly: shift symmetry preserved
        p = params(n_sites=10)
        mats = thermal_matrices(p)
        traj = evolve(uniform_state(p, 4.0), mats, t_final=2.0, sample_stride=17)
        for state in traj.states:
            obs = site_observables(state, p)
            assert np.ptp(obs.energies) <= 1e-12 * max(1.0, abs(obs.energies[0]))
            assert np.ptp(obs.currents) <= 1e-12
        assert obs.total_energy == pytest.approx(np.sum(obs.energies), rel=0, abs=0)

    def test_current_gradient_telescopes(self):
        p = params(n_sites=16)
        state = hotspot_state(p, 1.0, 4.0, gaussian_site_weights(16, 8.0, 2.0))
        mats = thermal_matrices(p)
        traj = evolve(state, mats, t_final=3.0, sample_stride=25)
        for s in traj.states:
            j = site_observables(s, p).currents
            grad_sum = np.sum(np.roll(j, -1) - j)
            assert abs(grad_sum) < 1e-13 * max(1.0, np.max(np.abs(j)))

    def test_densities_scale_with_lattice_constant(self):
        p = params(lattice_const=0.25)
        obs = site_observables(gibbs_covariance(p, 2.0), p)
        assert np.allclose(obs.densities, obs.energies / 0.25, rtol=0, atol=0)


class TestEnergyBalance:
    def test_residual_small_on_fine_samples(self):
        # second-order differences against the analytic per-site balance
        p = params(n_sites=8, gamma_fric=0.03)
        mats = thermal_matrices(p)
        state0 = hotspot_state(p, p.bath_temp, 5.0, gaussian_site_weights(8, 4.0, 1.5))
        traj = evolve(state0, mats, t_final=4.0, sample_stride=1)
        rep = energy_balance_residual(traj, p, mats)
        assert rep.normalized_max <= 1e-4
        assert not rep.sampling_flagged

    def test_equilibrium_balance_is_zero_on_both_sides(self):
        p = params(n_sites=8, gamma_fric=0.02)
        mats = thermal_matrices(p)
        traj = evolve(gibbs_covariance(p, p.bath_temp), mats, t_final=2.0, sample_stride=1)
        rep = energy_balance_residual(traj, p, mats)
        scale = total_energy(traj.states[0], p)
        assert np.max(np.abs(rep.residual)) < 1e-10 * scale
        rhs = energy_balance_rhs(traj.states[0], p, mats)
        assert np.max(np.abs(rhs)) < 1e-12 * scale

    def test_pure_current_redistribution_when_undamped(self):
        # lambda = gamma = 0, D = 0: dE_k/dt = -(J_{k+1} - J_k) exactly
        p = params(n_sites=12)
        mats = undamped_matrices(p)
        state0 = hotspot_state(p, 1.0, 3.0, gaussian_site_weights(12, 6.0, 1.5))
        traj = evolve(state0, mats, t_final=2.0, dt_max=2e-3, sample_stride=1)
        energies = np.array([site_observables(s, p).energies for s in traj.states])
        ds = traj.times[1] - traj.times[0]
        dedt = (energies[2:] - energies[:-2]) / (2 * ds)
        for i, s in enumerate(traj.states[1:-1]):
            j = site_observables(s, p).currents
            grad = np.roll(j, -1) - j
            assert np.max(np.abs(dedt[i] + grad)) <= 2e-4 * max(1.0, np.max(np.abs(dedt)))

    def test_too_coarse_sampling_flagged(self):
        p = params(n_sites=8)
        mats = thermal_matrices(p)
        traj = evolve(uniform_state(p, 4.0), mats, t_final=20.0, sample_stride=200)
        rep = energy_balance_residual(traj, p, mats)
        assert rep.sampling_flagged

    def test_needs_enough_states(self):
        p = params()
        mats = thermal_matrices(p)
        traj = evolve(uniform_state(p, 3.0), mats, t_final=0.0)
        with pytest.raises(ValueError, match="3 retained"):
            energy_balance_residual(traj, p, mats)


class TestInitialStates:
    def test_hotspot_modes_are_psd(self):
        p = params(n_sites=16)
        w = gaussian_site_weights(16, 8.0, 3.0)
        for mode in ("thermal", "diagonal"):
            s = hotspot_state(p, 1.0, 4.0, w, mode=mode)
            eig = np.linalg.eigvalsh(s.sigma)
            assert eig.min() >= -1e-12 * eig.max()

    def test_uniform_thermal_window_is_exact_hot_gibbs(self):
        p = params(n_sites=8)
        s = hotspot_state(p, 1.0, 4.0, np.ones(8), mode="thermal")
        g = gibbs_covariance(p, 4.0)
        assert np.max(np.abs(s.sigma - g.sigma)) < 1e-12

    def test_weight_validation(self):
        p = params()
        with pytest.raises(ValueError, match="shape"):
            hotspot_state(p, 1.0, 2.0, np.ones(3))
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            hotspot_state(p, 1.0, 2.0, 2.0 * np.ones(p.n_sites))
        with pytest.raises(ValueError, match="t_hot"):
            hotspot_state(p, 3.0, 2.0, np.ones(p.n_sites))
        with pytest.raises(ValueError, match="mode"):
            hotspot_state(p, 1.0, 2.0, np.ones(p.n_sites), mode="wat")

    def test_gaussian_weights_periodic_and_bounded(self):
        w = gaussian_site_weights(12, 0.0, 2.0)
        assert w[0] == 1.0
        assert w[1] == pytest.approx(w[11])
        assert np.all((0.0 < w) & (w <= 1.0))
