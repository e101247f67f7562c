import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_lyapunov

from heatchain import (
    ChainParams,
    FactoredState,
    PSDViolationError,
    build_matrices,
    circulant_symbol,
    energy_balance_rhs,
    evolve,
    gaussian_site_weights,
    gibbs_covariance,
    gibbs_energy_density,
    hotspot_state,
    min_eig_ratio,
    mode_propagator,
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
from heatchain.chain import circulant_blocks
from heatchain.diffusion import mode_thermal_variances
from heatchain.verify import (
    check_moment_fidelity,
    exact_energy_rate,
    injection_error,
    thermal_units,
    transcribed_moment_rhs,
    undamped_matrices,
    van_loan_map,
)


def lyapunov_oracle(matrices, params):
    """Dense solve of A Sigma + Sigma A^T + 2 D = 0 (scipy's Bartels-Stewart) in the
    `thermal_units` of `params`, a reference for the per-mode Fourier solve of
    `stationary_covariance`."""
    u = thermal_units(params)
    scaled = solve_continuous_lyapunov(matrices.drift * u / u[:, None],
                                       -2.0 * matrices.diffusion / np.outer(u, u))
    return symmetrize(scaled * np.outer(u, u))


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
            rhs = moment_rhs(sigma, mats)
            dx2, dp2, dxnext = transcribed_moment_rhs(sigma, p, mats)
            assert np.max(np.abs(np.diag(rhs[:n, :n]) - dx2)) <= 1e-13
            assert np.max(np.abs(np.diag(rhs[n:, n:]) - dp2)) <= 1e-13
            assert np.max(np.abs(rhs[idx, (idx + 1) % n] - dxnext)) <= 1e-13

    def test_verify_transcription_clause_holds_at_extreme_scales(self):
        # rhs entries reach 2.8e6 on this chain, where an absolute 1e-13 bound
        # failed at 1.14e-13; the whole check, the exact step against the
        # thermal-unit Van Loan oracle included, passes at its own bounds
        p = params(n_sites=23, mass=0.01, omega0=1e-3, xi=68.8, lambda_fric=1e-3, bath_temp=27.8)
        result = check_moment_fidelity(p)
        assert result.passed, result.line()

    def test_gibbs_state_is_stationary(self):
        for gam in (0.0, 0.02):
            p = params(gamma_fric=gam)
            mats = thermal_matrices(p)
            rhs = moment_rhs(gibbs_covariance(p, p.bath_temp).sigma, mats)
            assert np.max(np.abs(rhs)) <= 1e-10 * np.max(np.abs(mats.diffusion))

    def test_closed_system_conserves_energy_instantaneously(self):
        p = params()
        mats = undamped_matrices(p)
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(16, 16))
        sigma = symmetrize(raw @ raw.T)
        de = exact_energy_rate(sigma, p, mats)
        assert abs(de.sum()) < 1e-11 * np.max(np.abs(sigma))

    def test_dimension_mismatch_rejected(self):
        p = params()
        with pytest.raises(ValueError, match="mismatch"):
            moment_rhs(np.eye(4), thermal_matrices(p))


class TestPropagator:
    def test_dense_maps_are_the_circulants_of_the_mode_maps(self):
        mats = build_matrices(params(gamma_fric=0.03), mode_sum_diffusion(params(), 2.0))
        for got, want in zip(propagator(mats, 0.7), mode_propagator(mats, 0.7)):
            assert np.array_equal(got, circulant_blocks(np.moveaxis(want, 0, -1)))

    def test_noiseless_chain_has_no_noise_term(self):
        # D = 0 (criterion 9's closed chain): Q vanishes exactly, not to rounding
        mats = undamped_matrices(params())
        p_exact, q_exact = propagator(mats, 0.3)
        assert not q_exact.any()
        assert np.max(np.abs(p_exact - van_loan_map(mats, 0.3, params())[0])) <= 1e-14

    @pytest.mark.parametrize("wh, noise", [
        *itertools.product([1e-6, 1e-4, 1e-2, 1.0, 10.0], ["xx", "pp", "both"]),
        pytest.param(None, "weak", id="weak")])
    def test_undamped_noise_matches_per_mode_van_loan(self, wh, noise):
        # 2 gamma = lambda leaves the zone edge undamped, and the truncated
        # noise of build_matrices still drives it.  Q is linear in D: with the
        # p (x) noise alone, Q_xx (Q_pp) grows as h^3, not h, and a closed
        # form in x - sin x loses digits there as wh shrinks.  "weak" is the
        # q = pi/2 mode of a soft, stiff chain, lambda_q h = 6e-6 at
        # h = 1/omega(pi), where Q = S - P S P^T lost eps/(2 lambda_q h)
        if noise == "weak":
            p = params(n_sites=4, mass=0.01, omega0=1e-3, xi=68.8, lambda_fric=1e-3,
                       gamma_fric=5e-4, bath_temp=27.8)
            mode = 1
        else:
            p = params(n_sites=4, gamma_fric=0.05, lambda_fric=0.1)
            mode = 2  # q = pi
        mats = build_matrices(p, mode_sum_diffusion(p, p.bath_temp))
        zero = np.zeros(p.n_sites)
        mats = {"xx": replace(mats, diffusion_pp=zero), "pp": replace(mats, diffusion_xx=zero)}.get(noise, mats)
        k, lam, dxx, dpp = (s[mode] for s in mats.mode_symbols)
        assert (lam == 0.0) == (noise != "weak")
        h = 1.0 / p.omega_max if wh is None else wh / np.sqrt(k / p.mass)
        n = p.n_sites
        q = propagator(mats, h)[1]
        got = np.array([[circulant_symbol(q[i * n, j * n:(j + 1) * n])[mode] for j in (0, 1)]
                        for i in (0, 1)])
        block = np.diag([-lam, -lam, lam, lam])  # A_q and -A_q^T
        block[0, 1], block[2, 3] = 1.0 / p.mass, k
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
        assert traj.min_eig_ratios.shape == (0,)

    def test_min_eig_ratios_are_those_of_the_retained_states(self):
        p = params()
        traj = evolve(hotspot_state(p, 1.0, 3.0, gaussian_site_weights(8, 4.0, 1.5)),
                      thermal_matrices(p), t_final=2.0, sample_stride=5)
        assert len(traj.min_eig_ratios) == len(traj.times)
        assert traj.min_eig_ratios.tolist() == [min_eig_ratio(s.sigma) for s in traj.states]

    def test_factored_state_stays_factored(self):
        p = params()
        traj = evolve(hotspot_state(p, 1.0, 3.0, gaussian_site_weights(8, 4.0, 1.5)),
                      thermal_matrices(p), t_final=2.0, sample_stride=5)
        assert all(isinstance(s, FactoredState) and s.factor.shape == (16, 16) for s in traj.states)
        assert [s.time for s in traj.states] == traj.times.tolist()

    def test_psd_violation_aborts_with_diagnostic(self):
        p = params()
        mats = thermal_matrices(p)
        blocks = np.tile(np.eye(2), (p.n_sites, 1, 1))
        blocks[0, 0, 0] = -1.0
        with pytest.raises(PSDViolationError, match="t = "):
            evolve(FactoredState(blocks, np.zeros((0, 2 * p.n_sites))), mats, t_final=1.0)
        with pytest.raises(TypeError, match="FactoredState"):
            evolve(np.eye(2 * p.n_sites), mats, t_final=1.0)

    def test_argument_validation(self):
        p = params()
        mats = thermal_matrices(p)
        state = uniform_state(p, 2.0)
        with pytest.raises(ValueError, match="dt_max"):
            evolve(state, mats, 1.0, dt_max=0.0)
        with pytest.raises(ValueError, match="precedes"):
            evolve(FactoredState(state.background, state.factor, time=2.0), mats, 1.0)
        with pytest.raises(ValueError, match="sample_stride"):
            evolve(state, mats, 1.0, sample_stride=0)


class TestStationary:
    def test_fourier_and_dense_paths_agree(self):
        for n in (4, 8, 16):
            p = params(n_sites=n, gamma_fric=0.04)
            mats = thermal_matrices(p)
            sf = stationary_covariance(mats).sigma
            sd = lyapunov_oracle(mats, p)
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


def thermal_unit_states(p, seed, count=20):
    """Random covariances in the `thermal_units` of `p`."""
    rng = np.random.default_rng(seed)
    u = thermal_units(p)
    n = 2 * p.n_sites
    for _ in range(count):
        raw = rng.normal(size=(n, n))
        yield symmetrize(raw @ raw.T) / n * np.outer(u, u)


class TestEnergyBalance:
    # dE_k/dt = E_k(A Sigma + Sigma A^T + 2 D) holds exactly (`exact_energy_rate`)
    def test_identity_with_neighbour_damping(self):
        p = params(n_sites=8, gamma_fric=0.03)
        mats = thermal_matrices(p)
        for state in thermal_unit_states(p, seed=5):
            want = exact_energy_rate(state, p, mats)
            got = energy_balance_rhs(state, p, mats)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert injection_error(p, mats, mode_sum_diffusion(p, p.bath_temp)) <= 1e-14

    def test_equilibrium_balance_is_zero_on_both_sides(self):
        p = params(n_sites=8, gamma_fric=0.02)
        mats = thermal_matrices(p)
        gibbs = gibbs_covariance(p, p.bath_temp)
        scale = total_energy(gibbs, p)
        assert np.max(np.abs(exact_energy_rate(gibbs.sigma, p, mats))) < 1e-12 * scale
        assert np.max(np.abs(energy_balance_rhs(gibbs, p, mats))) < 1e-12 * scale

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_factored_bands_wrap_and_form_no_dense_matrix(self, n, monkeypatch):
        # at N = 3 the offset +2 wraps onto -1, at N = 4 onto -2; a random
        # background and a random non-symmetric square factor, read with
        # `FactoredState.sigma` made to raise, against the dense matrix
        p = params(n_sites=n, gamma_fric=0.03)
        mats = thermal_matrices(p)
        rng = np.random.default_rng(n)
        state = FactoredState(rng.normal(size=(n, 2, 2)), rng.normal(size=(2 * n, 2 * n)))
        sigma = state.sigma
        want, want_rate = site_observables(sigma, p), energy_balance_rhs(sigma, p, mats)

        def no_dense(self):
            raise AssertionError("FactoredState.sigma was formed")

        monkeypatch.setattr(FactoredState, "sigma", property(no_dense))
        got, got_rate = site_observables(state, p), energy_balance_rhs(state, p, mats)
        scale = np.max(np.abs(want.energies))
        assert np.max(np.abs(got.energies - want.energies)) <= 1e-13 * scale
        assert np.max(np.abs(got.currents - want.currents)) <= 1e-13 * scale
        rate_scale = max(np.max(np.abs(want_rate)), mats.omega_max * scale)
        assert np.max(np.abs(got_rate - want_rate)) <= 1e-13 * rate_scale

    def test_pure_current_redistribution_when_undamped(self):
        # lambda = gamma = 0, D = 0: dE_k/dt = -(J_{k+1} - J_k) exactly, and the
        # total energy is conserved; the friction is read from the matrices, not
        # from params whose lambda and gamma are nonzero
        p = params(n_sites=8, gamma_fric=0.03)
        mats = undamped_matrices(p)
        for state in thermal_unit_states(p, seed=3):
            want = exact_energy_rate(state, p, mats)
            scale = np.max(np.abs(want))
            j = site_observables(state, p).currents
            assert np.max(np.abs(energy_balance_rhs(state, p, mats) - want)) <= 1e-13 * scale
            assert np.max(np.abs(want + np.roll(j, -1) - j)) <= 1e-13 * scale
            assert abs(want.sum()) <= 1e-13 * scale


class TestInitialStates:
    def test_hotspot_modes_are_psd(self):
        p = params(n_sites=16)
        w = gaussian_site_weights(16, 8.0, 3.0)
        for mode in ("thermal", "diagonal"):
            s = hotspot_state(p, 1.0, 4.0, w, mode=mode)
            eig = np.linalg.eigvalsh(s.sigma)
            assert eig.min() >= -1e-12 * eig.max()

    def test_factored_states_are_gibbs_background_plus_gram(self):
        p = params(n_sites=8)
        w = gaussian_site_weights(8, 4.0, 1.5)
        _, _, c_x, c_p = mode_thermal_variances(p, 1.0)
        cold = circulant_blocks([[c_x, np.zeros(8)], [np.zeros(8), c_p]])
        for state in (gibbs_covariance(p, 1.0), uniform_state(p, 1.0),
                      stationary_covariance(thermal_matrices(p))):
            assert isinstance(state, FactoredState) and state.factor.shape == (0, 16)
        assert np.max(np.abs(uniform_state(p, 1.0).sigma - cold)) <= 1e-14 * np.max(np.abs(cold))
        for mode in ("thermal", "diagonal"):
            s = hotspot_state(p, 1.0, 4.0, w, mode=mode)
            assert np.max(np.abs(s.sigma - cold - s.factor.T @ s.factor)) <= 1e-14 * np.max(np.abs(cold))
        assert np.count_nonzero(hotspot_state(p, 1.0, 4.0, w, mode="diagonal").factor) == 16

    def test_factored_background_keeps_the_symmetric_even_part(self):
        rng = np.random.default_rng(2)
        blocks = rng.normal(size=(6, 2, 2))
        state = FactoredState(blocks, np.zeros((0, 12)))
        even = 0.5 * (blocks + blocks[[0, 5, 4, 3, 2, 1]])
        assert np.allclose(state.background, 0.5 * (even + even.swapaxes(1, 2)), rtol=0, atol=1e-15)
        again = FactoredState(state.background, state.factor)
        assert np.array_equal(again.background, state.background)
        dense = circulant_blocks(np.moveaxis(blocks, 0, -1))
        assert np.allclose(state.sigma, symmetrize(dense), rtol=0, atol=1e-14)
        with pytest.raises(ValueError, match="shape"):
            FactoredState(blocks, np.zeros((3, 11)))

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
