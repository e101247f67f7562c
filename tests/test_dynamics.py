import itertools
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_lyapunov

from heatchain import (
    ChainParams,
    FactoredState,
    FourierGram,
    PSDViolationError,
    build_matrices,
    energy_balance_rhs,
    energy_decay,
    evolve,
    gaussian_site_weights,
    gibbs_covariance,
    gibbs_energy_density,
    hotspot_state,
    min_eig_ratio,
    mode_propagator,
    mode_sum_diffusion,
    site_observables,
    stationary_covariance,
    symmetrize,
    thermal_matrices,
    total_energy,
    uniform_state,
)
import heatchain
import heatchain.chain
import heatchain.dynamics
from heatchain.chain import ModelMatrices, circulant, circulant_blocks, circulant_row_from_symbol
from heatchain.diffusion import mode_thermal_variances
from heatchain.verify import (
    check_moment_fidelity,
    dense_model,
    exact_energy_rate,
    injection_error,
    moment_rhs,
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
    a, d = dense_model(matrices)
    scaled = solve_continuous_lyapunov(a * u / u[:, None], -2.0 * d / np.outer(u, u))
    return symmetrize(scaled * np.outer(u, u))


def dense_propagator(matrices, h):
    """Dense P and Q of the exact map: the block circulants of `mode_propagator`."""
    return tuple(circulant_blocks(np.moveaxis(b, 0, -1)) for b in mode_propagator(matrices, h))


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
            assert np.max(np.abs(rhs)) <= 1e-10 * np.max(np.abs(dense_model(mats)[1]))

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


def test_simulation_modules_hold_no_dense_model():
    # the dense A, D and moment rhs are oracles, built in heatchain.verify
    # alone; the model is its Fourier symbols, with no circulant rows to
    # convert to and from
    for module in (heatchain, heatchain.chain, heatchain.dynamics):
        assert not hasattr(module, "moment_rhs") and not hasattr(module, "propagator")
        for name in ("stiffness_row", "circulant_symbol", "_neighbour_row"):
            assert not hasattr(module, name)
    p = params(gamma_fric=0.03)
    mats = thermal_matrices(p)
    assert [f.name for f in fields(ModelMatrices)] == [
        "mass", "stiffness", "friction", "diffusion_xx", "diffusion_pp"]
    for model in (ModelMatrices, mats):
        for name in ("drift", "diffusion", "mode_symbols", "pinning", "coupling",
                     "friction_on_site", "friction_neighbour"):
            assert not hasattr(model, name)
    q, _, c_x, c_p = mode_thermal_variances(p, p.bath_temp)
    weight = p.lambda_fric + 2.0 * p.gamma_fric * np.cos(q)
    assert np.array_equal(mats.diffusion_xx, weight * c_x)
    assert np.array_equal(mats.diffusion_pp, weight * c_p)


class TestPropagator:
    def test_noiseless_chain_has_no_noise_term(self):
        # D = 0 (criterion 9's closed chain): Q vanishes exactly, not to rounding
        mats = undamped_matrices(params())
        p_exact, q_exact = dense_propagator(mats, 0.3)
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
        k, lam, dxx, dpp = (s[mode] for s in (mats.stiffness, mats.friction,
                                              mats.diffusion_xx, mats.diffusion_pp))
        assert (lam == 0.0) == (noise != "weak")
        h = 1.0 / p.omega_max if wh is None else wh / np.sqrt(k / p.mass)
        got = mode_propagator(mats, h)[1][mode]
        block = np.diag([-lam, -lam, lam, lam])  # A_q and -A_q^T
        block[0, 1], block[2, 3] = 1.0 / p.mass, k
        block[1, 0], block[3, 2] = -k, -1.0 / p.mass
        block[0, 2], block[1, 3] = 2.0 * dxx, 2.0 * dpp
        f = expm(block * h)
        want = f[:2, 2:] @ f[:2, :2].T
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-11


    def test_long_interval_noise_is_the_stationary_covariance(self):
        # the toy compare_n128 chain: every mode has relaxed long before
        # h = 1e10, so Q_q is the stationary block; starting its Taylor
        # polynomial at h / 2^30 whatever h read an error of 3.7 there
        p = ChainParams(n_sites=8, mass=1.0, omega0=0.05, xi=1.0, lattice_const=1.0,
                        lambda_fric=0.2, gamma_fric=0.0, bath_temp=200.0)
        mats = thermal_matrices(p)
        stationary = stationary_covariance(mats).background
        p_h, q_h = mode_propagator(mats, 1e10)
        assert not p_h.any()
        assert np.max(np.abs(q_h - stationary)) <= 1e-12 * np.max(np.abs(stationary))


class TestEvolve:
    def test_undamped_energy_conservation(self):
        p = params(n_sites=16)
        mats = undamped_matrices(p)
        state0 = hotspot_state(p, 1.0, 3.0, gaussian_site_weights(16, 8.0, 2.0))
        traj = evolve(state0, mats, t_final=100.0 / p.omega_max, sample_stride=50)
        u = np.array([total_energy(s, p) for s in traj.states])
        assert np.max(np.abs(u - u[0])) <= 1e-9 * abs(u[0])
        assert min(min_eig_ratio(s.sigma) for s in traj.states) >= -1e-10

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

    def test_factored_state_stays_factored(self):
        # every sample is the start's heating, shared, and its own map T_q
        p = params()
        start = hotspot_state(p, 1.0, 3.0, gaussian_site_weights(8, 4.0, 1.5))
        traj = evolve(start, thermal_matrices(p), t_final=2.0, sample_stride=5)
        assert all(isinstance(s, FactoredState) and s.heating is start.heating and s.transfer.shape == (8, 2, 2)
                   for s in traj.states)
        assert [s.time for s in traj.states] == traj.times.tolist()

    def test_retained_states_are_copies_equal_to_observed_samples(self):
        # the retained states are the samples an observer sees: each holds its
        # own background and map, and all share the start's heating, so an
        # observer may keep any of them
        p = params(n_sites=16)
        mats = thermal_matrices(p)

        def run(observer=None):
            start = hotspot_state(p, 1.0, 3.0, gaussian_site_weights(16, 8.0, 2.0))
            return evolve(start, mats, t_final=2.0, sample_stride=5, observer=observer)

        kept = run().states
        seen = run(lambda s: s).observations
        assert len(kept) == len(seen) > 3
        for a, b in itertools.combinations(seen, 2):
            assert not np.shares_memory(a.transfer, b.transfer)
            assert not np.shares_memory(a.background, b.background)
        assert all(s.heating is seen[0].heating for s in seen)
        for state, sample in zip(kept, seen):
            assert state.time == sample.time
            assert np.array_equal(state.background, sample.background)
            assert np.array_equal(state.transfer, sample.transfer)

    @pytest.mark.parametrize("start", ["thermal", "hot_sites", "dense"])
    def test_gram_maps_the_pairs_each_start_holds(self, start):
        # a hot spot's heating holds its x-x and p-p pairs, in thermal mode or
        # in diagonal mode over a hot_sites window; a random factor whose rows
        # hold both parts holds all four (`test_covariance`).  Every sample
        # against the dense map Sigma <- P Sigma P^T + Q of `dense_propagator`
        # over each interval
        p = params(n_sites=16, gamma_fric=0.03)
        n = p.n_sites
        mats = thermal_matrices(p)
        if start == "dense":
            factor = np.random.default_rng(5).normal(size=(2 * n, 2 * n))
            state0 = FactoredState(gibbs_covariance(p, p.bath_temp).background,
                                   heating=FourierGram.of_factor(factor))
        else:
            window = np.zeros(n)
            window[5:11] = 1.0
            weights = gaussian_site_weights(n, n / 2.0, 2.0) if start == "thermal" else window
            state0 = hotspot_state(p, 1.0, 3.0, weights, mode="thermal" if start == "thermal" else "diagonal")
        states = evolve(state0, mats, t_final=5.0, sample_stride=7).states
        assert len(states) > 3
        sigma = state0.sigma
        for prev, f in zip(states, states[1:]):
            p_h, q_h = dense_propagator(mats, f.time - prev.time)
            sigma = p_h @ sigma @ p_h.T + q_h
            assert np.max(np.abs(f.sigma - sigma)) <= 1e-14 * np.max(np.abs(sigma))

    @pytest.mark.parametrize("kind", ["uniform", "gibbs"])
    def test_empty_factor_start_runs(self, kind):
        p = params()
        mats = thermal_matrices(p)
        start = uniform_state(p, 3.0) if kind == "uniform" else gibbs_covariance(p, p.bath_temp)
        traj = evolve(start, mats, t_final=2.0, sample_stride=5)
        assert len(traj.states) > 2 and all(s.heating is None for s in traj.states)
        energies = evolve(start, mats, t_final=2.0, sample_stride=5,
                          observer=lambda s: total_energy(s, p)).observations
        assert energies == [total_energy(s, p) for s in traj.states]

    def test_evolve_holds_the_gram_and_no_factor(self):
        # the compare_n128 chain at N = 512, above the start (built before
        # tracing), with each of its 18 samples kept and its energy read:
        # 1.56 MB, 0.19 (2N)^2 float arrays, mostly `mode_propagator`'s levels
        # and one block of the band read (`FactoredState.bands`); every sample
        # shares the start's Gram, and holds O(N) of its own.  The per-sample
        # factor map that this replaces read 1.97 such arrays keeping no
        # sample, and a kept factor adds one array per sample
        n = 512
        p = ChainParams(n_sites=n, mass=1.0, omega0=0.05, xi=1.0, lattice_const=1.0,
                        lambda_fric=0.2, gamma_fric=0.0, bath_temp=200.0)
        mats = thermal_matrices(p)
        start = hotspot_state(p, 200.0, 280.0, gaussian_site_weights(n, n / 2.0, 20.0))
        tracemalloc.start()
        try:
            traj = evolve(start, mats, t_final=4.0, sample_stride=10, observer=lambda s: (total_energy(s, p), s))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.observations) == 18
        assert all(s.heating is start.heating for _, s in traj.observations)
        assert peak <= 0.5 * 8 * (2 * n) ** 2

    def test_psd_violation_aborts_with_diagnostic(self):
        p = params()
        mats = thermal_matrices(p)
        blocks = np.tile(np.eye(2), (p.n_sites, 1, 1))
        blocks[0, 0, 0] = -1.0
        with pytest.raises(PSDViolationError, match="t = "):
            evolve(FactoredState(blocks), mats, t_final=1.0)
        with pytest.raises(TypeError, match="FactoredState"):
            evolve(np.eye(2 * p.n_sites), mats, t_final=1.0)

    def test_argument_validation(self):
        p = params()
        mats = thermal_matrices(p)
        state = uniform_state(p, 2.0)
        with pytest.raises(ValueError, match="dt_max"):
            evolve(state, mats, 1.0, dt_max=0.0)
        with pytest.raises(ValueError, match="precedes"):
            evolve(FactoredState(state.background, time=2.0), mats, 1.0)
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
        background, factor = rng.normal(size=(n, 2, 2)), rng.normal(size=(2 * n, 2 * n))
        state = FactoredState(background, heating=FourierGram.of_factor(factor))
        sigma = state.sigma
        want, want_rate = site_observables(sigma, p), energy_balance_rhs(sigma, p, mats)

        def no_dense(self):
            raise AssertionError("FactoredState.sigma was formed")

        monkeypatch.setattr(FactoredState, "sigma", property(no_dense))
        reads = []
        bands = FactoredState.bands
        monkeypatch.setattr(FactoredState, "bands", lambda self, *wanted: reads.append(wanted) or bands(self, *wanted))
        got_rate = energy_balance_rhs(state, p, mats)
        assert len(reads) == 1  # the heating is read once for E_k, J_k and the rate's own bands
        got = site_observables(state, p)
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


class TestEnergyDecay:
    def test_recovers_the_rate_of_a_sampled_decay(self):
        p = params(n_sites=16)
        u_eq = p.n_sites * p.lattice_const * gibbs_energy_density(p, p.bath_temp)
        times = np.linspace(0.0, 5.0, 21)
        rate, fit_eq = energy_decay(p, times, u_eq + 3.0 * np.exp(-0.37 * times))
        assert fit_eq == u_eq
        assert rate == pytest.approx(0.37, rel=1e-12)

    def test_no_rate_from_fewer_than_two_samples_off_equilibrium(self):
        p = params()
        u_eq = energy_decay(p, np.zeros(0), np.zeros(0))[1]
        for totals in ([], [u_eq + 1.0], [u_eq, u_eq, u_eq], [u_eq, u_eq + 1.0, u_eq]):
            rate, _ = energy_decay(p, np.arange(len(totals), dtype=float), np.array(totals))
            assert np.isnan(rate)


class TestInitialStates:
    @pytest.mark.parametrize("mode", ["thermal", "diagonal"])
    @pytest.mark.parametrize("window", ["gaussian", 1, 4, "all"])
    @pytest.mark.parametrize("n", [7, 8, 15, 16])
    def test_hot_spot_is_cold_gibbs_plus_its_window(self, n, window, mode):
        # the heating of a thermal hot spot is S C_a S per part, C_a the
        # circulant of the variance differences d_a and S = diag(sqrt(w)); in
        # diagonal mode it is diag(w mean(d_a)); a Gaussian window and top
        # hats of 1, 4 and all N sites, the last the hot Gibbs state in
        # thermal mode; each state PSD
        p = params(n_sites=n)
        if window == "gaussian":
            w = gaussian_site_weights(n, n / 2.0, 1.5)
        else:
            count = n if window == "all" else window
            w = np.zeros(n)
            w[(n - count) // 2:(n - count) // 2 + count] = 1.0
        _, _, c_x, c_p = mode_thermal_variances(p, 1.0)
        _, _, h_x, h_p = mode_thermal_variances(p, 4.0)
        zero = np.zeros((n, n))
        cold = circulant_blocks([[c_x, np.zeros(n)], [np.zeros(n), c_p]])
        for state in (gibbs_covariance(p, 1.0), uniform_state(p, 1.0),
                      stationary_covariance(thermal_matrices(p))):
            assert isinstance(state, FactoredState) and state.heating is None
        assert np.max(np.abs(uniform_state(p, 1.0).sigma - cold)) <= 1e-14 * np.max(np.abs(cold))
        root = np.sqrt(w)
        if mode == "thermal":
            hx, hp = (root[:, None] * circulant(circulant_row_from_symbol(h - c)) * root
                      for h, c in ((h_x, c_x), (h_p, c_p)))
        else:
            hx, hp = (np.diag(w * np.mean(h - c)) for h, c in ((h_x, c_x), (h_p, c_p)))
        s = hotspot_state(p, 1.0, 4.0, w, mode=mode)
        heating = np.block([[hx, zero], [zero, hp]])
        assert np.max(np.abs(s.sigma - cold - heating)) <= 1e-14 * np.max(np.abs(cold))
        if window == "all" and mode == "thermal":
            hot = gibbs_covariance(p, 4.0).sigma
            assert np.max(np.abs(s.sigma - hot)) <= 1e-14 * np.max(np.abs(hot))
        eig = np.linalg.eigvalsh(s.sigma)
        assert eig.min() >= -1e-12 * eig.max()

    def test_factored_background_keeps_the_symmetric_even_part(self):
        rng = np.random.default_rng(2)
        blocks = rng.normal(size=(6, 2, 2))
        state = FactoredState(blocks)
        even = 0.5 * (blocks + blocks[[0, 5, 4, 3, 2, 1]])
        assert np.allclose(state.background, 0.5 * (even + even.swapaxes(1, 2)), rtol=0, atol=1e-15)
        again = FactoredState(state.background)
        assert np.array_equal(again.background, state.background)
        dense = circulant_blocks(np.moveaxis(blocks, 0, -1))
        assert np.allclose(state.sigma, symmetrize(dense), rtol=0, atol=1e-14)
        with pytest.raises(ValueError, match="shape"):
            FactoredState(blocks[:, :1])

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
