"""Property tests of the circulant model and the bath coefficients over
admissible chains.

Hypothesis draws rings with N from 3 to 24, varied mass and coupling,
omega0 > 0, 0 <= gamma <= 0.45 lambda and bath temperatures T >= 0 with
T = 0 included; the coefficient test draws wider scales (see `bath`).  The
examples are derandomized and bounded, so every run checks the same chains.
"""

import functools
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heatchain import (
    ChainParams,
    DiffusionSet,
    FactoredState,
    FourierGram,
    build_matrices,
    dispersion,
    energy_balance_rhs,
    evolve,
    gaussian_site_weights,
    gibbs_covariance,
    hotspot_state,
    mode_grid,
    min_eig_ratio,
    mode_sum_diffusion,
    quad_diffusion,
    site_observables,
    stationary_covariance,
    step_bound,
    thermal_matrices,
)
from heatchain.chain import circulant_blocks
from heatchain.config import load_config
from heatchain.covariance import PSD_TOL
from heatchain.dynamics import _bands
from heatchain.verify import exact_energy_rate, injection_error, undamped_matrices, van_loan_map
from test_chain import stiffness_row
from test_diffusion import assert_matches_oracle, quad_oracle
from test_dynamics import dense_propagator, lyapunov_oracle, thermal_unit_states

SETTINGS = settings(derandomize=True, database=None, max_examples=60, deadline=None)
# exact step vs Van Loan: measured 1.4e-13 here and 1.0e-12 on other draws; a
# 40-digit per-mode evaluation puts that disagreement on the dense expm side
STEP_RTOL = 1e-11


@st.composite
def chains(draw) -> ChainParams:
    lam = draw(st.floats(0.02, 2.0))
    return ChainParams(
        n_sites=draw(st.integers(3, 24)),
        mass=draw(st.floats(0.25, 4.0)),
        omega0=draw(st.floats(0.05, 3.0)),
        xi=draw(st.floats(0.0, 4.0)),
        lattice_const=1.0,
        lambda_fric=lam,
        gamma_fric=draw(st.floats(0.0, 0.45)) * lam,
        bath_temp=draw(st.one_of(st.just(0.0), st.floats(0.0, 100.0))),
    )


@SETTINGS
@given(chains())
def test_fourier_stationary_solve_matches_dense_and_gibbs(p):
    # same tolerances as TestStationary in test_dynamics
    mats = thermal_matrices(p)
    sf = stationary_covariance(mats).sigma
    sd = lyapunov_oracle(mats, p)
    assert np.max(np.abs(sf - sd)) <= 1e-12 * max(1.0, np.max(np.abs(sd)))
    gb = gibbs_covariance(p, p.bath_temp).sigma
    assert np.linalg.norm(sf - gb) / np.linalg.norm(gb) <= 1e-9


@SETTINGS
@given(chains())
def test_stiffness_symbol_is_squared_dispersion(p):
    # rtol as in test_chain; atol covers the cancellation of the 2 xi terms
    # at q = 0, relative to the spectral scale omega_max^2
    sym = np.fft.fft(stiffness_row(p)).real / p.mass
    w2 = dispersion(p, mode_grid(p)) ** 2
    assert np.allclose(sym, w2, rtol=1e-12, atol=1e-14 * p.omega_max**2)
    # the model's own symbol has no cancellation: rtol alone
    sym = thermal_matrices(p).stiffness / p.mass
    assert np.allclose(sym, w2, rtol=1e-12, atol=0.0)


@SETTINGS
@given(chains())
def test_config_chain_section_round_trips(p):
    # every field written as repr, under the config's key names
    keys = {"lambda_fric": "lambda", "gamma_fric": "gamma"}
    body = "[chain]\n" + "".join(f"{keys.get(f.name, f.name)} = {getattr(p, f.name)!r}\n"
                                 for f in fields(p))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.ini"
        path.write_text(body)
        assert load_config(path).chain == p


def _models(p: ChainParams):
    """The damped thermal model, the closed chain (D = 0) and an undamped
    zone-edge mode (2 gamma = lambda) driven by truncated mode-sum noise."""
    edge = replace(p, gamma_fric=0.5 * p.lambda_fric)
    return [thermal_matrices(p), undamped_matrices(p),
            build_matrices(edge, mode_sum_diffusion(edge, edge.bath_temp))]


@SETTINGS
@given(chains(), st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
def test_exact_step_matches_van_loan(p, tau, seed):
    # h = tau / lambda keeps the Van Loan oracle conditioned: its -A^T block
    # grows as e^{(lambda + 2 gamma) h}, and its rounding error with it
    h = tau / p.lambda_fric
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(2 * p.n_sites, 2 * p.n_sites))
    sigma = raw @ raw.T / (2 * p.n_sites)
    for mats in _models(p):
        p_exact, q_exact = dense_propagator(mats, h)
        p_vl, q_vl = van_loan_map(mats, h, p)
        got = p_exact @ sigma @ p_exact.T + q_exact
        want = p_vl @ sigma @ p_vl.T + q_vl
        assert np.max(np.abs(got - want)) <= STEP_RTOL * np.max(np.abs(want))


@SETTINGS
@given(chains(), st.integers(0, 2**32 - 1))
def test_energy_balance_is_the_exact_rate(p, seed):
    # on a random state in thermal units, the on-site energy equation equals
    # E_k of the moment rhs, and its bath injection the source density of the
    # model's own coefficients (none for the closed chain); both read the
    # friction from the model, so `p` serves all three.  The rate error is
    # relative to max |dE_k/dt| or, where that is larger, omega_max max |E_k|:
    # as xi -> 0 the closed chain's sites become free oscillators whose
    # dE_k/dt -> 0, while the rounding stays that of the on-site terms (at
    # xi = 1e-12 it read up to 1.2e-3 of max |dE_k/dt|, 8e-17 of omega_max max |E_k|)
    state = next(thermal_unit_states(p, seed, count=1))
    energies = site_observables(state, p).energies
    diffs = (mode_sum_diffusion(p, p.bath_temp), DiffusionSet(0.0, 0.0, 0.0, p.bath_temp),
             mode_sum_diffusion(replace(p, gamma_fric=0.5 * p.lambda_fric), p.bath_temp))
    for mats, diff in zip(_models(p), diffs):
        want = exact_energy_rate(state, p, mats)
        got = energy_balance_rhs(state, p, mats)
        scale = max(np.max(np.abs(want)), mats.omega_max * np.max(np.abs(energies)))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        assert injection_error(p, mats, diff) <= 1e-14


@SETTINGS
@given(chains())
def test_evolution_stays_psd(p):
    # a hotspot relaxing for 1/lambda, sampled about 20 times, under each of
    # `_models`; the zone-edge model only where its truncated diffusion
    # symbol is nonnegative.  The zero covariance sits on the PSD boundary
    # and evolves into Q alone, so it also tests that every noise block Q_q
    # is PSD
    n = p.n_sites
    t_final = 1.0 / p.lambda_fric
    states = (hotspot_state(p, p.bath_temp, 2.0 * p.bath_temp + 1.0,
                            gaussian_site_weights(n, n / 2, n / 6)),
              FactoredState(np.zeros((n, 2, 2))))

    def assert_psd_along(mats):
        stride = max(1, int(t_final / step_bound(mats, t_final)) // 20)
        for state0 in states:
            traj = evolve(state0, mats, t_final=t_final, dt_max=t_final, sample_stride=stride)
            assert min(min_eig_ratio(s.sigma) for s in traj.states) >= -PSD_TOL

    thermal, closed, edge = _models(p)
    assert_psd_along(thermal)
    assert_psd_along(closed)
    assume(min(np.min(edge.diffusion_xx), np.min(edge.diffusion_pp)) >= 0.0)
    assert_psd_along(edge)


@SETTINGS
@given(chains())
def test_factored_evolution_matches_dense(p):
    # both hotspot modes relaxing for 1/lambda under each of `_models` (the
    # zone-edge model only where its truncated diffusion symbol is
    # nonnegative): the factored run against the dense map
    # Sigma <- P Sigma P^T + Q of `dense_propagator` over each interval between
    # its sample times, from the same matrix.  Site observables and the
    # on-site energy balance read from the factored bands must match those
    # read from the dense matrix, the balance at the scale of
    # `test_energy_balance_is_the_exact_rate`
    n = p.n_sites
    t_final = 1.0 / p.lambda_fric
    weights = gaussian_site_weights(n, n / 2, n / 6)
    thermal, closed, edge = _models(p)
    models = [thermal, closed]
    if min(np.min(edge.diffusion_xx), np.min(edge.diffusion_pp)) >= 0.0:
        models.append(edge)
    for mats in models:
        stride = max(1, int(t_final / step_bound(mats, t_final)) // 20)
        maps = functools.cache(lambda h: dense_propagator(mats, h))
        for mode in ("thermal", "diagonal"):
            state0 = hotspot_state(p, p.bath_temp, 2.0 * p.bath_temp + 1.0, weights, mode=mode)
            states = evolve(state0, mats, t_final=t_final, dt_max=t_final, sample_stride=stride).states
            sigma = state0.sigma
            for prev, f in zip(states, states[1:]):
                p_h, q_h = maps(f.time - prev.time)
                sigma = p_h @ sigma @ p_h.T + q_h
                assert isinstance(f, FactoredState)
                got, want = site_observables(f, p), site_observables(sigma, p)
                scale = np.max(np.abs(want.energies))
                assert np.max(np.abs(got.energies - want.energies)) <= 1e-12 * scale
                assert np.max(np.abs(got.currents - want.currents)) <= 1e-12 * scale
                rate = energy_balance_rhs(sigma, p, mats)
                rate_scale = max(np.max(np.abs(rate)), mats.omega_max * scale)
                assert np.max(np.abs(energy_balance_rhs(f, p, mats) - rate)) <= 1e-12 * rate_scale
                assert np.max(np.abs(f.sigma - sigma)) <= 1e-12 * np.max(np.abs(sigma))


@SETTINGS
@given(chains(), st.sampled_from([(0,), (1,), (0, 1)]), st.integers(1, 6), st.floats(0.01, 2.0),
       st.integers(0, 2**32 - 1))
def test_gram_bands_match_dense_bands(p, parts, rank, tau, seed):
    # a Gibbs background and a random factor of `rank` rows that hold the x
    # part, the p part or both, held as its Fourier Gram (N odd and even):
    # every band (i, j, d), d over the whole ring 0..N - 1, so that every
    # phase e^{-2 pi i v d / N} is read, of the start and of its map over
    # tau / lambda, and `sigma`, against the dense B + F^T F mapped by
    # `dense_propagator`, at 1e-13 of max |Sigma|
    n = p.n_sites
    mats = thermal_matrices(p)
    factor = np.zeros((rank, 2, n))
    factor[:, parts] = np.random.default_rng(seed).normal(size=(rank, len(parts), n))
    factor = factor.reshape(rank, 2 * n)
    start = FactoredState(gibbs_covariance(p, p.bath_temp).background, heating=FourierGram.of_factor(factor))
    states = evolve(start, mats, t_final=tau / p.lambda_fric, sample_stride=2**30).states
    assert len(states) == 2
    p_h, q_h = dense_propagator(mats, states[1].time)
    sigma = circulant_blocks(np.moveaxis(start.background, 0, -1)) + factor.T @ factor
    wanted = [(i, j, d) for i in (0, 1) for j in (0, 1) for d in range(n)]
    for state, dense in zip(states, (sigma, p_h @ sigma @ p_h.T + q_h)):
        scale = np.max(np.abs(dense))
        for got, want in zip(_bands(state, *wanted), _bands(dense, *wanted)):
            assert np.max(np.abs(got - want)) <= 1e-13 * scale
        assert np.max(np.abs(state.sigma - dense)) <= 1e-13 * scale


@st.composite
def bath(draw) -> "tuple[ChainParams, float]":
    """Chains over four decades of mass and omega0 (log-uniform), xi up to
    100, and T in {0} and [1e-3, 1e4] (log-uniform)."""
    lam = draw(st.floats(0.02, 2.0))
    p = ChainParams(
        n_sites=3,
        mass=10 ** draw(st.floats(-2.0, 1.0)),
        omega0=10 ** draw(st.floats(-3.0, 1.0)),
        xi=draw(st.floats(0.0, 100.0)),
        lambda_fric=lam,
        gamma_fric=draw(st.floats(0.0, 0.5)) * lam,
    )
    return p, draw(st.one_of(st.just(0.0), st.floats(-3.0, 4.0).map(lambda e: 10**e)))


@SETTINGS
@given(bath())
def test_quadrature_matches_scipy_quad(case):
    p, temp = case
    assert_matches_oracle(quad_diffusion(p, temp), quad_oracle(p, temp), rel=1e-9)
