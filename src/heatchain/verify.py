"""Built-in oracle suite: the `verify` subcommand, acceptance criteria 1-9
and the on-site energy equation.

Each check recomputes its target through an independent route (literal
per-site transcription of the moment equations, the dense Van Loan
exponential, closed forms, the heat kernel, the free-streaming kinetic
prediction, the site energies of the moment equation's right-hand side) and
compares at a fixed tolerance.  The dense model they read (`dense_model`,
`moment_rhs`) lives here alone.  Criteria 1-5, 9 and the energy balance run
on the chain they are given; criteria 6-8 take none and run on fixed chains
derived from `DEFAULT_PARAMS`, so `verify --config` does not change them.
The acceptance suite runs every criterion check, giving `DEFAULT_PARAMS` to
those that take a chain; each `CheckResult.detail` is its ACCEPTANCE line's text.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .chain import ModelMatrices, circulant_blocks
from .continuum import (
    CompareScenario,
    ContinuumField,
    compare_discrete_continuum,
    diffusion_constant,
    kinetic_prediction,
    klemens_conductivity,
    solve_heat,
    transport_coefficients,
)
from .covariance import PSD_TOL, FactoredState, FourierGram, min_eig_ratio, symmetrize
from .diffusion import (
    DiffusionSet,
    gibbs_covariance,
    heat_capacity_density,
    high_temp_diffusion,
    mode_sum_diffusion,
    quad_diffusion,
    source_density,
    thermal_matrices,
)
from .dynamics import (
    energy_balance_rhs,
    energy_decay,
    evolve,
    gaussian_site_weights,
    hotspot_state,
    site_observables,
    stationary_covariance,
    step_bound,
    total_energy,
    uniform_state,
)
from .params import ChainParams

DEFAULT_PARAMS = ChainParams(
    n_sites=64,
    mass=1.0,
    omega0=1.0,
    xi=1.0,
    lattice_const=1.0,
    lambda_fric=0.1,
    gamma_fric=0.0,
    hbar=1.0,
    k_boltz=1.0,
    bath_temp=2.0,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""

    @classmethod
    def from_clauses(cls, name: str, clauses: "list[tuple[float, float]]",
                     detail: str) -> "CheckResult":
        """Pass iff every (value, tolerance) clause has value <= tolerance; report the first
        failing clause, else the one nearest its bound, so passed == (value <= tolerance)."""
        failing = [c for c in clauses if not c[0] <= c[1]]
        value, tol = failing[0] if failing else max(
            clauses, key=lambda c: c[0] / c[1] if c[1] > 0 else 0.0)
        return cls(name, not failing, value, tol, detail)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: value {self.value:.3e} vs tolerance {self.tolerance:.3e} -- {self.detail}"


def undamped_matrices(params: ChainParams) -> ModelMatrices:
    """Closed chain: lambda = gamma = 0 and no bath noise (D = 0)."""
    zero = np.zeros(params.n_sites)
    return replace(ModelMatrices.of_chain(params, zero, zero), friction=zero)


def dense_model(matrices: ModelMatrices):
    """Dense 2N x 2N drift A = [[-Lambda, I/m], [-K, -Lambda]] and diffusion
    D = [[D^xx, 0], [0, D^pp]] of `matrices`, in the coordinates (x_1..x_N, p_1..p_N).

    The circulant rows come from inverse FFTs of the symbols, so they are even
    only to rounding: D is symmetrized."""
    lam, zero = matrices.friction, np.zeros(matrices.n_sites)
    return (circulant_blocks([[-lam, np.full_like(lam, 1.0 / matrices.mass)], [-matrices.stiffness, -lam]]),
            symmetrize(circulant_blocks([[matrices.diffusion_xx, zero], [zero, matrices.diffusion_pp]])))


def moment_rhs(sigma, matrices: ModelMatrices):
    """Right-hand side A Sigma + Sigma A^T + 2 D of the moment equation for a dense `sigma`."""
    a, d = dense_model(matrices)
    if sigma.shape != a.shape:
        raise ValueError(f"state/matrix size mismatch: {sigma.shape} vs {a.shape}")
    return a @ sigma + sigma @ a.T + 2.0 * d


def thermal_units(params: ChainParams):
    """Units of the coordinates (x_1..x_N, p_1..p_N) for the dense oracles.

    x in sqrt(e / (m omega0^2)) and p in sqrt(m e), with e the larger of k_B T
    and the zero-point energy hbar omega0 / 2 (omega0 > 0).  In raw units a hot
    or soft chain's 2 D dwarfs A, and a dense solver loses digits to the
    norm.  The units are rounded to powers of two, so scaling by them and
    back is exact.
    """
    e = max(params.k_boltz * params.bath_temp, 0.5 * params.hbar * params.omega0)
    variances = [e / (params.mass * params.omega0**2), params.mass * e]
    return np.repeat(np.exp2(np.round(0.5 * np.log2(variances))), params.n_sites)


def van_loan_map(matrices: ModelMatrices, h: float, params: ChainParams):
    """Dense (P, Q) of Sigma(t + h) = P Sigma(t) P^T + Q from the Van Loan block.

    expm([[A, 2 D], [0, -A^T]] h) = [[F_11, F_12], [0, F_22]] gives P = F_11 and
    Q = F_12 F_11^T (C. Van Loan, IEEE TAC 23:395, 1978); one dense 4N x 4N
    exponential, independent of the per-mode closed forms of `mode_propagator`.
    The block is built in the `thermal_units` of `params`.
    """
    from scipy.linalg import expm  # the only scipy use: simulation paths run on numpy alone

    u = thermal_units(params)
    a, d = dense_model(matrices)
    a = a * u / u[:, None]
    f = expm(np.block([[a, 2.0 * d / np.outer(u, u)], [np.zeros_like(a), -a.T]]) * h)
    dim = len(a)
    p = f[:dim, :dim]
    return p * u[:, None] / u, f[:dim, dim:] @ p.T * np.outer(u, u)


def transcribed_moment_rhs(sigma, params: ChainParams, matrices: ModelMatrices):
    """Literal per-site transcription of the displayed moment equations.

    Returns (d<x_k^2>/dt, d<p_k^2>/dt, d<x_k x_{k+1}>/dt) as arrays over k.
    Written independently of the matrix algebra: each sum over neighbours
    is spelled out with the friction couplings lambda_kk = lambda and
    lambda_{k,k+-1} = gamma read from `params`; only the diffusion blocks
    come from `matrices`.
    """
    n = params.n_sites
    sxx, spp, sxp = sigma[:n, :n], sigma[n:, n:], sigma[:n, n:]
    d = dense_model(matrices)[1]
    dxx, dpp = d[:n, :n], d[n:, n:]
    lam, gam = params.lambda_fric, params.gamma_fric
    m, om0, xi = params.mass, params.omega0, params.xi

    dx2, dp2, dxnext = np.zeros(n), np.zeros(n), np.zeros(n)
    for k in range(n):
        kp, km = (k + 1) % n, (k - 1) % n
        dx2[k] = (-2 * lam * sxx[k, k] + 2 * sxp[k, k] / m
                  - 2 * gam * (sxx[k, kp] + sxx[k, km]) + 2 * dxx[k, k])
        dp2[k] = (-2 * lam * spp[k, k] - 2 * (m * om0**2 + 2 * xi) * sxp[k, k]
                  - 2 * gam * (spp[k, kp] + spp[k, km])
                  + 2 * xi * (sxp[km, k] + sxp[kp, k]) + 2 * dpp[k, k])
        dxnext[k] = (-2 * lam * sxx[k, kp] + (sxp[k, kp] + sxp[kp, k]) / m
                     - gam * (sxx[kp, kp] + sxx[kp, km])
                     - gam * (sxx[k, (k + 2) % n] + sxx[k, k]) + 2 * dxx[k, kp])
    return dx2, dp2, dxnext


def criterion_1_ring(params: ChainParams) -> "tuple[ChainParams, ModelMatrices]":
    """N = 4 ring of `params`, gamma = min(gamma or 0.02, lambda / 2), and its model."""
    gam = min(params.gamma_fric if params.gamma_fric > 0 else 0.02, 0.5 * params.lambda_fric)
    small = replace(params, n_sites=4, gamma_fric=gam)
    return small, thermal_matrices(small)


def check_moment_fidelity(params: ChainParams, seed: int = 1234, trials: int = 100) -> CheckResult:
    """Matrix RHS against the literal transcription, relative to max |rhs| so the
    bound holds at any scale, and one `evolve` interval against the dense Van
    Loan map, on random states (N = 4).  The step h = 1/max(omega(pi), lambda)
    keeps the oracle well conditioned; a stride past the last grid step
    samples only its two ends, so `evolve` maps each state once over h."""
    small, mats = criterion_1_ring(params)
    h = 1.0 / max(small.omega_max, small.lambda_fric)
    stride = int(np.ceil(h / step_bound(mats))) + 1
    p_vl, q_vl = van_loan_map(mats, h, small)
    rng = np.random.default_rng(seed)
    n = small.n_sites
    idx = np.arange(n)
    worst = step_err = 0.0
    for _ in range(trials):
        raw = rng.normal(size=(2 * n, 2 * n))
        sigma = symmetrize(raw @ raw.T) / (2 * n)
        rhs = moment_rhs(sigma, mats)
        dx2, dp2, dxnext = transcribed_moment_rhs(sigma, small, mats)
        delta = max(float(np.max(np.abs(np.diag(rhs[:n, :n]) - dx2))),
                    float(np.max(np.abs(np.diag(rhs[n:, n:]) - dp2))),
                    float(np.max(np.abs(rhs[idx, (idx + 1) % n] - dxnext))))
        worst = max(worst, delta / float(np.max(np.abs(rhs))))
        want = p_vl @ sigma @ p_vl.T + q_vl
        state = FactoredState(np.zeros((n, 2, 2)), heating=FourierGram.of_factor(raw.T / np.sqrt(2 * n)))
        got = evolve(state, mats, t_final=h, sample_stride=stride, observer=lambda s: s.sigma).observations[-1]
        step_err = max(step_err, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    return CheckResult.from_clauses("moment-equation-fidelity", [(worst, 1e-14), (step_err, 1e-13)],
                                    f"max |delta| / max |rhs| {worst:.2e} (tol 1e-14), exact step vs "
                                    f"Van Loan {step_err:.2e} (tol 1e-13)")


def exact_energy_rate(sigma, params: ChainParams, matrices: ModelMatrices):
    """dE_k/dt exactly for a dense `sigma`: E_k is linear in Sigma with no constant
    term, so its rate is E_k of the moment equation's right-hand side A Sigma + Sigma A^T + 2 D."""
    return site_observables(moment_rhs(sigma, matrices), params).energies


def injection_error(params: ChainParams, matrices: ModelMatrices, diff: DiffusionSet) -> float:
    """Bath injection of `energy_balance_rhs` (its value at Sigma = 0, a
    factored state of zero background and no heating) against s a of `diff`,
    relative to the sum of the magnitudes of the three terms of s a (they
    cancel on a soft, stiff chain), or absolute where `diff` is zero."""
    n = params.n_sites
    injection = energy_balance_rhs(FactoredState(np.zeros((n, 2, 2))), params, matrices)
    error = np.max(np.abs(injection - source_density(params, diff) * params.lattice_const))
    # s weighs D_pp, D_xx and -D_ex by nonnegative factors, so s of these is that sum
    magnitudes = replace(diff, d_xx=abs(diff.d_xx), d_pp=abs(diff.d_pp), d_ex=-abs(diff.d_ex))
    scale = source_density(params, magnitudes) * params.lattice_const
    return float(error / (scale if scale > 0 else 1.0))


def check_energy_balance(params: ChainParams, seed: int = 1234, trials: int = 100) -> CheckResult:
    """On criterion 1's ring: `energy_balance_rhs` against `exact_energy_rate`, relative
    to max |dE_k/dt|, on random Gram matrices G in `thermal_units`, dense and as the
    factored Gibbs background plus F^T F = G; and its bath injection against the
    mode-sum coefficients (`injection_error`)."""
    small, mats = criterion_1_ring(params)
    u = thermal_units(small)
    background = gibbs_covariance(small, small.bath_temp).background
    worst = 0.0
    for raw in np.random.default_rng(seed).normal(size=(trials, len(u), len(u))):
        dense = symmetrize(raw @ raw.T) / len(u) * np.outer(u, u)
        factored = FactoredState(background, heating=FourierGram.of_factor(raw.T * (u / np.sqrt(len(u)))))
        for state, sigma in ((dense, dense), (factored, factored.sigma)):
            want = exact_energy_rate(sigma, small, mats)
            got = energy_balance_rhs(state, small, mats)
            worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    src_err = injection_error(small, mats, mode_sum_diffusion(small, small.bath_temp))
    return CheckResult.from_clauses("energy-balance", [(worst, 1e-13), (src_err, 1e-14)],
                                    f"dE_k/dt vs E_k(moment rhs) {worst:.2e} (tol 1e-13), bath "
                                    f"injection vs s a {src_err:.2e} (tol 1e-14)")


def check_gibbs_stationarity(params: ChainParams) -> CheckResult:
    """Stationary covariance equals the Gibbs covariance (both damping kinds)."""
    worst = 0.0
    for n in (8, 64):
        for gam in (0.0, 0.02):
            for temp in (0.5, 2.0, 50.0):
                p = replace(params, n_sites=n, lambda_fric=0.1, gamma_fric=gam, bath_temp=temp)
                st = stationary_covariance(thermal_matrices(p))
                gb = gibbs_covariance(p, temp)
                rel = float(np.linalg.norm(st.sigma - gb.sigma) / np.linalg.norm(gb.sigma))
                worst = max(worst, rel)
    return CheckResult.from_clauses("gibbs-stationarity", [(worst, 1e-9)],
                                    f"max rel deviation {worst:.2e} (tol 1e-9)")


def _energy_and_ratio(params: ChainParams):
    """Observer of criteria 3 and 9: a sample's total energy and its `min_eig_ratio`,
    the dense `eigvalsh` check on `check_psd`'s block certificate."""
    return lambda s: (total_energy(s, params), min_eig_ratio(s.sigma))


def check_energy_decay(params: ChainParams) -> CheckResult:
    """gamma = 0 relaxation, fitted as relax fits it (`energy_decay`): rate 2 lambda
    (0.1%), U_eq against N a s / 2 lambda of the mode sums (1e-6), PSD states."""
    p = replace(params, gamma_fric=0.0)
    traj = evolve(uniform_state(p, 2.0 * p.bath_temp + 1.0), thermal_matrices(p),
                  t_final=2.0 / p.lambda_fric, sample_stride=5, observer=_energy_and_ratio(p))
    u, ratios = np.array(traj.observations).T
    rate, u_eq = energy_decay(p, traj.times, u)
    rate_err = abs(rate / (2 * p.lambda_fric) - 1.0)
    s_val = source_density(p, mode_sum_diffusion(p, p.bath_temp))
    ueq_err = abs(u_eq / (p.n_sites * p.lattice_const * s_val / (2 * p.lambda_fric)) - 1.0)
    min_eig = float(np.min(ratios))
    return CheckResult.from_clauses("energy-decay-rate", [(rate_err, 1e-3), (ueq_err, 1e-6), (-min_eig, PSD_TOL)],
                                    f"rate err {rate_err:.2e} (tol 1e-3), U_eq err {ueq_err:.2e} (tol 1e-6)")


def check_high_temp_forms(params: ChainParams) -> CheckResult:
    """Quadrature coefficients against closed forms at k_B T = 50 hbar omega(pi)."""
    worst = 0.0
    s_err = 0.0
    for gam in (0.0, 0.02):
        p = replace(params, lambda_fric=0.1, gamma_fric=gam)
        temp = 50.0 * p.hbar * p.omega_max / p.k_boltz
        closed = high_temp_diffusion(p, temp)
        quad_set = quad_diffusion(p, temp)
        for got, want in ((quad_set.d_xx, closed.d_xx), (quad_set.d_pp, closed.d_pp),
                          (quad_set.d_ex, closed.d_ex)):
            worst = max(worst, abs(got / want - 1.0))
        ratio = source_density(p, quad_set) * p.lattice_const / (
            2 * p.lambda_fric * p.k_boltz * temp)
        s_err = max(s_err, abs(ratio - 1.0))
    return CheckResult.from_clauses("high-temperature-forms", [(worst, 0.01), (s_err, 0.005)],
                                    f"coeff err {worst:.2e} (tol 1e-2), source err {s_err:.2e} (tol 5e-3)")


def check_heat_capacity(params: ChainParams) -> CheckResult:
    """C(T) a / k_B in [0.99, 1] on the classical plateau; C(0) = 0."""
    temps = np.array([50.0, 120.0, 500.0]) * params.hbar * params.omega_max / params.k_boltz
    ratios = heat_capacity_density(params, temps) * params.lattice_const / params.k_boltz
    czero = heat_capacity_density(params, 0.0)
    # the band [0.99, 1] is two clauses, 1 - r <= 0.01 and r - 1 <= 0
    clauses = [(1.0 - min(ratios), 0.01), (max(ratios) - 1.0, 0.0), (abs(czero), 0.0)]
    return CheckResult.from_clauses("heat-capacity-limits", clauses,
                                    f"plateau ratios {[f'{r:.5f}' for r in ratios]}, C(0) = {czero}")


def check_conductivity_consistency() -> CheckResult:
    """Mode-sum conductivity meets diff_const * C(T) at high temperature, on an
    N = 1024 acoustic (omega0 = 0) ring of `DEFAULT_PARAMS`.

    With the sound velocity the mode sum is diff_const * C(T) term by term.
    The independent clause uses the exact acoustic slope v_q = v_s cos(q/2):
    on the classical plateau every mode carries k_B, so the ratio to the
    continuum kappa tends to <cos^2(q/2)> = 1/2.
    """
    p = replace(DEFAULT_PARAMS, n_sites=1024, omega0=0.0)
    temp = 50.0 * p.hbar * p.omega_max / p.k_boltz
    kappa_sum = klemens_conductivity(p, temp, velocity="sound")
    kappa_disp = klemens_conductivity(p, temp, velocity="dispersion")
    kappa_cont = transport_coefficients(p, temp).kappa
    rel = abs(kappa_sum / kappa_cont - 1.0)
    rel_disp = abs(2.0 * kappa_disp / kappa_cont - 1.0)
    return CheckResult.from_clauses("conductivity-consistency", [(rel, 2e-2), (rel_disp, 2e-2)],
                                    f"klemens/continuum - 1 = {rel:.2e} (tol 2e-2), "
                                    f"2 dispersion/continuum - 1 = {rel_disp:.2e} (tol 2e-2)")


def check_pde_correctness() -> CheckResult:
    """Explicit solver against the closed-form heat-kernel solution, 512 cells
    on `DEFAULT_PARAMS`; its step dt = 0.004 is inside that chain's CFL bound."""
    p = DEFAULT_PARAMS
    m_cells, length = 512, 256.0
    dx = length / m_cells
    x = dx * np.arange(m_cells)
    u_eq, amp, width = 1.0, 0.5, 8.0
    u0 = u_eq + amp * np.exp(-0.5 * ((x - length / 2) / width) ** 2)
    s = 2 * p.lambda_fric * u_eq
    t_end = 1.0 / p.lambda_fric
    fields = solve_heat(ContinuumField(u0, dx), p, s, [0.0, t_end], dt=0.004)
    diff = diffusion_constant(p)
    k = 2 * np.pi * np.fft.fftfreq(m_cells, d=dx)
    w_hat = np.fft.fft(u0 - u_eq)
    exact = u_eq + np.real(np.fft.ifft(w_hat * np.exp(-(diff * k**2 + 2 * p.lambda_fric) * t_end)))
    rel = float(np.linalg.norm(fields[-1].values - exact) / np.linalg.norm(exact))
    return CheckResult.from_clauses("pde-correctness", [(rel, 1e-4)], f"L2 rel {rel:.2e} (tol 1e-4)")


def check_emergence() -> CheckResult:
    """Central experiment: an N = 256 chain of `DEFAULT_PARAMS` (gamma = 0,
    omega0 = 0.05) against the continuum heat equation.

    Field deviation from the heat equation <= 5% inside t in [0.5, 5]/lambda.
    The pooled current-gradient regression slope is held within 10% of the
    slope the same regression gives on the free-streaming kinetic prediction
    (`kinetic_prediction`), not of diff_const = v_s^2 / (2 lambda).  That
    constant assumes every mode moves at v_s and the current has relaxed.
    Here every mode is populated classically, so over the hot region's excess
    mode energy <v_q^2> = 0.476 v_s^2; and with on-site damping alone the
    current relaxes at 2 lambda, the rate at which the whole transient
    decays, so J / (-du/dx) never settles and grows as <v_q^2> t.  The
    printed slope/diff_const keeps the departure from the long-wavelength
    Fourier law visible; the chain must also follow the kinetic density to
    1e-2 of the transient.
    """
    p = replace(DEFAULT_PARAMS, n_sites=256, omega0=0.05, lambda_fric=0.125, bath_temp=300.0)
    b = transport_coefficients(p, p.bath_temp).range_b
    width = 10.0 * b  # >= 8 b
    sc = CompareScenario(t_hot=400.0, t_cold=300.0, width_sites=width,
                         t_final=5.0 / p.lambda_fric)
    rep = compare_discrete_continuum(p, sc)
    kin = kinetic_prediction(p, sc, rep.times)
    window = (rep.times >= 0.5 / p.lambda_fric) & (rep.times <= 5.0 / p.lambda_fric)
    dev = float(np.max(rep.dev_field[window]))
    dev_tr = float(np.max(rep.dev_transient[window]))
    dev_kin = float(np.max(
        np.linalg.norm(rep.u_disc - kin.u, axis=1)[window]
        / np.linalg.norm(kin.u - kin.u_eq, axis=1)[window]
    ))
    slope_err = abs(rep.fit_slope / kin.fit_slope - 1.0)
    return CheckResult.from_clauses(
        "discrete-continuum-emergence", [(dev, 5e-2), (slope_err, 0.10), (dev_kin, 1e-2)],
        f"L2 dev {dev:.2e} (tol 5e-2; transient-normalized {dev_tr:.2e}), "
        f"slope/diff_const = {rep.fit_slope / rep.diff_const:.3f}, "
        f"kinetic slope/diff_const = {kin.fit_slope / rep.diff_const:.3f} "
        f"(slope tol within 10% of kinetic), "
        f"chain-vs-kinetic transient dev {dev_kin:.2e} (tol 1e-2)")


def check_conservation(params: ChainParams) -> CheckResult:
    """Undamped, noiseless chain conserves energy; states stay PSD."""
    n = params.n_sites
    traj = evolve(hotspot_state(params, params.bath_temp, 2.0 * params.bath_temp + 1.0,
                                gaussian_site_weights(n, n / 2, 4.0)),
                  undamped_matrices(params), t_final=100.0 / params.omega_max,
                  dt_max=0.02 / params.omega_max, sample_stride=100, observer=_energy_and_ratio(params))
    u, ratios = np.array(traj.observations).T
    drift = float(np.max(np.abs(u - u[0])) / abs(u[0]))
    min_eig = float(np.min(ratios))
    return CheckResult.from_clauses("energy-conservation", [(drift, 1e-9), (-min_eig, PSD_TOL)],
                                    f"energy drift {drift:.2e} (tol 1e-9), min eig ratio {min_eig:.2e}")


def run_verify(params: ChainParams | None = None, seed: int = 1234) -> "list[CheckResult]":
    p = params if params is not None else DEFAULT_PARAMS
    return [
        check_moment_fidelity(p, seed=seed),
        check_gibbs_stationarity(p),
        check_energy_decay(p),
        check_high_temp_forms(p),
        check_heat_capacity(p),
        check_conductivity_consistency(),
        check_pde_correctness(),
        check_emergence(),
        check_conservation(p),
        check_energy_balance(p, seed=seed),
    ]
