"""Built-in oracle suite: fast self-checks behind the `verify` subcommand.

Each check recomputes its target through an independent route (literal
per-site transcription of the moment equations, closed forms, finite
differences) and compares at a fixed tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import stiffness_matrix
from .covariance import CovarianceState, symmetrize
from .diffusion import (
    DiffusionSet,
    gibbs_covariance,
    gibbs_energy_density,
    heat_capacity_density,
    high_temp_diffusion,
    mode_sum_diffusion,
    quad_diffusion,
    source_density,
    thermal_matrices,
)
from .dynamics import evolve, hotspot_state, moment_rhs, stationary_covariance, total_energy
from .chain import ModelMatrices
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

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: value {self.value:.3e} vs tolerance {self.tolerance:.3e} {self.detail}"


def transcribed_moment_rhs(sigma, params: ChainParams, matrices) -> dict:
    """Literal per-site transcription of the displayed moment equations.

    Returns the three displayed families: d<x_k^2>/dt, d<p_k^2>/dt and
    d<x_k x_{k+1}>/dt, written as explicit sums over sites with the general
    friction couplings lambda_kj (diagonal lambda, nearest-neighbour gamma).
    """
    n = params.n_sites
    sxx = sigma[:n, :n]
    spp = sigma[n:, n:]
    sxp = sigma[:n, n:]
    dxx = matrices.diffusion[:n, :n]
    dpp = matrices.diffusion[n:, n:]
    m, om0, xi = params.mass, params.omega0, params.xi
    lam_kj = matrices.friction

    dx2 = np.zeros(n)
    dp2 = np.zeros(n)
    dxup = np.zeros(n)
    for k in range(n):
        kp = (k + 1) % n
        acc = -2.0 * lam_kj[k, k] * sxx[k, k] + 2.0 * sxp[k, k] / m + 2.0 * dxx[k, k]
        for j in range(n):
            if j != k:
                acc -= 2.0 * lam_kj[k, j] * sxx[k, j]
        dx2[k] = acc

        acc = -2.0 * lam_kj[k, k] * spp[k, k] - 2.0 * (m * om0**2 + 2.0 * xi) * sxp[k, k] \
            + 2.0 * dpp[k, k]
        for j in range(n):
            if j != k:
                acc -= 2.0 * lam_kj[k, j] * spp[k, j]
                delta = 1.0 if (j == (k - 1) % n or j == (k + 1) % n) else 0.0
                acc += 2.0 * xi * delta * sxp[j, k]  # <p_k x_j> = sxp[j, k]
        dp2[k] = acc

        acc = -(lam_kj[k, k] + lam_kj[kp, kp]) * sxx[k, kp] \
            + (sxp[k, kp] + sxp[kp, k]) / m + 2.0 * dxx[k, kp]
        for j in range(n):
            if j != k:
                acc -= lam_kj[k, j] * sxx[kp, j]
            if j != kp:
                acc -= lam_kj[kp, j] * sxx[k, j]
        dxup[k] = acc
    return {"dx2": dx2, "dp2": dp2, "dx_up": dxup}


def check_moment_fidelity(params: ChainParams, seed: int = 1234, trials: int = 100) -> CheckResult:
    """Matrix RHS against the literal transcription on random states (N = 4)."""
    small = ChainParams(
        n_sites=4,
        mass=params.mass,
        omega0=params.omega0,
        xi=params.xi,
        lattice_const=params.lattice_const,
        lambda_fric=params.lambda_fric,
        gamma_fric=min(params.gamma_fric if params.gamma_fric > 0 else 0.02,
                       0.5 * params.lambda_fric),
        hbar=params.hbar,
        k_boltz=params.k_boltz,
        bath_temp=params.bath_temp,
    )
    mats = thermal_matrices(small, small.bath_temp)
    rng = np.random.default_rng(seed)
    n = small.n_sites
    idx = np.arange(n)
    worst = 0.0
    for _ in range(trials):
        raw = rng.normal(size=(2 * n, 2 * n))
        sigma = symmetrize(raw @ raw.T) / (2.0 * n)
        rhs = moment_rhs(CovarianceState(sigma), mats)
        lit = transcribed_moment_rhs(sigma, small, mats)
        worst = max(worst, float(np.max(np.abs(np.diag(rhs[:n, :n]) - lit["dx2"]))))
        worst = max(worst, float(np.max(np.abs(np.diag(rhs[n:, n:]) - lit["dp2"]))))
        worst = max(worst, float(np.max(np.abs(rhs[idx, (idx + 1) % n] - lit["dx_up"]))))
    return CheckResult("moment-equation-fidelity", worst <= 1e-13, worst, 1e-13,
                       detail=f"({trials} random states, N = 4)")


def check_gibbs_stationarity(params: ChainParams) -> CheckResult:
    """Stationary covariance equals the Gibbs covariance (both damping kinds)."""
    worst = 0.0
    for n in (8, 64):
        for gam in (0.0, 0.02):
            for temp in (0.5, 2.0, 50.0):
                p = ChainParams(
                    n_sites=n, mass=params.mass, omega0=params.omega0, xi=params.xi,
                    lattice_const=params.lattice_const, lambda_fric=0.1, gamma_fric=gam,
                    hbar=params.hbar, k_boltz=params.k_boltz, bath_temp=temp,
                )
                mats = thermal_matrices(p)
                st = stationary_covariance(mats, "fourier")
                gb = gibbs_covariance(p, temp)
                rel = float(np.linalg.norm(st.sigma - gb.sigma) / np.linalg.norm(gb.sigma))
                worst = max(worst, rel)
    return CheckResult("gibbs-stationarity", worst <= 1e-9, worst, 1e-9,
                       detail="(N in {8,64}, gamma in {0,0.02}, T in {0.5,2,50})")


def check_energy_decay(params: ChainParams) -> CheckResult:
    """Total-energy relaxation at rate 2 lambda and the U_eq identity."""
    p = params if params.gamma_fric == 0.0 else ChainParams(
        n_sites=params.n_sites, mass=params.mass, omega0=params.omega0, xi=params.xi,
        lattice_const=params.lattice_const, lambda_fric=params.lambda_fric, gamma_fric=0.0,
        hbar=params.hbar, k_boltz=params.k_boltz, bath_temp=params.bath_temp,
    )
    temp_hot = 2.0 * p.bath_temp + 1.0
    mats = thermal_matrices(p)
    state0 = gibbs_covariance(p, temp_hot)
    traj = evolve(state0, mats, t_final=2.0 / p.lambda_fric, sample_stride=5)
    u = np.array([total_energy(s, p) for s in traj.states])
    u_eq = p.n_sites * p.lattice_const * gibbs_energy_density(p, p.bath_temp)
    y = np.log(np.abs(u - u_eq))
    a = np.vstack([traj.times, np.ones_like(traj.times)]).T
    slope = float(np.linalg.lstsq(a, y, rcond=None)[0][0])
    rate_err = abs(slope / (-2.0 * p.lambda_fric) - 1.0)
    s_val = source_density(p, mode_sum_diffusion(p, p.bath_temp))
    ueq_err = abs(u_eq / (p.n_sites * p.lattice_const * s_val / (2.0 * p.lambda_fric)) - 1.0)
    value = max(rate_err, ueq_err)
    return CheckResult("energy-decay-rate", rate_err <= 1e-3 and ueq_err <= 1e-6, value, 1e-3,
                       detail=f"(rate err {rate_err:.2e}, U_eq err {ueq_err:.2e})")


def check_high_temp_forms(params: ChainParams) -> CheckResult:
    """Quadrature coefficients against closed forms at k_B T = 50 hbar omega(pi)."""
    worst = 0.0
    s_err = 0.0
    for gam in (0.0, 0.02):
        p = ChainParams(
            n_sites=params.n_sites, mass=params.mass, omega0=params.omega0, xi=params.xi,
            lattice_const=params.lattice_const, lambda_fric=0.1, gamma_fric=gam,
            hbar=params.hbar, k_boltz=params.k_boltz, bath_temp=params.bath_temp,
        )
        temp = 50.0 * p.hbar * p.omega_max / p.k_boltz
        closed = high_temp_diffusion(p, temp)
        quad_set = DiffusionSet(
            d_xx=quad_diffusion(p, temp, 0, "position"),
            d_pp=quad_diffusion(p, temp, 0, "momentum"),
            d_ex=quad_diffusion(p, temp, 1, "position"),
            temp=temp,
        )
        for got, want in ((quad_set.d_xx, closed.d_xx), (quad_set.d_pp, closed.d_pp),
                          (quad_set.d_ex, closed.d_ex)):
            worst = max(worst, abs(got / want - 1.0))
        ratio = source_density(p, quad_set) * p.lattice_const / (
            2.0 * p.lambda_fric * p.k_boltz * temp
        )
        s_err = max(s_err, abs(ratio - 1.0))
    passed = worst <= 0.01 and s_err <= 0.005
    return CheckResult("high-temperature-forms", passed, max(worst, s_err), 0.01,
                       detail=f"(coefficient err {worst:.2e}, source err {s_err:.2e})")


def check_heat_capacity(params: ChainParams) -> CheckResult:
    """Classical plateau of C(T) and the frozen T = 0 limit."""
    temp = 50.0 * params.hbar * params.omega_max / params.k_boltz
    ratio = heat_capacity_density(params, temp) * params.lattice_const / params.k_boltz
    czero = heat_capacity_density(params, 0.0)
    passed = 0.99 <= ratio <= 1.0 and czero == 0.0
    return CheckResult("heat-capacity-limits", passed, ratio, 0.01,
                       detail=f"(C(0) = {czero})")


def check_conservation(params: ChainParams) -> CheckResult:
    """Undamped, noiseless evolution conserves the total energy."""
    n = params.n_sites
    z = np.zeros((n, n))
    mats = ModelMatrices(
        drift=np.block([[z, np.eye(n) / params.mass], [-stiffness_matrix(params), z]]),
        diffusion=np.zeros((2 * n, 2 * n)),
        stiffness=stiffness_matrix(params),
        friction=z,
    )
    state0 = hotspot_state(params, params.bath_temp, 2.0 * params.bath_temp + 1.0,
                           np.clip(np.exp(-0.5 * ((np.arange(n) - n / 2) / 4.0) ** 2), 0, 1))
    t_final = 100.0 / params.omega_max
    traj = evolve(state0, mats, t_final, dt_max=0.02 / params.omega_max, sample_stride=100)
    u = np.array([total_energy(s, params) for s in traj.states])
    drift = float(np.max(np.abs(u - u[0])) / abs(u[0]))
    psd_ok = bool(np.min(traj.min_eig_ratios) >= -1e-10)
    return CheckResult("energy-conservation", drift <= 1e-9 and psd_ok, drift, 1e-9,
                       detail="(lambda = gamma = 0, D = 0)")


ALL_CHECKS = (
    check_moment_fidelity,
    check_gibbs_stationarity,
    check_energy_decay,
    check_high_temp_forms,
    check_heat_capacity,
    check_conservation,
)


def run_verify(params: ChainParams | None = None, seed: int = 1234) -> "list[CheckResult]":
    p = params if params is not None else DEFAULT_PARAMS
    results = []
    for chk in ALL_CHECKS:
        if chk is check_moment_fidelity:
            results.append(chk(p, seed=seed))
        else:
            results.append(chk(p))
    return results
