"""Time evolution of the covariance state and per-site energy diagnostics.

The second moments obey the closed linear equation

    d(Sigma)/dt = A Sigma + Sigma A^T + 2 D,

integrated with a fixed-step classical 4th-order scheme on the dense views
A and D of `ModelMatrices`.  The stationary state solves the continuous
Lyapunov equation, either mode-by-mode from the Fourier symbols of the
model's circulant rows or densely for validation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from .chain import ModelMatrices, block_circulant, circulant_row_from_symbol, circulant_symbol
from .covariance import (
    Array,
    CovarianceState,
    check_psd,
    symmetrize,
    uncertainty_defect,
)
from .diffusion import gibbs_covariance
from .params import ChainParams

logger = logging.getLogger("heatchain")

STEP_SAFETY = 0.05  # dt <= 0.05 / (fastest rate)


@dataclass(frozen=True)
class SiteObservables:
    """Per-site energies E_k, currents J_k and energy densities u_k = E_k/a."""

    energies: Array
    currents: Array
    densities: Array
    total_energy: float


@dataclass
class Trajectory:
    """Sampled evolution: either retained covariance states or observer outputs."""

    times: Array
    states: "list[CovarianceState] | None" = None
    observations: "list | None" = None
    min_eig_ratios: Array = field(default_factory=lambda: np.array([]))


def _sigma_of(state) -> Array:
    return state.sigma if isinstance(state, CovarianceState) else np.asarray(state, dtype=float)


def moment_rhs(state, matrices: ModelMatrices) -> Array:
    """Right-hand side A Sigma + Sigma A^T + 2 D of the moment equation."""
    sigma = _sigma_of(state)
    a = matrices.drift
    if sigma.shape != a.shape:
        raise ValueError(f"state/matrix size mismatch: {sigma.shape} vs {a.shape}")
    return a @ sigma + sigma @ a.T + 2.0 * matrices.diffusion


def step_bound(matrices: ModelMatrices, dt_max: float | None = None) -> float:
    """RK4 step min(dt_max, 0.05/omega_max, 0.05/lambda); ValueError if none is finite."""
    bound = np.inf
    if matrices.omega_max > 0.0:
        bound = min(bound, STEP_SAFETY / matrices.omega_max)
    lam = float(matrices.friction[0])
    if lam > 0.0:
        bound = min(bound, STEP_SAFETY / lam)
    if dt_max is not None:
        bound = min(bound, dt_max)
    if not np.isfinite(bound):
        raise ValueError("no finite step bound: supply dt_max for an undamped static chain")
    return bound


def evolve(
    state: CovarianceState,
    matrices: ModelMatrices,
    t_final: float,
    dt_max: float | None = None,
    sample_stride: int = 10,
    observer: "Callable[[CovarianceState], object] | None" = None,
    uncertainty_hbar: float | None = None,
) -> Trajectory:
    """Integrate the moment equation from `state.time` to `t_final`.

    Fixed-step RK4 with dt = min(dt_max, 0.05/omega(pi), 0.05/lambda); the
    state is symmetrized every step.  Samples (the initial state, every
    `sample_stride`-th step, and the final step) are retained as covariance
    states, or handed to `observer` whose return values are collected
    instead (use an observer for large N to avoid storing full matrices).

    Raises PSDViolationError if a sampled state drops below -covariance.PSD_TOL times
    its spectral scale.  With `uncertainty_hbar` set, Robertson-Schroedinger
    defects at samples are logged against that hbar (never fatal).
    """
    if dt_max is not None and dt_max <= 0:
        raise ValueError(f"dt_max must be > 0, got {dt_max}")
    if t_final < state.time:
        raise ValueError(f"t_final {t_final} precedes state time {state.time}")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")

    dt = step_bound(matrices, dt_max)
    span = t_final - state.time
    n_steps = max(1, int(np.ceil(span / dt - 1e-12))) if span > 0 else 0
    dt = span / n_steps if n_steps else 0.0

    a = matrices.drift
    two_d = 2.0 * matrices.diffusion
    sigma = symmetrize(_sigma_of(state)).copy()
    t0 = state.time

    times = []
    states: "list[CovarianceState] | None" = None if observer else []
    observations: "list | None" = [] if observer else None
    ratios = []

    def rhs(s: Array) -> Array:
        a_s = a @ s
        return a_s + a_s.T + two_d

    def take_sample(t: float) -> None:
        times.append(t)
        ratios.append(check_psd(sigma, context=f"t = {t:.6g}"))
        if uncertainty_hbar is not None:
            defect = uncertainty_defect(sigma, hbar=uncertainty_hbar)
            scale = float(np.max(np.abs(sigma))) or 1.0
            if defect < -1e-8 * scale:
                logger.warning("uncertainty-relation defect %.3e at t = %.6g", defect, t)
        if observer is not None:
            observations.append(observer(CovarianceState(sigma, t)))
        else:
            states.append(CovarianceState(sigma.copy(), t))

    take_sample(t0)
    for i in range(1, n_steps + 1):
        k1 = rhs(sigma)
        k2 = rhs(sigma + 0.5 * dt * k1)
        k3 = rhs(sigma + 0.5 * dt * k2)
        k4 = rhs(sigma + dt * k3)
        sigma = symmetrize(sigma + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        if i % sample_stride == 0 or i == n_steps:
            take_sample(t0 + i * dt)

    return Trajectory(
        times=np.array(times),
        states=states,
        observations=observations,
        min_eig_ratios=np.array(ratios),
    )


def stationary_covariance(matrices: ModelMatrices, method: str = "fourier") -> CovarianceState:
    """Solve A Sigma + Sigma A^T + 2 D = 0 for the stationary covariance.

    method "fourier" exploits the block-circulant structure: the site index
    is Fourier transformed and N independent 2x2 Lyapunov problems are
    solved; "dense" delegates to the dense Lyapunov solver for validation.
    Rejects a non-Hurwitz drift.
    """
    if method == "dense":
        eig_real = np.linalg.eigvals(matrices.drift).real
        if eig_real.max() >= 0.0:
            raise ValueError(f"drift is not Hurwitz (max Re eig = {eig_real.max():.3e})")
        sigma = solve_continuous_lyapunov(matrices.drift, -2.0 * matrices.diffusion)
        return CovarianceState(symmetrize(sigma), time=0.0)
    if method != "fourier":
        raise ValueError(f"unknown method {method!r}")

    n = matrices.n_sites
    mass = matrices.mass
    lam_q = circulant_symbol(matrices.friction)
    k_q = circulant_symbol(matrices.stiffness)

    if np.min(lam_q) <= 0.0:
        raise ValueError(
            f"drift is not Hurwitz: mode damping lambda + 2 gamma cos(q) reaches "
            f"{np.min(lam_q):.3e}"
        )

    # Per mode: unknowns (sx, sp, sc) of the 2x2 stationary block.
    lhs = np.zeros((n, 3, 3))
    lhs[:, 0, 0] = -2.0 * lam_q
    lhs[:, 0, 2] = 2.0 / mass
    lhs[:, 1, 1] = -2.0 * lam_q
    lhs[:, 1, 2] = -2.0 * k_q
    lhs[:, 2, 0] = -k_q
    lhs[:, 2, 1] = 1.0 / mass
    lhs[:, 2, 2] = -2.0 * lam_q
    rhs = np.stack([-2.0 * circulant_symbol(matrices.diffusion_xx),
                    -2.0 * circulant_symbol(matrices.diffusion_pp), np.zeros(n)], axis=1)
    sol = np.linalg.solve(lhs, rhs[..., None])[..., 0]

    sigma = block_circulant(*(circulant_row_from_symbol(sol[:, i]) for i in range(3)))
    return CovarianceState(symmetrize(sigma), time=0.0)


def site_observables(state: CovarianceState, params: ChainParams) -> SiteObservables:
    """Per-site energy, current and energy density extracted from the state.

    E_k = <p_k^2>/2m + (m omega0^2/2 + xi) <x_k^2>
          - (xi/2)(<x_k x_{k+1}> + <x_k x_{k-1}>)
    J_k = (xi/2m)(<x_{k-1} p_k> - <x_k p_{k-1}>)
    """
    n = params.n_sites
    sxx, spp, sxp = state.xx, state.pp, state.xp
    idx = np.arange(n)
    up = (idx + 1) % n
    dn = (idx - 1) % n

    energies = (
        np.diag(spp) / (2.0 * params.mass)
        + (params.mass * params.omega0**2 / 2.0 + params.xi) * np.diag(sxx)
        - (params.xi / 2.0) * (sxx[idx, up] + sxx[idx, dn])
    )
    currents = (params.xi / (2.0 * params.mass)) * (sxp[dn, idx] - sxp[idx, dn])
    densities = energies / params.lattice_const
    return SiteObservables(
        energies=energies,
        currents=currents,
        densities=densities,
        total_energy=float(np.sum(energies)),
    )


def total_energy(state: CovarianceState, params: ChainParams) -> float:
    return site_observables(state, params).total_energy


def energy_balance_rhs(
    state: CovarianceState,
    params: ChainParams,
    matrices: ModelMatrices,
    literal: bool = False,
) -> Array:
    """Analytic dE_k/dt from the current state.

    The grouped per-site balance: decay -2 lambda E_k, diffusion injection,
    minus the discrete current gradient J_{k+1} - J_k, plus the
    gamma-proportional neighbour terms.  With `literal=True` the
    next-nearest-neighbour correlation terms (gamma * xi / 2 weighted) that
    complete the exact balance are dropped, leaving the shorter grouped
    form; both agree when gamma = 0.
    """
    n = params.n_sites
    sxx, spp = state.xx, state.pp
    obs = site_observables(state, params)
    dxx = matrices.diffusion_xx
    idx = np.arange(n)
    up, dn = (idx + 1) % n, (idx - 1) % n
    up2, dn2 = (idx + 2) % n, (idx - 2) % n

    m, om0, xi = params.mass, params.omega0, params.xi
    lam, gam = params.lambda_fric, params.gamma_fric

    grad_j = obs.currents[up] - obs.currents[idx]
    out = (
        -2.0 * lam * obs.energies
        + matrices.diffusion_pp[0] / m
        + (m * om0**2 + 2.0 * xi) * dxx[0]
        - xi * (dxx[1] + dxx[-1])
        - grad_j
    )
    if gam != 0.0:
        out = out - (gam / m) * (spp[idx, up] + spp[idx, dn])
        out = out - gam * (m * om0**2 + 2.0 * xi) * (sxx[idx, up] + sxx[idx, dn])
        diag = np.diag(sxx)
        out = out + (gam * xi / 2.0) * (2.0 * diag + diag[up] + diag[dn])
        if not literal:
            out = out + (gam * xi / 2.0) * (
                2.0 * sxx[up, dn] + sxx[idx, up2] + sxx[idx, dn2]
            )
    return out


@dataclass(frozen=True)
class EnergyBalanceReport:
    times: Array
    residual: Array  # (n_times, n_sites), central-difference dE/dt minus analytic rhs
    normalized_max: float
    sampling_flagged: bool


def energy_balance_residual(
    trajectory: Trajectory,
    params: ChainParams,
    matrices: ModelMatrices,
    literal: bool = False,
) -> EnergyBalanceReport:
    """Central-difference dE_k/dt along a trajectory minus the analytic balance.

    Needs a trajectory with retained states sampled on a uniform grid fine
    enough for second-order differences; too-coarse sampling is flagged.
    """
    if trajectory.states is None or len(trajectory.states) < 3:
        raise ValueError("need a trajectory with at least 3 retained states")
    times = trajectory.times
    states = trajectory.states
    spacing = np.diff(times)
    # evolve always samples the final step; drop it if it breaks uniformity
    if len(times) > 3 and not np.isclose(spacing[-1], spacing[0], rtol=1e-8):
        times = times[:-1]
        states = states[:-1]
        spacing = spacing[:-1]
    if not np.allclose(spacing, spacing[0], rtol=1e-8, atol=0.0):
        raise ValueError("energy balance residual needs uniform sample spacing")
    ds = float(spacing[0])
    fastest = max(matrices.omega_max, 2.0 * params.lambda_fric)
    flagged = bool(ds * fastest > 0.5)

    energies = np.array([site_observables(s, params).energies for s in states])
    dedt = (energies[2:] - energies[:-2]) / (2.0 * ds)
    rhs = np.array(
        [energy_balance_rhs(s, params, matrices, literal=literal) for s in states[1:-1]]
    )
    residual = dedt - rhs
    scale = float(np.max(np.abs(dedt)))
    normalized = float(np.max(np.abs(residual)) / scale) if scale > 0 else float(np.max(np.abs(residual)))
    return EnergyBalanceReport(
        times=times[1:-1],
        residual=residual,
        normalized_max=normalized,
        sampling_flagged=flagged,
    )


def gaussian_site_weights(n_sites: int, center: float, width_sites: float) -> Array:
    """Gaussian envelope exp(-d^2 / 2 width^2) over minimal periodic distance."""
    if width_sites <= 0:
        raise ValueError("width must be > 0")
    k = np.arange(n_sites, dtype=float)
    d = np.abs(k - center)
    d = np.minimum(d, n_sites - d)
    return np.exp(-0.5 * (d / width_sites) ** 2)


def uniform_state(params: ChainParams, temp: float) -> CovarianceState:
    """Translation-invariant thermal state at `temp` (uniform heating start)."""
    return gibbs_covariance(params, temp)


def hotspot_state(
    params: ChainParams,
    t_cold: float,
    t_hot: float,
    weights: "Array | Sequence[float]",
    mode: str = "thermal",
) -> CovarianceState:
    """Cold thermal background with a locally heated region.

    weights:
        Per-site envelope w_k in [0, 1] of the hot region.
    mode:
        "thermal" windows the full covariance difference between the hot
        and cold Gibbs states (sqrt(w_k) sqrt(w_j) congruence, PSD by
        construction); the heated region is locally thermal with flat
        per-mode energy weights.  "diagonal" adds only the single-site
        variance differences w_k * (dx^2, dp^2) to the diagonals.
    """
    if t_hot < t_cold:
        raise ValueError("t_hot must be >= t_cold")
    w = np.asarray(weights, dtype=float)
    if w.shape != (params.n_sites,):
        raise ValueError(f"weights must have shape ({params.n_sites},)")
    if np.any(w < 0.0) or np.any(w > 1.0):
        raise ValueError("weights must lie in [0, 1]")

    cold = gibbs_covariance(params, t_cold).sigma
    hot = gibbs_covariance(params, t_hot).sigma
    delta = hot - cold
    if mode == "thermal":
        s = np.concatenate([np.sqrt(w), np.sqrt(w)])
        sigma = cold + s[:, None] * delta * s[None, :]
    elif mode == "diagonal":
        n = params.n_sites
        sigma = cold.copy()
        dx2 = delta[0, 0]
        dp2 = delta[n, n]
        sigma[np.arange(n), np.arange(n)] += w * dx2
        sigma[np.arange(n, 2 * n), np.arange(n, 2 * n)] += w * dp2
    else:
        raise ValueError(f"unknown hotspot mode {mode!r}")
    return CovarianceState(symmetrize(sigma), time=0.0)
