"""Time evolution of the covariance state and per-site energy diagnostics.

The second moments obey the closed linear equation

    d(Sigma)/dt = A Sigma + Sigma A^T + 2 D

with constant coefficients, so between samples the state follows the exact
map Sigma(t + h) = P Sigma(t) P^T + Q(h), P = e^{A h}.  The ring is
translation invariant: P and Q are block circulant, assembled from the 2 x 2
closed forms of each Fourier mode (`propagator`).  The stationary state
solves the continuous Lyapunov equation mode by mode.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .chain import ModelMatrices, circulant_blocks
from .covariance import Array, CovarianceState, check_psd, symmetrize
from .diffusion import gibbs_covariance
from .params import ChainParams

GRID_FRACTION = 0.05  # sample-grid step dt <= 0.05 / (fastest rate)


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


def moment_rhs(state: CovarianceState, matrices: ModelMatrices) -> Array:
    """Right-hand side A Sigma + Sigma A^T + 2 D of the moment equation."""
    sigma = state.sigma
    a = matrices.drift
    if sigma.shape != a.shape:
        raise ValueError(f"state/matrix size mismatch: {sigma.shape} vs {a.shape}")
    return a @ sigma + sigma @ a.T + 2.0 * matrices.diffusion


def step_bound(matrices: ModelMatrices, dt_max: float | None = None) -> float:
    """Grid step min(dt_max, 0.05/omega_max, 0.05/lambda); ValueError if none is finite."""
    bound = np.inf
    if matrices.omega_max > 0.0:
        bound = min(bound, GRID_FRACTION / matrices.omega_max)
    if matrices.friction_on_site > 0.0:
        bound = min(bound, GRID_FRACTION / matrices.friction_on_site)
    if dt_max is not None:
        bound = min(bound, dt_max)
    if not np.isfinite(bound):
        raise ValueError("no finite step bound: supply dt_max for an undamped static chain")
    return bound


def propagator(matrices: ModelMatrices, h: float) -> "tuple[Array, Array]":
    """Dense P and Q of the exact map Sigma(t + h) = P Sigma(t) P^T + Q.

    Per mode q, with w = sqrt(K_q / m),

        P_q = e^{-lambda_q h} [[cos wh, sin(wh)/(m w)], [-m w sin wh, cos wh]],

    and sin(wh)/(m w) -> h/m at w = 0.  The noise term of a damped mode is
    Q_q = S_q - P_q S_q P_q^T with S_q its stationary block.  A mode with
    lambda_q = 0 has Q_q = 0 without noise, and otherwise the closed form of
    Q_q = int_0^h P_q(s) 2 D_q P_q(s)^T ds (`_undamped_noise_blocks`).
    """
    m = matrices.mass
    k, lam, dxx, dpp = matrices.mode_symbols
    w = np.sqrt(k / m)
    decay, cos, sin = np.exp(-lam * h), np.cos(w * h), np.sin(w * h)
    sin_over = np.divide(sin, m * w, out=np.full_like(w, h / m), where=w > 0.0)
    p = np.moveaxis(decay * np.array([[cos, sin_over], [-m * w * sin, cos]]), -1, 0)

    q = np.zeros_like(p)
    damped = lam > 0.0
    s = _stationary_blocks(m, k[damped], lam[damped], dxx[damped], dpp[damped])
    q[damped] = s - p[damped] @ s @ np.swapaxes(p[damped], 1, 2)
    noisy = ~damped & ((dxx != 0.0) | (dpp != 0.0))
    q[noisy] = _undamped_noise_blocks(m, w[noisy], h, dxx[noisy], dpp[noisy])
    return circulant_blocks(np.moveaxis(p, 0, -1)), circulant_blocks(np.moveaxis(q, 0, -1))


def _undamped_noise_blocks(m: float, w: Array, h: float, dxx: Array, dpp: Array) -> Array:
    """Noise blocks Q_q, shape (n, 2, 2), of undamped modes with w > 0.  With
    x = 2 w h and M = (x - sin x) / (2 w), the integral of 2 sin^2(w s) over [0, h],

        Q_xx = dxx (2h - M) + dpp M / (m w)^2,
        Q_pp = dxx (m w)^2 M + dpp (2h - M),
        Q_xp = (dpp / (m w) - dxx m w) sin^2(w h) / w.

    Below x = 1, x - sin x is summed as its Taylor series in Horner form
    (through x^19): the direct difference loses digits as x^2 shrinks.
    """
    x = 2.0 * w * h
    x2 = x * x
    series = 1.0
    for k in range(9, 1, -1):  # x - sin x = (x^3/6)(1 - x^2/(4*5) (1 - x^2/(6*7) (...)))
        series = 1.0 - x2 / (2 * k * (2 * k + 1)) * series
    big_m = np.where(x < 1.0, x * x2 / 6.0 * series, x - np.sin(x)) / (2.0 * w)
    mw = m * w
    q_xx = dxx * (2.0 * h - big_m) + dpp * big_m / mw**2
    q_pp = dxx * mw**2 * big_m + dpp * (2.0 * h - big_m)
    q_xp = (dpp / mw - dxx * mw) * np.sin(w * h) ** 2 / w
    return np.moveaxis(np.array([[q_xx, q_xp], [q_xp, q_pp]]), -1, 0)


def evolve(
    state: CovarianceState,
    matrices: ModelMatrices,
    t_final: float,
    dt_max: float | None = None,
    sample_stride: int = 10,
    observer: "Callable[[CovarianceState], object] | None" = None,
) -> Trajectory:
    """Propagate the moment equation exactly from `state.time` to `t_final`.

    The span is cut into n equal grid steps dt no longer than
    `step_bound(matrices, dt_max)` = min(dt_max, 0.05/omega(pi), 0.05/lambda).
    The grid only places the samples: the initial state, every
    `sample_stride`-th grid point and the final one.  Each interval between
    samples is one exact `propagator` map, built once per distinct interval
    length.  Samples are retained as covariance states, or handed to
    `observer` whose return values are collected instead (use an observer
    for large N to avoid storing full matrices).

    Raises PSDViolationError if a sampled state drops below -covariance.PSD_TOL times
    its spectral scale.
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
    sample_steps = list(range(sample_stride, n_steps + 1, sample_stride))
    if n_steps % sample_stride:
        sample_steps.append(n_steps)

    sigma = symmetrize(state.sigma)
    t0 = state.time

    times = []
    states: "list[CovarianceState] | None" = None if observer else []
    observations: "list | None" = [] if observer else None
    ratios = []

    def take_sample(t: float) -> None:
        times.append(t)
        ratios.append(check_psd(sigma, context=f"t = {t:.6g}"))
        if observer is not None:
            observations.append(observer(CovarianceState(sigma, t)))
        else:
            states.append(CovarianceState(sigma.copy(), t))

    take_sample(t0)
    maps = functools.cache(lambda steps: propagator(matrices, steps * dt))
    for prev, i in zip([0] + sample_steps, sample_steps):
        p, q = maps(i - prev)
        sigma = p @ sigma @ p.T + q
        take_sample(t0 + i * dt)

    return Trajectory(
        times=np.array(times),
        states=states,
        observations=observations,
        min_eig_ratios=np.array(ratios),
    )


def _stationary_blocks(m: float, k: Array, lam: Array, dxx: Array, dpp: Array) -> Array:
    """Per-mode stationary blocks [[s_x, s_c], [s_c, s_p]], shape (N, 2, 2), that
    solve A_q S + S A_q^T + 2 D_q = 0 for damped modes (lambda_q > 0)."""
    s_c = (dpp - m * k * dxx) / (2.0 * (k + m * lam**2))
    s_x = (dxx + s_c / m) / lam
    s_p = (dpp - k * s_c) / lam
    return np.moveaxis(np.array([[s_x, s_c], [s_c, s_p]]), -1, 0)


def stationary_covariance(matrices: ModelMatrices) -> CovarianceState:
    """Solve A Sigma + Sigma A^T + 2 D = 0 for the stationary covariance.

    The drift is block circulant, so the site index is Fourier transformed
    and N independent 2x2 Lyapunov problems are solved.  Rejects a
    non-Hurwitz drift.
    """
    k, lam, dxx, dpp = matrices.mode_symbols
    if np.min(lam) <= 0.0:
        raise ValueError(
            f"drift is not Hurwitz: mode damping lambda + 2 gamma cos(q) reaches "
            f"{np.min(lam):.3e}"
        )
    s = _stationary_blocks(matrices.mass, k, lam, dxx, dpp)
    sigma = circulant_blocks(np.moveaxis(s, 0, -1))
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


def energy_balance_rhs(state: CovarianceState, params: ChainParams, matrices: ModelMatrices) -> Array:
    """Analytic dE_k/dt from the current state.

    The grouped per-site balance: decay -2 lambda E_k, diffusion injection,
    minus the discrete current gradient J_{k+1} - J_k, plus the
    gamma-proportional neighbour terms.  When gamma != 0 the exact balance
    needs the next-nearest-neighbour correlation terms weighted by
    gamma * xi / 2 as well.
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
        out = out + (gam * xi / 2.0) * (2.0 * diag + diag[up] + diag[dn]
                                        + 2.0 * sxx[up, dn] + sxx[idx, up2] + sxx[idx, dn2])
    return out


@dataclass(frozen=True)
class EnergyBalanceReport:
    times: Array
    residual: Array  # (n_times, n_sites), central-difference dE/dt minus analytic rhs
    normalized_max: float
    sampling_flagged: bool


def energy_balance_residual(trajectory: Trajectory, params: ChainParams,
                            matrices: ModelMatrices) -> EnergyBalanceReport:
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
    rhs = np.array([energy_balance_rhs(s, params, matrices) for s in states[1:-1]])
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
