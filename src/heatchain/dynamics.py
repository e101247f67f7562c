"""Time evolution of the covariance state and per-site energy diagnostics.

The second moments obey the closed linear equation

    d(Sigma)/dt = A Sigma + Sigma A^T + 2 D

with constant coefficients, so between samples the state follows the exact
map Sigma(t + h) = P Sigma(t) P^T + Q(h), P = e^{A h}.  The ring is
translation invariant: P and Q are block circulant, assembled from the 2 x 2
blocks of each Fourier mode (`propagator`).  The stationary state solves the
continuous Lyapunov equation mode by mode.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chain import ModelMatrices, circulant_blocks
from .covariance import Array, CovarianceState, check_psd, min_eig_ratio, symmetrize
from .diffusion import gibbs_covariance
from .params import ChainParams

GRID_FRACTION = 0.05  # sample-grid step dt <= 0.05 / (fastest rate)
DOUBLINGS = 30  # propagator: Q starts from its Taylor polynomial at h / 2^30


@dataclass(frozen=True)
class SiteObservables:
    """Per-site energies E_k, currents J_k and energy densities u_k = E_k/a."""

    energies: Array
    currents: Array
    densities: Array
    total_energy: float


@dataclass
class Trajectory:
    """Sampled evolution: either retained covariance states or observer outputs.

    `min_eig_ratios` is computed when read, by `covariance.min_eig_ratio`
    (`eigvalsh`) on each retained state; observer runs retain none, so theirs
    is empty.  `evolve` only checks each sample (`check_psd`) and keeps no
    ratio.
    """

    times: Array
    states: "list[CovarianceState] | None" = None
    observations: "list | None" = None

    @property
    def min_eig_ratios(self) -> Array:
        return np.array([min_eig_ratio(s.sigma) for s in self.states or []])


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

        P_q(s) = e^{-lambda_q s} [[cos ws, sin(ws)/(m w)], [-m w sin ws, cos ws]],

    and sin(ws)/(m w) -> s/m at w = 0.  The noise term
    Q_q(s) = int_0^s P_q(u) 2 D_q P_q(u)^T du obeys
    Q_q(2s) = Q_q(s) + P_q(s) Q_q(s) P_q(s)^T.  Every mode starts from the
    4th-order Taylor polynomial of Q_q at s = h / 2^DOUBLINGS and doubles
    DOUBLINGS times up to h, so nothing is subtracted whatever the damping.
    """
    m = matrices.mass
    k, lam, dxx, dpp = matrices.mode_symbols
    w = np.sqrt(k / m)
    s = np.ldexp(h, np.arange(-DOUBLINGS, 1))[:, None]  # the levels h / 2^DOUBLINGS .. h, exactly
    decay, cos, sin = np.exp(-lam * s), np.cos(w * s), np.sin(w * s)
    sin_over = np.divide(sin, m * w, out=np.broadcast_to(s / m, sin.shape).copy(), where=w > 0.0)
    p = np.moveaxis(decay * np.array([[cos, sin_over], [-m * w * sin, cos]]), (0, 1), (-2, -1))

    zero = np.zeros_like(k)
    a = np.moveaxis(np.array([[-lam, np.full_like(k, 1.0 / m)], [-k, -lam]]), -1, 0)
    term = q = s[0] * np.moveaxis(np.array([[2.0 * dxx, zero], [zero, 2.0 * dpp]]), -1, 0)
    for n in range(2, 5):  # term = s^n / n! times (A_q X + X A_q^T) applied n - 1 times to 2 D_q
        term = s[0] / n * (a @ term + term @ a.transpose(0, 2, 1))
        q = q + term
    for p_s in p[:-1]:
        q = q + p_s @ q @ p_s.transpose(0, 2, 1)
    return circulant_blocks(np.moveaxis(p[-1], 0, -1)), circulant_blocks(np.moveaxis(q, 0, -1))


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

    Every sample passes `check_psd` first, which raises PSDViolationError if
    the state has a non-finite entry or drops below -covariance.PSD_TOL times
    its spectral scale.  The check computes no ratio for a state it can
    certify; `Trajectory.min_eig_ratios` computes them from the retained
    states when read.
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

    def take_sample(t: float) -> None:
        times.append(t)
        check_psd(sigma, context=f"t = {t:.6g}")
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

    return Trajectory(times=np.array(times), states=states, observations=observations)


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
    """Analytic dE_k/dt from the current state: the on-site energy equation.

    The grouped per-site balance: decay -2 lambda E_k, diffusion injection,
    minus the discrete current gradient J_{k+1} - J_k, plus the
    gamma-proportional neighbour terms.  When gamma != 0 the exact balance
    needs the next-nearest-neighbour correlation terms weighted by
    gamma * xi / 2 as well.  Friction and diffusion are read from `matrices`;
    the result equals E_k(A Sigma + Sigma A^T + 2 D) (`verify.exact_energy_rate`).
    """
    n = params.n_sites
    sxx, spp = state.xx, state.pp
    obs = site_observables(state, params)
    dxx = matrices.diffusion_xx
    idx = np.arange(n)
    up, dn = (idx + 1) % n, (idx - 1) % n
    up2, dn2 = (idx + 2) % n, (idx - 2) % n

    m, om0, xi = params.mass, params.omega0, params.xi
    lam, gam = matrices.friction_on_site, matrices.friction_neighbour

    grad_j = obs.currents[up] - obs.currents[idx]
    out = (
        -2.0 * lam * obs.energies
        + matrices.diffusion_pp[0] / m
        + (m * om0**2 + 2.0 * xi) * dxx[0]
        - xi * (dxx[1] + dxx[-1])
        - grad_j
    )
    out = out - (gam / m) * (spp[idx, up] + spp[idx, dn])
    out = out - gam * (m * om0**2 + 2.0 * xi) * (sxx[idx, up] + sxx[idx, dn])
    diag = np.diag(sxx)
    return out + (gam * xi / 2.0) * (2.0 * diag + diag[up] + diag[dn]
                                     + 2.0 * sxx[up, dn] + sxx[idx, up2] + sxx[idx, dn2])


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
