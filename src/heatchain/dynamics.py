"""Time evolution of the covariance state and per-site energy diagnostics.

The second moments obey the closed linear equation

    d(Sigma)/dt = A Sigma + Sigma A^T + 2 D

with constant coefficients, so between samples the state follows the exact
map Sigma(t + h) = P Sigma(t) P^T + Q(h), P = e^{A h}.  The ring is
translation invariant: P and Q are block circulant, given by the 2 x 2
blocks P_q and Q_q of each Fourier mode (`mode_propagator`).  Every state
built here is a `FactoredState` Sigma = B + P H0 P^T: its block-circulant
background maps mode by mode, B_q <- P_q B_q P_q^T + Q_q, its heating H0 (a
hot spot's; the Gibbs, uniform and stationary states have none) is fixed at
the start and shared by every sample, and a sample carries only the per-mode
map since the start, T_q <- P_q T_q.  So a sample costs O(N) and holds O(N)
of its own: samples are independent, and an observer may keep any of them.
The stationary state solves the continuous Lyapunov equation mode by mode.

Site energies, currents and the on-site energy balance read bands
<z^i_k z^j_{k+d}> of Sigma (`_bands`): a factored state reads its own
(`FactoredState.bands`, from its heating's Fourier Gram, which only
`heatchain.covariance` builds and reads), a dense Sigma by index.  The dense
A, D, moment right-hand side and Van Loan map are oracles: `heatchain.verify`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chain import ModelMatrices, circulant_row_from_symbol
from .covariance import Array, FactoredState, FourierGram, check_psd, fft_rounding
# gibbs_covariance is looked up here by the benchmark's tracer (benchmarks/run.py)
from .diffusion import _diagonal_blocks, gibbs_covariance, gibbs_energy_density, mode_thermal_variances
from .params import ChainParams

GRID_FRACTION = 0.05  # sample-grid step dt <= 0.05 / (fastest rate)
DOUBLINGS = 30  # mode_propagator: Q starts from its Taylor polynomial at h / 2^30 or below


@dataclass(frozen=True)
class SiteObservables:
    """Per-site energies E_k, currents J_k and energy densities u_k = E_k/a."""

    energies: Array
    currents: Array
    densities: Array
    total_energy: float


@dataclass
class Trajectory:
    """Sampled evolution: the sample times and either the observer's return
    value for each sample or, without an observer, every `FactoredState`.

    A retained state holds O(N) of its own and shares the start's heating.
    """

    times: Array
    states: "list[FactoredState] | None" = None
    observations: "list | None" = None


def step_bound(matrices: ModelMatrices, dt_max: float | None = None) -> float:
    """Grid step min(dt_max, 0.05/omega_max, 0.05/max_q lambda_q), the fastest
    oscillation and damping rates; ValueError if none is finite."""
    bound = np.inf
    if matrices.omega_max > 0.0:
        bound = min(bound, GRID_FRACTION / matrices.omega_max)
    damping = float(np.max(matrices.friction))
    if damping > 0.0:
        bound = min(bound, GRID_FRACTION / damping)
    if dt_max is not None:
        bound = min(bound, dt_max)
    if not np.isfinite(bound):
        raise ValueError("no finite step bound: supply dt_max for an undamped static chain")
    return bound


def sample_grid(matrices: ModelMatrices, span: float, dt_max: float | None = None,
                sample_stride: int = 10) -> "tuple[range, float]":
    """(steps, dt) of `evolve` over a span >= 0: the fewest equal grid steps, n, of length dt <=
    `step_bound(matrices, dt_max)`, sampled at steps = range(0, n, sample_stride), built lazily,
    and at n = steps.stop: len(steps) + 1 samples.  ValueError for dt_max <= 0 or sample_stride < 1."""
    if dt_max is not None and dt_max <= 0:
        raise ValueError(f"dt_max must be > 0, got {dt_max}")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    dt = step_bound(matrices, dt_max)
    n_steps = max(1, int(np.ceil(span / dt - 1e-12))) if span > 0 else 0
    return range(0, n_steps, sample_stride), (span / n_steps if n_steps else 0.0)


def mode_propagator(matrices: ModelMatrices, h: float) -> "tuple[Array, Array]":
    """Per-mode blocks P_q and Q_q, each of shape (N, 2, 2) in `mode_grid`
    order, of the exact map Sigma(t + h) = P Sigma(t) P^T + Q.

    Per mode q, with w = sqrt(K_q / m),

        P_q(s) = e^{-lambda_q s} [[cos ws, sin(ws)/(m w)], [-m w sin ws, cos ws]],

    and sin(ws)/(m w) -> s/m at w = 0.  The noise term
    Q_q(s) = int_0^s P_q(u) 2 D_q P_q(u)^T du obeys
    Q_q(2s) = Q_q(s) + P_q(s) Q_q(s) P_q(s)^T.  Every mode starts from the
    4th-order Taylor polynomial of Q_q at s = h / 2^n and doubles n times up
    to h, so nothing is subtracted whatever the damping.  n is DOUBLINGS plus
    ceil(log2(h rate)) where that is positive, rate the fastest of omega(pi)
    and |lambda_q|, so that the Taylor step stays below 2^-DOUBLINGS / rate
    for any h.
    """
    m, k, lam = matrices.mass, matrices.stiffness, matrices.friction
    dxx, dpp = matrices.diffusion_xx, matrices.diffusion_pp
    w = np.sqrt(k / m)
    h_rate = h * max(matrices.omega_max, float(np.max(np.abs(lam))))  # h times the fastest rate
    doublings = DOUBLINGS + (math.ceil(math.log2(h_rate)) if h_rate > 1.0 else 0)
    s = np.ldexp(h, np.arange(-doublings, 1))[:, None]  # the levels h / 2^doublings .. h, exactly
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
    return p[-1].copy(), q  # a copy, so that the other levels are freed


def evolve(
    state: FactoredState,
    matrices: ModelMatrices,
    t_final: float,
    dt_max: float | None = None,
    sample_stride: int = 10,
    observer: "Callable[[FactoredState], object] | None" = None,
) -> Trajectory:
    """Propagate the moment equation exactly from `state.time` to `t_final`.

    The span is cut into n equal grid steps dt no longer than
    `step_bound(matrices, dt_max)` = min(dt_max, 0.05/omega(pi), 0.05/max_q
    lambda_q).  The grid only places the samples (`sample_grid`): the initial
    state, every `sample_stride`-th grid point and the final one.  Each interval
    between samples is one exact map (`mode_propagator`), built once per
    distinct interval length, that maps B_q and T_q mode by mode: O(N) per
    sample, and every sample shares the start's heating.  `state` must be a
    `FactoredState` (TypeError otherwise): an arbitrary PSD Sigma is
    `FactoredState(np.zeros((N, 2, 2)), heating=FourierGram.of_factor(L.T))`,
    with L its Cholesky factor.  Each sample is handed to `observer`, whose
    return values are collected in place of the states; without an observer
    every sample is retained.

    Every sample passes `check_psd` first, which raises PSDViolationError if
    the state has a non-finite entry or drops below -covariance.PSD_TOL times
    its spectral scale.  The check computes no eigenvalue ratio for a state
    it can certify; an observer that wants one applies
    `covariance.min_eig_ratio` to the sample's `sigma`.
    """
    if not isinstance(state, FactoredState):
        raise TypeError(f"evolve takes a FactoredState, got {type(state).__name__}")
    if t_final < state.time:
        raise ValueError(f"t_final {t_final} precedes state time {state.time}")

    steps, dt = sample_grid(matrices, t_final - state.time, dt_max, sample_stride)
    lengths = {i - prev for prev, i in itertools.pairwise(itertools.chain(steps, [steps.stop]))}
    maps = {length: mode_propagator(matrices, length * dt) for length in lengths}

    times, kept = [], []
    sample = state
    for prev, i in itertools.pairwise(itertools.chain([0], steps, [steps.stop])):
        if i > prev:
            p, q = maps[i - prev]
            sample = FactoredState(p @ sample.background @ p.transpose(0, 2, 1) + q, time=state.time + i * dt,
                                   heating=state.heating, transfer=p @ sample.transfer)
        times.append(sample.time)
        check_psd(sample, context=f"t = {sample.time:.6g}")
        kept.append(observer(sample) if observer is not None else sample)

    if observer is not None:
        return Trajectory(times=np.array(times), observations=kept)
    return Trajectory(times=np.array(times), states=kept)


def _stationary_blocks(m: float, k: Array, lam: Array, dxx: Array, dpp: Array) -> Array:
    """Per-mode stationary blocks [[s_x, s_c], [s_c, s_p]], shape (N, 2, 2), that
    solve A_q S + S A_q^T + 2 D_q = 0 for damped modes (lambda_q > 0)."""
    s_c = (dpp - m * k * dxx) / (2.0 * (k + m * lam**2))
    s_x = (dxx + s_c / m) / lam
    s_p = (dpp - k * s_c) / lam
    return np.moveaxis(np.array([[s_x, s_c], [s_c, s_p]]), -1, 0)


def stationary_covariance(matrices: ModelMatrices) -> FactoredState:
    """Solve A Sigma + Sigma A^T + 2 D = 0 for the stationary covariance.

    The drift is block circulant, so the site index is Fourier transformed
    and N independent 2x2 Lyapunov problems are solved; their solutions are
    the background blocks of a factored state with no heating.  Rejects
    a non-Hurwitz drift.
    """
    lam = matrices.friction
    if np.min(lam) <= 0.0:
        raise ValueError(
            f"drift is not Hurwitz: mode damping lambda + 2 gamma cos(q) reaches "
            f"{np.min(lam):.3e}"
        )
    blocks = _stationary_blocks(matrices.mass, matrices.stiffness, lam,
                                matrices.diffusion_xx, matrices.diffusion_pp)
    return FactoredState(blocks)


def _bands(state: "Array | FactoredState", *wanted: "tuple[int, int, int]") -> "list[Array]":
    """<z^i_k z^j_{k+d}> over sites k, periodic in k, for each (i, j, d) in `wanted`
    with 0 <= d < N, z^0 = x and z^1 = p: by index from a dense covariance, and
    from a factored state by `FactoredState.bands`, which never forms `sigma`."""
    if isinstance(state, FactoredState):
        return state.bands(*wanted)
    n = len(state) // 2
    k = np.arange(n)
    return [state[i * n + k, j * n + (k + d) % n] for i, j, d in wanted]


def _over(band: Array, s: int) -> Array:
    """The band s sites over: band[k - s], periodic in k (np.roll, without its overhead)."""
    return np.concatenate((band[-s:], band[:-s]))


# the bands that E_k and J_k read: x-x at offsets 0 and 1, p-p at 0, x-p and p-x at 1
_SITE_BANDS = ((0, 0, 0), (1, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1))


def _energies_currents(params: ChainParams, xx: Array, pp: Array, xx_up: Array, xp_up: Array,
                       px_up: Array) -> "tuple[Array, Array]":
    """E_k and J_k of `site_observables` and `energy_balance_rhs` from the five `_SITE_BANDS`."""
    m, om0, xi = params.mass, params.omega0, params.xi
    energies = pp / (2.0 * m) + (m * om0**2 / 2.0 + xi) * xx - (xi / 2.0) * (xx_up + _over(xx_up, 1))
    return energies, (xi / (2.0 * m)) * _over(xp_up - px_up, 1)


def site_observables(state: "Array | FactoredState", params: ChainParams) -> SiteObservables:
    """Per-site energy, current and energy density extracted from the state.

    E_k = <p_k^2>/2m + (m omega0^2/2 + xi) <x_k^2>
          - (xi/2)(<x_k x_{k+1}> + <x_k x_{k-1}>)
    J_k = (xi/2m)(<x_{k-1} p_k> - <x_k p_{k-1}>)

    The five `_SITE_BANDS` come from `_bands`, the neighbour at k - 1 being the
    band one site over (`_over`), so a factored state is never formed densely.
    """
    energies, currents = _energies_currents(params, *_bands(state, *_SITE_BANDS))
    return SiteObservables(energies, currents, energies / params.lattice_const, float(np.sum(energies)))


def total_energy(state: "Array | FactoredState", params: ChainParams) -> float:
    return site_observables(state, params).total_energy


def energy_decay(params: ChainParams, times: Array, totals: Array) -> "tuple[float, float]":
    """(rate, U_eq) of total energies U sampled at `times`, U_eq = N a `gibbs_energy_density`(T_bath):
    the rate is minus the least-squares slope of log|U - U_eq| against t over the samples
    with |U - U_eq| > 1e-300, NaN when fewer than two are."""
    u_eq = params.n_sites * params.lattice_const * gibbs_energy_density(params, params.bath_temp)
    off = np.abs(totals - u_eq) > 1e-300
    if off.sum() < 2:
        return np.nan, u_eq
    a = np.vstack([times[off], np.ones(off.sum())]).T
    return -float(np.linalg.lstsq(a, np.log(np.abs(totals[off] - u_eq)), rcond=None)[0][0]), u_eq


def energy_balance_rhs(state: "Array | FactoredState", params: ChainParams,
                       matrices: ModelMatrices) -> Array:
    """Analytic dE_k/dt from the current state: the on-site energy equation.

    The grouped per-site balance: decay -2 lambda E_k, diffusion injection,
    minus the discrete current gradient J_{k+1} - J_k, plus the
    gamma-proportional neighbour terms.  When gamma != 0 the exact balance
    needs the next-nearest-neighbour correlation terms weighted by
    gamma * xi / 2 as well.  Friction and diffusion are read from the
    circulant rows of the symbols of `matrices` (lambda, gamma and D^xx at
    offsets 0 and +-1, D^pp at 0); the result equals
    E_k(A Sigma + Sigma A^T + 2 D) (`verify.exact_energy_rate`).
    It reads the `_SITE_BANDS` of E_k and J_k, the x-x band at offset 2 and the
    p-p band at 1 in one `_bands` call, so a factored state's heating is read once.
    """
    xx, pp, xx_up, xp_up, px_up, xx_up2, pp_up = _bands(state, *_SITE_BANDS, (0, 0, 2), (1, 1, 1))
    energies, currents = _energies_currents(params, xx, pp, xx_up, xp_up, px_up)
    m, om0, xi = params.mass, params.omega0, params.xi
    fric, dxx, dpp = (circulant_row_from_symbol(s) for s in (
        matrices.friction, matrices.diffusion_xx, matrices.diffusion_pp))
    lam, gam = fric[0], fric[1]
    grad_j = _over(currents, -1) - currents
    out = (
        -2.0 * lam * energies
        + dpp[0] / m
        + (m * om0**2 + 2.0 * xi) * dxx[0]
        - xi * (dxx[1] + dxx[-1])
        - grad_j
    )
    out = out - (gam / m) * (pp_up + _over(pp_up, 1))
    out = out - gam * (m * om0**2 + 2.0 * xi) * (xx_up + _over(xx_up, 1))
    return out + (gam * xi / 2.0) * (2.0 * xx + _over(xx, -1) + _over(xx, 1)
                                     + 2.0 * _over(xx_up2, 1) + xx_up2 + _over(xx_up2, 2))


def gaussian_site_weights(n_sites: int, center: float, width_sites: float) -> Array:
    """Gaussian envelope exp(-d^2 / 2 width^2) over minimal periodic distance."""
    if width_sites <= 0:
        raise ValueError("width must be > 0")
    k = np.arange(n_sites, dtype=float)
    d = np.abs(k - center)
    d = np.minimum(d, n_sites - d)
    return np.exp(-0.5 * (d / width_sites) ** 2)


# the uniform-heating start: the translation-invariant Gibbs state at the hot temperature
uniform_state = gibbs_covariance


def hotspot_state(
    params: ChainParams,
    t_cold: float,
    t_hot: float,
    weights: "Array | Sequence[float]",
    mode: str = "thermal",
) -> FactoredState:
    """Cold thermal background with a locally heated region.

    The cold Gibbs state is the background B; the heating H0 is held as its
    `FourierGram`, which `FourierGram.of_window` builds from the window
    H0_aa = S C_a S of each part (a = x, p), S = diag(sqrt(w)) and C_a a
    symmetric circulant chosen by `mode`, with no 2N x 2N matrix.

    weights:
        Per-site envelope w_k in [0, 1] of the hot region.
    mode:
        "thermal" windows the full covariance difference Delta between the
        hot and cold Gibbs states: C_a is the circulant of the per-mode
        differences d_a of the x (p) variances, nonnegative.  The heated
        region is locally thermal with flat per-mode energy weights.  C_a's
        row comes from an inverse FFT of d_a, so S C_a S is within
        eta(N) ||d_a||_2 (`fft_rounding`) of a PSD matrix.  "diagonal" adds
        only the single-site variance differences w_k * (dx^2, dp^2) to the
        diagonals: C_a = mean(d_a) I, so H0_aa = diag(w mean(d_a)).
    """
    if t_hot < t_cold:
        raise ValueError("t_hot must be >= t_cold")
    w = np.asarray(weights, dtype=float)
    if w.shape != (params.n_sites,):
        raise ValueError(f"weights must have shape ({params.n_sites},)")
    if np.any(w < 0.0) or np.any(w > 1.0):
        raise ValueError("weights must lie in [0, 1]")
    if mode not in ("thermal", "diagonal"):
        raise ValueError(f"unknown hotspot mode {mode!r}")

    _, _, c_x, c_p = mode_thermal_variances(params, np.array([t_cold, t_hot]))
    background = _diagonal_blocks(c_x[0], c_p[0])
    # the variances grow with T; the clip keeps a last-bit rounding below zero out of the heating
    d_x, d_p = (np.maximum(c[1] - c[0], 0.0) for c in (c_x, c_p))
    if mode == "thermal":
        rows = [circulant_row_from_symbol(d) for d in (d_x, d_p)]
        build_error = fft_rounding(len(w)) * max(np.linalg.norm(d_x), np.linalg.norm(d_p))
    else:  # the row of mean(d_a) I: its on-site entry alone
        rows = [np.mean(d) * (np.arange(len(w)) == 0) for d in (d_x, d_p)]
        build_error = 0.0
    return FactoredState(background, heating=FourierGram.of_window(np.sqrt(w), rows, build_error))
