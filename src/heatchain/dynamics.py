"""Time evolution of the covariance state and per-site energy diagnostics.

The second moments obey the closed linear equation

    d(Sigma)/dt = A Sigma + Sigma A^T + 2 D

with constant coefficients, so between samples the state follows the exact
map Sigma(t + h) = P Sigma(t) P^T + Q(h), P = e^{A h}.  The ring is
translation invariant: P and Q are block circulant, given by the 2 x 2
blocks P_q and Q_q of each Fourier mode (`mode_propagator`).  A
`FactoredState` Sigma = B + F^T F keeps that structure: its block-circulant
background maps mode by mode, B_q <- P_q B_q P_q^T + Q_q, and its factor
F <- F P^T row by row, one 2 x 2 product per mode of the rFFT over sites.
Every state built here is one: the Gibbs, uniform and stationary states
have an empty factor, and a hot spot adds its heating as F^T F.  The
stationary state solves the continuous Lyapunov equation mode by mode.

Site energies, currents and the on-site energy balance read bands
<z^i_k z^j_{k+d}> of Sigma (`_bands`), O(N r) each on a factored state, which
is never formed densely; they and `moment_rhs` take a dense Sigma as an array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chain import ModelMatrices, circulant, circulant_blocks, circulant_row_from_symbol
from .covariance import Array, FactoredState, check_psd, min_eig_ratio
# gibbs_covariance is looked up here by the benchmark's tracer (benchmarks/run.py)
from .diffusion import _diagonal_blocks, gibbs_covariance, mode_thermal_variances
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
    """Sampled evolution: either retained `FactoredState`s or observer outputs.

    `min_eig_ratios` is computed when read, by `covariance.min_eig_ratio`
    (`eigvalsh`) on each retained state's dense `sigma`; observer runs
    retain none, so theirs is empty.  `evolve` only checks each sample
    (`check_psd`) and keeps no ratio.
    """

    times: Array
    states: "list[FactoredState] | None" = None
    observations: "list | None" = None

    @property
    def min_eig_ratios(self) -> Array:
        return np.array([min_eig_ratio(s.sigma) for s in self.states or []])


def moment_rhs(sigma: Array, matrices: ModelMatrices) -> Array:
    """Right-hand side A Sigma + Sigma A^T + 2 D of the moment equation for a dense `sigma`."""
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


def mode_propagator(matrices: ModelMatrices, h: float) -> "tuple[Array, Array]":
    """Per-mode blocks P_q and Q_q, each of shape (N, 2, 2) in `mode_grid`
    order, of the exact map Sigma(t + h) = P Sigma(t) P^T + Q.

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
    return p[-1], q


def propagator(matrices: ModelMatrices, h: float) -> "tuple[Array, Array]":
    """Dense P and Q of the exact map: the block circulants of `mode_propagator`."""
    p, q = mode_propagator(matrices, h)
    return circulant_blocks(np.moveaxis(p, 0, -1)), circulant_blocks(np.moveaxis(q, 0, -1))


def _samples(state: FactoredState, matrices: ModelMatrices, dt: float, sample_steps):
    """The samples of a factored state: B_q <- P_q B_q P_q^T + Q_q for every
    mode, and F <- F P^T on the rFFT of F's rows over sites, modes 0..N/2.

    Each interval costs O(N r); each sample one inverse rFFT, O(N r log N).
    """
    n, t0 = state.n_sites, state.time
    maps = functools.cache(lambda steps: mode_propagator(matrices, steps * dt))
    # (mode, x or p, row) and contiguous, so that one 2 x 2 real product per
    # mode maps the real and imaginary parts of every row at once
    coeffs = np.ascontiguousarray(np.fft.rfft(state.factor.reshape(-1, 2, n), axis=-1).transpose(2, 1, 0))
    yield state
    for prev, i in zip([0] + sample_steps, sample_steps):
        p, q = maps(i - prev)
        coeffs = (p[: n // 2 + 1] @ coeffs.view(float)).view(complex)
        rows = np.ascontiguousarray(coeffs.transpose(2, 1, 0))
        factor = np.fft.irfft(rows, n, axis=-1).reshape(-1, 2 * n)
        state = FactoredState(p @ state.background @ p.transpose(0, 2, 1) + q, factor, t0 + i * dt)
        yield state


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
    `step_bound(matrices, dt_max)` = min(dt_max, 0.05/omega(pi), 0.05/lambda).
    The grid only places the samples: the initial state, every
    `sample_stride`-th grid point and the final one.  Each interval between
    samples is one exact map, built once per distinct interval length.  The
    state is mapped mode by mode (`mode_propagator`) and stays factored,
    O(N r log N) per sample with no dense matrix.  `state` must be a
    `FactoredState` (TypeError otherwise): an arbitrary PSD Sigma is
    `FactoredState(np.zeros((N, 2, 2)), L.T)`, with L its Cholesky factor.
    Samples are retained, or handed to `observer` whose return values are
    collected instead (use an observer for large N to avoid storing every
    sample).

    Every sample passes `check_psd` first, which raises PSDViolationError if
    the state has a non-finite entry or drops below -covariance.PSD_TOL times
    its spectral scale.  The check computes no ratio for a state it can
    certify; `Trajectory.min_eig_ratios` computes them from the retained
    states when read.
    """
    if not isinstance(state, FactoredState):
        raise TypeError(f"evolve takes a FactoredState, got {type(state).__name__}")
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

    times = []
    kept = []
    for sample in _samples(state, matrices, dt, sample_steps):
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
    the background blocks of a factored state with an empty factor.  Rejects
    a non-Hurwitz drift.
    """
    k, lam, dxx, dpp = matrices.mode_symbols
    if np.min(lam) <= 0.0:
        raise ValueError(
            f"drift is not Hurwitz: mode damping lambda + 2 gamma cos(q) reaches "
            f"{np.min(lam):.3e}"
        )
    blocks = _stationary_blocks(matrices.mass, k, lam, dxx, dpp)
    return FactoredState(blocks, np.zeros((0, 2 * len(k))))


def _bands(state: "Array | FactoredState", *wanted: "tuple[int, int, int]") -> "list[Array]":
    """<z^i_k z^j_{k+d}> over sites k, periodic in k, for each (i, j, d) in
    `wanted` with 0 <= d < N, z^0 = x and z^1 = p.

    A dense covariance gives them by index.  A factored state gives them as
    the background's row entry at offset d (one inverse FFT of its blocks)
    plus lagged dot products of the factor's columns, O(N r): `sigma` is
    never formed.  Each of the d sites whose partner k + d wraps around
    costs one dot call, cheaper than a second einsum for the small d read here.
    """
    if not isinstance(state, FactoredState):
        n = len(state) // 2
        k = np.arange(n)
        return [state[i * n + k, j * n + (k + d) % n] for i, j, d in wanted]
    n = state.n_sites
    rows = np.fft.ifft(state.background, axis=0).real  # rows[d][i, j]: entry (k, k + d) of block (i, j)
    z = state.factor.reshape(-1, 2, n)
    bands = []
    for i, j, d in wanted:
        band = np.empty(n)
        np.einsum("rk,rk->k", z[:, i, : n - d], z[:, j, d:], out=band[: n - d])
        for k in range(n - d, n):
            band[k] = z[:, i, k] @ z[:, j, k + d - n]
        band += rows[d, i, j]
        bands.append(band)
    return bands


def _over(band: Array, s: int) -> Array:
    """The band s sites over: band[k - s], periodic in k (np.roll, without its overhead)."""
    return np.concatenate((band[-s:], band[:-s]))


def site_observables(state: "Array | FactoredState", params: ChainParams) -> SiteObservables:
    """Per-site energy, current and energy density extracted from the state.

    E_k = <p_k^2>/2m + (m omega0^2/2 + xi) <x_k^2>
          - (xi/2)(<x_k x_{k+1}> + <x_k x_{k-1}>)
    J_k = (xi/2m)(<x_{k-1} p_k> - <x_k p_{k-1}>)

    The five bands come from `_bands`, the neighbour at k - 1 being the
    band one site over (`_over`), so a factored state is never formed densely.
    """
    m, om0, xi = params.mass, params.omega0, params.xi
    xx, pp, xx_up, xp_up, px_up = _bands(state, (0, 0, 0), (1, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1))
    energies = pp / (2.0 * m) + (m * om0**2 / 2.0 + xi) * xx - (xi / 2.0) * (xx_up + _over(xx_up, 1))
    currents = (xi / (2.0 * m)) * _over(xp_up - px_up, 1)
    return SiteObservables(energies, currents, energies / params.lattice_const, float(np.sum(energies)))


def total_energy(state: "Array | FactoredState", params: ChainParams) -> float:
    return site_observables(state, params).total_energy


def energy_balance_rhs(state: "Array | FactoredState", params: ChainParams,
                       matrices: ModelMatrices) -> Array:
    """Analytic dE_k/dt from the current state: the on-site energy equation.

    The grouped per-site balance: decay -2 lambda E_k, diffusion injection,
    minus the discrete current gradient J_{k+1} - J_k, plus the
    gamma-proportional neighbour terms.  When gamma != 0 the exact balance
    needs the next-nearest-neighbour correlation terms weighted by
    gamma * xi / 2 as well.  Friction and diffusion are read from `matrices`;
    the result equals E_k(A Sigma + Sigma A^T + 2 D) (`verify.exact_energy_rate`).
    It reads the x-x bands at offsets 0, 1, 2 and the p-p band at 1 (`_bands`).
    """
    xx, xx_up, xx_up2, pp_up = _bands(state, (0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 1, 1))
    obs = site_observables(state, params)
    m, om0, xi = params.mass, params.omega0, params.xi
    lam, gam, dxx = matrices.friction_on_site, matrices.friction_neighbour, matrices.diffusion_xx
    grad_j = _over(obs.currents, -1) - obs.currents
    out = (
        -2.0 * lam * obs.energies
        + matrices.diffusion_pp[0] / m
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

    The cold Gibbs state is the background B; the heating is the Gram
    matrix F^T F of a factor F with r = 2N rows.

    weights:
        Per-site envelope w_k in [0, 1] of the hot region.
    mode:
        "thermal" windows the full covariance difference Delta between the
        hot and cold Gibbs states, S Delta S with S = diag(sqrt(w), sqrt(w)):
        F = G S, with G the block circulant of the per-mode square roots of
        Delta (diagonal, nonnegative).  The heated region is locally thermal
        with flat per-mode energy weights.  "diagonal" adds only the
        single-site variance differences w_k * (dx^2, dp^2) to the diagonals:
        F is diagonal.
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
    # the variances grow with T; the clip keeps a last-bit rounding from a sqrt of < 0
    d_x, d_p = (np.maximum(c[1] - c[0], 0.0) for c in (c_x, c_p))
    n = params.n_sites
    if mode == "thermal":
        factor = np.zeros((2 * n, 2 * n))
        root = np.sqrt(w)
        factor[:n, :n] = circulant(circulant_row_from_symbol(np.sqrt(d_x))) * root
        factor[n:, n:] = circulant(circulant_row_from_symbol(np.sqrt(d_p))) * root
    else:
        factor = np.diag(np.sqrt(np.concatenate([w * np.mean(d_x), w * np.mean(d_p)])))
    return FactoredState(background, factor)
