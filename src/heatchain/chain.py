"""Dispersion relation and the Fourier-symbol model of the moment dynamics.

The ring is translation invariant, so every N x N block of the drift and of
the bath diffusion is a circulant, diagonal in the Fourier modes.
`ModelMatrices` holds the mass and the four blocks by their Fourier symbols
on the mode grid: the stiffness K_q = m omega0^2 + 4 xi sin^2(q/2), the
friction lambda_q = lambda + 2 gamma cos q and the diffusion symbols
D^xx_q, D^pp_q.  In the coordinate ordering (x_1..x_N, p_1..p_N) they make
up the drift and diffusion

    A = [[-Lambda, I/m], [-K, -Lambda]],    D = [[D^xx, 0], [0, D^pp]],

which the simulation reads only mode by mode; the dense A and D are
oracles, built by `heatchain.verify.dense_model`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from .params import ChainParams

if TYPE_CHECKING:  # pragma: no cover
    from .diffusion import DiffusionSet

Array = NDArray[np.float64]


def dispersion(params: ChainParams, q) -> "float | Array":
    """Phonon frequency omega(q) = sqrt(omega0^2 + (4 xi/m) sin^2(q/2)).

    `q` is the dimensionless wavenumber in [-pi, pi]; scalar or array.
    """
    q = np.asarray(q, dtype=float)
    w = np.sqrt(params.omega0**2 + (4.0 * params.xi / params.mass) * np.sin(q / 2.0) ** 2)
    return float(w) if w.ndim == 0 else w


def group_velocity(params: ChainParams, q) -> "float | Array":
    """Dimensionful group velocity a * d(omega)/dq.

    Equals a*(xi/m)*sin(q)/omega(q); at an acoustic zero mode (omega0 = 0,
    q = 0) the kink limit magnitude a*sqrt(xi/m) is returned.
    """
    q = np.asarray(q, dtype=float)
    w = np.asarray(dispersion(params, q), dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        v = params.lattice_const * (params.xi / params.mass) * np.sin(q) / w
    v = np.where(w > 0.0, v, params.sound_speed)
    return float(v) if v.ndim == 0 else v


def mode_grid(params: "ChainParams | ModelMatrices") -> Array:
    """The N wavenumbers q_n = 2 pi n / N of the ring, mapped to (-pi, pi]."""
    n = params.n_sites
    q = 2.0 * np.pi * np.arange(n) / n
    return np.where(q > np.pi, q - 2.0 * np.pi, q)


def circulant(first_row: Array) -> Array:
    """Symmetric circulant matrix C[k, j] = first_row[(j - k) mod N]."""
    n = len(first_row)
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return np.asarray(first_row, dtype=float)[idx]


def circulant_row_from_symbol(symbol: Array) -> Array:
    """First row of the circulant whose Fourier symbol is given on mode_grid order."""
    return np.fft.ifft(np.asarray(symbol, dtype=complex)).real


def circulant_blocks(symbols) -> Array:
    """The 2N x 2N matrix [[C_xx, C_xp], [C_px, C_pp]] of circulant blocks given
    by their Fourier symbols, a 2 x 2 nesting of length-N arrays."""
    return np.block([[circulant(circulant_row_from_symbol(s)) for s in row] for row in symbols])


@dataclass(frozen=True)
class ModelMatrices:
    """The linear moment equation d(Sigma)/dt = A Sigma + Sigma A^T + 2 D: the
    mass and the Fourier symbols, each of shape (N,) in `mode_grid` order, of
    the stiffness K, the friction Lambda and the two diffusion blocks."""

    mass: float
    stiffness: Array  # K_q
    friction: Array  # lambda_q
    diffusion_xx: Array  # D^xx_q
    diffusion_pp: Array  # D^pp_q

    @classmethod
    def of_chain(cls, params: ChainParams, diffusion_xx: Array, diffusion_pp: Array) -> "ModelMatrices":
        """The ring's stiffness and friction with the given diffusion symbols.

        K_q = m omega0^2 + 4 xi sin^2(q/2) = m omega(q)^2 has no q = 0
        cancellation, and lambda_q = lambda + 2 gamma cos q is exactly 0 at
        q = pi when 2 gamma = lambda.
        """
        q = mode_grid(params)
        return cls(params.mass, params.mass * params.omega0**2 + 4.0 * params.xi * np.sin(q / 2.0) ** 2,
                   params.lambda_fric + 2.0 * params.gamma_fric * np.cos(q), diffusion_xx, diffusion_pp)

    @property
    def n_sites(self) -> int:
        return len(self.stiffness)

    @property
    def omega_max(self) -> float:
        """Fastest mode frequency, sqrt(max K_q / m) (0 for a static chain)."""
        return float(np.sqrt(max(float(np.max(self.stiffness)), 0.0) / self.mass))


def build_matrices(params: ChainParams, diff: "DiffusionSet") -> ModelMatrices:
    """Model with nearest-neighbour-truncated diffusion blocks.

    D^xx keeps exactly the on-site and nearest-neighbour coefficients of
    `diff` and D^pp = d_pp * I.  The truncation can lose positive
    semidefiniteness when the underlying kernel is sharply peaked in q (soft
    pinning at low temperature); a warning is logged when the symbol
    d_xx + 2 d_ex cos(q) dips negative.  For a diffusion matrix that makes
    the finite-N Gibbs state exactly stationary use
    :func:`heatchain.diffusion.thermal_matrices` instead.
    """
    if diff.d_xx - 2.0 * abs(diff.d_ex) < 0.0:
        logging.getLogger("heatchain").warning(
            "truncated diffusion block is indefinite (d_xx = %g, d_ex = %g)", diff.d_xx, diff.d_ex
        )
    q = mode_grid(params)
    return ModelMatrices.of_chain(params, diff.d_xx + 2.0 * diff.d_ex * np.cos(q), np.full(len(q), diff.d_pp))
