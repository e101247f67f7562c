"""Dispersion relation and the circulant matrices generating the moment dynamics.

The drift matrix uses the coordinate ordering (x_1..x_N, p_1..p_N), so all
four N x N blocks are explicit circulants:

    A = [[-Lambda, I/m], [-K, -Lambda]]

with stiffness K (diagonal m*omega0^2 + 2*xi, off-diagonal -xi) and friction
Lambda (diagonal lambda, off-diagonal gamma).
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


def mode_grid(params: ChainParams) -> Array:
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
    row = np.fft.ifft(np.asarray(symbol, dtype=complex)).real
    return row


def circulant_symbol(block: Array) -> Array:
    """Fourier symbol (eigenvalues on the mode grid) of a circulant block."""
    return np.fft.fft(block[0]).real


def stiffness_matrix(params: ChainParams) -> Array:
    row = np.zeros(params.n_sites)
    row[0] = params.mass * params.omega0**2 + 2.0 * params.xi
    row[1] = -params.xi
    row[-1] = -params.xi
    return circulant(row)


def friction_matrix(params: ChainParams) -> Array:
    row = np.zeros(params.n_sites)
    row[0] = params.lambda_fric
    row[1] = params.gamma_fric
    row[-1] = params.gamma_fric
    return circulant(row)


def drift_matrix(params: ChainParams) -> Array:
    n = params.n_sites
    k = stiffness_matrix(params)
    lam = friction_matrix(params)
    eye = np.eye(n)
    return np.block([[-lam, eye / params.mass], [-k, -lam]])


@dataclass(frozen=True)
class ModelMatrices:
    """Drift and diffusion matrices of the linear moment equation
    d(Sigma)/dt = A Sigma + Sigma A^T + 2 D, plus the generating circulants."""

    drift: Array
    diffusion: Array
    stiffness: Array
    friction: Array

    @property
    def n_sites(self) -> int:
        return self.stiffness.shape[0]

    @property
    def diffusion_xx(self) -> Array:
        n = self.n_sites
        return self.diffusion[:n, :n]

    @property
    def diffusion_pp(self) -> Array:
        n = self.n_sites
        return self.diffusion[n:, n:]


def assemble_diffusion(n_sites: int, d_xx: float, d_pp: float, d_ex: float) -> Array:
    """Nearest-neighbour diffusion matrix: D^xx circulant with diagonal d_xx
    and first off-diagonals d_ex, D^pp = d_pp * I, zero cross block.

    The truncation can lose positive semidefiniteness when the underlying
    kernel is sharply peaked in q (soft pinning at low temperature); a
    warning is logged when the circulant symbol d_xx + 2 d_ex cos(q) dips
    negative.  The full-circulant thermal assembly never does.
    """
    if d_xx - 2.0 * abs(d_ex) < 0.0:
        logging.getLogger("heatchain").warning(
            "truncated diffusion block is indefinite (d_xx = %g, d_ex = %g)", d_xx, d_ex
        )
    row = np.zeros(n_sites)
    row[0] = d_xx
    row[1] = d_ex
    row[-1] = d_ex
    dxx = circulant(row)
    dpp = d_pp * np.eye(n_sites)
    z = np.zeros((n_sites, n_sites))
    return np.block([[dxx, z], [z, dpp]])


def build_matrices(params: ChainParams, diff: "DiffusionSet") -> ModelMatrices:
    """Assemble drift and nearest-neighbour-truncated diffusion matrices.

    The diffusion blocks keep exactly the on-site and nearest-neighbour
    coefficients of `diff`.  For a diffusion matrix that makes the finite-N
    Gibbs state exactly stationary use
    :func:`heatchain.diffusion.thermal_matrices` instead.
    """
    d = assemble_diffusion(params.n_sites, diff.d_xx, diff.d_pp, diff.d_ex)
    return ModelMatrices(
        drift=drift_matrix(params),
        diffusion=d,
        stiffness=stiffness_matrix(params),
        friction=friction_matrix(params),
    )
