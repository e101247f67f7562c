"""Dispersion relation and the circulant model of the moment dynamics.

The ring is translation invariant, so every N x N block of the drift and of
the bath diffusion is a circulant fixed by its first row.  `ModelMatrices`
holds those rows (stiffness K: diagonal m*omega0^2 + 2*xi, off-diagonal
-xi; friction Lambda: diagonal lambda, off-diagonal gamma; the x-x and p-p
diffusion blocks) together with the mass.  In the coordinate ordering
(x_1..x_N, p_1..p_N) the dense drift and diffusion are derived views:

    A = [[-Lambda, I/m], [-K, -Lambda]],    D = [[D^xx, 0], [0, D^pp]].

A block's Fourier symbol over the mode grid is `circulant_symbol(row)`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
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
    return np.fft.ifft(np.asarray(symbol, dtype=complex)).real


def circulant_symbol(row: Array) -> Array:
    """Fourier symbol (eigenvalues on the mode grid) of the circulant with first row `row`."""
    return np.fft.fft(row).real


def block_circulant(row_xx: Array, row_pp: Array, row_xp: "Array | None" = None) -> Array:
    """The 2N x 2N matrix [[C_xx, C_xp], [C_xp^T, C_pp]] of circulant blocks.

    Each block is given by its first row; the cross block defaults to zero.
    """
    xp = circulant(np.zeros(len(row_xx)) if row_xp is None else row_xp)
    return np.block([[circulant(row_xx), xp], [xp.T, circulant(row_pp)]])


def _neighbour_row(n_sites: int, on_site: float, neighbour: float) -> Array:
    """First row of the nearest-neighbour circulant: `on_site` at 0, `neighbour` at +-1."""
    row = np.zeros(n_sites)
    row[0] = on_site
    row[1] = neighbour
    row[-1] = neighbour
    return row


def stiffness_row(params: ChainParams) -> Array:
    """First row of the stiffness K: m omega0^2 + 2 xi on site, -xi to each neighbour."""
    return _neighbour_row(params.n_sites, params.mass * params.omega0**2 + 2.0 * params.xi, -params.xi)


def friction_row(params: ChainParams) -> Array:
    """First row of the friction Lambda: lambda on site, gamma to each neighbour."""
    return _neighbour_row(params.n_sites, params.lambda_fric, params.gamma_fric)


@dataclass(frozen=True)
class ModelMatrices:
    """The linear moment equation d(Sigma)/dt = A Sigma + Sigma A^T + 2 D: the
    mass and the first rows of the four circulant blocks, with the dense
    2N x 2N `drift` A and `diffusion` D built on first use."""

    mass: float
    stiffness: Array
    friction: Array
    diffusion_xx: Array
    diffusion_pp: Array

    @classmethod
    def of_chain(cls, params: ChainParams, diffusion_xx: Array, diffusion_pp: Array) -> "ModelMatrices":
        """The ring's stiffness and friction rows with the given diffusion rows."""
        return cls(params.mass, stiffness_row(params), friction_row(params), diffusion_xx, diffusion_pp)

    @property
    def n_sites(self) -> int:
        return len(self.stiffness)

    @property
    def omega_max(self) -> float:
        """Fastest mode frequency, sqrt(max K-symbol / m) (0 for a static chain)."""
        return float(np.sqrt(max(float(np.max(circulant_symbol(self.stiffness))), 0.0) / self.mass))

    @cached_property
    def drift(self) -> Array:
        lam = circulant(self.friction)
        eye = np.eye(self.n_sites)
        return np.block([[-lam, eye / self.mass], [-circulant(self.stiffness), -lam]])

    @cached_property
    def diffusion(self) -> Array:
        return block_circulant(self.diffusion_xx, self.diffusion_pp)


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
    n = params.n_sites
    return ModelMatrices.of_chain(
        params, _neighbour_row(n, diff.d_xx, diff.d_ex), _neighbour_row(n, diff.d_pp, 0.0))
