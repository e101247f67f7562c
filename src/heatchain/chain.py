"""Dispersion relation and the circulant model of the moment dynamics.

The ring is translation invariant, so every N x N block of the drift and of
the bath diffusion is a circulant.  `ModelMatrices` holds the mass, the
stiffness K (diagonal m*omega0^2 + 2*xi, off-diagonal -xi) and friction
Lambda (diagonal lambda, off-diagonal gamma) by their parameters, and the
x-x and p-p diffusion blocks by their first rows.  In the coordinate
ordering (x_1..x_N, p_1..p_N) the dense drift and diffusion are derived views:

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


def circulant_symbol(row: Array) -> Array:
    """Fourier symbol (eigenvalues on the mode grid) of the circulant with first row `row`."""
    return np.fft.fft(row).real


def circulant_blocks(symbols) -> Array:
    """The 2N x 2N matrix [[C_xx, C_xp], [C_px, C_pp]] of circulant blocks given
    by their Fourier symbols, a 2 x 2 nesting of length-N arrays."""
    return np.block([[circulant(circulant_row_from_symbol(s)) for s in row] for row in symbols])


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


@dataclass(frozen=True)
class ModelMatrices:
    """The linear moment equation d(Sigma)/dt = A Sigma + Sigma A^T + 2 D: the
    mass, the stiffness and friction parameters and the first rows of the two
    diffusion blocks, with the mode symbols and the dense 2N x 2N `drift` A
    and `diffusion` D built on first use."""

    mass: float
    pinning: float  # m omega0^2
    coupling: float  # xi
    friction_on_site: float  # lambda
    friction_neighbour: float  # gamma
    diffusion_xx: Array
    diffusion_pp: Array

    @classmethod
    def of_chain(cls, params: ChainParams, diffusion_xx: Array, diffusion_pp: Array) -> "ModelMatrices":
        """The ring's stiffness and friction with the given diffusion rows."""
        return cls(params.mass, params.mass * params.omega0**2, params.xi,
                   params.lambda_fric, params.gamma_fric, diffusion_xx, diffusion_pp)

    @property
    def n_sites(self) -> int:
        return len(self.diffusion_xx)

    @cached_property
    def mode_symbols(self) -> "tuple[Array, Array, Array, Array]":
        """Fourier symbols (K_q, lambda_q, D^xx_q, D^pp_q) over the mode grid.

        K_q = m omega0^2 + 4 xi sin^2(q/2) = m omega(q)^2 has no q = 0
        cancellation, and lambda_q = lambda + 2 gamma cos q is exactly 0 at
        q = pi when 2 gamma = lambda.
        """
        q = mode_grid(self)
        return (self.pinning + 4.0 * self.coupling * np.sin(q / 2.0) ** 2,
                self.friction_on_site + 2.0 * self.friction_neighbour * np.cos(q),
                circulant_symbol(self.diffusion_xx), circulant_symbol(self.diffusion_pp))

    @property
    def omega_max(self) -> float:
        """Fastest mode frequency, sqrt(max K_q / m) (0 for a static chain)."""
        return float(np.sqrt(max(float(np.max(self.mode_symbols[0])), 0.0) / self.mass))

    @cached_property
    def drift(self) -> Array:
        n = self.n_sites
        lam = circulant(_neighbour_row(n, self.friction_on_site, self.friction_neighbour))
        stiff = circulant(_neighbour_row(n, self.pinning + 2.0 * self.coupling, -self.coupling))
        return np.block([[-lam, np.eye(n) / self.mass], [-stiff, -lam]])

    @cached_property
    def diffusion(self) -> Array:
        zero = np.zeros((self.n_sites, self.n_sites))
        return np.block([[circulant(self.diffusion_xx), zero], [zero, circulant(self.diffusion_pp)]])


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
