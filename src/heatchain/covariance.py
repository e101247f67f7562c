"""Second-moment state of the chain: the symmetric 2N x 2N covariance matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

Array = NDArray[np.float64]

PSD_TOL = 1e-10


class PSDViolationError(RuntimeError):
    """Covariance lost positive semidefiniteness beyond tolerance."""


@dataclass
class CovarianceState:
    """Symmetrized second moments at a time stamp.

    `sigma` is ordered (x_1..x_N, p_1..p_N): the x-x block sits top-left,
    p-p bottom-right, and the x-p cross block top-right with entries
    <x_k p_j> (symmetrized products).
    """

    sigma: Array
    time: float = 0.0

    @property
    def n_sites(self) -> int:
        return self.sigma.shape[0] // 2

    @property
    def xx(self) -> Array:
        n = self.n_sites
        return self.sigma[:n, :n]

    @property
    def pp(self) -> Array:
        n = self.n_sites
        return self.sigma[n:, n:]

    @property
    def xp(self) -> Array:
        n = self.n_sites
        return self.sigma[:n, n:]

    def copy(self) -> "CovarianceState":
        return CovarianceState(self.sigma.copy(), self.time)


def symmetrize(sigma: Array) -> Array:
    return 0.5 * (sigma + sigma.T)


def check_psd(sigma: Array, tol: float = PSD_TOL, context: str = "") -> float:
    """Min eigenvalue over max |eigenvalue| (0 for a zero matrix); raise
    PSDViolationError if below -tol."""
    eig = np.linalg.eigvalsh(sigma)
    scale = np.max(np.abs(eig))
    ratio = float(eig[0] / scale) if scale != 0.0 else 0.0
    if ratio < -tol:
        where = f" ({context})" if context else ""
        raise PSDViolationError(
            f"covariance matrix not PSD{where}: min/max eigenvalue ratio {ratio:.3e} "
            f"below tolerance -{tol:.1e}"
        )
    return ratio

