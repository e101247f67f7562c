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


def min_eig_ratio(sigma: Array) -> float:
    """Min eigenvalue over max |eigenvalue| (0 for a zero matrix), from `eigvalsh`."""
    eig = np.linalg.eigvalsh(sigma)
    scale = np.max(np.abs(eig))
    return float(eig[0] / scale) if scale != 0.0 else 0.0


def _cholesky_certifies(sigma: Array, tol: float) -> bool:
    """True if a factorisation proves min eigenvalue >= -tol * max |eigenvalue|.

    With d = max diag(Sigma) <= max |eig| (each diagonal entry is a Rayleigh
    quotient), a Cholesky factorisation of Sigma + (tol d / 2) I that runs to
    completion bounds min eig below by -tol d / 2 - margin.  `margin` is the
    factorisation's backward error in trace form, gamma_{n+1} / (1 - gamma_{n+1})
    times trace, with two spare units of u for the rounding of the shifted
    diagonal and of the trace itself (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 10).  It is attempted only when margin
    <= tol d / 2 and d >= sqrt(tiny); below that, underflow could escape the
    bound.  Expects finite entries.
    """
    n = len(sigma)
    d = float(np.max(sigma.diagonal()))
    half = 0.5 * tol * d
    diag = sigma.diagonal() + half
    u = 0.5 * np.finfo(float).eps
    margin = (n + 3) * u / (1.0 - 2.0 * (n + 3) * u) * float(np.sum(diag))
    if not (np.sqrt(np.finfo(float).tiny) <= d and margin <= half < np.inf):
        return False
    shifted = sigma.copy()
    np.fill_diagonal(shifted, diag)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def check_psd(sigma: Array, tol: float = PSD_TOL, context: str = "") -> None:
    """Raise PSDViolationError if an entry is not finite, or if the min/max
    eigenvalue ratio (`min_eig_ratio`) is below -tol.

    A shifted Cholesky factorisation certifies most states without computing
    eigenvalues; `eigvalsh` decides the rest.  Both read the lower triangle.
    """
    where = f" ({context})" if context else ""
    finite = np.isfinite(sigma)
    if not finite.all():
        raise PSDViolationError(
            f"covariance matrix not PSD{where}: non-finite entries, "
            f"{sigma.size - np.count_nonzero(finite)} of {sigma.size}"
        )
    if _cholesky_certifies(sigma, tol):
        return
    ratio = min_eig_ratio(sigma)
    if ratio < -tol:
        raise PSDViolationError(
            f"covariance matrix not PSD{where}: min/max eigenvalue ratio {ratio:.3e} "
            f"below tolerance -{tol:.1e}"
        )
