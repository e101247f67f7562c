"""Second-moment state of the chain, the symmetric 2N x 2N covariance matrix
Sigma ordered (x_1..x_N, p_1..p_N): a block-circulant background plus a Gram
factor (`FactoredState`) for every state the dynamics builds or evolves, or a
plain dense array, such as the moment equation's right-hand side (built, with
the rest of the dense model, by the oracles of `heatchain.verify`)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .chain import circulant_blocks

Array = NDArray[np.float64]

PSD_TOL = 1e-10
DEVIATION_COLUMNS = 128  # columns per block of `FactoredState.max_deviation`


class PSDViolationError(RuntimeError):
    """Covariance lost positive semidefiniteness beyond tolerance."""


@dataclass
class FactoredState:
    """Second moments Sigma = B + F^T F at a time stamp, never stored densely.

    `background` holds the Fourier blocks B_q of the block circulant B, shape
    (N, 2, 2) in `mode_grid` order: B_q[0, 0], B_q[1, 1] and B_q[0, 1] are the
    symbols of its x-x, p-p and x-p circulants.  `factor` is a real (r, 2N)
    matrix F in the coordinate order (x_1..x_N, p_1..p_N); r = 0 leaves B
    alone.  `sigma` forms the dense matrix each time it is read.

    B is read as a real symmetric matrix, whose blocks are symmetric and even
    in q, so the constructor keeps that part of the blocks given, E + E^T over
    2 with E = (B_q + B_{-q}) / 2.  Blocks that have it already keep every
    bit.  The spectrum of B is then the union of those of the B_q.
    """

    background: Array
    factor: Array
    time: float = 0.0

    def __post_init__(self) -> None:
        b = np.asarray(self.background, dtype=float)
        f = np.asarray(self.factor, dtype=float)
        n = len(b)
        if b.shape != (n, 2, 2) or f.ndim != 2 or f.shape[1] != 2 * n:
            raise ValueError(f"background must have shape (N, 2, 2) and factor (r, 2N), "
                             f"got {b.shape} and {f.shape}")
        even = 0.5 * (b + b[-np.arange(n)])  # b[-k] is the block of mode -q_k
        self.background = 0.5 * (even + even.swapaxes(-1, -2))
        self.factor = f

    @property
    def n_sites(self) -> int:
        return len(self.background)

    @property
    def sigma(self) -> Array:
        background = circulant_blocks(np.moveaxis(self.background, 0, -1))
        return symmetrize(background + self.factor.T @ self.factor)

    def max_deviation(self, other: "FactoredState") -> float:
        """max |Sigma - Sigma_other| over the entries, without forming a 2N x 2N
        matrix: DEVIATION_COLUMNS columns at a time, each the circulant rows of
        B - B_other read at its offsets plus those columns of F^T F - G^T G."""
        n = self.n_sites
        rows = np.fft.ifft(np.moveaxis(self.background - other.background, 0, -1)).real  # (2, 2, N)
        worst = 0.0
        for start in range(0, 2 * n, DEVIATION_COLUMNS):
            cols = np.arange(start, min(start + DEVIATION_COLUMNS, 2 * n))
            block, j = np.divmod(cols, n)
            offset = (j - np.arange(n)[:, None]) % n  # circulant C[k, j] = row[(j - k) mod N]
            part = np.concatenate([rows[0, block, offset], rows[1, block, offset]])
            part += self.factor.T @ self.factor[:, cols] - other.factor.T @ other.factor[:, cols]
            worst = max(worst, float(np.max(np.abs(part))))
        return worst


def symmetrize(sigma: Array) -> Array:
    return 0.5 * (sigma + sigma.T)


def min_eig_ratio(sigma: Array) -> float:
    """Min eigenvalue over max |eigenvalue| (0 for a zero matrix), from `eigvalsh`."""
    eig = np.linalg.eigvalsh(sigma)
    scale = np.max(np.abs(eig))
    return float(eig[0] / scale) if scale != 0.0 else 0.0


def _blocks_certify(blocks: Array, tol: float) -> bool:
    """True if the background blocks alone prove min eigenvalue >= -tol * max
    |eigenvalue| for B + F^T F, whatever the factor F.

    The blocks are symmetric and even in q (`FactoredState`), so the spectrum
    of B is the union of theirs.  Let D be the largest diagonal entry of any
    block.  Each is a Rayleigh quotient of its block, so D <= lambda_max(B),
    and lambda_max(B) <= lambda_max(B + F^T F) <= rho(B + F^T F) because F^T F
    is PSD (Weyl).  The smaller eigenvalue of each block [[a, b], [b, c]] is
    evaluated as (a/2 + c/2) - hypot(a/2 - c/2, b).  With every entry at most
    D in magnitude that value is off by at most 8 u D: u D for the half-sum
    and for the half-difference, 2 u relative to hypot's result of at most
    sqrt(2) D plus its input's error, (1 + sqrt(2)) u D for the subtraction.
    The test passes when every value is >= -tol D / 2 and 16 u D <= tol D / 2,
    so lambda_min(B + F^T F) >= lambda_min(B) >= -tol D >= -tol rho(B + F^T F).
    It is attempted only for D >= sqrt(tiny), where underflow stays far below
    u D.  Expects finite entries.
    """
    a, b, c = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 1]
    d = float(np.max(np.maximum(a, c)))
    half = 0.5 * tol * d
    u = 0.5 * np.finfo(float).eps
    if not (np.sqrt(np.finfo(float).tiny) <= d and 16.0 * u * d <= half
            and np.max(np.abs(blocks)) <= d):
        return False
    low = (0.5 * a + 0.5 * c) - np.hypot(0.5 * a - 0.5 * c, b)
    return bool(np.min(low) >= -half)


def check_psd(state: "Array | FactoredState", context: str = "") -> None:
    """Raise PSDViolationError if an entry is not finite, or if the min/max
    eigenvalue ratio (`min_eig_ratio`) is below -PSD_TOL.

    `state` is a `FactoredState` or a dense covariance matrix.  A factored
    state: its background blocks certify it in O(N) (`_blocks_certify`);
    the dense rule on `state.sigma` decides the rest.  A dense matrix: the
    ratio from `eigvalsh`, which reads the lower triangle.
    """
    where = f" ({context})" if context else ""
    arrays = (state.background, state.factor) if isinstance(state, FactoredState) else (state,)
    # min and max are finite exactly when every entry is (a NaN propagates):
    # nothing the size of the state is allocated unless an entry is not finite
    if not all(np.isfinite(a.min(initial=0.0)) and np.isfinite(a.max(initial=0.0)) for a in arrays):
        bad = sum(a.size - np.count_nonzero(np.isfinite(a)) for a in arrays)
        raise PSDViolationError(
            f"covariance matrix not PSD{where}: non-finite entries, "
            f"{bad} of {sum(a.size for a in arrays)}"
        )
    if isinstance(state, FactoredState):
        if not _blocks_certify(state.background, PSD_TOL):
            check_psd(state.sigma, context)
        return
    ratio = min_eig_ratio(state)
    if ratio < -PSD_TOL:
        raise PSDViolationError(
            f"covariance matrix not PSD{where}: min/max eigenvalue ratio {ratio:.3e} "
            f"below tolerance -{PSD_TOL:.1e}"
        )
