"""Second-moment state of the chain, the symmetric 2N x 2N covariance matrix
Sigma ordered (x_1..x_N, p_1..p_N): a block-circulant background plus a mapped
heating (`FactoredState`) for every state the dynamics builds or evolves, or a
plain dense array, such as the moment equation's right-hand side (built, with
the rest of the dense model, by the oracles of `heatchain.verify`).

This module alone knows how a heating's Fourier Gram is built (`FourierGram`),
stored and read: a factored state's dense `sigma`, its `max_deviation` and the
site bands that the observables are built from (`FactoredState.bands`)."""

from __future__ import annotations

import functools
import math
from dataclasses import KW_ONLY, dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view
from numpy.typing import NDArray

from .chain import circulant_blocks

Array = NDArray[np.float64]

PSD_TOL = 1e-10
DEVIATION_OFFSETS = 128  # offsets m per block of `FactoredState.max_deviation`
# multiply-adds per matmul of a band read (`FactoredState.bands`).  OpenBLAS hands a larger
# matmul (or a dot product of over 10^4 entries) to its threads, whose spinning after the call
# halved the speed of the elementwise steps that follow on a 2-vCPU Xeon host (compare_n128:
# 0.31 against 0.60 ms per band read), so the band read and the Gram's build stay below both
_MATMUL_MACS = 2**16
UNIT_ROUNDOFF = 0.5 * np.finfo(float).eps
PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))  # the (x, p) part pairs of a 2N x 2N matrix


class PSDViolationError(RuntimeError):
    """Covariance lost positive semidefiniteness beyond tolerance."""


def fft_rounding(n: int) -> float:
    """eta(N) = 8 u ceil(log2 2N): a bound on the normwise relative error of one
    length-N FFT.  Radix 2 gives log2(N) (mu + gamma_4 (sqrt 2 + mu)), about
    6.7 u log2 N with twiddle factors good to mu ~ u (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 24.2); the extra stage in
    log2 2N covers a mixed-radix or Bluestein length."""
    return 8.0 * UNIT_ROUNDOFF * math.ceil(math.log2(2 * n))


def _row_blocks(n: int, width: int = 1) -> "list[slice]":
    """The rows s = 0..N/2 of a `FourierGram` in near-equal blocks, each of
    whose mapped rows, 2N entries a row, times `width` columns stays within
    _MATMUL_MACS (a block's `_left` map is then at most 16 _MATMUL_MACS bytes)."""
    half = n // 2 + 1
    count = -(-half // max(1, _MATMUL_MACS // (2 * n * width)))
    step = -(-half // count)
    return [slice(lo, min(lo + step, half)) for lo in range(0, half, step)]


def _transfer_hankel(transfer: Array) -> np.ndarray:
    """The zero-copy Hankel view [i, a, s, v] = T[(s + v) mod N, i, a] of the
    per-mode blocks T_q, shape (N, 2, 2), for rows s = 0..N/2: contiguous in v."""
    n = len(transfer)
    ring = np.empty((2, 2, n + n // 2))  # [i, a, u] = T[u mod N, i, a]
    ring[..., :n] = transfer.transpose(1, 2, 0)
    ring[..., n:] = ring[..., : n // 2]
    return as_strided(ring, (2, 2, n // 2 + 1, n), ring.strides + ring.strides[-1:], writeable=False)


@dataclass(frozen=True, eq=False)
class FourierGram:
    """A heating H0, a real symmetric 2N x 2N matrix, PSD up to rounding, by
    the two-sided DFT of each N x N block H0_ab (z^0 = x, z^1 = p),

        H_ab[q, q'] = sum_kl e^{-iqk} H0_ab[k, l] e^{iq'l},

    stored skewed: `skewed` maps each pair (a, b) that H0 holds to
    K_ab[s, v] = H_ab[(s + v) mod N, v], complex, rows s = 0..N/2 of the N
    columns v; the other pairs are zero.  H0 is real, so row N - s is row s
    conjugated with v reversed.  With the diagonal layout
    E_ab[k, m] = H0_ab[k, (k - m) mod N], K_ab is the rFFT of E_ab over k and
    then its FFT over m (`of_window`, `of_factor`).

    `bound` is an eps0 with H0 >= -eps0 I, for the matrix that the stored
    K_ab represent, and is finite exactly when every E_ab entry was, short of
    an overflow of its Frobenius norm.  The diagonal layouts come from a PSD
    matrix within `build_error` in the 2-norm (given by each construction).
    The two transforms move K in the Frobenius norm by at most
    2 eta(N) ||K||_F to first order (`fft_rounding`: eta ||K||_F for the FFT,
    sqrt(N) eta ||rFFT E||_F = eta ||K||_F for the rFFT before it).  The rows
    s > N/2 double that at most, and the 2-D Parseval identity
    ||H||_F = N ||H0||_F turns it into 2 sqrt(2) eta ||E||_F in the 2-norm of
    H0, which 4 eta(N) ||E||_F covers with the higher orders.  So

        eps0 = build_error + 4 eta(N) ||E||_F,  ||E||_F^2 = sum_ab ||E_ab||_F^2.

    A hot spot on the compare_n128 chain reads eps0 = 8.7e-10, 1.1e-12 of its
    largest entry and 4.7e-14 of its largest eigenvalue.
    """

    skewed: "dict[tuple[int, int], np.ndarray]"
    bound: float

    @classmethod
    def _of_diagonals(cls, diagonals, build_error: float = 0.0) -> "FourierGram":
        """From ((a, b), E_ab) pairs, each E_ab real (N, N), which may be
        yielded one at a time so that only one is alive."""
        skewed, squares, n = {}, 0.0, 0
        for pair, layout in diagonals:
            n = len(layout)
            squares += float(np.einsum("km,km->", layout, layout))  # no BLAS dot: see _MATMUL_MACS
            spectrum = np.fft.rfft(layout, axis=0)
            del layout
            skewed[pair] = np.fft.fft(spectrum, axis=1, out=spectrum)  # out=: NumPy 2.0
        return cls(skewed, build_error + 4.0 * fft_rounding(n) * math.sqrt(squares))

    @classmethod
    def of_window(cls, root: Array, rows: "list[Array]", build_error: float = 0.0) -> "FourierGram":
        """The window H0_aa = S C_a S of the parts a = x, p, S = diag(root) and C_a the
        symmetric circulant C_a[k, l] = rows[a][(l - k) mod N], one part's diagonal layout
        alive at a time (`window_bytes`); `build_error` is the caller's, for the rows."""
        n = len(root)
        # root[(k - m) mod N] at [k, m], a view: the reversed ring read N - 1 - k sites on
        shifted = sliding_window_view(np.concatenate((root, root))[::-1], n)[n - 1::-1]

        def layouts():  # E_aa[k, m] = H0_aa[k, (k - m) mod N]
            for a, row in enumerate(rows):
                layout = np.multiply.outer(root, row[-np.arange(n)])
                layout *= shifted
                yield (a, a), layout

        return cls._of_diagonals(layouts(), build_error)

    @staticmethod
    def window_bytes(n: int) -> "tuple[int, str]":
        """The fewest bytes a window's heating (`of_window`) holds at once at N = n, and what:
        its Gram and one N x N float array, a part's layout during the build or a block of
        `FactoredState.max_deviation` (tracemalloc read 3.08 N^2 floats for compare and
        3.64 for relax at N = 1024, the Gram alone 2.02)."""
        return (2 * 16 * (n // 2 + 1) * n + 8 * n**2,
                "the heating's Fourier Gram, 2 part pairs of (N/2 + 1) x N complex, and an N x N float array")

    @classmethod
    def of_factor(cls, factor: Array) -> "FourierGram | None":
        """H0 = F^T F of a real (r, 2N) factor, over the pairs of the parts,
        x (the first N columns) or p (the last N), that F holds; None for an
        all-zero or empty F.  fl(F^T F) is within gamma_r ||F||_F^2 of F^T F
        in the 2-norm, gamma_r = r u / (1 - r u)."""
        factor = np.asarray(factor, dtype=float)
        if factor.ndim != 2 or factor.shape[1] % 2:
            raise ValueError(f"factor must have shape (r, 2N), got {factor.shape}")
        r, n = factor.shape[0], factor.shape[1] // 2
        held = [a for a in (0, 1) if factor[:, a * n:(a + 1) * n].any()]
        if not held:
            return None
        skew = (np.arange(n)[:, None] - np.arange(n)) % n  # E[k, m] = H0[k, (k - m) mod N]
        gamma = r * UNIT_ROUNDOFF / (1.0 - r * UNIT_ROUNDOFF)
        with np.errstate(invalid="ignore"):  # a non-finite F leaves a non-finite bound (`check_psd`)
            gram = factor.T @ factor
            layouts = (((a, b), np.take_along_axis(gram[a * n:(a + 1) * n, b * n:(b + 1) * n], skew, axis=1))
                       for a in held for b in held)
            return cls._of_diagonals(layouts, gamma * float(np.vdot(factor, factor)))

    def _left(self, hankel: np.ndarray, rows: slice, i: int) -> np.ndarray:
        """Y[s, b, v] = sum_a T_{s+v}[i, a] K_ab[s, v] for the rows s in
        `rows`, shape (rows, 2, N) complex: part i of H0 mapped on its left by
        P, the block circulant of the per-mode blocks T_q, read through their
        `_transfer_hankel`."""
        block = hankel[i, :, rows]
        out = np.empty((block.shape[1], 2, block.shape[2]), dtype=complex)
        written = set()
        for (a, b), skewed in self.skewed.items():
            if b in written:
                out[:, b] += block[a] * skewed[rows]
            else:
                np.multiply(block[a], skewed[rows], out=out[:, b])
                written.add(b)
        for b in {0, 1} - written:
            out[:, b] = 0.0
        return out


@functools.lru_cache(maxsize=8)
def _band_plan(n: int, wanted: "tuple[tuple[int, int, int], ...]") -> tuple:
    """The (i, j, d) of `wanted` as three index arrays, and for each part i
    that they read: (i, the indices of its bands in `wanted`, their j, their
    e^{-2 pi i v d / N} / N at [v, band])."""
    i, j, d = np.array(wanted).T
    parts = [(part, np.flatnonzero(i == part)) for part in (0, 1)]
    plan = (i, j, d), [(part, cols, j[cols], np.exp(-2j * np.pi / n * (np.outer(np.arange(n), d[cols]) % n)) / n)
                       for part, cols in parts if cols.size]
    for array in (i, j, d, *(a for group in plan[1] for a in group[1:])):
        array.flags.writeable = False  # shared by every caller of the cache
    return plan


@dataclass
class FactoredState:
    """Second moments Sigma = B + P H0 P^T at a time stamp, never stored densely.

    `background` holds the Fourier blocks B_q of the block circulant B, shape
    (N, 2, 2) in `mode_grid` order: B_q[0, 0], B_q[1, 1] and B_q[0, 1] are the
    symbols of its x-x, p-p and x-p circulants.  `heating` is H0, the heating
    of the start, as its `FourierGram` (None for none), which the samples of a
    run share; a start H0 = F^T F is `heating=FourierGram.of_factor(F)`.
    `transfer` holds the blocks T_q of the block circulant P, the map since
    the start, shape (N, 2, 2) in `mode_grid` order, real and even in q; None
    reads as the identity.  `sigma` forms the dense matrix each time it is
    read; `bands` reads the site bands without it.

    B is read as a real symmetric matrix, whose blocks are symmetric and even
    in q, so the constructor keeps that part of the blocks given, E + E^T over
    2 with E = (B_q + B_{-q}) / 2.  Blocks that have it already keep every
    bit.  The spectrum of B is then the union of those of the B_q.
    """

    background: Array
    _: KW_ONLY
    time: float = 0.0
    heating: "FourierGram | None" = None
    transfer: "Array | None" = None

    def __post_init__(self) -> None:
        b = np.asarray(self.background, dtype=float)
        n = len(b)
        if b.shape != (n, 2, 2):
            raise ValueError(f"background must have shape (N, 2, 2), got {b.shape}")
        if self.transfer is None:
            self.transfer = np.broadcast_to(np.eye(2), (n, 2, 2))
        if self.transfer.shape != (n, 2, 2):
            raise ValueError(f"transfer must have shape ({n}, 2, 2), got {self.transfer.shape}")
        even = 0.5 * (b + b[-np.arange(n)])  # b[-k] is the block of mode -q_k
        self.background = 0.5 * (even + even.swapaxes(-1, -2))

    @property
    def n_sites(self) -> int:
        return len(self.background)

    def _diagonals(self, i: int, j: int, minus: "FactoredState | None" = None) -> np.ndarray:
        """The (i, j) block of P H0 P^T, less that of `minus`, in the diagonal
        layout E[k, m] = (P H0 P^T)_ij[k, (k - m) mod N] = irfft_s(X[:, m])[k]:
        returns X, shape (N/2 + 1, N), the inverse FFT over v of
        Z[s, v] = sum_b Y[s, b, v] T_v[j, b] (`FourierGram._left`), built
        in `_row_blocks`."""
        n = self.n_sites
        out = np.empty((n // 2 + 1, n), dtype=complex)
        heated = [(state, _transfer_hankel(state.transfer), sign) for state, sign in ((self, 1.0), (minus, -1.0))
                  if state is not None and state.heating is not None]
        for rows in _row_blocks(n):
            z = np.zeros((rows.stop - rows.start, n), dtype=complex)
            for state, hankel, sign in heated:
                z += sign * np.einsum("sbv,vb->sv", state.heating._left(hankel, rows, i), state.transfer[:, j])
            out[rows] = np.fft.ifft(z, axis=-1)
        return out

    @property
    def sigma(self) -> Array:
        n = self.n_sites
        dense = circulant_blocks(np.moveaxis(self.background, 0, -1))
        if self.heating is not None:
            skew = (np.arange(n)[:, None] - np.arange(n)) % n  # Sigma[k, l] = E[k, (k - l) mod N]
            for i, j in PAIRS:
                layout = np.fft.irfft(self._diagonals(i, j), n, axis=0)
                dense[i * n:(i + 1) * n, j * n:(j + 1) * n] += np.take_along_axis(layout, skew, axis=1)
        return symmetrize(dense)

    def max_deviation(self, other: "FactoredState") -> float:
        """max |Sigma - Sigma_other| over the entries, without forming a 2N x 2N
        matrix: the circulant rows of B - B_other, and where either state has
        a heating, each (i, j) block of the difference in the diagonal layout
        (`_diagonals`), DEVIATION_OFFSETS offsets m at a time."""
        n = self.n_sites
        rows = np.fft.ifft(self.background - other.background, axis=0).real  # rows[d][i, j]: entry (k, k + d)
        if self.heating is None and other.heating is None:
            return float(np.max(np.abs(rows)))
        worst = 0.0
        for i, j in PAIRS:
            spectrum = self._diagonals(i, j, other)
            for lo in range(0, n, DEVIATION_OFFSETS):
                m = np.arange(lo, min(lo + DEVIATION_OFFSETS, n))
                part = np.fft.irfft(spectrum[:, m], n, axis=0) + rows[-m, i, j]  # entries (k, k - m)
                worst = max(worst, float(np.max(np.abs(part))))
            del spectrum  # before the next block's is built
        return worst

    def bands(self, *wanted: "tuple[int, int, int]") -> "list[Array]":
        """<z^i_k z^j_{k+d}> over sites k, periodic in k, for each (i, j, d) in
        `wanted` with 0 <= d < N, z^0 = x and z^1 = p, without forming `sigma`:
        the background's row entry at offset d plus the band of P H0 P^T,
        irfft_s(sum_v sum_b Y[i][s, b, v] T_v[j, b] e^{-2 pi i v d / N}) / N
        with Y[i] = `FourierGram._left` of T.  Each block of rows s
        (`_row_blocks`) and part i read is one complex matmul of Y[i] against
        the (2N, bands) weights of its bands: O(N^2), one block up to N = 128."""
        n = self.n_sites
        (i, j, d), plan = _band_plan(n, wanted)
        rows = np.fft.ifft(self.background, axis=0).real  # rows[d][i, j]: entry (k, k + d)
        bands = np.empty((len(d), n))
        bands[:] = rows[d, i, j][:, None]
        if self.heating is not None:
            t = self.transfer
            weights = [np.multiply(t[:, js].transpose(2, 0, 1), phase, order="C").reshape(2 * n, -1)
                       for _, _, js, phase in plan]  # [(b, v), band] for each part
            sums = np.empty((len(d), n // 2 + 1), dtype=complex)  # [band, s]
            hankel = _transfer_hankel(t)
            for block in _row_blocks(n, max(len(cols) for _, cols, _, _ in plan)):
                for (part, cols, _, _), columns in zip(plan, weights):
                    sums[cols, block] = (self.heating._left(hankel, block, part).reshape(-1, 2 * n) @ columns).T
            bands += np.fft.irfft(sums, n)
        return list(bands)


def symmetrize(sigma: Array) -> Array:
    return 0.5 * (sigma + sigma.T)


def min_eig_ratio(sigma: Array) -> float:
    """Min eigenvalue over max |eigenvalue| (0 for a zero matrix), from `eigvalsh`."""
    eig = np.linalg.eigvalsh(sigma)
    scale = np.max(np.abs(eig))
    return float(eig[0] / scale) if scale != 0.0 else 0.0


def _blocks_certify(blocks: Array, tol: float, margin: float = 0.0) -> bool:
    """True if the background blocks prove min eigenvalue >= -tol * max
    |eigenvalue| for Sigma = B + P H0 P^T, whatever P, for any heating with
    P H0 P^T >= -margin I.

    A heating held as a `FourierGram` has H0 >= -eps0 I (its `bound`), so
    P H0 P^T >= -eps0 ||P||^2 I, and ||P|| = max_q ||T_q|| <= max_q ||T_q||_F:
    `check_psd` passes margin m = eps0 max_q ||T_q||_F^2, zero for no heating.

    The blocks are symmetric and even in q (`FactoredState`), so the spectrum
    of B is the union of theirs.  Let D be the largest diagonal entry of any
    block.  Each is a Rayleigh quotient of its block, so D <= lambda_max(B),
    and lambda_max(B) <= lambda_max(Sigma) + m <= rho(Sigma) + m (Weyl).  The
    smaller eigenvalue of each block [[a, b], [b, c]] is evaluated as
    (a/2 + c/2) - hypot(a/2 - c/2, b).  With every entry at most D in
    magnitude that value is off by at most 8 u D: u D for the half-sum and
    for the half-difference, 2 u relative to hypot's result of at most
    sqrt(2) D plus its input's error, (1 + sqrt(2)) u D for the subtraction.
    The test passes when every value is >= -tol D / 2 + m, 16 u D <= tol D / 2
    and m <= D / 4.  Then lambda_min(B) >= -3 tol D / 4 + m, so
    lambda_min(Sigma) >= lambda_min(B) - m >= -3 tol D / 4
    >= -3 tol (rho(Sigma) + m) / 4 >= -tol rho(Sigma), the last step as
    3 m <= D - m <= rho(Sigma).  It is attempted only for D >= sqrt(tiny),
    where underflow stays far below u D.  Expects finite entries.
    """
    a, b, c = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 1]
    d = float(np.max(np.maximum(a, c)))
    half = 0.5 * tol * d
    if not (np.sqrt(np.finfo(float).tiny) <= d and 16.0 * UNIT_ROUNDOFF * d <= half
            and margin <= 0.25 * d and np.max(np.abs(blocks)) <= d):
        return False
    low = (0.5 * a + 0.5 * c) - np.hypot(0.5 * a - 0.5 * c, b)
    return bool(np.min(low) >= margin - half)


def check_psd(state: "Array | FactoredState", context: str = "") -> None:
    """Raise PSDViolationError if an entry is not finite, or if the min/max
    eigenvalue ratio (`min_eig_ratio`) is below -PSD_TOL.

    `state` is a `FactoredState` or a dense covariance matrix.  A factored
    state: its background, its transfer and its heating's `bound` must be
    finite, and its background blocks certify it in O(N), with the margin its
    heating's bound leaves (`_blocks_certify`); the dense rule on
    `state.sigma` decides the rest.  A dense matrix: the ratio from
    `eigvalsh`, which reads the lower triangle.
    """
    where = f" ({context})" if context else ""
    factored = isinstance(state, FactoredState)
    arrays = (state.background, state.transfer) if factored else (state,)
    heating = state.heating if factored else None
    # min and max are finite exactly when every entry is (a NaN propagates):
    # nothing the size of the state is allocated unless an entry is not finite
    if not (all(np.isfinite(a.min(initial=0.0)) and np.isfinite(a.max(initial=0.0)) for a in arrays)
            and (heating is None or np.isfinite(heating.bound))):
        arrays += tuple(heating.skewed.values()) if heating is not None else ()
        bad = sum(a.size - np.count_nonzero(np.isfinite(a)) for a in arrays)
        raise PSDViolationError(
            f"covariance matrix not PSD{where}: non-finite entries, "
            f"{bad} of {sum(a.size for a in arrays)}"
        )
    if factored:
        margin = 0.0 if heating is None else heating.bound * float(np.max(np.sum(state.transfer**2, axis=(1, 2))))
        if not _blocks_certify(state.background, PSD_TOL, margin):
            check_psd(state.sigma, context)
        return
    ratio = min_eig_ratio(state)
    if ratio < -PSD_TOL:
        raise PSDViolationError(
            f"covariance matrix not PSD{where}: min/max eigenvalue ratio {ratio:.3e} "
            f"below tolerance -{PSD_TOL:.1e}"
        )
