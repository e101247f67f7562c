"""The PSD check: the eigenvalue rule, and the per-mode certificate that
keeps its verdict.

`check_psd` passes a matrix when min eig >= -PSD_TOL * max |eig|.  The
matrices here have a prescribed spectrum in a random orthogonal basis, with
max |eig| = 1 and min eig = ratio.  A `FactoredState` B + F^T F is certified
by the blocks of B without eigenvalues, or falls back to the dense rule.

Also how a factored state holds its heating's Fourier Gram, which only
`heatchain.covariance` reads: the part pairs and rows it stores, the row
blocks of its band read, and its one way to take a heating.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatchain.covariance
from heatchain import (
    ChainParams,
    FactoredState,
    PSDViolationError,
    check_psd,
    evolve,
    gaussian_site_weights,
    gibbs_covariance,
    hotspot_state,
    min_eig_ratio,
    thermal_matrices,
)
from heatchain.chain import circulant_blocks
from heatchain.covariance import PSD_TOL, FourierGram, _row_blocks
from heatchain.dynamics import _bands
from test_dynamics import params

SIZES = [8, 64, 256]


def with_spectrum(n: int, ratio: float, seed: int = 0) -> np.ndarray:
    """Q diag(eig) Q^T with eig = (ratio, ..., 1), the others uniform in
    [max(ratio, 0), 1], and Q orthogonal from the QR of a Gaussian matrix."""
    rng = np.random.default_rng(seed)
    eig = rng.uniform(max(ratio, 0.0), 1.0, n)
    eig[0], eig[-1] = ratio, 1.0
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    sigma = (q * eig) @ q.T
    return 0.5 * (sigma + sigma.T)


def count_eigvalsh(monkeypatch) -> "list[int]":
    calls = [0]
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls[0] += 1
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("ratio", [-0.5 * PSD_TOL, -0.99 * PSD_TOL, 0.0])
def test_spectrum_within_tolerance_passes(n, ratio):
    check_psd(with_spectrum(n, ratio))


@pytest.mark.parametrize("n", SIZES)
def test_zero_matrix_passes(n):
    check_psd(np.zeros((n, n)))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("ratio", [-1.01 * PSD_TOL, -2.0 * PSD_TOL])
def test_spectrum_below_tolerance_raises_with_the_ratio(n, ratio):
    sigma = with_spectrum(n, ratio)
    with pytest.raises(PSDViolationError) as err:
        check_psd(sigma, context="t = 1")
    assert str(err.value) == (f"covariance matrix not PSD (t = 1): min/max eigenvalue ratio "
                              f"{min_eig_ratio(sigma):.3e} below tolerance -1.0e-10")


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.sampled_from(SIZES), st.floats(-3.0 * PSD_TOL, 1e-3), st.integers(0, 2**32 - 1))
def test_verdict_is_the_eigenvalue_rule(n, ratio, seed):
    sigma = with_spectrum(n, ratio, seed)
    try:
        check_psd(sigma)
        raised = False
    except PSDViolationError:
        raised = True
    assert raised == (min_eig_ratio(sigma) < -PSD_TOL)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(1, 0), (0, 1), (2, 2)])
def test_non_finite_entry_raises(value, entry):
    sigma = np.eye(4)
    sigma[entry] = value
    with pytest.raises(PSDViolationError, match=r"not PSD \(t = 0\): non-finite entries, 1 of 16"):
        check_psd(sigma, context="t = 0")


def factored(x0: float, rows: "list[float]") -> FactoredState:
    """Background diag(1, 1) in every mode of an N = 8 ring but diag(x0, 1) at
    q = 0, whose x-x eigenvector is the uniform x vector u; factor rows c u."""
    blocks = np.tile(np.eye(2), (8, 1, 1))
    blocks[0, 0, 0] = x0
    u = np.concatenate([np.ones(8), np.zeros(8)]) / np.sqrt(8.0)
    return FactoredState(blocks, heating=FourierGram.of_factor(np.array([c * u for c in rows]).reshape(-1, 16)))


def test_factored_state_certified_by_its_blocks(monkeypatch):
    p = ChainParams(n_sites=128, mass=1.0, omega0=0.05, xi=1.0, lattice_const=1.0,
                    lambda_fric=0.2, bath_temp=200.0)
    state = hotspot_state(p, 200.0, 280.0, gaussian_site_weights(128, 64.0, 20.0))
    calls = count_eigvalsh(monkeypatch)
    check_psd(state)
    check_psd(factored(-0.1 * PSD_TOL, [0.0]))
    assert calls[0] == 0


def test_factored_state_covered_by_its_factor_passes_the_dense_rule(monkeypatch):
    # the q = 0 block is -1e-3 below zero, F^T F lifts that direction by 2e-3
    state = factored(-1e-3, [np.sqrt(2e-3)])
    calls = count_eigvalsh(monkeypatch)
    check_psd(state)
    assert calls[0] == 1
    assert min_eig_ratio(state.sigma) > 0.0


@pytest.mark.parametrize("rows", [[], [0.0], [np.sqrt(0.5e-3)]])
def test_factored_state_not_covered_raises_with_the_dense_ratio(rows):
    state = factored(-1e-3, rows)
    with pytest.raises(PSDViolationError) as err:
        check_psd(state, context="t = 2")
    assert str(err.value) == (f"covariance matrix not PSD (t = 2): min/max eigenvalue ratio "
                              f"{min_eig_ratio(state.sigma):.3e} below tolerance -1.0e-10")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["background", "factor", "transfer"])
def test_factored_non_finite_entry_raises(value, part):
    # 32 background and 32 transfer entries, and the 5 x 8 complex x-x pair
    # of the Gram of factor rows c u; a non-finite factor entry reaches
    # every entry of that Gram through its transforms, and its bound
    state = factored(1.0, [1.0])
    if part == "factor":
        factor = np.concatenate([np.ones(8), np.zeros(8)])[None] / np.sqrt(8.0)
        factor[0, 0] = value
        state = FactoredState(state.background, heating=FourierGram.of_factor(factor))
        assert not np.isfinite(state.heating.bound)
    elif part == "background":
        state.background[0, 0, 0] = value
    else:
        state.transfer = np.tile(np.eye(2), (8, 1, 1))
        state.transfer[0, 0, 0] = value
    bad = 40 if part == "factor" else 1
    with pytest.raises(PSDViolationError, match=rf"not PSD \(t = 0\): non-finite entries, {bad} of 104$"):
        check_psd(state, context="t = 0")


def heated(x0: float, eig: float, bound: float) -> FactoredState:
    """`factored`'s background with diag(x0, 1) at q = 0 and a heating of
    eigenvalues 1 and `eig` on the uniform x and p vectors, built from its
    diagonal layouts with the given `bound`: H0 >= -bound I is the promise."""
    state = factored(x0, [])
    layouts = (((a, a), np.full((8, 8), e / 8.0)) for a, e in ((0, eig), (1, 1.0)))
    return FactoredState(state.background, heating=FourierGram._of_diagonals(layouts, build_error=bound))


def test_heating_inside_the_margin_is_certified(monkeypatch):
    # the heating's x-x eigenvalue -1e-6 is within its bound, 2e-6 plus the
    # transforms' rounding, and the margin that bound leaves, 2 bound, is far
    # below the background's lowest block eigenvalue 1e-2: certified with no
    # eigenvalue, and the dense matrix agrees
    state = heated(1e-2, -1e-6, 2e-6)
    assert 2e-6 < state.heating.bound < 2.1e-6
    calls = count_eigvalsh(monkeypatch)
    check_psd(state)
    assert calls[0] == 0
    assert min_eig_ratio(state.sigma) > 0.0


@pytest.mark.parametrize("eig", [-2e-3, 0.0])
def test_heating_outside_the_margin_raises_with_the_dense_ratio(monkeypatch, eig):
    # a bound of 1e-3 leaves a margin of 2e-3 (max_q ||T_q||_F^2 = 2 at the
    # start), above the background's lowest block eigenvalue 1e-4, so the
    # blocks cannot decide and the dense rule does: the heating's -2e-3
    # breaks it with its ratio, a PSD heating of the same bound passes
    state = heated(1e-4, eig, 1e-3)
    calls = count_eigvalsh(monkeypatch)
    if eig < 0.0:
        with pytest.raises(PSDViolationError) as err:
            check_psd(state, context="t = 3")
        assert str(err.value) == (f"covariance matrix not PSD (t = 3): min/max eigenvalue ratio "
                                  f"{min_eig_ratio(state.sigma):.3e} below tolerance -1.0e-10")
    else:
        check_psd(state)
    assert calls[0] >= 1


def test_sigma_and_max_deviation_of_mapped_states_equal_the_dense_formula():
    # N = 16: a hot spot and a random factor start, each mapped by random
    # per-mode blocks T_q (even in q), against B + P H0 P^T formed densely
    # with P the block circulant of T, and their deviation from each other
    # and from the Gibbs state
    p = ChainParams(n_sites=16, mass=1.0, omega0=0.5, xi=1.0, lattice_const=1.0,
                    lambda_fric=0.1, gamma_fric=0.04, bath_temp=2.0)
    rng = np.random.default_rng(3)
    gibbs = gibbs_covariance(p, p.bath_temp)
    factor = rng.standard_normal((7, 32))
    starts = (hotspot_state(p, 2.0, 7.0, gaussian_site_weights(16, 8.0, 2.0)),
              FactoredState(rng.standard_normal((16, 2, 2)), heating=FourierGram.of_factor(factor)))
    heatings = (starts[0].sigma - gibbs.sigma, factor.T @ factor)
    states, dense = [], []
    for start, heating in zip(starts, heatings):
        transfer = rng.standard_normal((16, 2, 2))
        transfer = 0.5 * (transfer + transfer[-np.arange(16)])
        state = FactoredState(start.background, time=1.0, heating=start.heating, transfer=transfer)
        mapped = circulant_blocks(np.moveaxis(transfer, 0, -1))
        want = circulant_blocks(np.moveaxis(state.background, 0, -1)) + mapped @ heating @ mapped.T
        assert np.max(np.abs(state.sigma - want)) <= 1e-13 * np.max(np.abs(want))
        states.append(state)
        dense.append(want)
    pairs = [(states[0], dense[0], states[1], dense[1]), (states[0], dense[0], gibbs, gibbs.sigma),
             (gibbs, gibbs.sigma, states[1], dense[1])]
    for a, sa, b, sb in pairs:
        want = np.max(np.abs(sa - sb))
        assert a.max_deviation(b) == pytest.approx(want, rel=0.0, abs=1e-13 * max(np.max(np.abs(sa)), np.max(np.abs(sb))))


@pytest.mark.parametrize("rank", [0, 5, 32])
def test_max_deviation_equals_the_dense_formula(rank):
    # blockwise max |Sigma - Sigma_gibbs| against the two dense matrices, at
    # N = 16 with a Gibbs background and a hot-spot state, and between two
    # random states whose factors both count
    p = ChainParams(n_sites=16, mass=1.0, omega0=0.5, xi=1.0, lattice_const=1.0,
                    lambda_fric=0.1, gamma_fric=0.04, bath_temp=2.0)
    gibbs = gibbs_covariance(p, p.bath_temp)
    hot = hotspot_state(p, 2.0, 7.0, gaussian_site_weights(16, 8.0, 2.0))
    rng = np.random.default_rng(rank)
    other = FactoredState(rng.standard_normal((16, 2, 2)),
                          heating=FourierGram.of_factor(rng.standard_normal((rank, 32))))
    state = FactoredState(rng.standard_normal((16, 2, 2)),
                          heating=FourierGram.of_factor(rng.standard_normal((32 - rank, 32))))
    for a, b in ((hot, gibbs), (state, other), (other, gibbs)):
        want = np.max(np.abs(a.sigma - b.sigma))
        assert a.max_deviation(b) == pytest.approx(want, rel=0.0, abs=1e-14 * np.max(np.abs(a.sigma)))


@pytest.mark.parametrize("n", [15, 16])
@pytest.mark.parametrize("start", ["thermal", "hot_sites", "x", "p", "both"])
def test_gram_holds_the_pairs_its_start_holds(n, start):
    # a hot spot's heating holds its x-x and p-p pairs, in thermal mode or in
    # diagonal mode over a hot_sites window; a factor holds the pairs of the
    # parts its rows hold.  Each pair is rows s = 0..N/2 of N complex columns
    p = params(n_sites=n, gamma_fric=0.03)
    if start in ("thermal", "hot_sites"):
        window = np.zeros(n)
        window[5:11] = 1.0
        weights = gaussian_site_weights(n, n / 2.0, 2.0) if start == "thermal" else window
        state = hotspot_state(p, 1.0, 3.0, weights, mode="thermal" if start == "thermal" else "diagonal")
        pairs = {(0, 0), (1, 1)}
    else:
        parts = {"x": (0,), "p": (1,), "both": (0, 1)}[start]
        factor = np.zeros((3, 2, n))
        factor[:, parts] = np.random.default_rng(n).normal(size=(3, len(parts), n))
        state = FactoredState(gibbs_covariance(p, p.bath_temp).background,
                              heating=FourierGram.of_factor(factor.reshape(3, 2 * n)))
        pairs = {(a, b) for a in parts for b in parts}
    assert set(state.heating.skewed) == pairs
    assert all(k.shape == (n // 2 + 1, n) and k.dtype == complex for k in state.heating.skewed.values())


def test_band_blocks_match_one_block(monkeypatch):
    # N = 16 has 9 rows s of the Gram, read in one block by default, then
    # in blocks of 2 rows (the last of 1), against every sample's dense sigma
    p = params(n_sites=16, gamma_fric=0.03)
    start = hotspot_state(p, 1.0, 3.0, gaussian_site_weights(16, 8.0, 2.0))
    states = evolve(start, thermal_matrices(p), t_final=5.0, sample_stride=7).states
    wanted = [(i, j, d) for i in (0, 1) for j in (0, 1) for d in (0, 1, 2)]
    assert len(_row_blocks(16, len(wanted))) == 1
    one = [s.bands(*wanted) for s in states]
    monkeypatch.setattr(heatchain.covariance, "_MATMUL_MACS", 2 * 32 * len(wanted))
    assert [b.stop - b.start for b in _row_blocks(16, len(wanted))] == [2, 2, 2, 2, 1]
    assert len(states) > 3
    for state, bands in zip(states, one):
        scale = np.max(np.abs(state.sigma))
        for a, b, dense in zip(bands, state.bands(*wanted), _bands(state.sigma, *wanted)):
            assert np.max(np.abs(a - b)) <= 1e-15 * scale
            assert np.max(np.abs(b - dense)) <= 1e-13 * scale


def test_a_state_takes_its_heating_one_way():
    # the heating is a keyword: a positional factor is refused, not read as the
    # time stamp; a factor must have 2N columns
    blocks = np.tile(np.eye(2), (6, 1, 1))
    with pytest.raises(TypeError):
        FactoredState(blocks, np.ones((3, 12)))
    with pytest.raises(ValueError, match=r"factor must have shape \(r, 2N\)"):
        FourierGram.of_factor(np.ones((3, 11)))
    assert FourierGram.of_factor(np.zeros((0, 12))) is None
