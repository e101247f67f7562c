import numpy as np
import pytest

from heatchain import (
    ChainParams,
    DiffusionSet,
    build_matrices,
    circulant,
    dispersion,
    gibbs_covariance,
    group_velocity,
    mode_grid,
    thermal_matrices,
)
from heatchain.verify import dense_model


def stiffness_row(p):
    """First row of the stiffness K: m omega0^2 + 2 xi on site, -xi to each neighbour."""
    row = np.zeros(p.n_sites)
    row[0] = p.mass * p.omega0**2 + 2.0 * p.xi
    row[1] = row[-1] = -p.xi
    return row


def params(**kw):
    base = dict(n_sites=8, mass=1.0, omega0=1.0, xi=1.0, lattice_const=1.0,
                lambda_fric=0.1, gamma_fric=0.0, bath_temp=2.0)
    base.update(kw)
    return ChainParams(**base)


class TestDispersion:
    def test_decoupled_sites_oscillate_at_omega0(self):
        p = params(omega0=3.0, xi=0.0)
        for q in (-np.pi, -1.0, 0.0, 0.4, np.pi):
            assert dispersion(p, q) == pytest.approx(3.0, abs=0.0)

    def test_zone_edge_acoustic_value(self):
        # omega(q) = 2 sqrt(xi/m) |sin(q/2)| gives exactly 2 at q = pi
        p = params(omega0=0.0)
        assert dispersion(p, np.pi) == pytest.approx(2.0, rel=1e-15)

    def test_mixed_value_at_half_zone(self):
        # sqrt(1 + 4 sin^2(pi/4)) = sqrt(3); cross-checked against the
        # stiffness eigenvalue of the same mode below
        p = params()
        assert dispersion(p, np.pi / 2) == pytest.approx(np.sqrt(3.0), rel=1e-14)
        p64 = params(n_sites=64)
        eig = np.sort(np.linalg.eigvalsh(circulant(stiffness_row(p64)) / p64.mass))
        w_modes = np.sort(dispersion(p64, mode_grid(p64)) ** 2)
        assert np.allclose(eig, w_modes, rtol=1e-12)
        k = np.argmin(np.abs(mode_grid(p64) - np.pi / 2))
        assert dispersion(p64, mode_grid(p64)[k]) == pytest.approx(np.sqrt(3.0), rel=1e-12)

    def test_even_and_maximal_at_zone_edge(self):
        p = params()
        q = np.linspace(0.0, np.pi, 151)
        w = dispersion(p, q)
        assert np.allclose(dispersion(p, -q), w, rtol=0, atol=0)
        assert np.all(w <= w[-1] + 1e-15)

    def test_matches_stiffness_spectrum_mode_by_mode(self):
        for p in (params(n_sites=12), params(n_sites=9, omega0=0.3, xi=2.5, mass=1.7)):
            q = mode_grid(p)
            sym = np.fft.fft(stiffness_row(p)).real / p.mass
            assert np.allclose(dispersion(p, q) ** 2, sym, rtol=1e-12)

    def test_acoustic_group_velocity_slope(self):
        # central difference at q = 1e-6 recovers sqrt(xi/m)
        p = params(omega0=0.0, xi=2.0, mass=0.5)
        h = 1e-6
        slope = (dispersion(p, 2 * h) - dispersion(p, 0.0)) / (2 * h)
        assert slope == pytest.approx(np.sqrt(p.xi / p.mass), rel=1e-6)
        assert group_velocity(p, 1e-3) == pytest.approx(p.sound_speed, rel=1e-5)


class TestModeGrid:
    def test_n4(self):
        assert set(np.round(mode_grid(params(n_sites=4)), 12)) == {
            0.0, round(np.pi / 2, 12), round(np.pi, 12), round(-np.pi / 2, 12)}

    def test_n3(self):
        got = sorted(mode_grid(params(n_sites=3)))
        assert got == pytest.approx([-2 * np.pi / 3, 0.0, 2 * np.pi / 3])

    def test_even_n_contains_zone_edge(self):
        assert np.pi in mode_grid(params(n_sites=6))

    def test_closed_under_negation_mod_zone(self):
        for n in (5, 8, 13):
            q = mode_grid(params(n_sites=n))
            folded = np.where(-q > np.pi, -q - 2 * np.pi, np.where(-q <= -np.pi, -q + 2 * np.pi, -q))
            assert set(np.round(folded, 12)) == set(np.round(q, 12))


class TestMatrices:
    def test_gamma_zero_friction_is_scalar(self):
        p = params(lambda_fric=0.3)
        n = p.n_sites
        assert np.array_equal(-dense_model(thermal_matrices(p))[0][:n, :n], 0.3 * np.eye(n))

    def test_stiffness_row_entries(self):
        # row k of -K: -(m w0^2 + 2 xi) on the diagonal, +xi at k +- 1
        p = params(omega0=1.5, xi=0.7, mass=2.0)
        k = circulant(stiffness_row(p))
        n = p.n_sites
        for i in range(n):
            row = -k[i]
            assert row[i] == pytest.approx(-(p.mass * p.omega0**2 + 2 * p.xi))
            assert row[(i + 1) % n] == pytest.approx(p.xi)
            assert row[(i - 1) % n] == pytest.approx(p.xi)
            others = [j for j in range(n) if j not in (i, (i + 1) % n, (i - 1) % n)]
            assert np.all(row[others] == 0.0)

    def test_decoupled_chain_block_decouples(self):
        p = params(xi=0.0)
        a = dense_model(thermal_matrices(p))[0]
        n = p.n_sites
        # every 2x2 single-site generator independent: no cross-site entries
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert a[i, j] == 0.0
                    assert a[i, n + j] == 0.0
                    assert a[n + i, j] == 0.0
                    assert a[n + i, n + j] == 0.0

    def test_drift_eigenvalues_damped(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            lam = float(rng.uniform(0.05, 1.0))
            p = ChainParams(
                n_sites=4,
                mass=float(rng.uniform(0.5, 3.0)),
                omega0=float(rng.uniform(0.0, 2.0)),
                xi=float(rng.uniform(0.1, 3.0)),
                lattice_const=1.0,
                lambda_fric=lam,
                gamma_fric=float(rng.uniform(0.0, 0.5 * lam)),
                bath_temp=1.0,
            )
            eig = np.linalg.eigvals(dense_model(thermal_matrices(p))[0])
            assert np.max(eig.real) <= 1e-13

    def test_drift_commutes_with_cyclic_shift(self):
        p = params(n_sites=6, gamma_fric=0.04)
        a = dense_model(thermal_matrices(p))[0]
        n = p.n_sites
        s1 = np.roll(np.eye(n), 1, axis=0)
        shift = np.block([[s1, np.zeros((n, n))], [np.zeros((n, n)), s1]])
        assert np.array_equal(shift @ a, a @ shift)

    def test_build_matrices_truncated_blocks(self):
        p = params(gamma_fric=0.03)
        diff = DiffusionSet(d_xx=0.2, d_pp=0.5, d_ex=0.01, temp=1.0)
        mats = build_matrices(p, diff)
        assert np.array_equal(mats.diffusion_xx, 0.2 + 0.02 * np.cos(mode_grid(p)))
        d = dense_model(mats)[1]
        n = p.n_sites
        want = np.zeros(n)
        want[0], want[1], want[-1] = 0.2, 0.01, 0.01
        # the dense row is an inverse FFT of the symbol: exact to rounding
        assert np.max(np.abs(d[0, :n] - want)) <= np.finfo(float).eps * 0.2
        assert np.array_equal(d[n:, n:], 0.5 * np.eye(n))
        assert np.all(d[:n, n:] == 0.0)
        assert np.array_equal(d, d.T)

    def test_friction_psd_bound_enforced(self):
        with pytest.raises(ValueError, match="gamma"):
            params(gamma_fric=0.2, lambda_fric=0.1)


class TestParams:
    def test_rejects_small_rings(self):
        with pytest.raises(ValueError, match="n_sites"):
            params(n_sites=2)

    @pytest.mark.parametrize("n_sites", [8.0, np.float64(8)], ids=repr)
    def test_rejects_non_integer_ring_size(self, n_sites):
        # an integral float would pass a value check and then fail as an array size
        with pytest.raises(ValueError, match="n_sites must be an integer >= 3"):
            params(n_sites=n_sites)

    def test_numpy_integer_ring_size_builds_a_gibbs_state(self):
        state = gibbs_covariance(params(n_sites=np.int64(8)), 2.0)
        assert state.sigma.shape == (16, 16)

    def test_collects_all_problems(self):
        with pytest.raises(ValueError) as err:
            ChainParams(n_sites=1, mass=-1.0, xi=-2.0, lattice_const=0.0,
                        lambda_fric=0.0, bath_temp=-3.0)
        msg = str(err.value)
        for word in ("n_sites", "mass", "xi", "lattice_const", "lambda_fric", "bath_temp"):
            assert word in msg

    @pytest.mark.parametrize("field", ["n_sites", "mass", "omega0", "xi", "lattice_const", "lambda_fric",
                                       "gamma_fric", "hbar", "k_boltz", "bath_temp"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, value):
        # NaN passes every ordered comparison's negation, inf the sign checks
        kw = {"n_sites": 8, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ChainParams(**kw)

    def test_omega_max(self):
        assert params().omega_max == pytest.approx(np.sqrt(5.0), rel=1e-15)
