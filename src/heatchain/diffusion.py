"""Bath-induced diffusion coefficients and thermal-equilibrium quantities.

The bath drives each phonon mode with spectral weight lambda + 2*gamma*cos(q)
and the occupation kernel coth(x), x = hbar*omega / 2 k_B T.  Every thermal
quantity is read from the Bose excess g = coth(x) - 1 = 2 / expm1(2x), formed
once per temperature and point: the variances (hbar / 2 m omega)(1 + g) and
(hbar m omega / 2)(1 + g), the mode energies (hbar omega / 2)(1 + g) and heat
capacities k_B x^2 g (2 + g).  Every summand of a zone sum is even in q, so
each sum reads only the distinct points, weighted by their multiplicity: the
ring's modes q_n, n = 0..N // 2 (`_mode_sum`), and the points of each
quadrature level in [0, pi].  D_xx, D_pp and D_ex are zone sums of g against
per-point weight columns, in two forms:

* `quad_diffusion` - the continuum integrals, by the periodic trapezoid rule
  in a conformally mapped variable, doubled until two estimates agree, for
  each temperature on its own; each level is built once per call and
  evaluated for every temperature not yet converged, at most TEMP_BLOCK x
  QUAD_CHUNK (temperature, point) pairs per kernel call;
* `mode_sum_diffusion` - the N-point trapezoid on the ring's mode grid.

`high_temp_diffusion` gives their closed high-temperature forms.  The
variances also give the Gibbs covariance of the ring and the model
(`thermal_matrices`) whose full circulant diffusion symbols make the finite-N
Gibbs state exactly stationary (D = friction-weighted thermal covariance).

Every thermal function takes one temperature (float results) or an array
of them (arrays of its shape), checked once by `_over_temps`: the mode sums
go through it TEMP_BLOCK temperatures at a time, the quadrature all at
once.  Each entry of an array call is its one-temperature call, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ModelMatrices, dispersion, mode_grid
from .covariance import Array, FactoredState
from .params import ChainParams

QUAD_EPSABS = 1e-12
QUAD_EPSREL = 1e-10
QUAD_MIN_POINTS = 8
QUAD_MAX_POINTS = 2**17
# temperatures and quadrature points per kernel call: a fixed working set
TEMP_BLOCK = 64
QUAD_CHUNK = 1024
TWO_X_MAX = 800.0  # 2x = hbar omega / k_B T past which g = 2 / expm1(2x) is exactly 0


@dataclass(frozen=True)
class DiffusionSet:
    """On-site and nearest-neighbour diffusion coefficients.

    Floats at one temperature; arrays, field by field, along a sweep.
    """

    d_xx: float
    d_pp: float
    d_ex: float
    temp: float


def _require_some_restoring_force(params: ChainParams) -> None:
    if params.omega0 == 0.0 and params.xi == 0.0:
        raise ValueError("omega0 = xi = 0 leaves every mode frequency zero; "
                         "thermal state undefined")


def _over_temps(params: ChainParams, temp, rows, block=TEMP_BLOCK):
    """Check `temp` (one temperature >= 0 or an array) and evaluate `rows`
    over it `block` temperatures at a time (all at once for None).  `rows`
    maps a 1-d block to k rows with the block along their first axis; each
    row comes back as a float for a scalar `temp` where it holds one number
    per temperature, else as an array of shape temp.shape + its trailing
    shape."""
    t = np.asarray(temp, dtype=float)
    if np.any(t < 0):
        raise ValueError(f"temperature must be >= 0, got {np.min(t)}")
    _require_some_restoring_force(params)
    flat = t.reshape(-1)
    step = block or max(flat.size, 1)
    out = np.concatenate([rows(flat[i:i + step]) for i in range(0, flat.size, step)], 1)
    out = out.reshape(out.shape[:1] + t.shape + out.shape[2:])
    return [float(r) if r.ndim == 0 else r for r in out]


def _two_x(params: ChainParams, num, temps):
    """Fresh array 2x = num / k_B T (bit for bit 2 (num / 2 k_B T)): `num`
    (hbar omega > 0) along columns, the 1-d `temps` along rows.  T = 0 and
    subnormal T overflow 2x; it is held at TWO_X_MAX, where g is exactly 0,
    so x^2 g is 0, not inf * 0."""
    with np.errstate(over="ignore", divide="ignore"):
        two_x = num / (params.k_boltz * temps[:, None])
    return np.minimum(two_x, TWO_X_MAX, out=two_x)


def _excess(two_x):
    """The Bose excess g = coth(x) - 1 = 2 / expm1(2x), written over `two_x`."""
    with np.errstate(over="ignore", divide="ignore"):
        g = np.expm1(two_x, out=two_x)
        return np.divide(2.0, g, out=g)


def _frequencies(params: ChainParams, q):
    """Frequencies on the wavenumbers `q`, 1.0 for any zero mode (omega0 = 0,
    q = 0), and its mask or None."""
    w = np.asarray(dispersion(params, q), dtype=float)
    zero = w == 0.0
    return (np.where(zero, 1.0, w), zero) if zero.any() else (w, None)


def _distinct_modes(params: ChainParams):
    """The ring's distinct modes q_n = 2 pi n / N, n = 0..N // 2 (the first
    N // 2 + 1 of `mode_grid`), and their multiplicities: 1 for q = 0 and, for
    even N, q = pi; 2 for each other, which stands for q_n and -q_n.  A sum
    over the ring of an even function of q is the sum over these modes of
    multiplicity times summand."""
    n = params.n_sites
    mult = np.full(n // 2 + 1, 2.0)
    mult[0] = 1.0
    if n % 2 == 0:
        mult[-1] = 1.0
    return mode_grid(params)[: n // 2 + 1], mult


def _energies(params: ChainParams, w, zero, temps):
    """Mode energies (hbar omega / 2)(1 + g) of a block of temperatures."""
    eps = _excess(_two_x(params, params.hbar * w, temps))
    eps += 1.0
    eps *= 0.5 * params.hbar * w
    if zero is not None:
        eps[:, zero] = 0.5 * params.k_boltz * temps[:, None]
    return eps


def _capacities(params: ChainParams, w, zero, temps):
    """Mode heat capacities k_B x^2 g (2 + g) of a block of temperatures."""
    two_x = _two_x(params, params.hbar * w, temps)
    cap = _excess(two_x.copy())
    cap *= cap + 2.0
    cap *= np.square(two_x, out=two_x)
    cap *= 0.25 * params.k_boltz
    if zero is not None:
        cap[:, zero] = 0.5 * params.k_boltz
    return cap


def _over_modes(params: ChainParams, temp, kernel):
    """`kernel(params, w, zero, T)` on the mode grid over `temp`."""
    modes = _frequencies(params, mode_grid(params))
    return _over_temps(params, temp, lambda t: [kernel(params, *modes, t)])[0]


def _mode_sum(params: ChainParams, temp, kernel, weight=lambda q: 1.0):
    """Sum over the ring's modes of weight(q) `kernel(params, w, zero, T)` over
    `temp`.  Kernel and weight are even in q, so the sum is read on the
    distinct modes (`_distinct_modes`), TEMP_BLOCK x (N // 2 + 1) at a time;
    einsum sums each temperature's row on its own (no BLAS call)."""
    q, mult = _distinct_modes(params)
    weights = mult * weight(q)
    modes = _frequencies(params, q)
    return _over_temps(params, temp, lambda t: [np.einsum("tp,p->t", kernel(params, *modes, t), weights)])[0]


def mode_thermal_variances(params: ChainParams, temp: "float | Array"):
    """Per-mode thermal variances (q, omega, c_x, c_p) on the ring's mode grid:
    c_x = (hbar / 2 m omega)(1 + g) and c_p = (hbar m omega / 2)(1 + g).  A
    zero mode (omega0 = 0, q = 0) has no restoring force: its position variance
    is excluded (zero) and its momentum variance is the free-particle m k_B T."""
    q = mode_grid(params)
    w, zero = _frequencies(params, q)

    def variances(temps):
        fac = 1.0 + _excess(_two_x(params, params.hbar * w, temps))
        c_x = params.hbar / (2.0 * params.mass * w) * fac
        c_p = params.hbar * params.mass * w / 2.0 * fac
        if zero is not None:
            c_x[:, zero], c_p[:, zero] = 0.0, params.mass * params.k_boltz * temps[:, None]
        return c_x, c_p

    return (q, w if zero is None else np.where(zero, 0.0, w), *_over_temps(params, temp, variances))


def mode_energies(params: ChainParams, temp: "float | Array") -> Array:
    """Per-mode Gibbs energies (hbar omega / 2)(1 + g), k_B T / 2 for a zero mode."""
    return _over_modes(params, temp, _energies)


def mode_heat_capacities(params: ChainParams, temp: "float | Array") -> Array:
    """Per-mode heat capacities d(eps_q)/dT on the mode grid (modes last):
    k_B x^2 / sinh(x)^2 = k_B x^2 g (2 + g) for omega > 0, as csch^2 = coth^2 - 1
    = g (2 + g) without the cancellation of coth^2 - 1, and 0 at T = 0; a zero
    mode (omega0 = 0) contributes its classical kinetic k_B / 2 at every T."""
    return _over_modes(params, temp, _capacities)


def _weight_columns(params: ChainParams, q, dq, w):
    """Per-point weights of (1 + g) in D_xx, D_pp, D_ex: dq (lambda + 2 gamma
    cos q) times hbar / 2 m omega, hbar m omega / 2 and cos(q) hbar / 2 m omega."""
    weight = dq * (params.lambda_fric + 2.0 * params.gamma_fric * np.cos(q))
    c_x = weight * params.hbar / (2.0 * params.mass * w)
    return np.stack([c_x, weight * params.hbar * params.mass * w / 2.0, np.cos(q) * c_x])


def _zone_sums(params: ChainParams, temps, num, cols):
    """Sums over points of cols * (1 + g), rows D_xx, D_pp, D_ex along the 1-d
    `temps`.  einsum sums each row of g against each column on its own (no BLAS
    call, no product array), so no entry depends on the rest of the block."""
    g = _excess(_two_x(params, num, temps))
    return np.sum(cols, axis=1)[:, None] + np.einsum("tp,cp->ct", g, cols)


def _quad_level(params: ChainParams, eps: float, m: int, shift: float):
    """The points s = 2 pi (k + shift) / m of one trapezoid level that lie in
    [0, pi], where the integrand at 2 pi - s equals the one at s: chunks of at
    most QUAD_CHUNK points, each as hbar omega and its weight columns, every
    point weighted by its multiplicity (1 at s = 0 and s = pi, else 2)."""
    k = np.arange(m // 2 + 1) + shift
    k = k[k <= m // 2]
    mult = np.where((k == 0) | (k == m // 2), 1.0, 2.0)
    for i in range(0, k.size, QUAD_CHUNK):
        s = 2.0 * np.pi * k[i:i + QUAD_CHUNK] / m
        cos, sin = np.cos(s / 2.0), eps * np.sin(s / 2.0)
        q, dq = 2.0 * np.arctan2(sin, cos), mult[i:i + QUAD_CHUNK] * eps / (cos**2 + sin**2)
        w = np.asarray(dispersion(params, q), dtype=float)
        yield params.hbar * w, _weight_columns(params, q, dq, w)


def quad_diffusion(params: ChainParams, temp) -> DiffusionSet:
    """Brillouin-zone integrals of the diffusion coefficients.

    `temp` is one temperature >= 0 or an array of them.  The coefficients are

        D_xx = (1 / 2 pi) Int (lambda + 2 gamma cos q) c_x(q) dq
        D_pp = (1 / 2 pi) Int (lambda + 2 gamma cos q) c_p(q) dq
        D_ex = (1 / 2 pi) Int (lambda + 2 gamma cos q) cos(q) c_x(q) dq

    over one period, with c_x = (hbar / 2 m omega)(1 + g) and c_p = (hbar m
    omega / 2)(1 + g), g = 2 / expm1(hbar omega / k_B T) (0 at T = 0).  The
    integrands are analytic and 2 pi-periodic, so the periodic trapezoid rule
    converges geometrically, at a rate set by the nearest complex zero of
    omega(q): tan(q/2) = i omega0 / omega(pi), about 2 omega0 / omega(pi) from
    the real axis.  The rule runs in the variable s of tan(q/2) = eps tan(s/2)
    with eps = sqrt(omega0 / omega(pi)), which moves that zero (and puts the
    map's own pole) 2 atanh(eps) from the axis; the map is the identity for
    xi = 0.  The integrands are even in s, so each level is read on its
    points in [0, pi] (`_quad_level`).  The point count doubles from
    QUAD_MIN_POINTS, reusing every point, until successive estimates agree to
    QUAD_EPSREL or QUAD_EPSABS for every coefficient; each temperature stops
    at its own level, so an entry of a sweep is its one-temperature call.
    Each level is built once for the whole sweep and evaluated for every
    temperature not yet converged, at most TEMP_BLOCK x QUAD_CHUNK
    (temperature, point) pairs per kernel call; RuntimeError past
    QUAD_MAX_POINTS.  Raises for omega0 = 0: the zero mode makes the
    position integrals divergent (1/q^2 at T > 0, logarithmic at T = 0);
    use `mode_sum_diffusion` for a finite ring instead.
    """
    if params.omega0 == 0.0:
        raise ValueError("diffusion integrals diverge for omega0 = 0 "
                         "(acoustic zero mode); use mode_sum_diffusion")
    eps = math.sqrt(params.omega0 / params.omega_max)

    def means(temps, m, shift):
        total = np.zeros((3, temps.size))
        for num, cols in _quad_level(params, eps, m, shift):
            rows = TEMP_BLOCK * QUAD_CHUNK // num.size
            for i in range(0, temps.size, rows):
                total[:, i:i + rows] += _zone_sums(params, temps[i:i + rows], num, cols)
        total /= m
        return total

    def trapezoid(temps):
        m, est = QUAD_MIN_POINTS, means(temps, QUAD_MIN_POINTS, 0.0)
        todo = np.arange(temps.size)  # the temperatures not yet converged
        while todo.size:
            if m >= QUAD_MAX_POINTS:
                raise RuntimeError(f"diffusion quadrature did not converge with {m} points")
            # the doubled grid adds the midpoints of the current one: the level
            # is formed before the previous estimate is copied out
            new = means(temps[todo], m, 0.5)
            prev = est[:, todo]
            new += prev
            new *= 0.5
            est[:, todo] = new
            m *= 2
            # converged: |new - prev| <= max(QUAD_EPSABS, QUAD_EPSREL |new|), each side
            # written over its own array, which is freed before the next level
            change = np.abs(np.subtract(new, prev, out=prev), out=prev)
            bound = np.maximum(np.multiply(np.abs(new, out=new), QUAD_EPSREL, out=new), QUAD_EPSABS, out=new)
            todo = todo[~np.all(change <= bound, 0)]
            del new, prev, change, bound
        return est

    return DiffusionSet(*_over_temps(params, temp, lambda temps: [*trapezoid(temps), temps], block=None))


def high_temp_diffusion(params: ChainParams, temp: float) -> DiffusionSet:
    """Closed-form high-temperature diffusion coefficients.

    Valid once k_B T well exceeds hbar*omega(pi); exact limits of the
    quadrature integrals.  Requires omega0 > 0 (the on-site position
    variance diverges with the acoustic zero mode otherwise).
    """
    if temp <= 0:
        raise ValueError(f"high-temperature forms need temp > 0, got {temp}")
    if params.omega0 == 0.0:
        raise ValueError("high-temperature closed forms require omega0 > 0")
    m, om0, xi = params.mass, params.omega0, params.xi
    lam, gam = params.lambda_fric, params.gamma_fric
    kt = params.k_boltz * temp
    rad = math.sqrt(om0**2 + 4.0 * xi / m)
    # bracket = omega0^2 + 2 xi/m - omega0*rad, rewritten without the
    # catastrophic cancellation at small xi
    bracket_over_xi2 = (4.0 / m**2) / (om0**2 + 2.0 * xi / m + om0 * rad)

    d_pp = m * lam * kt
    d_xx = lam * kt / (m * om0 * rad) + gam * kt * xi * bracket_over_xi2 / (om0 * rad)
    d_ex = lam * kt * xi * bracket_over_xi2 / (2.0 * om0 * rad)
    if gam > 0.0:
        d_ex += (2.0 * gam * kt / (m * om0**2)) / (
            1.0 + 2.0 * xi / (2.0 * xi + m * om0**2) + math.sqrt(1.0 + 4.0 * xi / (m * om0**2))
        )
    return DiffusionSet(d_xx=d_xx, d_pp=d_pp, d_ex=d_ex, temp=temp)


def mode_sum_diffusion(params: ChainParams, temp) -> DiffusionSet:
    """Diffusion coefficients as finite-N mode sums over the ring's grid.

    The N-point trapezoid form of the `quad_diffusion` integrals, for one
    temperature or an array of them; consistent with `gibbs_covariance` of
    the same ring (D = friction-weighted thermal covariance), and the form
    under which the finite chain relaxes exactly to its Gibbs state.
    """
    q, mult = _distinct_modes(params)
    w, zero = _frequencies(params, q)
    cols, free = _weight_columns(params, q, mult, w), 0.0
    if zero is not None:  # a zero mode (q = 0, multiplicity 1) adds only its free-particle momentum variance m k_B T
        cols[:, zero] = 0.0
        free = np.sum(params.lambda_fric + 2.0 * params.gamma_fric * np.cos(q[zero])) * params.mass * params.k_boltz

    def sums(temps):
        d = _zone_sums(params, temps, params.hbar * w, cols)
        d[1] += free * temps
        return [*(d / params.n_sites), temps]

    return DiffusionSet(*_over_temps(params, temp, sums))


def source_density(params: ChainParams, diff: DiffusionSet) -> "float | Array":
    """Continuum source density s = (D_pp/m + (m w0^2 + 2 xi) D_xx - 2 xi D_ex)/a."""
    m, om0, xi = params.mass, params.omega0, params.xi
    return (diff.d_pp / m + (m * om0**2 + 2.0 * xi) * diff.d_xx - 2.0 * xi * diff.d_ex) / params.lattice_const


def _diagonal_blocks(c_x: Array, c_p: Array) -> Array:
    """Per-mode blocks diag(c_x, c_p), shape (N, 2, 2)."""
    blocks = np.zeros((len(c_x), 2, 2))
    blocks[:, 0, 0], blocks[:, 1, 1] = c_x, c_p
    return blocks


def gibbs_covariance(params: ChainParams, temp: float) -> FactoredState:
    """Thermal covariance of the ring at temperature `temp`.

    <x_k x_j> and <p_k p_j> are mode sums of the per-mode thermal variances
    with cos(q (k-j)) kernels; the x-p cross block vanishes.  The result is
    the factored state whose background blocks are diag(c_x, c_p), with no
    heating.
    """
    _, _, c_x, c_p = mode_thermal_variances(params, temp)
    return FactoredState(_diagonal_blocks(c_x, c_p))


def gibbs_energy_density(params: ChainParams, temp: "float | Array") -> "float | Array":
    """Equilibrium energy per unit length, u_eq = E_site / a.

    E_site is the per-site energy of the Gibbs state: kinetic c_p/2m plus
    potential (m omega_q^2 / 2) c_x summed over modes, which collapses to
    the mode energies (hbar omega / 2) coth(hbar omega / 2 k_B T).
    """
    return _mode_sum(params, temp, _energies) / (params.n_sites * params.lattice_const)


def heat_capacity_density(params: ChainParams, temp: "float | Array") -> "float | Array":
    """Heat capacity per unit length, C(T) = d u_eq / dT in closed form.

    The mean of `mode_heat_capacities` per unit length; C(0) = 0 when every
    mode has omega > 0.
    """
    return _mode_sum(params, temp, _capacities) / (params.n_sites * params.lattice_const)


def thermal_matrices(params: ChainParams, temp: float | None = None) -> ModelMatrices:
    """Model whose diffusion blocks are the full thermal circulants.

    D^xx and D^pp have Fourier symbols (lambda + 2 gamma cos q) c_x(q) and
    (lambda + 2 gamma cos q) c_p(q): the fluctuation-dissipation completion
    of the on-site and nearest-neighbour coefficients, with which the
    finite-N Gibbs state at `temp` is an exact stationary point of the
    moment dynamics.  `temp` defaults to the bath temperature of `params`.
    Raises for omega0 = 0: the drift damps the zero mode's position as well
    as its momentum, so the q = 0 mode settles at <x^2> = k_B T / (2 lambda^2 m)
    and <x p> = k_B T / (2 lambda) instead of the Gibbs values, and no
    thermal state is stationary.
    """
    if params.omega0 == 0.0:
        raise ValueError("thermal_matrices needs omega0 > 0: the acoustic zero mode "
                         "has no stationary Gibbs state")
    q, _, c_x, c_p = mode_thermal_variances(params, params.bath_temp if temp is None else temp)
    weight = params.lambda_fric + 2.0 * params.gamma_fric * np.cos(q)
    return ModelMatrices.of_chain(params, weight * c_x, weight * c_p)
