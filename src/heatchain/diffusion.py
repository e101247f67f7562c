"""Bath-induced diffusion coefficients and thermal-equilibrium quantities.

The bath drives each phonon mode with spectral weight lambda + 2*gamma*cos(q)
and a coth(hbar*omega / 2 k_B T) occupation kernel.  Coefficients are exposed
in three consistent forms:

* Brillouin-zone quadrature (`quad_diffusion`) - the continuum integrals,
* high-temperature closed forms (`high_temp_diffusion`),
* finite-N mode sums (`mode_sum_diffusion`) matching the simulated ring.

The same kernels give the Gibbs covariance of the ring, its energy density
and heat capacity density, and the model (`thermal_matrices`) whose full
circulant diffusion rows make the finite-N Gibbs state exactly stationary
(the fluctuation-dissipation pairing D = friction-weighted thermal
covariance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .chain import (
    ModelMatrices,
    circulant_blocks,
    circulant_row_from_symbol,
    dispersion,
    mode_grid,
)
from .covariance import CovarianceState, symmetrize
from .params import ChainParams

QUAD_EPSABS = 1e-12
QUAD_EPSREL = 1e-10


@dataclass(frozen=True)
class DiffusionSet:
    """On-site and nearest-neighbour diffusion coefficients at one temperature."""

    d_xx: float
    d_pp: float
    d_ex: float
    temp: float


def coth(x):
    """coth(x) for x > 0, stable for both small and large arguments."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        out = 1.0 + 2.0 / np.expm1(2.0 * x)
    out = np.where(x > 350.0, 1.0, out)
    return float(out) if out.ndim == 0 else out


def _require_some_restoring_force(params: ChainParams) -> None:
    if params.omega0 == 0.0 and params.xi == 0.0:
        raise ValueError("omega0 = xi = 0 leaves every mode frequency zero; "
                         "thermal state undefined")


def mode_thermal_variances(params: ChainParams, temp: float):
    """Per-mode thermal variances (q, omega, c_x, c_p) on the ring's mode grid.

    c_x(q) = (hbar / 2 m omega) coth(hbar omega / 2 k_B T) and
    c_p(q) = (hbar m omega / 2) coth(...).  For omega0 = 0 the q = 0 zero
    mode has no restoring force: its position variance is excluded (set to
    zero) while its momentum variance takes the free-particle limit m k_B T.
    """
    _require_some_restoring_force(params)
    if temp < 0:
        raise ValueError(f"temperature must be >= 0, got {temp}")
    q = mode_grid(params)
    w = np.asarray(dispersion(params, q), dtype=float)
    pos = w > 0.0
    c_x = np.zeros_like(w)
    c_p = np.zeros_like(w)
    fac = np.ones_like(w)
    if temp > 0.0:
        # a subnormal temperature overflows the ratio to inf, whose coth is 1
        with np.errstate(over="ignore"):
            fac[pos] = coth(params.hbar * w[pos] / (2.0 * params.k_boltz * temp))
    c_x[pos] = params.hbar / (2.0 * params.mass * w[pos]) * fac[pos]
    c_p[pos] = params.hbar * params.mass * w[pos] / 2.0 * fac[pos]
    c_p[~pos] = params.mass * params.k_boltz * temp
    return q, w, c_x, c_p


def mode_energies(params: ChainParams, temp: float):
    """Per-mode Gibbs energies c_p/2m + (m omega_q^2 / 2) c_x on the mode grid."""
    _, w, c_x, c_p = mode_thermal_variances(params, temp)
    return c_p / (2.0 * params.mass) + 0.5 * params.mass * w**2 * c_x


def mode_heat_capacities(params: ChainParams, temp: float):
    """Per-mode heat capacities d(eps_q)/dT on the mode grid.

    Each mode with omega > 0 contributes k_B * x^2 / sinh(x)^2 with
    x = hbar omega / (2 k_B T), and 0 at T = 0; a zero mode (omega0 = 0)
    contributes its classical kinetic k_B / 2 at every temperature.
    """
    _require_some_restoring_force(params)
    if temp < 0:
        raise ValueError(f"temperature must be >= 0, got {temp}")
    w = np.asarray(dispersion(params, mode_grid(params)), dtype=float)
    per_mode = np.zeros_like(w)
    per_mode[w == 0.0] = 0.5 * params.k_boltz
    pos = w > 0.0
    if temp > 0.0:
        # a subnormal temperature overflows x to inf, whose contribution is 0
        with np.errstate(over="ignore"):
            x = params.hbar * w[pos] / (2.0 * params.k_boltz * temp)
        small = x < 350.0
        contrib = np.zeros_like(x)
        contrib[small] = params.k_boltz * (x[small] / np.sinh(x[small])) ** 2
        per_mode[pos] = contrib
    return per_mode


def quad_diffusion(
    params: ChainParams,
    temp: float,
    displacement: int = 0,
    kind: str = "position",
) -> float:
    """Brillouin-zone quadrature for one diffusion coefficient.

    Parameters
    ----------
    temp:
        Bath temperature, >= 0 (coth kernel frozen at 1 for temp = 0).
    displacement:
        Site offset r >= 0 of the cos(q r) kernel; r = 0 gives the on-site
        coefficient, r = 1 the nearest-neighbour one.  Momentum kind
        requires r = 0.
    kind:
        "position" for D_{x x+r}, "momentum" for D_pp.

    Returns the integral

        position: (hbar / 4 pi m) Int coth(.)/omega * cos(q r) * (lambda + 2 gamma cos q) dq
        momentum: (hbar m / 4 pi) Int coth(.)*omega * (lambda + 2 gamma cos q) dq

    over [-pi, pi], evaluated adaptively on [0, pi] and doubled (even
    integrand).  Raises for omega0 = 0 position kind: the zero mode makes
    the integral divergent (1/q^2 at T > 0, logarithmic at T = 0); use
    `mode_sum_diffusion` for a finite ring instead.
    """
    if temp < 0:
        raise ValueError(f"temperature must be >= 0, got {temp}")
    if kind not in ("position", "momentum"):
        raise ValueError(f"kind must be 'position' or 'momentum', got {kind!r}")
    if displacement < 0 or int(displacement) != displacement:
        raise ValueError(f"displacement must be a nonnegative integer, got {displacement}")
    if kind == "momentum" and displacement != 0:
        raise ValueError("momentum-type coefficient is defined for displacement 0 only")
    if kind == "position" and params.omega0 == 0.0:
        raise ValueError("position diffusion integral diverges for omega0 = 0 "
                         "(acoustic zero mode); use mode_sum_diffusion")
    _require_some_restoring_force(params)

    m = params.mass
    hbar = params.hbar
    lam = params.lambda_fric
    gam = params.gamma_fric
    r = int(displacement)
    inv_2kt = None if temp == 0.0 else hbar / (2.0 * params.k_boltz * temp)

    def integrand(q: float) -> float:
        w = math.sqrt(params.omega0**2 + 4.0 * params.xi / m * math.sin(q / 2.0) ** 2)
        weight = lam + 2.0 * gam * math.cos(q)
        if kind == "momentum":
            if w == 0.0:
                # coth(x)*x -> 1 limit: kernel tends to 2 k_B T / hbar
                kern = 0.0 if temp == 0.0 else 2.0 * params.k_boltz * temp / hbar
            else:
                kern = w if inv_2kt is None else float(coth(inv_2kt * w)) * w
            return hbar * m / (4.0 * math.pi) * kern * weight
        kern = 1.0 / w if inv_2kt is None else float(coth(inv_2kt * w)) / w
        return hbar / (4.0 * math.pi * m) * kern * math.cos(q * r) * weight

    value, abserr, info, *rest = quad(
        integrand, 0.0, math.pi,
        epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL, limit=200, full_output=True,
    )
    if rest:
        raise RuntimeError(f"diffusion quadrature did not converge: {rest[0]}")
    return 2.0 * value


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


def mode_sum_diffusion(params: ChainParams, temp: float) -> DiffusionSet:
    """Diffusion coefficients as finite-N mode sums over the ring's grid.

    The N-point trapezoid form of the quadrature kernels; consistent with
    `gibbs_covariance` of the same ring (D = friction-weighted thermal
    covariance), and the form under which the finite chain relaxes exactly
    to its Gibbs state.
    """
    q, _, c_x, c_p = mode_thermal_variances(params, temp)
    weight = params.lambda_fric + 2.0 * params.gamma_fric * np.cos(q)
    return DiffusionSet(
        d_xx=float(np.mean(weight * c_x)),
        d_pp=float(np.mean(weight * c_p)),
        d_ex=float(np.mean(np.cos(q) * weight * c_x)),
        temp=temp,
    )


def source_density(params: ChainParams, diff: DiffusionSet) -> float:
    """Continuum source density s = (D_pp/m + (m w0^2 + 2 xi) D_xx - 2 xi D_ex)/a."""
    m, om0, xi = params.mass, params.omega0, params.xi
    return (diff.d_pp / m + (m * om0**2 + 2.0 * xi) * diff.d_xx - 2.0 * xi * diff.d_ex) / params.lattice_const


def gibbs_covariance(params: ChainParams, temp: float) -> CovarianceState:
    """Thermal covariance of the ring at temperature `temp`.

    <x_k x_j> and <p_k p_j> are mode sums of the per-mode thermal variances
    with cos(q (k-j)) kernels; the x-p cross block vanishes.  The result is
    a PSD circulant-blocked matrix.
    """
    _, _, c_x, c_p = mode_thermal_variances(params, temp)
    sigma = circulant_blocks([[c_x, np.zeros_like(c_x)], [np.zeros_like(c_p), c_p]])
    return CovarianceState(symmetrize(sigma), time=0.0)


def gibbs_energy_density(params: ChainParams, temp: float) -> float:
    """Equilibrium energy per unit length, u_eq = E_site / a.

    E_site is the per-site energy of the Gibbs state: kinetic c_p/2m plus
    potential (m omega_q^2 / 2) c_x summed over modes, which collapses to
    the mode energies (hbar omega / 2) coth(hbar omega / 2 k_B T).
    """
    return float(np.mean(mode_energies(params, temp))) / params.lattice_const


def heat_capacity_density(params: ChainParams, temp: float) -> float:
    """Heat capacity per unit length, C(T) = d u_eq / dT in closed form.

    The mean of `mode_heat_capacities` per unit length; C(0) = 0 when every
    mode has omega > 0.
    """
    return float(np.mean(mode_heat_capacities(params, temp))) / params.lattice_const


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
    t = params.bath_temp if temp is None else temp
    q, _, c_x, c_p = mode_thermal_variances(params, t)
    weight = params.lambda_fric + 2.0 * params.gamma_fric * np.cos(q)
    return ModelMatrices.of_chain(
        params, circulant_row_from_symbol(weight * c_x), circulant_row_from_symbol(weight * c_p))
