"""Continuum heat-transport equation and conductivity cross-checks.

The emergent equation for the energy density u(x, t) on the periodic line is

    du/dt = diff_const * d2u/dx2 - 2 lambda (u - u_eq),

with diff_const = a^2 xi / (2 lambda m) and source s = 2 lambda u_eq.  The
same transport coefficient is cross-checked against a phonon mode-sum
(velocity * range * mode heat capacity) and against the microscopic chain in
`compare_discrete_continuum`; `kinetic_prediction` gives the chain's
transient from free-streaming phonons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .covariance import Array
from .diffusion import (
    gibbs_energy_density,
    heat_capacity_density,
    mode_energies,
    mode_heat_capacities,
    thermal_matrices,
)
from .dynamics import evolve, gaussian_site_weights, hotspot_state, site_observables, step_bound
from .chain import group_velocity, mode_grid
from .params import ChainParams

PDE_DT_FACTOR = 0.05  # compare's heat step, as a fraction of the stability bound


class CFLError(ValueError):
    """Requested explicit step violates the stability bounds."""


@dataclass
class ContinuumField:
    """Energy density samples on a uniform periodic grid."""

    values: Array
    dx: float
    time: float = 0.0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 3:
            raise ValueError("field needs at least 3 samples on a 1d grid")
        if not self.dx > 0:
            raise ValueError(f"dx must be > 0, got {self.dx}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


@dataclass(frozen=True)
class TransportCoefficients:
    """Transport quantities of the continuum limit at one temperature.

    diff_const = v_s * range_b up to rounding; kappa = diff_const * C(T).
    """

    range_b: float
    diff_const: float
    kappa: float


def diffusion_constant(params: ChainParams) -> float:
    """diff_const = v_s^2 / (2 lambda) = a^2 xi / (2 lambda m)."""
    return params.sound_speed**2 / (2.0 * params.lambda_fric)


def transport_coefficients(params: ChainParams, temp: float) -> TransportCoefficients:
    """Propagation range b = v_s/(2 lambda), diffusion constant, conductivity."""
    diff = diffusion_constant(params)
    return TransportCoefficients(
        range_b=params.sound_speed / (2.0 * params.lambda_fric),
        diff_const=diff,
        kappa=diff * heat_capacity_density(params, temp),
    )


def _laplacian(u: Array, dx: float) -> Array:
    return (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / (dx * dx)


def _stability_bound(dx: float, diff: float, lam: float) -> float:
    """Explicit heat-step bound min(0.4 dx^2 / diff_const, 0.1 / (2 lambda))."""
    return min(0.4 * dx * dx / diff if diff > 0 else np.inf, 0.1 / (2.0 * lam))


def _heat_step(u: Array, dx: float, diff: float, lam: float, s: float, dt: float) -> Array:
    """One explicit step; the linear decay toward s/(2 lambda) is exact.

    u' = u_eq + e^{-2 lam dt} (u - u_eq) + phi * diff * Laplacian(u), with
    phi = (1 - e^{-2 lam dt}) / (2 lam) -> dt as lam dt -> 0.  First order in
    the diffusion term like plain forward stepping, but uniform fields decay
    exactly and the fixed point s/(2 lambda) is preserved to roundoff.
    """
    decay = np.exp(-2.0 * lam * dt)
    phi = -np.expm1(-2.0 * lam * dt) / (2.0 * lam) if lam > 0 else dt
    u_eq = s / (2.0 * lam) if lam > 0 else 0.0
    out = u_eq + decay * (u - u_eq) + phi * diff * _laplacian(u, dx)
    if lam == 0.0:
        out = out + dt * s
    return out


def solve_heat(
    field0: ContinuumField,
    params: ChainParams,
    s_value: float,
    times: "Array | Sequence[float]",
    dt: float | None = None,
) -> "list[ContinuumField]":
    """Explicit integration of du/dt = diff * u_xx - 2 lambda u + s.

    Explicit stepping with a second-order central Laplacian on the periodic
    grid; the decay/source part is advanced with its exact exponential
    factor.  `dt` defaults to the stability bound min(0.4 dx^2/diff,
    0.1/(2 lambda)); a larger request is rejected at configuration time.
    Returns one field per sample time; `times` starts at `field0.time` and
    does not decrease.  Each interval is cut into
    max(1, ceil(span/dt - 1e-12)) equal steps, so every sample time is hit
    exactly.
    """
    if s_value < 0:
        raise ValueError(f"source density must be >= 0, got {s_value}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or times[0] != field0.time:
        raise ValueError(f"times must start at the initial field time {field0.time}")
    if np.any(np.diff(times) < 0):
        raise ValueError("times must not decrease")
    diff = diffusion_constant(params)
    lam = params.lambda_fric
    bound = _stability_bound(field0.dx, diff, lam)
    dt = bound if dt is None else dt
    if dt > bound * (1.0 + 1e-12):
        raise CFLError(f"dt = {dt:.3e} exceeds the explicit stability bound {bound:.3e} "
                       f"(dx = {field0.dx}, diff_const = {diff:.3e}, lambda = {lam})")

    u = field0.values
    out = [ContinuumField(u.copy(), field0.dx, field0.time)]
    for t_prev, t_next in zip(times[:-1], times[1:]):
        span = t_next - t_prev
        steps = max(1, int(np.ceil(span / dt - 1e-12)))
        h = span / steps
        for _ in range(steps):
            u = _heat_step(u, field0.dx, diff, lam, s_value, h)
        out.append(ContinuumField(u, field0.dx, float(t_next)))
    return out


def fourier_current(field: ContinuumField, params: ChainParams) -> Array:
    """Heat current J = -diff_const * du/dx (central difference, periodic)."""
    grad = (np.roll(field.values, -1) - np.roll(field.values, 1)) / (2.0 * field.dx)
    return -diffusion_constant(params) * grad


def klemens_conductivity(params: ChainParams, temp: float, velocity: str = "sound") -> float:
    """Mode-sum conductivity kappa = (1/Na) sum_q v(q) r(q) d(eps)/dT.

    d(eps)/dT is `mode_heat_capacities` and r(q) = v(q) tau with the
    uniform relaxation time tau = 1/(2 lambda) of the on-site damping.

    velocity:
        "sound" uses the long-wavelength constant group velocity
        a*sqrt(xi/m) for every mode (the elastic-continuum reduction, which
        meets the continuum kappa = diff_const * C(T));
        "dispersion" uses the exact slope a*d(omega)/dq, which suppresses
        the zone-edge contribution and stays strictly below the
        long-wavelength value.
    """
    if velocity not in ("sound", "dispersion"):
        raise ValueError(f"velocity must be 'sound' or 'dispersion', got {velocity!r}")
    deps = mode_heat_capacities(params, temp)
    if velocity == "sound":
        v2 = np.full_like(deps, params.sound_speed**2)
    else:
        v2 = np.asarray(group_velocity(params, mode_grid(params)), dtype=float) ** 2
    tau = 1.0 / (2.0 * params.lambda_fric)
    total = float(np.sum(v2 * tau * deps))
    return total / (params.n_sites * params.lattice_const)


@dataclass
class CompareScenario:
    """Matched chain / continuum run: a heated region on a cold background."""

    t_hot: float
    t_cold: float
    width_sites: float  # Gaussian envelope width (sigma) in lattice units
    t_final: float
    hotspot_mode: str = "thermal"
    dt_max: float | None = None
    sample_interval: float | None = None  # defaults to ~80 samples
    fit_t_min: float | None = None  # defaults to 0.5 / lambda
    fit_t_max: float | None = None  # defaults to t_final


@dataclass
class ComparisonReport:
    """Outcome of the chain-versus-continuum experiment."""

    times: Array
    dev_field: Array  # ||u_disc - u_pde|| / ||u_pde||
    dev_transient: Array  # ||u_disc - u_pde|| / ||u_pde - u_eq||
    fit_slope: float
    diff_const: float
    u_eq: float
    slope_per_time: Array
    u_disc: Array  # (n_times, N)
    j_disc: Array
    u_pde: Array
    warnings: "list[str]" = field(default_factory=list)

    @property
    def max_dev_field(self) -> float:
        return float(np.max(self.dev_field))

    @property
    def slope_ratio(self) -> float:
        return self.fit_slope / self.diff_const


def _current_gradient_fit(
    scenario: CompareScenario, lam: float, a: float, times: Array, u: Array, j: Array
) -> "tuple[float, Array]":
    """Regression of the site current J_k on -du/dx (central difference).

    Returns the slope pooled over the scenario's fit window (default
    [0.5 / lambda, t_final]) and the slope of each sample on its own (NaN
    where the gradient vanishes).
    """
    t_lo = scenario.fit_t_min if scenario.fit_t_min is not None else 0.5 / lam
    t_hi = scenario.fit_t_max if scenario.fit_t_max is not None else scenario.t_final
    window = (times >= t_lo - 1e-12) & (times <= t_hi + 1e-12)
    grad = (np.roll(u, -1, axis=1) - np.roll(u, 1, axis=1)) / (2.0 * a)
    x = -grad[window].ravel()
    y = j[window].ravel()
    denom = float(np.dot(x, x))
    fit_slope = float(np.dot(x, y) / denom) if denom > 0 else np.nan

    slope_per_time = np.full(len(times), np.nan)
    for i in range(len(times)):
        xi_ = -grad[i]
        d = float(np.dot(xi_, xi_))
        if d > 0:
            slope_per_time[i] = float(np.dot(xi_, j[i]) / d)
    return fit_slope, slope_per_time


def compare_discrete_continuum(
    params: ChainParams, scenario: CompareScenario
) -> ComparisonReport:
    """Run the chain and the heat equation from matched initial data.

    The chain starts from a cold Gibbs state with a Gaussian heated region
    and evolves under the full moment dynamics; the continuum field starts
    from the coarse-grained site energy density on a grid with dx = a and
    follows the transport equation with the chain's own equilibrium density
    as source.  Reports the L2 deviation over time (relative to the full
    field and to the transient amplitude) and the pooled regression of the
    microscopic current on the discrete density gradient within the fit
    window, whose slope the transport coefficient should reproduce.
    """
    run = params.with_bath_temp(scenario.t_cold)
    n = run.n_sites
    a = run.lattice_const
    lam = run.lambda_fric

    warnings: "list[str]" = []
    b = transport_coefficients(run, scenario.t_cold).range_b
    if scenario.width_sites * a < b:
        warnings.append(
            f"hotspot width {scenario.width_sites * a:.3g} below the propagation range b = {b:.3g}"
        )
    if b < a:
        warnings.append(
            f"propagation range b = {b:.3g} below the lattice constant (friction too strong "
            "for the long-wavelength premise)"
        )

    weights = gaussian_site_weights(n, n / 2.0, scenario.width_sites)
    state0 = hotspot_state(
        run, scenario.t_cold, scenario.t_hot, weights, mode=scenario.hotspot_mode
    )
    matrices = thermal_matrices(run)

    interval = scenario.sample_interval
    if interval is None:
        interval = scenario.t_final / 80.0
    stride = max(1, int(round(interval / step_bound(matrices, scenario.dt_max))))

    def observer(state):
        obs = site_observables(state, run)
        return obs.densities, obs.currents

    traj = evolve(
        state0,
        matrices,
        t_final=scenario.t_final,
        dt_max=scenario.dt_max,
        sample_stride=stride,
        observer=observer,
    )
    times = traj.times
    u_disc = np.array([o[0] for o in traj.observations])
    j_disc = np.array([o[1] for o in traj.observations])

    u_eq = gibbs_energy_density(run, scenario.t_cold)
    diff = diffusion_constant(run)
    fields = solve_heat(ContinuumField(u_disc[0], a, times[0]), run, 2.0 * lam * u_eq, times,
                        dt=PDE_DT_FACTOR * _stability_bound(a, diff, lam))
    u_pde = np.array([f.values for f in fields])

    delta = u_disc - u_pde
    norm_field = np.linalg.norm(u_pde, axis=1)
    norm_trans = np.linalg.norm(u_pde - u_eq, axis=1)
    dev_field = np.linalg.norm(delta, axis=1) / norm_field
    with np.errstate(divide="ignore", invalid="ignore"):
        dev_transient = np.where(
            norm_trans > 0, np.linalg.norm(delta, axis=1) / norm_trans, 0.0
        )

    fit_slope, slope_per_time = _current_gradient_fit(scenario, lam, a, times, u_disc, j_disc)

    return ComparisonReport(
        times=times,
        dev_field=dev_field,
        dev_transient=dev_transient,
        fit_slope=fit_slope,
        diff_const=diff,
        u_eq=u_eq,
        slope_per_time=slope_per_time,
        u_disc=u_disc,
        j_disc=j_disc,
        u_pde=u_pde,
        warnings=warnings,
    )


@dataclass
class KineticPrediction:
    """Free-streaming prediction of the chain transient at given sample times."""

    u: Array  # (n_times, N) energy density
    j: Array  # (n_times, N) site current
    u_eq: float
    fit_slope: float  # same pooled regression as ComparisonReport.fit_slope


def kinetic_prediction(
    params: ChainParams, scenario: CompareScenario, times: "Array | Sequence[float]"
) -> KineticPrediction:
    """Kinetic (free-streaming phonon) prediction of the compare transient.

    Purely on-site damping multiplies the chain's transient by e^{-2 lambda t}
    and scatters nothing between modes, so the hot region's excess mode
    energy de(q) = eps(q, T_hot) - eps(q, T_cold) streams ballistically at
    the group velocity v_q (Rieder, Lebowitz & Lieb, J. Math. Phys. 8:1073,
    1967; Spohn, J. Stat. Phys. 124:1041, 2006):

        u(x, t) = u_eq + e^{-2 lambda t} N^-1 sum_q de(q) w(x - v_q t) / a
        J(x, t) = e^{-2 lambda t} N^-1 sum_q v_q de(q) w(x - v_q t) / a

    with w the periodic Gaussian envelope of the hot region and
    u_eq = gibbs_energy_density(T_cold).  Nothing here reads a chain run:
    the fields follow from the parameters, the scenario and the sample times
    alone, and carry the same current-gradient regression as
    `compare_discrete_continuum`.  The long-wavelength law J = -diff_const
    du/dx assumes every mode moves at v_s and the current has relaxed; here
    for an envelope wide against v_q t, J / (-du/dx) grows as <v_q^2> t
    (averaged with weights de(q)) instead.
    """
    if scenario.hotspot_mode != "thermal":
        raise ValueError(
            f"kinetic prediction needs hotspot_mode 'thermal', got {scenario.hotspot_mode!r}"
        )
    if params.gamma_fric != 0.0:
        raise ValueError("kinetic prediction assumes purely on-site damping (gamma_fric = 0)")
    if params.omega0 == 0.0:
        raise ValueError("kinetic prediction needs omega0 > 0: the acoustic zero mode "
                         "has no stationary Gibbs state")
    n = params.n_sites
    a = params.lattice_const
    lam = params.lambda_fric

    d_eps = mode_energies(params, scenario.t_hot) - mode_energies(params, scenario.t_cold)
    v = np.asarray(group_velocity(params, mode_grid(params)), dtype=float)
    u_eq = gibbs_energy_density(params, scenario.t_cold)

    times = np.asarray(times, dtype=float)
    u = np.empty((len(times), n))
    j = np.empty((len(times), n))
    for i, t in enumerate(times):
        centers = (n / 2.0 + v * t / a) % n
        env = gaussian_site_weights(n, centers[:, None], scenario.width_sites)  # (mode, site)
        scale = np.exp(-2.0 * lam * t) / (n * a)
        u[i] = u_eq + scale * (d_eps @ env)
        j[i] = scale * ((v * d_eps) @ env)

    fit_slope, _ = _current_gradient_fit(scenario, lam, a, times, u, j)
    return KineticPrediction(u=u, j=j, u_eq=u_eq, fit_slope=fit_slope)
