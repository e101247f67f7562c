"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-5 and 9 are the oracle checks of `heatchain.verify` (the checks
behind `heatchain verify`), run on `DEFAULT_PARAMS`; criterion 1 draws its
random states from seed 20240801.  Criteria 6-8 (conductivity consistency,
PDE correctness, discrete-to-continuum emergence) are written out here.

Default natural-unit parameter set: N = 64, m = 1, omega0 = 1, xi = 1,
a = 1, lambda = 0.1, gamma = 0, hbar = 1, k_B = 1, T_f = 2.
"""

from dataclasses import replace

import numpy as np

from heatchain import (
    CompareScenario,
    ContinuumField,
    compare_discrete_continuum,
    diffusion_constant,
    kinetic_prediction,
    klemens_conductivity,
    solve_heat,
    transport_coefficients,
)
from heatchain.verify import (
    DEFAULT_PARAMS,
    check_conservation,
    check_energy_decay,
    check_gibbs_stationarity,
    check_heat_capacity,
    check_high_temp_forms,
    check_moment_fidelity,
)


def report(num, name, passed, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if passed else 'FAIL'} -- {detail}")


def report_check(num, name, result):
    report(num, name, result.passed, result.detail)
    assert result.passed, result.line()


def test_criterion_1_moment_equation_fidelity():
    """Matrix RHS equals a literal transcription of the moment equations."""
    report_check(1, "moment-equation fidelity",
                 check_moment_fidelity(DEFAULT_PARAMS, seed=20240801))


def test_criterion_2_gibbs_stationarity():
    """Stationary covariance equals the Gibbs covariance (both damping kinds)."""
    report_check(2, "Gibbs stationarity / fluctuation-dissipation",
                 check_gibbs_stationarity(DEFAULT_PARAMS))


def test_criterion_3_total_energy_decay():
    """gamma = 0 relaxation: rate 2 lambda (0.1%) and U_eq identity (1e-6)."""
    report_check(3, "exact total-energy decay", check_energy_decay(DEFAULT_PARAMS))


def test_criterion_4_high_temperature_closed_forms():
    """Quadrature coefficients vs printed closed forms at k_B T = 50 hbar w(pi)."""
    report_check(4, "high-temperature closed forms", check_high_temp_forms(DEFAULT_PARAMS))


def test_criterion_5_heat_capacity_limits():
    """C(T) a / k_B in [0.99, 1] on the classical plateau; C(0) = 0."""
    report_check(5, "heat capacity limits", check_heat_capacity(DEFAULT_PARAMS))


def test_criterion_6_conductivity_consistency():
    """Mode-sum conductivity meets diff_const * C(T) at high temperature.

    With the sound velocity the mode sum is diff_const * C(T) term by term.
    The independent clause uses the exact acoustic slope v_q = v_s cos(q/2):
    on the classical plateau every mode carries k_B, so the ratio to the
    continuum kappa tends to <cos^2(q/2)> = 1/2.
    """
    p = replace(DEFAULT_PARAMS, n_sites=1024, omega0=0.0)
    temp = 50.0 * p.hbar * p.omega_max / p.k_boltz
    kappa_sum = klemens_conductivity(p, temp, velocity="sound")
    kappa_disp = klemens_conductivity(p, temp, velocity="dispersion")
    kappa_cont = transport_coefficients(p, temp).kappa
    rel = abs(kappa_sum / kappa_cont - 1.0)
    rel_disp = abs(2.0 * kappa_disp / kappa_cont - 1.0)
    passed = rel <= 0.02 and rel_disp <= 0.02
    report(6, "conductivity consistency", passed,
           f"klemens/continuum - 1 = {rel:.2e} (tol 2e-2), "
           f"2 dispersion/continuum - 1 = {rel_disp:.2e} (tol 2e-2)")
    assert passed


def test_criterion_7_pde_correctness():
    """Explicit solver vs the closed-form heat-kernel solution (512 cells)."""
    p = DEFAULT_PARAMS
    m_cells, length = 512, 256.0
    dx = length / m_cells
    x = dx * np.arange(m_cells)
    u_eq, amp, width = 1.0, 0.5, 8.0
    u0 = u_eq + amp * np.exp(-0.5 * ((x - length / 2) / width) ** 2)
    s = 2 * p.lambda_fric * u_eq
    t_end = 1.0 / p.lambda_fric
    fields = solve_heat(ContinuumField(u0, dx), p, s, [0.0, t_end], dt=0.004)
    diff = diffusion_constant(p)
    k = 2 * np.pi * np.fft.fftfreq(m_cells, d=dx)
    w_hat = np.fft.fft(u0 - u_eq)
    exact = u_eq + np.real(np.fft.ifft(w_hat * np.exp(-(diff * k**2 + 2 * p.lambda_fric) * t_end)))
    rel = float(np.linalg.norm(fields[-1].values - exact) / np.linalg.norm(exact))
    passed = rel <= 1e-4
    report(7, "PDE correctness", passed, f"L2 rel {rel:.2e} (tol 1e-4)")
    assert passed


def test_criterion_8_discrete_continuum_emergence():
    """Central experiment: N = 256 chain vs the continuum heat equation.

    Field deviation from the heat equation <= 5% inside t in [0.5, 5]/lambda.
    The pooled current-gradient regression slope is held within 10% of the
    slope the same regression gives on the free-streaming kinetic prediction,
    not of diff_const = v_s^2 / (2 lambda).  That constant assumes every
    mode moves at v_s and the current has relaxed.  Here every mode is
    populated classically, so over the hot region's excess mode energy
    <v_q^2> = 0.476 v_s^2; and with on-site damping alone the current relaxes
    at 2 lambda, the rate at which the whole transient decays, so
    J / (-du/dx) never settles and grows as <v_q^2> t.  The printed
    slope/diff_const keeps the departure from the long-wavelength Fourier
    law visible; the chain must also follow the kinetic density to 1e-2 of
    the transient.
    """
    p = replace(DEFAULT_PARAMS, n_sites=256, omega0=0.05, lambda_fric=0.125, bath_temp=300.0)
    b = transport_coefficients(p, p.bath_temp).range_b
    width = 10.0 * b  # >= 8 b
    sc = CompareScenario(t_hot=400.0, t_cold=300.0, width_sites=width,
                         t_final=5.0 / p.lambda_fric)
    rep = compare_discrete_continuum(p, sc)
    kin = kinetic_prediction(p, sc, rep.times)
    window = (rep.times >= 0.5 / p.lambda_fric) & (rep.times <= 5.0 / p.lambda_fric)
    dev = float(np.max(rep.dev_field[window]))
    dev_tr = float(np.max(rep.dev_transient[window]))
    dev_kin = float(np.max(
        np.linalg.norm(rep.u_disc - kin.u, axis=1)[window]
        / np.linalg.norm(kin.u - kin.u_eq, axis=1)[window]
    ))
    slope_err = abs(rep.fit_slope / kin.fit_slope - 1.0)
    dev_ok = dev <= 0.05
    slope_ok = slope_err <= 0.10
    kin_ok = dev_kin <= 1e-2
    passed = dev_ok and slope_ok and kin_ok
    report(8, "discrete-to-continuum emergence", passed,
           f"L2 dev {dev:.2e} (tol 5e-2; transient-normalized {dev_tr:.2e}), "
           f"slope/diff_const = {rep.fit_slope / rep.diff_const:.3f}, "
           f"kinetic slope/diff_const = {kin.fit_slope / rep.diff_const:.3f} "
           f"(slope tol within 10% of kinetic), "
           f"chain-vs-kinetic transient dev {dev_kin:.2e} (tol 1e-2)")
    assert dev_ok, f"field deviation {dev:.3e} exceeds 5%"
    assert slope_ok, (
        f"Fourier-law regression slope {rep.fit_slope / rep.diff_const:.3f} * diff_const "
        f"is not within 10% of the free-streaming kinetic slope "
        f"{kin.fit_slope / rep.diff_const:.3f} * diff_const. With on-site damping "
        "alone the current relaxes at 2 lambda, the decay rate of the whole "
        "transient, so J / (-du/dx) grows as <v_q^2> t over the classically "
        "populated modes instead of settling at diff_const."
    )
    assert kin_ok, (
        f"chain density departs from the kinetic prediction by {dev_kin:.3e} of the "
        "transient, above 1e-2"
    )


def test_criterion_9_conservation_sanity():
    """Undamped, noiseless chain conserves energy; states stay PSD."""
    report_check(9, "conservation sanity", check_conservation(DEFAULT_PARAMS))
