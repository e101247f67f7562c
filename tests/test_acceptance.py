"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is a check of `heatchain.verify`, the checks behind
`heatchain verify`.  Criteria 1-5 and 9 run on `DEFAULT_PARAMS`; criterion 1
draws its random states from seed 20240801.  Criteria 6-8 (conductivity
consistency, PDE correctness, discrete-to-continuum emergence) run on their
fixed chains derived from `DEFAULT_PARAMS`.

Default natural-unit parameter set: N = 64, m = 1, omega0 = 1, xi = 1,
a = 1, lambda = 0.1, gamma = 0, hbar = 1, k_B = 1, T_f = 2.
"""

from heatchain.verify import (
    DEFAULT_PARAMS,
    check_conductivity_consistency,
    check_conservation,
    check_emergence,
    check_energy_decay,
    check_gibbs_stationarity,
    check_heat_capacity,
    check_high_temp_forms,
    check_moment_fidelity,
    check_pde_correctness,
)


def report_check(num, name, result):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if result.passed else 'FAIL'} -- {result.detail}")
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
    """Mode-sum conductivity meets diff_const * C(T) at high temperature."""
    report_check(6, "conductivity consistency", check_conductivity_consistency())


def test_criterion_7_pde_correctness():
    """Explicit solver vs the closed-form heat-kernel solution (512 cells)."""
    report_check(7, "PDE correctness", check_pde_correctness())


def test_criterion_8_discrete_continuum_emergence():
    """Central experiment: N = 256 chain vs the continuum heat equation and the kinetic oracle."""
    report_check(8, "discrete-to-continuum emergence", check_emergence())


def test_criterion_9_conservation_sanity():
    """Undamped, noiseless chain conserves energy; states stay PSD."""
    report_check(9, "conservation sanity", check_conservation(DEFAULT_PARAMS))
