"""heatchain: heat transport in a damped harmonic ring.

Lindblad-type moment dynamics of a periodic 1d harmonic lattice coupled to
a heat bath, the bath-induced diffusion coefficients, and the continuum
heat-transport equation that emerges in the long-wavelength limit.

Frozen copy of src/heatchain at commit 658ec5f, the reference that
benchmarks/run.py times the current sources against.  One line differs:
report.py reads its schema from this package, not from heatchain.  Do not
edit it; a benchmark whose reference moves measures nothing.
"""

from .params import ChainParams
from .chain import (
    ModelMatrices,
    assemble_diffusion,
    build_matrices,
    circulant,
    dispersion,
    drift_matrix,
    friction_matrix,
    group_velocity,
    mode_grid,
    stiffness_matrix,
)
from .covariance import CovarianceState, PSDViolationError, check_psd, symmetrize
from .diffusion import (
    DiffusionSet,
    GibbsSummary,
    coth,
    gibbs_covariance,
    gibbs_energy_density,
    gibbs_summary,
    heat_capacity_density,
    high_temp_diffusion,
    mode_sum_diffusion,
    quad_diffusion,
    source_density,
    thermal_diffusion_matrix,
    thermal_matrices,
)
from .dynamics import (
    EnergyBalanceReport,
    SiteObservables,
    Trajectory,
    energy_balance_residual,
    energy_balance_rhs,
    evolve,
    gaussian_site_weights,
    hotspot_state,
    moment_rhs,
    site_observables,
    stationary_covariance,
    total_energy,
    uniform_state,
)
from .continuum import (
    CFLError,
    CompareScenario,
    ComparisonReport,
    ContinuumField,
    TransportCoefficients,
    compare_discrete_continuum,
    diffusion_constant,
    fourier_current,
    klemens_conductivity,
    solve_heat,
    transport_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "ChainParams",
    "ModelMatrices",
    "CovarianceState",
    "PSDViolationError",
    "DiffusionSet",
    "GibbsSummary",
    "SiteObservables",
    "Trajectory",
    "EnergyBalanceReport",
    "ContinuumField",
    "TransportCoefficients",
    "CompareScenario",
    "ComparisonReport",
    "CFLError",
    "assemble_diffusion",
    "build_matrices",
    "check_psd",
    "circulant",
    "compare_discrete_continuum",
    "coth",
    "diffusion_constant",
    "dispersion",
    "drift_matrix",
    "energy_balance_residual",
    "energy_balance_rhs",
    "evolve",
    "fourier_current",
    "friction_matrix",
    "gaussian_site_weights",
    "gibbs_covariance",
    "gibbs_energy_density",
    "gibbs_summary",
    "group_velocity",
    "heat_capacity_density",
    "high_temp_diffusion",
    "hotspot_state",
    "klemens_conductivity",
    "mode_grid",
    "mode_sum_diffusion",
    "moment_rhs",
    "quad_diffusion",
    "site_observables",
    "solve_heat",
    "source_density",
    "stationary_covariance",
    "stiffness_matrix",
    "symmetrize",
    "thermal_diffusion_matrix",
    "thermal_matrices",
    "total_energy",
    "transport_coefficients",
    "uniform_state",
]
