"""heatchain: heat transport in a damped harmonic ring.

Lindblad-type moment dynamics of a periodic 1d harmonic lattice coupled to
a heat bath, the bath-induced diffusion coefficients, and the continuum
heat-transport equation that emerges in the long-wavelength limit.
"""

from .params import ChainParams
from .chain import (
    ModelMatrices,
    build_matrices,
    circulant,
    dispersion,
    group_velocity,
    mode_grid,
)
from .covariance import (
    FactoredState,
    FourierGram,
    PSDViolationError,
    check_psd,
    min_eig_ratio,
    symmetrize,
)
from .diffusion import (
    DiffusionSet,
    gibbs_covariance,
    gibbs_energy_density,
    heat_capacity_density,
    high_temp_diffusion,
    mode_sum_diffusion,
    quad_diffusion,
    source_density,
    thermal_matrices,
)
from .dynamics import (
    SiteObservables,
    Trajectory,
    energy_balance_rhs,
    energy_decay,
    evolve,
    gaussian_site_weights,
    hotspot_state,
    mode_propagator,
    site_observables,
    stationary_covariance,
    step_bound,
    total_energy,
    uniform_state,
)
from .continuum import (
    CFLError,
    CompareScenario,
    ComparisonReport,
    ContinuumField,
    KineticPrediction,
    TransportCoefficients,
    compare_discrete_continuum,
    diffusion_constant,
    fourier_current,
    kinetic_prediction,
    klemens_conductivity,
    solve_heat,
    transport_coefficients,
)

__version__ = "0.1.0"
