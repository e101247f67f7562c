# The continuum heat-transport equation and its transport coefficients.
#
# In the long-wavelength limit the site energy density obeys
#
#     du/dt = (a^2 xi / 2 lambda m) u_xx - 2 lambda (u - u_eq),
#
# a diffusion equation with Newton-cooling decay.  The diffusion constant
# is the product of the sound speed and the propagation range
# b = v_s / (2 lambda); multiplying by the heat capacity density gives the
# thermal conductivity, which a phonon mode sum (velocity x range x mode
# heat capacity) reproduces at high temperature.

import numpy as np

from heatchain import (
    ChainParams,
    ContinuumField,
    diffusion_constant,
    fourier_current,
    klemens_conductivity,
    solve_heat,
    transport_coefficients,
)

p = ChainParams(n_sites=64, omega0=0.0, xi=1.0, lambda_fric=0.1, bath_temp=10.0)
tc = transport_coefficients(p, p.bath_temp)
print("range b           :", tc.range_b)
print("sound speed v_s   :", p.sound_speed)
print("diffusion constant:", tc.diff_const)
print("conductivity kappa:", tc.kappa)
print("mode-sum kappa    :", klemens_conductivity(p, p.bath_temp))
print("mode-sum kappa (exact dispersion slope):",
      klemens_conductivity(p, p.bath_temp, velocity="dispersion"))

# A Gaussian bump on the equilibrium background spreads and decays; the
# explicit solver follows the closed-form spectral solution.
m_cells, length = 256, 128.0
dx = length / m_cells
x = dx * np.arange(m_cells)
u_eq = 1.0
u0 = u_eq + 0.8 * np.exp(-0.5 * ((x - length / 2) / 6.0) ** 2)
s = 2 * p.lambda_fric * u_eq
fields = solve_heat(ContinuumField(u0, dx), p, s, np.linspace(0.0, 1.0 / p.lambda_fric, 6))

print()
print("    t      peak height    current extremum")
for f in fields:
    j = fourier_current(f, p)
    print(f"{f.time:8.2f}  {f.values.max() - u_eq:12.5f}  {np.max(np.abs(j)):16.6f}")

k = 2 * np.pi * np.fft.fftfreq(m_cells, d=dx)
exact = u_eq + np.real(np.fft.ifft(
    np.fft.fft(u0 - u_eq) * np.exp(-(diffusion_constant(p) * k**2 + 2 * p.lambda_fric)
                                   * fields[-1].time)))
print()
print("final L2 deviation from the spectral solution:",
      np.linalg.norm(fields[-1].values - exact) / np.linalg.norm(exact))
