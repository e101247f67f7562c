# Bath-induced diffusion coefficients across temperature.
#
# The heat bath enters the moment dynamics only through the diffusion
# coefficients D_xx, D_pp, D_ex, fixed so the chain relaxes to the Gibbs
# state at the bath temperature.  They are Brillouin-zone integrals of a
# coth occupation kernel; at high temperature they collapse to closed
# forms, and the combination
#
#     s = (D_pp/m + (m omega0^2 + 2 xi) D_xx - 2 xi D_ex) / a
#
# (the continuum source density) tends to 2 lambda k_B T / a exactly --
# Newton's law of heating, independent of every lattice detail.

import numpy as np

from heatchain import (
    ChainParams,
    gibbs_energy_density,
    heat_capacity_density,
    high_temp_diffusion,
    quad_diffusion,
    source_density,
)

p = ChainParams(n_sites=64, omega0=1.0, xi=1.0, lambda_fric=0.1, gamma_fric=0.02,
                bath_temp=1.0)

print("    T        D_xx        D_pp        D_ex      s a/(2 lam kB T)    C a/kB")
temps = np.geomspace(0.2, 200.0, 8)
sweep = quad_diffusion(p, temps)  # every quantity takes the whole sweep at once
newton = source_density(p, sweep) * p.lattice_const / (2 * p.lambda_fric * p.k_boltz * temps)
cap = heat_capacity_density(p, temps) * p.lattice_const / p.k_boltz
for row in zip(temps, sweep.d_xx, sweep.d_pp, sweep.d_ex, newton, cap):
    print("{:8.3f}  {:10.5f}  {:10.5f}  {:10.5f}  {:16.6f}  {:10.5f}".format(*row))

# The closed high-temperature forms reproduce the integrals once k_B T is
# well above the phonon band.
temp = 50.0 * p.omega_max
closed = high_temp_diffusion(p, temp)
quad = quad_diffusion(p, temp)
print()
print(f"at k_B T = 50 hbar omega(pi) = {temp:.2f}:")
print("  D_xx quad/closed:", quad.d_xx / closed.d_xx)
print("  D_pp quad/closed:", quad.d_pp / closed.d_pp)
print("  D_ex quad/closed:", quad.d_ex / closed.d_ex)
print("  u_eq vs k_B T/a: ", gibbs_energy_density(p, temp) * p.lattice_const / (p.k_boltz * temp))
