# Relaxation of the covariance state toward the Gibbs state.
#
# A uniformly overheated ring loses energy to the bath at exactly the rate
# 2 lambda: the microscopic currents telescope around the ring, so the
# total energy obeys the scalar law U(t) = U_eq + (U_0 - U_eq) e^{-2 lam t}
# whenever the neighbour friction gamma vanishes.  The stationary point of
# the dynamics is the Gibbs covariance, recovered here both by running the
# dynamics and by solving the Lyapunov equation mode by mode.

import numpy as np

from heatchain import (
    ChainParams,
    evolve,
    gibbs_covariance,
    gibbs_energy_density,
    site_observables,
    stationary_covariance,
    thermal_matrices,
    total_energy,
    uniform_state,
)

p = ChainParams(n_sites=32, omega0=1.0, xi=1.0, lambda_fric=0.1, bath_temp=2.0)
mats = thermal_matrices(p)

state0 = uniform_state(p, temp=5.0)  # hot start
traj = evolve(state0, mats, t_final=3.0 / p.lambda_fric, sample_stride=40)

u_eq = p.n_sites * p.lattice_const * gibbs_energy_density(p, p.bath_temp)
print("    t        U(t)       closed form")
for s in traj.states:
    u = total_energy(s, p)
    want = u_eq + (total_energy(traj.states[0], p) - u_eq) * np.exp(-2 * p.lambda_fric * s.time)
    print(f"{s.time:8.2f}  {u:10.4f}  {want:12.4f}")

# equilibrium carries no current
final_obs = site_observables(traj.states[-1], p)
print()
print("max |J_k| in the final state:", np.max(np.abs(final_obs.currents)))

# Lyapunov route to the same stationary state
st = stationary_covariance(mats)
gb = gibbs_covariance(p, p.bath_temp)
rel = np.linalg.norm(st.sigma - gb.sigma) / np.linalg.norm(gb.sigma)
print("stationary vs Gibbs covariance, relative deviation:", rel)
