# Phonon dispersion of the damped harmonic ring.
#
# The ring of N identical atoms with on-site pinning omega0 and
# nearest-neighbour coupling xi carries one phonon branch
#
#     omega(q) = sqrt(omega0^2 + (4 xi / m) sin^2(q / 2)),
#
# with q the dimensionless wavenumber on (-pi, pi].  Without pinning the
# branch is acoustic: linear near q = 0 with sound speed a sqrt(xi/m).

import numpy as np

from heatchain import ChainParams, dispersion, group_velocity, mode_grid

pinned = ChainParams(n_sites=32, omega0=1.0, xi=1.0, lambda_fric=0.1, bath_temp=1.0)
acoustic = ChainParams(n_sites=32, omega0=0.0, xi=1.0, lambda_fric=0.1, bath_temp=1.0)

q = np.sort(mode_grid(pinned))
print("  q        omega (pinned)   omega (acoustic)   v_g (acoustic)")
for qi in q[::4]:
    print(f"{qi:+.4f}   {dispersion(pinned, qi):14.6f}   {dispersion(acoustic, qi):16.6f}"
          f"   {group_velocity(acoustic, qi):+14.6f}")

print()
print("zone edge omega(pi), acoustic:", dispersion(acoustic, np.pi), "(= 2 sqrt(xi/m))")
print("sound speed a sqrt(xi/m):     ", acoustic.sound_speed)

# The same frequencies come out of the stiffness circulant: m omega0^2 + 2 xi
# on site and -xi to each neighbour.  The Fourier symbol of its first row
# divided by the mass is omega(q)^2, mode by mode.
row = np.zeros(acoustic.n_sites)
row[0] = acoustic.mass * acoustic.omega0**2 + 2.0 * acoustic.xi
row[1] = row[-1] = -acoustic.xi
sym = np.fft.fft(row).real / acoustic.mass
print("max |omega(q)^2 - K-symbol/m|:",
      np.max(np.abs(dispersion(acoustic, mode_grid(acoustic)) ** 2 - sym)))

try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None
if plt is not None:
    fig, ax = plt.subplots()
    qq = np.linspace(-np.pi, np.pi, 400)
    ax.plot(qq, dispersion(pinned, qq), label="pinned (omega0 = 1)")
    ax.plot(qq, dispersion(acoustic, qq), label="acoustic (omega0 = 0)")
    ax.plot(qq, acoustic.sound_speed * np.abs(qq), "k:", label="sound line")
    ax.set_xlabel("q")
    ax.set_ylabel("omega(q)")
    ax.legend()
    fig.savefig("dispersion.png", dpi=120)
    print("wrote dispersion.png")
