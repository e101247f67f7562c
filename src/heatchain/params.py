"""Physical parameters of the damped harmonic ring and its heat bath."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class ChainParams:
    """Parameter set for a monoatomic periodic chain coupled to a bath.

    Attributes
    ----------
    n_sites:
        Number of lattice sites N, an integer (int or NumPy integer) >= 3
        so each site has two distinct neighbours on the ring.
    mass:
        Atomic mass m > 0.
    omega0:
        On-site (pinning) angular frequency, >= 0.
    xi:
        Nearest-neighbour coupling constant (mass * frequency^2), >= 0.
    lattice_const:
        Lattice spacing a > 0.
    lambda_fric:
        On-site friction rate lambda > 0.
    gamma_fric:
        Nearest-neighbour friction rate gamma >= 0.  The bath spectral
        weight lambda + 2*gamma*cos(q) must stay nonnegative, hence
        2*gamma <= lambda.
    hbar, k_boltz:
        Explicit unit constants; default 1 for natural-unit runs.
    bath_temp:
        Bath temperature T_f >= 0.
    """

    n_sites: int
    mass: float = 1.0
    omega0: float = 1.0
    xi: float = 1.0
    lattice_const: float = 1.0
    lambda_fric: float = 0.1
    gamma_fric: float = 0.0
    hbar: float = 1.0
    k_boltz: float = 1.0
    bath_temp: float = 1.0

    def __post_init__(self) -> None:
        problems = [f"{f.name} must be finite, got {v}" for f in fields(self)
                    if not math.isfinite(v := getattr(self, f.name))]
        # an integer type, not an integral value: 8.0 would fail later as an array size
        if not isinstance(self.n_sites, numbers.Integral) or self.n_sites < 3:
            problems.append(f"n_sites must be an integer >= 3, got {self.n_sites}")
        if not self.mass > 0:
            problems.append(f"mass must be > 0, got {self.mass}")
        if self.omega0 < 0:
            problems.append(f"omega0 must be >= 0, got {self.omega0}")
        if self.xi < 0:
            problems.append(f"xi must be >= 0, got {self.xi}")
        if not self.lattice_const > 0:
            problems.append(f"lattice_const must be > 0, got {self.lattice_const}")
        if not self.lambda_fric > 0:
            problems.append(f"lambda_fric must be > 0, got {self.lambda_fric}")
        if self.gamma_fric < 0:
            problems.append(f"gamma_fric must be >= 0, got {self.gamma_fric}")
        if 2.0 * self.gamma_fric > self.lambda_fric:
            problems.append(
                "2*gamma_fric must not exceed lambda_fric "
                f"(got gamma={self.gamma_fric}, lambda={self.lambda_fric})"
            )
        if not self.hbar > 0:
            problems.append(f"hbar must be > 0, got {self.hbar}")
        if not self.k_boltz > 0:
            problems.append(f"k_boltz must be > 0, got {self.k_boltz}")
        if self.bath_temp < 0:
            problems.append(f"bath_temp must be >= 0, got {self.bath_temp}")
        if problems:
            raise ValueError("invalid chain parameters: " + "; ".join(problems))

    @property
    def omega_max(self) -> float:
        """Band-edge frequency omega(pi) = sqrt(omega0^2 + 4*xi/m)."""
        return (self.omega0**2 + 4.0 * self.xi / self.mass) ** 0.5

    @property
    def sound_speed(self) -> float:
        """Long-wavelength group velocity a*sqrt(xi/m)."""
        return self.lattice_const * (self.xi / self.mass) ** 0.5

    @property
    def propagation_range(self) -> float:
        """Distance b = v_s / (2 lambda) sound covers in one relaxation time."""
        return self.sound_speed / (2.0 * self.lambda_fric)

    def with_bath_temp(self, temp: float) -> "ChainParams":
        return replace(self, bath_temp=temp)
