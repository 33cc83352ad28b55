"""Shared lattice geometry.

Internal time is measured in units where one fiber loop closes after 4 units.
A lattice of ``2*n`` steps per loop period gives the cell size ``eps = 2/n``;
all construction vertices land on the half-cell grid ``eps/2 = 1/n``, which is
what the integer path representation counts in.  ``mass_scale`` converts one
internal time unit to physical time so that a loop period equals one Compton
period ``2*pi/m``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PERIOD = 4.0  # internal time units per fiber loop


class SpecError(ValueError):
    """Every rule that a set of parameters breaks, each as a ``field: reason`` string."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)

    @classmethod
    def check(cls, problems: list[str]) -> None:
        if problems:
            raise cls(problems)


@dataclass(frozen=True)
class LatticeSpec:
    """Grid resolution and internal-to-physical time normalization.

    ``n`` is half the number of lattice steps per fiber period and must be a
    positive even integer: the loop changes direction every quarter period,
    and quarter periods sit on cell boundaries only when ``n`` is even.
    """

    n: int
    mass_scale: float = math.pi / 2.0  # physical seconds per internal unit; pi/2 <=> m = 1

    def __post_init__(self) -> None:
        problems = []
        if self.n <= 0:
            problems.append("n: n must be positive")
        elif self.n % 2 != 0:
            problems.append("n: n must be even so quarter periods align to cells")
        if not (self.mass_scale > 0.0):
            problems.append("mass_scale: must be positive")
        elif not 0.0 < self.mass < math.inf:
            problems.append(f"mass_scale: implies mass {self.mass}, not a positive finite number")
        SpecError.check(problems)

    @classmethod
    def for_mass(cls, n: int, mass: float = 1.0) -> "LatticeSpec":
        """Spec with the loop period pinned to the Compton period 2*pi/mass."""
        if not (mass > 0.0):
            raise ValueError("mass must be positive")
        return cls(n=n, mass_scale=(2.0 * math.pi / mass) / PERIOD)

    @property
    def eps(self) -> float:
        """Lattice cell size, internal units (both axes)."""
        return 2.0 / self.n

    @property
    def half(self) -> float:
        """Half-cell unit eps/2 = 1/n; integer path coordinates count these."""
        return 1.0 / self.n

    @property
    def period(self) -> float:
        return PERIOD

    @property
    def cells_per_period(self) -> int:
        return 2 * self.n

    @property
    def mass(self) -> float:
        """Physical mass implied by mass_scale (Compton period = 4 internal units)."""
        return 2.0 * math.pi / (PERIOD * self.mass_scale)

    @property
    def cell_physical(self) -> float:
        """Physical size of one lattice cell."""
        return self.mass_scale * self.eps
