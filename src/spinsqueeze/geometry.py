"""Array geometry and driving beam description.

All lengths in this package are expressed in units of the transition
wavelength and all rates in units of the single-atom free-space decay
rate, so neither constant ever appears explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ArrayGeometry:
    """A stack of identical square lattice layers.

    Attributes
    ----------
    n_side:
        Number of atoms along one side of each square layer.
    lattice_const:
        In-plane lattice constant, in wavelength units.  Must stay below
        one wavelength for the layers to behave as single-mode mirrors.
    n_layers:
        Number of layers along the propagation axis.
    layer_spacing:
        Axial distance between adjacent layers, in wavelength units.
    dipole_orientation:
        In-plane unit vector of the atomic dipole moment.
    """

    n_side: int
    lattice_const: float
    n_layers: int = 1
    layer_spacing: float = 1.0
    dipole_orientation: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self) -> None:
        if self.n_side < 1:
            raise DomainError(f"n_side must be at least 1, got {self.n_side}")
        if self.n_layers < 1:
            raise DomainError(f"n_layers must be at least 1, got {self.n_layers}")
        a2 = self.lattice_const * self.lattice_const  # the rates scale as 1/a^2
        if not (self.lattice_const > 0.0 and a2 > 0.0 and 1.0 / a2 < math.inf):
            raise DomainError(
                "lattice_const must be positive with 1/a^2 finite, "
                f"got {self.lattice_const}"
            )
        if self.lattice_const >= 1.0:
            raise DomainError(
                "lattice_const must be below one wavelength for a single-mode "
                f"layer, got {self.lattice_const}"
            )
        if self.layer_spacing <= 0.0:
            raise DomainError(
                f"layer_spacing must be positive, got {self.layer_spacing}"
            )
        dx, dy = self.dipole_orientation
        norm = math.hypot(dx, dy)
        if abs(norm - 1.0) > 1e-9:
            raise DomainError(
                "dipole_orientation must be a unit vector, "
                f"got norm {norm!r}"
            )

    @property
    def atoms_per_layer(self) -> int:
        return self.n_side * self.n_side

    @property
    def axial_phase(self) -> float:
        """Phase accumulated between adjacent layers, 2*pi*layer_spacing."""
        return TWO_PI * self.layer_spacing

    def layer_phases(self) -> np.ndarray:
        """Phase factors e^{i k a_z n} of layers n = 0 ... N_z - 1, reduced
        mod one turn first so that they do not drift with n: every factor
        is exactly 1 at integer spacing."""
        turns = np.mod(self.layer_spacing * np.arange(self.n_layers), 1.0)
        return np.exp(1j * TWO_PI * turns)

    def layer_coordinates(self) -> np.ndarray:
        """In-plane atom positions of one layer, centred on the beam axis.

        Returns an (n_side**2, 2) array.  The lattice is centred so that
        the beam axis passes through the symmetry centre of the square,
        which for even n_side falls between sites.
        """
        idx = np.arange(self.n_side, dtype=float)
        offset = 0.5 * (self.n_side - 1)
        xs = (idx - offset) * self.lattice_const
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])


@dataclass(frozen=True)
class BeamProfile:
    """Transverse profile of the paraxial drive mode at focus.

    The mode is the Gaussian fundamental.  ``waist`` is the 1/e^2
    intensity radius in wavelength units.  ``center`` shifts the beam
    axis in the lattice plane and exists for mode-mismatch studies; the
    scalar rate formulas assume a centred beam.
    """

    waist: float
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if not (self.waist > 0.0 and 0.0 < self.rayleigh_range < math.inf):
            raise DomainError(f"waist {self.waist} must be positive with pi w^2 in (0, inf)")

    def amplitude(self, x: np.ndarray | float, y: np.ndarray | float) -> np.ndarray | float:
        """Normalised mode amplitude u(x, y) with unit L2 norm in the plane.

        u(x, y) = sqrt(2/pi) / w * exp(-(x^2 + y^2)/w^2), so that
        integral |u|^2 dx dy = 1.
        """
        w = self.waist
        cx, cy = self.center
        r2 = (np.asarray(x) - cx) ** 2 + (np.asarray(y) - cy) ** 2
        return math.sqrt(2.0 / math.pi) / w * np.exp(-r2 / (w * w))

    @property
    def rayleigh_range(self) -> float:
        """Axial distance over which the focus stays collimated, pi*w^2."""
        return math.pi * self.waist * self.waist
