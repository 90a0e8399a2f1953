"""Collective emission rates of the layered array.

A subwavelength square layer reflects a matched paraxial beam like a
two-sided mirror: the symmetric collective mode radiates into the beam
at an enhanced rate while everything that misses the mode is lost.
This module reduces the geometry to the handful of scalars the rest of
the package runs on.

Conventions: rates in units of the single-atom decay, lengths in units
of the wavelength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .exceptions import DomainError
from .geometry import ArrayGeometry, BeamProfile


@dataclass(frozen=True)
class RateSet:
    """Scalar rates of the collective beam-coupled mode.

    Attributes
    ----------
    gamma0:
        Single-layer collective decay into the paraxial mode for a
        perfectly matched beam, (3/4pi)(1/a)^2 in wavelength units.
    eta:
        Beam-to-array overlap efficiency in [0, 1].
    gamma_coll:
        Total collective decay into the beam, eta * n_layers * gamma0.
    gamma_loss:
        Everything lost from the beam mode: imperfect overlap plus any
        extra single-atom dephasing or scattering channel.
    gamma_s:
        The bare extra loss rate fed in by the caller (kept for
        reporting; it is already contained in gamma_loss).
    r0:
        Resonant power reflectivity of the stack into the beam,
        gamma_coll / (gamma_coll + gamma_loss).
    """

    gamma0: float
    eta: float
    gamma_coll: float
    gamma_loss: float
    gamma_s: float
    r0: float


def single_layer_rate(lattice_const: float) -> float:
    """Collective decay of one matched layer, (3/4pi)/a^2."""
    if lattice_const <= 0.0:
        raise DomainError(f"lattice_const must be positive, got {lattice_const}")
    if lattice_const >= 1.0:
        raise DomainError(
            "lattice_const must be below one wavelength for a single-mode "
            f"layer, got {lattice_const}"
        )
    return 3.0 / (4.0 * math.pi) / (lattice_const * lattice_const)


def overlap_efficiency(geom: ArrayGeometry, beam: BeamProfile) -> float:
    """Fraction of the Gaussian beam intercepted by one square layer.

    Closed form for a centred beam: erf(N a / (sqrt(2) w))^2 with N the
    side length in sites.  The square comes from the two transverse
    directions factorising.
    """
    if beam.center != (0.0, 0.0):
        raise DomainError(
            "overlap_efficiency assumes a centred beam; got center "
            f"{beam.center}"
        )
    arg = geom.n_side * geom.lattice_const / (math.sqrt(2.0) * beam.waist)
    e = math.erf(arg)
    return e * e


def discrete_overlap(geom: ArrayGeometry, beam: BeamProfile) -> float:
    """Site-summed overlap a^2 * sum_n |u(r_n)|^2 over one layer.

    Converges to :func:`overlap_efficiency` once the lattice resolves
    the beam waist.  Useful as a cross-check that the closed form is the
    correct continuum limit of the actual discrete array.
    """
    coords = geom.layer_coordinates()
    u = beam.amplitude(coords[:, 0], coords[:, 1])
    return float(geom.lattice_const ** 2 * np.sum(np.abs(u) ** 2))


def waist_for_overlap(geom: ArrayGeometry, eta: float) -> float:
    """Waist that produces a requested overlap efficiency on this array.

    Inverts the closed-form overlap, w = N a / (sqrt(2) erf^{-1}(sqrt(eta))),
    through the normal quantile: sqrt(2) erf^{-1}(p) = -Phi^{-1}((1 - p)/2).
    The ``1 - p`` form keeps eta just below 1 finite, where ``(1 + p)/2``
    would round to 1.
    """
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must lie strictly inside (0, 1), got {eta}")
    return geom.n_side * geom.lattice_const / (
        -NormalDist().inv_cdf(0.5 * (1.0 - math.sqrt(eta)))
    )


def compute_rates(
    geom: ArrayGeometry,
    beam: BeamProfile,
    gamma_s: float = 0.0,
) -> RateSet:
    """Reduce geometry and beam to the scalar rate set.

    ``gamma_s`` is any additional per-atom loss (scattering out of the
    two-level subspace, inhomogeneous dephasing) in units of the
    single-atom decay.  The leakage from imperfect beam overlap enters
    the loss budget once per layer.
    """
    if gamma_s < 0.0:
        raise DomainError(f"gamma_s must be non-negative, got {gamma_s}")
    gamma0 = single_layer_rate(geom.lattice_const)
    eta = overlap_efficiency(geom, beam)
    gamma_coll = eta * geom.n_layers * gamma0
    gamma_loss = (1.0 - eta) * geom.n_layers * gamma0 + gamma_s
    r0 = gamma_coll / (gamma_coll + gamma_loss)
    return RateSet(
        gamma0=gamma0,
        eta=eta,
        gamma_coll=gamma_coll,
        gamma_loss=gamma_loss,
        gamma_s=gamma_s,
        r0=r0,
    )


@dataclass(frozen=True)
class ValidityReport:
    """Where the scalar model can be trusted for a given configuration.

    Each flag comes with the margin it was decided on so a sweep can
    report how close to the edge a point sits.
    """

    layer_size_ok: bool
    layer_size_margin: float
    rayleigh_ok: bool
    rayleigh_margin: float
    phase_match_ok: bool
    phase_match_margin: float
    evanescent_ok: bool
    evanescent_margin: float
    linearization_ok: bool
    n_eff: float
    heisenberg_floor: float

    @property
    def all_ok(self) -> bool:
        return (
            self.layer_size_ok
            and self.rayleigh_ok
            and self.phase_match_ok
            and self.evanescent_ok
            and self.linearization_ok
        )


def validity_report(
    geom: ArrayGeometry,
    beam: BeamProfile,
    n_photons: float,
    rates: RateSet,
) -> ValidityReport:
    """Check the assumptions behind the scalar reflectivity picture.

    The checks, in order: the layer must be many wavelengths across,
    the whole stack must fit inside the Rayleigh range of the focus,
    the layer spacing must be an integer number of wavelengths for the
    phase-matched formulas, the spacing must not be smaller than the
    lattice constant (otherwise evanescent coupling dominates), and the
    photon number must stay below the saturation scale of the array.
    """
    layer_size = geom.n_side * geom.lattice_const
    layer_size_ok = layer_size >= 10.0

    stack_length = (geom.n_layers - 1) * geom.layer_spacing
    z_r = beam.rayleigh_range
    rayleigh_margin = stack_length / z_r
    rayleigh_ok = rayleigh_margin <= 1.0

    nearest = round(geom.layer_spacing)
    phase_match_margin = abs(geom.layer_spacing - nearest)
    phase_match_ok = nearest >= 1 and phase_match_margin < 1e-9

    evanescent_margin = geom.layer_spacing / geom.lattice_const
    evanescent_ok = geom.layer_spacing >= geom.lattice_const

    n_eff = rates.eta * 2.0 * math.pi * (beam.waist / geom.lattice_const) ** 2 * geom.n_layers
    linearization_ok = n_photons < n_eff

    n_total = geom.atoms_per_layer * geom.n_layers
    heisenberg_floor = 1.0 / n_total

    return ValidityReport(
        layer_size_ok=layer_size_ok,
        layer_size_margin=layer_size,
        rayleigh_ok=rayleigh_ok,
        rayleigh_margin=rayleigh_margin,
        phase_match_ok=phase_match_ok,
        phase_match_margin=phase_match_margin,
        evanescent_ok=evanescent_ok,
        evanescent_margin=evanescent_margin,
        linearization_ok=linearization_ok,
        n_eff=n_eff,
        heisenberg_floor=heisenberg_floor,
    )
