"""Broadband squeezed-vacuum drive and the noise kernels it imprints.

The input field is a stationary squeezed vacuum characterised by its
photon flux ``n_photons`` per unit bandwidth and a purity in [0, 1].
For a pure state the anomalous moment saturates the Heisenberg bound,
M = sqrt(N(N+1)); impurity scales it down by the given factor while
leaving N untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .geometry import ArrayGeometry
from .rates import RateSet


@dataclass(frozen=True)
class SqueezedVacuumSpec:
    """Stationary squeezed-vacuum input field.

    The squeeze phase is fixed to zero and the optimal measurement
    quadrature is reported relative to it; rotating the input is
    equivalent to rotating the detector.
    """

    n_photons: float
    purity: float = 1.0

    def __post_init__(self) -> None:
        if self.n_photons < 0.0:
            raise DomainError(f"n_photons must be non-negative, got {self.n_photons}")
        if not 0.0 <= self.purity <= 1.0:
            raise DomainError(f"purity must lie in [0, 1], got {self.purity}")


def field_moments(spec: SqueezedVacuumSpec) -> tuple[float, float]:
    """Photon number N and anomalous moment M of the input field.

    Returns ``(N, M)`` with M = purity * sqrt(N(N+1)).
    """
    n = spec.n_photons
    m = spec.purity * math.sqrt(n * (n + 1.0))
    return n, m


def quadrature_deficit(n: float, coeff: float) -> float:
    """Numerically stable evaluation of n - coeff * sqrt(n(n+1)).

    The direct difference loses all significant digits for coeff near 1
    and large n, exactly the regime where squeezing is strongest.  The
    ratio form below is algebraically identical and keeps full relative
    precision for every coeff in [0, 1]:

        n - c sqrt(n(n+1)) = n (n (1 - c^2) - c^2) / (n + c sqrt(n(n+1)))

    with 1 - c^2 evaluated as (1 - c)(1 + c), which stays fully accurate
    when c sits within an ulp of 1.
    """
    if not 0.0 <= coeff <= 1.0:
        raise DomainError(f"deficit coefficient must lie in [0, 1], got {coeff}")
    if n == 0.0:
        return 0.0
    root = math.sqrt(n * (n + 1.0))
    gap = (1.0 - coeff) * (1.0 + coeff)
    return n * (n * gap - coeff * coeff) / (n + coeff * root)


@dataclass(frozen=True)
class SqueezingResult:
    """A squeezing prediction.

    ``xi2`` is the variance of the optimal quadrature relative to the
    coherent-state reference, ``xi2_anti`` the orthogonal one, and
    ``theta_opt`` the quadrature angle that attains ``xi2``.
    """

    xi2: float
    theta_opt: float
    xi2_anti: float


def beam_splitter(
    reflectivity: float, n_photons: float, contrast: float, theta_opt: float = 0.0
) -> SqueezingResult:
    """The beam-splitter law that every squeezing route reduces to.

    A fraction R = ``reflectivity`` of the input correlations reaches the
    spin with contrast c = ``contrast`` in [0, 1] and the rest is vacuum,
    so xi2 = 1 + 2 R (N - c sqrt(N(N+1))), evaluated by
    :func:`quadrature_deficit`, and xi2_anti = 1 + 2 R (N + c sqrt(N(N+1))).
    """
    root = math.sqrt(n_photons * (n_photons + 1.0))
    xi2 = 1.0 + 2.0 * reflectivity * quadrature_deficit(n_photons, contrast)
    xi2_anti = 1.0 + 2.0 * reflectivity * (n_photons + contrast * root)
    return SqueezingResult(xi2, theta_opt, xi2_anti)


def input_quadrature_variance(spec: SqueezedVacuumSpec) -> float:
    """Squeezed quadrature variance of the bare field, 1 + 2(N - M).

    The beam-splitter law at full reflectivity.  Equals 1 for vacuum and
    approaches 1/(4N) from above for a strongly squeezed pure state.
    """
    return beam_splitter(1.0, spec.n_photons, spec.purity).xi2


@dataclass(frozen=True)
class DiffusionSet:
    """Layer-resolved second-moment sources of the driven stack.

    ``s_n`` drives the occupation-like moments, ``s_m`` the anomalous
    ones, and ``comm`` is the commutator (vacuum) kernel that fixes the
    operator ordering.  All are real symmetric (n_layers, n_layers)
    arrays: the squeeze phase is fixed to zero, so the anomalous source
    has no imaginary part either.
    """

    s_n: np.ndarray
    s_m: np.ndarray
    comm: np.ndarray


def noise_diffusions(
    spec: SqueezedVacuumSpec,
    geom: ArrayGeometry,
    rates: RateSet,
) -> DiffusionSet:
    """Build the layer-space diffusion kernels of the driven stack."""
    n_phot, m_anom = field_moments(spec)
    return moment_diffusions(n_phot, m_anom, geom, rates)


def moment_diffusions(
    n_phot: float,
    m_anom: float,
    geom: ArrayGeometry,
    rates: RateSet,
) -> DiffusionSet:
    """Diffusion kernels for the input moments N = ``n_phot``, M = ``m_anom``.

    The travelling drive addresses layer n with phase k a_z n, so the
    occupation source depends on separations, cos(k a_z (n - m)), while
    the anomalous source depends on the total phase, cos(k a_z (n + m)).
    The commutator kernel is the phase-matched vacuum decay plus the
    local extra loss.  ``s_n`` is linear in N and ``s_m`` in M, which is
    what lets one solve at N = M = 1 serve every input
    (:func:`steady.unit_response`).
    """
    n_z = geom.n_layers
    kaz = geom.axial_phase
    idx = np.arange(n_z)
    diff_phase = kaz * (idx[:, None] - idx[None, :])
    sum_phase = kaz * (idx[:, None] + idx[None, :])

    drive = rates.eta * rates.gamma0
    s_n = drive * n_phot * np.cos(diff_phase)
    s_m = -drive * m_anom * np.cos(sum_phase)
    comm = rates.gamma0 * np.cos(diff_phase) + rates.gamma_s * np.eye(n_z)
    return DiffusionSet(s_n=s_n, s_m=s_m, comm=comm)
