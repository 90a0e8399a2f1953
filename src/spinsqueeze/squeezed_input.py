"""Broadband squeezed-vacuum drive and the noise kernels it imprints.

The input field is a stationary squeezed vacuum characterised by its
photon flux ``n_photons`` per unit bandwidth and a purity in [0, 1].
For a pure state the anomalous moment saturates the Heisenberg bound,
M = sqrt(N(N+1)); impurity scales it down by the given factor while
leaving N untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DomainError
from .geometry import ArrayGeometry
from .rates import RateSet

# Past this photon number the beam-splitter law's 4 N (N + 1) overflows.
MAX_PHOTONS = 0.5 * math.sqrt(math.nextafter(math.inf, 0.0))


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
        if not 0.0 <= self.n_photons <= MAX_PHOTONS:
            raise DomainError(
                "n_photons must be finite, non-negative and at most "
                f"MAX_PHOTONS = {MAX_PHOTONS!r}, got {self.n_photons}"
            )
        if not 0.0 <= self.purity <= 1.0:
            raise DomainError(f"purity must lie in [0, 1], got {self.purity}")


def field_moments(spec: SqueezedVacuumSpec) -> tuple[float, float]:
    """Photon number N and anomalous moment M of the input field.

    Returns ``(N, M)`` with M = purity * sqrt(N(N+1)).
    """
    n = spec.n_photons
    m = spec.purity * math.sqrt(n * (n + 1.0))
    return n, m


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
    reflectivity: float,
    n_photons: float | np.ndarray,
    contrast: float,
    theta_opt: float = 0.0,
) -> SqueezingResult:
    """The beam-splitter law that every squeezing route reduces to.

    A fraction R = ``reflectivity`` of the input correlations reaches the
    spin with contrast c = ``contrast`` in [0, 1] and the rest is vacuum,
    so xi2 = 1 + 2 R (N - c sqrt(N(N+1))) and
    xi2_anti = 1 + 2 R (N + c sqrt(N(N+1))).  The direct difference
    cancels where squeezing is strongest, for c near 1 and large N, so
    xi2 is evaluated as (1 - R) + R v with the field variance in ratio
    form,

        v = (1 + 4 N (N+1) (1 - c)(1 + c)) / (1 + 2N + 2c sqrt(N(N+1))),

    which keeps full relative precision for every c in [0, 1].  For an
    array N, ``xi2`` and ``xi2_anti`` are arrays, each element the bits of
    its N alone: the law takes only + - * / and sqrt, correctly rounded.
    """
    if not 0.0 <= contrast <= 1.0:
        raise DomainError(f"squeezing contrast must lie in [0, 1], got {contrast}")
    n = n_photons
    root = (np.sqrt if isinstance(n, np.ndarray) else math.sqrt)(n * (n + 1.0))
    field = (1.0 + 4.0 * n * (n + 1.0) * (1.0 - contrast) * (1.0 + contrast)) / (
        1.0 + 2.0 * n + 2.0 * contrast * root
    )
    xi2 = (1.0 - reflectivity) + reflectivity * field
    xi2_anti = 1.0 + 2.0 * reflectivity * (n + contrast * root)
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
    Both index the real part of :meth:`ArrayGeometry.layer_phases` over
    2 N_z - 1 layers, the phases the kernel reads, so the commutator
    kernel, the phase-matched vacuum decay plus the local extra loss, is
    exactly -(A + A^H) of the drift matrix at every spacing.  ``s_n`` is
    linear in N and ``s_m`` in M, which is what lets one solve at
    N = M = 1 serve every input (:func:`steady.unit_response`).
    """
    n_z = geom.n_layers
    cosines = replace(geom, n_layers=2 * n_z - 1).layer_phases().real
    idx = np.arange(n_z)
    drive = rates.eta * rates.gamma0
    cos_diff = cosines[np.abs(np.subtract.outer(idx, idx))]
    s_n = drive * n_phot * cos_diff
    s_m = -drive * m_anom * cosines[np.add.outer(idx, idx)]
    comm = rates.gamma0 * cos_diff + rates.gamma_s * np.eye(n_z)
    return DiffusionSet(s_n=s_n, s_m=s_m, comm=comm)
