"""Inter-layer couplings of the stack beyond the ideal mirror picture.

Each layer scatters the paraxial mode coherently, which gives the
familiar retarded coupling (gamma0/2) e^{i k a_z |n-m|} between layer
modes.  On top of that, the near field of a subwavelength lattice has
evanescent diffraction orders that tunnel between adjacent layers and
detune the collective mode.  This module builds both pieces, assembles
the drift matrix of the layer modes, and evaluates the collective
frequency shift that the evanescent couplings produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import schur, toeplitz

from .analytic import DetuningSpec
from .blas import one_blas_thread
from .exceptions import ConvergenceError, DomainError, StabilityError
from .geometry import TWO_PI, ArrayGeometry
from .rates import RateSet, single_layer_rate

DEFAULT_EPS_TOL = 1e-14
DEFAULT_MAX_ORDER = 200


@dataclass(frozen=True)
class TruncationInfo:
    """How far the evanescent order sum was carried.

    ``max_order`` is the squared order index |m_perp|^2 of the last shell
    kept in the band and ``terms_summed`` counts the individual lattice
    orders added up across its separations.
    """

    tol: float
    max_order: int
    terms_summed: int


@dataclass(frozen=True)
class LayerKernel:
    """Complete inter-layer coupling matrix of the stack.

    ``d_matrix`` combines the radiative coupling and ``i`` times the
    evanescent shift, with zero diagonal: single-layer physics lives in
    the drift matrix, not in the kernel.
    """

    d_matrix: np.ndarray
    truncation: TruncationInfo


@dataclass(frozen=True)
class DriftMatrix:
    """Drift generator of the coupled layer modes and its Schur form.

    ``matrix = schur_q @ schur_t @ schur_q.conj().T`` with ``schur_t``
    upper triangular and ``schur_q`` unitary.  The factors are computed
    once per matrix and shared by every steady-state solve against it,
    possibly from several threads, so they are stored read-only.
    """

    matrix: np.ndarray
    schur_t: np.ndarray
    schur_q: np.ndarray

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the drift generator, the diagonal of ``schur_t``."""
        return np.diag(self.schur_t)


@lru_cache(maxsize=64)
def _order_shells(
    lattice_const: float,
    dipole: tuple[float, float],
    cap: int,
) -> tuple[tuple[int, float, int, float], ...]:
    """Reciprocal-lattice shells of one layer, grouped by |m_perp|^2.

    For each non-zero integer order vector m_perp the transverse decay
    constant and the polarisation weight depend only on s = |m_perp|^2
    and on (m_perp . d)^2, so the whole shell collapses to one
    coefficient:

        c(s) = sum_{|m|^2 = s} ((m . d)^2 / a^2 - 1) / sqrt(s / a^2 - 1)

    Each shell is returned as (s, c(s), number of orders in the shell,
    decay constant sqrt(s / a^2 - 1)).  Shells with s <= a^2 would be
    propagating orders rather than evanescent ones; the subwavelength
    condition a < 1, which :class:`ArrayGeometry` enforces, guarantees
    every non-zero order is evanescent, and the square root stays real.
    """
    a2 = lattice_const * lattice_const
    reach = int(math.isqrt(cap)) + 1
    coeffs: dict[int, float] = {}
    counts: dict[int, int] = {}
    dx, dy = dipole
    for mx in range(-reach, reach + 1):
        for my in range(-reach, reach + 1):
            s = mx * mx + my * my
            if s == 0 or s > cap:
                continue
            dot = mx * dx + my * dy
            weight = (dot * dot / a2 - 1.0) / math.sqrt(s / a2 - 1.0)
            coeffs[s] = coeffs.get(s, 0.0) + weight
            counts[s] = counts.get(s, 0) + 1
    return tuple(
        (s, coeffs[s], counts[s], math.sqrt(s / a2 - 1.0)) for s in sorted(coeffs)
    )


def evanescent_range(geom: ArrayGeometry, order: int = 1) -> float:
    """1/e range of an evanescent diffraction order, in wavelengths.

    zeta = a / (2 pi sqrt(|m_perp|^2 - a^2)) for the shell with
    |m_perp|^2 = order.
    """
    if order < 1:
        raise DomainError(f"order must be at least 1, got {order}")
    a = geom.lattice_const
    return a / (2.0 * math.pi * math.sqrt(order - a * a))


def evanescent_band(
    geom: ArrayGeometry,
    tol: float = DEFAULT_EPS_TOL,
    max_order: int = DEFAULT_MAX_ORDER,
) -> tuple[np.ndarray, TruncationInfo]:
    """Evanescent coupling eps(s) between layers s = 0 ... w apart.

    The one place the evanescent sum is carried out; the interaction
    kernel and the collective shift both read it.  eps[0] is 0, since
    same-layer physics is not part of the kernel.  One bound on |eps(s)|,
    B(s) = sum_m |c(m)| e^{-kappa_m k a_z s}, cuts the shells (their part
    of B(1)) at half of ``tol`` |eps(1)|, leaving the other half for
    rounding, and the separations (B(w + 1) over all shells) at the whole
    floor, so every eps kept or omitted is within it.  The last shell
    below ``max_order`` must be under the floor.  The band depends on
    the lattice, spacing and dipole but not on the depth or ``n_side``,
    so one memoised, read-only band serves every stack.
    """
    return _lattice_band(
        geom.lattice_const, geom.layer_spacing, geom.dipole_orientation, tol, max_order
    )


@lru_cache(maxsize=64)
def _lattice_band(
    lattice_const: float,
    layer_spacing: float,
    dipole: tuple[float, float],
    tol: float,
    max_order: int,
) -> tuple[np.ndarray, TruncationInfo]:
    shells = _order_shells(lattice_const, dipole, max_order)
    orders, coeffs, counts, decays = (np.array(col) for col in zip(*shells))
    kaz = TWO_PI * layer_spacing
    # Every shell's term is largest at s = 1, so shells whose summed
    # magnitude there is below half the floor may be dropped at every s;
    # the other half is left for the rounding of the kept sum.
    first = coeffs * np.exp(-kaz * decays)
    floor = tol * abs(first.sum())
    if abs(first[-1]) > floor:
        raise ConvergenceError(
            f"evanescent sum for separation 1 still above tol {tol} after "
            f"shells up to |m|^2 = {max_order}"
        )
    tails = np.cumsum(np.abs(first)[::-1])[::-1]
    kept = max(1, int(np.count_nonzero(tails > 0.5 * floor)))
    # Every bound term falls with s and underflows to 0 in the end, so the
    # loop stops even where eps(1) is 0.
    width = 1
    while np.dot(np.abs(coeffs), np.exp(-kaz * (width + 1) * decays)) > floor:
        width += 1
    seps = np.arange(1, width + 1)
    sums = coeffs[:kept] @ np.exp(-kaz * np.outer(decays[:kept], seps))
    eps = 0.25 * single_layer_rate(lattice_const) * np.concatenate(([0.0], sums))
    eps.setflags(write=False)
    return eps, TruncationInfo(
        tol, int(orders[kept - 1]), int(counts[:kept].sum()) * width
    )


def interaction_kernel(
    geom: ArrayGeometry,
    rates: RateSet,
    tol: float = DEFAULT_EPS_TOL,
    include_evanescent: bool = True,
    max_order: int = DEFAULT_MAX_ORDER,
) -> LayerKernel:
    """Assemble the full inter-layer coupling matrix.

    D[n, m] = (gamma0/2) e^{i k a_z |n-m|} + i eps(|n-m|) off the
    diagonal and zero on it, with eps = 0 past the evanescent band.  The
    kernel only depends on |n - m|, so it is the complex symmetric
    Toeplitz matrix of one column.
    """
    n_z = geom.n_layers
    column = 0.5 * rates.gamma0 * np.exp(1j * geom.axial_phase * np.arange(n_z))
    column[0] = 0.0
    if include_evanescent:
        eps, truncation = evanescent_band(geom, tol, max_order)
        reach = min(len(eps), n_z)
        column[1:reach] += 1j * eps[1:reach]
    else:
        truncation = TruncationInfo(tol=tol, max_order=0, terms_summed=0)
    # Column and row both: toeplitz(column) alone conjugates the upper triangle.
    return LayerKernel(d_matrix=toeplitz(column, column), truncation=truncation)


@one_blas_thread()
def drift_matrix(
    kernel: LayerKernel,
    rates: RateSet,
    det: DetuningSpec,
) -> DriftMatrix:
    """Linearised drift generator of the layer modes.

    A[n, n] = i (delta - Delta) - (gamma_s + gamma0)/2 and
    A[n, m] = -D[n, m] off the diagonal.  The generator must be strictly
    stable for a steady state to exist; at exact phase matching the
    dark layer modes are damped only by gamma_s, so gamma_s = 0 leaves
    marginal modes and is rejected here.  The stability check reads the
    eigenvalues off the complex Schur form, which the steady-state
    solves then reuse.
    """
    n_z = kernel.d_matrix.shape[0]
    diag = 1j * det.eff_detuning - 0.5 * (rates.gamma_s + rates.gamma0)
    a = -kernel.d_matrix.astype(complex)
    a[np.arange(n_z), np.arange(n_z)] = diag
    schur_t, schur_q = schur(a, output="complex")
    schur_t.setflags(write=False)
    schur_q.setflags(write=False)
    threshold = -1e-12 * rates.gamma0
    worst = float(np.max(np.diag(schur_t).real))
    if worst >= threshold:
        raise StabilityError(
            f"drift matrix not strictly stable: max Re(eig) = {worst:.3e} "
            f"(threshold {threshold:.3e}); add non-collective loss"
        )
    return DriftMatrix(matrix=a, schur_t=schur_t, schur_q=schur_q)


def delta_prime(
    geom: ArrayGeometry,
    tol: float = DEFAULT_EPS_TOL,
    max_order: int = DEFAULT_MAX_ORDER,
) -> float:
    """Frequency shift of the phase-matched collective mode.

    Projecting the evanescent part of the kernel onto the travelling
    collective mode gives

        delta' = (1/N_z) sum_{n != m} eps(|n - m|) e^{i k a_z (n - m)}.

    eps depends only on s = |n - m|, which N_z - s ordered pairs share
    in each direction, so the sum folds into the real cosine series

        delta' = (2/N_z) sum_{s=1}^{N_z-1} (N_z - s) eps(s) cos(k a_z s),

    of which only the separations inside the evanescent band count.
    The shift depends on the geometry alone.  Driving the stack at
    this shifted frequency restores the ideal mirror response to first
    order.
    """
    n_z = geom.n_layers
    eps, _ = evanescent_band(geom, tol, max_order)
    seps = np.arange(1, min(len(eps), n_z))
    weights = (n_z - seps) * np.cos(geom.axial_phase * seps)
    return float(2.0 / n_z * np.dot(weights, eps[seps]))
