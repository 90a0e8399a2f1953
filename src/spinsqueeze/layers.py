"""Inter-layer couplings of the stack beyond the ideal mirror picture.

Each layer scatters the paraxial mode coherently, which gives the
familiar retarded coupling (gamma0/2) e^{i k a_z |n-m|} between layer
modes.  On top of that, the near field of a subwavelength lattice has
evanescent diffraction orders that tunnel between adjacent layers and
detune the collective mode.  This module builds both pieces, assembles
the drift matrix of the layer modes (at integer spacing, the m-layer
equivalent stack of its Lanczos reduction instead), and evaluates the
collective frequency shift that the evanescent couplings produce.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.linalg import schur, toeplitz

from .analytic import DetuningSpec
from .blas import one_blas_thread
from .exceptions import ConvergenceError, StabilityError
from .geometry import TWO_PI, ArrayGeometry
from .rates import RateSet, single_layer_rate

DEFAULT_EPS_TOL = 1e-14
DEFAULT_MAX_ORDER = 200
# A Lanczos off-diagonal below this fraction of a bound on ||E|| is rounding:
# the Krylov space is exhausted.
LANCZOS_BREAKDOWN = 1e-12


@dataclass(frozen=True)
class TruncationInfo:
    """How far the evanescent order sum was carried.

    ``max_order`` is the squared order index |m_perp|^2 of the last shell
    kept in the band and ``terms_summed`` counts the individual lattice
    orders added up across its separations; both are 0 for a kernel
    without its evanescent part.
    """

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


# A layer stack as the solvers and the trajectory oracle take it.
Stack = tuple[DriftMatrix, ArrayGeometry, RateSet]


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


def evanescent_range(geom: ArrayGeometry) -> float:
    """1/e range of the first evanescent shell, in wavelengths.

    zeta = a / (2 pi sqrt(1 - a^2)) for the shell with |m_perp|^2 = 1,
    the slowest to decay.
    """
    a = geom.lattice_const
    return a / (2.0 * math.pi * math.sqrt(1.0 - a * a))


def evanescent_band(geom: ArrayGeometry) -> tuple[np.ndarray, TruncationInfo]:
    """Evanescent coupling eps(s) between layers s = 0 ... w apart.

    The one place the evanescent sum is carried out; the interaction
    kernel and the collective shift both read it.  eps[0] is 0, since
    same-layer physics is not part of the kernel.  One bound on |eps(s)|,
    B(s) = sum_m |c(m)| e^{-kappa_m k a_z s}, cuts the shells (their part
    of B(1)) at half of the floor ``DEFAULT_EPS_TOL`` |eps(1)|, leaving
    the other half for rounding, and the separations (B(w + 1) over all
    shells) at the whole floor, so every eps kept or omitted is within
    it.  The last shell up to |m|^2 = ``DEFAULT_MAX_ORDER`` must be under
    the floor, or :class:`ConvergenceError` is raised.  The band depends
    on the lattice, spacing and dipole but not on the depth or
    ``n_side``, so one memoised, read-only band serves every stack.
    """
    lattice = geom.lattice_const, geom.layer_spacing, geom.dipole_orientation
    return _lattice_band(*lattice, DEFAULT_EPS_TOL, DEFAULT_MAX_ORDER)


@lru_cache(maxsize=64)
def _lattice_band(
    lattice_const: float,
    layer_spacing: float,
    dipole: tuple[float, float],
    tol: float,
    max_order: int,
) -> tuple[np.ndarray, TruncationInfo]:
    """:func:`evanescent_band` of one lattice at floor ``tol`` |eps(1)| and
    shell cap ``max_order``; the floor and cap are arguments, and so part
    of the cache key."""
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
    return eps, TruncationInfo(int(orders[kept - 1]), int(counts[:kept].sum()) * width)


def interaction_kernel(
    geom: ArrayGeometry,
    rates: RateSet,
    include_evanescent: bool = True,
) -> LayerKernel:
    """Assemble the full inter-layer coupling matrix.

    D[n, m] = (gamma0/2) e^{i k a_z |n-m|} + i eps(|n-m|) off the
    diagonal and zero on it, with eps the :func:`evanescent_band`, and 0
    past it or without ``include_evanescent``.  The kernel only depends
    on |n - m|, so it is the complex symmetric Toeplitz matrix of one
    column.
    """
    n_z = geom.n_layers
    column = 0.5 * rates.gamma0 * geom.layer_phases()
    column[0] = 0.0
    if include_evanescent:
        eps, truncation = evanescent_band(geom)
        reach = min(len(eps), n_z)
        column[1:reach] += 1j * eps[1:reach]
    else:
        truncation = TruncationInfo(max_order=0, terms_summed=0)
    # Column and row both: toeplitz(column) alone conjugates the upper triangle.
    return LayerKernel(d_matrix=toeplitz(column, column), truncation=truncation)


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
    return _factorise(a, rates)


@one_blas_thread()
def _factorise(
    a: np.ndarray, rates: RateSet, abscissa: float = -math.inf
) -> DriftMatrix:
    """Schur form of ``a``, on one OpenBLAS thread, refused unless its
    spectral abscissa is below -1e-12 gamma0; ``abscissa`` is an
    eigenvalue real part known to belong to the full generator that
    ``a`` represents.  Every drift matrix of the package, dense or
    reduced, is factorised here."""
    schur_t, schur_q = schur(a, output="complex")
    schur_t.setflags(write=False)
    schur_q.setflags(write=False)
    threshold = -1e-12 * rates.gamma0
    worst = max(float(np.max(np.diag(schur_t).real)), abscissa)
    if worst >= threshold:
        raise StabilityError(
            f"drift matrix not strictly stable: max Re(eig) = {worst:.3e} "
            f"(threshold {threshold:.3e}); add non-collective loss"
        )
    return DriftMatrix(matrix=a, schur_t=schur_t, schur_q=schur_q)


def kernel_lanczos(
    eps: np.ndarray, n_z: int, start: int, cap: int
) -> Iterator[tuple[np.ndarray, np.ndarray, bool]]:
    """Lanczos tridiagonalisation of the evanescent kernel from 1/sqrt(N_z).

    E[n, m] = eps(|n - m|) is real symmetric and banded, so each step is
    one banded product; the basis is reorthogonalised in full, twice.
    The uniform vector only reaches the modes that are even under
    reversing the stack, so each new vector is made exactly even: the
    iteration would otherwise amplify rounding into the odd modes and
    run through all N_z modes instead of about N_z/2.  Yields the
    diagonal and off-diagonal of T_m = Q_m^T E Q_m for m = start,
    2 start, ... up to ``cap``, and whether the space is exhausted: a
    vanishing off-diagonal ends the iteration with T_m exact on the
    Krylov space of the uniform vector.  The even modes number
    ceil(N_z/2), so m is clamped to ceil(N_z/2) + 1, which leaves one
    step for rounding: a cap at or past it always ends exhausted.  Even
    modes that start and 2 start would span are taken whole in one rung.
    """
    band = np.asarray(eps[1:n_z], dtype=float)
    stencil = np.concatenate((band[::-1], [0.0], band))
    floor = LANCZOS_BREAKDOWN * 2.0 * np.abs(band).sum()  # of ||E||
    basis = np.full((1, n_z), 1.0 / math.sqrt(n_z))
    diag: list[float] = []
    off: list[float] = []
    even = (n_z + 1) // 2
    cap = min(cap, even + 1)
    m = min(start if even > 2 * start else even + 1, cap)
    while len(diag) < m:
        basis = np.concatenate((basis, np.empty((m + 1 - len(basis), n_z))))
        for j in range(len(diag), m):
            q = basis[j]
            w = np.convolve(q, stencil)[len(band) : len(band) + n_z]
            diag.append(float(q @ w))
            for _ in range(2):
                w -= basis[: j + 1].T @ (basis[: j + 1] @ w)
            w = 0.5 * (w + w[::-1])
            beta = math.sqrt(w @ w)
            if beta <= floor:
                yield np.array(diag), np.array(off), True
                return
            off.append(beta)
            basis[j + 1] = w / beta
        yield np.array(diag), np.array(off[: m - 1]), False
        m = min(2 * m, cap)


def equivalent_stack(
    diag: np.ndarray,
    off: np.ndarray,
    geom: ArrayGeometry,
    rates: RateSet,
    det: DetuningSpec,
) -> Stack:
    """Factorised m-layer stack of the Lanczos tridiagonal T_m (``diag``,
    ``off``) of ``geom``'s evanescent kernel, from :func:`kernel_lanczos`.

    At integer spacing every phase is 1, so A = beta I - i E - (gamma0/2) 1 1^T
    with beta = i delta - gamma_s/2; on the Lanczos basis it is
    beta I - i T_m - (gamma0 N_z/2) e1 e1^T.  The Householder reflection
    H = I - 2 v v^T / v^T v with v = e1 - u maps e1 to the uniform vector
    u = 1/sqrt(m) and is its own inverse, so H A H = beta I - i H T_m H -
    (gamma0 N_z/2m) 1 1^T, and it turns the sources' N_z e1 e1^T likewise:
    the problem of m layers at the same spacing with coupling gamma0 N_z/m
    each, whose uniform projection is the collective mode.  The derived
    rates stay those of the real stack.  The eigenvectors of E that
    reversing the stack flips are orthogonal to 1, hence eigenvectors of
    the full generator with real part -gamma_s/2 (for N_z >= 2), and the
    Hermitian part of the projection is at most -gamma_s/2: the full
    spectral abscissa is the larger of the two, checked as in
    :func:`drift_matrix`.  The coupling gamma0 N_z/m is rounded once, for
    the drift and for the rates the sources read, and the turned T_m is
    made exactly symmetric, so the commutator kernel is -(A + A^H) to the
    bit, as on the dense route.
    """
    m, n_z = len(diag), geom.n_layers
    t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    v = np.full(m, -1.0 / math.sqrt(m))
    v[0] += 1.0
    w = (2.0 / (v @ v)) * v if m > 1 else v  # H = I - v w^T; at m = 1, v = 0
    t -= np.outer(v, w @ t)  # H T, then (H T) H
    t -= np.outer(t @ v, w)
    t = 0.5 * (t + t.T)  # the two updates leave rounding asymmetry
    gamma0 = rates.gamma0 * (n_z / m)
    a = (1j * det.eff_detuning - 0.5 * rates.gamma_s) * np.eye(m) - 1j * t
    a -= 0.5 * gamma0  # (gamma0 N_z/2m) 1 1^T
    abscissa = -0.5 * (rates.gamma_s + (rates.gamma0 if n_z == 1 else 0.0))
    drift = _factorise(a, rates, abscissa)
    return drift, replace(geom, n_layers=m), replace(rates, gamma0=gamma0)


def delta_prime(geom: ArrayGeometry) -> float:
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
    eps, _ = evanescent_band(geom)
    seps = np.arange(1, min(len(eps), n_z))
    weights = (n_z - seps) * geom.layer_phases()[seps].real
    return float(2.0 / n_z * np.dot(weights, eps[seps]))
