"""Steady-state second moments of the driven layer modes.

The linear drive-dissipation dynamics close on the pair correlation
matrices n[i, j] = <p_i^dag p_j> and m[i, j] = <p_i p_j>, whose steady
states solve two Sylvester equations

    conj(A) n + n A^T + s_n = 0,      A m + m A^T + s_m = 0.

Both are solved by the Bartels-Stewart method from the one complex
Schur form A = Q T Q^H that ``layers._factorise`` computes, for the
dense drift and for every equivalent stack alike: with
m = Q Y Q^T and n = conj(Q) Y Q^T they become the triangular equations

    T Y + Y T^T = -Q^H s_m conj(Q),   conj(T) Y + Y T^T = -Q^T s_n conj(Q),

each one LAPACK trsyl call, so no grid point factorises the drift
matrix again.

Everything observable is then a quadratic form of these matrices; the
collective squeezing parameter projects them onto the phase-matched
travelling mode.  The sources are linear in the input moments N and M,
so one solve at N = M = 1 (:func:`unit_response`) gives the collective
moments of every input to the same drift matrix, and
:func:`xi2_from_response` evaluates each input with the beam-splitter law
(:func:`squeezed_input.beam_splitter`), reflectivity c_n and contrast
purity |c_m|/c_n; :func:`xi2_over_grid` evaluates a grid of them at once.

At integer layer spacing every phase is 1, and the drive, the collective
mode and the radiative coupling all lie along the uniform vector.
:func:`numeric_response` then solves the same two equations on the
Krylov space of the banded evanescent kernel from that vector
(:func:`layers.kernel_lanczos`): an m x m problem, m doubling from
``KRYLOV_START`` until c_n and c_m move by less than ``KRYLOV_RTOL``.
It is exact once the space is exhausted and matches moments before that,
which is Gauss quadrature of the kernel's spectral measure (Golub and
Meurant, Matrices, Moments and Quadrature, 2010).  It costs
O(N_z m (w + m)) for band width w instead of O(N_z^3); other spacings
take the dense solve.  The Krylov space and its orthogonal complement
are both invariant under A, and the commutator kernel projects to
gamma0 N_z e1 e1^T + gamma_s I with no cross terms, so the collective
mode's statistics are those of the m-dimensional process.  A Householder
reflection of e1 onto the uniform vector makes that process an m-layer
stack with coupling gamma0 N_z/m per layer, which
:func:`layers.equivalent_stack` builds and factorises, and
:func:`unit_response` solves it like any other stack.  The trajectory
oracle samples the equivalent stack of a leading block of the converged
tridiagonal instead of the N_z-layer one: the smallest whose xi2 at the
point's input is within ``ORACLE_RTOL`` of the numeric column, each
block tested on the whole grid by one :func:`xi2_over_grid` call
(:func:`oracle_stacks`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import norm
from scipy.linalg.lapack import ztrsyl

from .analytic import DetuningSpec
from .blas import one_blas_thread
from .exceptions import ConvergenceError, PhysicalityError, ResidualError
from .geometry import ArrayGeometry
from .layers import (
    DriftMatrix,
    Stack,
    drift_matrix,
    equivalent_stack,
    evanescent_band,
    interaction_kernel,
    kernel_lanczos,
)
from .rates import RateSet
from .squeezed_input import (
    DiffusionSet,
    SqueezedVacuumSpec,
    SqueezingResult,
    beam_splitter,
    field_moments,
    moment_diffusions,
)

RESIDUAL_HARD_LIMIT = 1e-8
# Largest excess of purity * alpha over 1 that is taken for roundoff and
# clamped; a positive steady state has |c_m| <= c_n.
CONTRAST_ROUNDOFF = 1e-12
# The reduced solve stops when c_n and c_m move by less than KRYLOV_RTOL
# from m to 2m Lanczos steps (m = KRYLOV_START, doubling).  m never passes
# ceil(N_z/2) + 1, where the space is exhausted (see kernel_lanczos), so
# every stack of up to 2558 layers ends exactly; past that the reduced
# solve fails beyond KRYLOV_CAP steps, which bounds its cost.
# KRYLOV_START is 5 because its rungs 5 * 2^k include every rung 10 * 2^k
# of a start of 10: a slowly settling stack solves the same m plus one
# 5 x 5 problem, and a weakly coupled one (a = 0.68, where eps(1) is
# 5e-5 of the collective decay) settles on m = 5 and 10 instead of 10
# and 20.  One numeric point at a = 0.95, 1000 layers, gamma_s/gamma0 =
# 1e-5 took 0.12-0.17 s at start 10 and 0.11-0.18 s at 5, but 0.24 s
# at 3, and 0.47-0.56 s at 1, 2 or 4, whose power-of-two rungs make it
# solve m = 512.
KRYLOV_START = 5
KRYLOV_CAP = 1280
KRYLOV_RTOL = 1e-13
# Relative xi2 gap to the numeric column within which the trajectory
# oracle may sample a smaller Krylov block (see oracle_stacks).
ORACLE_RTOL = 1e-6

@dataclass(frozen=True)
class SteadyStateMoments:
    """Solved pair-correlation matrices with their solve residuals.

    ``n_matrix`` is Hermitian positive semidefinite, ``m_matrix``
    symmetric.  Residuals are Frobenius norms of the defining equations
    relative to the scale of their terms.
    """

    n_matrix: np.ndarray
    m_matrix: np.ndarray
    residual_n: float
    residual_m: float


def _norm(a: np.ndarray) -> float:
    """Frobenius norm by BLAS nrm2, which scales its sum of squares, so it
    overflows only where the norm itself does; a NaN entry gives NaN."""
    return norm(a.ravel("K"), check_finite=False)


def _residuals(
    a: np.ndarray, n_mat: np.ndarray, m_mat: np.ndarray, diff: DiffusionSet
) -> tuple[float, float]:
    """Relative residuals of conj(A) N + N A^T + S_n and A M + M A^T + S_m."""
    # The equations are homogeneous in the drift and the source, so both are
    # divided by the drift's largest entry (at least gamma0/2), which keeps
    # their norms finite at the top of the float range.  x is not: near there
    # it is itself subnormal, and its reciprocal would overflow.
    peak = np.abs(a).max()
    a = a / peak
    a_norm = _norm(a)  # also the norm of conj(A) and of A^T

    def residual(a_left: np.ndarray, x: np.ndarray, source: np.ndarray) -> float:
        source = source / peak
        res = a_left @ x + x @ a.T + source
        # ||a_left|| ||x|| + ||x|| ||A^T||, whose two terms are equal.
        scale = 2.0 * (a_norm * _norm(x)) + _norm(source)
        return 0.0 if scale == 0.0 else float(_norm(res) / scale)

    return residual(a.conj(), n_mat, diff.s_n), residual(a, m_mat, diff.s_m)


@one_blas_thread()
def solve_sylvester(
    r: np.ndarray,
    u: np.ndarray,
    s: np.ndarray,
    v: np.ndarray,
    q: np.ndarray,
) -> np.ndarray:
    """Solve a X + X b = q from the Schur forms a = u r u^H, b^H = v s v^H.

    ``r`` and ``s`` are upper triangular and ``u`` and ``v`` unitary.
    With X = u Y v^H the equation becomes r Y + Y s^H = u^H q v, which
    one LAPACK ztrsyl call solves by back substitution.  The factors
    are only read, never written.
    """
    f = np.dot(np.dot(u.conj().T, q), v)
    y, scale, info = ztrsyl(r, s, f, tranb="C")
    if info < 0:
        raise np.linalg.LinAlgError(f"ztrsyl rejected argument {-info}")
    y = y / scale
    return np.dot(np.dot(u, y), v.conj().T)


@one_blas_thread()
def solve_moments(
    drift: DriftMatrix,
    diff: DiffusionSet,
) -> SteadyStateMoments:
    """Solve the two steady-state Sylvester equations.

    Runs the Bartels-Stewart back substitution on the Schur factors that
    ``drift`` already carries, one :func:`solve_sylvester` call per
    equation and no new factorisation.  Results are symmetrised to
    remove roundoff asymmetry before the residual check.
    """
    a = drift.matrix
    # A^T = conj(A)^H with conj(A) = conj(Q) conj(T) conj(Q)^H, so both
    # equations take conj(T), conj(Q) as their right factors.
    t, q = drift.schur_t, drift.schur_q
    t_conj, q_conj = t.conj(), q.conj()
    n_mat = solve_sylvester(
        t_conj, q_conj, t_conj, q_conj, -diff.s_n.astype(complex)
    )
    m_mat = solve_sylvester(t, q, t_conj, q_conj, -diff.s_m.astype(complex))

    n_mat = 0.5 * (n_mat + n_mat.conj().T)
    m_mat = 0.5 * (m_mat + m_mat.T)

    # Products near the float range may overflow; a NaN residual is refused.
    with np.errstate(over="ignore", invalid="ignore"):
        res_n, res_m = _residuals(a, n_mat, m_mat, diff)
    worst = float(np.maximum(res_n, res_m))  # NaN if either is
    if not worst <= RESIDUAL_HARD_LIMIT:
        raise ResidualError(
            f"steady-state solve residual {worst:.3e} exceeds "
            f"{RESIDUAL_HARD_LIMIT:.1e}; the drift matrix is likely near "
            "singular"
        )
    return SteadyStateMoments(n_mat, m_mat, res_n, res_m)


@one_blas_thread()
def collective_moments(
    moments: SteadyStateMoments,
    geom: ArrayGeometry,
) -> tuple[float, complex]:
    """Project the pair correlations onto the phase-matched mode.

    Returns (<P^dag P>, <P P>) for the collective mode
    P = (1/sqrt(N_z)) sum_n e^{i k a_z n} p_n.
    """
    n_z = geom.n_layers
    phases = geom.layer_phases()
    pdp = phases.conj() @ moments.n_matrix @ phases / n_z
    pp = phases @ moments.m_matrix @ phases / n_z
    return float(pdp.real), complex(pp)


def _check_occupation(pdp: float) -> None:
    if pdp < -1e-10:
        raise PhysicalityError(
            f"collective occupation <P^dag P> = {pdp:.3e} is negative"
        )


def _theta_opt(pp: complex) -> float:
    """Optimal quadrature angle, 2 theta = pi - arg <P P> (0 for <P P> = 0)."""
    return 0.0 if pp == 0 else 0.5 * ((math.pi - cmath.phase(pp)) % (2.0 * math.pi))


def xi2_numeric(
    moments: SteadyStateMoments,
    geom: ArrayGeometry,
) -> SqueezingResult:
    """Squeezing parameter of the collective mode from solved moments.

    xi2 = 1 + 2 <P^dag P> - 2 |<P P>| at the optimal quadrature angle
    2 theta = pi - arg <P P>.  This direct subtraction is the per-source
    reference that :func:`xi2_from_response` is checked against.
    """
    pdp, pp = collective_moments(moments, geom)
    _check_occupation(pdp)
    mag = abs(pp)
    xi2 = 1.0 + 2.0 * pdp - 2.0 * mag
    xi2_anti = 1.0 + 2.0 * pdp + 2.0 * mag
    return SqueezingResult(xi2, _theta_opt(pp), xi2_anti)


@dataclass(frozen=True)
class UnitResponse:
    """Collective moments of one drift matrix for unit input moments.

    Every input (N, M) to the same drift matrix gives <P^dag P> = N c_n
    and <P P> = M c_m.  ``c_n`` is the numeric counterpart of the
    beam-splitter reflectivity r0; ``residual_n`` and ``residual_m`` are
    those of the solve at N = M = 1.  ``stack`` is the (drift, geometry,
    rates) that :func:`unit_response` solved: the N_z-layer stack on the
    dense route, :func:`layers.equivalent_stack` on the Krylov route.
    ``lanczos`` is the (diagonal, off-diagonal) of the tridiagonal that
    :func:`numeric_response` converged on, ``None`` on the dense route;
    :func:`oracle_stacks` solves its leading blocks.
    """

    c_n: float
    c_m: complex
    residual_n: float
    residual_m: float
    stack: Stack | None = field(default=None, compare=False, repr=False)
    lanczos: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def alpha(self) -> float:
        """Numeric squeezing contrast |c_m| / c_n (0 when c_n is not positive)."""
        return abs(self.c_m) / self.c_n if self.c_n > 0.0 else 0.0


def unit_response(
    drift: DriftMatrix,
    geom: ArrayGeometry,
    rates: RateSet,
) -> UnitResponse:
    """Solve ``drift`` once for the sources at N = M = 1 and project.

    The relative residuals are invariant under scaling a source, so the
    residual check of this one solve stands for every input.
    """
    moments = solve_moments(drift, moment_diffusions(1.0, 1.0, geom, rates))
    c_n, c_m = collective_moments(moments, geom)
    return UnitResponse(
        c_n, c_m, moments.residual_n, moments.residual_m, (drift, geom, rates)
    )


@one_blas_thread()
def numeric_response(
    geom: ArrayGeometry,
    rates: RateSet,
    det: DetuningSpec,
    include_evanescent: bool = True,
) -> UnitResponse:
    """:func:`unit_response` of ``geom``'s stack by the route its spacing allows.

    At exact integer spacing every phase is 1, and the Krylov reduction
    solves the m-layer :func:`layers.equivalent_stack` of m doubling Lanczos
    steps until c_n and c_m settle; the response carries the last stack and
    its tridiagonal.  Every other spacing, 1 + 1e-10 too, whose phases
    drift along the stack, builds and solves the N_z x N_z drift matrix.
    """
    if geom.layer_spacing != round(geom.layer_spacing):
        kernel = interaction_kernel(geom, rates, include_evanescent=include_evanescent)
        drift = drift_matrix(kernel, rates, det)
        del kernel  # N_z x N_z, freed before the solve, where the memory peaks
        return unit_response(drift, geom, rates)
    n_z = geom.n_layers
    eps = np.zeros(1)  # eps(0) alone: no evanescent coupling
    if include_evanescent:
        eps, _ = evanescent_band(geom)
    previous = None
    for diag, off, exhausted in kernel_lanczos(eps, n_z, KRYLOV_START, KRYLOV_CAP):
        response = unit_response(*equivalent_stack(diag, off, geom, rates, det))
        if exhausted or previous is not None and (
            abs(response.c_n - previous.c_n) <= KRYLOV_RTOL * abs(response.c_n)
            and abs(response.c_m - previous.c_m) <= KRYLOV_RTOL * abs(response.c_m)
        ):
            return replace(response, lanczos=(diag, off))
        previous = response
    raise ConvergenceError(
        f"Krylov-reduced steady state still moving by more than {KRYLOV_RTOL} "
        f"after {KRYLOV_CAP} Lanczos steps"
    )


def _contrast(response: UnitResponse, purity: float) -> float:
    coeff = purity * response.alpha
    if coeff > 1.0:
        if coeff - 1.0 > CONTRAST_ROUNDOFF:
            raise PhysicalityError(
                f"squeezing contrast purity*|c_m|/c_n = {coeff!r} exceeds 1"
            )
        coeff = 1.0
    return coeff


def xi2_from_response(
    response: UnitResponse,
    spec: SqueezedVacuumSpec,
) -> SqueezingResult:
    """Squeezing parameter of one input from the unit response.

    The beam-splitter law with reflectivity c_n and contrast
    purity |c_m|/c_n, which avoids the cancellation of
    1 + 2 <P^dag P> - 2 |<P P>|.  A contrast above 1 by at most
    ``CONTRAST_ROUNDOFF`` is clamped to 1; a larger one means the solve
    is broken and raises :class:`PhysicalityError`.
    """
    n_phot, m_anom = field_moments(spec)
    _check_occupation(response.c_n * n_phot)
    coeff, theta = _contrast(response, spec.purity), _theta_opt(m_anom * response.c_m)
    return beam_splitter(response.c_n, n_phot, coeff, theta)


def xi2_over_grid(
    response: UnitResponse, n_photons: np.ndarray, purity: float
) -> tuple[list[float], dict[int, PhysicalityError]]:
    """:func:`xi2_from_response`'s ``xi2`` at each photon number of
    ``n_photons``, bit for bit, from one array pass of the law, and by index
    its error at each input of negative occupation (whose xi2 is void).  A
    contrast error, the same at every input, is raised: c_n <= 0 makes the
    contrast 0, so no input fails both checks.
    """
    coeff = _contrast(response, purity)
    pdp = response.c_n * n_photons
    xi2 = beam_splitter(response.c_n, n_photons, coeff).xi2.tolist()
    failed: dict[int, PhysicalityError] = {}
    for index in np.flatnonzero(pdp < 0.0).tolist():  # all that might fail
        try:
            _check_occupation(pdp[index].item())
        except PhysicalityError as exc:
            failed[index] = exc
    return xi2, failed


def oracle_stacks(
    response: UnitResponse,
    targets: list[float],
    n_photons: np.ndarray,
    purity: float,
    geom: ArrayGeometry,
    rates: RateSet,
    det: DetuningSpec,
) -> list[Stack]:
    """The stack that the trajectory oracle samples at each photon number
    of ``n_photons``, whose numeric column ``targets`` is
    ``xi2_over_grid(response, n_photons, purity)``'s ``xi2``.

    The oracle reads only the collective mode, whose statistics the
    leading m x m blocks of the converged Lanczos tridiagonal carry ever
    more exactly as m grows; the trajectories cost 2m normals and an
    O(m^2) propagation per step.  Each input gets the equivalent stack of
    the first block of m = 1, 2, 4, ... below the converged m whose xi2
    at that input lies within ``ORACLE_RTOL`` of its target.  The test
    is per point because large N amplifies a contrast deficit 1 - alpha.
    One :func:`xi2_over_grid` call tests a block at every input still
    pending: a block whose contrast fails matches none, and an input in
    its ``failed`` map does not match.  The blocks are the leading rows
    of what :func:`layers.kernel_lanczos` produced, so no Lanczos step is
    repeated, and each costs one m x m unit solve.  Inputs that no block
    passes, and every input on the dense route, get ``response.stack``.
    """
    stacks = dict.fromkeys(range(len(targets)), response.stack)
    targets, pending = np.asarray(targets), np.arange(len(targets))
    diag, off = response.lanczos or ((), ())
    m = 1
    while m < len(diag) and pending.size:
        block = equivalent_stack(diag[:m], off[: m - 1], geom, rates, det)
        rung = unit_response(*block)
        try:
            xi2, failed = xi2_over_grid(rung, n_photons[pending], purity)
        except PhysicalityError:  # the block's contrast, at every input
            xi2, failed = math.nan, {}
        match = np.abs(np.subtract(xi2, targets)) <= ORACLE_RTOL * np.abs(targets)
        match[list(failed)] = False
        stacks.update(dict.fromkeys(pending[match].tolist(), rung.stack))
        pending, targets = pending[~match], targets[~match]
        m *= 2
    return list(stacks.values())
