"""Steady-state second moments of the driven layer modes.

The linear drive-dissipation dynamics close on the pair correlation
matrices n[i, j] = <p_i^dag p_j> and m[i, j] = <p_i p_j>, whose steady
states solve two Sylvester equations

    conj(A) n + n A^T + s_n = 0,      A m + m A^T + s_m = 0.

Both are solved by the Bartels-Stewart method from the one complex
Schur form A = Q T Q^H that :func:`layers.drift_matrix` computes: with
m = Q Y Q^T and n = conj(Q) Y Q^T they become the triangular equations

    T Y + Y T^T = -Q^H s_m conj(Q),   conj(T) Y + Y T^T = -Q^T s_n conj(Q),

each one LAPACK trsyl call, so no grid point factorises the drift
matrix again.

Everything observable is then a quadratic form of these matrices; the
collective squeezing parameter projects them onto the phase-matched
travelling mode.  The sources are linear in the input moments N and M,
so one solve at N = M = 1 (:func:`unit_response`) gives the collective
moments of every input to the same drift matrix, and
:func:`xi2_from_response` evaluates each input in closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import ztrsyl

from .analytic import SqueezingResult
from .blas import one_blas_thread
from .exceptions import PhysicalityError, ResidualError
from .geometry import ArrayGeometry
from .layers import DriftMatrix
from .rates import RateSet
from .squeezed_input import (
    DiffusionSet,
    SqueezedVacuumSpec,
    field_moments,
    moment_diffusions,
    quadrature_deficit,
)

RESIDUAL_HARD_LIMIT = 1e-8
RESIDUAL_TARGET = 1e-10
# Largest excess of purity * alpha over 1 that is taken for roundoff and
# clamped; a positive steady state has |c_m| <= c_n.
CONTRAST_ROUNDOFF = 1e-12


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


def _residual(
    a_left: np.ndarray,
    a_right: np.ndarray,
    x: np.ndarray,
    source: np.ndarray,
) -> float:
    res = a_left @ x + x @ a_right + source
    scale = (
        np.linalg.norm(a_left) * np.linalg.norm(x)
        + np.linalg.norm(x) * np.linalg.norm(a_right)
        + np.linalg.norm(source)
    )
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(res) / scale)


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

    res_n = _residual(a.conj(), a.T, n_mat, diff.s_n)
    res_m = _residual(a, a.T, m_mat, diff.s_m)
    worst = max(res_n, res_m)
    if worst > RESIDUAL_HARD_LIMIT:
        raise ResidualError(
            f"steady-state solve residual {worst:.3e} exceeds "
            f"{RESIDUAL_HARD_LIMIT:.1e}; the drift matrix is likely near "
            "singular"
        )
    return SteadyStateMoments(
        n_matrix=n_mat,
        m_matrix=m_mat,
        residual_n=res_n,
        residual_m=res_m,
    )


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
    phases = np.exp(1j * geom.axial_phase * np.arange(n_z))
    pdp = phases.conj() @ moments.n_matrix @ phases / n_z
    pp = phases @ moments.m_matrix @ phases / n_z
    return float(pdp.real), complex(pp)


def _check_occupation(pdp: float) -> None:
    if pdp < -1e-10:
        raise PhysicalityError(
            f"collective occupation <P^dag P> = {pdp:.3e} is negative"
        )


def _squeezing_result(
    pdp: float, pp: complex, xi2: float, xi2_anti: float
) -> SqueezingResult:
    """Package xi2 with the optimal angle 2 theta = pi - arg <P P>."""
    theta = 0.0 if pp == 0 else 0.5 * ((math.pi - cmath.phase(pp)) % (2.0 * math.pi))
    return SqueezingResult(
        xi2=xi2,
        theta_opt=theta,
        xi2_anti=xi2_anti,
        aux={"p_dag_p": pdp, "pp": pp},
    )


def xi2_numeric(
    moments: SteadyStateMoments,
    geom: ArrayGeometry,
) -> SqueezingResult:
    """Squeezing parameter of the collective mode from solved moments.

    xi2 = 1 + 2 <P^dag P> - 2 |<P P>| at the optimal quadrature angle
    2 theta = pi - arg <P P>.
    """
    pdp, pp = collective_moments(moments, geom)
    _check_occupation(pdp)
    mag = abs(pp)
    xi2 = 1.0 + 2.0 * pdp - 2.0 * mag
    xi2_anti = 1.0 + 2.0 * pdp + 2.0 * mag
    return _squeezing_result(pdp, pp, xi2, xi2_anti)


@dataclass(frozen=True)
class UnitResponse:
    """Collective moments of one drift matrix for unit input moments.

    Every input (N, M) to the same drift matrix gives <P^dag P> = N c_n
    and <P P> = M c_m.  ``c_n`` is the numeric counterpart of the
    beam-splitter reflectivity r0; ``moments`` is the solve at
    N = M = 1, residuals included.
    """

    c_n: float
    c_m: complex
    moments: SteadyStateMoments

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
    return UnitResponse(c_n=c_n, c_m=c_m, moments=moments)


def xi2_from_response(
    response: UnitResponse,
    spec: SqueezedVacuumSpec,
) -> SqueezingResult:
    """Squeezing parameter of one input from the unit response.

    xi2 = 1 + 2 c_n quadrature_deficit(N, purity alpha), the beam-splitter
    form with r0 -> c_n and alpha -> purity |c_m|/c_n, evaluated without
    the cancellation of 1 + 2 <P^dag P> - 2 |<P P>|.  A contrast above 1
    by at most ``CONTRAST_ROUNDOFF`` is clamped to 1; a larger one means
    the solve is broken and raises :class:`PhysicalityError`.
    """
    n_phot, m_anom = field_moments(spec)
    pdp = response.c_n * n_phot
    _check_occupation(pdp)
    coeff = spec.purity * response.alpha
    if coeff > 1.0:
        if coeff - 1.0 > CONTRAST_ROUNDOFF:
            raise PhysicalityError(
                f"squeezing contrast purity*|c_m|/c_n = {coeff!r} exceeds 1"
            )
        coeff = 1.0
    root = math.sqrt(n_phot * (n_phot + 1.0))
    xi2 = 1.0 + 2.0 * response.c_n * quadrature_deficit(n_phot, coeff)
    xi2_anti = 1.0 + 2.0 * response.c_n * (n_phot + coeff * root)
    return _squeezing_result(pdp, m_anom * response.c_m, xi2, xi2_anti)
