"""Stochastic-trajectory cross-check of the steady-state solver.

The linear layer dynamics with Gaussian noise is simulated as a
c-number Ornstein-Uhlenbeck process whose stationary covariance equals
the symmetrically ordered quantum moments.  That correspondence is
exact, not approximate: the commutator kernel that fixes operator
ordering is precisely twice the dissipative part of the drift, so the
half-quantum of vacuum noise reproduces itself.  Squeezing estimates
from trajectory time averages therefore converge to the same number as
the Sylvester solve, through entirely different code.  Each step
integrates the process exactly over dt, so the comparison carries no
step-size bias.

At integer layer spacing the sweep runs this sampler on the
Krylov-reduced process that :func:`steady.krylov_response` converged
on, which carries the collective mode exactly, as the equivalent stack
of m layers with coupling gamma0 N_z/m each (:func:`steady.equivalent_stack`)
instead of the N_z-layer one.  There the oracle shares the Lanczos
iteration and the reduced drift with the numeric route; its independent
check is the dense route, which the tests hold the Krylov route against.
At other spacings it samples the full N_z-dimensional process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .blas import one_blas_thread
from .exceptions import DomainError, PhysicalityError, StabilityError
from .geometry import ArrayGeometry
from .layers import DriftMatrix
from .squeezed_input import DiffusionSet

_DIVERGENCE_BOUND = 1e12
# Steps per block.  A block holds its normals, (n_traj, block, 2 N_z),
# and its states, (block + 1, n_traj, 2 N_z), so these two buffers
# bound the sampler's memory: 5 MB each for 64 trajectories of 10 layers.
_BLOCK_STEPS = 512


@dataclass(frozen=True)
class McParams:
    """Trajectory simulation controls.

    Times are in inverse single-atom decay units.  ``t_burn`` is
    discarded before averaging starts and ``t_avg`` is the averaging
    window per trajectory.  Each trajectory runs on its own
    counter-based random stream derived from (seed, trajectory index),
    so results do not depend on scheduling or batching.
    """

    dt: float
    t_burn: float
    t_avg: float
    n_traj: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise DomainError(f"dt must be positive, got {self.dt}")
        if self.t_burn < 0.0:
            raise DomainError(f"t_burn must be non-negative, got {self.t_burn}")
        if self.t_avg <= 0.0:
            raise DomainError(f"t_avg must be positive, got {self.t_avg}")
        if self.n_traj < 2:
            raise DomainError(
                f"n_traj must be at least 2 for a standard error, got {self.n_traj}"
            )
        if not 0 <= self.seed < 2**63:
            raise DomainError(f"seed must fit in a 63-bit integer, got {self.seed}")


def stacked_drift(drift: DriftMatrix) -> np.ndarray:
    """Real 2N x 2N generator acting on stacked quadratures (x, y)."""
    a = drift.matrix
    re, im = a.real, a.imag
    return np.block([[re, -im], [im, re]])


def stacked_covariance(diff: DiffusionSet) -> np.ndarray:
    """Noise covariance of the stacked real increments, per unit time.

    With Sigma = s_n + comm/2 (normal plus ordering part) and R = s_m,
    the quadrature blocks are

        xx = Re(Sigma + R)/2        xy = (Im R + Im Sigma)/2
        yx = (Im R - Im Sigma)/2    yy = Re(Sigma - R)/2.

    :func:`squeezed_input.moment_diffusions` builds both kernels from
    real cosines (the squeeze phase is zero), so the cross blocks
    vanish and are set to zero.  The result must be positive
    semidefinite for a physical drive.
    """
    sigma = diff.s_n + 0.5 * diff.comm
    r = diff.s_m
    zero = np.zeros_like(sigma)
    cov = np.block([[0.5 * (sigma + r), zero], [zero, 0.5 * (sigma - r)]])
    cov = 0.5 * (cov + cov.T)
    min_eig = float(np.linalg.eigvalsh(cov).min())
    if min_eig < -1e-8:
        raise PhysicalityError(
            f"stacked noise covariance has eigenvalue {min_eig:.3e}; "
            "the requested drive is unphysical"
        )
    return cov


def _psd_sqrt(cov: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(cov)
    vals = np.clip(vals, 0.0, None)
    return vecs @ np.diag(np.sqrt(vals)) @ vecs.T


def _step_operators(
    gen: np.ndarray,
    cov: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One-step propagator and noise factor of the exact OU step.

    The process is integrated in closed form over dt: the propagator is
    the matrix exponential and the increment covariance comes from the
    Van Loan block-exponential identity, so the discretisation has no
    step-size bias at all.  The block's e^{-G h} part grows like
    e^{|G| h}, and the product that forms the covariance cancels as it
    does, so the block is taken at h = dt / 2^k with ||G||_1 h <= 1/2
    and k doublings Q <- Q + Phi Q Phi^T, Phi <- Phi^2 carry the step to
    dt (Van Loan, IEEE TAC 23, 395, 1978).
    """
    n2 = gen.shape[0]
    reach = 2.0 * float(np.linalg.norm(gen, 1)) * dt
    doublings = math.ceil(math.log2(reach)) if reach > 1.0 else 0
    block = np.zeros((2 * n2, 2 * n2))
    block[:n2, :n2] = -gen
    block[:n2, n2:] = cov
    block[n2:, n2:] = gen.T
    e = expm(block * math.ldexp(dt, -doublings))
    phi = e[n2:, n2:].T
    q = phi @ e[:n2, n2:]
    for _ in range(doublings):
        q = q + phi @ q @ phi.T
        phi = phi @ phi
    q = 0.5 * (q + q.T)
    return phi, _psd_sqrt(q)


@one_blas_thread()
def simulate_xi2(
    drift: DriftMatrix,
    diff: DiffusionSet,
    geom: ArrayGeometry,
    params: McParams,
) -> tuple[float, float]:
    """Estimate the collective squeezing parameter from trajectories.

    Returns ``(xi2_estimate, stderr)``.  The estimator time-averages
    |P|^2 and P^2 of the collective c-number amplitude per trajectory,
    picks the optimal quadrature from the pooled anomalous average, and
    takes the spread of the per-trajectory values as the error bar.
    Each step is the exact OU step of :func:`_step_operators`, so the
    estimate carries no step-size bias.

    The steps run in blocks of :data:`_BLOCK_STEPS`.  Each trajectory
    fills its rows of a preallocated normal buffer from its own Philox
    stream, one batched product writes the noise increments into rows
    1..blen of a state buffer whose row 0 carries the state across
    blocks, and each step adds ``states[t] @ phi.T`` to row t + 1.  The
    rows past burn-in are projected onto P once per block.  These two
    buffers, not the run length, set the peak memory.  The products are
    too small for a second OpenBLAS thread to pay, so they run on one.
    """
    gen = stacked_drift(drift)
    cov = stacked_covariance(diff)
    phi, noise = _step_operators(gen, cov, params.dt)

    n_z = geom.n_layers
    n2 = 2 * n_z
    n_burn = int(round(params.t_burn / params.dt))
    n_avg = max(1, int(round(params.t_avg / params.dt)))
    n_steps = n_burn + n_avg

    phases = geom.layer_phases() / math.sqrt(n_z)
    proj = np.concatenate([phases, 1j * phases])
    proj_xy = np.stack([proj.real, proj.imag], axis=1)

    n_traj = params.n_traj
    gens = [
        np.random.Generator(np.random.Philox(key=[params.seed, j]))
        for j in range(n_traj)
    ]
    block = min(_BLOCK_STEPS, n_steps)
    draws = np.empty((n_traj, block, n2))
    states = np.zeros((block + 1, n_traj, n2))
    drive = np.empty((n_traj, n2))
    # Per trajectory, over the averaging window, with P = x + iy the
    # collective amplitude: the sums of x^2 and y^2, and the sum of xy.
    acc_sq = np.zeros((n_traj, 2))
    acc_xy = np.zeros(n_traj)

    phi_t = phi.T
    noise_t = noise.T
    done = 0
    while done < n_steps:
        blen = min(block, n_steps - done)
        for j, g in enumerate(gens):
            g.standard_normal(out=draws[j, :blen])
        np.matmul(draws[:, :blen].swapaxes(0, 1), noise_t, out=states[1 : blen + 1])
        for t in range(blen):
            np.matmul(states[t], phi_t, out=drive)
            states[t + 1] += drive
        first = max(1, n_burn - done + 1)
        if first <= blen:
            xy = states[first : blen + 1] @ proj_xy
            acc_sq += np.einsum("sti,sti->ti", xy, xy)
            acc_xy += np.einsum("st,st->t", xy[..., 0], xy[..., 1])
        done += blen
        states[0] = states[blen]
        # Written so that NaN, which compares False, also counts as divergence.
        if not float(np.max(np.abs(states[0]))) <= _DIVERGENCE_BOUND:
            abscissa = float(np.max(np.linalg.eigvals(gen).real))
            raise StabilityError(
                f"trajectory diverged past {_DIVERGENCE_BOUND:.0e} within "
                f"{done} steps of dt = {params.dt!r}; the drift's spectral "
                f"abscissa is {abscissa:.3e}"
            )

    # |P|^2 = x^2 + y^2 and P^2 = x^2 - y^2 + 2ixy.
    a2 = (acc_sq[:, 0] + acc_sq[:, 1]) / n_avg
    b = (acc_sq[:, 0] - acc_sq[:, 1] + 2j * acc_xy) / n_avg
    b_mean = complex(np.mean(b))
    if b_mean == 0:
        rotation = 1.0 + 0.0j
    else:
        rotation = b_mean.conjugate() / abs(b_mean)
    q = 2.0 * a2 - 2.0 * (rotation * b).real
    estimate = float(np.mean(q))
    stderr = float(np.std(q, ddof=1) / math.sqrt(params.n_traj))
    return estimate, stderr
