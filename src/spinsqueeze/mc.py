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
step-size bias.  The steps are linear in the state and the normals, so
they run a chunk of several at a time through one precomputed transfer
operator, with the same normals in the same order as step by step, and
one product through a block-Toeplitz operator of the chunk carry's
powers carries the state across a group of chunks, the way a prefix scan
carries a linear recurrence.

The sweep runs this sampler on the stack that :func:`steady.oracle_stacks`
picks for each grid point: at integer layer spacing an equivalent stack
of m layers (:func:`layers.equivalent_stack`) whose xi2 is within
``steady.ORACLE_RTOL`` = 1e-6 of the numeric column, at other spacings
the full N_z-layer stack.  That bias is below 3e-4 standard errors over
the default grid at the default controls (relative standard error 3.9e-3
to 5.7e-3).  The reduction's independent check is the dense route, which
the tests hold the Krylov route against.
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
# Steps per trajectory, (t_burn + t_avg)/dt, that a run may take: about 900
# times the default 11,000.
MAX_STEPS = 1e7
# A covariance eigenvalue below -_PSD_RTOL times the largest |eigenvalue|
# is unphysical, not rounding (which stays near 1e-15 of that scale).
_PSD_RTOL = 1e-10
# Steps per block.  A block's normals, (n_traj, block, 2 N_z), bound the
# sampler's memory: 5 MB for 64 trajectories of 10 layers.
_BLOCK_STEPS = 512
# Steps per chunk: a power of two, so that it divides the block, halved
# while a chunk holds more than _CHUNK_ROWS normals per trajectory, which
# bounds the chunk operator at _CHUNK_ROWS x (2 chunk + 2 N_z).
_CHUNK_STEPS = 8
_CHUNK_ROWS = 4096
# Quadratures carried per product: a group of _CARRY_ROWS // 2 N_z chunks,
# one chunk once the state is wider than half of it, so the carry operator
# is at most max(_CARRY_ROWS, 2 N_z) square.  On one thread, with 64
# trajectories, wider groups lose more to the operator's product, which
# grows as the group squared, than they save in Python steps.
_CARRY_ROWS = 64


@dataclass(frozen=True)
class McParams:
    """Trajectory simulation controls.

    Times are in inverse single-atom decay units.  ``t_burn`` is
    discarded before averaging starts and ``t_avg`` is the averaging
    window per trajectory; together they may take at most
    :data:`MAX_STEPS` steps of ``dt``.  Each trajectory runs on its own
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
        # Written so that NaN, which compares False, is refused too.
        if not (self.t_burn + self.t_avg) / self.dt <= MAX_STEPS:
            raise DomainError(
                f"(t_burn + t_avg)/dt = {(self.t_burn + self.t_avg) / self.dt:.3e} "
                f"steps per trajectory exceeds the budget of {MAX_STEPS:.0e}"
            )


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
    semidefinite for a physical drive, up to the rounding of its own
    scale: a pure squeezed vacuum of N photons puts eigenvalues of order
    N next to ones of order 1, and rounds the small ones by about eps N.
    One past the float range is a :class:`DomainError`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = diff.s_n + 0.5 * diff.comm
        r = diff.s_m
        zero = np.zeros_like(sigma)
        cov = np.block([[0.5 * (sigma + r), zero], [zero, 0.5 * (sigma - r)]])
        cov = 0.5 * (cov + cov.T)
    if not np.isfinite(cov).all():
        raise DomainError("stacked noise covariance overflows the float range")
    eigs = np.linalg.eigvalsh(cov)
    min_eig = float(eigs[0])
    if min_eig < -_PSD_RTOL * float(np.abs(eigs).max()):
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
    dt (Van Loan, IEEE TAC 23, 395, 1978).  expm scales the block by its
    norm, so it holds cov / max|cov|, in which Q is linear: a bright drive
    then costs Phi no accuracy.
    """
    n2 = gen.shape[0]
    reach = 2.0 * float(np.linalg.norm(gen, 1)) * dt
    doublings = math.ceil(math.log2(reach)) if reach > 1.0 else 0
    unit = float(np.abs(cov).max())
    block = np.zeros((2 * n2, 2 * n2))
    block[:n2, :n2] = -gen
    block[:n2, n2:] = cov / unit
    block[n2:, n2:] = gen.T
    e = expm(block * math.ldexp(dt, -doublings))
    phi = e[n2:, n2:].T
    q = unit * (phi @ e[:n2, n2:])
    for _ in range(doublings):
        q = q + phi @ q @ phi.T
        phi = phi @ phi
    q = 0.5 * (q + q.T)
    return phi, _psd_sqrt(q)


def _chunk_operators(
    phi: np.ndarray, noise: np.ndarray, proj_xy: np.ndarray, length: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chunk operator K, amplitude operator A and carry operator U of
    ``length`` exact steps.

    For row states, s_k = s_0 P^k + sum_{j<k} z_j N^T P^{k-1-j} with
    P = Phi^T.  A = [P^k proj_xy for k = 1..length] maps s_0 to the
    amplitudes (x, y) after every step; K maps the chunk's normals
    (z_0, ..., z_{length-1}) to the same amplitudes and to the end state.
    With C = P^length the chunk carry, a chunk starting at s ends at
    s C + e, where e is K's end-state part.  Over a group of G chunks,
    chunk i then starts at s_0 C^i + sum_{j<i} e_j C^{i-1-j}, so U is the
    block upper-triangular Toeplitz matrix with block (r, i) = C^{i+1-r}
    for i >= r: [s_0, e_0, ..., e_{G-2}] U + [e_0, ..., e_{G-1}] gives
    the starts of chunks 1..G, the last one the group's end state.
    """
    n2 = len(phi)
    powers = [np.eye(n2)]
    for _ in range(length):
        powers.append(powers[-1] @ phi.T)
    amps = np.hstack([p @ proj_xy for p in powers])
    # z_j enters the state after step j + 1 as z_j N^T.
    chunk = np.vstack([
        noise.T @ np.hstack(
            [np.zeros((n2, 2 * j)), amps[:, : 2 * (length - j)], powers[length - 1 - j]]
        )
        for j in range(length)
    ])
    group = max(1, _CARRY_ROWS // n2)
    carries = [powers[-1]]
    for _ in range(group - 1):
        carries.append(carries[-1] @ powers[-1])
    row = np.hstack(carries)
    carry = np.zeros((group * n2, group * n2))
    for r in range(group):
        carry[r * n2 : (r + 1) * n2, r * n2 :] = row[:, : (group - r) * n2]
    return chunk, amps[:, 2:], carry


def _propagate(
    state: np.ndarray,
    z: np.ndarray,
    chunk: np.ndarray,
    amps: np.ndarray,
    carry: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes (x, y) after every step, (n_traj, steps, 2), and the end
    state of ``state`` run through the chunks of normals ``z``,
    (n_traj, chunks, length 2m).  Row i + 1 of ``starts`` holds chunk
    i's noise-driven end state e_i until the product through ``carry``
    for its group adds the carried part and leaves chunk i + 1's start."""
    n_traj, n_chunks, _ = z.shape
    n2 = state.shape[1]
    width = amps.shape[1]
    group = len(carry) // n2
    driven = z @ chunk
    starts = np.empty((n_traj, n_chunks + 1, n2))
    starts[:, 0] = state
    starts[:, 1:] = driven[..., width:]
    for lo in range(0, n_chunks, group):
        hi = min(lo + group, n_chunks)
        span = (hi - lo) * n2
        starts[:, lo + 1 : hi + 1] += (
            starts[:, lo:hi].reshape(n_traj, span) @ carry[:span, :span]
        ).reshape(n_traj, hi - lo, n2)
    xy = driven[..., :width] + starts[:, :-1] @ amps
    return xy.reshape(n_traj, -1, 2), starts[:, -1]


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

    The steps run in blocks of :data:`_BLOCK_STEPS`, and each block in
    chunks of :data:`_CHUNK_STEPS` (fewer for wide states).  Each
    trajectory fills its rows of a preallocated normal buffer from its
    own Philox stream; one batched product through the chunk operator of
    :func:`_chunk_operators` gives every chunk's noise-driven amplitudes
    and end state, one product through its block-Toeplitz carry operator
    per group of chunks (:data:`_CARRY_ROWS` over the state width, at
    least one) gives every chunk's start state and the block's end state,
    and one more product adds the carried part to the amplitudes.  One
    batched Gram product then accumulates the steps past burn-in.  The
    normal buffer, not the run length, sets the peak memory.  The
    products are too small for a second OpenBLAS thread to pay, so they
    run on one.
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
    chunk = _CHUNK_STEPS
    while chunk > 1 and chunk * n2 > _CHUNK_ROWS:
        chunk //= 2
    ops = _chunk_operators(phi, noise, proj_xy, chunk)
    # The chunk divides _BLOCK_STEPS, so only the run's last chunk is short.
    # It is padded with zero normals, which reach no earlier step; the final
    # state goes through the padded steps, and only the divergence check reads it.
    block = -(-min(_BLOCK_STEPS, n_steps) // chunk) * chunk
    draws = np.empty((n_traj, block, n2))
    xy = np.empty((n_traj, block, 2))
    state = np.zeros((n_traj, n2))
    # Per trajectory, over the averaging window, with P = x + iy the
    # collective amplitude: the Gram matrix of (x, y), [[xx, xy], [xy, yy]].
    acc = np.zeros((n_traj, 2, 2))

    done = 0
    while done < n_steps:
        blen = min(block, n_steps - done)
        for j, g in enumerate(gens):
            g.standard_normal(out=draws[j, :blen])
        padded = -(-blen // chunk) * chunk
        draws[:, blen:padded] = 0.0
        z = draws[:, :padded].reshape(n_traj, -1, chunk * n2)
        xy[:, :padded], state = _propagate(state, z, *ops)
        # Step done + t + 1 is averaged once it is past burn-in.
        kept = xy[:, max(0, n_burn - done) : blen]
        acc += kept.transpose(0, 2, 1) @ kept
        done += blen
        # Written so that NaN, which compares False, also counts as divergence.
        if not float(np.max(np.abs(state))) <= _DIVERGENCE_BOUND:
            abscissa = float(np.max(np.linalg.eigvals(gen).real))
            raise StabilityError(
                f"trajectory diverged past {_DIVERGENCE_BOUND:.0e} within "
                f"{done} steps of dt = {params.dt!r}; the drift's spectral "
                f"abscissa is {abscissa:.3e}"
            )

    # |P|^2 = x^2 + y^2 and P^2 = x^2 - y^2 + 2ixy.
    a2 = (acc[:, 0, 0] + acc[:, 1, 1]) / n_avg
    b = (acc[:, 0, 0] - acc[:, 1, 1] + 2j * acc[:, 0, 1]) / n_avg
    b_mean = complex(np.mean(b))
    if b_mean == 0:
        rotation = 1.0 + 0.0j
    else:
        rotation = b_mean.conjugate() / abs(b_mean)
    q = 2.0 * a2 - 2.0 * (rotation * b).real
    estimate = float(np.mean(q))
    stderr = float(np.std(q, ddof=1) / math.sqrt(params.n_traj))
    return estimate, stderr
