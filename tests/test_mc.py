"""Trajectory sampler: noise statistics, convergence, reproducibility."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, solve_continuous_lyapunov

from spinsqueeze import (
    ArrayGeometry,
    BeamProfile,
    DetuningSpec,
    McParams,
    SqueezedVacuumSpec,
    build_config,
    compute_rates,
    drift_matrix,
    unit_response,
    interaction_kernel,
    noise_diffusions,
    run_sweep,
    simulate_xi2,
    single_layer_rate,
    solve_moments,
    stacked_covariance,
    stacked_drift,
    waist_for_overlap,
    xi2_from_response,
    xi2_numeric,
)
from spinsqueeze.exceptions import DomainError, PhysicalityError, StabilityError
from spinsqueeze.layers import DriftMatrix
from spinsqueeze.mc import (
    _BLOCK_STEPS,
    _CARRY_ROWS,
    _CHUNK_ROWS,
    _CHUNK_STEPS,
    _chunk_operators,
    _psd_sqrt,
    _step_operators,
)
from spinsqueeze.squeezed_input import DiffusionSet


def stack(n_layers, layer_spacing=1.0, n_photons=1.0, purity=1.0):
    geom = ArrayGeometry(
        n_side=200, lattice_const=0.68, n_layers=n_layers,
        layer_spacing=layer_spacing,
    )
    beam = BeamProfile(waist=waist_for_overlap(geom, 0.99))
    rates = compute_rates(geom, beam, gamma_s=0.1 * single_layer_rate(0.68))
    spec = SqueezedVacuumSpec(n_photons=n_photons, purity=purity)
    kernel = interaction_kernel(geom, rates, include_evanescent=False)
    drift = drift_matrix(kernel, rates, DetuningSpec())
    diff = noise_diffusions(spec, geom, rates)
    return geom, drift, diff


def simulate_per_step(drift, diff, geom, params):
    """Reference sampler: the same Philox streams stepped one step at a
    time, projecting the collective amplitude after every step.  Each
    stream is read in order, so drawing it whole gives the same normals
    as drawing it block by block."""
    phi, noise = _step_operators(
        stacked_drift(drift), stacked_covariance(diff), params.dt
    )
    n_z = geom.n_layers
    n_burn = int(round(params.t_burn / params.dt))
    n_avg = max(1, int(round(params.t_avg / params.dt)))
    n_steps = n_burn + n_avg
    phases = geom.layer_phases() / math.sqrt(n_z)
    proj = np.concatenate([phases, 1j * phases])
    gens = [
        np.random.Generator(np.random.Philox(key=[params.seed, j]))
        for j in range(params.n_traj)
    ]
    state = np.zeros((params.n_traj, 2 * n_z))
    acc_abs2 = np.zeros(params.n_traj)
    acc_sq = np.zeros(params.n_traj, dtype=complex)
    incr = np.stack([g.standard_normal((n_steps, 2 * n_z)) for g in gens]) @ noise.T
    for t in range(n_steps):
        state = state @ phi.T + incr[:, t, :]
        if t + 1 > n_burn:
            pc = state @ proj
            acc_abs2 += pc.real**2 + pc.imag**2
            acc_sq += pc * pc
    b = acc_sq / n_avg
    b_mean = complex(np.mean(b))
    rotation = 1.0 if b_mean == 0 else b_mean.conjugate() / abs(b_mean)
    q = 2.0 * acc_abs2 / n_avg - 2.0 * (rotation * b).real
    return float(np.mean(q)), float(np.std(q, ddof=1) / math.sqrt(params.n_traj))


def test_mc_params_validation():
    with pytest.raises(DomainError):
        McParams(dt=0.0, t_burn=1.0, t_avg=1.0, n_traj=4)
    with pytest.raises(DomainError):
        McParams(dt=0.1, t_burn=-1.0, t_avg=1.0, n_traj=4)
    with pytest.raises(DomainError):
        McParams(dt=0.1, t_burn=1.0, t_avg=0.0, n_traj=4)
    with pytest.raises(DomainError):
        McParams(dt=0.1, t_burn=1.0, t_avg=1.0, n_traj=1)
    with pytest.raises(DomainError):
        McParams(dt=0.1, t_burn=1.0, t_avg=1.0, n_traj=4, seed=-1)
    # (t_burn + t_avg)/dt steps per trajectory, up to MAX_STEPS.
    McParams(dt=0.5, t_burn=1e6, t_avg=4e6, n_traj=4)
    for t_avg in (4e6 + 1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="exceeds the budget of 1e\\+07"):
            McParams(dt=0.5, t_burn=1e6, t_avg=t_avg, n_traj=4)
    with pytest.raises(DomainError, match="budget"):
        McParams(dt=1e-300, t_burn=1.0, t_avg=1.0, n_traj=4)


def test_stacked_drift_block_structure():
    _, drift, _ = stack(3, layer_spacing=0.9)
    gen = stacked_drift(drift)
    a = drift.matrix
    assert np.array_equal(gen[:3, :3], a.real)
    assert np.array_equal(gen[:3, 3:], -a.imag)
    assert np.array_equal(gen[3:, :3], a.imag)
    assert np.array_equal(gen[3:, 3:], a.real)


def test_stacked_covariance_blocks():
    _, _, diff = stack(3, n_photons=2.0, purity=0.85)
    cov = stacked_covariance(diff)
    sigma = diff.s_n + 0.5 * diff.comm
    r = diff.s_m
    assert np.allclose(cov[:3, :3], 0.5 * (sigma + r).real, atol=1e-14)
    assert np.allclose(cov[3:, 3:], 0.5 * (sigma - r).real, atol=1e-14)
    # Real kernels put nothing in the cross blocks.
    assert np.allclose(cov[:3, 3:], 0.0, atol=1e-14)
    assert np.allclose(cov[3:, :3], 0.0, atol=1e-14)
    assert np.linalg.eigvalsh(cov).min() > -1e-10


def test_stacked_covariance_rejects_unphysical_source():
    overdriven = DiffusionSet(
        s_n=np.eye(2),
        s_m=3.0 * np.eye(2),
        comm=np.zeros((2, 2)),
    )
    with pytest.raises(PhysicalityError):
        stacked_covariance(overdriven)


@pytest.mark.parametrize("spacing", ["0.75", "1.0"])
def test_bright_squeezed_vacuum_passes_the_covariance_check(spacing):
    # A pure squeezed vacuum of N photons rounds the covariance's small
    # eigenvalues by about 1e-15 N: -0.27 at 1e14 and -28 at 1e16 for ten
    # layers at spacing 0.75, which an absolute cut of -1e-8 refused.
    rows = run_sweep(build_config({
        "model": "mc-check",
        "geometry.layer_spacing": spacing,
        "input.n_photons": "1e12,1e14,1e16,1e20",
        "mc.n_traj": "2", "mc.t_burn": "0", "mc.t_avg": "1",
    }))
    assert [row["error"] for row in rows] == [""] * 4
    assert all(isinstance(row["mc_estimate"], float) for row in rows)


def test_noise_sampler_reproduces_target_covariance():
    _, _, diff = stack(2, layer_spacing=0.8, n_photons=0.8, purity=0.9)
    cov = stacked_covariance(diff)
    factor = _psd_sqrt(cov)
    assert np.allclose(factor @ factor.T, cov, atol=1e-12)
    rng = np.random.default_rng(11)
    samples = 1_200_000
    draws = rng.standard_normal((samples, cov.shape[0])) @ factor.T
    empirical = draws.T @ draws / samples
    scale = np.sqrt(
        (np.outer(np.diag(cov), np.diag(cov)) + cov**2) / samples
    )
    assert np.all(np.abs(empirical - cov) <= 5.0 * scale + 1e-12)


def test_single_layer_matches_closed_form():
    geom, drift, diff = stack(1)
    truth = xi2_numeric(solve_moments(drift, diff), geom).xi2
    params = McParams(dt=0.2, t_burn=60.0, t_avg=1000.0, n_traj=192, seed=5)
    estimate, stderr = simulate_xi2(drift, diff, geom, params)
    assert stderr < 0.01 * truth
    assert abs(estimate - truth) < 3.0 * stderr


def test_exact_integrator_has_no_step_bias():
    geom, drift, diff = stack(1)
    truth = xi2_numeric(solve_moments(drift, diff), geom).xi2
    params = McParams(dt=0.5, t_burn=60.0, t_avg=2000.0, n_traj=256, seed=9)
    estimate, stderr = simulate_xi2(drift, diff, geom, params)
    assert abs(estimate - truth) < 4.0 * stderr


def test_deterministic_reruns_and_seed_sensitivity():
    geom, drift, diff = stack(2, n_photons=0.5)
    params = McParams(dt=0.25, t_burn=20.0, t_avg=150.0, n_traj=16, seed=3)
    first = simulate_xi2(drift, diff, geom, params)
    second = simulate_xi2(drift, diff, geom, params)
    assert first == second
    reseeded = McParams(dt=0.25, t_burn=20.0, t_avg=150.0, n_traj=16, seed=4)
    third = simulate_xi2(drift, diff, geom, reseeded)
    assert third != first


def test_divergent_drift_is_caught():
    geom, _, diff = stack(1)
    runaway = DriftMatrix(
        matrix=0.2 * np.eye(1, dtype=complex),
        schur_t=0.2 * np.eye(1, dtype=complex),
        schur_q=np.eye(1, dtype=complex),
    )
    # Over the run the state grows by about e^(0.2 * 400) = e^80.
    params = McParams(dt=0.3, t_burn=0.0, t_avg=400.0, n_traj=4)
    message = r"diverged .* spectral abscissa is 2\.000e-01"
    with pytest.raises(StabilityError, match=message):
        simulate_xi2(runaway, diff, geom, params)


@pytest.mark.parametrize("dt", [0.05, 1.0, 13.0, 40.0])
def test_step_covariance_is_exact_at_every_dt(dt):
    # Over one step the stationary covariance S of dX = G X dt + noise
    # must map to itself: S = Phi S Phi^T + Q, with Phi = e^{G dt}.  The
    # block exponential alone loses Q to cancellation once e^{-G dt}
    # grows large (rate gamma0 N_z / 2 = 2.6 here).
    geom, drift, diff = stack(10, n_photons=1.0)
    gen, cov = stacked_drift(drift), stacked_covariance(diff)
    phi, noise = _step_operators(gen, cov, dt)
    stationary = solve_continuous_lyapunov(gen, -cov)
    q = stationary - phi @ stationary @ phi.T
    scale = np.linalg.norm(stationary)
    assert np.linalg.norm(phi - expm(gen * dt)) <= 1e-12 * max(1.0, np.linalg.norm(phi))
    assert np.linalg.norm(noise @ noise.T - q) <= 1e-10 * scale


def mc_check(**keys):
    """z-scores against xi2_numeric of an ``mc-check`` sweep at N = 1, 10."""
    rows = run_sweep(build_config({
        "model": "mc-check",
        "input.n_photons": "1,10",
        **{key.replace("__", "."): value for key, value in keys.items()},
    }))
    assert [row["error"] for row in rows] == ["", ""]
    return [(r["mc_estimate"] - r["xi2_numeric"]) / r["mc_stderr"] for r in rows]


@pytest.mark.parametrize("spacing", ["1.0", "0.5"])
def test_trajectories_are_right_at_every_dt(spacing):
    # Up to dt = t_avg/50, far past the collective lifetime of 0.4.  The
    # single block exponential returned 3e-8 to 0.23 against 0.188 for
    # dt = 11 to 14 at 10 layers, with no error.
    for dt in ("0.5", "2", "11", "12", "13", "14", "20"):
        z = mc_check(geometry__n_layers="10", geometry__layer_spacing=spacing,
                     mc__dt=dt, mc__t_burn="50", mc__t_avg="1000", mc__n_traj="16")
        assert max(map(abs, z)) <= 5.0, (dt, z)


def test_dense_oracle_agrees_at_non_integer_spacing():
    z = mc_check(geometry__n_layers="10", geometry__layer_spacing="0.75")
    assert max(map(abs, z)) <= 5.0


def test_reduced_oracle_agrees_on_a_deep_stack():
    # 400 layers: 800 stacked quadratures densely, 2m = 2 sampled, as the
    # one-layer leading block is within ORACLE_RTOL of the converged one.
    z = mc_check(geometry__n_layers="400", mc__t_burn="20", mc__t_avg="100")
    assert max(map(abs, z)) <= 5.0


def test_nan_divergence_is_caught():
    # This generator overflows to inf and then NaN inside the first
    # block; NaN compares False against any bound.
    geom, _, diff = stack(2)
    matrix = np.array([[8 + 40j, 5 - 2j], [1 + 7j, 8 - 30j]])
    runaway = DriftMatrix(
        matrix=matrix, schur_t=matrix, schur_q=np.eye(2, dtype=complex)
    )
    params = McParams(dt=0.3, t_burn=0.0, t_avg=400.0, n_traj=4)
    with pytest.raises(StabilityError), np.errstate(over="ignore", invalid="ignore"):
        simulate_xi2(runaway, diff, geom, params)


# The first layer count whose 2 N_z quadratures halve the chunk.
CLAMP_LAYERS = _CHUNK_ROWS // (2 * _CHUNK_STEPS) + 1
# The first layer count whose state is carried one chunk per product.
GROUP_LAYERS = _CARRY_ROWS // 4 + 1

# (layers, burn-in steps, averaged steps) around the block, chunk and
# carry-group boundaries.  The chunk divides the block, so every block
# boundary is also a chunk boundary; a group need not divide the block,
# so a block's last group may be short.
BLOCK_CASES = {
    "no-burn-in": (2, 0, 700),
    "burn-in-ends-mid-second-block": (2, _BLOCK_STEPS + 188, 600),
    "shorter-than-one-block": (2, 40, 200),
    "final-partial-block": (3, 100, 2 * _BLOCK_STEPS + 37),
    "single-layer": (1, 60, 900),
    "burn-in-ends-mid-chunk": (2, 3 * _CHUNK_STEPS + 3, 300),
    "shorter-than-one-chunk": (2, 0, 3),
    "run-not-a-multiple-of-the-chunk": (2, 1, 40 * _CHUNK_STEPS + 2),
    "widest-full-chunk": (CLAMP_LAYERS - 1, 5, 3 * _CHUNK_STEPS + 1),
    "first-clamped-chunk": (CLAMP_LAYERS, 5, 3 * _CHUNK_STEPS + 1),
    "widest-grouped-carry": (GROUP_LAYERS - 1, 5, 8 * _CHUNK_STEPS + 1),
    "first-ungrouped-carry": (GROUP_LAYERS, 5, 8 * _CHUNK_STEPS + 1),
    "one-layer-blocks-then-padded-block": (
        1, 40, 3 * _BLOCK_STEPS + 5 * _CHUNK_STEPS + 3
    ),
}


def test_chunk_tiles_the_block():
    assert _CHUNK_STEPS & (_CHUNK_STEPS - 1) == 0
    assert _BLOCK_STEPS % _CHUNK_STEPS == 0


@pytest.mark.parametrize(
    "n_layers, grouped",
    [(1, True), (GROUP_LAYERS - 1, True), (GROUP_LAYERS, False),
     (CLAMP_LAYERS, False), (400, False)],
)
def test_carry_operator_size_follows_the_state_width(n_layers, grouped):
    # The carry operator of a group of G chunks is G 2N_z square, at most
    # _CARRY_ROWS square while G > 1.  From GROUP_LAYERS on, G = 1 and it
    # is the chunk carry itself, as wide as the state and no wider, so
    # the dense route's memory and per-chunk products stay as they were.
    n2 = 2 * n_layers
    length = _CHUNK_STEPS
    while length > 1 and length * n2 > _CHUNK_ROWS:
        length //= 2
    phi = np.diag(np.linspace(0.5, 0.9, n2))
    _, _, carry = _chunk_operators(phi, np.eye(n2), np.ones((n2, 2)), length)
    assert (len(carry) > n2) == grouped
    assert carry.shape == (len(carry), len(carry))
    assert len(carry) <= max(_CARRY_ROWS, n2)
    np.testing.assert_allclose(
        carry[:n2, :n2], np.diag(np.diag(phi) ** length), rtol=1e-14, atol=0.0
    )


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_block_loop_matches_per_step_reference(case):
    n_layers, n_burn, n_avg = BLOCK_CASES[case]
    geom, drift, diff = stack(n_layers, layer_spacing=0.9, n_photons=0.7, purity=0.95)
    dt = 0.05
    params = McParams(
        dt=dt, t_burn=n_burn * dt, t_avg=n_avg * dt, n_traj=4, seed=11
    )
    assert int(round(params.t_burn / dt)) == n_burn
    estimate, stderr = simulate_xi2(drift, diff, geom, params)
    ref_estimate, ref_stderr = simulate_per_step(drift, diff, geom, params)
    assert estimate == pytest.approx(ref_estimate, rel=1e-10, abs=0.0)
    assert stderr == pytest.approx(ref_stderr, rel=1e-10, abs=0.0)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    n_layers=st.integers(1, 5),
    spacing=st.sampled_from([1.0, 0.85, 1.15]),
    lattice_const=st.floats(0.55, 0.9),
    n_photons=st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
    purity=st.floats(0.9, 1.0),
    loss=st.floats(0.2, 1.0),
    evanescent=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_trajectories_agree_with_numeric_on_random_stacks(
    n_layers, spacing, lattice_const, n_photons, purity, loss, evanescent, seed
):
    geom = ArrayGeometry(
        n_side=200, lattice_const=lattice_const, n_layers=n_layers,
        layer_spacing=spacing,
    )
    beam = BeamProfile(waist=waist_for_overlap(geom, 0.99))
    rates = compute_rates(
        geom, beam, gamma_s=loss * single_layer_rate(lattice_const)
    )
    spec = SqueezedVacuumSpec(n_photons=n_photons, purity=purity)
    kernel = interaction_kernel(geom, rates, include_evanescent=evanescent)
    drift = drift_matrix(kernel, rates, DetuningSpec())
    diff = noise_diffusions(spec, geom, rates)
    truth = xi2_from_response(unit_response(drift, geom, rates), spec).xi2
    # Burn in for ten lifetimes of the slowest mode, average over forty,
    # and keep the exact step below half the fastest lifetime.
    slowest = -float(np.max(np.diag(drift.schur_t).real))
    fastest = -float(np.min(np.diag(drift.schur_t).real))
    params = McParams(
        dt=0.5 / max(1.0, fastest), t_burn=10.0 / slowest,
        t_avg=40.0 / slowest, n_traj=16, seed=seed,
    )
    estimate, stderr = simulate_xi2(drift, diff, geom, params)
    assert abs(estimate - truth) <= 5.0 * stderr
