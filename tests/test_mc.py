"""Trajectory sampler: noise statistics, convergence, reproducibility."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, solve_continuous_lyapunov, solve_discrete_lyapunov

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
from spinsqueeze import mc
from spinsqueeze.exceptions import DomainError, PhysicalityError, StabilityError
from spinsqueeze.layers import DriftMatrix
from spinsqueeze.mc import (
    _BLOCK_STEPS,
    _CARRY_ROWS,
    _CHUNK_ROWS,
    _CHUNK_STEPS,
    RELAX_LIFETIMES,
    _chunk_operators,
    _n_steps,
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
    trajectory starts from the same one-draw burn-in, its first 2 N_z
    normals times a square root of the covariance after n_burn steps,
    with n_burn the longer of t_burn and RELAX_LIFETIMES lifetimes of the
    slowest mode.  Each stream is read in order, so drawing it whole
    gives the same normals as drawing it block by block."""
    phi, noise = _step_operators(
        stacked_drift(drift), stacked_covariance(diff), params.dt
    )
    n_z = geom.n_layers
    n_burn = max(
        round(params.t_burn / params.dt),
        math.ceil(RELAX_LIFETIMES / (-drift.abscissa * params.dt)),
    )
    n_avg = max(1, int(round(params.t_avg / params.dt)))
    phases = geom.layer_phases() / math.sqrt(n_z)
    proj = np.concatenate([phases, 1j * phases])
    gens = [
        np.random.Generator(np.random.Philox(key=[params.seed, j]))
        for j in range(params.n_traj)
    ]
    start = _psd_sqrt(_n_steps(phi, noise @ noise.T, n_burn)[1])
    state = np.stack([g.standard_normal(2 * n_z) for g in gens]) @ start.T
    acc_abs2 = np.zeros(params.n_traj)
    acc_sq = np.zeros(params.n_traj, dtype=complex)
    incr = np.stack([g.standard_normal((n_avg, 2 * n_z)) for g in gens]) @ noise.T
    for t in range(n_avg):
        state = state @ phi.T + incr[:, t, :]
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
    # t_avg/dt averaged steps per trajectory, up to MAX_STEPS; the burn-in
    # is drawn in one step, so any finite t_burn passes.
    McParams(dt=0.5, t_burn=1e300, t_avg=5e6, n_traj=4)
    for t_avg in (5e6 + 1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="exceeds the budget of 1e\\+07"):
            McParams(dt=0.5, t_burn=1.0, t_avg=t_avg, n_traj=4)
    with pytest.raises(DomainError, match="budget"):
        McParams(dt=1e-300, t_burn=1.0, t_avg=1.0, n_traj=4)
    for dt in (math.nan, math.inf):
        with pytest.raises(DomainError, match="dt must be positive and finite"):
            McParams(dt=dt, t_burn=1.0, t_avg=1.0, n_traj=4)
    for t_burn in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="t_burn must be finite and non-negative"):
            McParams(dt=0.5, t_burn=t_burn, t_avg=1.0, n_traj=4)


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


def test_covariance_past_the_float_range_is_a_row_error():
    # At a = 1e-154 one layer's gamma0 is 2.4e307: the rates are finite,
    # but the noise covariance of a bright drive is not.
    rows = run_sweep(build_config({
        "model": "mc-check",
        "geometry.lattice_const": "1e-154", "geometry.n_layers": "1",
        "input.n_photons": "1,1000",
        "mc.n_traj": "2", "mc.t_burn": "0", "mc.t_avg": "1",
    }))
    assert rows[0]["error"] == "" and isinstance(rows[0]["mc_estimate"], float)
    assert rows[1]["error"] == (
        "DomainError: stacked noise covariance overflows the float range"
    )


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


def one_mode_drift(rate):
    """A hand-built one-layer drift whose only eigenvalue is ``rate``."""
    return DriftMatrix(
        matrix=rate * np.eye(1, dtype=complex),
        schur_t=rate * np.eye(1, dtype=complex),
        schur_q=np.eye(1, dtype=complex),
    )


def refuse_steps(monkeypatch):
    """Make building the step operators, which precedes every draw, fail."""
    def stepped(*args):
        raise AssertionError("the sampler built its steps")
    monkeypatch.setattr(mc, "_step_operators", stepped)


def test_divergent_drift_is_caught(monkeypatch):
    # Over the run the state would grow by about e^(0.2 * 400) = e^80; the
    # drift is refused from its abscissa before any step is built or drawn.
    geom, _, diff = stack(1)
    refuse_steps(monkeypatch)
    params = McParams(dt=0.3, t_burn=0.0, t_avg=400.0, n_traj=4)
    message = r"spectral abscissa 2\.000e-01 is not negative"
    with pytest.raises(StabilityError, match=message):
        simulate_xi2(one_mode_drift(0.2), diff, geom, params)


@pytest.mark.parametrize("rate, shown", [(0.0, "0.000e+00"), (math.nan, "nan")])
def test_marginal_and_nan_abscissas_are_refused_before_any_step(
    monkeypatch, rate, shown
):
    # A zero abscissa leaves a mode that neither decays nor grows, whose
    # variance grows without bound under noise; NaN compares False with 0.
    geom, _, diff = stack(1)
    refuse_steps(monkeypatch)
    params = McParams(dt=0.3, t_burn=0.0, t_avg=400.0, n_traj=4)
    message = re.escape(f"abscissa {shown} is not negative")
    with pytest.raises(StabilityError, match=message):
        simulate_xi2(one_mode_drift(rate), diff, geom, params)


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


@pytest.mark.parametrize("n_photons", [1e8, 1e16, 1e20])
@pytest.mark.parametrize("spacing", [0.75, 1.0])
def test_step_propagator_ignores_the_drive_strength(spacing, n_photons):
    # The propagator e^{G dt} does not depend on the noise, but expm scales
    # the Van Loan block by its norm, which a bright drive's covariance
    # would dominate: unscaled, Phi missed e^{G dt} by 4.7e-10 at N = 1e8
    # and by 100 at N = 1e20 (spacing 0.75).
    geom, drift, diff = stack(10, layer_spacing=spacing, n_photons=n_photons)
    gen = stacked_drift(drift)
    phi, _ = _step_operators(gen, stacked_covariance(diff), 0.05)
    assert np.abs(phi - expm(gen * 0.05)).max() <= 1e-14


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


@pytest.mark.parametrize(
    "keys",
    [{}, {"geometry.layer_spacing": "0.75", "input.purity": "0.5"}],
    ids=["default-stack", "dense-oracle-impure"],
)
def test_bright_drives_give_finite_unbiased_estimates(keys):
    # The stationary amplitude of a stable stack grows as sqrt(N): about
    # 1e12 at N = 1e24 and 1e77 at N = 6e153, where the noise covariance
    # is still inside the float range.  No bound on the state may refuse
    # it, and no step may overflow (the suite turns RuntimeWarning into an
    # error).  At 4 trajectories of 5 time units, too few to estimate the
    # error bar, |z| reached 8 at one of seeds 0-9; at these controls it
    # stays below 2.2 over the same seeds.
    rows = run_sweep(build_config({
        "model": "mc-check",
        "input.n_photons": "1e24,6e153",
        "mc.n_traj": "16",
        "mc.t_avg": "25",
        **keys,
    }))
    assert [row["error"] for row in rows] == ["", ""]
    for row in rows:
        assert math.isfinite(row["mc_estimate"]) and math.isfinite(row["mc_stderr"])
        z = (row["mc_estimate"] - row["xi2_numeric"]) / row["mc_stderr"]
        assert abs(z) <= 5.0, (row["n_photons"], z)


def test_nan_divergence_is_caught():
    # Stepped, this generator would overflow to inf and then NaN inside
    # the first block; its abscissa of 8 refuses it before any step.
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

# (layers, averaged steps) around the block, chunk and carry-group
# boundaries.  The chunk divides the block, so every block boundary is
# also a chunk boundary; a group need not divide the block, so a block's
# last group may be short.
BLOCK_CASES = {
    "two-blocks-the-second-partial": (2, 700),
    "three-blocks-the-last-partial": (2, 2 * _BLOCK_STEPS + 276),
    "shorter-than-one-block": (2, 240),
    "final-partial-block": (3, 2 * _BLOCK_STEPS + 137),
    "single-layer": (1, 960),
    "one-block-ends-mid-chunk": (2, 40 * _CHUNK_STEPS + 7),
    "shorter-than-one-chunk": (2, 3),
    "run-not-a-multiple-of-the-chunk": (2, 40 * _CHUNK_STEPS + 3),
    "widest-full-chunk": (CLAMP_LAYERS - 1, 3 * _CHUNK_STEPS + 6),
    "first-clamped-chunk": (CLAMP_LAYERS, 3 * _CHUNK_STEPS + 6),
    "widest-grouped-carry": (GROUP_LAYERS - 1, 8 * _CHUNK_STEPS + 6),
    "first-ungrouped-carry": (GROUP_LAYERS, 8 * _CHUNK_STEPS + 6),
    "one-layer-blocks-then-padded-block": (
        1, 3 * _BLOCK_STEPS + 10 * _CHUNK_STEPS + 3
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
    n_layers, n_avg = BLOCK_CASES[case]
    geom, drift, diff = stack(n_layers, layer_spacing=0.9, n_photons=0.7, purity=0.95)
    dt = 0.05
    params = McParams(dt=dt, t_burn=0.0, t_avg=n_avg * dt, n_traj=4, seed=11)
    estimate, stderr = simulate_xi2(drift, diff, geom, params)
    ref_estimate, ref_stderr = simulate_per_step(drift, diff, geom, params)
    assert estimate == pytest.approx(ref_estimate, rel=1e-10, abs=0.0)
    assert stderr == pytest.approx(ref_stderr, rel=1e-10, abs=0.0)


def test_diverging_burn_in_is_caught_before_any_step(monkeypatch):
    # A burn-in of 1,000 steps would grow the drawn start by about
    # e^(0.2 * 300) = e^60; the drift is refused before it is drawn.
    geom, _, diff = stack(1)
    refuse_steps(monkeypatch)
    params = McParams(dt=0.3, t_burn=300.0, t_avg=1.0, n_traj=4)
    message = r"spectral abscissa 2\.000e-01 is not negative"
    with pytest.raises(StabilityError, match=message):
        simulate_xi2(one_mode_drift(0.2), diff, geom, params)


@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 777, 1023, 1024])
def test_doubled_burn_in_covariance_matches_repeated_steps(n):
    # n = 0, 1, 2^k, 2^k - 1 and an odd n between; the doubling gives the
    # propagator Phi^n and the covariance Q_n of n steps from zero.
    geom, drift, diff = stack(3, layer_spacing=0.9, n_photons=0.7, purity=0.95)
    phi, noise = _step_operators(stacked_drift(drift), stacked_covariance(diff), 0.05)
    step = noise @ noise.T
    power = np.eye(len(phi))
    stepped = np.zeros_like(step)
    for _ in range(n):
        power = phi @ power
        stepped = phi @ stepped @ phi.T + step
    doubled_power, doubled = _n_steps(phi, step, n)
    assert np.abs(doubled_power - power).max() <= 1e-13 * np.abs(power).max()
    assert np.abs(doubled - stepped).max() <= 1e-14 * np.abs(stepped).max()
    if n == 0:
        assert (doubled_power == np.eye(len(phi))).all()
    if n == 1:
        # Phi's own array, whose layout sets the BLAS path of its products.
        assert doubled_power is phi


def test_doubled_burn_in_covariance_reaches_the_stationary_one():
    # At 2^62 steps the doubling is Smith's iteration run to convergence:
    # Q_n is the stationary covariance of the exact step, S = Phi S Phi^T + Q.
    geom, drift, diff = stack(3, layer_spacing=0.9, n_photons=0.7, purity=0.95)
    phi, noise = _step_operators(stacked_drift(drift), stacked_covariance(diff), 0.05)
    stationary = solve_discrete_lyapunov(phi, noise @ noise.T)
    _, doubled = _n_steps(phi, noise @ noise.T, 2**62)
    assert np.abs(doubled - stationary).max() <= 1e-10 * np.abs(stationary).max()


def test_trajectories_are_unbiased_at_the_slow_corner():
    # At a = 0.99, 50 layers and gamma_s/gamma0 = 1e-5 the sampled 25-layer
    # stack's slowest mode relaxes at 1.4e-6, so a burn-in of t_burn = 50
    # alone leaves it far from stationary and reads low: a mean z of -1.96
    # over these seeds.  A burn-in of RELAX_LIFETIMES lifetimes reads -0.61.
    z = []
    for seed in range(1, 9):
        rows = run_sweep(build_config({
            "model": "mc-check", "geometry.lattice_const": "0.99",
            "geometry.n_layers": "50", "rates.gamma_s_over_gamma0": "1e-5",
            "input.n_photons": "1", "seed": str(seed),
        }))
        [row] = rows
        assert row["error"] == ""
        z.append((row["mc_estimate"] - row["xi2_numeric"]) / row["mc_stderr"])
    assert abs(np.mean(z)) <= 3.0 / math.sqrt(8), z


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
    slowest = -drift.abscissa
    fastest = -float(np.min(np.diag(drift.schur_t).real))
    params = McParams(
        dt=0.5 / max(1.0, fastest), t_burn=10.0 / slowest,
        t_avg=40.0 / slowest, n_traj=16, seed=seed,
    )
    estimate, stderr = simulate_xi2(drift, diff, geom, params)
    assert abs(estimate - truth) <= 5.0 * stderr
