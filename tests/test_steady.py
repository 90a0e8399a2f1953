"""Stationary second moments against a direct vectorized linear solve."""

from __future__ import annotations

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinsqueeze
from spinsqueeze import cli, layers, steady, sweep
from spinsqueeze import (
    ArrayGeometry,
    BeamProfile,
    DetuningSpec,
    SqueezedVacuumSpec,
    build_config,
    collective_moments,
    compute_rates,
    drift_matrix,
    interaction_kernel,
    noise_diffusions,
    run_sweep,
    single_layer_rate,
    solve_moments,
    waist_for_overlap,
    xi2_analytic,
    xi2_numeric,
)
from spinsqueeze.exceptions import PhysicalityError, StabilityError
from spinsqueeze.steady import (
    SteadyStateMoments,
    UnitResponse,
    unit_response,
    xi2_from_response,
)

# Relative residual that a well-conditioned solve stays below.
RESIDUAL_TARGET = 1e-10


def stack(n_layers, lattice_const=0.68, layer_spacing=1.0, eta=0.99,
          gamma_s_frac=0.1):
    geom = ArrayGeometry(
        n_side=200,
        lattice_const=lattice_const,
        n_layers=n_layers,
        layer_spacing=layer_spacing,
    )
    beam = BeamProfile(waist=waist_for_overlap(geom, eta))
    gamma_s = gamma_s_frac * single_layer_rate(lattice_const)
    return geom, compute_rates(geom, beam, gamma_s=gamma_s)


def build_problem(geom, rates, spec, det=DetuningSpec(), include_evanescent=True):
    kernel = interaction_kernel(geom, rates, include_evanescent=include_evanescent)
    drift = drift_matrix(kernel, rates, det)
    diff = noise_diffusions(spec, geom, rates)
    return drift, diff


def kron_solve(a_left, a_right, source):
    """Stationary solution of a_left X + X a_right^T + source = 0.

    Column-major vectorization turns the matrix equation into an
    ordinary dense linear system, independent of the production path.
    """
    n = source.shape[0]
    eye = np.eye(n)
    lifted = np.kron(eye, a_left) + np.kron(a_right, eye)
    vec = np.linalg.solve(lifted, -source.flatten(order="F"))
    return vec.reshape((n, n), order="F")


@pytest.mark.parametrize("n_layers", [2, 3])
def test_moments_match_kronecker_lift(n_layers):
    geom, rates = stack(n_layers, layer_spacing=0.9)
    spec = SqueezedVacuumSpec(n_photons=1.7, purity=0.93)
    det = DetuningSpec(eff_detuning=0.35)
    drift, diff = build_problem(geom, rates, spec, det)
    moments = solve_moments(drift, diff)
    a = drift.matrix
    n_ref = kron_solve(a.conj(), a, diff.s_n)
    m_ref = kron_solve(a, a, diff.s_m)
    assert np.allclose(moments.n_matrix, n_ref, rtol=1e-12, atol=1e-14)
    assert np.allclose(moments.m_matrix, m_ref, rtol=1e-12, atol=1e-14)


def test_single_layer_closed_form():
    geom, rates = stack(1)
    spec = SqueezedVacuumSpec(n_photons=1.0)
    drift, diff = build_problem(geom, rates, spec, include_evanescent=False)
    moments = solve_moments(drift, diff)
    pdp, pp = collective_moments(moments, geom)
    # One layer on resonance is a scalar balance: the drift is
    # -(gamma_s + gamma0)/2 and each moment is source over total decay.
    decay = rates.gamma_s + rates.gamma0
    assert pdp.real == pytest.approx(rates.eta * rates.gamma0 / decay, rel=1e-14)
    assert pdp.real == pytest.approx(0.9, rel=1e-12)
    assert pp.real == pytest.approx(-0.9 * math.sqrt(2.0), rel=1e-12)
    result = xi2_numeric(moments, geom)
    assert result.xi2 == pytest.approx(0.25441558772842843, rel=1e-12)
    assert result.theta_opt == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n_layers", [1, 2, 5, 10, 20])
@pytest.mark.parametrize("n_photons", [0.01, 1.0, 100.0])
def test_matches_analytic_in_phase_matched_regime(n_layers, n_photons):
    geom, rates = stack(n_layers)
    spec = SqueezedVacuumSpec(n_photons=n_photons)
    drift, diff = build_problem(geom, rates, spec, include_evanescent=False)
    numeric = xi2_numeric(solve_moments(drift, diff), geom).xi2
    analytic = xi2_analytic(rates, spec).xi2
    assert numeric == pytest.approx(analytic, rel=1e-6)


def test_matches_analytic_off_resonance():
    # The reflectivity-contrast reduction is exact, not a resonant
    # approximation; detuned, impure input reproduces it to rounding.
    geom, rates = stack(5)
    spec = SqueezedVacuumSpec(n_photons=3.7, purity=0.97)
    det = DetuningSpec(eff_detuning=0.83)
    drift, diff = build_problem(geom, rates, spec, det, include_evanescent=False)
    numeric = xi2_numeric(solve_moments(drift, diff), geom).xi2
    analytic = xi2_analytic(rates, spec, det).xi2
    assert numeric == pytest.approx(analytic, rel=1e-12)
    assert numeric == pytest.approx(1.5400676610146187, rel=1e-12)


def eig_sylvester(a_left, a_right, source):
    """Solve a_left X + X a_right + source = 0 by double diagonalisation."""
    wl, vl = np.linalg.eig(a_left)
    wr, vr = np.linalg.eig(a_right.T)
    rhs = np.linalg.solve(vl, -source @ np.linalg.inv(vr).T)
    denom = wl[:, None] + wr[None, :]
    return vl @ (rhs / denom) @ vr.T


def solve_eigenbasis(drift, diff):
    """Steady-state moments in the eigenbasis of the drift matrix.

    Slower and less accurate than the Schur route of ``solve_moments``
    for large systems but independent of it, which makes it the
    reference that route is checked against.  The results are
    symmetrised and residual-checked the same way.
    """
    a = drift.matrix
    n_mat = eig_sylvester(a.conj(), a.T, diff.s_n.astype(complex))
    m_mat = eig_sylvester(a, a.T, diff.s_m.astype(complex))
    n_mat = 0.5 * (n_mat + n_mat.conj().T)
    m_mat = 0.5 * (m_mat + m_mat.T)
    residuals = steady._residuals(a, n_mat, m_mat, diff)
    moments = SteadyStateMoments(n_mat, m_mat, *residuals)
    worst = max(moments.residual_n, moments.residual_m)
    assert worst <= steady.RESIDUAL_HARD_LIMIT
    return moments


def test_eigenbasis_route_agrees():
    geom, rates = stack(8, layer_spacing=0.85)
    spec = SqueezedVacuumSpec(n_photons=4.0, purity=0.9)
    det = DetuningSpec(eff_detuning=-0.2)
    drift, diff = build_problem(geom, rates, spec, det)
    via_schur = xi2_numeric(solve_moments(drift, diff), geom)
    via_eig = xi2_numeric(solve_eigenbasis(drift, diff), geom)
    assert via_eig.xi2 == pytest.approx(via_schur.xi2, rel=1e-10)
    assert via_eig.theta_opt == pytest.approx(via_schur.theta_opt, abs=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n_layers=st.integers(1, 30),
    lattice_const=st.floats(0.3, 0.95),
    layer_spacing=st.floats(0.5, 1.5),
    eff_detuning=st.floats(-2.0, 2.0),
    log10_photons=st.floats(-2.0, 3.0),
    purity=st.floats(0.0, 1.0),
)
def test_schur_and_eigenbasis_routes_agree_on_random_stacks(
    n_layers, lattice_const, layer_spacing, eff_detuning, log10_photons, purity
):
    geom, rates = stack(n_layers, lattice_const=lattice_const,
                        layer_spacing=layer_spacing)
    spec = SqueezedVacuumSpec(n_photons=10.0**log10_photons, purity=purity)
    drift, diff = build_problem(geom, rates, spec, DetuningSpec(eff_detuning))
    via_schur = solve_moments(drift, diff)
    via_eig = solve_eigenbasis(drift, diff)
    for ours, theirs in ((via_schur.n_matrix, via_eig.n_matrix),
                         (via_schur.m_matrix, via_eig.m_matrix)):
        assert np.abs(ours - theirs).max() <= 1e-9 * np.abs(ours).max()
    result = xi2_numeric(via_schur, geom)
    assert result.xi2 == pytest.approx(xi2_numeric(via_eig, geom).xi2, rel=1e-9)
    assert result.xi2 * result.xi2_anti >= 1.0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n_layers=st.integers(1, 30),
    lattice_const=st.floats(0.3, 0.95),
    layer_spacing=st.floats(0.5, 1.5),
    eff_detuning=st.floats(-2.0, 2.0),
    log10_photons=st.floats(-2.0, 3.0),
    purity=st.floats(0.0, 1.0),
)
def test_unit_response_matches_per_point_solve_on_random_stacks(
    n_layers, lattice_const, layer_spacing, eff_detuning, log10_photons, purity
):
    geom, rates = stack(n_layers, lattice_const=lattice_const,
                        layer_spacing=layer_spacing)
    spec = SqueezedVacuumSpec(n_photons=10.0**log10_photons, purity=purity)
    drift, diff = build_problem(geom, rates, spec, DetuningSpec(eff_detuning))
    response = unit_response(drift, geom, rates)
    result = xi2_from_response(response, spec)
    direct = xi2_numeric(solve_moments(drift, diff), geom)
    assert result.xi2 == pytest.approx(direct.xi2, rel=1e-9)
    assert response.alpha <= 1.0 + 1e-12
    assert result.xi2 * result.xi2_anti >= 1.0


@pytest.mark.parametrize("lattice_const", ["0.68", "0.95"])
@pytest.mark.parametrize("purity", ["1", "0.999"])
@pytest.mark.parametrize("eff_detuning", ["0", "0.83"])
def test_numeric_equals_analytic_without_evanescent_coupling(
    lattice_const, purity, eff_detuning
):
    # At integer spacing without the evanescent part the stack is exactly
    # the beam splitter: c_n = r0 and alpha_num = |r|/r0.  Per-point solves
    # evaluated as 1 + 2<P^dag P> - 2|<P P>| miss this bound (2.9e-10 at
    # a = 0.95, 100 layers, N = 1000).
    for n_layers in ("1", "10", "100"):
        config = build_config({
            "geometry.lattice_const": lattice_const,
            "geometry.n_layers": n_layers,
            "input.purity": purity,
            "input.n_photons": "log:0.01:1000:9",
            "detuning.mode": "fixed",
            "detuning.value": eff_detuning,
            "kernel.include_evanescent": "false",
            "model": "both",
        })
        for row in run_sweep(config):
            assert row["error"] == ""
            assert row["xi2_numeric"] == pytest.approx(row["xi2_analytic"], rel=1e-10)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n_layers=st.integers(1, 60),
    lattice_const=st.floats(0.3, 0.97),
    purity=st.floats(0.0, 1.0),
    n_photons=st.floats(0.0, 1e4),
    eff_detuning=st.floats(-5.0, 5.0),
    gamma_s_frac=st.floats(1e-3, 10.0),
)
def test_numeric_equals_analytic_on_random_stacks(
    n_layers, lattice_const, purity, n_photons, eff_detuning, gamma_s_frac
):
    # The identity of the fixed grid above, over the whole parameter
    # space: with the evanescent part off at integer spacing, the unit
    # response is the closed-form beam splitter.
    geom, rates = stack(n_layers, lattice_const=lattice_const,
                        gamma_s_frac=gamma_s_frac)
    spec = SqueezedVacuumSpec(n_photons=n_photons, purity=purity)
    det = DetuningSpec(eff_detuning=eff_detuning)
    kernel = interaction_kernel(geom, rates, include_evanescent=False)
    response = unit_response(drift_matrix(kernel, rates, det), geom, rates)
    numeric = xi2_from_response(response, spec)
    analytic = xi2_analytic(rates, spec, det)
    assert numeric.xi2 == pytest.approx(analytic.xi2, rel=1e-10)
    assert numeric.xi2_anti == pytest.approx(analytic.xi2_anti, rel=1e-10)


def test_unit_response_keeps_the_unit_solve_residuals():
    geom, rates = stack(4)
    drift, _ = build_problem(geom, rates, SqueezedVacuumSpec(n_photons=1.0))
    unit = solve_moments(drift, steady.moment_diffusions(1.0, 1.0, geom, rates))
    response = unit_response(drift, geom, rates)
    assert (response.residual_n, response.residual_m) == (
        unit.residual_n, unit.residual_m
    )
    assert max(response.residual_n, response.residual_m) < RESIDUAL_TARGET


def rebind(monkeypatch, fn, replacement):
    """Replace ``fn`` in every spinsqueeze module that binds it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("spinsqueeze") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)


def count_calls(monkeypatch, fn):
    """Count calls of ``fn`` through every spinsqueeze module binding."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    rebind(monkeypatch, fn, wrapper)
    return calls


def test_numeric_sweep_solves_once_for_unit_sources(monkeypatch):
    sylvester = count_calls(monkeypatch, steady.solve_sylvester)
    diffusions = count_calls(monkeypatch, spinsqueeze.noise_diffusions)
    config = build_config({
        "geometry.n_layers": "6",
        "input.n_photons": "log:0.01:1000:25",
        "model": "numeric",
    })
    rows = run_sweep(config)
    assert [row["error"] for row in rows] == [""] * 25
    assert (len(sylvester), len(diffusions)) == (2, 0)


def test_unit_solve_failure_fills_every_row(monkeypatch, tmp_path):
    monkeypatch.setattr(steady, "RESIDUAL_HARD_LIMIT", 0.0)
    config = build_config({
        "geometry.n_layers": "6",
        "input.n_photons": "0.1,1,10",
        "model": "both",
    })
    rows = run_sweep(config)
    for row in rows:
        assert row["error"].startswith("ResidualError: steady-state solve residual")
        assert row["xi2_numeric"] == ""
        assert row["xi2_analytic"] != ""
    out = tmp_path / "table.csv"
    code = cli.main(["numeric", "--set", "geometry.n_layers=6",
                     "--set", "input.n_photons=0.1,1,10", "--out", str(out)])
    assert code == 3
    assert out.read_text().count("ResidualError: ") == 3


@pytest.mark.parametrize("spacing", ["1.0", "0.75"])
def test_nan_solve_is_refused(monkeypatch, spacing):
    # A solve that returns NaN makes the residual NaN, which a plain
    # "residual > limit" lets through; both routes must refuse it.
    def nan_solve(r, u, s, v, q):
        return np.full_like(q, np.nan)

    monkeypatch.setattr(steady, "solve_sylvester", nan_solve)
    rows = run_sweep(numeric_config(geometry__layer_spacing=spacing,
                                    geometry__n_layers="6"))
    for row in rows:
        assert row["error"].startswith(
            "ResidualError: steady-state solve residual nan"
        )
        assert row["xi2_numeric"] == ""


@pytest.mark.parametrize("factor", [3.0, 1.0 + 1e-6])
@pytest.mark.parametrize("gamma_s", ["1.7e308", "0.1"])
@pytest.mark.parametrize("spacing", ["1.0", "0.75"])
def test_wrong_solve_is_refused_up_to_the_float_range(monkeypatch, spacing,
                                                      gamma_s, factor):
    # Near the top of the float range the drift matrix's own norm
    # overflows; the residual must scale it away to still see a wrong solve.
    solve = steady.solve_sylvester
    monkeypatch.setattr(steady, "solve_sylvester",
                        lambda *args: factor * solve(*args))
    rows = run_sweep(numeric_config(geometry__layer_spacing=spacing,
                                    rates__gamma_s=gamma_s))
    for row in rows:
        assert row["error"].startswith("ResidualError: steady-state solve residual")
        assert row["xi2_numeric"] == ""


def fake_response(alpha):
    return UnitResponse(c_n=0.5, c_m=-0.5 * alpha, residual_n=0.0, residual_m=0.0)


def test_contrast_above_one_is_refused_beyond_roundoff(monkeypatch):
    config = build_config({
        "geometry.n_layers": "2",
        "input.n_photons": "0.1,10",
        "model": "numeric",
    })

    def respond(alpha):
        monkeypatch.setattr(
            sweep, "numeric_response", lambda *args: fake_response(alpha)
        )

    respond(1.0 + 1e-6)
    for row in run_sweep(config):
        assert row["error"].startswith("PhysicalityError: squeezing contrast")
        assert row["xi2_numeric"] == ""

    respond(1.0 + 1e-13)
    for row in run_sweep(config):
        assert row["error"] == ""
        n = row["n_photons"]
        assert row["xi2_numeric"] == spinsqueeze.beam_splitter(0.5, n, 1.0).xi2

    # fig3b runs at purity 0.9999, so its contrast must exceed 1/0.9999.
    respond(1.001)
    fig3b_rows, _ = sweep.preset_fig3b(sweep.figure_config("fig3b"))
    for row in fig3b_rows:
        assert row["error"].startswith("PhysicalityError: squeezing contrast")
        assert row["xi2_numeric"] == ""


def test_each_drift_matrix_is_factorised_once(monkeypatch):
    calls = {"schur": 0, "eigvals": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(layers, "schur", counted("schur", layers.schur))
    monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
    config = build_config({
        "geometry.n_layers": "6",
        "input.n_photons": "log:0.1:100:5",
        "model": "numeric",
    })
    rows = run_sweep(config)
    assert [row["error"] for row in rows] == [""] * 5
    assert calls == {"schur": 1, "eigvals": 0}


def test_threads_share_the_schur_factors():
    # More threads than cores and a short switch interval interleave
    # the grid points, which all read one drift matrix and its unit
    # response; any write to that shared state would change a later
    # point's result.  Only trajectory points run on threads, so the
    # sweep checks them with a small trajectory budget.
    config = build_config({
        "geometry.n_layers": "20",
        "input.n_photons": "log:0.01:1000:40",
        "model": "mc-check",
        "mc.n_traj": "2",
        "mc.t_burn": "0",
        "mc.t_avg": "2",
    })
    serial = run_sweep(dataclasses.replace(config, workers=1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_sweep(dataclasses.replace(config, workers=6))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert all(row["error"] == "" for row in serial)
    assert all(isinstance(row["mc_estimate"], float) for row in serial)


def test_residuals_are_recorded_and_small():
    geom, rates = stack(10)
    spec = SqueezedVacuumSpec(n_photons=10.0)
    drift, diff = build_problem(geom, rates, spec)
    moments = solve_moments(drift, diff)
    assert moments.residual_n < 1e-10
    assert moments.residual_m < 1e-10


def per_term_residual(a_left, a_right, x, source):
    """The relative residual with a norm taken of each term on its own."""
    peak = np.abs(a_right).max()
    a_left, a_right, source = a_left / peak, a_right / peak, source / peak
    res = a_left @ x + x @ a_right + source
    x_norm = steady._norm(x)
    scale = (steady._norm(a_left) * x_norm + x_norm * steady._norm(a_right)
             + steady._norm(source))
    return 0.0 if scale == 0.0 else float(steady._norm(res) / scale)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n_layers=st.integers(1, 60),
    log10_gamma_s=st.floats(-5.0, 300.0),
    layer_spacing=st.sampled_from([1.0, 0.75]),
    purity=st.floats(0.0, 1.0),
)
@example(n_layers=12, log10_gamma_s=300.0, layer_spacing=1.0, purity=0.9)
@example(n_layers=12, log10_gamma_s=300.0, layer_spacing=0.75, purity=0.9)
def test_shared_drift_norm_keeps_the_per_term_residual_bits(
    n_layers, log10_gamma_s, layer_spacing, purity
):
    # conj(A), A^T and A have one norm; solve_moments takes it, and the
    # drift's peak, once for both equations, which moves no bit.
    geom, rates = stack(n_layers, layer_spacing=layer_spacing,
                        gamma_s_frac=10.0**log10_gamma_s)
    spec = SqueezedVacuumSpec(n_photons=3.0, purity=purity)
    drift, diff = build_problem(geom, rates, spec)
    moments = solve_moments(drift, diff)
    a = drift.matrix
    with np.errstate(over="ignore", invalid="ignore"):
        assert moments.residual_n == per_term_residual(
            a.conj(), a.T, moments.n_matrix, diff.s_n
        )
        assert moments.residual_m == per_term_residual(
            a, a.T, moments.m_matrix, diff.s_m
        )


def test_moment_matrices_are_physical():
    geom, rates = stack(6, layer_spacing=0.9)
    spec = SqueezedVacuumSpec(n_photons=2.0, purity=0.8)
    drift, diff = build_problem(geom, rates, spec, DetuningSpec(eff_detuning=0.1))
    moments = solve_moments(drift, diff)
    n = moments.n_matrix
    assert np.allclose(n, n.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(n).min() > -1e-10
    m = moments.m_matrix
    assert np.allclose(m, m.T, atol=1e-12)


def test_vacuum_input_gives_unity():
    geom, rates = stack(4)
    drift, diff = build_problem(geom, rates, SqueezedVacuumSpec(n_photons=0.0))
    result = xi2_numeric(solve_moments(drift, diff), geom)
    assert result.xi2 == pytest.approx(1.0, abs=1e-12)
    assert result.theta_opt == 0.0


def test_uncertainty_and_floor_invariants():
    geom, rates = stack(10)
    for n_photons in (0.1, 1.0, 10.0, 100.0):
        spec = SqueezedVacuumSpec(n_photons=n_photons)
        drift, diff = build_problem(geom, rates, spec, include_evanescent=False)
        result = xi2_numeric(solve_moments(drift, diff), geom)
        assert result.xi2 * result.xi2_anti >= 1.0 - 1e-9
        assert result.xi2 >= 1.0 - rates.r0 - 1e-9


def test_negative_occupation_is_refused():
    geom, _ = stack(2)
    bogus = SteadyStateMoments(
        n_matrix=-1e-3 * np.eye(2, dtype=complex),
        m_matrix=np.zeros((2, 2), dtype=complex),
        residual_n=0.0,
        residual_m=0.0,
    )
    with pytest.raises(PhysicalityError):
        xi2_numeric(bogus, geom)


def test_theta_follows_anomalous_phase():
    geom, rates = stack(3)
    spec = SqueezedVacuumSpec(n_photons=2.0)
    det = DetuningSpec(eff_detuning=0.6)
    drift, diff = build_problem(geom, rates, spec, det, include_evanescent=False)
    moments = solve_moments(drift, diff)
    _, pp = collective_moments(moments, geom)
    result = xi2_numeric(moments, geom)
    expected = ((math.pi - np.angle(pp)) % (2.0 * math.pi)) / 2.0
    assert result.theta_opt == pytest.approx(expected, rel=1e-12)


# The Krylov route: at integer spacing the unit response is solved on the
# Lanczos space of the evanescent kernel from the uniform vector, and the
# dense route is its reference.


def dense_and_reduced(geom, rates, det):
    """The dense and the Krylov unit response of one stack."""
    dense = unit_response(
        drift_matrix(interaction_kernel(geom, rates), rates, det), geom, rates
    )
    return dense, steady.numeric_response(geom, rates, det)


def assert_same_response(dense, reduced, rel):
    assert abs(reduced.c_n - dense.c_n) <= rel * abs(dense.c_n)
    assert abs(reduced.c_m - dense.c_m) <= rel * abs(dense.c_m)


@pytest.mark.parametrize("n_layers", [1, 7, 1000, 10000])
def test_krylov_route_without_evanescent_coupling_is_the_beam_splitter(n_layers):
    # E = 0, so the first Lanczos step leaves nothing: the space is the
    # uniform vector alone and the reduced problem is one collective mode
    # decaying at (N_z gamma0 + gamma_s)/2, whatever the detuning.
    geom, rates = stack(n_layers)
    steps = list(layers.kernel_lanczos(
        np.zeros(1), n_layers, steady.KRYLOV_START, steady.KRYLOV_CAP
    ))
    assert [(len(diag), exhausted) for diag, _, exhausted in steps] == [(1, True)]
    response = steady.numeric_response(
        geom, rates, DetuningSpec(0.7), include_evanescent=False
    )
    g0, gs, eta = rates.gamma0, rates.gamma_s, rates.eta
    expected = eta * n_layers * g0 / (n_layers * g0 + gs)
    assert abs(response.c_n - expected) <= 1e-14 * expected


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n_layers=st.integers(1, 150),
    lattice_const=st.floats(0.6, 0.97),
    eff_detuning=st.floats(-5.0, 5.0),
    log10_gamma_s=st.floats(-3.0, 1.0),
    corrected=st.booleans(),
)
def test_krylov_route_matches_dense_on_random_stacks(
    n_layers, lattice_const, eff_detuning, log10_gamma_s, corrected
):
    geom, rates = stack(n_layers, lattice_const=lattice_const,
                        gamma_s_frac=10.0**log10_gamma_s)
    det = DetuningSpec(layers.delta_prime(geom) if corrected else eff_detuning)
    assert_same_response(*dense_and_reduced(geom, rates, det), rel=1e-11)


@pytest.mark.parametrize(
    "lattice_const, gamma_s_frac, corrected",
    [(0.68, 0.1, False), (0.95, 1e-3, True)],
)
def test_krylov_route_matches_dense_at_400_layers(
    lattice_const, gamma_s_frac, corrected
):
    # 400 layers leave 200 even modes, more than the reduction needs.  The
    # largest difference measured is 2.1e-14; dense phases that drift with
    # the layer index, exp(2 pi i spacing n), put c_m 6.8e-14 off at
    # spacing 1 and 1.4e-13 at spacing 2.
    for layer_spacing in (1.0, 2.0):
        geom, rates = stack(400, lattice_const=lattice_const,
                            layer_spacing=layer_spacing,
                            gamma_s_frac=gamma_s_frac)
        det = DetuningSpec(layers.delta_prime(geom) if corrected else 0.0)
        assert_same_response(*dense_and_reduced(geom, rates, det), rel=5e-14)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    lattice_const=st.floats(0.6, 0.97),
    n_layers=st.integers(1, 300),
    layer_spacing=st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.5, 3.0)),
    log10_gamma_s=st.floats(-5.0, -1.0),
    detuning=st.floats(-1.0, 1.0),
)
@example(0.68, 10, 1.0, -2.0, 0.3)
@example(0.95, 300, 1.0, -3.0, 0.3)
@example(0.97, 100, 1.0, -5.0, 0.3)
@example(0.68, 20, 0.75, -2.0, 0.3)
@example(0.9, 15, 1.3, -1.0, 0.3)
def test_each_route_balances_the_energy_of_the_stack_it_solves(
    lattice_const, n_layers, layer_spacing, log10_gamma_s, detuning
):
    # comm = -(A + A^H), so the trace of the n equation conj(A) n + n A^T
    # = -s_n reads tr(comm n) = tr(s_n): the decay balances the drive.  It
    # holds for the stack each route solves, the equivalent stack at integer
    # spacing (with its own rates) and the full stack otherwise, so it
    # checks the reduced rates and sources, which the residual cannot.
    # Measured up to 2.4e-15 relative.
    if layer_spacing != round(layer_spacing):
        n_layers = min(n_layers, 60)  # the dense route costs N_z^3
    geom, rates = stack(n_layers, lattice_const=lattice_const,
                        layer_spacing=layer_spacing,
                        gamma_s_frac=10.0**log10_gamma_s)
    det = DetuningSpec(detuning * rates.gamma0)
    drift, solved_geom, solved_rates = steady.numeric_response(geom, rates, det).stack
    diff = steady.moment_diffusions(1.0, 1.0, solved_geom, solved_rates)
    n_matrix = solve_moments(drift, diff).n_matrix
    drive = np.trace(diff.s_n)
    balance = np.trace(diff.comm @ n_matrix)
    assert abs(balance - drive) <= 1e-13 * abs(drive)


@pytest.mark.parametrize("n_layers", [1, 2, 5, 40])
@pytest.mark.parametrize("gamma_s_frac", [0.0, 1e-13, 1e-9])
def test_krylov_route_refuses_what_the_dense_route_refuses(n_layers, gamma_s_frac):
    # Past one layer the modes that reversing the stack flips decay at
    # gamma_s/2 alone, so gamma_s below 2e-12 gamma0 leaves the drift
    # marginal; one layer always decays at (gamma_s + gamma0)/2.
    geom, rates = stack(n_layers, gamma_s_frac=gamma_s_frac)
    unstable = n_layers > 1 and rates.gamma_s < 2e-12 * rates.gamma0
    message = (
        r"drift matrix not strictly stable: max Re\(eig\) = \S+ "
        r"\(threshold -\S+\); add non-collective loss"
    )
    det = DetuningSpec(0.3)
    kernel = interaction_kernel(geom, rates)
    routes = (
        lambda: drift_matrix(kernel, rates, det),
        lambda: steady.numeric_response(geom, rates, det),
    )
    for route in routes:
        if unstable:
            with pytest.raises(StabilityError, match=message):
                route()
        else:
            route()


def numeric_config(**keys):
    return build_config({
        "geometry.n_layers": "40",
        "input.n_photons": "0.1,10",
        "model": "numeric",
        **{key.replace("__", "."): value for key, value in keys.items()},
    })


def test_integer_spacing_takes_the_krylov_route(monkeypatch):
    drifts = count_calls(monkeypatch, layers.drift_matrix)
    kernels = count_calls(monkeypatch, layers.interaction_kernel)
    reduced = count_calls(monkeypatch, layers.kernel_lanczos)
    for spacing in ("1.0", "2"):
        for model in ("numeric", "both"):
            rows = run_sweep(numeric_config(geometry__layer_spacing=spacing,
                                            model=model))
            assert [row["error"] for row in rows] == ["", ""]
    assert (len(drifts), len(kernels), len(reduced)) == (0, 0, 4)


@pytest.mark.parametrize(
    "spacing, model",
    [("0.5", "numeric"), ("1.000000001", "numeric"), ("1.0000000001", "numeric"),
     ("0.5", "mc-check")],
)
def test_other_spacings_and_trajectories_stay_dense(monkeypatch, spacing, model):
    # 1 + 1e-10 passes the phase-matching check (within 1e-9 of an
    # integer), but its phases drift by 2 pi 1e-10 per layer, which the
    # reduction would drop.
    drifts = count_calls(monkeypatch, layers.drift_matrix)
    kernels = count_calls(monkeypatch, layers.interaction_kernel)
    reduced = count_calls(monkeypatch, layers.kernel_lanczos)
    config = numeric_config(
        geometry__layer_spacing=spacing, geometry__n_layers="6", model=model,
        mc__n_traj="2", mc__t_burn="0", mc__t_avg="2",
    )
    rows = run_sweep(config)
    assert [row["error"] for row in rows] == ["", ""]
    assert (len(drifts), len(kernels), len(reduced)) == (1, 1, 0)


def test_integer_spacing_trajectories_take_the_krylov_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense drift built at integer spacing")

    reduced = count_calls(monkeypatch, layers.kernel_lanczos)
    rebind(monkeypatch, layers.interaction_kernel, refuse)
    rebind(monkeypatch, layers.drift_matrix, refuse)
    for spacing in ("1.0", "2"):
        rows = run_sweep(numeric_config(
            geometry__layer_spacing=spacing, geometry__n_layers="6",
            model="mc-check", mc__n_traj="2", mc__t_burn="0", mc__t_avg="2",
        ))
        assert [row["error"] for row in rows] == ["", ""]
        assert all(isinstance(row["mc_estimate"], float) for row in rows)
    assert len(reduced) == 2
    # The reduced solve's own errors reach the trajectory rows.
    monkeypatch.setattr(steady, "KRYLOV_CAP", 10)
    rows = run_sweep(numeric_config(
        geometry__n_layers="100", geometry__lattice_const="0.95",
        rates__gamma_s_over_gamma0="0.001", model="mc-check",
    ))
    for row in rows:
        assert row["error"].startswith("ConvergenceError: Krylov-reduced")
        assert row["mc_estimate"] == row["xi2_numeric"] == ""


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    n_layers=st.integers(1, 60),
    lattice_const=st.floats(0.6, 0.97),
    spacing=st.sampled_from(["1.0", "2.0"]),
    eff_detuning=st.floats(-5.0, 5.0),
    log10_gamma_s=st.floats(-3.0, 1.0),
)
def test_turned_reduced_process_carries_the_collective_mode(
    n_layers, lattice_const, spacing, eff_detuning, log10_gamma_s
):
    # The Krylov route solves the reduced drift turned by the Householder
    # reflection as an ordinary m-layer stack with coupling gamma0 N_z/m
    # per layer, and the trajectory oracle samples that same stack.  Its
    # unit response must be the Krylov response and match the dense one.
    geom, rates = stack(n_layers, lattice_const=lattice_const,
                        layer_spacing=float(spacing),
                        gamma_s_frac=10.0**log10_gamma_s)
    det = DetuningSpec(eff_detuning)
    dense, reduced = dense_and_reduced(geom, rates, det)
    drift, g, r = reduced.stack
    m = drift.matrix.shape[0]
    assert g == dataclasses.replace(geom, n_layers=m)
    assert r == dataclasses.replace(rates, gamma0=r.gamma0)
    assert abs(r.gamma0 * m - rates.gamma0 * n_layers) <= 1e-15 * r.gamma0 * m
    # H maps e1 to the uniform vector, so the collective mode is uniform:
    # it decays at (N_z gamma0 + gamma_s)/2 and is shifted by delta'.
    uniform = np.full(m, 1.0 / math.sqrt(m))
    collective = 1j * (eff_detuning - layers.delta_prime(geom)) - 0.5 * (
        rates.gamma_s + rates.gamma0 * n_layers
    )
    assert abs(uniform @ drift.matrix @ uniform - collective) <= (
        1e-14 * abs(collective)
    )
    assert unit_response(drift, g, r) == reduced
    assert_same_response(dense, reduced, rel=1e-11)


@pytest.mark.parametrize("m", [1, 2, 10, 160])
def test_equivalent_stack_turns_as_the_dense_reflection(m):
    # The builder applies H = I - 2 v v^T / v^T v to T_m as rank-one
    # updates; its drift must be the dense H A_red H of the reduced drift
    # A_red = beta I - i T_m - (gamma0 N_z/2) e1 e1^T, exactly so at m = 1
    # where H = I, and its Schur factors must rebuild that drift.
    geom, rates = stack(2 * m + 1, lattice_const=0.9, gamma_s_frac=1e-3)
    det = DetuningSpec(0.3)
    rng = np.random.default_rng(m)
    diag, off = rng.normal(size=m), rng.normal(size=m - 1)
    drift, g, r = layers.equivalent_stack(diag, off, geom, rates, det)
    t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    a_red = (1j * det.eff_detuning - 0.5 * rates.gamma_s) * np.eye(m) - 1j * t
    a_red[0, 0] -= 0.5 * rates.gamma0 * geom.n_layers
    v = np.full(m, -1.0 / math.sqrt(m))
    v[0] += 1.0
    h = np.eye(m) - (np.outer(v, v) * (2.0 / (v @ v)) if m > 1 else 0.0)
    want = h @ a_red @ h
    scale = np.abs(want).max()
    if m == 1:
        assert np.array_equal(drift.matrix, want)
    assert np.abs(drift.matrix - want).max() <= 1e-14 * scale
    q, tri = drift.schur_q, drift.schur_t
    assert np.abs(q @ tri @ q.conj().T - drift.matrix).max() <= 1e-13 * scale
    assert not q.flags.writeable and not tri.flags.writeable
    assert g == dataclasses.replace(geom, n_layers=m)
    assert r == dataclasses.replace(rates, gamma0=rates.gamma0 * (geom.n_layers / m))


def test_krylov_route_ends_exhausted_below_a_lowered_cap(monkeypatch):
    # 300 layers at a = 0.97 and gamma_s = 1e-5 do not settle before their
    # 150 even modes are exhausted.  Doubling from 80 Lanczos steps would
    # pass a cap of 155; clamped to ceil(N_z/2) + 1 = 151, the last step
    # ends exhausted and the reduction is exact.
    monkeypatch.setattr(steady, "KRYLOV_CAP", 155)
    geom, rates = stack(300, lattice_const=0.97, gamma_s_frac=1e-5)
    assert_same_response(*dense_and_reduced(geom, rates, DetuningSpec()), rel=1e-11)


def test_krylov_route_reports_a_truncated_band_per_row(monkeypatch):
    # The default shell cap converges at integer spacing (a up to 0.99 was
    # tried), so the band is cut at |m|^2 = 2 here to make it fail.
    # The cap is an argument of the memoised band, so no cached band is read.
    monkeypatch.setattr(layers, "DEFAULT_MAX_ORDER", 2)
    drifts = count_calls(monkeypatch, layers.drift_matrix)
    rows = run_sweep(numeric_config(model="both"))
    for row in rows:
        assert row["error"].startswith("ConvergenceError: evanescent sum")
        assert row["xi2_numeric"] == ""
        assert row["xi2_analytic"] != ""
    assert drifts == []


def test_krylov_route_refuses_past_its_step_cap(monkeypatch):
    # a = 0.95 at gamma_s = 1e-3 gamma0 needs far more than 10 steps.
    monkeypatch.setattr(steady, "KRYLOV_CAP", 10)
    rows = run_sweep(numeric_config(
        geometry__n_layers="100", geometry__lattice_const="0.95",
        rates__gamma_s_over_gamma0="0.001",
    ))
    for row in rows:
        assert row["error"] == (
            "ConvergenceError: Krylov-reduced steady state still moving by "
            "more than 1e-13 after 10 Lanczos steps"
        )


def test_deep_numeric_sweep_allocates_no_dense_matrix():
    # One N_z x N_z float array at 10^4 layers is 800 MB; the reduction
    # holds a few dozen Lanczos vectors of N_z entries.
    config = numeric_config(geometry__n_layers="10000",
                            input__n_photons="log:0.01:1000:25")
    tracemalloc.start()
    try:
        rows = run_sweep(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [row["error"] for row in rows] == [""] * 25
    assert peak < 16 * 2**20


@pytest.mark.parametrize("n_layers", [16, 30, 60, 400])
def test_krylov_route_doubles_until_settled(monkeypatch, n_layers):
    # m doubles from KRYLOV_START until c_n and c_m move by less than
    # 1e-13 from m to 2m.  A stack of n_layers has n_layers/2 modes that
    # the uniform vector reaches; once they are exhausted, that exact
    # space is solved and m is not doubled further.
    solves = []

    def spy(moments, geom):
        c_n, c_m = collective_moments(moments, geom)
        solves.append((geom.n_layers, c_n, c_m))
        return c_n, c_m

    monkeypatch.setattr(steady, "collective_moments", spy)
    geom, rates = stack(n_layers, lattice_const=0.95, gamma_s_frac=1e-3)
    det = DetuningSpec(layers.delta_prime(geom))
    response = steady.numeric_response(geom, rates, det)
    assert (response.c_n, response.c_m) == solves[-1][1:]
    sizes = [size for size, _, _ in solves]
    changes = [
        max(abs(n1 - n0) / abs(n1), abs(m1 - m0) / abs(m1))
        for (_, n0, m0), (_, n1, m1) in zip(solves, solves[1:])
    ]
    assert all(change >= steady.KRYLOV_RTOL for change in changes[:-1])
    start = steady.KRYLOV_START
    if n_layers == 16:  # start and 2 start would span its 8 modes: one solve
        assert sizes == [8]
    elif n_layers == 30:  # unsettled at 2 start, exhausted before 4 start
        assert sizes == [start, 2 * start, 15]
    elif n_layers == 60:  # unsettled at 4 start, exhausted before 8 start
        assert sizes == [start, 2 * start, 4 * start, 30]
    else:
        assert sizes == [start * 2**k for k in range(len(sizes))]
        assert sizes[-1] == 160
        assert len(sizes) > 2 and changes[-1] < steady.KRYLOV_RTOL


def test_weakly_coupled_stack_settles_on_the_first_two_rungs(monkeypatch):
    # At the default a = 0.68, eps(1) is 5e-5 of the collective decay, so
    # the 100-layer stack of the numeric-deep benchmark has settled to
    # 1e-13 at m = 5 already: the doubling stops at the 10 x 10 solve.
    sizes = []

    def spy(moments, geom):
        sizes.append(geom.n_layers)
        return collective_moments(moments, geom)

    monkeypatch.setattr(steady, "collective_moments", spy)
    geom, rates = stack(100)
    dense, reduced = dense_and_reduced(geom, rates, DetuningSpec())
    assert sizes == [100, 5, 10]  # the dense solve, then the two rungs
    assert_same_response(dense, reduced, rel=1e-11)


# The trajectory oracle samples the first leading block of the converged
# Lanczos tridiagonal whose xi2 at the point's input is within
# ORACLE_RTOL of the numeric column.


def sampled_layers(monkeypatch, **keys):
    """Layer count of the stack that each ``mc-check`` point samples."""
    seen = []

    def record(drift, diff, geom, params):
        seen.append(geom.n_layers)
        return 0.0, 1.0

    monkeypatch.setattr(sweep, "simulate_xi2", record)
    rows = run_sweep(numeric_config(model="mc-check", geometry__n_layers="10", **keys))
    assert [row["error"] for row in rows] == [""] * len(rows)
    return seen


def test_default_points_sample_one_layer(monkeypatch):
    # At a = 0.68 the first block is within 1.2e-9 of the converged m = 5.
    assert sampled_layers(monkeypatch, input__n_photons="0.1,1,10") == [1, 1, 1]


def test_oracle_climbs_where_the_contrast_deficit_is_amplified(monkeypatch):
    # At a = 0.95 one block misses xi2 at N = 0.1 by more than ORACLE_RTOL
    # and two do not; at N = 10 large N amplifies the contrast deficit
    # 1 - alpha of every block short of the converged m = 5.
    layers_95 = sampled_layers(
        monkeypatch, geometry__lattice_const="0.95", input__n_photons="0.1,10"
    )
    assert layers_95 == [2, 5]
    geom, rates = stack(10, lattice_const=0.95)
    response = steady.numeric_response(geom, rates, DetuningSpec())
    assert response.stack[1].n_layers == 5


def test_dense_route_samples_every_layer(monkeypatch):
    assert sampled_layers(monkeypatch, geometry__layer_spacing="0.75") == [10, 10]


def test_oracle_choice_does_not_depend_on_workers():
    config = numeric_config(
        model="mc-check", geometry__n_layers="10", geometry__lattice_const="0.95",
        input__n_photons="0.1,1,10", mc__n_traj="4", mc__t_burn="1", mc__t_avg="10",
    )
    serial, threaded = (
        sweep.format_table(run_sweep(dataclasses.replace(config, workers=w)), "csv")
        for w in (1, 2)
    )
    assert serial == threaded


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    n_layers=st.integers(1, 60),
    lattice_const=st.floats(0.6, 0.97),
    log10_gamma_s=st.floats(-3.0, 0.0),
    log10_n_photons=st.floats(-2.0, 4.0),
    purity=st.one_of(st.just(1.0), st.floats(0.99, 1.0)),
    corrected=st.booleans(),
)
def test_oracle_samples_the_first_block_within_tolerance(
    n_layers, lattice_const, log10_gamma_s, log10_n_photons, purity, corrected
):
    geom, rates = stack(n_layers, lattice_const=lattice_const,
                        gamma_s_frac=10.0**log10_gamma_s)
    det = DetuningSpec(layers.delta_prime(geom) if corrected else 0.0)
    response = steady.numeric_response(geom, rates, det)
    spec = SqueezedVacuumSpec(n_photons=10.0**log10_n_photons, purity=purity)
    target = xi2_from_response(response, spec).xi2

    def misses(stack_):
        xi2 = xi2_from_response(unit_response(*stack_), spec).xi2
        return abs(xi2 - target) > steady.ORACLE_RTOL * target

    (sampled,) = steady.oracle_stacks(
        response, [target], np.array([spec.n_photons]), purity, geom, rates, det
    )
    assert not misses(sampled)
    diag, off = response.lanczos
    m = 1
    while m < sampled[1].n_layers:  # every smaller block misses
        assert misses(layers.equivalent_stack(diag[:m], off[: m - 1], geom, rates, det))
        m *= 2


def _xi2_or_nan(response, spec):
    try:
        return xi2_from_response(response, spec).xi2
    except PhysicalityError:  # matches no target, so the row keeps its own error
        return math.nan


def _per_point_oracle_stacks(response, specs, geom, rates, det):
    """The oracle's choice tested point by point through xi2_from_response,
    with each block's contrast and occupation checked at each point."""
    targets = [_xi2_or_nan(response, spec) for spec in specs]
    stacks = [response.stack] * len(specs)
    pending = set(range(len(specs)))
    diag, off = response.lanczos or ((), ())
    m = 1
    while m < len(diag) and pending:
        block = steady.equivalent_stack(diag[:m], off[: m - 1], geom, rates, det)
        rung = steady.unit_response(*block)
        for i in list(pending):
            miss = abs(_xi2_or_nan(rung, specs[i]) - targets[i])
            if miss <= steady.ORACLE_RTOL * abs(targets[i]):
                stacks[i] = rung.stack
                pending.remove(i)
        m *= 2
    return stacks


def assert_oracle_matches_per_point(response, n_photons, purity, geom, rates, det):
    """oracle_stacks on the numeric column picks the per-point reference's
    stack, by layer count and drift bits, at every point that runs
    trajectories (those whose own occupation check passes)."""
    grid = np.array(n_photons, dtype=float)
    xi2, failed = steady.xi2_over_grid(response, grid, purity)
    stacks = steady.oracle_stacks(response, xi2, grid, purity, geom, rates, det)
    specs = [SqueezedVacuumSpec(n, purity) for n in n_photons]
    reference = _per_point_oracle_stacks(response, specs, geom, rates, det)
    runs = [i for i in range(len(n_photons)) if i not in failed]
    assert runs
    for i in runs:
        (drift, g, _), (want, want_g, _) = stacks[i], reference[i]
        assert g.n_layers == want_g.n_layers
        assert drift.matrix.tobytes() == want.matrix.tobytes()
    return [stacks[i][1].n_layers for i in runs]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n_layers=st.integers(1, 300),
    lattice_const=st.floats(0.5, 0.99),
    log10_gamma_s=st.floats(-5.0, 0.0),
    purity=st.one_of(st.just(1.0), st.floats(0.99, 1.0)),
    n_photons=st.lists(
        st.one_of(st.just(0.0), st.floats(-3.0, 12.0).map(lambda x: 10.0**x)),
        min_size=1, max_size=6,
    ),
)
# Deep corners; at a = 0.9, 0.97 and 0.99 the oracle climbs past m = 1.
@example(50, 0.97, -5.0, 1.0, [0.01, 1.0, 100.0, 1e4])
@example(300, 0.95, -3.0, 1.0, [0.01, 0.1, 1.0, 10.0, 100.0, 1000.0])
@example(300, 0.99, -5.0, 1.0, [1.0, 1000.0])
@example(50, 0.99, -5.0, 1.0, [1.0, 1000.0])
@example(20, 0.9, -1.0, 0.99, [0.0, 1e6, 1e12])
def test_oracle_on_the_numeric_column_matches_the_per_point_choice(
    n_layers, lattice_const, log10_gamma_s, purity, n_photons
):
    geom, rates = stack(n_layers, lattice_const=lattice_const,
                        gamma_s_frac=10.0**log10_gamma_s)
    det = DetuningSpec()
    response = steady.numeric_response(geom, rates, det)
    assert_oracle_matches_per_point(response, n_photons, purity, geom, rates, det)


def test_oracle_on_the_dense_route_samples_the_whole_stack():
    geom, rates = stack(8, layer_spacing=0.75)
    det = DetuningSpec()
    response = steady.numeric_response(geom, rates, det)
    sampled = assert_oracle_matches_per_point(
        response, [1.0, 10.0], 1.0, geom, rates, det
    )
    assert sampled == [8, 8]


def _unit_response_with(**patch):
    """unit_response whose 1- and 2-layer blocks get the fields ``patch``
    makes of their own response."""
    solve = steady.unit_response

    def patched(drift, geom, rates):
        response = solve(drift, geom, rates)
        if geom.n_layers > 2:
            return response
        return dataclasses.replace(
            response, **{key: make(response) for key, make in patch.items()}
        )
    return patched


def test_oracle_skips_a_block_whose_contrast_exceeds_one(monkeypatch):
    # At a = 0.95 the points of N = 0.1 and 10 sample 2 and 5 layers; a
    # 2-layer block with contrast 1 + 1e-9 raises, so N = 0.1 climbs to 4.
    geom, rates = stack(10, lattice_const=0.95)
    det = DetuningSpec()
    response = steady.numeric_response(geom, rates, det)
    monkeypatch.setattr(
        steady, "unit_response",
        _unit_response_with(c_m=lambda r: r.c_n * (1.0 + 1e-9)),
    )
    sampled = assert_oracle_matches_per_point(
        response, [0.1, 10.0], 1.0, geom, rates, det
    )
    assert sampled == [4, 5]


def test_oracle_skips_the_rows_whose_occupation_fails():
    # A negative c_n fails the response's own rows from N = 100 on.
    geom, rates = stack(10, lattice_const=0.95)
    det = DetuningSpec()
    response = dataclasses.replace(
        steady.numeric_response(geom, rates, det), c_n=-1e-12, c_m=0j
    )
    n_photons = [0.0, 1e-3, 1.0, 1e4, 1e12]
    assert steady.xi2_over_grid(response, np.array(n_photons), 1.0)[1].keys() == {3, 4}
    sampled = assert_oracle_matches_per_point(
        response, n_photons, 1.0, geom, rates, det
    )
    assert sampled == [1, 5, 5]


def test_oracle_skips_a_block_whose_occupation_fails(monkeypatch):
    # The 1- and 2-layer blocks' xi2 lies within ORACLE_RTOL of every
    # target, but their negative c_n fails their occupation from N = 100.
    geom, rates = stack(10, lattice_const=0.95)
    det = DetuningSpec()
    response = dataclasses.replace(
        steady.numeric_response(geom, rates, det), c_n=1e-12, c_m=0j
    )
    monkeypatch.setattr(
        steady, "unit_response",
        _unit_response_with(c_n=lambda r: -1e-12, c_m=lambda r: 0j),
    )
    sampled = assert_oracle_matches_per_point(
        response, [1.0, 1e4], 1.0, geom, rates, det
    )
    assert sampled == [1, 5]
