"""Stationary second moments against a direct vectorized linear solve."""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
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
from spinsqueeze.exceptions import PhysicalityError
from spinsqueeze.steady import (
    SteadyStateMoments,
    UnitResponse,
    unit_response,
    xi2_from_response,
)


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
    moments = SteadyStateMoments(
        n_matrix=n_mat,
        m_matrix=m_mat,
        residual_n=steady._residual(a.conj(), a.T, n_mat, diff.s_n),
        residual_m=steady._residual(a, a.T, m_mat, diff.s_m),
    )
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
    assert max(response.residual_n, response.residual_m) < steady.RESIDUAL_TARGET


def count_calls(monkeypatch, fn):
    """Count calls of ``fn`` through every spinsqueeze module binding."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("spinsqueeze") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
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


def fake_response(alpha):
    return UnitResponse(c_n=0.5, c_m=-0.5 * alpha, residual_n=0.0, residual_m=0.0)


def test_contrast_above_one_is_refused_beyond_roundoff(monkeypatch):
    config = build_config({
        "geometry.n_layers": "2",
        "input.n_photons": "0.1,10",
        "model": "numeric",
    })

    def respond(alpha):
        monkeypatch.setattr(sweep, "unit_response",
                            lambda *args: fake_response(alpha))

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
