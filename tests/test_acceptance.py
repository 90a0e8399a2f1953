"""Acceptance gate: nine end-to-end criteria, one verdict line each.

Every test prints ``criterion N: PASS/FAIL  <measured numbers>`` before
asserting, so a single ``pytest -v tests/test_acceptance.py`` run gives
the full scorecard.  Criterion 3 compares the optimal squeezing at every
stack depth with the leading-order expansion of the closed-form optimum
``xi2_min``; the comment in that test derives it.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from spinsqueeze import (
    ArrayGeometry,
    BeamProfile,
    DetuningSpec,
    McParams,
    SqueezedVacuumSpec,
    ThreeLevelSpec,
    compute_rates,
    delta_prime,
    drift_matrix,
    fig_data,
    interaction_kernel,
    noise_diffusions,
    simulate_xi2,
    single_layer_rate,
    solve_moments,
    waist_for_overlap,
    xi2_analytic,
    xi2_min,
    xi2_min_vs_layers,
    xi2_numeric,
    xi2_three_level,
)
from spinsqueeze.mc import stacked_covariance


def _report(num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {verdict}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def stack(lattice_const=0.68, n_layers=10, eta=0.99, gamma_s_frac=0.1):
    geom = ArrayGeometry(
        n_side=200,
        lattice_const=lattice_const,
        n_layers=n_layers,
        layer_spacing=1.0,
    )
    beam = BeamProfile(waist=waist_for_overlap(geom, eta))
    gamma_s = gamma_s_frac * single_layer_rate(lattice_const)
    return geom, beam, compute_rates(geom, beam, gamma_s=gamma_s)


def solve_numeric(geom, rates, spec, det=DetuningSpec()):
    kernel = interaction_kernel(geom, rates)
    drift = drift_matrix(kernel, rates, det)
    diff = noise_diffusions(spec, geom, rates)
    return xi2_numeric(solve_moments(drift, diff), geom)


def test_criterion_1_reflectivity_budget():
    _, _, rates = stack()
    r0_dev = abs(rates.r0 - 0.980198)
    bright = xi2_analytic(rates, SqueezedVacuumSpec(n_photons=1e6))
    limit_dev = abs(bright.xi2 - (1.0 - rates.r0))
    ok = r0_dev < 1e-6 and limit_dev < 1e-6
    _report(
        1,
        ok,
        f"r0 = {rates.r0:.9f} (|dev| = {r0_dev:.2e}), "
        f"bright limit |xi2 - (1 - r0)| = {limit_dev:.2e}",
    )


def test_criterion_2_optimal_squeezing():
    _, _, rates = stack()
    value, n_opt = xi2_min(rates, 0.999)
    closed_dev = abs(value - 0.063627)

    def curve(n):
        spec = SqueezedVacuumSpec(n_photons=n, purity=0.999)
        return xi2_analytic(rates, spec).xi2

    search = minimize_scalar(
        curve, bounds=(0.5, 200.0), method="bounded",
        options={"xatol": 1e-10},
    )
    search_dev = abs(value - search.fun)
    ok = closed_dev < 1e-4 and search_dev < 1e-8
    _report(
        2,
        ok,
        f"xi2_min = {value:.9f} at n = {n_opt:.4f}, "
        f"|closed - 0.063627| = {closed_dev:.2e}, "
        f"|closed - bracketed| = {search_dev:.2e}",
    )


def test_criterion_3_layer_count_asymptotes():
    # The closed-form optimum is xi2_min = (1 - r0) + r0 * sqrt(1 - alpha^2)
    # with 1 - r0 = (1 - eta) + eta * x / (1 + x) and
    # x = gamma_s / (n_layers * gamma0), so to leading order
    #
    #     xi2_min ~ x + (1 - eta) + r0 * sqrt(1 - alpha^2),
    #
    # the loss term (asym_small_nz), the overlap leakage (asym_large_nz)
    # and the quadrature floor.  Every layer count is compared with that
    # sum; what is left is the O(x) next-order term, largest at one layer.
    # The bare loss term x alone cannot serve as the shallow-stack
    # reference: at eta = 0.99 and alpha = 0.9999 the leakage (0.01) and
    # the floor (about 0.013) are comparable to x = 0.1 / n_layers for
    # n_layers <= 3, so x misses xi2_min by +13, +41 and +66 percent at
    # one, two and three layers.  No gamma_s brings x within 10 percent
    # of xi2_min at all three layer counts at once (the best case is
    # about 15 percent off).
    # A rate law with the wrong layer scaling (loss growing with
    # n_layers, or gamma_coll not growing linearly with it) leaves the
    # band at n_layers = 2.
    geom, beam, rates = stack()
    alpha = 0.9999
    rows = xi2_min_vs_layers(
        geom, beam, rates.gamma_s, alpha, [1, 2, 3, 1000, 10000]
    )
    floor = math.sqrt(1.0 - alpha * alpha)
    devs = []
    for row in rows:
        ref = row["asym_small_nz"] + row["asym_large_nz"] + row["r0"] * floor
        devs.append((row["n_layers"], (row["xi2_min"] - ref) / ref))
    ok = all(abs(dev) < 0.10 for _, dev in devs)
    detail = ", ".join(f"n_z={nz:g}: {dev:+.4%}" for nz, dev in devs)
    _report(3, ok, f"deviation from leading order ({detail}); band 10%")


def test_criterion_4_collective_shift():
    geom, _, rates = stack(lattice_const=0.68)
    dilute = delta_prime(geom) / rates.gamma0
    dilute_dev = abs(dilute / 1.6e-4 - 1.0)

    geom, _, rates = stack(lattice_const=0.95)
    dense = delta_prime(geom) / rates.gamma0
    dense_dev = abs(abs(dense) / 0.35 - 1.0)
    ok = dilute_dev < 0.10 and dense_dev < 0.05
    _report(
        4,
        ok,
        f"delta'/gamma0 = {dilute:.6e} at a=0.68 (dev {dilute_dev:+.2%}), "
        f"{dense:+.6f} at a=0.95 (dev {dense_dev:+.2%})",
    )


def test_criterion_5_interacting_layers_match_analytic():
    geom, _, rates = stack(lattice_const=0.68)
    worst = 0.0
    for n_photons in [0.01, 0.1, 1.0, 10.0, 100.0]:
        for purity in [1.0, 0.999]:
            spec = SqueezedVacuumSpec(n_photons=n_photons, purity=purity)
            num = solve_numeric(geom, rates, spec)
            ana = xi2_analytic(rates, spec)
            worst = max(worst, abs(num.xi2 - ana.xi2) / ana.xi2)
    ok = worst < 0.01
    _report(5, ok, f"worst relative deviation {worst:.2e} over 10 points; band 1%")


def test_criterion_6_shift_compensated_dense_lattice():
    geom, _, rates = stack(lattice_const=0.95)
    shift = delta_prime(geom)
    purity = 0.999
    worst = 0.0
    for n_photons in [0.01, 0.1, 1.0, 10.0, 100.0]:
        spec = SqueezedVacuumSpec(n_photons=n_photons, purity=purity)
        num = solve_numeric(geom, rates, spec, DetuningSpec(eff_detuning=shift))
        ana = xi2_analytic(rates, spec)
        worst = max(worst, abs(num.xi2 - ana.xi2) / ana.xi2)

    _, n_opt = xi2_min(rates, purity)
    spec = SqueezedVacuumSpec(n_photons=n_opt, purity=purity)
    excess = (
        solve_numeric(geom, rates, spec).xi2
        - xi2_analytic(rates, spec).xi2
    ) / xi2_analytic(rates, spec).xi2
    ok = worst < 0.02 and excess > 0.02
    _report(
        6,
        ok,
        f"compensated worst deviation {worst:.2e} (band 2%), "
        f"uncompensated excess at n = {n_opt:.2f}: {excess:+.1%}",
    )


def test_criterion_7_raman_reduction_matches_augmented_rates():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        geom = ArrayGeometry(
            n_side=200,
            lattice_const=float(rng.uniform(0.6, 0.95)),
            n_layers=int(rng.integers(1, 11)),
            layer_spacing=1.0,
        )
        eta = float(rng.uniform(0.8, 0.995))
        beam = BeamProfile(waist=waist_for_overlap(geom, eta))
        gamma0 = single_layer_rate(geom.lattice_const)
        rates = compute_rates(
            geom, beam, gamma_s=float(rng.uniform(0.0, 0.3)) * gamma0
        )
        spec = SqueezedVacuumSpec(
            n_photons=float(10.0 ** rng.uniform(-2.0, 2.0)),
            purity=float(rng.uniform(0.7, 1.0)),
        )
        det = DetuningSpec(eff_detuning=float(rng.uniform(-0.5, 0.5)))
        gamma_se = float(rng.uniform(0.0, 0.2)) * gamma0
        rabi = float(rng.uniform(0.05, 1.0)) * np.exp(
            1j * rng.uniform(0.0, 2.0 * np.pi)
        )
        tls = ThreeLevelSpec(rabi=complex(rabi), gamma_se=gamma_se)

        aug_loss = rates.gamma_loss + gamma_se
        augmented = dataclasses.replace(
            rates,
            gamma_loss=aug_loss,
            r0=rates.gamma_coll / (rates.gamma_coll + aug_loss),
        )
        reduced = xi2_three_level(rates, spec, det, tls)
        direct = xi2_analytic(augmented, spec, det)
        worst = max(worst, abs(reduced.xi2 - direct.xi2) / direct.xi2)
        assert reduced.theta_opt == direct.theta_opt == 0.0
    ok = worst < 1e-12
    _report(7, ok, f"worst relative deviation {worst:.2e} over 20 draws; band 1e-12")


def test_criterion_8_trajectories_match_moment_solver():
    params = McParams(dt=0.5, t_burn=60.0, t_avg=1500.0, n_traj=256, seed=11)
    worst_z = 0.0
    worst_rel = 0.0
    for n_layers in [1, 2, 5]:
        geom, _, rates = stack(n_layers=n_layers)
        kernel = interaction_kernel(geom, rates)
        drift = drift_matrix(kernel, rates, DetuningSpec())
        for n_photons in [0.1, 1.0, 10.0]:
            spec = SqueezedVacuumSpec(n_photons=n_photons)
            diff = noise_diffusions(spec, geom, rates)
            truth = xi2_numeric(solve_moments(drift, diff), geom).xi2
            est, stderr = simulate_xi2(drift, diff, geom, params)
            worst_z = max(worst_z, abs(est - truth) / stderr)
            worst_rel = max(worst_rel, stderr / est)
    ok = worst_z < 3.0 and worst_rel < 0.01
    _report(
        8,
        ok,
        f"worst |z| = {worst_z:.2f} (limit 3), "
        f"worst rel stderr = {worst_rel:.2%} (limit 1%) over 9 cases",
    )


def test_criterion_9_physicality_and_determinism(tmp_path):
    geom, _, rates = stack(lattice_const=0.95)
    kernel = interaction_kernel(geom, rates)
    d = kernel.d_matrix
    checks = {}

    checks["kernel"] = (
        np.all(np.diag(d) == 0.0)
        and np.allclose(d, d.T, rtol=0.0, atol=0.0)
        and all(
            np.allclose(np.diag(d, k), d[0, k], rtol=1e-13)
            for k in range(1, geom.n_layers)
        )
    )

    drift = drift_matrix(kernel, rates, DetuningSpec(eff_detuning=0.1))
    spec = SqueezedVacuumSpec(n_photons=2.5, purity=0.9)
    diff = noise_diffusions(spec, geom, rates)
    moments = solve_moments(drift, diff)
    a = drift.matrix
    res_n = a.conj() @ moments.n_matrix + moments.n_matrix @ a.T + diff.s_n
    res_m = a @ moments.m_matrix + moments.m_matrix @ a.T + diff.s_m
    checks["residuals"] = (
        np.linalg.norm(res_n) < 1e-10 and np.linalg.norm(res_m) < 1e-10
    )
    checks["psd"] = (
        np.linalg.eigvalsh(moments.n_matrix).min() > -1e-10
        and np.linalg.eigvalsh(stacked_covariance(diff)).min() > -1e-12
    )

    vacuum = solve_numeric(geom, rates, SqueezedVacuumSpec(n_photons=0.0))
    checks["vacuum"] = abs(vacuum.xi2 - 1.0) < 1e-10 and vacuum.theta_opt == 0.0

    result = solve_numeric(geom, rates, spec)
    checks["uncertainty"] = result.xi2 * result.xi2_anti >= 1.0 - 1e-9

    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    paths_a = sorted(fig_data("fig4", {"output.path": str(dir_a)}))
    paths_b = sorted(fig_data("fig4", {"output.path": str(dir_b)}))
    params = McParams(dt=0.25, t_burn=10.0, t_avg=50.0, n_traj=16, seed=3)
    first = simulate_xi2(drift, diff, geom, params)
    second = simulate_xi2(drift, diff, geom, params)
    checks["determinism"] = first == second and all(
        open(pa, "rb").read() == open(pb, "rb").read()
        for pa, pb in zip(paths_a, paths_b)
    )

    ok = all(checks.values())
    detail = ", ".join(f"{name}={'ok' if good else 'BAD'}"
                       for name, good in checks.items())
    _report(9, ok, detail)
