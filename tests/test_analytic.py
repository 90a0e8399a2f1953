"""Closed-form squeezing transfer: reflectivity, optimum, extensions."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from spinsqueeze import (
    ArrayGeometry,
    BeamProfile,
    DetuningSpec,
    SqueezedVacuumSpec,
    ThreeLevelSpec,
    compute_rates,
    overlap_chi,
    reflectivity_complex,
    single_layer_rate,
    three_level_effective,
    waist_for_overlap,
    xi2_analytic,
    xi2_min,
    xi2_min_vs_layers,
    xi2_mismatch,
    xi2_three_level,
)
from spinsqueeze.exceptions import DomainError


def bench_stack(lattice_const=0.68, n_layers=10, eta=0.99, gamma_s_frac=0.1):
    geom = ArrayGeometry(
        n_side=200, lattice_const=lattice_const, n_layers=n_layers, layer_spacing=1.0
    )
    beam = BeamProfile(waist=waist_for_overlap(geom, eta))
    gamma_s = gamma_s_frac * single_layer_rate(lattice_const)
    return geom, beam, compute_rates(geom, beam, gamma_s=gamma_s)


def test_reflectivity_on_resonance_and_half_width():
    _, _, rates = bench_stack()
    assert reflectivity_complex(rates, DetuningSpec()) == pytest.approx(
        rates.r0, rel=1e-15
    )
    det = DetuningSpec(eff_detuning=rates.gamma_coll / (2.0 * rates.r0))
    assert reflectivity_complex(rates, det) == pytest.approx(
        rates.r0 / (1.0 + 1.0j), rel=1e-14
    )


def test_xi2_analytic_frozen_point():
    _, _, rates = bench_stack()
    res = xi2_analytic(rates, SqueezedVacuumSpec(n_photons=1.0))
    assert res.xi2 == pytest.approx(0.18797737277353632, rel=1e-13)
    assert res.theta_opt == 0.0
    assert res.aux["alpha_eff"] == pytest.approx(1.0, rel=1e-15)
    assert res.xi2_anti > 1.0


def test_xi2_analytic_large_n_asymptote():
    _, _, rates = bench_stack()
    res = xi2_analytic(rates, SqueezedVacuumSpec(n_photons=1e6))
    # Approach to 1 - r0 is from above at rate r0 / (4 N).
    assert res.xi2 - (1.0 - rates.r0) == pytest.approx(
        rates.r0 / 4e6, rel=1e-3
    )


def test_xi2_uncertainty_product():
    _, _, rates = bench_stack()
    rng = np.random.default_rng(4)
    for _ in range(50):
        spec = SqueezedVacuumSpec(
            n_photons=float(10.0 ** rng.uniform(-2, 3)),
            purity=float(rng.uniform(0.5, 1.0)),
        )
        res = xi2_analytic(rates, spec)
        assert res.xi2 * res.xi2_anti >= 1.0 - 1e-9
        assert res.xi2 >= 1.0 - rates.r0 - 1e-9


def test_xi2_min_frozen_values_and_bracketed_minimum():
    _, _, rates = bench_stack()
    for alpha, best, n_opt in [
        (0.999, 0.06362680795454839, 10.683136021064685),
        (0.9999, 0.03366372697550407, 34.85622297595726),
    ]:
        value, where = xi2_min(rates, alpha)
        assert value == pytest.approx(best, rel=1e-10)
        assert where == pytest.approx(n_opt, rel=1e-10)
        assert where == pytest.approx(
            0.5 * (1.0 / math.sqrt(1.0 - alpha * alpha) - 1.0), rel=1e-12
        )
        # A dense scan of the curve must not find anything deeper.
        grid = np.logspace(-3, 4, 20001)
        scan = min(
            xi2_analytic(
                rates, SqueezedVacuumSpec(n_photons=float(n), purity=alpha)
            ).xi2
            for n in grid
        )
        assert scan == pytest.approx(value, abs=1e-8)
        assert scan >= value - 1e-12


def test_xi2_min_perfect_source():
    _, _, rates = bench_stack()
    value, where = xi2_min(rates, 1.0)
    assert value == pytest.approx(1.0 - rates.r0, rel=1e-14)
    assert math.isinf(where)


def test_xi2_min_vs_layers_structure():
    geom, beam, rates = bench_stack()
    gamma_s = 0.1 * single_layer_rate(0.68)
    rows = xi2_min_vs_layers(geom, beam, gamma_s, 0.999, (1, 2, 10, 40))
    assert [row["n_layers"] for row in rows] == [1, 2, 10, 40]
    values = [row["xi2_min"] for row in rows]
    assert values == sorted(values, reverse=True)
    for row in rows:
        nz = row["n_layers"]
        stack = dataclasses.replace(geom, n_layers=nz)
        expected_rates = compute_rates(stack, beam, gamma_s=gamma_s)
        assert row["r0"] == pytest.approx(expected_rates.r0, rel=1e-12)
        assert row["xi2_min"] == pytest.approx(
            xi2_min(expected_rates, 0.999)[0], rel=1e-12
        )
        assert row["asym_small_nz"] == pytest.approx(0.1 / nz, rel=1e-12)
        assert row["asym_large_nz"] == pytest.approx(1.0 - 0.99, rel=1e-10)


def test_three_level_effective_hand_points():
    _, _, rates = bench_stack()
    half = 0.5 * (rates.gamma_coll + rates.gamma_loss)
    on_res = DetuningSpec()

    eff = three_level_effective(
        rates, on_res, ThreeLevelSpec(rabi=complex(half, 0.0))
    )
    assert eff["rho"] == pytest.approx(1.0, rel=1e-12)
    assert eff["gamma_S"] == pytest.approx(rates.gamma_coll, rel=1e-12)

    det = DetuningSpec(eff_detuning=half)
    eff = three_level_effective(rates, det, ThreeLevelSpec(rabi=complex(half, 0.0)))
    assert eff["rho"] == pytest.approx(0.5, rel=1e-12)
    assert eff["delta_S"] == pytest.approx(0.5 * half, rel=1e-12)

    eff = three_level_effective(rates, on_res, ThreeLevelSpec(rabi=0j))
    assert eff["rho"] == 0.0
    assert eff["gamma_S"] == 0.0


def test_three_level_off_switch_and_resonance_reduction():
    _, _, rates = bench_stack()
    spec = SqueezedVacuumSpec(n_photons=1.0)
    off = xi2_three_level(rates, spec, DetuningSpec(), ThreeLevelSpec(rabi=0j))
    assert off.xi2 == 1.0

    # On two-photon resonance the spin level inherits the two-level result
    # with the loss budget augmented by the extra decay path.
    tls = ThreeLevelSpec(rabi=0.3 + 0.1j, gamma_se=0.07)
    res = xi2_three_level(rates, spec, DetuningSpec(), tls)
    gamma_loss = rates.gamma_loss + 0.07
    aug = dataclasses.replace(
        rates,
        gamma_loss=gamma_loss,
        r0=rates.gamma_coll / (rates.gamma_coll + gamma_loss),
    )
    ref = xi2_analytic(aug, spec)
    assert res.xi2 == pytest.approx(ref.xi2, rel=1e-12)
    assert res.theta_opt == pytest.approx(0.0, abs=1e-15)
    assert aug.r0 < rates.r0


def test_three_level_two_photon_detuning_degrades_and_rotates():
    _, _, rates = bench_stack()
    spec = SqueezedVacuumSpec(n_photons=1.0)
    tls = ThreeLevelSpec(rabi=0.4 + 0j, two_photon_detuning=0.2, gamma_se=0.05)
    res = xi2_three_level(rates, spec, DetuningSpec(), tls)
    assert res.xi2 == pytest.approx(2.1432484510508845, rel=1e-12)
    assert res.theta_opt == pytest.approx(-0.63787312184767808, rel=1e-12)
    on_res = xi2_three_level(
        rates, spec, DetuningSpec(), dataclasses.replace(tls, two_photon_detuning=0.0)
    )
    assert on_res.xi2 < res.xi2


def test_overlap_chi_identical_modes():
    geom = ArrayGeometry(n_side=200, lattice_const=0.68, n_layers=1)
    beam = BeamProfile(waist=15.0)
    assert overlap_chi(beam, beam, geom) == pytest.approx(1.0, abs=1e-9)


def test_overlap_chi_width_ratio():
    geom = ArrayGeometry(n_side=200, lattice_const=0.68, n_layers=1)
    drive = BeamProfile(waist=15.0)
    readout = BeamProfile(waist=30.0)
    # Continuum value 2 w1 w2 / (w1^2 + w2^2) = 0.8 up to lattice corrections.
    assert overlap_chi(readout, drive, geom) == pytest.approx(0.8, abs=1e-4)


def test_overlap_chi_lateral_offset():
    geom = ArrayGeometry(n_side=200, lattice_const=0.68, n_layers=1)
    w = 15.0
    drive = BeamProfile(waist=w)
    readout = BeamProfile(waist=w, center=(w, 0.0))
    assert overlap_chi(readout, drive, geom) == pytest.approx(
        math.exp(-0.5), abs=1e-9
    )


def test_overlap_chi_numerator_against_quadrature():
    # The closed-form gaussian-gaussian integral behind chi, checked by
    # direct 2D quadrature for an offset, unequal-width pair.
    w_u, w_f, d = 11.0, 17.0, 6.0
    u = BeamProfile(waist=w_u)
    f = BeamProfile(waist=w_f, center=(d, 0.0))
    integral, _ = integrate.dblquad(
        lambda y, x: f.amplitude(x, y) * u.amplitude(x, y),
        -90.0, 90.0, -90.0, 90.0, epsabs=1e-12, epsrel=1e-12,
    )
    expected = (
        2.0 * w_f * w_u / (w_f**2 + w_u**2) * math.exp(-d * d / (w_f**2 + w_u**2))
    )
    assert integral == pytest.approx(expected, rel=1e-9)
    geom = ArrayGeometry(n_side=300, lattice_const=0.68, n_layers=1)
    assert overlap_chi(f, u, geom) == pytest.approx(expected, rel=1e-5)


def test_xi2_mismatch_frozen_point_and_limits():
    _, _, rates = bench_stack()
    spec = SqueezedVacuumSpec(n_photons=1.0)
    res = xi2_mismatch(rates, spec, DetuningSpec(), chi=math.sqrt(0.64))
    assert res.xi2 == pytest.approx(0.48030551857506321, rel=1e-12)
    perfect = xi2_mismatch(rates, spec, DetuningSpec(), chi=1.0)
    assert perfect.xi2 == pytest.approx(
        xi2_analytic(rates, spec).xi2, rel=1e-14
    )
    blind = xi2_mismatch(rates, spec, DetuningSpec(), chi=0.0)
    assert blind.xi2 == 1.0
    with pytest.raises(DomainError):
        xi2_mismatch(rates, spec, DetuningSpec(), chi=1.2)
