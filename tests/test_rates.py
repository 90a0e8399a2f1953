"""Geometry, beam overlap, and the scalar rate reduction."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import erfinv

from spinsqueeze import (
    ArrayGeometry,
    BeamProfile,
    build_config,
    compute_rates,
    discrete_overlap,
    overlap_efficiency,
    single_layer_rate,
    validity_report,
    waist_for_overlap,
)
from spinsqueeze.exceptions import DomainError
from spinsqueeze.sweep import validity_columns


def bench_geometry(**kwargs):
    base = dict(n_side=200, lattice_const=0.68, n_layers=10, layer_spacing=1.0)
    base.update(kwargs)
    return ArrayGeometry(**base)


def bench_rates(geom, eta=0.99, gamma_s_frac=0.1):
    beam = BeamProfile(waist=waist_for_overlap(geom, eta))
    gamma_s = gamma_s_frac * single_layer_rate(geom.lattice_const)
    return compute_rates(geom, beam, gamma_s=gamma_s)


def test_single_layer_rate_formula_and_frozen_values():
    for a in (0.3, 0.68, 0.95):
        assert single_layer_rate(a) == pytest.approx(3.0 / (4.0 * math.pi * a * a))
    assert single_layer_rate(0.68) == pytest.approx(0.51628982404377799, rel=1e-14)
    assert single_layer_rate(0.95) == pytest.approx(0.26452345112226372, rel=1e-14)


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.0, 1.3])
def test_single_layer_rate_requires_subwavelength_spacing(bad):
    with pytest.raises(DomainError):
        single_layer_rate(bad)


def test_geometry_validation():
    with pytest.raises(DomainError):
        ArrayGeometry(n_side=0, lattice_const=0.68)
    with pytest.raises(DomainError):
        ArrayGeometry(n_side=10, lattice_const=-0.1)
    with pytest.raises(DomainError):
        ArrayGeometry(n_side=10, lattice_const=0.68, n_layers=0)
    with pytest.raises(DomainError):
        ArrayGeometry(n_side=10, lattice_const=0.68, layer_spacing=0.0)


def test_layer_coordinates_centered_square():
    geom = ArrayGeometry(n_side=4, lattice_const=0.5, n_layers=1)
    coords = geom.layer_coordinates()
    assert coords.shape == (16, 2)
    assert np.allclose(coords.mean(axis=0), 0.0)
    xs = np.unique(coords[:, 0])
    assert np.allclose(np.diff(xs), 0.5)


def test_beam_profile_validation_and_normalization():
    with pytest.raises(DomainError):
        BeamProfile(waist=0.0)
    beam = BeamProfile(waist=3.0)
    # |u|^2 integrates to one; a fine lattice covering the beam sees that.
    geom = ArrayGeometry(n_side=400, lattice_const=0.1, n_layers=1)
    assert discrete_overlap(geom, beam) == pytest.approx(1.0, abs=1e-9)
    assert beam.rayleigh_range == pytest.approx(math.pi * 9.0)


def test_overlap_efficiency_closed_form():
    geom = bench_geometry(n_layers=1)
    beam = BeamProfile(waist=15.0)
    expected = math.erf(200 * 0.68 / (math.sqrt(2.0) * 15.0)) ** 2
    assert overlap_efficiency(geom, beam) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(DomainError):
        overlap_efficiency(geom, BeamProfile(waist=15.0, center=(1.0, 0.0)))


def test_discrete_overlap_matches_closed_form_when_resolved():
    geom = ArrayGeometry(n_side=200, lattice_const=0.68, n_layers=1)
    beam = BeamProfile(waist=15.0)
    closed = overlap_efficiency(geom, beam)
    assert discrete_overlap(geom, beam) == pytest.approx(closed, abs=1e-9)


def test_discrete_overlap_single_site():
    geom = ArrayGeometry(n_side=1, lattice_const=0.68, n_layers=1)
    w = 4.0
    expected = 2.0 * 0.68**2 / (math.pi * w * w)
    assert discrete_overlap(geom, BeamProfile(waist=w)) == pytest.approx(
        expected, rel=1e-14
    )


def test_waist_for_overlap_round_trip():
    geom = bench_geometry(n_layers=1)
    for eta in (0.01, 0.5, 0.9, 0.99):
        beam = BeamProfile(waist=waist_for_overlap(geom, eta))
        assert overlap_efficiency(geom, beam) == pytest.approx(eta, rel=1e-12)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            waist_for_overlap(geom, bad)


@pytest.mark.parametrize(
    "eta", [0.01, 0.5, 0.99, 1.0 - 1e-6, 1.0 - 1e-10, 1.0 - 1e-12]
)
def test_waist_for_overlap_matches_reference_inverse(eta):
    geom = bench_geometry(n_layers=1)
    expected = 200 * 0.68 / (math.sqrt(2.0) * erfinv(math.sqrt(eta)))
    assert waist_for_overlap(geom, eta) == pytest.approx(expected, rel=1e-13)


def test_overlap_one_ulp_below_unity_builds():
    # sqrt(eta) rounds to 1 - 2**-53 here, so (1 + sqrt(eta))/2 would
    # round to 1 and leave the normal quantile undefined.
    config = build_config({"beam.eta": "0.9999999999999999"})
    assert math.isfinite(config.beam.waist) and config.beam.waist > 0.0


def test_compute_rates_budget():
    geom = bench_geometry()
    rates = bench_rates(geom)
    gamma0 = single_layer_rate(0.68)
    assert rates.gamma0 == pytest.approx(gamma0, rel=1e-14)
    assert rates.eta == pytest.approx(0.99, rel=1e-12)
    assert rates.gamma_coll == pytest.approx(0.99 * 10 * gamma0, rel=1e-12)
    assert rates.gamma_loss == pytest.approx(
        0.01 * 10 * gamma0 + 0.1 * gamma0, rel=1e-10
    )
    # eta = 0.99, N_z = 10, gamma_s = 0.1 gamma0 reduce to the rational 9.9/10.1.
    assert rates.r0 == pytest.approx(9.9 / 10.1, rel=1e-12)
    assert rates.r0 == pytest.approx(0.9801980198019802, rel=1e-14)


def test_compute_rates_rejects_offset_beam_and_negative_gamma_s():
    geom = bench_geometry()
    with pytest.raises(DomainError):
        compute_rates(geom, BeamProfile(waist=40.0, center=(0.5, 0.0)))
    with pytest.raises(DomainError):
        compute_rates(geom, BeamProfile(waist=40.0), gamma_s=-0.01)


def test_validity_report_bench_point():
    geom = bench_geometry()
    beam = BeamProfile(waist=waist_for_overlap(geom, 0.99))
    rates = bench_rates(geom)
    report = validity_report(geom, beam, rates)
    assert validity_columns(report, 1.0)["valid_all"]
    expected_n_eff = 0.99 * 2.0 * math.pi * (beam.waist / 0.68) ** 2 * 10
    assert report.n_eff == pytest.approx(expected_n_eff, rel=1e-12)
    assert report.heisenberg_floor == pytest.approx(1.0 / (200**2 * 10), rel=1e-14)


def test_validity_report_flags_each_failure_mode():
    beam_ok = BeamProfile(waist=2.0)
    small = ArrayGeometry(n_side=5, lattice_const=0.68, n_layers=1)
    rates = compute_rates(small, beam_ok)
    assert not validity_report(small, beam_ok, rates).layer_size_ok

    tall = ArrayGeometry(n_side=60, lattice_const=0.68, n_layers=100)
    beam_tight = BeamProfile(waist=1.5)
    rates = compute_rates(tall, beam_tight)
    assert not validity_report(tall, beam_tight, rates).rayleigh_ok

    mismatched = ArrayGeometry(
        n_side=60, lattice_const=0.68, n_layers=4, layer_spacing=0.75
    )
    beam = BeamProfile(waist=10.0)
    rates = compute_rates(mismatched, beam)
    assert not validity_report(mismatched, beam, rates).phase_match_ok

    crowded = ArrayGeometry(
        n_side=60, lattice_const=0.9, n_layers=4, layer_spacing=0.5
    )
    # Integer spacing is violated too, but the evanescent margin is the
    # flag under test here.
    rates = compute_rates(crowded, beam)
    assert not validity_report(crowded, beam, rates).evanescent_ok

    geom = bench_geometry()
    beam = BeamProfile(waist=waist_for_overlap(geom, 0.99))
    rates = bench_rates(geom)
    report = validity_report(geom, beam, rates)
    assert not validity_columns(report, 1e9)["valid_linearization"]
