"""Squeezed-vacuum moments and the layer-space diffusion kernels."""

from __future__ import annotations

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from spinsqueeze import (
    ArrayGeometry,
    BeamProfile,
    SqueezedVacuumSpec,
    compute_rates,
    field_moments,
    input_quadrature_variance,
    noise_diffusions,
    single_layer_rate,
    waist_for_overlap,
)
from spinsqueeze.exceptions import DomainError
from spinsqueeze.squeezed_input import quadrature_deficit


def test_spec_validation():
    with pytest.raises(DomainError):
        SqueezedVacuumSpec(n_photons=-0.1)
    with pytest.raises(DomainError):
        SqueezedVacuumSpec(n_photons=1.0, purity=1.2)
    with pytest.raises(DomainError):
        SqueezedVacuumSpec(n_photons=1.0, purity=-0.1)


def test_field_moments():
    n, m = field_moments(SqueezedVacuumSpec(n_photons=2.0, purity=0.8))
    assert n == 2.0
    assert m == pytest.approx(0.8 * math.sqrt(6.0), rel=1e-15)
    n, m = field_moments(SqueezedVacuumSpec(n_photons=0.0))
    assert (n, m) == (0.0, 0.0)


def test_input_variance_frozen_values():
    # Pure squeezed vacuum at one photon: 1 + 2(1 - sqrt(2)) = 3 - 2 sqrt(2).
    assert input_quadrature_variance(
        SqueezedVacuumSpec(n_photons=1.0)
    ) == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), rel=1e-14)
    assert input_quadrature_variance(
        SqueezedVacuumSpec(n_photons=100.0)
    ) == pytest.approx(0.0024875775821945954, rel=1e-12)
    assert input_quadrature_variance(SqueezedVacuumSpec(n_photons=0.0)) == 1.0


def test_quadrature_deficit_is_cancellation_free():
    # High-precision reference for n - c sqrt(n (n + 1)); the naive float
    # expression loses everything past n ~ 1e8.
    getcontext().prec = 60
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = float(10.0 ** rng.uniform(-2.0, 12.0))
        c = float(rng.choice([1.0, 1.0 - 1e-12, 0.9999, 0.9]))
        dn = Decimal(n)
        exact = dn - Decimal(c) * (dn * (dn + 1)).sqrt()
        assert quadrature_deficit(n, c) == pytest.approx(
            float(exact), rel=1e-13, abs=1e-300
        )


def test_quadrature_deficit_signs():
    assert quadrature_deficit(5.0, 0.0) == 5.0
    assert quadrature_deficit(5.0, 1.0) < 0.0
    assert quadrature_deficit(0.0, 1.0) == 0.0


def _stack(n_layers=4, layer_spacing=0.8):
    geom = ArrayGeometry(
        n_side=200, lattice_const=0.68, n_layers=n_layers, layer_spacing=layer_spacing
    )
    beam = BeamProfile(waist=waist_for_overlap(geom, 0.99))
    rates = compute_rates(geom, beam, gamma_s=0.1 * single_layer_rate(0.68))
    return geom, rates


def test_diffusion_kernels_entrywise():
    geom, rates = _stack()
    spec = SqueezedVacuumSpec(n_photons=1.3, purity=0.9)
    diff = noise_diffusions(spec, geom, rates)
    n_ph, m_ph = field_moments(spec)
    kaz = geom.axial_phase
    eta_g = rates.eta * rates.gamma0
    for n in range(4):
        for m in range(4):
            assert diff.s_n[n, m] == pytest.approx(
                eta_g * n_ph * math.cos(kaz * (n - m)), rel=1e-14, abs=1e-16
            )
            assert diff.s_m[n, m] == pytest.approx(
                -eta_g * m_ph * math.cos(kaz * (n + m)), rel=1e-14, abs=1e-16
            )
            comm = rates.gamma0 * math.cos(kaz * (n - m))
            if n == m:
                comm += rates.gamma_s
            assert diff.comm[n, m] == pytest.approx(comm, rel=1e-14, abs=1e-16)


def test_diffusion_kernels_symmetric():
    geom, rates = _stack(n_layers=6, layer_spacing=1.0)
    diff = noise_diffusions(SqueezedVacuumSpec(n_photons=2.0), geom, rates)
    for kernel in (diff.s_n, diff.s_m, diff.comm):
        assert np.array_equal(kernel, kernel.T)


@pytest.mark.parametrize("purity", [1.0, 0.7])
@pytest.mark.parametrize("layer_spacing", [1.0, 0.8])
def test_symmetric_ordering_is_positive(purity, layer_spacing):
    # The physical constraint behind the Monte-Carlo sampler: adding half
    # the commutator kernel to the occupation source dominates the
    # anomalous source in both quadratures.
    geom, rates = _stack(n_layers=5, layer_spacing=layer_spacing)
    spec = SqueezedVacuumSpec(n_photons=3.0, purity=purity)
    diff = noise_diffusions(spec, geom, rates)
    sigma = diff.s_n + 0.5 * diff.comm
    for sign in (1.0, -1.0):
        eigs = np.linalg.eigvalsh(sigma + sign * diff.s_m)
        assert eigs.min() > -1e-10
