"""Squeezed-vacuum moments and the layer-space diffusion kernels."""

from __future__ import annotations

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinsqueeze import (
    ArrayGeometry,
    BeamProfile,
    DetuningSpec,
    SqueezedVacuumSpec,
    beam_splitter,
    compute_rates,
    drift_matrix,
    field_moments,
    input_quadrature_variance,
    interaction_kernel,
    noise_diffusions,
    numeric_response,
    single_layer_rate,
    waist_for_overlap,
)
from spinsqueeze.exceptions import DomainError
from spinsqueeze.geometry import TWO_PI
from spinsqueeze.layers import equivalent_stack
from spinsqueeze.squeezed_input import MAX_PHOTONS

EPS = np.finfo(float).eps


def test_spec_validation():
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(DomainError):
            SqueezedVacuumSpec(n_photons=bad)
    with pytest.raises(DomainError):
        SqueezedVacuumSpec(n_photons=1.0, purity=1.2)
    with pytest.raises(DomainError):
        SqueezedVacuumSpec(n_photons=math.nextafter(MAX_PHOTONS, math.inf))
    with pytest.raises(DomainError):
        SqueezedVacuumSpec(n_photons=1.0, purity=-0.1)


def test_photon_bound_is_where_the_beam_splitter_law_overflows():
    for n in (MAX_PHOTONS, math.nextafter(MAX_PHOTONS, math.inf)):
        assert math.isfinite(4.0 * n * (n + 1.0)) == (n == MAX_PHOTONS)
    spec = SqueezedVacuumSpec(n_photons=MAX_PHOTONS, purity=0.0)
    assert math.isfinite(input_quadrature_variance(spec))


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


def test_beam_splitter_is_cancellation_free():
    # 60-digit reference for 1 + 2R(N - c sqrt(N(N+1))); the direct float
    # expression loses digits for c near 1 past N ~ 1e3 and all of them
    # past N ~ 1e8.
    getcontext().prec = 60
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = float(10.0 ** rng.uniform(-2.0, 12.0))
        c = float(rng.choice([1.0, 1.0 - 1e-12, 0.9999, 0.9, rng.uniform()]))
        r = float(rng.choice([1.0, 1.0 - 1e-9, rng.uniform()]))
        dn = Decimal(n)
        exact = 1 + 2 * Decimal(r) * (dn - Decimal(c) * (dn * (dn + 1)).sqrt())
        assert beam_splitter(r, n, c).xi2 == pytest.approx(
            float(exact), rel=1e-15, abs=0.0
        )


def test_beam_splitter_limits_and_domain():
    # No contrast passes the photon number on as noise, full contrast
    # squeezes, and vacuum input leaves the coherent-state variance.
    assert beam_splitter(0.5, 5.0, 0.0).xi2 == pytest.approx(6.0, rel=1e-15)
    assert beam_splitter(0.5, 5.0, 1.0).xi2 < 1.0
    assert beam_splitter(0.3, 0.0, 1.0).xi2 == pytest.approx(1.0, rel=1e-15)
    for contrast in (-1e-12, 1.0 + 1e-12):
        with pytest.raises(DomainError):
            beam_splitter(0.5, 1.0, contrast)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    reflectivity=st.floats(0.0, 1.0),
    n_photons=st.floats(0.0, 1e6),
    contrast=st.floats(0.0, 1.0),
)
# At R = c = 1 the exact product is 1, so rounding has no slack there.
@example(reflectivity=1.0, n_photons=1e4, contrast=1.0)
@example(reflectivity=1.0, n_photons=16641.0, contrast=1.0)
def test_beam_splitter_uncertainty_and_floor(reflectivity, n_photons, contrast):
    res = beam_splitter(reflectivity, n_photons, contrast)
    assert res.theta_opt == 0.0
    # xi2 xi2_anti = 1 + 4RN(1 - R) >= 1 exactly, and both factors keep
    # full relative precision.
    assert res.xi2 * res.xi2_anti >= 1.0 - 1e-15
    # The field variance stays positive for finite N, so xi2 > 1 - R;
    # after rounding, xi2 and 1 - R may meet when R is tiny.
    assert beam_splitter(1.0, n_photons, contrast).xi2 > 0.0
    assert res.xi2 >= 1.0 - reflectivity


_UNIT = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
_PHOTONS = (
    st.sampled_from([0.0, 1e-300, 1.0, 1e150, MAX_PHOTONS])
    | st.floats(0.0, 1e6)
    | st.floats(0.0, MAX_PHOTONS)
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    reflectivity=_UNIT,
    n_photons=st.lists(_PHOTONS, min_size=1, max_size=8),
    contrast=_UNIT,
)
@example(reflectivity=1.0, n_photons=[0.0, 1e-300, MAX_PHOTONS], contrast=1.0)
@example(reflectivity=0.0, n_photons=[MAX_PHOTONS, 0.0], contrast=0.0)
# Inputs whose xi2 bits differ if the root is taken of N N + N, not N (N + 1).
@example(
    reflectivity=1.0, n_photons=[88.37780053832864, 0.3442710041620428], contrast=1.0
)
def test_array_beam_splitter_is_the_scalar_law_bit_for_bit(
    reflectivity, n_photons, contrast
):
    grid = beam_splitter(reflectivity, np.array(n_photons), contrast, 0.5)
    assert grid.theta_opt == 0.5
    for n, xi2, xi2_anti in zip(n_photons, grid.xi2.tolist(), grid.xi2_anti.tolist()):
        point = beam_splitter(reflectivity, n, contrast, 0.5)
        assert type(point.xi2) is type(point.xi2_anti) is float
        assert (xi2.hex(), xi2_anti.hex()) == (point.xi2.hex(), point.xi2_anti.hex())


@pytest.mark.parametrize("contrast", [-1e-300, -1e-12, 1.0 + 1e-12, math.inf, math.nan])
def test_array_beam_splitter_refuses_the_scalar_laws_contrasts(contrast):
    with pytest.raises(DomainError) as point:
        beam_splitter(0.5, 1.0, contrast)
    with pytest.raises(DomainError) as grid:
        beam_splitter(0.5, np.array([0.0, 1.0, MAX_PHOTONS]), contrast)
    assert str(grid.value) == str(point.value)


def test_beam_splitter_frozen_point():
    # R = 1/2, N = 1, c = 1: 1 + (1 - sqrt 2) and 1 + (1 + sqrt 2).
    res = beam_splitter(0.5, 1.0, 1.0, theta_opt=0.25)
    assert res.xi2 == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-15)
    assert res.xi2_anti == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-15)
    assert res.theta_opt == 0.25


def _stack(n_layers=4, layer_spacing=0.8):
    geom = ArrayGeometry(
        n_side=200, lattice_const=0.68, n_layers=n_layers, layer_spacing=layer_spacing
    )
    beam = BeamProfile(waist=waist_for_overlap(geom, 0.99))
    rates = compute_rates(geom, beam, gamma_s=0.1 * single_layer_rate(0.68))
    return geom, rates


def test_diffusion_kernels_entrywise():
    # The phase of a layer separation or sum is reduced mod one turn before
    # the cosine, as ArrayGeometry.layer_phases reduces it.
    geom, rates = _stack()
    spec = SqueezedVacuumSpec(n_photons=1.3, purity=0.9)
    diff = noise_diffusions(spec, geom, rates)
    n_ph, m_ph = field_moments(spec)

    def cos_layers(s):
        return math.cos(TWO_PI * ((geom.layer_spacing * s) % 1.0))

    eta_g = rates.eta * rates.gamma0
    for n in range(4):
        for m in range(4):
            assert diff.s_n[n, m] == pytest.approx(
                eta_g * n_ph * cos_layers(abs(n - m)), rel=1e-14, abs=1e-16
            )
            assert diff.s_m[n, m] == pytest.approx(
                -eta_g * m_ph * cos_layers(n + m), rel=1e-14, abs=1e-16
            )
            comm = rates.gamma0 * cos_layers(abs(n - m))
            if n == m:
                comm += rates.gamma_s
            assert diff.comm[n, m] == pytest.approx(comm, rel=1e-14, abs=1e-16)


@pytest.mark.parametrize("include_evanescent", [True, False])
@pytest.mark.parametrize("layer_spacing", [0.5, 0.75, 1.3, 2.5, 0.6180339887, 1.0, 2.0])
def test_commutator_kernel_is_the_drift_dissipation_bitwise(
    layer_spacing, include_evanescent
):
    # The trajectory oracle is exact because comm = -(A + A^H): the vacuum
    # noise is twice the drift's dissipative part.  Both are built from the
    # one phase column of layer_phases, so the identity holds to the bit
    # at every spacing, deep stacks and a detuned drive included.  At
    # integer spacing it holds too on the equivalent stack that the
    # numeric route solves and on each leading block of its tridiagonal
    # that the oracle may sample instead (steady.oracle_stacks).  The
    # route settles on m = 10 there, and N_z/m is inexact at 199 layers.
    geom, rates = _stack(n_layers=199, layer_spacing=layer_spacing)
    det = DetuningSpec(0.3)
    kernel = interaction_kernel(geom, rates, include_evanescent=include_evanescent)
    stacks = [(drift_matrix(kernel, rates, det), geom, rates)]
    if layer_spacing == round(layer_spacing):
        response = numeric_response(geom, rates, det, include_evanescent)
        stacks.append(response.stack)
        diag, off = response.lanczos
        m = 1
        while m < len(diag):
            stacks.append(equivalent_stack(diag[:m], off[: m - 1], geom, rates, det))
            m *= 2
    for drift, g, r in stacks:
        a = drift.matrix
        comm = noise_diffusions(SqueezedVacuumSpec(n_photons=1.0), g, r).comm
        # a + b is exactly 0 only where a == -b exactly.
        total = comm + (a + a.conj().T)
        assert np.abs(total.real).max() == 0.0
        assert np.abs(total.imag).max() == 0.0


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
