"""Inter-layer coupling kernel, drift assembly, and the collective shift."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsqueeze import layers
from spinsqueeze import (
    ArrayGeometry,
    BeamProfile,
    DetuningSpec,
    build_config,
    compute_rates,
    delta_prime,
    drift_matrix,
    evanescent_band,
    evanescent_range,
    interaction_kernel,
    run_sweep,
    single_layer_rate,
    waist_for_overlap,
)
from spinsqueeze.exceptions import ConvergenceError, DomainError, StabilityError
from spinsqueeze.geometry import TWO_PI
from spinsqueeze.sweep import figure_config, preset_fig3b, preset_fig4


def stack(lattice_const=0.68, n_layers=10, layer_spacing=1.0, eta=0.99,
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


def eps_at(geom, sep):
    return evanescent_band(geom)[0][sep]


def lattice_band(geom, tol, max_order):
    """The band of ``geom`` at floor ``tol`` and shell cap ``max_order``,
    which evanescent_band fixes to DEFAULT_EPS_TOL and DEFAULT_MAX_ORDER."""
    lattice = geom.lattice_const, geom.layer_spacing
    return layers._lattice_band(*lattice, tol, max_order)


def brute_force_eps(geom, seps, dipole=(1.0, 0.0), half_width=60):
    """eps(s) for each s in ``seps`` as a direct lattice sum, for the
    in-plane unit dipole ``dipole``.

    Every nonzero order of a subwavelength lattice is evanescent, so the
    sum runs over all integer pairs in a window wide enough that the
    exponential has long since cut it off, each sum exactly rounded.
    """
    a = geom.lattice_const
    gamma0 = 3.0 / (4.0 * math.pi * a * a)
    m = np.arange(-half_width, half_width + 1)
    mx, my = (grid.ravel() for grid in np.meshgrid(m, m))
    nonzero = (mx != 0) | (my != 0)
    mx, my = mx[nonzero], my[nonzero]
    kappa = np.sqrt((mx * mx + my * my) / (a * a) - 1.0)
    dx, dy = dipole
    weight = ((mx * dx + my * dy) ** 2 / (a * a) - 1.0) / kappa
    return np.array([
        0.25 * gamma0
        * math.fsum(weight * np.exp(-TWO_PI * geom.layer_spacing * sep * kappa))
        for sep in seps
    ])


def reference_eps(geom, n_seps, dipole=(1.0, 0.0)):
    """Brute-force eps(s) for s = 0 ... n_seps - 1, with eps(0) = 0."""
    return np.concatenate(([0.0], brute_force_eps(geom, range(1, n_seps), dipole)))


def assert_band_within_bound(geom, tol=1e-14, max_order=200, past=4, held=1.0,
                             dipole=(1.0, 0.0)):
    # Every entry the band holds, and every one past it (read as 0), is
    # within tol |eps(1)| of the lattice sum for ``dipole``; the held ones
    # within ``held`` times that.
    band, _ = lattice_band(geom, tol, max_order)
    reference = reference_eps(geom, len(band) + past, dipole)
    floor = tol * abs(reference[1])
    assert np.max(np.abs(band - reference[: len(band)])) <= held * floor
    assert np.max(np.abs(reference[len(band):])) <= floor


@pytest.mark.parametrize("lattice_const", [0.68, 0.95])
@pytest.mark.parametrize("sep", [1, 2, 3])
def test_evanescent_eps_against_brute_force(lattice_const, sep):
    # abs=0 throughout: eps is far below pytest's default abs of 1e-12.
    geom, _ = stack(lattice_const=lattice_const)
    expected = brute_force_eps(geom, [sep])[0]
    assert eps_at(geom, sep) == pytest.approx(
        expected, rel=1e-12, abs=0.0
    )


def test_evanescent_eps_frozen_values():
    geom, _ = stack(lattice_const=0.68)
    assert eps_at(geom, 1) == pytest.approx(
        4.7969711046673066e-05, rel=1e-11, abs=0.0
    )
    assert eps_at(geom, 2) == pytest.approx(
        5.0825893601939931e-08, rel=1e-11, abs=0.0
    )
    geom, _ = stack(lattice_const=0.95)
    assert eps_at(geom, 1) == pytest.approx(
        -4.548237718991e-02, rel=1e-10, abs=0.0
    )
    assert eps_at(geom, 2) == pytest.approx(
        -5.770414316458e-03, rel=1e-10, abs=0.0
    )


def test_evanescent_eps_dipole_orientation_drops_out():
    # Square-lattice shells are 4-fold symmetric, so the projected sum
    # cannot depend on where the in-plane dipole points: the band, which
    # takes no dipole, is the lattice sum for every orientation.
    geom, _ = stack(lattice_const=0.8)
    for dipole in [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8)]:
        expected = brute_force_eps(geom, [1], dipole)[0]
        assert eps_at(geom, 1) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_band_past_the_float_range_is_zero():
    # At a = 1e-154, s / a^2 overflows in every shell past the first:
    # the band comes out 0, without a RuntimeWarning.
    band, truncation = layers._lattice_band(1e-154, 1.0, 1e-14, 200)
    assert band.tolist() == [0.0, 0.0]
    assert truncation == layers.TruncationInfo(max_order=1, terms_summed=4)


def test_evanescent_eps_decay_rate():
    # Magnitudes fall monotonically and the separation ratio settles on
    # the decay factor of the slowest shell once the faster ones die out.
    geom, _ = stack(lattice_const=0.9)
    values = [eps_at(geom, sep) for sep in (1, 2, 3, 4)]
    magnitudes = [abs(v) for v in values]
    assert magnitudes == sorted(magnitudes, reverse=True)
    kappa_min = math.sqrt(1.0 / 0.81 - 1.0)
    settled = math.exp(-TWO_PI * geom.layer_spacing * kappa_min)
    assert values[3] / values[2] == pytest.approx(settled, rel=1e-4)


def test_evanescent_eps_error_paths():
    geom, _ = stack()
    with pytest.raises(ConvergenceError, match="evanescent sum for separation 1 "):
        lattice_band(geom, layers.DEFAULT_EPS_TOL, 2)


def test_evanescent_range_formula():
    geom, _ = stack(lattice_const=0.68)
    assert evanescent_range(geom) == pytest.approx(
        0.68 / (2.0 * math.pi * math.sqrt(1.0 - 0.68**2)), rel=1e-14
    )
    assert evanescent_range(geom) == pytest.approx(0.14760443758410707, rel=1e-12)
    geom, _ = stack(lattice_const=0.95)
    assert evanescent_range(geom) == pytest.approx(0.48421855691891913, rel=1e-12)


@pytest.mark.parametrize("layer_spacing", [0.5, 0.75, 1.3, 1.0, 2.0, 3.0])
def test_layer_phases_are_the_travelling_wave_without_drift(layer_spacing):
    # exp(2 pi i spacing n) drifts off the exact phase linearly in n, by
    # up to 1.4e-12 at 2,000 layers and spacing 1.
    geom, _ = stack(n_layers=10_000, layer_spacing=layer_spacing)
    phases = geom.layer_phases()
    direct = np.exp(1j * TWO_PI * geom.layer_spacing * np.arange(50))
    assert np.allclose(phases[:50], direct, rtol=0.0, atol=1e-13)
    if layer_spacing == round(layer_spacing):
        assert np.array_equal(phases, np.ones(10_000))


def test_interaction_kernel_structure():
    geom, rates = stack(n_layers=6)
    kernel = interaction_kernel(geom, rates)
    d = kernel.d_matrix
    assert d.shape == (6, 6)
    assert np.allclose(np.diag(d), 0.0)
    # Complex symmetric Toeplitz: equal entries along every diagonal.
    assert np.allclose(d, d.T)
    for sep in range(1, 6):
        diag = np.diagonal(d, offset=sep)
        assert np.allclose(diag, diag[0])
        expected = 0.5 * rates.gamma0 * np.exp(
            1j * TWO_PI * geom.layer_spacing * sep
        ) + 1j * eps_at(geom, sep)
        assert diag[0] == pytest.approx(expected, rel=1e-12)
    assert kernel.truncation.max_order >= 1


def test_interaction_kernel_without_evanescent_part():
    geom, rates = stack(n_layers=4)
    kernel = interaction_kernel(geom, rates, include_evanescent=False)
    assert kernel.truncation.terms_summed == 0
    assert kernel.d_matrix[0, 1] == pytest.approx(
        0.5 * rates.gamma0 * np.exp(1j * TWO_PI * geom.layer_spacing), rel=1e-14
    )


def test_truncation_tolerance_is_honored():
    geom, _ = stack()
    loose = lattice_band(geom, 1e-6, layers.DEFAULT_MAX_ORDER)[0][1]
    tight = eps_at(geom, 1)
    assert loose == pytest.approx(tight, rel=1e-5, abs=0.0)


@pytest.mark.parametrize(
    "lattice_const, max_shell, terms", [(0.68, 20, 340), (0.95, 29, 1536)]
)
def test_truncation_info_frozen_values(lattice_const, max_shell, terms):
    # Last shell |m_perp|^2 kept, and the lattice orders summed over the
    # band's separations: 5 at a = 0.68 and 16 at a = 0.95.
    geom, _ = stack(lattice_const=lattice_const)
    _, truncation = evanescent_band(geom)
    assert truncation == layers.TruncationInfo(max_order=max_shell, terms_summed=terms)


def test_drift_matrix_entries_and_stability():
    geom, rates = stack(n_layers=5)
    det = DetuningSpec(eff_detuning=0.4)
    kernel = interaction_kernel(geom, rates)
    drift = drift_matrix(kernel, rates, det)
    a = drift.matrix
    expected_diag = 1j * 0.4 - 0.5 * (rates.gamma_s + rates.gamma0)
    assert np.allclose(np.diag(a), expected_diag)
    off = a - np.diag(np.diag(a))
    assert np.allclose(off, -(kernel.d_matrix))
    assert drift.abscissa < 0.0


def test_drift_matrix_carries_its_schur_form():
    geom, rates = stack(lattice_const=0.9, n_layers=7, layer_spacing=0.8)
    kernel = interaction_kernel(geom, rates)
    drift = drift_matrix(kernel, rates, DetuningSpec(eff_detuning=0.3))
    t, q = drift.schur_t, drift.schur_q
    assert np.array_equal(t, np.triu(t))
    assert np.allclose(q.conj().T @ q, np.eye(7), atol=1e-13)
    assert np.allclose(q @ t @ q.conj().T, drift.matrix, atol=1e-13)
    assert np.allclose(
        np.sort_complex(np.diag(t)),
        np.sort_complex(np.linalg.eigvals(drift.matrix)),
        atol=1e-12,
    )
    assert drift.abscissa == np.diag(t).real.max()
    assert not t.flags.writeable and not q.flags.writeable


def test_drift_matrix_flags_marginal_modes():
    # With no free-space leak and perfect phase matching the dark modes
    # sit exactly on the imaginary axis; that configuration cannot be
    # integrated to a steady state and must be refused.
    geom, rates = stack(n_layers=3, gamma_s_frac=0.0)
    kernel = interaction_kernel(geom, rates, include_evanescent=False)
    with pytest.raises(StabilityError):
        drift_matrix(kernel, rates, DetuningSpec())


def test_delta_prime_frozen_values():
    geom, rates = stack(lattice_const=0.68)
    shift = delta_prime(geom)
    assert shift / rates.gamma0 == pytest.approx(1.6739993426e-4, rel=1e-9, abs=0.0)
    assert shift > 0.0

    geom, rates = stack(lattice_const=0.95)
    shift = delta_prime(geom)
    assert shift / rates.gamma0 == pytest.approx(-0.34873912038744403, rel=1e-10)
    assert shift == pytest.approx(-0.0922496756662409, rel=1e-10)


def test_delta_prime_single_layer_is_zero():
    geom, _ = stack(n_layers=1)
    assert delta_prime(geom) == 0.0


def test_delta_prime_matches_direct_projection():
    # The plain double sum over layer pairs, also on a deep stack at the
    # strongly coupled lattice constant of fig4; its imaginary part
    # cancels, which the cosine series in delta_prime relies on.
    for lattice_const, n_layers in ((0.9, 7), (0.95, 60)):
        geom, _ = stack(lattice_const=lattice_const, n_layers=n_layers)
        n_z = geom.n_layers
        phase = TWO_PI * geom.layer_spacing
        eps = reference_eps(geom, n_z)
        total = 0.0j
        for n in range(n_z):
            for m in range(n_z):
                if n == m:
                    continue
                total += eps[abs(n - m)] * np.exp(1j * phase * (n - m))
        assert abs(total.imag) < 1e-12 * abs(total.real)
        expected = total.real / n_z
        assert delta_prime(geom) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lattice_const", [0.68, 0.72, 0.95])
@pytest.mark.parametrize("layer_spacing", [0.5, 1.0, 2.0])
def test_kernel_band_matches_per_separation_sums(lattice_const, layer_spacing):
    # Inside the band and past it, where the kernel is radiative only,
    # every evanescent entry is within tol |eps(1)| of the lattice sum,
    # at any depth.
    tol = 1e-14
    geom, _ = stack(lattice_const=lattice_const, n_layers=100,
                    layer_spacing=layer_spacing)
    reference = reference_eps(geom, 100)
    band, _ = evanescent_band(geom)
    assert 2 < len(band) < 100
    floor = tol * abs(reference[1])
    assert np.max(np.abs(band - reference[: len(band)])) <= floor
    assert np.all(np.abs(reference[len(band):]) <= floor)
    for n_z in (2, 3, 17, 100):
        geom_nz, rates = stack(lattice_const=lattice_const, n_layers=n_z,
                               layer_spacing=layer_spacing)
        evanescent = (
            interaction_kernel(geom_nz, rates).d_matrix
            - interaction_kernel(geom_nz, rates, include_evanescent=False).d_matrix
        )
        idx = np.arange(n_z)
        expected = 1j * reference[np.abs(idx[:, None] - idx[None, :])]
        assert np.max(np.abs(evanescent - expected)) <= floor


def test_band_runs_past_a_zero_of_eps():
    # Just above a = 1/sqrt(2) the first two shells have opposite signs.
    # At this lattice constant (the root of the brute-force eps(2) at
    # spacing 0.5) eps(2) vanishes while eps(3) does not: a stop on the
    # value would end the band at s = 2, the bound on the remaining
    # shells does not.
    geom, _ = stack(lattice_const=0.7091684019476292, n_layers=40,
                    layer_spacing=0.5)
    reference = reference_eps(geom, 40)
    floor = 1e-14 * abs(reference[1])
    assert abs(reference[2]) < floor < abs(reference[3])
    band, _ = evanescent_band(geom)
    assert len(band) > 3
    assert np.max(np.abs(band - reference[: len(band)])) <= floor
    assert np.all(np.abs(reference[len(band):]) <= floor)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    lattice_const=st.floats(0.3, 0.97),
    layer_spacing=st.floats(0.4, 2.5),
    angle=st.floats(0.0, 2.0 * math.pi),
)
def test_band_within_tol_of_brute_force(lattice_const, layer_spacing, angle):
    geom, _ = stack(lattice_const=lattice_const, layer_spacing=layer_spacing)
    assert_band_within_bound(geom, dipole=(math.cos(angle), math.sin(angle)))


@pytest.mark.parametrize("lattice_const, layer_spacing, angle", [
    (0.6011, 0.9642, 1.318),
    (0.68, 0.5, 0.0),
    (0.72, 1.0, 0.0),
    (0.7199, 1.0322, 3.187),
])
def test_band_leaves_half_the_floor_for_rounding(lattice_const, layer_spacing, angle):
    # Shells are cut at half the floor, so a held entry misses the lattice
    # sum by at most that plus the rounding of the kept product (measured:
    # up to 0.51 of the floor; 1.14 at a = 0.7199 with a cut at the whole
    # floor).  Past the band, eps(w + 1) is bounded by B(w + 1) itself and
    # comes to 0.9956 of the floor at a = 0.6011.
    geom, _ = stack(lattice_const=lattice_const, layer_spacing=layer_spacing)
    assert_band_within_bound(geom, held=0.6,
                             dipole=(math.cos(angle), math.sin(angle)))


def test_order_cap_refuses_an_unconverged_sum():
    # At a short spacing the shells decay slowly: the sum needs shells
    # up to |m|^2 = 244, past the default cap of 200.
    geom, _ = stack(lattice_const=0.5, layer_spacing=0.2)
    with pytest.raises(ConvergenceError, match="after shells up to \\|m\\|\\^2 = 200"):
        evanescent_band(geom)
    assert_band_within_bound(geom, max_order=400)


def test_evanescent_series_is_summed_once_per_separation():
    # One band per lattice, not one per depth: fig3b's hundred depths
    # share one a = 0.68 band, fig4 reads the a = 0.95 band for delta'
    # and for both kernels, and a delta-prime-corrected sweep for delta'
    # and its kernel.
    config = build_config({
        "geometry.n_layers": "10",
        "detuning.mode": "delta-prime-corrected",
        "model": "numeric",
    })
    runs = (
        lambda: preset_fig3b(figure_config("fig3b"))[0],
        lambda: preset_fig4(figure_config("fig4"))[0],
        lambda: run_sweep(config),
    )
    for run in runs:
        layers._lattice_band.cache_clear()
        rows = run()
        assert [row["error"] for row in rows] == [""] * len(rows)
        assert layers._lattice_band.cache_info().misses == 1


def test_evanescent_series_is_read_only():
    # The memoised band is shared by every caller and every depth.
    shallow, _ = stack(n_layers=2)
    eps, truncation = evanescent_band(shallow)
    layers._lattice_band.cache_clear()
    deep_eps, deep_truncation = evanescent_band(
        ArrayGeometry(n_side=17, lattice_const=0.68, n_layers=100)
    )
    assert np.array_equal(eps, deep_eps) and truncation == deep_truncation
    assert evanescent_band(shallow)[0] is deep_eps
    assert eps[0] == 0.0
    assert truncation.terms_summed > 0
    with pytest.raises(ValueError):
        eps[1] = 0.0


def test_lattice_const_domain():
    with pytest.raises(DomainError, match="below one wavelength"):
        ArrayGeometry(n_side=10, lattice_const=1.2, n_layers=2)
