"""Closed-form squeezing predictions for the layered array.

The phase-matched stack acts on the paraxial drive as a beam splitter
with power reflectivity r0: a fraction r0 of the input squeezed-vacuum
correlations is written onto the collective spin, the rest is replaced
by vacuum.  Each prediction here is one call of
:func:`squeezed_input.beam_splitter` with its own reflectivity and
squeezing contrast: the detuned response (:func:`squeezing_contrast`),
the cascaded three-level variant, and readout mode mismatch.  The
optimal photon number follows from the same law in closed form.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .geometry import ArrayGeometry, BeamProfile
from .rates import RateSet, compute_rates
from .squeezed_input import SqueezedVacuumSpec, SqueezingResult, beam_splitter


@dataclass(frozen=True)
class DetuningSpec:
    """Effective detuning of the drive from the shifted array resonance.

    Only the difference between the drive detuning and the collective
    shift is physical, so a single number carries both.
    """

    eff_detuning: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.eff_detuning):
            raise DomainError(f"eff_detuning must be finite, got {self.eff_detuning}")


@dataclass(frozen=True)
class ThreeLevelSpec:
    """Raman coupling of the long-lived spin level.

    ``rabi`` is the classical control field Rabi frequency (complex in
    general), ``two_photon_detuning`` the offset of the two-photon
    resonance, and ``gamma_se`` the spontaneous decay from the excited
    state into the spin level, which adds to the loss budget.
    """

    rabi: complex
    two_photon_detuning: float = 0.0
    gamma_se: float = 0.0

    def __post_init__(self) -> None:
        if self.gamma_se < 0.0:
            raise DomainError(f"gamma_se must be non-negative, got {self.gamma_se}")


def reflectivity_complex(rates: RateSet, det: DetuningSpec) -> complex:
    """Complex amplitude reflectivity of the stack at a given detuning.

    Lorentzian response r = r0 / (1 + 2i (delta - Delta) r0 / Gamma),
    normalised so that resonance returns the real power reflectivity.
    """
    if rates.gamma_coll <= 0.0:
        raise DomainError("reflectivity requires a positive collective rate")
    return rates.r0 / (1.0 + 2.0j * det.eff_detuning * rates.r0 / rates.gamma_coll)


def squeezing_contrast(
    rates: RateSet,
    spec: SqueezedVacuumSpec,
    det: DetuningSpec,
) -> float:
    """Squeezing contrast purity |r| / r0: 1 for a pure source on resonance."""
    alpha = spec.purity * abs(reflectivity_complex(rates, det)) / rates.r0
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"effective squeezing efficiency {alpha} outside [0, 1]")
    return alpha


def xi2_analytic(
    rates: RateSet,
    spec: SqueezedVacuumSpec,
    det: DetuningSpec = DetuningSpec(),
) -> SqueezingResult:
    """Beam-splitter prediction for the collective spin squeezing.

    xi2 = 1 + 2 r0 (N - alpha_eff sqrt(N(N+1))) with alpha_eff the
    product of source purity and the detuning-reduced reflectivity
    contrast |r|/r0, so an imperfect source enters through its purity.
    The optimal quadrature sits at theta = 0 by the phase convention of
    the input (anomalous moment taken real positive).
    """
    alpha = squeezing_contrast(rates, spec, det)
    return beam_splitter(rates.r0, spec.n_photons, alpha)


def xi2_min(rates: RateSet, alpha_eff: float) -> tuple[float, float]:
    """Minimum of the beam-splitter curve over photon number.

    Returns ``(xi2_min, n_photons_opt)``.  For a perfect source the
    minimum is only reached asymptotically, so ``alpha_eff = 1`` yields
    ``n_photons_opt = inf`` and the floor ``1 - r0``.
    """
    if not 0.0 <= alpha_eff <= 1.0:
        raise DomainError(f"alpha_eff must lie in [0, 1], got {alpha_eff}")
    if alpha_eff == 1.0:
        return 1.0 - rates.r0, math.inf
    s = math.sqrt((1.0 - alpha_eff) * (1.0 + alpha_eff))
    value = 1.0 - rates.r0 + rates.r0 * s
    n_opt = 0.5 * (1.0 / s - 1.0)
    return value, n_opt


def xi2_min_vs_layers(
    geom: ArrayGeometry,
    beam: BeamProfile,
    gamma_s: float,
    alpha_eff: float,
    n_layers_list: list[int],
) -> list[dict[str, float]]:
    """Optimal squeezing as a function of stack depth.

    For each layer count the rate set is rebuilt from the same layer
    geometry and beam, and the closed-form optimum is evaluated.  Two
    asymptote columns accompany the exact value: the loss-dominated
    small-stack behaviour (gamma_s / gamma0) / n_layers and the
    leakage-dominated deep-stack floor 1 - eta.
    """
    rows: list[dict[str, float]] = []
    for n_z in n_layers_list:
        g = dataclasses.replace(geom, n_layers=int(n_z))
        rates = compute_rates(g, beam, gamma_s)
        value, n_opt = xi2_min(rates, alpha_eff)
        rows.append(
            {
                "n_layers": float(n_z),
                "eta": rates.eta,
                "r0": rates.r0,
                "xi2_min": value,
                "n_photons_opt": n_opt,
                "asym_small_nz": gamma_s / rates.gamma0 / n_z,
                "asym_large_nz": 1.0 - rates.eta,
            }
        )
    return rows


def three_level_effective(
    rates: RateSet,
    det: DetuningSpec,
    tls: ThreeLevelSpec,
) -> dict[str, float]:
    """Effective spin-level rates after eliminating the excited state.

    The control field dresses the fast two-level dynamics into slow
    dynamics of the spin level, scaled by the elimination weight
    rho = |Omega|^2 / (((gamma_loss + Gamma)/2)^2 + (delta - Delta)^2).
    ``gamma_se`` is added to the loss rate before anything else because
    the extra decay path exists regardless of the control field.
    """
    gamma_loss = rates.gamma_loss + tls.gamma_se
    half_width = 0.5 * (gamma_loss + rates.gamma_coll)
    denom = half_width * half_width + det.eff_detuning * det.eff_detuning
    if denom == 0.0:
        raise DomainError(
            "three-level elimination undefined: zero linewidth exactly on "
            "resonance"
        )
    rho = abs(tls.rabi) ** 2 / denom
    return {
        "rho": rho,
        "gamma_S": rho * rates.gamma_coll,
        "gamma_S_loss": rho * gamma_loss,
        "delta_S": rho * det.eff_detuning,
        "gamma_loss_aug": gamma_loss,
    }


def xi2_three_level(
    rates: RateSet,
    spec: SqueezedVacuumSpec,
    det: DetuningSpec,
    tls: ThreeLevelSpec,
) -> SqueezingResult:
    """Squeezing of the long-lived spin level under Raman transfer.

    On two-photon resonance this reproduces the two-level result with
    the loss budget augmented by gamma_se.  Away from it the anomalous
    correlations pick up the complex factor
    1 / (1 - i delta2 / (Gamma_S/2 + gamma_S_loss/2 + i Delta_S)),
    whose modulus degrades the transfer and whose phase rotates the
    optimal quadrature to theta = -arg(factor)/2.
    """
    eff = three_level_effective(rates, det, tls)
    gamma_loss = eff["gamma_loss_aug"]
    r0 = rates.gamma_coll / (rates.gamma_coll + gamma_loss)
    aug = dataclasses.replace(rates, gamma_loss=gamma_loss, r0=r0)

    if tls.rabi == 0:
        # The spin level never couples to the field; it stays coherent.
        return beam_splitter(0.0, spec.n_photons, 0.0)

    alpha = squeezing_contrast(aug, spec, det)
    pole = 0.5 * eff["gamma_S"] + 0.5 * eff["gamma_S_loss"] + 1j * eff["delta_S"]
    factor = 1.0 / (1.0 - 1j * tls.two_photon_detuning / pole)
    return beam_splitter(
        r0, spec.n_photons, alpha * abs(factor), -0.5 * cmath.phase(factor)
    )


def overlap_chi(
    readout: BeamProfile,
    drive: BeamProfile,
    geom: ArrayGeometry,
) -> float:
    """Mode overlap between the readout beam and the imprinted pattern.

    The numerator is the continuum overlap of the two normalised
    Gaussian profiles, for which the closed form

        2 w_f w_u / (w_f^2 + w_u^2) * exp(-d^2 / (w_f^2 + w_u^2))

    holds with d the lateral offset between the beam axes.  Both
    denominators are the actual discrete lattice sums, so the ratio
    measures what a readout of the finite array can resolve.
    """
    wf, wu = readout.waist, drive.waist
    dx = readout.center[0] - drive.center[0]
    dy = readout.center[1] - drive.center[1]
    d2 = dx * dx + dy * dy
    wsum = wf * wf + wu * wu
    numerator = 2.0 * wf * wu / wsum * math.exp(-d2 / wsum) / geom.lattice_const

    coords = geom.layer_coordinates()
    u = drive.amplitude(coords[:, 0], coords[:, 1])
    f = readout.amplitude(coords[:, 0], coords[:, 1])
    denom2 = (geom.lattice_const ** 2 * float(np.sum(u * u))) * float(np.sum(f * f))
    if denom2 <= 0.0:
        raise DomainError("overlap denominator vanished; beams miss the array")
    return numerator / math.sqrt(denom2)


def xi2_mismatch(
    rates: RateSet,
    spec: SqueezedVacuumSpec,
    det: DetuningSpec,
    chi: float,
) -> SqueezingResult:
    """Beam-splitter prediction read out through a mismatched mode.

    Mode mismatch reduces the usable reflectivity from r0 to r0 chi^2
    in both quadratures and leaves everything else unchanged.
    """
    if not 0.0 <= chi <= 1.0:
        raise DomainError(f"chi must lie in [0, 1], got {chi}")
    alpha = squeezing_contrast(rates, spec, det)
    return beam_splitter(rates.r0 * chi * chi, spec.n_photons, alpha)
