"""End-to-end reconstruction of a multi-jump function from Fourier data.

Each jump is detected coarsely, isolated with a smooth window, refined at
half order on consecutive indices, then solved at full order on the
decimated plan.  Polish sweeps repeat the full-order solves on peeled
data and keep the sweep whose estimates moved least.  The recovered
singular part is subtracted from the data to leave an estimate of the
smooth remainder's coefficients.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DetectionError, ModelError, NumericError
from .localize import _BUMP_MIN_M, _is_int, localize_jump, make_bump, prony_order0
from .model import AprioriBounds, JumpModel, phi_coeff_array, phi_eval
from .solver import SamplePlan, half_order_recover, recover_single_jump
from .spectrum import (
    FourierSpectrum,
    circular_distance,
    eval_partial_sum,
    uniform_grid,
    wrap_angle,
)

__all__ = [
    "ReconstructionConfig",
    "pipeline_geometry",
    "Approximant",
    "check_leading_floor",
    "full_reconstruct",
    "eval_approximant",
    "jump_free_error",
]

# fraction of the index range trusted after windowing; the top band
# carries convolution truncation error and is never sampled
_USABLE_FRACTION = 0.75

# polish stops once a sweep moves no estimate by more than this
_REFINE_TOL = 5e-14


def pipeline_geometry(M: int, d: int, J: float) -> tuple:
    """(M_eff, window half-width, window degree) of the pipeline.

    Single-jump solves sample indices up to M_eff only.  The window degree
    stays below the lowest decimated sample, so the window cannot fold
    low-index content onto it, and below M - M_eff, so the windowed
    coefficients are exact on every sampled index.
    """
    M_eff = max(int(_USABLE_FRACTION * M), d + 2)
    degree = max(1, min(M - M_eff, M_eff // (d + 2) - 2))
    return M_eff, min(0.9 * J, np.pi / 2.0), degree


def _prior_value(p) -> float:
    # float() would take True as 1.0 and "0.7" as 0.7
    if isinstance(p, (bool, np.bool_, str, bytes)):
        raise TypeError(f"got prior {p!r}")
    return float(p)


@dataclass(frozen=True)
class ReconstructionConfig:
    """Orders, counts and a-priori constants steering full_reconstruct.

    priors, when given, are K approximate jump locations in [-pi, pi) that
    replace detection; the half-order refinement still runs on them.
    """

    d: int
    K: int
    bounds: AprioriBounds
    priors: Optional[tuple] = None
    refine_sweeps: int = 10

    def __post_init__(self):
        for name in ("d", "K", "refine_sweeps"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ModelError(f"{name} must be an integer, got {name}={value!r}")
            object.__setattr__(self, name, int(value))
        if self.d < 0:
            raise ModelError(f"order must be >= 0, got {self.d}")
        if self.K < 1:
            raise ModelError(f"jump count must be >= 1, got {self.K}")
        # K disjoint separation-J arcs must fit on the circle
        if self.bounds.J > 2.0 * np.pi / self.K:
            raise ModelError(
                f"separation J={self.bounds.J:.6g} impossible for K={self.K} "
                f"jumps on the circle (needs J <= 2pi/K = {2.0 * np.pi / self.K:.6g})"
            )
        if self.priors is not None:
            try:
                pri = tuple(_prior_value(p) for p in self.priors)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ModelError(f"priors must be numbers: {exc}") from exc
            if len(pri) != self.K:
                raise ModelError(
                    f"got {len(pri)} priors for K={self.K} jumps"
                )
            if not all(math.isfinite(p) for p in pri):
                raise ModelError(f"priors must be finite, got {list(pri)}")
            for p in pri:
                if not -math.pi <= p < math.pi:
                    raise ModelError(f"prior {p!r} outside [-pi, pi)")
            object.__setattr__(self, "priors", pri)
        if self.refine_sweeps < 0:
            raise ModelError(
                f"refine sweep count must be >= 0, got {self.refine_sweeps}"
            )

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class Approximant:
    """Recovered jump model plus the corrected smooth-part spectrum."""

    estimate: JumpModel
    corrected_spectrum: FourierSpectrum
    source_M: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.corrected_spectrum.M != self.source_M:
            raise ModelError(
                f"corrected spectrum M={self.corrected_spectrum.M} must equal "
                f"source M={self.source_M}"
            )

    def to_json_dict(self) -> dict:
        return {
            "model": self.estimate.to_json_dict(),
            "smooth_spectrum": self.corrected_spectrum.to_json_dict(),
            "provenance": {"M": self.source_M, "config": dict(self.provenance)},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Approximant":
        try:
            model = JumpModel.from_json_dict(data["model"])
            spec = FourierSpectrum.from_json_dict(data["smooth_spectrum"])
            prov = data.get("provenance", {})
            M = int(prov.get("M", spec.M))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelError(f"malformed approximant record: {exc}") from exc
        return cls(model, spec, M, dict(prov.get("config", {})))


def _single_jump_coeffs(d: int, xi: float, mags: tuple, M: int) -> np.ndarray:
    """Coefficient array of one jump's singular part.

    Bypasses the multi-jump separation checks; polish iterates may pass
    through configurations a full JumpModel would reject.
    """
    return phi_coeff_array(JumpModel(d, ((float(xi), tuple(mags)),)), M)


def _approximant(spec: FourierSpectrum, d: int, estimates, provenance: dict):
    """The recovered jumps in location order, and spec minus their singular part.

    Real data keep the real part of each recovered magnitude.
    """
    jumps = tuple(
        (e.xi, tuple(m.real for m in e.magnitudes) if spec.real_valued else e.magnitudes)
        for e in sorted(estimates, key=lambda e: e.xi)
    )
    estimate = JumpModel(d, jumps)
    corrected = spec.coeffs - phi_coeff_array(estimate, spec.M)
    psi = FourierSpectrum(spec.M, corrected, real_valued=spec.real_valued)
    return Approximant(estimate, psi, spec.M, provenance=provenance)


def _cause(config: ReconstructionConfig) -> str:
    # the floor and separation checks fail alike for a wrong jump count
    # and for a supplied prior far from every jump
    cause = f"the data does not support K={config.K} jumps"
    if config.priors is not None:
        cause += " or the supplied priors are wrong"
    return cause


def check_leading_floor(estimates, config: ReconstructionConfig) -> None:
    """Raise ModelError when an estimate's |a_0| is below half the floor B.

    Admissible jumps carry |a_0| >= B; an estimate stuck below half that
    floor means the requested jump count, or a supplied prior, is wrong.
    Both precisions of recovery end with this check.
    """
    for est in estimates:
        if abs(est.magnitudes[0]) < config.bounds.B / 2.0:
            raise ModelError(
                f"recovered leading magnitude {abs(est.magnitudes[0]):.3e} at "
                f"{est.xi:.6g} falls below half the declared floor "
                f"B={config.bounds.B:.3g}; {_cause(config)}"
            )


def full_reconstruct(
    spec: FourierSpectrum, config: ReconstructionConfig
) -> Approximant:
    """Recover all jumps of the underlying function at full order.

    Supplied or detected priors always pass through the window +
    half-order refinement; the refined priors are what make the
    decimated root disambiguation safe.  After the
    first full-order pass, polish sweeps subtract every current jump
    estimate from the data, window only the peeled remainder, restore the
    jump's own coefficients and re-solve.  Window leakage then scales
    with the remaining estimation error rather than with the other jumps'
    full amplitude.  The sweeps need not contract: on noisy data the
    change often grows or stalls at rounding level.  The loop stops when
    a sweep moves no estimate by more than _REFINE_TOL, when the change
    grows on two sweeps in a row, or when refine_sweeps run out, and it
    keeps the sweep with the smallest change, not the last one.
    Windowed coefficients are formed only where the solves read them, at
    the SamplePlan indices: the decimated plan of order d plus the
    consecutive plan of order d//2 on the first pass, the decimated plan
    on polish sweeps.  Each is a (2D+1)-term dot product for a degree-D
    window, so what grows with M is the O(KM) peel and singular part.
    Spectra with M < 32, too short for the window, raise ModelError, and so
    do spectra with too few modes for the window shape of order d.
    """
    M = spec.M
    if M < _BUMP_MIN_M:
        raise ModelError(
            f"full reconstruction needs M >= {_BUMP_MIN_M}, got M={M}: the "
            f"window that isolates each jump is built from at least "
            f"{_BUMP_MIN_M} modes"
        )
    if config.priors is not None:
        priors = list(config.priors)
    else:
        try:
            priors = prony_order0(spec, config.K)
        except DetectionError as exc:
            raise ModelError(
                f"expected K={config.K} jumps but detection certified only "
                f"{exc.rank}"
            ) from exc
    # priors closer than half the declared separation cannot belong to
    # distinct admissible jumps; asking for too many jumps lands here
    for i in range(len(priors)):
        for j in range(i + 1, len(priors)):
            gap = circular_distance(priors[i], priors[j])
            if gap < config.bounds.J / 2.0:
                raise ModelError(
                    f"jump priors {priors[i]:.6g} and "
                    f"{priors[j]:.6g} sit {gap:.3g} apart, below half the "
                    f"declared separation J={config.bounds.J:.3g}; {_cause(config)}"
                )

    M_eff, width, degree = pipeline_geometry(M, config.d, config.bounds.J)
    try:
        windows = [make_bump(prior, width, M, degree) for prior in priors]
    except NumericError as exc:
        # the shape, and so its gate, depends only on (J, M, d)
        raise ModelError(
            f"M={M} is too few modes for order d={config.d} at separation "
            f"J={config.bounds.J:.3g}: {exc}"
        ) from exc

    def solve(data, prior):
        return recover_single_jump(
            data, config.d, prior, M=M_eff, weak_floor=config.bounds.B
        )

    decimated = SamplePlan("decimated", config.d, M_eff).indices
    first_pass = decimated + SamplePlan("consecutive", config.d // 2, M_eff).indices
    estimates = []
    for window in windows:
        f_j = localize_jump(spec, window, first_pass)
        estimates.append(solve(f_j, half_order_recover(f_j, config.d // 2, M_eff).xi))

    best = list(estimates)
    best_change = math.inf
    prev_change = math.inf
    grew = 0
    own = [_single_jump_coeffs(config.d, e.xi, e.magnitudes, M) for e in estimates]
    for _ in range(config.refine_sweeps):
        change = 0.0
        for j, window in enumerate(windows):
            peeled = spec.coeffs - np.sum(own, axis=0)
            windowed = localize_jump(FourierSpectrum(M, peeled), window, decimated)
            data = FourierSpectrum(
                M, windowed.coeffs + own[j], real_valued=False
            )
            est = solve(data, estimates[j].xi)
            prev = estimates[j]
            moved = abs(est.xi - prev.xi) + float(
                sum(abs(a - b) for a, b in zip(est.magnitudes, prev.magnitudes))
            )
            change = max(change, moved)
            estimates[j] = est
            own[j] = _single_jump_coeffs(config.d, est.xi, est.magnitudes, M)
        if change < best_change:
            best_change = change
            best = list(estimates)
        if change < _REFINE_TOL:
            break
        if change > prev_change:
            grew += 1
            if grew >= 2:
                break
        else:
            grew = 0
        prev_change = change
    check_leading_floor(best, config)
    return _approximant(spec, config.d, best, config.to_json_dict())


def eval_approximant(appr: Approximant, x, side: Optional[str] = None):
    """Evaluate the reconstruction: smooth partial sum plus singular part.

    Points at a recovered jump need a side flag, as in phi_eval.
    """
    smooth = eval_partial_sum(appr.corrected_spectrum, x)
    singular = phi_eval(appr.estimate, x, side=side)
    return smooth + singular


def jump_free_error(
    appr: Approximant,
    truth: Callable[[np.ndarray], np.ndarray],
    radius: float,
    grid: int = 2048,
    true_jumps: Optional[tuple] = None,
) -> float:
    """Sup error against truth on uniform_grid(grid) away from the jumps.

    Excludes radius-neighborhoods (circular) of the recovered jumps and
    of any supplied true jump locations.  The smooth part is summed once on
    the whole grid, which eval_partial_sum does by one FFT; the singular
    part and truth are evaluated on the kept points only, so no grid point
    at a recovered jump reaches phi_eval.
    """
    if radius <= 0:
        raise ModelError(f"exclusion radius must be positive, got {radius}")
    if grid < 1:
        raise ModelError(f"grid must have at least one point, got {grid}")
    xs = uniform_grid(grid)
    keep = np.ones(grid, dtype=bool)
    excl = list(appr.estimate.locations)
    if true_jumps is not None:
        excl.extend(float(t) for t in true_jumps)
    for xi in excl:
        dist = np.abs(wrap_angle(xs - xi))
        keep &= dist > radius
    if not np.any(keep):
        raise ModelError(
            f"no grid points remain after excluding radius {radius} "
            f"around {len(excl)} jumps"
        )
    smooth = eval_partial_sum(appr.corrected_spectrum, xs)[keep]
    approx = smooth + phi_eval(appr.estimate, xs[keep])
    exact = np.asarray(truth(xs[keep]))
    return float(np.max(np.abs(approx - exact)))
