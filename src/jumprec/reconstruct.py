"""End-to-end reconstruction of a multi-jump function from Fourier data.

Each jump is detected coarsely, isolated with a smooth window, refined at
half order on consecutive indices, then solved at full order on the
decimated plan.  Polish sweeps repeat the full-order solves on peeled
data while each moves the estimates less than the last, and stop once
one moves them less than the data's own error scale.  The recovered
singular part is subtracted from the data to leave an estimate of the
smooth remainder's coefficients.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DetectionError, ModelError, NumericError, read_int, read_real, read_reals
from .localize import _BUMP_MIN_M, _separation_degree, localize_jump, make_bump, prony_order0
from .model import (
    AprioriBounds,
    JumpModel,
    _phase_index,
    _phi_halves,
    phi_coeff_array,
    phi_eval,
    phi_factors,
)
from .solver import half_order_recover, recover_single_jump
from .spectrum import (
    FourierSpectrum,
    SamplePlan,
    circular_distance,
    eval_partial_sum,
    modulus,
    uniform_grid,
    weight_moments,
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

# fraction of the index range the single-jump solves sample.  It is not a
# truncation limit: a degree-D window's product is exact at every
# k <= M - D, and pipeline_geometry caps D at 80 (J = pi/2) to 211
# (J = 0.6), far below the M/4 indices above M_eff that go unsampled
_USABLE_FRACTION = 0.75

# polish stops once a sweep moves no estimate by more than this, each
# change measured as |dxi| + sum_l |da_l| / M^l (_moved)
_REFINE_TOL = 5e-14


def pipeline_geometry(M: int, d: int, J: float) -> tuple:
    """(M_eff, window half-width, window degree) of the pipeline.

    Single-jump solves sample indices up to M_eff only.  The window degree
    stays below the lowest sample of the decimated plan over M_eff (its
    stride), so the window cannot fold low-index content onto it, and
    below M - M_eff, so the windowed coefficients are exact on every
    sampled index.  It is also capped at the separation degree of the
    window's half-width (localize's, the least D whose Kaiser taper
    reaches beta = 38): 80 at J = pi/2, 211 at J = 0.6.  The cap depends
    on J alone and never raises the degree; from the M where it binds
    on, the degree stops growing.  M and d are integers and J a positive
    real, else ModelError.
    """
    M, d, J = read_int(M, "M"), read_int(d, "d"), read_real(J, "J")
    if J <= 0.0:
        raise ModelError(f"separation J must be > 0, got J={J!r}")
    M_eff = max(int(_USABLE_FRACTION * M), d + 2)
    width = min(0.9 * J, np.pi / 2.0)
    lowest = SamplePlan("decimated", d, M_eff).stride
    degree = max(1, min(M - M_eff, lowest - 2, _separation_degree(width)))
    return M_eff, width, degree


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
        if not isinstance(self.bounds, AprioriBounds):
            raise ModelError(f"bounds must be an AprioriBounds, got {self.bounds!r}")
        for name in ("d", "K", "refine_sweeps"):
            object.__setattr__(self, name, read_int(getattr(self, name), name))
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
            pri = read_reals(self.priors, "priors")
            if len(pri) != self.K:
                raise ModelError(
                    f"got {len(pri)} priors for K={self.K} jumps"
                )
            for p in pri:
                if not -math.pi <= p < math.pi:
                    raise ModelError(f"prior {p!r} outside [-pi, pi)")
            object.__setattr__(self, "priors", tuple(pri))
        if self.refine_sweeps < 0:
            raise ModelError(
                f"refine sweep count must be >= 0, got {self.refine_sweeps}"
            )

    def to_json_dict(self) -> dict:
        b = self.bounds
        return {
            "d": self.d,
            "K": self.K,
            "bounds": {"J": b.J, "A": b.A, "B": b.B, "R": b.R},
            "priors": self.priors,
            "refine_sweeps": self.refine_sweeps,
        }


@dataclass(frozen=True)
class Approximant:
    """Recovered jump model plus the corrected smooth-part spectrum.

    provenance is the configuration of the run that recovered it.
    """

    estimate: JumpModel
    corrected_spectrum: FourierSpectrum
    provenance: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "model": self.estimate.to_json_dict(),
            "smooth_spectrum": self.corrected_spectrum.to_json_dict(),
            "provenance": {"config": dict(self.provenance)},
        }

    def to_json_text(self) -> str:
        """The bytes json.dumps writes for to_json_dict(), the corrected
        spectrum's text from FourierSpectrum.to_json_text."""
        return (
            f'{{"model": {json.dumps(self.estimate.to_json_dict())}, '
            f'"smooth_spectrum": {self.corrected_spectrum.to_json_text()}, '
            f'"provenance": {json.dumps({"config": dict(self.provenance)})}}}'
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "Approximant":
        """The approximant of a record {"model", "smooth_spectrum", "provenance"}.

        Provenance keys other than "config" are ignored; a malformed record
        is a ModelError.
        """
        try:
            model = JumpModel.from_json_dict(data["model"])
            spec = FourierSpectrum.from_json_dict(data["smooth_spectrum"])
            config = data.get("provenance", {}).get("config", {})
            if not isinstance(config, dict):
                raise ModelError(
                    f"provenance config must be a JSON object, got config={config!r}"
                )
        except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
            raise ModelError(f"malformed approximant record: {exc}") from exc
        return cls(model, spec, dict(config))


class _BandPeel:
    """Polish samples built on the indices the decimated windowing reads.

    Windowing at an index k with a degree-D window reads the data on
    k - D .. k + D only, so each jump's own singular part is kept on the
    union of those d+2 intervals around the plan's indices (disjoint once
    the stride N exceeds 2D), and the powers (ik)^{-(l+1)} and the phase
    kernel's index (model._phase_index) are built for it.  The union holds
    k >= 1 only: pipeline_geometry keeps the window degree below the
    lowest decimated index.  The windows share one degree D, and every one
    of a make_bump window's 2D+1 taps is nonzero, so one gather serves them
    all and reads the terms in product_spectrum's order: a solve's windowed
    values equal product_spectrum's on the fully peeled spectrum bit for
    bit.  The union, its powers, its phase index and the gather depend on
    the plan and D only, not on the data or the windows' centres: they are
    built once per shape and kept, read-only.
    """

    def __init__(self, spec: FourierSpectrum, plan: SamplePlan, windows):
        self.band, self.powers, self.phase_index, self.at_ks, self.gather = _band(
            plan, windows[0].M
        )
        self.data = spec.coeffs[self.band + spec.M]
        self.taps = [w.coeffs for w in windows]

    def own(self, est) -> np.ndarray:
        """One estimate's singular part on the union band.

        Each jump is its own model, and no JumpModel is built for it: polish
        iterates may pass through configurations a JumpModel of all jumps
        would reject, and the solve already hands back a location in
        [-pi, pi) and magnitudes that passed its finite residual gate.  The
        phases are the kernel's gather form, the bits phi_coeff_array's
        outer form gives at the same indices.
        """
        jump = ((est.xi, est.magnitudes),)
        return _phi_halves(jump, self.powers, self.phase_index)

    def samples(self, own: list, j: int) -> np.ndarray:
        """The data less every jump, windowed by jump j's window, plus jump j.

        Values at the plan's indices, in order: the polish solve's data.
        The jumps are added one at a time from 0, the order and the bits
        of np.sum(own, axis=0), without stacking them into one array.
        """
        peeled = self.data - sum(own)
        return peeled[self.gather] @ self.taps[j] + own[j][self.at_ks]


def _read_only(*arrays) -> None:
    for arr in arrays:
        arr.flags.writeable = False


@functools.lru_cache(maxsize=32)
def _band(plan: SamplePlan, D: int) -> tuple:
    # (union band, phi_factors' powers on it, its phase index, positions of
    # the plan's indices in it, positions of the terms k + D .. k - D a
    # degree-D window reads at each plan index k)
    ks = np.array(plan.indices, dtype=np.int64)
    band = np.unique(np.add.outer(ks, np.arange(-D, D + 1)))
    powers = tuple(phi_factors(band, plan.d))
    phase_index = _phase_index(band)
    at_ks = np.searchsorted(band, ks)
    gather = np.searchsorted(band, np.add.outer(ks, D - np.arange(2 * D + 1)))
    _read_only(band, *powers, *phase_index, at_ks, gather)
    return band, powers, phase_index, at_ks, gather


def _moved(est, prev, M: int) -> float:
    """How far one polish sweep moved an estimate, on the stop rule's scale.

    |dxi| on the circle plus sum_l |da_l| / M^l.  a_l weighs (ik)^{-(l+1)},
    so reading it off data at k near M amplifies rounding by about M^l,
    and an unscaled |da_l| never falls below _REFINE_TOL at large M.
    """
    return circular_distance(est.xi, prev.xi) + float(
        sum(
            modulus(a - b) / float(M) ** ell
            for ell, (a, b) in enumerate(zip(est.magnitudes, prev.magnitudes))
        )
    )


def _approximant(spec: FourierSpectrum, estimates, provenance: dict):
    """The recovered jumps in location order, and spec minus their singular part.

    The order is the estimates'.  Real data keep the real part of each
    recovered magnitude, and their corrected spectrum is projected onto
    real functions, (psi_k + conj(psi_{-k})) / 2: exactly
    conjugate-symmetric, so it is certified at its own scale, and equal in
    value to psi where psi already was.  A real estimate's singular part is
    conjugate-symmetric bit for bit (phi_coeff_array), so only the data are
    averaged with their mirror, and psi is formed in one pass over k >= 0
    and mirrored.  The average halves each part, then sums: halving a
    double is exact above 2^-1021, so this gives the bits of the halved
    sum wherever that sum is finite, and no sum can overflow on data near
    the double range.  psi is written into the array phi_coeff_array
    returns, in place.
    """
    jumps = tuple(
        (e.xi, tuple(m.real for m in e.magnitudes) if spec.real_valued else e.magnitudes)
        for e in sorted(estimates, key=lambda e: e.xi)
    )
    estimate = JumpModel(estimates[0].order, jumps)
    M, coeffs = spec.M, spec.coeffs
    psi = phi_coeff_array(estimate, M)
    if not spec.real_valued:
        np.subtract(coeffs, psi, out=psi)
    else:
        # on the real and imaginary parts: halved, which is exact, then
        # summed, so no sum passes the double range
        mirror = coeffs[M::-1].conj()
        parts = mirror.view(np.float64)
        parts *= 0.5
        parts += coeffs[M:].view(np.float64) * 0.5
        np.subtract(mirror, psi[M:], out=psi[M:])
        np.conjugate(psi[:M:-1], out=psi[:M])
    return Approximant(estimate, FourierSpectrum(M, psi, spec.real_valued), provenance)


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
        lead = modulus(est.magnitudes[0])
        if lead < config.bounds.B / 2.0:
            raise ModelError(
                f"recovered leading magnitude {lead:.3e} at "
                f"{est.xi:.6g} falls below half the declared floor "
                f"B={config.bounds.B:.3g}; {_cause(config)}"
            )


def _priors(spec: FourierSpectrum, config: ReconstructionConfig) -> list:
    """config.priors, or else the K locations detection certifies.

    Detection that certifies fewer than K jumps (a DetectionError) is a
    ModelError naming K and the certified rank: the data do not carry the
    jumps the caller declared.  Both precisions of recovery detect here.
    """
    if config.priors is not None:
        return list(config.priors)
    try:
        return prony_order0(spec, config.K)
    except DetectionError as exc:
        raise ModelError(
            f"expected K={config.K} jumps but detection certified only "
            f"{exc.rank}"
        ) from exc


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
    full amplitude.  A sweep's change is the largest over the jumps of
    |dxi| on the circle plus sum_l |da_l| / M^l, so rounding in a_l, which
    grows like eps M^l, does not hold it above the tolerance at large M.
    Sweeps need not contract (noisy data, a high-order solve's rounding
    floor), so each runs on copies and is kept only if its change is below
    the last kept sweep's.  The first sweep not kept is discarded and ends
    the polish, as does the end of refine_sweeps; the last kept sweep is
    the one that moved least.  A kept sweep also ends it when its change is
    below _REFINE_TOL or below the smallest circle offset of its solves,
    ||z| - 1| / N for the annihilator root z (solver.JumpEstimate): exact
    data put z on the unit circle, and data error moves it off by about
    the location error times N, so a change below that scale moves noise
    only.  On clean data the offset sits at rounding level and the
    tolerance rules; on noisy data the polish stops after one or two
    sweeps instead of contracting on to the cap.  The first sweep always
    runs.  Every phase e^{-ik xi} the pipeline forms is within about an
    ulp at every k (model._phases), and each solve demodulates its
    magnitudes by its own root, not by a phase of the rounded xi, so on
    clean data the peel hands the sweeps no rounding-level error that
    grows with k: two d=2 jumps at M = 1024..65536 stop on the tolerance
    within two sweeps.
    Every single-jump solve reads only its samples: windowed values at a
    SamplePlan's indices go through spectrum.weight_moments to
    recover_single_jump (half_order_recover on the consecutive plan).  The
    first pass windows each jump at the decimated plan of order d plus the
    consecutive plan of order d//2, polish sweeps at the decimated plan;
    each value is a (2D+1)-term dot product for a degree-D window, and
    pipeline_geometry caps D by the separation J, not by M.  The polish
    peels each jump's singular part only on the union of the intervals
    [k-D, k+D] around the d+2 decimated indices, with the powers
    (ik)^{-(l+1)} and the phase kernel's index built once per shape; each
    peel's phases are gathered from two tables of 64 and a few entries.
    No spectrum is built for any solve, so the first pass and each sweep
    cost O(K (d+2) D), the same at every M past the cap.  What grows with
    M is each window shape's cached plateau check and the corrected
    spectrum: per jump, the phases as one outer product of tables of
    M/64 + 1 and 64 entries and about 2(d+1) multiply-adds of length M,
    then, for real data, one pass over k >= 0 that averages the data with
    their mirror (each halved, then summed, so data near the double range
    do not overflow), subtracts and mirrors, into the singular part's array.
    Data so large that detection's or a solve's values pass the double
    range raise NumericError.
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
    priors = _priors(spec, config)
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

    plan = SamplePlan("decimated", config.d, M_eff)
    half = SamplePlan("consecutive", config.d // 2, M_eff)
    n = plan.d + 2
    estimates = []
    for window in windows:
        values = localize_jump(spec, window, plan.indices + half.indices)
        prior = half_order_recover(weight_moments(half, values[n:])).xi
        estimates.append(recover_single_jump(weight_moments(plan, values[:n]), prior))

    peel = _BandPeel(spec, plan, windows)
    own = [peel.own(e) for e in estimates]
    kept_change = math.inf
    for _ in range(config.refine_sweeps):
        trial, trial_own = list(estimates), list(own)
        change = 0.0
        for j in range(len(windows)):
            moments = weight_moments(plan, peel.samples(trial_own, j))
            est = recover_single_jump(moments, trial[j].xi)
            change = max(change, _moved(est, trial[j], M))
            trial[j] = est
            trial_own[j] = peel.own(est)
        if change >= kept_change:
            break
        estimates, own, kept_change = trial, trial_own, change
        # below the data's own error scale a further sweep only moves noise
        if change < max(_REFINE_TOL, min(e.circle_offset for e in estimates)):
            break
    check_leading_floor(estimates, config)
    return _approximant(spec, estimates, config.to_json_dict())


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
    of any supplied true jump locations; the mask for all of them is one
    broadcast, and the kept points are gathered once.  The smooth part is
    summed once on the whole grid, which eval_partial_sum does by one
    zero-padded fold and one inverse FFT; the singular part (phi_eval,
    one Horner pass per jump) and truth are evaluated on the kept points
    only, so no grid point at a recovered jump reaches phi_eval.  grid
    must be an integer >= 1, radius a finite real > 0 and true_jumps a
    list of finite reals, else ModelError.
    """
    grid = read_int(grid, "grid")
    radius = read_real(radius, "radius")
    if not radius > 0:
        raise ModelError(f"exclusion radius must be > 0, got radius={radius}")
    if grid < 1:
        raise ModelError(f"grid must have at least one point, got grid={grid}")
    excl = list(appr.estimate.locations)
    if true_jumps is not None:
        excl += read_reals(true_jumps, "true_jumps")
    xs = uniform_grid(grid)
    dist = np.abs(wrap_angle(xs - np.array(excl)[:, None]))
    keep = (dist > radius).all(axis=0)
    kept = xs[keep]
    if not kept.size:
        raise ModelError(
            f"no grid points remain after excluding radius {radius} "
            f"around {len(excl)} jumps"
        )
    smooth = eval_partial_sum(appr.corrected_spectrum, xs)[keep]
    approx = smooth + phi_eval(appr.estimate, kept)
    return float(np.max(np.abs(approx - np.asarray(truth(kept)))))
