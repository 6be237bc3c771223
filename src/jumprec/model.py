"""Forward model: piecewise-polynomial singular part plus smooth remainder.

The singular basis V_n(x; xi) is a scaled, periodized Bernoulli polynomial
whose n-th derivative jumps by exactly 1 at xi while all lower derivatives
stay continuous.  A jump model is a finite sum of such terms; its Fourier
coefficients have the closed form implemented in phi_fourier_coeff.  Smooth
remainders come from a small named catalog and are synthesized by periodic
trapezoid quadrature (spectrally accurate).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import (
    ModelError,
    NumericError,
    read_int,
    read_json,
    read_real,
    write_json,
)
from .spectrum import (
    FourierSpectrum,
    _finite_points,
    circular_distance,
    coeffs_of_function,
    modulus,
    wrap_angle,
)

__all__ = [
    "bernoulli_coefficients",
    "bernoulli_poly",
    "vn_eval",
    "JumpModel",
    "SmoothPart",
    "AprioriBounds",
    "phi_eval",
    "phi_fourier_coeff",
    "phi_factors",
    "phi_coeff_array",
    "synth_spectrum",
    "smooth_catalog",
    "fitted_decay_constant",
    "adversarial_pair",
    "shift_jumps",
    "load_model",
    "save_model",
]

_TABLE_MAX = 32

# circular proximity below which a point counts as sitting on a jump
_JUMP_TOL = 1e-12


def _build_bernoulli_tables(nmax: int):
    # numbers B_0..B_nmax by the defining recurrence, exact rationals
    numbers = [Fraction(1)]
    for n in range(1, nmax + 1):
        acc = Fraction(0)
        for j in range(n):
            acc += math.comb(n + 1, j) * numbers[j]
        numbers.append(-acc / (n + 1))
    # polynomial coefficients, ascending powers: B_n(x) = sum_k C(n,k) B_k x^{n-k}
    polys = []
    for n in range(nmax + 1):
        coeffs = [Fraction(0)] * (n + 1)
        for k in range(n + 1):
            coeffs[n - k] += math.comb(n, k) * numbers[k]
        polys.append(tuple(coeffs))
    return tuple(numbers), tuple(polys)


_BERNOULLI_NUMBERS, _BERNOULLI_POLYS = _build_bernoulli_tables(_TABLE_MAX)
_BERNOULLI_POLYS_FLOAT = tuple(
    tuple(float(c) for c in poly) for poly in _BERNOULLI_POLYS
)


# V_l = scale_l B_{l+1}(t), scale_l = -(2pi)^l/(l+1)!, as ascending
# coefficients in t, l = 0.._TABLE_MAX-1
_VN_POLYS = tuple(
    tuple(-((2.0 * np.pi) ** n) / math.factorial(n + 1) * c
          for c in _BERNOULLI_POLYS_FLOAT[n + 1])
    for n in range(_TABLE_MAX)
)


def _horner(coeffs, t: np.ndarray, out: np.ndarray) -> None:
    # out += sum_k coeffs[k] t^k on real arrays, one in-place pass
    acc = np.full_like(t, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= t
        acc += c
    out += acc


def bernoulli_coefficients(n: int):
    """Exact rational coefficients of B_n, ascending powers."""
    if not 0 <= n <= _TABLE_MAX:
        raise ModelError(f"Bernoulli table covers 0..{_TABLE_MAX}, got n={n}")
    return _BERNOULLI_POLYS[n]


def bernoulli_poly(n: int, x):
    """Evaluate the Bernoulli polynomial B_n at x (scalar or array)."""
    if not 0 <= n <= _TABLE_MAX:
        raise ModelError(f"Bernoulli table covers 0..{_TABLE_MAX}, got n={n}")
    xs = np.asarray(x, dtype=float)
    acc = np.zeros(xs.shape)
    _horner(_BERNOULLI_POLYS_FLOAT[n], xs, acc)
    if np.ndim(x) == 0:
        return float(acc)
    return acc


def vn_eval(n: int, x, xi: float):
    """Evaluate V_n(x; xi), the order-n unit-jump basis element.

    2pi-periodic; right-continuous at the jump (x = xi gives the limit
    from above).  Vectorized over x.
    """
    if n < 0:
        raise ModelError(f"basis order must be >= 0, got {n}")
    if n + 1 > _TABLE_MAX:
        raise ModelError(f"basis order {n} beyond coefficient table")
    t = np.mod((np.asarray(x, dtype=float) - xi) / (2.0 * np.pi), 1.0)
    val = np.zeros(np.shape(t))
    _horner(_VN_POLYS[n], t, val)
    if np.ndim(x) == 0:
        return float(val)
    return val


@dataclass(frozen=True)
class JumpModel:
    """Jump locations and per-order magnitudes of the singular part.

    order d >= 0; each jump carries magnitudes a_0..a_d with a_0 != 0.
    Locations live in [-pi, pi), strictly increasing.  Magnitudes may be
    complex at the library level; the CLI catalog sticks to real models.
    """

    order: int
    jumps: tuple  # tuple of (xi, magnitudes tuple)

    def __post_init__(self):
        if self.order < 0:
            raise ModelError(f"model order must be >= 0, got {self.order}")
        norm = []
        for entry in self.jumps:
            xi, mags = entry
            xi = float(xi)
            if not -np.pi <= xi < np.pi:
                raise ModelError(f"jump location {xi} outside [-pi, pi)")
            mags = tuple(complex(a) for a in mags)
            if not all(cmath.isfinite(a) for a in mags):
                raise ModelError(f"jump at {xi} has non-finite magnitudes {mags}")
            if len(mags) != self.order + 1:
                raise ModelError(
                    f"jump at {xi} carries {len(mags)} magnitudes, "
                    f"expected d+1 = {self.order + 1}"
                )
            if mags[0] == 0:
                raise ModelError(f"jump at {xi} has vanishing lowest-order magnitude")
            norm.append((xi, mags))
        locs = [xi for xi, _ in norm]
        if any(b <= a for a, b in zip(locs, locs[1:])):
            raise ModelError(f"jump locations must be strictly increasing: {locs}")
        for i in range(len(locs)):
            for j in range(i + 1, len(locs)):
                if circular_distance(locs[i], locs[j]) < _JUMP_TOL:
                    raise ModelError(f"jumps {locs[i]} and {locs[j]} coincide mod 2pi")
        object.__setattr__(self, "jumps", tuple(norm))

    @property
    def K(self) -> int:
        return len(self.jumps)

    @property
    def locations(self):
        return tuple(xi for xi, _ in self.jumps)

    @property
    def is_real(self) -> bool:
        return all(all(a.imag == 0.0 for a in mags) for _, mags in self.jumps)

    def magnitude_sum(self) -> float:
        return float(sum(modulus(a) for _, mags in self.jumps for a in mags))

    def to_json_dict(self) -> dict:
        out = []
        for xi, mags in self.jumps:
            if all(a.imag == 0.0 for a in mags):
                a_rec = [float(a.real) for a in mags]
            else:
                a_rec = [[float(a.real), float(a.imag)] for a in mags]
            out.append({"xi": float(xi), "a": a_rec})
        return {"d": self.order, "jumps": out}

    @classmethod
    def from_json_dict(cls, data: dict) -> "JumpModel":
        try:
            d = read_int(data["d"], "d")
            jumps = []
            for rec in data["jumps"]:
                xi = read_real(rec["xi"], "xi")
                mags = []
                for a in rec["a"]:
                    if isinstance(a, (list, tuple)):
                        mags.append(complex(read_real(a[0], "a"), read_real(a[1], "a")))
                    else:
                        mags.append(complex(read_real(a, "a")))
                jumps.append((xi, tuple(mags)))
        except (KeyError, TypeError, IndexError) as exc:
            raise ModelError(f"malformed model record: {exc}") from exc
        return cls(d, tuple(jumps))


@dataclass(frozen=True)
class SmoothPart:
    """Smooth remainder: an evaluator, optionally with exact coefficients.

    coeff_fn, when set, returns the exact coefficients c_{-M}..c_M and
    bypasses the quadrature fallback in synth_spectrum; measure the decay
    with fitted_decay_constant.
    """

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)
    coeff_fn: Optional[Callable[[int], np.ndarray]] = None

    def to_json_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}


@dataclass(frozen=True)
class AprioriBounds:
    """Known-in-advance constants: separation, magnitude box, smooth decay."""

    J: float
    A: float
    B: float
    R: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.J, self.A, self.B, self.R)):
            raise ModelError(f"bounds must be finite, got {self}")
        if self.J <= 0:
            raise ModelError(f"separation must be positive, got {self.J}")
        if self.B <= 0:
            raise ModelError(f"magnitude floor must be positive, got {self.B}")
        if self.B > self.A:
            raise ModelError(f"magnitude floor {self.B} exceeds ceiling {self.A}")
        if self.R < 0:
            raise ModelError(f"smooth decay constant must be >= 0, got {self.R}")

    @classmethod
    def from_json_dict(cls, data: dict) -> "AprioriBounds":
        try:
            values = [read_real(data[k], k) for k in ("J", "A", "B", "R")]
        except (KeyError, TypeError, ModelError) as exc:
            raise ModelError(f"bounds need numeric J, A, B, R: {exc}") from exc
        return cls(*values)


def phi_eval(model: JumpModel, x, side: Optional[str] = None):
    """Evaluate the piecewise polynomial at x (scalar or array).

    Points sitting exactly on a jump are ambiguous; pass side="left" or
    side="right" to pick the one-sided limit there.  NaN or inf among the
    points is a ModelError.  Each jump's d+1 orders are one polynomial in
    the phase t = ((x - xi)/2pi) mod 1: the coefficients of
    sum_l a_l V_l = sum_l a_l scale_l B_{l+1}(t), scale_l = -(2pi)^l/(l+1)!,
    are formed on Python numbers and the polynomial is evaluated by one
    Horner pass on real arrays, two (real and imaginary parts) for complex
    magnitudes.  A real model gives real values, a complex one complex.
    """
    if side not in (None, "left", "right"):
        raise ModelError(f"side must be left/right/None, got {side!r}")
    xs = _finite_points(x)
    real = model.is_real
    out = np.zeros(xs.shape, dtype=float if real else np.complex128)
    for xi, mags in model.jumps:
        t = xs - xi
        t /= 2.0 * np.pi
        np.mod(t, 1.0, out=t)
        at_jump = np.minimum(t, 1.0 - t) * 2.0 * np.pi < _JUMP_TOL
        if np.any(at_jump):
            if side is None:
                raise ModelError(
                    f"evaluation at jump location {xi}: pass side='left' or 'right'"
                )
            t[at_jump] = 0.0 if side == "right" else 1.0
        coeffs = [0.0] * (len(mags) + 1)
        for a, poly in zip(mags, _VN_POLYS):
            a = a.real if real else a
            for k, c in enumerate(poly):
                coeffs[k] += a * c
        if real:
            _horner(coeffs, t, out)
        else:
            _horner([c.real for c in coeffs], t, out.real)
            _horner([c.imag for c in coeffs], t, out.imag)
    if np.ndim(x) == 0:
        return out[0]
    return out


def phi_fourier_coeff(model: JumpModel, k: int) -> complex:
    """Closed-form Fourier coefficient of the piecewise polynomial.

    c_0 = 0 by the zero-mean convention of the basis; any DC offset
    belongs to the smooth part.
    """
    if k == 0:
        return 0.0 + 0.0j
    acc = 0.0 + 0.0j
    ik = 1j * k
    for xi, mags in model.jumps:
        inner = 0.0 + 0.0j
        w = 1.0 / ik
        for a in mags:
            inner += a * w
            w /= ik
        acc += np.exp(-ik * xi) * inner
    return complex(acc / (2.0 * np.pi))


def phi_factors(ks, order: int) -> tuple:
    """The index factors of the closed form at the positive indices ks.

    Returns (ik, powers) with ik = 1j*k and powers[l] = (ik)^{-(l+1)} for
    l = 0..order, each power one complex division from the one before.
    They depend on the indices and the order only, so a caller that builds
    many models' coefficients on one index set builds them once.
    """
    ks = np.asarray(ks, dtype=float)
    if ks.size and ks.min() < 1:
        raise ModelError(f"phi_factors takes indices k >= 1, got k={ks.min():g}")
    ik = 1j * ks
    powers = [1.0 / ik]
    for _ in range(order):
        powers.append(powers[-1] / ik)
    return ik, powers


def _phi_halves(jumps, factors, negative: bool):
    # the one closed-form kernel: c_k at the indices of factors, and when
    # negative also c_{-k}, which reuses the phases and powers (only signs
    # flip), so both halves are bit-identical to evaluating each index alone
    ik, powers = factors
    minus_ik = -ik
    pos = np.zeros(ik.size, dtype=np.complex128)
    neg = np.zeros(ik.size, dtype=np.complex128) if negative else None
    for xi, mags in jumps:
        inner_pos = np.zeros(ik.size, dtype=np.complex128)
        inner_neg = np.zeros(ik.size, dtype=np.complex128) if negative else None
        for ell, (a, w) in enumerate(zip(mags, powers)):
            term = a * w
            inner_pos += term
            if negative:
                # (-1)^{l+1}: the odd orders keep their sign at -k
                if ell % 2:
                    inner_neg += term
                else:
                    inner_neg -= term
        phase = np.exp(minus_ik * xi)
        pos += phase * inner_pos
        if negative:
            neg += phase.conj() * inner_neg
    pos /= 2.0 * np.pi
    if negative:
        neg /= 2.0 * np.pi
    return pos, neg


def phi_coeff_array(model: JumpModel, M: int) -> np.ndarray:
    """Coefficients c_{-M}..c_M of the piecewise polynomial, ascending k.

    The array form of phi_fourier_coeff, c_0 = 0.  It shares its kernel
    with the polish's band peel: phases e^{-ik xi} and powers (ik)^{-(l+1)}
    (phi_factors) are computed for k = 1..M only, the powers once for all
    jumps.  The half k < 0 reuses them: e^{ik xi} is the conjugate of
    e^{-ik xi} and (-ik)^{-(l+1)} = (-1)^{l+1} (ik)^{-(l+1)}.  Only signs
    flip, so the result is bit-identical to evaluating every index,
    complex magnitudes included.  Cost: d+1 complex divisions of length M,
    then per jump one complex exp and about 2(d+3) multiply-adds of
    length M.
    """
    M = read_int(M, "M")
    if M < 0:
        raise ModelError(f"M must be a non-negative integer, got M={M!r}")
    factors = phi_factors(np.arange(1, M + 1), model.order)
    pos, neg = _phi_halves(model.jumps, factors, negative=True)
    out = np.zeros(2 * M + 1, dtype=np.complex128)
    out[M + 1 :] = pos
    out[:M] = neg[::-1]
    return out


def synth_spectrum(
    model: JumpModel, smooth: Optional[SmoothPart], M: int
) -> FourierSpectrum:
    """First M coefficients of the model plus its smooth remainder.

    Requires M >= (d+2)K so downstream sampling plans are feasible.  Smooth
    coefficients come from trapezoid quadrature at 8M points with a
    convergence check against a refined grid.
    """
    if model.K > 0 and M < (model.order + 2) * model.K:
        raise ModelError(
            f"M={M} below (d+2)K = {(model.order + 2) * model.K} "
            f"for d={model.order}, K={model.K}"
        )
    if M < 1:
        raise ModelError(f"M must be >= 1, got {M}")
    coeffs = phi_coeff_array(model, M)
    if smooth is not None and smooth.coeff_fn is not None:
        coeffs = coeffs + np.asarray(smooth.coeff_fn(M), dtype=np.complex128)
    elif smooth is not None and smooth.name != "zero":
        c1 = coeffs_of_function(smooth.evaluator, M, oversample=8)
        c2 = coeffs_of_function(smooth.evaluator, M, oversample=16)
        scale = max(1.0, float(np.max(np.abs(c2))))
        defect = float(np.max(np.abs(c1 - c2)))
        if defect > 1e-9 * scale:
            raise NumericError(
                f"smooth-part quadrature not converged: refinement moved "
                f"coefficients by {defect:.3e}"
            )
        coeffs = coeffs + c2
    return FourierSpectrum(M, coeffs, real_valued=model.is_real)


def smooth_catalog(name: str, **params) -> SmoothPart:
    """Built-in smooth remainders selected by name.

    zero: identically zero.
    sin: amp * sin(freq x + phase).
    expsin: exp(amp sin x) minus its mean (coefficients decay faster than
        any power).
    poly-blend: amp * V_n(x; center), a one-higher-order polynomial blend
        whose coefficients decay like |k|^{-n-1} exactly.
    """
    if name == "zero":
        return SmoothPart("zero", lambda xs: np.zeros_like(np.asarray(xs, float)))
    if name == "sin":
        amp = read_real(params.pop("amp", 1.0), "amp")
        freq = read_int(params.pop("freq", 1), "freq")
        phase = read_real(params.pop("phase", 0.0), "phase")
        if params:
            raise ModelError(f"unknown sin parameters: {sorted(params)}")
        if freq < 1:
            raise ModelError(f"sin frequency must be >= 1, got {freq}")
        def sin_coeffs(M, A=amp, w=freq, p=phase):
            out = np.zeros(2 * M + 1, dtype=np.complex128)
            if w <= M:
                out[M + w] = A * cmath.exp(1j * p) / 2j
                out[M - w] = -A * cmath.exp(-1j * p) / 2j
            return out

        return SmoothPart(
            "sin",
            lambda xs, A=amp, w=freq, p=phase: A * np.sin(w * np.asarray(xs, float) + p),
            {"amp": amp, "freq": freq, "phase": phase},
            sin_coeffs,
        )
    if name == "expsin":
        amp = read_real(params.pop("amp", 1.0), "amp")
        if params:
            raise ModelError(f"unknown expsin parameters: {sorted(params)}")
        mean = float(np.i0(amp))
        return SmoothPart(
            "expsin",
            lambda xs, A=amp, m=mean: np.exp(A * np.sin(np.asarray(xs, float))) - m,
            {"amp": amp},
        )
    if name == "poly-blend":
        order = params.pop("order", None)
        if order is None:
            raise ModelError("poly-blend requires an 'order' parameter")
        order = read_int(order, "order")
        center = read_real(params.pop("center", 0.0), "center")
        amp = read_real(params.pop("amp", 1.0), "amp")
        if params:
            raise ModelError(f"unknown poly-blend parameters: {sorted(params)}")
        if not 1 <= order <= _TABLE_MAX - 1:
            raise ModelError(f"poly-blend order must be in 1..{_TABLE_MAX - 1}")
        def blend_coeffs(M, n=order, c=center, A=amp):
            ks = np.arange(-M, M + 1)
            out = np.zeros(2 * M + 1, dtype=np.complex128)
            nz = ks != 0
            ik = 1j * ks[nz].astype(float)
            out[nz] = A / (2.0 * np.pi) * ik ** (-n - 1) * np.exp(-ik * c)
            return out

        return SmoothPart(
            "poly-blend",
            lambda xs, n=order, c=center, A=amp: A * vn_eval(n, np.asarray(xs, float), c),
            {"order": order, "center": center, "amp": amp},
            blend_coeffs,
        )
    raise ModelError(f"unknown smooth-part name {name!r}")


def fitted_decay_constant(spectrum: FourierSpectrum, exponent: int) -> float:
    """Smallest R with |c_k| <= R k^{-exponent} over 1 <= k <= M."""
    ks = np.arange(1, spectrum.M + 1, dtype=float)
    vals = np.abs(spectrum.coeffs[spectrum.M + 1 :])
    return float(np.max(vals * ks**exponent))


def shift_jumps(model: JumpModel, delta: float) -> JumpModel:
    """Translate every jump by delta, wrapping back into [-pi, pi)."""
    moved = []
    for xi, mags in model.jumps:
        xi_new = float(wrap_angle(xi + delta))
        moved.append((xi_new, mags))
    moved.sort(key=lambda item: item[0])
    return JumpModel(model.order, tuple(moved))


def adversarial_pair(model: JumpModel, M: int, bounds: AprioriBounds):
    """Two admissible functions sharing all coefficients |k| <= M.

    Returns (g, h, delta): g is the spectrum of the given piecewise
    polynomial, h is the spectrum of the same model with every jump moved
    by delta = (2pi R / A) M^{-d-2} plus a smooth correction whose
    coefficients b_k cancel the difference exactly on |k| <= M and stay
    inside the class decay budget.  Any recovery consuming only these
    coefficients treats g and h identically while their jump sets differ
    by delta.
    """
    if model.magnitude_sum() >= bounds.A:
        raise ModelError(
            f"model magnitude sum {model.magnitude_sum():.6g} must stay "
            f"below A={bounds.A} for the ceiling construction"
        )
    if M < 1:
        raise ModelError(f"M must be >= 1, got {M}")
    delta = (2.0 * np.pi * bounds.R / bounds.A) * float(M) ** (-(model.order + 2))
    g = synth_spectrum(model, None, M)
    # h's truncated spectrum coincides with g's by construction: the
    # correction b_k = c_k(Phi) - c_k(Phi_shifted) is folded in exactly.
    h = FourierSpectrum(M, g.coeffs.copy(), g.real_valued)
    return g, h, float(delta)


def load_model(path) -> JumpModel:
    return JumpModel.from_json_dict(read_json(path))


def save_model(path, model: JumpModel) -> None:
    write_json(path, model.to_json_dict())
