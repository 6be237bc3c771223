"""Forward model: piecewise-polynomial singular part plus smooth remainder.

The singular basis V_n(x; xi) is a scaled, periodized Bernoulli polynomial
whose n-th derivative jumps by exactly 1 at xi while all lower derivatives
stay continuous.  A jump model is a finite sum of such terms; its Fourier
coefficients have the closed form implemented in phi_fourier_coeff.  Smooth
remainders come from a small named catalog, each with the closed form of
its coefficients, so a synthesized spectrum is exact to rounding at every
index: no smooth part is sampled or integrated numerically.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import (
    ModelError,
    read_complex,
    read_int,
    read_json,
    read_real,
    write_json,
)
from .spectrum import (
    FourierSpectrum,
    _finite_points,
    circular_distance,
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

# the largest |amp| of an expsin part whose e^|amp| is a finite double
_EXP_MAX = math.log(np.finfo(np.float64).max)

# log 2^-1075: a positive value below it rounds to the double 0
_LOG_UNDERFLOW = -1075.0 * math.log(2.0)

# (-i)^n by n mod 4
_MINUS_I_POWERS = np.array([1.0, -1j, -1.0, 1j])


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
    Locations are read as finite reals (errors.read_real) and magnitudes
    as numbers with finite parts (errors.read_complex), as the record
    reader reads them: a bool, a string or a NaN is a ModelError naming
    its field.
    """

    order: int
    jumps: tuple  # tuple of (xi, magnitudes tuple)

    def __post_init__(self):
        object.__setattr__(self, "order", read_int(self.order, "order"))
        if self.order < 0:
            raise ModelError(f"model order must be >= 0, got {self.order}")
        norm = []
        for entry in self.jumps:
            xi, mags = entry
            xi = read_real(xi, "xi")
            if not -np.pi <= xi < np.pi:
                raise ModelError(f"jump location {xi} outside [-pi, pi)")
            mags = tuple(read_complex(a, "a") for a in mags)
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
                xi = rec["xi"]
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
    """Smooth remainder: an evaluator and its exact coefficients.

    coeff_fn(M) returns the coefficients c_{-M}..c_M of the function the
    evaluator computes, from their closed form; synth_spectrum adds them
    to the singular part's.  Measure the decay with fitted_decay_constant.
    """

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    coeff_fn: Callable[[int], np.ndarray]
    params: dict = field(default_factory=dict)

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


def _unit_fraction(t: np.ndarray) -> None:
    # t mod 1 in place, the values np.mod(t, 1.0) gives bit for bit in less
    # than half its time: fmod, then 1.0 added where negative and 0.0
    # elsewhere, which also turns fmod's -0.0 into np.mod's +0.0 (a Horner
    # pass whose constant term is 0 would carry the sign)
    np.fmod(t, 1.0, out=t)
    t += (t < 0.0)


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
        _unit_fraction(t)
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


def _phases(ks: np.ndarray, xi: float) -> np.ndarray:
    # e^{-ik xi} at the real indices ks: cos and sin of the real product
    # k (-xi), written into the parts of one complex array.  These are the
    # values np.exp(-ik * xi), ik = 1j * ks, gives, bit for bit (test_model
    # pins it), without its exp of the zero real part and the scaling by it
    arg = ks * -xi
    out = np.empty(arg.size, dtype=np.complex128)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


def _phi_halves(jumps, factors, negative: bool):
    # the one closed-form kernel: c_k at the indices of factors, and when
    # negative also c_{-k}, which reuses the phases and powers (only signs
    # flip), so both halves are bit-identical to evaluating each index alone
    ik, powers = factors
    ks = ik.imag
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
        phase = _phases(ks, xi)
        pos += phase * inner_pos
        if negative:
            neg += phase.conj() * inner_neg
    pos /= 2.0 * np.pi
    if negative:
        neg /= 2.0 * np.pi
    return pos, neg


@functools.lru_cache(maxsize=1)
def _positive_factors(M: int, order: int) -> tuple:
    # phi_factors on 1..M, read-only: they depend on (M, order) alone, and
    # repeated reconstructions of one shape ask for the same ones each call;
    # only the last shape is kept, since they grow with M
    ik, powers = phi_factors(np.arange(1, M + 1), order)
    for arr in (ik, *powers):
        arr.flags.writeable = False
    return ik, tuple(powers)


def _coeff_array(jumps, M: int, factors) -> np.ndarray:
    # c_{-M}..c_M of the jumps from the kernel's two halves, c_0 = 0
    pos, neg = _phi_halves(jumps, factors, negative=True)
    out = np.zeros(2 * M + 1, dtype=np.complex128)
    out[M + 1 :] = pos
    out[:M] = neg[::-1]
    return out


def phi_coeff_array(model: JumpModel, M: int) -> np.ndarray:
    """Coefficients c_{-M}..c_M of the piecewise polynomial, ascending k.

    The array form of phi_fourier_coeff, c_0 = 0.  It shares its kernel
    with the polish's band peel: phases e^{-ik xi} and powers (ik)^{-(l+1)}
    (phi_factors) are computed for k = 1..M only, the powers once for all
    jumps.  The half k < 0 reuses them: e^{ik xi} is the conjugate of
    e^{-ik xi} and (-ik)^{-(l+1)} = (-1)^{l+1} (ik)^{-(l+1)}.  Only signs
    flip, so the result is bit-identical to evaluating every index,
    complex magnitudes included.  The index 1..M and its d+1 powers, d+1
    complex divisions of length M, depend on (M, d) only and are built
    once and kept, read-only, for the last shape.  Each call then
    costs, per jump, one real cos and one real sin and about 2(d+3)
    multiply-adds of length M.
    """
    M = read_int(M, "M")
    if M < 0:
        raise ModelError(f"M must be a non-negative integer, got M={M!r}")
    return _coeff_array(model.jumps, M, _positive_factors(M, model.order))


def synth_spectrum(
    model: JumpModel, smooth: Optional[SmoothPart], M: int
) -> FourierSpectrum:
    """First M coefficients of the model plus its smooth remainder.

    Requires M >= (d+2)K so downstream sampling plans are feasible.  The
    spectrum is phi_coeff_array(model, M) plus smooth.coeff_fn(M), both
    closed forms; smooth=None adds nothing.  A real model with a catalog
    smooth part gives conjugate-symmetric coefficients bit for bit.
    """
    if model.K > 0 and M < (model.order + 2) * model.K:
        raise ModelError(
            f"M={M} below (d+2)K = {(model.order + 2) * model.K} "
            f"for d={model.order}, K={model.K}"
        )
    if M < 1:
        raise ModelError(f"M must be >= 1, got {M}")
    coeffs = phi_coeff_array(model, M)
    if smooth is not None:
        coeffs = coeffs + np.asarray(smooth.coeff_fn(M), dtype=np.complex128)
    return FourierSpectrum(M, coeffs, real_valued=model.is_real)


def _bessel_i(a: float, n: int) -> np.ndarray:
    """I_0(a)..I_n(a), the modified Bessel functions of the first kind.

    Miller's backward recurrence on the ratios r_k = I_k/I_{k-1} of
    x = |a|, r_k = x / (2k + x r_{k+1}), started at 0 past the index top
    from which every I_k is below 2^-1075 and rounds to 0: I_k(x) <=
    (x/2)^k/k! e^x, and that bound passes 2^-1075 by k = 3.7x + 746.  At
    top the ratios are below 1/2, so the 32 extra steps shrink the start's
    error below 2^-64.  The normalization e^x = I_0 + 2 sum_k I_k gives
    I_0, and I_k = I_0 r_1 ... r_k.  I_k(-x) = (-1)^k I_k(x).  Needs
    |a| <= _EXP_MAX; relative errors are about 1e-15 wherever I_k is a
    normal double.
    """
    out = np.zeros(n + 1)
    x = abs(a)
    if x == 0.0:
        out[0] = 1.0
        return out
    ks = np.arange(1, int(3.7 * x) + 747)
    log_bound = ks * (math.log(x) - math.log(2.0)) - np.cumsum(np.log(ks)) + x
    top = int(ks[np.argmax(log_bound < _LOG_UNDERFLOW)])
    ratios = []
    r = 0.0
    for k in range(top + 32, 0, -1):
        r = x / (2.0 * k + x * r)
        ratios.append(r)
    ratios = np.array(ratios[::-1])
    out[0] = math.exp(x) / (1.0 + 2.0 * np.cumprod(ratios).sum())
    m = min(n, top)
    out[1 : m + 1] = ratios[:m]
    np.cumprod(out[: m + 1], out=out[: m + 1])
    if a < 0.0:
        out[1::2] *= -1.0
    return out


def smooth_catalog(name: str, **params) -> SmoothPart:
    """Built-in smooth remainders selected by name, each with the closed
    form of its coefficients.

    zero: identically zero.
    sin: amp * sin(freq x + phase); two nonzero coefficients.
    expsin: exp(amp sin x) minus its mean I_0(amp); c_n = (-i)^n I_n(amp)
        for n != 0, decaying faster than any power.  e^|amp| must be a
        finite double (|amp| <= 709.78).
    poly-blend: amp * V_n(x; center), a one-higher-order polynomial blend
        whose coefficients decay like |k|^{-n-1} exactly: the singular
        part's closed form for one jump of magnitudes (0, ..., 0, amp).
    Real parameters must be finite; an unknown parameter is a ModelError.
    """
    if name == "zero":
        if params:
            raise ModelError(f"unknown zero parameters: {sorted(params)}")
        return SmoothPart(
            "zero",
            lambda xs: np.zeros_like(np.asarray(xs, float)),
            lambda M: np.zeros(2 * M + 1, dtype=np.complex128),
        )
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
            sin_coeffs,
            {"amp": amp, "freq": freq, "phase": phase},
        )
    if name == "expsin":
        amp = read_real(params.pop("amp", 1.0), "amp")
        if params:
            raise ModelError(f"unknown expsin parameters: {sorted(params)}")
        if abs(amp) > _EXP_MAX:
            raise ModelError(
                f"expsin needs e^|amp| in the double range, |amp| <= "
                f"{_EXP_MAX:.6f}; got amp={amp!r}"
            )
        def expsin_coeffs(M, A=amp):
            # c_{-n} = conj(c_n) exactly, so real data stay symmetric bit for bit
            pos = _bessel_i(A, M)[1:] * _MINUS_I_POWERS[np.arange(1, M + 1) % 4]
            out = np.zeros(2 * M + 1, dtype=np.complex128)
            out[M + 1 :] = pos
            out[:M] = pos[::-1].conj()
            return out

        mean = float(_bessel_i(amp, 0)[0])
        return SmoothPart(
            "expsin",
            lambda xs, A=amp, m=mean: np.exp(A * np.sin(np.asarray(xs, float))) - m,
            expsin_coeffs,
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
            jump = ((c, (0.0,) * n + (A,)),)
            return _coeff_array(jump, M, phi_factors(np.arange(1, M + 1), n))

        return SmoothPart(
            "poly-blend",
            lambda xs, n=order, c=center, A=amp: A * vn_eval(n, np.asarray(xs, float), c),
            blend_coeffs,
            {"order": order, "center": center, "amp": amp},
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
