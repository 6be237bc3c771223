"""Forward model: piecewise-polynomial singular part plus smooth remainder.

The singular basis V_n(x; xi) is a scaled, periodized Bernoulli polynomial
whose n-th derivative jumps by exactly 1 at xi while all lower derivatives
stay continuous.  A jump model is a finite sum of such terms; its Fourier
coefficients have a closed form, evaluated by one kernel (_phi_halves) on
-M..M (phi_coeff_array) or, for the polish, on a band of indices.  The
paper's objects (the Bernoulli tables, V_n) read their orders as the
record readers do (errors.read_int).  Smooth remainders
come from a small named catalog, each with the closed form of its
coefficients, so a synthesized spectrum is exact to rounding at every
index: no smooth part is sampled or integrated numerically.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
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
    _from_positive_half,
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
    n = read_int(n, "n")
    if not 0 <= n <= _TABLE_MAX:
        raise ModelError(f"Bernoulli table covers 0..{_TABLE_MAX}, got n={n}")
    return _BERNOULLI_POLYS[n]


def bernoulli_poly(n: int, x):
    """Evaluate the Bernoulli polynomial B_n at x (scalar or array)."""
    n = read_int(n, "n")
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
    from above).  Vectorized over x.  A NaN or inf point, or an xi that
    is not a finite real, is a ModelError, as in phi_eval, and so is an
    order that is not an integer.
    """
    n = read_int(n, "n")
    if n < 0:
        raise ModelError(f"basis order must be >= 0, got {n}")
    if n + 1 > _TABLE_MAX:
        raise ModelError(f"basis order {n} beyond coefficient table")
    t = (_finite_points(x) - read_real(xi, "xi")) / (2.0 * np.pi)
    _unit_fraction(t)
    val = np.zeros(t.shape)
    _horner(_VN_POLYS[n], t, val)
    if np.ndim(x) == 0:
        return float(val[0])
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
                        if len(a) != 2:
                            raise ModelError(
                                f"a complex magnitude must be an [re, im] pair, got a={a!r}"
                            )
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


@dataclass(frozen=True)
class AprioriBounds:
    """Known-in-advance constants: separation, magnitude box, smooth decay.

    Each is read as a finite real (errors.read_real), else a ModelError.
    """

    J: float
    A: float
    B: float
    R: float

    def __post_init__(self):
        for name in ("J", "A", "B", "R"):
            object.__setattr__(self, name, read_real(getattr(self, name), name))
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


def phi_factors(ks, order: int) -> list:
    """The powers of the closed form at the positive indices ks.

    powers[l] = (ik)^{-(l+1)} for l = 0..order, each power one complex
    division from the one before.  They depend on the indices and the
    order only, so a caller that builds many models' coefficients on one
    index set builds them once.
    """
    ks = np.asarray(ks, dtype=float)
    if ks.size and ks.min() < 1:
        raise ModelError(f"phi_factors takes indices k >= 1, got k={ks.min():g}")
    ik = 1j * ks
    powers = [1.0 / ik]
    for _ in range(order):
        powers.append(powers[-1] / ik)
    return powers


# the phase kernel writes each index k = q _PHASE_STEP + r, 0 <= r < _PHASE_STEP
_PHASE_STEP = 64


def _phase_table(ns: np.ndarray, xi: float) -> np.ndarray:
    # e^{-i n xi} at the integers 0 <= ns < 2^29, each within about an ulp:
    # xi = head + tail, head its float32 rounding and tail the exact rest,
    # so n * head is exact and n * tail, below 2^-24 |n xi|, carries only
    # its own rounding; the two factors' cos and sin take one call each
    head = float(np.float32(xi))
    args = np.multiply.outer((-head, head - xi), ns)
    factors = np.empty(args.shape, dtype=np.complex128)
    np.cos(args, out=factors.real)
    np.sin(args, out=factors.imag)
    return factors[0] * factors[1]


def _phase_index(ks) -> tuple:
    """The kernel's tables for the integers ks >= 0, in any order.

    Returns (ns, at): ns lists the table's integers, 0.._PHASE_STEP-1 then
    the multiples q _PHASE_STEP that ks reach, and at[0], at[1] are the
    positions in ns of each k's two parts, q _PHASE_STEP and r.  It depends
    on the indices alone, so a caller that phases many locations on one
    index set builds it once.
    """
    q, r = np.divmod(np.asarray(ks, dtype=np.int64), _PHASE_STEP)
    qs, at_q = np.unique(q, return_inverse=True)
    ns = np.concatenate((np.arange(_PHASE_STEP), _PHASE_STEP * qs))
    return ns, np.stack((at_q + _PHASE_STEP, r))


def _phases(xi: float, at) -> np.ndarray:
    """e^{-ik xi} at integer indices 0 <= k < 2^29, each within about an ulp.

    at is M, for k = 1..M, or a _phase_index, for its indices.  Each phase
    is the product of two table entries, e^{-i qB xi} e^{-i r xi} with
    k = qB + r, B = _PHASE_STEP, and each entry is cos and sin of exact
    products (_phase_table): the error no longer grows like eps k |xi|, as
    cos and sin of the rounded product k xi do (3.6e-12 at k = 65536).
    For 1..M the product is an outer product of the tables, M/B + 1 and B
    entries; for an index the entries are gathered.  Both forms multiply
    the same entries in the same order, so they give the same bits at the
    same k.
    """
    if isinstance(at, tuple):
        ns, pos = at
        parts = _phase_table(ns, xi)[pos]
        return parts[0] * parts[1]
    B = _PHASE_STEP
    table = _phase_table(np.concatenate((np.arange(B), B * np.arange(at // B + 1))), xi)
    return np.multiply.outer(table[B:], table[:B]).ravel()[1 : at + 1]


def _phi_halves(jumps, powers, at):
    # the one closed-form kernel: c_k of one or more jumps at the positive
    # indices of at (M or a _phase_index) from powers, (ik)^{-(l+1)} there.
    # The k < 0 half is the same kernel by c_{-k}(a) = conj(c_k(conj a)):
    # run on the conjugated magnitudes, with the same powers and phases, and
    # conjugated.  The magnitudes carry the 1/2pi, and each order's term goes
    # through one buffer, so a jump allocates its sum and its phases only
    out = term = None
    for xi, mags in jumps:
        mags = [a / (2.0 * np.pi) for a in mags]
        inner = powers[0] * mags[0]
        for ell in range(1, len(mags)):
            term = np.multiply(powers[ell], mags[ell], out=term)
            inner += term
        inner *= _phases(xi, at)
        if out is None:
            out = inner
        else:
            out += inner
    return out


@functools.lru_cache(maxsize=1)
def _positive_factors(M: int, order: int) -> tuple:
    # the powers of phi_factors on 1..M, read-only: they depend on
    # (M, order) alone, and repeated reconstructions of one shape ask for
    # the same ones each call; only the last shape is kept, since they grow
    # with M
    powers = tuple(phi_factors(np.arange(1, M + 1), order))
    for arr in powers:
        arr.flags.writeable = False
    return powers


def _coeff_array(jumps, M: int, powers) -> np.ndarray:
    # c_{-M}..c_M of the jumps from the kernel's positive half, c_0 = 0; the
    # k < 0 half is a real model's conjugate mirror, so the result is
    # conjugate-symmetric bit for bit, or the mirror of the kernel run on the
    # conjugated magnitudes
    if not jumps:
        return np.zeros(2 * M + 1, dtype=np.complex128)
    real = all(a.imag == 0.0 for _, mags in jumps for a in mags)
    pos = _phi_halves(jumps, powers, M)
    if real:
        return _from_positive_half(0.0, pos)
    conjugated = [(xi, [a.conjugate() for a in mags]) for xi, mags in jumps]
    return _from_positive_half(0.0, pos, _phi_halves(conjugated, powers, M))


def phi_coeff_array(model: JumpModel, M: int) -> np.ndarray:
    """Coefficients c_{-M}..c_M of the piecewise polynomial, ascending k.

    c_0 = 0 by the zero-mean convention of the basis; any DC offset
    belongs to the smooth part.  It shares its kernel (_phi_halves) with
    the polish's band peel: the phases e^{-ik xi} come from the exact
    two-table kernel (_phases) and the powers (ik)^{-(l+1)} (phi_factors) are computed for k = 1..M only,
    once for all jumps.  Every phase is within about an ulp of e^{-ik xi}
    at every k, where cos and sin of the rounded product k xi erred by up
    to eps k |xi|.  The half k < 0 comes from the kernel's positive half,
    c_{-k}(a) = conj(c_k(conj a)): for a real model it is that half's
    conjugate mirror, so the array is conjugate-symmetric bit for bit, and
    for complex magnitudes the mirror of a second run on the conjugated
    magnitudes, with the same powers.  The d+1 powers, d+1 complex
    divisions of length M, depend on (M, d) only and are built once and
    kept, read-only, for the last shape.  Each call then costs, per jump,
    cos and sin of M/64 + 65 table entries, one complex product of length
    M for its phases and about 2(d+1) multiply-adds of length M, doubled
    for complex magnitudes.
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
    M = read_int(M, "M")
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
            return _from_positive_half(0.0, pos)

        mean = float(_bessel_i(amp, 0)[0])
        return SmoothPart(
            "expsin",
            lambda xs, A=amp, m=mean: np.exp(A * np.sin(np.asarray(xs, float))) - m,
            expsin_coeffs,
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
        )
    raise ModelError(f"unknown smooth-part name {name!r}")


def fitted_decay_constant(spectrum: FourierSpectrum, exponent: float) -> float:
    """Smallest R with |c_k| <= R k^{-exponent} over 1 <= k <= M."""
    exponent = read_real(exponent, "exponent")
    ks = np.arange(1, spectrum.M + 1, dtype=float)
    vals = np.abs(spectrum.coeffs[spectrum.M + 1 :])
    return float(np.max(vals * ks**exponent))


def shift_jumps(model: JumpModel, delta: float) -> JumpModel:
    """Translate every jump by delta, wrapping back into [-pi, pi)."""
    delta = read_real(delta, "delta")
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
    M = read_int(M, "M")
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
