"""Truncated Fourier data: containers, partial sums, sample plans, moments.

Conventions used throughout the package: coefficients c_k of a 2pi-periodic
function are indexed k = -M..M and stored in ascending order, so position
k + M holds c_k.  c_k = (1/2pi) * integral_0^{2pi} f(x) exp(-i k x) dx.
Angles, jump locations among them, live in [-pi, pi); wrap_angle and
circular_distance are the package's one circle geometry.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .errors import ModelError, read_int, read_json, write_json

__all__ = [
    "wrap_angle",
    "circular_distance",
    "modulus",
    "moduli",
    "FourierSpectrum",
    "SamplePlan",
    "MomentSequence",
    "uniform_grid",
    "eval_partial_sum",
    "weight_moments",
    "plan_values",
    "product_spectrum",
    "load_spectrum",
    "save_spectrum",
]

# conjugate-symmetry certification tolerance for real_valued inputs
_SYMMETRY_TOL = 1e-14

# entries of eval_partial_sum's phase matrix built at once (8 MiB of
# complex128); 63 rows at M=4096
_PHASE_BLOCK = 2**19


def wrap_angle(x, pi=math.pi):
    """x mapped into [-pi, pi); works on floats, arrays and mpmath numbers.

    Extended-precision callers pass mpmath's pi so the wrap keeps their
    working precision.  A float array takes np.fmod and adds 2pi where the
    remainder is negative: the values np.mod gives, bit for bit (its +0.0
    where fmod gives -0.0 becomes -pi either way), in about half the time.
    """
    if (isinstance(x, np.ndarray) and x.ndim and x.dtype.kind == "f"
            and isinstance(pi, float)):
        r = np.fmod(x + pi, 2 * pi)
        np.add(r, 2 * pi, out=r, where=r < 0.0)
        r -= pi
        return r
    return (x + pi) % (2 * pi) - pi


def circular_distance(a, b, pi=math.pi):
    """Distance between two angles on the circle, in [0, pi]."""
    d = abs(a - b) % (2 * pi)
    return min(d, 2 * pi - d)


def modulus(z):
    """abs(z), or inf where the modulus is past the double range.

    abs() of a Python complex whose parts are finite raises OverflowError
    when the modulus is not representable; numpy.abs gives inf, and so does
    this.  mpmath numbers go to abs() unchanged.
    """
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def moduli(values) -> list:
    """[modulus(z) for z in values], in one abs() pass while none overflows."""
    try:
        return list(map(abs, values))
    except OverflowError:
        return [modulus(z) for z in values]


def _complex_values(values) -> np.ndarray:
    # complex128, unless the values are mpmath numbers of an
    # extended-precision solve, which keep their precision as an object array;
    # a complex128 array, weight_moments' own, is taken as it is
    if type(values) is np.ndarray and values.dtype == np.complex128:
        return values
    arr = np.asarray(values)
    return arr if arr.dtype == object else arr.astype(np.complex128, copy=False)


def _all_finite(arr: np.ndarray) -> bool:
    if arr.dtype == object:
        return all(mp.isfinite(x) for x in arr)
    # counted in C, without the Python-level wrapper of ndarray.all
    return np.count_nonzero(np.isfinite(arr)) == arr.size


def _complex_pairs(pairs) -> np.ndarray:
    # [[re, im], ...] as complex128.  When every pair holds two ints or
    # floats, the two columns are converted in bulk; anything else, a bool
    # or a string among them, goes through the pair-by-pair loop, which
    # names the first bad index
    try:
        re, im = zip(*pairs, strict=True)
        if set(map(type, re)).union(map(type, im)) <= {float, int}:
            out = np.empty(len(re), dtype=np.complex128)
            out.real = re
            out.imag = im
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    values = []
    try:
        for re, im in pairs:
            # complex() takes a bool as 1 or 0; a record's reals may not
            if type(re) is bool or type(im) is bool:
                raise TypeError(f"got [{re!r}, {im!r}]")
            values.append(complex(re, im))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelError(
            "coeffs must be a list of [re, im] pairs of JSON numbers; "
            f"coeffs[{len(values)}]: {exc}"
        ) from exc
    return np.array(values, dtype=np.complex128)


@dataclass(frozen=True)
class FourierSpectrum:
    """Coefficients c_{-M}..c_M of a 2pi-periodic function.

    Parameters
    ----------
    M : int
        Truncation index, M >= 0.
    coeffs : numpy.ndarray
        Complex array of length 2M+1, ascending k.
    real_valued : bool
        Declares the underlying function real; enforced as conjugate
        symmetry c_{-k} == conj(c_k) up to 1e-14 relative to the scale,
        the largest coefficient modulus or 1, whichever is larger.
    """

    M: int
    coeffs: np.ndarray
    real_valued: bool = False

    def __post_init__(self):
        object.__setattr__(self, "M", read_int(self.M, "M"))
        if self.M < 0:
            raise ModelError(f"truncation index must be >= 0, got {self.M}")
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size != 2 * self.M + 1:
            raise ModelError(
                f"need 2M+1 = {2 * self.M + 1} coefficients, got shape {arr.shape}"
            )
        if not _all_finite(arr):
            raise ModelError("spectrum holds non-finite coefficients (NaN or inf)")
        object.__setattr__(self, "coeffs", arr)
        if self.real_valued:
            defect = float(np.max(np.abs(arr[::-1].conj() - arr)))
            scale = float(np.max(np.abs(arr)))
            if defect > _SYMMETRY_TOL * max(scale, 1.0):
                raise ModelError(
                    "real_valued spectrum breaks conjugate symmetry: "
                    f"defect {defect:.3e} at scale {scale:.3e}"
                )

    def coeff(self, k: int) -> complex:
        """Return c_k for -M <= k <= M."""
        if not -self.M <= k <= self.M:
            raise IndexError(f"coefficient index {k} outside [-{self.M}, {self.M}]")
        return complex(self.coeffs[k + self.M])

    def to_json_dict(self) -> dict:
        return {
            "M": self.M,
            "real_valued": self.real_valued,
            "coeffs": np.column_stack((self.coeffs.real, self.coeffs.imag)).tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FourierSpectrum":
        """The spectrum of a record {"M", "real_valued", "coeffs"}.

        A malformed record is a ModelError, and a bad coefficient is named
        by its index, coeffs[i].
        """
        try:
            M = data["M"]
            real_valued = data["real_valued"]
            if not isinstance(real_valued, bool):
                raise ModelError(
                    f"real_valued must be true or false, got real_valued={real_valued!r}"
                )
            pairs = data["coeffs"]
        except (KeyError, TypeError) as exc:
            raise ModelError(f"malformed spectrum record: {exc}") from exc
        return cls(M, _complex_pairs(pairs), real_valued)


@dataclass(frozen=True, init=False)
class SamplePlan:
    """Which moment indices feed the annihilator.

    decimated: {N, 2N, ..., (d+2)N} with N = floor(M/(d+2));
    consecutive: {M-d-1, ..., M}.  Both hold exactly d+2 strictly
    increasing indices in 1..M, computed once per plan.  Plans are
    interned: SamplePlan(kind, d, M) returns the one plan of that shape
    (the last 256 shapes are kept), so the caches keyed by a plan find it
    by identity, without comparing fields.  Equal shapes still compare
    equal.
    """

    kind: str
    d: int
    M: int
    indices: tuple = field(init=False, repr=False, compare=False)

    def __new__(cls, kind: str, d: int, M: int):
        if kind not in ("decimated", "consecutive"):
            raise ModelError(f"unknown plan kind {kind!r}")
        return _interned_plan(kind, read_int(d, "d"), read_int(M, "M"))

    def __reduce__(self):
        return (SamplePlan, (self.kind, self.d, self.M))

    @property
    def stride(self) -> int:
        return self.M // (self.d + 2) if self.kind == "decimated" else 1

    @property
    def base_index(self) -> int:
        if self.kind == "decimated":
            return self.M // (self.d + 2)
        return self.M - self.d - 1


@functools.lru_cache(maxsize=256)
def _interned_plan(kind: str, d: int, M: int) -> SamplePlan:
    if d < 0:
        raise ModelError(f"plan order must be >= 0, got {d}")
    if M < d + 2:
        raise ModelError(f"M={M} cannot host d+2 = {d + 2} sample indices")
    plan = object.__new__(SamplePlan)
    for name, value in (("kind", kind), ("d", d), ("M", M)):
        object.__setattr__(plan, name, value)
    s, b = plan.stride, plan.base_index
    object.__setattr__(plan, "indices", tuple(b + j * s for j in range(d + 2)))
    return plan


@dataclass(frozen=True)
class MomentSequence:
    """Weighted moments m_k of order plan.d at the indices of a sample plan.

    values are complex128, or mpmath numbers for an extended-precision solve.
    """

    plan: SamplePlan
    values: np.ndarray

    def __post_init__(self):
        vals = _complex_values(self.values)
        if vals.ndim != 1 or vals.size != len(self.plan.indices):
            raise ModelError("moment indices and values disagree in length")
        if not _all_finite(vals):
            raise ModelError("moments hold non-finite values (NaN or inf)")
        object.__setattr__(self, "values", vals)

    @property
    def order(self) -> int:
        return self.plan.d

    @property
    def indices(self) -> tuple:
        return self.plan.indices


def _finite_points(x) -> np.ndarray:
    # the points as a float array of at least one dimension; NaN or inf is
    # a ModelError naming the first one, by its flat index
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    finite = np.isfinite(xs)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ModelError(
            f"evaluation points must be finite, got x[{i}]={float(xs.flat[i])!r}"
        )
    return xs


def uniform_grid(G: int) -> np.ndarray:
    """The G points x_j = -pi + 2pi j/G, j = 0..G-1, of [-pi, pi)."""
    return -np.pi + 2.0 * np.pi * np.arange(G) / G


def eval_partial_sum(spectrum: FourierSpectrum, x) -> np.ndarray:
    """Evaluate sum_{|k|<=M} c_k exp(i k x) at the points x.

    Returns real values when the spectrum is declared real_valued, complex
    otherwise, in the shape of the points: a scalar or an array of any
    shape.  NaN or inf among the points is a ModelError naming the first
    one.  A 1-D array equal to uniform_grid(G) takes one inverse FFT of
    length G, O(M + G log G): there
    exp(i k x_j) = (-1)^k exp(2pi i (k mod G) j/G), so the signed
    coefficients fold into G bins by k mod G, which is exact for any G,
    below 2M+1 as well.  The fold copies the coefficients once into a
    zero-padded buffer whose rows of G entries each hold one period of
    k mod G, negates the odd k with one strided slice and sums the rows.
    Other points sum the 2M+1 modes directly, with the phase matrix built
    in row blocks of at most 2^19 entries, so memory stays bounded for any
    number of points.
    """
    xs = _finite_points(x)
    if np.ndim(x) == 1 and xs.size and np.array_equal(xs, uniform_grid(xs.size)):
        out = _grid_sum(spectrum, xs.size)
    else:
        out = _direct_sum(spectrum, xs)
    if spectrum.real_valued:
        out = out.real
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return out[0]
    return out


def _grid_sum(spectrum: FourierSpectrum, G: int) -> np.ndarray:
    # the coefficients sit in a zero-padded buffer that starts at the
    # multiple of G at or below -M, so each row of G entries is one whole
    # period of k mod G; the odd k are negated in place by one strided
    # slice, the rows are summed in ascending k, and one inverse FFT follows
    M, n = spectrum.M, spectrum.coeffs.size
    pad = (-M) % G
    rows = -(-(pad + n) // G)
    buf = np.zeros(rows * G, dtype=np.complex128)
    buf[pad : pad + n] = spectrum.coeffs
    odd = buf[pad + (M + 1) % 2 : pad + n : 2]
    np.negative(odd, out=odd)
    return G * np.fft.ifft(buf.reshape(rows, G).sum(axis=0))


def _direct_sum(spectrum: FourierSpectrum, xs: np.ndarray) -> np.ndarray:
    # all 2M+1 modes at each point, phase matrix in row blocks over the
    # flattened points; the sums come back in the points' shape
    ks = np.arange(-spectrum.M, spectrum.M + 1)
    rows = max(1, _PHASE_BLOCK // ks.size)
    flat = xs.ravel()
    out = np.empty(flat.size, dtype=np.complex128)
    for i in range(0, flat.size, rows):
        phases = np.exp(1j * np.outer(flat[i : i + rows], ks))
        out[i : i + rows] = phases @ spectrum.coeffs
    return out.reshape(xs.shape)


@functools.lru_cache(maxsize=64)
def _moment_weights(plan: SamplePlan) -> tuple:
    # 2pi (ik)^{d+1} at the plan's indices, on Python numbers, in that order
    power = plan.d + 1
    return tuple(2.0 * np.pi * (1j * k) ** power for k in plan.indices)


def weight_moments(plan: SamplePlan, values) -> MomentSequence:
    """Form m_k = 2pi (ik)^{d+1} c_k from the values c_k at the plan's indices.

    values holds c_k for k in plan.indices, in that order (plan_values'
    gather of a spectrum, or windowed values).  The one moment formula of
    every double solve: each moment is formed on Python numbers, in the
    order 2pi, then (ik)^{d+1}, then c_k.
    """
    cs = np.asarray(values, dtype=np.complex128)
    if cs.shape != (len(plan.indices),):
        raise ModelError("moment indices and values disagree in length")
    return MomentSequence(plan, np.array(
        list(map(operator.mul, _moment_weights(plan), cs.tolist())), dtype=np.complex128
    ))


def plan_values(spectrum: FourierSpectrum, plan: SamplePlan) -> np.ndarray:
    """The coefficients c_k at the plan's indices, in order, by one gather.

    ModelError when the plan reaches past the spectrum's M, also where its
    indices would fit.
    """
    if plan.M > spectrum.M:
        raise ModelError(f"usable M={plan.M} exceeds spectrum M={spectrum.M}")
    return spectrum.coeffs[np.array(plan.indices, dtype=np.int64) + spectrum.M]


def product_spectrum(a: FourierSpectrum, b: FourierSpectrum, ks) -> np.ndarray:
    """Coefficients of the pointwise product at the integer indices ks.

    Each c_k = sum_m a_{k-m} b_m is one dot product over the nonzero
    coefficients of b, exact for the truncated sequences; indices of a past
    a.M count as zero.  Every |k| must be at most a.M, so an output index
    has its full set of contributing terms from the shorter factor.  The
    cost is len(ks) times the number of nonzero coefficients of b: pass the
    narrow factor (a window) as b.  The terms are gathered from a in place,
    or from a zero-padded copy of the slice they read when that slice
    passes a.M.  ks may be unsorted and repeat; the result is a complex
    array in the order of ks.
    """
    ks = np.asarray(ks)
    if ks.ndim != 1 or (ks.size and ks.dtype.kind not in "iu"):
        raise ModelError(f"product indices must be a 1-D integer list, got {ks!r}")
    kl = ks.tolist()
    past = [k for k in kl if abs(k) > a.M]
    if past:
        raise ModelError(f"product index {past[0]} exceeds first factor M={a.M}")
    nz = b.coeffs.nonzero()[0]
    if not (kl and nz.size):
        return np.zeros(len(kl), dtype=np.complex128)
    # the outputs read a_{k-m} for the nonzero b_m, k - m in lo..hi; a
    # range inside a is read in place, one past a.M from a zero-padded copy
    lo = min(kl) - (int(nz[-1]) - b.M)
    hi = max(kl) - (int(nz[0]) - b.M)
    if -a.M <= lo and hi <= a.M:
        need, base = a.coeffs, a.M
    else:
        need, base = np.zeros(hi - lo + 1, dtype=np.complex128), -lo
        start, stop = max(lo, -a.M), min(hi, a.M)
        if start <= stop:
            need[start - lo : stop - lo + 1] = a.coeffs[start + a.M : stop + a.M + 1]
    gather = np.add.outer(ks.astype(np.int64, copy=False), base + b.M - nz)
    return need[gather] @ b.coeffs[nz]


def load_spectrum(path) -> FourierSpectrum:
    """The spectrum record in the JSON file at path.

    The record is {"M": int, "real_valued": bool, "coeffs": [[re, im], ...]}
    with 2M+1 pairs in ascending k.  A malformed record, a bool or a string
    among the coefficients included, is a ModelError; an unreadable file or
    text that is not JSON raises OSError or ValueError.
    """
    return FourierSpectrum.from_json_dict(read_json(path))


def save_spectrum(path, spectrum: FourierSpectrum) -> None:
    """Write spectrum as a one-line JSON record, the text in one call.

    Every coefficient is written as the shortest repr of its double, so
    load_spectrum gives back the same bits, -0.0 and subnormals included.
    """
    write_json(path, spectrum.to_json_dict())
