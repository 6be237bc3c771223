"""Truncated Fourier data: containers, partial sums, weighted moments.

Conventions used throughout the package: coefficients c_k of a 2pi-periodic
function are indexed k = -M..M and stored in ascending order, so position
k + M holds c_k.  c_k = (1/2pi) * integral_0^{2pi} f(x) exp(-i k x) dx.
Angles, jump locations among them, live in [-pi, pi); wrap_angle and
circular_distance are the package's one circle geometry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import mpmath as mp
import numpy as np

from .errors import ModelError

__all__ = [
    "wrap_angle",
    "circular_distance",
    "FourierSpectrum",
    "MomentSequence",
    "uniform_grid",
    "eval_partial_sum",
    "weight_moments",
    "product_spectrum",
    "coeffs_of_function",
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
    working precision.
    """
    return (x + pi) % (2 * pi) - pi


def circular_distance(a, b, pi=math.pi):
    """Distance between two angles on the circle, in [0, pi]."""
    d = abs(a - b) % (2 * pi)
    return min(d, 2 * pi - d)


def _complex_values(values) -> np.ndarray:
    # complex128, unless the values are mpmath numbers of an
    # extended-precision solve, which keep their precision as an object array
    arr = np.asarray(values)
    return arr if arr.dtype == object else arr.astype(np.complex128, copy=False)


def _all_finite(arr: np.ndarray) -> bool:
    if arr.dtype == object:
        return all(mp.isfinite(x) for x in arr)
    return bool(np.all(np.isfinite(arr)))


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
        symmetry c_{-k} == conj(c_k) up to 1e-14 relative to the scale.
    """

    M: int
    coeffs: np.ndarray
    real_valued: bool = False

    def __post_init__(self):
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
            scale = float(np.max(np.abs(arr))) or 1.0
            defect = float(np.max(np.abs(arr[::-1].conj() - arr)))
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
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FourierSpectrum":
        try:
            M = int(data["M"])
            real_valued = bool(data["real_valued"])
            pairs = data["coeffs"]
            arr = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelError(f"malformed spectrum record: {exc}") from exc
        return cls(M, arr, real_valued)


@dataclass(frozen=True)
class MomentSequence:
    """Weighted moments m_k at a strictly increasing set of positive indices.

    values are complex128, or mpmath numbers for an extended-precision solve.
    """

    order: int
    indices: tuple
    values: np.ndarray

    def __post_init__(self):
        if self.order < 0:
            raise ModelError(f"moment order must be >= 0, got {self.order}")
        idx = tuple(int(k) for k in self.indices)
        vals = _complex_values(self.values)
        if vals.ndim != 1 or vals.size != len(idx):
            raise ModelError("moment indices and values disagree in length")
        if not _all_finite(vals):
            raise ModelError("moments hold non-finite values (NaN or inf)")
        if any(k <= 0 for k in idx):
            raise ModelError(f"moment indices must be positive, got {idx}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ModelError(f"moment indices must be strictly increasing, got {idx}")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)


def uniform_grid(G: int) -> np.ndarray:
    """The G points x_j = -pi + 2pi j/G, j = 0..G-1, of [-pi, pi)."""
    return -np.pi + 2.0 * np.pi * np.arange(G) / G


def eval_partial_sum(spectrum: FourierSpectrum, x) -> np.ndarray:
    """Evaluate sum_{|k|<=M} c_k exp(i k x) at the points x.

    Returns real values when the spectrum is declared real_valued, complex
    otherwise.  Accepts scalars or arrays.  A 1-D array equal to
    uniform_grid(G) takes one inverse FFT of length G, O(M + G log G):
    there exp(i k x_j) = (-1)^k exp(2pi i (k mod G) j/G), so the signed
    coefficients fold into G bins by k mod G, which is exact for any G,
    below 2M+1 as well.  Other points sum the 2M+1 modes directly, with the
    phase matrix built in row blocks of at most 2^19 entries, so memory
    stays bounded for any number of points.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
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
    # sign (-1)^k, fold by k mod G, one inverse FFT
    ks = np.arange(-spectrum.M, spectrum.M + 1)
    signed = np.where(ks % 2 == 0, spectrum.coeffs, -spectrum.coeffs)
    bins = ks % G
    folded = np.bincount(bins, signed.real, G) + 1j * np.bincount(bins, signed.imag, G)
    return G * np.fft.ifft(folded)


def _direct_sum(spectrum: FourierSpectrum, xs: np.ndarray) -> np.ndarray:
    # all 2M+1 modes at each point, phase matrix in row blocks
    ks = np.arange(-spectrum.M, spectrum.M + 1)
    rows = max(1, _PHASE_BLOCK // ks.size)
    out = np.empty(xs.size, dtype=np.complex128)
    for i in range(0, xs.size, rows):
        phases = np.exp(1j * np.outer(xs[i : i + rows], ks))
        out[i : i + rows] = phases @ spectrum.coeffs
    return out


def weight_moments(
    spectrum: FourierSpectrum, order: int, indices: Iterable[int]
) -> MomentSequence:
    """Form m_k = 2pi (ik)^{order+1} c_k at the given positive indices."""
    idx = tuple(int(k) for k in indices)
    if order < 0:
        raise ModelError(f"moment order must be >= 0, got {order}")
    for k in idx:
        if k <= 0:
            raise ModelError(f"moment index {k} must be positive")
        if k > spectrum.M:
            raise ModelError(f"moment index {k} exceeds truncation M={spectrum.M}")
    vals = np.array(
        [2.0 * np.pi * (1j * k) ** (order + 1) * spectrum.coeff(k) for k in idx],
        dtype=np.complex128,
    )
    return MomentSequence(order, idx, vals)


def product_spectrum(a: FourierSpectrum, b: FourierSpectrum, ks) -> np.ndarray:
    """Coefficients of the pointwise product at the integer indices ks.

    Each c_k = sum_m a_{k-m} b_m is one dot product over the nonzero
    coefficients of b, exact for the truncated sequences; indices of a past
    a.M count as zero.  Every |k| must be at most a.M, so an output index
    has its full set of contributing terms from the shorter factor.  The
    cost is len(ks) times the number of nonzero coefficients of b, plus one
    copy of the slice of a the outputs read: pass the narrow factor (a
    window) as b.  ks may be unsorted and repeat; the result is a complex
    array in the order of ks.
    """
    ks = np.asarray(ks)
    if ks.ndim != 1 or (ks.size and not np.issubdtype(ks.dtype, np.integer)):
        raise ModelError(f"product indices must be a 1-D integer list, got {ks!r}")
    ks = ks.astype(np.int64)
    past = ks[np.abs(ks) > a.M]
    if past.size:
        raise ModelError(f"product index {past[0]} exceeds first factor M={a.M}")
    nz = np.flatnonzero(b.coeffs)
    if not (ks.size and nz.size):
        return np.zeros(ks.size, dtype=np.complex128)
    m = nz - b.M
    # the slice of a the outputs read, zero-padded past a.M, gathered once
    lo = int(ks.min() - m[-1])
    hi = int(ks.max() - m[0])
    need = np.zeros(hi - lo + 1, dtype=np.complex128)
    start, stop = max(lo, -a.M), min(hi, a.M)
    if start <= stop:
        need[start - lo : stop - lo + 1] = a.coeffs[start + a.M : stop + a.M + 1]
    return need[ks[:, None] - m - lo] @ b.coeffs[nz]


def coeffs_of_function(
    func: Callable[[np.ndarray], np.ndarray], M: int, oversample: int = 8
) -> np.ndarray:
    """Coefficients c_{-M}..c_M of a smooth 2pi-periodic function via FFT.

    Spectrally accurate for smooth integrands; oversample controls the
    alias guard (P = oversample * max(M,1) sample points, P > 2M required).
    """
    P = max(oversample * max(M, 1), 2 * M + 2)
    xs = 2.0 * np.pi * np.arange(P) / P
    samples = np.asarray(func(xs), dtype=np.complex128)
    hat = np.fft.fft(samples) / P
    out = np.empty(2 * M + 1, dtype=np.complex128)
    for k in range(-M, M + 1):
        out[k + M] = hat[k % P]
    return out


def load_spectrum(path) -> FourierSpectrum:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return FourierSpectrum.from_json_dict(data)


def save_spectrum(path, spectrum: FourierSpectrum) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spectrum.to_json_dict(), fh)
        fh.write("\n")
