"""Coarse jump detection and spectral isolation of individual jumps.

Detection runs classical Prony on first-order moments of the top
coefficients and is accurate to O(1/M).  Isolation multiplies the
function by a smooth bump (in the Fourier domain: convolution of the
truncated sequences) so each jump can be treated as a one-jump problem.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import rootfind
from .errors import DetectionError, ModelError, NumericError
from .spectrum import FourierSpectrum, product_spectrum, wrap_angle

__all__ = ["BumpSpec", "prony_order0", "make_bump", "localize_jump"]

# roots whose modulus strays this far from 1 do not represent jumps
_MODULUS_BAND = 0.5

_RANK_TOL = 1e-8

# fewest modes a window is synthesized from
_BUMP_MIN_M = 32


def prony_order0(spec: FourierSpectrum, K: int) -> list:
    """Approximate all K jump locations from the top-index coefficients.

    Forms first-order moments 2 pi i k c_k on the 4K highest indices,
    solves the monic K-term annihilating polynomial in least squares over
    all Hankel rows, and reads jump locations off the root angles.
    Locations return sorted ascending.
    """
    if K < 1:
        raise ModelError(f"detection needs K >= 1, got {K}")
    tail = 4 * K
    if tail > spec.M:
        raise ModelError(f"detection needs M >= 4K = {tail}, got M={spec.M}")
    k0 = spec.M - tail + 1
    ks = np.arange(k0, spec.M + 1)
    y = 2.0 * np.pi * 1j * ks * spec.coeffs[k0 + spec.M : 2 * spec.M + 1]

    hankel = np.array([y[t : t + K + 1] for t in range(tail - K)])
    svals = np.linalg.svd(hankel, compute_uv=False)
    smax = float(svals[0]) if svals.size else 0.0
    rank = int(np.sum(svals > _RANK_TOL * max(smax, 1e-300)))
    if smax == 0.0 or rank < K:
        raise DetectionError(
            f"detection found numerical rank {min(rank, K)} < expected {K}",
            rank=min(rank, K),
            expected=K,
        )

    A = hankel[:, :K]
    b = -hankel[:, K]
    p, *_ = np.linalg.lstsq(A, b, rcond=None)
    coeffs = np.concatenate(([1.0 + 0.0j], p[::-1]))
    roots = rootfind.find_roots(coeffs)
    good = [r for r in roots if abs(abs(r) - 1.0) < _MODULUS_BAND]
    if len(good) < K:
        raise DetectionError(
            f"only {len(good)} of {K} detection roots sit near the unit circle",
            rank=len(good),
            expected=K,
        )
    # keep the K closest to the circle, then read angles
    good.sort(key=lambda r: abs(abs(r) - 1.0))
    locs = sorted(wrap_angle(-cmath.phase(r)) for r in good[:K])
    return locs


@dataclass(frozen=True)
class BumpSpec:
    """Smooth window equal to 1 near its center and 0 away from it.

    Plateau [center - J/3, center + J/3], support [center - J, center + J]
    (circular), with a fixed 1/3 plateau fraction.  The window is a
    trigonometric polynomial, so profile and the truncated series are the
    same function; the plateau/support conditions hold up to the design
    sidelobe level reported by the constructor's gate.  spectrum holds the
    coefficients on -M..M; band holds the same nonzero coefficients
    c_{-D}..c_D as a spectrum of truncation D, the window degree, and is
    what localize_jump convolves with.
    """

    center: float
    half_width: float
    spectrum: FourierSpectrum
    profile: Callable[[np.ndarray], np.ndarray]
    band: FourierSpectrum
    plateau_fraction: float = 1.0 / 3.0


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _finite_real(value) -> Optional[float]:
    # value as a float, or None unless it is a finite real number
    try:
        return float(value) if math.isfinite(value) else None
    except TypeError:
        return None


@functools.lru_cache(maxsize=128)
def _window_taper(J: float, M: int, D: int, plateau_tol: float) -> np.ndarray:
    """Read-only cosine coefficients mag_1..mag_D of an admissible window.

    The window centred at 0 is half_ind/pi + 2 sum_k mag_k cos(k x); it
    depends on (J, M, D) and not on the centre, and so does its gate.  The
    series is checked on the 4M points 2 pi j/(4M) of the grid centred on
    the window, one real inverse FFT; NumericError when the plateau or
    support defect exceeds plateau_tol.
    """
    inner = J / 3.0
    half_ind = 2.0 * J / 3.0
    # Kaiser shape parameter: put the kernel's first spatial null at the
    # transition half-width J/3; cap beta before I0 overflows (sidelobes
    # are far below machine precision by then)
    beta_sq = (inner * (D + 1)) ** 2 - np.pi**2
    beta = min(math.sqrt(beta_sq) if beta_sq > 0.0 else 0.0, 700.0)
    ks = np.arange(1, D + 1)
    taper = np.i0(beta * np.sqrt(1.0 - (ks / (D + 1)) ** 2)) / np.i0(beta)
    mag = np.sin(ks * half_ind) / (np.pi * ks) * taper

    P = 4 * M
    cosine = np.zeros(P // 2 + 1)
    cosine[0] = half_ind / np.pi
    cosine[1 : D + 1] = mag
    series = np.fft.irfft(cosine, P) * P
    u = np.abs(wrap_angle(2.0 * np.pi * np.arange(P) / P))
    plateau = u <= inner
    outside = u >= J
    defect_in = float(np.max(np.abs(series[plateau] - 1.0))) if plateau.any() else 0.0
    defect_out = float(np.max(np.abs(series[outside]))) if outside.any() else 0.0
    if max(defect_in, defect_out) > plateau_tol:
        raise NumericError(
            f"window too narrow for M={M}: truncated series misses the "
            f"plateau/support conditions by {max(defect_in, defect_out):.3e}"
        )
    mag.flags.writeable = False
    return mag


def make_bump(
    center: float,
    J: float,
    M: int,
    plateau_tol: float = 1e-10,
    degree: Optional[int] = None,
) -> BumpSpec:
    """Build the window as a trigonometric polynomial (default degree M//4).

    The window is the indicator of half-width 2J/3 convolved with a
    concentrated kernel (Kaiser taper of the given degree) whose spatial
    mainlobe fits inside J/3.  Band-limiting means multiplying a
    length-M spectrum by this window is exact on indices up to
    M - degree, so no truncation leakage lands on the sample set; the
    plateau and support conditions hold to the kernel's sidelobe level,
    checked on a 4M-point grid against plateau_tol.  The default 1e-10
    needs enough degree budget (roughly M >= 150 at J = pi/2); pipeline
    callers working at small M or small degree pass a looser gate and
    absorb the defect into their own error budget.  Callers that sample
    low spectral indices keep the degree below the lowest sample so the
    window cannot fold the large low-index coefficients onto it.

    The taper and its check depend only on (J, M, degree, plateau_tol):
    they run once per shape, on the grid centred on the window, and are
    cached, so whether a shape is admissible does not depend on the
    centre.  Each call then applies the centre's D phases.
    """
    if _finite_real(center) is None:
        raise ModelError(f"bump center must be a finite real number, got {center!r}")
    center = float(center)
    width = _finite_real(J)
    if width is None or not 0.0 < width <= np.pi / 2.0:
        raise ModelError(f"bump half-width must be in (0, pi/2], got {J!r}")
    if not _is_int(M) or M < _BUMP_MIN_M:
        raise ModelError(
            f"bump synthesis needs an integer M >= {_BUMP_MIN_M}, got M={M!r}"
        )
    tol = _finite_real(plateau_tol)
    if tol is None or tol <= 0.0:
        raise ModelError(
            f"plateau tolerance must be finite and positive, got {plateau_tol!r}"
        )
    if degree is not None and not _is_int(degree):
        raise ModelError(f"window degree must be an integer, got degree={degree!r}")
    M = int(M)
    D = M // 4 if degree is None else int(degree)
    if not 1 <= D <= M:
        raise ModelError(f"window degree {D} must sit in [1, M={M}]")
    mag = _window_taper(width, M, D, tol)

    ks = np.arange(1, D + 1)
    c0 = 2.0 * width / 3.0 / np.pi
    coeffs = np.zeros(2 * M + 1, dtype=np.complex128)
    coeffs[M] = c0
    phases = np.exp(-1j * ks * center)
    coeffs[M + 1 : M + D + 1] = mag * phases
    coeffs[M - D : M] = (mag * np.conj(phases))[::-1]
    spectrum = FourierSpectrum(M, coeffs, real_valued=True)
    band = FourierSpectrum(D, coeffs[M - D : M + D + 1], real_valued=True)

    def profile(xs, c=center, m=mag, kk=ks):
        x = np.asarray(xs, dtype=float)
        scalar = x.ndim == 0
        vals = c0 + 2.0 * (np.cos(np.outer(np.atleast_1d(x) - c, kk)) @ m)
        return float(vals[0]) if scalar else vals

    return BumpSpec(center, width, spectrum, profile, band)


def localize_jump(spec: FourierSpectrum, bump: BumpSpec, ks) -> FourierSpectrum:
    """Coefficients of the windowed function at the indices ks, zero elsewhere.

    ks are the indices a solver reads (a sample plan's), each at most spec.M
    in modulus.  Each is the exact convolution of the two truncated
    sequences at that index; indices within the window degree D of spec.M
    inherit truncation error from the input's unseen tail, which is why
    sampling plans stay away from them.  The window has 2D+1 nonzero
    coefficients, so the cost is about len(ks)(2D+1) multiply-adds.  The
    result is not declared real_valued: its zeros break conjugate symmetry.
    """
    values = product_spectrum(spec, bump.band, ks)
    out = np.zeros(2 * spec.M + 1, dtype=np.complex128)
    out[np.asarray(ks, dtype=np.int64) + spec.M] = values
    return FourierSpectrum(spec.M, out)
