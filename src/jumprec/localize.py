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

import numpy as np

from . import rootfind
from .errors import DetectionError, ModelError, NumericError, read_int, read_real
from .spectrum import FourierSpectrum, product_spectrum, wrap_angle

__all__ = ["prony_order0", "make_bump", "localize_jump"]

# roots whose modulus strays this far from 1 do not represent jumps
_MODULUS_BAND = 0.5

_RANK_TOL = 1e-8

# fewest modes a window is synthesized from
_BUMP_MIN_M = 32

# window plateau gate; loose because small-M runs cannot resolve any
# admissible window to 1e-10 and the leakage is part of the pipeline's own
# error budget
_PLATEAU_TOL = 5e-2

# Kaiser shape parameter at which the window stops gaining digits: its
# sidelobes fall like e^{-beta}, and e^{-38} = 3e-17 sits below double
# rounding, so a degree past the one that reaches it only widens the
# band the windowing reads
_SEPARATION_BETA = 38.0


def prony_order0(spec: FourierSpectrum, K: int) -> list:
    """Approximate all K jump locations from the top-index coefficients.

    Forms first-order moments 2 pi i k c_k on the 4K highest indices,
    solves the monic K-term annihilating polynomial in least squares over
    all Hankel rows, and reads jump locations off the root angles.
    Locations return sorted ascending.
    """
    K = read_int(K, "K")
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


@functools.lru_cache(maxsize=128)
def _window_taper(J: float, M: int, D: int) -> np.ndarray:
    """Read-only cosine coefficients mag_1..mag_D of an admissible window.

    The window centred at 0 is half_ind/pi + 2 sum_k mag_k cos(k x); it
    depends on (J, M, D) and not on the centre, and so does its gate.  The
    series is checked on the 4M points 2 pi j/(4M) of the grid centred on
    the window, one real inverse FFT; NumericError when the plateau or
    support defect exceeds _PLATEAU_TOL.
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
    if max(defect_in, defect_out) > _PLATEAU_TOL:
        raise NumericError(
            f"window too narrow for M={M}: truncated series misses the "
            f"plateau/support conditions by {max(defect_in, defect_out):.3e}"
        )
    mag.flags.writeable = False
    return mag


def _separation_degree(J: float) -> int:
    """The least degree D at which _window_taper's beta reaches 38.

    The taper of a window of half-width J has
    beta = sqrt((J/3 (D+1))^2 - pi^2); this inverts it at
    _SEPARATION_BETA.  It is 80 at J = 0.9 pi/2 and 211 at J = 0.54.
    """
    beta_reach = math.sqrt(_SEPARATION_BETA**2 + math.pi**2)
    return math.ceil(beta_reach / (J / 3.0)) - 1


def make_bump(center: float, J: float, M: int, degree: int) -> FourierSpectrum:
    """Window nonzero coefficients c_{-D}..c_D, a real spectrum of truncation D.

    The window equals 1 on the plateau [center - J/3, center + J/3] and 0
    outside the support [center - J, center + J] (circular).  It is the
    indicator of half-width 2J/3 convolved with a concentrated kernel
    (Kaiser taper of degree D = degree) whose spatial mainlobe fits inside
    J/3, so it is a trigonometric polynomial: multiplying a length-M
    spectrum by it is exact on indices up to M - D, and no truncation
    leakage lands on the sample set.  The plateau and support conditions
    hold to the kernel's sidelobe level, checked on a 4M-point grid
    against _PLATEAU_TOL; NumericError when the degree budget cannot meet
    it.  Callers that sample low spectral indices keep the degree below
    the lowest sample so the window cannot fold the large low-index
    coefficients onto it.

    The taper and its check depend only on (J, M, degree): they run once
    per shape, on the grid centred on the window, and are cached, so
    whether a shape is admissible does not depend on the centre.  Each
    call then applies the centre's D phases.
    """
    center = read_real(center, "center")
    width = read_real(J, "J")
    if not 0.0 < width <= np.pi / 2.0:
        raise ModelError(f"bump half-width must be in (0, pi/2], got {J!r}")
    M, D = read_int(M, "M"), read_int(degree, "degree")
    if M < _BUMP_MIN_M:
        raise ModelError(f"bump synthesis needs M >= {_BUMP_MIN_M}, got M={M}")
    if not 1 <= D <= M:
        raise ModelError(f"window degree {D} must sit in [1, M={M}]")
    mag = _window_taper(width, M, D)

    phases = np.exp(-1j * np.arange(1, D + 1) * center)
    coeffs = np.zeros(2 * D + 1, dtype=np.complex128)
    coeffs[D] = 2.0 * width / 3.0 / np.pi
    coeffs[D + 1 :] = mag * phases
    coeffs[:D] = (mag * np.conj(phases))[::-1]
    return FourierSpectrum(D, coeffs, real_valued=True)


def localize_jump(spec: FourierSpectrum, window: FourierSpectrum, ks) -> np.ndarray:
    """Coefficients of the windowed function at the indices ks, as an array.

    ks are the indices a solver reads (a sample plan's), each at most spec.M
    in modulus; the values come back in their order, and nothing of the
    spectrum's length is built.  Each is the exact convolution of the two
    truncated sequences at that index (product_spectrum's); indices within
    the window degree D of spec.M inherit truncation error from the input's
    unseen tail, which is why sampling plans stay away from them.  The
    window (make_bump's) has 2D+1 coefficients, so the cost is about
    len(ks)(2D+1) multiply-adds.
    """
    return product_spectrum(spec, window, ks)
