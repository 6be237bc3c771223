"""Deterministic simultaneous polynomial root finding.

Aberth-Ehrlich iteration from a fixed initial circle (no randomness, so
repeated runs agree bitwise), followed by a short Newton polish and a
residual acceptance gate.  The extended-precision variant hands the
iteration to mpmath.polyroots and keeps the gate.  Coefficients are given
in descending powers, matching numpy.roots.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from .errors import RootFindError

__all__ = ["find_roots", "find_roots_mp"]

# fixed angular offset of the initial circle; breaks conjugate symmetry
# so symmetric polynomials cannot trap the iteration
_ANGLE_OFFSET = 0.7390851332151607

_RESIDUAL_FACTOR = 1e-11
# a double carries about 16 decimal digits; find_roots_mp tightens the gate
# by one decade for every digit it works with beyond these
_DOUBLE_DIGITS = 16
# mpmath.polyroots iteration budget; its default of 50 assumes good
# starting points, and it starts from a fixed spiral
_MP_MAX_STEPS = 200


def _normalized(c: np.ndarray, lead_tol) -> np.ndarray:
    """c divided by its leading coefficient, after rejecting degenerate input."""
    if c.ndim != 1 or c.size < 2:
        raise RootFindError(f"need a polynomial of degree >= 1, got {c.size} coefficients")
    moduli = [abs(x) for x in c]
    if not all(m < math.inf for m in moduli):
        raise RootFindError("polynomial has non-finite coefficients")
    cmax = max(moduli)
    if cmax == 0:
        raise RootFindError("zero polynomial")
    if abs(c[0]) < lead_tol * cmax:
        raise RootFindError(
            f"vanishing leading coefficient ({float(abs(c[0])):.3e} vs scale "
            f"{float(cmax):.3e})"
        )
    return c / c[0]


def _check_residuals(c: np.ndarray, roots, gate) -> None:
    """Reject roots whose residual exceeds gate x the evaluation's own scale."""
    for z in roots:
        # Horner value and the same recurrence on the moduli
        val, scale, az = c[0], abs(c[0]), abs(z)
        for coeff in c[1:]:
            val = val * z + coeff
            scale = scale * az + abs(coeff)
        # written so that a NaN residual fails the gate too
        if not abs(val) <= gate * max(scale, 1e-300):
            raise RootFindError(
                f"root finding did not converge: residual {float(abs(val)):.3e} "
                f"at z={complex(z):.6g} exceeds gate {float(gate):.1e} x scale "
                f"{float(scale):.3e}"
            )


def find_roots(
    coeffs,
    max_iter: int = 500,
    newton_steps: int = 3,
    residual_factor: float = _RESIDUAL_FACTOR,
) -> np.ndarray:
    """All complex roots of the polynomial with the given coefficients.

    Raises RootFindError for degenerate input (degree < 1 or vanishing
    leading coefficient) and when the residual gate fails after the
    iteration budget.
    """
    c = _normalized(np.asarray(coeffs, dtype=np.complex128), 1e-14)
    deg = c.size - 1
    if deg == 1:
        return np.array([-c[1]], dtype=np.complex128)

    dc = c[:-1] * np.arange(deg, 0, -1)

    radius = float(np.max(np.abs(c[1:]))) ** (1.0 / deg) if np.any(c[1:]) else 1.0
    radius = max(radius, 1e-8)
    angles = 2.0 * np.pi * np.arange(deg) / deg + _ANGLE_OFFSET
    z = radius * np.exp(1j * angles)

    for _ in range(max_iter):
        p = np.polyval(c, z)
        dp = np.polyval(dc, z)
        dp = np.where(np.abs(dp) < 1e-300, 1e-300, dp)
        w = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        denom = 1.0 - w * inv.sum(axis=1)
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        corr = w / denom
        z = z - corr
        if np.max(np.abs(corr)) <= 1e-14 * (1.0 + np.max(np.abs(z))):
            break

    for _ in range(newton_steps):
        p = np.polyval(c, z)
        dp = np.polyval(dc, z)
        safe = np.abs(dp) > 1e-300
        step = np.zeros_like(z)
        step[safe] = p[safe] / dp[safe]
        # keep polish local: a Newton step that jumps far signals a
        # near-multiple root where polishing would hurt
        big = np.abs(step) > 1e-2 * (1.0 + np.abs(z))
        step[big] = 0.0
        z = z - step

    _check_residuals(c, z, residual_factor)
    order = np.lexsort((z.imag.round(10), z.real.round(10)))
    return z[order]


def find_roots_mp(coeffs, prec_dps: int):
    """Extended-precision variant of find_roots using mpmath numbers.

    coeffs is a sequence convertible to mpmath.mpc, descending powers.
    mpmath.polyroots iterates with extra guard bits; its roots pass the
    same scaled residual gate as find_roots, moved to prec_dps digits.
    Returns a list of mpmath roots (real roots first, sorted).
    """
    with mp.workdps(prec_dps):
        c = np.array([mp.mpc(x) for x in coeffs], dtype=object)
        c = _normalized(c, mp.mpf(10) ** (2 - prec_dps))
        try:
            roots = mp.polyroots(list(c), maxsteps=_MP_MAX_STEPS, extraprec=mp.mp.prec)
        except mp.mp.NoConvergence as exc:
            raise RootFindError(f"extended root finding did not converge: {exc}") from exc
        _check_residuals(c, roots, _RESIDUAL_FACTOR * mp.mpf(10) ** (_DOUBLE_DIGITS - prec_dps))
        return roots
