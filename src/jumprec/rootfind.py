"""Polynomial root finding behind one residual acceptance gate.

Double precision uses numpy.roots, extended precision mpmath.polyroots.
Both normalize the polynomial by its leading coefficient first and accept
the roots only if each one's residual is small against the scale of its
own evaluation.  Coefficients are given in descending powers, matching
numpy.roots.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from .errors import RootFindError

__all__ = ["find_roots", "find_roots_mp"]

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
    # the zero test matters when lead_tol * cmax underflows to 0
    if moduli[0] == 0 or moduli[0] < lead_tol * cmax:
        raise RootFindError(
            f"vanishing leading coefficient ({float(moduli[0]):.3e} vs scale "
            f"{float(cmax):.3e})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out = c / c[0]
    if not all(abs(x) < math.inf for x in out):
        raise RootFindError("polynomial has non-finite coefficients after normalization")
    return out


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


def find_roots(coeffs) -> np.ndarray:
    """All complex roots of the polynomial with the given coefficients.

    numpy.roots (eigenvalues of the companion matrix) on the normalized
    polynomial; roots return in lexicographic (real, imag) order.
    Raises RootFindError for degenerate input (degree < 1 or vanishing
    leading coefficient) and when a root fails the residual gate.
    """
    c = _normalized(np.asarray(coeffs, dtype=np.complex128), 1e-14)
    try:
        z = np.roots(c)
    except np.linalg.LinAlgError as exc:
        raise RootFindError(f"root finding did not converge: {exc}") from exc
    _check_residuals(c, z, _RESIDUAL_FACTOR)
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
