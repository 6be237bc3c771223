"""Polynomial root finding behind one residual acceptance gate.

Double precision takes the eigenvalues of the companion matrix with
numpy.linalg.eigvals, the matrix numpy.roots builds, and extended precision
uses mpmath.polyroots.  Both normalize the polynomial by its leading
coefficient first and accept the roots only if each one's residual is
small against the scale of its own evaluation.  The checks run on Python
numbers (one .tolist() per array): the polynomials here have a handful of
coefficients, where numpy's per-call overhead costs more than the
arithmetic.  The moduli of each coefficient list are taken in one pass;
those of the normalized list both check it and scale the gate.
Coefficients are given in descending powers, matching numpy.roots.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp
import numpy as np

from .errors import RootFindError
from .spectrum import moduli, modulus

__all__ = ["find_roots", "find_roots_mp"]

_RESIDUAL_FACTOR = 1e-11
# a double carries about 16 decimal digits; find_roots_mp tightens the gate
# by one decade for every digit it works with beyond these
_DOUBLE_DIGITS = 16
# mpmath.polyroots iteration budget; its default of 50 assumes good
# starting points, and it starts from a fixed spiral
_MP_MAX_STEPS = 200


def _normalized(c: np.ndarray, lead_tol):
    """c over its leading coefficient: the array, its list and their moduli.

    Degenerate input is rejected first.  The division stays in numpy: its
    complex division is the one numpy.roots applies to the normalized
    coefficients, and it does not give exactly 1 at the top.  The moduli
    of each list are taken once: the returned ones scale the residual gate.
    """
    if c.ndim != 1 or c.size < 2:
        raise RootFindError(f"need a polynomial of degree >= 1, got {c.size} coefficients")
    sizes = moduli(c.tolist())
    if not all(m < math.inf for m in sizes):
        raise RootFindError("polynomial has non-finite coefficients")
    cmax = max(sizes)
    if cmax == 0:
        raise RootFindError("zero polynomial")
    # the zero test matters when lead_tol * cmax underflows to 0
    if sizes[0] == 0 or sizes[0] < lead_tol * cmax:
        raise RootFindError(
            f"vanishing leading coefficient ({float(sizes[0]):.3e} vs scale "
            f"{float(cmax):.3e})"
        )
    if c.dtype == np.complex128 and 1e-290 < cmax < 1e290:
        # the check above bounds every quotient by 1 / lead_tol, and with
        # every modulus in this range no step of numpy's complex division
        # overflows: there is no warning to silence
        out = c / c[0]
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            out = c / c[0]
    values = out.tolist()
    sizes = moduli(values)
    if not all(m < math.inf for m in sizes):
        raise RootFindError("polynomial has non-finite coefficients after normalization")
    return out, values, sizes


def _check_residuals(c: list, sizes: list, roots: list, gate) -> None:
    """Reject roots whose residual exceeds gate x the evaluation's own scale.

    sizes are the moduli of the coefficients c.
    """
    terms = list(zip(c[1:], sizes[1:]))
    for z, az in zip(roots, moduli(roots)):
        # Horner value and the same recurrence on the moduli
        val, scale = c[0], sizes[0]
        for coeff, m in terms:
            val = val * z + coeff
            scale = scale * az + m
        # written so that a NaN residual fails the gate too
        residual = modulus(val)
        if not residual <= gate * max(scale, 1e-300):
            raise RootFindError(
                f"root finding did not converge: residual {float(residual):.3e} "
                f"at z={complex(z):.6g} exceeds gate {float(gate):.1e} x scale "
                f"{float(scale):.3e}"
            )


@functools.lru_cache(maxsize=32)
def _subdiagonal(n: int) -> np.ndarray:
    # the n x n companion matrix's template, ones below the diagonal, read-only
    arr = np.zeros((n, n), dtype=np.complex128)
    arr.flat[n :: n + 1] = 1.0
    arr.flags.writeable = False
    return arr


def find_roots(coeffs) -> np.ndarray:
    """All complex roots of the polynomial with the given coefficients.

    The roots numpy.roots gives for the normalized polynomial, bit for bit:
    a zero root for each trailing zero coefficient, and the eigenvalues of
    the companion matrix (first row -c[1:] / c[0], ones below the
    diagonal) of the rest, by numpy.linalg.eigvals.  Roots return as a
    complex array in lexicographic order of (real, imag) rounded to 10
    decimals.  Raises RootFindError for degenerate input (degree < 1 or
    vanishing leading coefficient) and when a root fails the residual gate.
    """
    c, values, sizes = _normalized(np.asarray(coeffs, dtype=np.complex128), 1e-14)
    n = len(values) - 1
    while values[n] == 0:
        n -= 1
    roots = [0j] * (len(values) - 1 - n)
    if n:
        companion = _subdiagonal(n).copy()
        companion[0] = -c[1 : n + 1] / c[0]
        try:
            roots = np.linalg.eigvals(companion).tolist() + roots
        except np.linalg.LinAlgError as exc:
            raise RootFindError(f"root finding did not converge: {exc}") from exc
    _check_residuals(values, sizes, roots, _RESIDUAL_FACTOR)
    # numpy's round(10) of each part: scale, round half to even, unscale
    roots.sort(key=lambda z: (round(z.real * 1e10) / 1e10, round(z.imag * 1e10) / 1e10))
    return np.array(roots, dtype=np.complex128)


def find_roots_mp(coeffs, prec_dps: int):
    """Extended-precision variant of find_roots using mpmath numbers.

    coeffs is a sequence convertible to mpmath.mpc, descending powers.
    mpmath.polyroots iterates with extra guard bits; its roots pass the
    same scaled residual gate as find_roots, moved to prec_dps digits.
    Returns a list of mpmath roots (real roots first, sorted).
    """
    with mp.workdps(prec_dps):
        c = np.array([mp.mpc(x) for x in coeffs], dtype=object)
        _, c, sizes = _normalized(c, mp.mpf(10) ** (2 - prec_dps))
        try:
            roots = mp.polyroots(c, maxsteps=_MP_MAX_STEPS, extraprec=mp.mp.prec)
        except mp.mp.NoConvergence as exc:
            raise RootFindError(f"extended root finding did not converge: {exc}") from exc
        gate = _RESIDUAL_FACTOR * mp.mpf(10) ** (_DOUBLE_DIGITS - prec_dps)
        _check_residuals(c, sizes, roots, gate)
        return roots
