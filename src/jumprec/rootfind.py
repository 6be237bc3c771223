"""Polynomial root finding behind one residual acceptance gate.

Double precision takes the eigenvalues of the companion matrix with
numpy.linalg.eigvals, the matrix numpy.roots builds, and extended precision
uses mpmath.polyroots, started from those same eigenvalues for the
polynomial rounded to double: Durand-Kerner converges quadratically from a
start accurate to double precision, where its default spiral start takes
several times the steps.  When the rounded polynomial has no finite
eigenvalues, or the warm start does not converge within its short budget,
polyroots runs again from its default start.  Both finders normalize the
polynomial by its leading coefficient first, take each trailing zero
coefficient as an exact zero root, return the roots in one order and
accept them only if each one's residual is small against the scale of
its own evaluation.  The
checks run on Python numbers (one .tolist() per array): the polynomials
here have a handful of coefficients, where numpy's per-call overhead costs
more than the arithmetic.  The moduli of each coefficient list are taken in
one pass; those of the normalized list both check it and scale the gate.
Coefficients are given in descending powers, matching numpy.roots; one that
is not a number is a ModelError.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers

import mpmath as mp
import numpy as np

from .errors import ModelError, RootFindError
from .spectrum import moduli, modulus

__all__ = ["find_roots", "find_roots_mp"]

_RESIDUAL_FACTOR = 1e-11
# a double carries about 16 decimal digits; find_roots_mp tightens the gate
# by one decade for every digit it works with beyond these
_DOUBLE_DIGITS = 16
# mpmath.polyroots iteration budget from its default start, a fixed spiral
# that knows nothing of the roots; mpmath's own default of 50 assumes good
# starting points
_MP_MAX_STEPS = 200
# Durand-Kerner converges quadratically at simple roots, so a start good to
# a double's 53 bits is good to 106, 212, 424, ... bits after 1, 2, 3, ...
# steps.  polyroots stops once a step's correction, the error the step
# started from, is below the working precision's epsilon: a warm start at
# p bits needs 1 + ceil(log2(p / 53)) steps (3 at 60 digits, 6 at 400).
# The spare steps cover seeds a few bits short of double accuracy (roots
# of modulus 26 beside gaps of 0.39 in the d=3 annihilators take 4 at 60
# digits); a start that needs more falls back to the spiral.
_WARM_SPARE_STEPS = 2


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


def _companion_eigvals(c: np.ndarray) -> list:
    """Eigenvalues of the companion matrix of c, numpy.roots' own step.

    c is a complex128 array of degree >= 1 with c[0] != 0; the first row
    is -c[1:] / c[0].  numpy.linalg.LinAlgError passes through.
    """
    n = c.size - 1
    companion = _subdiagonal(n).copy()
    companion[0] = -c[1:] / c[0]
    return np.linalg.eigvals(companion).tolist()


def _double_seeds(c: list):
    """The companion eigenvalues of c rounded to double, or None.

    None when the rounded coefficients or their eigenvalues are not all
    finite: c is normalized, and its other coefficients can pass the
    double range at the precisions find_roots_mp works in.
    """
    rounded = np.array(c, dtype=np.complex128)
    if not np.isfinite(rounded).all():
        return None
    try:
        seeds = _companion_eigvals(rounded)
    except np.linalg.LinAlgError:
        return None
    return seeds if all(map(cmath.isfinite, seeds)) else None


def _not_a_number(coeffs) -> ModelError:
    return ModelError(f"polynomial coefficients must be numbers, got {coeffs!r}")


def find_roots(coeffs) -> np.ndarray:
    """All complex roots of the polynomial with the given coefficients.

    The roots numpy.roots gives for the normalized polynomial, bit for bit:
    a zero root for each trailing zero coefficient, and the eigenvalues of
    the companion matrix (first row -c[1:] / c[0], ones below the
    diagonal) of the rest, by numpy.linalg.eigvals.  Roots return as a
    complex array in lexicographic order of (real, imag) rounded to 10
    decimals.  Raises RootFindError for degenerate input (degree < 1 or
    vanishing leading coefficient) and when a root fails the residual gate,
    and ModelError for a coefficient that is not a number.
    """
    try:
        c = np.asarray(coeffs)
    except ValueError as exc:  # a ragged sequence
        raise _not_a_number(coeffs) from exc
    if c.dtype != np.complex128:
        if c.dtype.kind not in "biufc" and not (
            c.dtype.kind == "O" and all(isinstance(x, numbers.Number) for x in c.flat)
        ):
            raise _not_a_number(coeffs)
        c = c.astype(np.complex128)
    c, values, sizes = _normalized(c, 1e-14)
    n = len(values) - 1
    while values[n] == 0:
        n -= 1
    roots = [0j] * (len(values) - 1 - n)
    if n:
        try:
            roots = _companion_eigvals(c[: n + 1]) + roots
        except np.linalg.LinAlgError as exc:
            raise RootFindError(f"root finding did not converge: {exc}") from exc
    _check_residuals(values, sizes, roots, _RESIDUAL_FACTOR)
    # numpy's round(10) of each part: scale, round half to even, unscale
    roots.sort(key=lambda z: (round(z.real * 1e10) / 1e10, round(z.imag * 1e10) / 1e10))
    return np.array(roots, dtype=np.complex128)


def find_roots_mp(coeffs, prec_dps: int):
    """Extended-precision variant of find_roots using mpmath numbers.

    coeffs is a sequence of numbers (mpmath's among them), descending
    powers.  As in find_roots, each trailing zero coefficient of the
    normalized polynomial is an exact zero root.  mpmath.polyroots finds
    the rest with extra guard bits and no cleanup, so a nonzero root
    below the working epsilon stays nonzero.  It starts from the
    companion eigenvalues of that polynomial rounded to double
    (find_roots' step, without its residual gate: a polynomial that is
    well posed at prec_dps digits may not be in double).  That call gets
    a short budget; when it does not converge, or the rounded polynomial
    gives no finite eigenvalues, polyroots runs from its default start
    with the full budget.  The roots pass the same scaled residual gate
    as find_roots, moved to prec_dps digits, and return as a list of
    mpmath numbers in find_roots' order: by real, then imaginary part,
    each rounded to 10 decimals.
    """
    if not all(isinstance(x, numbers.Number) for x in coeffs):
        raise _not_a_number(coeffs)
    with mp.workdps(prec_dps):
        c = np.array([mp.mpc(x) for x in coeffs], dtype=object)
        _, c, sizes = _normalized(c, mp.mpf(10) ** (2 - prec_dps))
        n = len(c) - 1
        while c[n] == 0:
            n -= 1
        roots = _polyroots_mp(c[: n + 1]) if n else []
        roots += [mp.mpc(0)] * (len(c) - 1 - n)
        gate = _RESIDUAL_FACTOR * mp.mpf(10) ** (_DOUBLE_DIGITS - prec_dps)
        _check_residuals(c, sizes, roots, gate)
        # find_roots' key, rounded in mpmath: the roots may pass the double range
        roots.sort(key=lambda z: (mp.nint(z.real * 10**10), mp.nint(z.imag * 10**10)))
        return roots


def _polyroots_mp(c: list) -> list:
    # mpmath.polyroots at the working precision from the double seeds,
    # then from its default start; c is normalized with a nonzero last term
    seeds = _double_seeds(c)
    if seeds is not None:
        warm = 1 + math.ceil(math.log2(mp.mp.prec / 53)) + _WARM_SPARE_STEPS
        try:
            return mp.polyroots(
                c, maxsteps=min(_MP_MAX_STEPS, warm), cleanup=False,
                extraprec=mp.mp.prec, roots_init=[mp.mpc(z) for z in seeds],
            )
        except mp.mp.NoConvergence:
            pass
    try:
        return mp.polyroots(c, maxsteps=_MP_MAX_STEPS, cleanup=False, extraprec=mp.mp.prec)
    except mp.mp.NoConvergence as exc:
        raise RootFindError(f"extended root finding did not converge: {exc}") from exc
