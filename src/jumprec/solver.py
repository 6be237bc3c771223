"""Algebraic recovery of a single jump from weighted moments.

A solve reads only its d+2 samples: spectrum.weight_moments(plan, values)
forms the moments from the values c_k at a sampling plan's indices
(decimated or consecutive; the moments carry their plan), and
recover_single_jump builds the finite-difference annihilating
polynomial as its list of d+2 coefficients, finds its roots, picks the
one near the unit circle, undoes the N-th power with a prior, then
demodulates by that root and solves one small integer-node Vandermonde
system, the same for both plan kinds, for the weighted magnitudes.  How
far the root sat off the circle, over N, comes back as the estimate's
circle_offset, a per-jump error scale that reconstruct's polish stops on.
half_order_recover is the same solve with no prior.  The s_i^d family
used in the analysis of the decimated construction lives here too.

Every step runs in the arithmetic of the values it is handed: double for
complex/numpy input, mpmath at the current working precision for mpmath
numbers (see precision.recover_single_jump_mp).  A solve handles d+2
values, so each array is turned into Python numbers once (.tolist()) and
the annihilator, the root choice, the right-hand side and residual gate
of the magnitude solve and the weighting are scalar code: Python complex
in double, the same code on mpmath numbers in extended precision.  numpy
carries what must match its own arithmetic: the normalization and
companion eigenvalues in rootfind, the Vandermonde product vinv @ rhs and
the division by the powers np.power(N, l).  Everything a solve needs that
depends on its plan alone, from the binomials to the residual check's
powers, is built once per (plan, arithmetic) into one table
(_plan_table), so a solve pays only for the arithmetic on its numbers.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Optional

import mpmath as mp
import numpy as np

from . import rootfind
from .errors import AmbiguityError, ModelError, NumericError, read_int
from .spectrum import (
    MomentSequence,
    SamplePlan,
    circular_distance,
    moduli,
    modulus,
    wrap_angle,
)

__all__ = [
    "JumpEstimate",
    "s_poly",
    "build_annihilator",
    "select_root",
    "disambiguate_nth_root",
    "solve_magnitudes",
    "recover_single_jump",
    "half_order_recover",
    "alpha_to_magnitudes",
]

_S_POLY_DMAX = 16


@dataclass(frozen=True)
class JumpEstimate:
    """Recovered single-jump parameters with solver diagnostics.

    circle_offset is ||z| - 1| / N for the selected annihilator root z,
    before it is brought onto the unit circle, and the plan's stride N.
    Exact data put z = e^{-i xi N} on the circle; data error moves it off
    the circle by about as much as it turns its angle, and the angle error
    over N is the location error, so the offset is a per-jump error scale
    that costs nothing.  It is 0.0 when not computed.
    """

    xi: float
    magnitudes: tuple
    root_residual: float
    condition_note: float
    circle_offset: float = 0.0

    @property
    def order(self) -> int:
        return len(self.magnitudes) - 1


def s_poly(i: int, d: int):
    """Integer coefficients (descending powers of w) of s_i^d.

    s_i^d(w) = sum_{j=0}^{d+1} (-1)^j C(d+1, j) (j+1)^i w^{d+1-j}; exact.
    """
    i, d = read_int(i, "i"), read_int(d, "d")
    if i < 0:
        raise ModelError(f"s_poly index i must be >= 0, got {i}")
    if not 0 <= d <= _S_POLY_DMAX:
        raise ModelError(f"s_poly order d must be in 0..{_S_POLY_DMAX}, got {d}")
    return [(-1) ** j * math.comb(d + 1, j) * (j + 1) ** i for j in range(d + 2)]


def build_annihilator(moments: MomentSequence) -> list:
    """Alternating-binomial combination of the planned moments.

    The d+2 coefficients of the finite-difference polynomial in u, in
    descending powers and in the moments' arithmetic; the leading one is
    the j = 0 moment (binomial weight +1).
    """
    values = moments.values.tolist()
    binomials = _plan_table(moments.plan, _arith_of(values).digits).binomials
    return list(map(operator.mul, binomials, values))


def select_root(roots) -> complex:
    """Pick the root nearest the unit circle.

    Ties within 1e-14 of circle distance break toward the smallest angle
    magnitude.
    """
    rs = list(roots)
    if not rs:
        raise ModelError("empty root list")
    dists = [abs(m - 1.0) for m in moduli(rs)]
    best = 0
    for i in range(1, len(rs)):
        if dists[i] < dists[best] - 1e-14:
            best = i
        elif abs(dists[i] - dists[best]) <= 1e-14:
            # the angles are read only where the distances tie
            phase = _arith_of(rs).phase
            if abs(phase(rs[i])) < abs(phase(rs[best])):
                best = i
    return rs[best]


def disambiguate_nth_root(z: complex, N: int, xi_prior: float) -> float:
    """Resolve xi from z ~ e^{-i xi N} using a prior of accuracy < pi/N.

    Candidates are (-arg z + 2 pi n)/N wrapped into [-pi, pi); the one
    circularly closest to the prior wins.  Near-ties mean the prior was
    too weak; that raises an ambiguity error rather than guessing.  The
    candidates are evenly spaced, so the winner and the runner-up are the
    two around the prior: only the branch n* nearest the prior and its
    neighbours are evaluated.  xi comes back in the arithmetic of z.
    """
    if N < 1:
        raise ModelError(f"N must be >= 1, got {N}")
    if z == 0:
        raise ModelError("zero root cannot carry phase information")
    ar = _arith_of(z)
    pi = ar.pi
    t = -ar.phase(z)
    if not (math.isfinite(float(t)) and math.isfinite(xi_prior)):
        raise ModelError(f"non-finite root {z} or prior {xi_prior}")
    offset = (xi_prior - float(t) / N) % (2.0 * math.pi)
    n_star = round(offset * N / (2.0 * math.pi))
    branches = sorted({(n_star - 1) % N, n_star % N, (n_star + 1) % N})
    cands = [wrap_angle(t / N + 2 * pi * n / N, pi) for n in branches]
    dists = [circular_distance(xi, xi_prior, pi) for xi in cands]
    order = sorted(range(len(cands)), key=dists.__getitem__)
    best = order[0]
    if len(cands) > 1:
        second = order[1]
        if abs(dists[second] - dists[best]) < 1e-12:
            raise AmbiguityError(
                f"prior {xi_prior:.6g} sits equidistant from candidates "
                f"{float(cands[best]):.12g} and {float(cands[second]):.12g} (N={N})"
            )
    return cands[best]


@functools.lru_cache(maxsize=64)
def _vandermonde_inverse(nodes: tuple):
    """Exact inverse of the Vandermonde matrix V[r][c] = nodes[r]^c.

    Column r holds the ascending coefficients of the Lagrange basis
    polynomial prod_{m != r} (x - x_m) / (x_r - x_m) of the distinct nodes.
    """
    cols = []
    for r, xr in enumerate(nodes):
        poly = [Fraction(1)]
        for m, xm in enumerate(nodes):
            if m != r:
                poly = [(a - xm * b) / (xr - xm) for a, b in zip([0] + poly, poly + [0])]
        cols.append(poly)
    return tuple(zip(*cols))


class _Arith(NamedTuple):
    """The arithmetic a single-jump solve runs in: double or mpmath.

    digits is None in double and mpmath's working digits otherwise; with
    the plan it keys the solve's table (_plan_table).  residual_tol is the
    relative gate of the magnitude solve.  find_roots looks its root
    finder up in rootfind on every call, so a replaced module attribute
    reaches every solve.
    """

    digits: Optional[int]
    phase: Callable
    pi: Any
    residual_tol: Any
    find_roots: Callable


_DOUBLE = _Arith(
    digits=None, phase=cmath.phase, pi=math.pi, residual_tol=1e-8,
    find_roots=lambda coeffs: rootfind.find_roots(coeffs).tolist(),
)


@functools.lru_cache(maxsize=16)
def _extended(digits: int) -> _Arith:
    return _Arith(
        digits=digits, phase=mp.arg, pi=mp.pi,
        residual_tol=mp.mpf(10) ** (12 - digits),
        find_roots=lambda coeffs: rootfind.find_roots_mp(coeffs, digits),
    )


_MP_TYPES = (mp.mpf, mp.mpc)


def _arith_of(values) -> _Arith:
    """mpmath at the working precision for mpmath numbers, else double."""
    first = values[0] if isinstance(values, (list, tuple, np.ndarray)) else values
    return _extended(mp.mp.dps) if isinstance(first, _MP_TYPES) else _DOUBLE


class _PlanTable(NamedTuple):
    """What a single-jump solve needs that depends on its plan alone.

    binomials are the annihilator's weights (-1)^j C(d+1, j), j = 0..d+1.
    The magnitude solve reads the first d+1 indices, use, each written
    k = shift + N t on the integer nodes t = first..first+d, and
    demodulates each by the root's power -(k // N): -t on a decimated plan
    (shift 0), -k at stride 1 (turns).  vinv is the
    exact inverse of the nodes' Vandermonde matrix, stride_powers holds
    N^l, l = 0..d, back lists the back-substitution top down as rows
    (l, ((m, C(m, l) shift^(m-l)), m = l+1..d), none when shift is 0, and
    k_powers holds k^l, l = 0..d, for each used k, the residual check's
    powers.  Numbers are in the table's arithmetic, arrays read-only.
    """

    binomials: tuple
    use: tuple
    turns: tuple
    vinv: np.ndarray
    stride_powers: np.ndarray
    back: tuple
    k_powers: tuple


@functools.lru_cache(maxsize=64)
def _plan_table(plan: SamplePlan, digits: Optional[int]) -> _PlanTable:
    """The plan's table in double (digits None) or in mpmath at digits.

    In double the arrays are complex128, the type numpy would cast them
    to for the product with the complex right-hand side, exactly.
    """
    if digits is None:
        return _build_table(plan, float, float, np.complex128)
    with mp.workdps(digits):
        return _build_table(plan, mp.mpf, _mpf_of_fraction, object)


def _mpf_of_fraction(x: Fraction):
    return mp.mpf(x.numerator) / x.denominator


def _build_table(plan: SamplePlan, real: Callable, of_fraction: Callable, dtype) -> _PlanTable:
    # of_fraction rounds an exact Fraction into the table's arithmetic
    d, N = plan.d, plan.stride
    first = 1 if plan.kind == "decimated" else 0
    use = plan.indices[: d + 1]
    shift = use[0] - first * N
    exact = _vandermonde_inverse(tuple(range(first, first + d + 1)))
    vinv = np.array([[of_fraction(x) for x in row] for row in exact], dtype=dtype)
    stride_powers = np.power(real(N), np.arange(d + 1)).astype(dtype)
    vinv.flags.writeable = stride_powers.flags.writeable = False
    back = tuple(
        (l, tuple((m, math.comb(m, l) * real(shift) ** (m - l)) for m in range(l + 1, d + 1)))
        for l in reversed(range(d))
    ) if shift else ()
    return _PlanTable(
        binomials=tuple((-1) ** j * math.comb(d + 1, j) for j in range(d + 2)),
        use=use,
        turns=tuple(-(k // N) for k in use),
        vinv=vinv,
        stride_powers=stride_powers,
        back=back,
        k_powers=tuple(tuple(real(k) ** l for l in range(d + 1)) for k in use),
    )


def alpha_to_magnitudes(alpha) -> tuple:
    """Invert the weighting alpha_l = i^l a_{d-l}."""
    d = len(alpha) - 1
    return tuple(complex(alpha[d - m]) * (-1j) ** (d - m) for m in range(d + 1))


def solve_magnitudes(moments: MomentSequence, root: complex):
    """Weighted magnitudes from the first d+1 moments of the moments' plan.

    root is the annihilator's root on the unit circle (to 1e-10),
    u = e^{-i xi N} for the plan's stride N.  Each moment m_k is
    demodulated by u^{-(k // N)}: u^{-t} on a decimated plan, k = N t, and
    u^{-k} at stride 1, where u is e^{-i xi} itself.  That is e^{ik xi}
    without a rounded xi, whose one-ulp error would turn into a k-ulp
    phase error at index k.  Then one small integer-node Vandermonde system
    is solved for both plan kinds.
    Each index is written k = shift + N t on the nodes t = first..first+d:
    a decimated plan has shift 0, N = its stride and t from 1, a
    consecutive one shift = its first index, N = 1 and t from 0.  The
    solve is one product with the exact cached inverse and one division
    by N^l, then a binomial back-substitution when shift is not 0.
    Returns (alpha, a).  NumericError when alpha does not reproduce the
    demodulated moments to residual_tol relative to their scale; a NaN
    or infinite alpha fails that gate too.
    """
    radius = modulus(root)
    if abs(radius - 1.0) > 1e-10:
        raise ModelError(
            f"root estimate must sit on the unit circle, |root|={radius:.12g}"
        )
    values = moments.values.tolist()
    ar = _arith_of(values)
    table = _plan_table(moments.plan, ar.digits)
    rhs = [v * root ** turn for v, turn in zip(values, table.turns)]
    # sum_l alpha_l k^l = sum_m beta_m N^m t^m with
    # beta_m = sum_{l >= m} C(l, m) shift^(l-m) alpha_l: the product and
    # the division give beta, and the back-substitution, top down, alpha
    alpha = (table.vinv @ np.array(rhs) / table.stride_powers).tolist()
    for l, terms in table.back:
        for m, factor in terms:
            alpha[l] -= factor * alpha[m]
    # residual check in the original system: sum_l alpha_l k^l vs rhs
    recon = [sum(map(operator.mul, alpha, powers)) for powers in table.k_powers]
    scale = max(moduli(rhs)) or 1.0
    limit = ar.residual_tol * scale
    # written so that a NaN residual fails the gate too
    bad = [e for e in moduli(list(map(operator.sub, recon, rhs))) if not e <= limit]
    if bad:
        raise NumericError(
            f"magnitude system ill-conditioned: residual {float(max(bad)):.3e} "
            f"vs data scale {float(scale):.3e}"
        )
    a = alpha_to_magnitudes(alpha)
    return tuple(map(complex, alpha)), a


def recover_single_jump(
    moments: MomentSequence, xi_prior: Optional[float]
) -> JumpEstimate:
    """Single-jump recovery from the weighted moments of either plan kind.

    xi_prior is required whenever the plan's stride exceeds 1: the
    annihilator root then determines xi only up to the N-th roots of
    unity.  At stride 1 (a consecutive plan, or a decimated one over
    M < 2(d+2)) the root is the node omega itself and its angle is read
    directly.  The magnitudes are demodulated by the root brought onto the
    unit circle, z/|z|, not by a phase of the rounded xi, and how far z
    sat off the circle, ||z| - 1| / N, is returned as circle_offset.
    """
    coeffs = build_annihilator(moments)
    ar = _arith_of(coeffs)
    roots = ar.find_roots(coeffs)
    z = select_root(roots)
    N = moments.plan.stride
    if N > 1:
        if xi_prior is None:
            raise ModelError("decimated recovery requires a location prior")
        xi = disambiguate_nth_root(z, N, xi_prior)
    elif z == 0:
        raise ModelError("zero root cannot carry phase information")
    else:
        xi = wrap_angle(-ar.phase(z), ar.pi)
    radius = modulus(z)
    _, a = solve_magnitudes(moments, z / radius)
    residual = 0j
    for c in coeffs:
        residual = residual * z + c
    gaps = moduli([r1 - r2 for r1, r2 in itertools.combinations(roots, 2)])
    return JumpEstimate(
        xi=float(xi),
        magnitudes=a,
        root_residual=float(modulus(residual)),
        condition_note=float(min(gaps, default=math.inf)),
        circle_offset=float(abs(radius - 1) / N),
    )


# the same solve object with no prior, not a call through the module name:
# replacing recover_single_jump by name (a test's or the benchmark's span
# tracer) leaves half-order solves uncounted as full-order ones
half_order_recover = functools.partial(recover_single_jump, xi_prior=None)
half_order_recover.__doc__ = """Recovery from a consecutive plan's moments, with no prior.

    Stride 1 makes the annihilator root the node omega itself, so the
    angle is read directly.  The pipeline's half-order refinement runs it
    at order d//2; at order d it is the classical full-order consecutive
    variant used as a benchmark.
    """
