"""Algebraic recovery of a single jump from weighted moments.

A solve reads only its d+2 samples: spectrum.weight_moments(plan, values)
forms the moments from the values c_k at a sampling plan's indices
(decimated or consecutive; the moments carry their plan), and
recover_single_jump builds the finite-difference annihilating
polynomial, finds its roots, picks the one near the unit circle, undoes
the N-th power with a prior, then solves the small Vandermonde system
for the weighted magnitudes.  half_order_recover is the same solve with
no prior.  The s_i^d family used in the analysis of the decimated
construction lives here too.

Every step runs in the arithmetic of the values it is handed: double for
complex/numpy input, mpmath at the current working precision for mpmath
numbers (see precision.recover_single_jump_mp).  A solve handles d+2
values, so each array is turned into Python numbers once (.tolist()) and
the annihilator, the root choice, the right-hand side and residual gate
of the magnitude solve and the weighting are scalar code: Python complex
in double, the same code on mpmath numbers in extended precision.  numpy
carries what must match its own arithmetic: the normalization and
companion eigenvalues in rootfind, the Vandermonde product vinv @ rhs and
the powers np.power(N, l).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Optional

import mpmath as mp
import numpy as np

from . import rootfind
from .errors import AmbiguityError, ModelError, NumericError
from .spectrum import (
    MomentSequence,
    SamplePlan,
    _complex_values,
    circular_distance,
    modulus,
    wrap_angle,
)

__all__ = [
    "AnnihilatorPoly",
    "JumpEstimate",
    "s_poly",
    "build_annihilator",
    "find_roots",
    "select_root",
    "disambiguate_nth_root",
    "solve_magnitudes",
    "recover_single_jump",
    "half_order_recover",
    "synth_moments",
    "alpha_to_magnitudes",
    "magnitudes_to_alpha",
]

_S_POLY_DMAX = 16


@dataclass(frozen=True)
class AnnihilatorPoly:
    """Finite-difference polynomial in u; descending coefficients.

    The leading coefficient is the j = 0 moment (binomial weight +1).
    Coefficients are complex128, or mpmath numbers in an extended solve.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _complex_values(self.coefficients))

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    def eval(self, u: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in self.coefficients.tolist():
            acc = acc * u + c
        return acc


@dataclass(frozen=True)
class JumpEstimate:
    """Recovered single-jump parameters with solver diagnostics."""

    xi: float
    magnitudes: tuple
    root_residual: float
    condition_note: float

    @property
    def order(self) -> int:
        return len(self.magnitudes) - 1


def s_poly(i: int, d: int):
    """Integer coefficients (descending powers of w) of s_i^d.

    s_i^d(w) = sum_{j=0}^{d+1} (-1)^j C(d+1, j) (j+1)^i w^{d+1-j}; exact.
    """
    if i < 0:
        raise ModelError(f"s_poly index i must be >= 0, got {i}")
    if not 0 <= d <= _S_POLY_DMAX:
        raise ModelError(f"s_poly order d must be in 0..{_S_POLY_DMAX}, got {d}")
    return [(-1) ** j * math.comb(d + 1, j) * (j + 1) ** i for j in range(d + 2)]


@functools.lru_cache(maxsize=64)
def _signed_binomials(d: int) -> tuple:
    # (-1)^j C(d+1, j), j = 0..d+1, exact integers
    return tuple((-1) ** j * math.comb(d + 1, j) for j in range(d + 2))


def build_annihilator(moments: MomentSequence) -> AnnihilatorPoly:
    """Alternating-binomial combination of the planned moments."""
    return AnnihilatorPoly([
        b * m for b, m in zip(_signed_binomials(moments.order), moments.values.tolist())
    ])


def find_roots(poly: AnnihilatorPoly) -> list:
    """All roots of the annihilator (deterministic order), as a list."""
    return _arith_of(poly.coefficients).find_roots(poly.coefficients)


def select_root(roots) -> complex:
    """Pick the root nearest the unit circle.

    Ties within 1e-14 of circle distance break toward the smallest angle
    magnitude.
    """
    rs = list(roots)
    if not rs:
        raise ModelError("empty root list")
    ar = _arith_of(rs)
    best = None
    best_key = None
    for r in rs:
        dist = abs(modulus(r) - 1.0)
        key = (dist, abs(ar.phase(r)))
        if best is None or dist < best_key[0] - 1e-14:
            best, best_key = r, key
        elif abs(dist - best_key[0]) <= 1e-14 and key[1] < best_key[1]:
            best, best_key = r, key
    return best


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
    t = -ar.phase(z)
    if not (math.isfinite(float(t)) and math.isfinite(xi_prior)):
        raise ModelError(f"non-finite root {z} or prior {xi_prior}")
    offset = (xi_prior - float(t) / N) % (2.0 * math.pi)
    n_star = round(offset * N / (2.0 * math.pi))
    branches = sorted({(n_star + k) % N for k in (-1, 0, 1)})
    cands = [wrap_angle(t / N + 2 * ar.pi * n / N, ar.pi) for n in branches]
    dists = [circular_distance(xi, xi_prior, ar.pi) for xi in cands]
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
def _nodes(first: int, d: int) -> tuple:
    # the d+1 integer Vandermonde nodes first, first+1, ..., first+d
    return tuple(range(first, first + d + 1))


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


@functools.lru_cache(maxsize=64)
def _vandermonde_inverse_float(nodes: tuple) -> np.ndarray:
    arr = np.array([[float(x) for x in row] for row in _vandermonde_inverse(nodes)])
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=64)
def _stride_powers_float(N: int, d: int) -> np.ndarray:
    # N^l, l = 0..d, the decimated nodes' scale, read-only
    arr = np.power(float(N), np.arange(d + 1))
    arr.flags.writeable = False
    return arr


class _Arith(NamedTuple):
    """The arithmetic a single-jump solve runs in: double or mpmath.

    real builds real numbers and residual_tol is the relative gate of the
    magnitude solve.  find_roots looks its root finder up in rootfind on
    every call, so a replaced module attribute reaches every solve.
    stride_powers(N, d) gives N^l, l = 0..d.
    """

    real: Callable
    exp: Callable
    phase: Callable
    pi: Any
    residual_tol: Any
    find_roots: Callable
    vandermonde_inverse: Callable
    stride_powers: Callable


_DOUBLE = _Arith(
    real=float, exp=cmath.exp, phase=cmath.phase, pi=math.pi, residual_tol=1e-8,
    find_roots=lambda coeffs: rootfind.find_roots(coeffs).tolist(),
    vandermonde_inverse=_vandermonde_inverse_float,
    stride_powers=_stride_powers_float,
)


@functools.lru_cache(maxsize=16)
def _extended(digits: int) -> _Arith:
    def vandermonde_inverse(nodes):
        exact = _vandermonde_inverse(nodes)
        return np.array([[mp.mpf(x.numerator) / x.denominator for x in row]
                         for row in exact], dtype=object)

    return _Arith(
        real=mp.mpf, exp=mp.exp, phase=mp.arg, pi=mp.pi,
        residual_tol=mp.mpf(10) ** (12 - digits),
        find_roots=lambda coeffs: rootfind.find_roots_mp(coeffs, digits),
        vandermonde_inverse=vandermonde_inverse,
        stride_powers=lambda N, d: np.power(mp.mpf(N), np.arange(d + 1)),
    )


def _arith_of(values) -> _Arith:
    """mpmath at the working precision for mpmath numbers, else double."""
    first = values[0] if isinstance(values, (list, tuple, np.ndarray)) else values
    return _extended(mp.mp.dps) if isinstance(first, (mp.mpf, mp.mpc)) else _DOUBLE


def alpha_to_magnitudes(alpha) -> tuple:
    """Invert the weighting alpha_l = i^l a_{d-l}."""
    d = len(alpha) - 1
    return tuple(complex(alpha[d - m]) * (-1j) ** (d - m) for m in range(d + 1))


def magnitudes_to_alpha(a) -> tuple:
    d = len(a) - 1
    return tuple((1j) ** l * complex(a[d - l]) for l in range(d + 1))


def synth_moments(xi: float, alpha, plan: SamplePlan) -> MomentSequence:
    """Exact moments m_k = e^{-i k xi} sum_l alpha_l k^l of one jump on a plan."""
    alpha = [complex(x) for x in alpha]
    vals = []
    for k in plan.indices:
        poly = sum(a * float(k) ** l for l, a in enumerate(alpha))
        vals.append(cmath.exp(-1j * k * xi) * poly)
    return MomentSequence(plan, np.array(vals))


def solve_magnitudes(moments: MomentSequence, omega_est: complex):
    """Weighted magnitudes from the first d+1 moments of the moments' plan.

    Demodulates with omega_est (must be unit-modulus to 1e-10), then
    solves the small integer-node Vandermonde system through its exact
    cached inverse: decimated nodes factor as (jN)^l = j^l N^l, while
    consecutive nodes are shifted to 0..d and mapped back through the
    binomial triangle.  Returns (alpha, a).  NumericError when alpha does
    not reproduce the demodulated moments to residual_tol relative to
    their scale; a NaN or infinite alpha fails that gate too.
    """
    radius = modulus(omega_est)
    if abs(radius - 1.0) > 1e-10:
        raise ModelError(
            f"omega estimate must sit on the unit circle, |omega|={radius:.12g}"
        )
    plan = moments.plan
    d = plan.d
    use = plan.indices[: d + 1]
    values = moments.values.tolist()
    ar = _arith_of(values)
    rhs = [values[j] * omega_est ** (-use[j]) for j in range(d + 1)]
    if plan.kind == "decimated":
        vinv = ar.vandermonde_inverse(_nodes(1, d))
        scaled = vinv @ np.array(rhs)
        alpha = (scaled / ar.stride_powers(plan.stride, d)).tolist()
    else:
        base = use[0]
        vinv = ar.vandermonde_inverse(_nodes(0, d))
        beta = (vinv @ np.array(rhs)).tolist()
        alpha = [0] * (d + 1)
        for l in range(d, -1, -1):
            acc = beta[l]
            for m in range(l + 1, d + 1):
                acc -= math.comb(m, l) * ar.real(base) ** (m - l) * alpha[m]
            alpha[l] = acc
    # residual check in the original system: sum_l alpha_l k^l vs rhs
    recon = [sum(alpha[l] * ar.real(k) ** l for l in range(d + 1)) for k in use]
    scale = max(modulus(x) for x in rhs) or 1.0
    limit = ar.residual_tol * scale
    # written so that a NaN residual fails the gate too
    bad = [e for e in (modulus(r - x) for r, x in zip(recon, rhs)) if not e <= limit]
    if bad:
        raise NumericError(
            f"magnitude system ill-conditioned: residual {float(max(bad)):.3e} "
            f"vs data scale {float(scale):.3e}"
        )
    a = alpha_to_magnitudes(alpha)
    return tuple(complex(x) for x in alpha), a


def recover_single_jump(
    moments: MomentSequence, xi_prior: Optional[float]
) -> JumpEstimate:
    """Single-jump recovery from the weighted moments of either plan kind.

    xi_prior is required whenever the plan's stride exceeds 1: the
    annihilator root then determines xi only up to the N-th roots of
    unity.  At stride 1 (a consecutive plan, or a decimated one over
    M < 2(d+2)) the root is the node omega itself and its angle is read
    directly.
    """
    plan = moments.plan
    ar = _arith_of(moments.values)
    poly = build_annihilator(moments)
    roots = find_roots(poly)
    z = select_root(roots)
    if plan.stride > 1:
        if xi_prior is None:
            raise ModelError("decimated recovery requires a location prior")
        xi = disambiguate_nth_root(z, plan.stride, xi_prior)
    else:
        xi = wrap_angle(-ar.phase(z), ar.pi)
    omega = ar.exp(-1j * xi)
    _, a = solve_magnitudes(moments, omega)
    return JumpEstimate(
        xi=float(xi),
        magnitudes=a,
        root_residual=float(modulus(poly.eval(z))),
        condition_note=float(min(
            (modulus(r1 - r2) for r1, r2 in itertools.combinations(roots, 2)),
            default=math.inf,
        )),
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
