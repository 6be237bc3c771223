"""Algebraic recovery of a single jump from weighted moments.

Pipeline: pick a sampling plan (decimated or consecutive), build the
finite-difference annihilating polynomial, find its roots, pick the one
near the unit circle, undo the N-th power with a prior, then solve the
small Vandermonde system for the weighted magnitudes.  The s_i^d family
used in the analysis of the decimated construction lives here too.

Every step runs in the arithmetic of the values it is handed: double for
complex/numpy input, mpmath at the current working precision for mpmath
numbers (see precision.recover_single_jump_mp).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Optional

import mpmath as mp
import numpy as np

from . import rootfind
from .errors import AmbiguityError, ModelError, NumericError, WeakJumpWarning
from .spectrum import (
    FourierSpectrum,
    MomentSequence,
    _complex_values,
    circular_distance,
    weight_moments,
    wrap_angle,
)

__all__ = [
    "SamplePlan",
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
class SamplePlan:
    """Which moment indices feed the annihilator.

    decimated: {N, 2N, ..., (d+2)N} with N = floor(M/(d+2));
    consecutive: {M-d-1, ..., M}.  Both contain exactly d+2 indices.
    """

    kind: str
    d: int
    M: int

    def __post_init__(self):
        if self.kind not in ("decimated", "consecutive"):
            raise ModelError(f"unknown plan kind {self.kind!r}")
        if self.d < 0:
            raise ModelError(f"plan order must be >= 0, got {self.d}")
        if self.M < self.d + 2:
            raise ModelError(
                f"M={self.M} cannot host d+2 = {self.d + 2} sample indices"
            )
        if self.kind == "consecutive" and self.M - self.d - 1 < 1:
            raise ModelError(f"consecutive plan needs M >= d+2, got M={self.M}")

    @property
    def stride(self) -> int:
        return self.M // (self.d + 2) if self.kind == "decimated" else 1

    @property
    def base_index(self) -> int:
        if self.kind == "decimated":
            return self.M // (self.d + 2)
        return self.M - self.d - 1

    @property
    def indices(self) -> tuple:
        s, b = self.stride, self.base_index
        return tuple(b + j * s for j in range(self.d + 2))


@dataclass(frozen=True)
class AnnihilatorPoly:
    """Finite-difference polynomial in u; descending coefficients.

    The leading coefficient is the j = 0 moment (binomial weight +1).
    Coefficients are complex128, or mpmath numbers in an extended solve.
    """

    degree: int
    coefficients: np.ndarray
    stride: int
    base_index: int

    def __post_init__(self):
        arr = _complex_values(self.coefficients)
        if arr.ndim != 1 or arr.size != self.degree + 1:
            raise ModelError(
                f"degree {self.degree} needs {self.degree + 1} coefficients, "
                f"got {arr.size}"
            )
        object.__setattr__(self, "coefficients", arr)

    def eval(self, u: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in self.coefficients:
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


def build_annihilator(moments: MomentSequence, plan: SamplePlan) -> AnnihilatorPoly:
    """Alternating-binomial combination of the planned moments."""
    if moments.order != plan.d:
        raise ModelError(
            f"moment order {moments.order} does not match plan order {plan.d}"
        )
    if moments.indices != plan.indices:
        raise ModelError(
            f"moment indices {moments.indices} do not match plan indices "
            f"{plan.indices}"
        )
    d = plan.d
    # complex128 for double moments, an object array for mpmath ones
    coeffs = np.array(
        [(-1) ** j * math.comb(d + 1, j) * moments.values[j] for j in range(d + 2)]
    )
    return AnnihilatorPoly(d + 1, coeffs, plan.stride, plan.base_index)


def find_roots(poly: AnnihilatorPoly) -> np.ndarray:
    """All roots of the annihilator (deterministic order)."""
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
        dist = abs(abs(r) - 1.0)
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


@functools.lru_cache(maxsize=None)
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


@functools.lru_cache(maxsize=None)
def _vandermonde_inverse_float(nodes: tuple) -> np.ndarray:
    arr = np.array([[float(x) for x in row] for row in _vandermonde_inverse(nodes)])
    arr.flags.writeable = False
    return arr


class _Arith(NamedTuple):
    """The arithmetic a single-jump solve runs in: double or mpmath.

    real builds real numbers and residual_tol is the relative gate of the
    magnitude solve.  find_roots looks its root finder up in rootfind on
    every call, so a replaced module attribute reaches every solve.
    """

    real: Callable
    exp: Callable
    phase: Callable
    pi: Any
    residual_tol: Any
    find_roots: Callable
    vandermonde_inverse: Callable


_DOUBLE = _Arith(
    real=float, exp=cmath.exp, phase=cmath.phase, pi=math.pi, residual_tol=1e-8,
    find_roots=lambda coeffs: rootfind.find_roots(coeffs),
    vandermonde_inverse=_vandermonde_inverse_float,
)


@functools.lru_cache(maxsize=None)
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


def synth_moments(xi: float, alpha, indices) -> MomentSequence:
    """Exact moments m_k = e^{-i k xi} sum_l alpha_l k^l of one jump."""
    alpha = [complex(x) for x in alpha]
    vals = []
    for k in indices:
        poly = sum(a * float(k) ** l for l, a in enumerate(alpha))
        vals.append(cmath.exp(-1j * k * xi) * poly)
    return MomentSequence(len(alpha) - 1, tuple(int(k) for k in indices), np.array(vals))


def solve_magnitudes(moments: MomentSequence, omega_est: complex, plan: SamplePlan):
    """Weighted magnitudes from the first d+1 planned moments.

    Demodulates with omega_est (must be unit-modulus to 1e-10), then
    solves the small integer-node Vandermonde system through its exact
    cached inverse: decimated nodes factor as (jN)^l = j^l N^l, while
    consecutive nodes are shifted to 0..d and mapped back through the
    binomial triangle.  Returns (alpha, a).
    """
    if abs(abs(omega_est) - 1.0) > 1e-10:
        raise ModelError(
            f"omega estimate must sit on the unit circle, |omega|={abs(omega_est):.12g}"
        )
    if moments.order != plan.d:
        raise ModelError(
            f"moment order {moments.order} does not match plan order {plan.d}"
        )
    d = plan.d
    use = plan.indices[: d + 1]
    if tuple(moments.indices[: d + 1]) != use:
        raise ModelError(
            f"moments {moments.indices} do not cover the magnitude indices {use}"
        )
    ar = _arith_of(moments.values)
    rhs = np.array(
        [moments.values[j] * omega_est ** (-use[j]) for j in range(d + 1)]
    )
    if plan.kind == "decimated":
        N = plan.stride
        vinv = ar.vandermonde_inverse(tuple(range(1, d + 2)))
        scaled = vinv @ rhs
        alpha = scaled / np.power(ar.real(N), np.arange(d + 1))
    else:
        base = use[0]
        vinv = ar.vandermonde_inverse(tuple(range(0, d + 1)))
        beta = vinv @ rhs
        alpha = np.zeros_like(beta)
        for l in range(d, -1, -1):
            acc = beta[l]
            for m in range(l + 1, d + 1):
                acc -= math.comb(m, l) * ar.real(base) ** (m - l) * alpha[m]
            alpha[l] = acc
    # residual check in the original system: sum_l alpha_l k^l vs rhs
    recon = np.array(
        [sum(alpha[l] * ar.real(k) ** l for l in range(d + 1)) for k in use]
    )
    scale = np.max(np.abs(rhs)) or 1.0
    resid = np.max(np.abs(recon - rhs))
    if resid > ar.residual_tol * scale:
        raise NumericError(
            f"magnitude system ill-conditioned: residual {float(resid):.3e} "
            f"vs data scale {float(scale):.3e}"
        )
    a = alpha_to_magnitudes(alpha)
    return tuple(complex(x) for x in alpha), a


def _usable_plan(spec: FourierSpectrum, plan_kind: str, d: int, M: Optional[int]):
    """The sample plan over the top usable index M (default: the spectrum's)."""
    M_used = spec.M if M is None else int(M)
    if M_used > spec.M:
        raise ModelError(f"usable M={M_used} exceeds spectrum M={spec.M}")
    return SamplePlan(plan_kind, d, M_used)


def recover_single_jump(
    spec: FourierSpectrum,
    d: int,
    xi_prior: Optional[float],
    *,
    M: Optional[int] = None,
    weak_floor: Optional[float] = None,
) -> JumpEstimate:
    """Full single-jump recovery on the decimated plan.

    M restricts the usable top index (defaults to the spectrum's own M).
    xi_prior is required whenever the stride exceeds 1: the annihilator
    root then determines xi only up to the N-th roots of unity.  The
    consecutive plan's entry point is half_order_recover.
    """
    plan = _usable_plan(spec, "decimated", d, M)
    moments = weight_moments(spec, d, plan.indices)
    return _recover_from_moments(moments, plan, xi_prior, weak_floor=weak_floor)


def _recover_from_moments(
    moments: MomentSequence,
    plan: SamplePlan,
    xi_prior: Optional[float],
    *,
    weak_floor: Optional[float] = None,
) -> JumpEstimate:
    ar = _arith_of(moments.values)
    poly = build_annihilator(moments, plan)
    roots = find_roots(poly)
    z = select_root(roots)
    if plan.kind == "decimated" and plan.stride > 1:
        if xi_prior is None:
            raise ModelError("decimated recovery requires a location prior")
        xi = disambiguate_nth_root(z, plan.stride, xi_prior)
    else:
        xi = wrap_angle(-ar.phase(z), ar.pi)
    omega = ar.exp(-1j * xi)
    _, a = solve_magnitudes(moments, omega, plan)
    if weak_floor is not None and abs(a[0]) < weak_floor / 2.0:
        warnings.warn(
            f"leading magnitude {abs(a[0]):.3e} below half the declared "
            f"floor {weak_floor:.3e}",
            WeakJumpWarning,
        )
    return JumpEstimate(
        xi=float(xi),
        magnitudes=a,
        root_residual=float(abs(poly.eval(z))),
        condition_note=float(min(
            (abs(r1 - r2) for r1, r2 in itertools.combinations(roots, 2)), default=math.inf
        )),
    )


def half_order_recover(
    spec: FourierSpectrum, d1: int, M: Optional[int] = None
) -> JumpEstimate:
    """Consecutive-index recovery at reduced order d1.

    Stride 1 makes the annihilator root the node omega itself, so the
    angle is read directly and no prior is needed.  d1 = d gives the
    classical full-order consecutive variant used as a benchmark.
    """
    plan = _usable_plan(spec, "consecutive", d1, M)
    moments = weight_moments(spec, d1, plan.indices)
    return _recover_from_moments(moments, plan, None)
