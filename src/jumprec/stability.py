"""Perturbation-theory calculators.

Closed-form bounds for the node recovery error of the polynomial Prony
map, the decimated-plan accuracy cap, the refined constant and the gap
factor separating consecutive from decimated sampling, the
misspecification exponent, and the log-log slope fit the sweeps read.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import ModelError, read_int, read_real

__all__ = [
    "PronyConfig",
    "node_perturbation_bound",
    "decimated_cap",
    "decimated_cap_constant",
    "c9_bound",
    "c9_exact",
    "method_gap_factor",
    "method_gap_exact",
    "misspec_exponent",
    "fit_loglog_slope",
]

# rows whose error sits below 100x double eps carry no slope information
ERROR_FLOOR = 100.0 * np.finfo(float).eps


@dataclass(frozen=True)
class PronyConfig:
    """Parameters of the confluent Prony system under perturbation.

    K nodes with multiplicities l_j; C = sum l_j unknown weights and K
    unknown nodes give R = C + K unknowns total; samples on an
    arithmetic progression of stride sigma, whose start the bound does
    not depend on; delta_sigma is the minimal distance between sigma-th
    node powers; eps the perturbation level.  Counts are read as integers
    (errors.read_int), multiplicities as a sequence of them, and node_gap
    and eps as finite reals (errors.read_real), else a ModelError naming
    the field.
    """

    K: int
    multiplicities: tuple
    sigma: int
    node_gap: float
    eps: float

    def __post_init__(self):
        for name in ("K", "sigma"):
            object.__setattr__(self, name, read_int(getattr(self, name), name))
        for name in ("node_gap", "eps"):
            object.__setattr__(self, name, read_real(getattr(self, name), name))
        mult = self.multiplicities
        if isinstance(mult, (str, bytes)) or not isinstance(mult, Iterable):
            raise ModelError(
                f"multiplicities must be a sequence of integers, got multiplicities={mult!r}"
            )
        mult = tuple(read_int(m, "multiplicities") for m in mult)
        if self.K < 1 or len(mult) != self.K:
            raise ModelError(
                f"need K >= 1 multiplicities, got K={self.K}, {len(mult)} entries"
            )
        if any(m < 1 for m in mult):
            raise ModelError(f"multiplicities must be >= 1, got {mult}")
        if self.sigma < 1:
            raise ModelError(f"progression stride must be >= 1, got {self.sigma}")
        if self.node_gap > 2.0:
            raise ModelError(f"node gap cannot exceed the circle diameter, got {self.node_gap}")
        if self.eps < 0:
            raise ModelError(f"perturbation level must be >= 0, got {self.eps}")
        object.__setattr__(self, "multiplicities", mult)

    @property
    def C(self) -> int:
        return sum(self.multiplicities)

    @property
    def R_total(self) -> int:
        return self.C + self.K


def node_perturbation_bound(cfg: PronyConfig, j: int, a_lead: float) -> float:
    """First-order node error: (2/l_j!) (2/delta)^R eps / (a_lead sigma^{l_j})."""
    j, a_lead = read_int(j, "j"), read_real(a_lead, "a_lead")
    if not 0 <= j < cfg.K:
        raise ModelError(f"node index {j} outside 0..{cfg.K - 1}")
    if a_lead <= 0:
        raise ModelError(f"leading weight magnitude must be positive, got {a_lead}")
    if cfg.node_gap <= 0:
        raise ModelError(f"degenerate nodes: gap {cfg.node_gap} must be positive")
    lj = cfg.multiplicities[j]
    return (
        (2.0 / math.factorial(lj))
        * (2.0 / cfg.node_gap) ** cfg.R_total
        * cfg.eps
        / (a_lead * float(cfg.sigma) ** lj)
    )


def decimated_cap_constant(d: int) -> Fraction:
    """Exact constant 2^{d+2}(d+2)/(d+1)! of the decimated accuracy cap."""
    d = read_int(d, "d")
    if d < 0:
        raise ModelError(f"order must be >= 0, got {d}")
    return Fraction(2 ** (d + 2) * (d + 2), math.factorial(d + 1))


def decimated_cap(d: int, R_star: float, B_star: float, N: int) -> float:
    """Node-error ceiling of the decimated plan at stride N."""
    R_star, B_star = read_real(R_star, "R_star"), read_real(B_star, "B_star")
    N = read_int(N, "N")
    if B_star <= 0:
        raise ModelError(f"magnitude floor must be positive, got {B_star}")
    if R_star < 0:
        raise ModelError(f"noise constant must be >= 0, got {R_star}")
    if N < 1:
        raise ModelError(f"stride must be >= 1, got {N}")
    return float(decimated_cap_constant(d)) * (R_star / B_star) * float(N) ** (
        -(d + 2)
    )


def c9_exact(d: int) -> Fraction:
    d = read_int(d, "d")
    if d < 0:
        raise ModelError(f"order must be >= 0, got {d}")
    return Fraction(3 ** (d + 1), math.factorial(d + 1))


def c9_bound(d: int) -> float:
    """Refined constant 3^{d+1}/(d+1)! in the decimated node bound."""
    return float(c9_exact(d))


def method_gap_exact(d: int) -> Fraction:
    d = read_int(d, "d")
    if d < 0:
        raise ModelError(f"order must be >= 0, got {d}")
    return Fraction(3, 2) ** (d + 1) / (2 * (d + 2))


def method_gap_factor(d: int) -> float:
    """Accuracy-constant ratio (3/2)^{d+1}/(2(d+2)) between the refined
    bound and the decimated cap; equals c9/cap_constant exactly."""
    return float(method_gap_exact(d))


def misspec_exponent(d_used: int, d_true: int) -> int:
    """Predicted error exponent for order-d_used recovery on order-d_true data."""
    d_used, d_true = read_int(d_used, "d_used"), read_int(d_true, "d_true")
    if d_true < 0:
        raise ModelError(f"true order must be >= 0, got {d_true}")
    if d_true > d_used:
        raise ModelError(
            f"misspecification model assumes d_true <= d_used, "
            f"got {d_true} > {d_used}"
        )
    return d_used - 2 * d_true - 2


def fit_loglog_slope(M_values, errors, floor: Optional[float] = ERROR_FLOOR):
    """OLS slope of log err vs log M, excluding below-floor rows.

    Returns (slope, used_mask).  Rows at or below the floor (default
    100x machine epsilon; one value, or one per row) are excluded from
    the fit; fewer than two usable rows make the slope undefined (NaN).
    """
    Ms = np.asarray(M_values, dtype=float)
    es = np.asarray(errors, dtype=float)
    if Ms.shape != es.shape or Ms.ndim != 1:
        raise ModelError("need matching 1-d arrays of M values and errors")
    used = np.isfinite(es) & (es > 0)
    if floor is not None:
        used &= es > floor
    if int(used.sum()) < 2:
        return float("nan"), used
    lx = np.log(Ms[used])
    ly = np.log(es[used])
    slope = float(np.polyfit(lx, ly, 1)[0])
    return slope, used
