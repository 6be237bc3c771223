"""Perturbation-theory calculators and empirical cross-checks.

Closed-form bounds for the node recovery error of the polynomial Prony
map, the decimated-plan accuracy cap, the refined constant and the gap
factor separating consecutive from decimated sampling; plus harnesses
that drive the solver on synthetic perturbed moments and compare the
observed errors against these bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ModelError
from .solver import _recover_from_moments, magnitudes_to_alpha, synth_moments
from .spectrum import MomentSequence, SamplePlan, circular_distance

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
    "run_cap_trials",
    "run_misspec_sweep",
]

# rows whose error sits below 100x double eps carry no slope information
ERROR_FLOOR = 100.0 * np.finfo(float).eps


@dataclass(frozen=True)
class PronyConfig:
    """Parameters of the confluent Prony system under perturbation.

    K nodes with multiplicities l_j; C = sum l_j unknown weights and K
    unknown nodes give R = C + K unknowns total; samples on the
    arithmetic progression t + sigma*s; delta_sigma is the minimal
    distance between sigma-th node powers; eps the perturbation level.
    """

    K: int
    multiplicities: tuple
    t: int
    sigma: int
    node_gap: float
    eps: float

    def __post_init__(self):
        mult = tuple(int(m) for m in self.multiplicities)
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
    if d < 0:
        raise ModelError(f"order must be >= 0, got {d}")
    return Fraction(2 ** (d + 2) * (d + 2), math.factorial(d + 1))


def decimated_cap(d: int, R_star: float, B_star: float, N: int) -> float:
    """Node-error ceiling of the decimated plan at stride N."""
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
    if d < 0:
        raise ModelError(f"order must be >= 0, got {d}")
    return Fraction(3 ** (d + 1), math.factorial(d + 1))


def c9_bound(d: int) -> float:
    """Refined constant 3^{d+1}/(d+1)! in the decimated node bound."""
    return float(c9_exact(d))


def method_gap_exact(d: int) -> Fraction:
    if d < 0:
        raise ModelError(f"order must be >= 0, got {d}")
    return Fraction(3, 2) ** (d + 1) / (2 * (d + 2))


def method_gap_factor(d: int) -> float:
    """Accuracy-constant ratio (3/2)^{d+1}/(2(d+2)) between the refined
    bound and the decimated cap; equals c9/cap_constant exactly."""
    return float(method_gap_exact(d))


def misspec_exponent(d_used: int, d_true: int) -> int:
    """Predicted error exponent for order-d_used recovery on order-d_true data."""
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


def run_cap_trials(
    d: int,
    n_trials: int,
    seed: int,
    N: int = 32,
    R_star: float = 0.5,
    B_star: float = 0.5,
    A_star: float = 2.0,
) -> dict:
    """Drive the decimated solver on randomly perturbed single-jump moments.

    Each trial draws a jump with |a_0| in [B_star, A_star], perturbs the
    exact moments by |delta_k| <= R_star / k with random phase, recovers
    the jump, and compares the observed node error |omega_est - omega|
    with the decimated cap.  Returns counts and the worst observed ratio.
    """
    if n_trials < 1:
        raise ModelError(f"need at least one trial, got {n_trials}")
    rng = np.random.default_rng(seed)
    plan = SamplePlan("decimated", d, (d + 2) * N)
    bound = decimated_cap(d, R_star, B_star, N)
    violations = 0
    worst = 0.0
    for _ in range(n_trials):
        xi = float(rng.uniform(-np.pi, np.pi))
        a = [0.0] * (d + 1)
        a[0] = float(rng.uniform(B_star, A_star)) * float(rng.choice([-1.0, 1.0]))
        for l in range(1, d + 1):
            a[l] = float(rng.uniform(-A_star, A_star))
        alpha = magnitudes_to_alpha(a)
        clean = synth_moments(xi, alpha, plan)
        noise = np.array(
            [
                float(rng.uniform(0.0, 1.0))
                * (R_star / k)
                * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
                for k in plan.indices
            ]
        )
        est = _recover_from_moments(MomentSequence(plan, clean.values + noise), xi)
        observed = abs(np.exp(-1j * est.xi) - np.exp(-1j * xi))
        ratio = observed / bound
        worst = max(worst, ratio)
        if observed > bound:
            violations += 1
    return {
        "trials": n_trials,
        "violations": violations,
        "worst_ratio": worst,
        "bound": bound,
    }


def run_misspec_sweep(
    d_used: int,
    d_true: int,
    N_values: Sequence[int],
    seed: int,
    noise_amp: float = 0.05,
    trials_per_N: int = 24,
) -> dict:
    """Observed location-error decay when the model order is misstated.

    Data are single-jump moments of true order d_true (all weighted
    magnitudes bounded away from zero) perturbed at the admissible level
    |delta_k| <= noise_amp * k^{d_used - d_true - 1}; the solver runs at
    order d_used on the decimated plan.  Returns the median error per N
    and the fitted log-log slope, to be compared with misspec_exponent.
    """
    if d_true > d_used:
        raise ModelError("harness assumes d_true <= d_used")
    rng = np.random.default_rng(seed)
    medians = []
    for N in N_values:
        plan = SamplePlan("decimated", d_used, (d_used + 2) * int(N))
        errs = []
        for _ in range(trials_per_N):
            xi = float(rng.uniform(-np.pi, np.pi))
            alpha_true = [
                float(rng.uniform(0.5, 1.5))
                * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
                for _ in range(d_true + 1)
            ]
            vals = []
            for k in plan.indices:
                poly = sum(al * float(k) ** l for l, al in enumerate(alpha_true))
                delta = (
                    float(rng.uniform(0.5, 1.0))
                    * noise_amp
                    * float(k) ** (d_used - d_true - 1)
                    * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
                )
                vals.append(np.exp(-1j * k * xi) * poly + delta)
            moments = MomentSequence(plan, np.array(vals))
            est = _recover_from_moments(moments, xi)
            errs.append(circular_distance(est.xi, xi))
        medians.append(float(np.median(errs)))
    slope, used = fit_loglog_slope(np.asarray(N_values, float), medians)
    return {
        "N_values": list(int(n) for n in N_values),
        "median_errors": medians,
        "slope": slope,
        "predicted_exponent": misspec_exponent(d_used, d_true),
        "rows_used": int(used.sum()),
    }
