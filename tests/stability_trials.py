"""Empirical harnesses for the c08 and c09 acceptance checks.

They drive the decimated solver on synthetic perturbed single-jump
moments and compare the observed errors with stability's closed-form
cap and misspecification exponent.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from jumprec.errors import ModelError
from jumprec.solver import magnitudes_to_alpha, recover_single_jump, synth_moments
from jumprec.spectrum import MomentSequence, SamplePlan, circular_distance
from jumprec.stability import decimated_cap, fit_loglog_slope, misspec_exponent


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
        est = recover_single_jump(MomentSequence(plan, clean.values + noise), xi)
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
            est = recover_single_jump(moments, xi)
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
