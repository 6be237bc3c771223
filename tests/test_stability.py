"""Closed-form error bounds and the harnesses that stress them."""

from fractions import Fraction

import numpy as np
import pytest

from jumprec.errors import ModelError
from jumprec.stability import (
    ERROR_FLOOR,
    PronyConfig,
    c9_bound,
    c9_exact,
    decimated_cap,
    decimated_cap_constant,
    fit_loglog_slope,
    method_gap_exact,
    method_gap_factor,
    misspec_exponent,
    node_perturbation_bound,
)
from stability_trials import run_cap_trials, run_misspec_sweep


# ---------------------------------------------------------------- configs


def test_prony_config_counts():
    cfg = PronyConfig(K=2, multiplicities=(2, 1), sigma=1,
                      node_gap=0.5, eps=1e-3)
    assert cfg.C == 3
    assert cfg.R_total == 5


def test_prony_config_validation():
    good = dict(sigma=1, node_gap=0.5, eps=1e-3)
    with pytest.raises(ModelError):
        PronyConfig(K=0, multiplicities=(), **good)
    with pytest.raises(ModelError):
        PronyConfig(K=2, multiplicities=(1,), **good)
    with pytest.raises(ModelError):
        PronyConfig(K=1, multiplicities=(0,), **good)
    with pytest.raises(ModelError):
        PronyConfig(K=1, multiplicities=(1,), sigma=0,
                    node_gap=0.5, eps=1e-3)
    with pytest.raises(ModelError):
        PronyConfig(K=1, multiplicities=(1,), sigma=1,
                    node_gap=2.5, eps=1e-3)
    with pytest.raises(ModelError):
        PronyConfig(K=1, multiplicities=(1,), sigma=1,
                    node_gap=0.5, eps=-1e-3)


# ---------------------------------------------------------------- node bound


def test_node_bound_closed_form_value():
    cfg = PronyConfig(K=1, multiplicities=(2,), sigma=1,
                      node_gap=0.5, eps=1e-3)
    # (2/2!) * (2/0.5)^3 * 1e-3 / (1 * 1^2) = 64e-3
    assert node_perturbation_bound(cfg, 0, 1.0) == pytest.approx(
        0.064, rel=1e-12
    )


def test_node_bound_scales_with_stride_and_level():
    base = PronyConfig(K=1, multiplicities=(2,), sigma=1,
                       node_gap=0.5, eps=1e-3)
    wide = PronyConfig(K=1, multiplicities=(2,), sigma=2,
                       node_gap=0.5, eps=1e-3)
    loud = PronyConfig(K=1, multiplicities=(2,), sigma=1,
                       node_gap=0.5, eps=2e-3)
    b0 = node_perturbation_bound(base, 0, 1.0)
    assert node_perturbation_bound(wide, 0, 1.0) == pytest.approx(
        b0 / 4.0, rel=1e-12
    )
    assert node_perturbation_bound(loud, 0, 1.0) == pytest.approx(
        2.0 * b0, rel=1e-12
    )


def test_node_bound_validation():
    cfg = PronyConfig(K=1, multiplicities=(2,), sigma=1,
                      node_gap=0.5, eps=1e-3)
    with pytest.raises(ModelError):
        node_perturbation_bound(cfg, 1, 1.0)
    with pytest.raises(ModelError):
        node_perturbation_bound(cfg, 0, 0.0)
    flat = PronyConfig(K=1, multiplicities=(2,), sigma=1,
                       node_gap=0.0, eps=1e-3)
    with pytest.raises(ModelError, match="degenerate"):
        node_perturbation_bound(flat, 0, 1.0)


@pytest.mark.parametrize("d", range(7))
def test_node_bound_sits_under_the_stride_cap(d):
    # one node of multiplicity d+1 sampled at stride N with the noise
    # level of the lowest retained index never exceeds the plan cap
    R_star, B_star = 0.5, 0.5
    for N in (8, 64):
        cfg = PronyConfig(K=1, multiplicities=(d + 1,), sigma=N,
                          node_gap=2.0, eps=R_star / N)
        nb = node_perturbation_bound(cfg, 0, B_star)
        assert nb <= decimated_cap(d, R_star, B_star, N)


# ---------------------------------------------------------------- constants


def test_cap_constant_exact_values():
    assert decimated_cap_constant(1) == Fraction(12)
    assert decimated_cap_constant(2) == Fraction(32, 3)
    with pytest.raises(ModelError):
        decimated_cap_constant(-1)


def test_cap_value_and_validation():
    assert decimated_cap(1, 0.5, 0.5, 32) == pytest.approx(
        12.0 / 32**3, rel=1e-15
    )
    with pytest.raises(ModelError):
        decimated_cap(1, 0.5, 0.0, 32)
    with pytest.raises(ModelError):
        decimated_cap(1, -0.1, 0.5, 32)
    with pytest.raises(ModelError):
        decimated_cap(1, 0.5, 0.5, 0)


def test_refined_constant_values():
    assert c9_bound(1) == 4.5
    assert c9_exact(2) == Fraction(9, 2)
    with pytest.raises(ModelError):
        c9_exact(-1)


def test_gap_factor_identity():
    assert method_gap_exact(1) == Fraction(3, 8)
    assert method_gap_factor(1) == 0.375
    for d in range(11):
        assert method_gap_exact(d) == c9_exact(d) / decimated_cap_constant(d)


def test_misspec_exponent_table():
    assert misspec_exponent(2, 1) == -2
    assert misspec_exponent(1, 1) == -3
    for d in range(5):
        assert misspec_exponent(d, d) == -d - 2
    with pytest.raises(ModelError):
        misspec_exponent(1, 2)
    with pytest.raises(ModelError):
        misspec_exponent(1, -1)


# ---------------------------------------------------------------- slope fits


def test_slope_fit_on_exact_power_law():
    Ms = np.array([10.0, 100.0, 1000.0])
    slope, used = fit_loglog_slope(Ms, 7.0 * Ms**-3)
    assert slope == pytest.approx(-3.0, abs=1e-12)
    assert used.all()


def test_slope_fit_excludes_floor_rows():
    Ms = np.array([10.0, 100.0, 1000.0])
    errs = np.array([1e-2, 1e-5, 1e-16])
    slope, used = fit_loglog_slope(Ms, errs)
    assert list(used) == [True, True, False]
    assert slope == pytest.approx(-3.0, abs=1e-12)
    # floor=None keeps everything
    _, used_all = fit_loglog_slope(Ms, errs, floor=None)
    assert used_all.all()


def test_slope_fit_degenerate_cases():
    Ms = np.array([10.0, 100.0])
    slope, used = fit_loglog_slope(Ms, np.array([1e-16, 1e-17]))
    assert np.isnan(slope)
    assert used.sum() == 0
    with pytest.raises(ModelError):
        fit_loglog_slope(np.array([1.0, 2.0]), np.array([1.0]))
    assert ERROR_FLOOR == pytest.approx(100.0 * np.finfo(float).eps, rel=0)


# ---------------------------------------------------------------- harnesses


def test_cap_trials_quick_run_is_clean_and_deterministic():
    out = run_cap_trials(1, 20, seed=20260823)
    assert out["trials"] == 20
    assert out["violations"] == 0
    assert out["worst_ratio"] < 1.0
    assert out["bound"] == pytest.approx(decimated_cap(1, 0.5, 0.5, 32), rel=0)
    again = run_cap_trials(1, 20, seed=20260823)
    assert again == out
    with pytest.raises(ModelError):
        run_cap_trials(1, 0, seed=1)


def test_misspec_sweep_matched_order_tracks_prediction():
    out = run_misspec_sweep(1, 1, (16, 32, 64), seed=7, trials_per_N=8)
    assert out["predicted_exponent"] == -3
    assert out["rows_used"] == 3
    assert abs(out["slope"] - (-3.0)) <= 0.75
    with pytest.raises(ModelError):
        run_misspec_sweep(1, 2, (16, 32), seed=7)
