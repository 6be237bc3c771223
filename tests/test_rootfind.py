"""Deterministic polynomial root finding, double and extended precision."""

import cmath

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from jumprec import rootfind
from jumprec.errors import RootFindError
from jumprec.rootfind import find_roots, find_roots_mp


def test_degenerate_inputs_are_rejected():
    with pytest.raises(RootFindError):
        find_roots([1.0])
    with pytest.raises(RootFindError):
        find_roots([0.0, 0.0, 0.0])
    with pytest.raises(RootFindError):
        find_roots([1e-16, 1.0, 1.0])  # leading coefficient below scale
    with pytest.raises(RootFindError):
        find_roots([1.0, float("nan"), 1.0])


def test_linear_shortcut():
    roots = find_roots([2.0, -4.0])
    assert roots.shape == (1,)
    assert roots[0] == pytest.approx(2.0, abs=1e-15)


def test_real_factored_cubic():
    roots = np.sort(find_roots([1.0, -6.0, 11.0, -6.0]).real)
    assert np.allclose(roots, [1.0, 2.0, 3.0], atol=1e-10)


def test_conjugate_pair():
    roots = sorted(find_roots([1.0, 0.0, 1.0]), key=lambda r: r.imag)
    assert abs(roots[0] + 1j) <= 1e-12
    assert abs(roots[1] - 1j) <= 1e-12


def test_roots_of_unity_high_degree():
    roots = find_roots([1.0] + [0.0] * 7 + [-1.0])
    targets = [cmath.exp(2j * cmath.pi * k / 8) for k in range(8)]
    for t in targets:
        assert min(abs(r - t) for r in roots) <= 1e-12


def test_repeated_runs_agree_bitwise():
    coeffs = [1.0, -2.5 + 0.5j, 0.75, -0.3j]
    a = find_roots(coeffs)
    b = find_roots(coeffs)
    assert np.array_equal(a, b)


def test_overall_scale_does_not_move_roots():
    coeffs = np.array([1.0, -6.0, 11.0, -6.0])
    a = np.sort_complex(find_roots(coeffs))
    b = np.sort_complex(find_roots(1e5 * coeffs))
    assert np.max(np.abs(a - b)) <= 1e-10


@given(
    st.lists(
        st.floats(-3, 3, allow_nan=False).filter(lambda v: abs(v) > 1e-2),
        min_size=2,
        max_size=6,
    )
)
def test_roots_reproduce_monic_factorization(vals):
    # build the polynomial from its roots, then demand they come back;
    # clustered roots are excluded, their condition number blows up
    gap = min(
        abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1 :]
    ) if len(vals) > 1 else 1.0
    assume(gap > 0.2)
    coeffs = np.array([1.0 + 0j])
    for r in vals:
        coeffs = np.convolve(coeffs, [1.0, -r])
    roots = find_roots(coeffs)
    for r in vals:
        assert min(abs(z - r) for z in roots) <= 1e-6


def test_residual_gate_can_fire(monkeypatch):
    # roots +-sqrt(2) leave a nonzero rounding residual in double
    coeffs = [1.0, 0.0, -2.0]
    assert len(find_roots(coeffs)) == 2
    monkeypatch.setattr(rootfind, "_RESIDUAL_FACTOR", 0.0)
    with pytest.raises(RootFindError, match="did not converge"):
        find_roots(coeffs)


def test_underflowing_leading_coefficient_is_rejected():
    # 1e-14 x scale underflows to 0 here, so only the zero test catches it
    with pytest.raises(RootFindError, match="vanishing leading coefficient"):
        find_roots([0.0, 1e-310, 1e-310])
    # a subnormal leading coefficient can overflow the normalization
    with pytest.raises(RootFindError, match="non-finite"):
        find_roots([-1e-310 + 1e-315j, -1e-315 - 1e-308j])


def test_extended_precision_matches_double_and_refines():
    coeffs = [1.0, -6.0, 11.0, -6.0]
    got = find_roots_mp(coeffs, 50)
    vals = sorted(float(mp.re(r)) for r in got)
    assert np.allclose(vals, [1.0, 2.0, 3.0], atol=1e-10)
    # residual at 50 digits sits far below double rounding
    with mp.workdps(50):
        for r in got:
            p = mp.polyval([mp.mpc(c) for c in coeffs], r)
            assert abs(p) < mp.mpf("1e-30")


def test_extended_precision_validation():
    with pytest.raises(RootFindError):
        find_roots_mp([1.0], 30)
    with pytest.raises(RootFindError):
        find_roots_mp([0.0, 0.0], 30)
    with pytest.raises(RootFindError):
        find_roots_mp([1.0, float("inf"), 1.0], 30)


def test_extended_precision_failures_are_root_find_errors(monkeypatch):
    # roots +-sqrt(2) leave a nonzero rounding residual at any precision
    coeffs = [1.0, 0.0, -2.0]
    assert len(find_roots_mp(coeffs, 50)) == 2
    monkeypatch.setattr(rootfind, "_RESIDUAL_FACTOR", 0.0)
    with pytest.raises(RootFindError):
        find_roots_mp(coeffs, 50)
    monkeypatch.undo()
    # mpmath's NoConvergence surfaces as the library's own error
    monkeypatch.setattr(rootfind, "_MP_MAX_STEPS", 1)
    with pytest.raises(RootFindError):
        find_roots_mp([1.0, -6.0, 11.0, -6.0], 50)
