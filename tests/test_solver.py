"""Sample plans, annihilator construction, root handling, magnitude solve."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
import sympy
from hypothesis import given, strategies as st

from jumprec.errors import AmbiguityError, ModelError, WeakJumpWarning
from jumprec.model import JumpModel, phi_coeff_array
from jumprec.solver import (
    AnnihilatorPoly,
    SamplePlan,
    alpha_to_magnitudes,
    build_annihilator,
    disambiguate_nth_root,
    find_roots,
    half_order_recover,
    magnitudes_to_alpha,
    recover_single_jump,
    s_poly,
    select_root,
    solve_magnitudes,
    synth_moments,
)
from jumprec.spectrum import FourierSpectrum, MomentSequence, weight_moments


def jump_spectrum(model, M):
    return FourierSpectrum(M, phi_coeff_array(model, M), real_valued=model.is_real)


# ---------------------------------------------------------------- plans


def test_decimated_plan_geometry():
    plan = SamplePlan("decimated", 2, 17)
    assert plan.stride == 4
    assert plan.base_index == 4
    assert plan.indices == (4, 8, 12, 16)


def test_consecutive_plan_geometry():
    plan = SamplePlan("consecutive", 2, 17)
    assert plan.stride == 1
    assert plan.indices == (14, 15, 16, 17)


def test_plan_validation():
    with pytest.raises(ModelError):
        SamplePlan("decimated", 3, 4)  # cannot host d+2 indices
    with pytest.raises(ModelError):
        SamplePlan("striped", 1, 32)
    with pytest.raises(ModelError):
        SamplePlan("decimated", -1, 32)


# ---------------------------------------------------------------- s family


def test_lowest_s_polynomial_is_shifted_binomial():
    for d in (1, 4, 7):
        expect = [(-1) ** j * math.comb(d + 1, j) for j in range(d + 2)]
        assert s_poly(0, d) == expect


def test_pinned_s_polynomial_d2():
    assert s_poly(2, 2) == [1, -12, 27, -16]


def test_s_polynomial_product_form_at_index_one():
    w = sympy.Symbol("w")
    d = 3
    got = sympy.Poly(
        sum(c * w ** (d + 1 - j) for j, c in enumerate(s_poly(1, d))), w
    )
    expect = sympy.Poly(sympy.expand((w - 1) ** d * (w - (d + 2))), w)
    assert got == expect


def test_s_polynomial_validation():
    with pytest.raises(ModelError):
        s_poly(-1, 2)
    with pytest.raises(ModelError):
        s_poly(0, 17)


# ---------------------------------------------------------------- annihilator


def test_annihilator_rejects_mismatched_moments():
    plan = SamplePlan("decimated", 1, 30)
    wrong_order = MomentSequence(2, (10, 20, 30, 40), np.ones(4, dtype=complex))
    with pytest.raises(ModelError):
        build_annihilator(wrong_order, plan)
    wrong_indices = MomentSequence(1, (9, 20, 30), np.ones(3, dtype=complex))
    with pytest.raises(ModelError):
        build_annihilator(wrong_indices, plan)


def test_annihilator_coefficient_shape_guard():
    with pytest.raises(ModelError):
        AnnihilatorPoly(2, np.ones(2, dtype=complex), 1, 1)


def test_step_annihilator_root_is_exact_phase():
    # d = 0: the root of m_N u - m_2N is e^{-i xi N} with no error at all
    xi, N = 0.9, 16
    plan = SamplePlan("decimated", 0, 32)
    mom = synth_moments(xi, (1.3,), plan.indices)
    roots = find_roots(build_annihilator(mom, plan))
    assert len(roots) == 1
    assert abs(roots[0] - cmath.exp(-1j * xi * N)) <= 1e-12


def test_roots_shift_equivariance():
    # moving the jump by s multiplies every root by e^{-i s N}
    d, N, s = 2, 32, 0.31
    plan = SamplePlan("decimated", d, (d + 2) * N)
    alpha = magnitudes_to_alpha((1.0, -0.4, 0.25))
    r0 = np.sort_complex(
        find_roots(build_annihilator(synth_moments(0.5, alpha, plan.indices), plan))
    )
    r1 = np.sort_complex(
        find_roots(
            build_annihilator(synth_moments(0.5 + s, alpha, plan.indices), plan)
        )
    )
    rotated = np.sort_complex(r0 * cmath.exp(-1j * s * N))
    assert np.max(np.abs(r1 - rotated)) <= 1e-10


def test_roots_ignore_overall_moment_scale():
    d, N = 2, 32
    plan = SamplePlan("decimated", d, (d + 2) * N)
    mom = synth_moments(0.5, magnitudes_to_alpha((1.0, -0.4, 0.25)), plan.indices)
    scaled = MomentSequence(d, mom.indices, 7.3 * mom.values)
    r0 = np.sort_complex(find_roots(build_annihilator(mom, plan)))
    r1 = np.sort_complex(find_roots(build_annihilator(scaled, plan)))
    assert np.max(np.abs(r0 - r1)) <= 1e-10


@pytest.mark.parametrize(
    "d,mags", [(2, (1.0, -0.4, 0.25)), (3, (1.0, -0.4, 0.25, -0.1))]
)
def test_normalized_roots_approach_limit_root_set(d, mags):
    # dividing out e^{-i xi N} sends the root set to the order-d limit
    # polynomial's roots as the stride grows
    s_roots = np.sort(np.roots(np.array(s_poly(d, d), dtype=float)))
    xi = 0.9
    alpha = magnitudes_to_alpha(mags)
    dists = []
    for N in (16, 64, 256):
        plan = SamplePlan("decimated", d, (d + 2) * N)
        roots = find_roots(build_annihilator(synth_moments(xi, alpha, plan.indices), plan))
        z = cmath.exp(-1j * xi * N)
        dists.append(
            max(min(abs(r / z - sr) for sr in s_roots) for r in roots)
        )
    assert dists[0] > dists[1] > dists[2]
    assert dists[1] <= 0.1


def test_real_weight_vector_puts_roots_on_one_ray():
    # magnitudes (1, 0, 0.5) at d = 2 make every weight alpha_l real, so
    # all three roots share the phase -xi N exactly
    d, N, xi = 2, 32, 0.7
    plan = SamplePlan("decimated", d, (d + 2) * N)
    alpha = magnitudes_to_alpha((1.0, 0.0, 0.5))
    roots = find_roots(build_annihilator(synth_moments(xi, alpha, plan.indices), plan))
    target = -xi * N
    for r in roots:
        dev = abs((cmath.phase(r) - target + np.pi) % (2.0 * np.pi) - np.pi)
        assert dev <= 1e-9
    moduli = sorted(abs(r) for r in roots)
    assert moduli[0] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------- selection


def test_select_closest_picks_unit_circle_root():
    picked = select_root([3.0 + 0j, 1.001j, 0.5 + 0j])
    assert picked == 1.001j


def test_select_tie_breaks_toward_small_angle():
    picked = select_root([cmath.exp(-2.0j), cmath.exp(0.3j)])
    assert picked == cmath.exp(0.3j)


def test_select_validation():
    with pytest.raises(ModelError):
        select_root([])


def test_angle_average_ray_construction_end_to_end():
    # exact-data roots share one ray: their circular mean sits on e^{-i xi N}
    d, N, xi = 2, 32, 0.7
    plan = SamplePlan("decimated", d, (d + 2) * N)
    alpha = magnitudes_to_alpha((1.0, 0.0, 0.5))
    roots = find_roots(build_annihilator(synth_moments(xi, alpha, plan.indices), plan))
    mean = sum(r / abs(r) for r in roots)
    dev = abs((cmath.phase(mean) + xi * N + np.pi) % (2.0 * np.pi) - np.pi)
    assert dev <= 1e-12


# ---------------------------------------------------------------- branch pick


def test_branch_disambiguation_recovers_location():
    xi, N = 0.9, 16
    z = cmath.exp(-1j * xi * N)
    assert disambiguate_nth_root(z, N, 0.91) == pytest.approx(xi, abs=1e-12)


def test_branch_disambiguation_wraps_near_pi():
    xi, N = -3.1, 8
    z = cmath.exp(-1j * xi * N)
    assert disambiguate_nth_root(z, N, -3.14) == pytest.approx(xi, abs=1e-12)


def test_branch_disambiguation_tolerates_prior_near_half_spacing():
    xi, N = 0.9, 16
    z = cmath.exp(-1j * xi * N)
    prior = xi + 0.95 * np.pi / (2 * N)
    assert disambiguate_nth_root(z, N, prior) == pytest.approx(xi, abs=1e-12)


def _scan_double(z, N, xi_prior):
    # the O(N) candidate scan the closed form replaced, kept as the reference
    t = -cmath.phase(z)
    cands = sorted(
        float(np.mod(t / N + 2.0 * np.pi * n / N + np.pi, 2.0 * np.pi) - np.pi)
        for n in range(N)
    )
    dists = []
    for xi in cands:
        d = abs(xi - xi_prior) % (2.0 * np.pi)
        dists.append(min(d, 2.0 * np.pi - d))
    order = np.argsort(dists)
    if N > 1 and abs(dists[order[1]] - dists[order[0]]) < 1e-12:
        raise AmbiguityError("tie")
    return float(cands[order[0]])


def _scan_mp(z, N, xi_prior):
    # the extended-precision scan the closed form replaced
    t = -mp.arg(z)
    cands = sorted(
        ((t / N + 2 * mp.pi * n / N) + mp.pi) % (2 * mp.pi) - mp.pi for n in range(N)
    )
    dists = []
    for xi in cands:
        d = abs(xi - xi_prior) % (2 * mp.pi)
        dists.append(min(d, 2 * mp.pi - d))
    order = sorted(range(N), key=lambda i: dists[i])
    if N > 1 and abs(dists[order[1]] - dists[order[0]]) < mp.mpf("1e-12"):
        raise AmbiguityError("tie")
    return float(cands[order[0]])


def _outcome(fn, *args):
    try:
        return float(fn(*args))
    except AmbiguityError:
        return "ambiguous"


@given(
    phase=st.floats(-np.pi, np.pi),
    modulus=st.floats(0.5, 2.0),
    N=st.integers(1, 1024),
    free_prior=st.floats(-4.0, 4.0),
    branch=st.integers(0, 1023),
    # offsets from a midpoint between two branches, on both sides of the gate
    tie_offset=st.one_of(
        st.none(), st.sampled_from([0.0, 1e-14, -3e-13, 4e-13, -2e-12, 5e-12, 1e-9])
    ),
)
def test_closed_form_disambiguation_matches_the_scan(
    phase, modulus, N, free_prior, branch, tie_offset
):
    if tie_offset is None:
        prior = free_prior
    else:
        mid = -phase / N + 2.0 * np.pi * (branch % N + 0.5) / N
        prior = float(np.mod(mid + tie_offset + np.pi, 2.0 * np.pi) - np.pi)
    z = cmath.rect(modulus, phase)
    assert _outcome(disambiguate_nth_root, z, N, prior) == _outcome(
        _scan_double, z, N, prior
    )
    with mp.workdps(50):
        z_mp = mp.mpc(z.real, z.imag)
        assert _outcome(disambiguate_nth_root, z_mp, N, prior) == _outcome(
            _scan_mp, z_mp, N, prior
        )


def test_branch_disambiguation_errors():
    with pytest.raises(ModelError):
        disambiguate_nth_root(1.0 + 0j, 0, 0.0)
    with pytest.raises(ModelError):
        disambiguate_nth_root(0.0j, 4, 0.0)
    with pytest.raises(AmbiguityError):
        disambiguate_nth_root(1.0 + 0j, 2, np.pi / 2)


# ---------------------------------------------------------------- weights


def test_pinned_weight_vector():
    alpha = magnitudes_to_alpha((1.0, -0.4, 0.25))
    assert alpha == (0.25 + 0j, -0.4j, -1.0 + 0j)


@given(
    st.lists(
        st.tuples(
            st.floats(-4, 4, allow_nan=False).filter(lambda v: abs(v) > 1e-3),
            st.floats(-4, 4, allow_nan=False),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_weight_map_round_trips(pairs):
    a = tuple(complex(re, im) for re, im in pairs)
    back = alpha_to_magnitudes(magnitudes_to_alpha(a))
    assert max(abs(x - y) for x, y in zip(a, back)) <= 1e-12


def test_weighted_moments_match_closed_form():
    # 2 pi (ik)^{d+1} c_k collapses to e^{-ik xi} sum_l alpha_l k^l
    m = JumpModel(2, ((0.7, (1.0, -0.5, 0.3)),))
    sp = jump_spectrum(m, 64)
    idx = (5, 17, 40, 64)
    lhs = weight_moments(sp, 2, idx)
    rhs = synth_moments(0.7, magnitudes_to_alpha((1.0, -0.5, 0.3)), idx)
    assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12


# ---------------------------------------------------------------- magnitudes


def test_magnitude_solve_complex_weights_decimated():
    d, xi = 1, 0.4
    plan = SamplePlan("decimated", d, 60)  # stride 20
    alpha = (2.0 + 1.0j, -1.0 + 0j)
    mom = synth_moments(xi, alpha, plan.indices)
    got_alpha, got_a = solve_magnitudes(mom, cmath.exp(-1j * xi), plan)
    assert max(abs(x - y) for x, y in zip(got_alpha, alpha)) <= 1e-11
    assert max(
        abs(x - y) for x, y in zip(got_a, alpha_to_magnitudes(alpha))
    ) <= 1e-11


def test_magnitude_solve_consecutive_plan():
    d, xi = 1, -0.8
    plan = SamplePlan("consecutive", d, 12)
    alpha = (1.5 + 0j, -0.5j)
    mom = synth_moments(xi, alpha, plan.indices)
    got_alpha, _ = solve_magnitudes(mom, cmath.exp(-1j * xi), plan)
    assert max(abs(x - y) for x, y in zip(got_alpha, alpha)) <= 1e-11


def test_magnitude_solve_validation():
    plan = SamplePlan("decimated", 1, 60)
    mom = synth_moments(0.4, (1.0, 0.5), plan.indices)
    with pytest.raises(ModelError):
        solve_magnitudes(mom, 1.5 + 0j, plan)  # off the unit circle
    with pytest.raises(ModelError):
        solve_magnitudes(mom, 1.0 + 0j, SamplePlan("decimated", 2, 80))
    shifted = MomentSequence(1, (21, 41, 61), mom.values)
    with pytest.raises(ModelError):
        solve_magnitudes(shifted, 1.0 + 0j, plan)


# ---------------------------------------------------------------- recovery


def test_single_jump_recovery_pinned_example():
    m = JumpModel(2, ((0.7, (1.0, -0.5, 0.3)),))
    est = recover_single_jump(jump_spectrum(m, 120), 2, 0.65)
    assert abs(est.xi - 0.7) <= 1e-12
    for got, want in zip(est.magnitudes, (1.0, -0.5, 0.3)):
        assert abs(got - want) <= 1e-7
    assert est.order == 2
    assert est.root_residual <= 1e-9
    assert est.condition_note > 0.1


def test_recovery_validation():
    m = JumpModel(0, ((0.7, (1.0,)),))
    sp = jump_spectrum(m, 32)
    with pytest.raises(ModelError):
        recover_single_jump(sp, 0, 0.7, M=64)
    with pytest.raises(ModelError):
        recover_single_jump(sp, 0, None)  # decimated needs a prior


def test_recovery_consecutive_needs_no_prior():
    # at M = d+2 the decimated plan has stride 1, its indices 1..d+2 are
    # consecutive, and the root gives xi directly
    m = JumpModel(1, ((0.7, (1.0, 0.4)),))
    est = recover_single_jump(jump_spectrum(m, 3), 1, None)
    assert abs(est.xi - 0.7) <= 1e-8


def test_weak_jump_triggers_warning():
    m = JumpModel(0, ((0.7, (1e-4,)),))
    with pytest.warns(WeakJumpWarning):
        recover_single_jump(jump_spectrum(m, 32), 0, 0.7, weak_floor=0.5)


def test_half_order_recovery_is_consecutive_at_reduced_order():
    m = JumpModel(1, ((0.7, (1.0, 0.4)),))
    est = half_order_recover(jump_spectrum(m, 64), 1)
    assert abs(est.xi - 0.7) <= 1e-8
    assert abs(est.magnitudes[0] - 1.0) <= 1e-6
    with pytest.raises(ModelError):
        half_order_recover(jump_spectrum(m, 64), 1, M=100)
