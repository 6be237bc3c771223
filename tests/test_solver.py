"""Sample plans, annihilator construction, root handling, magnitude solve."""

import cmath
import copy
import math
import pickle
import re

import mpmath as mp
import numpy as np
import pytest
import sympy
from hypothesis import given, strategies as st

from conftest import (
    bits,
    magnitudes_reference,
    magnitudes_to_alpha,
    roots_reference,
    sampled_moments,
    synth_moments,
)
from jumprec.errors import AmbiguityError, ModelError, NumericError
from jumprec.model import JumpModel, phi_coeff_array
from jumprec.rootfind import find_roots
from jumprec.solver import (
    alpha_to_magnitudes,
    build_annihilator,
    disambiguate_nth_root,
    half_order_recover,
    recover_single_jump,
    s_poly,
    select_root,
    solve_magnitudes,
)
from jumprec.spectrum import FourierSpectrum, MomentSequence, SamplePlan


def jump_spectrum(model, M):
    return FourierSpectrum(M, phi_coeff_array(model, M), real_valued=model.is_real)


# ---------------------------------------------------------------- plans


SPEC8 = FourierSpectrum(8, np.ones(17, dtype=complex))


_NOT_INTEGERS = {
    "M=30.0": lambda: SamplePlan("decimated", 1, 30.0),
    "d=1.5": lambda: SamplePlan("decimated", 1.5, 30),
    "d=True": lambda: SamplePlan("consecutive", True, 30),
}


@pytest.mark.parametrize("field", _NOT_INTEGERS)
def test_plan_and_moment_integers_are_read_not_truncated(field):
    # a float, bool or string where an integer belongs is a ModelError that
    # names the field, never a truncated index or a leaked TypeError; the
    # moments take their order and indices from the plan
    with pytest.raises(ModelError, match=re.escape(field)):
        _NOT_INTEGERS[field]()


def test_numpy_integers_are_plan_and_moment_integers():
    plan = SamplePlan("decimated", np.int64(1), np.int64(6))
    assert plan.indices == (2, 4, 6)
    assert all(type(k) is int for k in plan.indices)
    mom = sampled_moments(SPEC8, plan)
    assert type(mom.order) is int and mom.order == 1
    assert mom.indices == (2, 4, 6) and mom.plan is plan


def test_plans_are_values_of_their_shape():
    # a plan is its (kind, d, M): equal shapes built apart, however the
    # integers arrive, are equal and hash alike, so the caches keyed by a
    # plan hit by value; every copy runs the constructor's checks
    plan = SamplePlan("decimated", 2, 64)
    for same in (
        SamplePlan("decimated", np.int64(2), 64),
        SamplePlan(kind="decimated", d=2, M=np.int32(64)),
        SamplePlan("decimated", 2, 32)._replace(M=np.int64(64)),
        SamplePlan._make(["decimated", 2, 64]),
        copy.copy(plan),
        copy.deepcopy(plan),
        pickle.loads(pickle.dumps(plan)),
    ):
        assert type(same) is SamplePlan and same == plan and hash(same) == hash(plan)
        assert all(type(n) is int for n in (same.d, same.M))
    assert plan != SamplePlan("consecutive", 2, 64)
    with pytest.raises(ModelError, match="cannot host"):
        plan._replace(M=1)
    with pytest.raises(ModelError, match="unknown plan kind"):
        plan._replace(kind="striped")
    with pytest.raises(ModelError, match="d must be an integer"):
        SamplePlan._make(("decimated", 1.5, 30))
    with pytest.raises(AttributeError):
        plan.M = 128


def test_decimated_plan_geometry():
    plan = SamplePlan("decimated", 2, 17)
    assert plan.stride == 4
    assert plan.indices[0] == 4
    assert plan.indices == (4, 8, 12, 16)


def test_consecutive_plan_geometry():
    plan = SamplePlan("consecutive", 2, 17)
    assert plan.stride == 1
    assert plan.indices == (14, 15, 16, 17)


def test_plan_validation():
    with pytest.raises(ModelError):
        SamplePlan("decimated", 3, 4)  # cannot host d+2 indices
    with pytest.raises(ModelError):
        SamplePlan("consecutive", 3, 4)  # nor a consecutive one
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


def test_annihilator_degree_is_its_coefficient_count_less_one():
    plan = SamplePlan("decimated", 2, 30)
    coeffs = build_annihilator(MomentSequence(plan, np.ones(4, dtype=complex)))
    assert coeffs == [1, -3, 3, -1]


def test_step_annihilator_root_is_exact_phase():
    # d = 0: the root of m_N u - m_2N is e^{-i xi N} with no error at all
    xi, N = 0.9, 16
    plan = SamplePlan("decimated", 0, 32)
    mom = synth_moments(xi, (1.3,), plan)
    roots = find_roots(build_annihilator(mom))
    assert len(roots) == 1
    assert abs(roots[0] - cmath.exp(-1j * xi * N)) <= 1e-12


def test_roots_shift_equivariance():
    # moving the jump by s multiplies every root by e^{-i s N}
    d, N, s = 2, 32, 0.31
    plan = SamplePlan("decimated", d, (d + 2) * N)
    alpha = magnitudes_to_alpha((1.0, -0.4, 0.25))
    r0 = np.sort_complex(find_roots(build_annihilator(synth_moments(0.5, alpha, plan))))
    r1 = np.sort_complex(
        find_roots(build_annihilator(synth_moments(0.5 + s, alpha, plan)))
    )
    rotated = np.sort_complex(r0 * cmath.exp(-1j * s * N))
    assert np.max(np.abs(r1 - rotated)) <= 1e-10


def test_roots_ignore_overall_moment_scale():
    d, N = 2, 32
    plan = SamplePlan("decimated", d, (d + 2) * N)
    mom = synth_moments(0.5, magnitudes_to_alpha((1.0, -0.4, 0.25)), plan)
    scaled = MomentSequence(plan, 7.3 * mom.values)
    r0 = np.sort_complex(find_roots(build_annihilator(mom)))
    r1 = np.sort_complex(find_roots(build_annihilator(scaled)))
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
        roots = find_roots(build_annihilator(synth_moments(xi, alpha, plan)))
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
    roots = find_roots(build_annihilator(synth_moments(xi, alpha, plan)))
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
    roots = find_roots(build_annihilator(synth_moments(xi, alpha, plan)))
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
    # 2 pi (ik)^{d+1} c_k collapses to e^{-ik xi} sum_l alpha_l k^l: the
    # moments of the synthesized spectrum and synth_moments both sit within
    # a few ulp of that closed form in mpmath, relative to the scale
    # sum_l |alpha_l| k^l of its terms, at every index up to 2^16
    m = JumpModel(2, ((0.7, (1.0, -0.5, 0.3)),))
    alpha = magnitudes_to_alpha((1.0, -0.5, 0.3))
    for M in (64, 4096, 65536):
        sp = jump_spectrum(m, M)
        for plan in (SamplePlan("decimated", 2, M), SamplePlan("consecutive", 2, M - 14)):
            with mp.workdps(40):
                terms = [[mp.mpc(a.real, a.imag) * mp.mpf(k) ** l for l, a in enumerate(alpha)]
                         for k in plan.indices]
                want = np.array([complex(mp.expj(-k * mp.mpf(0.7)) * sum(t))
                                 for k, t in zip(plan.indices, terms)])
                scale = np.array([float(sum(abs(x) for x in t)) for t in terms])
            tol = 4.0 * np.finfo(float).eps * scale
            assert np.all(np.abs(sampled_moments(sp, plan).values - want) <= tol)
            assert np.all(np.abs(synth_moments(0.7, alpha, plan).values - want) <= tol)


# ---------------------------------------------------------------- magnitudes


def test_magnitude_solve_complex_weights_decimated():
    d, xi = 1, 0.4
    plan = SamplePlan("decimated", d, 60)  # stride 20
    alpha = (2.0 + 1.0j, -1.0 + 0j)
    mom = synth_moments(xi, alpha, plan)
    # the root of the decimated annihilator, e^{-i xi N}
    got_alpha, got_a = solve_magnitudes(mom, cmath.exp(-1j * xi * plan.stride))
    assert max(abs(x - y) for x, y in zip(got_alpha, alpha)) <= 1e-11
    assert max(
        abs(x - y) for x, y in zip(got_a, alpha_to_magnitudes(alpha))
    ) <= 1e-11


def test_magnitude_solve_consecutive_plan():
    d, xi = 1, -0.8
    plan = SamplePlan("consecutive", d, 12)
    alpha = (1.5 + 0j, -0.5j)
    mom = synth_moments(xi, alpha, plan)
    got_alpha, _ = solve_magnitudes(mom, cmath.exp(-1j * xi))
    assert max(abs(x - y) for x, y in zip(got_alpha, alpha)) <= 1e-11


@pytest.mark.parametrize("kind", ["decimated", "consecutive"])
@given(
    d=st.integers(0, 5),
    N=st.integers(1, 64),
    xi=st.floats(-np.pi, np.pi, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_magnitude_solve_is_the_array_form_bit_for_bit(kind, d, N, xi, seed):
    # noisy moments and a root a little off the jump's, e^{-i xi N} for
    # the plan's stride N: Python complex arithmetic gives the bits the
    # numpy-scalar array form gave
    rng = np.random.default_rng(seed)
    plan = SamplePlan(kind, d, (d + 2) * N)
    alpha = tuple(complex(*rng.uniform(-2.0, 2.0, 2)) for _ in range(d + 1))
    exact = synth_moments(xi, alpha, plan).values
    noise = 1e-3 * (rng.normal(size=d + 2) + 1j * rng.normal(size=d + 2))
    mom = MomentSequence(plan, exact * (1.0 + noise))
    root = cmath.exp(-1j * (xi + 1e-3 * rng.normal() / plan.M) * plan.stride)
    try:
        got_alpha, got_a = solve_magnitudes(mom, root)
    except NumericError:
        return  # the residual gate refused the system; the reference has no gate
    ref_alpha, ref_a = magnitudes_reference(mom, root)
    assert bits(got_alpha).tobytes() == bits(ref_alpha).tobytes()
    assert bits(got_a).tobytes() == bits(ref_a).tobytes()


def test_magnitude_solve_refuses_an_overflowed_system():
    # finite moments near the double range overflow vinv @ rhs; the NaN
    # weights fail the residual gate instead of coming back as magnitudes
    plan = SamplePlan("decimated", 2, 8)
    mom = MomentSequence(plan, np.array([1e308, -1e308, 1e308, 1.0]))
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="ill-conditioned"):
        solve_magnitudes(mom, 1.0 + 0j)


def test_magnitude_solve_validation():
    plan = SamplePlan("decimated", 1, 60)
    mom = synth_moments(0.4, (1.0, 0.5), plan)
    with pytest.raises(ModelError):
        solve_magnitudes(mom, 1.5 + 0j)  # off the unit circle
    # finite parts whose modulus passes the double range are off it too
    with pytest.raises(ModelError, match="inf"):
        solve_magnitudes(mom, 1.5e308 + 1.5e308j)


# ---------------------------------------------------------------- recovery


def test_single_jump_recovery_pinned_example():
    m = JumpModel(2, ((0.7, (1.0, -0.5, 0.3)),))
    plan = SamplePlan("decimated", 2, 120)
    est = recover_single_jump(sampled_moments(jump_spectrum(m, 120), plan), 0.65)
    assert abs(est.xi - 0.7) <= 1e-12
    for got, want in zip(est.magnitudes, (1.0, -0.5, 0.3)):
        assert abs(got - want) <= 1e-7
    assert est.order == 2
    assert est.root_residual <= 1e-9
    assert est.condition_note > 0.1


@pytest.mark.parametrize("d,M", [(1, 64), (2, 256), (3, 1024)])
def test_circle_offset_is_rounding_on_exact_moments_and_grows_with_their_error(d, M):
    # exact moments put the root e^{-i xi N} on the unit circle; a relative
    # moment error moves it off the circle in proportion, the scale on
    # which the polish stops
    plan = SamplePlan("decimated", d, M)
    exact = synth_moments(0.7, magnitudes_to_alpha((1.0, -0.4, 0.25, 0.1)[: d + 1]), plan)
    rng = np.random.default_rng(3)
    w = rng.normal(size=d + 2) + 1j * rng.normal(size=d + 2)
    offsets = [recover_single_jump(exact, 0.7).circle_offset]
    for rel in (1e-8, 1e-5):
        moments = MomentSequence(plan, exact.values * (1.0 + rel * w))
        offsets.append(recover_single_jump(moments, 0.7).circle_offset)
    assert isinstance(offsets[0], float)
    assert offsets[0] <= 1e-15
    assert 1e-12 <= offsets[1] <= 1e-7
    assert 300.0 <= offsets[2] / offsets[1] <= 3000.0


def test_recovery_validation():
    m = JumpModel(0, ((0.7, (1.0,)),))
    sp = jump_spectrum(m, 32)
    with pytest.raises(ModelError, match="usable M=64 exceeds spectrum M=32"):
        sampled_moments(sp, SamplePlan("decimated", 0, 64))
    with pytest.raises(ModelError, match="requires a location prior"):
        recover_single_jump(sampled_moments(sp, SamplePlan("decimated", 0, 32)), None)


def test_recovery_consecutive_needs_no_prior():
    # at M = d+2 the decimated plan has stride 1, its indices 1..d+2 are
    # consecutive, and the root gives xi directly
    m = JumpModel(1, ((0.7, (1.0, 0.4)),))
    moments = sampled_moments(jump_spectrum(m, 3), SamplePlan("decimated", 1, 3))
    est = recover_single_jump(moments, None)
    assert abs(est.xi - 0.7) <= 1e-8


def test_half_order_recovery_is_consecutive_at_reduced_order():
    m = JumpModel(1, ((0.7, (1.0, 0.4)),))
    sp = jump_spectrum(m, 64)
    est = half_order_recover(sampled_moments(sp, SamplePlan("consecutive", 1, 64)))
    assert abs(est.xi - 0.7) <= 1e-8
    assert abs(est.magnitudes[0] - 1.0) <= 1e-6
    with pytest.raises(ModelError):
        sampled_moments(sp, SamplePlan("consecutive", 1, 100))


def test_one_solve_takes_either_plan_kind():
    # half_order_recover is recover_single_jump with no prior, bit for bit,
    # and a decimated plan of stride > 1 still asks for the prior
    sp = jump_spectrum(JumpModel(1, ((0.7, (1.0, 0.4)),)), 64)
    moments = sampled_moments(sp, SamplePlan("consecutive", 1, 64))
    assert half_order_recover(moments) == recover_single_jump(moments, None)
    with pytest.raises(ModelError, match="requires a location prior"):
        half_order_recover(sampled_moments(sp, SamplePlan("decimated", 1, 64)))


def _solve_reference(moments, xi_prior):
    # the whole solve from independent parts: the annihilator from
    # math.comb, numpy.roots, the nearest-circle pick with its 1e-14 tie
    # rule, the O(N) branch scan and the array-form magnitude solve
    plan = moments.plan
    coeffs = [(-1) ** j * math.comb(plan.d + 1, j) * m
              for j, m in enumerate(moments.values.tolist())]
    best = None
    for r in roots_reference(coeffs).tolist():
        dist, angle = abs(abs(r) - 1.0), abs(cmath.phase(r))
        if best is None or dist < best[0] - 1e-14 or (
            abs(dist - best[0]) <= 1e-14 and angle < best[1]
        ):
            best = (dist, angle, r)
    if plan.stride > 1:
        xi = _scan_double(best[2], plan.stride, xi_prior)
    else:
        xi = float(np.mod(-cmath.phase(best[2]) + np.pi, 2.0 * np.pi) - np.pi)
    return xi, magnitudes_reference(moments, best[2] / abs(best[2]))[1]


@pytest.mark.parametrize("kind", ["decimated", "consecutive"])
@given(
    d=st.integers(0, 4),
    N=st.integers(1, 64),
    extra=st.integers(0, 5),
    xi=st.floats(-np.pi, np.pi, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_whole_solve_is_its_references_bit_for_bit(kind, d, N, extra, xi, seed):
    # noisy moments of one jump at stride N (decimated) or at the top of
    # the spectrum (consecutive) and a prior within a quarter branch:
    # recover_single_jump gives the location and magnitude bits of the
    # chain of references, or refuses where a gate the references lack does
    rng = np.random.default_rng(seed)
    plan = SamplePlan(kind, d, (d + 2) * N + extra % (d + 2))
    alpha = tuple(complex(*rng.uniform(-2.0, 2.0, 2)) for _ in range(d + 1))
    exact = synth_moments(xi, alpha, plan).values
    noise = 1e-3 * (rng.normal(size=d + 2) + 1j * rng.normal(size=d + 2))
    mom = MomentSequence(plan, exact * (1.0 + noise))
    prior = xi + rng.uniform(-0.25, 0.25) * np.pi / plan.stride
    try:
        est = recover_single_jump(mom, prior)
    except NumericError:
        return  # a root or magnitude gate refused; the references have none
    xi_ref, a_ref = _solve_reference(mom, prior)
    assert bits([est.xi]).tobytes() == bits([xi_ref]).tobytes()
    assert bits(est.magnitudes).tobytes() == bits(a_ref).tobytes()
