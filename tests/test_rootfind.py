"""Deterministic polynomial root finding, double and extended precision."""

import cmath

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import bits, roots_reference
from jumprec import rootfind
from jumprec.errors import ModelError, RootFindError
from jumprec.model import JumpModel, smooth_catalog, synth_spectrum
from jumprec.precision import recover_single_jump_mp
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


_PART = st.floats(-4.0, 4.0, allow_nan=False)
_NONZERO = st.tuples(_PART, _PART).map(lambda p: complex(*p)).filter(lambda c: abs(c) > 0.1)


@given(
    degree=st.integers(1, 8),
    zeros=st.integers(0, 2),
    lead=_NONZERO.filter(lambda c: c != 1),
    last=_NONZERO,
    data=st.data(),
)
def test_roots_are_numpy_roots_bit_for_bit(degree, zeros, lead, last, data):
    # a non-monic polynomial of degree 1-8 times u^zeros: the roots numpy.roots
    # gives for the normalized coefficients, zero roots included, in the
    # lexsort order of (real, imag) rounded to 10 decimals
    inner = [complex(data.draw(_PART), data.draw(_PART)) for _ in range(degree - 1)]
    coeffs = [lead] + inner + [last] + [0j] * zeros
    got = find_roots(coeffs)
    assert got.dtype == np.complex128
    assert bits(got).tobytes() == bits(roots_reference(coeffs)).tobytes()


@given(
    degree=st.integers(1, 6),
    lead=_NONZERO,
    last=_NONZERO,
    scale=st.sampled_from([1e-300, 1e-289, 1e-280, 1e280, 1e289, 1e300]),
    data=st.data(),
)
def test_roots_near_the_ends_of_the_range_are_numpy_roots(degree, lead, last, scale, data):
    # the normalization leaves numpy's warnings on where every modulus sits
    # within [1e-290, 1e290]; on either side of those ends no warning
    # escapes (the suite makes one an error) and the bits stay numpy.roots'
    inner = [complex(data.draw(_PART), data.draw(_PART)) for _ in range(degree - 1)]
    coeffs = [scale * c for c in [lead] + inner + [last]]
    assert bits(find_roots(coeffs)).tobytes() == bits(roots_reference(coeffs)).tobytes()


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


# finite parts whose modulus passes the double range: abs() of such a
# Python complex raises OverflowError, where numpy.abs gives inf
@pytest.mark.parametrize(
    "coeffs",
    [[1.5e308 + 1.5e308j, 1.0], [1.0, 2.0, 1.5e308 + 1.5e308j]],
    ids=["leading", "trailing"],
)
def test_overflowing_modulus_is_a_root_find_error(coeffs):
    with pytest.raises(RootFindError, match="non-finite coefficients"):
        find_roots(coeffs)


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


@pytest.mark.parametrize("finder", [find_roots, lambda c: find_roots_mp(c, 60)],
                         ids=["double", "extended"])
@pytest.mark.parametrize("coeffs", [["a", "b"], ["1", "2"], [None, 1.0], [1.0, [2.0, 3.0]]],
                         ids=["letters", "digits", "none", "ragged"])
def test_coefficients_that_are_not_numbers_are_model_errors(finder, coeffs):
    with pytest.raises(ModelError, match="must be numbers"):
        finder(coeffs)


def _from_default_start(coeffs, digits):
    # the extended finder with no companion roots to start from: its
    # fallback, mpmath's own spiral start with the full budget
    def no_seeds(c):
        raise np.linalg.LinAlgError("no seeds")

    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(rootfind, "_companion_eigvals", no_seeds)
        return find_roots_mp(coeffs, digits)


def _assert_same_roots(got, want, digits):
    # as sets: mpmath sorts on |imag| first, so roots whose |imag| tie to
    # the working precision may come in either order
    assert len(got) == len(want)
    with mp.workdps(digits):
        for b in want:
            assert min(abs(a - b) for a in got) <= mp.mpf(10) ** (2 - digits) * max(1, abs(b))


def _annihilator(M, d):
    # the degree-(d+1) polynomial the 60-digit solve of one jump over an
    # expsin background hands to find_roots_mp, as `recover` at
    # extended:60 does; its other roots sit 0.73 (d=2) and 0.39 (d=3)
    # from the jump's
    model = JumpModel(d, ((0.7, (1.0,) + (0.3,) * d),))
    spec = synth_spectrum(model, smooth_catalog("expsin", amp=0.7), M)
    seen = []

    def record(coeffs, digits):
        seen.append(list(coeffs))
        return find_roots(np.array([complex(c) for c in coeffs]))

    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(rootfind, "find_roots_mp", record)
        recover_single_jump_mp(spec, d, 0.7, digits=60)
    (coeffs,) = seen
    return coeffs


@pytest.mark.parametrize("M", [512, 1024, 4096])
@pytest.mark.parametrize("d", [2, 3])
def test_warm_start_gives_the_default_start_roots_on_annihilators(d, M):
    coeffs = _annihilator(M, d)
    got = find_roots_mp(coeffs, 60)
    _assert_same_roots(got, _from_default_start(coeffs, 60), 60)
    gap = min(abs(complex(a - b)) for i, a in enumerate(got) for b in got[i + 1 :])
    assert gap == pytest.approx({2: 0.73, 3: 0.39}[d], abs=0.01)


_ROOT = st.tuples(st.floats(-3, 3), st.floats(-3, 3)).map(lambda p: complex(*p))


@given(st.lists(_ROOT, min_size=1, max_size=6), st.sampled_from([50, 60, 100]))
def test_warm_start_gives_the_default_start_roots(roots, digits):
    assume(all(abs(a - b) > 0.2 for i, a in enumerate(roots) for b in roots[i + 1 :]))
    with mp.workdps(digits):
        coeffs = [mp.mpc(1)]
        for r in roots:
            coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    # both starts return the same roots; where the spiral start fails the
    # gate (it can land a tiny root on exactly 0), the warm start fails it
    # too or returns the roots the polynomial was built from
    try:
        want = _from_default_start(coeffs, digits)
    except RootFindError:
        try:
            got = find_roots_mp(coeffs, digits)
        except RootFindError:
            return
        _assert_same_roots(got, [mp.mpc(r) for r in roots], digits)
    else:
        _assert_same_roots(find_roots_mp(coeffs, digits), want, digits)


@pytest.mark.parametrize("root, digits", [(mp.mpf("1e-55"), 50), (mp.mpc(0, "4e-98"), 100)],
                         ids=["real-1e-55", "imag-4e-98"])
def test_a_nonzero_root_below_the_working_epsilon_stays_nonzero(root, digits):
    # mpmath's cleanup would set it to exactly 0, whose residual fails the gate
    with mp.workdps(digits):
        (got,) = find_roots_mp([1, -root], digits)
        assert abs(got - root) <= mp.mpf(10) ** (2 - digits) * abs(root)


def test_extended_precision_zero_roots_are_exact_and_roots_come_in_one_order():
    # z^2 (z - 2)(z^2 + 1): a trailing zero coefficient is an exact zero
    # root, as in find_roots, and the roots come in its order, by real
    # then imaginary part rounded to 10 decimals
    coeffs = [1, -2, 1, -2, 0, 0]
    got = find_roots_mp(coeffs, 60)
    assert got[1:3] == [0, 0]
    with mp.workdps(60):
        for z, want in zip(got, (-1j, 0, 0, 1j, 2)):
            assert abs(z - want) <= mp.mpf("1e-55")
    assert [complex(z) for z in got] == pytest.approx(find_roots(coeffs).tolist(), abs=1e-14)


def test_warm_start_converges_within_a_short_budget(monkeypatch):
    # from mpmath's spiral this annihilator takes 10-17 steps; from the
    # double companion roots it takes 4
    coeffs = _annihilator(4096, 3)
    monkeypatch.setattr(rootfind, "_MP_MAX_STEPS", 6)
    assert len(find_roots_mp(coeffs, 60)) == 4


def test_starts_the_warm_budget_cannot_serve_fall_back_to_the_default():
    # a double root converges only linearly from any start
    with mp.workdps(60):
        roots = find_roots_mp([1, -4, 5, -2], 60)
        assert len(roots) == 3
        for r, want in zip(roots, (1, 1, 2)):
            assert abs(r - want) <= mp.mpf("1e-25")
    # the normalized coefficients 1e390 are past the double range, so
    # there are no finite companion roots to start from
    with mp.workdps(400):
        big = mp.mpf("1e390")
        far, near = find_roots_mp([1 / big, 1, 1], 400)
        # z^2 + 1e390 z + 1e390: -1e390 + 1 and -1 - 1e-390, to 398 digits
        assert abs(far / (1 - big) - 1) <= mp.mpf("1e-398")
        assert abs(near + 1) <= mp.mpf("1e-389")
