"""Piecewise-polynomial model, basis functions, synthesis, catalog."""

import itertools
import json
import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, strategies as st
from scipy.integrate import quad
from scipy.special import iv

from conftest import (
    coeffs_of_function,
    dump_text,
    no_python_encoder,
    phi_eval_mp,
    phi_eval_per_order,
)
from jumprec.errors import ModelError
from jumprec.model import (
    AprioriBounds,
    SmoothPart,
    _phase_index,
    _phases,
    _unit_fraction,
    JumpModel,
    adversarial_pair,
    bernoulli_coefficients,
    bernoulli_poly,
    fitted_decay_constant,
    load_model,
    phi_coeff_array,
    phi_eval,
    phi_factors,
    phi_fourier_coeff,
    save_model,
    shift_jumps,
    smooth_catalog,
    synth_spectrum,
    vn_eval,
)
from jumprec.reconstruct import _BandPeel
from jumprec.solver import JumpEstimate
from jumprec.spectrum import FourierSpectrum, SamplePlan


# ---------------------------------------------------------------- bernoulli


def test_bernoulli_values_at_zero():
    assert bernoulli_poly(1, 0.0) == -0.5
    assert bernoulli_poly(2, 0.0) == pytest.approx(1.0 / 6.0, abs=1e-16)


@pytest.mark.parametrize("n", range(9))
def test_bernoulli_coefficients_match_sympy(n):
    x = sympy.Symbol("x")
    ref = sympy.Poly(sympy.bernoulli(n, x), x).all_coeffs()[::-1]
    got = bernoulli_coefficients(n)
    assert len(got) == n + 1
    for c_got, c_ref in zip(got, ref + [0] * (n + 1 - len(ref))):
        assert c_got == Fraction(int(sympy.numer(c_ref)), int(sympy.denom(c_ref)))


def test_bernoulli_order_range():
    with pytest.raises(ModelError):
        bernoulli_poly(-1, 0.0)
    with pytest.raises(ModelError):
        bernoulli_poly(33, 0.0)


# ---------------------------------------------------------------- basis


def test_unit_jump_basis_one_sided_values():
    assert vn_eval(0, 0.0, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert vn_eval(0, 2.0 * np.pi - 1e-9, 0.0) == pytest.approx(-0.5, abs=1e-8)
    assert vn_eval(0, np.pi, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_first_order_basis_midpoint_value():
    # V_1 halfway around the circle equals pi/12
    assert vn_eval(1, np.pi, 0.0) == pytest.approx(np.pi / 12.0, abs=1e-14)


def test_basis_is_periodic_and_vectorized():
    xs = np.linspace(-3, 3, 11)
    a = vn_eval(2, xs, 0.4)
    b = vn_eval(2, xs + 2.0 * np.pi, 0.4)
    assert np.allclose(a, b, atol=1e-12)
    assert a.shape == xs.shape


def test_basis_zero_mean():
    for order in (0, 1, 2, 3):
        val, _ = quad(
            lambda x: vn_eval(order, x, 0.3),
            -np.pi, np.pi, points=[0.3], limit=400, epsabs=1e-13,
        )
        assert abs(val) <= 1e-10


def test_basis_order_validation():
    with pytest.raises(ModelError):
        vn_eval(-1, 0.0, 0.0)
    with pytest.raises(ModelError):
        vn_eval(32, 0.0, 0.0)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), [0.1, -float("inf")]])
def test_basis_rejects_non_finite_points(x):
    # np.mod returned NaN for these, with a RuntimeWarning
    with pytest.raises(ModelError, match="evaluation points must be finite"):
        vn_eval(1, x, 0.0)


@pytest.mark.parametrize("xi", [float("nan"), True, "0.3"])
def test_basis_reads_its_location_as_a_finite_real(xi):
    with pytest.raises(ModelError, match="xi"):
        vn_eval(1, 0.5, xi)


# ---------------------------------------------------------------- model


def test_model_validation_paths():
    with pytest.raises(ModelError):
        JumpModel(-1, ())
    with pytest.raises(ModelError):
        JumpModel(1, ((0.3, (1.0,)),))  # needs d+1 magnitudes
    with pytest.raises(ModelError):
        JumpModel(0, ((0.3, (0.0,)),))  # leading magnitude must not vanish
    with pytest.raises(ModelError):
        JumpModel(0, ((np.pi, (1.0,)),))  # outside the half-open interval
    with pytest.raises(ModelError):
        JumpModel(0, ((0.5, (1.0,)), (0.2, (1.0,))))  # not increasing
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ModelError, match="a must be finite"):
            JumpModel(1, ((0.3, (1.0, bad)),))
    record = {"d": 1, "jumps": [{"xi": 0.3, "a": [float("nan"), 0.3]}]}
    with pytest.raises(ModelError, match="a must be finite"):
        JumpModel.from_json_dict(record)
    with pytest.raises(ModelError):
        JumpModel(
            0, ((-np.pi + 5e-14, (1.0,)), (np.pi - 5e-14, (1.0,)))
        )  # coincide mod 2pi


def test_model_reads_its_order_as_an_integer(tmp_path):
    # a numpy integer order is stored as an int, so the record saves and loads
    m = JumpModel(np.int64(1), ((0.3, (1.0, -0.7)),))
    assert type(m.order) is int
    save_model(tmp_path / "m.json", m)
    assert load_model(tmp_path / "m.json") == m
    for bad in (True, 1.0):
        with pytest.raises(ModelError, match=f"order={bad!r}"):
            JumpModel(bad, ((0.3, (1.0, -0.7)),))


@pytest.mark.parametrize(
    "jump, message",
    [(("0.3", ("1.5",)), "xi must be a real number, got xi='0.3'"),
     ((True, (1.0,)), "xi must be a real number, got xi=True"),
     ((float("nan"), (1.0,)), "xi must be finite, got xi=nan"),
     ((0.3, ("1.5",)), "a must be a number, got a='1.5'"),
     ((0.3, (True,)), "a must be a number, got a=True"),
     ((0.3, (None,)), "a must be a number, got a=None"),
     ((0.3, (complex(1.0, float("nan")),)), "a must be finite, got a=(1+nanj)"),
     ((0.3, (10**400,)), "a is past the double range")],
    ids=["str-xi", "bool-xi", "nan-xi", "str-a", "bool-a", "none-a", "nan-imag-a", "huge-a"],
)
def test_model_reads_its_fields_as_its_record_reader_does(jump, message):
    # the constructor takes what JumpModel.from_json_dict takes, and names
    # the field it refuses
    with pytest.raises(ModelError, match=re.escape(message)):
        JumpModel(0, (jump,))


def test_model_keeps_numbers_as_float_locations_and_complex_magnitudes():
    m = JumpModel(1, ((np.float64(0.3), (np.complex128(1 + 2j), 2)),))
    ((xi, mags),) = m.jumps
    assert type(xi) is float and xi == 0.3
    assert [type(a) for a in mags] == [complex, complex]
    assert mags == (1 + 2j, 2 + 0j)


def test_model_properties_and_empty_jump_set():
    m = JumpModel(1, ((-0.4, (1.0, 0.5)), (0.9, (2.0, -1.0))))
    assert m.K == 2
    assert m.locations == (-0.4, 0.9)
    assert m.is_real
    assert m.magnitude_sum() == pytest.approx(4.5, abs=1e-15)
    assert not JumpModel(0, ((0.1, (1.0 + 1.0j,)),)).is_real
    assert JumpModel(2, ()).K == 0


def test_model_json_round_trip(tmp_path):
    m = JumpModel(1, ((0.3, (1.0 + 0.5j, -0.7)),))
    back = JumpModel.from_json_dict(m.to_json_dict())
    assert back == m
    p = tmp_path / "m.json"
    save_model(p, m)
    assert load_model(p) == m
    with pytest.raises(ModelError):
        JumpModel.from_json_dict({"jumps": []})


# edge doubles in each field: -0.0 as a location, subnormal and largest
# magnitudes, real and complex; d is the integer field
_EDGE_MODEL = JumpModel(
    3,
    ((-0.0, (5e-324, -2.5e-310, 1.7976931348623157e308, -0.0)),
     (1.5, (-1.7976931348623157e308, complex(-0.0, 5e-324), 0.0, 2.0))),
)


def test_model_file_is_the_text_json_dump_wrote(tmp_path):
    p = tmp_path / "m.json"
    save_model(p, _EDGE_MODEL)
    assert p.read_text(encoding="utf-8") == dump_text(_EDGE_MODEL.to_json_dict())
    assert load_model(p) == _EDGE_MODEL


def test_save_model_takes_the_c_encoder(tmp_path, monkeypatch):
    monkeypatch.setattr(json.encoder, "_make_iterencode", no_python_encoder)
    p = tmp_path / "m.json"
    save_model(p, _EDGE_MODEL)
    assert load_model(p) == _EDGE_MODEL


def test_bounds_validation():
    AprioriBounds(J=1.0, A=4.0, B=0.1, R=2.0)
    with pytest.raises(ModelError):
        AprioriBounds(J=0.0, A=4.0, B=0.1, R=2.0)
    with pytest.raises(ModelError):
        AprioriBounds(J=1.0, A=4.0, B=0.0, R=2.0)
    with pytest.raises(ModelError):
        AprioriBounds(J=1.0, A=0.2, B=0.3, R=2.0)
    with pytest.raises(ModelError):
        AprioriBounds(J=1.0, A=4.0, B=0.1, R=-1.0)
    # NaN compares false, so without the check it would pass every test
    # above and switch off the magnitude floor
    with pytest.raises(ModelError):
        AprioriBounds(J=1.0, A=4.0, B=float("nan"), R=2.0)
    with pytest.raises(ModelError):
        AprioriBounds(J=1.0, A=float("inf"), B=0.1, R=2.0)
    good = {"J": 1.0, "A": 4.0, "B": 0.1, "R": 2.0}
    assert AprioriBounds.from_json_dict(good) == AprioriBounds(**good)
    for bad in ({"J": 1.0, "A": 4.0, "B": 0.1}, dict(good, R=None),
                dict(good, R="x"), [1.0, 4.0, 0.1, 2.0]):
        with pytest.raises(ModelError, match="numeric J, A, B, R"):
            AprioriBounds.from_json_dict(bad)


@pytest.mark.parametrize(
    "field, value",
    [("J", True), ("J", "1"), ("A", None), ("B", float("nan")), ("R", [1.0])],
)
def test_bounds_read_each_field_as_a_finite_real(field, value):
    # J=True was accepted as 1.0, and a string or None raised TypeError
    good = {"J": 1.0, "A": 4.0, "B": 0.1, "R": 2.0}
    with pytest.raises(ModelError, match=f"^{field} must be"):
        AprioriBounds(**dict(good, **{field: value}))


# ---------------------------------------------------------------- evaluation


def test_eval_one_sided_limits_differ_by_leading_magnitude():
    m = JumpModel(0, ((0.3, (2.0,)),))
    right = phi_eval(m, 0.3, side="right")
    left = phi_eval(m, 0.3, side="left")
    assert right - left == pytest.approx(2.0, abs=1e-12)


def test_eval_at_jump_requires_side():
    m = JumpModel(0, ((0.3, (2.0,)),))
    with pytest.raises(ModelError):
        phi_eval(m, 0.3)
    with pytest.raises(ModelError):
        phi_eval(m, 0.0, side="up")


def test_derivative_jump_equals_first_order_magnitude():
    m = JumpModel(2, ((0.3, (1.0, 0.3, -0.2)),))
    h = 1e-4
    d_right = (phi_eval(m, 0.3 + h) - phi_eval(m, 0.3, side="right")) / h
    d_left = (phi_eval(m, 0.3, side="left") - phi_eval(m, 0.3 - h)) / h
    assert d_right - d_left == pytest.approx(0.3, abs=1e-3)


def test_eval_zero_mean():
    m = JumpModel(2, ((-1.1, (0.7, 0.0, 0.4)), (0.3, (1.0, 0.3, -0.2))))
    val, _ = quad(
        lambda x: phi_eval(m, np.array([x]))[0],
        -np.pi, np.pi, points=[-1.1, 0.3], limit=400, epsabs=1e-13,
    )
    assert abs(val) <= 1e-10


def _random_model(rng, d, K, complex_mags):
    locs = np.sort(rng.uniform(-np.pi, np.pi, K))
    mags = rng.normal(size=(K, d + 1))
    if complex_mags:
        mags = mags + 1j * rng.normal(size=(K, d + 1))
    return JumpModel(d, tuple((float(xi), tuple(m)) for xi, m in zip(locs, mags)))


@pytest.mark.parametrize("d", range(32))
def test_fused_phi_eval_matches_mpmath(d):
    # one Horner pass over the d+1 orders combined errs by a small multiple
    # of eps times the sum of the absolute terms sum_l |a_l scale_l| |B_{l+1}|
    # (phi_eval_mp's scale), as each order's own pass did; 4(d+2) eps leaves
    # room for d+2 Horner steps and the d+1 terms of each coefficient, and
    # the worst seen is under 2 eps
    eps = np.finfo(float).eps
    rng = np.random.default_rng(d)
    for K, complex_mags, side in itertools.product(
        (1, 2, 3), (False, True), ("left", "right")
    ):
        model = _random_model(rng, d, K, complex_mags)
        xs = np.concatenate((rng.uniform(-np.pi, np.pi, 4), model.locations, [-np.pi]))
        got = phi_eval(model, xs, side=side)
        assert got.dtype == (np.complex128 if complex_mags else np.float64)
        want, scale = phi_eval_mp(model, xs, side)
        bound = 4 * (d + 2) * eps * scale
        assert np.all(np.abs(got - want) <= bound), (K, complex_mags, side)
        # the per-order form meets the same bound
        assert np.all(np.abs(phi_eval_per_order(model, xs, side) - want) <= bound)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_phi_eval_rejects_non_finite_points(bad):
    m = JumpModel(1, ((0.3, (1.0, 0.5)),))
    with pytest.raises(ModelError, match=rf"x\[2\]={bad!r}"):
        phi_eval(m, np.array([0.1, -2.0, bad, np.nan]))
    with pytest.raises(ModelError, match="finite"):
        phi_eval(m, bad, side="left")


# ---------------------------------------------------------------- coefficients


def test_unit_step_first_coefficient():
    c = phi_fourier_coeff(JumpModel(0, ((0.0, (1.0,)),)), 1)
    assert c == pytest.approx(1.0 / (2.0j * np.pi), abs=1e-16)
    assert c.imag == pytest.approx(-0.159154943091895, abs=1e-14)


def test_dc_coefficient_vanishes():
    assert phi_fourier_coeff(JumpModel(1, ((0.3, (1.0, 2.0)),)), 0) == 0.0


def test_coefficient_matches_quadrature():
    m = JumpModel(1, ((1.0, (2.0, 3.0)),))
    k = 5
    re, _ = quad(
        lambda x: phi_eval(m, np.array([x]))[0] * np.cos(-k * x),
        -np.pi, np.pi, points=[1.0], limit=400, epsabs=1e-13,
    )
    im, _ = quad(
        lambda x: phi_eval(m, np.array([x]))[0] * np.sin(-k * x),
        -np.pi, np.pi, points=[1.0], limit=400, epsabs=1e-13,
    )
    oracle = (re + 1j * im) / (2.0 * np.pi)
    got = phi_fourier_coeff(m, k)
    assert abs(got - oracle) <= 1e-10
    assert got == pytest.approx(
        0.0556294666672128 - 0.0363726001975028j, abs=1e-12
    )


def test_coefficients_are_additive_over_jumps():
    m1 = JumpModel(1, ((0.3, (1.0, 0.5)),))
    m2 = JumpModel(1, ((-1.1, (0.7, -0.2)),))
    both = JumpModel(1, ((-1.1, (0.7, -0.2)), (0.3, (1.0, 0.5))))
    for k in (-7, 1, 12):
        assert abs(
            phi_fourier_coeff(both, k)
            - phi_fourier_coeff(m1, k)
            - phi_fourier_coeff(m2, k)
        ) <= 1e-14


def test_coefficient_decay_bound():
    m = JumpModel(2, ((-1.1, (0.7, 0.1, 0.4)), (0.3, (1.0, 0.3, -0.2))))
    budget = m.magnitude_sum()
    for k in (1, 2, 5, 17, 64):
        assert abs(phi_fourier_coeff(m, k)) * k <= budget


def test_coeff_array_matches_scalar_form():
    m = JumpModel(2, ((-1.1, (0.7, 0.1, 0.4)), (0.3, (1.0, 0.3, -0.2))))
    arr = phi_coeff_array(m, 12)
    for k in range(-12, 13):
        assert abs(arr[12 + k] - phi_fourier_coeff(m, k)) <= 1e-16


# a few ulp of a unit-modulus value: the phase kernel's budget
_FEW_ULP = 4.0 * np.finfo(float).eps


def phases_mp(ks, xi, dps=40):
    """e^{-ik xi} at the integers ks in mpmath, rounded once to complex."""
    with mp.workdps(dps):
        x = mp.mpf(float(xi))
        return np.array([complex(mp.expj(-int(k) * x)) for k in ks])


def closed_form_mp(model, ks, dps=40):
    """(c_k, bound) at the integers ks in mpmath: the closed form, rounded
    once, and sum_j sum_l |a_l| |k|^{-(l+1)} / 2pi, the scale of its terms."""
    out, scale = [], []
    with mp.workdps(dps):
        for k in ks:
            acc, size = mp.mpc(0), mp.mpf(0)
            if k:
                ik = mp.mpc(0, int(k))
                for xi, mags in model.jumps:
                    inner = sum(mp.mpc(a.real, a.imag) / ik ** (l + 1) for l, a in enumerate(mags))
                    acc += mp.expj(-int(k) * mp.mpf(xi)) * inner
                    size += sum(abs(a) / abs(ik) ** (l + 1) for l, a in enumerate(mags))
            out.append(complex(acc / (2 * mp.pi)))
            scale.append(float(size / (2 * mp.pi)))
    return np.array(out), np.array(scale)


@st.composite
def jump_models(draw):
    # K well-separated jumps of order d; complex magnitudes are what tell
    # the sign (-1)^{l+1} at -k apart from plain conjugate symmetry.  Some
    # models put a jump at -pi or exactly on 0.0 or -0.0, where the phases'
    # signed zeros decide the bytes, and some carry zero higher-order or
    # zero real parts
    d = draw(st.integers(0, 5))
    K = draw(st.integers(0, 3))
    complex_mags = draw(st.booleans())
    start = draw(st.one_of(st.floats(-np.pi, -np.pi + 1.0), st.just(-np.pi)))
    gaps = draw(st.lists(st.floats(0.1, 1.5), min_size=K, max_size=K))
    locs = [start + sum(gaps[:i]) for i in range(K)]
    zero = draw(st.sampled_from([None, 0.0, -0.0]))
    if K and zero is not None:
        # shift so that one jump sits on zero; the span stays below 3
        at = draw(st.integers(0, K - 1))
        locs = [x - locs[at] for x in locs]
        locs[at] = zero
    nonzero = st.floats(-3.0, 3.0, allow_nan=False).filter(lambda v: abs(v) > 1e-3)
    part = st.one_of(nonzero, st.just(0.0))
    jumps = []
    for xi in locs:
        mags = [complex(draw(nonzero), draw(part) if complex_mags else 0.0)]
        mags += [
            complex(draw(part), draw(part) if complex_mags else 0.0)
            for _ in range(d)
        ]
        jumps.append((xi, tuple(mags)))
    return JumpModel(d, tuple(jumps))


@given(
    lo=st.integers(1, 2**20),
    n=st.integers(1, 4096),
    xi=st.one_of(
        st.sampled_from([0.0, -0.0, np.pi, -np.pi]),
        st.floats(-np.pi, np.pi, allow_nan=False),
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(lo=2**20 - 4095, n=4096, xi=0.7, seed=0)
@example(lo=1, n=4096, xi=-np.pi, seed=1)
@example(lo=2**20 - 4095, n=4096, xi=-np.pi, seed=2)
@example(lo=1, n=64, xi=-0.0, seed=3)
def test_phases_are_e_to_the_minus_ik_xi_to_a_few_ulp(lo, n, xi, seed):
    # both forms of the kernel, the outer product on 1..M and the gather at
    # scattered indices, against mpmath: a few ulp at every k up to 2^20,
    # where cos and sin of the rounded product k xi were off by up to
    # eps k |xi| (2.3e-13 at k = 4096, 6e-11 at 2^20)
    M = min(lo + n - 1, 2**20)
    ks = np.arange(lo, M + 1)
    rng = np.random.default_rng(seed)
    sample = np.unique(np.concatenate((ks[:4], ks[-4:], rng.choice(ks, 60))))
    full = _phases(xi, M)
    assert full.shape == (M,)
    assert np.max(np.abs(full[sample - 1] - phases_mp(sample, xi))) <= _FEW_ULP
    scattered = rng.integers(0, 2**20 + 1, size=60)
    got = _phases(xi, _phase_index(scattered))
    assert np.max(np.abs(got - phases_mp(scattered, xi))) <= _FEW_ULP


@given(
    M=st.integers(0, 2**17),
    xi=st.one_of(
        st.sampled_from([0.0, -0.0, np.pi, -np.pi]),
        st.floats(-np.pi, np.pi, allow_nan=False),
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(M=2**17, xi=0.7, seed=0)
@example(M=0, xi=0.7, seed=0)
def test_phase_gather_and_outer_forms_give_the_same_bits(M, xi, seed):
    # the band peel gathers the phases the corrected spectrum builds as an
    # outer product; the two must agree bit for bit at every shared k,
    # scattered, unsorted and repeated indices included
    full = _phases(xi, M)
    rng = np.random.default_rng(seed)
    ks = rng.integers(1, M + 1, size=rng.integers(0, 300)) if M else []
    ks = np.concatenate((ks, [k for k in (1, 63, 64, 65, M) if 1 <= k <= M])).astype(np.int64)
    got = _phases(xi, _phase_index(ks))
    assert got.tobytes() == full[ks - 1].tobytes()


_FRACTION_POINTS = np.array([
    0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 0.5, -0.5, np.pi, -np.pi,
    1e-300, -1e-300, 5e-324, -5e-324, 1.0 - 2.0**-53, -(1.0 - 2.0**-53),
    2.0**52 + 0.5, -(2.0**52 + 0.5), 2.0**53, -(2.0**53), 1e300, -1e300,
    np.finfo(float).max, -np.finfo(float).max,
])


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
@example(list(_FRACTION_POINTS))
@example(list(_FRACTION_POINTS / (2.0 * np.pi)))
def test_unit_fraction_is_np_mod_byte_for_byte(values):
    # phi_eval's phase t mod 1 takes fmod: exact multiples, -0.0 and huge
    # values must come out as np.mod's, +0.0 included
    t = np.array(values, dtype=float)
    want = np.mod(t, 1.0)
    _unit_fraction(t)
    assert t.tobytes() == want.tobytes()


@given(model=jump_models(), M=st.integers(0, 600), seed=st.integers(0, 2**32 - 1))
@example(model=JumpModel(1, ((0.3, (1.0 + 0.5j, -0.25j)),)), M=5, seed=0)
@example(
    model=JumpModel(2, ((-1.3, (1.0, 0.3, -0.2)), (0.7, (0.8, -0.4, 0.25)))),
    M=2**20,
    seed=0,
)
def test_coeff_array_is_the_closed_form_to_a_few_ulp(model, M, seed):
    # against the closed form in mpmath, at the ends, near zero and at
    # scattered indices of both halves, up to k = 2^20: a few ulp of the
    # terms' scale; a real model's halves are conjugate mirrors bit for bit
    arr = phi_coeff_array(model, M)
    assert arr.shape == (2 * M + 1,)
    rng = np.random.default_rng(seed)
    ks = np.arange(-M, M + 1)
    sample = np.unique(np.concatenate((ks[:3], ks[M - 3 : M + 4], ks[-3:], rng.choice(ks, 40))))
    want, scale = closed_form_mp(model, sample)
    assert np.all(np.abs(arr[sample + M] - want) <= 8.0 * np.finfo(float).eps * scale)
    assert arr[M] == 0
    if model.is_real and model.K:
        assert arr[:M].tobytes() == arr[M + 1 :][::-1].conj().tobytes()
    tol = 1e-15 * max(1.0, model.magnitude_sum())
    small = ks[np.abs(ks) <= 600]
    scalar = np.array([phi_fourier_coeff(model, int(k)) for k in small])
    assert np.max(np.abs(arr[small + M] - scalar), initial=0.0) <= tol


@given(model=jump_models(), M=st.integers(1, 600), data=st.data())
def test_coeffs_at_positive_indices_are_the_array_entries_bit_for_bit(model, M, data):
    # the polish's union-band peel and phi_coeff_array share one kernel; a
    # peel of a higher order than the model's builds powers that go unused
    d = model.order + data.draw(st.integers(0, 2))
    assume(M >= d + 2)
    plan = SamplePlan("decimated", d, data.draw(st.integers(d + 2, M)))
    N = plan.stride
    degree = data.draw(st.integers(0, min(N - 1, M - (d + 2) * N)))
    window = FourierSpectrum(degree, np.ones(2 * degree + 1, dtype=complex))
    spec = FourierSpectrum(M, np.zeros(2 * M + 1, dtype=complex))
    peel = _BandPeel(spec, plan, [window])
    # the union of the intervals [k - D, k + D] around the plan's indices
    union = sorted({k + m for k in plan.indices for m in range(-degree, degree + 1)})
    assert peel.band.tolist() == union
    for xi, mags in model.jumps:
        got = peel.own(JumpEstimate(xi, mags, 0.0, 0.0))
        want = phi_coeff_array(JumpModel(model.order, ((xi, mags),)), M)[peel.band + M]
        assert got.tobytes() == want.tobytes()


def test_phi_factors_take_positive_indices_only():
    powers = phi_factors([1, 2, 4], 2)
    assert len(powers) == 3
    # (ik)^-3 = i/k^3, exact for powers of two
    assert np.array_equal(powers[2], np.array([1.0, 1 / 8, 1 / 64]) * 1j)
    with pytest.raises(ModelError, match="k >= 1"):
        phi_factors([0, 1, 2], 1)


def test_coeff_array_rejects_a_bad_truncation_index():
    m = JumpModel(1, ((0.3, (1.0, 0.5)),))
    for M in (-1, 2.5, "8", True):
        with pytest.raises(ModelError, match="M="):
            phi_coeff_array(m, M)
    assert phi_coeff_array(m, 0).tobytes() == np.zeros(1, dtype=complex).tobytes()
    assert phi_coeff_array(m, np.int64(3)).shape == (7,)


@given(st.floats(-3.0, 3.0, allow_nan=False))
def test_shifting_jumps_modulates_coefficients(delta):
    m = JumpModel(1, ((-0.4, (1.0, 0.5)), (0.9, (2.0, -1.0))))
    shifted = shift_jumps(m, delta)
    ks = np.arange(-16, 17)
    expect = phi_coeff_array(m, 16) * np.exp(-1j * ks * delta)
    assert np.allclose(phi_coeff_array(shifted, 16), expect, atol=1e-13)


def test_shift_by_full_turn_is_identity():
    m = JumpModel(0, ((-0.4, (1.0,)), (0.9, (2.0,))))
    back = shift_jumps(m, 2.0 * np.pi)
    assert np.allclose(back.locations, m.locations, atol=1e-12)


# ---------------------------------------------------------------- synthesis


def test_synth_without_smooth_part_equals_jump_coefficients():
    m = JumpModel(1, ((0.3, (1.0, 0.5)),))
    sp = synth_spectrum(m, None, 16)
    assert np.array_equal(sp.coeffs, phi_coeff_array(m, 16))
    assert sp.real_valued


def test_sine_smooth_part_lands_on_single_mode():
    sp = synth_spectrum(JumpModel(0, ()), smooth_catalog("sin"), 8)
    assert abs(sp.coeff(1) - (-0.5j)) <= 1e-12
    assert abs(sp.coeff(-1) - 0.5j) <= 1e-12
    mask = np.ones(17, dtype=bool)
    mask[[8 - 1, 8 + 1]] = False
    assert np.max(np.abs(sp.coeffs[mask])) <= 1e-12


def test_exp_sine_coefficients_are_bessel_values():
    # c_n of exp(sin x) is (-i)^n I_n(1); the catalog subtracts the mean
    sp = synth_spectrum(JumpModel(0, ()), smooth_catalog("expsin"), 8)
    assert abs(sp.coeff(0)) <= 1e-12
    for n in (1, 2, 3):
        assert abs(sp.coeff(n) - (-1j) ** n * iv(n, 1.0)) <= 1e-12
    assert abs(iv(1, 1.0) - 0.565159103992485) <= 1e-12
    assert abs(iv(2, 1.0) - 0.1357476697670383) <= 1e-12


@pytest.mark.parametrize("amp", [-0.7, 0.0, 0.5, 1.0, 5.0, 50.0])
@pytest.mark.parametrize("M", [1, 8, 512])
def test_expsin_coefficients_match_mpmath_bessel(amp, M):
    # c_n = (-i)^n I_n(amp) for n != 0, c_0 = 0, c_{-n} = conj(c_n)
    got = smooth_catalog("expsin", amp=amp).coeff_fn(M)
    with mp.workdps(30):
        i_n = [float(mp.besseli(n, amp)) for n in range(1, M + 1)]
    pos = np.array([(-1j) ** (n % 4) * v for n, v in enumerate(i_n, start=1)])
    want = np.concatenate((pos[::-1].conj(), [0.0], pos))
    assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * math.exp(abs(amp))


@pytest.mark.parametrize("amp", [0.5, -0.7, 3.0, 50.0, 700.0])
def test_expsin_tail_is_relatively_exact_until_it_underflows(amp):
    # each |c_n| to a few ulp of I_n(|amp|), not to an absolute eps floor,
    # and 0 exactly where I_n rounds to 0 in double; sampled every 29th n
    # and around the last nonzero one
    M = 4000
    got = np.abs(smooth_catalog("expsin", amp=amp).coeff_fn(M)[M + 1 :])
    last = int(np.flatnonzero(got)[-1]) + 1
    ns = sorted(set(range(1, M + 1, 29)) | set(range(last - 3, last + 4)))
    with mp.workdps(40):
        want = [float(mp.besseli(n, abs(amp))) for n in ns]
    for n, w in zip(ns, want):
        g = got[n - 1]
        assert (g == 0) == (w == 0), n
        if w > np.finfo(float).tiny:
            assert abs(g - w) <= 1e-14 * w, n


def test_expsin_large_spectrum_is_finite_and_conjugate_symmetric_bit_for_bit():
    M = 65536
    model = JumpModel(2, ((-1.3, (1.0, 0.3, -0.2)), (0.7, (0.8, -0.4, 0.25))))
    sp = synth_spectrum(model, smooth_catalog("expsin", amp=-0.7), M)
    assert np.isfinite(sp.coeffs).all()
    assert sp.real_valued
    # c_{-k} is conj(c_k) to the bit for k >= 1; c_0 is 0
    neg, pos = sp.coeffs[:M][::-1], sp.coeffs[M + 1 :]
    assert np.array_equal(neg.conj().view(np.uint64), pos.view(np.uint64))
    assert sp.coeffs[M] == 0
    tail = smooth_catalog("expsin", amp=-0.7).coeff_fn(M)
    assert np.count_nonzero(tail) < 400


@pytest.mark.parametrize(
    "name, params, oversample",
    [("zero", {}, 8),
     ("sin", {"amp": 0.7, "freq": 3, "phase": 0.4}, 8),
     ("expsin", {"amp": -0.7}, 8),
     ("expsin", {"amp": 3.0}, 16),
     ("poly-blend", {"order": 5, "center": 1.13, "amp": 1.5}, 64)],
)
def test_every_catalog_closed_form_matches_the_quadrature_oracle(name, params, oversample):
    # P = oversample * M quadrature points: too few at M = 1 to resolve
    # e^{a sin x}, so the sweep starts at 8; a high blend order keeps the
    # quadrature of the blend's kink spectrally accurate
    smooth = smooth_catalog(name, **params)
    for M in (8, 24, 100):
        oracle = coeffs_of_function(smooth.evaluator, M, oversample)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        assert np.max(np.abs(smooth.coeff_fn(M) - oracle)) <= 1e-12 * scale


def test_smooth_part_needs_its_coefficients():
    with pytest.raises(TypeError, match="coeff_fn"):
        SmoothPart("f", np.sin)


def test_expsin_takes_the_largest_amp_whose_exponential_is_finite():
    # the tail underflows to 0 on purpose; nothing overflows
    amp = math.log(np.finfo(float).max)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        sp = synth_spectrum(JumpModel(0, ()), smooth_catalog("expsin", amp=amp), 8)
    assert np.isfinite(sp.coeffs).all()


@pytest.mark.parametrize(
    "name, params, named",
    [("expsin", {"amp": float("nan")}, "amp must be finite"),
     ("expsin", {"amp": float("inf")}, "amp must be finite"),
     ("expsin", {"amp": 710.0}, "amp=710.0"),
     ("expsin", {"amp": -709.8}, "amp=-709.8"),
     ("sin", {"amp": float("nan")}, "amp must be finite"),
     ("sin", {"phase": float("inf")}, "phase must be finite"),
     ("poly-blend", {"order": 2, "center": float("nan")}, "center must be finite"),
     ("poly-blend", {"order": 2, "amp": -float("inf")}, "amp must be finite")],
)
def test_catalog_rejects_parameters_past_the_double_range_by_name(name, params, named):
    # expsin's e^|amp| must be a finite double, |amp| <= 709.78
    with pytest.raises(ModelError, match=named):
        smooth_catalog(name, **params)


def test_poly_blend_closed_form_matches_quadrature():
    # high blend order keeps the quadrature oracle spectrally accurate
    smooth = smooth_catalog("poly-blend", order=5, center=-2.0, amp=1.0)
    sp = synth_spectrum(JumpModel(5, ()), smooth, 24)
    oracle = coeffs_of_function(smooth.evaluator, 24, oversample=64)
    assert np.max(np.abs(sp.coeffs - oracle)) <= 1e-12


def test_poly_blend_low_order_matches_adaptive_quadrature():
    smooth = smooth_catalog("poly-blend", order=2, center=-2.0, amp=1.0)
    sp = synth_spectrum(JumpModel(2, ()), smooth, 24)
    for k in (1, 7):
        re, _ = quad(
            lambda x: smooth.evaluator(np.array([x]))[0] * np.cos(-k * x),
            -np.pi, np.pi, points=[-2.0], limit=400, epsabs=1e-13,
        )
        im, _ = quad(
            lambda x: smooth.evaluator(np.array([x]))[0] * np.sin(-k * x),
            -np.pi, np.pi, points=[-2.0], limit=400, epsabs=1e-13,
        )
        assert abs(sp.coeff(k) - (re + 1j * im) / (2.0 * np.pi)) <= 1e-12


def test_smooth_part_rides_on_top_of_jumps():
    m = JumpModel(1, ((0.3, (1.0, 0.5)),))
    sp = synth_spectrum(m, smooth_catalog("sin", amp=0.7), 16)
    delta = sp.coeffs - phi_coeff_array(m, 16)
    assert abs(delta[16 + 1] - 0.7 * (-0.5j)) <= 1e-12


def test_catalog_rejects_unknown_entries_and_parameters():
    with pytest.raises(ModelError):
        smooth_catalog("triangle")
    with pytest.raises(ModelError):
        smooth_catalog("sin", bogus=1.0)
    with pytest.raises(ModelError):
        smooth_catalog("zero", amp=1.0)
    with pytest.raises(ModelError):
        smooth_catalog("poly-blend", order=0)
    with pytest.raises(ModelError):
        smooth_catalog("poly-blend", order=32)


def test_zero_smooth_part_contributes_nothing():
    m = JumpModel(0, ((0.3, (1.0,)),))
    a = synth_spectrum(m, smooth_catalog("zero"), 8)
    b = synth_spectrum(m, None, 8)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_fitted_decay_constant_on_exact_power_law():
    M = 32
    cs = np.zeros(2 * M + 1, dtype=complex)
    ks = np.arange(1, M + 1, dtype=float)
    cs[M + 1 :] = ks**-2.0
    cs[:M] = cs[M + 1 :][::-1]
    sp = FourierSpectrum(M, cs, False)
    assert fitted_decay_constant(sp, 2) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------- ceiling


def test_adversarial_pair_construction():
    m = JumpModel(1, ((0.7, (1.0, 0.3)),))
    bounds = AprioriBounds(J=np.pi / 2, A=2.0, B=0.5, R=1.0)
    g, h, delta = adversarial_pair(m, 100, bounds)
    assert delta == pytest.approx(2.0 * np.pi * 0.5 * 100.0**-3, rel=1e-15)
    assert np.array_equal(g.coeffs, h.coeffs)
    # the hidden correction stays inside the declared decay budget
    shifted = shift_jumps(m, delta)
    diff = phi_coeff_array(m, 100) - phi_coeff_array(shifted, 100)
    ks = np.abs(np.arange(-100, 101)).astype(float)
    ks[100] = 1.0
    assert float(np.max(np.abs(diff) * ks**3)) < bounds.R


def test_adversarial_pair_rejects_oversized_models():
    bounds = AprioriBounds(J=np.pi / 2, A=1.0, B=0.5, R=1.0)
    with pytest.raises(ModelError):
        adversarial_pair(JumpModel(1, ((0.7, (1.0, 0.3)),)), 100, bounds)
    with pytest.raises(ModelError):
        adversarial_pair(
            JumpModel(0, ((0.7, (0.5,)),)),
            0,
            AprioriBounds(J=np.pi / 2, A=2.0, B=0.5, R=1.0),
        )
