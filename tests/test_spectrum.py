"""Coefficient containers, partial sums, weighted moments, convolution."""

import json

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import quad

from conftest import (
    EDGE_COEFFS,
    EDGE_FLOATS,
    bits,
    coeffs_of_function,
    dump_text,
    grid_sum_reference,
    moments_reference,
    no_python_encoder,
    product_reference,
)
from jumprec import spectrum as spectrum_module
from jumprec.errors import ModelError
from jumprec.localize import make_bump
from jumprec.model import JumpModel, phi_coeff_array, phi_eval, synth_spectrum
from jumprec.reconstruct import pipeline_geometry
from jumprec.spectrum import (
    FourierSpectrum,
    MomentSequence,
    SamplePlan,
    eval_partial_sum,
    load_spectrum,
    plan_values,
    product_spectrum,
    save_spectrum,
    uniform_grid,
    weight_moments,
    wrap_angle,
)


def jump_spectrum(model, M):
    return FourierSpectrum(M, phi_coeff_array(model, M), real_valued=model.is_real)


# ---------------------------------------------------------------- circle


_WRAP_POINTS = np.array([
    0.0, -0.0, np.pi, -np.pi, 2.0 * np.pi, -2.0 * np.pi, 3.0 * np.pi,
    -3.0 * np.pi, np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0),
    1e-300, -1e-300, 5e-324, 2.0**53, -(2.0**53), 1e300, -1e300,
    np.finfo(float).max / 2.0, -np.finfo(float).max / 2.0,
])


@given(st.lists(st.floats(-1e300, 1e300, allow_nan=False), max_size=50))
@example(list(_WRAP_POINTS))
@example(list(np.arange(-8, 9) * np.pi))
def test_array_wrap_is_the_np_mod_form_byte_for_byte(values):
    # arrays wrap by fmod plus 2pi where negative; exact multiples, +-pi,
    # -0.0 and huge values must come out as the np.mod form's
    x = np.array(values, dtype=float)
    want = np.mod(x + np.pi, 2.0 * np.pi) - np.pi
    assert wrap_angle(x).tobytes() == want.tobytes()
    assert wrap_angle(x.reshape(-1, 1)).tobytes() == want.tobytes()
    for v in values[:5]:
        assert wrap_angle(v) == float(want[values.index(v)])


def test_wrap_keeps_mpmath_precision():
    with mp.workdps(40):
        got = wrap_angle(mp.mpf(7), mp.pi)
        assert abs(got - (7 - 2 * mp.pi)) < mp.mpf(10) ** -38


# ---------------------------------------------------------------- containers


def test_spectrum_rejects_wrong_coefficient_count():
    with pytest.raises(ModelError):
        FourierSpectrum(4, np.ones(8, dtype=complex), False)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_spectrum_rejects_non_finite_coefficients(bad):
    coeffs = np.ones(9, dtype=complex)
    coeffs[6] = bad
    with pytest.raises(ModelError):
        FourierSpectrum(4, coeffs, False)
    # JSON NaN parses as a float, so a spectrum file can carry it
    record = FourierSpectrum(4, np.ones(9, dtype=complex)).to_json_dict()
    record["coeffs"][6] = [float(np.real(bad)), float(np.imag(bad))]
    with pytest.raises(ModelError):
        FourierSpectrum.from_json_dict(record)


def test_spectrum_record_rejects_bool_coefficients():
    # complex(1.5, True) is 1.5+1j: a record that is not real_valued, so
    # has no symmetry check to trip, once loaded a bool as a number
    record = {"M": 1, "real_valued": False, "coeffs": [[0, 0], [0, 0], [1.5, True]]}
    with pytest.raises(ModelError, match=r"coeffs\[2\]: got \[1.5, True\]"):
        FourierSpectrum.from_json_dict(record)


def test_spectrum_record_bulk_read_is_the_pair_loop_bit_for_bit():
    # ints (one past 2^53), signed zeros, subnormals and +-max: the bulk
    # conversion gives complex(re, im) of every pair
    pairs = [[re, im] for re in EDGE_FLOATS for im in EDGE_FLOATS]
    pairs += [[2**53 + 1, -7], [3, 0.5], [-(2**62) - 1, 0]]
    loop = np.array([complex(re, im) for re, im in pairs])
    got = FourierSpectrum.from_json_dict({"M": 19, "real_valued": False, "coeffs": pairs})
    assert np.array_equal(bits(got.coeffs), bits(loop))


@pytest.mark.parametrize("i", [0, 4, 7])
@pytest.mark.parametrize(
    "entry",
    [[True, 0.0], [0.0, False], ["0.5", 0.0], [0.0, None], [10**400, 0.0],
     [1.0], [1.0, 2.0, 3.0], "ab", 1.5, [[1.0, 2.0], 0.0]],
)
def test_spectrum_record_names_the_first_bad_pair(i, entry):
    pairs = [[0.5, 0.0]] * 9
    pairs[i] = entry
    pairs[8] = [True, True]  # a later bad pair is not the one named
    with pytest.raises(ModelError, match=rf"coeffs\[{i}\]"):
        FourierSpectrum.from_json_dict({"M": 4, "real_valued": False, "coeffs": pairs})


def test_spectrum_rejects_negative_truncation():
    with pytest.raises(ModelError):
        FourierSpectrum(-1, np.ones(1, dtype=complex), False)


def test_real_flag_requires_conjugate_symmetry():
    with pytest.raises(ModelError):
        FourierSpectrum(1, np.array([1 + 0j, 0j, 0.5j]), True)
    # symmetric data passes
    FourierSpectrum(1, np.array([0.5 - 0.25j, 1.0 + 0j, 0.5 + 0.25j]), True)


def test_symmetry_defect_at_one_negative_index_is_rejected():
    # the defect is read over k >= 0 only: |conj(c_{-k}) - c_k| is the same
    # number at k and -k, so a defect placed at k < 0 shows at its mirror
    M = 8
    cs = phi_coeff_array(JumpModel(1, ((0.7, (1.0, 0.3)),)), M)
    cs[M - 5] += 3e-3 - 4e-3j
    with pytest.raises(ModelError, match=r"defect 5\.000e-03 at scale"):
        FourierSpectrum(M, cs, real_valued=True)


def test_coefficient_lookup_and_bounds():
    sp = FourierSpectrum(2, np.arange(5, dtype=complex), False)
    assert sp.coeff(-2) == 0.0
    assert sp.coeff(0) == 2.0
    assert sp.coeff(2) == 4.0
    with pytest.raises(IndexError):
        sp.coeff(3)


def test_moment_sequence_validation():
    plan = SamplePlan("decimated", 0, 8)  # indices (4, 8)
    with pytest.raises(ModelError):
        MomentSequence(plan, np.ones(3, dtype=complex))
    with pytest.raises(ModelError):
        MomentSequence(plan, np.ones((2, 1), dtype=complex))
    with pytest.raises(ModelError):
        MomentSequence(plan, np.array([1j, np.nan]))
    with pytest.raises(ModelError):
        MomentSequence(plan, np.array([mp.mpc(1), mp.mpc("inf")], dtype=object))
    # extended-precision moments keep their mpmath values
    ext = MomentSequence(plan, np.array([mp.mpc(1), mp.mpc(2)], dtype=object))
    assert isinstance(ext.values[1], mp.mpc)
    # order and indices are the plan's
    assert (ext.order, ext.indices) == (0, (4, 8))


@given(
    st.integers(min_value=0, max_value=6),
    st.lists(
        st.tuples(
            st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)
        ),
        min_size=1,
        max_size=13,
    ),
)
def test_spectrum_json_round_trip_is_exact(M, pairs):
    pairs = (pairs * (2 * M + 1))[: 2 * M + 1]
    arr = np.array([complex(re, im) for re, im in pairs])
    sp = FourierSpectrum(M, arr, False)
    back = FourierSpectrum.from_json_dict(sp.to_json_dict())
    assert back.M == sp.M
    assert np.array_equal(back.coeffs, sp.coeffs)


def test_spectrum_file_round_trip(tmp_path):
    sp = jump_spectrum(JumpModel(1, ((0.3, (1.0, -0.7)),)), 16)
    path = tmp_path / "s.json"
    save_spectrum(path, sp)
    back = load_spectrum(path)
    assert back.real_valued
    assert np.array_equal(back.coeffs, sp.coeffs)


def test_spectrum_reads_its_truncation_index_as_an_integer(tmp_path):
    # a numpy integer M is stored as an int, so the record saves and loads
    sp = synth_spectrum(JumpModel(1, ((0.3, (1.0, -0.7)),)), None, np.int64(64))
    assert type(sp.M) is int
    back = load_spectrum(_saved(tmp_path, sp))
    assert back.M == 64
    assert np.array_equal(back.coeffs, sp.coeffs)
    for bad in (True, 1.0):
        with pytest.raises(ModelError, match=f"M={bad!r}"):
            FourierSpectrum(bad, np.zeros(3, complex))


def test_spectrum_file_is_the_text_json_dump_wrote(tmp_path):
    # the record as the per-coefficient loop built it, -0.0 kept by repr
    sp = FourierSpectrum(18, EDGE_COEFFS)
    loop_record = {
        "M": 18,
        "real_valued": False,
        "coeffs": [[float(c.real), float(c.imag)] for c in sp.coeffs],
    }
    path = tmp_path / "s.json"
    save_spectrum(path, sp)
    assert path.read_text(encoding="utf-8") == dump_text(loop_record)


def test_save_spectrum_takes_the_c_encoder(tmp_path, monkeypatch):
    monkeypatch.setattr(json.encoder, "_make_iterencode", no_python_encoder)
    sp = FourierSpectrum(18, EDGE_COEFFS)
    save_spectrum(tmp_path / "s.json", sp)
    assert np.array_equal(bits(load_spectrum(tmp_path / "s.json").coeffs), bits(sp.coeffs))


def test_spectrum_file_round_trip_is_bit_exact_at_the_range_edges(tmp_path):
    back = load_spectrum(_saved(tmp_path, FourierSpectrum(18, EDGE_COEFFS)))
    assert np.array_equal(bits(back.coeffs), bits(EDGE_COEFFS))
    want_sign = [np.signbit(x) for x in EDGE_FLOATS]
    assert [np.signbit(c.real) for c in back.coeffs[:36:6]] == want_sign
    assert [np.signbit(c.imag) for c in back.coeffs[:6]] == want_sign
    # a large record with magnitudes spread over the whole double range
    rng = np.random.default_rng(4096)
    parts = rng.standard_normal((2, 2 * 4096 + 1)) * 10.0 ** rng.uniform(
        -320, 300, size=(2, 2 * 4096 + 1)
    )
    coeffs = np.empty(2 * 4096 + 1, dtype=np.complex128)
    coeffs.real, coeffs.imag = parts
    big = FourierSpectrum(4096, coeffs)
    assert np.array_equal(bits(load_spectrum(_saved(tmp_path, big)).coeffs), bits(coeffs))


def _saved(tmp_path, sp):
    path = tmp_path / f"s{sp.M}.json"
    save_spectrum(path, sp)
    return path


# ---------------------------------------------------------------- partial sums


def test_partial_sum_of_constant_mode():
    sp = FourierSpectrum(0, np.array([1.0 + 0j]), True)
    assert eval_partial_sum(sp, 0.37) == pytest.approx(1.0, abs=1e-15)


def test_partial_sum_cosine_pair_at_zero():
    sp = FourierSpectrum(1, np.array([0.5, 0.0, 0.5], dtype=complex), True)
    assert eval_partial_sum(sp, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_partial_sum_matches_direct_summation_for_a_jump():
    # c_k of a unit step at xi has the closed form e^{-ik xi}/(2 pi i k)
    xi, M, x = 0.4, 64, np.pi / 2
    sp = jump_spectrum(JumpModel(0, ((xi, (1.0,)),)), M)
    direct = 0.0 + 0.0j
    for k in range(-M, M + 1):
        if k == 0:
            continue
        direct += np.exp(-1j * k * xi) / (2j * np.pi * k) * np.exp(1j * k * x)
    assert abs(eval_partial_sum(sp, x) - direct.real) <= 1e-12


def test_partial_sum_vectorizes_and_respects_real_flag():
    sp = jump_spectrum(JumpModel(0, ((0.4, (1.0,)),)), 8)
    xs = np.linspace(-3, 3, 7)
    vals = eval_partial_sum(sp, xs)
    assert vals.shape == (7,)
    assert vals.dtype == np.float64
    scalar = eval_partial_sum(sp, float(xs[3]))
    assert scalar == pytest.approx(vals[3], abs=1e-15)


@pytest.mark.parametrize("npts", [1, 5, 130, 301])
def test_blocked_partial_sum_matches_the_dense_product(npts):
    # at M=4096 a block holds 63 rows, so these counts leave partial blocks
    M = 4096
    assert spectrum_module._PHASE_BLOCK // (2 * M + 1) == 63
    rng = np.random.default_rng(npts)
    half = rng.normal(size=M + 1) + 1j * rng.normal(size=M + 1)
    cs = np.concatenate((half[:0:-1].conj(), [half[0].real], half[1:]))
    sp = FourierSpectrum(M, cs, real_valued=True)
    xs = rng.uniform(-np.pi, np.pi, size=npts)
    dense = (np.exp(1j * np.outer(xs, np.arange(-M, M + 1))) @ cs).real
    np.testing.assert_allclose(eval_partial_sum(sp, xs), dense, rtol=1e-14)
    scalar = eval_partial_sum(sp, xs[0])
    assert np.ndim(scalar) == 0
    np.testing.assert_allclose(scalar, dense[0], rtol=1e-14)
    assert np.ndim(eval_partial_sum(sp, np.array(xs[0]))) == 0


def _random_spectrum(M, real, seed):
    rng = np.random.default_rng(seed)
    half = rng.normal(size=M + 1) + 1j * rng.normal(size=M + 1)
    if real:
        neg = half[:0:-1].conj()
        half[0] = half[0].real
    else:
        neg = rng.normal(size=M) + 1j * rng.normal(size=M)
    return FourierSpectrum(M, np.concatenate((neg, half)), real_valued=real)


@given(
    M=st.integers(0, 600),
    G=st.integers(1, 3000),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# G below 2M+1 folds several modes into one bin; at and above it none do
@example(M=600, G=1200, real=True, seed=0)
@example(M=600, G=1201, real=False, seed=1)
@example(M=600, G=3000, real=False, seed=2)
@example(M=599, G=2999, real=True, seed=3)
@example(M=600, G=1, real=True, seed=4)
@example(M=0, G=1, real=False, seed=5)
def test_grid_partial_sum_matches_the_direct_sum(M, G, real, seed):
    sp = _random_spectrum(M, real, seed)
    xs = uniform_grid(G)
    direct = spectrum_module._direct_sum(sp, xs)
    fast = eval_partial_sum(sp, xs)
    if real:
        direct = direct.real
    assert fast.shape == (G,)
    assert fast.dtype == direct.dtype
    assert np.max(np.abs(fast - direct)) <= 1e-13 * np.sum(np.abs(sp.coeffs))


@pytest.mark.parametrize("k", [-600, -599, 1, 600])
@pytest.mark.parametrize("G", [7, 1200, 2048])
def test_grid_partial_sum_of_a_lone_mode_is_exact(k, G):
    # the direct sum's phase k*x_j carries about |k| pi 2^-52 of rounding
    # (8e-13 at |k| = 600), so a lone top mode is checked against phases
    # reduced in integers: exp(ik x_j) = (-1)^k exp(2 pi i (kj mod G)/G)
    M = 600
    cs = np.zeros(2 * M + 1, dtype=complex)
    cs[k + M] = 1.0
    j = np.arange(G)
    exact = (-1) ** (k % 2) * np.exp(2j * np.pi * ((k * j) % G) / G)
    got = eval_partial_sum(FourierSpectrum(M, cs), uniform_grid(G))
    assert np.max(np.abs(got - exact)) <= 1e-13


# G below, at and above 2M+1, for odd and even M
_FOLD_CASES = sorted({
    (M, G)
    for M in (0, 1, 7, 8, 600, 601)
    for G in (2, 3, M + 1, 2 * M, 2 * M + 1, 2 * M + 2, 3 * M + 7, 2048)
    if G >= 2
})


@pytest.mark.parametrize("M,G", _FOLD_CASES)
@pytest.mark.parametrize("real", [False, True])
def test_grid_fold_is_the_bincount_fold_bit_for_bit(M, G, real):
    # the padded buffer's rows are summed in ascending k, as bincount adds
    # its weights
    sp = _random_spectrum(M, real, 1000 * M + G)
    got = spectrum_module._grid_sum(sp, G)
    assert np.array_equal(bits(got), bits(grid_sum_reference(sp, G)))


def test_grid_fold_at_one_point_is_the_signed_total():
    # G = 1 sums all 2M+1 signed modes in one bin, in numpy's pairwise
    # order rather than bincount's running one
    sp = _random_spectrum(600, False, 9)
    ks = np.arange(-600, 601)
    total = np.sum(np.where(ks % 2 == 0, sp.coeffs, -sp.coeffs))
    got = spectrum_module._grid_sum(sp, 1)
    assert got.shape == (1,)
    assert abs(got[0] - total) <= 1e-15 * np.sum(np.abs(sp.coeffs))
    assert abs(got[0] - grid_sum_reference(sp, 1)[0]) <= 1e-13 * np.sum(np.abs(sp.coeffs))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_partial_sum_rejects_non_finite_points(bad):
    sp = _random_spectrum(16, True, 0)
    with pytest.raises(ModelError, match=rf"x\[1\]={bad!r}"):
        eval_partial_sum(sp, np.array([0.5, bad, 0.2]))
    with pytest.raises(ModelError, match="finite"):
        eval_partial_sum(sp, bad)
    grid = uniform_grid(64)
    grid[-1] = bad
    with pytest.raises(ModelError, match=rf"x\[63\]={bad!r}"):
        eval_partial_sum(sp, grid)


@pytest.mark.parametrize("block_rows", [None, 2])
def test_partial_sum_keeps_the_shape_of_the_points(monkeypatch, block_rows):
    # off the grid the points are summed flat and the sums reshaped; a
    # phase block of fewer rows than the first axis changes no value
    sp = _random_spectrum(16, True, 0)
    xs = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    want = np.array([eval_partial_sum(sp, x) for x in xs.ravel()]).reshape(3, 4)
    if block_rows is not None:
        monkeypatch.setattr(spectrum_module, "_PHASE_BLOCK", block_rows * (2 * 16 + 1))
    got = eval_partial_sum(sp, xs)
    assert got.shape == (3, 4)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    assert eval_partial_sum(sp, xs[:, :1]).shape == (3, 1)


def test_only_the_uniform_grid_takes_the_fft_path(monkeypatch):
    calls = []
    ifft = np.fft.ifft

    def recorder(a, *args, **kwargs):
        calls.append(len(a))
        return ifft(a, *args, **kwargs)

    sp = _random_spectrum(40, True, 0)
    grid = uniform_grid(64)
    want = spectrum_module._direct_sum(sp, grid).real
    monkeypatch.setattr(spectrum_module.np.fft, "ifft", recorder)
    np.testing.assert_allclose(eval_partial_sum(sp, grid), want, atol=1e-12)
    assert calls == [64]
    calls.clear()
    shifted = np.nextafter(grid, np.inf)
    np.testing.assert_allclose(eval_partial_sum(sp, shifted), want, atol=1e-12)
    np.testing.assert_allclose(
        eval_partial_sum(sp, grid[::-1]), want[::-1], atol=1e-12
    )
    # a scalar -pi and a 0-d array are not uniform_grid(1)
    for point in (-np.pi, np.array(-np.pi)):
        assert np.ndim(eval_partial_sum(sp, point)) == 0
    assert calls == []


# ---------------------------------------------------------------- moments


def test_unit_step_moments_are_constant_one():
    # weights 2 pi (ik)^{order+1} exactly cancel the step coefficients
    sp = jump_spectrum(JumpModel(0, ((0.0, (1.0,)),)), 32)
    for plan in (SamplePlan("decimated", 0, 3), SamplePlan("decimated", 0, 11),
                 SamplePlan("consecutive", 0, 18), SamplePlan("decimated", 0, 32)):
        mom = weight_moments(plan, plan_values(sp, plan))
        assert np.max(np.abs(mom.values - 1.0)) <= 1e-12


def test_zero_spectrum_gives_zero_moments():
    sp = FourierSpectrum(8, np.zeros(17, dtype=complex), True)
    plan = SamplePlan("decimated", 2, 8)
    mom = weight_moments(plan, plan_values(sp, plan))
    assert np.max(np.abs(mom.values)) == 0.0


def test_single_jump_moment_modulus_is_index_free():
    sp = jump_spectrum(JumpModel(0, ((1.1, (0.7,)),)), 64)
    # the order-0 decimated plans over M = 2..64 read every index 1..64
    plans = [SamplePlan("decimated", 0, M) for M in range(2, 65)]
    mags = np.abs(np.concatenate(
        [weight_moments(plan, plan_values(sp, plan)).values for plan in plans]
    ))
    assert np.max(mags) - np.min(mags) <= 1e-12


def test_moment_index_validation():
    # a plan over more modes than the spectrum holds is refused by the one
    # gather, also where its indices would fit: (2, 4, 6, 8) over M=11
    sp = FourierSpectrum(8, np.zeros(17, dtype=complex), True)
    with pytest.raises(ModelError, match="usable M=9 exceeds spectrum M=8"):
        plan_values(sp, SamplePlan("decimated", 0, 9))
    with pytest.raises(ModelError, match="exceeds spectrum"):
        plan_values(sp, SamplePlan("decimated", 2, 11))
    with pytest.raises(ModelError, match="exceeds spectrum"):
        plan_values(sp, SamplePlan("consecutive", 2, 12))
    # the moment formula takes exactly one value per plan index
    plan = SamplePlan("decimated", 2, 8)
    for values in (np.ones(3), np.ones(5), np.ones((4, 1)), 1.0):
        with pytest.raises(ModelError, match="disagree in length"):
            weight_moments(plan, values)


@given(
    M=st.integers(2, 96),
    kind=st.sampled_from(["decimated", "consecutive"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_moments_are_the_per_index_loop_bit_for_bit(M, kind, seed, data):
    # one gather of the c_k, then the per-index arithmetic of spectrum.coeff(k)
    rng = np.random.default_rng(seed)
    sp = FourierSpectrum(M, rng.normal(size=2 * M + 1) + 1j * rng.normal(size=2 * M + 1))
    d = data.draw(st.integers(0, min(6, M - 2)))
    plan = SamplePlan(kind, d, data.draw(st.integers(d + 2, M)))
    got = weight_moments(plan, plan_values(sp, plan))
    assert got.plan is plan
    assert bits(got.values).tobytes() == bits(moments_reference(sp, plan)).tobytes()


# ---------------------------------------------------------------- products


def full_product(a, b, out_M):
    # the product's coefficients on every index |k| <= out_M
    ks = np.arange(-out_M, out_M + 1)
    return FourierSpectrum(out_M, product_spectrum(a, b, ks))


@st.composite
def index_sets(draw):
    # a's truncation index and the product indices asked of it: drawn
    # near +-a.M on purpose, unsorted, and with repeats
    aM = draw(st.integers(0, 24))
    edge = st.integers(0, min(2, aM)).flatmap(
        lambda off: st.sampled_from([aM - off, off - aM])
    )
    ks = draw(st.lists(edge | st.integers(-aM, aM), min_size=1, max_size=12))
    return aM, ks + ks[: draw(st.integers(0, len(ks)))]


@given(
    case=index_sets(),
    bM=st.integers(0, 40),
    band=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    density=st.sampled_from([0.0, 0.5, 1.0]),
    real=st.tuples(st.booleans(), st.booleans()),
    seed=st.integers(0, 2**32 - 1),
)
# b's band sits wholly past the indices of a that the outputs read
@example(case=(2, [0]), bM=4, band=(1.0, 1.0), density=1.0,
         real=(False, False), seed=0)
@example(case=(24, [24, -24, 23, 24, 0, -23, -24]), bM=40, band=(0.0, 1.0),
         density=1.0, real=(True, True), seed=1)
def test_sampled_product_matches_the_dense_convolution(
    case, bM, band, density, real, seed
):
    # reference: the full convolution of both sequences, read at centre + k
    aM, ks = case
    rng = np.random.default_rng(seed)

    def draw(M, lo, hi, keep, symmetric):
        cs = np.zeros(2 * M + 1, dtype=complex)
        width = hi - lo + 1
        vals = rng.normal(size=width) + 1j * rng.normal(size=width)
        cs[lo : hi + 1] = vals * (rng.random(width) < keep)
        # conjugate-symmetric spectra are those of real functions
        return (cs + cs[::-1].conj()) / 2.0 if symmetric else cs

    a = FourierSpectrum(aM, draw(aM, 0, 2 * aM, 1.0, real[0]), real[0])
    lo, hi = sorted(int(u * 2 * bM) for u in band)
    b = FourierSpectrum(bM, draw(bM, lo, hi, density, real[1]), real[1])
    got = product_spectrum(a, b, ks)
    centre = aM + bM
    want = np.convolve(a.coeffs, b.coeffs)[centre + np.array(ks)]
    tol = 1e-14 * np.sum(np.abs(a.coeffs)) * np.sum(np.abs(b.coeffs))
    assert got.shape == (len(ks),)
    # the product of two real functions is real: its coefficients at -k
    # are the conjugates of those at k
    if real[0] and real[1]:
        mirrored = product_spectrum(a, b, [-k for k in ks])
        assert np.max(np.abs(mirrored - got.conj())) <= tol
    assert np.max(np.abs(got - want)) <= tol


@given(
    case=index_sets(),
    bM=st.integers(0, 40),
    keep=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
# every output reads a in place, and one whose terms pass a.M
@example(case=(24, [5, 7, 12]), bM=3, keep=1.0, seed=2)
@example(case=(24, [24, -3]), bM=3, keep=1.0, seed=3)
def test_product_is_the_padded_gather_bit_for_bit(case, bM, keep, seed):
    aM, ks = case
    rng = np.random.default_rng(seed)
    a = FourierSpectrum(aM, rng.normal(size=2 * aM + 1) + 1j * rng.normal(size=2 * aM + 1))
    cs = rng.normal(size=2 * bM + 1) + 1j * rng.normal(size=2 * bM + 1)
    b = FourierSpectrum(bM, cs * (rng.random(2 * bM + 1) < keep))
    for idx in (ks, np.array(ks, dtype=np.int32), tuple(ks)):
        got = product_spectrum(a, b, idx)
        assert bits(got).tobytes() == bits(product_reference(a, b, ks)).tobytes()


@pytest.mark.parametrize("M, d", [(64, 0), (256, 2), (512, 1), (4096, 2)])
def test_windowing_is_the_padded_gather_bit_for_bit(M, d):
    # the pipeline's own products: a window on the first pass's indices
    M_eff, width, degree = pipeline_geometry(M, d, np.pi / 2)
    window = make_bump(0.7, width, M, degree)
    sp = jump_spectrum(JumpModel(d, ((0.7, (1.0,) + (0.3,) * d),)), M)
    ks = SamplePlan("decimated", d, M_eff).indices + SamplePlan("consecutive", d // 2, M_eff).indices
    got = product_spectrum(sp, window, ks)
    assert bits(got).tobytes() == bits(product_reference(sp, window, ks)).tobytes()


def test_product_with_delta_spectrum_is_identity():
    sp = jump_spectrum(JumpModel(1, ((0.3, (1.0, 0.5)),)), 16)
    delta = FourierSpectrum(0, np.array([1.0 + 0j]), True)
    out = full_product(sp, delta, 8)
    assert np.allclose(out.coeffs, sp.coeffs[16 - 8 : 16 + 8 + 1], atol=1e-15)


def test_single_mode_product_shifts_frequency():
    one = FourierSpectrum(1, np.array([0, 0, 1.0], dtype=complex), False)
    out = full_product(FourierSpectrum(2, np.pad(one.coeffs, 1), False), one, 2)
    assert out.coeff(2) == 1.0
    assert sum(abs(out.coeff(k)) for k in range(-2, 2)) == 0.0


def test_product_is_commutative():
    a = jump_spectrum(JumpModel(0, ((0.3, (1.0,)),)), 24)
    b = jump_spectrum(JumpModel(0, ((-1.1, (0.7,)),)), 24)
    ab = full_product(a, b, 12)
    ba = full_product(b, a, 12)
    assert np.allclose(ab.coeffs, ba.coeffs, atol=1e-15)


def test_product_is_associative_for_bandlimited_factors():
    # no mode of any intermediate product falls outside its container,
    # so the two association orders agree to rounding
    rng = np.random.default_rng(11)

    def banded(width):
        cs = np.zeros(49, dtype=complex)
        lo, hi = 24 - width, 24 + width + 1
        cs[lo:hi] = rng.normal(size=2 * width + 1) + 1j * rng.normal(
            size=2 * width + 1
        )
        return FourierSpectrum(24, cs, False)

    a, b, c = banded(3), banded(2), banded(4)
    left = full_product(full_product(a, b, 24), c, 9)
    right = full_product(a, full_product(b, c, 24), 9)
    assert np.allclose(left.coeffs, right.coeffs, atol=1e-13)


def test_product_of_real_spectra_is_real():
    # the constructor certifies the conjugate symmetry of a real function
    a = jump_spectrum(JumpModel(0, ((0.3, (1.0,)),)), 16)
    b = jump_spectrum(JumpModel(0, ((-0.8, (2.0,)),)), 16)
    ks = np.arange(-8, 9)
    assert FourierSpectrum(8, product_spectrum(a, b, ks), real_valued=True).real_valued


def test_product_output_range_validation():
    a = jump_spectrum(JumpModel(0, ((0.3, (1.0,)),)), 8)
    b = jump_spectrum(JumpModel(0, ((0.5, (1.0,)),)), 16)
    with pytest.raises(ModelError):
        product_spectrum(a, b, [0, 9])
    with pytest.raises(ModelError):
        product_spectrum(a, b, [-9, 3])
    with pytest.raises(ModelError):
        product_spectrum(a, b, [1.5])
    assert product_spectrum(a, b, []).shape == (0,)


def test_jump_times_window_product_matches_quadrature():
    # window is bandlimited, so the convolution against the step series
    # is complete for the compared indices; quadrature is the referee
    jump = JumpModel(0, ((0.5, (1.0,)),))
    sp = jump_spectrum(jump, 256)
    window = make_bump(0.5, np.pi / 2, 64, 16)
    ks = (0, 3, 17)
    prod = product_spectrum(sp, window, ks)
    for k, got in zip(ks, prod):
        re, _ = quad(
            lambda x: phi_eval(jump, np.array([x]))[0]
            * eval_partial_sum(window, x) * np.cos(-k * x),
            -np.pi, np.pi, points=[0.5], limit=400, epsabs=1e-12,
        )
        im, _ = quad(
            lambda x: phi_eval(jump, np.array([x]))[0]
            * eval_partial_sum(window, x) * np.sin(-k * x),
            -np.pi, np.pi, points=[0.5], limit=400, epsabs=1e-12,
        )
        oracle = (re + 1j * im) / (2.0 * np.pi)
        assert abs(got - oracle) <= 1e-8


def test_product_truncation_defect_shrinks_with_output_width():
    a = jump_spectrum(JumpModel(1, ((0.3, (1.0, 0.5)),)), 192)
    b = jump_spectrum(JumpModel(0, ((-1.1, (0.7,)),)), 192)
    xs = np.linspace(-np.pi, np.pi, 1201, endpoint=False)
    target = eval_partial_sum(a, xs) * eval_partial_sum(b, xs)
    defects = []
    for out_M in (32, 64, 128):
        pm = full_product(a, b, out_M)
        defects.append(float(np.max(np.abs(eval_partial_sum(pm, xs) - target))))
    assert defects[0] > defects[1] > defects[2]


# ---------------------------------------------------------------- quadrature


def test_function_coefficients_recover_a_pure_mode():
    cs = coeffs_of_function(lambda xs: np.sin(3 * xs), 8)
    assert abs(cs[8 + 3] - (-0.5j)) <= 1e-14
    assert abs(cs[8 - 3] - 0.5j) <= 1e-14
    mask = np.ones(17, dtype=bool)
    mask[[8 - 3, 8 + 3]] = False
    assert np.max(np.abs(cs[mask])) <= 1e-14


@pytest.mark.parametrize("M, oversample", [(0, 8), (1, 8), (5, 16), (512, 8), (4096, 16)])
def test_function_coefficients_gather_is_the_index_loop_bit_for_bit(M, oversample):
    # reference: each c_k read from the FFT bin k mod P on its own
    func = lambda xs: np.exp(np.sin(xs)) + 0.3j * np.cos(2 * xs)
    P = max(oversample * max(M, 1), 2 * M + 2)
    hat = np.fft.fft(func(2.0 * np.pi * np.arange(P) / P).astype(np.complex128)) / P
    loop = np.empty(2 * M + 1, dtype=np.complex128)
    for k in range(-M, M + 1):
        loop[k + M] = hat[k % P]
    assert coeffs_of_function(func, M, oversample).tobytes() == loop.tobytes()
