"""Coarse location detection and single-jump isolation windows."""

import math
import tracemalloc

import numpy as np
import pytest

from jumprec import localize
from jumprec.errors import DetectionError, ModelError, NumericError
from jumprec.localize import localize_jump, make_bump, prony_order0
from jumprec.model import JumpModel, smooth_catalog, synth_spectrum
from jumprec.reconstruct import pipeline_geometry
from jumprec.solver import SamplePlan, recover_single_jump
from jumprec.spectrum import (
    FourierSpectrum,
    eval_partial_sum,
    product_spectrum,
    weight_moments,
)

from conftest import circ


TWO_JUMPS_D2 = JumpModel(2, ((-1.3, (1.0, 0.3, -0.2)), (0.7, (0.8, -0.4, 0.25))))


# ---------------------------------------------------------------- detection


def test_detection_finds_both_jumps_within_coarse_accuracy():
    spec = synth_spectrum(TWO_JUMPS_D2, None, 256)
    locs = prony_order0(spec, 2)
    assert len(locs) == 2
    assert list(locs) == sorted(locs)
    assert circ(locs[0], -1.3) <= 1e-4
    assert circ(locs[1], 0.7) <= 1e-4


def test_detection_pinned_values():
    spec = synth_spectrum(TWO_JUMPS_D2, None, 256)
    locs = prony_order0(spec, 2)
    assert locs[0] == pytest.approx(-1.300004684898645, abs=1e-9)
    assert locs[1] == pytest.approx(0.7000078242740431, abs=1e-9)


def test_detection_is_insensitive_to_a_smooth_background():
    bare = prony_order0(synth_spectrum(TWO_JUMPS_D2, None, 256), 2)
    dressed = prony_order0(
        synth_spectrum(TWO_JUMPS_D2, smooth_catalog("expsin"), 256), 2
    )
    assert max(abs(a - b) for a, b in zip(bare, dressed)) <= 1e-9


def test_detection_reports_rank_deficit():
    spec = synth_spectrum(JumpModel(0, ((0.7, (1.0,)),)), None, 128)
    with pytest.raises(DetectionError) as exc:
        prony_order0(spec, 2)
    assert exc.value.rank == 1
    assert exc.value.expected == 2


def test_detection_validation():
    spec = synth_spectrum(JumpModel(0, ((0.7, (1.0,)),)), None, 64)
    with pytest.raises(ModelError):
        prony_order0(spec, 0)
    with pytest.raises(ModelError):
        prony_order0(spec, 17)  # the top 4K indices exceed M


# ---------------------------------------------------------------- windows


def test_bump_plateau_taper_and_support():
    J = np.pi / 2
    w = make_bump(0.5, J, 256, 64)
    assert eval_partial_sum(w, 0.5) == pytest.approx(1.0, abs=1e-8)
    assert eval_partial_sum(w, 0.5 + J / 3) == pytest.approx(1.0, abs=1e-6)
    assert eval_partial_sum(w, 0.5 - J / 3) == pytest.approx(1.0, abs=1e-6)
    # taper midpoint by symmetry of the smoothing kernel
    assert eval_partial_sum(w, 0.5 + 2 * J / 3) == pytest.approx(0.5, abs=1e-6)
    assert abs(eval_partial_sum(w, 0.5 + J)) <= 1e-8
    assert abs(eval_partial_sum(w, 0.5 - 1.3 * J)) <= 1e-8


def test_bump_profile_is_even_about_center():
    w = make_bump(-0.4, 1.2, 128, 32)
    offs = np.linspace(0.0, 1.3, 23)
    left = eval_partial_sum(w, -0.4 - offs)
    right = eval_partial_sum(w, -0.4 + offs)
    assert np.max(np.abs(left - right)) <= 1e-12


def test_bump_spectrum_resynthesizes_profile():
    # the profile: the taper's cosine series centred on the window
    J, M, D = np.pi / 2, 256, 64
    w = make_bump(0.5, J, M, D)
    xs = np.linspace(-np.pi, np.pi, 401, endpoint=False)
    cosines = np.cos(np.outer(xs - 0.5, np.arange(1, D + 1)))
    profile = 2.0 * J / 3.0 / np.pi + 2.0 * cosines @ localize._window_taper(J, M, D)
    assert np.max(np.abs(eval_partial_sum(w, xs) - profile)) <= 1e-12


def test_bump_width_gate_depends_on_mode_budget():
    # at J = pi/2 degree 6 misses the 5e-2 plateau gate (defect 6.1e-2),
    # degree 7 meets it (2.7e-2)
    with pytest.raises(NumericError):
        make_bump(0.3, np.pi / 2, 64, 6)
    make_bump(0.3, np.pi / 2, 64, 7)


def test_bump_validation():
    with pytest.raises(ModelError):
        make_bump(0.3, 0.0, 64, 16)
    with pytest.raises(ModelError):
        make_bump(0.3, np.pi, 64, 16)  # wider than a quarter circle
    with pytest.raises(ModelError):
        make_bump(0.3, np.pi / 2, 16, 4)  # too few modes
    with pytest.raises(ModelError):
        make_bump(0.3, np.pi / 2, 64, 0)
    with pytest.raises(ModelError):
        make_bump(0.3, np.pi / 2, 64, 65)


def per_centre_window_coeffs(center, J, M, D):
    # reference: the taper and phases built in full for each centre
    inner = J / 3.0
    half_ind = 2.0 * J / 3.0
    beta_sq = (inner * (D + 1)) ** 2 - np.pi**2
    beta = min(math.sqrt(beta_sq) if beta_sq > 0.0 else 0.0, 700.0)
    ks = np.arange(1, D + 1)
    taper = np.i0(beta * np.sqrt(1.0 - (ks / (D + 1)) ** 2)) / np.i0(beta)
    mag = np.sin(ks * half_ind) / (np.pi * ks) * taper
    coeffs = np.zeros(2 * M + 1, dtype=np.complex128)
    coeffs[M] = half_ind / np.pi
    phases = np.exp(-1j * ks * center)
    coeffs[M + 1 : M + D + 1] = mag * phases
    coeffs[M - D : M] = (mag * np.conj(phases))[::-1]
    return coeffs


@pytest.mark.parametrize("M,d", [(64, 3), (256, 2), (4096, 2)])
def test_bump_coefficients_are_the_per_centre_build_bit_for_bit(M, d):
    _, width, deg = pipeline_geometry(M, d, np.pi / 2)
    for center in (-np.pi, -1.3, -0.2, 0.0, 0.7, 2.9, 3.1):
        w = make_bump(center, width, M, deg)
        want = per_centre_window_coeffs(center, width, M, deg)
        assert w.M == deg
        assert w.real_valued
        assert w.coeffs.tobytes() == want[M - deg : M + deg + 1].tobytes()


def test_band_product_is_the_full_window_product_bit_for_bit():
    # the window zero-padded to the data's 2M+1 indices gives the same
    # product: the zeros contribute no term
    spec = synth_spectrum(TWO_JUMPS_D2, smooth_catalog("expsin"), 512)
    _, width, deg = pipeline_geometry(512, 2, np.pi / 2)
    window = make_bump(0.7, width, 512, deg)
    full = FourierSpectrum(512, np.pad(window.coeffs, 512 - deg), real_valued=True)
    ks = SamplePlan("decimated", 2, 384).indices
    got = localize_jump(spec, window, ks)
    want = product_spectrum(spec, full, ks)
    assert got.tobytes() == want.tobytes()


def test_window_admissibility_does_not_depend_on_the_centre():
    # for this shape a check grid fixed at 0 put the defect anywhere in
    # 4.92e-2..5.02e-2 with the centre; the 5e-2 gate sits inside that
    # spread
    outcomes = set()
    for center in np.linspace(-np.pi, np.pi, 41, endpoint=False):
        localize._window_taper.cache_clear()
        try:
            make_bump(center, 1.117, 32, 9)
            outcomes.add("admitted")
        except NumericError as exc:
            outcomes.add(str(exc))
    assert len(outcomes) == 1


def test_windows_of_one_shape_build_the_taper_once(monkeypatch):
    builds = []
    irfft = np.fft.irfft

    def counted(*args, **kwargs):
        builds.append(1)
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counted)
    localize._window_taper.cache_clear()
    windows = [make_bump(c, 1.2, 512, 100) for c in (-2.0, -0.5, 1.0, 2.5)]
    assert len(builds) == 1
    mag = localize._window_taper(1.2, 512, 100)
    assert not mag.flags.writeable
    with pytest.raises(ValueError):
        mag[0] = 0.0
    # the windows differ only by their centre's phases
    assert not np.array_equal(windows[0].coeffs, windows[1].coeffs)


@pytest.mark.parametrize("kwargs,name", [
    ({"center": float("nan")}, "center"),
    ({"center": float("inf")}, "center"),
    ({"center": "0.3"}, "center"),
    ({"degree": None}, "degree"),
    ({"M": True}, "M="),
    ({"degree": 2.5}, "degree"),
    ({"J": float("nan")}, "J must be finite"),
    ({"M": 64.5}, "M="),
])
def test_bump_names_the_bad_argument_before_the_cache(kwargs, name):
    args = {"center": 0.3, "J": 1.0, "M": 64, "degree": 16}
    args.update(kwargs)
    before = localize._window_taper.cache_info()
    with pytest.raises(ModelError, match=name):
        make_bump(**args)
    after = localize._window_taper.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


# ---------------------------------------------------------------- isolation


def test_windowed_recovery_ignores_the_other_jump():
    # multiply by a window flat at one jump and dead at the other, then
    # run the single-jump solver on the product coefficients
    mm = JumpModel(1, ((-1.3, (1.0, 0.3)), (0.7, (0.8, -0.4))))
    spec = synth_spectrum(mm, None, 256)
    M_eff = 192
    stride = M_eff // 3
    deg = max(1, min(256 - M_eff, stride - 2))
    window = make_bump(0.7, np.pi / 2, 256, deg)
    plan = SamplePlan("decimated", 1, M_eff)
    loc = localize_jump(spec, window, plan.indices)
    est = recover_single_jump(weight_moments(plan, loc), 0.69)
    assert abs(est.xi - 0.7) <= 1e-12
    assert abs(est.magnitudes[0] - 0.8) <= 1e-10


def test_window_product_keeps_mode_budget():
    spec = synth_spectrum(JumpModel(0, ((0.7, (1.0,)),)), None, 256)
    window = make_bump(0.7, np.pi / 2, 256, 64)
    ks = SamplePlan("decimated", 0, 192).indices
    loc = localize_jump(spec, window, ks)
    # the windowed coefficients are formed at the sampled indices only, one
    # value per index in their order
    assert loc.shape == (len(ks),)
    assert loc.tobytes() == product_spectrum(spec, window, ks).tobytes()


def test_windowing_allocates_nothing_of_the_spectrum_length():
    # at M=65536 a 2M+1 complex array is 2 MiB; the first pass's windowing
    # reads 7 indices through a degree-80 window
    M = 65536
    M_eff, width, degree = pipeline_geometry(M, 2, np.pi / 2)
    spec = synth_spectrum(JumpModel(2, ((0.7, (1.0, 0.3, 0.3)),)), None, M)
    window = make_bump(0.7, width, M, degree)
    ks = SamplePlan("decimated", 2, M_eff).indices
    ks += SamplePlan("consecutive", 1, M_eff).indices
    tracemalloc.start()
    try:
        localize_jump(spec, window, ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # in bytes: a sixteenth of one 2M+1 complex array (32 KiB measured)
    assert peak < 2 * M + 1
