"""Coarse location detection and single-jump isolation windows."""

import math

import numpy as np
import pytest

from jumprec import localize
from jumprec.errors import DetectionError, ModelError, NumericError
from jumprec.localize import BumpSpec, localize_jump, make_bump, prony_order0
from jumprec.model import JumpModel, smooth_catalog, synth_spectrum
from jumprec.reconstruct import pipeline_geometry
from jumprec.solver import SamplePlan, recover_single_jump
from jumprec.spectrum import eval_partial_sum, product_spectrum

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
    b = make_bump(0.5, J, 256)
    assert b.center == 0.5
    assert b.half_width == J
    assert b.profile(0.5) == pytest.approx(1.0, abs=1e-8)
    assert b.profile(0.5 + J / 3) == pytest.approx(1.0, abs=1e-6)
    assert b.profile(0.5 - J / 3) == pytest.approx(1.0, abs=1e-6)
    # taper midpoint by symmetry of the smoothing kernel
    assert b.profile(0.5 + 2 * J / 3) == pytest.approx(0.5, abs=1e-6)
    assert abs(b.profile(0.5 + J)) <= 1e-8
    assert abs(b.profile(0.5 - 1.3 * J)) <= 1e-8


def test_bump_profile_is_even_about_center():
    b = make_bump(-0.4, 1.2, 128, plateau_tol=1e-6)
    offs = np.linspace(0.0, 1.3, 23)
    left = np.array([b.profile(-0.4 - o) for o in offs])
    right = np.array([b.profile(-0.4 + o) for o in offs])
    assert np.max(np.abs(left - right)) <= 1e-12


def test_bump_spectrum_resynthesizes_profile():
    b = make_bump(0.5, np.pi / 2, 256)
    xs = np.linspace(-np.pi, np.pi, 401, endpoint=False)
    vals = eval_partial_sum(b.spectrum, xs)
    target = np.array([b.profile(x) for x in xs])
    assert np.max(np.abs(vals - target)) <= 1e-6


def test_bump_width_gate_depends_on_mode_budget():
    # 64 modes cannot meet the default plateau defect, 256 can
    with pytest.raises(NumericError):
        make_bump(0.3, np.pi / 2, 64)
    make_bump(0.3, np.pi / 2, 64, plateau_tol=1e-3)
    make_bump(0.3, np.pi / 2, 256)


def test_bump_validation():
    with pytest.raises(ModelError):
        make_bump(0.3, 0.0, 64)
    with pytest.raises(ModelError):
        make_bump(0.3, np.pi, 64)  # wider than a quarter circle
    with pytest.raises(ModelError):
        make_bump(0.3, np.pi / 2, 16)  # too few modes
    with pytest.raises(ModelError):
        make_bump(0.3, np.pi / 2, 64, plateau_tol=0.0)
    with pytest.raises(ModelError):
        make_bump(0.3, np.pi / 2, 64, degree=0)
    with pytest.raises(ModelError):
        make_bump(0.3, np.pi / 2, 64, degree=65)


def test_bumpspec_holds_given_fields():
    b = make_bump(0.1, 1.0, 128, plateau_tol=1e-5)
    assert isinstance(b, BumpSpec)
    assert b.plateau_fraction == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert b.spectrum.M == 128


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
    _, width, deg, gate = pipeline_geometry(M, d, np.pi / 2)
    for center in (-np.pi, -1.3, -0.2, 0.0, 0.7, 2.9, 3.1):
        b = make_bump(center, width, M, plateau_tol=gate, degree=deg)
        want = per_centre_window_coeffs(center, width, M, deg)
        assert b.spectrum.coeffs.tobytes() == want.tobytes()
        assert b.band.M == deg
        assert b.band.coeffs.tobytes() == want[M - deg : M + deg + 1].tobytes()


def test_band_product_is_the_full_window_product_bit_for_bit():
    spec = synth_spectrum(TWO_JUMPS_D2, smooth_catalog("expsin"), 512)
    _, width, deg, gate = pipeline_geometry(512, 2, np.pi / 2)
    bump = make_bump(0.7, width, 512, plateau_tol=gate, degree=deg)
    ks = SamplePlan("decimated", 2, 384).indices
    got = localize_jump(spec, bump, ks).coeffs[np.array(ks) + 512]
    want = product_spectrum(spec, bump.spectrum, ks)
    assert got.tobytes() == want.tobytes()


def test_window_admissibility_does_not_depend_on_the_centre():
    # at M=32, d=0 a grid fixed at 0 put this shape's defect anywhere in
    # 2.08e-2..2.32e-2 with the centre; the gate sits inside that spread
    _, width, deg, _ = pipeline_geometry(32, 0, np.pi / 2)
    outcomes = set()
    for center in np.linspace(-np.pi, np.pi, 41, endpoint=False):
        localize._window_taper.cache_clear()
        try:
            make_bump(center, width, 32, plateau_tol=2.2e-2, degree=deg)
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
    bumps = [make_bump(c, 1.2, 512, plateau_tol=1e-6, degree=100)
             for c in (-2.0, -0.5, 1.0, 2.5)]
    assert len(builds) == 1
    mag = localize._window_taper(1.2, 512, 100, 1e-6)
    assert not mag.flags.writeable
    with pytest.raises(ValueError):
        mag[0] = 0.0
    # the windows differ only by their centre's phases
    assert not np.array_equal(bumps[0].spectrum.coeffs, bumps[1].spectrum.coeffs)


def test_the_gate_is_part_of_the_shape():
    # a shape admitted under a loose gate is still checked under a tight one
    make_bump(0.3, np.pi / 2, 64, plateau_tol=1e-3)
    with pytest.raises(NumericError):
        make_bump(0.3, np.pi / 2, 64, plateau_tol=1e-6)
    make_bump(-1.1, np.pi / 2, 64, plateau_tol=1e-3)


@pytest.mark.parametrize("kwargs,name", [
    ({"center": float("nan")}, "center"),
    ({"center": float("inf")}, "center"),
    ({"center": "0.3"}, "center"),
    ({"plateau_tol": float("nan")}, "plateau tolerance"),
    ({"plateau_tol": float("inf")}, "plateau tolerance"),
    ({"degree": 2.5}, "degree"),
    ({"J": float("nan")}, "half-width"),
    ({"M": 64.5}, "M="),
])
def test_bump_names_the_bad_argument_before_the_cache(kwargs, name):
    args = {"center": 0.3, "J": 1.0, "M": 64, "plateau_tol": 1e-3, "degree": None}
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
    bump = make_bump(0.7, np.pi / 2, 256, plateau_tol=5e-2, degree=deg)
    loc = localize_jump(spec, bump, SamplePlan("decimated", 1, M_eff).indices)
    est = recover_single_jump(loc, 1, 0.69, "decimated", M=M_eff)
    assert abs(est.xi - 0.7) <= 1e-12
    assert abs(est.magnitudes[0] - 0.8) <= 1e-10


def test_window_product_keeps_mode_budget():
    spec = synth_spectrum(JumpModel(0, ((0.7, (1.0,)),)), None, 256)
    bump = make_bump(0.7, np.pi / 2, 256, plateau_tol=1e-10)
    ks = SamplePlan("decimated", 0, 192).indices
    loc = localize_jump(spec, bump, ks)
    assert loc.M == 256
    # the windowed coefficients are formed at the sampled indices only
    held = np.flatnonzero(loc.coeffs) - 256
    assert set(held) <= set(ks)
