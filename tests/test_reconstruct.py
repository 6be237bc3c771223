"""Multi-jump pipeline: detection, isolation, polish, smooth remainder."""

import math
import re

import numpy as np
import pytest

from jumprec import localize, reconstruct
from jumprec.errors import ModelError
from jumprec.model import (
    AprioriBounds,
    JumpModel,
    phi_coeff_array,
    phi_eval,
    smooth_catalog,
    synth_spectrum,
)
from jumprec.reconstruct import (
    Approximant,
    ReconstructionConfig,
    eval_approximant,
    full_reconstruct,
    jump_free_error,
)
from jumprec.spectrum import FourierSpectrum, eval_partial_sum, uniform_grid
from jumprec.stability import fit_loglog_slope

from conftest import full_window

BND = AprioriBounds(J=np.pi / 2, A=4.0, B=0.05, R=10.0)
TWO_JUMPS = JumpModel(1, ((-1.3, (1.0, 0.3)), (0.7, (0.8, -0.4))))
ONE_JUMP_D2 = JumpModel(2, ((0.7, (1.0, -0.4, 0.25)),))


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ModelError):
        ReconstructionConfig(d=-1, K=1, bounds=BND)
    with pytest.raises(ModelError):
        ReconstructionConfig(d=1, K=0, bounds=BND)
    with pytest.raises(ModelError):
        ReconstructionConfig(d=1, K=1, bounds=BND, refine_sweeps=-1)


def test_config_rejects_overcrowded_circle():
    # five arcs of separation pi/2 cannot be disjoint on 2 pi
    with pytest.raises(ModelError):
        ReconstructionConfig(d=1, K=5, bounds=BND)
    ReconstructionConfig(d=1, K=4, bounds=BND)


def test_config_half_order_defaults_and_cap(monkeypatch):
    # the half-order refinement runs at floor(d/2)
    seen = []
    original = reconstruct.half_order_recover

    def half_order(spec, d1, M=None):
        seen.append(d1)
        return original(spec, d1, M)

    monkeypatch.setattr(reconstruct, "half_order_recover", half_order)
    for d, d1 in ((0, 0), (1, 0), (2, 1), (3, 1)):
        model = JumpModel(d, ((0.7, (1.0,) + (0.3,) * d),))
        full_reconstruct(
            synth_spectrum(model, None, 256),
            ReconstructionConfig(d=d, K=1, bounds=BND),
        )
        assert seen.pop() == d1


def test_config_prior_plumbing():
    with pytest.raises(ModelError):
        ReconstructionConfig(d=1, K=2, bounds=BND, priors=(0.7,))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ModelError, match="priors must be finite"):
            ReconstructionConfig(d=1, K=1, bounds=BND, priors=(bad,))
    with pytest.raises(ModelError, match="priors must be numbers"):
        ReconstructionConfig(d=1, K=1, bounds=BND, priors=(None,))
    cfg = ReconstructionConfig(d=1, K=2, bounds=BND, priors=(-1.3, 0.7))
    assert cfg.priors == (-1.3, 0.7)


@pytest.mark.parametrize(
    "bad", [True, np.True_, "0.7", b"0.7"], ids=["bool", "numpy-bool", "str", "bytes"]
)
def test_config_rejects_priors_that_are_not_numbers(bad):
    # float() would have taken True as 1.0 and "0.7" as 0.7
    with pytest.raises(ModelError, match="priors must be numbers: got prior"):
        ReconstructionConfig(d=1, K=1, bounds=BND, priors=(bad,))


@pytest.mark.parametrize("bad", [1e308, -1e308, math.pi, -math.pi - 1e-12, 4.0])
def test_config_rejects_priors_off_the_circle(bad):
    with pytest.raises(ModelError, match=re.escape(f"prior {bad!r} outside [-pi, pi)")):
        ReconstructionConfig(d=1, K=1, bounds=BND, priors=(bad,))
    ReconstructionConfig(d=1, K=1, bounds=BND, priors=(-math.pi,))


# ---------------------------------------------------------------- pipeline


def test_two_jump_recovery_on_clean_data():
    ap = full_reconstruct(
        synth_spectrum(TWO_JUMPS, None, 256),
        ReconstructionConfig(d=1, K=2, bounds=BND),
    )
    est = ap.estimate
    assert est.K == 2
    for (xt, at), (xe, ae) in zip(TWO_JUMPS.jumps, est.jumps):
        assert abs(xe - xt) <= 1e-12
        assert max(abs(x - y) for x, y in zip(ae, at)) <= 1e-9


def test_two_jump_recovery_with_smooth_background():
    ap = full_reconstruct(
        synth_spectrum(TWO_JUMPS, smooth_catalog("expsin"), 256),
        ReconstructionConfig(d=1, K=2, bounds=BND),
    )
    for (xt, at), (xe, ae) in zip(TWO_JUMPS.jumps, ap.estimate.jumps):
        assert abs(xe - xt) <= 1e-10
        assert max(abs(x - y) for x, y in zip(ae, at)) <= 1e-6


def test_trusted_priors_skip_detection(monkeypatch):
    def no_detection(spec, K):
        raise AssertionError("detection ran although priors were supplied")

    monkeypatch.setattr(reconstruct, "prony_order0", no_detection)
    ap = full_reconstruct(
        synth_spectrum(JumpModel(1, ((0.7, (1.0, -0.4)),)), None, 256),
        ReconstructionConfig(d=1, K=1, bounds=BND, priors=(0.69,)),
    )
    assert abs(ap.estimate.locations[0] - 0.7) <= 1e-12


def test_underdetected_jump_count_is_a_contract_error():
    spec = synth_spectrum(JumpModel(0, ((0.7, (1.0,)),)), None, 128)
    with pytest.raises(ModelError, match="certified only"):
        full_reconstruct(spec, ReconstructionConfig(d=0, K=2, bounds=BND))


@pytest.mark.parametrize("M", [16, 31])
def test_too_few_modes_for_the_window_is_a_contract_error(M):
    # detection and the solves accept M down to (d+2)K; the window does not
    spec = synth_spectrum(JumpModel(0, ((0.7, (1.0,)),)), None, M)
    with pytest.raises(ModelError, match=f"needs M >= 32, got M={M}"):
        full_reconstruct(spec, ReconstructionConfig(d=0, K=1, bounds=BND))


def _d2_two_jump_case(M):
    # a k^-4 background in the first jump's window, off its plateau, so the
    # windowed value at every sampled index of every pass moves the estimates
    model = JumpModel(2, ((-1.3, (1.0, 0.3, -0.2)), (0.7, (0.8, -0.4, 0.25))))
    smooth = smooth_catalog("poly-blend", order=3, center=-2.0, amp=0.7)
    return (
        synth_spectrum(model, smooth, M),
        ReconstructionConfig(d=2, K=2, bounds=BND),
    )


def test_full_reconstruct_windows_only_the_sampled_indices(monkeypatch):
    # guards against windowing the whole index range: every product asks
    # for the indices the solves read, at most (d+2) + (d//2+2), and no
    # convolution of whole sequences runs
    spec, cfg = _d2_two_jump_case(1024)
    asked = []
    product = localize.product_spectrum

    def recorder(a, b, ks):
        asked.append(len(ks))
        return product(a, b, ks)

    def no_convolve(*args, **kwargs):
        raise AssertionError("np.convolve ran during reconstruction")

    monkeypatch.setattr(localize, "product_spectrum", recorder)
    monkeypatch.setattr(np, "convolve", no_convolve)
    full_reconstruct(spec, cfg)
    assert asked
    assert max(asked) <= (cfg.d + 2) + (cfg.d // 2 + 2)


def test_sampled_windowing_matches_the_full_convolution(monkeypatch):
    # reference: the windowed spectrum on every index, which the solves
    # then sample
    spec, cfg = _d2_two_jump_case(1024)
    sampled = full_reconstruct(spec, cfg).estimate
    monkeypatch.setattr(reconstruct, "localize_jump", full_window)
    full = full_reconstruct(spec, cfg).estimate
    # a_l is read off coefficients scaled by k^(l+1), so a rounding-level
    # change in them moves a_l by about eps M^l: a_2 differs by 2^-34
    # between any two summation orders here
    for (x_s, a_s), (x_f, a_f) in zip(sampled.jumps, full.jumps):
        assert abs(x_s - x_f) <= 1e-12
        for l, (u, v) in enumerate(zip(a_s, a_f)):
            assert abs(u - v) <= 1e-12 * (spec.M / 32) ** l


def test_phantom_double_detection_is_caught_by_separation():
    # order-2 data admits a rank-2 fit of one jump; the near-coincident
    # pair it produces violates the declared separation
    spec = synth_spectrum(ONE_JUMP_D2, None, 128)
    with pytest.raises(ModelError):
        full_reconstruct(spec, ReconstructionConfig(d=2, K=2, bounds=BND))


def test_pure_smooth_data_certifies_zero_jumps():
    spec = synth_spectrum(JumpModel(1, ()), smooth_catalog("expsin"), 256)
    with pytest.raises(ModelError, match="certified only 0"):
        full_reconstruct(spec, ReconstructionConfig(d=1, K=1, bounds=BND))


def test_sub_floor_jump_fails_the_magnitude_contract():
    # the jump exists but sits far under the declared floor B
    spec = synth_spectrum(JumpModel(1, ((0.7, (0.01, 0.0)),)), None, 256)
    with pytest.warns(Warning):
        with pytest.raises(ModelError, match="below half the declared floor"):
            full_reconstruct(spec, ReconstructionConfig(d=1, K=1, bounds=BND))


def test_misspecified_low_order_still_improves_with_matched_order():
    # reconstruction error off the jump shrinks as the assumed order
    # climbs toward the data's true order
    exps = smooth_catalog("expsin")
    spec = synth_spectrum(ONE_JUMP_D2, exps, 256)

    def truth(xs):
        return phi_eval(ONE_JUMP_D2, xs) + exps.evaluator(xs)

    l2s = []
    for du in (0, 1, 2):
        ap = full_reconstruct(spec, ReconstructionConfig(d=du, K=1, bounds=BND))
        xs = -np.pi + 2.0 * np.pi * np.arange(4096) / 4096
        dist = np.abs(np.mod(xs - 0.7 + np.pi, 2.0 * np.pi) - np.pi)
        keep = dist > BND.J / 4
        diff = eval_approximant(ap, xs[keep]) - truth(xs[keep])
        l2s.append(math.sqrt(float(np.mean(np.abs(diff) ** 2)) * 2.0 * np.pi))
    assert l2s[0] > l2s[1] > l2s[2]
    assert l2s[2] <= 1e-9


def test_corrected_spectrum_inherits_smooth_decay():
    # after subtracting the recovered jumps the remainder should decay
    # like the planted k^-4 background, not like the O(1/k) jump tail
    ks = np.arange(-256, 257)
    psi = np.zeros(513, complex)
    nz = ks != 0
    psi[nz] = 1.0 / (1.0 + ks[nz].astype(float) ** 2) ** 2
    data = FourierSpectrum(256, phi_coeff_array(ONE_JUMP_D2, 256) + psi, True)
    ap = full_reconstruct(data, ReconstructionConfig(d=2, K=1, bounds=BND))
    tail = np.arange(8, 257)
    mags = np.array([abs(ap.corrected_spectrum.coeff(int(k))) for k in tail])
    slope, _ = fit_loglog_slope(tail.astype(float), mags, floor=None)
    assert slope <= -2.0
    assert mags[-1] <= 2e-7


def test_reconstruction_is_idempotent():
    spec = synth_spectrum(ONE_JUMP_D2, smooth_catalog("expsin"), 256)
    cfg = ReconstructionConfig(d=2, K=1, bounds=BND)
    ap1 = full_reconstruct(spec, cfg)
    re_spec = FourierSpectrum(
        256,
        ap1.corrected_spectrum.coeffs + phi_coeff_array(ap1.estimate, 256),
        True,
    )
    ap2 = full_reconstruct(re_spec, cfg)
    dxi = abs(ap1.estimate.locations[0] - ap2.estimate.locations[0])
    dmag = max(
        abs(x - y)
        for x, y in zip(ap1.estimate.jumps[0][1], ap2.estimate.jumps[0][1])
    )
    assert dxi <= 1e-9
    assert dmag <= 1e-9


def test_provenance_records_the_run_configuration():
    ap = full_reconstruct(
        synth_spectrum(TWO_JUMPS, None, 256),
        ReconstructionConfig(d=1, K=2, bounds=BND),
    )
    assert ap.provenance["d"] == 1
    assert ap.provenance["K"] == 2
    assert ap.source_M == 256


# ---------------------------------------------------------------- artifacts


def test_approximant_validates_mode_budget():
    est = JumpModel(0, ((0.7, (1.0,)),))
    good = FourierSpectrum(8, np.zeros(17, complex), True)
    bad = FourierSpectrum(4, np.zeros(9, complex), True)
    Approximant(est, good, 8)
    with pytest.raises(ModelError):
        Approximant(est, bad, 8)


def test_approximant_json_round_trip():
    ap = full_reconstruct(
        synth_spectrum(TWO_JUMPS, None, 128),
        ReconstructionConfig(d=1, K=2, bounds=BND),
    )
    back = Approximant.from_json_dict(ap.to_json_dict())
    assert back.estimate == ap.estimate
    assert back.source_M == ap.source_M
    assert np.array_equal(
        back.corrected_spectrum.coeffs, ap.corrected_spectrum.coeffs
    )


def test_eval_approximant_is_partial_sum_plus_jumps():
    est = JumpModel(0, ((0.7, (1.0,)),))
    cs = np.zeros(9, complex)
    cs[4] = 0.25  # constant smooth part
    ap = Approximant(est, FourierSpectrum(4, cs, True), 4)
    xs = np.array([-2.0, 0.0, 2.0])
    want = eval_partial_sum(ap.corrected_spectrum, xs) + phi_eval(est, xs)
    assert np.allclose(eval_approximant(ap, xs), want, atol=1e-14)
    left = eval_approximant(ap, 0.7, side="left")
    right = eval_approximant(ap, 0.7, side="right")
    assert right - left == pytest.approx(1.0, abs=1e-12)


def test_jump_free_error_on_exact_truth_is_zero():
    est = JumpModel(0, ((0.7, (1.0,)),))
    ap = Approximant(est, FourierSpectrum(4, np.zeros(9, complex), True), 4)

    def truth(xs):
        return phi_eval(est, xs)

    assert jump_free_error(ap, truth, 0.3) <= 1e-12
    off = jump_free_error(ap, lambda xs: truth(xs) + 0.1, 0.3)
    assert off == pytest.approx(0.1, abs=1e-12)


def test_jump_free_error_excludes_true_jumps_too():
    est = JumpModel(0, ((0.7, (1.0,)),))
    ap = Approximant(est, FourierSpectrum(4, np.zeros(9, complex), True), 4)

    def spiked(xs):
        vals = phi_eval(est, xs)
        return vals + np.where(np.abs(xs + 2.0) < 0.05, 7.0, 0.0)

    with_spike = jump_free_error(ap, spiked, 0.3)
    masked = jump_free_error(ap, spiked, 0.3, true_jumps=(-2.0,))
    assert with_spike >= 6.0
    assert masked <= 1e-12


def test_jump_free_error_validation():
    est = JumpModel(0, ((0.7, (1.0,)),))
    ap = Approximant(est, FourierSpectrum(4, np.zeros(9, complex), True), 4)
    with pytest.raises(ModelError):
        jump_free_error(ap, lambda xs: phi_eval(est, xs), 0.0)
    with pytest.raises(ModelError):
        jump_free_error(ap, lambda xs: phi_eval(est, xs), 3.2)  # nothing left


def test_jump_free_error_sums_the_smooth_part_once_on_the_whole_grid(monkeypatch):
    calls = []

    def recorder(spectrum, x):
        calls.append(np.array(x, copy=True))
        return eval_partial_sum(spectrum, x)

    est = JumpModel(0, ((0.7, (1.0,)),))
    ap = Approximant(est, FourierSpectrum(4, np.zeros(9, complex), True), 4)
    monkeypatch.setattr(reconstruct, "eval_partial_sum", recorder)
    jump_free_error(ap, lambda xs: phi_eval(est, xs), 0.3, grid=512)
    assert len(calls) == 1
    assert np.array_equal(calls[0], uniform_grid(512))


def test_jump_free_error_at_a_jump_on_a_grid_point_is_finite():
    # an even grid holds x = 0.0 exactly; phi_eval there needs a side flag,
    # so only the kept points may reach it
    assert 0.0 in uniform_grid(2048)
    est = JumpModel(0, ((0.0, (1.0,)),))
    cs = np.zeros(9, complex)
    cs[4] = 0.25
    ap = Approximant(est, FourierSpectrum(4, cs, True), 4)
    err = jump_free_error(ap, lambda xs: phi_eval(est, xs) + 0.25, 0.3)
    assert math.isfinite(err)
    assert err <= 1e-12
