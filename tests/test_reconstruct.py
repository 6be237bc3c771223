"""Multi-jump pipeline: detection, isolation, polish, smooth remainder."""

import dataclasses
import itertools
import json
import math
import pickle
import re
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumprec import localize, reconstruct, rootfind, solver
from jumprec import model as model_module
from jumprec import spectrum as spectrum_module
from jumprec.errors import ModelError, NumericError
from jumprec.localize import make_bump, prony_order0
from jumprec.model import (
    AprioriBounds,
    JumpModel,
    adversarial_pair,
    fitted_decay_constant,
    phi_coeff_array,
    phi_eval,
    shift_jumps,
    smooth_catalog,
    synth_spectrum,
)
from jumprec.precision import recover_single_jump_mp
from jumprec.reconstruct import (
    Approximant,
    ReconstructionConfig,
    eval_approximant,
    full_reconstruct,
    jump_free_error,
    pipeline_geometry,
)
from jumprec.solver import JumpEstimate, SamplePlan, disambiguate_nth_root, recover_single_jump
from jumprec.spectrum import (
    FourierSpectrum,
    eval_partial_sum,
    uniform_grid,
    weight_moments,
    wrap_angle,
)
from jumprec.stability import fit_loglog_slope

from conftest import (
    circ,
    full_peel,
    full_window,
    sampled_moments,
    symmetry_edge_spectrum,
)

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


@pytest.mark.parametrize("field,value", [
    ("d", 2.5), ("d", "2"), ("d", True), ("K", 1.0), ("K", True),
    ("refine_sweeps", 2.5), ("refine_sweeps", None),
])
def test_config_rejects_counts_that_are_not_integers(field, value):
    args = {"d": 1, "K": 1, "bounds": BND, field: value}
    with pytest.raises(ModelError, match=f"^{field} must be an integer"):
        ReconstructionConfig(**args)


@pytest.mark.parametrize("bounds", [
    {"J": np.pi / 2, "A": 4.0, "B": 0.05, "R": 10.0}, (np.pi / 2, 4.0, 0.05, 10.0), None,
])
def test_config_rejects_bounds_that_are_not_apriori_bounds(bounds):
    # a dict raised AttributeError on bounds.J
    with pytest.raises(ModelError, match="bounds must be an AprioriBounds"):
        ReconstructionConfig(d=1, K=1, bounds=bounds)


_SPEC_1 = synth_spectrum(JumpModel(1, ((0.7, (1.0, 0.3)),)), None, 64)
_ENTRY_POINTS = {
    "prony_order0 K=1.5": (lambda: prony_order0(_SPEC_1, 1.5), "K must be an integer"),
    "prony_order0 K='1'": (lambda: prony_order0(_SPEC_1, "1"), "K must be an integer"),
    "prony_order0 K=True": (lambda: prony_order0(_SPEC_1, True), "K must be an integer"),
    "recover_single_jump prior='0.7'": (
        lambda: recover_single_jump(sampled_moments(_SPEC_1, SamplePlan("decimated", 1, 64)), "0.7"),
        "xi_prior must be a real number"),
    "recover_single_jump prior=True": (
        lambda: recover_single_jump(sampled_moments(_SPEC_1, SamplePlan("decimated", 1, 64)), True),
        "xi_prior must be a real number"),
    "disambiguate_nth_root N=2.5": (lambda: disambiguate_nth_root(1j, 2.5, 0.7), "N must be an integer"),
    "disambiguate_nth_root N=True": (lambda: disambiguate_nth_root(1j, True, 0.7), "N must be an integer"),
    "synth_spectrum M='100'": (lambda: synth_spectrum(TWO_JUMPS, None, "100"), "M must be an integer"),
    "adversarial_pair M='100'": (
        lambda: adversarial_pair(JumpModel(1, ((0.7, (1.0, 0.3)),)), "100", BND),
        "M must be an integer"),
    "shift_jumps delta='x'": (lambda: shift_jumps(TWO_JUMPS, "x"), "delta must be a real number"),
    "fitted_decay_constant exponent='a'": (
        lambda: fitted_decay_constant(_SPEC_1, "a"), "exponent must be a real number"),
    "pipeline_geometry d=1.5": (lambda: pipeline_geometry(256, 1.5, 1.5), "d must be an integer"),
    "pipeline_geometry J=-1.0": (lambda: pipeline_geometry(256, 1, -1.0), "J must be > 0"),
    "pipeline_geometry J=nan": (lambda: pipeline_geometry(256, 1, math.nan), "J must be finite"),
    "recover_single_jump_mp digits='60'": (
        lambda: recover_single_jump_mp(_SPEC_1, 1, 0.7, digits="60"), "digits must be an integer"),
    "recover_single_jump_mp digits=60.5": (
        lambda: recover_single_jump_mp(_SPEC_1, 1, 0.7, digits=60.5), "digits must be an integer"),
    "FourierSpectrum.coeff k=True": (lambda: _SPEC_1.coeff(True), "k must be an integer"),
}


@pytest.mark.parametrize("case", _ENTRY_POINTS)
def test_public_entry_points_read_their_numeric_arguments(case):
    # a float, bool, string or NaN where the entry point needs an integer
    # or a real is a model error naming the argument: never a truncated
    # count, a bool read as 1, a leaked TypeError or numpy's LinAlgError
    call, message = _ENTRY_POINTS[case]
    with pytest.raises(ModelError, match=re.escape(message)):
        call()


def test_config_takes_numpy_integer_counts_as_int():
    cfg = ReconstructionConfig(d=np.int64(1), K=np.int32(1), bounds=BND)
    assert type(cfg.d) is int and type(cfg.K) is int
    json.dumps(cfg.to_json_dict())


@pytest.mark.parametrize("priors", [None, (-1.3, 0.7)])
def test_config_record_is_the_dataclass_dict(priors):
    # written field by field; it must stay what dataclasses.asdict gives
    cfg = ReconstructionConfig(d=1, K=2, bounds=BND, priors=priors, refine_sweeps=3)
    got = cfg.to_json_dict()
    assert got == dataclasses.asdict(cfg)
    assert list(got) == list(dataclasses.asdict(cfg))
    assert json.dumps(got) == json.dumps(dataclasses.asdict(cfg))


def test_config_rejects_overcrowded_circle():
    # five arcs of separation pi/2 cannot be disjoint on 2 pi
    with pytest.raises(ModelError):
        ReconstructionConfig(d=1, K=5, bounds=BND)
    ReconstructionConfig(d=1, K=4, bounds=BND)


def test_config_half_order_defaults_and_cap(monkeypatch):
    # the half-order refinement runs at floor(d/2)
    seen = []
    original = reconstruct.half_order_recover

    def half_order(moments):
        seen.append(moments.order)
        return original(moments)

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
        with pytest.raises(ModelError, match=re.escape("priors[0] must be finite")):
            ReconstructionConfig(d=1, K=1, bounds=BND, priors=(bad,))
    with pytest.raises(ModelError, match=re.escape("priors[0] must be a real number")):
        ReconstructionConfig(d=1, K=1, bounds=BND, priors=(None,))
    with pytest.raises(ModelError, match="priors must be a list of reals"):
        ReconstructionConfig(d=1, K=1, bounds=BND, priors=0.7)
    cfg = ReconstructionConfig(d=1, K=2, bounds=BND, priors=(-1.3, 0.7))
    assert cfg.priors == (-1.3, 0.7)


@pytest.mark.parametrize(
    "bad", [True, np.True_, "0.7", b"0.7"], ids=["bool", "numpy-bool", "str", "bytes"]
)
def test_config_rejects_priors_that_are_not_numbers(bad):
    # float() would have taken True as 1.0 and "0.7" as 0.7
    with pytest.raises(ModelError, match=re.escape("priors[0] must be a real number")):
        ReconstructionConfig(d=1, K=1, bounds=BND, priors=(bad,))


def test_config_names_the_prior_that_is_not_a_number():
    with pytest.raises(ModelError, match=re.escape("priors[1] must be a real number")):
        ReconstructionConfig(d=1, K=2, bounds=BND, priors=(0.7, "x"))


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


# largest M at which one jump's order-d window misses its plateau gate
# (J = pi/2, window half-width 0.9 J); d = 0 passes from M = 32 on
_LAST_NARROW_M = {1: 35, 2: 47, 3: 59, 4: 71}


@pytest.mark.parametrize("d", sorted(_LAST_NARROW_M))
def test_too_few_modes_for_the_order_is_a_contract_error(d):
    # the window shape depends only on (J, M, d); these M once raised
    # NumericError out of the window synthesis
    model = JumpModel(d, ((0.7, (1.0,) + (0.3,) * d),))
    cfg = ReconstructionConfig(d=d, K=1, bounds=BND)
    last = _LAST_NARROW_M[d]
    for M in range(32, last + 1):
        with pytest.raises(ModelError, match=f"M={M} is too few modes for order d={d}"):
            full_reconstruct(synth_spectrum(model, None, M), cfg)
    # one mode past the floor the window admits, with leakage up to its gate
    est = full_reconstruct(synth_spectrum(model, None, last + 1), cfg).estimate
    assert abs(est.locations[0] - 0.7) <= 1e-4


def _uncapped_degree(M, d):
    # the window degree before the separation cap: below the lowest
    # decimated index and below M - M_eff
    M_eff = max(int(0.75 * M), d + 2)
    return max(1, min(M - M_eff, M_eff // (d + 2) - 2))


@pytest.mark.parametrize("J", [0.3, 0.6, 1.0, np.pi / 2])
def test_window_degree_is_capped_by_the_separation(J):
    width = min(0.9 * J, np.pi / 2)

    def beta(D):
        # localize's Kaiser shape parameter at degree D
        return math.sqrt(max((width / 3.0 * (D + 1)) ** 2 - np.pi**2, 0.0))

    capped = 0
    for d in range(5):
        for M in (32, 48, 64, 100, 256, 1000, 1024, 4096, 16384, 65536):
            _, got_width, degree = pipeline_geometry(M, d, J)
            assert got_width == width
            assert degree <= _uncapped_degree(M, d)
            if degree < _uncapped_degree(M, d):
                capped += 1
                # the least degree whose taper reaches beta = 38, and its
                # window passes the plateau gate
                assert beta(degree) >= 38.0 > beta(degree - 1)
                make_bump(0.7, width, M, degree)
    assert capped


def test_window_degree_cap_values():
    assert pipeline_geometry(4096, 2, np.pi / 2)[2] == 80
    assert pipeline_geometry(65536, 2, np.pi / 2)[2] == 80
    assert pipeline_geometry(65536, 2, 0.6)[2] == 211
    # the cap binds at 4096 for J = 0.6, not yet at 1024
    assert pipeline_geometry(1024, 2, 0.6)[2] == _uncapped_degree(1024, 2) == 190
    assert _uncapped_degree(4096, 2) == 766


@pytest.mark.parametrize("d", sorted(_LAST_NARROW_M))
def test_separation_cap_leaves_the_narrow_windows_alone(d):
    # every M up to one past the last too-narrow one keeps its degree, so
    # which M are too few modes for order d does not move
    for M in range(32, _LAST_NARROW_M[d] + 2):
        assert pipeline_geometry(M, d, BND.J)[2] == _uncapped_degree(M, d)


def test_band_peel_holds_disjoint_intervals_at_large_M():
    # at M=4096, d=2 the capped window (D=80) reads d+2 disjoint intervals
    # of 2D+1 indices, not the band from N-D to (d+2)N+D
    spec, cfg = _d2_two_jump_case(4096)
    M_eff, width, degree = pipeline_geometry(spec.M, cfg.d, BND.J)
    plan = SamplePlan("decimated", cfg.d, M_eff)
    windows = [make_bump(x, width, spec.M, degree) for x in (-1.3, 0.7)]
    peel = reconstruct._BandPeel(spec, plan, windows)
    assert peel.band.size == (cfg.d + 2) * (2 * degree + 1) == 644
    assert np.count_nonzero(np.diff(peel.band) > 1) == cfg.d + 1


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


@st.composite
def polish_states(draw, d):
    # K current estimates of order d and a spectrum to peel; none of it
    # need be a good reconstruction, only what a sweep can meet
    K = draw(st.integers(1, 3))
    M = draw(st.integers(32, 4096))
    start = draw(st.floats(-np.pi, -np.pi + 2.0))
    part = st.floats(-2.0, 2.0).filter(lambda v: abs(v) > 1e-3)
    estimates = [
        JumpEstimate(
            float(wrap_angle(start + 2.0 * np.pi * i / K)),
            tuple(complex(draw(part), draw(part)) for _ in range(d + 1)),
            0.0,
            math.inf,
        )
        for i in range(K)
    ]
    truth = JumpModel(d, tuple(sorted((e.xi, (1.0,) * (d + 1)) for e in estimates)))
    return synth_spectrum(truth, smooth_catalog("expsin"), M), estimates


@pytest.mark.parametrize("d", range(5))
@settings(max_examples=20)
@given(data=st.data())
def test_band_peel_is_the_full_peel_bit_for_bit(d, data):
    spec, estimates = data.draw(polish_states(d))
    M_eff, width, degree = pipeline_geometry(spec.M, d, BND.J)
    try:
        windows = [make_bump(e.xi, width, spec.M, degree) for e in estimates]
    except NumericError:
        return  # too few modes for this order's window; full_reconstruct refuses it
    plan = SamplePlan("decimated", d, M_eff)
    peel = reconstruct._BandPeel(spec, plan, windows)
    own = [peel.own(e) for e in estimates]
    ks = np.asarray(plan.indices)
    for j, window in enumerate(windows):
        want = full_peel(spec, d, estimates, j, window, plan.indices)
        assert peel.samples(own, j).tobytes() == want.tobytes()
        # and the polish solve's moments are those of the fully peeled data
        full = np.zeros(2 * spec.M + 1, dtype=complex)
        full[ks + spec.M] = want
        moments = sampled_moments(FourierSpectrum(spec.M, full), plan)
        polish = weight_moments(plan, peel.samples(own, j))
        assert polish.values.tobytes() == moments.values.tobytes()


def test_polish_measures_a_move_across_pi_on_the_circle(monkeypatch):
    # a jump at -pi whose estimates alternate between the two ends of
    # [-pi, pi): each sweep moves it by 2 eps, not by 2 pi - 2 eps
    eps = 1e-15
    sides = itertools.cycle((-np.pi + eps, np.pi - eps))
    calls = []

    def alternating(prior):
        calls.append(prior)
        return JumpEstimate(next(sides), (1.0, 0.3), 0.0, math.inf)

    # the first pass and the polish go through the one solve
    monkeypatch.setattr(
        reconstruct, "recover_single_jump", lambda moments, prior: alternating(prior)
    )
    spec = synth_spectrum(JumpModel(1, ((-np.pi, (1.0, 0.3)),)), None, 128)
    full_reconstruct(spec, ReconstructionConfig(d=1, K=1, bounds=BND))
    # the first pass, then one sweep that stops on the tolerance
    assert len(calls) == 2


def test_polish_keeps_a_sweep_only_while_it_contracts(monkeypatch):
    # scripted sweep changes 1e-6, 1e-7, 3e-7, 1e-9, 2e-9, 4e-9: the third
    # sweep grows, so it is discarded, the polish ends there and returns
    # the second sweep.  Stopping after two growing sweeps and keeping the
    # best ran seven solves and returned the fourth.
    steps = iter((0.0, 1e-6, 1e-7, 3e-7, 1e-9, 2e-9, 4e-9, 8e-9, 1.6e-8, 3.2e-8, 6.4e-8))
    calls = [0.7]

    def scripted(moments, prior):
        calls.append(calls[-1] + next(steps))
        return JumpEstimate(calls[-1], (1.0, 0.3), 0.0, math.inf)

    monkeypatch.setattr(reconstruct, "recover_single_jump", scripted)
    spec = synth_spectrum(JumpModel(1, ((0.7, (1.0, 0.3)),)), None, 128)
    ap = full_reconstruct(spec, ReconstructionConfig(d=1, K=1, bounds=BND))
    # the first pass, two kept sweeps and the discarded one
    assert len(calls) - 1 == 4
    assert ap.estimate.locations == (calls[3],)


def test_polish_stops_once_a_kept_sweep_moves_less_than_the_circle_offset(monkeypatch):
    # scripted sweep changes 1e-5, 5e-7, 1e-8 with every root 1e-6 off the
    # circle: the second sweep contracts and moves less than the data's own
    # error scale, so it is kept and ends the polish; the third never runs
    steps = iter((0.0, 1e-5, 5e-7, 1e-8, 1e-10, 1e-12))
    calls = [0.7]

    def scripted(moments, prior):
        calls.append(calls[-1] + next(steps))
        return JumpEstimate(calls[-1], (1.0, 0.3), 0.0, math.inf, circle_offset=1e-6)

    monkeypatch.setattr(reconstruct, "recover_single_jump", scripted)
    spec = synth_spectrum(JumpModel(1, ((0.7, (1.0, 0.3)),)), None, 128)
    ap = full_reconstruct(spec, ReconstructionConfig(d=1, K=1, bounds=BND))
    # the first pass and two kept sweeps
    assert len(calls) - 1 == 3
    assert ap.estimate.locations == (calls[3],)


def test_noisy_polish_stops_at_the_noise_scale(monkeypatch):
    # a many-small shape under k^-3 coefficient noise: the sweeps contract
    # far below the data's error, and polishing on to 9 sweeps moved err_xi
    # from 7.1392e-5 to 7.1416e-5 only
    M = 64
    model = JumpModel(1, ((0.7, (0.8, -0.3)),))
    spec = synth_spectrum(model, smooth_catalog("expsin", amp=0.7), M)
    ks = np.arange(1, M + 1)
    phases = np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, size=M)
    noise = 0.5 * ks**-3.0 * np.exp(1j * phases)
    coeffs = spec.coeffs.copy()
    coeffs[M + 1 :] += noise
    coeffs[:M] += np.conj(noise[::-1])
    spec = FourierSpectrum(M, coeffs, real_valued=True)
    solves = []
    solve = reconstruct.recover_single_jump

    def counted(moments, prior):
        solves.append(prior)
        return solve(moments, prior)

    bounds = AprioriBounds(J=np.pi / 2, A=8.0, B=0.5, R=1.0)
    monkeypatch.setattr(reconstruct, "recover_single_jump", counted)
    ap = full_reconstruct(spec, ReconstructionConfig(d=1, K=1, bounds=bounds))
    # the first pass, then at most 3 sweeps (the contraction rule alone ran 9)
    assert 2 <= len(solves) <= 4
    ((xi, _),) = ap.estimate.jumps
    assert abs(circ(xi, 0.7) - 7.1416e-5) <= 0.02 * 7.1416e-5


@pytest.mark.parametrize("M", [512, 2048])
def test_d4_polish_at_the_rounding_floor_stops_below_the_sweep_cap(M, monkeypatch):
    # CI's d4 model.  A d=4 solve's rounding floor sits above _REFINE_TOL,
    # and its sweep changes went up and down at 8e-14 to 5.6e-13 through
    # all 10 sweeps, so no growth twice in a row ever stopped them
    model = JumpModel(4, ((0.7, (1.0, -0.4, 0.25, 0.1, -0.05)),))
    spec = synth_spectrum(model, smooth_catalog("expsin", amp=1.0), M)
    cfg = ReconstructionConfig(d=4, K=1, bounds=AprioriBounds(np.pi / 2, 4.0, 0.05, 10.0))
    changes = []
    moved = reconstruct._moved

    def recorded(*args):
        changes.append(moved(*args))
        return changes[-1]

    monkeypatch.setattr(reconstruct, "_moved", recorded)
    ap = full_reconstruct(spec, cfg)
    assert len(changes) < cfg.refine_sweeps
    # every sweep but the last was kept and contracted; the last was kept
    # on the tolerance or discarded for not contracting
    assert all(b < a for a, b in zip(changes[:-1], changes[1:-1]))
    assert changes[-1] < reconstruct._REFINE_TOL or changes[-1] >= changes[-2]
    ((xi, mags),) = ap.estimate.jumps
    assert circ(xi, 0.7) <= 1e-13
    truth = model.jumps[0][1]
    assert max(abs(a - t) / M**l for l, (a, t) in enumerate(zip(mags, truth))) <= 1e-10


def test_a_jump_at_minus_pi_polishes_as_well_as_any_other():
    # measured off the circle, the polish took a move across the cut for a
    # change of 2 pi: err_xi was 2.4e-6 and the scaled err_a 4.9e-4
    M = 128
    model = JumpModel(3, ((-np.pi, (1.0, 0.3, 0.3, 0.3)),))
    spec = synth_spectrum(model, smooth_catalog("expsin"), M)
    ap = full_reconstruct(spec, ReconstructionConfig(d=3, K=1, bounds=BND))
    ((xi, mags),) = ap.estimate.jumps
    assert circ(xi, -np.pi) <= 1e-6
    truth = model.jumps[0][1]
    assert max(abs(a - t) / M**l for l, (a, t) in enumerate(zip(mags, truth))) <= 2.5e-4


@pytest.mark.parametrize("M", [4096, 16384])
def test_two_jump_polish_stops_on_the_tolerance_within_two_sweeps(M, monkeypatch):
    # CI's conv2 model: two d=2 jumps on expsin.  With phases exact to an
    # ulp and the magnitudes demodulated by the root, the polish ends on
    # _REFINE_TOL within two sweeps with the magnitudes at the rounding
    # floor; phases of the rounded product k xi left the scaled magnitude
    # errors at 1.3e-12 (M=4096) and 4.0e-12 (M=16384)
    model = JumpModel(2, ((-1.3, (1.0, 0.3, -0.2)), (0.7, (0.8, -0.4, 0.25))))
    spec = synth_spectrum(model, smooth_catalog("expsin", amp=1.0), M)
    cfg = ReconstructionConfig(d=2, K=2, bounds=AprioriBounds(1.5707963, 4.0, 0.05, 10.0))
    changes = []
    moved = reconstruct._moved

    def recorded(*args):
        changes.append(moved(*args))
        return changes[-1]

    monkeypatch.setattr(reconstruct, "_moved", recorded)
    ap = full_reconstruct(spec, cfg)
    sweeps = [max(changes[i : i + 2]) for i in range(0, len(changes), 2)]
    assert 1 <= len(sweeps) <= 2
    assert sweeps[-1] < reconstruct._REFINE_TOL
    for (xi, mags), (xi_t, mags_t) in zip(ap.estimate.jumps, model.jumps):
        assert circ(xi, xi_t) <= 1e-15
        assert max(abs(a - t) / M**l for l, (a, t) in enumerate(zip(mags, mags_t))) <= 1e-14


def test_every_full_order_solve_goes_through_the_one_entry(monkeypatch):
    # every binding of the solve entries, their inner layers and the moment
    # formula in the package is replaced, as the benchmark's span tracer
    # does: a two-jump reconstruct makes K full-order solves on the first
    # pass and K per polish sweep (one _moved per jump and sweep), and its
    # K half-order solves are not counted among them.  Every solve, half
    # order too, builds its annihilator, finds its roots, picks one and
    # solves for the magnitudes; only the decimated ones disambiguate, and
    # detection finds roots once more
    spec, cfg = _d2_two_jump_case(1024)
    originals = {
        "recover_single_jump": solver.recover_single_jump,
        "half_order_recover": solver.half_order_recover,
        "weight_moments": spectrum_module.weight_moments,
        "build_annihilator": solver.build_annihilator,
        "select_root": solver.select_root,
        "solve_magnitudes": solver.solve_magnitudes,
        "disambiguate_nth_root": solver.disambiguate_nth_root,
        "find_roots": rootfind.find_roots,
    }
    counts = dict.fromkeys(originals, 0)
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "jumprec"]

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name, orig in originals.items():
        wrapper = counting(name, orig)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, key, wrapper)
    moves = []
    moved = reconstruct._moved

    def counted_move(*args):
        moves.append(1)
        return moved(*args)

    monkeypatch.setattr(reconstruct, "_moved", counted_move)
    full_reconstruct(spec, cfg)
    K = cfg.K
    assert moves and len(moves) % K == 0
    solves = 2 * K + len(moves)
    assert counts == {
        "recover_single_jump": K + len(moves),
        "half_order_recover": K,
        "weight_moments": solves,
        "build_annihilator": solves,
        "select_root": solves,
        "solve_magnitudes": solves,
        "disambiguate_nth_root": K + len(moves),
        "find_roots": solves + 1,
    }


def test_scaled_stop_ends_a_large_M_polish_in_few_sweeps(monkeypatch):
    # unscaled, |da_2| carries rounding of order eps M^2 and never fell
    # below the tolerance: this case ran 5 sweeps for the same digits.
    # recover_single_jump runs K times on the first pass and K per sweep
    model = JumpModel(2, ((-1.3, (1.0, 0.3, -0.2)), (0.7, (0.8, -0.4, 0.25))))
    spec = synth_spectrum(model, smooth_catalog("expsin", amp=1.0), 4096)
    solve = reconstruct.recover_single_jump
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(reconstruct, "recover_single_jump", counting)
    est = full_reconstruct(spec, ReconstructionConfig(d=2, K=2, bounds=BND)).estimate
    assert len(calls) <= model.K * (1 + 3)
    pairs = list(zip(model.jumps, est.jumps))
    assert max(abs(xe - xt) for (xt, _), (xe, _) in pairs) <= 1e-15
    # the errors of the 5-sweep polish, a_0..a_2
    for l, before in enumerate((7.0e-13, 5.7e-9, 7.0e-7)):
        assert max(abs(ae[l] - at[l]) for (_, at), (_, ae) in pairs) <= 2 * before


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
    assert ap.to_json_dict()["provenance"] == {"config": ap.provenance}


def test_corrected_real_data_are_their_projection_onto_real_functions():
    spec = symmetry_edge_spectrum()
    cfg = ReconstructionConfig(d=1, K=1, bounds=AprioriBounds(1.5, 40.0, 0.5, 1.0))
    ap = full_reconstruct(spec, cfg)
    assert circ(ap.estimate.locations[0], 0.7) <= 1e-12
    psi = ap.corrected_spectrum
    assert psi.real_valued
    # exactly conjugate-symmetric, so certified at its own scale 0.26,
    # where the input's defect 2.5e-14 alone would fail
    assert np.array_equal(psi.coeffs[::-1].conj(), psi.coeffs)
    assert np.max(np.abs(psi.coeffs)) < 1.0
    defect = np.max(np.abs(spec.coeffs[::-1].conj() - spec.coeffs))
    assert 2.4e-14 <= defect <= 2.6e-14
    raw = spec.coeffs - phi_coeff_array(ap.estimate, 256)
    assert np.max(np.abs(psi.coeffs - raw)) <= defect / 2
    with pytest.raises(ModelError, match="conjugate symmetry"):
        FourierSpectrum(256, raw, real_valued=True)
    # the unprojected spectrum, declared real past the constructor's check,
    # evaluates to within 1e-15 of the projection on the grid and in
    # jump_free_error: the real part of its partial sum is the projection's
    unprojected = FourierSpectrum(256, raw)
    object.__setattr__(unprojected, "real_valued", True)
    xs = uniform_grid(2048)
    assert np.max(np.abs(
        eval_partial_sum(psi, xs) - eval_partial_sum(unprojected, xs)
    )) <= 1e-15
    truth_model = JumpModel(1, ((0.7, (20.0, 1.0)),))
    smooth = smooth_catalog("expsin", amp=0.5)

    def truth(x):
        return phi_eval(truth_model, x) + smooth.evaluator(x)

    err = jump_free_error(ap, truth, 0.375, true_jumps=(0.7,))
    unprojected_err = jump_free_error(
        dataclasses.replace(ap, corrected_spectrum=unprojected), truth, 0.375,
        true_jumps=(0.7,),
    )
    assert abs(err - unprojected_err) <= 1e-15
    # a defect the input's scale does not admit still fails
    bad = spec.coeffs.copy()
    bad[256 + 200] += 1e-12
    with pytest.raises(ModelError, match="conjugate symmetry"):
        FourierSpectrum(256, bad, real_valued=True)


def test_projection_keeps_real_data_near_the_double_range():
    # c_0 and c_{+-1}, which no window reads, past half the largest
    # double: psi + conj(psi[::-1]) would overflow there, so the
    # projection halves before it sums
    spec = synth_spectrum(ONE_JUMP_D2, smooth_catalog("expsin"), 256)
    coeffs = spec.coeffs.copy()
    coeffs[256] = 1.5e308
    coeffs[256 + 1] += 1.2e308 - 1.1e308j
    coeffs[256 - 1] += 1.2e308 + 1.1e308j
    big = FourierSpectrum(256, coeffs, real_valued=True)
    ap = full_reconstruct(big, ReconstructionConfig(d=2, K=1, bounds=BND))
    want = full_reconstruct(spec, ReconstructionConfig(d=2, K=1, bounds=BND))
    assert ap.estimate == want.estimate
    psi = ap.corrected_spectrum.coeffs
    assert np.array_equal(psi[::-1].conj(), psi)
    raw = coeffs - phi_coeff_array(ap.estimate, 256)
    assert psi[256] == raw[256] == 1.5e308
    assert np.array_equal(psi, raw)


def _package_caches():
    found = {}
    for mod in (localize, model_module, reconstruct, rootfind, solver, spectrum_module):
        for name, obj in vars(mod).items():
            if callable(obj) and hasattr(obj, "cache_info"):
                found[f"{mod.__name__}.{name}"] = obj
    return found


def test_shape_caches_are_bounded_read_only_and_change_no_byte():
    caches = _package_caches()
    for name in (
        "jumprec.model._positive_factors",
        "jumprec.reconstruct._band",
        "jumprec.solver._plan_table",
        "jumprec.spectrum._moment_weights",
        "jumprec.rootfind._subdiagonal",
    ):
        assert name in caches
    for name, fn in caches.items():
        assert fn.cache_parameters()["maxsize"] is not None, name

    spec = synth_spectrum(TWO_JUMPS, smooth_catalog("expsin", amp=0.5), 512)
    cfg = ReconstructionConfig(d=1, K=2, bounds=BND)
    for fn in caches.values():
        fn.cache_clear()
    cold = full_reconstruct(spec, cfg)
    # a double-precision reconstruction fills every cache but the
    # extended-precision arithmetic's
    assert all(fn.cache_info().currsize for name, fn in caches.items()
               if name != "jumprec.solver._extended")
    warm = full_reconstruct(spec, cfg)
    assert warm.estimate.jumps == cold.estimate.jumps
    assert warm.corrected_spectrum.coeffs.tobytes() == cold.corrected_spectrum.coeffs.tobytes()
    assert json.dumps(warm.to_json_dict()) == json.dumps(cold.to_json_dict())

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple):
            for v in value:
                yield from arrays(v)

    held = [
        model_module._positive_factors(512, 1),
        reconstruct._band(SamplePlan("decimated", 1, 384), 20),
        solver._plan_table(SamplePlan("decimated", 1, 384), None),
        rootfind._subdiagonal(3),
        localize._window_taper(np.pi / 2, 512, 20),
    ]
    with mp.workdps(60):
        held.append(solver._plan_table(SamplePlan("consecutive", 2, 384), 60))
    found = list(arrays(tuple(held)))
    assert len(found) == 15
    for arr in found:
        with pytest.raises(ValueError):
            arr[...] = 0


def test_plans_built_apart_share_one_entry_of_each_plan_cache():
    # the plan-keyed caches hit by value: a plan built again, from numpy
    # integers, by _replace or through a pickle, finds the first one's
    # entry and gets the same cached object back
    first = SamplePlan("decimated", 2, 768)
    again = (
        SamplePlan("decimated", np.int64(2), np.int32(768)),
        SamplePlan("consecutive", 2, 768)._replace(kind="decimated"),
        pickle.loads(pickle.dumps(first)),
    )
    lookups = (
        (solver._plan_table, lambda plan: (plan, None)),
        (spectrum_module._moment_weights, lambda plan: (plan,)),
        (reconstruct._band, lambda plan: (plan, 20)),
    )
    for cache, args in lookups:
        cache.cache_clear()
        want = cache(*args(first))
        for plan in again:
            assert plan is not first
            assert cache(*args(plan)) is want
        info = cache.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, len(again))


# ---------------------------------------------------------------- artifacts


def test_approximant_json_round_trip():
    ap = full_reconstruct(
        synth_spectrum(TWO_JUMPS, None, 128),
        ReconstructionConfig(d=1, K=2, bounds=BND),
    )
    back = Approximant.from_json_dict(ap.to_json_dict())
    assert back.estimate == ap.estimate
    assert back.provenance == ap.provenance
    assert np.array_equal(
        back.corrected_spectrum.coeffs, ap.corrected_spectrum.coeffs
    )


def test_approximant_record_reads_back_at_its_own_scale():
    ap = full_reconstruct(
        symmetry_edge_spectrum(),
        ReconstructionConfig(d=1, K=1, bounds=AprioriBounds(1.5, 40.0, 0.5, 1.0)),
    )
    rec = json.loads(json.dumps(ap.to_json_dict()))
    assert rec["provenance"] == {"config": ap.provenance}
    back = Approximant.from_json_dict(rec)
    assert back.corrected_spectrum.real_valued
    assert np.array_equal(back.corrected_spectrum.coeffs, ap.corrected_spectrum.coeffs)
    assert back.provenance == ap.provenance
    # an older record's provenance "M" and "scale" are ignored, whatever
    # they hold
    for old in ({"M": 256, "scale": 3.38}, {"M": "x", "scale": float("nan")}):
        rec["provenance"].update(old)
        again = Approximant.from_json_dict(rec)
        assert np.array_equal(again.corrected_spectrum.coeffs, ap.corrected_spectrum.coeffs)
        assert again.to_json_dict() == ap.to_json_dict()
    # an older record whose spectrum keeps a defect its own scale does not
    # admit fails, whatever scale it carries
    rec["smooth_spectrum"]["coeffs"][256 + 200][0] += 2.5e-14
    rec["provenance"]["scale"] = 3.38
    with pytest.raises(ModelError, match="conjugate symmetry"):
        Approximant.from_json_dict(rec)


@pytest.mark.parametrize("config", [5, [1, 2], "ab", None])
def test_approximant_record_config_must_be_an_object(config):
    est = JumpModel(0, ((0.7, (1.0,)),))
    rec = Approximant(est, FourierSpectrum(4, np.zeros(9, complex), True)).to_json_dict()
    rec["provenance"]["config"] = config
    with pytest.raises(ModelError, match="config"):
        Approximant.from_json_dict(rec)


def test_eval_approximant_is_partial_sum_plus_jumps():
    est = JumpModel(0, ((0.7, (1.0,)),))
    cs = np.zeros(9, complex)
    cs[4] = 0.25  # constant smooth part
    ap = Approximant(est, FourierSpectrum(4, cs, True))
    xs = np.array([-2.0, 0.0, 2.0])
    want = eval_partial_sum(ap.corrected_spectrum, xs) + phi_eval(est, xs)
    assert np.allclose(eval_approximant(ap, xs), want, atol=1e-14)
    left = eval_approximant(ap, 0.7, side="left")
    right = eval_approximant(ap, 0.7, side="right")
    assert right - left == pytest.approx(1.0, abs=1e-12)


def test_eval_approximant_keeps_the_shape_of_the_points(monkeypatch):
    est = JumpModel(1, ((0.7, (1.0, -0.4)),))
    ap = Approximant(est, FourierSpectrum(4, np.arange(9) * 0.1 + 0j))
    xs = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    want = np.array([eval_approximant(ap, x) for x in xs.ravel()]).reshape(3, 4)
    monkeypatch.setattr(spectrum_module, "_PHASE_BLOCK", 2 * 9)
    got = eval_approximant(ap, xs)
    assert got.shape == (3, 4)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_jump_free_error_on_exact_truth_is_zero():
    est = JumpModel(0, ((0.7, (1.0,)),))
    ap = Approximant(est, FourierSpectrum(4, np.zeros(9, complex), True))

    def truth(xs):
        return phi_eval(est, xs)

    assert jump_free_error(ap, truth, 0.3) <= 1e-12
    off = jump_free_error(ap, lambda xs: truth(xs) + 0.1, 0.3)
    assert off == pytest.approx(0.1, abs=1e-12)


def test_jump_free_error_excludes_true_jumps_too():
    est = JumpModel(0, ((0.7, (1.0,)),))
    ap = Approximant(est, FourierSpectrum(4, np.zeros(9, complex), True))

    def spiked(xs):
        vals = phi_eval(est, xs)
        return vals + np.where(np.abs(xs + 2.0) < 0.05, 7.0, 0.0)

    with_spike = jump_free_error(ap, spiked, 0.3)
    masked = jump_free_error(ap, spiked, 0.3, true_jumps=(-2.0,))
    assert with_spike >= 6.0
    assert masked <= 1e-12


def test_jump_free_error_validation():
    est = JumpModel(0, ((0.7, (1.0,)),))
    ap = Approximant(est, FourierSpectrum(4, np.zeros(9, complex), True))
    with pytest.raises(ModelError):
        jump_free_error(ap, lambda xs: phi_eval(est, xs), 0.0)
    with pytest.raises(ModelError):
        jump_free_error(ap, lambda xs: phi_eval(est, xs), 3.2)  # nothing left


@pytest.mark.parametrize("grid", [2048.5, True, np.float64(64), "64", None])
def test_jump_free_error_reads_grid_as_an_integer(grid):
    est = JumpModel(0, ((0.7, (1.0,)),))
    ap = Approximant(est, FourierSpectrum(4, np.zeros(9, complex), True))
    with pytest.raises(ModelError, match="grid must be an integer"):
        jump_free_error(ap, lambda xs: phi_eval(est, xs), 0.3, grid=grid)


def test_jump_free_error_takes_numpy_integers_for_grid():
    est = JumpModel(0, ((0.7, (1.0,)),))
    ap = Approximant(est, FourierSpectrum(4, np.zeros(9, complex), True))
    truth = lambda xs: phi_eval(est, xs)  # noqa: E731
    assert jump_free_error(ap, truth, 0.3, grid=np.int64(64)) == jump_free_error(
        ap, truth, 0.3, grid=64
    )
    with pytest.raises(ModelError, match="grid"):
        jump_free_error(ap, truth, 0.3, grid=0)


@pytest.mark.parametrize("radius", [True, np.nan, np.inf, -np.inf, -0.1, 0.0, "0.3", None])
def test_jump_free_error_reads_radius_as_a_finite_positive_real(radius):
    est = JumpModel(0, ((0.7, (1.0,)),))
    ap = Approximant(est, FourierSpectrum(4, np.zeros(9, complex), True))
    with pytest.raises(ModelError, match="radius"):
        jump_free_error(ap, lambda xs: phi_eval(est, xs), radius)


@pytest.mark.parametrize("true_jumps, name", [
    (("a",), r"true_jumps\[0\]"),
    ((0.7, None), r"true_jumps\[1\]"),
    ((True,), r"true_jumps\[0\]"),
    ((np.nan,), r"true_jumps\[0\] must be finite"),
    ((0.7, -np.inf), r"true_jumps\[1\] must be finite"),
    (0.7, "true_jumps must be a list"),
    ("0.7", "true_jumps must be a list"),
    (np.array(0.7), "true_jumps must be a list"),
])
def test_jump_free_error_reads_true_jumps_as_finite_reals(true_jumps, name):
    # once a ValueError, a TypeError, or a RuntimeWarning and then "no grid
    # points remain"
    est = JumpModel(0, ((0.7, (1.0,)),))
    ap = Approximant(est, FourierSpectrum(4, np.zeros(9, complex), True))
    with pytest.raises(ModelError, match=name):
        jump_free_error(ap, lambda xs: phi_eval(est, xs), 0.3, true_jumps=true_jumps)


def test_jump_free_error_masks_every_location_in_one_pass():
    # the kept points are those farther than radius from every recovered
    # and every true jump on the circle, here across the -pi/pi seam
    est = JumpModel(0, ((-3.0, (1.0,)), (0.7, (1.0,))))
    ap = Approximant(est, FourierSpectrum(4, np.zeros(9, complex), True))
    seen = []

    def truth(xs):
        seen.append(xs.copy())
        return phi_eval(est, xs)

    assert jump_free_error(ap, truth, 0.3, grid=512, true_jumps=(3.1, 1.5)) <= 1e-12
    xs = uniform_grid(512)
    want = np.ones(512, dtype=bool)
    for xi in (-3.0, 0.7, 3.1, 1.5):
        want &= np.abs(wrap_angle(xs - xi)) > 0.3
    assert len(seen) == 1
    assert np.array_equal(seen[0], xs[want])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eval_approximant_rejects_non_finite_points(bad):
    est = JumpModel(0, ((0.7, (1.0,)),))
    ap = Approximant(est, FourierSpectrum(4, np.zeros(9, complex), True))
    with pytest.raises(ModelError, match=rf"x\[0\]={bad!r}"):
        eval_approximant(ap, np.array([bad, 0.1]))


def test_jump_free_error_sums_the_smooth_part_once_on_the_whole_grid(monkeypatch):
    calls = []

    def recorder(spectrum, x):
        calls.append(np.array(x, copy=True))
        return eval_partial_sum(spectrum, x)

    est = JumpModel(0, ((0.7, (1.0,)),))
    ap = Approximant(est, FourierSpectrum(4, np.zeros(9, complex), True))
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
    ap = Approximant(est, FourierSpectrum(4, cs, True))
    err = jump_free_error(ap, lambda xs: phi_eval(est, xs) + 0.25, 0.3)
    assert math.isfinite(err)
    assert err <= 1e-12
