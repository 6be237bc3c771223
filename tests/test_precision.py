"""Extended-precision solve path and precision flag parsing."""

import numpy as np
import pytest

from jumprec.errors import ModelError
from jumprec.model import JumpModel, phi_coeff_array
from jumprec.precision import parse_precision, recover_single_jump_mp
from jumprec.solver import recover_single_jump
from jumprec.spectrum import FourierSpectrum, SamplePlan

from conftest import sampled_moments


def jump_spectrum(model, M):
    return FourierSpectrum(M, phi_coeff_array(model, M), real_valued=model.is_real)


def test_precision_flag_parsing():
    assert parse_precision("double") == ("double", None)
    assert parse_precision("extended:60") == ("extended", 60)
    with pytest.raises(ModelError):
        parse_precision("extended:10")
    with pytest.raises(ModelError):
        parse_precision("extended:many")
    with pytest.raises(ModelError):
        parse_precision("quad")


def test_extended_path_agrees_with_double_on_easy_data():
    m = JumpModel(2, ((0.7, (1.0, -0.5, 0.3)),))
    # stride 30, then stride 512, where the prior must sit within pi/(2N)
    # and double loses digits on a_2; the large-stride case weighs order l
    # by M^l, its size at the band edge, as the benchmark does
    cases = ((120, 0.65, lambda l: 1e-7), (2048, 0.7004, lambda l: 1e-11 * 2048.0**l))
    for M, prior, tol in cases:
        sp = jump_spectrum(m, M)
        moments = sampled_moments(sp, SamplePlan("decimated", 2, M))
        est_d = recover_single_jump(moments, prior)
        est_mp = recover_single_jump_mp(sp, 2, prior, digits=60)
        assert abs(est_mp.xi - 0.7) <= 1e-12
        assert abs(est_mp.xi - est_d.xi) <= 1e-13
        for l, (a_mp, a_d) in enumerate(zip(est_mp.magnitudes, est_d.magnitudes)):
            assert abs(a_mp - a_d) <= tol(l)
        assert isinstance(est_mp.xi, float)
        # the root's distance from the circle, in 60 digits, returned as a float
        assert isinstance(est_mp.circle_offset, float)
        assert est_mp.circle_offset <= 1e-15
        assert all(isinstance(a, complex) for a in est_mp.magnitudes)


def test_extended_path_validation():
    m = JumpModel(0, ((0.7, (1.0,)),))
    sp = jump_spectrum(m, 32)
    with pytest.raises(ModelError):
        recover_single_jump_mp(sp, 0, 0.7, digits=30)
    with pytest.raises(ModelError, match="usable M=64 exceeds spectrum M=32"):
        recover_single_jump_mp(sp, 0, 0.7, M=64)


def test_non_finite_coefficients_are_a_model_error_in_both_precisions():
    # NaN on the sampled indices {21, 42, 63} of the M=64, d=1 decimated plan
    m = JumpModel(1, ((0.7, (1.0, 0.4)),))
    coeffs = phi_coeff_array(m, 64)
    coeffs[64 + 21 :: 21] = np.nan
    plan = SamplePlan("decimated", 1, 64)
    with pytest.raises(ModelError):
        recover_single_jump(sampled_moments(FourierSpectrum(64, coeffs), plan), 0.7)
    with pytest.raises(ModelError):
        recover_single_jump_mp(FourierSpectrum(64, coeffs), 1, 0.7)
    # finite but huge coefficients overflow the double moments to inf
    huge = FourierSpectrum(64, np.full(129, 1e306 + 0j))
    with pytest.raises(ModelError):
        recover_single_jump(sampled_moments(huge, plan), 0.7)
