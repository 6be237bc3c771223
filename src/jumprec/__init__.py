"""Reconstruction of piecewise-smooth functions from truncated Fourier data.

Recovers jump locations and per-order magnitudes at the accuracy the
measurement count allows, using decimated moment sampling, and assembles
a corrected approximant whose smooth remainder converges at full rate.
"""

from .errors import (
    AmbiguityError,
    DetectionError,
    JumprecError,
    ModelError,
    NumericError,
    RootFindError,
)
from .localize import localize_jump, make_bump, prony_order0
from .precision import parse_precision, recover_single_jump_mp
from .model import (
    AprioriBounds,
    JumpModel,
    SmoothPart,
    adversarial_pair,
    bernoulli_poly,
    phi_eval,
    phi_fourier_coeff,
    smooth_catalog,
    synth_spectrum,
    vn_eval,
)
from .reconstruct import (
    Approximant,
    ReconstructionConfig,
    eval_approximant,
    full_reconstruct,
    jump_free_error,
)
from .solver import (
    AnnihilatorPoly,
    JumpEstimate,
    build_annihilator,
    disambiguate_nth_root,
    half_order_recover,
    recover_single_jump,
    s_poly,
    select_root,
    solve_magnitudes,
)
from .spectrum import (
    FourierSpectrum,
    MomentSequence,
    SamplePlan,
    eval_partial_sum,
    load_spectrum,
    plan_values,
    product_spectrum,
    save_spectrum,
    weight_moments,
)
from .stability import (
    PronyConfig,
    c9_bound,
    decimated_cap,
    fit_loglog_slope,
    method_gap_factor,
    misspec_exponent,
    node_perturbation_bound,
)

__version__ = "0.1.0"
