"""Only the library's own error families leave its entry points."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumprec.errors import JumprecError
from jumprec.model import AprioriBounds
from jumprec.reconstruct import ReconstructionConfig, full_reconstruct
from jumprec.rootfind import find_roots
from jumprec.solver import half_order_recover, recover_single_jump
from jumprec.spectrum import FourierSpectrum

BND = AprioriBounds(J=np.pi / 2, A=4.0, B=0.05, R=10.0)


@st.composite
def spectra(draw):
    """Finite spectra: zero, one-hot or power-law, at scales 1e-310..1e300.

    Power-law phases are random or those of a jump at a random location,
    so some draws look like the model and run the whole pipeline.
    """
    M = draw(st.integers(1, 256))
    kind = draw(st.sampled_from(["zero", "one-hot", "power-law", "power-law-jump"]))
    # the end points are drawn on purpose: subnormal and near-overflow data
    scale = 10.0 ** draw(st.sampled_from([-310.0, 300.0]) | st.floats(-310, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ks = np.arange(-M, M + 1)
    coeffs = np.zeros(2 * M + 1, dtype=np.complex128)
    if kind == "one-hot":
        coeffs[rng.integers(2 * M + 1)] = scale * np.exp(2j * np.pi * rng.random())
    elif kind.startswith("power-law"):
        decay = draw(st.floats(0.0, 6.0))
        if kind == "power-law":
            phases = np.exp(2j * np.pi * rng.random(2 * M + 1))
        else:
            phases = np.exp(-1j * ks * np.pi * (2.0 * rng.random() - 1.0))
        coeffs = scale * np.maximum(np.abs(ks), 1.0) ** -decay * phases
    return FourierSpectrum(M, coeffs, real_valued=False)


def _returns_or_raises_library_error(call):
    try:
        call()
    except JumprecError:
        pass


# extreme scales overflow intermediate sums and weak jumps warn; only
# what is raised matters here
@pytest.mark.filterwarnings("ignore")
@settings(max_examples=100, deadline=None)
@given(
    spectra(),
    st.integers(0, 4),
    st.sampled_from(["decimated", "consecutive"]),
    st.data(),
)
def test_only_library_errors_escape(spec, d, plan_kind, data):
    K = data.draw(st.integers(1, 3))
    priors = data.draw(
        st.none() | st.lists(st.floats(-np.pi, np.pi), min_size=K, max_size=K)
    )
    # counts that are not integers once raised TypeError or LinAlgError
    config_d = data.draw(st.just(d) | st.sampled_from([2.5, "2", True]))
    config_K = data.draw(st.just(K) | st.sampled_from([1.0, True]))
    sweeps = data.draw(st.just(10) | st.sampled_from([2.5, None]))

    def reconstruct():
        cfg = ReconstructionConfig(
            d=config_d, K=config_K, bounds=BND,
            priors=None if priors is None else tuple(priors),
            refine_sweeps=sweeps,
        )
        full_reconstruct(spec, cfg)

    def solve():
        if plan_kind == "consecutive":
            half_order_recover(spec, d)
        else:
            recover_single_jump(spec, d, prior, weak_floor=BND.B)

    prior = None if priors is None else priors[0]
    _returns_or_raises_library_error(reconstruct)
    _returns_or_raises_library_error(solve)
    _returns_or_raises_library_error(lambda: find_roots(spec.coeffs[: d + 2]))
