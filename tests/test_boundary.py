"""Only the library's own error families leave its entry points, and
the package exports only names its modules export."""

import ast
import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jumprec
from jumprec.errors import JumprecError, ModelError, NumericError
from jumprec.model import AprioriBounds, bernoulli_coefficients, bernoulli_poly, vn_eval
from jumprec.reconstruct import ReconstructionConfig, full_reconstruct
from jumprec.rootfind import find_roots
from jumprec.solver import half_order_recover, recover_single_jump, s_poly
from jumprec.spectrum import FourierSpectrum, SamplePlan
from jumprec.stability import (
    PronyConfig,
    c9_bound,
    decimated_cap,
    method_gap_factor,
    misspec_exponent,
    node_perturbation_bound,
)

from conftest import sampled_moments

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


# extreme scales overflow intermediate sums; only what is raised matters here
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
        moments = sampled_moments(spec, SamplePlan(plan_kind, d, spec.M))
        if plan_kind == "consecutive":
            half_order_recover(moments)
        else:
            recover_single_jump(moments, prior)

    prior = None if priors is None else priors[0]
    _returns_or_raises_library_error(reconstruct)
    _returns_or_raises_library_error(solve)
    _returns_or_raises_library_error(lambda: find_roots(spec.coeffs[: d + 2]))


def test_overflowing_moduli_are_numeric_errors():
    # 1e305 |k|^-4 e^{-0.7ik}: finite moments whose annihilator coefficients
    # have finite parts and a modulus past the double range, where abs() of
    # a Python complex raises OverflowError
    M = 256
    ks = np.arange(-M, M + 1)
    coeffs = 1e305 * np.maximum(np.abs(ks), 1.0) ** -4.0 * np.exp(-0.7j * ks)
    spec = FourierSpectrum(M, coeffs)
    config = ReconstructionConfig(d=4, K=1, bounds=BND, priors=(0.7,))
    with pytest.raises(NumericError, match="non-finite coefficients"):
        full_reconstruct(spec, config)
    with pytest.raises(NumericError, match="non-finite coefficients"):
        recover_single_jump(sampled_moments(spec, SamplePlan("decimated", 4, M)), 0.7)


NAN = float("nan")


def _prony(**fields):
    return PronyConfig(**{"K": 1, "multiplicities": (1,), "sigma": 1,
                          "node_gap": 0.5, "eps": 1e-3, **fields})


# the paper's objects read orders and counts as integers and reals as
# finite reals, as the record readers do: each bad value is a ModelError
# naming its argument, not a TypeError, a nan or a silent truncation
@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda: vn_eval(1.0, 0.3, 0.0), "n", id="vn_eval-float-order"),
        pytest.param(lambda: vn_eval(True, 0.3, 0.0), "n", id="vn_eval-bool-order"),
        pytest.param(lambda: bernoulli_poly(2.0, 0.3), "n", id="bernoulli_poly-float-order"),
        pytest.param(lambda: bernoulli_coefficients(2.0), "n", id="bernoulli_coefficients-float"),
        pytest.param(lambda: s_poly(0, 1.0), "d", id="s_poly-float-d"),
        pytest.param(lambda: s_poly(0.5, 1), "i", id="s_poly-float-i"),
        pytest.param(lambda: c9_bound(1.5), "d", id="c9_bound-float-d"),
        pytest.param(lambda: method_gap_factor(True), "d", id="method_gap_factor-bool-d"),
        pytest.param(lambda: misspec_exponent(2.5, 1), "d_used", id="misspec_exponent-float"),
        pytest.param(lambda: decimated_cap(2.5, 0.5, 0.5, 10), "d", id="decimated_cap-float-d"),
        pytest.param(lambda: decimated_cap(2, NAN, 0.5, 10), "R_star", id="decimated_cap-nan-R"),
        pytest.param(lambda: decimated_cap(2, 0.5, NAN, 10), "B_star", id="decimated_cap-nan-B"),
        pytest.param(lambda: node_perturbation_bound(_prony(), 0, NAN), "a_lead",
                     id="node_perturbation_bound-nan-a_lead"),
        pytest.param(lambda: _prony(eps=NAN), "eps", id="PronyConfig-nan-eps"),
        pytest.param(lambda: _prony(node_gap=NAN), "node_gap", id="PronyConfig-nan-node_gap"),
        pytest.param(lambda: _prony(multiplicities=(1.7,)), "multiplicities",
                     id="PronyConfig-float-multiplicity"),
        pytest.param(lambda: _prony(K="1"), "K", id="PronyConfig-str-K"),
    ],
)
def test_paper_objects_read_their_arguments_as_the_record_readers_do(call, name):
    with pytest.raises(ModelError, match=rf"\b{name}="):
        call()


def test_every_export_resolves_and_the_package_imports_only_exports():
    modules = {
        info.name: importlib.import_module(f"jumprec.{info.name}")
        for info in pkgutil.iter_modules(jumprec.__path__)
    }
    for name, mod in modules.items():
        for export in getattr(mod, "__all__", ()):
            assert hasattr(mod, export), f"jumprec.{name}.__all__ lists {export!r}"
    for node in ast.walk(ast.parse(inspect.getsource(jumprec))):
        if isinstance(node, ast.ImportFrom):
            exported = modules[node.module].__all__
            for alias in node.names:
                assert alias.name in exported, f"jumprec imports {node.module}.{alias.name}"
