import json
import math

import numpy as np
from hypothesis import settings

from jumprec.localize import localize_jump
from jumprec.model import JumpModel, phi_coeff_array
from jumprec.solver import _vandermonde_inverse_float
from jumprec.spectrum import FourierSpectrum

# property runs share the CI budget with the slope sweeps; no per-example
# deadline, the suite-level timeout is the real guard
settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


# doubles at the edges of the range: signed zeros, subnormals, +-max
EDGE_FLOATS = (0.0, -0.0, 5e-324, -2.5e-310, 1.7976931348623157e308,
               -1.7976931348623157e308)
# every pair of edge doubles as (re, im), and one more for 2M+1 = 37
EDGE_COEFFS = np.array(
    [complex(re, im) for re in EDGE_FLOATS for im in EDGE_FLOATS] + [1.5 - 2j]
)


def dump_text(record, **fmt) -> str:
    """The text json.dump(record, fh, **fmt) and a newline wrote to fh.

    json.dump always runs the pure-Python encoder, so this is the file
    format every record writer must keep byte for byte.
    """
    return "".join(json.JSONEncoder(**fmt).iterencode(record)) + "\n"


def no_python_encoder(*args, **kwargs):
    """Stand-in for json.encoder._make_iterencode: writers take the C encoder."""
    raise AssertionError("a record went through the pure-Python JSON encoder")


def bits(values) -> np.ndarray:
    """The raw bit patterns of a complex128 array, so -0.0 != 0.0."""
    return np.asarray(values, dtype=np.complex128).view(np.uint64)


def circ(a: float, b: float) -> float:
    """Distance between two angles on the circle."""
    d = abs(a - b) % (2.0 * np.pi)
    return min(d, 2.0 * np.pi - d)


def full_window(spec, window, ks):
    """The windowed spectrum on every index -M..M, whatever ks asks for.

    One convolution of the whole sequences: the reference that windowing
    at the sampled indices must agree with.
    """
    D = window.M
    prod = np.convolve(spec.coeffs, window.coeffs)[D : D + 2 * spec.M + 1]
    return FourierSpectrum(spec.M, prod)


def full_peel(spec, d, estimates, j, window, ks):
    """Jump j's polish data at ks, peeled on every index -M..M.

    Every estimate's whole singular part comes off the data, the rest is
    windowed at ks and jump j's whole part goes back on: the reference
    that peeling on the band the windowing reads must equal bit for bit.
    """
    M = spec.M
    own = [
        phi_coeff_array(JumpModel(d, ((e.xi, e.magnitudes),)), M) for e in estimates
    ]
    peeled = spec.coeffs - np.sum(own, axis=0)
    windowed = localize_jump(FourierSpectrum(M, peeled), window, ks)
    return (windowed.coeffs + own[j])[np.asarray(ks) + M]


def product_reference(a, b, ks) -> np.ndarray:
    """product_spectrum's values from a zero-padded copy of the slice of a
    the outputs read, gathered at ks - m for the nonzero b_m; no checks.

    The reference spectrum.product_spectrum must equal bit for bit.
    """
    ks = np.asarray(ks, dtype=np.int64)
    nz = np.flatnonzero(b.coeffs)
    if not (ks.size and nz.size):
        return np.zeros(ks.size, dtype=np.complex128)
    m = nz - b.M
    lo = int(ks.min() - m[-1])
    hi = int(ks.max() - m[0])
    need = np.zeros(hi - lo + 1, dtype=np.complex128)
    start, stop = max(lo, -a.M), min(hi, a.M)
    if start <= stop:
        need[start - lo : stop - lo + 1] = a.coeffs[start + a.M : stop + a.M + 1]
    return need[ks[:, None] - m - lo] @ b.coeffs[nz]


def roots_reference(coeffs) -> np.ndarray:
    """numpy.roots of the normalized polynomial, in lexsort order; no gate.

    The reference rootfind.find_roots must equal bit for bit wherever its
    residual gate passes.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        c = c / c[0]
    z = np.roots(c)
    return z[np.lexsort((z.imag.round(10), z.real.round(10)))]


def moments_reference(spectrum, plan) -> np.ndarray:
    """m_k = 2 pi (ik)^{d+1} c_k at the plan's indices, one spectrum.coeff(k) at a time."""
    return np.array(
        [2.0 * np.pi * (1j * k) ** (plan.d + 1) * spectrum.coeff(k) for k in plan.indices],
        dtype=np.complex128,
    )


def magnitudes_reference(moments, omega):
    """(alpha, a) of the magnitude solve in array form, on numpy scalars; no gate.

    The reference solver.solve_magnitudes must equal bit for bit.
    """
    plan = moments.plan
    d = plan.d
    use = plan.indices[: d + 1]
    rhs = np.array([moments.values[j] * omega ** (-use[j]) for j in range(d + 1)])
    if plan.kind == "decimated":
        vinv = _vandermonde_inverse_float(tuple(range(1, d + 2)))
        alpha = (vinv @ rhs) / np.power(float(plan.stride), np.arange(d + 1))
    else:
        base = float(use[0])
        beta = _vandermonde_inverse_float(tuple(range(0, d + 1))) @ rhs
        alpha = np.zeros_like(beta)
        for l in range(d, -1, -1):
            acc = beta[l]
            for m in range(l + 1, d + 1):
                acc -= math.comb(m, l) * base ** (m - l) * alpha[m]
            alpha[l] = acc
    a = tuple(complex(alpha[d - m]) * (-1j) ** (d - m) for m in range(d + 1))
    return alpha, a
