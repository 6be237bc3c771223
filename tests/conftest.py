import json

import numpy as np
from hypothesis import settings

from jumprec.localize import localize_jump
from jumprec.model import JumpModel, phi_coeff_array
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
