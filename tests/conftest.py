import numpy as np
from hypothesis import settings

from jumprec.spectrum import FourierSpectrum

# property runs share the CI budget with the slope sweeps; no per-example
# deadline, the suite-level timeout is the real guard
settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


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
