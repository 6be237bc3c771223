import numpy as np
from hypothesis import settings

from jumprec.localize import localize_jump
from jumprec.model import JumpModel, phi_coeff_array
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
