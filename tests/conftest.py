import json
import math

import mpmath as mp
import numpy as np
from hypothesis import settings

from jumprec.errors import ModelError
from jumprec.localize import localize_jump
from jumprec.model import (
    JumpModel,
    bernoulli_coefficients,
    bernoulli_poly,
    phi_coeff_array,
    smooth_catalog,
    synth_spectrum,
)
from jumprec.solver import _vandermonde_inverse_float
from jumprec.spectrum import FourierSpectrum, plan_values, weight_moments

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


def symmetry_edge_spectrum() -> FourierSpectrum:
    # real data, one d=1 jump at 0.7, whose conjugate-symmetry defect
    # 2.5e-14 passes at the input's scale 3.38 but not at the scale 0.258
    # of the spectrum left once the jump is subtracted
    model = JumpModel(1, ((0.7, (20.0, 1.0)),))
    spec = synth_spectrum(model, smooth_catalog("expsin", amp=0.5), 256)
    coeffs = spec.coeffs.copy()
    coeffs[256 + 200] += 2.5e-14
    return FourierSpectrum(256, coeffs, real_valued=True)


def coeffs_of_function(func, M: int, oversample: int = 8) -> np.ndarray:
    """Coefficients c_{-M}..c_M of a smooth 2pi-periodic function via FFT.

    Periodic trapezoid quadrature on P = oversample * max(M, 1) points
    (at least 2M+2): spectrally accurate for smooth integrands, each
    coefficient carrying an absolute rounding error near eps times the
    function's size.  The oracle the catalog's closed forms are checked
    against.
    """
    P = max(oversample * max(M, 1), 2 * M + 2)
    xs = 2.0 * np.pi * np.arange(P) / P
    samples = np.asarray(func(xs), dtype=np.complex128)
    hat = np.fft.fft(samples) / P
    return hat[np.arange(-M, M + 1) % P]


def circ(a: float, b: float) -> float:
    """Distance between two angles on the circle."""
    d = abs(a - b) % (2.0 * np.pi)
    return min(d, 2.0 * np.pi - d)


def full_window(spec, window, ks):
    """The windowed values at ks, read off the windowed spectrum on every
    index -M..M.

    One convolution of the whole sequences: the reference that windowing
    at the sampled indices must agree with.
    """
    D = window.M
    prod = np.convolve(spec.coeffs, window.coeffs)[D : D + 2 * spec.M + 1]
    return prod[np.asarray(ks) + spec.M]


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
    return windowed + own[j][np.asarray(ks) + M]


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


def sampled_moments(spectrum, plan):
    """The moments of a spectrum on a plan: the one gather, then the one formula."""
    return weight_moments(plan, plan_values(spectrum, plan))


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


def grid_sum_reference(spectrum, G) -> np.ndarray:
    """The partial sum on uniform_grid(G) by a bincount fold; no checks.

    Sign (-1)^k, two weighted bincounts by k mod G (real and imaginary
    parts), one inverse FFT.  spectrum._grid_sum must equal it bit for bit
    for every G >= 2.
    """
    ks = np.arange(-spectrum.M, spectrum.M + 1)
    signed = np.where(ks % 2 == 0, spectrum.coeffs, -spectrum.coeffs)
    bins = ks % G
    folded = np.bincount(bins, signed.real, G) + 1j * np.bincount(bins, signed.imag, G)
    return G * np.fft.ifft(folded)


def phase_reference(xs, xi, side) -> np.ndarray:
    """phi_eval's phase t = ((x - xi)/2pi) mod 1 at each point, with t = 0
    (side "right") or 1 (side "left") at the jump; ModelError at the jump
    without a side."""
    t = np.mod((np.asarray(xs, dtype=float) - xi) / (2.0 * np.pi), 1.0)
    at_jump = np.minimum(t, 1.0 - t) * 2.0 * np.pi < 1e-12
    if np.any(at_jump):
        if side is None:
            raise ModelError(f"evaluation at jump location {xi}: pass a side")
        t[at_jump] = 0.0 if side == "right" else 1.0
    return t


def phi_eval_per_order(model, x, side=None):
    """The piecewise polynomial summed one order at a time; no point checks.

    Each jump adds a_l V_l(t) for l = 0..d into a complex array, every
    V_l(t) = scale_l B_{l+1}(t) its own Horner pass; a real model keeps the
    real part.  The per-order form that phi_eval's one fused pass per jump
    replaced.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros(xs.shape, dtype=np.complex128)
    for xi, mags in model.jumps:
        t = phase_reference(xs, xi, side)
        for ell, a in enumerate(mags):
            if a != 0:
                scale = -((2.0 * np.pi) ** ell) / math.factorial(ell + 1)
                out += a * (scale * bernoulli_poly(ell + 1, t))
    if model.is_real:
        out = out.real
    return out[0] if np.ndim(x) == 0 else out


def phi_eval_mp(model, x, side=None, dps=40):
    """(values, scale) of the piecewise polynomial at the 1-D points x, in
    mpmath at dps digits.

    Each jump's phase is phase_reference's double t, taken exactly, and
    sum_l a_l scale_l B_{l+1}(t), scale_l = -(2pi)^l/(l+1)!, is summed from
    the exact rational coefficients of B_{l+1}.  scale is the Horner
    condition of that sum, sum_l |a_l scale_l| sum_k |b_{l+1,k}| t^k with
    b the coefficients of B_{l+1}: a Horner pass in doubles errs by a
    small multiple of eps times it.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    vals = np.zeros(xs.shape, dtype=np.complex128)
    scale = np.zeros(xs.shape)
    with mp.workdps(dps):
        jumps = []
        for xi, mags in model.jumps:
            # the d+1 orders as one polynomial in t, ascending powers, and
            # the polynomial of absolute terms that gives its scale
            coeffs = [mp.mpc(0)] * (len(mags) + 1)
            sizes = [mp.mpf(0)] * (len(mags) + 1)
            for ell, a in enumerate(mags):
                w = mp.mpc(a) * -((2 * mp.pi) ** ell) / mp.factorial(ell + 1)
                for k, c in enumerate(bernoulli_coefficients(ell + 1)):
                    b = mp.mpf(c.numerator) / c.denominator
                    coeffs[k] += w * b
                    sizes[k] += abs(w) * abs(b)
            t = phase_reference(xs, xi, side).tolist()
            jumps.append((t, coeffs[::-1], sizes[::-1]))
        for i in range(xs.size):
            v, size = mp.mpc(0), mp.mpf(0)
            for t, coeffs, sizes in jumps:
                v += mp.polyval(coeffs, mp.mpf(t[i]))
                size += mp.polyval(sizes, mp.mpf(t[i]))
            vals[i] = complex(v)
            scale[i] = float(size)
    if model.is_real:
        vals = vals.real
    return vals, scale
