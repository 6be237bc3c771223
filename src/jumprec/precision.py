"""Extended-precision entry point of the single-jump solve.

Double precision saturates the decimated solve's cancellation structure
around order 3-5 at large stride.  recover_single_jump_mp forms the
weighted moments in mpmath at a caller-chosen digit count and runs the
solver's own steps on them, so every intermediate keeps that precision;
the recovered parameters are rounded back to doubles at the very end.
"""

from __future__ import annotations

from typing import Optional, Tuple

import mpmath as mp
import numpy as np

from .errors import ModelError
from .solver import JumpEstimate, _recover_from_moments, _usable_plan
from .spectrum import FourierSpectrum, MomentSequence

__all__ = ["parse_precision", "recover_single_jump_mp"]

_MIN_DIGITS = 50


def parse_precision(text: str) -> Tuple[str, Optional[int]]:
    """Parse a precision flag: "double" or "extended:<digits>" (>= 50)."""
    if text == "double":
        return ("double", None)
    if text.startswith("extended:"):
        tail = text.split(":", 1)[1]
        try:
            digits = int(tail)
        except ValueError as exc:
            raise ModelError(f"bad precision spec {text!r}") from exc
        if digits < _MIN_DIGITS:
            raise ModelError(
                f"extended precision needs >= {_MIN_DIGITS} digits, got {digits}"
            )
        return ("extended", digits)
    raise ModelError(f"unknown precision mode {text!r}")


def recover_single_jump_mp(
    spec: FourierSpectrum,
    d: int,
    xi_prior: Optional[float],
    *,
    M: Optional[int] = None,
    digits: int = _MIN_DIGITS,
    weak_floor: Optional[float] = None,
) -> JumpEstimate:
    """Single-jump recovery with all arithmetic at `digits` decimal digits.

    Same plan geometry, annihilator, root choice, disambiguation, magnitude
    solve and weak-jump warning as solver.recover_single_jump, run on
    moments 2 pi (ik)^{d+1} c_k formed in mpmath.  Results come back as
    ordinary floats; the gain is that intermediate cancellation no longer
    caps accuracy.
    """
    if digits < _MIN_DIGITS:
        raise ModelError(f"extended precision needs >= {_MIN_DIGITS} digits")
    plan = _usable_plan(spec, "decimated", d, M)
    with mp.workdps(digits):
        values = []
        for k in plan.indices:
            c = spec.coeff(k)
            values.append(2 * mp.pi * mp.mpc(0, k) ** (d + 1) * mp.mpc(c.real, c.imag))
        moments = MomentSequence(d, plan.indices, np.array(values, dtype=object))
        return _recover_from_moments(moments, plan, xi_prior, weak_floor=weak_floor)
