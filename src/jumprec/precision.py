"""Extended-precision entry point of the single-jump solve.

recover_single_jump_mp forms the weighted moments in mpmath at a
caller-chosen digit count and runs the solver's own steps on them, so
every intermediate keeps that precision; the recovered parameters are
rounded back to doubles at the very end.

On coefficients that arrive as doubles this buys no digit.  Measured
against the double solve at 60 digits on the worst |a_l| error of one jump
at 0.7 (decimated plan, d = 2..5 at M = 256, 1024 and 4096 on zero and
expsin backgrounds; consecutive plan, d = 1..4 at M = 64..1024; windowed
data), the two agree within a factor of 2 at every point and neither wins
consistently: the rounding of the input, amplified by the problem's
conditioning, sets the floor.
"""

from __future__ import annotations

from typing import Optional, Tuple

import mpmath as mp
import numpy as np

from .errors import ModelError, read_int
from .solver import JumpEstimate, recover_single_jump
from .spectrum import FourierSpectrum, MomentSequence, SamplePlan, plan_values

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
) -> JumpEstimate:
    """Single-jump recovery with all arithmetic at `digits` decimal digits.

    The decimated plan over M (default: the spectrum's own) reads the
    spectrum through spectrum.plan_values, a ModelError when M exceeds the
    spectrum's.  The moments 2 pi (ik)^{d+1} c_k are formed in mpmath and
    handed to solver.recover_single_jump, so the annihilator, root choice,
    disambiguation and magnitude solve are the double path's own steps.
    Results come back as ordinary floats; the gain is that intermediate
    cancellation no longer caps accuracy.
    """
    digits = read_int(digits, "digits")
    if digits < _MIN_DIGITS:
        raise ModelError(f"extended precision needs >= {_MIN_DIGITS} digits")
    plan = SamplePlan("decimated", d, spec.M if M is None else M)
    values = plan_values(spec, plan).tolist()
    with mp.workdps(digits):
        moments = MomentSequence(plan, np.array([
            2 * mp.pi * mp.mpc(0, k) ** (plan.d + 1) * mp.mpc(c.real, c.imag)
            for k, c in zip(plan.indices, values)
        ], dtype=object))
        return recover_single_jump(moments, xi_prior)
