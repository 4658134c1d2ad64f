"""The trapezoid rule on the half circle, and the floor of its estimate.

Every integrand in this package is smooth, 2 pi-periodic, even and
nonnegative, and is integrated over [0, pi].  There the trapezoid rule on
the nodes theta_j = pi j / N, j = 0..N, ends at half weight, is the
full-period rule on 2N nodes folded in two: exact for a trigonometric
polynomial of degree below 2N (discrete Parseval), and within
2 pi M(a) / (e^{2aN} - 1) of the integral if the integrand is analytic and
at most M(a) on the strip |Im theta| <= a (Trefethen & Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 56(3), 2014,
Thm 3.2).  `analytic` takes N from that bound, adds it to the estimate,
and doubles N until the estimate meets the tolerance.

A batch adds its N + 1 weighted values with one math.fsum, exactly
rounded, so a result's bits depend on its N alone.  The floor of the
estimate, 64 eps h sum f(theta_j) with h = pi / N, covers that sum's
rounding and values accurate to a few ulps.  The sum is proved: every
value lies in [0, 3.70] (the circle weight's peak), so it can neither
overflow nor cancel.  That the values are that accurate is measured, not
proved (`analytic`).  Every route meets rel_tol |value|, its one setting,
so a rel_tol below the floor's 64 eps (about 1.42e-14) is out of reach.

`quadrature` is the batch for an integrand of numpy arrays, the
EXACT_PRODUCT oracle's, and imports numpy when it runs; the package does
not re-export it.  `analytic` sums the circle batch (I_n and the
Gamma-ratio identity) itself in Python floats, and this module loads no
numpy on import, so those routes never do.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from . import _args

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable

    import numpy as np


class QuadratureConfig(namedtuple("QuadratureConfig", "rel_tol")):
    __slots__ = ()

    def __new__(cls, rel_tol: float = 1e-10):
        value = _args.real(rel_tol)
        if not 0.0 < value < math.inf:
            raise ValueError(f"rel_tol must be finite and > 0, got {rel_tol}")
        return super().__new__(cls, value)

    # _replace builds through _make: checked as the constructor checks.
    _make = classmethod(lambda cls, fields: cls(*fields))


DEFAULT_CONFIG = QuadratureConfig()

QuadratureResult = namedtuple("QuadratureResult", "value abs_error_estimate evaluations")


class QuadratureConvergenceError(RuntimeError):
    """The tolerance is out of reach: the evaluation-error floor alone
    exceeds it, or the node cap was hit first.

    Carries the best estimate so callers can still report it.
    """

    def __init__(self, best: QuadratureResult, tolerance: float):
        super().__init__(
            f"quadrature did not converge: error estimate "
            f"{best.abs_error_estimate:.3e} > tolerance {tolerance:.3e} "
            f"after {best.evaluations} evaluations"
        )
        self.best = best
        self.tolerance = tolerance


_MAX_NODES = 2**16 + 1
_FLOOR = 64.0 * sys.float_info.epsilon


def quadrature(f: Callable[[np.ndarray], np.ndarray], intervals: int) -> QuadratureResult:
    """One batch of the rule on N = `intervals` intervals of [0, pi].

    `f` takes the float ndarray of the nodes pi j / N, j = 0..N (the bytes
    of np.linspace(0, pi, N + 1)), and returns the values there, each in
    [0, 3.70].  Returns (h S, 64 eps h S, N + 1), S their sum with the ends
    at half weight: the rule and its floor, without the bound on the
    rule's own error that `analytic` adds.  ValueError if S is not finite.
    """
    import numpy as np

    ys = np.asarray(f(np.linspace(0.0, math.pi, intervals + 1)), dtype=np.float64).tolist()
    ys[0] *= 0.5
    ys[-1] *= 0.5
    total = math.fsum(ys)
    if not math.isfinite(total):
        raise ValueError(f"integrand not finite on [0.0, {math.pi}]")
    h = math.pi / intervals
    return QuadratureResult(h * total, _FLOOR * h * total, intervals + 1)
