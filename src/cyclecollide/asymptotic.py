"""Closed-form large-n routes to the cycle-count collision probability.

The paper's limit p(n) ~ 1 / (2 sqrt(pi log n)) and the Laplace value of
the kernel integral it comes from.  Plain `math`, no numpy, so
`collide --method asymptotic` starts as fast as the exact route.
"""

from __future__ import annotations

import math


def laplace_I(n: float) -> float:
    """Closed-form large-n value sqrt(pi / log n) of the kernel integral.

    The kernel concentrates at theta = 0 where it is a Gaussian of width
    1/sqrt(2 log n); integrating that Gaussian gives this expression.
    """
    if not 1 < n < math.inf:
        raise ValueError(f"n must be finite and > 1, got {n}")
    return math.sqrt(math.pi / math.log(n))


def p_asymptotic(n: float) -> float:
    """Limiting collision probability 1 / (2 sqrt(pi log n)).

    Identically laplace_I(n) / (2 pi).
    """
    if not 1 < n < math.inf:
        raise ValueError(f"n must be finite and > 1, got {n}")
    return 1.0 / (2.0 * math.sqrt(math.pi * math.log(n)))
