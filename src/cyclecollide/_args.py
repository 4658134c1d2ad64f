"""The two argument contracts of the public entry points (README, "Inputs"):
an integer for n of p(n) and for every count, a real n for the closed forms
I(n) and 1/(2 sqrt(pi log n)).  Plain Python: no route loads numpy for them."""

import math


def integer(name: str, value, minimum: int) -> int:
    """`value` as an int >= `minimum`: any value whose int() equals it."""
    if type(value) is int and value >= minimum:
        return value
    try:
        as_int = int(value)
        ok = as_int == value and as_int >= minimum
    except (TypeError, ValueError, ArithmeticError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return as_int


def real_n(value) -> int | float:
    """An int n > 1 as it is, at any size; any other value that is not text
    as its float, which must be finite and > 1."""
    if isinstance(value, int):
        if value > 1:
            return value
    elif not isinstance(value, (str, bytes, bytearray)):
        try:
            n = float(value)
        except (TypeError, ValueError, ArithmeticError):
            n = math.nan
        if 1 < n < math.inf:
            return n
    raise ValueError(f"n must be finite and > 1, got {value!r}")
