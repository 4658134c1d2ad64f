"""The argument readers of the public entry points (README, "Inputs"): an
integer for n of p(n), for every count and, below 2**64, for a seed; a
real n for the closed forms I(n) and 1/(2 sqrt(pi log n)); a real for an
angle or a tolerance; the sequences of such values; and the objects an
entry point is handed.  Plain Python: no route loads numpy for them."""

import math


def _complex(value) -> bool:
    """Whether `value` is a complex number that is not real: Python
    complex, and numpy's complex scalars, which int() and float() would
    read as their real part."""
    if type(value) in (int, float):
        return False
    # Imported here, so that a command whose arguments are ints and floats
    # does not load `numbers` at its cold start.
    import numbers

    return isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real)


def integer(name: str, value, minimum: int) -> int:
    """`value` as an int >= `minimum`: any value whose int() equals it,
    but no complex one."""
    if type(value) is int and value >= minimum:
        return value
    if not _complex(value):
        try:
            as_int = int(value)
            if as_int == value and as_int >= minimum:
                return as_int
        except (TypeError, ValueError, ArithmeticError):
            pass
    raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def seed(value) -> int:
    """`value` as a Monte Carlo seed: an integer in 0..2**64 - 1."""
    value = integer("seed", value, 0)
    if value >= 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {value}")
    return value


def real(value) -> float:
    """float() of `value`; NaN for text, bytes, complex and what float()
    refuses, so that a caller's range check, which NaN fails, refuses them."""
    if isinstance(value, (str, bytes, bytearray)) or _complex(value):
        return math.nan
    try:
        return float(value)
    except (TypeError, ValueError, ArithmeticError):
        return math.nan


def real_n(value) -> int | float:
    """An int n > 1 as it is, at any size; any other value as its `real`, finite and > 1."""
    if isinstance(value, int):
        if value > 1:
            return value
    elif 1 < (n := real(value)) < math.inf:
        return n
    raise ValueError(f"n must be finite and > 1, got {value!r}")


def items(name: str, value) -> tuple:
    """The items of an iterable `value` as a tuple."""
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{name} must be an iterable, got {value!r}") from None


def ascending(name: str, values) -> tuple[int, ...]:
    """The items of `values` as integers n >= 1, which must strictly increase."""
    ns = tuple(integer("n", n, 1) for n in items(name, values))
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"{name} must be strictly increasing, got {ns}")
    return ns


def instance(name: str, value, kind: type) -> None:
    """ValueError unless `value` is a `kind`."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
