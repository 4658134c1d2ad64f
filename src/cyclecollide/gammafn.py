"""Gamma-function machinery for arguments on and near the unit circle.

`log_gamma` is a principal-branch complex log-gamma built from the
Stirling asymptotic series after shifting the argument right of Re z = 10
with the recurrence log Gamma(z) = log Gamma(z+1) - log z.  With the
series truncated at the B_16 term the absolute truncation error at
|z| = 10 is below 1e-17, and the shifted recurrence keeps the principal
branch for Re z > -1 off the negative real axis, which covers everything
this package evaluates.  Measured accuracy against a 40-digit reference
is ~8e-15 worst case over Re z in [-0.5, 1e9], |Im z| <= 2.

The weight 1/|Gamma(e^{i theta})|^2 of every circle integrand does not go
through it.  It needs only Re log Gamma(2 + e^{i theta}), and

    log Gamma(2 + z) = (1 - gamma) z + sum_{k>=2} (-1)^k (zeta(k) - 1) z^k / k

is analytic for |z| < 2, so on the circle it is the real cosine series
sum_k a_k cos(k theta) with |a_k| ~ 2^-k / k.  Its first 54 terms, from
math.cos(k theta) and summed by math.fsum, are within 2e-16 absolute of
a 40-digit reference (1001 theta in [0, 2 pi]; measured 1.7e-16),
against 9e-15 through `log_gamma`.  The weight's absolute error is then
at most 3e-16 times its peak 3.70 (measured 2.8e-16 times, on the same
angles).

`recip_gamma_abs_sq` evaluates one angle at a time in `math`, so a real
angle loads no numpy; `log_gamma` and `weierstrass_partial` import numpy
where they run.

All functions are pure.  `log_gamma` takes a complex number or an array
of them and `recip_gamma_abs_sq` a real angle or an array of angles, each
returning a scalar for a scalar and an array of the same shape for an
array; `weierstrass_partial` takes one complex z, and an array z raises
ValueError.
"""

from __future__ import annotations

import cmath
import math
import operator

from . import _args

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable

    import numpy as np

# Euler-Mascheroni constant, 50 decimal digits.  Stored as text and parsed
# once; never computed at runtime.
_EULER_GAMMA_DIGITS = "0.57721566490153286060651209008240243104215933593992"
EULER_GAMMA = float(_EULER_GAMMA_DIGITS)

_LOG_SQRT_2PI = 0.9189385332046727417803297364056176398

# zeta(k) - 1 for k = 2..54, 20 significant digits.  Stored as text and
# parsed once; never computed at runtime.
_ZETA_MINUS_ONE_DIGITS = (
    "6.4493406684822643647e-1", "2.0205690315959428540e-1", "8.2323233711138191516e-2",
    "3.6927755143369926331e-2", "1.7343061984449139715e-2", "8.3492773819228268398e-3",
    "4.0773561979443393787e-3", "2.0083928260822144179e-3", "9.9457512781808533715e-4",
    "4.9418860411946455870e-4", "2.4608655330804829864e-4", "1.2271334757848914675e-4",
    "6.1248135058704829259e-5", "3.0588236307020493552e-5", "1.5282259408651871733e-5",
    "7.6371976378997622736e-6", "3.8172932649998398565e-6", "1.9082127165539389257e-6",
    "9.5396203387279611315e-7", "4.7693298678780646312e-7", "2.3845050272773299000e-7",
    "1.1921992596531107307e-7", "5.9608189051259479612e-8", "2.9803503514652280186e-8",
    "1.4901554828365041235e-8", "7.4507117898354294920e-9", "3.7253340247884570548e-9",
    "1.8626597235130490064e-9", "9.3132743241966818287e-10", "4.6566290650337840730e-10",
    "2.3283118336765054920e-10", "1.1641550172700519776e-10", "5.8207720879027008892e-11",
    "2.9103850444970996869e-11", "1.4551921891041984236e-11", "7.2759598350574810145e-12",
    "3.6379795473786511902e-12", "1.8189896503070659476e-12", "9.0949478402638892825e-13",
    "4.5474737830421540268e-13", "2.2737368458246525152e-13", "1.1368684076802278493e-13",
    "5.6843419876275856093e-14", "2.8421709768893018555e-14", "1.4210854828031606770e-14",
    "7.1054273952108527129e-15", "3.5527136913371136733e-15", "1.7763568435791203275e-15",
    "8.8817842109308159031e-16", "4.4408921031438133642e-16", "2.2204460507980419840e-16",
    "1.1102230251410661337e-16", "5.5511151248454812437e-17",
)

# a_k of Re log Gamma(2 + e^{i theta}) = sum_{k>=1} a_k cos(k theta):
# a_1 = 1 - gamma, a_k = (-1)^k (zeta(k) - 1) / k.  The first omitted
# term is below 1e-18.
_CIRCLE_COEFFS = (1.0 - EULER_GAMMA,) + tuple(
    (-1) ** k * float(d) / k for k, d in enumerate(_ZETA_MINUS_ONE_DIGITS, start=2)
)

# B_{2k} / ((2k)(2k-1)) for k = 1..8: coefficients of w^-(2k-1) in the
# Stirling series for log Gamma(w).
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    7.0 / 1092.0,
    -3617.0 / 122400.0,
)

# Right of this line the truncated series is accurate to ~1e-17 absolute.
_SERIES_MIN_RE = 10.0


def _stirling_series_tail(w: np.ndarray | float) -> np.ndarray | float:
    """Correction sum of the Stirling series, valid for Re w >= 10."""
    r = 1.0 / w
    r2 = r * r
    acc = 0.0
    p = r
    for c in _STIRLING_COEFFS:
        acc = acc + c * p
        p = p * r2
    return acc


def _log_gamma_array(z: np.ndarray) -> np.ndarray:
    import numpy as np

    w = z.astype(np.complex128, copy=True)
    shift = np.zeros_like(w)
    # At most 12 unit shifts are ever needed from Re z > -1.
    for _ in range(12):
        m = w.real < _SERIES_MIN_RE
        if not m.any():
            break
        shift[m] += np.log(w[m])
        w[m] += 1.0
    return (w - 0.5) * np.log(w) - w + _LOG_SQRT_2PI + _stirling_series_tail(w) - shift


def log_gamma(z: complex | np.ndarray) -> complex | np.ndarray:
    """Principal-branch log Gamma(z) for complex z.

    Raises ValueError at the poles (z a nonpositive real integer).  On the
    negative real axis the value is the limit from the upper half-plane.
    """
    import numpy as np

    arr = np.asarray(z, dtype=np.complex128)
    poles = (arr.imag == 0.0) & (arr.real <= 0.0) & (arr.real == np.floor(arr.real))
    if np.any(poles):
        raise ValueError("log_gamma pole: z is a nonpositive real integer")
    out = _log_gamma_array(np.atleast_1d(arr))
    return complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _angle(value) -> float:
    if 0.0 <= (theta := _args.real(value)) <= 2.0 * math.pi:
        return theta
    raise ValueError(f"theta must be a real number in [0, 2*pi], got {value!r}")


def _on_angles(
    values: Callable[[list[float]], Iterable[float]], theta
) -> float | np.ndarray:
    """`values` at the angles of theta: a float for a real number, else an
    array of theta's shape.  Every angle is checked before any is
    evaluated; text, bytes, complex values and angles outside [0, 2*pi]
    raise ValueError.  numpy is imported only for a theta that is not a
    Python real number."""
    if isinstance(theta, (int, float, str, bytes, bytearray, complex)):
        (value,) = values([_angle(theta)])
        return float(value)
    import numpy as np

    arr = np.asarray(theta)
    if arr.dtype.kind not in "biufO":
        raise ValueError(f"theta must be real numbers in [0, 2*pi], got dtype {arr.dtype}")
    angles = [_angle(t) for t in arr.reshape(-1).tolist()]
    if arr.ndim == 0:
        (value,) = values(angles)
        return float(value)
    return np.fromiter(values(angles), np.float64, len(angles)).reshape(arr.shape)


def _weight(cosines) -> float:
    # 1 / |Gamma(z)|^2, z = e^{i theta}, from cos(k theta), k = 1..54, as
    # |z + 1|^2 / |Gamma(z + 2)|^2 with Re log Gamma(2 + z) = sum_k a_k
    # cos(k theta): entire, pole-free, exactly 0 at theta = pi (cos theta =
    # -1) and finite.
    front = max(2.0 + 2.0 * cosines[0], 0.0)
    return front * math.exp(-2.0 * math.fsum(map(operator.mul, _CIRCLE_COEFFS, cosines)))


def _circle_weight(theta: float) -> float:
    # The weight at one angle, from cos(k theta) by math.cos.
    return _weight([math.cos(k * theta) for k in range(1, len(_CIRCLE_COEFFS) + 1)])


def recip_gamma_abs_sq(theta: float | np.ndarray) -> float | np.ndarray:
    """1 / |Gamma(e^{i theta})|^2 for theta in [0, 2*pi].

    Computed through the reciprocal Gamma function, which is entire, as
    |z (z+1)|^2 / |Gamma(z+2)|^2 with z = e^{i theta}, log Gamma(z+2)
    taken from its zeta(k) series; the prefactor |z+1|^2 = 2 + 2 cos(theta)
    vanishes exactly at theta = pi, where e^{i theta} lands on the Gamma
    pole at -1, so the value there is an exact 0.0 rather than an overflow.
    Each angle is evaluated alone, so an angle has the same bits alone and
    inside an array.  ValueError for an angle that is text, bytes, complex
    or outside [0, 2*pi], NaN included.
    """
    return _on_angles(lambda angles: map(_circle_weight, angles), theta)


# Factors per chunk of the Weierstrass product: its complex temporaries
# take 256 KiB each, at most three at a time, at any number of terms.
_WEIERSTRASS_CHUNK = 1 << 14


def weierstrass_partial(z: complex, terms: int) -> complex:
    """Truncated everywhere-convergent product for the reciprocal Gamma:

        z * prod_{r=1..terms} (1 + z/r) e^{-z/r}

    As terms grows this converges to e^{-gamma z} / Gamma(z), with error
    O(|z|^2 / terms).  terms follows the package's integer contract
    (README, "Inputs"), with terms >= 1; ValueError also for a z that is
    text, is not a number complex() takes, or is zero or not finite.
    """
    terms = _args.integer("terms", terms, 1)
    try:
        zc = cmath.nan if isinstance(z, str) else complex(z)
    except (TypeError, ValueError, ArithmeticError):
        zc = cmath.nan
    if zc == 0 or not cmath.isfinite(zc):
        raise ValueError(f"z must be finite and nonzero, got {z!r}")
    acc = zc
    for start in range(1, terms + 1, _WEIERSTRASS_CHUNK):
        acc *= _weierstrass_factors(zc, start, min(terms + 1, start + _WEIERSTRASS_CHUNK))
    return acc


def _weierstrass_factors(zc: complex, start: int, stop: int) -> complex:
    # prod_{r=start}^{stop-1} (1 + z/r) e^{-z/r}.  Its arrays end with the
    # call, so no chunk's arrays live beside the next chunk's.
    import numpy as np

    w = zc / np.arange(start, stop, dtype=np.float64)
    e = np.exp(-w)
    w += 1.0
    return complex(np.prod(w * e))
