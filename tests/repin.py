"""The pinned results of the routes in tests/pins/, one result a line with
every float as its `float.hex`, and their one reader and comparator,
`compare`, which asserts every byte and says what moved and by how much.
`PYTHONPATH=src python tests/repin.py` rewrites every pin file from the
tree and prints each file's count of moved lines and largest relative
move; `git diff tests/pins` then shows the old and new values.  circle.txt
needs no numpy, so tests/core_check.py checks it on a bare interpreter.
"""

import contextlib
import hashlib
import io
import itertools
import math
import re
from pathlib import Path

import cyclecollide as cc
from cyclecollide import cli

PIN_DIR = Path(__file__).with_name("pins")
REL_TOLS = (1e-10, 1e-12)
# Every n to 64 and at 1023..1026, ~100 log-spaced n to 1e300, both sides
# of 2^60, where GAMMA_RATIO becomes the kernel, 2^1030, and the n of the
# bits test and of core_check that those lack.
GRID = [*range(1, 65), 1023, 1024, 1025, 1026, *(int(10.0 ** (3 * k)) for k in range(1, 101))]
GRID += [2**60 - 1, 2**60 + 1, 2**1030, 2**60, 10**100, 2**64, 10**300]
# Both sides of n = 64, where d_k leaves its table for Euler-Maclaurin, of
# the steps of K(n) at 2^59 + 2 and 2^60, and n past the double range.
INTEGRAND_NS = [1, 2, 3, 10, 63, 64, 65, 1000, 10**6, 2**59, 2**59 + 2, 2**60 - 1, 2**60,
                2**60 + 1, 10**100, 2**1030, 10**400, 1.5, 1e10 + 0.5, 1e300]
DRAWS = [(kind, n) for kind in ("PERMUTATION_DIRECT", "BERNOULLI_SUM") for n in (1, 5, 1000)]
DRAWS += [("BERNOULLI_SUM", 2**40)]
# (kind or None for the default, n, pairs, seed); blocks of 2^14 pairs, the last one short.
COLLISIONS = [("PERMUTATION_DIRECT", 10, 50000, 3), ("PERMUTATION_DIRECT", 257, 20000, 4),
              (None, 10, 3 * 2**14 + 17, 5), (None, 10**9, 2 * 2**14 + 1, 6)]
TABLE_ARGV = ["table", "--n", "2,3,10,100,1024,20001,1000000000000000000000", "--methods",
              "exact,quadrature,eq2,asymptotic,montecarlo", "--pairs", "3000", "--seed", "9"]


def _line(route, n, rel_tol, result):
    value, error, evaluations = result
    return f"{route} {n!r} {rel_tol!r} {value.hex()} {error.hex()} {evaluations}"


def circle_lines(n, rel_tol):
    """auto, GAMMA_RATIO and I_n at n, and I_n at n + 1/2 to n = 64."""
    config = cc.QuadratureConfig(rel_tol)
    lines = [_line(route, n, rel_tol, cc.p_quadrature_result(n, kind, config))
             for route, kind in (("auto", None), ("gamma-ratio", cc.IntegrandKind.GAMMA_RATIO))]
    ms = [n, n + 0.5] if n <= 64 else [n]
    return lines + [_line("I_n", m, rel_tol, cc.I_n(m, config)) for m in ms if m >= 2]


def circle():
    lines = [line for t in REL_TOLS for n in GRID for line in circle_lines(n, t)]
    return ["# route n rel_tol value error evaluations; from `math`, so libm.", *lines, ""]


def product():
    kind = cc.IntegrandKind.EXACT_PRODUCT
    lines = [_line(kind.value, n, t, cc.p_quadrature_result(n, kind, cc.QuadratureConfig(t)))
             for t in REL_TOLS for n in GRID if n <= 2000]
    return ["# As circle.txt; numpy's log1p and exp pick SIMD kernels by CPU.", *lines, ""]


def draw_line(kind, n):
    from cyclecollide.montecarlo import _stream

    rng = _stream(1, 2)
    counts = [int(cc.sample_cycle_counts(cc.SamplerKind[kind], n, 1, rng)[0]) for _ in range(300)]
    return f"{kind} {n} {rng.random().hex()} {','.join(map(str, counts))}"


def collision_line(kind, n, pairs, seed):
    est = cc.estimate_collision(n, pairs, kind and cc.SamplerKind[kind], seed=seed)
    return f"collisions {kind or 'default'} {n} {pairs} {seed} {est.collisions}"


def draws():
    head = "# kind n, the next random() after 300 single draws from _stream(1, 2), the draws"
    lines = [draw_line(*case) for case in DRAWS] + [collision_line(*c) for c in COLLISIONS]
    return [head, *lines, ""]


def integrand():
    theta = [0.0, math.pi, 2.0 * math.pi] + [math.pi * j / 500 for j in range(1, 1000)]
    lines = ["# kind n, the sha256 of the integrand's float.hex at its 1,002 angles (~37k values",
             "# in all, too many for a line each), then it at 0, pi/500, pi/2, pi and 3 pi/2."]
    for n in INTEGRAND_NS:
        kinds = [cc.IntegrandKind.GAMMA_RATIO] * (n == int(n))
        for kind in kinds + [cc.IntegrandKind.LIMIT_KERNEL] * (n > 1):
            values = [v.hex() for v in cc.integrand(kind, n, theta).tolist()]
            digest = hashlib.sha256("".join(values).encode()).hexdigest()
            five = [values[i] for i in (0, 3, 252, 1, 752)]
            lines.append(" ".join([kind.value, repr(n), digest, *five]))
    return [*lines, ""]


def table(fmt):
    with contextlib.redirect_stdout(out := io.StringIO()):
        code = cli.main([*TABLE_ARGV, "--format", fmt])
    assert code == 0, f"table --format {fmt} exited {code}"
    return out.getvalue().split("\n")


FILES = {"circle.txt": circle, "product.txt": product, "draws.txt": draws, "integrand.txt":
         integrand, "table.csv": lambda: table("csv"), "table.json": lambda: table("json")}


def read(name, *key):
    """The lines of tests/pins/`name`, byte for byte, or those whose first fields are `key`."""
    lines = (PIN_DIR / name).read_bytes().decode().split("\n")
    return [line for line in lines if line.split()[: len(key)] == list(map(str, key))]


def _move(old, new):
    """The largest |new - old| / |old| over the fields of two lines; inf
    where a field that is not a number moved or the fields do not pair."""
    pairs = itertools.zip_longest(*(re.split(r"[\s,:\[\]{}]+", line) for line in (old, new)))
    moved = [pair for pair in pairs if pair[0] != pair[1]]
    try:
        numbers = [[float.fromhex(f) if "0x" in f else float(f) for f in pair] for pair in moved]
        return max(abs(y - x) / abs(x) for x, y in numbers)
    except (TypeError, ValueError, ZeroDivisionError):
        return math.inf


def _moves(name, old, new):
    """The count and largest move of the lines moved from `old` to `new`; the first five."""
    moved = [(a, b) for a, b in itertools.zip_longest(old, new, fillvalue="") if a != b]
    largest = max(itertools.starmap(_move, moved), default=0.0)
    summary = f"tests/pins/{name}: moved lines {len(moved)}, largest relative move {largest:.3g}"
    return summary, "".join(f"\n  pinned {a}\n  now    {b}" for a, b in moved[:5])


def compare(name, got, want=None):
    """Assert that the lines `got` are `want`, by default every line of
    tests/pins/`name`, byte for byte, naming what moved."""
    if got != (want := read(name) if want is None else want):
        raise AssertionError("".join(_moves(name, want, got)))


if __name__ == "__main__":
    for name, lines in FILES.items():
        old = read(name) if (PIN_DIR / name).exists() else []
        new = lines()
        (PIN_DIR / name).write_bytes("\n".join(new).encode())
        print(_moves(name, old, new)[0])
