"""The exact route at its ceiling, checked by congruences.

One `stirling_rows` walk goes from row 1 to `EXACT_ROUTE_CEILING`
(20000) and stops at each n in ROWS on the way.  Every coefficient of
each of those rows is checked mod each of its primes in ROWS against
`tests/oracles.py`'s `stirling_row_mod`, and `square_sum()` of the last
row mod each prime in SQUARE_SUM_PRIMES against `square_sum_mod`.  The
oracles share no code with `exact.py`; each builds a row of
r = n mod p in O(r^2) small-int steps, so the primes are small (about
2000 at most) or just below n, where r is small.

It prints, at each row, the wall time since the walk started, and at the
end the peak resident set size.  Exits 0 when every congruence holds;
otherwise exits 1 and names the first n and prime that differ.  It
takes minutes, not seconds, so pytest does not collect it:

    PYTHONPATH=src python tests/ceiling_check.py
"""

import resource
import sys
import time

from cyclecollide.exact import EXACT_ROUTE_CEILING, stirling_rows
from oracles import square_sum_mod, stirling_row_mod


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def _prime_at_most(n: int) -> int:
    while not _is_prime(n):
        n -= 1
    return n


# Rows on the way, each with its primes: 2 (q = n / 2), 1999 (the
# largest r the oracle builds, 1005 at n = 5003), and the largest primes
# at most n / 2 and n (q = 2 and 1; 5003 and 10007 are primes, so there
# r = 0 and the row is x^p - x mod p).
ROWS = tuple(
    (n, (2, 1999, _prime_at_most(n // 2), _prime_at_most(n)))
    for n in (5003, 10007, EXACT_ROUTE_CEILING)
)

# f(20000) mod 20 primes: the first eight, six near 1000 and 2000, and
# the six largest below 20000.
SQUARE_SUM_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19,
    997, 1009, 1013, 1987, 1993, 1999,
    *[p for p in range(EXACT_ROUTE_CEILING - 1000, EXACT_ROUTE_CEILING) if _is_prime(p)][-6:],
)


def main() -> int:
    start = time.perf_counter()
    for row, (n, primes) in zip(stirling_rows(n for n, _ in ROWS), ROWS):
        print(f"row {n}: built at {time.perf_counter() - start:.1f} s", flush=True)
        for p in primes:
            if tuple(c % p for c in row.coeffs) != stirling_row_mod(n, p):
                print(f"differs: stirling_row({n}) mod {p}", file=sys.stderr)
                return 1
        print(f"row {n}: mod {primes} checked at {time.perf_counter() - start:.1f} s", flush=True)
    square_sum = row.square_sum()
    for p in SQUARE_SUM_PRIMES:
        if square_sum % p != square_sum_mod(n, p):
            print(f"differs: stirling_row({n}).square_sum() mod {p}", file=sys.stderr)
            return 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"{len(ROWS)} rows to {n} and f({n}) mod {len(SQUARE_SUM_PRIMES)} primes match "
        f"their congruences in {time.perf_counter() - start:.1f} s, peak RSS {peak_mb:.0f} MB, "
        f"on Python {sys.version.split()[0]}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
