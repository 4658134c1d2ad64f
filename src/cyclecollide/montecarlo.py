"""Monte Carlo estimation of the cycle-count collision probability.

Two samplers draw the cycle count of a uniform random n-permutation:

* PERMUTATION_DIRECT draws n i.i.d. 64-bit keys, the raw words of the
  block's SFC64 stream, and counts their left-to-right minima: the keys
  equal to their running minimum.  The keys' relative order is a uniform
  permutation (the keys are exchangeable), and Foata's fundamental
  bijection, which reads a sequence in cycle notation with a cycle
  opening at each left-to-right minimum, maps it to a uniform
  permutation whose cycle count is that number of minima.  No
  permutation is built.  A key that ties the running minimum counts as
  a record.  Two of a draw's keys tie with probability at most
  C(n, 2) / 2^64, so the count's law is within that total variation of
  the exact law: below 2^-21 at PERMUTATION_MAX_N = 2**22 and below
  2^-57 at n <= 12.  Draw d of a batch reads words d*n .. d*n + n - 1 of
  the stream, so a single draw counts the minima of `random_raw(n)`, and
  the draws depend on the SFC64 stream alone.  This is the structural
  ground truth, for n up to PERMUTATION_MAX_N.  A batch runs in chunks
  of about 2^13 words, one draw a column, so its memory is
  O(max(n, 2^13)) plus 8 bytes a draw for the counts.  The running
  minimum takes ceil(log2 n) vectorized passes over a chunk, each
  doubling its reach, so a draw costs O(n log n).  Below n = 48 that
  beats numpy's `minimum.accumulate`, which is O(n) but about nine times
  dearer a word: the 5 x 10^6 draws of `verify` (n = 2, 6, 10, 12) take
  0.35 against 0.49 s, and took 0.76 s when each draw shuffled 0..n-1.
  The two are about even from n = 48 to 100, and the passes lose above:
  10^4 draws take 0.18 against 0.14 s at n = 1000, 0.25 s shuffled (2
  cores, Python 3.11.7, numpy 2.4.6, median of 7 interleaved runs).
* BERNOULLI_SUM uses the classical fact that the cycle count of a uniform
  n-permutation is distributed as 1 + sum_{j=2..n} Bernoulli(1/j) (the
  Feller coupling: build the permutation by inserting letters one at a
  time; letter j closes a new cycle with probability 1/j).  This is the
  default sampler at every n, validated against the direct sampler.
  A draw takes letters 1..m, m = min(n, _INVERSION_MAX_N = 12), by
  inversion.  Multiplying out the factors ((j - 1) + x) / j gives
  m! P(K = k), K the count of cycles closed by letters 1..m, as the
  coefficient c(m, k) of x^k in prod_{j=1..m} (x + j - 1), so one
  integer v uniform on 0 .. m! - 1 gives K = 1 + #{k < m : v >=
  c(m, 1) + ... + c(m, k)}, exactly: numpy's bounded integers reject as
  in Lemire's method, so v is exactly uniform.  Since 12! < 2^32 <= 13!,
  v is one bounded uint32.  The m - 1 compares run as one broadcast, so
  a batch takes 4 bytes a draw for v, m - 1 for the compares' mask and 1
  for K, at most 16, and then 8 for the int64 counts (a batch of 10^5
  peaks at 16 bytes a draw at n = 12 and 9 at n = 3, tracemalloc).
  For n >= 13 letters 13..n follow by jumps from success to success:
  after a success at index j, or from j = 12, the next one is at
  N = floor(j / U) + 1 with U uniform on (0, 1], since P(N > k) =
  prod_{i=j+1..k} (1 - 1/i) = j/k whether or not j was a success.  A
  draw costs an expected 1 + H_n - H_12 steps, H_n ~ ln n and
  H_12 = 3.10.  The index is a double, so n is limited to
  BERNOULLI_MAX_N = 2**53.
  A batch runs in rounds over the draws still running, one uniform per
  live draw, and a round keeps only the mask of the draws that go on; no
  draw index is carried.  A draw that stops in round r closed r - 1
  cycles above 12, so once every draw has stopped the rounds are
  replayed from the last mask back to the first and K is added.  The
  masks take a byte per draw per round, 1 + H_n - H_12 bytes a draw on
  average (at most 35.2): a batch of 10^5 peaks near 17 bytes a draw at
  n = 13 and 50 at n = 2^53 (tracemalloc).

Trials are sharded into fixed-size blocks, and block b draws from an
SFC64 generator seeded by child b of `SeedSequence(seed)` (numpy's
spawn_key derivation), so each block has its own stream, and the blocks
run in order in one loop.  The result for a given (n, pairs, kind, seed)
is reproducible bit-for-bit, and a `workers` count changes nothing.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from enum import Enum

import numpy as np

from . import _args

# Ordered pairs per RNG block.  Fixed: changing it changes every estimate.
BLOCK_PAIRS = 1 << 14
# Keys (n x draws) per chunk of a PERMUTATION_DIRECT batch: about 2^13,
# so the chunk's 64-bit arrays take 64 KiB each, under the size at which
# malloc maps and unmaps each array afresh.  Against 2^15, a cold run of
# 10^5 pairs took 11k minor page faults, not 91k, at n = 100 and 12k, not
# 1.4M, at n = 1000, and a lower peak RSS (measured on the column shuffle
# that drew permutations before the raw keys).  The draws do not depend
# on it.
_PERM_CHUNK_ELEMS = 1 << 13

# Letters BERNOULLI_SUM draws by inversion, at every n: 12! < 2^32 <= 13!,
# so this is where one bounded uint32 stops covering n!, not a tuned knob.
_INVERSION_MAX_N = 12
# Largest n for BERNOULLI_SUM: every success index up to n must be an
# exact double.
BERNOULLI_MAX_N = 2**53
# Largest n for PERMUTATION_DIRECT.  Above it the arrays of one draw
# outgrow memory (numpy fails to allocate them, or worse).
PERMUTATION_MAX_N = 2**22


class SamplerKind(Enum):
    PERMUTATION_DIRECT = "permutation"
    BERNOULLI_SUM = "bernoulli"


class McEstimate(namedtuple("McEstimate", "n samples collisions p_hat std_err")):
    """Collision estimate from `samples` independent ordered pairs."""

    __slots__ = ()


def _check_n(n: int, kind: SamplerKind) -> int:
    """n as an int, in range for the sampler `kind`."""
    if not isinstance(kind, SamplerKind):
        raise ValueError(f"unknown sampler kind: {kind!r}")
    n = _args.integer("n", n, 1)
    if kind is SamplerKind.BERNOULLI_SUM and n > BERNOULLI_MAX_N:
        raise ValueError(
            f"n={n} above BERNOULLI_MAX_N = 2**53, the largest n the "
            f"{kind.value} sampler draws exactly"
        )
    if kind is SamplerKind.PERMUTATION_DIRECT and n > PERMUTATION_MAX_N:
        raise ValueError(
            f"n={n} above PERMUTATION_MAX_N = 2**22, the largest n the "
            f"{kind.value} sampler holds in memory"
        )
    return n


def _stream(seed: int, block: int) -> np.random.Generator:
    """SFC64 stream for one block: child `block` of `SeedSequence(seed)`,
    the stream of `SeedSequence(seed).spawn(block + 1)[block]`."""
    seq = np.random.SeedSequence(seed, spawn_key=(block,))
    return np.random.Generator(np.random.SFC64(seq))


def _permutation_batch(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    # Draw d's keys are words d*n .. d*n + n - 1 of the stream, so the
    # draws and the stream position do not depend on the chunk size.  A
    # chunk holds one draw a column.  Its running minimum down the columns
    # doubles its reach each pass (after the pass of `step`, row i holds
    # the minimum of rows max(0, i - 2*step + 1) .. i), and a draw's count
    # is its keys equal to that minimum (module docstring).
    counts = np.empty(size, dtype=np.int64)
    draws_per_chunk = min(size, max(1, _PERM_CHUNK_ELEMS // n))
    random_raw = rng.bit_generator.random_raw
    for done in range(0, size, draws_per_chunk):
        draws = min(draws_per_chunk, size - done)
        keys = np.ascontiguousarray(random_raw(draws * n).reshape(draws, n).T)
        low, step = keys, 1
        while step < n:
            reach = np.empty_like(keys)
            reach[:step] = low[:step]
            np.minimum(low[step:], low[:-step], out=reach[step:])
            low, step = reach, 2 * step
        np.add.reduce(keys == low, axis=0, out=counts[done : done + draws])
    return counts


@functools.cache
def _feller_row(n: int) -> tuple[int, ...]:
    """n! P(K = k) for k = 1..n, K the Feller coupling's count: the
    coefficients of x^1 .. x^n in prod_{j=1..n} (x + j - 1), each factor
    j times the generating polynomial of Bernoulli(1/j)."""
    row = [1]  # the factor at j = 1, x
    for j in range(2, n + 1):
        row = [(j - 1) * a + b for a, b in zip([*row, 0], [0, *row])]
    return tuple(row)


def _bernoulli_batch(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    # Letters 1..m by inversion (module docstring): `ups` counts the
    # running sums of row m that v reaches, so a draw has 1 + ups cycles
    # among them.
    m = min(n, _INVERSION_MAX_N)
    cuts = np.fromiter(itertools.accumulate(_feller_row(m)[:-1]), np.uint32, m - 1)
    v = rng.integers(0, math.factorial(m), size, dtype=np.uint32)
    ups = np.add.reduce(cuts[:, None] <= v, axis=0, dtype=np.uint8)
    del v  # not held through the jumps
    if n == m:
        ups += 1
        return ups.astype(np.int64)
    # Letters m + 1..n by success-to-success jumps, vectorized over the
    # draws still running: `j` holds each running draw's latest success
    # index, or m before its first, and round r keeps `masks[r - 1]`,
    # which of its draws go on.
    masks = []
    j = np.full(size, float(m))
    while j.size:
        u = rng.random(j.size)
        np.subtract(1.0, u, out=u)
        j /= u
        del u  # so that two float arrays, not three, live at the compress
        np.floor(j, out=j)  # next success - 1
        alive = j < n
        masks.append(alive)
        j = j.compress(alive)
        j += 1.0
    # A draw that stops in round r has r - 1 successes above m, so r + ups
    # cycles.  Walking back, each round's stopped draws take r and its
    # running ones take, in order, the values of the next round; then ups
    # is added.  Counts are at most len(masks) + m - 1, so the type cannot
    # wrap.
    dtype = np.min_scalar_type(len(masks) + m - 1)
    counts = np.empty(0, dtype)
    for r in range(len(masks), 0, -1):
        alive = masks.pop()
        round_counts = np.full(alive.size, r, dtype)
        round_counts[alive.nonzero()[0]] = counts
        counts = round_counts
    counts += ups
    return counts.astype(np.int64)


def sample_cycle_counts(
    kind: SamplerKind, n: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw `size` independent cycle counts; values lie in 1..n.

    n and size follow the package's integer contract (README, "Inputs");
    ValueError also for a `kind` that is not a SamplerKind, for
    BERNOULLI_SUM above BERNOULLI_MAX_N, for PERMUTATION_DIRECT above
    PERMUTATION_MAX_N and for an `rng` that is not a numpy Generator:
    PERMUTATION_DIRECT reads its `bit_generator`'s raw words, and
    BERNOULLI_SUM calls its `integers`, and from n = 13 its `random`.
    """
    n = _check_n(n, kind)
    size = _args.integer("size", size, 1)
    _args.instance("rng", rng, np.random.Generator)
    if kind is SamplerKind.PERMUTATION_DIRECT:
        return _permutation_batch(n, size, rng)
    return _bernoulli_batch(n, size, rng)


def _block_collisions(n: int, pairs: int, kind: SamplerKind, seed: int, block: int) -> int:
    draws = sample_cycle_counts(kind, n, 2 * pairs, _stream(seed, block))
    return int((draws[:pairs] == draws[pairs:]).sum())


def estimate_collision(
    n: int,
    pairs: int,
    kind: SamplerKind | None = None,
    seed: int = 0,
    workers: int = 1,
) -> McEstimate:
    """Estimate the collision probability from `pairs` ordered pairs.

    Each pair is two independent draws, matching the definition of the
    probability being estimated: a block of p pairs draws 2p counts in
    one call from its own stream, and pair i is draws i and p + i.
    `kind=None` means BERNOULLI_SUM.  The estimate is a deterministic
    function of (n, pairs, kind, seed).  Blocks run one at a time, so time
    is linear in `pairs` and memory does not grow with it.  `workers` is
    checked and changes nothing; ROADMAP item 32 deletes it with the
    benchmark probe that passes it.  n, pairs, seed (below 2**64) and
    workers follow the package's integer contract (README, "Inputs");
    ValueError also for a `kind` that is neither a SamplerKind nor None.
    """
    if kind is None:
        kind = SamplerKind.BERNOULLI_SUM
    n = _check_n(n, kind)
    seed = _args.seed(seed)
    pairs = _args.integer("pairs", pairs, 1)
    _args.integer("workers", workers, 1)

    collisions = sum(
        _block_collisions(n, min(BLOCK_PAIRS, pairs - start), kind, seed, block)
        for block, start in enumerate(range(0, pairs, BLOCK_PAIRS))
    )
    p_hat = collisions / pairs
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / pairs)
    return McEstimate(n, pairs, collisions, p_hat, std_err)
