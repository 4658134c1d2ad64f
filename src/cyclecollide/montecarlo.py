"""Monte Carlo estimation of the cycle-count collision probability.

Two samplers draw the cycle count of a uniform random n-permutation:

* PERMUTATION_DIRECT draws an unbiased shuffle of 0..n-1 and reads it
  in cycle notation: a cycle opens at each left-to-right minimum and runs
  to the next one.  That reading is Foata's fundamental bijection, so the
  permutation read is uniform too, and its cycle count is the number of
  left-to-right minima, one running minimum away.  O(n) time per draw;
  this is the structural ground truth, for n up to PERMUTATION_MAX_N =
  2**22.  A batch runs in chunks of about 2^13 elements (n x draws), so
  its memory is O(max(n, 2^13)) plus 8 bytes a draw for the counts.
  10^5 draws take 0.21 s at n = 100 and 10^4 take 0.22 s at n = 1000,
  against 0.30 and 0.40 s when pointer doubling counted the cycles; at
  n = 2 the column shuffle costs more, 40 ms for 10^6 draws against 36
  (2 cores, Python 3.11.7, numpy 2.4.6).
* BERNOULLI_SUM uses the classical fact that the cycle count of a uniform
  n-permutation is distributed as 1 + sum_{j=2..n} Bernoulli(1/j) (the
  Feller coupling: build the permutation by inserting letters one at a
  time; letter j closes a new cycle with probability 1/j).  It jumps from
  success to success: after a success at index j the next one is at
  N = floor(j / U) + 1 with U uniform on (0, 1], since P(N > m) = j/m.
  A draw costs an expected H_n ~ ln n steps.  The index is a double, so
  n is limited to BERNOULLI_MAX_N = 2**53.  This is the default sampler
  at every n, validated against the direct sampler.
  A batch runs in rounds over the draws still running, one uniform per
  live draw, and a round keeps only the mask of the draws that go on; no
  draw index is carried.  A draw's count is the round in which it
  stops, so once every draw has stopped the counts are replayed from the
  last mask back to the first.  The masks take a byte per draw per
  round, H_n bytes a draw on average (at most 37.4): a batch of 10^5
  peaks near 24 bytes a draw at n = 12 and 51 at n = 2^53 (tracemalloc).

Trials are sharded into fixed-size blocks, and block b draws from an
SFC64 generator seeded by child b of `SeedSequence(seed)` (numpy's
spawn_key derivation), so each block has its own stream.  The result
for a given (n, pairs, kind, seed) is therefore reproducible bit-for-bit
no matter how many workers process the blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _args

# Ordered pairs per RNG block.  Fixed: changing it changes every estimate.
BLOCK_PAIRS = 1 << 14
# Elements (n x draws) per chunk of batched permutations: about 2^13, so
# the chunk's int64 arrays take 64 KiB each, under the size at which
# malloc maps and unmaps each array afresh.  Against 2^15, a cold run of
# 10^5 pairs took 11k minor page faults, not 91k, at n = 100 and 12k, not
# 1.4M, at n = 1000, and a lower peak RSS.  The draws do not depend on it.
_PERM_CHUNK_ELEMS = 1 << 13

# Largest n for BERNOULLI_SUM: every success index up to n must be an
# exact double.
BERNOULLI_MAX_N = 2**53
# Largest n for PERMUTATION_DIRECT.  Above it the arrays of one
# permutation outgrow memory (numpy fails to allocate them, or worse).
PERMUTATION_MAX_N = 2**22


class SamplerKind(Enum):
    PERMUTATION_DIRECT = "permutation"
    BERNOULLI_SUM = "bernoulli"


@dataclass(frozen=True)
class McEstimate:
    """Collision estimate from `samples` independent ordered pairs."""

    n: int
    samples: int
    collisions: int
    p_hat: float
    std_err: float


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
    # One permutation a column.  A chunk's one column-by-column
    # `rng.permuted` call draws what a row-by-row shuffle draws, so the
    # draws and the stream position do not depend on the chunk size.  A
    # column's cycle count is its number of left-to-right minima (module
    # docstring): the entries equal to the running minimum.
    counts = np.empty(size, dtype=np.int64)
    cols_per_chunk = min(size, max(1, _PERM_CHUNK_ELEMS // n))
    base = np.repeat(np.arange(n), cols_per_chunk).reshape(n, cols_per_chunk)
    for done in range(0, size, cols_per_chunk):
        cols = min(cols_per_chunk, size - done)
        perms = rng.permuted(base[:, :cols], axis=0)
        records = perms == np.minimum.accumulate(perms, axis=0)
        counts[done : done + cols] = np.count_nonzero(records, axis=0)
    return counts


def _bernoulli_batch(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    # Success-to-success jumps, vectorized over the draws still running:
    # `j` holds each running draw's latest success index, starting from
    # the certain one at 1, and round r keeps `masks[r - 1]`, which of its
    # draws go on.
    masks = []
    j = np.ones(size)
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
    # A draw that stops in round r has r successes.  Walking back, each
    # round's stopped draws take r and its running ones take, in order,
    # the counts of the next round.  Counts are at most len(masks), so
    # the type cannot wrap.
    dtype = np.min_scalar_type(len(masks))
    counts = np.empty(0, dtype)
    for r in range(len(masks), 0, -1):
        alive = masks.pop()
        round_counts = np.full(alive.size, r, dtype)
        round_counts[alive.nonzero()[0]] = counts
        counts = round_counts
    return counts.astype(np.int64)


def sample_cycle_counts(
    kind: SamplerKind, n: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw `size` independent cycle counts; values lie in 1..n.

    n and size follow the package's integer contract (README, "Inputs");
    ValueError also for a `kind` that is not a SamplerKind, for
    BERNOULLI_SUM above BERNOULLI_MAX_N and for PERMUTATION_DIRECT above
    PERMUTATION_MAX_N.
    """
    n = _check_n(n, kind)
    size = _args.integer("size", size, 1)
    if kind is SamplerKind.PERMUTATION_DIRECT:
        return _permutation_batch(n, size, rng)
    return _bernoulli_batch(n, size, rng)


def _block_collisions(args: tuple[int, int, SamplerKind, int, int]) -> int:
    n, pairs, kind, seed, block = args
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
    function of (n, pairs, kind, seed);
    `workers` only changes how the fixed blocks are scheduled, never the
    result.  Time is linear in `pairs`; serially the blocks are generated
    one at a time, so memory does not grow with `pairs`.  n, pairs,
    seed (below 2**64) and workers follow the package's integer contract
    (README, "Inputs"); ValueError also for a `kind` that is neither a
    SamplerKind nor None.
    """
    if kind is None:
        kind = SamplerKind.BERNOULLI_SUM
    n = _check_n(n, kind)
    seed = _args.seed(seed)
    pairs = _args.integer("pairs", pairs, 1)
    workers = _args.integer("workers", workers, 1)

    tasks = (
        (n, min(BLOCK_PAIRS, pairs - start), kind, seed, block)
        for block, start in enumerate(range(0, pairs, BLOCK_PAIRS))
    )
    if workers > 1:
        # Imported only here, so `import cyclecollide` does not load the
        # pool and `logging` for the one branch that uses them.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_block = list(pool.map(_block_collisions, tasks))
    else:
        per_block = map(_block_collisions, tasks)
    collisions = sum(per_block)

    p_hat = collisions / pairs
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / pairs)
    return McEstimate(n, pairs, collisions, p_hat, std_err)
