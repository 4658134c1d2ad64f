"""Monte Carlo estimation of the cycle-count collision probability.

Two samplers draw the cycle count of a uniform random n-permutation:

* PERMUTATION_DIRECT shuffles 0..n-1 with an unbiased shuffle and counts
  the cycles of the result.  O(n) time per draw; this is the structural
  ground truth, for n up to PERMUTATION_MAX_N = 2**22.  A batch runs in
  chunks of about 2^13 elements (rows x n), so its memory is
  O(max(n, 2^13)) plus 8 bytes a draw for the counts.
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
# Elements (rows x n) per chunk of batched permutations: about 2^13, so
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


def _check_seed(seed: int) -> int:
    seed = _args.integer("seed", seed, 0)
    if seed >= 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def _stream(seed: int, block: int) -> np.random.Generator:
    """SFC64 stream for one block: child `block` of `SeedSequence(seed)`,
    the stream of `SeedSequence(seed).spawn(block + 1)[block]`."""
    seq = np.random.SeedSequence(seed, spawn_key=(block,))
    return np.random.Generator(np.random.SFC64(seq))


def _chunk_indices(n: int, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays for `rows` permutations of 0..n-1 laid end to end.

    Returns the identity rows (`base`, the input of the shuffle), the flat
    positions 0..rows*n-1 and each position's row offset `flat - base`.
    A chunk of fewer rows uses the leading rows*n entries of each.
    """
    base = np.tile(np.arange(n), rows)
    flat = np.arange(rows * n)
    return base, flat, flat - base


def _count_cycles_rows(
    perms: np.ndarray, flat: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Cycle count of each row of a (rows, n) batch of permutations of 0..n-1.

    `flat` and `offsets` are the batch's entries of `_chunk_indices`.
    Pointer-doubling traversal: label every position with the minimum
    index reachable in its cycle, doubling the stride each round, then
    count the positions that are their own cycle minimum.  Rows are
    offset by row * n and walked as one flat array, so a round is two
    plain gathers and an in-place minimum.  The label starts at
    min(i, pi(i)), so ceil(log2 n) - 1 rounds cover every cycle.
    """
    rows, n = perms.shape
    ptr = perms.reshape(-1) + offsets
    label = np.minimum(flat, ptr)
    for _ in range(max(0, (n - 1).bit_length() - 1)):
        ptr = ptr[ptr]
        np.minimum(label, label[ptr], out=label)
    # One segment sum per row, read from the row starts.
    return np.add.reduceat(label == flat, flat[::n], dtype=np.int64)


def _permutation_batch(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    # Each chunk shuffles its rows with one row-by-row `rng.permuted`
    # call, so the draws and the stream position do not depend on the
    # chunk size.
    counts = np.empty(size, dtype=np.int64)
    rows_per_chunk = min(size, max(1, _PERM_CHUNK_ELEMS // n))
    base, flat, offsets = _chunk_indices(n, rows_per_chunk)
    for done in range(0, size, rows_per_chunk):
        rows = min(rows_per_chunk, size - done)
        m = rows * n
        perms = rng.permuted(base[:m].reshape(rows, n), axis=1)
        counts[done : done + rows] = _count_cycles_rows(perms, flat[:m], offsets[:m])
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


def sample_cycle_count(kind: SamplerKind, n: int, rng: np.random.Generator) -> int:
    """Cycle count of one uniform random n-permutation.

    The batch of one: the same draw, and the same stream position after
    it, as `sample_cycle_counts(kind, n, 1, rng)`.
    """
    return int(sample_cycle_counts(kind, n, 1, rng)[0])


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
    seed = _check_seed(seed)
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
