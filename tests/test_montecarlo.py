import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

import cyclecollide
from cyclecollide import (
    BERNOULLI_MAX_N,
    SamplerKind,
    cycle_distribution,
    estimate_collision,
    harmonic,
    montecarlo,
    p_exact,
    sample_cycle_count,
    sample_cycle_counts,
)
from cyclecollide.montecarlo import (
    BLOCK_PAIRS,
    PERMUTATION_MAX_N,
    _chunk_indices,
    _count_cycles_rows,
    _stream,
)
from oracles import bernoulli_batch_by_index, count_cycles


def chi_square_pvalue(draws, n):
    probs = np.array([float(p) for p in cycle_distribution(n).probs])
    counts = np.bincount(draws, minlength=n + 1)[1:]
    expected = probs * counts.sum()
    # Pool each tail's bins expecting fewer than 5 draws into its last
    # well-filled bin.
    lo, hi = np.flatnonzero(expected >= 5)[[0, -1]]

    def pooled(v):
        middle = v[lo + 1 : hi]
        return np.concatenate([[v[: lo + 1].sum()], middle, [v[hi:].sum()]])

    counts, expected = pooled(counts), pooled(expected)
    stat = ((counts - expected) ** 2 / expected).sum()
    return chi2.sf(stat, counts.size - 1)


# ------------------------------------------------------------ sampling

@pytest.mark.parametrize("kind", SamplerKind)
def test_n1_always_one_cycle(kind):
    rng = _stream(0, 0)
    assert all(sample_cycle_count(kind, 1, rng) == 1 for _ in range(20))
    assert (sample_cycle_counts(kind, 1, 100, rng) == 1).all()


@pytest.mark.parametrize("kind", SamplerKind)
def test_n2_is_fair_coin(kind):
    draws = sample_cycle_counts(kind, 2, 40000, _stream(7, 0))
    assert set(np.unique(draws)) == {1, 2}
    # exact law is 1/2-1/2; 40000 draws keep the mean within 5 sigma
    assert abs(draws.mean() - 1.5) <= 5 * 0.5 / math.sqrt(40000)


@pytest.mark.parametrize("kind", SamplerKind)
def test_draws_within_range(kind):
    draws = sample_cycle_counts(kind, 9, 5000, _stream(3, 1))
    assert draws.min() >= 1 and draws.max() <= 9


@pytest.mark.parametrize("kind", SamplerKind)
def test_batch_sampler_matches_exact_law(kind):
    for n in (6, 50, 200):
        draws = sample_cycle_counts(kind, n, 10**5, _stream(0, n))
        assert chi_square_pvalue(draws, n) >= 1e-6, n


@pytest.mark.parametrize("kind", SamplerKind)
def test_single_draw_path_matches_exact_law(kind):
    rng = _stream(11, 0)
    draws = np.array([sample_cycle_count(kind, 5, rng) for _ in range(20000)])
    assert chi_square_pvalue(draws, 5) >= 1e-6


def test_permutation_batch_chunking_is_consistent():
    # The batch spans several chunks: distribution unaffected, law exact.
    n, size = 12, 3 * 10**4
    assert size > montecarlo._PERM_CHUNK_ELEMS // n
    draws = sample_cycle_counts(SamplerKind.PERMUTATION_DIRECT, n, size, _stream(5, 2))
    assert chi_square_pvalue(draws, n) >= 1e-6


@pytest.mark.parametrize("n", [1, 2, 3, 10, 257, 2**15 - 1, 2**15 + 1])
def test_cycle_counter_matches_plain_walk(n):
    rows = 300 if n < 1000 else 3
    base, flat, offsets = _chunk_indices(n, rows)
    perms = np.random.default_rng(n).permuted(base.reshape(rows, n), axis=1)
    want = [count_cycles(tuple(p)) for p in perms.tolist()]
    assert _count_cycles_rows(perms, flat, offsets).tolist() == want
    # A batch of two chunks and one row more draws the rows that one
    # row-by-row shuffle of the whole batch draws, and leaves the stream
    # at the same position.
    size = 2 * max(1, montecarlo._PERM_CHUNK_ELEMS // n) + 1
    rng, ref = _stream(n, 0), _stream(n, 0)
    got = sample_cycle_counts(SamplerKind.PERMUTATION_DIRECT, n, size, rng)
    perms = ref.permuted(np.tile(np.arange(n), (size, 1)), axis=1)
    assert got.tolist() == [count_cycles(tuple(p)) for p in perms.tolist()]
    assert rng.random() == ref.random()


def test_permutation_batch_memory_is_bounded_per_chunk():
    # The working arrays are those of one chunk, a few int64 arrays of
    # about _PERM_CHUNK_ELEMS entries; only the counts, 8 bytes a draw,
    # grow with the batch.
    size = 10**5
    tracemalloc.start()
    try:
        sample_cycle_counts(SamplerKind.PERMUTATION_DIRECT, 12, size, _stream(0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 8 * montecarlo._PERM_CHUNK_ELEMS + 8 * size


def test_permutation_direct_counts_are_pinned():
    # Pins the SFC64 block streams, the one call of 2p draws per block
    # and its halves pairing, and the shuffle and cycle counter, over 4
    # and 2 blocks, each with a short last block.
    kind = SamplerKind.PERMUTATION_DIRECT
    assert estimate_collision(10, 50000, kind, seed=3).collisions == 11917
    assert estimate_collision(257, 20000, kind, seed=4).collisions == 2624


def test_default_sampler_counts_are_pinned():
    # Pins the SFC64 block streams, the halves pairing and the jump
    # sampler, with a short last block in both cases.
    assert estimate_collision(10, 3 * BLOCK_PAIRS + 17, seed=5).collisions == 11857
    assert estimate_collision(10**9, 2 * BLOCK_PAIRS + 1, seed=6).collisions == 2056


# (kind, n) -> sha256 prefix of 300 single draws from the SFC64 stream
# _stream(1, 2), and the next rng.random() after them, which pins the
# stream position.
_SINGLE_DRAW_PINS = {
    (SamplerKind.PERMUTATION_DIRECT, 1): ("6e7601f602122027", "0x1.62bec232c86c0p-2"),
    (SamplerKind.PERMUTATION_DIRECT, 5): ("4bcdabb34c1c8fbf", "0x1.9b54ee66725bap-1"),
    (SamplerKind.PERMUTATION_DIRECT, 1000): ("869b33ee8aaf3265", "0x1.11f860bccf931p-1"),
    (SamplerKind.BERNOULLI_SUM, 1): ("6e7601f602122027", "0x1.7771b03fcf1f6p-1"),
    (SamplerKind.BERNOULLI_SUM, 5): ("3a6461edf2492a40", "0x1.53a0a54cc7c74p-1"),
    (SamplerKind.BERNOULLI_SUM, 1000): ("523299fd4a65434f", "0x1.8ef20ed57875cp-3"),
    (SamplerKind.BERNOULLI_SUM, 2**40): ("f97c9ac73d001d27", "0x1.66074ad6d777ep-1"),
}


@pytest.mark.parametrize("kind, n", list(_SINGLE_DRAW_PINS))
def test_single_draw_counts_are_pinned(kind, n):
    # The batch of one: its draws, and how many uniforms each draw takes
    # from the stream, for both samplers.
    rng = _stream(1, 2)
    draws = [sample_cycle_count(kind, n, rng) for _ in range(300)]
    digest = hashlib.sha256(repr(draws).encode()).hexdigest()[:16]
    assert (digest, rng.random().hex()) == _SINGLE_DRAW_PINS[kind, n]


def test_serial_blocks_are_generated_lazily(monkeypatch):
    # 10^5 blocks with a no-op block body: the serial loop must not hold
    # one task per block (~10 MB as a list).
    monkeypatch.setattr(montecarlo, "_block_collisions", lambda task: 0)
    tracemalloc.start()
    try:
        est = estimate_collision(10, 10**5 * BLOCK_PAIRS, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.collisions == 0
    assert peak < 100_000


@pytest.mark.parametrize(
    "n", [1, 2, 3, 5, 9, 27, 1000, 2**40, BERNOULLI_MAX_N - 1, BERNOULLI_MAX_N]
)
def test_bernoulli_batch_matches_index_tracking_loop(n):
    # The mask-replay batch draws what the index-tracking loop draws: the
    # same int64 counts and the same stream position after them.
    for size in (1, 2, 7, 2**14, 10**5):
        for stream in range(3):
            rng, ref = _stream(stream, n % 2**32), _stream(stream, n % 2**32)
            got = montecarlo._bernoulli_batch(n, size, rng)
            want = bernoulli_batch_by_index(n, size, ref)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want), (size, stream)
            assert rng.random() == ref.random(), (size, stream)


class _ZeroUniforms:
    """A generator whose uniforms are all 0: every index is a success."""

    def random(self, size):
        return np.zeros(size)


@pytest.mark.parametrize("n", [300, 2**15 + 3])
def test_bernoulli_replay_counts_past_a_narrow_type(n):
    # With U = 1 every index is a success, so each draw runs n rounds and
    # its count is n; the replay must hold counts above 255 and 2^15.
    got = montecarlo._bernoulli_batch(n, 3, _ZeroUniforms())
    assert got.dtype == np.int64
    assert got.tolist() == [n] * 3
    assert bernoulli_batch_by_index(n, 3, _ZeroUniforms()).tolist() == [n] * 3


@pytest.mark.parametrize("n", [10**12, BERNOULLI_MAX_N])
def test_bernoulli_batch_memory_per_draw(n):
    # The round masks take a byte per draw per round, H_n bytes a draw on
    # average (37.4 at n = 2^53), beside the counts and the live indices.
    size = 10**5
    tracemalloc.start()
    try:
        sample_cycle_counts(SamplerKind.BERNOULLI_SUM, n, size, _stream(0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * size


def test_bernoulli_moments_at_huge_n():
    # Mean H_n and variance H_n - H_n^(2) of 1 + sum_{j=2..n} Bernoulli(1/j).
    n, size = 10**12, 10**5
    draws = sample_cycle_counts(SamplerKind.BERNOULLI_SUM, n, size, _stream(4, 0))
    mean = harmonic(n)
    var = mean - (math.pi**2 / 6 - 1.0 / n)
    assert abs(draws.mean() - mean) <= 5 * math.sqrt(var / size)


def test_bernoulli_rejects_n_above_max():
    rng = _stream(0, 0)
    kind = SamplerKind.BERNOULLI_SUM
    assert sample_cycle_count(kind, BERNOULLI_MAX_N, rng) >= 1
    assert sample_cycle_counts(kind, BERNOULLI_MAX_N, 10, rng).min() >= 1
    with pytest.raises(ValueError, match="BERNOULLI_MAX_N"):
        sample_cycle_counts(kind, BERNOULLI_MAX_N + 1, 10, rng)
    with pytest.raises(ValueError, match="BERNOULLI_MAX_N"):
        sample_cycle_count(kind, BERNOULLI_MAX_N + 1, rng)
    with pytest.raises(ValueError, match="BERNOULLI_MAX_N"):
        estimate_collision(BERNOULLI_MAX_N + 1, 10)


def test_permutation_rejects_n_above_max():
    # Above the limit the batch arrays would not fit in memory.
    rng = _stream(0, 0)
    kind = SamplerKind.PERMUTATION_DIRECT
    assert cyclecollide.PERMUTATION_MAX_N == 2**22
    for n in (PERMUTATION_MAX_N + 1, 2**53 + 1, 10**309):
        with pytest.raises(ValueError, match="PERMUTATION_MAX_N"):
            sample_cycle_counts(kind, n, 10, rng)
        with pytest.raises(ValueError, match="PERMUTATION_MAX_N"):
            sample_cycle_count(kind, n, rng)
        with pytest.raises(ValueError, match="PERMUTATION_MAX_N"):
            estimate_collision(n, 10, kind)


def test_default_sampler_is_bernoulli_sum():
    for n in (2, 10**4, 10**4 + 1):
        assert estimate_collision(n, 5000, seed=3) == estimate_collision(
            n, 5000, SamplerKind.BERNOULLI_SUM, seed=3
        )


# ------------------------------------------------------------ estimates

def test_estimate_n1_certain_collision():
    est = estimate_collision(1, 100, SamplerKind.PERMUTATION_DIRECT, seed=42)
    assert est.p_hat == 1.0
    assert est.std_err == 0.0
    assert est.collisions == est.samples == 100


def test_estimate_matches_exact_within_4_sigma():
    est = estimate_collision(10, 10**5, SamplerKind.PERMUTATION_DIRECT, seed=0)
    exact = p_exact(10).approx
    assert abs(est.p_hat - exact) <= 4 * est.std_err
    assert est.p_hat == est.collisions / est.samples
    assert est.std_err == pytest.approx(
        math.sqrt(est.p_hat * (1 - est.p_hat) / est.samples)
    )


def test_estimate_deterministic_and_worker_invariant():
    base = estimate_collision(8, 3 * BLOCK_PAIRS + 17, seed=123)
    again = estimate_collision(8, 3 * BLOCK_PAIRS + 17, seed=123)
    threaded = estimate_collision(8, 3 * BLOCK_PAIRS + 17, seed=123, workers=4)
    assert base == again == threaded


@pytest.mark.parametrize("kind", SamplerKind)
def test_block_pairs_are_the_halves_of_one_call(kind):
    # Block b draws its p pairs as one call of 2p counts from
    # _stream(seed, b), and pair i is draws i and p + i.
    n, seed, pairs = 7, 21, 3 * BLOCK_PAIRS + 17
    want = 0
    for block, start in enumerate(range(0, pairs, BLOCK_PAIRS)):
        p = min(BLOCK_PAIRS, pairs - start)
        d = sample_cycle_counts(kind, n, 2 * p, _stream(seed, block))
        want += int((d[:p] == d[p:]).sum())
    assert estimate_collision(n, pairs, kind, seed=seed).collisions == want


@pytest.mark.parametrize("seed, block", [(0, 0), (9, 3), (2**64 - 1, 0), (2**64 - 1, 5)])
def test_block_stream_is_a_seed_sequence_child(seed, block):
    # numpy's documented child-stream derivation: block b is SFC64 on
    # child b of SeedSequence(seed).
    child = np.random.SeedSequence(seed).spawn(block + 1)[block]
    want = np.random.Generator(np.random.SFC64(child))
    got = _stream(seed, block)
    assert type(got.bit_generator) is np.random.SFC64
    assert got.random(8).tolist() == want.random(8).tolist()
    assert got.integers(2**63, size=8).tolist() == want.integers(2**63, size=8).tolist()


def test_block_streams_are_distinct():
    # Seeds and blocks both in 0..3, so swapping them is covered too.
    seeds = (0, 1, 2, 3, 2**64 - 1)
    firsts = {_stream(seed, block).random() for seed in seeds for block in range(4)}
    assert len(firsts) == len(seeds) * 4


def test_estimate_seed_sensitivity():
    a = estimate_collision(6, 10**4, seed=0)
    b = estimate_collision(6, 10**4, seed=1)
    assert a.collisions != b.collisions  # astronomically unlikely to tie


def test_both_samplers_give_compatible_estimates():
    exact = p_exact(12).approx
    for kind in SamplerKind:
        est = estimate_collision(12, 10**5, kind, seed=9)
        assert abs(est.p_hat - exact) <= 4.5 * est.std_err


def test_coverage_of_two_sigma_band():
    # normal-approximation sanity: >= 90% of seeds land within 2 se
    exact = p_exact(10).approx
    hits = 0
    for seed in range(200):
        est = estimate_collision(10, 10**4, SamplerKind.PERMUTATION_DIRECT, seed=seed)
        if abs(est.p_hat - exact) <= 2 * est.std_err:
            hits += 1
    assert hits >= 180


# ------------------------------------------------------------ validation

@pytest.mark.parametrize("kind", ["permutation", "bernoulli", 1, SamplerKind])
def test_unknown_sampler_kind_is_rejected(kind):
    # Only a SamplerKind (or None for estimate_collision) picks a sampler;
    # the kind's value string used to run BERNOULLI_SUM silently.
    with pytest.raises(ValueError, match="unknown sampler kind"):
        estimate_collision(7, 5000, kind=kind, seed=3)
    with pytest.raises(ValueError, match="unknown sampler kind"):
        estimate_collision(2**30, 10, kind=kind)
    with pytest.raises(ValueError, match="unknown sampler kind"):
        sample_cycle_counts(kind, 7, 10, _stream(0, 0))
    with pytest.raises(ValueError, match="unknown sampler kind"):
        sample_cycle_count(kind, 7, _stream(0, 0))


def test_validation_errors():
    # n, pairs, size, workers and the seed's sign and type are the integer
    # contract's (tests/test_args.py); the seed's 64-bit bound is the
    # sampler's own.
    with pytest.raises(ValueError, match="64-bit"):
        estimate_collision(5, 10, seed=2**64)
    assert estimate_collision(5, 10, seed=2**64 - 1).samples == 10


def test_integral_arguments_are_taken_as_ints():
    # Integral floats and numpy ints draw what the plain ints draw.
    want = estimate_collision(10, 3000, seed=3)
    assert estimate_collision(10.0, 3000.0, seed=3.0) == want
    assert estimate_collision(np.int64(10), np.int32(3000), seed=np.uint64(3)) == want
    assert type(estimate_collision(10.0, 3000).n) is int
    for kind in SamplerKind:
        got = sample_cycle_counts(kind, 9.0, 2.0, _stream(1, 1))
        assert got.tolist() == sample_cycle_counts(kind, 9, 2, _stream(1, 1)).tolist()
