#!/usr/bin/env python3
"""Sample cycle counts two ways and compare against the exact law.

The direct sampler counts the left-to-right minima of n random keys,
which Foata's bijection makes the cycle count of a uniform permutation;
the Bernoulli sampler uses the classical representation of the cycle
count as 1 + a sum of independent Bernoulli(1/j) indicators.  Both histograms should sit on the
exact distribution c(n,k)/n!, and the paired collision estimate should
land within a few standard errors of the exact p(n).

The comparison runs at N = 12 and the estimates at n = 10, where the
Bernoulli sampler draws by inversion: it multiplies out its Bernoulli
factors into the counts c(n, k) and maps one uniform integer below n!
onto them.  From n = 13 it draws letters 1..12 that way and skips from
one success to the next over the rest.
"""

import numpy as np

from cyclecollide import (
    SamplerKind,
    cycle_distribution,
    estimate_collision,
    p_exact,
    sample_cycle_counts,
)
from cyclecollide.montecarlo import _stream

N = 12
DRAWS = 200_000

dist = cycle_distribution(N)
print(f"cycle-count law at n = {N}, {DRAWS} draws per sampler")
print(f"{'k':>3}  {'exact':>9}  {'permutation':>11}  {'bernoulli':>11}")
print("-" * 40)
hists = {}
for kind in SamplerKind:
    draws = sample_cycle_counts(kind, N, DRAWS, _stream(0, 0))
    hists[kind] = np.bincount(draws, minlength=N + 1)[1:] / DRAWS
for k in range(1, N + 1):
    exact = float(dist.probs[k - 1])
    print(f"{k:>3}  {exact:>9.5f}  "
          f"{hists[SamplerKind.PERMUTATION_DIRECT][k - 1]:>11.5f}  "
          f"{hists[SamplerKind.BERNOULLI_SUM][k - 1]:>11.5f}")

print()
print("paired collision estimates, 10^6 pairs, seed 0:")
exact = p_exact(10).approx
for kind in SamplerKind:
    est = estimate_collision(10, 10**6, kind, seed=0)
    sigmas = abs(est.p_hat - exact) / est.std_err
    print(f"  {kind.value:>12}: p_hat = {est.p_hat:.6f} +- {est.std_err:.6f} "
          f"(exact {exact:.6f}, off by {sigmas:.2f} se)")

print()
print("rerunning with the same seed reproduces the estimate bit for bit;")
print("changing the seed moves it within the error bar:")
for seed in (0, 0, 1, 2):
    est = estimate_collision(10, 10**5, SamplerKind.PERMUTATION_DIRECT, seed=seed)
    print(f"  seed {seed}: p_hat = {est.p_hat:.6f} ({est.collisions} collisions)")
