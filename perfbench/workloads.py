"""Inputs of the two workloads, and the key under which each item's
reference output is stored in ``refs.json``.

The seed is an argument of the benchmark only: it sets the order of the
``ladder`` items and draws the ``sweep`` tuples; the program sees nothing
but the generated command lines.
"""

from __future__ import annotations

import random

# acceptance.PROPERTY_CONFIGS at the commit that defined the benchmark,
# copied so that a change to the acceptance suite cannot change the workload
LADDER = [
    (0, 2, 4, ("0,0:1 1", "0,0:1 1", "2,0:", "2,0:")),
    (0, 2, 5, ("0,0:1 1", "1,0:1", "2,0:", "2,0:")),
    (1, 1, 2, ("0,0:1", "1,0:")),
    (0, 2, 2, ("0,0:1", "0,0:1", "0,0:1", "1,0:")),
    (0, 2, 3, ("0,0:1",) * 4),
    (0, 2, 3, ("0,0:1", "0,0:1", "0,0:1", "1,0:")),
    (1, 1, 3, ("0,0:1", "1,0:")),
    (1, 1, 4, ("0,0:1 1", "2,0:")),
    (1, 1, 5, ("0,0:1 1", "1,0:1")),
    (2, 1, 1, ("0,0:", "0,0:")),
    (1, 1, 4, ("1,0:1", "0,0:2")),
    (0, 2, 4, ("1,0:1", "0,0:2", "2,0:", "2,0:")),
    (1, 1, 5, ("1,0:1", "0,0:2")),
    (0, 2, 5, ("1,0:1", "0,0:2", "2,0:", "2,0:")),
]

SWEEP_GKN = (0, 2, 4)
# run before the timed items: fills the wreath_H / macdonald_H caches
SWEEP_WARMUP = ("2,0:", "2,0:", "0,0:1 1", "0,0:1 1")
# The pool is the 210 multisets of size 4 of the 7 twisted class types of
# size 2 (2,0: 1,0:1 0,0:2 0,0:1 1 0,1:1 1,1: 0,2:).  Random draws over the
# whole pool, even stratified, spread a pass's time by 30-50 % across seeds
# (item times run from 1.6 to 34 s), so a pass draws one tuple from each of
# these 8 bands of 3 tuples of near-equal time.  At the commit that defined
# the benchmark, 24 tuples were picked near 8 quantiles of the pool's
# per-tuple times, then grouped in threes by their median time over three
# passes in one warm worker.  They are fixed here, so the workload never
# depends on a later measurement.  6 bands succeed; the last 2 hold recorded
# failures, the pool's share of them (52 in 210).
SWEEP_BANDS = (
    (("2,0:", "0,0:1 1", "0,1:1", "0,2:"), ("1,0:1", "0,0:2", "0,0:2", "0,2:"),
     ("2,0:", "2,0:", "0,0:2", "0,0:1 1")),
    (("1,0:1", "0,0:1 1", "0,2:", "0,2:"), ("2,0:", "1,0:1", "0,0:2", "0,1:1"),
     ("1,0:1", "0,0:1 1", "1,1:", "0,2:")),
    (("0,0:1 1", "1,1:", "1,1:", "0,2:"), ("2,0:", "1,0:1", "0,0:1 1", "1,1:"),
     ("2,0:", "1,0:1", "1,0:1", "0,0:1 1")),
    (("2,0:", "0,0:1 1", "0,0:1 1", "1,1:"), ("1,0:1", "0,0:2", "1,1:", "1,1:"),
     ("0,0:2", "0,0:1 1", "0,0:1 1", "1,1:")),
    (("0,0:1 1", "0,0:1 1", "1,1:", "1,1:"), ("1,0:1", "1,0:1", "0,0:1 1", "0,1:1"),
     ("1,0:1", "0,0:1 1", "0,0:1 1", "0,0:1 1")),
    (("2,0:", "2,0:", "2,0:", "1,0:1"), ("1,0:1", "0,0:1 1", "0,0:1 1", "0,1:1"),
     ("2,0:", "2,0:", "0,1:1", "0,1:1")),
    # recorded failures; the first is 0,2: / 2,0: / 0,0:2 / 2,0:
    (("2,0:", "2,0:", "0,0:2", "0,2:"), ("2,0:", "2,0:", "2,0:", "0,0:2"),
     ("2,0:", "0,0:2", "1,1:", "0,2:")),
    (("0,0:2", "0,0:2", "1,1:", "0,2:"), ("0,0:2", "0,0:2", "0,0:2", "0,2:"),
     ("2,0:", "0,0:2", "0,0:2", "0,0:2")),
)


def config_key(g, k, n, classes) -> str:
    return f"g={g} k={k} n={n} " + " / ".join(classes)


def compute_argv(g, k, n, classes) -> list[str]:
    argv = ["compute", "--g", str(g), "--k", str(k), "--n", str(n), "--json"]
    for c in classes:
        argv += ["--class", c]
    return argv


def ladder_order(seed: int) -> list[tuple]:
    order = list(LADDER)
    random.Random(seed).shuffle(order)
    return order


def sweep_draw(seed: int) -> list[tuple]:
    """One tuple from each band, in a seeded order."""
    rng = random.Random(seed)
    picks = [rng.choice(b) for b in SWEEP_BANDS]
    rng.shuffle(picks)
    return picks
