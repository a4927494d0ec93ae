"""How fast the host runs right now, next to the reference host.

A shared host runs 1.3-1.9x slow in stretches of seconds to minutes, in
CPU time as much as in wall time, so a repetition's time moves with the
host as much as with the program.  The runner therefore times two fixed
pieces of work, the probes, before and after every repetition
and divides the repetition's time by the host's slowdown around it.  That
states every time in seconds of the reference host, the 2-core x86-64
virtual machine the baseline in README.md was taken on.

Two probes, because the host does not slow all code alike: a tight loop
of integer and dict work in the interpreter slows most when the core is
shared, and numpy's vector loops, where the oracle spends its time, slow
less.  Each repetition is divided by the mean of the two slowdowns.  On
the reference host that cuts the spread of repetition times by about 40%,
more than either probe alone or a third probe that walks an object graph.  Neither
probe calls shorcost, so a change to shorcost moves the times and never
the probes.
"""

from __future__ import annotations

import time

import numpy as np

# Each probe's time on the reference host at a quiet moment, in seconds.
# They fix the scale of every time printed; comparisons between runs rely
# only on their staying the same.
REFERENCE_S = {"loop": 0.0107, "vector": 0.0044}


def loop_probe() -> int:
    """Integer arithmetic, tuples, a small dict and a growing list."""
    acc, table, items = 0, {}, []
    for i in range(60000):
        pair = (i, i * 7 % 13)
        table[i & 511] = pair
        items.append(pair[1])
        acc += len(table)
    return acc + sum(items)


_ONE = np.uint64(1)


def vector_probe() -> int:
    """Shifts, ands and xors over 4,096 64-bit lanes, 400 times: numpy's
    vector loops, with little interpreter work between them."""
    lanes = np.arange(4096, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for i in range(400):
        bit = (lanes >> np.uint64(i & 63)) & _ONE
        lanes ^= bit << np.uint64((i * 5 + 1) & 63)
    return int(lanes[7])


PROBES = {"loop": loop_probe, "vector": vector_probe}


def sample() -> dict[str, float]:
    """Seconds each probe takes now."""
    out = {}
    for name, fn in PROBES.items():
        t0 = time.perf_counter()
        fn()
        out[name] = time.perf_counter() - t0
    return out


def slowdown(samples: list[dict[str, float]]) -> float:
    """The host's slowdown over some samples: each probe's mean time over
    its reference time, averaged over the probes."""
    return sum(
        sum(s[name] for s in samples) / len(samples) / ref for name, ref in REFERENCE_S.items()
    ) / len(REFERENCE_S)
