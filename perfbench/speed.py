"""Scale measured times to a fixed reference speed of the machine.

The machine the bounds were set on is a shared virtual machine whose speed
drifts by tens of percent over phases of seconds to minutes, in CPU time as
well as wall time.  So the benchmark times a fixed pure-Python loop, of the
kind the program runs (GF(2) elimination of ints kept in a dict), before
every task and once after the last.  A task's time is multiplied by
``REFERENCE_S / r``, where r is the median of the reference times nearest
the task; a slow phase slows the task and the reference alike.  The raw
times are kept next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 1.25e-3  # typical time of reference_loop() where the bounds were set
WINDOW = 3  # reference samples on each side of a task


def reference_loop() -> int:
    # Only ints below 256, which CPython caches, so the loop allocates almost
    # nothing and its speed does not depend on the state the last task left.
    total = 0
    for _ in range(14):
        basis: dict[int, int] = {}
        for v in range(1, 256):
            while v:
                lead = v.bit_length()
                b = basis.get(lead)
                if b is None:
                    basis[lead] = v
                    break
                v ^= b
        total += len(basis)
    return total


def time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def scale_factors(samples: list[float]) -> list[float]:
    """Factor for each of the len(samples) - 1 items timed between consecutive samples.

    Item i runs between samples[i] and samples[i + 1]; its factor uses the
    WINDOW samples before it and the WINDOW after it.
    """
    return [
        REFERENCE_S / statistics.median(samples[max(0, i + 1 - WINDOW): i + 1 + WINDOW])
        for i in range(len(samples) - 1)
    ]
