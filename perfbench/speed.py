"""A fixed reference task that tracks how fast the shared machine runs right now.

On a shared virtual machine each core's speed changes within seconds, by
up to 2x, and CPU time slows down with it, so neither wall nor CPU time
of one run says how fast tierank is. The benchmark times this task
before and after each of its measured steps, and scales each step's time
by ``REFERENCE_S / (mean of the two task times)``: the time the step
would take on a machine where the task takes ``REFERENCE_S``. Set-ups,
seconds long each, are scaled by the median of all task times around
them instead. The task is the benchmark's own code on its own data, so
no change to tierank can move it. Its mix (many small array operations,
plus set intersections in the interpreter) resembles a tierank query,
and it slows down with the machine by about as much as the queries do.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median time of one task on a 2-core Intel Xeon VM (Python 3.11, numpy 2.4)
# in a quiet stretch. Scaled timings read as on that machine then.
REFERENCE_S = 0.0042


class Speed:
    """Times the reference task between measured steps and turns their raw times into reference times."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.rows = rng.random((80, 80))
        self.table = rng.integers(0, 10_000, size=(10_000, 25))
        self.lists = self.table[:5_000].tolist()
        self.samples: list[float] = []

    def task(self) -> int:
        """About one small tierank query's worth of work, none of it in tierank.

        Greedy steps of small array operations and fancy indexing, then set
        intersections over neighbor lists in the interpreter.
        """
        total = 0
        accum, live = np.zeros(80), np.ones(80, dtype=bool)
        for step in range(75):
            accum += self.rows[step % 80]
            best = int(np.flatnonzero(live & (accum == accum[live].max()))[0])
            live[best] = False
            block = self.table[self.table[step * 7, :10]]
            total += best + int(np.isin(block[0], block[1]).sum())
        for q in range(0, 5_000, 250):
            cand = set(self.lists[q])
            for x in self.lists[q]:
                if x < 5_000:
                    total += len(cand & set(self.lists[x]))
        return total

    def probe(self, times: int = 1) -> None:
        """Run the task ``times`` times and record the median as one sample."""
        taken = []
        for _ in range(times):
            t0 = perf_counter()
            self.task()
            taken.append(perf_counter() - t0)
        self.samples.append(float(np.median(taken)))

    def scales(self, reach: int = 2) -> list[float]:
        """Per interval between consecutive samples: REFERENCE_S over the mean of its two ends.

        Each end is the median of the samples up to ``reach`` places either
        side, which keeps one noisy sample from scaling a whole short step.
        """
        n = len(self.samples)
        ends = [float(np.median(self.samples[max(0, i - reach):i + reach + 1])) for i in range(n)]
        return [2.0 * REFERENCE_S / (a + b) for a, b in zip(ends, ends[1:])]

    def scale(self) -> float:
        """REFERENCE_S over the median of all samples, for steps too long to bracket closely."""
        return REFERENCE_S / float(np.median(self.samples))

    def note(self) -> str:
        return (f"{len(self.samples)} reference samples, median "
                f"{np.median(self.samples) * 1e3:.4f} ms (reference {REFERENCE_S * 1e3:.4f} ms)")
