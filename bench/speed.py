"""The machine's speed, sampled while the timed operations run.

The cores of the sandbox this benchmark was built on switch between two
speeds, about 1.6x apart, for seconds to minutes at a time, with load from
outside the benchmark. Raw times of the same work then differ by up to 35%
between runs, even when each is the median of many passes. So a thread
times a fixed piece of reference work every PERIOD_S on the same core, and
each operation's time is scaled by NOMINAL_S over the mean reference time
sampled while the operation ran: it is reported in seconds at the speed of
an unloaded core. The sampler takes about 1% of the core, and run.py
reports the raw times beside the scaled ones.
"""

import os
import statistics
import threading
import time

import numpy as np

# Median reference time on an unloaded core of the sandbox (2-vCPU Intel
# Xeon at 2.0 GHz, numpy 2.4.6), so that scaled times read as seconds there.
NOMINAL_S = 0.00055
PERIOD_S = 0.05


def pin_to_one_cpu():
    """Keep the process and its threads on one CPU, so the sampler and the
    operations it describes share a core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reference_work(points, iterations=40):
    """Small numpy calls and Python set work, like the program's hot loops."""
    acc = 0.0
    for i in range(iterations):
        d = points - points[i % len(points)]
        acc += float(np.sqrt(np.einsum("ij,ij->i", d, d)).sum())
        acc += len({(i * 7 + j) % 97 for j in range(40)})
    return acc


class SpeedSampler:
    """Context manager: a thread that times the reference work periodically."""

    def __init__(self):
        self._samples = []          # (end time, seconds of reference work)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        points = np.random.default_rng(0).standard_normal((48, 3))
        while True:
            t0 = time.perf_counter()
            reference_work(points)
            t1 = time.perf_counter()
            self._samples.append((t1, t1 - t0))
            if self._stop.wait(PERIOD_S):
                return

    def scale(self, start, end):
        """NOMINAL_S over the mean reference time sampled in [start, end].

        An interval shorter than the period uses the samples just before and
        just after it. Call after the sampler has stopped.
        """
        inside = [d for t, d in self._samples if start <= t <= end]
        if not inside:
            before = [d for t, d in self._samples if t < start][-1:]
            after = [d for t, d in self._samples if t > end][:1]
            inside = before + after
        return NOMINAL_S / statistics.mean(inside)
