"""Host-speed calibration: a fixed numpy/scipy kernel, timed next to every
measured iteration, so that each timing can be scaled to one reference
speed. run.py times it in its own process, between iterations, while the
measured process waits; it adds nothing to that process's memory.

The benchmark runs on a shared host whose speed drifts: the same warm
solve of standing-wave took 1.9 s to 3.4 s at different times of a day,
and within minutes it swings by 30% in a cycle of about half a minute,
with CPU time tracking wall time and no steal recorded. No run length
averages that out. The kernel below does the kind of work the solver does
(FFT convolution along t, FFTs along x and element-wise work on complex
arrays of the solve's size), so, timed on the same CPU, it slows and
speeds with the solve: over 54 warm solves of standing-wave the two times
correlated at 0.80, and the spread (quartile distance over median) of
seven-solve medians fell from 0.17 for wall time to 0.02 for wall time
scaled by the kernel. Timed on the other CPU of a two-CPU host it tracks
the solve far less well, so run.py pins the run to one CPU.

    scaled = wall * REF_S / kernel time

is the wall time the iteration would have taken on a host where the
kernel takes REF_S. The kernel's inputs are fixed, so it does the same
work in every run, whatever the seed and whatever the program under test
does; a program that gets faster or slower moves the scaled time by the
same share as its wall time.
"""
from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.signal import fftconvolve

REF_S = 0.040  # the kernel's time on the baseline machine in a calm period
REPS = 5  # kernel runs per measurement; the median is taken


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(20240602)  # fixed inputs, not the workload seed
        self.a = rng.standard_normal((256, 513)) + 1j * rng.standard_normal((256, 513))
        self.h = rng.standard_normal(513) + 0j
        self.x = rng.standard_normal((512, 1024))

    def _once(self) -> float:
        t0 = time.perf_counter()
        fftconvolve(self.a, self.h[None, :], axes=1)
        y = np.exp(1j * self.x)
        y *= self.x
        np.fft.ifft(np.fft.fft(y, axis=1), axis=1)
        return time.perf_counter() - t0

    def measure(self) -> float:
        """Median seconds of REPS runs of the kernel."""
        return statistics.median(self._once() for _ in range(REPS))


def scaled(wall_s: float, kernel_s: float) -> float:
    return wall_s * REF_S / kernel_s
