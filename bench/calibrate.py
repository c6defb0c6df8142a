"""Speed index of the box, measured while the benchmark runs.

The reference box is a 2-vCPU VM whose effective core speed moves by
tens of percent at the seconds-to-minutes scale: ten consecutive runs of
one workload, identical work, went from 147 to 206 frames/s in three
minutes with zero steal time, and set-up from 4.3 s to 3.1 s with them.
Every wall-clock number of a run carries that factor, which is wider
than any regression bound; a fixed piece of work timed *next to* the
measured work carries the same factor and nothing else.

:meth:`Calibrator.read` times that fixed piece of work: the kinds of
work the program does (a conv-shaped single-precision GEMM, the strided
gather copies before it, elementwise passes, interpreter-bound Python),
in NumPy only — it calls no program code, so no change to the program
can move it.  The device takes a reading before and after its set-up and
around every timed round, always with no session open and the server
idle: a reading taken while the device plays came out 30 % slower on the
fan-out workloads, because the server process was still busy on the
other vCPU — a property of the program, which a speed index must not
see.  :mod:`bench.report` divides the timing metrics by ``mean reading /
NOMINAL_S``, which states them in seconds of a box running at the
nominal speed.  Raw seconds and every reading stay in the raw block.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: ``Calibrator.read()`` on the reference box at the speed the
#: baselines were taken at.  A constant of the benchmark, not of the
#: program: changing it rescales every timing metric of every commit
#: alike.
NOMINAL_S = 0.0046

#: Passes of the work in one reading.
_PASSES = 12

_CHANNELS, _HEIGHT, _WIDTH = 48, 64, 96


class Calibrator:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        taps = 9 * _CHANNELS
        self._weight = rng.random((_CHANNELS, taps), dtype=np.float32)
        self._image = rng.random((_CHANNELS, _HEIGHT + 2, _WIDTH + 2), dtype=np.float32)
        self._columns = np.empty((taps, _HEIGHT * _WIDTH), dtype=np.float32)
        self._out = np.empty((_CHANNELS, _HEIGHT * _WIDTH), dtype=np.float32)
        self._work()  # first touch of the buffers is not the box's speed

    def _work(self) -> int:
        # im2col of a 3x3 window, then the GEMM and the elementwise tail
        # of a conv + ReLU, as the engine's kernels do
        row = 0
        for dy in range(3):
            for dx in range(3):
                self._columns[row:row + _CHANNELS] = self._image[
                    :, dy:dy + _HEIGHT, dx:dx + _WIDTH
                ].reshape(_CHANNELS, -1)
                row += _CHANNELS
        np.matmul(self._weight, self._columns, out=self._out)
        np.maximum(self._out, 0.0, out=self._out)
        self._out *= 0.5
        # interpreter-bound bookkeeping: dict and integer traffic
        table, acc = {}, 0
        for i in range(4000):
            table[i & 63] = acc
            acc += table.get((i * 7) & 63, 1) & 0xFF
        return acc

    def read(self) -> float:
        """Seconds this box takes for the fixed calibration work, now:
        the median of a few passes, after one that warms the buffers
        (how cold the program left them is not the box's speed)."""
        self._work()
        passes = []
        for _ in range(_PASSES):
            start = time.perf_counter()
            self._work()
            passes.append(time.perf_counter() - start)
        return statistics.median(passes)
