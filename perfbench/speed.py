"""Correct wall times for the host's momentary speed.

On a shared host the same single-threaded Python work can take anywhere
from 1x to 2.4x its best time, in phases lasting seconds (measured on a
2-vCPU VM: a fixed loop's time drifted between those bounds over 90 s).
Raw wall times then differ more between runs than any change worth
detecting.  The meter runs a fixed pure-Python calibration unit about every
:data:`CALIBRATE_EVERY_S` of measured work; the ratio of its time to
:data:`REFERENCE_UNIT_S` is the host's slowdown at that moment, and each
stretch of work between two calibrations is divided by the mean slowdown at
its two ends.  Reported times are therefore "reference seconds": wall
seconds on a host that runs the calibration unit in
:data:`REFERENCE_UNIT_S`.  The constant only scales the numbers;
comparisons between commits hold on any host.  Calibrating costs a few
percent of the measured time and is left out of it.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

# Time of one calibration unit on the reference host (2-vCPU Xeon VM, Python 3.11).
REFERENCE_UNIT_S = 0.00127
CALIBRATE_EVERY_S = 0.1    # measured wall time between calibrations
UNITS_PER_SAMPLE = 3       # units per calibration; the fastest counts
WORKING_SET = 1 << 24      # bytes of calibration memory (a power of two)
UNIT_STEPS = 3_000         # loop steps in one calibration unit


def _working_set() -> bytearray:
    """Memory the unit reads at random: large enough to miss the caches, as
    the simulated system's heap does, and invisible to the garbage
    collector, so it does not change the collections being measured."""
    return bytearray(random.Random(0).randbytes(WORKING_SET))


def calibration_unit(memory: bytearray, table: Dict[int, int]) -> float:
    """Seconds to run a fixed mix of interpreter work: integer arithmetic,
    random reads of ``memory`` and dict updates."""
    begin = time.perf_counter()
    mask = len(memory) - 1
    index = total = 0
    for step in range(UNIT_STEPS):
        index = (index * 1_103_515_245 + 12_345 + step) & mask
        total += memory[index]
        table[index & 255] = total
    return time.perf_counter() - begin


class Stretch:
    """Measured work between :meth:`SpeedMeter.stretch` entry and exit."""

    def __init__(self) -> None:
        self.total = 0.0   # reference seconds
        self.wall = 0.0    # wall seconds, calibration and exclusions left out


class SpeedMeter:
    """Tracks the host's slowdown and converts measured work to reference
    seconds.

    Work is measured in stretches, which may nest.  Call :meth:`tick`
    between pieces of work; it recalibrates once :data:`CALIBRATE_EVERY_S`
    has passed, closing a segment: the segment's wall time, less calibration
    and :meth:`exclude`-d time, is divided by the mean slowdown at its two
    ends and added to every open stretch.  Short timed calls are corrected
    the same way through :meth:`record`.
    """

    def __init__(self) -> None:
        self.slowdown = 1.0
        self._memory = _working_set()
        self._table: Dict[int, int] = {}
        self._open: List[Stretch] = []
        # samples taken in the current segment: (list, index, wall seconds,
        # scale), corrected once the segment closes
        self._recent: List[Tuple[List[float], int, float, float]] = []
        self._segment_start = time.perf_counter()
        self._skipped = 0.0
        self.calibrate()

    def calibrate(self) -> None:
        """Measure the slowdown now and close the current segment."""
        work = time.perf_counter() - self._segment_start - self._skipped
        before = self.slowdown
        unit = min(
            calibration_unit(self._memory, self._table) for _ in range(UNITS_PER_SAMPLE)
        )
        self.slowdown = unit / REFERENCE_UNIT_S
        mean = (before + self.slowdown) / 2.0
        for stretch in self._open:
            stretch.total += work / mean
            stretch.wall += work
        for values, index, wall, scale in self._recent:
            values[index] = wall / mean * scale
        self._recent.clear()
        self._segment_start = time.perf_counter()
        self._skipped = 0.0

    def tick(self) -> None:
        if time.perf_counter() - self._segment_start >= CALIBRATE_EVERY_S:
            self.calibrate()

    def exclude(self, action: Callable[[], object]) -> None:
        """Run ``action`` without counting its time as measured work."""
        begin = time.perf_counter()
        action()
        self._skipped += time.perf_counter() - begin

    @contextmanager
    def stretch(self) -> Iterator[Stretch]:
        measured = Stretch()
        self.calibrate()
        self._open.append(measured)
        try:
            yield measured
        finally:
            self.calibrate()
            self._open.remove(measured)

    def record(self, values: List[float], wall_seconds: float, scale: float = 1.0) -> None:
        """Append ``wall_seconds`` (times ``scale``) to ``values`` in
        reference units, corrected by the mean slowdown of the calibrations
        just before and just after it."""
        values.append(wall_seconds / self.slowdown * scale)
        self._recent.append((values, len(values) - 1, wall_seconds, scale))
