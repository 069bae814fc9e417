"""Host speed sampling, so that timings can be given at a fixed speed.

The shared hosts this benchmark runs on change speed under it: the
same pure-Python loop runs up to 1.8 times slower for seconds at a
time, in wall and CPU time alike, and a run of many repetitions can
fall wholly inside a slow stretch.  A :class:`Sampler` therefore times
a short fixed calibration loop on a background thread every
``PERIOD_S`` while a repetition runs, and :meth:`Sampler.normalize`
converts an operation's measured seconds into *reference seconds*:
the time it would have taken at the speed at which the calibration
loop takes ``REFERENCE_S``.  Work ``W`` done at varying speed takes
``sum(dt)``; at the reference speed it takes
``sum(dt * REFERENCE_S / c(t))`` for the calibration time ``c(t)``
nearest each slice, which is what ``normalize`` computes from the
samples taken over the operation.

A sample costs 1.2 to 2.4 ms per period (about 2 % of the main
thread's time through the GIL), the same in every repetition.  Its
own noise averages out over an operation's samples: over 2-second
blocks of eval-sweep's warm passes, where measured times moved by a
quarter between quartiles, reference times moved by 8 %.
"""

from __future__ import annotations

import bisect
import threading
import time

#: Seconds between two samples.
PERIOD_S = 0.1
#: Calibration-loop seconds that define the reference speed (the fast
#: stretches of a 2.1 GHz Xeon vCPU under Python 3.11).
REFERENCE_S = 0.0006
#: Samples this far either side of an operation count towards it, so
#: that an operation shorter than a period still has several.
MARGIN_S = 0.5


#: Iterations of the calibration loop and rounds of it per sample.
ITERATIONS = 1000
ROUNDS = 2


def calibration_s() -> float:
    """The fastest of ``rounds`` timings of a fixed loop of dict,
    string and call work (the fastest, so that a thread switch inside
    one round does not read as a slow host)."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        table: dict[str, int] = {}
        text = ""
        for i in range(ITERATIONS):
            key = "k%d" % (i % 97)
            table[key] = table.get(key, 0) + len(text)
            text = (text + key)[-40:]
            sorted((i, 3, 1))
        best = min(best, time.perf_counter() - start)
    return best


class Sampler:
    """Samples :func:`calibration_s` on a daemon thread until stopped."""

    def __init__(self) -> None:
        #: ``time.monotonic()`` of each sample and its calibration time.
        self.times: list[float] = []
        self.values: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="perfbench-speed")

    def start(self) -> "Sampler":
        self.sample()
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stops sampling; call before :meth:`normalize`, so that the
        samples after the last operation exist.  Idempotent."""
        if self._stop.is_set():
            return
        self._stop.set()
        self._thread.join()
        self.sample()

    def sample(self) -> None:
        value = calibration_s()
        self.times.append(time.monotonic())
        self.values.append(value)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Mean of ``REFERENCE_S / c`` over the samples from
        ``start - MARGIN_S`` to ``end + MARGIN_S`` (monotonic clock);
        the nearest sample when none falls inside."""
        times = self.times
        low = bisect.bisect_left(times, start - MARGIN_S)
        high = bisect.bisect_right(times, end + MARGIN_S)
        if low >= high:
            nearest = min(range(len(times)),
                          key=lambda i: abs(times[i] - start))
            low, high = nearest, nearest + 1
        values = self.values[low:high]
        return sum(REFERENCE_S / value for value in values) / len(values)

    def normalize(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured from ``start`` to ``end`` (monotonic
        clock) as reference seconds."""
        return seconds * self.factor(start, end)
