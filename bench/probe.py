"""Time one set-up of the program in this fresh interpreter.

    python3 bench/probe.py START

Run from the root of a source checkout.  ``START`` is the runner's
``time.perf_counter()`` right before it started this interpreter; the
clock is system-wide and monotonic, so the two compare.  Prints the
seconds from ``START`` to ``levy_emm.cli`` imported, less the time spent
here timing the machine, and those seconds rescaled to nominal speed
(see ``speed.py`` for why) by an interpreted loop timed right before and
right after the import.  The loop imports nothing, so its first timing
precedes every library the program loads.
"""

import math
import sys
import time

NOMINAL_SECONDS = 1.6e-3  # the loop's time in the machine's fast state


def loop_seconds() -> float:
    """The best of five timings of the loop, in seconds."""
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        total = 0.0
        for i in range(10000):
            total += math.sqrt(i + total % 7.0)
        best = min(best, time.perf_counter() - start)
    return best


def main(start: float) -> None:
    timing = time.perf_counter()
    before = loop_seconds()
    timing = time.perf_counter() - timing
    sys.path.insert(0, "src")
    import levy_emm.cli  # noqa: F401

    seconds = time.perf_counter() - start - timing
    after = loop_seconds()
    print(seconds, seconds * NOMINAL_SECONDS / (0.5 * (before + after)))


if __name__ == "__main__":
    main(float(sys.argv[1]))
