"""Reference loop and the meter that normalises wall times by it.

The machine this benchmark was tuned on slows down in whole-process
epochs: two processes running the same code can differ by 20 % in raw
wall time while the ratio of that time to a fixed pure-Python loop run
beside it moves by a few percent. So every timed call is followed by one
sample of a reference loop that imports nothing from medledger (SHA-256
chaining plus dict inserts, the two things the ledger does most), and
every reported time is scaled by

    REFERENCE_NOMINAL_S / median(reference samples around that call)

which turns "seconds on this process, now" into "seconds on a process
whose reference loop takes REFERENCE_NOMINAL_S".
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import defaultdict

REFERENCE_ITERATIONS = 1500
# Median of one reference sample, measured on the 2-core box the bounds
# were set on (Python 3.11.7); see README.md. Only the ratio matters, so
# this constant never needs re-measuring: it fixes the unit.
REFERENCE_NOMINAL_S = 0.00125
WINDOW = 10


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> int:
    """Fixed pure-Python work: chain SHA-256 digests and insert each in a dict."""
    digest = bytes(32)
    table: dict[bytes, int] = {}
    for i in range(iterations):
        digest = hashlib.sha256(digest + i.to_bytes(4, "big")).digest()
        table[digest] = i
    return len(table)


class Meter:
    """Times calls by kind and takes one reference sample after each.

    `tracer`, when given, is told which operation is running so that the
    spans it records carry the operation id.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.reference: list[float] = []
        self.timeline: list[tuple[str, float, int]] = []  # (kind, seconds, index of the next reference sample)

    def sample_reference(self) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.reference.append(time.perf_counter() - t0)

    def time(self, kind: str, fn, *args):
        """Run fn(*args) as one operation of `kind`; returns its result."""
        if self.tracer is not None:
            self.tracer.begin_op(len(self.timeline) + 1, kind)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.timeline.append((kind, time.perf_counter() - t0, len(self.reference)))
            if self.tracer is not None:
                self.tracer.end_op()
            self.sample_reference()

    def by_kind(self, normalised: bool = True) -> dict[str, list[float]]:
        """Seconds per operation, by kind, in timeline order.

        Normalised, each time is scaled by the median of the WINDOW
        reference samples on either side of it (and the one right after
        it): the machine's speed changes within a run as well as between
        runs, and a local median follows it.
        """
        out: dict[str, list[float]] = defaultdict(list)
        for kind, seconds, i in self.timeline:
            if normalised:
                window = self.reference[max(0, i - WINDOW) : i + WINDOW + 1]
                seconds *= REFERENCE_NOMINAL_S / statistics.median(window)
            out[kind].append(seconds)
        return out


def normalising_factor(reference: list[float]) -> float:
    """Scale from a run's wall seconds to nominal-reference seconds."""
    return REFERENCE_NOMINAL_S / statistics.median(reference)
