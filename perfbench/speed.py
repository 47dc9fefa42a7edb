"""The machine's speed, sampled while a workload runs.

On a shared host the same Python code runs up to ~1.7x slower for seconds
at a time: the virtual CPU is not descheduled (process CPU time equals
wall time) but runs slower, as when a neighbour loads the other hardware
thread of its core.  Host seconds alone then say more about the
neighbours than about the program.

:class:`SpeedSampler` interrupts the workload every :data:`INTERVAL_S` of
wall time with ``SIGALRM`` and times a fixed chunk of pure-Python work
(:func:`chunk`) that is independent of the program under test, so a
faster program does not make the chunk faster.  A span of wall time is
then rescaled to the speed at which the chunk takes
:data:`REFERENCE_CHUNK_S`:

    normalised = (span - chunk time inside it) * REFERENCE_CHUNK_S / mean chunk

which reads as "host seconds on the reference machine".  The chunk's own
time is taken out of the span first.  Chunks never allocate containers,
so they never trigger the garbage collector.
"""

from __future__ import annotations

import signal
import time
from typing import List, Optional, Sequence, Tuple

clock = time.perf_counter

#: Rounds of the calibration loop in one chunk.
CHUNK_ROUNDS = 2000
#: About one chunk's duration on the 2-vCPU Intel Xeon virtual machine the
#: benchmark was written on, while its neighbours were quiet (Python 3.11.7).
REFERENCE_CHUNK_S = 0.00046
#: Wall seconds between chunks while sampling.
INTERVAL_S = 0.02

_TABLE = {key: key for key in range(256)}


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, amount: int) -> int:
        self.value = (self.value + amount) & 0xFFFF
        return self.value


_CELL = _Cell()


def chunk(rounds: int = CHUNK_ROUNDS) -> int:
    """A fixed amount of dict, attribute and call work; returns a checksum."""
    table, cell = _TABLE, _CELL
    total = 0
    for index in range(rounds):
        key = index & 255
        total += table[key] + cell.bump(key)
        table[key] = total & 255
    return total


def time_chunks(count: int) -> List[float]:
    """Durations of ``count`` chunks run back to back."""
    durations = []
    for _ in range(count):
        started = clock()
        chunk()
        durations.append(clock() - started)
    return durations


Sample = Tuple[float, float]  # (start, end) of one chunk


class SpeedSampler:
    """Times a chunk every :data:`INTERVAL_S` of wall time while started."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        self._previous = None

    def _on_alarm(self, _signum, _frame) -> None:
        started = clock()
        chunk()
        self.samples.append((started, clock()))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


def inside(samples: Sequence[Sample], spans: Sequence[Tuple[float, float]]) -> List[Sample]:
    """The chunks that ran inside any of ``spans``."""
    return [s for s in samples if any(a <= s[0] and s[1] <= b for a, b in spans)]


def mean_chunk(samples: Sequence[Sample]) -> Optional[float]:
    if not samples:
        return None
    return sum(end - start for start, end in samples) / len(samples)


def normalise(seconds: float, chunk_s: float, mean: float) -> float:
    """``seconds`` of wall time, less ``chunk_s`` of chunks, at reference speed."""
    return (seconds - chunk_s) * REFERENCE_CHUNK_S / mean
