"""Host-speed calibration for the end-to-end times.

On a shared host the CPU speed a process gets can drift by tens of percent
over tens of seconds, which swamps run-to-run comparisons. A fixed loop,
timed right before and right after each measured interval, tracks that
drift. ``scaled`` reports an interval in reference seconds: the time it
would have taken had the loop run in ``REF_S``. The loop is timed on both
clocks: wall intervals are scaled by its wall time and CPU intervals by its
CPU time, so time the host steals from the process, which stretches wall
time but not CPU time, does not leak into scaled CPU seconds.

The loop does what sentiq's ingest does most, regex substitution and
string splitting over short words; on a 2-vCPU VM it tracked the speed of
cleaning and CSV parsing about twice as well as a pure integer loop did,
and Q-learning as well. It calls nothing in sentiq, so a change to sentiq
moves scaled and raw times by the same factor.
"""

from __future__ import annotations

import random
import re
import time

CAL_CHUNKS = 3
CAL_ROUNDS = 6
REF_S = 0.012

_rng = random.Random(0)
_TEXT = " ".join("".join(_rng.choice("abcdefghij") for _ in range(8)) for _ in range(4000))
_RUN_RE = re.compile(r"(.)\1{2,}")


def calibrate(rounds: int = CAL_ROUNDS) -> tuple[float, float]:
    """Wall and CPU seconds the reference loop of ``rounds`` rounds takes now.

    The loop runs ``CAL_CHUNKS`` times and the fastest run counts, so a
    preemption that lands in one run does not skew the scale.
    """
    walls, cpus = [], []
    for _ in range(CAL_CHUNKS):
        t0, c0 = time.perf_counter(), time.process_time()
        for _ in range(rounds):
            _RUN_RE.sub("x", _TEXT)
            _TEXT.split()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    return min(walls), min(cpus)


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    return seconds * REF_S * 2.0 / (cal_before + cal_after)
