"""Host speed probes: fixed pieces of work, timed between jobs.

The benchmark runs on shared hosts whose speed moves by up to 1.8x for
seconds at a time, as other tenants come and go.  That swing is larger
than any bound a timing metric can carry.  So the job loop times its
workload's probe every ``every_s`` seconds, and each job time is scaled
by the probe's ``reference_s`` over the median of the probes taken nearest
to the job: a job timed while the host ran slow is scaled down by as much
as the probe slowed.  A probe is the benchmark's own code and never calls
ksubmax, so a change to the library moves the scaled times exactly as it
moves the raw ones.  The record keeps the unscaled metrics and the probe's
median next to the scaled ones.

Each workload's probe does the kind of work its jobs spend their time on,
because the host's slow spells hit kinds of work unequally:

- ``INTERPRETED``: a randomized greedy in pure Python over a fixed numpy
  table, with a fresh ``default_rng`` per trial, then dictionary, string
  and sorting work.  On the 2-vCPU shared Xeon the benchmark was tuned on,
  its slowdowns tracked those of the oracle and sampling jobs (correlation
  0.85-0.95 over 2-second buckets); a bare integer loop under-read them.
- ``MIXED``: writing a fresh 40 MB array, as the checkers write their
  fresh pair arrays, then the ``INTERPRETED`` work three times, so that
  each part takes about half the time.  The array alone halved the scatter
  of the large checks' times within a run, where ``INTERPRETED`` widened
  it; but the small and middle checks, which set the median, follow
  interpreted work more.  Over eight runs of ``check-tables``, the quartile
  spread of the median job time was 0.18 unscaled, 0.12 scaled by the
  array alone, 0.09 by ``INTERPRETED`` alone and 0.08 by both.
- ``CHILD``: a fresh interpreter that imports numpy and does the
  ``INTERPRETED`` work once, for jobs that are whole ``ksub`` processes.

Run as a script, this module does the ``INTERPRETED`` work once: that is
the ``CHILD`` probe.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Probes whose median scales one job.
NEAREST = 5

_N, _K = 6, 3
_TABLE = np.random.default_rng(12345).random((_K + 1) ** _N)
_POW = tuple((_K + 1) ** e for e in range(_N))


def interpreted_work(trials: int = 6) -> float:
    """Returns a checksum, so that no step is dead code."""
    total = 0.0
    for t in range(trials):
        rng = np.random.default_rng(t)
        s = [0] * _N
        value = float(_TABLE[0])
        for e in rng.permutation(_N).tolist():
            gains = []
            for i in range(1, _K + 1):
                s[e] = i
                gains.append(max(float(_TABLE[sum(v * p for v, p in zip(s, _POW))]) - value, 0.0))
            r, pick = rng.random() * sum(gains), _K
            for i, g in enumerate(gains, start=1):
                r -= g
                if r <= 0:
                    pick = i
                    break
            s[e] = pick
            value = float(_TABLE[sum(v * p for v, p in zip(s, _POW))])
        total += value
    counts: dict = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + len(str(i))
    ranked = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    return total + ranked[0][1]


def mixed_work() -> float:
    """Writes a fresh 40 MB array (past the allocator's reuse threshold, so
    every call maps and faults in new pages), then does the interpreted
    work three times.  Returns a checksum."""
    values = np.ones(5 << 20)
    return float(values[::4096].sum()) + sum(interpreted_work() for _ in range(3))


def child_work() -> None:
    subprocess.run([sys.executable, __file__], check=True, stdout=subprocess.DEVNULL, timeout=60)


@dataclass(frozen=True)
class Probe:
    work: Callable[[], object]
    #: Seconds the probe takes on the reference host in its usual state;
    #: scaled job times are in seconds of that host.
    reference_s: float
    #: Seconds between probes in the job loop.
    every_s: float

    def run(self) -> float:
        """Seconds the probe work takes now."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start


INTERPRETED = Probe(interpreted_work, 3.5e-3, 0.2)
MIXED = Probe(mixed_work, 2.2e-2, 0.4)
CHILD = Probe(child_work, 0.25, 0.5)


def factors(at: list, probes: list, reference_s: float, nearest: int = NEAREST) -> list:
    """For each time in ``at``, ``reference_s`` over the median of the
    ``nearest`` probes closest to it; ``probes`` is a time-ordered list of
    (time, seconds).  With no probes every factor is 1."""
    if not probes:
        return [1.0] * len(at)
    times = [t for t, _ in probes]
    out = []
    for t in at:
        i = bisect.bisect_left(times, t)
        near = sorted(probes[max(0, i - nearest):i + nearest], key=lambda p: abs(p[0] - t))
        out.append(reference_s / statistics.median(s for _, s in near[:nearest]))
    return out


if __name__ == "__main__":
    interpreted_work()
