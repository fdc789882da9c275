"""Host-speed reference: a fixed JSON decode timed before every block.

On a shared host the same work can run up to about 2x slower in one
process than in the next, and the speed can also switch inside one
process, in phases lasting from a fraction of a second to many
seconds.  The benchmark therefore times a fixed reference right before
every timed block (or window of calls) and rescales that block's
wall-clock time by ``NOMINAL_REF_US / sample``: every scaled figure
reads as if the whole run had happened on a host on which the
reference takes :data:`NOMINAL_REF_US`.

The reference decodes a fixed JSON text of integer lists: C-level
parsing plus the allocation of many small Python objects.  On a 2-CPU
shared host it tracked the measured paths more closely than a
pure-Python loop, a loop of small-array NumPy calls, or a mix of the
three: across seven processes per workload it gave the lowest spread
of the scaled call rate on all four workloads, and across twelve
processes reopening one fixed durable-serve history it halved the
spread of the scaled recovery time.  A NumPy sort or a memcpy tracked
the slow phases worse still.
"""

from __future__ import annotations

import json
import statistics
import time

__all__ = ["HostRef", "JSON_TEXT", "NOMINAL_REF_US", "REF_IQR_LIMIT"]

#: decode time of :data:`JSON_TEXT` on a host running at full speed;
#: scaled figures read as if every run had happened on such a host
NOMINAL_REF_US = 900.0

#: what the reference decodes: 300 lists of 32 integers (76 KB)
JSON_TEXT = json.dumps(
    [[(i * 7919) % 1000003 for i in range(j, j + 32)] for j in range(0, 9600, 32)]
)

#: a run whose reference samples spread wider than this (interquartile
#: range over median) is flagged: its host speed moved a lot inside the
#: run, and its figures lean on the per-block scaling more than usual
REF_IQR_LIMIT = 0.5


class HostRef:
    """Reference samples of one run and the scale factors they imply."""

    def __init__(self) -> None:
        self.samples_us: list[float] = []

    def sample(self) -> float:
        """Time the reference once; returns the scale factor it implies."""
        t0 = time.perf_counter_ns()
        json.loads(JSON_TEXT)
        us = (time.perf_counter_ns() - t0) / 1e3
        self.samples_us.append(us)
        return NOMINAL_REF_US / us

    @property
    def median_us(self) -> float:
        return statistics.median(self.samples_us)

    @property
    def iqr(self) -> float:
        """Interquartile range of the samples over their median."""
        if len(self.samples_us) < 4:
            return 0.0
        q1, _, q3 = statistics.quantiles(self.samples_us, n=4)
        return (q3 - q1) / self.median_us

    @property
    def unsteady(self) -> bool:
        return self.iqr > REF_IQR_LIMIT

    def time(self, raw: float) -> float:
        """A duration as it would read on the nominal host, by the
        run's median sample (for figures not paired with a sample)."""
        return raw * NOMINAL_REF_US / self.median_us
