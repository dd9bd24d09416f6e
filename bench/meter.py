"""Time stages of deterministic work against a reference run alongside them.

A virtual machine that shares its host with other tenants is slowed down in
phases: on a 2-core cloud VM, quiet and loaded phases alternated within
tens of milliseconds, their mix drifted over minutes, and a loaded phase
ran Python code about 1.9x slower.  CPU time tracked wall time, so process
CPU time does not help.  A ``Meter`` therefore runs a fixed reference computation between
small units of the stage's own work (every ``every`` solver iterations or
descent evaluations, and once after each run) and reports the run's time in
units of the reference's time: as the reference meets the same phases as
the work around it, the host's slowdown cancels out.  Sampling the
reference per unit of work, not per unit of time, makes the mean reference
time weight each phase by the work done in it, which is what the stage's
time does too.

Times are reported in seconds at the reference speed: the normalised value
multiplied by ``REF_UNIT_S``, the reference's time in the quiet phases of
that VM.  The time spent in the reference is not counted.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

REF_UNIT_S = 2.6e-4  # reference_work() in quiet phases: 2-core VM, Python 3.11, numpy 2.4

_A = 2.0 * np.eye(10)


def reference_work() -> float:
    """Python-level loop over n=10 numpy operations, like a solver iteration."""
    x = np.linspace(0.1, 1.0, 10)
    acc = 0.0
    for i in range(40):
        y = _A @ x - 0.5
        acc += float(y @ y) + math.sqrt(i + 1.0)
        x = np.clip(x - 0.01 * y, 0.0, 1.0)
    return acc


class Meter:
    """Normalised times of the runs of one stage.

    Call the meter once per unit of the stage's work (it is a valid
    ``trace_sink``); wrap each run of the stage in ``time``.
    """

    def __init__(self, every: int):
        self.every = every  # 0: only after each run
        self.values: list[float] = []  # one normalised time in s per run
        self.raw: list[float] = []  # the same runs' plain times in s
        self.ref_ns: list[int] = []
        self._units = 0

    def __call__(self, *_) -> None:
        self._units += 1
        if self.every and self._units % self.every == 0:
            self._reference()

    def _reference(self) -> None:
        t0 = time.perf_counter_ns()
        reference_work()
        self.ref_ns.append(time.perf_counter_ns() - t0)

    def time(self, fn, *args):
        """Run fn(*args) as one run of the stage, then the reference once."""
        first = len(self.ref_ns)
        t0 = time.perf_counter_ns()
        out = fn(*args)
        elapsed = time.perf_counter_ns() - t0
        self._reference()
        refs = self.ref_ns[first:]
        work = elapsed - sum(refs[:-1])
        self.raw.append(work / 1e9)
        self.values.append(work / statistics.fmean(refs) * REF_UNIT_S)
        return out

    @property
    def seconds(self) -> float:
        """Median normalised time over the runs."""
        return statistics.median(self.values)

    @property
    def slowdown(self) -> float:
        """How much slower the reference ran than REF_UNIT_S, on average."""
        return statistics.fmean(self.ref_ns) / 1e9 / REF_UNIT_S


@contextmanager
def descent_meter(meter: Meter):
    """Count each objective evaluation of the descent that checks a certificate.

    ``verify_certificate`` proves an infeasibility certificate by running
    ``minimize_over_domain`` from ``feasgame.solvers``; the descent's
    objective is wrapped to call the meter after each evaluation.  A check
    that runs no descent, such as a feasible point's, meets the reference
    only after the run.
    """
    import feasgame.solvers as solvers

    original = solvers.minimize_over_domain

    def metered(value_fn, *args, **kwargs):
        def value(x):
            v = value_fn(x)
            meter()
            return v

        return original(value, *args, **kwargs)

    solvers.minimize_over_domain = metered
    try:
        yield
    finally:
        solvers.minimize_over_domain = original
