"""Measurement helpers shared by the workloads.

Speed normalisation. The machine this benchmark was defined on shares
its host: a fixed CPU kernel's wall time drifted by 30 % and more over
tens of seconds, on both CPUs at once. So each timed
section sits between two runs of a fixed speed probe (numpy and Python
only, no ``repro`` code), and its wall time is scaled by
``PROBE_REF_S / mean(probe before, probe after)``: end-to-end times are
reported at the reference speed at which the probe takes ``PROBE_REF_S``.
The raw wall-clock values are printed beside them as ``wall.*``.
"""

from __future__ import annotations

import math
import os
import resource
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from spans import Recorder, layer_table

#: Set-ups per run: at least SETUP_REPEATS, and more (up to SETUP_MAX) until
#: SETUP_MIN_S of them have been timed; ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_MAX = 9
SETUP_MIN_S = 3.0
#: Operations measured per run even when one takes longer than ``--seconds``.
MIN_OPS = 3
#: Probe time at the reference speed (about its median on a 2-CPU Xeon VM).
PROBE_REF_S = 0.016


@dataclass
class Outcome:
    """What a workload run reports back to ``run.py``."""

    metrics: dict  # end-to-end metrics (untraced runs)
    layers: dict = field(default_factory=dict)  # per-layer metrics (traced runs)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # operations whose output check failed
    recorder: object = None  # the traced run's spans
    samples: dict = field(default_factory=dict)  # raw samples behind the metrics


class SpeedProbe:
    """A fixed mix of interpreter, matmul, FFT and memory-streaming work."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.random((160, 160))
        self._signal = rng.random(1 << 15)
        self._block = rng.random(1 << 20)
        self.samples = []  # raw probe seconds, in order

    def _kernel(self):
        total = 0
        for i in range(20000):
            total += i * i
        for _ in range(3):
            self._matrix @ self._matrix
        for _ in range(2):
            np.fft.rfft(self._signal)
        self._block.copy().sum()
        return total

    def run(self):
        """Three times the median of three kernel runs (one preemption cannot set it)."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return median(times) * 3

    def measure(self):
        """Run the probe and keep its time in ``samples``."""
        probe_s = self.run()
        self.samples.append(probe_s)
        return probe_s


class ProbedClock:
    """Times sections of work at the reference speed.

    Every section is bracketed by probes; consecutive sections share the
    probe between them. ``wall_s`` sums raw wall time, ``ref_s`` the
    same sections scaled to the reference speed.
    """

    def __init__(self, probe):
        self.probe = probe
        self._before = None
        self.wall_s = 0.0
        self.ref_s = 0.0
        self.last_factor = None  # reference seconds per wall second, last section

    def reset(self):
        self.wall_s = self.ref_s = 0.0

    def speed(self):
        """Reference seconds per wall second, from the latest probe."""
        if self._before is None:
            self._before = self.probe.measure()
        return PROBE_REF_S / self._before

    @contextmanager
    def section(self):
        self.speed()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            after = self.probe.measure()
            self.last_factor = PROBE_REF_S / (0.5 * (self._before + after))
            self.wall_s += elapsed
            self.ref_s += elapsed * self.last_factor
            self._before = after


def pin_cpus():
    """Pin this process to its first CPU; return the last one for the load generator.

    The workloads run one busy thread at a time (BLAS has one thread,
    executors are serial, the server's threads share the GIL), so this
    costs no parallelism and stops the scheduler from moving them or
    mixing them with the generator. Returns None on a one-CPU machine.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[-1] if len(cpus) > 1 else None


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values, q):
    """Nearest-rank percentile (``q`` in 0..100); misses are passed as ``inf``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(setup_steps, clock):
    """Set up several times (see SETUP_REPEATS); keep the last state.

    ``setup_steps()`` returns the set-up as a list of callables, each
    timed as one clock section; the last one returns the state. Returns
    the state, the median set-up time at reference speed and the wall
    time of each set-up.
    """
    ref, wall, state = [], [], None
    while len(ref) < SETUP_REPEATS or (sum(wall) < SETUP_MIN_S and len(ref) < SETUP_MAX):
        clock.reset()
        for step in setup_steps():
            with clock.section():
                state = step()
        ref.append(clock.ref_s)
        wall.append(clock.wall_s)
    return state, median(ref), wall


def run_ops(make_op, seconds, clock, first=0, recorder=None):
    """Run operations until ``seconds`` of wall time have passed.

    ``make_op(k)`` returns ``(steps, work, check)``: ``steps`` is a list
    of ``(name, fn)`` run in order, each one clock section (and, with a
    recorder, one root span of operation ``k``); ``check()`` runs after
    the last step and says whether the operation's outputs are correct.
    Returns ``[(ref_seconds, wall_seconds, ok, work), ...]``.
    """
    results = []
    start = time.perf_counter()
    k = first
    while len(results) < MIN_OPS or time.perf_counter() - start < seconds:
        steps, work, check = make_op(k)
        clock.reset()
        for name, fn in steps:
            span = recorder.span(name, op=k) if recorder else nullcontext()
            with clock.section(), span:
                fn()
        results.append((clock.ref_s, clock.wall_s, bool(check()), work))
        k += 1
    return results


def _throughput(results, column=0):
    """Median over operations of work per second (one slow operation cannot set it)."""
    return median([r[3] / r[column] for r in results])


def op_metrics(results, setup_s):
    """End-to-end metrics of a closed description whose unit of work is one op."""
    times = [r[0] for r in results]
    return {
        "setup_s": setup_s,
        "throughput_per_s": _throughput(results),
        "latency_p50_ms": 1e3 * median(times),
        "latency_p99_ms": 1e3 * percentile(times, 99),
        "ok_frac": sum(1 for r in results if r[2]) / len(results),
        "peak_rss_mb": peak_rss_mb(),
    }


def op_outcome(make_op, setup_steps, seconds, trace, install):
    """Set up and measure an op-based workload, untraced or traced.

    The traced run measures half its time untraced and half with the
    wrappers from ``install(recorder, state)`` in place; the throughput lost
    between the halves is ``trace.overhead_frac``. Returns the outcome,
    the set-up state and, for traced runs, ``(layer table, traced ops)``.
    """
    clock = ProbedClock(SpeedProbe())
    state, setup_s, setup_wall_s = timed_setups(setup_steps, clock)
    make = make_op(state)
    if not trace:
        results = run_ops(make, seconds, clock)
        failed = sum(1 for r in results if not r[2])
        walls = [r[1] for r in results]
        return Outcome(
            metrics=op_metrics(results, setup_s),
            attempted=len(results),
            failed=failed,
            wrong=failed,
            samples={
                "wall.setup_s": [round(w, 4) for w in setup_wall_s],
                "wall.throughput_per_s": round(_throughput(results, 1), 4),
                "wall.latency_p50_ms": round(1e3 * median(walls), 2),
                "op_ref_s": [round(r[0], 4) for r in results],
                "probe_s": [round(p, 5) for p in clock.probe.samples],
            },
        ), state, None
    plain = run_ops(make, seconds / 2, clock)
    recorder = Recorder()
    install(recorder, state)
    try:
        traced = run_ops(make, seconds / 2, clock, first=len(plain), recorder=recorder)
    finally:
        recorder.unwrap_all()
    table, leaf_s, root_s = layer_table(recorder.spans)
    both = plain + traced
    failed = sum(1 for r in both if not r[2])
    layers = {
        "trace.overhead_frac": 1.0 - _throughput(traced) / _throughput(plain),
        "trace.leaf_coverage_frac": leaf_s / root_s,
        "trace.ops": len(traced),
    }
    return Outcome(
        metrics={},
        layers=layers,
        attempted=len(both),
        failed=failed,
        wrong=failed,
        recorder=recorder,
    ), state, (table, len(traced))


def per_op(table, name, n_ops, calls=True):
    """``<name>.busy_ms`` (and ``<name>.calls``) per operation for one span name."""
    row = table.get(name, {"calls": 0, "busy_s": 0.0})
    out = {f"{name}.busy_ms": 1e3 * row["busy_s"] / n_ops}
    if calls:
        out[f"{name}.calls"] = row["calls"] / n_ops
    return out
