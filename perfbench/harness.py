"""Timing, host calibration, failure accounting and statistics.

Every workload is a closed loop: one thread issues the next operation only
after the previous one returned.  The host's speed drifts between states
about 1.7x apart on sub-second time scales, so a ``HostClock`` runs a fixed
pure-Python calibration loop (independent of hyperk) on a SIGALRM timer
every 100 ms, interleaved with the work in the same thread.  An operation's
raw time excludes the time spent in those interruptions; its host-corrected
time is the raw time multiplied by ``REFERENCE_CALIBRATION_MS`` over the mean
calibration time sampled during the operation (and one interval around it).
Reported times read as if the host always ran at the reference speed; raw
times are kept beside them.  A workload whose ops this loop does not track
sets their factor itself (``Series.set_factor``; see frontends.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

#: The reference speed: host-corrected times read as if every calibration
#: loop had taken this long.  It is a fixed constant so that runs on any host
#: compare; the README baseline host's median was about 2.0 ms.
REFERENCE_CALIBRATION_MS = 2.0

_CALIBRATION_ITERATIONS = 160


def _calibration_work() -> Fraction:
    """A fixed run of Fraction arithmetic, small operands growing into big
    denominators: the work hyperk's `fractions` backend spends its time in,
    independent of hyperk.  Against a big-int/dict loop it tracked the
    host's state better on `configs` ops (round-to-round spread of corrected
    times 0.012 against 0.028 over 24 rounds) and as well on `pairs` ops."""
    acc = Fraction(0)
    x = Fraction(3, 7)
    for i in range(1, _CALIBRATION_ITERATIONS):
        y = Fraction(i, (i % 13) + 1)
        acc += x * y - y / (i + 1)
        if acc > 100:
            acc /= 3
    return acc


class HostClock:
    """Calibration samples taken every `interval` seconds on SIGALRM.

    ``overhead`` is the total time spent sampling, which timed operations
    subtract from their raw duration."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.times: list = []
        self.calibration_ms: list = []
        self.overhead = 0.0
        self._sampling = False

    def sample(self, *_signal_args):
        if self._sampling:  # the timer fired during an explicit sample
            return
        self._sampling = True
        t0 = time.perf_counter()
        _calibration_work()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2.0)
        self.calibration_ms.append((t1 - t0) * 1e3)
        self.overhead += t1 - t0
        self._sampling = False

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    @contextlib.contextmanager
    def idle(self):
        """Stop sampling while this process waits for a child on its CPU (a
        sample then would measure the two sharing the CPU), and sample right
        before and after instead."""
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def factors(self, starts, ends):
        """Host-correction factors for work done between starts[i] and
        ends[i]: the reference over the mean calibration sampled from one
        interval before to one interval after (the nearest sample if none)."""
        times = np.asarray(self.times)
        cum = np.concatenate(([0.0], np.cumsum(self.calibration_ms)))
        lo = np.searchsorted(times, starts - self.interval, side="left")
        hi = np.searchsorted(times, ends + self.interval, side="right")
        empty = hi <= lo
        lo = np.where(empty, np.minimum(lo, len(times) - 1), lo)
        hi = np.where(empty, lo + 1, hi)
        return REFERENCE_CALIBRATION_MS * (hi - lo) / (cum[hi] - cum[lo])

    def factor(self, t0: float, t1: float) -> float:
        return float(self.factors(np.array([t0]), np.array([t1]))[0])

    def median_ms(self) -> float:
        return statistics.median(self.calibration_ms)


class Series:
    """Timings of one op kind in preallocated arrays, so that the benchmark's
    own bookkeeping does not grow with the number of ops (peak_rss_mb)."""

    CAPACITY = 1 << 18

    def __init__(self):
        self.data = self._empty(self.CAPACITY)
        self.n = 0

    @staticmethod
    def _empty(capacity: int):
        # rows: start, end, raw seconds, host-corrected seconds; until
        # correct() runs, the last row holds the host-correction factor a
        # workload measured itself, or NaN where the HostClock's applies
        data = np.full((4, capacity), 0.0)
        data[3] = np.nan
        return data

    def append(self, t0: float, t1: float, raw: float):
        if self.n == self.data.shape[1]:
            self.data = np.concatenate((self.data, self._empty(self.data.shape[1])), axis=1)
        d, n = self.data, self.n
        d[0, n], d[1, n], d[2, n] = t0, t1, raw
        self.n = n + 1

    def set_factor(self, lo: int, factor: float):
        """Host-correct samples lo.. with `factor` instead of the HostClock's."""
        self.data[3, lo:self.n] = factor

    def correct(self, clock: "HostClock"):
        d, n = self.data, self.n
        own = d[3, :n]
        d[3, :n] = d[2, :n] * np.where(np.isnan(own), clock.factors(d[0, :n], d[1, :n]), own)

    def __len__(self):
        return self.n

    def total(self, raw: bool = False) -> float:
        return float(self.data[2 if raw else 3, :self.n].sum())

    def mean(self, raw: bool = False) -> float:
        return self.total(raw) / self.n

    def percentiles(self, qs, raw: bool = False):
        """Linear-interpolated percentiles (q in [0, 100]); partitions the
        row in place instead of sorting a copy."""
        x = self.data[2 if raw else 3, :self.n]
        pos = [(self.n - 1) * q / 100.0 for q in qs]
        kth = sorted({int(p) for p in pos} | {min(int(p) + 1, self.n - 1) for p in pos})
        x.partition(kth)
        out = []
        for p in pos:
            lo = int(p)
            hi = min(lo + 1, self.n - 1)
            out.append(float(x[lo] + (x[hi] - x[lo]) * (p - lo)))
        return out

    def stats_ms(self, raw: bool = False) -> dict:
        p50, p90, p99 = self.percentiles((50, 90, 99), raw)
        return {"p50": p50 * 1e3, "p90": p90 * 1e3, "p99": p99 * 1e3,
                "mean": self.mean(raw) * 1e3}


#: Wrong answers this commit is known to give.  Each is matched precisely
#: by the check that finds it, counted as a failed op and listed in the run
#: record, but does not set "correct" to false.  Remove an entry once the
#: defect is fixed, so that it cannot come back unnoticed.
KNOWN_DEFECTS = {
    "deep-undercount": "intersection_pattern reports fewer interior points than the exact "
                       "reference (points below height EPS are dropped before counting)",
    "unsat-with-witness": "tangency_realizability reports unsatisfiable for an isometry "
                          "relabelling whose image horocycles realize the pattern",
}


class Tally:
    """Samples, attempts, failures and wrong answers of one run.

    An operation is one op kind on one input, named by an ``op`` tuple
    ``(kind, input)``.  Every round repeats the same operations and every
    repeat is timed and checked, but ``attempted`` and ``failed`` count
    distinct operations: the run's first round attempts all of them, so
    both counts depend on the seed only, never on how many rounds the host
    was fast enough to run.  ``failures`` counts failed calls by message.

    Timings are host-corrected by ``finish``, once the clock has the
    calibration samples that follow the last op."""

    def __init__(self, clock: HostClock):
        self.clock = clock
        self.ops: set = set()  # distinct operations attempted
        self.failed_ops: set = set()  # distinct operations that failed at least once
        self.calls = 0  # timed calls, repeats included
        self.failures: dict = {}
        self.wrong: list = []
        self.samples: dict = {}  # kind -> Series
        self.completed: dict = {}  # kind (traced or not) -> ops timed so far
        self.rounds = 0
        #: set by the traced run: spans are recorded only inside timed ops,
        #: never in the checks, and samples are filed under "traced:<kind>"
        self.tracer = None

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def timed(self, op: tuple, fn, *args):
        """Run fn(*args) as one call of operation `op` = (kind, input); time
        it if it returns.

        An exception fails the operation: it is counted by type and the
        caller receives ``None`` (no answer to check)."""
        self.ops.add(op)
        self.calls += 1
        kind = op[0]
        tracer = self.tracer
        if tracer is not None:
            kind = "traced:" + kind
            tracer.active = True
        clock = self.clock
        h0 = clock.overhead
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the program failed this operation
            self.fail(op, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            if tracer is not None:
                tracer.active = False
        t1 = time.perf_counter()
        self.series(kind).append(t0, t1, (t1 - t0) - (clock.overhead - h0))
        base = kind.rpartition(":")[2]
        self.completed[base] = self.completed.get(base, 0) + 1
        return result

    def series(self, kind: str) -> Series:
        return self.samples.get(kind) or self.samples.setdefault(kind, Series())

    def fail(self, op: tuple, why: str):
        self.failed_ops.add(op)
        key = f"{op[0]}: {why.splitlines()[0][:120]}"
        self.failures[key] = self.failures.get(key, 0) + 1

    def known_defect(self, op: tuple, defect: str):
        """A wrong answer of a kind listed in KNOWN_DEFECTS: a failed
        operation, which does not make the run incorrect."""
        self.fail(op, f"known defect {defect}: {KNOWN_DEFECTS[defect]}")

    def check(self, ok: bool, what: str):
        """Record a wrong answer (never filtered, never retried)."""
        if not ok and len(self.wrong) < 1000:
            self.wrong.append(what)

    def finish(self):
        for series in self.samples.values():
            series.correct(self.clock)


#: the p90 of the main op needs at least ten samples beyond it
MIN_MAIN_SAMPLES = 110


def run_closed_loop(workload, seconds: float, tally: Tally, on_round=None):
    """Repeat the workload's rounds until `seconds` have passed, the first
    round is complete (so that every operation was attempted) and the main
    op has MIN_MAIN_SAMPLES samples (on a slow host, or with a short
    `seconds`, the run is extended, up to the longer of 3 x `seconds` and
    60 s).

    The deadline is checked after every step, so the loop overruns it by at
    most one step.  `on_round(index)` is called before each round (the traced
    run uses it to switch tracing on and off)."""
    start = time.perf_counter()
    while True:
        if on_round is not None:
            on_round(tally.rounds)
        tally.rounds += 1
        steps = workload.round_steps()
        for k, step in enumerate(steps):
            step(tally)
            elapsed = time.perf_counter() - start
            covered = tally.rounds > 1 or k == len(steps) - 1
            enough = covered and tally.completed.get(workload.main_kind, 0) >= MIN_MAIN_SAMPLES
            if (elapsed >= seconds and enough) or elapsed >= max(3 * seconds, 60.0):
                return


def timed_setup(make, repeats: int, clock: HostClock):
    """Build the workload `repeats` times; return the last instance and the
    host-corrected and raw median set-up times in seconds."""
    corrected, raw = [], []
    instance = None
    for _ in range(repeats):
        h0 = clock.overhead
        t0 = time.perf_counter()
        instance = make()
        t1 = time.perf_counter()
        dt = (t1 - t0) - (clock.overhead - h0)
        raw.append(dt)
        corrected.append((t0, t1, dt))
    clock.sample()  # make sure the last build has a sample after it
    corrected = [dt * clock.factor(t0, t1) for t0, t1, dt in corrected]
    return instance, statistics.median(corrected), statistics.median(raw)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(items) -> str:
    """Order-sensitive digest of a sequence of answers."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def source_identity(root: Path) -> str:
    """The git commit of the checkout, or a digest of src/hyperk when the
    checkout is not a git repository."""
    if (root / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            )
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted((root / "src" / "hyperk").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def environment(root: Path) -> dict:
    from hyperk import _rational

    return {
        "commit": source_identity(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": _rational.BACKEND,
        "HYPERK_BACKEND": os.environ.get("HYPERK_BACKEND", ""),
        "executable": Path(sys.executable).name,
    }
