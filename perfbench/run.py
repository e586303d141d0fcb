"""hyperk benchmark entry point.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload pairs|configs|frontends \
        --seed N --seconds S --trace 0|1

Runs one seeded closed-loop workload in this process with one thread,
checks every answer, and prints the run record (one JSON line) followed by
the result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics (host-corrected, see
harness.py); with --trace 1 they are the per-layer metrics of a traced run
(see tracing.py).  Each run also writes its full record to
.bench_out/runs/ for compare.py.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

#: end-to-end metric -> unit; see README.md for what each means per workload
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "main_ops_per_s": "1/s",
    "main_op_ms_p50": "ms",
    "main_op_ms_p90": "ms",
    "side_op_ms_mean": "ms",
}

#: set-up is built this many times per run; setup_s is the median
SETUP_REPEATS = 7


def _pin_to_one_cpu():
    """Run this process, and the CLI subprocesses it starts, on the CPU it
    runs on now, so that the calibration samples measure the core the timed
    work runs on."""
    if not hasattr(os, "sched_setaffinity"):
        return
    allowed = os.sched_getaffinity(0)
    try:  # field 39 of /proc/self/stat is the CPU the process last ran on
        with open("/proc/self/stat", encoding="ascii") as f:
            cpu = int(f.read().rpartition(")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        cpu = min(allowed)
    os.sched_setaffinity(0, {cpu if cpu in allowed else min(allowed)})


def _import_hyperk(clock):
    """Import hyperk from this checkout's src/ (never from elsewhere), then
    import it again SETUP_REPEATS times, each time after dropping its modules
    from sys.modules.  Return the raw cold import time and the host-corrected
    and raw median re-import times in seconds.  A re-import runs hyperk's own
    module code again with its dependencies loaded: the part of import time
    hyperk controls, and far steadier than one cold import.  Modules hyperk
    imports lazily (scipy.optimize) are paid by the first set-up build."""
    from harness import timed_setup

    src = ROOT / "src"
    if not (src / "hyperk" / "__init__.py").is_file():
        raise SystemExit(f"error: no hyperk sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import hyperk

    cold_s = time.perf_counter() - t0
    if Path(hyperk.__file__).resolve().parent != (src / "hyperk").resolve():
        raise SystemExit(f"error: imported hyperk from {hyperk.__file__}, not {src}")

    def reimport():
        for name in [m for m in sys.modules if m == "hyperk" or m.startswith("hyperk.")]:
            del sys.modules[name]
        return importlib.import_module("hyperk")

    _, corrected_s, raw_s = timed_setup(reimport, SETUP_REPEATS, clock)
    return cold_s, corrected_s, raw_s


def _workload_class(name):
    if name == "pairs":
        from pairs import PairsWorkload

        return PairsWorkload
    if name == "configs":
        from configs import ConfigsWorkload

        return ConfigsWorkload
    from frontends import FrontendsWorkload

    return FrontendsWorkload


def end_to_end_metrics(workload, tally, setup_s, rss_mb):
    main = tally.samples.get(workload.main_kind)
    side = tally.samples.get(workload.side_kind)
    if main is None or len(main) < 100 or side is None:
        raise SystemExit(f"error: too few {workload.main_kind} or {workload.side_kind} samples")
    p50, p90 = main.percentiles((50, 90))
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "main_ops_per_s": len(main) / main.total(),
        "main_op_ms_p50": p50 * 1e3,
        "main_op_ms_p90": p90 * 1e3,
        "side_op_ms_mean": side.mean() * 1e3,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("pairs", "configs", "frontends"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    from harness import HostClock

    _pin_to_one_cpu()
    clock = HostClock()
    clock.start()
    try:
        return _run(args, clock)
    finally:
        clock.stop()


def _run(args, clock) -> int:
    from harness import Tally, environment, peak_rss_mb, run_closed_loop, timed_setup

    import_cold_s, import_s, import_raw_s = _import_hyperk(clock)
    cls = _workload_class(args.workload)
    OUT.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()  # set-up is traced too: it is where the inputs are built
        tracer.active = True
    workload, setup_corrected, setup_raw = timed_setup(
        lambda: cls(args.seed, OUT), 1 if tracer else SETUP_REPEATS, clock
    )
    on_round = None
    if tracer is not None:
        tracer.active = False
        tracer.uninstall()
        tracer.end_setup()
        if hasattr(workload, "in_process"):  # frontends: cli.main(argv), not subprocesses
            workload.in_process = True
    workload.prepare_checks()
    tally = Tally(clock)
    if tracer is not None:
        def on_round(index):
            tracer.on_round(tally, index)
    try:
        run_closed_loop(workload, args.seconds, tally, on_round)
    finally:
        if tracer is not None:
            tracer.finish(tally)
        if hasattr(workload, "close"):
            workload.close()
    rss_mb = peak_rss_mb()  # before finish(), whose temporaries grow with the op count
    tally.finish()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(ROOT),
        "host_calibration_ms_median": clock.median_ms(),
        "host_calibration_samples": len(clock.calibration_ms),
        "rounds": tally.rounds,
        "op_calls": tally.calls,
        "samples": {k: len(v) for k, v in tally.samples.items()},
        "corrected_ms": {k: v.stats_ms() for k, v in tally.samples.items()},
        "raw_ms": {k: v.stats_ms(raw=True) for k, v in tally.samples.items()},
        "setup_raw_s": setup_raw,
        "import_s": import_s,
        "import_raw_s": import_raw_s,
        "import_cold_raw_s": import_cold_s,
        "failures": tally.failures,
        "wrong_answers": tally.wrong[:20],
        "workload_summary": workload.summary(),
    }
    if tracer is None:
        metrics = end_to_end_metrics(workload, tally, import_s + setup_corrected, rss_mb)
        units = END_TO_END
    else:
        from tracing import per_layer_units

        metrics = tracer.per_layer_metrics(workload, tally, ROOT)
        units = per_layer_units()
        record["span_file"] = str(tracer.write_spans(OUT, args.workload, args.seed))
    record["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    (OUT / "runs").mkdir(exist_ok=True)
    (OUT / "runs" / name).write_text(json.dumps(record, indent=1, sort_keys=True))

    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
