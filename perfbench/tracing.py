"""Traced run: spans around the calls into each hyperk module's public
functions, recorded from the benchmark's side only (hyperk is not modified).

The tracer replaces module attributes with timing wrappers: each traced
function is replaced in every hyperk module and workload module that holds
it, including names re-imported into other modules (``graphs.intersection_pattern`` is
``predicates.intersection_pattern``), plus ``Isometry.apply_curve`` on the
class and ``scipy.optimize.linprog``.  The module-level ``Q`` names of every
hyperk module are replaced by a counter, not a span.

A span is (id, parent id, name, start ns, end ns, phase).  Spans stay in
memory and are written to .bench_out/ when the run ends; a span's self time
is its duration minus the time covered by its child spans.  Wrappers record
only while a timed operation runs, so the benchmark's own checks are never
traced.  Rounds alternate traced / untraced, starting traced; the ratio of
their mean main-op times gives ``trace.overhead_share``.
"""

from __future__ import annotations

import importlib
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import REFERENCE_CALIBRATION_MS

KIND_TAG = {"geodesic": "geo", "horocycle": "hor", "hypercycle": "hyp"}
KIND_PAIRS = ("geo-geo", "geo-hor", "geo-hyp", "hor-hor", "hor-hyp", "hyp-hyp")
SUITES = ("order", "boundary-extension", "dyadic", "pinch", "types", "betweenness",
          "crescent", "four-geodesics", "links", "families", "earthquake", "graphs")
SUBCOMMANDS = ("classify", "construct", "intersect", "graph", "earthquake", "family",
               "verify", "render")
#: the workload modules call hyperk through names they imported; patch those too
BENCHMARK_MODULES = ("pairs", "configs", "frontends")


def _kind_pair(tracer, args, result, frame):
    a, b = sorted((KIND_TAG.get(args[0].kind.value, "x"), KIND_TAG.get(args[1].kind.value, "x")))
    return f"predicates.intersection_pattern.{a}-{b}"


def _matching(tracer, args, result, frame):
    tracer.counts["im.candidates"] += tracer.counts["tn"] - frame[3]
    return "graphs.isometry_matching." + ("hit" if result is not None else "miss")


def _triple_normalizer(tracer, args, result, frame):
    tracer.counts["tn"] += 1
    return "model.triple_normalizer"


def _realizability(tracer, args, result, frame):
    from hyperk.earthquake import Satisfiable

    tracer.counts["tr.sat"] += isinstance(result, Satisfiable)
    tracer.counts["tr.lp"] += tracer.counts["linprog"] > frame[2]
    return "earthquake.tangency_realizability"


def _automorphisms(tracer, args, result, frame):
    tracer.counts["autos.found"] += len(result) if result is not None else 0
    return "graphs.automorphisms"


def _apply_curve(tracer, args, result, frame):
    if result is not None and result.exact:
        bits = max(abs(v).bit_length() for v in result.circle.coeffs())
        if bits > tracer.coeff_bits_max:
            tracer.coeff_bits_max = bits
    return "model.Isometry.apply_curve"


def _linprog(tracer, args, result, frame):
    tracer.counts["linprog"] += 1
    return "scipy.optimize.linprog"


def _suite(tracer, args, result, frame):
    return f"verify.{args[0]}"


def _cli_main(tracer, args, result, frame):
    argv = args[0] if args else sys.argv[1:]
    sub = next((a for a in argv if a in SUBCOMMANDS), "none")
    return f"cli.main.{sub}"


#: (module, attribute, finish) -- finish(tracer, args, result, frame) names
#: the span once the call returned and may update counters
TARGETS = [
    ("hyperk.model", "make_geodesic", None),
    ("hyperk.model", "make_horocycle", None),
    ("hyperk.model", "make_hypercycle", None),
    ("hyperk.model", "triple_normalizer", _triple_normalizer),
    ("hyperk.model", "rational_points", None),
    ("hyperk.model", "distance_to_geodesic", None),
    ("hyperk.model", "equidistant_pair", None),
    ("hyperk.predicates", "intersection_pattern", _kind_pair),
    ("hyperk.predicates", "hypercycle_pair_type", None),
    ("hyperk.predicates", "linked", None),
    ("hyperk.predicates", "horocycle_leq", None),
    ("hyperk.constructions", "four_geodesic_config", None),
    ("hyperk.constructions", "classify_family_limit", None),
    ("hyperk.earthquake", "tangency_realizability", _realizability),
    ("hyperk.earthquake", "pointwise_image_is_curve", None),
    ("hyperk.graphs", "build_graph", None),
    ("hyperk.graphs", "automorphisms", _automorphisms),
    ("hyperk.graphs", "isometry_matching", _matching),
    ("hyperk.render", "render_scene", None),
    ("hyperk.verify", "run_suite", _suite),
    ("hyperk.cli", "main", _cli_main),
]


def per_layer_units():
    """Every per-layer metric name with its unit, in BENCHMARK.json order."""
    u = {
        "rational.Q.calls_per_op": "count",
        "rational.coeff_bits_max": "bits",
        "model.Isometry.apply_curve.calls": "count",
        "model.Isometry.apply_curve.ns_per_call": "ns",
        "model.make_geodesic.ns_per_call": "ns",
        "model.make_horocycle.ns_per_call": "ns",
        "model.make_hypercycle.ns_per_call": "ns",
        "model.triple_normalizer.calls_per_match": "count",
        "model.rational_points.self_s": "s",
        "model.distance_to_geodesic.self_s": "s",
        "model.equidistant_pair.self_s": "s",
    }
    for kp in KIND_PAIRS:
        u[f"predicates.intersection_pattern.{kp}.calls"] = "count"
        u[f"predicates.intersection_pattern.{kp}.ns_per_call"] = "ns"
    u.update({
        "predicates.hypercycle_pair_type.ns_per_call": "ns",
        "predicates.linked.calls": "count",
        "predicates.linked.self_s": "s",
        "predicates.horocycle_leq.calls": "count",
        "predicates.horocycle_leq.self_s": "s",
        "constructions.four_geodesic_config.calls": "count",
        "constructions.four_geodesic_config.ms_per_call": "ms",
        "constructions.classify_family_limit.self_s": "s",
        "earthquake.tangency_realizability.ms_per_call": "ms",
        "earthquake.tangency_realizability.sat_share": "share",
        "earthquake.tangency_realizability.lp_share": "share",
        "earthquake.pointwise_image_is_curve.self_s": "s",
        "graphs.build_graph.self_s": "s",
        "graphs.automorphisms.self_s": "s",
        "graphs.automorphisms.found": "count",
        "graphs.isometry_matching.hit.ms_per_call": "ms",
        "graphs.isometry_matching.miss.ms_per_call": "ms",
        "graphs.isometry_matching.useful_ratio": "share",
        "render.render_scene.self_s": "s",
    })
    for suite in SUITES:
        u[f"verify.{suite}.s"] = "s"
    u["cli.interp_ms"] = "ms"
    u["cli.import_ms"] = "ms"
    for sub in SUBCOMMANDS:
        u[f"cli.main.{sub}.self_s"] = "s"
    u.update({
        "cli.contract_violations": "count",
        "trace.overhead_share": "share",
        "host.ref_ms": "ms",
        "failed_share": "share",
    })
    return u


class _Counts(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    def __init__(self):
        self.active = False
        self.phase = "setup"
        self.spans = []
        self._stack = []
        self._next_id = 0
        self.agg = {}  # name -> [calls, total ns, self ns], run phase
        self.setup_agg = {}
        self.counts = _Counts()
        self.q_calls = 0
        self.coeff_bits_max = 0
        self.traced_rounds = 0
        self.traced_ops = 0
        self._round_start_calls = None
        self._patches = self._build_patches()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, finish):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            # id, ns covered by children, linprog and triple_normalizer
            # counts at entry
            frame = [sid, 0, tracer.counts["linprog"], tracer.counts["tn"]]
            stack.append(frame)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                span_name = finish(tracer, args, result, frame) if finish else name
                tracer.spans.append((sid, parent, span_name, start, end, tracer.phase))
                agg = tracer.agg.get(span_name)
                if agg is None:
                    agg = tracer.agg[span_name] = [0, 0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counted_q(self, q):
        tracer = self

        def Q(*args, **kwargs):
            if tracer.active:
                tracer.q_calls += 1
            return q(*args, **kwargs)

        return Q

    def _build_patches(self):
        """(owner, attribute, original, wrapper) for every place a traced
        object is reachable from hyperk code."""
        import scipy.optimize

        from hyperk import _rational
        from hyperk.model import Isometry

        for module_name, _attr, _finish in TARGETS:
            importlib.import_module(module_name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "hyperk" or n.startswith("hyperk.")
                                         or n in BENCHMARK_MODULES)]
        patches = []

        def everywhere(original, wrapper):
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original, wrapper))

        for module_name, attr, finish in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            name = f"{module_name.split('.', 1)[1]}.{attr}"
            everywhere(original, self._wrap(original, name, finish))
        original = Isometry.__dict__["apply_curve"]
        patches.append((Isometry, "apply_curve", original,
                        self._wrap(original, "model.Isometry.apply_curve", _apply_curve)))
        original = scipy.optimize.linprog
        patches.append((scipy.optimize, "linprog", original,
                        self._wrap(original, "scipy.optimize.linprog", _linprog)))
        everywhere(_rational.Q, self._counted_q(_rational.Q))
        return patches

    def install(self):
        for owner, key, _original, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _wrapper in self._patches:
            setattr(owner, key, original)

    # -- phases and rounds ---------------------------------------------------

    def end_setup(self):
        """Keep set-up spans apart: per-round metrics cover the run only."""
        self.setup_agg, self.agg = self.agg, {}
        self.counts = _Counts()
        self.q_calls = 0
        self.coeff_bits_max = 0
        self.phase = "run"

    def on_round(self, tally, index):
        """Alternate rounds traced / untraced, starting traced."""
        if self._round_start_calls is not None:
            self.traced_ops += tally.calls - self._round_start_calls
            self._round_start_calls = None
        if index % 2 == 0:
            self.install()
            tally.tracer = self
            self.traced_rounds += 1
            self._round_start_calls = tally.calls
        else:
            self.uninstall()
            tally.tracer = None

    def finish(self, tally):
        self.on_round(tally, 1)
        self.uninstall()

    # -- results -------------------------------------------------------------

    def write_spans(self, out_dir: Path, workload: str, seed: int) -> Path:
        path = out_dir / f"spans-{workload}-seed{seed}.tsv"
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tparent\tname\tstart_ns\tend_ns\tphase\n")
            for span in self.spans:
                f.write("\t".join(str(v) for v in span) + "\n")
        return path

    def per_layer_metrics(self, workload, tally, root: Path):
        rounds = max(self.traced_rounds, 1)
        agg = self.agg

        def calls(name):
            return agg.get(name, (0, 0, 0))[0]

        def per_round(name):
            return calls(name) / rounds

        def self_s(name):
            return agg.get(name, (0, 0, 0))[2] / 1e9 / rounds

        def per_call(name, unit_ns, table=agg):
            c, total, _self = table.get(name, (0, 0, 0))
            return total / c / unit_ns if c else 0.0

        def setup_and_run_ns(name):
            both = {name: [a + b for a, b in zip(self.setup_agg.get(name, (0, 0, 0)),
                                                 agg.get(name, (0, 0, 0)))]}
            return per_call(name, 1, both)

        matches = calls("graphs.isometry_matching.hit") + calls("graphs.isometry_matching.miss")
        candidates = self.counts["im.candidates"]
        tr_calls = calls("earthquake.tangency_realizability")
        m = {
            "rational.Q.calls_per_op": self.q_calls / max(self.traced_ops, 1),
            "rational.coeff_bits_max": self.coeff_bits_max,
            "model.Isometry.apply_curve.calls": per_round("model.Isometry.apply_curve"),
            "model.Isometry.apply_curve.ns_per_call": per_call("model.Isometry.apply_curve", 1),
            "model.make_geodesic.ns_per_call": setup_and_run_ns("model.make_geodesic"),
            "model.make_horocycle.ns_per_call": setup_and_run_ns("model.make_horocycle"),
            "model.make_hypercycle.ns_per_call": setup_and_run_ns("model.make_hypercycle"),
            "model.triple_normalizer.calls_per_match": candidates / matches if matches else 0.0,
            "model.rational_points.self_s": self_s("model.rational_points"),
            "model.distance_to_geodesic.self_s": self_s("model.distance_to_geodesic"),
            "model.equidistant_pair.self_s": self_s("model.equidistant_pair"),
        }
        for kp in KIND_PAIRS:
            name = f"predicates.intersection_pattern.{kp}"
            m[f"{name}.calls"] = per_round(name)
            m[f"{name}.ns_per_call"] = per_call(name, 1)
        m.update({
            "predicates.hypercycle_pair_type.ns_per_call": per_call("predicates.hypercycle_pair_type", 1),
            "predicates.linked.calls": per_round("predicates.linked"),
            "predicates.linked.self_s": self_s("predicates.linked"),
            "predicates.horocycle_leq.calls": per_round("predicates.horocycle_leq"),
            "predicates.horocycle_leq.self_s": self_s("predicates.horocycle_leq"),
            "constructions.four_geodesic_config.calls": per_round("constructions.four_geodesic_config"),
            "constructions.four_geodesic_config.ms_per_call":
                per_call("constructions.four_geodesic_config", 1e6),
            "constructions.classify_family_limit.self_s": self_s("constructions.classify_family_limit"),
            "earthquake.tangency_realizability.ms_per_call":
                per_call("earthquake.tangency_realizability", 1e6),
            "earthquake.tangency_realizability.sat_share":
                self.counts["tr.sat"] / tr_calls if tr_calls else 0.0,
            "earthquake.tangency_realizability.lp_share":
                self.counts["tr.lp"] / tr_calls if tr_calls else 0.0,
            "earthquake.pointwise_image_is_curve.self_s": self_s("earthquake.pointwise_image_is_curve"),
            "graphs.build_graph.self_s": self_s("graphs.build_graph"),
            "graphs.automorphisms.self_s": self_s("graphs.automorphisms"),
            "graphs.automorphisms.found":
                self.counts["autos.found"] / calls("graphs.automorphisms")
                if calls("graphs.automorphisms") else 0.0,
            "graphs.isometry_matching.hit.ms_per_call": per_call("graphs.isometry_matching.hit", 1e6),
            "graphs.isometry_matching.miss.ms_per_call": per_call("graphs.isometry_matching.miss", 1e6),
            "graphs.isometry_matching.useful_ratio":
                calls("graphs.isometry_matching.hit") / candidates if candidates else 0.0,
            "render.render_scene.self_s": self_s("render.render_scene"),
        })
        for suite in SUITES:
            m[f"verify.{suite}.s"] = agg.get(f"verify.{suite}", (0, 0, 0))[1] / 1e9 / rounds
        m["cli.interp_ms"], m["cli.import_ms"] = interpreter_and_import_ms(root)
        for sub in SUBCOMMANDS:
            m[f"cli.main.{sub}.self_s"] = self_s(f"cli.main.{sub}")
        m["cli.contract_violations"] = len(getattr(workload, "violating_cases", ()))
        m["trace.overhead_share"] = overhead_share(tally, (workload.main_kind, workload.side_kind))
        m["host.ref_ms"] = tally.clock.median_ms()
        m["failed_share"] = tally.failed / max(tally.attempted, 1)
        # spans are raw wall time: scale time-valued metrics by the run's
        # median host correction so that runs on a drifting host compare
        scale = REFERENCE_CALIBRATION_MS / tally.clock.median_ms()
        units = per_layer_units()
        for key in m:
            if units[key] in ("s", "ms", "ns") and key != "host.ref_ms":
                m[key] *= scale
        return m


def overhead_share(tally, kinds):
    """Extra time of traced rounds over untraced ones: per kind, the ratio of
    mean op times, weighted by the kind's untraced total time."""
    num = den = 0.0
    for kind in kinds:
        traced, plain = tally.samples.get("traced:" + kind), tally.samples.get(kind)
        if traced is not None and plain is not None:
            weight = plain.total()
            num += weight * (traced.mean() / plain.mean() - 1.0)
            den += weight
    return num / den if den else 0.0


def interpreter_and_import_ms(root: Path, repeats: int = 5):
    """Median wall time of a bare interpreter, and the median extra time of
    one that imports hyperk.cli, both started fresh, in ms."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def median_ms(code):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                           capture_output=True, timeout=60)
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    interp = median_ms("pass")
    return interp, median_ms("import hyperk.cli") - interp
