"""`frontends` workload: the verify suites and the command line.

One round runs one in-process ``verify.run_suite("all", seed, "small")`` pass
(a *verify* op, on the run's seed in every round) and then a fixed batch
of ``python -m hyperk.cli ...`` subprocesses, one at a time (each a *cli*
op).  The batch covers all eight subcommands with inputs
drawn from the seed, plus malformed inputs whose contract exit code is 2, 3
or 4.  In the traced run the same argument vectors go through
``hyperk.cli.main(argv)`` in-process instead.

A CLI call's time scales with the host's speed less than the in-process
calibration loop does (about as its 0.7th power on the baseline host), so
CLI calls are host-corrected by a bare interpreter start instead
(``python -c pass``, independent of hyperk) timed before and after each
chunk of calls: corrected = raw x ``REFERENCE_INTERP_MS`` / the mean of the
two.  The traced run's in-process calls keep the calibration loop's factor.

Checks (every op):
  * every PropertyResult of the verify pass passes;
  * every exit code is the one the contract gives for that input, and
    successful calls print the answer computed in-process at set-up;
  * an exit code outside 0/2/3/4 or a traceback is a failed op (a contract
    violation), counted and never filtered.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hyperk.constructions import pinch_pair
from hyperk.errors import NoSolutionError
from hyperk.model import BoundaryPoint
from hyperk.predicates import intersection_pattern, pair_type_from_pattern
from hyperk.verify import (
    rand_curve,
    rand_distinct_boundary,
    rand_geodesic,
    rand_horocycle,
    rand_q,
    run_suite,
)
from hyperk._rational import q_str

SCALE = "small"
CLI_CHUNK = 6  # cli calls per step, host-corrected by the interpreter starts around them
#: host-corrected CLI times read as if a bare interpreter started in this
#: long; the README baseline host's median was about 60 ms
REFERENCE_INTERP_MS = 50.0
CONTRACT_CODES = (0, 2, 3, 4)
SUBCOMMANDS = ("classify", "construct", "intersect", "graph", "earthquake",
               "family", "verify", "render")


def _bp(p: BoundaryPoint) -> str:
    return "oo" if p.is_infinity else q_str(p.value)


def _curve_flag(c):
    """A --coeffs/--geodesic/--horocycle argument for an exact curve."""
    a, b, cc, d = c.circle.coeffs()
    return "coeffs", f"{a},{b},{cc},{d}"


class Case:
    __slots__ = ("argv", "code", "expect")

    def __init__(self, argv, code, expect=None):
        self.argv = [str(a) for a in argv]
        self.code = code  # the exit code the contract gives
        self.expect = expect  # text the output must contain, if any


def _cases(rng, workdir: Path):
    """The CLI batch: every subcommand on seeded inputs, then malformed ones."""
    cases = []
    for _ in range(3):
        c = rand_curve(rng)
        flag, value = _curve_flag(c)
        cases.append(Case(["classify", f"--{flag}", value], 0, f"canonical {c.to_text()}"))
    p, q = rand_distinct_boundary(rng, 2)
    cases.append(Case(["classify", "--geodesic", f"{_bp(p)},{_bp(q)}"], 0, "Geodesic"))
    h = rand_horocycle(rng)
    cases.append(Case(["classify", "--horocycle", f"{_bp(h.center)},{q_str(h.size)}"], 0,
                      f"canonical {h.to_text()}"))
    for _ in range(3):
        c1, c2 = rand_curve(rng), rand_curve(rng)
        f1, v1 = _curve_flag(c1)
        f2, v2 = _curve_flag(c2)
        pat = intersection_pattern(c1, c2)
        cases.append(Case(["intersect", f"--first-{f1}", v1, f"--second-{f2}", v2], 0,
                          f"{pat.describe()}\npair type {pair_type_from_pattern(c1, c2).name}"))
    cases.append(Case(["construct", "dyadic", "--level", rng.randint(0, 3), "--n-min", -2,
                       "--n-max", 2], 0, "tangency"))
    while True:  # disjoint finite-center horocycles with an exact pinch pair
        h0, h1 = rand_horocycle(rng), rand_horocycle(rng)
        if h0.center.is_infinity or h1.center.is_infinity or h0.center == h1.center:
            continue
        if intersection_pattern(h0, h1).interior_count != 0:
            continue
        try:
            if all(w.exact for w in pinch_pair(h0, h1)):
                break
        except NoSolutionError:
            continue
    cases.append(Case(["construct", "pinch", "--first", f"{_bp(h0.center)},{q_str(h0.size)}",
                       "--second", f"{_bp(h1.center)},{q_str(h1.size)}"], 0, "horocycle"))
    g = rand_geodesic(rng)
    ends = ",".join(_bp(e) for e in g.endpoints)
    cases.append(Case(["construct", "equidistant", "--first", ends, "--distance", "0.75"], 0,
                      "hypercycle"))
    graph_file = workdir / "graph.txt"
    curves = []
    while len(curves) < 5:
        c = rand_curve(rng)
        if all(c != x for x in curves):
            curves.append(c)
    graph_file.write_text("".join(c.to_text() + "\n" for c in curves))
    cases.append(Case(["graph", "--curves", graph_file, "--mixed", "--autos"], 0, "automorphisms"))
    cases.append(Case(["graph", "--curves", graph_file, "--mixed", "--realize", "0,1,2,3,4"], 0,
                      "realizing isometry"))
    x = q_str(rand_q(rng))
    cases.append(Case(["earthquake", "--fault", "0,oo", "--shear", "2", "apply", "-1", x, "oo"], 0,
                      "oo -> oo"))
    cases.append(Case(["earthquake", "--fault", ends, "--shear", "3/2", "image", "-1,1"], 0, "->"))
    cases.append(Case(["earthquake", "--fault", "0,oo", "--shear", "2", "certify"], 0,
                      "unsatisfiable"))
    cases.append(Case(["family", "--horocycle", "0,1", "--hypercycle", "4,8,5,2"], 0,
                      "limit: horocycle"))
    cases.append(Case(["family", "--preset", "fixed-endpoint"], 0, "limit: hypercycle-or-geodesic"))
    cases.append(Case(["verify", "order", "--seed", rng.randint(0, 999)], 0,
                      "2/2 properties passed"))
    cases.append(Case(["verify", "dyadic", "--depth", 3], 0, "1/1 properties passed"))
    cases.append(Case(["render", "--preset", "dyadic", "-o", workdir / "dyadic.svg"], 0, "wrote"))
    cases.append(Case(["render", "--curves", graph_file, "-o", workdir / "scene.svg"], 0, "wrote"))
    cases.append(Case(["--format", "records", "classify", "--horocycle", "oo,2"], 0, '"kind": "horocycle"'))
    # malformed inputs
    cases += [
        Case(["classify", "--coeffs", "1,2"], 2),
        Case(["classify", "--coeffs", "1/0,0,-1,0"], 2),
        Case(["classify", "--horocycle", "1/0,2"], 2),
        Case(["classify", "--hypercycle", "-1,1,0,1"], 3),
        Case(["intersect", "--first-geodesic", "0,1"], 2),
        Case(["construct", "pinch", "--first", "0,1", "--second", "1,1"], 2),
        Case(["graph", "--curves", workdir / "missing.txt"], 2),
        Case(["earthquake", "--fault", "0,oo", "--shear", "1", "apply", "1"], 2),
        Case(["family", "--horocycle", "0,1", "--hypercycle", "1,2"], 2),
        Case(["verify", "nosuch"], 2),
        Case(["render", "--preset", "dyadic", "-o", workdir / "no-such-dir" / "x.svg"], 4),
    ]
    return cases


class FrontendsWorkload:
    name = "frontends"
    main_kind, side_kind = "cli", "verify"

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        self.seed = seed
        self.root = out_dir.parent
        self.workdir = out_dir / f"frontends-{seed}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cases = _cases(rng, self.workdir)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.in_process = False
        self.violating_cases = set()  # argument vectors that broke the contract
        self.interp_ms = []  # bare interpreter starts timed for host correction
        run_suite("order", seed=seed, scale=SCALE)  # warm-up

    def prepare_checks(self):
        """Expected outputs were computed in-process while building the
        cases; here one untimed CLI call warms the page cache."""
        self._subprocess(self.cases[0])

    def _subprocess(self, case, clock=None):
        with clock.idle() if clock is not None else contextlib.nullcontext():
            return subprocess.run(
                [sys.executable, "-m", "hyperk.cli", *case.argv], cwd=self.root, env=self.env,
                capture_output=True, text=True, timeout=120,
            )

    def _interp_ms(self, clock) -> float:
        """Start a bare interpreter, as the CLI calls start theirs; return
        the wall time in ms."""
        with clock.idle():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], cwd=self.root, env=self.env,
                           capture_output=True, timeout=120, check=True)
            ms = (time.perf_counter() - t0) * 1e3
        self.interp_ms.append(ms)
        return ms

    @staticmethod
    def _in_process(case, clock=None):
        from hyperk import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(case.argv))
            except Exception as exc:  # uncaught: the process would exit 1 with a traceback
                print(f"Traceback (most recent call last):\n{type(exc).__name__}: {exc}",
                      file=sys.stderr)
                code = 1
        return subprocess.CompletedProcess(case.argv, code, out.getvalue(), err.getvalue())

    def _cli_step(self, lo, hi):
        run = self._in_process if self.in_process else self._subprocess

        def step(tally):
            if not self.in_process:
                series = tally.series("cli")
                first = len(series)
                before = self._interp_ms(tally.clock)
            for k in range(lo, hi):
                case = self.cases[k]
                done = tally.timed(("cli", k), run, case, tally.clock)
                if done is None:
                    continue
                what = " ".join(case.argv)
                if done.returncode not in CONTRACT_CODES or "Traceback" in done.stderr:
                    last = done.stderr.strip().splitlines()[-1:] or [""]
                    tally.fail(("cli", k), f"contract violation, exit {done.returncode}: {what}: {last[0]}")
                    self.violating_cases.add(what)
                    continue
                tally.check(done.returncode == case.code,
                            f"cli: exit {done.returncode}, want {case.code}: {what}")
                if case.expect is not None:
                    tally.check(case.expect in done.stdout,
                                f"cli: {case.expect!r} not in output of {what}")
            if not self.in_process:
                after = self._interp_ms(tally.clock)
                series.set_factor(first, 2.0 * REFERENCE_INTERP_MS / (before + after))

        return step

    @staticmethod
    def _verify_step(seed):
        def step(tally):
            results = tally.timed(("verify", seed), run_suite, "all", seed, SCALE)
            if results is not None:
                for r in results:
                    tally.check(r.passed, f"verify seed {seed}: {r.line()}")

        return step

    def round_steps(self):
        steps = [self._verify_step(self.seed)]
        for k in range(0, len(self.cases), CLI_CHUNK):
            steps.append(self._cli_step(k, min(k + CLI_CHUNK, len(self.cases))))
        return steps

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def summary(self):
        return {"cli_cases": len(self.cases),
                "malformed_cases": sum(1 for c in self.cases if c.code != 0),
                "subcommands": sorted({a for c in self.cases for a in c.argv if a in SUBCOMMANDS}),
                "scale": SCALE,
                "interp_ms_median": statistics.median(self.interp_ms) if self.interp_ms else None}
