"""Fuzz the exit-code contract of the hyperk command line.

Run it from the root of a checkout:

    python tools/clifuzz.py

It runs `CASES` cases from each seed of `SEEDS`.  Each case takes one of
the valid commands of `COMMANDS`, replaces one or two of its values, or a
field of one, with an edge value of `EDGES` (0, -0, 1/0, oo, nan, inf, an
empty field, 10^+-308, 2^1100, 5e-324, extra commas, non-ASCII digits,
...), and runs `hyperk.cli.main` on it in this process, under an alarm.  The commands include `intersect` pairs that
meet at irrational points, whose records print the points' floats.  A
case fails when

- the exit code is not 0, 2, 3 or 4;
- an exception escapes `main`;
- exit 2 leaves anything on stdout;
- the call takes more than `LIMIT_S` seconds.

Values that only bound the work asked for (`construct dyadic --level`,
`--n-min`, `--n-max`, `verify --depth`) are not in the commands: a huge
one asks for a huge answer.  Output paths and curve files are fixed.  The
fuzzer prints every failing case, then a count, and exits 1 on any
failure.  It needs only the standard library.
"""

from __future__ import annotations

import contextlib
import io
import random
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: seconds one call may take
LIMIT_S = 5.0

#: the seeds of a run, and the cases each seed gives
SEEDS = (0, 1, 2)
CASES = 4000

#: the text of each curve file a command names by placeholder
FILES = {
    "CURVES": (
        "horocycle a=1 b=0 c=-1 d=0\n"
        "horocycle a=1 b=-2 c=-1 d=1\n"
        "horocycle a=1 b=-4 c=-1 d=4\n"
        "horocycle a=0 b=0 c=1 d=-2\n"
    ),
}

#: valid commands, each exiting 0; OUT stands for an output path
COMMANDS = [
    ("classify", "--coeffs", "1,0,-1,0"),
    ("classify", "--geodesic", "-1,1"),
    ("classify", "--horocycle", "0,1/2"),
    ("classify", "--hypercycle", "-1,1,0,2"),
    ("classify", "--curve", "horocycle a=1 b=0 c=-1 d=0"),
    # meeting at (0, sqrt(3)), at (1/2, sqrt(7)/2), and twice on x = 1/2
    ("intersect", "--first-geodesic", "-1,3", "--second-geodesic", "-3,1"),
    ("intersect", "--first-coeffs", "1,0,0,-2", "--second-coeffs", "0,2,0,-1"),
    ("intersect", "--first-horocycle", "0,3/2", "--second-horocycle", "1,3/2"),
    ("intersect", "--first-hypercycle", "-1,1,0,2", "--second-geodesic", "0,oo"),
    ("construct", "pinch", "--first", "0,1", "--second", "5,2"),
    ("construct", "equidistant", "--first", "0,1", "--distance", "1"),
    ("earthquake", "--fault", "0,oo", "--shear", "2", "apply", "1/2,1", "-1", "oo"),
    ("earthquake", "--fault", "-1,1", "--shear", "3/2", "image", "1,2", "-2,0"),
    ("earthquake", "--fault", "0,oo", "--shear", "2", "certify"),
    ("family", "--horocycle", "0,1", "--hypercycle", "4,8,5,2"),
    ("graph", "--curves", "CURVES", "--autos", "--cap", "100", "--realize", "2,1,0,3"),
    ("render", "--curves", "CURVES", "--x-min", "-1", "--x-max", "5", "--height", "3",
     "-o", "OUT"),
]

#: values put in place of a field or of a whole value
EDGES = [
    "0", "-0", "0.0", "-0.0", "1/0", "0/0", "-1/3", "2/4", "1/-2", "oo", "-oo", "nan", "-nan",
    "inf", "-inf", "Infinity", "", " ", "1e308", "-1e308", "1e-308", "5e-324", "1e400",
    "1e-400", str(10**308), f"-{10**308}", str(2**1100), f"{3 * 10**307}/7", f"1/{2**1100}",
    f"{3**700 + 1}/{3**700}", "1,", ",", ",,", "١٢", "٣/٤", "１",
    "1_000", "0x10", "abc", "--1", "-", "1e", ".",
]

#: flags whose values are paths, which stay as they are
_PATH_FLAGS = ("--curves", "-o")


def mutable_slots(argv) -> list:
    """The indices of the values in `argv` that a case may replace: every
    element but the command name, the flags and the paths."""
    return [i for i in range(1, len(argv))
            if not argv[i].startswith("--") and argv[i] != "-o"
            and argv[i - 1] not in _PATH_FLAGS]


def mutate(rng: random.Random, argv) -> tuple:
    """`argv` with one or two values changed: a field replaced by an edge
    value, the whole value replaced, a field added or a field dropped."""
    argv = list(argv)
    slots = mutable_slots(argv)
    for i in rng.sample(slots, min(len(slots), rng.choice((1, 1, 2)))):
        fields = argv[i].split(",")
        k = rng.randrange(len(fields))
        how = rng.random()
        if how < 0.7:
            fields[k] = rng.choice(EDGES)
        elif how < 0.8:
            fields = [rng.choice(EDGES)]
        elif how < 0.9:
            fields.insert(k, rng.choice(EDGES))
        elif len(fields) > 1:
            del fields[k]
        argv[i] = ",".join(fields)
    if rng.random() < 0.5:
        argv = ["--format", "records", *argv]
    return tuple(argv)


def with_paths(argv, directory: Path) -> list:
    """`argv` with each placeholder of `FILES` made a file under
    `directory`, and OUT a path there."""
    paths = {"OUT": str(directory / "out.svg")}
    for name, text in FILES.items():
        path = directory / name
        if not path.exists():
            path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return [paths.get(a, a) for a in argv]


class _Timeout(BaseException):
    """Raised by the alarm; no handler of the package catches it."""


def _alarm(signum, frame):
    raise _Timeout


def run_case(argv) -> str:
    """'' when `cli.main(argv)` keeps the contract, else what broke it."""
    from hyperk import cli

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except _Timeout:
        return f"over {LIMIT_S} s"
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # an escaped exception is the finding
        return f"escaped {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if time.perf_counter() - start > LIMIT_S:
        return f"over {LIMIT_S} s"
    if code not in (0, 2, 3, 4):
        return f"exit {code}: {err.getvalue().strip()[-200:]}"
    if code == 2 and out.getvalue():
        return f"exit 2 with stdout {out.getvalue()[:200]!r}"
    return ""


def fuzz(seed: int, cases: int) -> list:
    """The failing (argv, problem) pairs of `cases` cases from `seed`."""
    rng = random.Random(seed)
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(cases):
            argv = mutate(rng, rng.choice(COMMANDS))
            problem = run_case(with_paths(argv, Path(tmp)))
            if problem:
                failures.append((argv, problem))
    return failures


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    failed = 0
    for seed in SEEDS:
        for case, problem in fuzz(seed, CASES):
            print(f"FAIL seed {seed}: {' '.join(case)!r}: {problem}")
            failed += 1
    print(f"{len(SEEDS) * CASES} cases, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
