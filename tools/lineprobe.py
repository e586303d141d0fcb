"""List the lines of src/hyperk that the tier-1 tests never run.

Run it from the root of a checkout:

    python tools/lineprobe.py

It runs the tests under ``tests/`` in this process, under a pytest plugin
that records every line run in ``src/hyperk`` with ``sys.settrace`` and
``threading.settrace``.  A module's executable lines are those that the
``co_lines()`` of its compiled code objects name.  Lines run only in a
subprocess, such as ``python -m hyperk.cli``, count as unrun.  The trace
makes the tests about 3.5 times slower, so the probe is not part of tier-1.

An unrun line is allowed by an entry of ``tools/lineprobe_allow.txt``, one
a line:

    module.py | qualified name | stripped source text | reason

The qualified name is that of the function, class body or ``<module>``
whose code runs the line (the outermost, for a line that several share).
An entry is keyed by these three, not by its line number, so editing other
lines of the module leaves it valid, and it allows one unrun line only: a
function with two unrun lines of one text needs two entries.  The probe
prints every unrun line, marks the allowed ones, and names entries that
match no unrun line, so that they can be dropped.  It exits 1 when the
tests fail or an unrun line has no entry.  It needs only the standard
library and pytest.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hyperk"
ALLOW = Path(__file__).resolve().with_name("lineprobe_allow.txt")


def executable_lines(code: CodeType, owners=None) -> dict:
    """{line number: qualified name} for the lines of `code` and of every
    code object nested in it, each line named by the outermost that runs it."""
    owners = {} if owners is None else owners
    for _, _, line in code.co_lines():
        if line:
            owners.setdefault(line, code.co_qualname)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            executable_lines(const, owners)
    return owners


class Probe:
    """Records, per file, every line run in code compiled from a file under
    `root`, from `start()` to `stop()`, in every thread started meanwhile.
    Probes nest: `stop()` puts back the tracers that `start()` found."""

    def __init__(self, root):
        self.root = os.path.realpath(root) + os.sep
        self.ran = {}  # real path -> set of line numbers run
        self._tracers = {}  # co_filename -> its line tracer, or None

    def _tracer(self, filename):
        path = os.path.realpath(filename)
        if not path.startswith(self.root):
            return None
        add = self.ran.setdefault(path, set()).add

        def trace_lines(frame, event, arg):
            add(frame.f_lineno)
            return trace_lines

        return trace_lines

    def _trace_calls(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            tracer = self._tracers[filename]
        except KeyError:
            tracer = self._tracers[filename] = self._tracer(filename)
        return tracer and tracer(frame, event, arg)

    def start(self):
        """Trace from here on, keeping the tracers in place for `stop`."""
        self._saved = sys.gettrace(), threading.gettrace()
        threading.settrace(self._trace_calls)
        sys.settrace(self._trace_calls)

    def stop(self):
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])

    def unrun(self, path) -> list:
        """(line number, qualified name) of each executable line of the
        source file `path` never run, in order."""
        path = os.path.realpath(path)
        with open(path, encoding="utf-8") as f:
            owners = executable_lines(compile(f.read(), path, "exec"))
        ran = self.ran.get(path, set())
        return sorted((line, owner) for line, owner in owners.items() if line not in ran)


class TracePlugin:
    """Traces the test session from its start, before any test module (and
    so any module of the package) is imported."""

    def __init__(self, probe: Probe):
        self.probe = probe

    def pytest_sessionstart(self, session):
        if "hyperk" in sys.modules:
            raise RuntimeError("hyperk was imported before the trace started")
        self.probe.start()

    def pytest_sessionfinish(self, session, exitstatus):
        self.probe.stop()


def read_allow_list(path) -> tuple:
    """How many unrun lines each (module file name, qualified name,
    stripped source text) may allow, and the reason given for it, from the
    allow-list; blank lines and lines starting with '#' are skipped."""
    allowed, reasons = Counter(), {}
    for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        module, _, rest = line.partition(" | ")
        owner, _, rest = rest.partition(" | ")
        source, _, reason = rest.rpartition(" | ")
        key = module.strip(), owner.strip(), source.strip()
        if not (all(key) and reason.strip()):
            raise ValueError(
                f"{path}:{number}: expected 'module.py | qualified name | source | reason'")
        allowed[key] += 1
        reasons[key] = reason.strip()
    return allowed, reasons


def main() -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    probe = Probe(PACKAGE)
    status = pytest.main(
        ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")],
        plugins=[TracePlugin(probe)],
    )
    left, reasons = read_allow_list(ALLOW)
    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line, owner in probe.unrun(path):
            total += 1
            key = (path.name, owner, source[line - 1].strip())
            where = f"{path.name}:{line} in {owner}: {key[2]}"
            if left[key]:
                left[key] -= 1
                print(f"allowed  {where}  -- {reasons[key]}")
            else:
                missed += 1
                print(f"UNRUN    {where}")
    for key in sorted((+left).elements()):
        print("stale allow-list entry: " + " | ".join(key))
    print(f"{total} lines of src/hyperk never run, {missed} of them not allowed")
    return 1 if status != 0 or missed else 0


if __name__ == "__main__":
    sys.exit(main())
