"""Line coverage of the package: every line of ``src/persmod`` must run
under the tier-1 tests.

Usage: python scripts/coverage.py

Needs Python 3.12 or later, for ``sys.monitoring``.  Before the package
is imported, the script registers a LINE callback that records each
line of ``src/persmod`` the first time it runs and then disables
itself at that location.  It runs the tier-1 tests in process through
``pytest.main``, package doctests included, and fails if they do not
pass.  A module's executable lines are the line numbers of every code
object compiled from its source.  Each line that never ran is printed
as ``path:line: text``.  The run fails (exit 1) if such a line is not
in ``ALLOWLIST``, or if an allowlist entry matches no line that did
not run: its line now runs, or its text changed.  Entries are keyed
by module, function (the code object's qualified name) and the exact
stripped line text, as the mutants of ``scripts/mutants.py`` are, so a
line number never pins one.  Standard library only; pytest and
hypothesis must be importable, as for the tests themselves.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "persmod"

# the tier-1 verify arguments; -p hypothesis loads the plugin when
# PYTEST_DISABLE_PLUGIN_AUTOLOAD is set and is harmless when it is not
PYTEST_ARGS = ("-q", "--continue-on-collection-errors", "-p", "hypothesis")

Allowed = namedtuple("Allowed", "module function text reason")

# lines that may stay unrun, each with the reason no test runs it
ALLOWLIST = ()

Line = namedtuple("Line", "module function number text")


def executable_lines(path: Path):
    """Line number -> qualified name of the innermost code object of
    each line the compiler gives an instruction, in the module at
    ``path``."""
    lines = {}
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        for _, _, number in code.co_lines():
            if number:  # None or 0: an instruction of the compiler's own
                lines[number] = code.co_qualname
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def unrun_lines(hits):
    """(number of executable lines in the package, those not in
    ``hits``), ``hits`` being a set of (file name, line number) pairs;
    the unrun lines come in file and line order."""
    total = 0
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for number, function in sorted(lines.items()):
            if (str(path), number) not in hits:
                found.append(Line(
                    path.stem, function, number, text[number - 1].strip()
                ))
    return total, found


def check(unrun, allowlist):
    """(report lines, failures) for the unrun lines against the allowlist.

    A failure is an unrun line that no entry allows, or an entry that
    allows no unrun line.
    """
    allowed = {(a.module, a.function, a.text): a.reason for a in allowlist}
    report, failures = [], 0
    matched = set()
    for line in unrun:
        key = (line.module, line.function, line.text)
        where = f"src/persmod/{line.module}.py:{line.number}: {line.text}"
        if key in allowed:
            matched.add(key)
            report.append(f"{where}  (allowed: {allowed[key]})")
        else:
            failures += 1
            report.append(where)
    for a in allowlist:
        if (a.module, a.function, a.text) not in matched:
            failures += 1
            report.append(
                f"allowlist entry runs or is gone: {a.module} {a.function} "
                f"{a.text!r}"
            )
    return report, failures


def main() -> int:
    if sys.version_info < (3, 12):
        print(
            "scripts/coverage.py needs Python 3.12 or later (sys.monitoring)",
            file=sys.stderr,
        )
        return 2
    monitoring = sys.monitoring
    tool = monitoring.COVERAGE_ID
    prefix = str(PACKAGE) + os.sep
    hits = set()

    def on_line(code, number):
        if code.co_filename.startswith(prefix):
            hits.add((code.co_filename, number))
        return monitoring.DISABLE

    monitoring.use_tool_id(tool, "persmod-coverage")
    monitoring.register_callback(tool, monitoring.events.LINE, on_line)
    monitoring.set_events(tool, monitoring.events.LINE)
    try:
        import pytest

        os.chdir(ROOT)
        output = io.StringIO()
        with contextlib.redirect_stdout(output):
            code = pytest.main(list(PYTEST_ARGS))
    finally:
        monitoring.set_events(tool, 0)
        monitoring.free_tool_id(tool)
    if code != 0:
        sys.stdout.write(output.getvalue())
        print(f"the tier-1 tests do not pass (pytest {int(code)})")
        return 1
    total, unrun = unrun_lines(hits)
    report, failures = check(unrun, ALLOWLIST)
    for line in report:
        print(line)
    print(
        f"{total - len(unrun)} of {total} executable lines ran; "
        f"{len(unrun)} did not, {failures} failures"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
