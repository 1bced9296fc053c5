"""Mutation check of the fast paths: every mutant must fail its tests.

Usage: python scripts/mutants.py

Each mutant names a function of ``src/persmod``, the exact text to
replace in it, the replacement and the tests to run.  For each mutant
the script copies ``src``, ``tests`` and ``pyproject.toml`` to a fresh
temporary directory, replaces the text and runs the named tests there
with pytest.  The mutant is killed when a test fails.  The named tests
must first pass on an unchanged copy.  The run fails (exit 1) if a
mutant survives, if its text is not found exactly once in its
function, or if pytest ends in any way other than passing or failing.
Standard library only; pytest and hypothesis must be importable, as
for the tests themselves.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name module function old new tests")

STREAM_TESTS = ("tests/test_streaming.py",)
KERNEL_STEP = (
    "tests/test_linalg.py::TestPreimage::test_equals_reference_kernel_step",
)

MUTANTS = (
    # counting births before v, not at or before it, misses a class born
    # at v, so a tied simplex that kills it would start a cycle (the
    # same change on the deaths side only adds reductions: equivalent)
    Mutant(
        "live-test-births-bisect-left", "streaming", "_insert",
        "bounds = bisect_right(births.get(below, ()), value)",
        "bounds = bisect_left(births.get(below, ()), value)",
        STREAM_TESTS,
    ),
    Mutant(
        "live-test-same-dimension", "streaming", "_insert",
        "below = dim - 1", "below = dim", STREAM_TESTS,
    ),
    Mutant(
        "steal-keeps-old-death", "streaming", "_insert",
        "        del ends[i]\n        insort(ends, death, 0, i)\n", "",
        STREAM_TESTS,
    ),
    Mutant(
        "steal-death-left-in-place", "streaming", "_insert",
        "        del ends[i]\n        insort(ends, death, 0, i)\n",
        "        ends[i] = death\n",
        STREAM_TESTS,
    ),
    Mutant(
        "new-pair-records-nothing", "streaming", "_insert",
        "            insort(deaths.setdefault(below, []), death)\n", "",
        STREAM_TESTS,
    ),
    Mutant(
        "new-cycle-records-nothing", "streaming", "_insert",
        "            insort(births.setdefault(dim, []), birth)\n", "",
        STREAM_TESTS,
    ),
    # a chain owner counted as a live cycle adds an infinite bar
    Mutant(
        "current-barcode-owners-as-cycles", "streaming", "current_barcode",
        "if c not in chains and c not in pairing", "if c not in pairing",
        STREAM_TESTS,
    ),
    Mutant(
        "current-barcode-dimension-off-by-one", "streaming",
        "current_barcode", "dim[i] = len(vertices) - 1",
        "dim[i] = len(vertices)", STREAM_TESTS,
    ),
    Mutant(
        "empty-simplex-accepted-by-stream", "streaming", "add_simplex",
        "    if not vertices:\n"
        "        raise ValueError(f\"simplex {vertices} has no vertices\")\n",
        "",
        ("tests/test_streaming.py::TestAddSimplex",),
    ),
    # accepting a face id equal to n (``> n`` for ``>= n``) is not
    # listed: a face never sits at its coface's own position, so that
    # mutant is equivalent
    Mutant(
        "arrival-check-last-face-only", "cli", "_cmd_stream",
        "max(faces) >= n", "faces[-1] >= n",
        ("tests/test_cli.py::TestStreamCommand::test_first_face_listed_late",),
    ),
    Mutant(
        "preimage-modders-first-at-tie", "linalg", "_preimage",
        "key=degrees.__getitem__)",
        "key=lambda c: (degrees[c], c < main.ncols))",
        KERNEL_STEP,
    ),
    Mutant(
        "preimage-keeps-empty-records", "linalg", "_preimage",
        "kept = [c for c in dead if cols[c]]", "kept = dead",
        KERNEL_STEP,
    ),
    Mutant(
        "reduce-ignores-before", "linalg", "_reduce",
        "if owner is None or (before is not None and key(owner) >= before):",
        "if owner is None:",
        STREAM_TESTS,
    ),
    Mutant(
        "no-clearing", "homology", "persistent_homology",
        "if r in lows:  # cleared", "if r in ():  # cleared",
        ("tests/test_homology.py::TestPersistentHomology",),
    ),
    # flipping every sign of an odd coface is a change of basis, so
    # only a lost parity, not a shifted one, changes the answer
    Mutant(
        "coboundary-signs-all-plus", "homology", "_coboundary",
        "signs[(d - k) % 2]", "signs[0]",
        ("tests/test_homology.py::TestPersistentHomology",),
    ),
    Mutant(
        "descent-never-fails", "homology", "_descent_failure",
        "if face_removal != removal:", "if face_removal < removal:",
        ("tests/test_homology.py::TestRelativeComplex",),
    ),
    Mutant(
        "combine-int-path-adds", "fields", "Rationals.combine",
        "new = a - rn * c", "new = a + rn * c",
        ("tests/test_fields.py",),
    ),
    # a negative denominator left in the ratio gives entries that are
    # no canonical Fraction, and wrong ints where they are integral
    Mutant(
        "combine-ratio-keeps-negative-denominator", "fields",
        "Rationals.combine",
        "        if rd < 0:\n            rn, rd = -rn, -rd\n", "",
        ("tests/test_fields.py::TestCombine",),
    ),
    Mutant(
        "combine-ratio-always-integral", "fields", "Rationals.combine",
        "if not rem:", "if True:", ("tests/test_fields.py::TestCombine",),
    ),
    Mutant(
        "prime-combine-skips-every-inverse", "fields", "PrimeField.combine",
        "a if b == 1 else", "a if b else",
        ("tests/test_fields.py::TestCombine",),
    ),
    # a later term of higher degree passes, so a relation or map line
    # that mixes degrees is read
    Mutant(
        "reader-degree-check-one-sided", "cli", "_read_column",
        "exponent + degrees[i] != degree", "exponent + degrees[i] < degree",
        ("tests/test_cli.py::TestParsePresentation::test_error_lines",
         "tests/test_cli.py::TestReaderMatchesReference"),
    ),
    # a later faulty term names the fault, not the first in term order
    Mutant(
        "reader-keeps-last-fault", "cli", "_read_column",
        "            if fault is None:\n                fault = name, exponent\n",
        "            fault = name, exponent\n",
        ("tests/test_cli.py::TestParsePresentation::test_error_lines",
         "tests/test_cli.py::TestReaderMatchesReference"),
    ),
    # a relation read before a generator it names is refused
    Mutant(
        "reader-skips-reread", "cli", "_parse_presentation_lines",
        "            read = _read_column(text, n, field, coeffs, index, degrees)\n",
        "            pass\n",
        ("tests/test_cli.py::TestReaderMatchesReference",),
    ),
    Mutant(
        "preimage-records-rank-first", "linalg", "_preimage",
        "[-1] * main.ncols", "[n] * main.ncols",
        KERNEL_STEP,
    ),
    Mutant(
        "membership-x-first-at-tie", "linalg", "membership",
        "key=degrees.__getitem__)",
        "key=lambda c: (degrees[c], c < sub.ncols))",
        ("tests/test_linalg.py", "tests/test_presentation.py"),
    ),
    Mutant(
        "snf-no-pivot-row-clearing", "linalg", "graded_snf",
        "for i, e in pivots:", "for i, e in pivots[:0]:",
        ("tests/test_snf.py",),
    ),
    Mutant(
        "annihilator-ignores-generator-degree", "presentation",
        "_annihilators", "ann[i] = rdeg[j] - gdeg[i]", "ann[i] = rdeg[j]",
        ("tests/test_presentation.py",),
    ),
    Mutant(
        "label-limit-off-by-one", "constructions", "_check_label_size",
        "if size > LABEL_LIMIT:", "if size >= LABEL_LIMIT:",
        ("tests/test_constructions.py::TestDiagonalLabelLimit",),
    ),
    Mutant(
        "tensor-label-size-drops-a-separator", "constructions", "tensor",
        "3 * len(pl)", "2 * len(pl)",
        ("tests/test_constructions.py::TestDiagonalLabelLimit",),
    ),
    # the diagonal columns: each is built in one pass, and a column
    # that goes wrong on its own leaves the other two as they were
    Mutant(
        "tensor-annihilator-column-max", "constructions", "tensor",
        "a if a < b else b", "a if a > b else b",
        ("tests/test_constructions.py::TestTensor",),
    ),
    Mutant(
        "power-annihilator-column-max", "constructions", "_power",
        "[*starmap(min, choose(anns, m))]", "[*starmap(max, choose(anns, m))]",
        ("tests/test_constructions.py::TestExteriorPower",),
    ),
    Mutant(
        "dual-degree-column-unnegated", "constructions", "dual",
        "[-d for d in degrees]", "[d for d in degrees]",
        ("tests/test_constructions.py::TestDual",),
    ),
    Mutant(
        "tensor-k-degree-column-unshifted", "constructions", "tensor_over_k",
        "[e + b for _, e in slots for b in pd]",
        "[b for _, e in slots for b in pd]",
        ("tests/test_constructions.py::TestTensorOverK",),
    ),
    # a generator killed on arrival keeps its degree, so every later
    # degree belongs to the generator before it
    Mutant(
        "diagonal-degrees-keep-killed-generators", "constructions",
        "_diagonal", "[*compress(p.gens.degrees, ann)]", "[*p.gens.degrees]",
        ("tests/test_constructions.py::TestSnfForm",),
    ),
    Mutant(
        "lazy-relation-at-generator-degree", "presentation",
        "_Diagonal.__getattr__", "degrees[n] + anns[n]", "degrees[n]",
        ("tests/test_constructions.py::TestLazyDiagonal",),
    ),
    # a free summand written as a relation "1t^inf*x", which no reader
    # reads back
    Mutant(
        "writer-keeps-free-annihilators", "cli", "format_presentation",
        "for a in set(p.anns) if a != INF}", "for a in set(p.anns)}",
        ("tests/test_cli.py::TestFormatterOracle",),
    ),
    # Python's own text for an int past the int-string limit, worded
    # differently on 3.10 and 3.11
    Mutant(
        "writer-passes-raw-digit-limit-error", "cli", "format_presentation",
        "    with _digit_limit():", "    if True:",
        ("tests/test_cli.py::TestParsePresentation::test_error_lines",),
    ),
    Mutant(
        "bars-pass-raw-digit-limit-error", "cli", "_print_bars",
        "with _digit_limit():", "if True:",
        ("tests/test_cli.py::TestParsePresentation::test_error_lines",),
    ),
    # INF + an int past float range raises OverflowError
    Mutant(
        "free-bar-death-added", "presentation", "barcode",
        "INF if a == INF else d + a", "d + a",
        ("tests/test_cli.py::TestPresentationBarcodeCommand",),
    ),
    Mutant(
        "free-torsion-bar-death-added", "homology", "torsion_homology",
        "INF if a == INF else deg + a", "deg + a",
        ("tests/test_cli.py::TestRelativeCommand",),
    ),
    # equivalent output, so the test that no graded SNF runs kills it
    Mutant(
        "snf-without-dump-runs-graded-snf", "cli", "_cmd_snf",
        "if not args.dump:", "if False:",
        ("tests/test_cli.py::TestSnfCommand",),
    ),
    Mutant(
        "empty-simplex-accepted", "homology", "FilteredComplex.__init__",
        "            if not vertices:\n"
        "                raise ValueError(f\"simplex {vertices} has no vertices\")\n",
        "",
        ("tests/test_homology.py::TestFilteredComplex",),
    ),
    Mutant(
        "face-index-misses-repeated-vertex", "homology", "_face_index",
        "if None not in at and at[0] != at[-1]:", "if None not in at:",
        ("tests/test_homology.py::TestFilteredComplex",),
    ),
    Mutant(
        "face-index-allows-later-face", "homology", "_face_index",
        "births[m] > birth", "births[m] > birth + 1",
        ("tests/test_homology.py::TestFilteredComplex",),
    ),
)
assert len({m.name for m in MUTANTS}) == len(MUTANTS)


def function_span(source: str, function: str):
    """Character offsets of a module-level function or ``Class.method``."""
    body = ast.parse(source).body
    *owners, name = function.split(".")
    for owner in owners:
        body = next(
            node.body for node in body
            if isinstance(node, ast.ClassDef) and node.name == owner
        )
    node = next(
        node for node in body
        if isinstance(node, ast.FunctionDef) and node.name == name
    )
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts[node.lineno - 1], starts[node.end_lineno]


def mutated(source: str, mutant: Mutant) -> str:
    """The module source with the mutant's text replaced, once."""
    try:
        start, end = function_span(source, mutant.function)
    except StopIteration:
        raise LookupError(f"no function {mutant.function}") from None
    found = source.count(mutant.old, start, end)
    if found != 1:
        raise LookupError(
            f"text found {found} times in {mutant.function}, not once"
        )
    at = source.index(mutant.old, start, end)
    return source[:at] + mutant.new + source[at + len(mutant.old):]


def run_tests(work: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(work / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p",
         "no:cacheprovider", *tests],
        cwd=work, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def copy_tree(work: Path):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, work / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", work)


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="persmod-mutants-") as tmp:
        baseline = Path(tmp) / "baseline"
        copy_tree(baseline)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        code = run_tests(baseline, tests)
        if code != 0:
            print(f"the named tests fail on the unchanged code (pytest {code})")
            return 1
        for n, mutant in enumerate(MUTANTS):
            work = Path(tmp) / f"m{n}"
            copy_tree(work)
            path = work / "src" / "persmod" / f"{mutant.module}.py"
            started = time.perf_counter()
            detail = ""
            try:
                path.write_text(mutated(path.read_text(), mutant))
            except LookupError as e:
                verdict, detail = "ERROR", f": {e}"
            else:
                code = run_tests(work, mutant.tests)
                verdict = {0: "SURVIVED", 1: "killed"}.get(code, "ERROR")
                if verdict == "ERROR":
                    detail = f": pytest exit code {code}"
            failures += verdict != "killed"
            seconds = time.perf_counter() - started
            print(
                f"{verdict:<9} {mutant.name} ({mutant.module}."
                f"{mutant.function}, {seconds:.1f} s){detail}"
            )
            shutil.rmtree(work)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
