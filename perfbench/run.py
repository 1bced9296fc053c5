"""Benchmark of the persmod CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload rips-barcode --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory.  Steps:

1. gen.py writes the workload's inputs under ``.perfbench_work/`` and
   the sha256 over them is printed;
2. fresh processes import ``persmod.cli`` and build the field, timing
   set-up (median of several);
3. timed.py runs the batch in a fresh process for ``--seconds``;
4. oracle.py checks every output outside the timed process.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is 0 only when every output is correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calib
import gen
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_PROBES = 11
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import persmod.cli as cli; "
    "cli.field_from_string(sys.argv[2]); sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


def setup_seconds(field):
    """Calibrated time from process start until persmod.cli and the field are ready."""
    before = calib.reference_seconds(10)
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", PROBE, SRC, field], stdout=subprocess.PIPE
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    if proc.returncode != 0 or line != b"ready\n":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    after = calib.reference_seconds(10)
    return calib.calibrated(elapsed, (before + after) / 2)


def median_setup_seconds(field):
    """Median over SETUP_PROBES probes, after one unrecorded warm-up."""
    setup_seconds(field)  # first import may write bytecode caches
    return statistics.median(setup_seconds(field) for _ in range(SETUP_PROBES))


def tail(values):
    """(value, percentile) of the highest percentile with >= 10 values beyond it.

    With 10 values or fewer no percentile qualifies; the minimum is
    returned as p0.
    """
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[0], 0
    k = len(ordered) - 11
    return ordered[k], math.floor(100 * (k + 1) / len(ordered))


def oracle_errors(work, manifest, timed):
    """Per-invocation error lists: the timed process's, then the oracle's."""
    errors = [list(e) for e in timed["errors"]]
    for n, entry in enumerate(manifest["invocations"]):
        if errors[n]:
            continue
        with open(os.path.join(work, entry["input"]), encoding="ascii") as handle:
            text = handle.read()
        produced = os.path.join(work, entry.get("output", entry["input"] + ".stdout"))
        with open(produced, encoding="ascii") as handle:
            output = handle.read()
        errors[n] = oracle.check(entry, text, output)
    return errors


def end_to_end(timed, setup):
    """The end-to-end metrics and the raw figures printed beside them."""
    rounds = timed["rounds"]
    per_input = [statistics.median(t) for t in timed["calibrated"]]
    per_input_raw = [statistics.median(t) for t in timed["raw"]]
    tail_value, percentile = tail(per_input)
    tail_raw, _ = tail(per_input_raw)
    invocations = rounds * len(per_input)
    metrics = {
        "cmd_p50_ms": (statistics.median(per_input) * 1e3, "ms"),
        "cmd_tail_ms": (tail_value * 1e3, "ms"),
        "throughput_cmd_per_s": (invocations / sum(map(sum, timed["calibrated"])), "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
    }
    notes = {
        "cmd_p50_ms": f"raw {statistics.median(per_input_raw) * 1e3:.4g} ms",
        "cmd_tail_ms": (
            f"p{percentile} of {len(per_input)} per-input medians over {rounds} rounds, "
            f"raw {tail_raw * 1e3:.4g} ms"
        ),
        "throughput_cmd_per_s": f"raw {invocations / sum(map(sum, timed['raw'])):.4g} /s",
    }
    return metrics, notes


def main(argv=None, scale=1.0):
    """Run the benchmark; ``scale`` < 1 shrinks the batch (selfcheck.py)."""
    parser = argparse.ArgumentParser(description="persmod CLI benchmark (one run)")
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "persmod", "cli.py")):
        print(f"error: no persmod sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        manifest, sha = gen.generate(args.workload, args.seed, work, scale)
        invocations = manifest["invocations"]
        print(f"workload {args.workload} seed {args.seed}: {len(invocations)} invocations, inputs sha256 {sha}")
        setup = median_setup_seconds(invocations[0]["field"])
        result_path = os.path.join(work, "result.json")
        subprocess.run(
            [
                sys.executable, os.path.join(HERE, "timed.py"), SRC, work,
                str(args.seconds), str(args.trace), result_path,
            ],
            check=True,
            timeout=args.seconds + 120,
        )
        with open(result_path, encoding="ascii") as handle:
            timed = json.load(handle)
        errors = oracle_errors(work, manifest, timed)
        if args.trace:
            shutil.copyfile(
                os.path.join(work, "spans.tsv"),
                os.path.join(WORK, f"{args.workload}.spans.tsv"),
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs_per_input = timed["rounds"] * (2 if args.trace else 1)
    attempted = runs_per_input * len(invocations)
    failed = runs_per_input * sum(1 for e in errors if e)
    for entry, errs in zip(invocations, errors):
        for e in errs[:3]:
            print(f"FAILED {' '.join(entry['argv'])}: {e}")

    if args.trace:
        metrics = {name: tuple(v) for name, v in timed["layers"].items()}
        notes = {}
    else:
        metrics, notes = end_to_end(timed, setup)
    print(f"failed_ratio {failed / attempted} ({failed} of {attempted} invocations)")
    by_kind = {}
    for entry, times in zip(invocations, timed["calibrated"]):
        by_kind[entry["kind"]] = by_kind.get(entry["kind"], 0.0) + sum(times)
    total = sum(by_kind.values())
    print("time share by command: " + ", ".join(f"{k} {v / total:.1%}" for k, v in by_kind.items()))
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{extra}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
