"""Self-test of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Runs every workload on a shrunken batch, untraced and traced, and
   checks that the last line names exactly the metrics BENCHMARK.json
   declares, each with its declared unit, and that every output passed.
2. For every oracle, produces a correct output with persmod, checks that
   the oracle accepts it, then corrupts it and checks that the oracle
   rejects it, so no oracle is vacuous.

Exits 0 when everything holds and 1 otherwise, printing one line per
check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import sys
import tempfile

import gen
import oracle
import run

SEED = 7
SCALE = 0.1


def check_metric_names(declared):
    ok = True
    for workload in gen.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(
                    ["--workload", workload, "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace)],
                    scale=SCALE,
                )
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared[section]}
            good = code == 0 and result["correct"] and result["failed"] == 0 and got == want
            ok &= good
            detail = "" if got == want else f" missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}"
            bad_units = sorted(n for n in got if n in want and got[n] != want[n])
            if bad_units:
                detail += f" wrong units {bad_units}"
            print(f"{'ok' if good else 'FAIL'} {workload} --trace {trace}: {len(got)} metrics, correct={result['correct']}{detail}")
    return ok


def _drop_last_bar(output):
    lines = output.splitlines()
    keep = [n for n, line in enumerate(lines) if line and not line.startswith("#")]
    del lines[keep[-1]]
    return "\n".join(lines) + "\n"


def _drop_first_added_event(output):
    lines = output.splitlines()
    n = next(n for n, line in enumerate(lines) if line.startswith("+ "))
    del lines[n]
    return "\n".join(lines) + "\n"


def _zero_first_from_new(output):
    lines = output.splitlines()
    n = lines.index("# from_new") + 1
    lines[n] = lines[n].split(" -> ")[0] + " -> 0"
    return "\n".join(lines) + "\n"


def _extra_generator(output):
    return output + "gen corrupt 0\n"


def _longer_first_annihilator(output):
    def bump(match):
        return f"rel 1t^{int(match.group(1)) + 1}*"

    return re.sub(r"^rel 1t\^(\d+)\*", bump, output, count=1, flags=re.M)


CORRUPTIONS = {
    "barcode": _drop_last_bar,
    "stream": _drop_first_added_event,
    "presentation-barcode": _drop_last_bar,
    "snf": _zero_first_from_new,
    "kernel": _extra_generator,
    "image": _extra_generator,
    "cokernel": _extra_generator,
    "hom": _longer_first_annihilator,
    "wedge": _longer_first_annihilator,
}


def check_oracles():
    sys.path.insert(0, run.SRC)
    from persmod.cli import main as persmod_main

    ok = True
    seen = set()
    work = tempfile.mkdtemp(prefix="selfcheck-", dir=run.WORK)
    cwd = os.getcwd()
    try:
        os.chdir(work)
        for workload in gen.WORKLOADS:
            manifest, _ = gen.generate(workload, SEED, work, scale=SCALE)
            for entry in manifest["invocations"]:
                if entry["kind"] in seen:
                    continue
                seen.add(entry["kind"])
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = persmod_main(list(entry["argv"]))
                with open(entry["input"], encoding="ascii") as handle:
                    text = handle.read()
                if "output" in entry:
                    with open(entry["output"], encoding="ascii") as handle:
                        output = handle.read()
                else:
                    output = out.getvalue()
                accepted = code == 0 and not oracle.check(entry, text, output)
                corrupted = CORRUPTIONS[entry["kind"]](output)
                rejected = corrupted != output and bool(oracle.check(entry, text, corrupted))
                good = accepted and rejected
                ok &= good
                print(
                    f"{'ok' if good else 'FAIL'} oracle {entry['kind']}: "
                    f"accepts the output {accepted}, rejects the corruption {rejected}"
                )
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    missing = set(CORRUPTIONS) - seen
    if missing:
        print(f"FAIL no input exercised {sorted(missing)}")
    return ok and not missing


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="ascii") as handle:
        declared = json.load(handle)
    os.makedirs(run.WORK, exist_ok=True)
    ok = check_oracles()
    ok = check_metric_names(declared) and ok
    print("selfcheck passed" if ok else "selfcheck FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
