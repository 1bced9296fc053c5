"""The timed process: runs a generated batch through ``persmod.cli.main``.

    python3 perfbench/timed.py SRC_DIR WORK_DIR SECONDS TRACE RESULT_JSON

Started by run.py as a fresh process after the inputs exist, so its
peak RSS measures the program.  The batch (every invocation in
WORK_DIR/manifest.json, in order) is run in rounds until another round
would overrun SECONDS; at least one round always runs.  Each invocation
is preceded by a garbage collection and timed with reference samples
around and inside it; its time is reported both raw and calibrated
(see calib.py).  With TRACE = 1 every round runs the batch twice,
untraced and then traced, and the result also carries the per-layer
reduction of the spans.

Outputs of the first round are kept as ``<input>.stdout`` for the
oracles; later rounds, traced ones included, must reproduce them
byte for byte.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import calib
import layers


def run_invocation(cli, entry, sampler):
    """(raw seconds, calibrated seconds, exit code, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()

    def invoke():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return cli.main(list(entry["argv"])), None
            except SystemExit as e:
                return (e.code if isinstance(e.code, int) else 1), None
            except Exception:  # a traceback is a failure to report, not a crash
                return None, traceback.format_exc()

    gc.collect()
    (code, error), raw, calibrated = sampler.time(invoke)
    if code != 0 and error is None:
        error = f"exit code {code}: {err.getvalue().strip()}"
    return raw, calibrated, code, out.getvalue(), error


class Batch:
    """Per-invocation records accumulated over rounds."""

    def __init__(self, invocations):
        self.invocations = invocations
        self.raw = [[] for _ in invocations]
        self.calibrated = [[] for _ in invocations]
        self.errors = [[] for _ in invocations]
        self.digest = [None] * len(invocations)
        self.output_bytes = 0

    def run(self, cli, sampler, first_round):
        for n, entry in enumerate(self.invocations):
            raw, calibrated, code, stdout, error = run_invocation(cli, entry, sampler)
            self.raw[n].append(raw)
            self.calibrated[n].append(calibrated)
            data = stdout.encode("ascii", "replace")
            if "output" in entry and code == 0:
                with open(entry["output"], "rb") as handle:
                    data += handle.read()
            self.output_bytes += len(data)
            if error is not None:
                self.errors[n].append(error)
                continue
            digest = hashlib.sha256(data).hexdigest()
            if first_round and self.digest[n] is None:
                self.digest[n] = digest
                with open(entry["input"] + ".stdout", "w", encoding="ascii") as handle:
                    handle.write(stdout)
            elif digest != self.digest[n]:
                self.errors[n].append("output differs from the first round")


def layer_report(tracer, rounds, traced_total):
    """Per-round self times (raw s) and counts of the traced passes."""
    self_s = tracer.self_times()
    counts = tracer.counts
    per_round = lambda v: v / rounds  # noqa: E731

    def self_of(*names):
        return per_round(sum(self_s.get(n, 0.0) for n in names))

    cli_names = [n for n in self_s if n.startswith("cli.")]
    times = {
        "cli.self_s": self_of(*cli_names),
        "cli.parse_s": self_of(*layers.CLI_PARSE),
        "homology.graded_boundary_s": self_of("homology.graded_boundary"),
        "homology.persistent_homology.self_s": self_of("homology.persistent_homology"),
        "linalg.column_echelon_s": self_of("linalg.column_echelon"),
        "linalg.express_in_columns_s": self_of("linalg.express_in_columns"),
        "linalg.graded_snf_s": self_of("linalg.graded_snf"),
        "linalg.free_kernel_s": self_of("linalg.free_kernel"),
        "presentation.barcode.self_s": self_of("presentation.barcode"),
        "presentation.validate_morphism_s": self_of("presentation.validate_morphism"),
        "constructions.snf_form.self_s": self_of("constructions.snf_form"),
        "constructions.kernel.self_s": self_of("constructions.kernel"),
        "constructions.image.self_s": self_of("constructions.image"),
        "constructions.cokernel_s": self_of("constructions.cokernel"),
        "constructions.tensor.self_s": self_of("constructions.tensor"),
        "constructions.exterior_power.self_s": self_of("constructions.exterior_power"),
        "streaming.add_simplex_s": self_of("streaming.add_simplex"),
    }
    count_names = (
        "cli.output_bytes",
        "homology.boundary_nnz",
        "linalg.column_echelon.calls",
        "linalg.column_echelon.cols",
        "linalg.column_echelon.zero_cols",
        "linalg.column_echelon.nnz_in",
        "linalg.column_echelon.nnz_out",
        "linalg.express_in_columns.calls",
        "linalg.graded_snf.calls",
        "linalg.graded_snf.nnz_change",
        "streaming.add_simplex.calls",
        "streaming.removed_bars",
        "streaming.chain_nnz",
        "fields.mul_calls",
        "fields.div_calls",
        "fields.sub_calls",
    )
    report = {}
    for name, value in times.items():
        report[name] = (value, "s")
        report[name[: -len("_s")] + "_share"] = (value / per_round(traced_total), "ratio")
    for name in count_names:
        report[name] = (counts.get(name, 0) // rounds, "count")
    return report


def main(argv):
    src, work, seconds, trace, result_path = argv
    seconds, trace = float(seconds), trace == "1"
    sys.path.insert(0, src)
    from persmod import cli

    with open(os.path.join(work, "manifest.json"), encoding="ascii") as handle:
        invocations = json.load(handle)["invocations"]
    os.chdir(work)

    tracer = layers.Tracer()
    sampler = calib.Sampler()
    traced_sampler = calib.Sampler(on_sample=tracer.note_sample)
    run_invocation(cli, invocations[0], sampler)  # warm-up, not recorded
    plain = Batch(invocations)
    traced = Batch(invocations) if trace else None
    rounds = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain.run(cli, sampler, first_round=rounds == 0)
        if trace:
            traced.digest = plain.digest
            tracer.install()
            try:
                traced.run(cli, traced_sampler, first_round=False)
            finally:
                tracer.uninstall()
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break

    result = {
        "rounds": rounds,
        "raw": plain.raw,
        "calibrated": plain.calibrated,
        "errors": plain.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        tracer.counts["cli.output_bytes"] = traced.output_bytes
        traced_total = sum(map(sum, traced.raw))
        report = layer_report(tracer, rounds, traced_total)
        report["trace.overhead_ratio"] = (
            sum(map(sum, traced.calibrated)) / sum(map(sum, plain.calibrated)),
            "ratio",
        )
        result["layers"] = report
        result["errors"] = [a + b for a, b in zip(plain.errors, traced.errors)]
        tracer.write(os.path.join(work, "spans.tsv"))
    with open(result_path, "w", encoding="ascii") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
