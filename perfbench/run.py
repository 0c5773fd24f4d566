"""Benchmark of the momentangle calculator: four seeded workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload spheres --seed 1 --seconds 20 --trace 0

Every operation runs the way a user runs it, in-process through
``momentangle.cli.main([... "--json"])`` with stdout captured and parsed; the
linear oracle, which the CLI does not expose, is called through
``presentations.graded_dimensions(..., method="linear")``.  Each output is
checked against the references in ``workloads.py``.

With ``--trace 0`` the run times passes over the workload's operation list
and reports the end-to-end metrics.  With ``--trace 1`` it alternates an
untraced pass with a traced pass on the same inputs and reports the
per-layer metrics (see ``tracing.py``).  A human-readable report goes to
stderr; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11


class Package:
    """A fresh import of the package under test."""

    def __init__(self):
        for name in [m for m in sys.modules
                     if m == "momentangle" or m.startswith("momentangle.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("momentangle.cli")
        self.complexes = sys.modules["momentangle.complexes"]


def setup(workload, seed, workdir):
    """Import the package and write the run's inputs; return their handles."""
    pkg = Package()
    return pkg, workloads.Inputs(pkg, workload, seed, workdir)


def run_call(call):
    """Run one operation; return (seconds, exit code, parsed output or None).

    The package is looked up in ``sys.modules`` at call time, so a traced
    pass reaches the wrapped functions.
    """
    op = call.op
    out = io.StringIO()
    doc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            if op.kind == "linear":
                (max_degree,) = op.flags
                with open(call.path, encoding="utf-8") as fh:
                    text = fh.read()
                pres = sys.modules["momentangle.presentations"]
                K = sys.modules["momentangle.complexes"].parse_complex(text)
                series = pres.graded_dimensions(pres.build_cp_presentation(K), max_degree,
                                                method="linear")
                code, doc = 0, list(series.coeffs)
            else:
                code = sys.modules["momentangle.cli"].main(call.argv())
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an operation that raises counts as failed
            code = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if op.kind != "linear" and isinstance(code, int):
        try:
            doc = json.loads(out.getvalue())
        except ValueError:
            doc = None
    return seconds, code, doc


def run_pass(inputs, k, tracer=None, by_op=None):
    """One pass over the operation list on a fresh import of the package.

    Returns ([(call, seconds)], tally, notes).  A traced pass adds each
    operation's wall time and per-layer self times to ``by_op[name]``.
    """
    Package()
    if tracer is not None:
        tracer.install()
    tally = workloads.Tally()
    timed = []
    notes = []
    for call in inputs.calls(k):
        gc.collect()
        before = tracer.layer_self_s() if tracer is not None else None
        seconds, code, doc = run_call(call)
        if tracer is not None:
            acc = by_op.setdefault(call.op.name, {"wall": 0.0})
            acc["wall"] += seconds
            for layer, secs in tracer.layer_self_s().items():
                acc[layer] = acc.get(layer, 0.0) + secs - before[layer]
        t = workloads.check(call.op, code, doc)
        tally.add(t)
        timed.append((call, seconds))
        if t.failed or t.unexpected_cells:
            notes.append(f"{call.op.name}: exit {code} (expected {call.op.expect_exit}), "
                         f"{t.unexpected_cells} unexpected wrong cells")
    return timed, tally, notes


def op_means(passes):
    """Mean seconds per operation, each distinct input weighted equally.

    Successive passes run different relabelings, and a run seldom ends on
    a whole cycle of them; averaging per input first keeps the inputs met
    twice from counting double.
    """
    slots = {}
    for timed in passes:
        for call, secs in timed:
            slots.setdefault(call.op.name, {}).setdefault(call.slot, []).append(secs)
    return {name: statistics.fmean(statistics.fmean(v) for v in by_slot.values())
            for name, by_slot in slots.items()}


def end_to_end(passes, ops, setup_times):
    means = op_means(passes)
    return {
        "wall_s": (sum(op.copies * means[op.name] for op in ops), "s"),
        "op_max_s": (max(means.values()), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced_walls, plain_walls, tally):
    """Per-pass per-layer metrics from the traced passes."""
    tracer.flush_root()
    passes = len(traced_walls)
    self_s = tracer.self_s
    counts = tracer.counts

    def per(x):
        return x / passes

    def s(name):
        return self_s.get(name, 0.0)

    nf_all_s, nf_all_calls = tracer.leaf_total("RewritingSystem.normal_form")
    nf_comp_s, nf_comp_calls = tracer.leaf_total("RewritingSystem.normal_form",
                                                 tracing.COMPLETION)
    d_word_s, d_word_calls = tracer.leaf_total("DGAModel.d_word")
    comm_s, comm_calls = tracer.leaf_total("commutator")
    add_s, _ = tracer.leaf_total("IncrementalRank.add")
    init_s, _ = tracer.leaf_total("IncrementalRank.__init__")
    rows = counts.get("linalg.rows", 0)
    candidates = counts.get("decompose.candidates", 0)
    rejected = counts.get("decompose.rejected", 0)
    layers = tracer.layer_self_s()
    traced_wall = sum(traced_walls)
    m = {
        "cli.self_s": (per(s("main")), "s"),
        "complexes.parse_s": (per(s("parse_complex")), "s"),
        "complexes.missing_faces_s": (per(s("missing_faces")), "s"),
        "presentations.build_s": (per(s("build_cp_presentation")
                                      + s("build_sphere_presentation")), "s"),
        "presentations.linear_s": (per(s("graded_dimensions")), "s"),
        "presentations.kernel_series_s": (per(s("kernel_generator_series")), "s"),
        "rewriting.complete_s": (per(s(tracing.COMPLETION) + nf_comp_s), "s"),
        "rewriting.rules": (per(counts.get("rewriting.rules", 0)), "count"),
        "rewriting.count_s": (per(s("RewritingSystem.series")), "s"),
        "rewriting.normal_words": (per(counts.get("rewriting.normal_words", 0)), "count"),
        "rewriting.normal_form_s": (per(nf_all_s - nf_comp_s), "s"),
        "rewriting.normal_form_calls": (per(nf_all_calls - nf_comp_calls), "count"),
        "rewriting.normal_form_terms": (per(counts.get("rewriting.normal_form_terms", 0)),
                                        "count"),
        "tensor.commutator_s": (per(comm_s), "s"),
        "tensor.commutator_calls": (per(comm_calls), "count"),
        "allday.build_s": (per(s("build_fat_wedge_model") + s("build_product_model")), "s"),
        "allday.homology_self_s": (per(s("homology_series")), "s"),
        "allday.d_word_s": (per(d_word_s), "s"),
        "allday.d_word_calls": (per(d_word_calls), "count"),
        "allday.d_squared_s": (per(s("check_d_squared")), "s"),
        "linalg.rank_s": (per(s("sparse_rank") + add_s + init_s), "s"),
        "linalg.matrices": (per(counts.get("linalg.matrices", 0)), "count"),
        "linalg.rows": (per(rows), "count"),
        "linalg.nnz": (per(counts.get("linalg.nnz", 0)), "count"),
        "linalg.rank": (per(counts.get("linalg.rank", 0)), "count"),
        "linalg.useful_ratio": (counts.get("linalg.rank", 0) / rows if rows else 0.0, "ratio"),
        "decompose.self_s": (per(s("decompose_cp") + s("decompose_spheres")
                                 + s("consistency_report")), "s"),
        "decompose.candidates": (per(candidates), "count"),
        "decompose.rejected": (per(rejected), "count"),
        "decompose.accept_ratio": ((candidates - rejected) / candidates if candidates else 0.0,
                                   "ratio"),
        "trace_overhead": (statistics.median(traced_walls) / statistics.median(plain_walls)
                           - 1, "ratio"),
        "trace.uncovered_share": (1 - sum(layers.values()) / traced_wall, "ratio"),
        "result.wrong_cells": (tally.wrong_cells, "count"),
        "result.flags": (tally.flags, "count"),
        "result.failed_share": (tally.failed / tally.attempted, "ratio"),
    }
    shares = {layer: secs / traced_wall for layer, secs in layers.items()}
    return m, shares


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "momentangle" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work_base = ROOT / ".perfbench_work"
    work_base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_base))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            pkg, inputs = setup(args.workload, args.seed, workdir)
            setup_times.append(time.perf_counter() - start)
        if Path(pkg.cli.__file__).resolve().parent != (SRC / "momentangle").resolve():
            print(f"error: imported momentangle from {pkg.cli.__file__}", file=sys.stderr)
            return 2

        tally = workloads.Tally()
        notes = []
        plain, traced = [], []
        tracer = tracing.Tracer() if args.trace else None
        by_op = {}
        deadline = time.perf_counter() + args.seconds
        k = 0
        while k == 0 or time.perf_counter() < deadline:
            times, t, n = run_pass(inputs, k)
            plain.append(times)
            tally.add(t)
            notes += n
            if tracer is not None:
                times, t, n = run_pass(inputs, k, tracer, by_op)
                traced.append(times)
                tally.add(t)
                notes += n
            k += 1
        if tracer is not None:
            tracer.write(work_base / f"trace-{args.workload}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = [f"workload {args.workload} seed {args.seed} passes {k} "
              f"python {sys.version.split()[0]} nproc {len(os.sched_getaffinity(0))}",
              f"attempted {tally.attempted} failed {tally.failed} "
              f"failed_share {tally.failed / tally.attempted:.4f} ratio "
              f"wrong_cells {tally.wrong_cells} count "
              f"(unexpected {tally.unexpected_cells}) flags {tally.flags} count"]
    report += notes[:20]
    if tracer is None:
        metrics = end_to_end(plain, inputs.ops, setup_times)
        for op in inputs.ops:
            report.append(f"  {op_means(plain)[op.name]:9.4f} s  {op.name} "
                          f"(x{op.copies} per pass)")
    else:
        metrics, shares = per_layer(tracer, [sum(s for _, s in t) for t in traced],
                                    [sum(s for _, s in t) for t in plain], tally)
        report.append("layer self-time shares of traced wall: " + " ".join(
            f"{layer} {share:.3f}" for layer, share in
            sorted(shares.items(), key=lambda kv: -kv[1])))
        for name, acc in by_op.items():
            wall = acc.pop("wall")
            top = sorted(acc.items(), key=lambda kv: -kv[1])[:3]
            report.append(f"  {name}: " + " ".join(f"{layer} {secs / wall:.3f}"
                                                   for layer, secs in top))
    for name, (value, unit) in metrics.items():
        report.append(f"  {name} {value} {unit}")
    print("\n".join(report), file=sys.stderr)
    correct = tally.failed == 0 and tally.unexpected_cells == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
