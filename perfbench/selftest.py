"""Self-test of the benchmark's own checks and trace accounting.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs a few cheap operations and shows that the checks can fail: a
corrupted reference raises ``wrong_cells``, an unexpected exit code raises
``failed_share``, two seeds give identical counts from different inputs,
self times add up, and the benchmark refuses to run without the package
source.  Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run
import tracing
import workloads

FAILURES = []


def expect(cond, message):
    print(("ok    " if cond else "FAIL  ") + message)
    if not cond:
        FAILURES.append(message)


def by_name(name):
    return next(op for op in workloads.WORKLOADS["skeleta"] if op.name == name)


def run_ops(ops, seed, workdir):
    pkg = run.Package()
    inputs = workloads.Inputs(pkg, "selftest", seed, workdir, ops=ops)
    return [(call, *run.run_call(call)) for call in inputs.calls(0)]


def test_checks(workdir):
    k1, check42 = by_name("decompose K1"), by_name("check skel(4,2)")
    results = run_ops((k1, check42), 1, workdir)
    (_, _, code1, doc1), (_, _, code2, doc2) = results
    clean = workloads.check(k1, code1, doc1)
    expect(clean.failed == 0 and clean.wrong_cells == 0,
           "decompose K1 matches its reference")
    corrupted = dataclasses.replace(k1, reference={**k1.reference, 3: 2})
    t = workloads.check(corrupted, code1, doc1)
    expect(t.wrong_cells == 1 and t.unexpected_cells == 1 and t.failed == 0,
           "a corrupted reference raises wrong_cells")
    known = workloads.check(check42, code2, doc2)
    expect(known.failed == 0 and known.wrong_cells == 2 and known.unexpected_cells == 0
           and known.flags == 1,
           "the skel(4,2) overcount counts in wrong_cells and flags, not failed_share")
    t = workloads.check(dataclasses.replace(check42, known={}), code2, doc2)
    expect(t.unexpected_cells == 2, "an unpinned overcount is unexpected")
    t = workloads.check(dataclasses.replace(check42, expect_exit=0), code2, doc2)
    expect(t.failed == 1, "an unexpected exit code raises failed_share")


def test_seeds(workdir):
    ops = (by_name("decompose K1"), by_name("decompose K3"))
    one = run_ops(ops, 1, workdir / "seed1")
    two = run_ops(ops, 2, workdir / "seed2")
    texts = [Path(call.path).read_text() for call, *_ in one + two]
    expect(texts[:2] != texts[2:], "seeds 1 and 2 relabel the inputs differently")
    counts = [{s["dimension"]: s["count"] for s in doc["summands"]}
              for *_, doc in one + two]
    expect(counts[:2] == counts[2:], "seeds 1 and 2 give identical counts")
    again = run_ops(ops, 1, workdir / "seed1-again")
    expect([Path(c.path).read_text() for c, *_ in again] == texts[:2],
           "the same seed gives the same inputs")


def test_trace_accounting():
    tracer = tracing.Tracer()
    leaf = tracer.leaf("leaf", lambda: time.sleep(0.01))
    inner = tracer.span("inner", lambda: (time.sleep(0.02), leaf()))

    def outer_body():
        time.sleep(0.03)
        inner()
        leaf()

    outer = tracer.span("outer", outer_body)
    start = time.perf_counter()
    outer()
    wall = time.perf_counter() - start
    tracer.flush_root()
    selfs = tracer.self_s
    leaf_s = sum(tracer.leaf_s.values())
    expect(abs(selfs["outer"] + selfs["inner"] + leaf_s - wall) < 0.002,
           "self times and leaves add up to the wall time")
    expect(0.03 <= selfs["outer"] < 0.04 and 0.02 <= selfs["inner"] < 0.03,
           "a span's self time excludes its children and leaves")
    expect([s[3] for s in tracer.spans] == [-1, 0], "spans record their parent")
    expect(tracer.leaf_calls == {("leaf", "inner"): 1, ("leaf", "outer"): 1},
           "leaf calls are attributed to the enclosing span")


def test_install():
    run.Package()
    tracing.Tracer().install()
    mods = sys.modules
    bound = [mods["momentangle.cli"].missing_faces,
             mods["momentangle.presentations"].missing_faces,
             mods["momentangle.decompose"].missing_faces,
             mods["momentangle.allday"].sparse_rank,
             mods["momentangle.decompose"].commutator,
             mods["momentangle.linalg"].IncrementalRank.add]
    expect(all(hasattr(f, "__wrapped__") for f in bound),
           "names bound by from-import are wrapped in every importing module")


def test_refuses_without_source(workdir):
    bare = workdir / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    p = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "spheres",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=120)
    expect(p.returncode != 0 and not p.stdout.strip(),
           "without the package source the benchmark exits nonzero and prints no result")


def main():
    sys.path.insert(0, str(run.SRC))
    base = run.ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=base))
    try:
        for sub in ("seed1", "seed2", "seed1-again", "checks"):
            (workdir / sub).mkdir()
        test_checks(workdir / "checks")
        test_seeds(workdir)
        test_trace_accounting()
        test_install()
        test_refuses_without_source(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
