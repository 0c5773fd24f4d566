"""The benchmark's workloads: operation lists, seeded inputs and references.

Every reference here is independent of the route being timed: closed forms
computed here, or counts pinned in this file that every seed must
reproduce.  The seed only relabels vertices (and permutes ``--dims`` to
match), which changes the work but leaves every certified count unchanged.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from itertools import zip_longest
from math import comb

# The complexes of the package's test fixtures, as generating faces.
FIXTURES = {
    "K1": (4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))),
    "K2": (4, ((1, 2), (1, 3), (1, 4), (2, 3))),
    "K3": (5, ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 5))),
}


@dataclass(frozen=True)
class Op:
    """One operation of a workload, instantiated afresh in every pass.

    ``kind`` is a CLI subcommand, or ``linear`` for the linear oracle, which
    the CLI does not expose.  ``fixture`` names a complex of FIXTURES
    (relabeled per pass), a skeleton ``(n, k)``, or None.  ``dims`` are the
    sphere parameters, permuted along with the vertices; with no fixture
    they are permuted on their own.  ``flags`` are further CLI arguments;
    for ``linear`` they hold the degree bound.  ``copies`` runs the
    operation on that many successive relabelings per pass.
    """

    name: str
    kind: str
    fixture: object = None
    dims: tuple = None
    flags: tuple = ()
    expect_exit: int = 0
    reference: object = None
    known: dict = field(default_factory=dict)
    copies: int = 1


def kunneth(dims, top):
    """Coefficients of prod 1/(1 - t^m) through degree ``top``."""
    out = [1] + [0] * top
    for m in dims:
        for d in range(m, top + 1):
            out[d] += out[d - m]
    return out


def skeleton_reference(n, k):
    """Hochster count for skel(n, k): C(j-1, n-k) C(n, j) spheres S^{n-k+j}."""
    return {n - k + j: comb(j - 1, n - k) * comb(n, j) for j in range(n - k + 1, n + 1)}


def _overcount(ref, pinned):
    """Known-defect cells: enumeration and series both report ``pinned``."""
    return {(route, dim): value for dim, value in pinned.items() if value != ref[dim]
            for route in ("enumeration", "series")}


def _skeleton_op(n, k, pinned):
    ref = skeleton_reference(n, k)
    return Op(f"decompose skel({n},{k})", "decompose", fixture=(n, k), expect_exit=1,
              reference=ref, known=_overcount(ref, pinned))


K1_SPHERES = {3: 1, 4: 2, 5: 5, 6: 12, 7: 25, 8: 46, 9: 77, 10: 120, 11: 177, 12: 250}
K3_SPHERES = {3: 3, 4: 8, 5: 18, 6: 39, 7: 80, 8: 153, 9: 273}
K1_SPHERES_1212 = {4: 1, 5: 1, 6: 3, 7: 5, 8: 10, 9: 16, 10: 26, 11: 38, 12: 55, 13: 75,
                   14: 101}
K3_GRADED = [1, 5, 13, 27, 57, 129, 297, 675, 1521, 3429, 7749, 17523]
K3_KERNEL = [0, 0, 3, 2, 3, 6, 3, 0, 0, 0, 0, 0]

WORKLOADS = {
    "allday": (
        Op("allday fat-wedge (2,2,2,2) to degree 14", "allday", dims=(2, 2, 2, 2),
           flags=("--max-degree", "14", "--check-bubenik"),
           reference=[1, 0, 4, 0, 10, 0, 20, 0, 35, 0, 57, 0, 92, 0, 156]),
        Op("allday fat-wedge (2,2,2,2) to degree 15", "allday", dims=(2, 2, 2, 2),
           flags=("--max-degree", "15", "--check-bubenik"),
           reference=[1, 0, 4, 0, 10, 0, 20, 0, 35, 0, 57, 0, 92, 0, 156, 0]),
        Op("allday product (1,2,1) to degree 10", "allday", dims=(1, 2, 1),
           flags=("--model", "product", "--max-degree", "10"),
           reference=kunneth((1, 2, 1), 10)),
        # Default convention: the closed form disagrees (MISMATCH, exit 1)
        # while the homology itself is right.
        Op("allday fat-wedge (1,1,2) to degree 10", "allday", dims=(1, 1, 2),
           flags=("--max-degree", "10", "--check-bubenik"), expect_exit=1,
           reference=[1, 2, 4, 6, 9, 13, 20, 32, 53, 88, 145]),
    ),
    "spheres": (
        Op("decompose spheres K1 (1,1,1,1) max-dim 12", "decompose", fixture="K1",
           dims=(1, 1, 1, 1), flags=("--target", "spheres", "--max-dim", "12"),
           reference=K1_SPHERES),
        Op("decompose spheres K3 (1,1,1,1,1) max-dim 9", "decompose", fixture="K3",
           dims=(1, 1, 1, 1, 1), flags=("--target", "spheres", "--max-dim", "9"),
           reference=K3_SPHERES),
        Op("decompose spheres K1 (1,2,1,2) max-dim 14", "decompose", fixture="K1",
           dims=(1, 2, 1, 2), flags=("--target", "spheres", "--max-dim", "14"),
           reference=K1_SPHERES_1212),
    ),
    "skeleta": (
        _skeleton_op(6, 3, {7: 15, 8: 30, 9: 15}),
        _skeleton_op(6, 4, {5: 20, 6: 60, 7: 60, 8: 20}),
        _skeleton_op(7, 4, {7: 35, 8: 105, 9: 105, 10: 35}),
        _skeleton_op(7, 5, {5: 35, 6: 140, 7: 210, 8: 140, 9: 35}),
        _skeleton_op(8, 5, {7: 70, 8: 280, 9: 420, 10: 280, 11: 70}),
        Op("decompose K1", "decompose", fixture="K1", reference={3: 1, 5: 2, 6: 2}),
        Op("decompose K3", "decompose", fixture="K3",
           reference={3: 3, 4: 2, 5: 3, 6: 6, 7: 3}),
        Op("check skel(4,2)", "check", fixture=(4, 2), expect_exit=1,
           reference=skeleton_reference(4, 2), known={("enumeration", 6): 4, ("series", 6): 4}),
    ),
    "oracles": (
        Op("loop-homology K3 to degree 11", "loop-homology", fixture="K3",
           flags=("--max-degree", "11"), reference=(K3_GRADED, K3_KERNEL), copies=6),
        Op("linear oracle K1 to degree 8", "linear", fixture="K1",
           flags=(8,), reference=[1, 4, 7, 8, 10, 18, 32, 48, 68]),
        Op("linear oracle K2 to degree 8", "linear", fixture="K2",
           flags=(8,), reference=[1, 4, 8, 13, 22, 39, 69, 121, 212]),
        Op("linear oracle K3 to degree 7", "linear", fixture="K3",
           flags=(7,), reference=K3_GRADED[:8]),
    ),
}


# -- seeded inputs ------------------------------------------------------------

@dataclass(frozen=True)
class Call:
    """An operation bound to concrete inputs for one pass.  ``slot`` is the
    position of those inputs in the operation's cycle."""

    op: Op
    slot: int
    path: str
    dims: tuple

    def argv(self):
        op = self.op
        if op.kind == "allday":
            return ["allday", "--dims", _csv(self.dims), *op.flags, "--json"]
        argv = [op.kind, self.path, *op.flags, "--json"]
        if self.dims is not None:
            argv[2:2] = ["--dims", _csv(self.dims)]
        return argv


def _csv(dims):
    return ",".join(str(m) for m in dims)


class Inputs:
    """Every input a run may use, written out before the first operation.

    The inputs of an operation are its distinct relabelings: every vertex
    permutation of the fixture (and of ``dims``), with permutations that
    give the same complex and parameters merged.  The seed shuffles them
    into a cycle; pass ``k`` takes entries ``k*copies`` to
    ``k*copies + copies - 1``.  Any run of consecutive passes therefore
    meets each distinct input about equally often, so a run's averages do
    not hinge on a few labelings that happen to be cheap or costly.
    """

    def __init__(self, pkg, workload, seed, workdir, ops=None):
        self.ops = WORKLOADS[workload] if ops is None else ops
        self.cycles = [
            self._cycle(pkg.complexes, op, random.Random(f"{workload}:{seed}:{i}"),
                        workdir / f"op{i}")
            for i, op in enumerate(self.ops)
        ]

    @staticmethod
    def _cycle(complexes, op, rng, stem):
        """Seed-ordered distinct (input path, dims) pairs of ``op``."""
        if isinstance(op.fixture, tuple):  # skeleta are relabeling-invariant
            path = f"{stem}.sc"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(complexes.serialize_complex(complexes.skeleton_complex(*op.fixture)))
            return [(path, None)]
        K = None
        if op.fixture is not None:
            K = complexes.SimplicialComplex.from_faces(*FIXTURES[op.fixture])
        n = K.n if K is not None else len(op.dims)
        perms = list(itertools.permutations(range(1, n + 1)))
        rng.shuffle(perms)
        distinct = {}
        for perm in perms:
            relabeled = K.relabel(dict(zip(range(1, n + 1), perm))) if K is not None else None
            dims = None
            if op.dims is not None:
                dims = [0] * n
                for v, m in zip(perm, op.dims):
                    dims[v - 1] = m
                dims = tuple(dims)
            key = (relabeled.faces if K is not None else None, dims)
            distinct.setdefault(key, (relabeled, dims))
        cycle = []
        for j, (relabeled, dims) in enumerate(distinct.values()):
            path = None
            if relabeled is not None:
                path = f"{stem}_{j}.sc"
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(complexes.serialize_complex(relabeled))
            cycle.append((path, dims))
        return cycle

    def calls(self, k):
        """The operation list of pass ``k``, in workload order."""
        out = []
        for op, cycle in zip(self.ops, self.cycles):
            for c in range(op.copies):
                slot = (k * op.copies + c) % len(cycle)
                out.append(Call(op, slot, *cycle[slot]))
        return out


# -- checking outputs ---------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong_cells: int = 0
    unexpected_cells: int = 0  # wrong cells that are not a pinned known defect
    flags: int = 0

    def add(self, other):
        for name in ("attempted", "failed", "wrong_cells", "unexpected_cells", "flags"):
            setattr(self, name, getattr(self, name) + getattr(other, name))


def _series_cells(values, ref):
    return sum(1 for a, b in zip_longest(values or [], ref) if a != b)


def _route_cells(doc, kind):
    """{dimension: {route: count}} from a decompose or check report.

    A decompose report lists every route only for flagged dimensions; in
    the others all routes agree with the summand count, named ``all``.
    """
    if kind == "check":
        return {row["dimension"]: row["routes"] for row in doc["table"]}
    cells = {s["dimension"]: {"all": s["count"]} for s in doc["summands"]}
    for f in doc["flags"]:
        cells[f["dimension"]] = f["routes"]
    return cells


def check(op, code, doc):
    """Tally one finished operation.  ``doc`` is the parsed JSON report, or
    the coefficient list of the linear oracle."""
    t = Tally(attempted=1)
    if code != op.expect_exit or doc is None:
        t.failed = 1
        return t
    if op.kind == "linear":
        t.wrong_cells = t.unexpected_cells = _series_cells(doc, op.reference)
    elif op.kind == "allday":
        t.wrong_cells = t.unexpected_cells = _series_cells(doc.get("homology_series"),
                                                           op.reference)
        t.flags = int(doc.get("bubenik_agrees") is False) + int(not doc["d_squared_zero"])
    elif op.kind == "loop-homology":
        graded, kernel = op.reference
        t.wrong_cells = t.unexpected_cells = (
            _series_cells(doc["graded_dimensions"], graded)
            + _series_cells(doc.get("kernel_generator_series"), kernel))
        t.flags = int("factorization_error" in doc)
    else:
        cells = _route_cells(doc, op.kind)
        for dim in sorted(set(cells) | set(op.reference)):
            want = op.reference.get(dim, 0)
            for route, value in cells.get(dim, {"all": 0}).items():
                if value != want:
                    t.wrong_cells += 1
                    t.unexpected_cells += op.known.get((route, dim)) != value
        if op.kind == "check":
            t.flags = sum(v["verdict"] == "mismatch" for v in doc["verdicts"])
        else:
            t.flags = len(doc["flags"])
    return t
