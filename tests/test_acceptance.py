"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every check is exact (tolerance zero); runtime bounds are asserted where
the criterion states one.
"""

import itertools
import json
import subprocess
import sys
import time

import pytest

from momentangle.allday import (
    build_fat_wedge_model,
    build_product_model,
    bubenik_series,
    check_d_squared,
    homology_series,
)
from momentangle.complexes import (
    SimplicialComplex,
    is_mf_complex,
    is_shifted,
    is_shifted_any,
    missing_faces,
    skeleton_complex,
)
from momentangle.decompose import consistency_report, decompose_cp, decompose_spheres, porter_fnk
from momentangle.presentations import (
    abelian_series,
    b_name,
    build_cp_presentation,
    graded_dimensions,
    kernel_generator_series,
    rewriting_system,
)
from momentangle.tensor import TensorElement, commutator

K1 = SimplicialComplex.from_faces(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
K2 = SimplicialComplex.from_faces(4, [(1, 2), (1, 3), (1, 4), (2, 3)])
K3 = SimplicialComplex.from_faces(
    5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 5)]
)


class Gate:
    """Runs a criterion body, prints the verdict uncaptured, enforces time."""

    def __init__(self, capsys, number, limit=None):
        self.capsys = capsys
        self.number = number
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        with self.capsys.disabled():
            print(f"criterion {self.number}: {verdict} ({elapsed:.2f}s)", flush=True)
        if exc_type is None and self.limit is not None:
            assert elapsed < self.limit, f"criterion {self.number} took {elapsed:.2f}s"
        return False


def test_criterion_1_classification_table(capsys):
    with Gate(capsys, 1, limit=1.0):
        assert missing_faces(K1) == [(3, 4), (1, 2, 3), (1, 2, 4)]
        assert missing_faces(K2) == [(2, 4), (3, 4), (1, 2, 3)]
        assert missing_faces(K3) == [(2, 5), (3, 4), (4, 5), (1, 2, 3), (1, 2, 4), (1, 3, 5)]
        assert is_shifted(K1, (1, 2, 3, 4)) and is_mf_complex(K1) == (True, None)
        assert is_shifted(K2, (1, 2, 3, 4))
        assert is_mf_complex(K2) == (False, (1, 4))
        assert is_shifted_any(K3) == (False, None)  # all 120 orderings fail
        assert is_mf_complex(K3) == (True, None)


def test_criterion_2_K1_decomposition(capsys):
    with Gate(capsys, 2, limit=5.0):
        dec = decompose_cp(K1)
        assert dec.counts() == {3: 1, 5: 2, 6: 2}
        labels = [s.label.text("cp") for s in dec.summands]
        assert labels == [
            "w~(3,4)",
            "w~(1,2,3)",
            "w~(1,2,4)",
            "[w~(1,2,3), a~4]",
            "[w~(1,2,4), a~3]",
        ]
        rejected = {lab.text("cp") for lab, _ in dec.rejected}
        assert {"[w~(3,4), a~1]", "[w~(3,4), a~2]"} <= rejected
        assert not dec.flags


def test_criterion_3_d_squared_sweep(capsys):
    with Gate(capsys, 3, limit=60.0):
        instances = 0
        for n in (2, 3, 4, 5):
            for dims in itertools.product((1, 2), repeat=n):
                for build in (build_fat_wedge_model, build_product_model):
                    ok, witness = check_d_squared(build(dims), 14)
                    assert ok, (dims, build.__name__, witness)
                    instances += 1
        assert instances >= 40


def test_criterion_4_bubenik_closed_form(capsys):
    with Gate(capsys, 4, limit=120.0):
        for dims in ((2, 2, 2), (2, 2, 2, 2)):
            h = homology_series(build_fat_wedge_model(dims), 14)
            assert h == bubenik_series(dims, True, 14), dims


CALC_COMPLEXES = [K1, K3, skeleton_complex(4, 2), skeleton_complex(5, 2)]


def _calculation_failures(K, all_pairs):
    p = build_cp_presentation(K)
    rs = rewriting_system(p, 6)
    bs = {i: TensorElement.term((b_name(i),)) for i in range(1, K.n + 1)}
    failures = []
    for g in p.generators:
        x = TensorElement.term((g.name,))
        for i, bi in bs.items():
            left_ii = commutator(commutator(x, bi, p.degree_of), bi, p.degree_of)
            if not rs.normal_form(left_ii).is_zero():
                failures.append((g.name, i, i))
            for j, bj in bs.items():
                edge = i == j or (min(i, j), max(i, j)) in K.faces
                if not (all_pairs or edge):
                    continue
                lhs = commutator(commutator(x, bi, p.degree_of), bj, p.degree_of)
                rhs = commutator(commutator(x, bj, p.degree_of), bi, p.degree_of)
                if not rs.normal_form(lhs + rhs).is_zero():
                    failures.append((g.name, i, j))
    return failures


def test_criterion_5_calculation_suite(capsys):
    # the bracket-interchange identity presupposes [b_i,b_j] = 0, which the
    # presented algebra grants exactly on edges (and on every pair for the
    # skeleton complexes); [[x,b_i],b_i] = 0 is checked unconditionally.
    with Gate(capsys, 5, limit=10.0):
        for K in CALC_COMPLEXES:
            has_pairs = any(len(m) == 2 for m in missing_faces(K))
            assert _calculation_failures(K, all_pairs=not has_pairs) == []


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as quantified: across a missing edge {i,j} the "
    "commutator [b_i,b_j] is a nonzero derived class, so "
    "[[x,b_i],b_j]+[[x,b_j],b_i] = [x,[b_i,b_j]] is a bracket of two "
    "independent kernel generators (e.g. K1, x=u(1,2,3), i=3, j=4)",
)
def test_criterion_5_full_quantification():
    for K in CALC_COMPLEXES:
        assert _calculation_failures(K, all_pairs=True) == [], K


def test_criterion_6_porter_cross_checks(capsys):
    from math import comb

    with Gate(capsys, 6):
        for n in (3, 4, 5, 6):
            want = {2 * n - 1: 1}
            assert porter_fnk(n, 1, target="cp").counts() == want
            assert decompose_cp(skeleton_complex(n, 1)).counts() == want
        for n in (4, 5):
            counts = porter_fnk(n, n - 1, target="cp").counts()
            assert counts == {j + 1: (j - 1) * comb(n, j) for j in range(2, n + 1)}


def test_criterion_7_james_oracle(capsys):
    with Gate(capsys, 7):
        tri = SimplicialComplex.from_faces(3, [(1, 2), (1, 3), (2, 3)])
        dec = decompose_spheres(tri, (1, 1, 1), 12)
        expected = {
            dim: sum(
                1
                for ds in itertools.product(range(1, 11), repeat=3)
                if 2 + sum(ds) == dim
            )
            for dim in range(5, 13)
        }
        assert dec.counts() == expected
        assert [expected[d] for d in range(5, 13)] == [1, 3, 6, 10, 15, 21, 28, 36]


def test_criterion_8_factorization_integrity(capsys):
    with Gate(capsys, 8):
        complexes = [K1, K3] + [skeleton_complex(n, 1) for n in (3, 4, 5, 6)]
        complexes.append(skeleton_complex(4, 2))
        for K in complexes:
            p = build_cp_presentation(K)
            total = graded_dimensions(p, 10)
            g = kernel_generator_series(total, abelian_series(p, 10))
            assert all(c >= 0 for c in g.coeffs)
            if K is K1:
                assert g.coeffs == (0, 0, 1, 0, 2, 2, 0, 0, 0, 0, 0)


def test_criterion_9_known_discrepancy(capsys, fixtures_dir):
    with Gate(capsys, 9):
        dec = consistency_report(skeleton_complex(4, 2), "cp", max_dim=8)
        assert [dim for dim, _ in dec.flags] == [6]
        routes = dict(dict(dec.routes)[6])
        assert routes == {"enumeration": 4, "series": 4, "porter": 3}
        res = subprocess.run(
            [sys.executable, "-m", "momentangle", "decompose",
             str(fixtures_dir / "skel42.sc"), "--json"],
            capture_output=True, text=True,
        )
        assert res.returncode == 1
        doc = json.loads(res.stdout)
        assert doc["flags"] == [
            {"dimension": 6, "routes": {"enumeration": 4, "series": 4, "porter": 3}}
        ]


def test_criterion_10_oracle_equivalence(capsys):
    with Gate(capsys, 10):
        tri = SimplicialComplex.from_faces(3, [(1, 2), (1, 3), (2, 3)])
        full = SimplicialComplex.from_faces(4, [(1, 2, 3, 4)])
        for K in (K1, tri, skeleton_complex(4, 2), full):
            p = build_cp_presentation(K)
            rw = graded_dimensions(p, 8, method="rewriting")
            lin = graded_dimensions(p, 8, method="linear")
            assert rw == lin
            if K is full:
                assert rw.coeffs[:5] == (1, 4, 6, 4, 1)
                assert all(c == 0 for c in rw.coeffs[5:])
