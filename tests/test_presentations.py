import json
import math
import pathlib
from collections import Counter

import pytest

from momentangle.complexes import (
    ComplexError,
    SimplicialComplex,
    face_degree,
    missing_faces,
    parse_complex,
    skeleton_complex,
)
from momentangle.presentations import (
    Generator,
    Presentation,
    abelian_series,
    b_name,
    bracket_lists,
    build_cp_presentation,
    build_sphere_presentation,
    graded_dimensions,
    kernel_generator_series,
    rewriting_system,
)
from momentangle.series import (
    FactorizationError,
    TruncatedSeries,
    free_gc_series,
    geometric_series,
)
from momentangle.tensor import BudgetError, TensorElement, commutator
from test_decompose import _relabelings


def test_cp_presentation_structure(K1):
    p = build_cp_presentation(K1)
    names = [g.name for g in p.generators]
    assert names == ["b1", "b2", "b3", "b4", "u(1,2,3)", "u(1,2,4)"]
    assert [g.degree for g in p.generators] == [1, 1, 1, 1, 4, 4]
    # 4 squares + 5 edge anticommutators + 6 u-commutators
    assert len(p.relations) == 15
    squares = [r for r in p.relations if len(r) == 1]
    assert len(squares) == 4


def test_cp_presentation_two_vertex_faces_get_no_generator(K1):
    p = build_cp_presentation(K1)
    assert "u(3,4)" not in [g.name for g in p.generators]


def test_sphere_presentation_structure(K1):
    # The abelian part is polynomial for every sphere parameter, odd or
    # even: 5 edge commutators and no squares, no u-relations.
    for dims in ((1, 1, 1, 1), (2, 2, 2, 2)):
        p = build_sphere_presentation(K1, dims)
        assert len(p.relations) == 5
        assert all(len(set(next(iter(r)))) == 2 for r in p.relations)
    p = build_sphere_presentation(K1, (1, 1, 1, 1))
    u_gens = [g for g in p.generators if g.label[0] == "higher"]
    assert [(g.name, g.degree) for g in u_gens] == [("u(1,2,3)", 4), ("u(1,2,4)", 4)]
    assert face_degree((1, 2, 3), (2, 2, 2, 2)) - 1 == 7


def test_sphere_abelian_part_is_polynomial(K1):
    p = build_sphere_presentation(K1, (1, 2, 1, 2))
    assert abelian_series(p, 6) == free_gc_series([1, 1, 2, 2], False, 6)


def test_sphere_presentation_validation(K1):
    with pytest.raises(ComplexError, match="expected 4 sphere parameters, got 3"):
        build_sphere_presentation(K1, (1, 1, 1))
    with pytest.raises(ComplexError, match="sphere parameters must be >= 1"):
        build_sphere_presentation(K1, (1, 1, 1, 0))


def test_graded_dimensions_K1(K1):
    p = build_cp_presentation(K1)
    total = graded_dimensions(p, 8)
    assert total[2] == 7 and total[3] == 8
    g = TruncatedSeries.from_coeffs([0, 0, 1, 0, 2, 2], 8)
    expected = free_gc_series([1, 1, 1, 1], True, 8) * geometric_series(g)
    assert total == expected


def test_graded_dimensions_full_simplex():
    full = SimplicialComplex.from_faces(4, [(1, 2, 3, 4)])
    p = build_cp_presentation(full)
    assert graded_dimensions(p, 8).coeffs == (1, 4, 6, 4, 1, 0, 0, 0, 0)


def test_graded_dimensions_one_generator_square():
    p = Presentation(
        generators=(Generator("x", 1, ("coordinate", 1)),),
        relations=(TensorElement.term(("x", "x")),),
        target="cp-case",
    )
    assert graded_dimensions(p, 5).coeffs == (1, 1, 0, 0, 0, 0)


def test_graded_dimensions_skeleton31():
    p = build_cp_presentation(skeleton_complex(3, 1))
    total = graded_dimensions(p, 8)
    expected = free_gc_series([1, 1, 1], True, 8) * geometric_series(
        TruncatedSeries.monomial(4, 8)
    )
    assert total == expected


@pytest.mark.parametrize("method", ["rewriting", "linear"])
def test_graded_dimensions_methods_agree_on_K1(K1, method):
    p = build_cp_presentation(K1)
    assert graded_dimensions(p, 10, method=method).coeffs == (
        1, 4, 7, 8, 10, 18, 32, 48, 68, 104, 168)


def test_oracle_equivalence(K1, K3, triangle_boundary, fixtures_dir):
    wheel = parse_complex((fixtures_dir / "wheel.sc").read_text())
    fixtures = [
        (build_cp_presentation(K1), 7),
        (build_cp_presentation(triangle_boundary), 7),
        (build_cp_presentation(skeleton_complex(4, 2)), 7),
        (build_sphere_presentation(triangle_boundary, (1, 2, 1)), 7),
        (build_cp_presentation(K3), 9),
        (build_cp_presentation(wheel), 9),
        (build_sphere_presentation(wheel, (1, 2, 1, 2, 1)), 9),
    ]
    for p, bound in fixtures:
        rw = graded_dimensions(p, bound, method="rewriting")
        lin = graded_dimensions(p, bound, method="linear")
        assert rw == lin, p.target


def test_linear_oracle_K3_within_the_default_budget(K3):
    # The oracle's coordinates grow with dim A_d, not with the number of words.
    total = graded_dimensions(build_cp_presentation(K3), 11, method="linear")
    assert total.coeffs == (1, 5, 13, 27, 57, 129, 297, 675, 1521, 3429, 7749, 17523)


def test_completion_size_does_not_depend_on_vertex_labels(K3):
    # rewriting_system ranks the generators by how many relations they occur
    # in; in presentation order the cp completion had 23 to 413 rules and
    # the sphere one 7 to 2,600 over these labelings.
    golden = (RECORDED.parent / "loop_homology_K3.txt").read_text()
    line = next(x for x in golden.splitlines() if x.startswith("graded dimensions"))
    expected = tuple(int(c) for c in line.split(": ")[1].split())
    labelings = list(_relabelings(K3))
    assert len(labelings) == 60
    for K in labelings:
        cp = build_cp_presentation(K)
        assert len(rewriting_system(cp, 11).rules) == 23
        assert len(rewriting_system(build_sphere_presentation(K, (1,) * 5), 11).rules) == 16
        assert graded_dimensions(cp, 11).coeffs == expected


def test_linear_oracle_budget_names_the_degree(K1):
    # K1's coordinates (a, s): 4 in degree 1, 4·4 in degree 2, 4·7 in degree 3.
    p = build_cp_presentation(K1)
    assert graded_dimensions(p, 2, method="linear", budget_words=20).coeffs == (1, 4, 7)
    with pytest.raises(BudgetError) as info:
        graded_dimensions(p, 3, method="linear", budget_words=20)
    assert info.value.degree == 3
    assert "budget 20" in str(info.value)


def test_linear_oracle_deep_degree_does_not_recurse():
    # Two disjoint points: b1² = b2² = 0, so A_d is spanned by the two
    # alternating words.  Each degree folds in the one below it.
    p = build_cp_presentation(SimplicialComplex.from_faces(2, []))
    assert graded_dimensions(p, 1000, method="linear").coeffs == (1,) + (2,) * 1000


def test_kernel_generator_series_K1(K1):
    p = build_cp_presentation(K1)
    total = graded_dimensions(p, 10)
    g = kernel_generator_series(total, abelian_series(p, 10))
    assert g.coeffs == (0, 0, 1, 0, 2, 2, 0, 0, 0, 0, 0)


def test_kernel_generator_series_trivial():
    ab = free_gc_series([1, 1, 1], True, 6)
    assert kernel_generator_series(ab, ab).is_zero()


def test_kernel_generator_series_failure():
    total = TruncatedSeries.from_coeffs([1, 1, 0, 0], 3)
    ab = TruncatedSeries.from_coeffs([1, 2, 0, 0], 3)
    with pytest.raises(FactorizationError) as err:
        kernel_generator_series(total, ab)
    assert err.value.degree >= 1


def sphere_counts(K, grading, max_dim, exterior):
    """Sphere dimensions of the bracket set R̃ (``exterior``) or R, as a Counter.

    Lists w_sigma and, through ``bracket_lists``, its brackets for every
    missing face of K; the complexes used here have none with 2 vertices.
    A loop degree is the sphere dimension minus one.
    """
    counts = Counter()
    for sigma in missing_faces(K):
        assert len(sigma) >= 3
        t = len(sigma) - 1 + sum(grading[i - 1] for i in sigma)
        if t <= max_dim:
            counts[t] += 1
        for js, dim in bracket_lists(sigma, K.n, grading, max_dim, exterior):
            if exterior:
                assert list(js) == sorted(set(js)) and not set(js) & set(sigma)
            else:
                assert list(js) == sorted(js)
            counts[dim] += 1
    return counts


def test_enumerate_R_tilde_skeleton42():
    assert sphere_counts(skeleton_complex(4, 2), (1,) * 4, math.inf, True) == {5: 4, 6: 4}


def test_enumerate_R_tilde_skeleton_n1():
    # One missing face, the whole vertex set: its complement is empty.
    sigma = (1, 2, 3, 4, 5)
    assert missing_faces(skeleton_complex(5, 1)) == [sigma]
    assert list(bracket_lists(sigma, 5, (1,) * 5, math.inf, exterior=True)) == []
    assert sphere_counts(skeleton_complex(5, 1), (1,) * 5, math.inf, True) == {9: 1}


def test_enumerate_R_triangle():
    tri = SimplicialComplex.from_faces(3, [(1, 2), (1, 3), (2, 3)])
    assert sphere_counts(tri, (1, 1, 1), 8, False) == {5: 1, 6: 3, 7: 6, 8: 10}
    counts = sphere_counts(tri, (2, 2, 2), 12, False)
    assert set(counts) == {8, 10, 12} and counts[12] == 6
    assert sphere_counts(tri, (1, 1, 1), 4, False) == {}


def test_enumerate_R_matches_generating_function():
    dims = (1, 2, 3)
    D = 12
    tri = SimplicialComplex.from_faces(3, [(1, 2), (1, 3), (2, 3)])  # missing face (1,2,3)
    # Sphere dimension = loop degree + 1.
    counts = sphere_counts(tri, dims, D + 1, False)
    series = TruncatedSeries.monomial(face_degree((1, 2, 3), dims) - 1, D)
    for m in dims:
        series = series * geometric_series(TruncatedSeries.monomial(m, D))
    assert tuple(counts[d + 1] for d in range(D + 1)) == series.coeffs


def _normal_form_calculator(K):
    p = build_cp_presentation(K)
    rs = rewriting_system(p, 10)
    return p, rs


@pytest.mark.parametrize(
    "make",
    [
        lambda: SimplicialComplex.from_faces(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]),
        lambda: skeleton_complex(4, 2),
    ],
)
def test_calculation_identities(make):
    # [[x,b_i],b_i] = 0 always; [[x,b_i],b_j] = -[[x,b_j],b_i] whenever the
    # commutator [b_i,b_j] vanishes, i.e. (i,j) is an edge of K.
    K = make()
    p, rs = _normal_form_calculator(K)
    gens = [TensorElement.term((g.name,)) for g in p.generators]
    bs = {i: TensorElement.term((b_name(i),)) for i in range(1, K.n + 1)}
    for x in gens:
        for i, bi in bs.items():
            left_ii = commutator(commutator(x, bi, p.degree_of), bi, p.degree_of)
            assert rs.normal_form(left_ii).is_zero()
            for j, bj in bs.items():
                if i != j and (min(i, j), max(i, j)) not in K.faces:
                    continue
                lhs = commutator(commutator(x, bi, p.degree_of), bj, p.degree_of)
                rhs = commutator(commutator(x, bj, p.degree_of), bi, p.degree_of)
                assert rs.normal_form(lhs + rhs).is_zero()


def test_calculation_one_fails_across_a_missing_edge(K1):
    # across the missing edge (3,4) the commutator [b_3,b_4] is the derived
    # bracket class, and [[u,b_4],b_3] + [[u,b_3],b_4] = [u, [b_3,b_4]] is a
    # bracket of two independent kernel generators - nonzero.
    p, rs = _normal_form_calculator(K1)
    u = TensorElement.term(("u(1,2,3)",))
    b3 = TensorElement.term((b_name(3),))
    b4 = TensorElement.term((b_name(4),))
    lhs = commutator(commutator(u, b3, p.degree_of), b4, p.degree_of)
    rhs = commutator(commutator(u, b4, p.degree_of), b3, p.degree_of)
    assert rs.normal_form(lhs).is_zero()
    assert not rs.normal_form(rhs).is_zero()
    derived = commutator(b3, b4, p.degree_of)
    bracket = commutator(u, derived, p.degree_of)
    assert rs.normal_form(lhs + rhs) == rs.normal_form(bracket)


def test_factorization_invariant_for_pure_complexes():
    # all missing faces >= 3 vertices: the series must factor through the
    # bracket enumeration, or the factorization must fail loudly - never a
    # silent disagreement.
    for K in (skeleton_complex(4, 2), skeleton_complex(5, 1)):
        p = build_cp_presentation(K)
        D = 8
        total = graded_dimensions(p, D)
        g = kernel_generator_series(total, abelian_series(p, D))
        counts = sphere_counts(K, (1,) * K.n, D + 1, True)
        assert g.coeffs == tuple(counts[d + 1] for d in range(D + 1))


def test_presentation_json_roundtrips(K1):
    p = build_cp_presentation(K1)
    doc = p.to_json_dict()
    text = json.dumps(doc)
    back = json.loads(text)
    assert back["target"] == "cp-case"
    assert len(back["generators"]) == 6
    assert len(back["relations"]) == 15


FIXTURES = pathlib.Path(__file__).parent / "fixtures"
RECORDED = pathlib.Path(__file__).parent / "golden" / "presentations.json"


def presentation_cases():
    """(key, presentation): cp and three sphere gradings per fixture."""
    for name in ("K1", "K2", "K3", "tri", "pair", "skel42"):
        K = parse_complex((FIXTURES / f"{name}.sc").read_text())
        yield f"{name} cp", build_cp_presentation(K)
        for dims in ((1,) * K.n, tuple(1 + i % 2 for i in range(K.n)), (2,) * K.n):
            key = f"{name} spheres " + ",".join(map(str, dims))
            yield key, build_sphere_presentation(K, dims)


def test_presentations_match_recording():
    # Generators, degrees, relations and their terms, all in order.
    got = {key: p.to_json_dict() for key, p in presentation_cases()}
    assert got == json.loads(RECORDED.read_text())
