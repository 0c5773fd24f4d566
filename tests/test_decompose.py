import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle import decompose
from momentangle.complexes import (
    ComplexError,
    SimplicialComplex,
    is_mf_complex,
    missing_faces,
    parse_complex,
    skeleton_complex,
)
from momentangle.decompose import (
    WhiteheadLabel,
    consistency_report,
    decompose_cp,
    decompose_spheres,
    detect_skeleton,
    porter_fnk,
)
from momentangle.presentations import (
    b_name,
    bracket_lists,
    build_cp_presentation,
    build_sphere_presentation,
    u_name,
)
from momentangle.rewriting import RewritingSystem
from momentangle.tensor import BudgetError, TensorElement, commutator
from test_allday import _all_complexes


def label_texts(dec, target):
    return [s.label.text(target) for s in dec.summands if s.label is not None]


def test_whitehead_label_text():
    assert WhiteheadLabel("higher", (3, 4)).text("cp") == "w~(3,4)"
    assert (
        WhiteheadLabel("iterated", (1, 2, 3), (4,)).text("cp") == "[w~(1,2,3), a~4]"
    )
    assert (
        WhiteheadLabel("iterated", (1, 2), (1, 1, 3)).text("spheres")
        == "[w(1,2), a1, a1, a3]"
    )


def test_decompose_cp_K1(K1):
    dec = decompose_cp(K1)
    assert dec.counts() == {3: 1, 5: 2, 6: 2}
    assert not dec.truncated and not dec.flags
    assert label_texts(dec, "cp") == [
        "w~(3,4)",
        "w~(1,2,3)",
        "w~(1,2,4)",
        "[w~(1,2,3), a~4]",
        "[w~(1,2,4), a~3]",
    ]
    rejected = {(lab.text("cp"), reason) for lab, reason in dec.rejected}
    assert ("[w~(3,4), a~1]", "zero normal form") in rejected
    assert ("[w~(3,4), a~2]", "zero normal form") in rejected
    # part (c) is vacuous: every summand carries an explicit label
    assert all(s.label is not None for s in dec.summands)


def test_decompose_cp_K3(K3):
    dec = decompose_cp(K3)
    assert dec.counts() == {3: 3, 4: 2, 5: 3, 6: 6, 7: 3}
    assert not dec.flags
    selected = [
        s.label.text("cp")
        for s in dec.summands
        if s.label is not None and s.label.kind == "iterated" and len(s.label.sigma) == 2
    ]
    assert selected == ["[w~(2,5), a~4]", "[w~(3,4), a~5]"]
    assert all(s.label is not None for s in dec.summands)


def test_decompose_cp_single_missing_face(triangle_boundary):
    dec = decompose_cp(triangle_boundary)
    assert dec.counts() == {5: 1}
    routes = dict(dec.routes)
    assert dict(routes[5])["porter"] == 1
    assert not dec.flags


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_single_missing_face_reaches_porter(n):
    # A complex with one missing face sigma is every subset of 1..n that
    # does not contain sigma.  The MF-complexes among them are the
    # boundaries of simplices, which are skeleta, so the porter route
    # checks every complex with a single missing face.
    vertices = range(1, n + 1)
    mf_complexes = 0
    for size in range(2, n + 1):
        for sigma in itertools.combinations(vertices, size):
            K = SimplicialComplex.from_faces(n, [
                f for r in range(1, n + 1) for f in itertools.combinations(vertices, r)
                if not set(sigma) <= set(f)
            ])
            assert missing_faces(K) == [sigma]
            if not is_mf_complex(K)[0]:
                continue
            mf_complexes += 1
            assert detect_skeleton(K) == 1
            dec = consistency_report(K, "cp", max_dim=2 * n - 1)
            assert dict(dict(dec.routes)[2 * n - 1]) == {
                "enumeration": 1, "series": 1, "porter": 1}
    assert mf_complexes == 1


def test_decompose_cp_requires_mf_complex(K2):
    with pytest.raises(ComplexError):
        decompose_cp(K2)


def test_decompose_cp_truncation(K1):
    dec = decompose_cp(K1, max_dim=5)
    assert dec.truncated
    assert dec.counts() == {3: 1, 5: 2}


def test_the_budgeted_count_runs_before_any_bracket_is_listed(monkeypatch):
    # The part-(b) brackets of a hollow triangle grow with the isolated
    # vertices beside it, and listing them is not budgeted; the normal-word
    # count is, so it runs first and stops the decomposition before any list.
    listed = []
    monkeypatch.setattr(decompose, "bracket_lists",
                        lambda *args: listed.append(args) or bracket_lists(*args))
    K = SimplicialComplex.from_faces(11, [(1, 2), (1, 3), (2, 3)])
    with pytest.raises(BudgetError, match="normal-word budget 10000 exhausted"):
        decompose_cp(K, budget_words=10_000)
    assert listed == []


def test_skeleta_run_no_completion(monkeypatch, fixtures_dir):
    # With no 2-vertex missing face, part (c) reduces no bracket, and the
    # counts come from the clique formula, so no completion is built.
    def refuse(*args):
        raise AssertionError("rewriting completion built")

    monkeypatch.setattr(decompose, "rewriting_system", refuse)
    dec = decompose_cp(skeleton_complex(6, 3))
    assert dec.counts() == {7: 15, 8: 30, 9: 15}
    assert dec.routes == (
        (7, (("enumeration", 15), ("series", 15), ("porter", 15))),
        (8, (("enumeration", 30), ("series", 30), ("porter", 24))),
        (9, (("enumeration", 15), ("series", 15), ("porter", 10))),
    )
    assert dec.rejected == () and not dec.truncated
    dec = consistency_report(skeleton_complex(4, 2))
    golden = json.loads((fixtures_dir.parent / "golden" / "check_skel42.json").read_text())
    assert [(d, dict(routes)) for d, routes in dec.routes] == [
        (row["dimension"], row["routes"]) for row in golden["table"]]
    assert dec.counts() == {5: 4, 6: 4}


def test_skeleton42_flag_pin():
    dec = decompose_cp(skeleton_complex(4, 2))
    assert dec.counts() == {5: 4, 6: 4}
    assert len(dec.flags) == 1
    dim, routes = dec.flags[0]
    assert dim == 6
    assert dict(routes) == {"enumeration": 4, "series": 4, "porter": 3}


def test_consistency_report_skeleton42():
    dec = consistency_report(skeleton_complex(4, 2), "cp", max_dim=8)
    assert [dim for dim, _ in dec.flags] == [6]
    assert {dim for dim, _ in dec.routes} - {6}


@pytest.mark.parametrize("make", ["K1", "K3"])
def test_consistency_report_all_agree(make, request):
    K = request.getfixturevalue(make)
    dec = consistency_report(K, "cp")
    assert dec.routes
    assert not dec.flags


def test_consistency_report_skeleton_n1_agrees():
    dec = consistency_report(skeleton_complex(5, 1), "cp", max_dim=9)
    assert not dec.flags
    assert any("porter" in dict(routes) for _, routes in dec.routes)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_porter_n1_single_top_sphere(n):
    closed = porter_fnk(n, 1, target="cp")
    assert closed.counts() == {2 * n - 1: 1}
    assert decompose_cp(skeleton_complex(n, 1)).counts() == {2 * n - 1: 1}


@pytest.mark.parametrize("n", [4, 5])
def test_porter_one_skeleton_counts(n):
    from math import comb

    counts = porter_fnk(n, n - 1, target="cp").counts()
    assert counts == {j + 1: (j - 1) * comb(n, j) for j in range(2, n + 1)}


def test_porter_validation():
    with pytest.raises(ComplexError, match="require 1 <= k <= n-1"):
        porter_fnk(4, 4)
    with pytest.raises(ComplexError, match="require 1 <= k <= n-1"):
        porter_fnk(4, 0)
    with pytest.raises(ComplexError, match="sphere target requires max_dim"):
        porter_fnk(4, 2, target="spheres")  # needs dims and max_dim


def test_porter_spheres_composition_oracle():
    # Porter's wedge summed by walking the j-subsets.  In the cp case each
    # coordinate is exterior, so it enters a smash once, with degree 1.
    from itertools import combinations, product
    from math import comb

    for n, k, target, dims, max_dim in [
        (4, 2, "spheres", (1, 2, 1, 2), 8),
        (5, 3, "spheres", (1, 2, 1, 2, 1), 9),
        (4, 1, "spheres", (2, 1, 1, 2), 10),
        (6, 3, "cp", None, None),
        (7, 2, "cp", None, None),
        (7, 4, "cp", None, 9),
    ]:
        dec = porter_fnk(n, k, target, dims, max_dim)
        top = 2 * n - k if max_dim is None else max_dim
        exponents = range(1, 2) if target == "cp" else range(1, top + 1)
        base = n - k
        expected = {}
        for j in range(n - k + 1, n + 1):
            mult = comb(j - 1, n - k)
            for subset in combinations(range(1, n + 1), j):
                ms = [dims[i - 1] if dims else 1 for i in subset]
                for ds in product(exponents, repeat=j):
                    dim = base + sum(d * m for d, m in zip(ds, ms))
                    if dim <= top:
                        expected[dim] = expected.get(dim, 0) + mult
        assert dec.counts() == expected, (n, k, target, dims)
        assert dec.truncated == (target == "spheres" or top < 2 * n - k)


def test_porter_holds_one_record_per_dimension():
    dec = porter_fnk(16, 8)
    dims = [s.dimension for s in dec.summands]
    assert len(dims) == len(set(dims)) == 8
    assert sum(dec.counts().values()) == 1_066_495


def test_decompose_spheres_james_111(triangle_boundary):
    dec = decompose_spheres(triangle_boundary, (1, 1, 1), 12)
    expected = {dim: [1, 3, 6, 10, 15, 21, 28, 36][dim - 5] for dim in range(5, 13)}
    assert dec.counts() == expected
    assert not dec.flags and dec.truncated
    routes = dict(dec.routes)
    assert dict(routes[8])["porter"] == 10


def test_decompose_spheres_james_222(triangle_boundary):
    dec = decompose_spheres(triangle_boundary, (2, 2, 2), 12)
    assert dec.counts() == {8: 1, 10: 3, 12: 6}
    assert not dec.flags


def test_decompose_spheres_K1(K1):
    dec = decompose_spheres(K1, (1, 1, 1, 1), 8)
    assert dec.counts() == {3: 1, 4: 2, 5: 5, 6: 12, 7: 25, 8: 46}
    assert not dec.flags
    dec2 = decompose_spheres(K1, (2, 1, 1, 2), 10)
    assert dec2.counts() == {4: 1, 5: 1, 6: 3, 7: 5, 8: 10, 9: 16, 10: 26}
    assert not dec2.flags


def test_decompose_spheres_validation(K1, K2):
    with pytest.raises(ComplexError, match="expected 4 sphere parameters, got 3"):
        decompose_spheres(K1, (1, 1, 1), 8)
    with pytest.raises(ComplexError, match="not an MF-complex"):
        decompose_spheres(K2, (1, 1, 1, 1), 8)
    with pytest.raises(ComplexError, match="requires max_dim"):
        decompose_spheres(K1, (1, 1, 1, 1), None)
    with pytest.raises(ComplexError, match="requires max_dim"):
        porter_fnk(4, 2, "spheres", (1, 1, 1, 1))


def _label_dimension(label, target, dims):
    if target == "cp":
        base = 2 * (len(label.sigma) - 1) + 1
        return base + len(label.js)
    base = len(label.sigma) - 1 + sum(dims[i - 1] for i in label.sigma)
    return base + sum(dims[j - 1] for j in label.js)


def _loop_class_degree(p, sigma):
    """Degree in presentation p of the loop class of w_sigma.

    That is the generator u(sigma), or, for a 2-vertex sigma, which gets no
    generator, the commutator of its two coordinate generators.
    """
    if len(sigma) == 2:
        return sum(p.degree_of(b_name(i)) for i in sigma)
    return p.degree_of(u_name(sigma))


@pytest.mark.parametrize(
    "make",
    [
        lambda: SimplicialComplex.from_faces(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]),
        lambda: skeleton_complex(4, 2),
        lambda: SimplicialComplex.from_faces(3, [(1, 2), (1, 3), (2, 3)]),
    ],
)
def test_label_dimension_coherence(make):
    K = make()
    dims = tuple(1 + (i % 2) for i in range(K.n))
    runs = [("cp", None, decompose_cp(K), build_cp_presentation(K)),
            ("spheres", dims, decompose_spheres(K, dims, 8),
             build_sphere_presentation(K, dims))]
    for target, grading, dec, p in runs:
        higher = []
        for s in dec.summands:
            if s.label is None:
                continue
            assert s.dimension == _label_dimension(s.label, target, grading)
            if s.label.kind == "higher":
                # The sphere of w_sigma loops to the class of u(sigma).
                assert s.dimension == _loop_class_degree(p, s.label.sigma) + 1
                higher.append(s.label.sigma)
        assert higher, target


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bracket_lists_match_itertools(data):
    n = data.draw(st.integers(2, 6))
    sigma = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=2))))
    grading = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    max_dim = data.draw(st.integers(0, 16))
    base = len(sigma) - 1 + sum(grading[i - 1] for i in sigma)

    def dim(js):
        return base + sum(grading[j - 1] for j in js)

    complement = [j for j in range(1, n + 1) if j not in sigma]
    flavors = ((True, itertools.combinations, complement),
               (False, itertools.combinations_with_replacement, range(1, n + 1)))
    for exterior, choose, letters in flavors:
        got = list(bracket_lists(sigma, n, grading, max_dim, exterior))
        # Every grade is >= 1, so no list is longer than max_dim - base.
        lengths = range(1, max_dim - base + 1)
        for length in lengths:
            expected = [(js, dim(js)) for js in choose(letters, length)
                        if dim(js) <= max_dim]
            assert [x for x in got if len(x[0]) == length] == expected, exterior
        assert all(len(js) in lengths for js, _ in got), exterior
        seen = {()}
        for js, _ in got:
            assert js[:-1] in seen, (exterior, js)
            seen.add(js)


def test_detect_skeleton(K1):
    assert detect_skeleton(skeleton_complex(4, 2)) == 2
    assert detect_skeleton(skeleton_complex(5, 1)) == 1
    assert detect_skeleton(K1) is None


def test_detect_skeleton_matches_the_definition():
    def by_definition(K):
        return next((k for k in range(1, K.n)
                     if K.faces == skeleton_complex(K.n, k).faces), None)

    cases = [K for n in range(1, 5) for K in _all_complexes(n)]
    for n in range(2, 9):
        for k in range(1, n):
            S = skeleton_complex(n, k)
            cases.append(S)
            # The same skeleton without one of its top faces.
            top = max(S.faces, key=len)
            cases.append(SimplicialComplex(n=n, faces=S.faces - {top}))
    for K in cases:
        assert detect_skeleton(K) == by_definition(K), (K.n, sorted(K.faces))


def _relabelings(K):
    """Every distinct relabeling of K, K itself included."""
    seen = set()
    for perm in itertools.permutations(range(1, K.n + 1)):
        L = K.relabel(dict(zip(range(1, K.n + 1), perm)))
        if L.faces not in seen:
            seen.add(L.faces)
            yield L


def test_generator_order_changes_no_decomposition(K1, K3, fixtures_dir, monkeypatch):
    # rewriting_system ranks the generators by how many relations they
    # occur in; the presentation order must give the same decomposition.
    # (K2 is not an MF-complex, so it has no decomposition to compare.)
    def presentation_order(p, max_degree, budget_words):
        generators = [(g.name, g.degree) for g in p.generators]
        return RewritingSystem(generators, p.relations, max_degree, budget_words)

    wheel = parse_complex((fixtures_dir / "wheel.sc").read_text())
    cases = [(K, "cp", None, None) for K in (K1, K3, wheel)]
    cases += [(K, "spheres", (1,) * K.n, 7) for K in (K1, K3, wheel)]
    cases += [(K1, "spheres", (1, 2, 1, 2), 7)]
    for K0, target, dims, max_dim in cases:
        for K in _relabelings(K0):
            ranked = consistency_report(K, target, dims, max_dim)
            with monkeypatch.context() as m:
                m.setattr(decompose, "rewriting_system", presentation_order)
                listed = consistency_report(K, target, dims, max_dim)
            assert ranked.to_json_dict(K) == listed.to_json_dict(K), (target, dims)
            assert ranked.rejected == listed.rejected, (target, dims)


def test_json_schema_and_determinism(K1):
    a = decompose_cp(K1).to_json_dict(K1)
    b = decompose_cp(K1).to_json_dict(K1)
    assert json.dumps(a, sort_keys=False) == json.dumps(b, sort_keys=False)
    assert a["complex"]["vertices"] == 4
    assert a["target"] == "cp" and a["dims"] is None
    first = a["summands"][0]
    assert set(first) == {"dimension", "count", "labels", "provenance"}
    assert first == {
        "dimension": 3,
        "count": 1,
        "labels": [{"kind": "higher", "sigma": [3, 4]}],
        "provenance": "enumeration",
    }
    assert a["flags"] == []


@pytest.mark.parametrize(
    "name,target,dims,max_dim",
    [
        ("K1", "cp", None, None),
        ("K3", "cp", None, None),
        ("K1", "spheres", (1, 1, 1, 1), 10),
        ("K1", "spheres", (1, 2, 1, 2), 10),
        ("K3", "spheres", (1, 1, 1, 1, 1), 8),
        ("pair", "spheres", (1, 1), 8),
    ],
)
def test_bracket_normal_forms_match_full_expansion(name, target, dims, max_dim,
                                                   request, monkeypatch):
    # Every part-(c) bracket is reduced from its parent's normal form; the
    # reference expands the whole iterated commutator and reduces it once.
    if name == "pair":
        K = SimplicialComplex.from_faces(2, [])
    else:
        K = request.getfixturevalue(name)
    recorded = []
    incremental = decompose._bracket_normal_forms

    def recording(sigma, candidates, p, rs):
        for js, dim, nf in incremental(sigma, candidates, p, rs):
            recorded.append((sigma, js, nf, p, rs))
            yield js, dim, nf

    monkeypatch.setattr(decompose, "_bracket_normal_forms", recording)
    if target == "cp":
        decompose_cp(K, max_dim)
    else:
        decompose_spheres(K, dims, max_dim)
    assert recorded
    for sigma, js, nf, p, rs in recorded:
        el = commutator(
            TensorElement.term((b_name(sigma[0]),)),
            TensorElement.term((b_name(sigma[1]),)),
            p.degree_of,
        )
        for j in js:
            el = commutator(el, TensorElement.term((b_name(j),)), p.degree_of)
        assert nf == rs.normal_form(el), (sigma, js)


@pytest.mark.parametrize(
    "name,dims,max_dim,selected,zero,dependent,beyond",
    [
        ("K1", None, None, 0, 3, 0, 0),
        ("K3", None, None, 2, 16, 2, 1),
        ("tri", None, None, 0, 0, 0, 0),
        ("skel42", None, None, 0, 0, 0, 0),
        ("wheel", None, None, 0, 14, 0, 0),
        ("pair", None, None, 0, 0, 0, 0),
        ("K1", (1, 1, 1, 1), 10, 35, 294, 0, 0),
        ("K1", (1, 2, 1, 2), 10, 15, 64, 0, 0),
        ("K3", (1, 1, 1, 1, 1), 8, 130, 518, 50, 55),
        ("pair", (1, 1), 6, 9, 0, 0, 0),
    ],
)
def test_part_c_selection_and_rejection_reasons_are_pinned(
        name, dims, max_dim, selected, zero, dependent, beyond, fixtures_dir):
    # A loop that skipped the rank update once a dimension's quota is full
    # would move "dependent" into "beyond"; the goldens would not see it.
    K = parse_complex((fixtures_dir / f"{name}.sc").read_text())
    dec = decompose_cp(K, max_dim) if dims is None else decompose_spheres(K, dims, max_dim)
    chosen = [s for s in dec.summands
              if s.label is not None and s.label.kind == "iterated" and len(s.label.sigma) == 2]
    reasons = [reason for _, reason in dec.rejected]
    assert len(chosen) == selected
    assert [reasons.count("zero normal form"),
            reasons.count("dependent on previously selected brackets"),
            reasons.count("independent but beyond the series count")] == [zero, dependent, beyond]
    assert len(reasons) == zero + dependent + beyond
