import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle.allday import build_fat_wedge_model, build_product_model, bubenik_series
from momentangle.complexes import (
    ComplexError,
    ParseError,
    SimplicialComplex,
    is_mf_complex,
    is_shifted,
    is_shifted_any,
    j_complement,
    maximal_faces,
    missing_faces,
    parse_complex,
    serialize_complex,
    skeleton_complex,
    sphere_grading,
)
from momentangle.decompose import consistency_report, decompose_spheres, porter_fnk
from momentangle.presentations import build_sphere_presentation


def test_downward_closure():
    K = SimplicialComplex.from_faces(4, [(1, 2, 3)])
    assert (1, 2) in K and (2, 3) in K and (4,) in K
    assert (1, 4) not in K


def test_missing_faces_K1(K1):
    assert missing_faces(K1) == [(3, 4), (1, 2, 3), (1, 2, 4)]


def test_missing_faces_K2(K2):
    assert missing_faces(K2) == [(2, 4), (3, 4), (1, 2, 3)]


def test_missing_faces_K3(K3):
    assert missing_faces(K3) == [(2, 5), (3, 4), (4, 5), (1, 2, 3), (1, 2, 4), (1, 3, 5)]


def test_mf_complex_classification(K1, K2, K3):
    assert is_mf_complex(K1) == (True, None)
    ok, witness = is_mf_complex(K2)
    assert not ok and witness == (1, 4)
    assert is_mf_complex(K3) == (True, None)


def test_full_simplex_is_not_mf():
    full = SimplicialComplex.from_faces(3, [(1, 2, 3)])
    assert missing_faces(full) == []
    ok, witness = is_mf_complex(full)
    assert not ok and witness == (1, 2, 3)


def test_shifted(K1, K2, K3):
    identity4 = (1, 2, 3, 4)
    assert is_shifted(K1, identity4)
    assert is_shifted(K2, identity4)
    assert is_shifted_any(K1) == (True, identity4)
    ok, ordering = is_shifted_any(K3)
    assert not ok and ordering is None


def test_shifted_bad_ordering(K1):
    with pytest.raises(ComplexError):
        is_shifted(K1, (1, 2, 3))


def test_k2_uncovered_face_is_exactly_14(K2):
    covered = set()
    mfs = [set(m) for m in missing_faces(K2)]
    for face in K2.faces:
        if any(set(face) < m for m in mfs):
            covered.add(face)
    assert K2.faces - covered == {(1, 4)}


def test_maximal_faces(K1):
    assert maximal_faces(K1) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]


def test_skeleton_complex():
    K = skeleton_complex(4, 2)
    assert max(len(f) for f in K.faces) == 2
    assert missing_faces(K) == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    assert is_mf_complex(K) == (True, None)
    with pytest.raises(ComplexError):
        skeleton_complex(4, 4)
    with pytest.raises(ComplexError):
        skeleton_complex(4, 0)


def test_skeleton_isolated_points():
    K = skeleton_complex(3, 2)
    assert K.faces == frozenset({(1,), (2,), (3,)})


def test_j_complement():
    assert j_complement((1, 3), 5) == (2, 4, 5)
    assert j_complement((1, 2, 3), 3) == ()


def test_parse_line_grammar():
    K = parse_complex("vertices: 4\nface: 1 2\nface: 3 4  # comment\n")
    assert K.n == 4 and (1, 2) in K and (3, 4) in K


def test_parse_semicolons():
    K = parse_complex("vertices:4; face:1 2; face:1 3; face:1 4; face:2 3; face:2 4")
    assert missing_faces(K) == [(3, 4), (1, 2, 3), (1, 2, 4)]


def test_parse_json_document():
    K = parse_complex('{"vertices": 3, "faces": [[1, 2], [2, 3]]}')
    assert (1, 2) in K and (1, 3) not in K


@pytest.mark.parametrize(
    "text",
    [
        "face: 1 2\nvertices: 3",
        "vertices: 3\nvertices: 3",
        "vertices: 0",
        "vertices: 3\nface: 1 5",
        "vertices: 3\nface: 1 1",
        "vertices: 3\nbogus: 1",
        "vertices: three",
        "",
        '{"faces": []}',
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_complex(text)


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as err:
        parse_complex("vertices: 3\nface: 9")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "face, message",
    [
        ((), "empty face"),
        ((1, 5), "vertex index 5 out of range 1..3"),
        ((2, 1, 2), "face (2, 1, 2) repeats a vertex"),
    ],
)
def test_from_faces_follows_the_parsers_face_rule(face, message):
    with pytest.raises(ParseError) as built:
        SimplicialComplex.from_faces(3, [(1, 2), face])
    with pytest.raises(ParseError) as parsed:
        parse_complex("vertices: 3\nface: 1 2\nface: " + " ".join(map(str, face)))
    with pytest.raises(ParseError) as loaded:
        parse_complex(f'{{"vertices": 3, "faces": [[1, 2], {list(face)}]}}')
    assert str(built.value) == str(loaded.value) == message
    assert str(parsed.value) == f"line 3: {message}"


def test_serialize_roundtrip(K1, K2, K3):
    for K in (K1, K2, K3):
        assert parse_complex(serialize_complex(K)) == K


@st.composite
def complexes(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    faces = draw(
        st.lists(
            st.lists(
                st.integers(min_value=1, max_value=n), min_size=1, max_size=n, unique=True
            ),
            max_size=8,
        )
    )
    return SimplicialComplex.from_faces(n, faces)


@settings(max_examples=60, deadline=None)
@given(complexes(), st.randoms())
def test_missing_faces_relabel_invariance(K, rnd):
    verts = list(range(1, K.n + 1))
    shuffled = verts[:]
    rnd.shuffle(shuffled)
    perm = dict(zip(verts, shuffled))
    relabeled = K.relabel(perm)
    original = set(missing_faces(K))
    mapped = {tuple(sorted(perm[v] for v in m)) for m in original}
    assert set(missing_faces(relabeled)) == mapped


@settings(max_examples=60, deadline=None)
@given(complexes())
def test_missing_faces_are_minimal_nonfaces(K):
    for m in missing_faces(K):
        assert m not in K.faces
        for sub in itertools.combinations(m, len(m) - 1):
            assert sub in K.faces


@settings(max_examples=40, deadline=None)
@given(complexes())
def test_mf_witness_is_uncovered_maximal_face(K):
    ok, witness = is_mf_complex(K)
    if not ok:
        assert witness in maximal_faces(K)
        mfs = [set(m) for m in missing_faces(K)]
        assert not any(set(witness) < m for m in mfs)


@settings(max_examples=80, deadline=None)
@given(complexes())
def test_shifted_any_matches_permutation_search(K):
    # The first ordering, in lexicographic order, that makes K shifted.
    search = next(((True, perm) for perm in itertools.permutations(range(1, K.n + 1))
                   if is_shifted(K, perm)), (False, None))
    assert is_shifted_any(K) == search


def test_sphere_grading_is_the_one_check(K1):
    # Every entry point that takes sphere parameters refuses a wrong count,
    # an m_i of 0 and missing dims with the same error class and message.
    with_n = {
        "sphere_grading": lambda dims: sphere_grading(dims, 4),
        "build_sphere_presentation": lambda dims: build_sphere_presentation(K1, dims),
        "decompose_spheres": lambda dims: decompose_spheres(K1, dims, 8),
        "consistency_report": lambda dims: consistency_report(K1, "spheres", dims, 8),
        "porter_fnk": lambda dims: porter_fnk(4, 2, "spheres", dims, 8),
    }
    without_n = {
        "sphere_grading": sphere_grading,
        "build_fat_wedge_model": build_fat_wedge_model,
        "build_product_model": build_product_model,
        "bubenik_series": lambda dims: bubenik_series(dims, True, 6),
    }
    cases = [(f, (1, 1, 1), "expected 4 sphere parameters, got 3") for f in with_n.values()]
    for entry in (*with_n.values(), *without_n.values()):
        cases.append((entry, (1, 1, 0, 1), r"sphere parameters must be >= 1, got \(1, 1, 0, 1\)"))
        cases.append((entry, None, "sphere target requires dims"))
    for entry, dims, message in cases:
        with pytest.raises(ComplexError, match=message):
            entry(dims)
    assert sphere_grading([1, 2, 1, 2], 4) == (1, 2, 1, 2)
