import hashlib
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle import allday, linalg
from momentangle.allday import (
    DGAModel,
    ModelError,
    _build_model,
    a_element,
    build_fat_wedge_model,
    build_product_model,
    bubenik_series,
    check_d_squared,
    generator_degree_counts,
    homology_series,
)
from momentangle.complexes import (
    ComplexError,
    SimplicialComplex,
    face_degree,
    parse_complex,
    skeleton_complex,
)
from momentangle.linalg import sparse_rank
from momentangle.presentations import build_sphere_presentation, graded_dimensions
from momentangle.series import TruncatedSeries, free_gc_series, geometric_series
from momentangle.tensor import DEFAULT_BUDGET_WORDS, TensorElement, word_counts


def test_generator_degree():
    assert face_degree((1,), (1, 1)) == 1
    assert face_degree((1, 2), (1, 1)) == 3
    assert face_degree((1, 2, 3), (2, 2, 2)) == 8


def test_a_element_two_vertices():
    a = a_element((1, 2), (1, 1))
    assert dict(a) == {((1,), (2,)): 1, ((2,), (1,)): 1}


def test_a_element_three_vertices_bracket_structure():
    a = a_element((1, 2, 3), (1, 1, 1))
    # three brackets, each expanding to two words, all coefficients +-1
    assert len(a) == 6
    pairs = {tuple(sorted(w, key=len)) for w in a}
    assert pairs == {((1,), (2, 3)), ((2,), (1, 3)), ((3,), (1, 2))}


def test_a_element_rejects_singleton():
    with pytest.raises(ModelError):
        a_element((1,), (1, 1))


def _permutation_sign_oracle(I, J, Jp, z_degrees):
    """Koszul sign of sorting the odd symbols of J + J' back to I's order."""
    arrangement = list(J) + list(Jp)
    sign = 0
    for a, b in itertools.combinations(range(len(arrangement)), 2):
        x, y = arrangement[a], arrangement[b]
        if x > y and z_degrees[x] % 2 == 1 and z_degrees[y] % 2 == 1:
            sign += 1
    return sign % 2


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.lists(st.integers(min_value=1, max_value=3), min_size=6, max_size=6),
)
def test_shuffle_sign_matches_permutation_oracle(k, ms):
    # Every coefficient of a_element: -(-1)^(|b_J| + eps) on b_J b_J' for
    # each type-II shuffle, eps the oracle's Koszul sign, and the graded
    # commutator's sign on b_J' b_J.
    dims = tuple(ms)
    I = tuple(range(1, k + 1))
    z = {i: dims[i - 1] + 1 for i in I}
    a = a_element(I, dims)
    assert len(a) == 2 * (2 ** (k - 1) - 1)
    splits = [(J, Jp) for J, Jp in a if J[0] == I[0]]
    assert len(splits) == 2 ** (k - 1) - 1
    for J, Jp in splits:
        assert list(J) == sorted(J) and list(Jp) == sorted(Jp)
        assert tuple(sorted(J + Jp)) == I
        dJ, dJp = face_degree(J, dims), face_degree(Jp, dims)
        sign = -((-1) ** (dJ + _permutation_sign_oracle(I, J, Jp, z)))
        assert a[J, Jp] == sign
        assert a[Jp, J] == -sign * (-1) ** (dJ * dJp)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.lists(st.integers(min_value=1, max_value=3), min_size=5, max_size=5),
)
def test_a_element_homogeneous_of_degree_minus_one(k, ms):
    dims = tuple(ms)
    I = tuple(range(1, k + 1))
    a = a_element(I, dims)
    degree_of = lambda J: face_degree(J, dims)
    assert a.degrees(degree_of) == {face_degree(I, dims) - 1}


def test_model_generators():
    fw = build_fat_wedge_model((1, 1))
    assert fw.generators == ((1,), (2,))
    assert all(fw.differential[I].is_zero() for I in fw.generators)
    pm = build_product_model((1, 1))
    assert pm.generators == ((1,), (2,), (1, 2))
    top = pm.differential[(1, 2)]
    assert dict(top) == {((1,), (2,)): 1, ((2,), (1,)): 1}


def test_model_generator_counts():
    assert generator_degree_counts((1, 1, 1), top=False) == {1: 3, 3: 3}
    assert generator_degree_counts((2, 2, 2), top=False) == {2: 3, 5: 3}
    assert generator_degree_counts((1, 2, 1), top=True) == {1: 2, 2: 1, 3: 1, 4: 2, 6: 1}


def test_generator_degree_counts_count_the_faces():
    # The closed form against the faces of the boundary of the simplex and
    # of the simplex, counted by degree.
    for n in range(2, 7):
        simplex = SimplicialComplex.from_faces(n, [range(1, n + 1)])
        for dims in itertools.product((1, 2, 3), repeat=n):
            for K, top in ((skeleton_complex(n, 1), False), (simplex, True)):
                expected = Counter(face_degree(f, dims) for f in K.faces)
                assert generator_degree_counts(dims, top) == expected, (dims, top)


def test_model_validation():
    for build in (build_fat_wedge_model, build_product_model):
        with pytest.raises(ModelError, match="at least two spheres"):
            build((1,))
        with pytest.raises(ComplexError, match="sphere parameters must be >= 1"):
            build((1, 0))


def test_d_squared_sweep_small():
    for n in (2, 3):
        for dims in itertools.product((1, 2), repeat=n):
            for build in (build_fat_wedge_model, build_product_model):
                ok, witness = check_d_squared(build(dims), 14)
                assert ok, (dims, build.__name__, witness)


def _all_complexes(n):
    """Every simplicial complex on the vertices 1..n (all singletons present)."""
    candidates = [
        f for k in range(2, n + 1) for f in itertools.combinations(range(1, n + 1), k)
    ]
    for mask in range(1 << len(candidates)):
        faces = {f for i, f in enumerate(candidates) if mask >> i & 1}
        if all(
            g in faces
            for f in faces
            if len(f) > 2
            for g in itertools.combinations(f, len(f) - 1)
        ):
            yield SimplicialComplex.from_faces(n, faces)


def test_d_squared_on_every_complex():
    # 2 + 9 + 114 = 125 complexes on 2..4 vertices.
    seen = 0
    for n in (2, 3, 4):
        for K in _all_complexes(n):
            seen += 1
            for dims in itertools.product((1, 2), repeat=n):
                ok, witness = check_d_squared(_build_model(dims, K.sorted_faces()), 6)
                assert ok, (sorted(K.faces), dims, witness)
    assert seen == 125


def test_orbit_ranks_match_every_block_on_every_complex(monkeypatch):
    # Ranks taken once per symmetry orbit against every block eliminated.
    models = [_build_model(dims, K.sorted_faces()) for n in (2, 3, 4) for K in _all_complexes(n)
              for dims in itertools.product((1, 2), repeat=n)]
    assert len(models) == 1904
    reduced = [homology_series(m, 5) for m in models]
    monkeypatch.setattr(allday, "_vertex_classes", lambda model: [])
    assert [homology_series(m, 5) for m in models] == reduced


def _fat_wedge_111_without_d12():
    # d(b_12) = 0 keeps d^2 = 0, since the boundary of the 2-simplex has no
    # 2-face; it breaks the symmetries that move the pair {1, 2}.
    m = build_fat_wedge_model((1, 1, 1))
    diff = dict(m.differential)
    diff[(1, 2)] = TensorElement()
    return DGAModel(dims=m.dims, generators=m.generators, differential=diff)


def test_only_certified_relabelings_join_classes(monkeypatch):
    model = _fat_wedge_111_without_d12()
    assert allday._vertex_classes(model) == [[1, 2]]
    assert allday._relabeling_signs(model, {1: 1, 2: 3, 3: 2}) is None
    h = homology_series(model, 6)
    assert h.coeffs == (1, 3, 7, 16, 37, 86, 200)
    monkeypatch.setattr(allday, "_vertex_classes", lambda model: [])
    assert homology_series(model, 6) == h
    # An uncertified class would weight the wrong blocks.
    monkeypatch.setattr(allday, "_vertex_classes", lambda model: [[1, 2, 3]])
    assert homology_series(model, 6).coeffs[:5] == (1, 3, 9, 26, 68)


def test_relabeling_signs_commute_with_d():
    # Swapping 1 and 2 in the (2,2,2,2) fat wedge needs b_12 -> -b_12: the
    # plain relabeling is not a chain map, the signed one is.
    model = build_fat_wedge_model((2, 2, 2, 2))
    p = {1: 2, 2: 1, 3: 3, 4: 4}
    eps = allday._relabeling_signs(model, p)
    assert eps is not None and eps[(1, 2)] == -1
    relabel = lambda x: tuple(sorted(p[i] for i in x))
    for I in model.generators:
        image = TensorElement()
        for word, c in model.differential[I].items():
            for x in word:
                c *= eps[x]
            image.add_term(tuple(map(relabel, word)), c)
        assert image == model.differential[relabel(I)].scale(eps[I]), I


def test_orbit_shortcut_skips_most_eliminations(monkeypatch):
    calls = []

    def counting_rank(rows, pivots=None):
        calls.append(len(rows))
        return sparse_rank(rows, pivots)

    monkeypatch.setattr(allday, "sparse_rank", counting_rank)
    model = build_fat_wedge_model((2, 2, 2, 2))
    h = homology_series(model, 10)
    reduced = len(calls)
    calls.clear()
    monkeypatch.setattr(allday, "_vertex_classes", lambda model: [])
    assert homology_series(model, 10) == h
    assert 0 < reduced < len(calls) / 3


def _fat_wedge_1111_without_d123():
    # d(b_123) = 0 keeps d^2 = 0 (no face of the boundary of the 3-simplex
    # contains 123) and breaks every symmetry that moves vertex 4.
    m = build_fat_wedge_model((1, 1, 1, 1))
    diff = dict(m.differential)
    diff[(1, 2, 3)] = TensorElement()
    return DGAModel(dims=m.dims, generators=m.generators, differential=diff)


def test_symmetry_is_read_only_through_the_top_degree(monkeypatch):
    # b_123 has degree 5, so through degree 3 + 1 all four vertices are one
    # class once d(b_123) = 0.
    m = build_fat_wedge_model((1, 1, 1, 1))
    model = _fat_wedge_1111_without_d123()
    found = []
    vertex_classes = allday._vertex_classes

    def recording(model):
        found.append(vertex_classes(model))
        return found[-1]

    monkeypatch.setattr(allday, "_vertex_classes", recording)
    assert homology_series(model, 3) == homology_series(m, 3)
    assert found[0] == [[1, 2, 3, 4]]
    h = homology_series(model, 4)
    assert found[-1] == [[1, 2, 3]]
    monkeypatch.setattr(allday, "_vertex_classes", lambda model: [])
    assert homology_series(model, 4) == h


def _ranked_blocks(model, max_degree):
    """(the block table, per turn the blocks (c, L + 1) homology_series ranks)."""
    top = max_degree + 1
    model = model.below(top)
    classes = allday._vertex_classes(model)
    blocks = allday._Blocks(model)
    ranked = []
    for content in allday._contents(model.dims, top):
        if allday._orbit_weight(content, classes):
            size = sum(c * (m + 1) for c, m in zip(content, model.dims))
            ranked.append([(content, L + 1) for L in range(max(1, size - top), sum(content))])
    blocks.plan(ranked)
    return blocks, ranked


def _listed(blocks, content, length):
    """The words of W(content, length), read off the first-letter segments."""
    if not length:
        return [()]
    return [(I,) + w for I, (rest, _, _) in blocks(content, length)[1].items()
            for w in _listed(blocks, rest, length - 1)]


def _assert_coboundary_is_transpose(model, max_degree):
    # Every row of every ranked block, with the tail rows kept turn by turn
    # as homology_series keeps them, against the matrix of d_word on the
    # words one letter shorter, sign for sign.
    blocks, ranked = _ranked_blocks(model, max_degree)
    sub = model.below(max_degree + 1)
    for i, turn in enumerate(ranked):
        for key in blocks.build[i]:
            blocks.tails[key] = blocks.rows(*key)
        for content, length in turn:
            target = _listed(blocks, content, length)
            source = _listed(blocks, content, length - 1)
            down = {(u, w): c for w in source for u, c in sub.d_word(w).items()}
            rows = blocks.rows(content, length) if target and source else []
            assert len(rows) == (len(target) if source else 0)
            up = {(u, source[-col]): c for u, row in zip(target, rows) for col, c in row.items()}
            assert up == down, (sub.dims, content, length)
        for key in blocks.drop[i]:
            del blocks.tails[key]


def test_coboundary_is_the_transpose_of_d_on_every_complex():
    seen = 0
    for n in (2, 3, 4):
        for K in _all_complexes(n):
            for dims in itertools.product((1, 2), repeat=n):
                _assert_coboundary_is_transpose(_build_model(dims, K.sorted_faces()), 5)
                seen += 1
    assert seen == 1904


def test_coboundary_is_the_transpose_of_d_on_modified_models(corrupted_model):
    for model in (_fat_wedge_1111_without_d123(), _fat_wedge_111_without_d12(),
                  corrupted_model):
        _assert_coboundary_is_transpose(model, 5)


def test_homology_series_needs_a_quadratic_differential():
    # Rows are built from the rows of shorter words only because every term
    # of d(b_I) is a two-letter word.
    m = build_product_model((1, 1, 1))
    diff = dict(m.differential)
    diff[(1, 2)] = diff[(1, 2)] + TensorElement.term(((1,), (2,), (1,)))
    model = DGAModel(dims=m.dims, generators=m.generators, differential=diff)
    with pytest.raises(ModelError, match=r"d\(b_\(1, 2\)\) has the term .* not a two-letter"):
        homology_series(model, 4)


@pytest.mark.parametrize("build, dims, degree, matrices, digest", [
    (build_fat_wedge_model, (2, 2, 2, 2), 12, 30,
     "98a0c68ff94e0427cfeb607f3ce04e2c753cb816706e216be797b3e69533b330"),
    (build_product_model, (1, 2, 1), 10, 124,
     "ba11b4610d1a362a95546f8a78df3714d2626484d153fcf5a6dae8af2d8f907e"),
])
def test_rank_inputs_are_pinned(monkeypatch, build, dims, degree, matrices, digest):
    # Recorded when each row was the coboundary of a listed word, looked up
    # in a dict of the listed words one letter shorter.  The rows, in order,
    # with their columns and values, are the kernel's whole input: a changed
    # digest is a changed computation, not a digest to record again.
    seen = []

    def recording(rows, pivots=None):
        seen.append(repr([sorted(row.items()) for row in rows]))
        return sparse_rank(rows, pivots)

    monkeypatch.setattr(allday, "sparse_rank", recording)
    homology_series(build(dims), degree)
    assert len(seen) == matrices
    assert hashlib.sha256("".join(sorted(seen)).encode()).hexdigest() == digest


@pytest.mark.parametrize("build, dims, degree", [
    (build_fat_wedge_model, (2, 2, 2, 2), 12),
    (build_product_model, (1, 2, 1), 10),
])
def test_clearing_leaves_only_homology_to_reduce_to_zero(monkeypatch, build, dims,
                                                         degree):
    # Rows cleared by the previous map's pivots are never fed to the kernel;
    # a fed row that does not raise the rank is a homology class of its
    # block, and each class is counted at least once in the series.
    grew = []
    add = linalg.IncrementalRank.add

    def counting_add(self, row):
        grew.append(add(self, row))
        return grew[-1]

    monkeypatch.setattr(linalg.IncrementalRank, "add", counting_add)
    h = homology_series(build(dims), degree)
    assert 0 < len(grew) - sum(grew) <= sum(h.coeffs)


@st.composite
def generator_lists(draw):
    """(n, distinct nonempty vertex sets of 1..n, in a drawn order)."""
    n = draw(st.integers(min_value=1, max_value=3))
    faces = [f for k in range(1, n + 1) for f in itertools.combinations(range(1, n + 1), k)]
    gens = draw(st.lists(st.sampled_from(faces), min_size=1, max_size=5, unique=True))
    return n, gens


@settings(max_examples=60, deadline=None)
@given(generator_lists(), st.integers(min_value=0, max_value=4))
def test_content_words_match_brute_force(alphabet, max_length):
    n, gens = alphabet
    expected = {}
    for length in range(max_length + 1):
        # itertools.product lists the words in lexicographic generator order.
        for word in itertools.product(gens, repeat=length):
            content = tuple(sum(v in I for I in word) for v in range(1, n + 1))
            expected.setdefault((content, length), []).append(word)
    blocks = allday._Blocks(DGAModel((1,) * n, tuple(gens), {}))
    for content in itertools.product(range(max_length + 1), repeat=n):
        for length in range(max_length + 1):
            words = expected.get((content, length), [])
            size, segments = blocks(content, length)
            assert size == len(words)
            # Each first letter's words sit together, in generator order.
            firsts = [w[0] for w in words if w]
            spans = [(I, firsts.index(I), len(firsts) - firsts[::-1].index(I))
                     for I in gens if I in firsts]
            assert [(I, s, t) for I, (_, s, t) in segments.items()] == spans
            for I, (rest, s, t) in segments.items():
                assert firsts[s:t] == [I] * (t - s)
                assert rest == tuple(c - (v in I) for v, c in enumerate(content, 1))


def test_fat_wedge_builds_a_fraction_of_the_words(monkeypatch):
    # Rows are built only for the blocks of representative contents and
    # the shorter blocks they are built from; every word through D + 1 is
    # only counted.
    built = []
    rows = allday._Blocks.rows

    def counting(self, content, length, cleared=()):
        out = rows(self, content, length, cleared)
        if (content, length) not in self.tails:  # else served from kept rows
            built.append(len(out))
        return out

    monkeypatch.setattr(allday._Blocks, "rows", counting)
    model = build_fat_wedge_model((2, 2, 2, 2))
    homology_series(model, 12)
    counted = sum(word_counts([model.degree_of(I) for I in model.generators], 13,
                              DEFAULT_BUDGET_WORDS))
    assert 0 < sum(built) < counted / 3


def test_tails_are_held_only_until_their_last_reader(monkeypatch):
    # A tail's own tails are read once, when it is built, so the later
    # turns that read the tail do not keep them; holding them until those
    # turns peaked at 19,505 rows here.
    held = []
    rows = allday._Blocks.rows

    def counting(self, content, length, cleared=()):
        held.append(sum(map(len, self.tails.values())))
        return rows(self, content, length, cleared)

    monkeypatch.setattr(allday._Blocks, "rows", counting)
    h = homology_series(build_product_model((1, 2, 1)), 12)
    spheres = [_loop_sphere_series(m, 12) for m in (1, 2, 1)]
    assert h == spheres[0] * spheres[1] * spheres[2]  # Künneth
    assert 0 < max(held) <= 13_031


def test_bounded_build_computes_d_only_below_the_bound(monkeypatch):
    # The CLI builds through D + 1, the only generators the homology reads;
    # the degree counts, in closed form, still count every face of K.
    for build in (build_fat_wedge_model, build_product_model):
        full = build((1, 2, 1, 2))
        for bound in (0, 1, 3, 5, 8):
            bounded = build((1, 2, 1, 2), bound)
            assert bounded == full.below(bound)
            assert all(bounded.differential[I] == full.differential[I]
                       for I in bounded.generators)
    calls = []
    monkeypatch.setattr(allday, "a_element", lambda I, dims: calls.append(I) or a_element(I, dims))
    model = build_product_model((1,) * 12, 3)
    assert len(calls) == 66 and len(model.generators) == 78
    assert sum(generator_degree_counts((1,) * 12, top=True).values()) == 4095


@pytest.mark.parametrize("dims", [(1, 1, 1), (1, 1, 2), (1, 2, 1, 2), (2, 2, 2, 2)])
def test_models_match_the_sphere_presentation(dims):
    # The fat wedge and the product are the polyhedral products over the
    # boundary of the simplex and the simplex; the presentation is another
    # route to the same loop homology.
    n = len(dims)
    simplex = SimplicialComplex.from_faces(n, [range(1, n + 1)])
    for build, K in ((build_fat_wedge_model, skeleton_complex(n, 1)),
                     (build_product_model, simplex)):
        expected = graded_dimensions(build_sphere_presentation(K, dims), 8)
        assert homology_series(build(dims), 8) == expected, build.__name__


@pytest.mark.parametrize("name", ["K1", "K3", "tri", "pair"])
def test_complex_model_matches_the_sphere_presentation(fixtures_dir, name):
    K = parse_complex((fixtures_dir / f"{name}.sc").read_text())
    for dims in ((1,) * K.n, tuple(1 + i % 2 for i in range(K.n))):
        expected = graded_dimensions(build_sphere_presentation(K, dims), 6)
        assert homology_series(_build_model(dims, K.sorted_faces()), 6) == expected, dims


def test_d_squared_detects_corrupted_sign(corrupted_model):
    ok, witness = check_d_squared(corrupted_model, 12)
    assert not ok and witness is not None


def test_homology_series_refuses_corrupted_model(corrupted_model):
    # homology_series runs the d^2 certificate itself before it counts.
    with pytest.raises(ModelError, match="does not square to zero"):
        homology_series(corrupted_model, 6)


def test_homology_free_tensor_n2():
    h = homology_series(build_fat_wedge_model((1, 1)), 8)
    assert h.coeffs == (1, 2, 4, 8, 16, 32, 64, 128, 256)


def _loop_sphere_series(m, cutoff):
    """Loop-space-true series of H(Omega S^{m+1}; Q)."""
    if m % 2 == 0:
        return free_gc_series([m], False, cutoff)
    return free_gc_series([m, 2 * m], True, cutoff)


KUNNETH_CASES = [
    ((1, 1), 10),
    ((2, 2), 10),
    ((1, 2), 10),
    ((2, 3), 10),
    ((1, 2, 2), 10),
    ((1, 2, 1), 12),
]


@pytest.mark.parametrize(
    "dims, degree", KUNNETH_CASES, ids=[f"dims{i}" for i in range(len(KUNNETH_CASES))]
)
def test_product_model_kunneth(dims, degree):
    h = homology_series(build_product_model(dims), degree)
    expected = TruncatedSeries.one(degree)
    for m in dims:
        expected = expected * _loop_sphere_series(m, degree)
    assert h == expected


def test_homology_matches_bubenik_222():
    h = homology_series(build_fat_wedge_model((2, 2, 2)), 12)
    assert h == bubenik_series((2, 2, 2), True, 12)


def test_bubenik_requires_three_spheres():
    with pytest.raises(ModelError):
        bubenik_series((1, 1), True, 6)


def test_bubenik_closed_form_111():
    b = bubenik_series((1, 1, 1), True, 8)
    poly_b = geometric_series(TruncatedSeries.monomial(1, 8))
    g = TruncatedSeries.monomial(4, 8) * poly_b * poly_b * poly_b
    expected = free_gc_series([1, 1, 1], True, 8) * geometric_series(g)
    assert b == expected
    poly = bubenik_series((1, 1, 1), False, 8)
    expected_poly = free_gc_series([1, 1, 1], False, 8) * geometric_series(g)
    assert poly == expected_poly
    assert b != poly and b.coeffs[:2] == poly.coeffs[:2]


def test_n2_fat_wedge_homology_is_free_tensor_algebra():
    model = build_fat_wedge_model((2, 3))
    D = 10
    h = homology_series(model, D)
    expected = geometric_series(
        TruncatedSeries.monomial(2, D) + TruncatedSeries.monomial(3, D)
    )
    assert h == expected

