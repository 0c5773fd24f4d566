import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momentangle.complexes import skeleton_complex
from momentangle.presentations import (
    Generator,
    Presentation,
    build_cp_presentation,
    build_sphere_presentation,
    graded_dimensions,
    rewriting_system,
)
from momentangle.rewriting import BudgetError, RewritingSystem
from momentangle.tensor import TensorElement


def brute_force_counts(degrees, forbidden, cap):
    """Per-degree counts of the words that contain no forbidden factor."""
    letters = list(degrees)
    counts = [0] * (cap + 1)
    for length in range(cap + 1):
        for word in itertools.product(letters, repeat=length):
            deg = sum(degrees[x] for x in word)
            if deg > cap:
                continue
            if any(
                word[i : i + len(f)] == f
                for f in forbidden
                for i in range(len(word) - len(f) + 1)
            ):
                continue
            counts[deg] += 1
    return counts


@st.composite
def monomial_systems(draw):
    """(letter degrees, relation words, completion bound, a bound no larger)."""
    n = draw(st.integers(min_value=1, max_value=3))
    names = "abc"[:n]
    degrees = {x: draw(st.integers(min_value=1, max_value=3)) for x in names}
    word = st.lists(st.sampled_from(names), min_size=1, max_size=4).map(tuple)
    relations = draw(st.lists(word, max_size=5))
    bound = draw(st.integers(min_value=0, max_value=7))
    cap = draw(st.integers(min_value=0, max_value=bound))
    return degrees, relations, bound, cap


@settings(max_examples=150, deadline=None)
@given(monomial_systems())
def test_series_matches_brute_force_count(system):
    degrees, relations, bound, cap = system
    for top in (cap, bound):
        rs = RewritingSystem(
            degrees.items(), [TensorElement.term(w) for w in relations], top
        )
        assert rs.series() == brute_force_counts(degrees, relations, top)


@settings(max_examples=150, deadline=None)
@given(monomial_systems(), st.integers(min_value=0, max_value=60))
def test_series_budget_raises_iff_total_exceeds_it(system, budget):
    degrees, relations, _, cap = system
    total = sum(brute_force_counts(degrees, relations, cap))
    rs = RewritingSystem(
        degrees.items(), [TensorElement.term(w) for w in relations], cap, budget
    )
    if total > budget:
        with pytest.raises(BudgetError):
            rs.series()
    else:
        assert sum(rs.series()) == total


def test_series_without_relations_counts_every_word():
    rs = RewritingSystem([("a", 1), ("b", 2)], [], 6)
    assert rs.series() == [1, 1, 2, 3, 5, 8, 13]


def test_series_deep_degree_does_not_recurse():
    # Two letters with a.a = b.b = 0: the normal words alternate, two per
    # degree.  A recursive enumeration would nest 1200 calls deep.
    rs = RewritingSystem(
        [("a", 1), ("b", 1)],
        [TensorElement.term(("a", "a")), TensorElement.term(("b", "b"))],
        1200,
    )
    assert rs.series() == [1] + [2] * 1200


def presentation(degrees, relations):
    generators = tuple(Generator(x, d, ("coordinate", i))
                       for i, (x, d) in enumerate(degrees.items(), start=1))
    return Presentation(generators, tuple(map(TensorElement, relations)), "cp-case")


@st.composite
def small_presentations(draw):
    """(presentation, completion bound ≤ 6): 1-3 homogeneous relations of
    2-3 terms with coefficients ±1, ±2 on 1-3 letters of degree 1-2."""
    n = draw(st.integers(min_value=1, max_value=3))
    names = "abc"[:n]
    degrees = {x: draw(st.integers(min_value=1, max_value=2)) for x in names}
    by_degree = {}
    for length in range(1, 5):
        for word in itertools.product(names, repeat=length):
            by_degree.setdefault(sum(degrees[x] for x in word), []).append(word)
    pools = [words for d, words in sorted(by_degree.items()) if d <= 4]
    # With one letter every homogeneous relation is a single term.
    pools = [words for words in pools if len(words) >= 2] or pools
    relations = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        pool = draw(st.sampled_from(pools))
        words = draw(st.lists(st.sampled_from(pool), min_size=min(2, len(pool)),
                              max_size=3, unique=True))
        coeffs = draw(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=len(words),
                               max_size=len(words)))
        relations.append(dict(zip(words, coeffs)))
    # Written as 6 - x so that the high bounds, where most overlaps lie, are
    # the ones drawn most often.
    return presentation(degrees, relations), 6 - draw(st.integers(min_value=0, max_value=6))


@settings(max_examples=100, deadline=None)
@given(small_presentations())
# Needs the self-overlap b·b·b of the rule b·b -> -a.
@example((presentation({"a": 2, "b": 1}, [{("a",): 1, ("b", "b"): 1}]), 3))
# Needs overlaps of an earlier rule's suffix with a later rule's prefix.
@example((presentation({"a": 1, "b": 1}, [
    {("b", "b", "b", "a"): 2, ("b", "b", "a", "b"): -1},
    {("a", "a"): 2, ("a", "b"): 1},
]), 6))
def test_completion_of_non_monomial_relations(case):
    p, bound = case
    rs = rewriting_system(p, bound)
    assert rs.series() == list(graded_dimensions(p, bound, method="linear").coeffs)
    rules = rs.rules
    for u in rules:
        for v in rules:
            if u != v:
                assert not any(
                    v[i : i + len(u)] == u for i in range(len(v) - len(u) + 1)
                ), (u, v)
            for k in range(1, min(len(u), len(v))):
                if u[-k:] != v[:k] or rs.word_degree(u + v[k:]) > bound:
                    continue
                s = rules[u] * TensorElement.term(v[k:]) - TensorElement.term(
                    u[:-k]
                ) * rules[v]
                assert rs.normal_form(s).is_zero(), (u, v, k)


@pytest.mark.parametrize("method", ["rewriting", "linear"])
@pytest.mark.parametrize("degrees, relations, expected", [
    # Free on degrees 1 and 2: dim A_d = dim A_{d−1} + dim A_{d−2}.
    ({"a": 1, "b": 2}, [], (1, 1, 2, 3, 5, 8, 13, 21, 34)),
    # Commutative, ab = ba; then the quantum planes ab = 2ba and 2ab = ba.
    # Each has the basis b^i a^j: dimension d + 1 in degree d.
    ({"a": 1, "b": 1}, [{("a", "b"): 1, ("b", "a"): -1}], tuple(range(1, 10))),
    ({"a": 1, "b": 1}, [{("a", "b"): 1, ("b", "a"): -2}], tuple(range(1, 10))),
    ({"a": 1, "b": 1}, [{("a", "b"): 2, ("b", "a"): -1}], tuple(range(1, 10))),
], ids=["free", "commutative", "quantum-plane-2", "quantum-plane-1/2"])
def test_graded_dimensions_hand_computed(degrees, relations, expected, method):
    total = graded_dimensions(presentation(degrees, relations), 8, method=method)
    assert total.coeffs == expected


@pytest.mark.parametrize("n, k, bound, count", [(6, 4, 7, 231), (7, 5, 8, 658)])
def test_skeleton_forbidden_word_count(n, k, bound, count):
    # Counts of the minimal forbidden words, recorded before the completion
    # was made degree-ordered; the set is unique for the word order.
    p = build_cp_presentation(skeleton_complex(n, k))
    assert len(rewriting_system(p, bound).rules) == count


def naive_normal_form(rules, element):
    """Reduce by trying every rule at every position of each word and
    rewriting its leftmost forbidden factor, with ``Fraction`` coefficients
    throughout."""
    todo = {w: Fraction(c) for w, c in element.items()}
    result = {}
    while todo:
        word, coeff = todo.popitem()
        hit = next(((i, f) for i in range(len(word)) for f in rules
                    if word[i : i + len(f)] == f), None)
        if hit is None:
            result[word] = result.get(word, 0) + coeff
            continue
        i, f = hit
        for tw, tc in rules[f].items():
            new = word[:i] + tw + word[i + len(f) :]
            todo[new] = todo.get(new, 0) + coeff * Fraction(tc)
    return {w: c for w, c in result.items() if c}


@st.composite
def completions_and_elements(draw):
    """(presentation, completion bound, 1-3 elements of 1-4 words of length
    ≤ 6 in its letters)."""
    p, bound = draw(small_presentations())
    word = st.lists(st.sampled_from([g.name for g in p.generators]), max_size=6).map(tuple)
    terms = st.dictionaries(word, st.sampled_from([-2, -1, 1, 2]), min_size=1, max_size=4)
    return p, bound, draw(st.lists(terms, min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(completions_and_elements())
# The quantum plane ab = 2ba: leading coefficient −2, so the rule ba → ab/2
# has a Fraction tail.
@example((presentation({"a": 1, "b": 1}, [{("a", "b"): 1, ("b", "a"): -2}]), 4,
          [{("b", "b", "a"): 1, ("b", "a", "a"): 2}]))
def test_normal_form_matches_naive_reducer(case):
    p, bound, elements = case
    rs = rewriting_system(p, bound)
    for el in elements:
        assert rs.normal_form(TensorElement(el)) == naive_normal_form(rs.rules, el), el


def test_rule_tails_have_integer_coefficients(K1):
    for p, bound in ((build_cp_presentation(skeleton_complex(6, 4)), 7),
                     (build_sphere_presentation(K1, (1, 2, 1, 2)), 9)):
        rules = rewriting_system(p, bound).rules
        coeffs = [c for tail in rules.values() for c in tail.values()]
        assert coeffs and all(type(c) is int for c in coeffs)


def test_leading_coefficient_two_gives_fraction_tail():
    # Its series, d + 1 in degree d, is the "quantum-plane-2" case of
    # test_graded_dimensions_hand_computed.
    p = presentation({"a": 1, "b": 1}, [{("a", "b"): 1, ("b", "a"): -2}])
    tail = rewriting_system(p, 8).rules[("b", "a")]
    assert tail == {("a", "b"): Fraction(1, 2)}
    assert type(tail[("a", "b")]) is Fraction


def brute_force_factor(rules, word):
    """(leftmost start of a forbidden factor of ``word``, length of the
    shortest forbidden word there), or None, by trying every rule at every
    position."""
    return next(((i, len(f)) for i in range(len(word))
                 for f in sorted(rules, key=len) if word[i : i + len(f)] == f), None)


@st.composite
def systems_and_words(draw):
    """(generators, relations, completion bound, words of length 0-8): a
    monomial system or a ``small_presentations`` system; either may have
    forbidden words that are single letters."""
    if draw(st.booleans()):
        degrees, relations, bound, _ = draw(monomial_systems())
        generators = list(degrees.items())
        relations = [TensorElement.term(w) for w in relations]
    else:
        p, bound = draw(small_presentations())
        generators = [(g.name, g.degree) for g in p.generators]
        relations = p.relations
    letters = [x for x, _ in generators]
    words = draw(st.lists(st.lists(st.sampled_from(letters), max_size=8).map(tuple),
                          min_size=1, max_size=20))
    return generators, relations, bound, words


@settings(max_examples=200, deadline=None)
@given(systems_and_words())
# The forbidden letter a and the forbidden pair b·b, in words that hold
# both, one or neither.
@example(([("a", 1), ("b", 1)], [TensorElement.term(("a",)), TensorElement.term(("b", "b"))],
          3, [("b", "a", "b", "b"), ("b", "b"), ("b",), ()]))
def test_find_factor_matches_brute_force(case):
    # Checked after every rule the completion adds, when the pair index
    # holds only the rules so far, and once the completion is done.
    generators, relations, bound, words = case

    class Checked(RewritingSystem):
        def _add_rule(self, element, pending):
            super()._add_rule(element, pending)
            for word in words:
                assert self._find_factor(word) == brute_force_factor(self.rules, word), word

    rs = Checked(generators, relations, bound)
    for word in words:
        assert rs._find_factor(word) == brute_force_factor(rs.rules, word), word


def rule_digest(rs):
    """SHA-256 of the rules as sorted (word, tail) pairs, each tail sorted
    and each coefficient written as str(Fraction(c))."""
    h = hashlib.sha256()
    for word in sorted(rs.rules):
        tail = sorted((w, str(Fraction(c))) for w, c in rs.rules[word].items())
        h.update(repr((word, tail)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name, bound, count, digest", [
    ("skel85", 10, 1716, "111c91401a6e673aa269f8f6b7f58dcada33adf0e87777c365ff05a835d63d00"),
    ("K3", 11, 23, "e17a3cf097cd9c7daaf30355c00342c5e4c06579abc11190985bf50706b669dc"),
])
def test_completed_rules_are_pinned(name, bound, count, digest, K3):
    # Recorded when every coefficient was a Fraction.  The forbidden words
    # are unique for the word order, so a changed word or tail is a changed
    # result, not a digest to record again.
    K = skeleton_complex(8, 5) if name == "skel85" else K3
    rs = rewriting_system(build_cp_presentation(K), bound)
    assert len(rs.rules) == count
    assert rule_digest(rs) == digest
