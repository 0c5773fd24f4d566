import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    """(letter degrees, relation words, completion bound, series degree)."""
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
    rs = RewritingSystem(
        degrees.items(), [TensorElement.term(w) for w in relations], bound
    )
    assert rs.series(cap) == brute_force_counts(degrees, relations, cap)
    assert rs.series() == brute_force_counts(degrees, relations, bound)


@settings(max_examples=150, deadline=None)
@given(monomial_systems(), st.integers(min_value=0, max_value=60))
def test_series_budget_raises_iff_total_exceeds_it(system, budget):
    degrees, relations, bound, cap = system
    total = sum(brute_force_counts(degrees, relations, cap))
    rs = RewritingSystem(
        degrees.items(), [TensorElement.term(w) for w in relations], bound, budget
    )
    if total > budget:
        with pytest.raises(BudgetError):
            rs.series(cap)
    else:
        assert sum(rs.series(cap)) == total


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
