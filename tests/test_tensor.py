import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle.tensor import BudgetError, words_by_degree


def brute_force_words(letters, max_degree):
    """Per degree, the sorted words of that degree over ``letters``."""
    degree = dict(letters)
    rank = {x: i for i, (x, _) in enumerate(letters)}
    layers = [[] for _ in range(max_degree + 1)]
    for length in range(max_degree + 1):
        for word in itertools.product(degree, repeat=length):
            d = sum(degree[x] for x in word)
            if d <= max_degree:
                layers[d].append(word)
    return [sorted(layer, key=lambda w: [rank[x] for x in w]) for layer in layers]


@st.composite
def alphabets(draw):
    """(letters as (name, degree) pairs in generator order, degree cap)."""
    names = draw(st.permutations("abc"))[: draw(st.integers(min_value=1, max_value=3))]
    letters = [(x, draw(st.integers(min_value=1, max_value=3))) for x in names]
    return letters, draw(st.integers(min_value=0, max_value=7))


@settings(max_examples=150, deadline=None)
@given(alphabets(), st.integers(min_value=0, max_value=400))
def test_words_by_degree_matches_brute_force(alphabet, budget):
    letters, cap = alphabet
    expected = brute_force_words(letters, cap)
    total = sum(map(len, expected))
    if total > budget:
        with pytest.raises(BudgetError):
            words_by_degree(letters, cap, budget)
    else:
        assert words_by_degree(letters, cap, budget) == expected


def test_words_by_degree_budget_error_names_the_degree():
    # two letters of degree 1: 1 + 2 + 4 + 8 = 15 words through degree 3
    letters = [("a", 1), ("b", 1)]
    assert len(words_by_degree(letters, 3, 15)[3]) == 8
    with pytest.raises(BudgetError) as info:
        words_by_degree(letters, 6, 15)
    assert info.value.degree == 4
