import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle.tensor import BudgetError, word_counts


def brute_force_counts(degrees, max_degree):
    """Per degree, the number of words of that degree over letters of ``degrees``."""
    counts = [0] * (max_degree + 1)
    for length in range(max_degree + 1):
        for word in itertools.product(degrees, repeat=length):
            if sum(word) <= max_degree:
                counts[sum(word)] += 1
    return counts


@st.composite
def alphabets(draw):
    """(letter degrees, degree cap)."""
    degrees = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3))
    return degrees, draw(st.integers(min_value=0, max_value=7))


@settings(max_examples=150, deadline=None)
@given(alphabets(), st.integers(min_value=0, max_value=400))
def test_word_counts_match_brute_force(alphabet, budget):
    degrees, cap = alphabet
    expected = brute_force_counts(degrees, cap)
    totals = list(itertools.accumulate(expected))
    if totals[-1] > budget:
        with pytest.raises(BudgetError) as info:
            word_counts(degrees, cap, budget)
        assert info.value.degree == next(d for d, t in enumerate(totals) if t > budget)
    else:
        assert word_counts(degrees, cap, budget) == expected


def test_word_counts_budget_error_names_the_degree():
    # two letters of degree 1: 1 + 2 + 4 + 8 = 15 words through degree 3
    assert word_counts([1, 1], 3, 15) == [1, 2, 4, 8]
    with pytest.raises(BudgetError) as info:
        word_counts([1, 1], 6, 15)
    assert info.value.degree == 4
    assert str(info.value) == "degree 4: word budget 15 exhausted"
