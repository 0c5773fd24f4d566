from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentangle.series import (
    FactorizationError,
    SeriesError,
    TruncatedSeries,
    free_gc_series,
    geometric_series,
    series_div_exact,
)


def S(coeffs, cutoff=None):
    return TruncatedSeries.from_coeffs(coeffs, cutoff)


def test_arithmetic_basics():
    a = S([1, 2, 3])
    b = S([0, 1, 0])
    assert (a + b).coeffs == (1, 3, 3)
    assert (a - b).coeffs == (1, 1, 3)
    assert (a * b).coeffs == (0, 1, 2)
    assert a.truncate(1).coeffs == (1, 2)
    assert TruncatedSeries.monomial(2, 4).coeffs == (0, 0, 1, 0, 0)


def test_mul_aligns_to_min_cutoff():
    a = S([1, 1, 1, 1])
    b = S([1, 1])
    assert (a * b).cutoff == 1


def test_geometric_series():
    g = TruncatedSeries.monomial(1, 5)
    assert geometric_series(g).coeffs == (1, 1, 1, 1, 1, 1)
    with pytest.raises(SeriesError):
        geometric_series(S([1, 0, 0]))


def test_series_div_exact_roundtrip():
    a = S([1, 3, 2, 4, 7])
    b = S([1, 1, 0, 5, 2])
    assert series_div_exact(a * b, b) == a


def test_series_div_exact_rejects_fractions():
    with pytest.raises(FactorizationError) as err:
        series_div_exact(S([1, 1]), S([2, 0]))
    assert err.value.degree == 0


def fraction_quotient(a, b):
    """Coefficients of a / b computed over the rationals."""
    out = []
    for d in range(len(a)):
        acc = Fraction(a[d]) - sum(b[i] * out[d - i] for i in range(1, d + 1))
        out.append(acc / b[0])
    return out


@st.composite
def division_cases(draw):
    """(numerator, denominator); half the numerators are exact multiples."""
    cutoff = draw(st.integers(min_value=0, max_value=8))
    coeff = st.integers(min_value=-5, max_value=5)
    series = st.lists(coeff, min_size=cutoff + 1, max_size=cutoff + 1)
    b = draw(series)
    b[0] = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    b = S(b)
    if draw(st.booleans()):
        return S(draw(series)) * b, b
    return S(draw(series)), b


@settings(max_examples=200, deadline=None)
@given(division_cases())
def test_series_div_exact_matches_fraction_division(case):
    a, b = case
    ref = fraction_quotient(a.coeffs, b.coeffs)
    bad = next((d for d, q in enumerate(ref) if q.denominator != 1), None)
    if bad is None:
        assert series_div_exact(a, b).coeffs == tuple(ref)
    else:
        with pytest.raises(FactorizationError) as err:
            series_div_exact(a, b)
        assert err.value.degree == bad
        assert str(err.value) == f"degree {bad}: non-integer quotient coefficient {ref[bad]}"


def test_free_gc_series_conventions():
    ext = free_gc_series([1, 1, 1], True, 4)
    assert ext.coeffs == (1, 3, 3, 1, 0)
    poly = free_gc_series([1, 1, 1], False, 4)
    assert poly.coeffs == (1, 3, 6, 10, 15)
    even = free_gc_series([2], True, 6)
    assert even.coeffs == (1, 0, 1, 0, 1, 0, 1)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=9))
def test_geometric_inverse_property(tail):
    g = S([0] + tail)
    one = TruncatedSeries.one(g.cutoff)
    assert geometric_series(g) * (one - g) == one


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=8),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=8),
)
def test_div_is_inverse_of_mul(a_tail, b_tail):
    a = S([1] + a_tail)
    b = S([1] + b_tail)
    assert series_div_exact(a * b, b) == a.truncate(min(a.cutoff, b.cutoff))
