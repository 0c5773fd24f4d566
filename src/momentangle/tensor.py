"""Linear combinations of words in graded generators (free tensor algebra).

A word is a tuple of letters; what a letter is (an index set, a generator
id) is the caller's business, together with a degree map.  Coefficients are
exact: int, or Fraction where a caller divides (the rewriting completion
does so only by a leading coefficient other than ±1).  ``word_counts``
counts the words of a graded alphabet degree by degree under a word budget;
the Allday homology lists no word and builds only the rows it ranks, but
its budget counts there every word through one degree above its bound.
"""

from __future__ import annotations

# The word budget of every enumeration unless the caller sets one.
DEFAULT_BUDGET_WORDS = 2_000_000


class BudgetError(RuntimeError):
    """Word-count budget exhausted; carries the degree reached."""

    def __init__(self, degree, message):
        self.degree = degree
        super().__init__(f"degree {degree}: {message}")


class TensorElement(dict):
    """Mapping word -> coefficient; zero coefficients are never stored."""

    @classmethod
    def term(cls, word):
        return cls({tuple(word): 1})

    def add_term(self, word, coeff):
        if not coeff:
            return
        new = self.get(word, 0) + coeff
        if new:
            self[word] = new
        else:
            self.pop(word, None)

    def __add__(self, other):
        out = TensorElement(self)
        for word, coeff in other.items():
            out.add_term(word, coeff)
        return out

    def __sub__(self, other):
        out = TensorElement(self)
        for word, coeff in other.items():
            out.add_term(word, -coeff)
        return out

    def scale(self, scalar):
        if not scalar:
            return TensorElement()
        return TensorElement({w: c * scalar for w, c in self.items()})

    def __mul__(self, other):
        out = TensorElement()
        for w1, c1 in self.items():
            for w2, c2 in other.items():
                out.add_term(w1 + w2, c1 * c2)
        return out

    def is_zero(self):
        return not self

    def degrees(self, degree_of):
        return {sum(map(degree_of, w)) for w in self}

    def sorted_terms(self):
        return sorted(self.items(), key=lambda kv: (len(kv[0]), kv[0]))


def commutator(x, y, degree_of):
    """Graded commutator [x, y] = xy - (-1)^{|x||y|} yx for homogeneous x, y,
    built in one element: the terms of xy, then those of yx."""
    dx = _homogeneous_degree(x, degree_of)
    dy = _homogeneous_degree(y, degree_of)
    sign = -1 if (dx * dy) % 2 == 0 else 1
    out = x * y
    add = out.add_term
    for w2, c2 in y.items():
        for w1, c1 in x.items():
            add(w2 + w1, sign * c2 * c1)
    return out


def _homogeneous_degree(el, degree_of):
    degs = el.degrees(degree_of)
    if len(degs) != 1:
        raise ValueError(f"element not homogeneous: degrees {sorted(degs)}")
    return next(iter(degs))


def word_counts(degrees, max_degree, budget_words):
    """Number of words of each degree through ``max_degree``.

    ``degrees`` holds the degree, >= 1, of each letter, and ``max_degree``
    >= 0.  Entry d of the returned list counts the words of degree d, by
    the recurrence (words of degree d) = sum over letters x of (words of
    degree d - |x|).  :class:`BudgetError` names the first degree through
    which the words, the empty word included, number more than
    ``budget_words``.
    """
    counts = [1]
    total = 0
    for d in range(max_degree + 1):
        if d:
            counts.append(sum(counts[d - dx] for dx in degrees if dx <= d))
        total += counts[d]
        if total > budget_words:
            raise BudgetError(d, f"word budget {budget_words} exhausted")
    return counts
