"""Linear combinations of words in graded generators (free tensor algebra).

A word is a tuple of letters; what a letter is (an index set, a generator
id) is the caller's business, together with a degree map.  Coefficients are
exact (int or Fraction).  ``words_by_degree`` lists every word of a graded
alphabet under a word budget; the Allday homology enumerates through it.
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
    def zero(cls):
        return cls()

    @classmethod
    def term(cls, word, coeff=1):
        el = cls()
        if coeff:
            el[tuple(word)] = coeff
        return el

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
        return {sum(degree_of(x) for x in w) for w in self}

    def sorted_terms(self):
        return sorted(self.items(), key=lambda kv: (len(kv[0]), kv[0]))


def commutator(x, y, degree_of):
    """Graded commutator [x, y] = xy - (-1)^{|x||y|} yx for homogeneous x, y."""
    dx = _homogeneous_degree(x, degree_of)
    dy = _homogeneous_degree(y, degree_of)
    sign = -1 if (dx * dy) % 2 == 0 else 1
    return x * y + (y * x).scale(sign)


def _homogeneous_degree(el, degree_of):
    degs = el.degrees(degree_of)
    if len(degs) != 1:
        raise ValueError(f"element not homogeneous: degrees {sorted(degs)}")
    return next(iter(degs))


def words_by_degree(letters, max_degree, budget_words):
    """Every word in ``letters``, listed by degree through ``max_degree``.

    ``letters`` is a sequence of (letter, degree) pairs with degrees >= 1,
    and ``max_degree`` >= 0.  Entry d of the returned list holds the words
    of degree d: (x,) + w for each letter x in the given order and each
    word w of degree d − |x|, so each degree is in lexicographic order.
    The words are counted first: :class:`BudgetError` is raised, before
    any word is built, when the number of words through ``max_degree``,
    the empty word included, exceeds ``budget_words``.
    """
    counts = [1]
    total = 0
    for d in range(max_degree + 1):
        if d:
            counts.append(sum(counts[d - dx] for _, dx in letters if dx <= d))
        total += counts[d]
        if total > budget_words:
            raise BudgetError(d, f"word budget {budget_words} exhausted")
    layers = [[()]]
    for d in range(1, max_degree + 1):
        layers.append([(x,) + w for x, dx in letters if dx <= d for w in layers[d - dx]])
    return layers
