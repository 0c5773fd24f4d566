"""Linear combinations of words in graded generators (free tensor algebra).

A word is a tuple of letters; what a letter is (an index set, a generator
id) is the caller's business, together with a degree map.  Coefficients are
exact (int or Fraction).
"""

from __future__ import annotations


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

    def __neg__(self):
        return TensorElement({w: -c for w, c in self.items()})

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

    def is_homogeneous(self, degree_of):
        return len(self.degrees(degree_of)) <= 1

    def sorted_terms(self):
        return sorted(self.items(), key=lambda kv: (len(kv[0]), kv[0]))


def word_degree(word, degree_of):
    return sum(degree_of(x) for x in word)


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
