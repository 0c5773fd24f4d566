"""Degree-truncated completion of noncommutative rewriting systems.

Relations are homogeneous elements of a free associative algebra on graded
generators.  Words are ordered by total degree, then lexicographically by
generator rank (later generators are larger).  The leading word of each
relation becomes a forbidden factor with a rewrite to lower terms; overlap
and inclusion ambiguities between forbidden words are resolved up to a
degree bound, which is sound for counting purposes because homogeneity
confines every consequence above the bound to degrees above the bound.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .tensor import TensorElement


class RewritingError(ValueError):
    """Invalid rewriting-system input."""


class BudgetError(RuntimeError):
    """Word-count budget exhausted; carries the degree reached."""

    def __init__(self, degree, message):
        self.degree = degree
        super().__init__(f"degree {degree}: {message}")


class RewritingSystem:
    """Rewriting system for a homogeneous two-sided ideal, confluent up to
    ``max_degree``.

    ``generators`` is an ordered iterable of (name, degree) pairs; the
    listing order fixes the ranks used by the word order.  ``relations``
    are :class:`TensorElement` instances over words in the generator
    names.
    """

    def __init__(self, generators, relations, max_degree, budget_words=2_000_000):
        self.degree = {}
        self.rank = {}
        for i, (name, deg) in enumerate(generators):
            if name in self.degree:
                raise RewritingError(f"duplicate generator {name!r}")
            if deg < 1:
                raise RewritingError(f"generator {name!r} has degree {deg} < 1")
            self.degree[name] = deg
            self.rank[name] = i
        self.max_degree = max_degree
        self.budget_words = budget_words
        self.rules = {}  # forbidden word -> equivalent lower element
        self._lengths = ()
        queue = deque()
        for rel in relations:
            el = TensorElement()
            for word, coeff in rel.items():
                for x in word:
                    if x not in self.degree:
                        raise RewritingError(f"relation uses unknown generator {x!r}")
                el.add_term(word, Fraction(coeff))
            degrees = el.degrees(self.degree.__getitem__)
            if len(degrees) > 1:
                raise RewritingError(f"relation not homogeneous: degrees {sorted(degrees)}")
            queue.append(el)
        while queue:
            self._add_rule(queue.popleft(), queue)

    def word_degree(self, word):
        return sum(self.degree[x] for x in word)

    def _key(self, word):
        return (self.word_degree(word), tuple(self.rank[x] for x in word))

    def _find_factor(self, word):
        """Leftmost position and length of a forbidden factor, or None."""
        for i in range(len(word)):
            for length in self._lengths:
                if i + length > len(word):
                    break
                if word[i : i + length] in self.rules:
                    return i, length
        return None

    def normal_form(self, element):
        """Fully reduced representative of ``element``'s residue class."""
        result = TensorElement()
        stack = [(w, Fraction(c)) for w, c in element.items()]
        while stack:
            word, coeff = stack.pop()
            hit = self._find_factor(word)
            if hit is None:
                result.add_term(word, coeff)
                continue
            i, length = hit
            tail = self.rules[word[i : i + length]]
            for tw, tc in tail.items():
                stack.append((word[:i] + tw + word[i + length :], coeff * tc))
        return result

    def _add_rule(self, element, queue):
        nf = self.normal_form(element)
        if nf.is_zero():
            return
        lead = max(nf, key=self._key)
        if self.word_degree(lead) > self.max_degree:
            return
        c = nf[lead]
        tail = TensorElement({w: -v / c for w, v in nf.items() if w != lead})
        # Inclusion ambiguities: retire any rule whose forbidden word
        # contains the new one, and requeue its content.
        doomed = [
            L
            for L in self.rules
            if len(L) > len(lead)
            and any(L[i : i + len(lead)] == lead for i in range(len(L) - len(lead) + 1))
        ]
        for L in doomed:
            old = self.rules.pop(L)
            queue.append(TensorElement.term(L) - old)
        self.rules[lead] = tail
        self._lengths = tuple(sorted({len(L) for L in self.rules}))
        # Overlap ambiguities with every current rule (including itself).
        for other in list(self.rules):
            for u, v in ((lead, other), (other, lead)):
                if u not in self.rules or v not in self.rules:
                    continue
                for k in range(1, min(len(u), len(v))):
                    if u[-k:] != v[:k]:
                        continue
                    if self.word_degree(u) + self.word_degree(v[k:]) > self.max_degree:
                        continue
                    s = self.rules[u] * TensorElement.term(v[k:]) - TensorElement.term(
                        u[:-k]
                    ) * self.rules[v]
                    if not s.is_zero():
                        queue.append(s)

    def series(self, max_degree=None):
        """Counts of normal words per degree, as a list indexed by degree.

        A word is normal when it contains no forbidden factor; normal words
        form a basis of the quotient in degrees ≤ the completion bound.

        The count runs degree by degree over suffix states: the state of a
        normal word is its longest suffix that is a proper prefix of a
        forbidden word, and appending a letter is forbidden exactly when a
        suffix of state + letter is a forbidden word.  Transitions are found
        on first use.
        """
        cap = self.max_degree if max_degree is None else max_degree
        if cap > self.max_degree:
            raise RewritingError(
                f"series degree {cap} exceeds completion bound {self.max_degree}"
            )
        rules = self.rules
        lengths = self._lengths
        prefixes = {L[:k] for L in rules for k in range(len(L))}
        prefixes.add(())  # the empty word is a state even without rules
        letters = sorted(self.degree.items(), key=lambda item: item[1])
        budget = self.budget_words

        def step(state, x):
            """State after appending ``x``, or None if that is forbidden."""
            word = state + (x,)
            if any(len(word) >= L and word[-L:] in rules for L in lengths):
                return None
            for i in range(len(word) + 1):
                if word[i:] in prefixes:
                    return word[i:]

        moves = {}  # state -> {letter: next state or None}
        layers = [{} for _ in range(cap + 1)]  # degree -> {state: word count}
        layers[0][()] = 1
        counts = [0] * (cap + 1)
        total = 0
        for deg in range(cap + 1):
            layer, layers[deg] = layers[deg], None
            counts[deg] = sum(layer.values())
            total += counts[deg]
            if total > budget:
                raise BudgetError(deg, f"normal-word budget {budget} exhausted")
            for state, n in layer.items():
                row = moves.get(state)
                if row is None:
                    row = moves[state] = {}
                for x, dx in letters:
                    nd = deg + dx
                    if nd > cap:
                        break
                    if x in row:
                        nxt = row[x]
                    else:
                        nxt = row[x] = step(state, x)
                    if nxt is not None:
                        target = layers[nd]
                        target[nxt] = target.get(nxt, 0) + n
        return counts
