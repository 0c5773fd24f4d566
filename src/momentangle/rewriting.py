"""Degree-truncated completion of noncommutative rewriting systems.

Relations are homogeneous elements of a free associative algebra on graded
generators.  Words are ordered by total degree, then lexicographically by
generator rank (later generators are larger).  The leading word of each
relation becomes a forbidden factor with a rewrite to lower terms.

Completion is Bergman's diamond lemma under Buchberger's normal selection
strategy: pending work is processed degree by degree.  Every overlap of two
forbidden words has a degree above both, so when an element of degree d is
reduced, every rule of degree below d is already present, its leading word
is normal, and, having the largest degree so far, that word cannot be a
proper factor of an earlier forbidden word.  Inclusion ambiguities therefore
never arise, and the forbidden words are the unique minimal set for the word
order.  Overlap ambiguities are resolved up to a degree bound, which is
sound for counting purposes because homogeneity confines every consequence
above the bound to degrees above the bound.

Coefficients stay integers wherever they can.  A rule's tail is the rest of
its normal form divided exactly by −(leading coefficient); only a quotient
that is not an integer becomes a ``Fraction``.  Every relation of the cp and
sphere presentations has coefficients ±1, so their rules stay integral.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count

from .tensor import DEFAULT_BUDGET_WORDS, BudgetError, TensorElement


class RewritingError(ValueError):
    """Invalid rewriting-system input."""


class RewritingSystem:
    """Rewriting system for a homogeneous two-sided ideal, confluent up to
    ``max_degree``.

    ``generators`` is an ordered iterable of (name, degree) pairs; the
    listing order fixes the ranks used by the word order.  ``relations``
    are :class:`TensorElement` instances over words in the generator
    names.

    Completion keeps one bucket of pending work per degree up to
    ``max_degree``: the input relations, and the overlaps ``(u, v, k)``
    (the last ``k`` letters of forbidden word ``u`` are the first ``k`` of
    ``v``) whose S-polynomials are built only when their degree comes up.
    Overlaps of a new forbidden word are looked up in indexes of the proper
    prefixes and proper suffixes of the earlier ones.  The factor search of
    :meth:`normal_form` starts only where the pair of letters there begins a
    forbidden word, and the prefix index stops it.
    """

    def __init__(self, generators, relations, max_degree, budget_words=DEFAULT_BUDGET_WORDS):
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
        self._by_prefix = {}  # proper prefix -> forbidden words starting with it
        self._by_suffix = {}  # proper suffix -> forbidden words ending with it
        self._pairs = set()  # first two letters of each longer forbidden word
        self._letters = set()  # letters that are forbidden words
        pending = [[] for _ in range(max_degree + 1)]  # degree -> work items
        for rel in relations:
            el = TensorElement()
            for word, coeff in rel.items():
                for x in word:
                    if x not in self.degree:
                        raise RewritingError(f"relation uses unknown generator {x!r}")
                el.add_term(word, coeff)
            degrees = el.degrees(self.degree.__getitem__)
            if len(degrees) > 1:
                raise RewritingError(f"relation not homogeneous: degrees {sorted(degrees)}")
            if degrees and (deg := degrees.pop()) <= max_degree:
                pending[deg].append(el)
        for deg, bucket in enumerate(pending):
            # New rules only queue overlaps of higher degree, so this bucket
            # is complete here.
            for item in bucket:
                if isinstance(item, tuple):
                    item = self._s_polynomial(*item)
                self._add_rule(item, pending)
            pending[deg] = None

    def word_degree(self, word):
        return sum(self.degree[x] for x in word)

    def _key(self, word):
        # Only words of one degree are compared, and none of them is a
        # proper prefix of another, so the rank tuples order them as the
        # word order does.
        return tuple(self.rank[x] for x in word)

    def _find_factor(self, word):
        """Leftmost position and length of a forbidden factor, or None.

        A forbidden word of two or more letters starts at a position whose
        pair of letters is in ``_pairs``, so only those positions are tried,
        from length 2 on; a scan that runs in C finds them.  A forbidden
        letter in the word makes every position a start, from length 1 on.
        At each start the lengths grow until the slice is a forbidden word,
        or is neither one nor a proper prefix of one, after which no longer
        slice can be forbidden.
        """
        rules = self.rules
        prefixes = self._by_prefix
        n = len(word)
        if self._letters.isdisjoint(word):
            begins = map(self._pairs.__contains__, zip(word, word[1:]))
            starts, shortest = compress(count(), begins), 2
        else:
            starts, shortest = range(n), 1
        for i in starts:
            for j in range(i + shortest, n + 1):
                factor = word[i:j]
                if factor in rules:
                    return i, j - i
                if factor not in prefixes:
                    break
        return None

    def normal_form(self, element):
        """Fully reduced representative of ``element``'s residue class;
        each word is rewritten at its leftmost forbidden factor."""
        rules, find = self.rules, self._find_factor
        result = TensorElement()
        stack = list(element.items())
        push = stack.append
        while stack:
            word, coeff = stack.pop()
            hit = find(word)
            if hit is None:
                result.add_term(word, coeff)
                continue
            i, length = hit
            head, rest = word[:i], word[i + length :]
            for tw, tc in rules[word[i : i + length]].items():
                push((head + tw + rest, coeff * tc))
        return result

    def _s_polynomial(self, u, v, k):
        """rules[u]·v[k:] − u[:−k]·rules[v] for the overlap u[-k:] = v[:k]."""
        right, left = v[k:], u[:-k]
        el = TensorElement({w + right: c for w, c in self.rules[u].items()})
        for w, c in self.rules[v].items():
            el.add_term(left + w, -c)
        return el

    def _add_rule(self, element, pending):
        """Reduce ``element``; if it survives, make its leading word a rule
        and queue that word's overlaps within the degree bound."""
        nf = self.normal_form(element)
        if nf.is_zero():
            return
        lead = max(nf, key=self._key)
        c = nf.pop(lead)
        self.rules[lead] = TensorElement(
            {w: -v // c if v % c == 0 else Fraction(-v, c) for w, v in nf.items()}
        )
        if len(lead) == 1:
            self._letters.add(lead[0])
        else:
            self._pairs.add(lead[:2])
        top = self.max_degree
        degree = self.word_degree(lead)
        for k in range(1, len(lead)):
            # lead's prefix of length k is indexed before the lookups and its
            # suffix of length k after them, so each self-overlap is found
            # once, as lead·v[k:] with v = lead.  An overlap's degree is
            # lead's plus that of the other word's unshared letters.
            self._by_prefix.setdefault(lead[:k], []).append(lead)
            overlaps = [(lead, v, v[k:]) for v in self._by_prefix.get(lead[-k:], ())]
            overlaps += [(u, lead, u[:-k]) for u in self._by_suffix.get(lead[:k], ())]
            self._by_suffix.setdefault(lead[-k:], []).append(lead)
            for u, v, rest in overlaps:
                deg = degree + self.word_degree(rest)
                if deg <= top:
                    pending[deg].append((u, v, k))

    def series(self):
        """Counts of normal words per degree through the completion bound,
        as a list indexed by degree.

        A word is normal when it contains no forbidden factor; normal words
        form a basis of the quotient in degrees ≤ the completion bound.

        The count runs degree by degree over suffix states: the state of a
        normal word is its longest suffix that is a proper prefix of a
        forbidden word, and appending a letter is forbidden exactly when a
        suffix of state + letter is a forbidden word.  No forbidden word is
        a proper factor of another, so no suffix of a proper prefix is
        forbidden: the suffixes are tried longest first, and the first one
        that is forbidden or a proper prefix decides.  Transitions are found
        on first use.
        """
        cap = self.max_degree
        rules = self.rules
        # the empty word is a state even without rules
        prefixes = self._by_prefix.keys() | {()}
        letters = sorted(self.degree.items(), key=lambda item: item[1])
        budget = self.budget_words

        def step(state, x):
            """State after appending ``x``, or None if that is forbidden."""
            word = state + (x,)
            for i in range(len(word) + 1):
                suffix = word[i:]
                if suffix in rules:
                    return None
                if suffix in prefixes:
                    return suffix

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
