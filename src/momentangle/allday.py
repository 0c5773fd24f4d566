"""Differential graded tensor-algebra models of polyhedral products (S^{m+1})^K.

One generator per face I of K (the fat wedge is K = ∂Δ, the product K = Δ),
of degree (sum of (m_i + 1) over I) - 1; its differential is the signed sum
of graded commutators over type-II shuffles of I.  Homology is computed
degreewise by exact integer linear algebra; the differential preserves the
vertex-content multidegree of a word, which splits the computation into
small independent blocks.  Permuting vertices with equal m_i that K allows
carries blocks onto blocks of the same rank once the generators are given
signs; those signs are computed and checked against d for each
transposition, and only one block per orbit of the certified permutations
is eliminated.  No word is listed; the words of each degree are counted.
Within a block the maps are ranked in the cohomology direction, lowest
degree first, on the transpose of d, each row built from the row of the
word's tail (:class:`_Blocks`), and a row that a pivot of the map one
degree lower shows to be dependent is never built ("clearing", as in
persistent homology): the rows that are eliminated to zero are exactly
the block's homology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import factorial, inf

from .complexes import face_degree, sphere_grading
from .linalg import sparse_rank
from .series import SeriesError, TruncatedSeries, free_gc_series, geometric_series
from .tensor import DEFAULT_BUDGET_WORDS, TensorElement, word_counts


class ModelError(ValueError):
    """Invalid model parameters."""


def a_element(I, dims):
    """Signed sum of commutators attached to the index set I.

    -sum over type-II shuffles (J, J') of (-1)^(|b_J| + eps(J,J')) [b_J, b_J'],
    homogeneous of degree |b_I| - 1.  A type-II shuffle splits I into
    nonempty increasing blocks J, J' with J[0] = I[0]; the splits are taken
    in lexicographic order of J, and each writes its two terms b_J b_J' and
    b_J' b_J, 2 (2^(|I|-1) - 1) terms in all.  eps(J, J') is the Koszul
    sign of the reordering z_I -> z_J z_J' of the symbols z_i of degree
    m_i + 1: the parity of the odd symbols of J' moved past odd ones of J.
    This is the unique sign rule (up to a global sign) of this shape for
    which the differential squares to zero for every choice of sphere
    parameters; when all parameters are 1 the exponent |b_J| is odd for
    every shuffle and the rule reduces to a constant overall sign.
    """
    I = tuple(I)
    if len(I) < 2:
        raise ModelError(f"index set must have at least two vertices, got {I}")
    odd = {i for i in I if dims[i - 1] % 2 == 0}
    rest = I[1:]
    total = TensorElement()
    for J in sorted(I[:1] + tail for r in range(len(rest)) for tail in combinations(rest, r)):
        Jp = tuple(v for v in rest if v not in J)
        eps = sum(y < x for x in J if x in odd for y in Jp if y in odd)
        dJ, dJp = face_degree(J, dims), face_degree(Jp, dims)
        sign = 1 if (dJ + eps) % 2 else -1
        total[J, Jp] = sign
        total[Jp, J] = sign if dJ * dJp % 2 else -sign
    return total


@dataclass(frozen=True)
class DGAModel:
    """Tensor algebra on index-set generators with a derivation differential."""

    dims: tuple
    generators: tuple  # index tuples, sorted by (length, lex)
    differential: dict = field(compare=False)

    def __post_init__(self):
        # The degree of each generator and its parity, computed once.
        degree = {I: self.degree_of(I) for I in self.generators}
        object.__setattr__(self, "_degree", degree)
        object.__setattr__(self, "_odd", {I: d % 2 == 1 for I, d in degree.items()})

    def degree_of(self, I):
        return face_degree(I, self.dims)

    def below(self, max_degree):
        """The sub-model on the generators of degree <= ``max_degree``.

        d lowers degrees by one and every letter has degree >= 1, so the
        letters of d(b_I) have smaller degrees than b_I: the sub-model is
        closed under d, and it holds every word through ``max_degree``.
        """
        gens = tuple(I for I in self.generators if self.degree_of(I) <= max_degree)
        return DGAModel(self.dims, gens, {I: self.differential[I] for I in gens})

    def d_word(self, word):
        """Derivation extension: d(xy) = d(x)y + (-1)^|x| x d(y)."""
        total = TensorElement()
        odd = False
        for pos, letter in enumerate(word):
            terms = self.differential.get(letter)
            if terms:
                sign = -1 if odd else 1
                prefix = word[:pos]
                suffix = word[pos + 1 :]
                for dword, coeff in terms.items():
                    total.add_term(prefix + dword + suffix, sign * coeff)
            if self._odd[letter]:
                odd = not odd
        return total

    def d_element(self, element):
        total = TensorElement()
        for word, coeff in element.items():
            for w2, c2 in self.d_word(word).items():
                total.add_term(w2, coeff * c2)
        return total


def _validate_dims(dims):
    dims = sphere_grading(dims)
    if len(dims) < 2:
        raise ModelError(f"need at least two spheres, got dims={dims}")
    return dims


def _build_model(dims, faces):
    """Model of the polyhedral product (S^{m+1})^K: one generator per face of
    K, the faces given in (length, lex) order; d is a_element, 0 on vertices."""
    gens = tuple(faces)
    diff = {I: a_element(I, dims) if len(I) >= 2 else TensorElement() for I in gens}
    return DGAModel(dims=dims, generators=gens, differential=diff)


def _simplex_faces(dims, max_degree, top):
    """The faces of degree <= ``max_degree`` of the simplex on the vertices
    1..n, size by size in lex order, the top face only when ``top``.  A size
    whose lightest subset is above the bound ends the walk."""
    n, lightest = len(dims), sorted(dims)
    for k in range(1, n + 1 if top else n):
        if sum(lightest[:k]) + k - 1 > max_degree:
            return
        for I in combinations(range(1, n + 1), k):
            if face_degree(I, dims) <= max_degree:
                yield I


def build_fat_wedge_model(dims, max_degree=inf):
    """Model of the fat wedge: K is the boundary of the simplex."""
    dims = _validate_dims(dims)
    return _build_model(dims, _simplex_faces(dims, max_degree, top=False))


def build_product_model(dims, max_degree=inf):
    """Model of the product: K is the simplex, whose top face attaches the top cell."""
    dims = _validate_dims(dims)
    return _build_model(dims, _simplex_faces(dims, max_degree, top=True))


def generator_degree_counts(dims, top):
    """Generators per degree of the fat wedge, or of the product when ``top``.

    The subsets of the vertices with weights m_i + 1 are counted by weight
    by the product of the (1 + t^(m_i + 1)); a face's generator sits one
    degree below its weight, and only the top face has the top weight.
    """
    weights = [1]
    for m in dims:
        pad = [0] * (m + 1)
        weights = [a + b for a, b in zip(weights + pad, pad + weights)]
    counts = {w - 1: c for w, c in enumerate(weights) if w and c}
    if not top:
        del counts[len(weights) - 2]
    return counts


def check_d_squared(model, max_degree):
    """Verify d(d(w)) = 0 up to ``max_degree``.

    Since d extends as a derivation, d^2 vanishes on all words iff it
    vanishes on generators; two-letter words are checked as well to
    exercise the sign handling of the extension.  Returns (True, None) or
    (False, witness_word).
    """
    low = [(I, d) for I, d in model._degree.items() if d <= max_degree]
    pairs = [(I, J) for I, dI in low for J, dJ in low if dI + dJ <= max_degree]
    for word in [(I,) for I, _ in low] + pairs:
        dd = model.d_element(model.d_word(word))
        if not dd.is_zero():
            return False, min(dd, key=lambda w: (len(w), w))
    return True, None


def _relabeling_signs(model, p):
    """Signs that make a vertex relabeling an automorphism of the model.

    ``p`` maps each vertex to a vertex.  Returns {I: eps_I} with every
    eps_I = ±1 such that phi(b_I) = eps_I b_{p(I)} commutes with d, or None
    when there are none.  The generators are walked in (length, lex) order,
    so the letters of d(b_I) have their signs already; eps_I is forced by
    one term of d(b_{p(I)}) (+1 when that is zero, singletons among them),
    and then phi(d b_I) = eps_I d(b_{p(I)}) is checked term by term.  phi
    preserves degrees and is an algebra map, so agreeing with d on the
    generators means it commutes with d on every word.
    """
    relabel = lambda I: tuple(sorted(p[i] for i in I))
    generators = set(model.generators)
    eps = {}
    for I in model.generators:
        pI = relabel(I)
        if pI not in generators or model.degree_of(pI) != model.degree_of(I):
            return None
        image = TensorElement()
        for word, coeff in model.differential[I].items():
            if any(x not in eps for x in word):
                return None
            for x in word:
                coeff *= eps[x]
            image.add_term(tuple(map(relabel, word)), coeff)
        target = model.differential[pI]
        sign = 1
        if target:
            word, coeff = next(iter(target.items()))
            sign = -1 if image.get(word) == -coeff else 1
        if image != target.scale(sign):
            return None
        eps[I] = sign
    return eps


def _vertex_classes(model):
    """Vertex classes of the relabeling symmetries that the model certifies.

    A transposition (i j) with m_i = m_j joins the classes of i and j when
    :func:`_relabeling_signs` finds its signs.  Transpositions generate the
    symmetric group on each class, and automorphisms compose, so every
    permutation within the classes is an automorphism; a pair already in
    one class needs no check.  Classes of one vertex are left out.
    """
    n = len(model.dims)
    classes = [[v] for v in range(1, n + 1)]
    for i, j in combinations(range(1, n + 1), 2):
        ci = next(c for c in classes if i in c)
        cj = next(c for c in classes if j in c)
        if ci is cj or model.dims[i - 1] != model.dims[j - 1]:
            continue
        p = {v: v for v in range(1, n + 1)}
        p[i], p[j] = j, i
        if _relabeling_signs(model, p) is not None:
            ci.extend(cj)
            classes.remove(cj)
    return [sorted(c) for c in classes if len(c) > 1]


def _orbit_weight(content, classes):
    """Size of the orbit of a content if it represents it, else 0.

    ``content`` holds vertex v's multiplicity at index v - 1.  The
    representative is non-increasing within each class; its orbit has,
    per class, the multinomial count of distinct arrangements.
    """
    weight = 1
    for c in classes:
        digits = [content[v - 1] for v in c]
        if any(a < b for a, b in zip(digits, digits[1:])):
            return 0
        weight *= factorial(len(digits))
        for k in set(digits):
            weight //= factorial(digits.count(k))
    return weight


def _contents(dims, max_degree):
    """Every content c with sum of c_i * m_i at most ``max_degree``.

    That sum is the degree of the word of singleton letters of content c,
    the lowest degree of any word of that content.
    """
    partial = [((), 0)]
    for m in dims:
        partial = [
            (c + (k,), low + k * m)
            for c, low in partial
            for k in range((max_degree - low) // m + 1)
        ]
    return [c for c, _ in partial]


class _Blocks:
    """The word blocks W(c, L) of a model, and the rows of d's transpose on them.

    W(c, L) lists the words of L letters that hold vertex v ``c[v - 1]``
    times in lexicographic generator order: each generator I inside c, in
    order, followed by every word of W(c - I, L - 1).  ``self(c, L)`` is
    (size, segments), ``segments`` mapping each such I with words to
    (c - I, start, stop), where they sit; no word is listed.  The first
    letters I, with c - I, depend only on c and are listed once per
    content, for every L.  Row u of
    ``rows(c, L)`` holds the coefficient of u in d(w) for every w in
    W(c, L - 1), keyed by -(position of w).  Every term of d(b_K) must be a
    two-letter word (ModelError names b_K if not): then for u = I·J·v a
    term of d(w) splits the first letter, w = K·v with I·J a word of
    d(b_K), or lies in the tail: the row of J·v in W(c - I, L - 1), times
    (-1)^|I|, shifted to the words of W(c, L - 1) that begin with I.
    """

    def __init__(self, model):
        self.letters = [(I, [v - 1 for v in I]) for I in model.generators]
        self.memo = {((0,) * len(model.dims), 0): (1, {})}
        self.firsts = {}  # c: [(I, c - I)] for each letter I inside c
        self.odd = model._odd
        self.co_terms = {}  # I·J: [(K, coefficient of I·J in d(b_K))]
        for K, terms in model.differential.items():
            for word, coeff in terms.items():
                if len(word) != 2:
                    raise ModelError(f"d(b_{K}) has the term {word}, not a two-letter word")
                self.co_terms.setdefault(word, []).append((K, coeff))
        self.tails = {}  # (c, L): rows(c, L), while a block still to come reads it

    def __call__(self, content, length):
        memo = self.memo
        stack = [] if (content, length) in memo else [(content, length)]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            c, L = key
            # A letter holds at least one vertex, and each vertex at most once.
            if not max(c) <= L <= sum(c):
                memo[key] = (0, {})
                continue
            firsts = self.firsts.get(c)
            if firsts is None:
                firsts = self.firsts[c] = [
                    (I, tuple(k - (v in vs) for v, k in enumerate(c)))
                    for I, vs in self.letters if all(c[v] for v in vs)]
            missing = [(rest, L - 1) for _, rest in firsts if (rest, L - 1) not in memo]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            size, segments = 0, {}
            for I, rest in firsts:
                if memo[rest, L - 1][0]:
                    segments[I] = (rest, size, size + memo[rest, L - 1][0])
                    size = segments[I][2]
            memo[key] = (size, segments)
        return memo[content, length]

    def plan(self, ranked):
        """Turn i ranks the blocks ``ranked[i]``.  A tail is a block whose rows
        the rows of a ranked block, or of another tail, are built from.
        ``build[i]`` lists, shortest first, the tails that turn i is the first
        to read or to rank; ``drop[i]`` those that it is the last to read.
        A tail's own tails are read only when it is built, so each tail is
        walked once, when it is first met, and a ranked one at its turn."""
        ranked_at = {key: i for i, blocks in enumerate(ranked) for key in blocks}
        turns = {}  # tail: [first turn, last turn]
        for i, blocks in enumerate(ranked):
            todo = blocks[::-1]  # shortest first: the table revisits fewer blocks
            while todo:
                c, L = todo.pop()
                if self(c, L - 1)[0]:
                    for key in [(rest, L - 1) for rest, _, _ in self(c, L)[1].values()
                                if self(rest, L - 2)[0]]:  # else its rows are empty
                        if key not in turns and key not in ranked_at:
                            todo.append(key)
                        turns.setdefault(key, [ranked_at.get(key, i), i])[1] = i
        self.build, self.drop = [[] for _ in ranked], [[] for _ in ranked]
        for key in sorted(turns, key=lambda key: key[1]):
            self.build[turns[key][0]].append(key)
            self.drop[turns[key][1]].append(key)

    def rows(self, content, length, cleared=()):
        """The rows, in a list, of W(content, length) whose -position is not in ``cleared``."""
        if (content, length) in self.tails:
            return [row for p, row in enumerate(self.tails[content, length]) if -p not in cleared]
        cols, out = self(content, length - 1)[1], []
        for I, (rest, start, stop) in self(content, length)[1].items():
            # No word I·w in W(c, L - 1) means no word in the tail's columns.
            tail = self.tails[rest, length - 1] if I in cols else [{}] * (stop - start)
            shift = cols[I][1] if I in cols else 0
            sign = -1 if self.odd[I] else 1
            for J, (_, s, t) in self(rest, length - 1)[1].items():
                splits = [(cols[K][1] - s, coeff) for K, coeff in self.co_terms.get((I, J), ())]
                for q in range(s, t):
                    if -(start + q) not in cleared:
                        row = {col - shift: sign * v for col, v in tail[q].items()}
                        for base, coeff in splits:
                            row[-(base + q)] = coeff
                        out.append(row)
        return out


def homology_series(model, max_degree, budget_words=DEFAULT_BUDGET_WORDS):
    """Graded dimensions of the model's homology through ``max_degree``.

    Per degree d: (number of words of degree d) minus the ranks of the
    incoming and outgoing differentials.  The differential preserves the
    vertex content of a word (how often each vertex occurs among its
    letters) and lowers the degree by one, so each degree splits into
    blocks by content, and each block maps into the block of the same
    content one degree lower; ranks are computed blockwise by exact
    integer elimination.  A word of content c with L letters has degree
    sum of c_i (m_i + 1), minus L, so d maps the block of L letters to
    the block of L + 1 letters.

    Only the generators of degree <= ``max_degree + 1`` are read (the
    d^2 certificate and the symmetry search included): words through that
    degree hold no other letter, and those generators span a sub-model
    closed under d.  The words of each degree are counted by a recurrence
    on the generator degrees, never listed; :class:`BudgetError` is raised
    when they number more than ``budget_words`` through degree
    ``max_degree + 1``, the empty word included.

    Ranks are taken once per symmetry orbit of contents.  A vertex
    permutation within the classes of :func:`_vertex_classes` is, with
    the signs :func:`_relabeling_signs` certifies, an automorphism of the
    model; it carries each block onto the block of the permuted content
    by a signed permutation of rows and columns, so both have one rank.
    Only the representative content of each orbit is eliminated, and its
    rank counts once per orbit member.  With no certified symmetry every
    block is its own orbit.  Rows are built only for those blocks and the
    shorter blocks their rows are built from (:class:`_Blocks`).

    Each block's maps are ranked in increasing degree, that is from the
    longest words down, on the transposed matrix: the rows of the map
    from L to L + 1 letters are the coboundaries of the words of L + 1
    letters, its columns the words of L letters.  A word that was a pivot
    column of the map before it (from L + 1 to L + 2 letters) is skipped:
    its row is never built.  d^2 = 0 makes every row
    of that earlier transpose a dependency among this map's rows, and
    its rows restricted to its pivot columns have full rank, so over Q
    each skipped row is a combination of the rows that are kept: the rank
    is unchanged.  The kept rows number the words of L + 1 letters minus
    the rank of the map before, so the rows eliminated to zero number
    exactly the block's homology in that degree.
    """
    top = max_degree + 1
    model = model.below(top)
    blocks = _Blocks(model)
    ok, witness = check_d_squared(model, top)
    if not ok:
        raise ModelError(f"differential does not square to zero, witness {witness}")
    counts = word_counts([model.degree_of(I) for I in model.generators], top, budget_words)
    classes = _vertex_classes(model)
    ranked = []  # (content, orbit weight, sum of c_i (m_i + 1), lengths L + 1)
    for content in _contents(model.dims, top):
        if weight := _orbit_weight(content, classes):
            size = sum(c * (m + 1) for c, m in zip(content, model.dims))
            ranked.append((content, weight, size, range(sum(content), max(1, size - top), -1)))
    blocks.plan([[(content, L) for L in lengths] for content, _, _, lengths in ranked])
    ranks = [0] * (top + 1)  # ranks[d]: rank of d on degree d
    for i, (content, weight, size, lengths) in enumerate(ranked):
        for key in blocks.build[i]:
            blocks.tails[key] = blocks.rows(*key)
        cleared = set()  # pivot columns of the map one degree lower
        for length in lengths:
            pivots = set()
            if blocks(content, length)[0] and blocks(content, length - 1)[0]:
                # The kernel pivots on the smallest column; numbering the
                # columns backwards makes that the last word in enumeration
                # order, which keeps elimination chains short on these
                # lexicographic lists.
                rows = blocks.rows(content, length, cleared)
                ranks[size - length + 1] += weight * sparse_rank(rows, pivots)
            cleared = pivots
        for key in blocks.drop[i]:
            del blocks.tails[key]
    out = [counts[d] - ranks[d] - ranks[d + 1] for d in range(max_degree + 1)]
    return TruncatedSeries(cutoff=max_degree, coeffs=tuple(out))


def bubenik_series(dims, exterior, max_degree):
    """Closed-form loop-homology series of the fat wedge for n >= 3 spheres.

    The abelian factor on the coordinate generators (``exterior`` on the
    odd ones, or polynomial on all) times the tensor-algebra series on the
    bracket set {[[u, b_{j_1}], ..., b_{j_l}]}, where u sits one degree
    below the top face's generator and the j's range over multisets.
    """
    dims = _validate_dims(dims)
    if len(dims) < 3:
        raise ModelError(
            f"closed form requires at least 3 spheres, got {len(dims)}; "
            "for n = 2 the loop homology is the free tensor algebra"
        )
    u = face_degree(range(1, len(dims) + 1), dims) - 1
    g = TruncatedSeries.monomial(u, max_degree)
    for m in dims:
        g = g * geometric_series(TruncatedSeries.monomial(m, max_degree))
    if g.coeffs[0] != 0:
        raise SeriesError("bracket series has nonzero constant term")
    abelian = free_gc_series(dims, exterior, max_degree)
    return abelian * geometric_series(g)
