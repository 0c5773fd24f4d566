"""Presented graded algebras attached to a simplicial complex.

One builder makes the presentation from the missing-face data of a
complex, in two cases: the sphere-case (coordinate generator i in degree
m_i) and the cp-case, which is the all-ones grading.  The target alone
fixes the abelian part: the loop homology of CP^∞ is exterior on one class
of degree 1, that of S^{m+1} is the polynomial algebra on one class of
degree m, for every m.  Graded dimensions of the presented algebras are
computed by degree-truncated rewriting, with linear algebra in the quotient
(A_d from A_{<d}, never listing words) as an independent check of the
completion; both routes read the one presentation.  The kernel-generator
series is extracted from the factorization total = abelian · 1/(1−g).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .complexes import face_degree, j_complement, missing_faces, sphere_grading
from .linalg import IncrementalRank, integral
from .series import (
    FactorizationError,
    SeriesError,
    TruncatedSeries,
    free_gc_series,
    series_div_exact,
)
from .rewriting import RewritingSystem
from .tensor import DEFAULT_BUDGET_WORDS, BudgetError, TensorElement, commutator


class PresentationError(ValueError):
    """Invalid presentation request."""


def b_name(i):
    return f"b{i}"


def b_element(i):
    """The coordinate generator b_i as a one-word element."""
    return TensorElement.term((b_name(i),))


def u_name(sigma):
    return "u(" + ",".join(str(v) for v in sigma) + ")"


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    label: tuple  # ("coordinate", i) or ("higher", sigma)


@dataclass(frozen=True)
class Presentation:
    generators: tuple
    relations: tuple
    target: str  # "cp-case" or "sphere-case"

    @cached_property
    def degree_of(self):
        """``degree_of(name)``, a dict lookup that raises KeyError on unknown names."""
        return {g.name: g.degree for g in self.generators}.__getitem__

    def to_json_dict(self):
        return {
            "target": self.target,
            "generators": [
                {
                    "name": g.name,
                    "degree": g.degree,
                    "label": {
                        "kind": g.label[0],
                        "value": list(g.label[1])
                        if isinstance(g.label[1], tuple)
                        else g.label[1],
                    },
                }
                for g in self.generators
            ],
            "relations": [
                [[coeff, list(word)] for word, coeff in rel.sorted_terms()]
                for rel in self.relations
            ],
        }


def build_cp_presentation(K):
    """Loop-homology presentation with all coordinate targets in degree 1.

    Generators: b_i of degree 1 and u_sigma of degree 2k−2 for each
    k-vertex missing face with k ≥ 3.  Relations: b_i² for every i,
    anticommutators for the edges of K, and commutators [u_sigma, b_j] for
    j ∈ sigma.  Two-vertex missing faces get no generator: their class is
    the derived element b_i b_j + b_j b_i, and its bracket consequences
    hold automatically in the quotient.
    """
    return _build_presentation(K, (1,) * K.n, exterior=True)


def build_sphere_presentation(K, dims):
    """Loop-homology presentation with coordinate target i a sphere S^{m_i+1}.

    Generators: b_i of degree m_i and u_sigma, one degree below w_sigma, for
    each missing face with ≥ 3 vertices.  Relations: graded commutators
    [b_i, b_j] for the edges of K, and nothing else.  Each b_i generates
    H_*(ΩS^{m_i+1}) = Q[b_i], a polynomial algebra whatever the parity of
    m_i, so no b_i² relation is imposed; bracket generators satisfy no
    relations.
    """
    return _build_presentation(K, sphere_grading(dims, K.n), exterior=False)


def _build_presentation(K, grading, exterior):
    """Both presentations: b_i in degree ``grading[i-1]``, then the u_sigma.

    Relations, in order: b_i² for every i when the abelian part is
    ``exterior`` (the cp-case), the graded commutator [b_i, b_j] for each
    edge of K, and, again only when ``exterior``, [u_sigma, b_j] for
    j ∈ sigma.  Every sign comes from ``commutator``.
    """
    gens = [Generator(b_name(i), m, ("coordinate", i)) for i, m in enumerate(grading, 1)]
    higher = [sigma for sigma in missing_faces(K) if len(sigma) >= 3]
    # u_sigma sits one degree below w_sigma, the sphere it loops.
    gens += [Generator(u_name(sigma), face_degree(sigma, grading) - 1, ("higher", sigma))
             for sigma in higher]
    degree_of = {g.name: g.degree for g in gens}.get
    rels = [b_element(i) * b_element(i) for i in range(1, K.n + 1)] if exterior else []
    rels += [commutator(b_element(i), b_element(j), degree_of)
             for i, j in sorted(f for f in K.faces if len(f) == 2)]
    if exterior:
        rels += [commutator(TensorElement.term((u_name(sigma),)), b_element(j), degree_of)
                 for sigma in higher for j in sigma]
    return Presentation(
        generators=tuple(gens),
        relations=tuple(rels),
        target="cp-case" if exterior else "sphere-case",
    )


def abelian_series(p, max_degree):
    """Series of the abelian algebra on p's coordinate generators.

    The target fixes it: exterior on the degree-1 classes of the cp-case,
    polynomial on every class of the sphere-case.
    """
    degrees = [g.degree for g in p.generators if g.label[0] == "coordinate"]
    return free_gc_series(degrees, p.target == "cp-case", max_degree)


def bracket_lists(sigma, n, grading, max_dim, exterior):
    """Yield (js, dimension) for each bracket [w_sigma, b_j1, ..., b_jl], l ≥ 1.

    With an ``exterior`` abelian part (loop homology of CP^∞) the lists are
    strictly increasing, from the complement J_sigma; with a polynomial one
    (that of S^{m+1}) they are nondecreasing, over 1..n.  The dimension is
    t_sigma = ``face_degree(sigma, grading)``, plus the grading summed over
    js; lists above ``max_dim`` are dropped.
    The walk is depth-first preorder on an explicit stack, so every js comes
    after its parent js[:-1] and lists of one length come in lexicographic
    order.
    """
    letters = tuple(j_complement(sigma, n)) if exterior else tuple(range(1, n + 1))
    step = 1 if exterior else 0  # exterior lists never repeat a letter
    # (js, dimension, index of the first letter allowed next)
    stack = [((), face_degree(sigma, grading), 0)]
    while stack:
        js, dim, start = stack.pop()
        if js:
            yield js, dim
        children = []
        for t in range(start, len(letters)):
            child_dim = dim + grading[letters[t] - 1]
            if child_dim <= max_dim:
                children.append((js + (letters[t],), child_dim, t + step))
        stack.extend(reversed(children))


def rewriting_system(p, max_degree, budget_words=DEFAULT_BUDGET_WORDS):
    """Degree-truncated confluent rewriting system for the presentation.

    The generators are ranked by how many relations each occurs in, most
    first, ties in presentation order, so the vertex labels do not fix
    the word order: over the 60 labelings of K3 at degree 11 the cp
    completion has 23 rules on each, against 23 to 413 in presentation
    order.  The order only picks the basis of normal words, so no count
    (the Hilbert function) and no bracket label (a normal form is zero, or
    independent of others, exactly when its class is) can change.
    """
    occurrences = Counter(x for rel in p.relations for x in {x for w in rel for x in w})
    ranked = sorted(p.generators, key=lambda g: -occurrences[g.name])
    generators = [(g.name, g.degree) for g in ranked]
    return RewritingSystem(generators, p.relations, max_degree, budget_words)


def graded_dimensions(p, max_degree, method="rewriting", budget_words=DEFAULT_BUDGET_WORDS):
    """Dimensions of the presented algebra per degree ≤ ``max_degree``.

    ``method`` selects the route: "rewriting" counts normal words of the
    completed rewriting system; "linear" computes A_d from A_{<d} by exact
    linear algebra in the quotient, as the coordinates (a, s) of a generator
    a and a basis element s of A_{d−|a|} modulo one row r·s per relation r
    and basis element s of A_{d−|r|}.  Both routes read the same
    presentation, so their agreement checks the rewriting completion, not
    the presentation.  The rewriting route raises :class:`BudgetError` when
    it would count more than ``budget_words`` normal words; the linear
    route raises it, naming the degree, when the coordinates it creates,
    summed over the degrees, would exceed ``budget_words``.
    """
    if method == "rewriting":
        rs = rewriting_system(p, max_degree, budget_words)
        return TruncatedSeries.from_coeffs(rs.series(), max_degree)
    if method == "linear":
        return _graded_dimensions_linear(p, max_degree, budget_words)
    raise PresentationError(f"unknown method {method!r}")


def _graded_dimensions_linear(p, max_degree, budget_words):
    # Degree d works in C_d = ⊕_a a ⊗ A_{d−|a|}, whose coordinates are the
    # pairs (a, s) of a generator and a basis element of the lower degree.
    # Since I_d = Σ_a a·I_{d−|a|} + Σ_r r·W_{d−|r|}, the kernel of
    # C_d → A_d is spanned by the images of r·s for s in a basis of
    # A_{d−|r|} (well defined because r·I ⊂ I), so A_d is C_d modulo those
    # rows and its basis is the columns that are not pivots.  basis[e] lists
    # the non-pivot columns of degree e and column[e] numbers that degree's
    # pairs; degree 0 has the unit as its one column.
    letter = {g.name: k for k, g in enumerate(p.generators)}
    degree = [g.degree for g in p.generators]
    relations = [(sum(map(p.degree_of, next(iter(rel)))),
                  [(letter[w[0]], [letter[x] for x in reversed(w[1:])], c)
                   for w, c in rel.items()])
                 for rel in p.relations]
    basis, column, echelon = [[0]], [None], [None]
    spent = 0
    for d in range(1, max_degree + 1):
        spent += sum(len(basis[d - da]) for da in degree if da <= d)
        if spent > budget_words:
            raise BudgetError(d, f"coordinate budget {budget_words} exhausted")
        pairs = ((a, t) for a, da in enumerate(degree) if da <= d for t in basis[d - da])
        index = {pair: k for k, pair in enumerate(pairs)}
        column.append(index)
        echelon.append(IncrementalRank())
        for r, terms in relations:
            if r > d:
                continue
            for s in basis[d - r]:
                row = {}
                for a, tail, c in terms:
                    # [w′·s], folding the letters of w′ in from the right.
                    e, v = d - r, {s: c}
                    for x in tail:
                        e += degree[x]
                        v = echelon[e].remainder({column[e][x, t]: ct for t, ct in v.items()})
                    for t, ct in v.items():
                        k = index[a, t]
                        row[k] = row.get(k, 0) + ct
                echelon[d].add(integral(row))
        basis.append([k for k in range(len(index)) if k not in echelon[d].pivots])
    return TruncatedSeries.from_coeffs([len(b) for b in basis], max_degree)


def kernel_generator_series(total, abelian_part):
    """The unique g with total = abelian_part · 1/(1−g).

    Both inputs must have constant term 1.  Raises
    :class:`FactorizationError` (carrying the offending degree) if any
    quotient coefficient is fractional or any kernel count is negative.
    """
    if total.coeffs[0] != 1 or abelian_part.coeffs[0] != 1:
        raise SeriesError("both series must have constant term 1")
    h = series_div_exact(total, abelian_part)
    g = series_div_exact(h - TruncatedSeries.one(h.cutoff), h)
    for d, c in enumerate(g.coeffs):
        if c < 0:
            raise FactorizationError(d, f"negative kernel-generator count {c}")
    return g
