"""Sphere-wedge decompositions labeled by Whitehead products.

A decomposition lists one sphere summand per enumerated bracket, checks
the per-dimension counts against the kernel-generator series of the
presented loop-homology algebra, and, on skeleta of the simplex, against
Porter's closed form ("porter"), which a complex with a single missing
face, the boundary of a simplex, also reaches.  Route disagreements are
reported as flags, never silently reconciled.

Both targets run one pipeline.  Coordinate target i is the sphere S^{m_i+1},
and a missing face sigma gives w_sigma in dimension
t_sigma = ``face_degree(sigma, grading)`` = (#sigma − 1) + sum of the m_i
over sigma; the cp target is the grading with every m_i = 1, so
t_sigma = 2#sigma − 1.  The targets differ only in the abelian part, which
``_grading`` records as one bool: the loop homology of CP^∞ is exterior and
that of S^{m+1} polynomial.  Exterior brackets [w_sigma, b_j1, …, b_jl]
take increasing lists from the complement J_sigma, polynomial ones
nondecreasing lists over 1..n.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from math import comb

from .complexes import (
    ComplexError,
    face_degree,
    is_mf_complex,
    j_complement,
    maximal_faces,
    missing_faces,
    sphere_grading,
)
from .linalg import IncrementalRank, integral
from .presentations import (
    abelian_series,
    b_element,
    bracket_lists,
    build_cp_presentation,
    build_sphere_presentation,
    kernel_generator_series,
    rewriting_system,
)
from .series import TruncatedSeries, geometric_series
from .tensor import DEFAULT_BUDGET_WORDS, commutator


@dataclass(frozen=True)
class WhiteheadLabel:
    kind: str  # "higher" or "iterated"
    sigma: tuple
    js: tuple = ()

    def text(self, target):
        w = ("w~" if target == "cp" else "w") + "(" + ",".join(map(str, self.sigma)) + ")"
        if self.kind == "higher":
            return w
        a = "a~" if target == "cp" else "a"
        return "[" + w + ", " + ", ".join(f"{a}{j}" for j in self.js) + "]"

    def to_json_dict(self):
        out = {"kind": self.kind, "sigma": list(self.sigma)}
        if self.kind == "iterated":
            out["js"] = list(self.js)
        return out


@dataclass(frozen=True)
class SphereSummand:
    """``count`` copies of S^dimension; only unlabeled records hold several."""

    dimension: int
    label: WhiteheadLabel | None
    provenance: str  # "enumeration" or "porter"
    count: int = 1


@dataclass(frozen=True)
class WedgeDecomposition:
    target: str  # "cp" or "spheres"
    dims: tuple | None
    max_dim: int
    truncated: bool
    summands: tuple
    routes: tuple  # ((dimension, ((route_name, count), ...)), ...)
    rejected: tuple  # ((WhiteheadLabel, reason), ...) in enumeration order

    @property
    def flags(self):
        """The rows of ``routes`` whose counts differ, in table order."""
        return tuple((dim, per) for dim, per in self.routes
                     if len({c for _, c in per}) > 1)

    def counts(self):
        out = {}
        for s in self.summands:
            out[s.dimension] = out.get(s.dimension, 0) + s.count
        return dict(sorted(out.items()))

    def to_json_dict(self, K=None):
        by_dim = {}
        for s in self.summands:
            by_dim.setdefault(s.dimension, []).append(s)
        summands = []
        for dim in sorted(by_dim):
            group = by_dim[dim]
            labels = [s.label.to_json_dict() for s in group if s.label is not None]
            summands.append(
                {
                    "dimension": dim,
                    "count": sum(s.count for s in group),
                    "labels": labels,
                    "provenance": group[0].provenance,  # one route per dimension
                }
            )
        doc = {}
        if K is not None:
            doc["complex"] = {
                "vertices": K.n,
                "maximal_faces": [list(f) for f in maximal_faces(K)],
            }
        doc["target"] = self.target
        doc["dims"] = list(self.dims) if self.dims is not None else None
        doc["max_dim"] = self.max_dim
        doc["truncated"] = self.truncated
        doc["summands"] = summands
        doc["flags"] = [
            {"dimension": dim, "routes": dict(per)} for dim, per in self.flags
        ]
        return doc


def _grading(target, n, dims, max_dim):
    """(grading, exterior abelian part?) of ``target``: cp is all ones, exterior."""
    if target == "cp":
        return (1,) * n, True
    if target != "spheres":
        raise ComplexError(f"unknown target {target!r}")
    if max_dim is None:
        raise ComplexError("sphere target requires max_dim")
    return sphere_grading(dims, n), False


def _require_mf(K):
    ok, witness = is_mf_complex(K)
    if not ok:
        raise ComplexError(
            f"not an MF-complex: maximal face {witness} lies in no missing face"
        )


def detect_skeleton(K):
    """The k with K = skeleton_complex(K.n, k), or None.

    K is that skeleton exactly when its largest face has top < n vertices
    and it has all C(n, j) faces of each size j ≤ top; then k = n − top.
    """
    counts = K.face_counts()
    top = max(counts)
    if top < K.n and all(counts.get(j) == comb(K.n, j) for j in range(1, top + 1)):
        return K.n - top
    return None


def _porter_counts(n, k, grading, exterior, max_dim):
    """Porter's closed form for skeleton_complex(n, k): {dimension: count}.

    The count in dimension (n − k) + d is Σ_j C(j − 1, n − k)·[t^d] e_j,
    summed over j > n − k, where e_j is the elementary symmetric function of
    x_i = t^{m_i} (``exterior`` coordinates, cp) or t^{m_i}/(1 − t^{m_i})
    (polynomial ones), built by the recurrence e_j ← e_j + x_i·e_{j−1}.
    Dimensions above ``max_dim`` are dropped.
    """
    base = n - k
    cutoff = max_dim - base
    if cutoff < 0:
        return {}
    one = TruncatedSeries.one(cutoff)
    e = [one] + [TruncatedSeries.zero(cutoff)] * n
    for m in grading:
        x = TruncatedSeries.monomial(m, cutoff)
        if not exterior:
            x = geometric_series(x) - one
        for j in range(n, 0, -1):
            e[j] = e[j] + x * e[j - 1]
    counts = {}
    for d in range(cutoff + 1):
        c = sum(comb(j - 1, base) * e[j][d] for j in range(base + 1, n + 1))
        if c:
            counts[base + d] = c
    return counts


def _bracket_normal_forms(sigma, candidates, p, rs):
    """Yield (js, dimension, NF([w_sigma, b_j1, ..., b_jl])) per candidate.

    ``candidates`` yields (js, dimension) pairs, each js after its parent
    js[:-1].  The normal form of [x, b_j] is that of [NF(x), b_j], because
    the ideal is two-sided and the completion is confluent through the
    bracket's degree; so each bracket is reduced from its parent's normal
    form, starting from the unreduced [b_i1, b_i2].
    """
    nfs = {(): commutator(b_element(sigma[0]), b_element(sigma[1]), p.degree_of)}
    for js, dim in candidates:
        parent = nfs[js[:-1]]
        if parent.is_zero():
            nf = parent
        else:
            nf = rs.normal_form(commutator(parent, b_element(js[-1]), p.degree_of))
        nfs[js] = nf
        yield js, dim, nf


def _decompose(K, target, dims, max_dim, budget_words):
    """The wedge decomposition of both targets; ``dims`` is None for cp."""
    grading, exterior = _grading(target, K.n, dims, max_dim)
    _require_mf(K)
    mfs = missing_faces(K)

    truncated = True
    if exterior:
        natural_max = max(face_degree(s, grading) + len(j_complement(s, K.n)) for s in mfs)
        truncated = max_dim is not None and natural_max > max_dim
        if max_dim is None:
            max_dim = natural_max

    def brackets(sigma):
        return bracket_lists(sigma, K.n, grading, max_dim, exterior)

    p = build_cp_presentation(K) if exterior else build_sphere_presentation(K, grading)
    # The kernel series counts spheres of dimension d + 1 in degree d, so it
    # is needed through degree max_dim − 1; at max_dim 0 it runs to degree
    # 0, where it is zero.  It is counted under the word budget before part
    # (b) lists its brackets, which are no more than the normal words.
    top = max(max_dim - 1, 0)
    rs = rewriting_system(p, top, budget_words)
    total = TruncatedSeries.from_coeffs(rs.series(), top)
    g = kernel_generator_series(total, abelian_series(p, top))

    # Part (a): w_sigma per missing face; part (b): the brackets of each
    # missing face with ≥ 3 vertices.
    summands = []
    for sigma in mfs:
        dim = face_degree(sigma, grading)
        if dim <= max_dim:
            summands.append(SphereSummand(dim, WhiteheadLabel("higher", sigma), "enumeration"))
        if len(sigma) >= 3:
            summands.extend(
                SphereSummand(dim, WhiteheadLabel("iterated", sigma, js), "enumeration")
                for js, dim in brackets(sigma)
            )

    # Part (c): each nonzero bracket of a 2-vertex missing face that is
    # independent of its dimension's earlier brackets is a summand while
    # the enumeration count stays below the series count.
    enum_counts = Counter(s.dimension for s in summands)
    ranks = defaultdict(lambda: (IncrementalRank(), {}))  # per dim: rank, {word: column}
    rejected = []
    for sigma in (s for s in mfs if len(s) == 2):
        for js, dim, nf in _bracket_normal_forms(sigma, brackets(sigma), p, rs):
            label = WhiteheadLabel("iterated", sigma, js)
            if nf.is_zero():
                rejected.append((label, "zero normal form"))
                continue
            acc, index = ranks[dim]
            if not acc.add(integral({index.setdefault(w, len(index)): c for w, c in nf.items()})):
                rejected.append((label, "dependent on previously selected brackets"))
            elif enum_counts[dim] < g[dim - 1]:
                summands.append(SphereSummand(dim, label, "enumeration"))
                enum_counts[dim] += 1
            else:
                rejected.append((label, "independent but beyond the series count"))

    routes = {
        "enumeration": enum_counts,
        "series": {d + 1: c for d, c in enumerate(g.coeffs) if c},
    }
    k = detect_skeleton(K)
    if k is not None:
        routes["porter"] = _porter_counts(K.n, k, grading, exterior, max_dim)

    table = tuple(
        (dim, tuple((name, counts.get(dim, 0)) for name, counts in routes.items()))
        for dim in sorted(set().union(*routes.values()))
    )
    summands.sort(key=lambda s: (s.dimension, s.label.kind, s.label.sigma, s.label.js))
    return WedgeDecomposition(
        target=target,
        dims=None if exterior else grading,
        max_dim=max_dim,
        truncated=truncated,
        summands=tuple(summands),
        routes=table,
        rejected=tuple(rejected),
    )


def decompose_cp(K, max_dim=None, budget_words=DEFAULT_BUDGET_WORDS):
    """Wedge decomposition with all coordinate targets the same (cp case).

    Part (a): one sphere of dimension 2(#sigma−1)+1 per missing face.
    Part (b): for each missing face with ≥ 3 vertices, one sphere per
    nonempty strictly increasing list from its complement.  Part (c):
    2-vertex missing faces contribute series-certified brackets.  All
    per-dimension counts are reconciled against the kernel-generator
    series and, on skeleta, Porter's closed form.  Without ``max_dim`` the
    decomposition runs to the largest dimension any bracket reaches.
    """
    return _decompose(K, "cp", None, max_dim, budget_words)


def decompose_spheres(K, dims, max_dim, budget_words=DEFAULT_BUDGET_WORDS):
    """Wedge decomposition with coordinate target i the sphere S^{m_i+1}.

    Part (a): one sphere of dimension t_sigma per missing face, where
    t_sigma = (#sigma − 1) + sum of the m_i over sigma.  Part (b): for each
    missing face with ≥ 3 vertices, one sphere per nonempty nondecreasing
    multiset over 1..n within the dimension bound.  Part (c) and the route
    reconciliation work as in the cp case, against the sphere-case
    presentation, whose polynomial abelian part matches the multiset
    enumeration.  The result is always truncated at ``max_dim``.
    """
    return _decompose(K, "spheres", dims, max_dim, budget_words)


def porter_fnk(n, k, target="cp", dims=None, max_dim=None):
    """Porter's decomposition of Z_K for K = skeleton_complex(n, k).

    Z_K is the wedge, over j > n−k and the j-subsets (i_1 < … < i_j) of
    1..n, of C(j−1, n−k) copies of the (n−k)-fold suspension of the smash
    of the looped coordinate targets: S^{n−k+j} for cp, and for sphere
    targets one sphere per (d_1..d_j) ≥ 1 in dimension
    (n−k) + sum d_t m_{i_t}.  ``_porter_counts`` sums over the subsets
    without walking them, and each dimension is one unlabeled summand
    record.  Without ``max_dim`` (cp only) it runs to the top dimension
    2n − k.
    """
    if not (1 <= k <= n - 1):
        raise ComplexError(f"require 1 <= k <= n-1, got n={n}, k={k}")
    grading, exterior = _grading(target, n, dims, max_dim)
    top = 2 * n - k if max_dim is None else max_dim
    tally = _porter_counts(n, k, grading, exterior, top)
    return WedgeDecomposition(
        target=target,
        dims=None if exterior else grading,
        max_dim=top,
        truncated=not exterior or top < 2 * n - k,
        summands=tuple(SphereSummand(dim, None, "porter", c) for dim, c in tally.items()),
        routes=tuple((dim, (("porter", c),)) for dim, c in tally.items()),
        rejected=(),
    )


def consistency_report(K, target="cp", dims=None, max_dim=8, budget_words=DEFAULT_BUDGET_WORDS):
    """The decomposition whose ``routes`` tabulate every applicable route."""
    if target == "cp":
        return decompose_cp(K, max_dim, budget_words)
    return decompose_spheres(K, dims, max_dim, budget_words)
