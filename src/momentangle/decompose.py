"""Sphere-wedge decompositions labeled by Whitehead products.

A decomposition lists one sphere summand per enumerated bracket, checks
the per-dimension counts against the kernel-generator series of the
presented loop-homology algebra, and, where applicable, against two more
independent routes: the skeleton-family closed form ("porter") and the
single-missing-face composition count ("james").  Route disagreements are
reported as flags, never silently reconciled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .complexes import (
    ComplexError,
    SimplicialComplex,
    is_mf_complex,
    j_complement,
    missing_faces,
    skeleton_complex,
)
from .linalg import IncrementalRank
from .presentations import (
    abelian_series,
    b_name,
    build_cp_presentation,
    build_sphere_presentation,
    graded_dimensions,
    kernel_generator_series,
    rewriting_system,
)
from .series import TruncatedSeries
from .tensor import TensorElement, commutator


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
    dimension: int
    label: WhiteheadLabel | None
    provenance: str  # "enumeration", "series", or "porter"


@dataclass(frozen=True)
class Flag:
    dimension: int
    routes: tuple  # ((route_name, count), ...)

    def routes_dict(self):
        return dict(self.routes)


@dataclass(frozen=True)
class WedgeDecomposition:
    target: str  # "cp" or "spheres"
    dims: tuple | None
    max_dim: int
    truncated: bool
    summands: tuple
    flags: tuple
    routes: tuple  # ((dimension, ((route_name, count), ...)), ...)
    rejected: tuple  # ((WhiteheadLabel, reason), ...)

    def counts(self):
        out = {}
        for s in self.summands:
            out[s.dimension] = out.get(s.dimension, 0) + 1
        return dict(sorted(out.items()))

    def to_json_dict(self, K=None):
        by_dim = {}
        for s in self.summands:
            by_dim.setdefault(s.dimension, []).append(s)
        summands = []
        for dim in sorted(by_dim):
            group = by_dim[dim]
            labels = [s.label.to_json_dict() for s in group if s.label is not None]
            provenance = sorted({s.provenance for s in group})
            summands.append(
                {
                    "dimension": dim,
                    "count": len(group),
                    "labels": labels,
                    "provenance": "+".join(provenance),
                }
            )
        doc = {}
        if K is not None:
            from .complexes import maximal_faces

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
            {"dimension": f.dimension, "routes": dict(f.routes)} for f in self.flags
        ]
        return doc


@dataclass(frozen=True)
class ConsistencyReport:
    target: str
    max_dim: int
    table: tuple  # ((dimension, ((route_name, count), ...)), ...)
    verdicts: tuple  # ((dimension, "agree" | "mismatch"), ...)
    flags: tuple

    def to_json_dict(self):
        return {
            "target": self.target,
            "max_dim": self.max_dim,
            "table": [
                {"dimension": d, "routes": dict(routes)} for d, routes in self.table
            ],
            "verdicts": [
                {"dimension": d, "verdict": v} for d, v in self.verdicts
            ],
        }


def _require_mf(K):
    ok, witness = is_mf_complex(K)
    if not ok:
        raise ComplexError(
            f"not an MF-complex: maximal face {witness} lies in no missing face"
        )


def detect_skeleton(K):
    """The k with K = skeleton_complex(K.n, k), or None."""
    for k in range(1, K.n):
        if K.faces == skeleton_complex(K.n, k).faces:
            return k
    return None


def _james_counts(base, ms, max_dim):
    """Per-dimension counts #{(d_1..d_k) >= 1 : base + sum d_t m_t = dim}."""
    counts = {0: 1}
    for m in ms:
        new = {}
        for tot, c in counts.items():
            d = 1
            while tot + d * m <= max_dim - base:
                new[tot + d * m] = new.get(tot + d * m, 0) + c
                d += 1
        counts = new
    out = {}
    for tot, c in counts.items():
        dim = base + tot
        if dim <= max_dim:
            out[dim] = out.get(dim, 0) + c
    return out


def _derived_u_element(sigma, p):
    """Graded commutator of the two coordinate generators of a 2-vertex face."""
    i1, i2 = sigma
    return commutator(
        TensorElement.term((b_name(i1),)),
        TensorElement.term((b_name(i2),)),
        p.degree_of,
    )


def _integer_row(nf, index):
    """Map a normal form to a sparse integer row over the word index."""
    denom = 1
    for c in nf.values():
        denom = lcm(denom, Fraction(c).denominator)
    row = {}
    for w, c in nf.items():
        if w not in index:
            index[w] = len(index)
        row[index[w]] = int(Fraction(c) * denom)
    return row


def _bracket_normal_forms(sigma, candidates, p, rs):
    """Yield (js, dimension, NF([w_sigma, b_j1, ..., b_jl])) per candidate.

    ``candidates`` yields (js, dimension) pairs, each js after its parent
    js[:-1].  The normal form of [x, b_j] is that of [NF(x), b_j], because
    the ideal is two-sided and the completion is confluent through the
    bracket's degree; so each bracket is reduced from its parent's normal
    form, starting from the unreduced [b_i1, b_i2].
    """
    nfs = {(): _derived_u_element(sigma, p)}
    for js, dim in candidates:
        parent = nfs[js[:-1]]
        if parent.is_zero():
            nf = parent
        else:
            b = TensorElement.term((b_name(js[-1]),))
            nf = rs.normal_form(commutator(parent, b, p.degree_of))
        nfs[js] = nf
        yield js, dim, nf


def _small_sigma_candidates(p, rs, small, candidate_js, g, ab_counts):
    """Select independent part-(c) brackets against the series counts.

    ``candidate_js(sigma)`` yields (js, dimension) pairs in deterministic
    order, each js after its parent js[:-1].  Returns (selected summands,
    rejected candidates).
    """
    by_dim = {}
    rejected = []
    for sigma in small:
        for js, dim, nf in _bracket_normal_forms(sigma, candidate_js(sigma), p, rs):
            label = WhiteheadLabel("iterated", sigma, js)
            if nf.is_zero():
                rejected.append((label, "zero normal form"))
                continue
            by_dim.setdefault(dim, []).append((label, nf))
    selected = []
    for dim in sorted(by_dim):
        acc = IncrementalRank()
        index = {}
        needed = g[dim - 1] - ab_counts.get(dim, 0)
        chosen = []
        for label, nf in by_dim[dim]:
            if not acc.add(_integer_row(nf, index)):
                rejected.append((label, "dependent on previously selected brackets"))
                continue
            if len(chosen) < needed:
                chosen.append(label)
            else:
                rejected.append((label, "independent but beyond the series count"))
        selected.extend(SphereSummand(dim, lab, "enumeration") for lab in chosen)
    return selected, rejected


def _assemble(target, dims, max_dim, truncated, summands, selected,
              g, rejected, porter_counts, james_counts):
    enum_counts = {}
    for s in list(summands) + list(selected):
        enum_counts[s.dimension] = enum_counts.get(s.dimension, 0) + 1
    series_counts = {
        d + 1: g[d] for d in range(len(g.coeffs)) if g[d] and d + 1 <= max_dim
    }
    # fill unlabeled series-certified summands where enumeration fell short
    filled = list(summands) + list(selected)
    have_counts = {}
    for s in filled:
        have_counts[s.dimension] = have_counts.get(s.dimension, 0) + 1
    for dim, want in series_counts.items():
        for _ in range(want - have_counts.get(dim, 0)):
            filled.append(SphereSummand(dim, None, "series"))
    routes = {"enumeration": enum_counts, "series": series_counts}
    if porter_counts is not None:
        routes["porter"] = porter_counts
    if james_counts is not None:
        routes["james"] = james_counts
    all_dims = sorted(set().union(*(set(c) for c in routes.values())) or set())
    table = []
    flags = []
    for dim in all_dims:
        if dim > max_dim:
            continue
        per = tuple((name, routes[name].get(dim, 0)) for name in
                    ("enumeration", "series", "porter", "james") if name in routes)
        table.append((dim, per))
        if len({c for _, c in per}) > 1:
            flags.append(Flag(dim, per))
    filled.sort(key=lambda s: (s.dimension, s.label is None,
                               s.label.kind if s.label else "",
                               s.label.sigma if s.label else (),
                               s.label.js if s.label else ()))
    return WedgeDecomposition(
        target=target,
        dims=dims,
        max_dim=max_dim,
        truncated=truncated,
        summands=tuple(filled),
        flags=tuple(flags),
        routes=tuple(table),
        rejected=tuple(rejected),
    )


def decompose_cp(K, max_dim=None, budget_words=2_000_000):
    """Wedge decomposition with all coordinate targets the same (cp case).

    Part (a): one sphere of dimension 2(#sigma−1)+1 per missing face.
    Part (b): for each missing face with ≥ 3 vertices, one sphere per
    nonempty strictly increasing list from its complement.  Part (c):
    2-vertex missing faces contribute series-certified brackets.  All
    per-dimension counts are reconciled against the kernel-generator
    series; skeleton and single-missing-face closed forms join the
    comparison when applicable.
    """
    _require_mf(K)
    mfs = [m.vertices for m in missing_faces(K)]
    big = [s for s in mfs if len(s) >= 3]
    small = [s for s in mfs if len(s) == 2]
    summands = [
        SphereSummand(2 * (len(s) - 1) + 1, WhiteheadLabel("higher", s), "enumeration")
        for s in mfs
    ]
    natural_max = max(s.dimension for s in summands)
    for sigma in big:
        comp = j_complement(sigma, K.n)
        base = 2 * (len(sigma) - 1) + 1
        natural_max = max(natural_max, base + len(comp))
        for l in range(1, len(comp) + 1):
            for js in itertools.combinations(comp, l):
                summands.append(
                    SphereSummand(base + l, WhiteheadLabel("iterated", sigma, js),
                                  "enumeration")
                )
    for sigma in small:
        natural_max = max(natural_max, 3 + len(j_complement(sigma, K.n)))
    truncated = False
    if max_dim is None:
        max_dim = natural_max
    else:
        truncated = natural_max > max_dim
        summands = [s for s in summands if s.dimension <= max_dim]

    p = build_cp_presentation(K)
    rs = rewriting_system(p, max_dim - 1, budget_words)
    total = TruncatedSeries.from_coeffs(rs.series(max_dim - 1), max_dim - 1)
    g = kernel_generator_series(total, abelian_series(p, max_dim - 1))

    ab_counts = {}
    for s in summands:
        ab_counts[s.dimension] = ab_counts.get(s.dimension, 0) + 1

    def candidate_js(sigma):
        # Shorter lists first, so every js follows its parent js[:-1].
        comp = j_complement(sigma, K.n)
        for l in range(1, len(comp) + 1):
            for js in itertools.combinations(comp, l):
                dim = 3 + l
                if dim <= max_dim:
                    yield js, dim

    selected, rejected = _small_sigma_candidates(p, rs, small, candidate_js, g, ab_counts)

    k = detect_skeleton(K)
    porter_counts = None
    if k is not None:
        porter_counts = porter_fnk(K.n, k, target="cp").counts()
        porter_counts = {d: c for d, c in porter_counts.items() if d <= max_dim}
    james = None
    if len(mfs) == 1:
        james = {2 * len(mfs[0]) - 1: 1}
    return _assemble("cp", None, max_dim, truncated, summands, selected,
                     g, rejected, porter_counts, james)


def decompose_spheres(K, dims, max_dim, convention="polynomial-all",
                      budget_words=2_000_000):
    """Wedge decomposition with coordinate target i the sphere S^{m_i+1}.

    Part (a): one sphere of dimension t_sigma per missing face, where
    t_sigma = (#sigma − 1) + sum of the m_i over sigma.  Part (b): for each
    missing face with ≥ 3 vertices, one sphere per nonempty nondecreasing
    multiset over 1..n within the dimension bound.  Part (c) and the route
    reconciliation work as in the cp case, against the sphere-case
    presentation; its series matches the multiset enumeration under the
    polynomial-all convention, which is therefore the default here.
    """
    _require_mf(K)
    dims = tuple(dims)
    if len(dims) != K.n:
        raise ComplexError(f"expected {K.n} sphere parameters, got {len(dims)}")
    mfs = [m.vertices for m in missing_faces(K)]
    big = [s for s in mfs if len(s) >= 3]
    small = [s for s in mfs if len(s) == 2]

    def t_sigma(sigma):
        return len(sigma) - 1 + sum(dims[i - 1] for i in sigma)

    summands = [
        SphereSummand(t_sigma(s), WhiteheadLabel("higher", s), "enumeration")
        for s in mfs
        if t_sigma(s) <= max_dim
    ]

    def multisets(base):
        # Depth first, so every js follows its parent js[:-1].
        def grow(js, dim, start):
            for j in range(start, K.n + 1):
                nd = dim + dims[j - 1]
                if nd <= max_dim:
                    yield js + (j,), nd
                    yield from grow(js + (j,), nd, j)

        yield from grow((), base, 1)

    for sigma in big:
        base = t_sigma(sigma)
        for js, dim in multisets(base):
            summands.append(
                SphereSummand(dim, WhiteheadLabel("iterated", sigma, js), "enumeration")
            )

    p = build_sphere_presentation(K, dims, convention)
    rs = rewriting_system(p, max_dim - 1, budget_words)
    total = TruncatedSeries.from_coeffs(rs.series(max_dim - 1), max_dim - 1)
    g = kernel_generator_series(total, abelian_series(p, max_dim - 1))

    ab_counts = {}
    for s in summands:
        ab_counts[s.dimension] = ab_counts.get(s.dimension, 0) + 1

    def candidate_js(sigma):
        yield from multisets(t_sigma(sigma))

    selected, rejected = _small_sigma_candidates(p, rs, small, candidate_js, g, ab_counts)

    k = detect_skeleton(K)
    porter_counts = None
    if k is not None:
        porter_counts = porter_fnk(K.n, k, target="spheres", dims=dims,
                                   max_dim=max_dim).counts()
    james = None
    if len(mfs) == 1:
        sigma = mfs[0]
        james = _james_counts(len(sigma) - 1, [dims[i - 1] for i in sigma], max_dim)
    return _assemble("spheres", dims, max_dim, True, summands, selected,
                     g, rejected, porter_counts, james)


def porter_fnk(n, k, target="cp", dims=None, max_dim=None):
    """Closed-form decomposition for the skeleton family.

    For each j from n−k+1 to n and each j-subset (i_1 < … < i_j), the
    decomposition contains C(j−1, n−k) copies of the (n−k)-fold suspension
    of the smash of the looped coordinate targets.  In the cp case each
    smash is the single sphere S^{n−k+j}; for sphere targets it expands
    into composition counts #{(d_1..d_j) ≥ 1 : (n−k) + sum d_t m_{i_t} = dim}.
    """
    if not (1 <= k <= n - 1):
        raise ComplexError(f"require 1 <= k <= n-1, got n={n}, k={k}")
    base = n - k
    summands = []
    truncated = False
    for j in range(n - k + 1, n + 1):
        mult = comb(j - 1, n - k)
        for subset in itertools.combinations(range(1, n + 1), j):
            if target == "cp":
                dim = base + j
                if max_dim is not None and dim > max_dim:
                    truncated = True
                    continue
                summands.extend(
                    SphereSummand(dim, None, "porter") for _ in range(mult)
                )
            elif target == "spheres":
                if dims is None or max_dim is None:
                    raise ComplexError(
                        "sphere target requires dims and max_dim"
                    )
                truncated = True
                counts = _james_counts(base, [dims[i - 1] for i in subset], max_dim)
                for dim in sorted(counts):
                    summands.extend(
                        SphereSummand(dim, None, "porter")
                        for _ in range(mult * counts[dim])
                    )
            else:
                raise ComplexError(f"unknown target {target!r}")
    summands.sort(key=lambda s: s.dimension)
    top = max((s.dimension for s in summands), default=0)
    return WedgeDecomposition(
        target=target,
        dims=tuple(dims) if dims is not None else None,
        max_dim=max_dim if max_dim is not None else top,
        truncated=truncated,
        summands=tuple(summands),
        flags=(),
        routes=tuple(
            (dim, (("porter", c),))
            for dim, c in sorted(
                {
                    d: sum(1 for s in summands if s.dimension == d)
                    for d in {s.dimension for s in summands}
                }.items()
            )
        ),
        rejected=(),
    )


def consistency_report(K, target="cp", dims=None, max_dim=8, budget_words=2_000_000):
    """Tabulate every applicable counting route per dimension and compare."""
    if target == "cp":
        dec = decompose_cp(K, max_dim, budget_words)
    elif target == "spheres":
        if dims is None:
            raise ComplexError("sphere target requires dims")
        dec = decompose_spheres(K, dims, max_dim, budget_words=budget_words)
    else:
        raise ComplexError(f"unknown target {target!r}")
    verdicts = tuple(
        (dim, "mismatch" if len({c for _, c in routes}) > 1 else "agree")
        for dim, routes in dec.routes
    )
    return ConsistencyReport(
        target=target,
        max_dim=max_dim,
        table=dec.routes,
        verdicts=verdicts,
        flags=dec.flags,
    )
