"""Finite simplicial complexes on the vertex set {1, ..., n}.

Everything downstream is driven by the combinatorics implemented here:
minimal non-faces (missing faces), the missing-face covering property,
shiftedness, skeleta of the simplex, and vertex complements.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass


class ComplexError(ValueError):
    """Invalid complex description or violated precondition."""


class ParseError(ComplexError):
    """Malformed complex-description document."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex: downward-closed faces on vertices 1..n.

    ``faces`` holds every nonempty face as a strictly increasing tuple;
    all singletons are always present and the empty face is implicit.
    """

    n: int
    faces: frozenset

    @classmethod
    def from_faces(cls, n, generating_faces):
        """Build the downward closure of ``generating_faces`` plus all singletons."""
        if n < 1:
            raise ComplexError(f"vertex count must be positive, got {n}")
        closed = set()
        for face in generating_faces:
            face = tuple(face)
            _check_face(face, n)
            face = tuple(sorted(face))
            for k in range(1, len(face) + 1):
                closed.update(itertools.combinations(face, k))
        closed.update((i,) for i in range(1, n + 1))
        return cls(n=n, faces=frozenset(closed))

    def __contains__(self, face):
        return tuple(face) in self.faces

    def sorted_faces(self):
        return sorted(self.faces, key=lambda f: (len(f), f))

    def face_counts(self):
        """Number of faces per cardinality, as a dict {cardinality: count}."""
        counts = {}
        for face in self.faces:
            counts[len(face)] = counts.get(len(face), 0) + 1
        return dict(sorted(counts.items()))

    def relabel(self, perm):
        """Apply a vertex permutation; ``perm`` maps old vertex -> new vertex."""
        faces = [tuple(sorted(perm[v] for v in f)) for f in self.faces]
        return SimplicialComplex(n=self.n, faces=frozenset(faces))


def parse_complex(text):
    """Parse a complex-description document.

    Grammar: one declaration per line (``;`` also separates declarations),
    ``vertices: <n>`` exactly once, then ``face: <i1> <i2> ...`` lines;
    ``#`` starts a comment.  A JSON document {"vertices": n, "faces": [...]}
    is accepted as well.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_complex_json(text)
    n = None
    faces = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if ":" not in chunk:
                raise ParseError(f"expected 'key: value', got {chunk!r}", lineno)
            key, _, value = chunk.partition(":")
            key = key.strip().lower()
            value = value.strip()
            if key == "vertices":
                if n is not None:
                    raise ParseError("duplicate 'vertices' declaration", lineno)
                try:
                    n = int(value)
                except ValueError:
                    raise ParseError(f"bad vertex count {value!r}", lineno) from None
                if n < 1:
                    raise ParseError(f"vertex count must be positive, got {n}", lineno)
            elif key == "face":
                if n is None:
                    raise ParseError("'face' before 'vertices'", lineno)
                try:
                    verts = tuple(int(tok) for tok in value.split())
                except ValueError:
                    raise ParseError(f"bad face {value!r}", lineno) from None
                _check_face(verts, n, lineno)
                faces.append(verts)
            else:
                raise ParseError(f"unknown declaration {key!r}", lineno)
    if n is None:
        raise ParseError("missing 'vertices' declaration")
    return SimplicialComplex.from_faces(n, faces)


def _parse_complex_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from None
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise ParseError("JSON document must be an object with 'vertices'")
    n = doc["vertices"]
    if not _is_int(n) or n < 1:
        raise ParseError(f"vertex count must be a positive integer, got {n!r}")
    faces = doc.get("faces", [])
    if not isinstance(faces, list) or not all(
        isinstance(f, list) and all(map(_is_int, f)) for f in faces
    ):
        raise ParseError(f"'faces' must be a list of lists of integers, got {faces!r}")
    return SimplicialComplex.from_faces(n, faces)


def _check_face(verts, n, line=None):
    """Refuse an empty face, a vertex outside 1..n and a repeated vertex."""
    if not verts:
        raise ParseError("empty face", line)
    for v in verts:
        if not (1 <= v <= n):
            raise ParseError(f"vertex index {v} out of range 1..{n}", line)
    if len(set(verts)) != len(verts):
        raise ParseError(f"face {verts} repeats a vertex", line)


def _is_int(x):
    # JSON true/false load as bool, a subclass of int; neither is a vertex.
    return isinstance(x, int) and not isinstance(x, bool)


def serialize_complex(K):
    """Write K back in the line grammar; ``parse_complex`` round-trips it."""
    lines = [f"vertices: {K.n}"]
    maximal = maximal_faces(K)
    for face in maximal:
        lines.append("face: " + " ".join(str(v) for v in face))
    return "\n".join(lines) + "\n"


def maximal_faces(K):
    """Faces of K not contained in any strictly larger face, sorted."""
    faces = K.sorted_faces()
    face_set = K.faces
    out = []
    for face in faces:
        fs = set(face)
        is_max = True
        for v in range(1, K.n + 1):
            if v not in fs and tuple(sorted(fs | {v})) in face_set:
                is_max = False
                break
        if is_max:
            out.append(face)
    return out


def missing_faces(K):
    """Minimal non-faces of cardinality >= 2, as sorted vertex tuples, in
    (cardinality, lex) order.  A minimal non-face is not a face, but every
    proper subset is.

    Candidates are grown from faces of one cardinality less, so sparse
    complexes never trigger a full subset scan.
    """
    found = []
    by_card = {}
    for f in K.faces:
        by_card.setdefault(len(f), set()).add(f)
    for card in range(2, K.n + 1):
        lower = by_card.get(card - 1, set())
        if not lower and card > 2:
            break
        seen = set()
        for face in lower:
            fs = set(face)
            for v in range(1, K.n + 1):
                if v in fs:
                    continue
                cand = tuple(sorted(fs | {v}))
                if cand in seen or cand in K.faces:
                    continue
                seen.add(cand)
                if all(
                    sub in K.faces
                    for sub in itertools.combinations(cand, card - 1)
                ):
                    found.append(cand)
    found.sort(key=lambda mf: (len(mf), mf))
    return found


def is_mf_complex(K):
    """Whether every nonempty face is a proper subset of some missing face.

    Returns ``(True, None)`` or ``(False, witness)`` where the witness is a
    maximal face of K contained in no missing face.  The full simplex has no
    missing faces and is therefore not an MF-complex.
    """
    mf = [set(m) for m in missing_faces(K)]
    for face in maximal_faces(K):
        fs = set(face)
        if not any(fs < m for m in mf):
            return False, face
    return True, None


def is_shifted(K, ordering):
    """Whether K is shifted with respect to the given vertex ordering."""
    ordering = tuple(ordering)
    if sorted(ordering) != list(range(1, K.n + 1)):
        raise ComplexError(f"not a permutation of 1..{K.n}: {ordering}")
    pos = {v: i for i, v in enumerate(ordering)}
    for face in K.faces:
        fs = set(face)
        for v in face:
            for vp in ordering[: pos[v]]:
                if vp in fs:
                    continue
                swapped = tuple(sorted((fs - {v}) | {vp}))
                if swapped not in K.faces:
                    return False
    return True


def is_shifted_any(K):
    """Whether some vertex ordering makes K shifted.

    K is shifted for an ordering exactly when each vertex dominates every
    later one: putting it in place of a later vertex keeps every face a
    face.  Domination is transitive, and a dominating vertex lies in at
    least as many faces, with equality only when the two vertices dominate
    each other.  So one ordering decides: decreasing face count, ties broken
    by label, which is also the lexicographically first witness.  Returns
    ``(True, ordering)`` or ``(False, None)``.
    """
    count = Counter(v for face in K.faces for v in face)
    ordering = tuple(sorted(range(1, K.n + 1), key=lambda v: (-count[v], v)))
    return (True, ordering) if is_shifted(K, ordering) else (False, None)


def skeleton_complex(n, k):
    """The complex on n vertices whose faces are all subsets of size <= n-k.

    For 1 <= k < n-1 this realises the family of sub-skeleta of the simplex
    whose missing faces are exactly the (n-k+1)-subsets; k = n-1 (isolated
    vertices) is also allowed.
    """
    if not (1 <= k <= n - 1):
        raise ComplexError(f"require 1 <= k <= n-1, got n={n}, k={k}")
    top = n - k
    faces = []
    verts = range(1, n + 1)
    for card in range(1, top + 1):
        faces.extend(itertools.combinations(verts, card))
    return SimplicialComplex(n=n, faces=frozenset(faces))


def sphere_grading(dims, n=None):
    """The sphere target's grading (m_1, ..., m_n) as a tuple.

    Coordinate target i is the sphere S^{m_i+1}.  This is the one check of
    the sphere parameters: ``dims`` must be given, must hold n entries when
    a complex fixes n, and every m_i must be >= 1.
    """
    if dims is None:
        raise ComplexError("sphere target requires dims")
    grading = tuple(dims)
    if n is not None and len(grading) != n:
        raise ComplexError(f"expected {n} sphere parameters, got {len(grading)}")
    if any(m < 1 for m in grading):
        raise ComplexError(f"sphere parameters must be >= 1, got {grading}")
    return grading


def face_degree(face, grading):
    """Σ (m_i + 1) − 1 over ``face``: the dimension t_σ of the sphere of the
    higher Whitehead product w_σ, and the degree of a face's model generator."""
    return sum(grading[i - 1] + 1 for i in face) - 1


def j_complement(sigma, n):
    """Sorted complement of the vertex set ``sigma`` in 1..n."""
    s = set(sigma)
    return tuple(v for v in range(1, n + 1) if v not in s)
