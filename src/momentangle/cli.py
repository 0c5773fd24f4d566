"""Command-line front end.

Subcommands: analyze, decompose, loop-homology, allday, porter, check.
Output is deterministic text, or JSON with --json.  Exit codes: 0 clean,
1 flagged disagreement or failed series factorization, 2 parse or usage
error, 3 violated precondition (a failed d^2 certificate among them) or
exhausted word budget, 4 internal error (a bug, reported in one line).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii

from .allday import (
    ModelError,
    build_fat_wedge_model,
    build_product_model,
    bubenik_series,
    generator_degree_counts,
    homology_series,
)
from .complexes import (
    ComplexError,
    ParseError,
    is_mf_complex,
    is_shifted,
    is_shifted_any,
    missing_faces,
    parse_complex,
)
from .decompose import consistency_report, porter_fnk
from .presentations import (
    abelian_series,
    build_cp_presentation,
    build_sphere_presentation,
    graded_dimensions,
    kernel_generator_series,
)
from .series import FactorizationError, SeriesError
from .tensor import DEFAULT_BUDGET_WORDS, BudgetError

EXIT_OK = 0
EXIT_FLAGGED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _series_text(series):
    return " ".join(str(c) for c in series.coeffs)


def _read_complex(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    return parse_complex(text)


def _dims(text):
    """argparse type for --dims: comma-separated integers, checked by the library."""
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid sphere parameters: {text!r}") from None


def _nonnegative_int(text):
    """argparse type for degree, dimension and budget bounds."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _spheres_text(count, dim):
    return (f"{count}" if count > 1 else "") + f"S^{dim}"


def _wedge_text(dec):
    counts = dec.counts()
    if not counts:
        body = "contractible"
    else:
        body = " v ".join(_spheres_text(counts[dim], dim) for dim in sorted(counts))
    suffix = " (truncated)" if dec.truncated else ""
    return f"Z_K ~ {body}{suffix}"


def _decomposition_lines(dec):
    """The text report: one line per summand record, c copies as cS^d."""
    lines = [_wedge_text(dec)]
    for s in dec.summands:
        label = s.label.text(dec.target) if s.label is not None else f"<{s.provenance}>"
        lines.append(f"{_spheres_text(s.count, s.dimension)}: {label}")
    for dim, routes in dec.flags:
        cells = " ".join(f"{name}={count}" for name, count in routes)
        lines.append(f"FLAG dim {dim}: {cells}")
    return lines


def cmd_analyze(args):
    K = _read_complex(args.input)
    mfs = missing_faces(K)
    ok, witness = is_mf_complex(K)
    shifted_id = is_shifted(K, tuple(range(1, K.n + 1)))
    shifted_any, ordering = is_shifted_any(K)
    doc = {
        "vertices": K.n,
        "face_counts": {str(k): v for k, v in K.face_counts().items()},
        "missing_faces": [list(m) for m in mfs],
        "is_mf_complex": ok,
        "witness": list(witness) if witness is not None else None,
        "shifted_identity": shifted_id,
        "shifted_any": shifted_any,
        "shifted_ordering": list(ordering) if ordering is not None else None,
    }
    lines = [
        f"vertices: {K.n}",
        "face counts: "
        + " ".join(f"{k}:{v}" for k, v in K.face_counts().items()),
        "MF(K): " + " ".join("(" + ",".join(map(str, m)) + ")" for m in mfs),
        "MF-complex: " + ("yes" if ok else f"no (witness face ({','.join(map(str, witness))}))"),
        f"shifted(identity): {'yes' if shifted_id else 'no'}",
    ]
    if shifted_any:
        lines.append("shifted(any): yes (ordering " + " ".join(map(str, ordering)) + ")")
    else:
        lines.append("shifted(any): no")
    return EXIT_OK, doc, lines


def cmd_decompose(args):
    K = _read_complex(args.input)
    dec = consistency_report(K, args.target, args.dims, args.max_dim, args.budget_words)
    code = EXIT_FLAGGED if dec.flags else EXIT_OK
    # Build only the rendering that main prints.
    if args.json:
        return code, dec.to_json_dict(K), None
    return code, None, _decomposition_lines(dec)


def _relation_text(rel):
    terms = []
    for word, coeff in rel.sorted_terms():
        mono = "*".join(word)
        if coeff == 1:
            terms.append(f"+ {mono}")
        elif coeff == -1:
            terms.append(f"- {mono}")
        else:
            sign = "+" if coeff > 0 else "-"
            terms.append(f"{sign} {abs(coeff)}*{mono}")
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else text


def cmd_loop_homology(args):
    K = _read_complex(args.input)
    p = (build_cp_presentation(K) if args.target == "cp"
         else build_sphere_presentation(K, args.dims))
    D = args.max_degree
    total = graded_dimensions(p, D, budget_words=args.budget_words)
    lines = ["generators:"]
    for g in p.generators:
        lines.append(f"  {g.name} degree {g.degree}")
    lines.append("relations:")
    for rel in p.relations:
        lines.append(f"  {_relation_text(rel)} = 0")
    lines.append(f"graded dimensions (degrees 0..{D}): {_series_text(total)}")
    doc = p.to_json_dict()
    doc["graded_dimensions"] = list(total.coeffs)
    code = EXIT_OK
    try:
        g_series = kernel_generator_series(total, abelian_series(p, D))
        lines.append(f"kernel generator series (degrees 0..{D}): {_series_text(g_series)}")
        doc["kernel_generator_series"] = list(g_series.coeffs)
    except FactorizationError as exc:
        lines.append(f"kernel factorization failed: {exc}")
        doc["kernel_generator_series"] = None
        doc["factorization_error"] = {"degree": exc.degree, "message": str(exc)}
        code = EXIT_FLAGGED
    return code, doc, lines


def cmd_allday(args):
    build = build_product_model if args.model == "product" else build_fat_wedge_model
    D = args.max_degree
    # The closed form refuses fewer than 3 spheres; that is said before
    # the model is built and its homology computed.
    if args.check_bubenik:
        b = bubenik_series(args.dims, args.convention != "polynomial-all", D)
    # homology_series reads only the generators of degree <= D + 1; it
    # certifies d^2 = 0 there, and raises ModelError with a witness if not.
    model = build(args.dims, D + 1)
    h = homology_series(model, D, args.budget_words)
    degree_counts = generator_degree_counts(model.dims, args.model == "product")
    lines = [
        "generator degrees: " + " ".join(f"{d}:{c}" for d, c in degree_counts.items()),
        "d^2=0: ok",
    ]
    doc = {
        "dims": list(model.dims),
        "model": args.model,
        "generator_degree_counts": {str(d): c for d, c in degree_counts.items()},
        "d_squared_zero": True,
    }
    code = EXIT_OK
    lines.append(f"homology series (degrees 0..{D}): {_series_text(h)}")
    doc["homology_series"] = list(h.coeffs)
    if args.check_bubenik:
        agree = h == b
        lines.append(f"Bubenik closed form (degrees 0..{D}): {_series_text(b)}")
        lines.append("homology == Bubenik closed form: " + ("ok" if agree else "MISMATCH"))
        doc["bubenik_series"] = list(b.coeffs)
        doc["bubenik_agrees"] = agree
        if not agree:
            code = EXIT_FLAGGED
    return code, doc, lines


def cmd_porter(args):
    dec = porter_fnk(args.n, args.k, args.target, args.dims, args.max_dim)
    return EXIT_OK, dec.to_json_dict(), _decomposition_lines(dec)


def cmd_check(args):
    K = _read_complex(args.input)
    dec = consistency_report(K, args.target, args.dims, args.max_dim, args.budget_words)
    flagged = {dim for dim, _ in dec.flags}
    lines = []
    verdicts = []
    for dim, routes in dec.routes:
        verdict = "mismatch" if dim in flagged else "agree"
        verdicts.append({"dimension": dim, "verdict": verdict})
        cells = " ".join(f"{name}={count}" for name, count in routes)
        lines.append(f"dim {dim}: {cells} -> {verdict}")
    lines.append("verdict: " + ("mismatch" if flagged else "all routes agree"))
    doc = {
        "target": dec.target,
        "max_dim": dec.max_dim,
        "table": [{"dimension": d, "routes": dict(routes)} for d, routes in dec.routes],
        "verdicts": verdicts,
    }
    return (EXIT_FLAGGED if flagged else EXIT_OK), doc, lines


@functools.cache
def build_parser():
    """The argument parser, built once per process: building it costs more
    than twenty parses."""
    parser = argparse.ArgumentParser(
        prog="momentangle",
        description="Exact loop-homology and wedge-decomposition calculator "
        "for missing-face simplicial complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, input_file=True, budget=True, target=True, dims=True):
        # With --target, --dims grades the sphere target; without, it is the
        # whole input and required.
        if input_file:
            p.add_argument("input", help="complex description file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if budget:
            p.add_argument("--budget-words", type=_nonnegative_int,
                           default=DEFAULT_BUDGET_WORDS,
                           help="word-count budget per computation")
        if target:
            p.add_argument("--target", choices=("cp", "spheres"), default="cp")
        if dims:
            p.add_argument("--dims", type=_dims, required=not target,
                           help="comma-separated sphere parameters m_i")
        p.set_defaults(func=func, usage_error=p.error)

    p = sub.add_parser("analyze", help="classify a complex")
    common(p, cmd_analyze, budget=False, target=False, dims=False)

    p = sub.add_parser("decompose", help="sphere-wedge decomposition")
    common(p, cmd_decompose)
    p.add_argument("--max-dim", type=_nonnegative_int, default=None)

    p = sub.add_parser("loop-homology", help="presentation and graded dimensions")
    common(p, cmd_loop_homology)
    p.add_argument("--max-degree", type=_nonnegative_int, default=10)

    p = sub.add_parser("allday", help="differential graded model of a fat wedge or product")
    common(p, cmd_allday, input_file=False, target=False)
    p.add_argument("--model", choices=("fat-wedge", "product"), default="fat-wedge")
    p.add_argument("--max-degree", type=_nonnegative_int, default=10)
    p.add_argument("--check-bubenik", action="store_true",
                   help="compare homology with the fat wedge's closed-form series")
    p.add_argument("--convention", choices=("exterior-on-odd", "polynomial-all"),
                   help="the closed form's convention for --check-bubenik "
                   "(default exterior-on-odd)")

    p = sub.add_parser("porter", help="skeleton-family closed-form decomposition")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    common(p, cmd_porter, input_file=False, budget=False)
    p.add_argument("--max-dim", type=_nonnegative_int, default=None)

    p = sub.add_parser("check", help="cross-route consistency report")
    common(p, cmd_check)
    p.add_argument("--max-dim", type=_nonnegative_int, default=8)

    return parser


def json_text(doc, indent=""):
    """``json.dumps(doc, indent=2)`` for the documents the reports build.

    The standard encoder runs in pure Python when it indents.  This one
    joins strings: dicts with str keys, lists, str, int, bool and None;
    any other type raises TypeError.
    """
    t = type(doc)
    if t is str:
        return encode_basestring_ascii(doc)
    if t is int:
        return int.__repr__(doc)
    if t is bool:
        return "true" if doc else "false"
    if doc is None:
        return "null"
    if t is not dict and t is not list:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    if not doc:
        return "{}" if t is dict else "[]"
    inner = indent + "  "
    if t is dict:
        items = [encode_basestring_ascii(k) + ": " + json_text(v, inner) for k, v in doc.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    items = [json_text(v, inner) for v in doc]
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # Combinations that parse but mean nothing are usage errors too.
    if getattr(args, "target", None) == "cp" and args.dims is not None:
        args.usage_error("--dims grades the sphere target; it needs --target spheres")
    if getattr(args, "model", None) == "product" and args.check_bubenik:
        args.usage_error("--check-bubenik compares with the fat wedge, not --model product")
    if getattr(args, "convention", None) is not None and not args.check_bubenik:
        args.usage_error("--convention only sets the closed form of --check-bubenik")
    try:
        code, doc, lines = args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FactorizationError as exc:
        print(f"error: factorization failed: {exc}", file=sys.stderr)
        return EXIT_FLAGGED
    except BudgetError as exc:
        print(f"error: budget exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ComplexError, ModelError, SeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        if args.json:
            print(json_text(doc))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (``... | head``).  Point stdout at
        # devnull, as the ``signal`` module docs advise, so that the flush at
        # interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
