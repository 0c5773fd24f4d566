"""Spans around the public entry points of each ``momentangle`` module.

The benchmark wraps functions from outside the package: nothing under
``src/`` knows it is being traced.  A span records its name, start, end and
parent.  Calls that are made very many times inside one layer
(``DGAModel.d_word``, ``IncrementalRank.add``, ``RewritingSystem.normal_form``
and ``commutator``) are leaves: each call is still timed, but its time and
count are summed into the enclosing span instead of stored one by one, which
keeps a traced pass to a few thousand span records.

A span's self time is its duration minus the time its child spans and
leaves cover.  Spans are kept in memory and written when the run ends.
"""

from __future__ import annotations

import json
import sys
import time

# (layer, module, attribute path, leaf?).  Attributes bound elsewhere by
# ``from ... import`` are replaced in every importing module as well.
TARGETS = (
    ("cli", "momentangle.cli", "main", False),
    ("complexes", "momentangle.complexes", "parse_complex", False),
    ("complexes", "momentangle.complexes", "missing_faces", False),
    ("presentations", "momentangle.presentations", "build_cp_presentation", False),
    ("presentations", "momentangle.presentations", "build_sphere_presentation", False),
    ("presentations", "momentangle.presentations", "graded_dimensions", False),
    ("presentations", "momentangle.presentations", "kernel_generator_series", False),
    ("rewriting", "momentangle.rewriting", "RewritingSystem.__init__", False),
    ("rewriting", "momentangle.rewriting", "RewritingSystem.series", False),
    ("rewriting", "momentangle.rewriting", "RewritingSystem.normal_form", True),
    ("tensor", "momentangle.tensor", "commutator", True),
    ("allday", "momentangle.allday", "build_fat_wedge_model", False),
    ("allday", "momentangle.allday", "build_product_model", False),
    ("allday", "momentangle.allday", "check_d_squared", False),
    ("allday", "momentangle.allday", "homology_series", False),
    ("allday", "momentangle.allday", "DGAModel.d_word", True),
    ("linalg", "momentangle.linalg", "sparse_rank", False),
    ("linalg", "momentangle.linalg", "IncrementalRank.__init__", True),
    ("linalg", "momentangle.linalg", "IncrementalRank.add", True),
    ("decompose", "momentangle.decompose", "decompose_cp", False),
    ("decompose", "momentangle.decompose", "decompose_spheres", False),
    ("decompose", "momentangle.decompose", "consistency_report", False),
)

LAYERS = ("cli", "complexes", "presentations", "rewriting", "tensor", "allday",
          "linalg", "decompose")

COMPLETION = "RewritingSystem.__init__"


class _Frame:
    __slots__ = ("index", "start", "child", "leaves")

    def __init__(self, index, start):
        self.index = index
        self.start = start
        self.child = 0.0
        self.leaves = {}


class Tracer:
    """Span recorder plus the counters the per-layer metrics need."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, {leaf: [calls, s]}]
        self.self_s = {}  # span name -> summed self time
        self.leaf_s = {}  # (leaf name, parent span name or None) -> summed time
        self.leaf_calls = {}  # same key -> call count
        self.counts = {}
        self._stack = []
        self._root = _Frame(-1, 0.0)

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def current(self):
        """Name of the innermost open span, or None."""
        return self.spans[self._stack[-1].index][0] if self._stack else None

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, post=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1].index if stack else -1
            frame = _Frame(len(spans), clock())
            spans.append([name, frame.start, None, parent, None])
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(name, frame, end, stack[-1] if stack else self._root)
            if post is not None:
                post(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name, fn, post=None):
        stack, clock, root = self._stack, time.perf_counter, self._root

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            dur = clock() - start
            top = stack[-1] if stack else root
            top.child += dur
            agg = top.leaves.get(name)
            if agg is None:
                top.leaves[name] = [1, dur]
            else:
                agg[0] += 1
                agg[1] += dur
            if post is not None:
                post(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, name, frame, end, parent):
        record = self.spans[frame.index]
        record[2] = end
        record[4] = frame.leaves or None
        dur = end - frame.start
        parent.child += dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame.child
        for leaf, (calls, secs) in frame.leaves.items():
            key = (leaf, name)
            self.leaf_s[key] = self.leaf_s.get(key, 0.0) + secs
            self.leaf_calls[key] = self.leaf_calls.get(key, 0) + calls

    def flush_root(self):
        """Fold leaf calls made outside any span into the leaf totals."""
        for leaf, (calls, secs) in self._root.leaves.items():
            key = (leaf, None)
            self.leaf_s[key] = self.leaf_s.get(key, 0.0) + secs
            self.leaf_calls[key] = self.leaf_calls.get(key, 0) + calls
        self._root.leaves = {}

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every target in the freshly imported ``momentangle`` modules."""
        modules = [m for name, m in sys.modules.items()
                   if name == "momentangle" or name.startswith("momentangle.")]
        for _, modname, path, is_leaf in TARGETS:
            owner = sys.modules[modname]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            make = self.leaf if is_leaf else self.span
            wrapped = make(path, original, _POST.get(path))
            setattr(owner, parts[-1], wrapped)
            if len(parts) == 1:
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    # -- results ----------------------------------------------------------

    def layer_self_s(self):
        """Self time per layer, leaves included in the layer they belong to."""
        layer_of = {path: layer for layer, _, path, _ in TARGETS}
        out = dict.fromkeys(LAYERS, 0.0)
        for name, secs in self.self_s.items():
            out[layer_of[name]] += secs
        for (leaf, _), secs in self.leaf_s.items():
            out[layer_of[leaf]] += secs
        return out

    def leaf_total(self, leaf, parent=Ellipsis):
        """Summed time and calls of a leaf, optionally under one parent span."""
        secs = sum(v for (name, par), v in self.leaf_s.items()
                   if name == leaf and (parent is Ellipsis or par == parent))
        calls = sum(v for (name, par), v in self.leaf_calls.items()
                    if name == leaf and (parent is Ellipsis or par == parent))
        return secs, calls

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "leaves"],
                       "spans": self.spans}, fh)


# -- counters read from arguments and results ---------------------------------

def _post_rank_add(tracer, args, grew):
    tracer.count("linalg.rows")
    tracer.count("linalg.nnz", len(args[1]))
    if grew:
        tracer.count("linalg.rank")


def _post_rank_init(tracer, args, result):
    tracer.count("linalg.matrices")


def _post_completion(tracer, args, result):
    tracer.count("rewriting.rules", len(args[0].rules))


def _post_series(tracer, args, counts):
    tracer.count("rewriting.normal_words", sum(counts))


def _post_normal_form(tracer, args, result):
    # Only reductions outside completion count as bracket normal forms.
    if tracer.current() == COMPLETION:
        return
    tracer.count("rewriting.normal_form_terms", len(result))


def _post_decomposition(tracer, args, dec):
    accepted = sum(1 for s in dec.summands
                   if s.label is not None and s.label.kind == "iterated"
                   and len(s.label.sigma) == 2)
    tracer.count("decompose.rejected", len(dec.rejected))
    tracer.count("decompose.candidates", accepted + len(dec.rejected))


_POST = {
    "IncrementalRank.add": _post_rank_add,
    "IncrementalRank.__init__": _post_rank_init,
    "RewritingSystem.__init__": _post_completion,
    "RewritingSystem.series": _post_series,
    "RewritingSystem.normal_form": _post_normal_form,
    "decompose_cp": _post_decomposition,
    "decompose_spheres": _post_decomposition,
}
