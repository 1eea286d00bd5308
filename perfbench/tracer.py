"""In-process span tracer that wraps adlink's public functions from outside.

Nothing under ``src/`` is edited: :func:`traced` replaces each listed
function, in every loaded ``adlink`` module that holds a reference to it, by
a wrapper that records a span (name, start, end, parent) and the counts named
below, and puts the originals back on exit. Replacing the name in every
module matters because ``from .x import f`` binds ``f`` in the importer,
where a patch of ``x.f`` alone would leave its calls uncounted.

``unionfind`` gets no span: its calls are too many and too small to wrap
without swamping them; its cost shows in the self time of
``resolve.connected_components`` and ``surrogate.build_strong_graph``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (home module, attribute, span name, counter -> amount(args, result))
FUNCTIONS = [
    ("adlink.cli", "run_stage", lambda a: f"cli.stage.{a[0]}", None),
    ("adlink.corpus", "load_corpus", "corpus.load_corpus", None),
    ("adlink.extract", "extract_fields", "extract.extract_fields", None),
    ("adlink.extract", "tokenize", "extract.tokenize", None),
    ("adlink.surrogate", "build_strong_graph", "surrogate.build_strong_graph", None),
    ("adlink.surrogate", "sample_pairs", "surrogate.sample_pairs", None),
    ("adlink.blocking", "build_blocks", "blocking.build_blocks", None),
    ("adlink.blocking", "candidate_pairs", "blocking.candidate_pairs",
     ("blocking.candidates_emitted", lambda a, r: len(r))),
    ("adlink.matchmodel", "train_forest", "matchmodel.train_forest", None),
    ("adlink.matchmodel", "predict_proba", "matchmodel.predict_proba",
     ("matchmodel.rows_predicted", lambda a, r: len(r))),
    ("adlink.resolve", "score_candidates", "resolve.score_candidates", None),
    ("adlink.resolve", "threshold_sweep", "resolve.threshold_sweep", None),
    ("adlink.resolve", "connected_components", "resolve.connected_components", None),
    ("adlink.clusterfeat", "featurize_component", "clusterfeat.featurize_component", None),
    ("adlink.clusterfeat", "train_cluster_classifier", "clusterfeat.train_cluster_classifier", None),
    ("adlink.clusterfeat", "learn_rules", "clusterfeat.learn_rules", None),
]

# (class home module, class, method, span name, counter)
METHODS = [
    ("adlink.pairfeat", "PairFeaturizer", "__init__", "pairfeat.featurizer_init", None),
    ("adlink.pairfeat", "PairFeaturizer", "matrix", "pairfeat.matrix",
     ("pairfeat.pairs_featurized", lambda a, r: len(r))),
]


class Tracer:
    """Spans as ``[name, start, end, parent index]`` plus summed counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, name, counter=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span_name = name(args) if callable(name) else name
            spans.append([span_name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                counts[counter[0]] += counter[1](args, result)
            return result

        return wrapper

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Per span name: inclusive seconds, self seconds, call count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl: dict[str, float] = Counter()
        self_s: dict[str, float] = Counter()
        calls: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            incl[name] += end - start
            self_s[name] += end - start - covered
            calls[name] += 1
        return incl, self_s, calls


def _replace_everywhere(original, replacement, undo: list) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if not (mod_name == "adlink" or mod_name.startswith("adlink.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    undo: list = []
    try:
        for home, attr, name, counter in FUNCTIONS:
            original = getattr(sys.modules[home], attr)
            _replace_everywhere(original, tracer.wrap(original, name, counter), undo)
        for home, cls_name, meth, name, counter in METHODS:
            cls = getattr(sys.modules[home], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(original, name, counter))
            undo.append((cls, meth, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def per_call_overhead(n: int = 50_000) -> float:
    """Seconds one wrapper adds to a call, from timing a wrapped no-op."""

    def noop():
        return None

    wrapped = Tracer().wrap(noop, "noop")
    clock = time.perf_counter
    t0 = clock()
    for _ in range(n):
        noop()
    bare = clock() - t0
    t0 = clock()
    for _ in range(n):
        wrapped()
    return max(0.0, (clock() - t0 - bare) / n)
