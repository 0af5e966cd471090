"""Span recording around the public functions of each layer.

The tracer wraps functions from outside the package: it replaces every
module-level reference to a target function with a wrapper that records a
span. Spans stay in memory as tuples (name, start, end, parent, run) and are
written out when the worker ends. Counts that are cheap to take from a call's
arguments or result are taken in the same wrapper, on the tracer's clock,
which stops while the tracer counts: that bookkeeping is in no span's time.
porter_stem is never wrapped per call; its call count comes from the
text_to_terms results.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, function) -> span name. Span names start with their layer.
TARGETS = {
    ("corpus", "load_paragraphs"): "corpus.load_paragraphs",
    ("corpus", "weak_label"): "corpus.weak_label",
    ("corpus", "build_megadocuments"): "corpus.build_megadocuments",
    ("textnorm", "text_to_terms"): "textnorm.text_to_terms",
    ("vectorspace", "fit_tfidf"): "vectorspace.fit_tfidf",
    ("vectorspace", "vectorize_all"): "vectorspace.vectorize_all",
    ("vectorspace", "fit_svd"): "vectorspace.fit_svd",
    ("vectorspace", "project_all"): "vectorspace.project_all",
    ("networks", "train_mlp"): "networks.train_mlp",
    ("networks", "train_rbf"): "networks.train_rbf",
    ("networks", "kmeans"): "networks.kmeans",
    ("networks", "mlp_forward"): "networks.forward",
    ("networks", "rbf_forward"): "networks.forward",
    ("classify", "classify_batch"): "classify.classify_batch",
    ("classify", "score_vectors"): "classify.score_vectors",
    ("classify", "assign"): "classify.assign",
    ("pipeline", "train_pipeline"): "pipeline.train_pipeline",
    ("bundle", "save_bundle"): "bundle.save_bundle",
    ("bundle", "load_bundle"): "bundle.load_bundle",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.run = ""
        self._stack: list[int] = []
        self._paused = 0.0  # seconds spent counting, taken off the clock

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.run))
        self._stack.append(index)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run)

    def _maximum(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def _count(self, name: str, args, result) -> None:
        """Counters taken at the call boundary, while the clock is stopped."""
        c = self.counts
        if name == "corpus.weak_label":
            c["weak_label.attempted"] += len(args[0])
            c["weak_label.labeled"] += len(result.entries)
            c["paragraph_ops"] += len(result.entries)
        elif name == "textnorm.text_to_terms":
            c["text_to_terms.calls"] += 1
            c["porter.stem_calls"] += sum(
                n for term, n in result.items() if " " not in term and "_" not in term
            )
        elif name == "vectorspace.fit_tfidf":
            self._maximum("vocab_size", len(result.vocabulary))
        elif name == "vectorspace.fit_svd":
            n, v = args[0].shape
            # Shape-derived: the dense min(N, V)^2 Gram matrix fit_svd builds.
            self._maximum("svd_workspace_bytes", 8 * min(n, v) ** 2)
        elif name == "vectorspace.project_all":
            k, v = args[0].components.shape
            c["project_all.calls"] += 1
            # Shape-derived: the (k, V) components transpose copied per call.
            c["project_all.bytes"] += 8 * k * v
        elif name == "classify.classify_batch":
            labels, scores = result
            c["classify.paragraphs"] += len(labels)
            c["paragraph_ops"] += len(labels)
            c["classify.other"] += sum(1 for ls in labels if ls[0].value == "Other")
            c["classify.all_unknown"] += int((abs(scores).sum(axis=1) == 0.0).sum())
        elif name == "bundle.save_bundle":
            self._maximum(
                "bundle_bytes",
                sum(p.stat().st_size for p in result.iterdir() if p.is_file()),
            )

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            paused = time.perf_counter()
            self._count(name, args, result)
            self._paused += time.perf_counter() - paused
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_stage(self, stage):
        @contextmanager
        def traced(name: str):
            with self.span(f"pipeline.stage.{name}"):
                with stage(name):
                    yield

        return traced

    def _wrap_adam(self, fn):
        def counted(*args, **kwargs):
            self.counts["adam_steps"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Patch every riskdomains module's references to the target functions."""
        import riskdomains.cli  # noqa: F401  (loads every hot-path module)
        from riskdomains import networks, pipeline

        replacements = {}
        for (module_name, attr), name in TARGETS.items():
            fn = getattr(sys.modules[f"riskdomains.{module_name}"], attr)
            replacements[id(fn)] = (fn, self._wrap(name, fn))
        for fn in (pipeline._stage, networks.adam_step):
            wrapper = self._wrap_stage(fn) if fn is pipeline._stage else self._wrap_adam(fn)
            replacements[id(fn)] = (fn, wrapper)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("riskdomains"):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "maxima": self.maxima,
        }


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def summarize(spans: list) -> tuple[dict, dict, dict]:
    """Inclusive time per span name, self time per span name and per layer.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the worker is single-threaded.
    """
    total: Counter = Counter()
    for name, start, end, parent, run in spans:
        total[name] += end - start
    covered = [0.0] * len(spans)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_by_name: Counter = Counter()
    self_by_layer: Counter = Counter()
    for i, (name, start, end, parent, run) in enumerate(spans):
        own = (end - start) - covered[i]
        self_by_name[name] += own
        self_by_layer[layer_of(name)] += own
    return dict(total), dict(self_by_name), dict(self_by_layer)
