"""Spans and counts recorded around calls into the program's layers.

A traced run swaps module attributes of the program (``rd_gbg`` inside
``repro.core.gbabs``, ``make_classifier`` inside ``repro.harness.grid``
and so on) for timing wrappers, and puts the originals back afterwards.
The wrappers call the original with the same arguments and return its
result unchanged, so a traced run computes exactly what an untimed run
computes. Spans nest: each one records its inclusive time and the part
of it covered by child spans, so a layer's self time can be read off.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Any, Callable, Iterator


class Tracer:
    """Accumulates span times and counts by name, in memory."""

    def __init__(self) -> None:
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._children: list[float] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._children.append(0.0)
        t = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t
            covered = self._children.pop()
            self.incl[name] += dur
            self.self_time[name] += dur - covered
            if self._children:
                self._children[-1] += dur

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += int(n)

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_result: Callable[["Tracer", Any], None] | None = None,
    ) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, out)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self, module: Any, attr: str, name: str, on_result=None) -> Iterator[None]:
        """Replace ``module.attr`` by a traced wrapper for the ``with`` body."""
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(original, name, on_result))
        try:
            yield
        finally:
            setattr(module, attr, original)


class _TimedClassifier:
    """Classifier proxy whose ``fit``/``predict`` are spans ``clf.<name>.*``."""

    def __init__(self, inner: Any, name: str, tracer: Tracer) -> None:
        self._inner, self._name, self._tracer = inner, name, tracer

    def fit(self, X, y):
        with self._tracer.span(f"clf.{self._name}.fit"):
            self._inner.fit(X, y)
        return self

    def predict(self, X):
        with self._tracer.span(f"clf.{self._name}.predict"):
            return self._inner.predict(X)


def _count_balls(tracer: Tracer, gbset) -> None:
    tracer.count("rdgbg.balls", len(gbset.balls))
    tracer.count("rdgbg.orphan_balls", sum(b.radius == 0.0 for b in gbset.balls))
    tracer.count("rdgbg.noise_removed", len(gbset.noise_idx))


def _count_pairs(tracer: Tracer, pairs) -> None:
    tracer.count("gbabs.pairs", len(pairs))


def _count_sampled(tracer: Tracer, idx) -> None:
    tracer.count("gbabs.sampled_rows", len(idx))


@contextlib.contextmanager
def core_layers(tracer: Tracer) -> Iterator[None]:
    """Trace RD-GBG and borderline extraction wherever ``repro.core.gbabs`` calls them."""
    import repro.core.gbabs as gbabs

    with contextlib.ExitStack() as stack:
        stack.enter_context(tracer.patched(gbabs, "rd_gbg", "rdgbg", _count_balls))
        stack.enter_context(
            tracer.patched(gbabs, "borderline_pairs", "gbabs.pairs", _count_pairs)
        )
        stack.enter_context(
            tracer.patched(gbabs, "gbabs_from_balls", "gbabs.extract", _count_sampled)
        )
        yield


@contextlib.contextmanager
def grid_layers(tracer: Tracer) -> Iterator[None]:
    """Trace the samplers, classifiers and dataset loads a fold task calls."""
    import repro.harness.grid as grid

    original_make = grid.make_classifier

    def make_classifier(name: str, seed: int = 0):
        return _TimedClassifier(original_make(name, seed=seed), name, tracer)

    with contextlib.ExitStack() as stack:
        stack.enter_context(core_layers(tracer))
        stack.enter_context(tracer.patched(grid, "load_dataset", "datasets.load"))
        for attr, method in (("gbabs_sample", "GBABS"), ("ggbs", "GGBS"), ("srs", "SRS")):
            stack.enter_context(tracer.patched(grid, attr, f"sampler.{method}"))
        grid.make_classifier = make_classifier
        stack.callback(setattr, grid, "make_classifier", original_make)
        yield
