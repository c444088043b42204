"""Spans and counters recorded around the benchmark's calls into fstchain.

A span is opened around each call the benchmark makes into a public
function of one fstchain module (the layer) and around each benchmark
operation (layer ``op``), which is the parent of the calls it makes.
While tracing is on, ``numpy.linalg.eigh`` and ``numpy.linalg.det`` are
wrapped so that every eigendecomposition and every matrix of a
determinant batch is counted against the innermost open layer span.
With tracing off, ``call`` is a plain call and nothing is recorded.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("synthesis", "propagator", "gates", "protocols", "device", "cli")
COUNTERS = ("eigh_calls", "det_count")


class Tracer:
    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: list = []
        self.counts = {(layer, c): 0 for layer in LAYERS for c in COUNTERS}
        self.extra: dict = {}
        self._stack: list = []
        self._restore: list = []

    # -- spans ---------------------------------------------------------

    @contextmanager
    def span(self, layer: str, name: str):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "layer": layer,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(layer, f"{layer}.{fn.__name__}"):
            return fn(*args, **kwargs)

    def op(self, name: str):
        return self.span("op", name)

    def add(self, name: str, amount: float = 1) -> None:
        """Bump a named counter (kept whether or not spans are recorded)."""
        self.extra[name] = self.extra.get(name, 0) + amount

    # -- numpy counters --------------------------------------------------

    def _bump(self, counter: str, amount: int) -> None:
        for rec in reversed(self._stack):
            if rec["layer"] in LAYERS:
                self.counts[(rec["layer"], counter)] += amount
                return

    def __enter__(self):
        if self.enabled:
            eigh, det = np.linalg.eigh, np.linalg.det

            def counted_eigh(*args, **kwargs):
                self._bump("eigh_calls", 1)
                return eigh(*args, **kwargs)

            def counted_det(a, *args, **kwargs):
                shape = np.shape(a)
                self._bump("det_count", int(np.prod(shape[:-2], dtype=np.int64)))
                return det(a, *args, **kwargs)

            np.linalg.eigh, np.linalg.det = counted_eigh, counted_det
            self._restore = [("eigh", eigh), ("det", det)]
        return self

    def __exit__(self, *exc):
        for name, fn in self._restore:
            setattr(np.linalg, name, fn)
        self._restore = []
        return False

    # -- summary ---------------------------------------------------------

    def layer_summary(self) -> dict:
        """Per-layer calls, self time (span time minus child spans) and
        numpy counts for the spans recorded so far."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out = {}
        for layer in LAYERS:
            recs = [r for r in self.spans if r["layer"] == layer]
            out[f"{layer}.calls"] = len(recs)
            out[f"{layer}.self_s"] = sum(
                r["end"] - r["start"] - child_time[r["id"]] for r in recs
            )
            for c in COUNTERS:
                out[f"{layer}.{c}"] = self.counts[(layer, c)]
        return out
