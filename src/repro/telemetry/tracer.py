"""Per-chunk trace spans: monotonic timing, sampled JSON-lines emission.

Every chunk that flows through the streaming stack passes the same stage
sequence — ``ingest → center → update → detect → aggregate`` — plus the
off-cadence ``recalibrate`` and ``checkpoint`` stages.  The
:class:`Tracer` wraps each stage in a :class:`Span` timed with
``time.perf_counter`` and always folds the duration into the registry's
``stage_seconds{stage=...}`` histogram; the *structured record* (a JSON
line per span, written through a pluggable sink) is emitted only for
**sampled** chunks, so tracing overhead stays bounded at any rate.

Sampling is one Bernoulli draw per chunk from a seeded
``random.Random`` — deterministic given ``(seed, chunk order)``, which is
what the determinism tests pin down.  Spans are process-local and
in-flight spans are deliberately *not* checkpointed: restore rebuilds a
fresh tracer (same seed) while the registry's counters survive.
"""

from __future__ import annotations

import io
import json
import os
import random
import threading
from time import perf_counter
from typing import Dict, List, Optional

from repro.telemetry.registry import Histogram, MetricsRegistry
from repro.utils.validation import require

__all__ = ["Span", "Tracer", "JsonLinesSink", "NullSink", "ListSink"]

#: The per-chunk stage sequence (off-cadence stages follow).
CHUNK_STAGES = ("ingest", "center", "update", "detect", "aggregate")
AUX_STAGES = ("recalibrate", "checkpoint")


class NullSink:
    """Discards records; the default when no trace path is configured."""

    def emit(self, record: Dict[str, object]) -> None:
        pass

    def close(self) -> None:
        pass


class ListSink:
    """Collects records in memory — for tests and interactive inspection."""

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []

    def emit(self, record: Dict[str, object]) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class JsonLinesSink:
    """Appends one compact JSON object per span to a file.

    Opened lazily (a run that never samples a chunk never touches the
    file) and line-buffered through a single lock so concurrent spans from
    a driver thread and a checkpoint call interleave whole lines.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._handle: Optional[io.TextIOWrapper] = None

    def emit(self, record: Dict[str, object]) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with self._lock:
            if self._handle is None:
                directory = os.path.dirname(self.path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class Span:
    """One timed stage.  Use as a context manager; re-entry is an error."""

    __slots__ = ("stage", "attrs", "_tracer", "_start", "duration_seconds")

    def __init__(self, tracer: "Tracer", stage: str,
                 attrs: Dict[str, object]) -> None:
        self.stage = stage
        self.attrs = attrs
        self._tracer = tracer
        self._start: Optional[float] = None
        self.duration_seconds: Optional[float] = None

    def __enter__(self) -> "Span":
        if self._start is not None:
            raise ValueError("span already entered")
        self._tracer._active.append(self)
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Inlined rather than delegated: about a dozen spans close per
        # chunk, and each call frame costs a visible share of a chunk.
        self.duration_seconds = duration = perf_counter() - self._start
        tracer = self._tracer
        if self in tracer._active:
            tracer._active.remove(self)
        if tracer._registry is not None:
            histogram = tracer._stage_histograms.get(self.stage)
            if histogram is None:
                histogram = tracer._stage_histogram(self.stage)
            histogram.observe(duration)
        if tracer._chunk_index is None or tracer._chunk_sampled:
            tracer._emit(self, failed=exc_type is not None)


class Tracer:
    """Per-chunk span recorder with seeded sampling.

    ``begin_chunk(chunk_index)`` draws the chunk's single sampling
    decision; subsequent ``span(stage)`` calls inherit it.  Off-cadence
    spans opened outside any chunk (``recalibrate`` during warm-up,
    ``checkpoint``) are always emitted — they are rare and the ones you
    least want to lose.
    """

    def __init__(self, sample_rate: float = 1.0, seed: int = 0,
                 registry: Optional[MetricsRegistry] = None,
                 sink=None) -> None:
        require(0.0 <= sample_rate <= 1.0,
                "sample_rate must lie in [0, 1]")
        self.sample_rate = float(sample_rate)
        self.seed = int(seed)
        self._registry = registry
        self.sink = sink if sink is not None else NullSink()
        self._rng = random.Random(self.seed)
        self._active: List[Span] = []
        # stage -> its ``stage_seconds`` histogram in the registry: spans
        # end several times per chunk, so each stage is looked up once.
        self._stage_histograms: Dict[str, Histogram] = {}
        self._chunk_index: Optional[int] = None
        self._chunk_sampled = False
        self.n_chunks_seen = 0
        self.n_chunks_sampled = 0

    @property
    def registry(self) -> Optional[MetricsRegistry]:
        """The registry fed by every span (fixed at construction)."""
        return self._registry

    # ------------------------------------------------------------------ #
    def begin_chunk(self, chunk_index: int) -> bool:
        """Draw this chunk's sampling decision; returns it."""
        self._chunk_index = int(chunk_index)
        if self.sample_rate >= 1.0:
            self._chunk_sampled = True
        elif self.sample_rate <= 0.0:
            self._chunk_sampled = False
            self._rng.random()  # keep the stream aligned across rates
        else:
            self._chunk_sampled = self._rng.random() < self.sample_rate
        self.n_chunks_seen += 1
        if self._chunk_sampled:
            self.n_chunks_sampled += 1
        return self._chunk_sampled

    def end_chunk(self) -> None:
        self._chunk_index = None
        self._chunk_sampled = False

    @property
    def in_chunk(self) -> bool:
        """Whether a chunk trace is currently open (begin without end)."""
        return self._chunk_index is not None

    def span(self, stage: str, **attrs) -> Span:
        """A new span for *stage*; time it with ``with tracer.span(...)``."""
        return Span(self, stage, attrs)

    @property
    def active_spans(self) -> List[Span]:
        """Spans currently open (in-flight; dropped on checkpoint/restore)."""
        return list(self._active)

    # ------------------------------------------------------------------ #
    def _stage_histogram(self, stage: str) -> Histogram:
        """The ``stage_seconds`` histogram of *stage*, looked up once."""
        histogram = self._registry.histogram(
            "stage_seconds", {"stage": stage},
            help="Per-stage wall time (seconds)")
        self._stage_histograms[stage] = histogram
        return histogram

    def _emit(self, span: Span, failed: bool) -> None:
        """Write a finished span's record to the sink (sampled chunks and
        spans outside any chunk only)."""
        if isinstance(self.sink, NullSink):
            return
        record: Dict[str, object] = {
            "stage": span.stage,
            "duration_seconds": round(span.duration_seconds, 9),
        }
        if self._chunk_index is not None:
            record["chunk"] = self._chunk_index
        if failed:
            record["failed"] = True
        record.update(span.attrs)
        self.sink.emit(record)

    def close(self) -> None:
        self.sink.close()
