"""Per-layer timing of a traced run, from wrappers outside the library.

Each layer is a set of public functions or methods of one module.  The
traced run replaces each of them, where its caller looks the name up, by
a wrapper that records a span (layer, start, end, parent span, pass,
chunk) in memory; nothing under ``src/`` changes.  A span's self time is
its duration minus the time its child spans cover, so the layers' self
times plus the time outside every span add up to the traced wall time.

Coverage is checked loudly: a wrapped name that no longer exists, or a
layer with no calls on a workload that must exercise it, aborts the run
instead of reading as a free layer.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from common import BenchmarkError

clock = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``module.attr`` or ``module.Class.method``."""

    module: str
    attr: str
    #: ``count(counts, args, kwargs, result)`` after each call (for a
    #: generator: after each item).
    count: Optional[Callable] = None
    generator: bool = False
    #: ``exhausted(counts, args, kwargs)`` when a generator runs out.
    exhausted: Optional[Callable] = None


def _n_results(key):
    def count(counts, args, kwargs, result):
        counts[key] += len(result)
    return count


def _flagged(counts, args, kwargs, result):
    counts["flagged_bins"] += len(result.detections)


def _batch(counts, args, kwargs, batch):
    counts["batches"] += 1
    counts["records"] += batch.n_records


def _parse_done(counts, args, kwargs):
    stats = kwargs.get("stats")
    if stats is not None:
        counts["bad_rows"] += stats.bad_rows


def _binner_done(counts, args, kwargs, result):
    counts["chunks"] += len(result)
    counts["dropped_records"] += args[0].stats.dropped


def _store_write(counts, args, kwargs, result):
    counts["writes"] += 1
    counts["new"] += bool(result)


def _checkpoint_bytes(counts, args, kwargs, result):
    directory = str(result)
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    # The arrays file plus the current and the generation manifest.
    counts["bytes"] += (os.path.getsize(os.path.join(
        directory, manifest["arrays_file"]))
        + 2 * os.path.getsize(manifest_path))


#: layer -> wrapped names.  Names are patched in the module the *caller*
#: resolves them from (the detector imports the identification and limit
#: functions into its own namespace, the service runner imports
#: ``save_checkpoint``, the CSV source imports ``read_flow_batches``).
LAYERS: Dict[str, Tuple[Target, ...]] = {
    "core.identification.t2": (
        Target("repro.streaming.detector", "identify_t2_flows",
               _n_results("flows")),),
    "core.identification.spe": (
        Target("repro.streaming.detector", "identify_spe_flows",
               _n_results("flows")),),
    "streaming.online_pca.eigh": (
        Target("repro.streaming.online_pca", "eigh_descending"),),
    "streaming.online_pca.update": (
        Target("repro.streaming.online_pca", "OnlinePCA.partial_fit"),),
    "core.limits": (
        Target("repro.streaming.detector", "control_limits"),),
    "streaming.detector": (
        Target("repro.streaming.detector",
               "StreamingSubspaceDetector.process_chunk", _flagged),),
    "streaming.aggregator": (
        Target("repro.streaming.aggregator", "OnlineEventAggregator.add"),
        Target("repro.streaming.aggregator", "OnlineEventAggregator.advance",
               _n_results("events")),
        Target("repro.streaming.aggregator", "OnlineEventAggregator.flush",
               _n_results("events")),),
    "ingest.csv_io": (
        Target("repro.ingest.source", "read_flow_batches", _batch,
               generator=True, exhausted=_parse_done),),
    "ingest.binning": (
        Target("repro.ingest.binning", "FlowRecordBinner.add_batch",
               _n_results("chunks")),
        Target("repro.ingest.binning", "FlowRecordBinner.finish",
               _binner_done),),
    "service.store": (
        Target("repro.service.store", "EventStore.add_event", _store_write),),
    "streaming.checkpoint": (
        Target("repro.service.runner", "save_checkpoint",
               _checkpoint_bytes),),
}

#: Layers that must record calls on a workload, or the run aborts.
REQUIRED = {
    "abilene-4w": ("core.identification.t2", "core.identification.spe",
                   "streaming.online_pca.eigh", "core.limits",
                   "streaming.detector", "streaming.aggregator"),
    "backbone-p529": ("core.identification.t2", "core.identification.spe",
                      "streaming.online_pca.eigh",
                      "streaming.online_pca.update", "core.limits",
                      "streaming.detector", "streaming.aggregator"),
    "csv-service": ("ingest.csv_io", "ingest.binning", "service.store",
                    "streaming.checkpoint", "streaming.detector"),
}

# (layer, self-time metric, share metric, {count key: metric}).
_METRICS = (
    ("core.identification.t2", "core.identification.t2_s",
     "core.identification.t2_share",
     {"calls": "core.identification.t2_calls",
      "flows": "core.identification.t2_flows"}),
    ("core.identification.spe", "core.identification.spe_s",
     "core.identification.spe_share",
     {"calls": "core.identification.spe_calls",
      "flows": "core.identification.spe_flows"}),
    ("streaming.online_pca.eigh", "streaming.online_pca.eigh_s",
     "streaming.online_pca.eigh_share",
     {"calls": "streaming.online_pca.eigh_calls"}),
    ("streaming.online_pca.update", "streaming.online_pca.update_s",
     "streaming.online_pca.update_share",
     {"calls": "streaming.online_pca.update_calls"}),
    ("core.limits", "core.limits.s", "core.limits.share",
     {"calls": "core.limits.calls"}),
    ("streaming.detector", "streaming.detector.self_s",
     "streaming.detector.self_share",
     {"flagged_bins": "streaming.detector.flagged_bins"}),
    ("streaming.aggregator", "streaming.aggregator.s",
     "streaming.aggregator.share", {"events": "streaming.aggregator.events"}),
    ("ingest.csv_io", "ingest.csv_io.s", "ingest.csv_io.share",
     {"batches": "ingest.csv_io.batches", "records": "ingest.csv_io.records",
      "bad_rows": "ingest.csv_io.bad_rows"}),
    ("ingest.binning", "ingest.binning.s", "ingest.binning.share",
     {"chunks": "ingest.binning.chunks",
      "dropped_records": "ingest.binning.dropped_records"}),
    ("service.store", "service.store.s", "service.store.share",
     {"writes": "service.store.writes"}),
    ("streaming.checkpoint", "streaming.checkpoint.s",
     "streaming.checkpoint.share",
     {"calls": "streaming.checkpoint.calls",
      "bytes": "streaming.checkpoint.bytes"}),
)


class Tracer:
    """In-memory span recorder plus per-layer counters."""

    def __init__(self) -> None:
        #: [layer, start, end, parent span index, pass, chunk]
        self.spans: List[list] = []
        self.counts: Dict[str, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self.chunk = -1
        self.pass_index = -1
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #
    def _open(self, layer: str) -> list:
        stack = self._stack
        span = [layer, clock(), 0.0, stack[-1] if stack else -1,
                self.pass_index, self.chunk]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = clock()
        self._stack.pop()

    def _wrap(self, layer: str, target: Target, original):
        counts = self.counts[layer]
        count, exhausted = target.count, target.exhausted

        def traced(*args, **kwargs):
            span = self._open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            counts["calls"] += 1
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        def traced_generator(*args, **kwargs):
            iterator = original(*args, **kwargs)
            counts["calls"] += 1
            while True:
                span = self._open(layer)
                try:
                    item = next(iterator)
                except StopIteration:
                    self._close(span)
                    if exhausted is not None:
                        exhausted(counts, args, kwargs)
                    return
                except BaseException:
                    self._close(span)
                    raise
                self._close(span)
                count(counts, args, kwargs, item)
                yield item

        return traced_generator if target.generator else traced

    def install(self) -> None:
        """Patch every layer target; raise if one no longer exists."""
        if self._saved:
            raise BenchmarkError("tracer already installed")
        missing = []
        for layer, targets in LAYERS.items():
            for target in targets:
                try:
                    owner, name, original = _resolve(target)
                except (ImportError, AttributeError) as exc:
                    missing.append(f"{layer}: {target.module}.{target.attr} "
                                   f"({exc})")
                    continue
                had_own = name in vars(owner)
                self._saved.append((owner, name, had_own,
                                    vars(owner).get(name)))
                setattr(owner, name, self._wrap(layer, target, original))
        if missing:
            self.uninstall()
            raise BenchmarkError("traced names no longer exist, update "
                                 "perfbench/layers.py: " + "; ".join(missing))

    def uninstall(self) -> None:
        for owner, name, had_own, original in reversed(self._saved):
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._saved.clear()

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[str, Tuple[float, float]]:
        """layer -> (self seconds, inclusive seconds)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])
        for index, span in enumerate(spans):
            duration = span[2] - span[1]
            own = duration - child[index]
            if own < -1e-9:
                raise BenchmarkError(f"span {index} ({span[0]}) is shorter "
                                     f"than its children")
            totals[span[0]][0] += own
            parent = span[3]
            if parent < 0 or spans[parent][0] != span[0]:
                totals[span[0]][1] += duration
        return {layer: (own, inclusive)
                for layer, (own, inclusive) in totals.items()}

    def check_coverage(self, workload: str) -> None:
        idle = [layer for layer in REQUIRED[workload]
                if not self.counts[layer]["calls"]]
        if idle:
            raise BenchmarkError(
                f"layers recorded no calls on {workload}: {', '.join(idle)}; "
                f"a wrapped name is no longer on the path the workload runs")

    def metrics(self, wall_seconds: float, overhead: float) -> Dict[str, tuple]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        times = self.self_times()
        out: Dict[str, tuple] = {}
        attributed = 0.0
        for layer, time_name, share_name, count_names in _METRICS:
            own = times.get(layer, (0.0, 0.0))[0]
            attributed += own
            out[time_name] = (own, "s")
            out[share_name] = (own / wall_seconds, "ratio")
            for key, name in count_names.items():
                out[name] = (self.counts[layer][key],
                             "bytes" if key == "bytes" else "count")
        out["streaming.detector.detect_s"] = (
            times.get("streaming.detector", (0.0, 0.0))[1], "s")
        store = self.counts["service.store"]
        out["service.store.new_ratio"] = (
            store["new"] / store["writes"] if store["writes"] else 0.0,
            "ratio")
        unattributed = (wall_seconds - attributed) / wall_seconds
        if unattributed < -1e-6:
            raise BenchmarkError("layer self times exceed the traced wall "
                                 "time; spans overlap")
        shares = sum(out[share][0] for _, _, share, _ in _METRICS)
        if abs(shares + unattributed - 1.0) > 1e-9:
            raise BenchmarkError("layer shares do not add up to 1")
        out["trace.unattributed_share"] = (unattributed, "ratio")
        out["trace.overhead"] = (overhead, "ratio")
        return out

    def write(self, path: str, header: dict) -> None:
        """Write the spans as JSON lines after a header line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "fields": [
                "layer", "start_s", "end_s", "parent", "pass", "chunk"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def _resolve(target: Target):
    """``(owner, attribute name, current value)`` of a target."""
    owner = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)
