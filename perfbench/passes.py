"""One pass of a workload: a whole input streamed through the pipeline.

Every pass drives the library's public entry points in a closed loop —
the next chunk is pulled only after the previous one is done — and
stamps the clock at each pull.  A chunk's service time runs from its
pull to the next pull, so it holds the wait on the source, detection,
fusion and, on the service path, store writes and checkpoints.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import List

from common import CACHE, Workload, event_digest, ingest_config

clock = time.perf_counter


@dataclass
class PassResult:
    seconds: float                      #: first pull to last event stored
    chunk_seconds: List[float] = field(default_factory=list)
    bins: int = 0
    records: int = 0                    #: input records consumed
    events: list = field(default_factory=list)
    digest: str = ""
    bad_chunks: int = 0                 #: quarantined by the detector
    problems: List[str] = field(default_factory=list)


class _Pulls:
    """Clock stamps at every pull; tells the tracer which chunk is current."""

    def __init__(self, tracer=None) -> None:
        self.stamps: List[float] = []
        self._tracer = tracer

    def stamp(self) -> None:
        if self._tracer is not None:
            self._tracer.chunk = len(self.stamps)
        self.stamps.append(clock())

    def wrap(self, source):
        iterator = iter(source)
        while True:
            self.stamp()
            chunk = next(iterator, None)
            if chunk is None:
                return
            yield chunk

    def chunk_seconds(self) -> List[float]:
        return [b - a for a, b in zip(self.stamps, self.stamps[1:])]


def stream_pass(series, workload: Workload, config,
                tracer=None) -> PassResult:
    """``chunk_series`` → ``StreamingNetworkDetector`` over one series."""
    from repro.streaming import StreamingNetworkDetector, chunk_series

    detector = StreamingNetworkDetector(config)
    pulls = _Pulls(tracer)
    source = pulls.wrap(chunk_series(series, workload.chunk_size))
    start = clock()
    for chunk in source:
        detector.process_chunk(chunk)
    report = detector.finish()
    seconds = clock() - start
    # One record per (bin, OD flow, traffic type) cell of the input.
    records = (report.n_bins_processed * len(series.od_pairs)
               * len(series.traffic_types))
    return PassResult(seconds, pulls.chunk_seconds(),
                      report.n_bins_processed, records, list(report.events),
                      event_digest(report.events), report.n_bad_chunks)


def service_pass(manifest: dict, workload: Workload, config, network,
                 tracer=None) -> PassResult:
    """``FlowCsvSource`` → ``DetectionService`` with an on-disk store.

    The service gets a fresh store and checkpoint directory, so it starts
    a new run instead of resuming the previous pass.
    """
    from repro.ingest import FlowCsvSource
    from repro.service import DetectionService, EventStore

    workdir = os.path.join(CACHE, "work", str(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        source = FlowCsvSource(
            os.path.join(manifest["dir"], manifest["inputs"][0]),
            network=network,
            config=ingest_config(workload, manifest["n_bins"]))
        store = EventStore(os.path.join(workdir, "events.sqlite"))
        service = DetectionService(
            config, store=store, checkpoint_dir=os.path.join(workdir, "ckpt"),
            checkpoint_every_chunks=workload.checkpoint_every)
        pulls = _Pulls(tracer)
        start = clock()
        outcome = service.run(pulls.wrap(source))
        seconds = clock() - start
        report = outcome.report
        result = PassResult(seconds, pulls.chunk_seconds(),
                            report.n_bins_processed,
                            source.stats.parse.records, list(report.events),
                            event_digest(report.events), report.n_bad_chunks)
        stored = sorted((row.to_event() for row in store.query()),
                        key=_event_order)
        if event_digest(stored) != event_digest(sorted(report.events,
                                                       key=_event_order)):
            result.problems.append("the event store does not hold exactly "
                                   "the events the service reported")
        if outcome.interrupted:
            result.problems.append("the service stopped before the end")
        service.close()
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _event_order(event):
    return (event.start_bin, event.end_bin, event.traffic_label,
            sorted(event.od_flows))


def run_pass(workload: Workload, manifest: dict, index: int, config,
             loaded: dict, tracer=None) -> PassResult:
    """Run input *index* of *workload*; *loaded* caches parsed inputs."""
    if workload.days:
        return service_pass(manifest, workload, config, loaded["network"],
                            tracer)
    return stream_pass(loaded["series"], workload, config, tracer)


def pass_error(exc: BaseException) -> PassResult:
    return PassResult(0.0, problems=[f"pass raised {type(exc).__name__}: "
                                     f"{exc}"])
