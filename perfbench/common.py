"""Shared constants of the benchmark: paths, workloads, seeds, digests.

The benchmark lives in ``perfbench/`` and drives the library under
``src/repro`` of the same checkout.  Every module here is run with the
checkout root as the working directory (``python3 perfbench/run.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass
from typing import Iterable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Generated inputs, reference aggregations and written spans.  Inside the
#: checkout and ignored by git; inputs are cached per (workload, seed)
#: because the CSV export alone takes ~20 s.
CACHE = os.path.join(ROOT, ".perfbench")


class BenchmarkError(RuntimeError):
    """A condition that makes the run meaningless; the run exits non-zero."""


def use_checkout_library() -> None:
    """Put this checkout's ``src/`` first on the import path.

    Refuses to run without it, so a directory holding only the benchmark
    cannot fall back to some other installed copy of the library.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchmarkError(f"no library at {os.path.join(SRC, 'repro')}; "
                             f"run from the root of a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


@dataclass(frozen=True)
class Workload:
    """Static description of one workload.

    A *pass* streams one whole input through the pipeline with fresh
    detector state; a *round* is one pass over each of the ``n_inputs``
    inputs drawn from the run's seed; a run streams whole rounds until
    its time is up.
    """

    name: str
    chunk_size: int
    n_inputs: int
    weeks: float = 0.0          #: length of a matrix input
    days: int = 0               #: length of the CSV export
    n_pops: int = 0             #: random backbone size (0: Abilene)
    flows_per_cell: int = 0     #: CSV export density
    checkpoint_every: int = 0   #: service checkpoint cadence, chunks


WORKLOADS = {
    w.name: w for w in (
        Workload("abilene-4w", chunk_size=32, n_inputs=6, weeks=4.0),
        Workload("backbone-p529", chunk_size=16, n_inputs=6, weeks=2.0 / 7.0,
                 n_pops=23),
        Workload("csv-service", chunk_size=8, n_inputs=1, days=3,
                 flows_per_cell=2, checkpoint_every=8),
    )
}

def streaming_config():
    """Detector settings of every workload (exact engine, fixed limits)."""
    from repro.streaming import StreamingConfig
    config = StreamingConfig(recalibrate_every_bins=96, min_train_bins=128)
    if config.telemetry:
        raise BenchmarkError("the in-program telemetry plane must stay off")
    return config


def ingest_config(workload: Workload, n_bins: int):
    """CSV ingestion settings of the service workload.

    Parse batches of 4096 rows hold about one chunk of records, so nearly
    every chunk pulls a batch and the median chunk lies inside that mode;
    with the default 8192 rows about half the chunks do, and the median
    falls in the gap between the two modes and jumps from run to run.

    One bin of lateness: the export is in time order, but a parse batch
    can end inside a bin.  With no slack (``lateness_bins=0``, the
    default) the binner seals the batch's last bin at once and drops that
    bin's records from the next batch as late, so the ingested matrices
    no longer equal the in-memory aggregation (at seed 1, 396 of 209088
    records are dropped as late).
    """
    from repro.ingest import IngestConfig
    return IngestConfig(chunk_size=workload.chunk_size, n_bins=n_bins,
                        lateness_bins=1, batch_rows=4096)


def input_seed(seed: int, index: int) -> int:
    """Seed of input *index* of a run seeded with *seed*."""
    import numpy as np
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def event_digest(events: Iterable) -> str:
    """Canonical digest of an event list over its integer-only fields.

    Label, span, bins, OD flows and triggering statistics; order matters
    (events are emitted in stream order).
    """
    h = hashlib.sha256()
    for event in events:
        h.update(json.dumps([event.traffic_label, int(event.start_bin),
                             int(event.end_bin),
                             [int(b) for b in event.bins],
                             sorted(int(f) for f in event.od_flows),
                             sorted(event.statistics)]).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
