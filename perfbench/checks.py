"""Output checks of a run, all made outside the timed loop.

* every pass of one input yields the same event digest (traced and
  untraced passes included);
* events are well formed for the input (bins and OD flows in range);
* the digest equals the one recorded in ``reference.json`` for the seed,
  when the seed is recorded there (``make_reference.py`` writes it);
* on the CSV workload, the ingested matrices equal the in-memory
  aggregation of the very records the CSV holds, and detection over that
  aggregation yields the service's events.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

import numpy as np

from common import Workload, event_digest, ingest_config

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def reference_digests(workload: str, seed: int) -> Optional[List[str]]:
    """Recorded digests of the run's inputs, or ``None`` if not recorded."""
    with open(REFERENCE, encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get(workload, {}).get(str(seed))


def event_problems(events, n_bins: int, p: int) -> List[str]:
    problems = []
    if not events:
        problems.append("the pass produced no events")
    for event in events:
        bins = list(event.bins)
        if not (0 <= event.start_bin <= event.end_bin < n_bins
                and bins == sorted(bins) and bins[0] == event.start_bin
                and bins[-1] == event.end_bin):
            problems.append(f"event span out of range: {event!r}")
        if not all(0 <= f < p for f in event.od_flows):
            problems.append(f"event OD flow out of range: {event!r}")
        if not event.statistics or not event.statistics <= {"spe", "t2"}:
            problems.append(f"event statistics malformed: {event!r}")
    return problems[:5]


def digest_problems(digests: Dict[int, set],
                    reference: Optional[List[str]]) -> List[str]:
    """*digests* maps input index -> set of digests its passes produced."""
    problems = []
    for index, seen in sorted(digests.items()):
        if len(seen) != 1:
            problems.append(f"input {index}: passes disagree on the events "
                            f"({sorted(seen)})")
        elif reference is not None and index < len(reference) \
                and reference[index] not in seen:
            problems.append(f"input {index}: event digest {min(seen)} != "
                            f"reference {reference[index]}")
    return problems


def csv_problems(manifest: dict, workload: Workload, config, network,
                 service_digest: str) -> List[str]:
    """Ingest parity: CSV path ≡ in-memory aggregation of the same records."""
    from repro.flows.timeseries import TrafficMatrixSeries
    from repro.ingest import FlowCsvSource
    from repro.streaming import ChunkedSeriesSource, stream_detect
    from repro.utils.timebins import TimeBinning

    from inputs import load_direct

    direct = load_direct(manifest)
    source = FlowCsvSource(
        os.path.join(manifest["dir"], manifest["inputs"][0]), network=network,
        config=ingest_config(workload, manifest["n_bins"]))
    chunks = list(source)
    problems = []
    if source.stats.parse.records != manifest["records"]:
        problems.append(f"parsed {source.stats.parse.records} records, the "
                        f"export wrote {manifest['records']}")
    for traffic_type, expected in direct.items():
        ingested = np.concatenate([c.matrix(traffic_type) for c in chunks])
        if not np.array_equal(ingested, expected):
            problems.append(f"ingested {traffic_type.value} matrix differs "
                            f"from the in-memory aggregation")
    series = TrafficMatrixSeries(network.od_pairs(),
                                 TimeBinning(n_bins=manifest["n_bins"]),
                                 direct)
    report = stream_detect(ChunkedSeriesSource(series, workload.chunk_size),
                           config=config)
    if event_digest(report.events) != service_digest:
        problems.append("detection over the in-memory aggregation gives "
                        "other events than the service over the CSV")
    return problems
