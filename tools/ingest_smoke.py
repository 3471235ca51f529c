#!/usr/bin/env python
"""End-to-end ingestion smoke test: CSV round-trip parity + CLI drive.

The ingestion plane's acceptance bar, exercised the way an operator
would hit it:

1. synthesize half a day of Abilene OD traffic, expand it to flow
   records and export them to a CSV flow-record file;
2. parse + bin the CSV back through :class:`repro.ingest.FlowCsvSource`
   and require **byte-identical** OD matrices and identical detection
   events versus aggregating the very same records in memory
   (:func:`repro.ingest.round_trip_check`);
3. repeat with 1-in-2 packet sampling and inversion enabled;
4. repeat the plain round trip with two parse worker processes
   (``IngestConfig(parse_workers=2)``), so the pool's matrices and events
   are held to the in-memory path too, not only its parsed batches;
5. drive the real service CLI (``python -m repro.service --ingest-csv``)
   as a subprocess over the same export and require a clean, uneventful
   exit with every bin processed.

Exit code 0 iff every phase held.  Used by the ``ingest-smoke`` CI job:

    PYTHONPATH=src python tools/ingest_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

from repro.datasets import DatasetConfig, generate_abilene_dataset
from repro.flows.sampling import SamplingConfig
from repro.ingest import IngestConfig, round_trip_check
from repro.streaming import StreamingConfig
from repro.topology import abilene_topology

N_BINS = 144  # half a day of 5-minute bins
SEED = 7
FLOWS_PER_CELL = 2
CONFIG = StreamingConfig(min_train_bins=96, recalibrate_every_bins=48)


def _require(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def _check(name, report):
    print(f"{name}: matrices_identical={report.matrices_identical} "
          f"events={report.n_direct_events}/{report.n_ingest_events} "
          f"max_abs_difference={report.max_abs_difference} "
          f"records={report.n_records_exported}")
    _require(report.ok, f"{name} round trip is not byte-identical")
    _require(report.max_abs_difference == 0.0,
             f"{name} round trip differs by {report.max_abs_difference}")


def main() -> int:
    network = abilene_topology()
    dataset = generate_abilene_dataset(DatasetConfig(weeks=1.0 / 7.0),
                                       seed=SEED)
    series = dataset.series.window(0, N_BINS)

    with tempfile.TemporaryDirectory(prefix="ingest-smoke-") as tmp:
        plain_csv = os.path.join(tmp, "flows.csv")
        _check("plain", round_trip_check(
            series, network, plain_csv, seed=SEED,
            max_flows_per_cell=FLOWS_PER_CELL, streaming_config=CONFIG))
        _check("sampled", round_trip_check(
            series, network, os.path.join(tmp, "sampled.csv"), seed=SEED,
            max_flows_per_cell=FLOWS_PER_CELL,
            sampling=SamplingConfig(sampling_rate=0.5),
            streaming_config=CONFIG))
        # Small parse batches give the pool many more blocks than workers.
        binning = series.binning
        _check("workers", round_trip_check(
            series, network, os.path.join(tmp, "workers.csv"), seed=SEED,
            max_flows_per_cell=FLOWS_PER_CELL, streaming_config=CONFIG,
            ingest_config=IngestConfig(
                bin_seconds=binning.bin_seconds,
                start_seconds=binning.start_seconds,
                n_bins=binning.n_bins, batch_rows=1024, parse_workers=2)))

        # The same export must drive the real CLI end to end.
        process = subprocess.run(
            [sys.executable, "-m", "repro.service",
             "--store", os.path.join(tmp, "events.sqlite"),
             "--ingest-csv", plain_csv,
             "--chunk-size", "48",
             "--min-train-bins", "96",
             "--recalibrate-every-bins", "48"],
            capture_output=True, text=True)
        _require(process.returncode == 0,
                 f"service CLI exited {process.returncode}: "
                 f"{process.stderr.strip()}")
        payload = json.loads(process.stdout.splitlines()[-1])
        print(f"cli: n_bins_processed={payload['n_bins_processed']} "
              f"events_stored={payload['events_stored']}")
        _require(payload["interrupted"] is False, "CLI run was interrupted")
        _require(payload["n_bins_processed"] == N_BINS,
                 f"CLI processed {payload['n_bins_processed']} bins, "
                 f"expected {N_BINS}")

    print("ingest smoke: all phases held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
