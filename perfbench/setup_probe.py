"""Set-up time probe, run as a fresh process by ``run.py``.

Usage: ``python3 perfbench/setup_probe.py <workload> <input dir> <work
dir>``.  Imports the library, builds what a deployment builds
before its first chunk (topology, detector; for the service also the CSV
source with its resolver, the event store and the service), pulls the
first chunk and prints, as JSON, the monotonic clock at that hand-over
and the time spent loading the pre-generated input, which the parent
subtracts.  Input generation is not part of it.
"""

import json
import os
import sys
import time

from common import (WORKLOADS, ingest_config, streaming_config,
                    use_checkout_library)


def main(argv) -> int:
    workload = WORKLOADS[argv[0]]
    input_dir, workdir = argv[1], argv[2]
    use_checkout_library()

    import repro  # noqa: F401 - the package import is part of set-up
    from repro.streaming import StreamingNetworkDetector, chunk_series

    from inputs import load_series, network_of

    with open(os.path.join(input_dir, "done.json")) as fh:
        manifest = json.load(fh)
    manifest["dir"] = input_dir
    network = network_of(workload)
    config = streaming_config()
    loading = 0.0
    if workload.days:
        from repro.ingest import FlowCsvSource
        from repro.service import DetectionService, EventStore

        source = FlowCsvSource(
            os.path.join(input_dir, manifest["inputs"][0]), network=network,
            config=ingest_config(workload, manifest["n_bins"]))
        store = EventStore(os.path.join(workdir, "events.sqlite"))
        DetectionService(config, store=store,
                         checkpoint_dir=os.path.join(workdir, "ckpt"),
                         checkpoint_every_chunks=workload.checkpoint_every)
    else:
        StreamingNetworkDetector(config)
        started = time.monotonic()
        series = load_series(manifest, 0)
        loading = time.monotonic() - started
        source = chunk_series(series, workload.chunk_size)
    next(iter(source))
    handover = time.monotonic()
    print(json.dumps({"handover": handover, "loading": loading}))
    if workload.days:
        store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
