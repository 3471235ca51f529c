"""Record the reference event digests that ``checks.py`` compares against.

Usage::

    python3 perfbench/make_reference.py --workload abilene-4w --seeds 0-31

Streams every input of each seed once, with the code of this checkout,
and merges the digests into ``perfbench/reference.json``.  Re-record only
when a change is meant to alter the detected events, and say so.
"""

from __future__ import annotations

import argparse
import json

from common import WORKLOADS, streaming_config, use_checkout_library


def seed_range(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 1,5,7")
    args = parser.parse_args()
    use_checkout_library()
    from checks import REFERENCE
    from inputs import ensure_inputs, load_series
    from passes import run_pass

    workload = WORKLOADS[args.workload]
    config = streaming_config()
    loaded = {}
    if workload.days:
        from repro.topology.abilene import abilene_topology
        loaded["network"] = abilene_topology()
    with open(REFERENCE, encoding="utf-8") as fh:
        table = json.load(fh)
    for seed in seed_range(args.seeds):
        manifest = ensure_inputs(workload, seed)
        digests = []
        for index in range(len(manifest["inputs"])):
            if not workload.days:
                loaded["series"] = load_series(manifest, index)
            result = run_pass(workload, manifest, index, config, loaded)
            if result.problems:
                raise SystemExit(f"seed {seed} input {index}: "
                                 f"{result.problems}")
            digests.append(result.digest)
        table.setdefault(workload.name, {})[str(seed)] = digests
        print(f"{workload.name} seed {seed}: {digests}", flush=True)
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
