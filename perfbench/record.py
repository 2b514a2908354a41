"""Record the reference outputs every benchmark run is checked against.

Usage (from the repository root)::

    python3 perfbench/record.py

For each workload and each recorded kernel seed it makes one traced
run and writes result and trace digests, the ``repro report`` output
hash, the pair-kernel counters and the structural counts to
``perfbench/references.json``.  Run it only when a change is meant to
alter the program's outputs, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run._isolate_environment()
    from workloads import KERNEL_SEEDS, WORKLOADS, seed_label

    references: dict = {}
    for name, workload in WORKLOADS.items():
        for seed in range(len(KERNEL_SEEDS)):
            label = seed_label(workload.inputs_seed(seed))
            if label in references.get(name, {}):
                continue
            run.WORK.mkdir(parents=True, exist_ok=True)
            try:
                _, template = run._setup(workload)
                plain = run._timed_pass(workload, template, seed, {})
                traced = run._timed_pass(workload, template, seed, {},
                                         traced=True)
            finally:
                shutil.rmtree(run.WORK, ignore_errors=True)
            if plain["digests"] != traced["digests"]:
                raise SystemExit(f"{name}/{label}: traced and untraced "
                                 "passes disagree")
            entry = dict(traced["digests"], counts=traced["trace"]["counts"])
            references.setdefault(name, {})[label] = entry
            print(f"recorded {name} {label}", flush=True)
    path = run.HERE / "references.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
