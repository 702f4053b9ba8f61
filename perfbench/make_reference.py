"""Store the reference row digest of every workload for seeds 0..31.

Run from the root of a checkout whose outputs are trusted::

    python3 perfbench/make_reference.py [workload ...]

Each digest comes from one call in a fresh worker process, exactly as the
benchmark makes it. Existing entries of other workloads are kept.
"""

import json
import sys
import time

import run
from worker import REFERENCE


def main(argv):
    names = argv or [w["name"] for w in run.load_spec()["workloads"]]
    for name in names:
        digests = {}
        for seed in range(run.REFERENCE_SEEDS):
            deadline = time.monotonic() + run.RUN_MARGIN_S
            res = run.run_worker(name, seed, 0, 0, "reference", deadline)
            digests[str(seed)] = res["digest"]
            print(f"{name} seed={seed} seconds={res['seconds']:.3f} "
                  f"acc_lam0={res['acc_lam0']} acc_best={res['acc_best']}", flush=True)
        table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        table[name] = digests
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
