"""Write perfbench/reference/NAME.json from the current source tree.

    python3 perfbench/make_reference.py [--workloads sweep,sequence] [--seeds 32]

For every seed below --seeds, one traced pass gives the workload's checked
outputs and its exact counts.  The stored files are the reference that
every later commit is checked against, so regenerate them only at a commit
whose reproduced numbers are accepted as correct.  The files record the
BLAS thread count (nproc) and OpenBLAS kernel core they were made with;
run.py holds a run to them only when both match.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from run import ATOL, BENCH, DEADLINE_S, ROOT, RTOL, Runner, nproc, openblas_runtime
from tracing import REFERENCE_COUNTS
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    for name in args.workloads.split(","):
        seeds = {}
        for seed in range(args.seeds):
            result = Runner(name, seed, time.monotonic() + DEADLINE_S).spawn("traced", nproc())
            seeds[str(seed)] = {"digest": result["digest"],
                                "counts": {k: result["layers"].get(k, 0) for k in REFERENCE_COUNTS}}
            print(f"{name} seed {seed}: {len(result['digest'])} values, {result['wall_s']:.2f} s", flush=True)
        doc = {"workload": name, "rtol": RTOL, "atol": ATOL, "blas_threads": nproc(),
               "blas_core": openblas_runtime().get("core"), "seeds": seeds}
        (BENCH / "reference" / f"{name}.json").write_text(json.dumps(doc, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
