"""One benchmark process: set up a workload, run one pass, report on stdout.

    python3 perfbench/worker.py WORKLOAD SEED MODE SPAWNED_AT STALL_EXIT

MODE is `setup` (set up only), `pass` (untraced pass), `traced` (traced
pass) or `baseline` (traced pass of the workload's baseline problem).
SPAWNED_AT is the parent's `time.monotonic()` just before it started this
process, so set-up time includes interpreter start.  With STALL_EXIT 1 the
worker returns before its pass when the stall probe reads slow.  The last
stdout line is one JSON object.  Run by perfbench/run.py with the
checkout's `src` on PYTHONPATH and the BLAS thread count in the
environment.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORK, WORKLOADS  # noqa: E402

# With stalled BLAS threads this 1000x34 gemm takes about 24 ms instead of
# 0.1 ms; see run.py.
STALL_SHAPE = (1000, 34)
STALL_REPEATS = 21
STALL_LIMIT_S = 0.002


def stall_probe() -> float:
    """Median seconds of a 1000x34^T . 1000x34 gemm."""
    import numpy as np

    a = np.random.default_rng(0).uniform(size=STALL_SHAPE)
    times = []
    for _ in range(STALL_REPEATS):
        start = time.perf_counter()
        a.T @ a
        times.append(time.perf_counter() - start)
    return sorted(times)[STALL_REPEATS // 2]


def main(argv) -> dict:
    name, seed, mode, spawned_at, stall_exit = argv[0], int(argv[1]), argv[2], float(argv[3]), argv[4] == "1"
    workload = WORKLOADS[name]()
    workload.setup(seed)
    result = {"setup_s": time.monotonic() - spawned_at}
    if mode == "setup":
        return result
    result["stall_probe_start_s"] = stall_probe()
    if stall_exit and result["stall_probe_start_s"] > STALL_LIMIT_S:
        result["stalled"] = True
        return result
    body = workload.baseline if mode == "baseline" else workload.run
    if mode == "pass":
        start = time.perf_counter()
        body()
        result["wall_s"] = time.perf_counter() - start
    else:
        from tracing import ROOT_SPAN, Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span(ROOT_SPAN):
                body()
        finally:
            result["restored"] = tracer.uninstall()
        start, end = tracer.spans[0][2], tracer.spans[0][3]
        result["wall_s"] = end - start
        result["layers"] = layer_metrics(tracer.spans, tracer.counts)
        spans_dir = WORK.parent / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        threads = os.environ.get("OPENBLAS_NUM_THREADS")
        (spans_dir / f"{name}-{mode}-{threads}threads.json").write_text(json.dumps(tracer.spans))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["stall_probe_end_s"] = stall_probe()
    result["digest"] = workload.digest()
    shutil.rmtree(WORK, ignore_errors=True)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
