"""Benchmark of cdam: four workloads run through the product's entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src`.
The workloads (perfbench/workloads.py) are `sweep`, `sequence`, `figures`
and `simulate`.  Each is a closed loop with one client: this process starts
one fresh worker process per pass, waits for it, and starts the next, for
at least S seconds.  Every worker uses the BLAS thread count the stored
reference was made with, capped at nproc.

--trace 0 prints the end-to-end metrics, taken with tracing off:
  wall_s       seconds of one pass of the workload's commands after set-up
  setup_s      seconds from starting a fresh process until `import cdam` has
               finished and the workload's inputs are built
  peak_rss_mb  peak resident memory of the worker process
Each is the median over the run's samples; the detail lines give the
sample count and the highest percentile with ten samples beyond it.

--trace 1 alternates untraced and traced passes (perfbench/tracing.py) for
S seconds, then repeats the workload's baseline problem traced at that
BLAS thread count and at one, and prints the per-layer metrics.

Every pass's outputs are checked against perfbench/reference/NAME.json,
which holds the outputs of the seed commit for seeds 0-31: discrete
values exactly, floats to RTOL/ATOL.  Some of those outputs depend on the
order of BLAS reductions, so the file records the BLAS thread count and
OpenBLAS kernel core it was made with, and applies only when this run has
both.  For another seed, or when it does not apply, the first pass stands
as the reference of the later ones, the run says so and how many values
differ from the stored ones, and the outputs' fingerprint is printed so
that two commits can be compared on it.  `failed` counts
checked values that miss (failed_frac = failed / attempted); the process
exits 1 after printing the result when any value missed, and 2 without a
result when it cannot run at all.  A full record of the run is written to
.perfbench_out/runs/.

Stalled BLAS: on a shared 2-core virtual machine whose second core has
been idle, or is busy with other work, a small two-thread gemm takes
24 ms instead of 0.1 ms, which would make a figures pass 100 times slower.
So this process first repeats a 1000x34 gemm until it reads normal (at
most WARM_UP_S), and each worker times the same gemm before its pass: a
stalled worker exits before the pass and is started again after another
warm-up, up to MAX_RESPAWNS times, after which the pass runs anyway.  The
worker repeats the probe after its pass, and this process times two fixed
gemms at the start and end of the run.  Restarted workers and passes with
a slow probe are reported, never dropped silently.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = Path(".perfbench_out")
sys.path.insert(0, str(BENCH))

from tracing import EXACT_COUNTS  # noqa: E402
from workloads import WORK, WORKLOADS  # noqa: E402
from worker import STALL_LIMIT_S, stall_probe  # noqa: E402

# Float outputs come from float64 iterations of up to a few thousand steps;
# 1e-9 relative is about 5e6 ulp, far above reduction-order noise and far
# below any change to a reproduced number.
RTOL, ATOL = 1e-9, 1e-12
DEADLINE_S = 170.0
MIN_SETUPS = 5
MAX_RESPAWNS = 3
WARM_UP_S = 5.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
PERCENTILES = (99, 95, 90, 75, 50)


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Runner:
    """Starts worker processes one at a time, within the run's deadline."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.stalled: list[float] = []

    def spawn(self, mode: str, threads: int) -> dict:
        env = dict(os.environ)
        env.update({var: str(threads) for var in BLAS_ENV})
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        attempt = 0
        while True:
            timeout = self.deadline - time.monotonic()
            if timeout <= 0:
                raise BenchError("run deadline reached")
            stall_exit = "1" if attempt < MAX_RESPAWNS else "0"
            spawned_at = time.monotonic()
            cmd = [sys.executable, str(BENCH / "worker.py"), self.workload, str(self.seed), mode,
                   repr(spawned_at), stall_exit]
            try:
                proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"{mode} worker killed at the run deadline") from exc
            if proc.returncode != 0:
                raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result.get("stalled"):
                result["threads"] = threads
                return result
            self.stalled.append(result["stall_probe_start_s"])
            calibrate(WARM_UP_S)
            attempt += 1


def summarize(values) -> dict:
    """Median, the highest listed percentile with at least ten samples
    beyond it (nearest rank), and the sample count."""
    ordered = sorted(values)
    out = {"median": statistics.median(ordered), "samples": len(ordered)}
    for q in PERCENTILES:
        rank = -(-q * len(ordered) // 100)  # ceil
        if len(ordered) - rank >= 10:
            out[f"p{q}"] = ordered[rank - 1]
            break
    return out


def calibrate(warm_up_s: float = 0.0) -> dict:
    """Median times of two fixed gemms in this process.  With warm_up_s,
    first repeat the stall probe until it reads normal or that many
    seconds pass, and report how long that took."""
    import numpy as np

    rng = np.random.default_rng(0)
    tall, wide = rng.uniform(size=(784, 500)), rng.uniform(size=(784, 2500))
    out = {}
    start = time.monotonic()
    while True:
        small_s = stall_probe()
        out.setdefault("first_gemm_1000x34T_1000x34_s", small_s)
        if small_s <= STALL_LIMIT_S or time.monotonic() - start >= warm_up_s:
            break
    out["warm_up_s"] = time.monotonic() - start
    times = []
    for _ in range(5):
        begin = time.perf_counter()
        tall.T @ wide
        times.append(time.perf_counter() - begin)
    out.update({"gemm_1000x34T_1000x34_s": small_s,
                "gemm_784x500T_784x2500_s": statistics.median(times),
                "flagged": small_s > STALL_LIMIT_S})
    return out


def openblas_runtime() -> dict:
    """Kernel core type and thread count that numpy's bundled OpenBLAS
    reports in this process; empty when no such library is found."""
    import ctypes
    import glob

    import numpy as np

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            try:
                core = getattr(lib, f"{prefix}_get_corename{suffix}")
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            core.argtypes, core.restype = [], ctypes.c_char_p
            threads.argtypes, threads.restype = [], ctypes.c_int
            return {"core": core().decode(), "threads": threads()}
    return {}


def machine(threads: int, env_before: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(), "python": platform.python_version(), "numpy": np.__version__,
        "platform": platform.platform(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_runtime": openblas_runtime(),
        "thread_env_before": env_before, "blas_threads": threads,
    }


def fingerprint(digest: dict) -> str:
    return hashlib.sha256(json.dumps(digest, sort_keys=True).encode()).hexdigest()[:16]


def _same(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or not all(isinstance(v, (int, float)) for v in (a, b)):
        return a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if a != a or b != b:  # NaN
        return a != a and b != b
    return a == b or abs(a - b) <= ATOL + RTOL * abs(b)


def compare(digest: dict, reference: dict, subset: bool = False) -> tuple[int, list[str]]:
    """(values checked, keys that miss).  With subset, only the digest's keys
    are checked; otherwise a key on one side only also misses."""
    keys = set(digest) if subset else set(digest) | set(reference)
    return len(keys), sorted(k for k in keys if k not in digest or k not in reference
                             or not _same(digest[k], reference[k]))


def reference_file(workload: str) -> dict:
    return json.loads((BENCH / "reference" / f"{workload}.json").read_text())


def load_reference(workload: str, seed: int) -> dict | None:
    return reference_file(workload)["seeds"].get(str(seed))


class Checker:
    """Counts checked output values and misses against one reference."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.first_counts: dict | None = None
        self.attempted = 0
        self.misses: list[str] = []

    def check(self, label: str, digest: dict, subset: bool = False) -> None:
        if self.reference is None:
            self.reference = {"digest": digest}
            return
        checked, missed = compare(digest, self.reference["digest"], subset)
        self.attempted += checked
        self.misses += [f"{label}: {key}" for key in missed]

    def check_counts(self, label: str, layers: dict) -> None:
        """Exact counters must equal the first traced pass's, and those the
        reference holds (REFERENCE_COUNTS) must equal the reference's."""
        counts = {k: layers.get(k, 0) for k in EXACT_COUNTS}
        if self.first_counts is None:
            self.first_counts = counts
        expected = {**self.first_counts, **self.reference.get("counts", {})}
        self.attempted += len(EXACT_COUNTS)
        self.misses += [f"{label}: exact count {k}" for k in EXACT_COUNTS if counts[k] != expected.get(k)]


def _another(start: float, seconds: float, rounds: list[float], least: int = 1) -> bool:
    """Whether to start another round: until `least` have run, then while
    one more of median length still ends within `seconds`."""
    if len(rounds) < least:
        return True
    return time.monotonic() - start + statistics.median(rounds) <= seconds


def untraced_run(runner: Runner, checker: Checker, seconds: float, threads: int) -> tuple[dict, dict]:
    passes, rounds = [], []
    # without a stored reference the first pass is the reference of the rest
    least = 1 if checker.reference else 2
    start = time.monotonic()
    while _another(start, seconds, rounds, least):
        began = time.monotonic()
        result = runner.spawn("pass", threads)
        checker.check(f"pass {len(passes)}", result.pop("digest"))
        passes.append(result)
        rounds.append(time.monotonic() - began)
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.spawn("setup", threads)["setup_s"])
    samples = {"wall_s": [p["wall_s"] for p in passes], "setup_s": setups,
               "peak_rss_mb": [p["peak_rss_mb"] for p in passes]}
    metrics = {name: summarize(values) for name, values in samples.items()}
    return metrics, {"passes": passes, "setup_samples": setups}


def traced_run(runner: Runner, checker: Checker, seconds: float, threads: int) -> tuple[dict, dict]:
    untraced, traced, rounds = [], [], []
    start = time.monotonic()
    while _another(start, seconds, rounds):
        began = time.monotonic()
        plain = runner.spawn("pass", threads)
        checker.check(f"untraced pass {len(untraced)}", plain.pop("digest"))
        untraced.append(plain)
        result = runner.spawn("traced", threads)
        checker.check(f"traced pass {len(traced)}", result.pop("digest"))
        checker.check_counts(f"traced pass {len(traced)}", result["layers"])
        if not result["restored"]:
            checker.misses.append(f"traced pass {len(traced)}: wrappers not removed")
        traced.append(result)
        rounds.append(time.monotonic() - began)
    subset = runner.workload == "sweep"
    base_n = runner.spawn("baseline", threads)
    checker.check(f"baseline at {threads} threads", base_n.pop("digest"), subset=subset)
    base_1 = runner.spawn("baseline", 1)
    checked_1, missed_1 = compare(base_1.pop("digest"), checker.reference["digest"], subset=subset)

    keys = set().union(*(t["layers"] for t in traced))
    layers = {k: statistics.median(t["layers"].get(k, 0.0) for t in traced) for k in keys}
    wall_u = statistics.median(p["wall_s"] for p in untraced)
    wall_t = statistics.median(t["wall_s"] for t in traced)
    rv = "dynamics.retrieval_vector.self_s"
    self_1, self_n = base_1["layers"].get(rv, 0.0), base_n["layers"].get(rv, 0.0)
    layers.update({
        "trace.overhead_frac": (wall_t - wall_u) / wall_u,
        f"{rv}.threads1": self_1,
        f"{rv}.threads_nproc": self_n,
        "dynamics.blas_speedup": self_1 / self_n if self_n else 0.0,
        "failed_frac.threads1": len(missed_1) / checked_1,
    })
    detail = {"untraced": untraced, "traced": [{k: v for k, v in t.items() if k != "layers"} for t in traced],
              "baseline": {"threads_nproc": base_n, "threads1": base_1},
              "threads1_misses": missed_1}
    return layers, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()

    os.chdir(ROOT)
    if not (ROOT / "src" / "cdam" / "__init__.py").is_file():
        print(f"perfbench: no cdam package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stored = reference_file(args.workload)
    threads = min(stored["blas_threads"], nproc())
    env_before = {var: os.environ.get(var) for var in BLAS_ENV}
    os.environ.update({var: str(threads) for var in BLAS_ENV})
    shutil.rmtree(WORK, ignore_errors=True)

    machine_block = machine(threads, env_before)
    calibration = {"start": calibrate(WARM_UP_S)}
    made_with = {"blas_threads": stored["blas_threads"], "blas_core": stored["blas_core"]}
    here = {"blas_threads": threads, "blas_core": machine_block["blas_runtime"].get("core")}
    reference = stored["seeds"].get(str(args.seed))
    checker = Checker(reference if made_with == here else None)
    runner = Runner(args.workload, args.seed, began + DEADLINE_S)
    try:
        runner.spawn("setup", threads)  # warm-up: byte-compiles the package
        if args.trace:
            computed, detail = traced_run(runner, checker, args.seconds, threads)
            wanted = spec["per_layer"]
            values = {m["name"]: computed.get(m["name"], 0.0) for m in wanted}
        else:
            computed, detail = untraced_run(runner, checker, args.seconds, threads)
            wanted = spec["end_to_end"]
            values = {m["name"]: computed[m["name"]]["median"] for m in wanted}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    calibration["end"] = calibrate()

    if reference is None:
        reference_note = "none for this seed; first pass used"
    elif checker.reference is reference:
        reference_note = "stored"
    else:
        _, differ = compare(checker.reference["digest"], reference["digest"])
        reference_note = (f"stored one made with {made_with} does not apply to {here}; first pass used, "
                          f"and {len(differ)} of {len(reference['digest'])} stored values differ from it")
    failed = len(checker.misses)
    workers = [*detail.get("passes", []), *detail.get("untraced", []), *detail.get("traced", []),
               *detail.get("baseline", {}).values()]
    flagged = [w for w in workers if max(w["stall_probe_start_s"], w["stall_probe_end_s"]) > STALL_LIMIT_S]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_block, "calibration": calibration,
        "stalled_workers_restarted": runner.stalled, "flagged_passes": len(flagged),
        "reference": reference_note,
        "outputs_fingerprint": fingerprint(checker.reference["digest"]),
        "attempted": checker.attempted, "failed": failed, "failed_frac": failed / checker.attempted,
        "misses": checker.misses[:200], "metrics": computed, "detail": detail,
        "elapsed_s": time.monotonic() - began,
    }
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    record_path = OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: closed loop, 1 client, "
          f"{threads} BLAS threads, record {record_path}")
    print(f"machine: {json.dumps(machine_block)}")
    print(f"calibration: {json.dumps(calibration)}")
    print(f"stalled workers restarted: {len(runner.stalled)}; flagged passes: {len(flagged)}")
    print(f"reference: {record['reference']}; outputs fingerprint {record['outputs_fingerprint']}")
    for m in wanted:
        extra = computed[m["name"]] if not args.trace else {}
        print(f"  {m['name']:<48} {values[m['name']]!r:>24} {m['unit']:<8} "
              + " ".join(f"{k}={v!r}" for k, v in extra.items() if k != "median"))
    print(f"  {'failed_frac':<48} {record['failed_frac']!r:>24} ratio    "
          f"({failed} of {checker.attempted} checked values missed)")
    for miss in checker.misses[:20]:
        print(f"  MISS {miss}")
    print(json.dumps({
        "correct": failed == 0, "attempted": checker.attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
