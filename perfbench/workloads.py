"""The four benchmark workloads, each run through cdam's own entry points.

A workload builds its inputs from the seed (`setup`), runs one pass of its
commands back to back (`run`), and reduces what the pass wrote to a flat
dict of checked values (`digest`): ints, strings and bools are compared
exactly, floats at the reference tolerance.  `baseline` is the problem the
traced run repeats at one BLAS thread and at the run's count.

Seed 0 reproduces the stock `cdam experiment` invocations of `sequence`
and `figures`.  `sweep` and `simulate` are reduced so that a pass takes
seconds, as their docstrings say.  cdam itself is imported inside `setup`, so that
importing this module costs nothing and set-up time covers the package
import.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

WORK = Path(".perfbench_out") / "work"

FIGURE_EXPERIMENTS = (
    "four-modes", "hop-range", "miyashita", "karate", "tutte", "barbell",
    "automaton-sweep", "ei-balance",
)
SWEEP_BANK_SEED = 77
SWEEP_TRIALS = 1
SWEEP_BASELINE_LEVELS = (500,)
SIM_TRIGGERS = (0, 17, 34)
SIM_FRAMES, SIM_HEIGHT, SIM_WIDTH, SIM_N = 50, 120, 160, 2000
# Every run takes exactly SIM_STEPS steps (tolerance 0): with the stock
# fixed-point exit, 3 to 5 of the 12 runs reach 1000 steps depending on the
# seed, so a pass would do 4602 to 6249 steps and its time would measure the
# seed rather than the code.
SIM_STEPS = 400
# Trace rows whose readouts are checked value by value.
SIM_CHECKED_STEPS = (0, 1, 10, 100, SIM_STEPS)


def _call_cli(cli, argv) -> None:
    # `cli.main` is looked up at call time so the traced run sees its wrapper.
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"cdam {' '.join(map(str, argv))} exited with {code}")


def _report(path: Path) -> dict:
    return json.loads((path / "report.json").read_text())["outputs"]


def _run_length(values) -> str:
    runs: list[list[int]] = []
    for v in values:
        if runs and runs[-1][0] == v:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
    return ",".join(f"{v}x{k}" for v, k in runs)


def _moment(values) -> float:
    """Sum of |v| weighted by 1-based position."""
    return sum((k + 1) * abs(v) for k, v in enumerate(values))


def flatten(prefix: str, value, out: dict) -> None:
    """Flat checked values of one report output: scalars as they are, short
    vectors element by element, int vectors run-length encoded, matrices by
    their sum, sum of squares, trace and row and column moments.  The
    moments weight |v| by the 1-based row or column number, so they move
    when the matrix is transposed or its rows or columns are permuted, which
    leaves the other three unchanged; with |v| no cancellation defeats the float tolerance."""
    if isinstance(value, dict):
        for key, item in value.items():
            flatten(f"{prefix}.{key}", item, out)
    elif isinstance(value, list) and value and isinstance(value[0], list):
        flat = [float(v) for row in value for v in row]
        out[f"{prefix}.sum"] = sum(flat)
        out[f"{prefix}.sumsq"] = sum(v * v for v in flat)
        out[f"{prefix}.trace"] = sum(float(row[i]) for i, row in enumerate(value) if i < len(row))
        out[f"{prefix}.row_moment"] = _moment(sum(abs(float(v)) for v in row) for row in value)
        out[f"{prefix}.col_moment"] = _moment(sum(abs(float(v)) for v in col) for col in zip(*value))
    elif isinstance(value, list) and all(type(v) is int for v in value):
        out[prefix] = _run_length(value)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            flatten(f"{prefix}.{i}", item, out)
    else:
        out[prefix] = value


class Sweep:
    """Retrieval-accuracy sweep through `experiments.retrieval_sweep`: ten p
    levels up to 500, three settings, 101 steps, on the image bank of seed
    77 + seed.  One trial per pattern (B = p columns) instead of the stock
    five: the stock sweep takes 38-48 s on two cores, longer than a run."""

    def setup(self, seed: int) -> None:
        from cdam import experiments

        self.experiments, self.seed, self.out = experiments, seed, WORK / "sweep"
        self.bank = experiments.surrogate_image_bank(seed=SWEEP_BANK_SEED + seed)

    def _sweep(self, **levels) -> None:
        report = self.experiments.retrieval_sweep(self.bank, trials=SWEEP_TRIALS, seed=self.seed, **levels)
        report.write(self.out)

    def run(self) -> None:
        self._sweep()

    def baseline(self) -> None:
        self._sweep(p_levels=SWEEP_BASELINE_LEVELS)

    def digest(self) -> dict:
        out: dict = {}
        flatten("accuracy", _report(self.out)["accuracy"], out)
        return out


class Sequence:
    """`cdam experiment sequence`: n=2000, p=50 surrogate frames on a
    directed 50-cycle, 2 settings x 1500 single-state steps."""

    def setup(self, seed: int) -> None:
        from cdam import cli

        self.cli, self.out = cli, WORK / "sequence"
        self.argv = ["experiment", "sequence", "--seed", seed, "--out", self.out]

    def run(self) -> None:
        _call_cli(self.cli, self.argv)

    baseline = run

    def digest(self) -> dict:
        out: dict = {}
        for key, value in _report(self.out).items():
            flatten(key, value, out)
        return out


class Figures:
    """The eight small experiments, each through `cdam experiment NAME --out`."""

    def setup(self, seed: int) -> None:
        from cdam import cli, experiments

        self.cli, self.experiments, self.out = cli, experiments, WORK / "figures"
        self.argvs = [["experiment", name, "--seed", seed, "--out", self.out / name]
                      for name in FIGURE_EXPERIMENTS]

    def run(self) -> None:
        for argv in self.argvs:
            _call_cli(self.cli, argv)

    baseline = run

    def digest(self) -> dict:
        import numpy as np

        out: dict = {}
        for name in FIGURE_EXPERIMENTS:
            outputs = _report(self.out / name)
            for key, value in outputs.items():
                flatten(f"{name}.{key}", value, out)
            if name in ("karate", "tutte"):
                for key, value in outputs.items():
                    out[f"{name}.{key}.block_contrast"] = self.experiments.named_block_contrast(
                        name, np.array(value, dtype=float))
        return out


class Simulate:
    """12 `cdam simulate --energy` calls of 400 steps on a 50-cycle over 50
    seeded P5 frames: the four canonical settings x triggers 0, 17, 34."""

    def setup(self, seed: int) -> None:
        import numpy as np
        from cdam import cli, experiments

        self.cli, self.out = cli, WORK / "simulate"
        frames = WORK / "frames"
        shutil.rmtree(frames, ignore_errors=True)
        frames.mkdir(parents=True)
        rng = np.random.default_rng(seed)
        header = f"P5\n{SIM_WIDTH} {SIM_HEIGHT}\n255\n".encode()
        for k in range(SIM_FRAMES):
            pixels = rng.integers(0, 256, (SIM_HEIGHT, SIM_WIDTH), dtype=np.uint8)
            (frames / f"frame{k:03d}.pgm").write_bytes(header + pixels.tobytes())
        self.runs = []
        for a, h in experiments.FOUR_MODE_SETTINGS:
            for trigger in SIM_TRIGGERS:
                out = self.out / f"a{a:+g}_h{h:+g}_t{trigger}"
                self.runs.append((out, [
                    "simulate", "--graph", f"cycle:{SIM_FRAMES}",
                    "--patterns", f"frames:{frames},{SIM_N}", "--energy",
                    "--steps", SIM_STEPS, "--tol", 0, "--a", a, "--h", h, "--trigger", trigger,
                    "--seed", seed, "--out", out,
                ]))

    def run(self) -> None:
        for _, argv in self.runs:
            _call_cli(self.cli, argv)

    baseline = run

    def digest(self) -> dict:
        import csv

        out: dict = {}
        for path, _ in self.runs:
            key = path.name
            manifest = json.loads((path / "manifest.json").read_text())
            out[f"{key}.termination"] = manifest["termination"]
            out[f"{key}.steps_executed"] = manifest["steps_executed"]
            with open(path / "trace.csv", newline="") as fh:
                rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
            energies = [row[3] for row in rows]
            out[f"{key}.rows"] = len(rows)
            out[f"{key}.energy.min"] = min(energies)
            out[f"{key}.energy.sum"] = sum(energies)
            for t in SIM_CHECKED_STEPS:
                _, mean, sd, energy, *r = rows[t]
                at = f"{key}.t{t}"
                out.update({f"{at}.mean_activity": mean, f"{at}.sd_activity": sd, f"{at}.energy": energy,
                            f"{at}.r.max": max(r), f"{at}.r.argmax": r.index(max(r)),
                            f"{at}.r.sum": sum(r), f"{at}.r.sumsq": sum(v * v for v in r),
                            f"{at}.r.moment": _moment(r)})
        return out


WORKLOADS = {"sweep": Sweep, "sequence": Sequence, "figures": Figures, "simulate": Simulate}
