"""Compare the sequence experiment's pattern-basis schedules with the
state-space ones, seed by seed.

`cdam experiment sequence --seed S` steps its runs in the pattern basis
[Xi | yc], yc the centered frames, and reads the Pearson argmax of every
step from the rows yc^T sigma, not from the states.  For each seed S in
SEED_FROM..SEED_TO (inclusive) and each sequence setting, this prints two
steps:

  basis     the first step whose pattern-basis argmax differs from
            argmax(pearson_all(sigma)) of the state-space run
  ulp-start the first step whose argmax moves when the state-space run
            starts from sigma0*(1 + 2^-52) instead of sigma0

Step t is the state after t updates (the schedule's entry t - 1); "-" means
the two schedules agree on all steps.  A basis step with no ulp-start step
at or before it would be a difference that the float order of the state
space alone does not produce.

Run from the root of a checkout: python3 tools/sequence_basis.py 0 63
"""

from __future__ import annotations

import sys

import numpy as np

sys.path.insert(0, "src")

from cdam import experiments as X  # noqa: E402
from cdam.dynamics import ModelParams, init_state, iterate, pearson_all  # noqa: E402
from cdam.graphs import build_cycle, normalize  # noqa: E402


def state_schedule(frames, coupling, params, sigma0) -> list[int]:
    schedule: list[int] = []
    iterate(sigma0, frames, coupling, params, X.SEQUENCE_STEPS,
            observe=lambda t, s: schedule.append(int(np.argmax(pearson_all(s, frames)))))
    return schedule


def first_difference(a: list[int], b: list[int]) -> str:
    return next((str(t) for t, (x, y) in enumerate(zip(a, b), 1) if x != y), "-")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/sequence_basis.py SEED_FROM SEED_TO", file=sys.stderr)
        return 2
    for seed in range(int(argv[0]), int(argv[1]) + 1):
        # the CLI's seeds: frames from S, initial noise from S + 1
        frames = X.surrogate_frames(seed)
        report = X.sequence_recall(frames, seed=seed + 1)
        coupling = normalize(build_cycle(frames.p, directed=True))
        sigma0 = init_state(frames, X.SEQUENCE_TRIGGER, X.DEFAULT_NOISE, seed + 1)
        fields = [f"seed {seed:3d}"]
        for a, h in X.SEQUENCE_SETTINGS:
            params = ModelParams(a=a, h=h)
            states = state_schedule(frames, coupling, params, sigma0)
            nudged = state_schedule(frames, coupling, params, sigma0 * (1 + 2.0**-52))
            key = f"a{a:+g}_h{h:+g}"
            fields.append(f"{key} basis {first_difference(report.outputs[f'schedule_{key}'], states):>4}"
                          f" ulp-start {first_difference(states, nudged):>4}")
        print("  ".join(fields), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
