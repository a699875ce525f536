"""Command-line front end: single simulations, named experiment
reproductions, and a label-driven automaton REPL.

Graph specs are compact strings: cycle:30, dicycle:50, barbell:10,10,
karate, tutte, regular:46,3,7 (p,k,seed), or file:PATH.  Pattern specs:
random:1000 (neuron count; one pattern per graph vertex), idx:IMAGES,
frames:DIR,N.  Exit codes: 0 ok, 2 usage, config, file or size error
(including a negative --seed), 3 numeric divergence (a non-finite state, or
a non-finite readout of a simulate run).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import dynamics, experiments, reports
from .automata import family_tree, load_spec_file
from .dynamics import ModelParams, PatternMatrix, init_state, run
from .errors import CdamError, NumericDivergenceError
from .graphs import build_barbell, build_cycle, build_named, build_random_regular, read_graph
from .ingest import ingest_frames, load_idx, random_patterns

EXPERIMENT_NAMES = (
    "four-modes", "hop-range", "miyashita", "karate", "tutte", "barbell",
    "sequence", "retrieval-sweep", "automaton-sweep", "ei-balance",
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(CdamError):
    pass


def parse_graph_spec(spec: str):
    kind, _, rest = spec.partition(":")
    try:
        if kind == "cycle":
            return build_cycle(int(rest), directed=False)
        if kind == "dicycle":
            return build_cycle(int(rest), directed=True)
        if kind == "barbell":
            n, m = (int(v) for v in rest.split(","))
            return build_barbell(n, m)
        if kind == "regular":
            p, k, seed = (int(v) for v in rest.split(","))
            return build_random_regular(p, k, seed)
        if kind == "file":
            return read_graph(rest)
        if kind in ("karate", "tutte") and not rest:
            return build_named(kind)
    except (ValueError, CdamError) as exc:
        raise UsageError(f"bad graph spec {spec!r}: {exc}") from exc
    raise UsageError(f"unrecognized graph spec {spec!r}")


def parse_pattern_spec(spec: str, p: int, seed: int):
    kind, _, rest = spec.partition(":")
    try:
        if kind == "random":
            return random_patterns(int(rest), p, seed)
        if kind == "idx":
            if "," in rest:
                raise UsageError(f"idx takes one image archive, got {rest!r}")
            images = load_idx(rest)
            if images.shape[0] < p:
                raise UsageError(f"archive holds {images.shape[0]} images, graph needs {p}")
            return PatternMatrix(images[:p].T)
        if kind == "frames":
            directory, n = rest.rsplit(",", 1)
            patterns = ingest_frames(directory, int(n), seed)
            if patterns.p != p:
                raise UsageError(f"{patterns.p} frames found, graph needs {p}")
            return patterns
    except UsageError:
        raise
    except (ValueError, CdamError) as exc:
        raise UsageError(f"bad pattern spec {spec!r}: {exc}") from exc
    raise UsageError(f"unrecognized pattern spec {spec!r}")


def _add_model_flags(parser):
    parser.add_argument("--a", type=float, default=ModelParams.a)
    parser.add_argument("--h", type=float, default=ModelParams.h)
    parser.add_argument("--beta", type=float, default=ModelParams.beta)
    parser.add_argument("--eta", type=float, default=ModelParams.eta)
    parser.add_argument("--steps", type=int, default=dynamics.DEFAULT_STEPS)
    parser.add_argument("--tol", type=float, default=dynamics.FIXED_POINT_TOL)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise-c", type=float, default=dynamics.DEFAULT_NOISE)


def build_parser():
    parser = argparse.ArgumentParser(prog="cdam", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one simulation and export its trace")
    _add_model_flags(sim)
    sim.add_argument("--graph", required=True)
    sim.add_argument("--patterns", required=True)
    sim.add_argument("--trigger", type=int, default=0)
    sim.add_argument("--out", default="out")
    sim.add_argument("--energy", action="store_true", help="record the energy per step")

    exp = sub.add_parser("experiment", help="reproduce a named experiment")
    exp.add_argument("name")
    exp.add_argument("--out", default="out")
    exp.add_argument("--n", type=int, default=None)
    exp.add_argument("--seed", type=int, default=0,
                     help="base seed (miyashita ignores it and always averages seeds 0-4)")
    exp.add_argument("--graph", default=None,
                     help="graph for four-modes (default cycle:30); others reject it")

    auto = sub.add_parser("automaton", help="drive a finite automaton by labels")
    auto.add_argument("--spec", default=None, help="JSON spec file (default: bundled family tree)")
    auto.add_argument("--script", default=None, help="comma-separated labels to replay")
    auto.add_argument("--repl", action="store_true", help="read labels from stdin")
    auto.add_argument("--start", default=None)
    auto.add_argument("--n", type=int, default=experiments.DEFAULT_N)
    auto.add_argument("--seed", type=int, default=0)
    auto.add_argument("--out", default=None, help="also write the transcript to this directory")
    return parser


def cmd_simulate(args) -> int:
    graph = parse_graph_spec(args.graph)
    patterns = parse_pattern_spec(args.patterns, graph.p, args.seed)
    params = ModelParams(a=args.a, h=args.h, beta=args.beta, eta=args.eta)
    state = init_state(patterns, args.trigger, c=args.noise_c, seed=args.seed)
    trace = run(state, patterns, graph, params, max_steps=args.steps,
                fixed_point_tol=args.tol, with_energy=args.energy)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    reports.trace_to_csv(trace, out / "trace.csv")
    manifest = {k: v for k, v in vars(args).items() if k not in ("out", "energy")}
    manifest.update(graph_fingerprint=graph.fingerprint(), termination=trace.termination,
                    steps_executed=trace.steps)
    reports.write_manifest(manifest, out / "manifest.json")
    print(f"wrote {out / 'trace.csv'} ({trace.steps} steps, {trace.termination})")
    return EXIT_OK


def cmd_experiment(args) -> int:
    name = args.name
    if name not in EXPERIMENT_NAMES:
        raise UsageError(f"unknown experiment {name!r}; valid: {', '.join(EXPERIMENT_NAMES)}")
    if args.n is not None and name in ("sequence", "retrieval-sweep"):
        raise UsageError(f"experiment {name} has a fixed neuron count and takes no --n")
    if args.graph is not None and name != "four-modes":
        raise UsageError(f"experiment {name} has a fixed graph and takes no --graph")
    n = experiments.DEFAULT_N if args.n is None else args.n
    if name == "four-modes":
        graph = parse_graph_spec(args.graph) if args.graph is not None else build_cycle(30)
        report = experiments.four_modes(graph, n=n, seed=args.seed)
    elif name == "hop-range":
        report = experiments.hop_range(n=n, seed=args.seed)
    elif name == "miyashita":
        report = experiments.miyashita_fit(n=n)
    elif name in ("karate", "tutte"):
        report = experiments.community_matrices(build_named(name), n=n, seed=args.seed)
    elif name == "barbell":
        report = experiments.community_matrices(build_barbell(10, 10), n=n, seed=args.seed)
    elif name == "sequence":
        frames = experiments.surrogate_frames(seed=args.seed)
        report = experiments.sequence_recall(frames, seed=args.seed + 1)
    elif name == "retrieval-sweep":
        bank = experiments.surrogate_image_bank(seed=77)
        report = experiments.retrieval_sweep(bank, seed=args.seed)
    elif name == "automaton-sweep":
        report = experiments.automaton_sweep(family_tree(), n=n, seed=args.seed)
    else:  # ei-balance
        report = experiments.ei_balance(n=n, seed=args.seed)
    report.write(args.out)
    print(f"wrote {Path(args.out) / 'report.json'}")
    return EXIT_OK


def cmd_automaton(args) -> int:
    spec = load_spec_file(args.spec) if args.spec else family_tree()
    runner = experiments.AutomatonRunner(spec, n=args.n, seed=args.seed)
    if args.start:
        runner.set_state(args.start)
    lines = []

    def emit(text):
        print(text)
        lines.append(text)

    if args.script is not None:
        tokens = args.script.split(",")
    elif args.repl:
        emit("labels step the machine; :state NAME resets, :quit exits")
        tokens = (raw.strip() for raw in sys.stdin)
    else:
        raise UsageError("automaton needs --script or --repl")
    for token in tokens:
        if not token:
            continue
        if args.repl and token == ":quit":
            break
        if args.repl and token.startswith(":state"):
            try:
                runner.set_state(token.split(None, 1)[1].strip())
                emit(f"state set to {runner.state}")
            except (IndexError, CdamError) as exc:
                emit(f"cannot set state: {exc}")
            continue
        before = runner.state
        if token not in spec.labels():
            emit(f"{before} + {token!r}: unknown label, state unchanged")
            continue
        _, r = runner.query(token)
        emit(f"{before} + {token} -> {runner.state}  (r={r:.3f})")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "transcript.txt").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"simulate": cmd_simulate, "experiment": cmd_experiment, "automaton": cmd_automaton}
    try:
        if args.seed < 0:
            raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
        return handlers[args.command](args)
    except NumericDivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CdamError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
