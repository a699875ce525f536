"""Command-line front end: single simulations, named experiment
reproductions, and a label-driven automaton REPL.

Graph specs are compact strings: cycle:30, dicycle:50, barbell:10,10,
karate, tutte, regular:46,3,7 (p,k,seed), or file:PATH.  Pattern specs:
random:1000 (neuron count; one pattern per graph vertex), idx:IMAGES,
frames:DIR,N.  Exit codes: 0 ok, 2 usage, config, file or size error
(including a --seed outside [0, 2**64)), 3 numeric divergence (a
non-finite state, or a non-finite readout of a simulate run).  Malformed
input raises CdamError (exit 2), and a non-finite state or readout raises
NumericDivergenceError (exit 3).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import dynamics, experiments, graphs, reports
from .automata import family_tree, load_spec_file
from .dynamics import ModelParams, PatternMatrix, init_state, run
from .errors import CdamError, NumericDivergenceError
from .graphs import build_barbell, build_cycle, build_named, build_random_regular, read_graph
from .ingest import ingest_frames, load_idx, random_patterns

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


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
        if kind in graphs.NAMED_GRAPHS and not rest:
            return build_named(kind)
    except (ValueError, CdamError) as exc:
        raise CdamError(f"bad graph spec {spec!r}: {exc}") from exc
    raise CdamError(f"unrecognized graph spec {spec!r}")


def parse_pattern_spec(spec: str, p: int, seed: int):
    kind, _, rest = spec.partition(":")
    if kind not in ("random", "idx", "frames"):
        raise CdamError(f"unrecognized pattern spec {spec!r}")
    if kind == "idx" and "," in rest:
        raise CdamError(f"idx takes one image archive, got {rest!r}")
    try:
        if kind == "random":
            return random_patterns(int(rest), p, seed)
        if kind == "idx":
            images = load_idx(rest)
            if images.shape[0] >= p:
                return PatternMatrix(images[:p].T)
        else:
            directory, n = rest.rsplit(",", 1)
            patterns = ingest_frames(directory, int(n), seed)
            if patterns.p == p:
                return patterns
    except (ValueError, CdamError) as exc:
        raise CdamError(f"bad pattern spec {spec!r}: {exc}") from exc
    if kind == "idx":
        raise CdamError(f"archive holds {images.shape[0]} images, graph needs {p}")
    raise CdamError(f"{patterns.p} frames found, graph needs {p}")


def build_parser():
    parser = argparse.ArgumentParser(prog="cdam", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one simulation and export its trace")
    sim.add_argument("--a", type=float, default=ModelParams.a)
    sim.add_argument("--h", type=float, default=ModelParams.h)
    sim.add_argument("--beta", type=float, default=ModelParams.beta)
    sim.add_argument("--eta", type=float, default=ModelParams.eta)
    sim.add_argument("--steps", type=int, default=dynamics.DEFAULT_STEPS)
    sim.add_argument("--tol", type=float, default=dynamics.FIXED_POINT_TOL)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--noise-c", type=float, default=dynamics.DEFAULT_NOISE)
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
    if not args.steps < 2**64:  # the manifest records it, and JSON ints hold 64 bits
        raise CdamError(f"--steps must be an integer below 2**64, got {args.steps}")
    graph = parse_graph_spec(args.graph)
    patterns = parse_pattern_spec(args.patterns, graph.p, args.seed)
    params = ModelParams(a=args.a, h=args.h, beta=args.beta, eta=args.eta)
    state = init_state(patterns, args.trigger, c=args.noise_c, seed=args.seed)
    trace = run(state, patterns, graph, params, max_steps=args.steps,
                fixed_point_tol=args.tol, with_energy=args.energy)
    out = Path(args.out)
    manifest = {k: v for k, v in vars(args).items() if k not in ("out", "energy")}
    manifest.update(graph_fingerprint=graph.fingerprint(), termination=trace.termination,
                    steps_executed=trace.steps)
    # the manifest first: one that cannot be encoded leaves no directory behind
    reports.write_manifest(manifest, out / "manifest.json")
    reports.trace_to_csv(trace, out / "trace.csv")
    print(f"wrote {out / 'trace.csv'} ({trace.steps} steps, {trace.termination})")
    return EXIT_OK


def cmd_experiment(args) -> int:
    name = args.name
    if name not in experiments.EXPERIMENTS:
        raise CdamError(f"unknown experiment {name!r}; valid: {', '.join(experiments.EXPERIMENTS)}")
    run_experiment, takes_n, takes_graph = experiments.EXPERIMENTS[name]
    if args.n is not None and not takes_n:
        raise CdamError(f"experiment {name} has a fixed neuron count and takes no --n")
    if args.graph is not None and not takes_graph:
        raise CdamError(f"experiment {name} has a fixed graph and takes no --graph")
    graph = parse_graph_spec(args.graph) if args.graph is not None else None
    report = run_experiment(experiments.DEFAULT_N if args.n is None else args.n, args.seed, graph)
    report.write(args.out)
    print(f"wrote {Path(args.out) / 'report.json'}")
    return EXIT_OK


def cmd_automaton(args) -> int:
    if args.script is None and not args.repl:
        raise CdamError("automaton needs --script or --repl")
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
    else:
        emit("labels step the machine; :state NAME resets, :quit exits")
        tokens = (raw.strip() for raw in sys.stdin)
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
        if not 0 <= args.seed < 2**64:  # every manifest records it, and JSON ints hold 64 bits
            raise CdamError(f"--seed must be an integer in [0, 2**64), got {args.seed}")
        return handlers[args.command](args)
    except NumericDivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CdamError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
