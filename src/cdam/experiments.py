"""Reproductions of the numerical experiments: dynamical modes, hop-range
control, the temporal-cortex correlation fit, community extraction, video
sequence recall, finite-automaton runs, and retrieval-accuracy sweeps.

Conventions shared by the experiments:

* Runs start at sigma(0) = pattern + c*noise with c = 1 and run 101 steps
  at beta = 1, eta = 0.1 unless an experiment says otherwise.
* "Profile" statistics (hop profiles, community matrices) are computed on
  the matrix of Pearson correlations BETWEEN the final states of different
  trigger runs; its hop-0 entry is the self-correlation 1, matching how
  response-similarity data are tabulated.  Per-pattern correlations r_mu of
  one state stay available through SimulationTrace.
* Every experiment is deterministic given (seed, parameters, inputs) and
  reports them in its manifest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import reports
from .automata import AutomatonSpec
from .dynamics import (
    ModelParams,
    PatternMatrix,
    _center_columns,
    iterate,
    pearson_all,
    retrieval_vector,  # noqa: F401  (public here too: perfbench traces it by this name)
)
from .errors import ContractError, UnknownNameError
from .graphs import (
    MemoryGraph,
    NormalizedAdjacency,
    adjacency_coupling,
    build_cycle,
    build_nn_scaffold,
    hop_distances,
    named_communities,
    normalize,
)
from .ingest import compose_automaton_patterns, embed_label, random_patterns
from .stats import AnovaResult, one_way_anova, r_squared

# The four canonical operating points: pure auto-association, narrow and
# wide hetero-association, neutral quiescence.
FOUR_MODE_SETTINGS = ((1.0, 0.0), (0.5, 0.5), (-0.5, 1.5), (-2.5, 1.0))

# Balanced (a + h = 1) sweep used for range control and its ANOVA.
RANGE_SETTINGS = ((1.0, 0.0), (0.5, 0.5), (-0.5, 1.5), (-2.0, 3.0))

MIYASHITA_PARAMS = (-2.45, 3.45)

# Serial-distance autocorrelation means (and SEMs) of the most
# hetero-associated cell group in the classic temporal-cortex recordings,
# distances 0..6.
MIYASHITA_MEANS = (1.0, 0.33810, 0.19700, 0.11940, 0.08806, 0.07015, 0.06493)
MIYASHITA_SEMS = (0.0, 0.03731, 0.03582, 0.02985, 0.02388, 0.02015, 0.02239)

DEFAULT_N = 1000
DEFAULT_STEPS = 101
DEFAULT_NOISE = 1.0
EFFECTIVE_RANGE_THRESHOLD = 0.1


@dataclass
class HopProfile:
    """Mean/SD of final-state correlations by hop distance from the trigger."""

    means: np.ndarray
    sds: np.ndarray

    def effective_range(self) -> int:
        above = np.flatnonzero(self.means > EFFECTIVE_RANGE_THRESHOLD)
        return int(above.max()) if above.size else 0


@dataclass
class ExperimentReport:
    name: str
    params: dict
    outputs: dict = field(default_factory=dict)
    manifest: dict = field(default_factory=dict)

    def write(self, outdir) -> None:
        """report.json plus traces/, matrices/, heatmaps/ subdirectories."""
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        matrices, series, serializable = {}, {}, {}
        for key, value in self.outputs.items():
            serializable[key] = _jsonable(value)
            if isinstance(value, np.ndarray) and value.ndim == 2:
                matrices[key] = value
            elif isinstance(value, (np.ndarray, list)) and np.ndim(value) == 1 and np.size(value):
                series[key] = np.asarray(value, dtype=float).reshape(-1, 1)
        if matrices:
            (out / "matrices").mkdir(exist_ok=True)
            (out / "heatmaps").mkdir(exist_ok=True)
            for key, mat in matrices.items():
                reports.matrix_to_csv(mat, out / "matrices" / f"{key}.csv")
                if mat.shape[0] == mat.shape[1]:
                    reports.matrix_to_pgm(mat, out / "heatmaps" / f"{key}.pgm")
        if series:
            (out / "traces").mkdir(exist_ok=True)
            for key, col in series.items():
                reports.matrix_to_csv(col, out / "traces" / f"{key}.csv")
        reports.write_manifest(
            {"name": self.name, "params": self.params, "manifest": self.manifest,
             "outputs": serializable},
            out / "report.json",
        )


def _array_fingerprint(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, AnovaResult):
        return {"f": value.f, "p": value.p, "df": [value.df_between, value.df_within]}
    return value


# -- batched simulation harness ---------------------------------------------


def run_all_triggers(
    patterns: PatternMatrix,
    coupling: NormalizedAdjacency,
    params: ModelParams,
    steps: int = DEFAULT_STEPS,
    noise_c: float = DEFAULT_NOISE,
    seed: int = 0,
    snapshots: tuple[int, ...] = (),
) -> dict:
    """One run per stored pattern, vectorized as a state-matrix iteration.

    Uses the same iterate as the single-run engine (their equivalence is
    pinned by tests).  Returns final states (n x p), the pattern-correlation
    matrix r[mu, trigger], mean activity per trigger, and requested
    per-snapshot correlation matrices.
    """
    xi = patterns.values
    rng = np.random.default_rng(seed)
    sig0 = xi + noise_c * rng.uniform(-0.5, 0.5, xi.shape)
    snaps = {}

    def snapshot(t: int, sig: np.ndarray) -> None:
        if t in snapshots:
            snaps[t] = _pearson_matrix(patterns.centered, sig)

    sig = iterate(sig0, patterns, coupling, params, steps, observe=snapshot)[0]
    return {
        "final_states": sig,
        "pattern_correlations": _pearson_matrix(patterns.centered, sig),
        "mean_activity": sig.mean(axis=0),
        "snapshots": snaps,
    }


def _pearson_matrix(ref: tuple[np.ndarray, np.ndarray], state_cols: np.ndarray) -> np.ndarray:
    """r[i, j] between reference column i and column j of state_cols; `ref`
    holds the reference's centered columns and their norms."""
    rc, rnorms = ref
    sc, snorms = _center_columns(state_cols)
    return (rc.T @ sc) / (rnorms[:, None] * snorms[None, :])


def state_correlation_matrix(final_states: np.ndarray) -> np.ndarray:
    """Pearson correlations between the final states of every trigger pair."""
    # Centered twice on purpose: numpy computes `x.T @ x` with a symmetric
    # kernel that rounds differently from the general product.
    return _pearson_matrix(_center_columns(final_states), final_states)


def hop_profile(graph: MemoryGraph, state_corr: np.ndarray, max_hop: int) -> HopProfile:
    """Group the state-state correlation matrix by BFS hop distance."""
    hops = np.array([hop_distances(graph, v) for v in range(graph.p)])
    means, sds = [], []
    for d in range(max_hop + 1):
        vals = state_corr[hops == d]
        means.append(float(vals.mean()) if vals.size else float("nan"))
        sds.append(float(vals.std()) if vals.size else float("nan"))
    return HopProfile(np.array(means), np.array(sds))


def per_trigger_ranges(graph: MemoryGraph, state_corr: np.ndarray, max_hop: int) -> np.ndarray:
    """Largest hop whose mean correlation exceeds the threshold, per trigger."""
    hops = np.array([hop_distances(graph, v) for v in range(graph.p)])
    out = []
    for v in range(graph.p):
        best = 0
        for d in range(max_hop + 1):
            mask = hops[v] == d
            if mask.any() and state_corr[v, mask].mean() > EFFECTIVE_RANGE_THRESHOLD:
                best = d
        out.append(best)
    return np.array(out)


# -- experiments -------------------------------------------------------------


def _graph_report(name: str, graph: MemoryGraph, n: int, seed: int, settings, **params):
    params = {"n": n, "seed": seed, "settings": list(settings), **params}
    return ExperimentReport(name, params, manifest={"graph_fingerprint": graph.fingerprint()})


def _runs_per_setting(graph: MemoryGraph, settings, n: int, seed: int, **run_kw):
    """Seeded uniform patterns on the graph and its normalized coupling, then
    one all-trigger run per (a, h) setting, yielded with its report key."""
    patterns, coupling = random_patterns(n, graph.p, seed), normalize(graph)
    for a, h in settings:
        res = run_all_triggers(patterns, coupling, ModelParams(a=a, h=h), seed=seed + 1, **run_kw)
        yield f"a{a:+g}_h{h:+g}", res


def four_modes(
    graph: MemoryGraph,
    settings=FOUR_MODE_SETTINGS,
    n: int = DEFAULT_N,
    seed: int = 0,
    snapshots: tuple[int, ...] = (1, 11, 26, DEFAULT_STEPS),
) -> ExperimentReport:
    """Run every trigger under each (a, h) setting and collect the final
    pattern correlations, state-state correlations, and mean activities."""
    report = _graph_report("four-modes", graph, n, seed, settings, graph_p=graph.p)
    for key, res in _runs_per_setting(graph, settings, n, seed, snapshots=snapshots):
        report.outputs[f"corr_{key}"] = res["pattern_correlations"]
        report.outputs[f"states_{key}"] = state_correlation_matrix(res["final_states"])
        report.outputs[f"mean_activity_{key}"] = res["mean_activity"]
        for t, mat in res["snapshots"].items():
            report.outputs[f"corr_{key}_t{t}"] = mat
    return report


def hop_range(
    graph: MemoryGraph | None = None,
    settings=RANGE_SETTINGS,
    n: int = DEFAULT_N,
    seed: int = 0,
    max_hop: int = 10,
) -> ExperimentReport:
    """Hop-distance profiles per setting plus a one-way ANOVA across the
    per-trigger effective ranges."""
    graph = graph if graph is not None else build_cycle(30)
    report = _graph_report("hop-range", graph, n, seed, settings, max_hop=max_hop)
    groups = []
    for key, res in _runs_per_setting(graph, settings, n, seed):
        sc = state_correlation_matrix(res["final_states"])
        prof = hop_profile(graph, sc, max_hop)
        ranges = per_trigger_ranges(graph, sc, max_hop)
        groups.append(ranges.tolist())
        report.outputs[f"profile_mean_{key}"] = prof.means
        report.outputs[f"profile_sd_{key}"] = prof.sds
        report.outputs[f"ranges_{key}"] = ranges
        report.outputs[f"effective_range_{key}"] = prof.effective_range()
    if len(groups) >= 2:
        report.outputs["anova"] = one_way_anova(groups)
    report.outputs["mean_ranges"] = [float(np.mean(g)) for g in groups]
    return report


def miyashita_fit(
    a: float = MIYASHITA_PARAMS[0],
    h: float = MIYASHITA_PARAMS[1],
    n: int = DEFAULT_N,
    seeds=(0, 1, 2, 3, 4),
) -> ExperimentReport:
    """Hop 0..6 profile on the 30-cycle versus the recorded serial-distance
    autocorrelations; reports per-seed and mean R^2."""
    graph = build_cycle(30)
    coupling = normalize(graph)
    report = ExperimentReport(
        "miyashita",
        {"a": a, "h": h, "n": n, "seeds": list(seeds)},
        manifest={"graph_fingerprint": graph.fingerprint(),
                  "target_means": list(MIYASHITA_MEANS), "target_sems": list(MIYASHITA_SEMS)},
    )
    r2s, profiles = [], []
    for seed in seeds:
        patterns = random_patterns(n, graph.p, seed)
        res = run_all_triggers(patterns, coupling, ModelParams(a=a, h=h), seed=seed + 1)
        prof = hop_profile(graph, state_correlation_matrix(res["final_states"]), 6)
        profiles.append(prof.means)
        r2s.append(r_squared(prof.means, MIYASHITA_MEANS))
    report.outputs["profiles"] = np.array(profiles)
    report.outputs["r2_per_seed"] = r2s
    report.outputs["r2_mean"] = float(np.mean(r2s))
    return report


def community_matrices(
    graph: MemoryGraph,
    settings=RANGE_SETTINGS,
    n: int = DEFAULT_N,
    seed: int = 0,
) -> ExperimentReport:
    """State-state correlation matrix per setting, every vertex a trigger."""
    report = _graph_report("community", graph, n, seed, settings)
    for key, res in _runs_per_setting(graph, settings, n, seed):
        report.outputs[f"states_{key}"] = state_correlation_matrix(res["final_states"])
    return report


def block_contrast(matrix: np.ndarray, blocks) -> float:
    """Mean within-block correlation minus mean cross-block correlation,
    diagonal excluded."""
    p = matrix.shape[0]
    labels = np.full(p, -1)
    for b, members in enumerate(blocks):
        labels[list(members)] = b
    if (labels < 0).any():
        raise ContractError("blocks do not cover every vertex")
    same = (labels[:, None] == labels[None, :]) & ~np.eye(p, dtype=bool)
    diff = labels[:, None] != labels[None, :]
    return float(matrix[same].mean() - matrix[diff].mean())


def named_block_contrast(name: str, matrix: np.ndarray) -> float:
    return block_contrast(matrix, named_communities(name))


# -- video-sequence recall ---------------------------------------------------


def surrogate_frames(
    p: int = 50,
    n: int = 2000,
    seed: int = 0,
    switches=(17, 34),
    drift: float = 0.1,
) -> PatternMatrix:
    """Synthetic stand-in for sparsely sampled video frames: smooth per-frame
    drift with abrupt scene resets at the switch indices."""
    rng = np.random.default_rng(seed)
    current = rng.uniform(0, 1, n)
    cols = []
    for k in range(p):
        if k in switches:
            current = rng.uniform(0, 1, n)
        elif k > 0:
            current = np.clip(current + drift * rng.uniform(-1, 1, n), 0.0, 1.0)
        cols.append(current.copy())
    return PatternMatrix(np.column_stack(cols))


@dataclass
class RecallSchedule:
    argmax_per_step: list[int]
    visited_in_order: bool
    stalls: int
    skips: int
    steps_to_cover: int | None  # first step at which all patterns were seen


def schedule_metrics(argmax_per_step, p: int, patience: int = 40) -> RecallSchedule:
    """Stall: one argmax persisting longer than `patience` steps.  Skip: the
    argmax advancing two or more cycle positions at once."""
    stalls = skips = 0
    dwell = 1
    distinct = [argmax_per_step[0]]
    for prev, cur in zip(argmax_per_step, argmax_per_step[1:]):
        if cur == prev:
            dwell += 1
            if dwell == patience + 1:
                stalls += 1
        else:
            if (cur - prev) % p >= 2:
                skips += 1
            dwell = 1
            if distinct[-1] != cur:
                distinct.append(cur)
    in_order = all((b - a) % p == 1 for a, b in zip(distinct, distinct[1:]))
    seen = set()
    cover = None
    for i, v in enumerate(argmax_per_step):
        seen.add(v)
        if len(seen) == p:
            cover = i + 1
            break
    return RecallSchedule(list(argmax_per_step), in_order and len(seen) == p, stalls, skips, cover)


def sequence_recall(
    patterns: PatternMatrix,
    settings=((-2.0, 3.0), (1.0, 0.0)),
    steps: int = 1500,
    trigger: int = 0,
    noise_c: float = DEFAULT_NOISE,
    seed: int = 0,
    patience: int = 40,
) -> ExperimentReport:
    """Drive a directed cycle over the frames and log the argmax-correlation
    pattern per step, with stall/skip metrics."""
    p = patterns.p
    graph = build_cycle(p, directed=True)
    coupling = normalize(graph)
    report = ExperimentReport(
        "sequence",
        {"p": p, "n": patterns.n, "steps": steps, "trigger": trigger,
         "noise_c": noise_c, "seed": seed, "patience": patience,
         "settings": list(settings)},
        manifest={"graph_fingerprint": graph.fingerprint(),
                  "frames_fingerprint": _array_fingerprint(patterns.values)},
    )
    for a, h in settings:
        rng = np.random.default_rng(seed)
        sig = patterns.values[:, trigger] + noise_c * rng.uniform(-0.5, 0.5, patterns.n)
        argmaxes = []
        iterate(sig, patterns, coupling, ModelParams(a=a, h=h), steps,
                observe=lambda t, s: argmaxes.append(int(np.argmax(pearson_all(s, patterns)))))
        sched = schedule_metrics(argmaxes, p, patience=patience)
        key = f"a{a:+g}_h{h:+g}"
        report.outputs[f"schedule_{key}"] = sched.argmax_per_step
        report.outputs[f"metrics_{key}"] = {
            "visited_in_order": sched.visited_in_order,
            "stalls": sched.stalls,
            "skips": sched.skips,
            "steps_to_cover": sched.steps_to_cover,
        }
    return report


# -- finite automaton --------------------------------------------------------

# Retrieval through a single out-edge lands in one step when the softmax is
# effectively hard and the whole step is taken; these are the automaton
# defaults (every vertex of an automaton graph has out-degree one).
AUTOMATON_PARAMS = ModelParams(a=0.0, h=1.0, beta=50.0, eta=1.0)


@dataclass
class AutomatonTranscript:
    entries: list[dict] = field(default_factory=list)

    def add(self, state_before, label, state_after, r_value) -> None:
        self.entries.append(
            {"state_before": state_before, "label": label,
             "state_after": state_after, "r": r_value}
        )


class AutomatonRunner:
    """Symbolic state on top of the attractor dynamics: each query sets the
    network to the current state's pattern, overwrites the free slots with
    the label embedding, runs to convergence, and reads the argmax-Pearson
    pattern."""

    def __init__(self, spec: AutomatonSpec, n: int = DEFAULT_N, seed: int = 0,
                 params: ModelParams = AUTOMATON_PARAMS, steps: int = DEFAULT_STEPS):
        spec.validate()
        self.spec = spec
        self.params = params
        self.steps = steps
        self.seed = seed
        self.patterns, self.graph, self.slot_map = compose_automaton_patterns(spec, n, seed)
        self.coupling = normalize(self.graph)
        self.names = spec.vertex_names()
        self.index = {name: i for i, name in enumerate(self.names)}
        self.state = spec.states[0]

    def set_state(self, name: str) -> None:
        if name not in self.spec.states:
            raise UnknownNameError(f"unknown state {name!r}")
        self.state = name

    def _settle(self, sigma: np.ndarray) -> tuple[str, float]:
        """Run to a fixed point and read the argmax-Pearson vertex."""
        sigma = iterate(sigma, self.patterns, self.coupling, self.params, self.steps, tol=1e-9)[0]
        r = pearson_all(sigma, self.patterns)
        top = int(np.argmax(r))
        return self.names[top], float(r[top])

    def query(self, label: str) -> tuple[str, float]:
        """Stimulate with a label from the current state; updates and
        returns the post-convergence state."""
        embedding = embed_label(
            label, self.slot_map.free.shape[0],
            vectors=self.spec.label_vectors, seed=self.seed,
        )
        sigma = self.slot_map.stimulate(
            self.patterns.values[:, self.index[self.state]].copy(), embedding
        )
        name, r = self._settle(sigma)
        if name in self.spec.states:
            self.state = name
        return name, r

    def settle_from(self, vertex: str) -> tuple[str, float]:
        """Start at a vertex pattern (state or transition) with no
        stimulation and report where the dynamics land."""
        sigma = self.patterns.values[:, self.index[vertex]].copy()
        return self._settle(sigma)


def automaton_run(
    spec: AutomatonSpec,
    script,
    start: str | None = None,
    n: int = DEFAULT_N,
    seed: int = 0,
) -> AutomatonTranscript:
    """Replay a list of labels from a start state; defined transitions land
    on their targets, undefined ones return to the source."""
    runner = AutomatonRunner(spec, n=n, seed=seed)
    if start is not None:
        runner.set_state(start)
    transcript = AutomatonTranscript()
    for label in script:
        before = runner.state
        _, r = runner.query(label)
        transcript.add(before, label, runner.state, r)
    return transcript


def automaton_sweep(spec: AutomatonSpec, n: int = DEFAULT_N, seed: int = 0) -> dict[str, str]:
    """Settle from every vertex pattern; transition vertices should land on
    their targets and state vertices on themselves (the full edge set)."""
    runner = AutomatonRunner(spec, n=n, seed=seed)
    return {vertex: runner.settle_from(vertex)[0] for vertex in spec.vertex_names()}


# -- retrieval-accuracy sweep -------------------------------------------------

SWEEP_P_LEVELS = (10, 20, 30, 40, 50, 75, 100, 150, 200, 500)
SWEEP_SETTINGS = ((0.1, 0.9), (0.5, 0.5), (1.0, 0.0))


def surrogate_image_bank(
    n: int = 784,
    count: int = 500,
    classes: int = 5,
    seed: int = 77,
    distinct_head: int = 20,
    w_class: float = 0.45,
    w_pair: float = 0.2,
    crowd_start: int = 200,
    w_crowd: float = 0.06,
    crowd_group: int = 3,
) -> np.ndarray:
    """Seeded image-bank stand-in with the difficulty structure of a real
    image dataset: a short head of fully distinct items, a body of
    class-clustered near-neighbor pairs, and a tail of near-duplicate
    groups that floods the store at high pattern counts."""
    rng = np.random.default_rng(seed)
    protos = rng.uniform(0, 1, (classes, n))
    cols: list[np.ndarray] = []
    while len(cols) < count:
        i = len(cols)
        if i < distinct_head:
            cols.append(rng.uniform(0, 1, n))
        elif i < crowd_start:
            center = (1 - w_class) * protos[(i // 2) % classes] + w_class * rng.uniform(0, 1, n)
            for _ in range(2):
                if len(cols) < count:
                    cols.append(np.clip((1 - w_pair) * center + w_pair * rng.uniform(0, 1, n), 0, 1))
        else:
            center = (1 - w_class) * protos[(i // crowd_group) % classes] + w_class * rng.uniform(0, 1, n)
            for _ in range(crowd_group):
                if len(cols) < count:
                    cols.append(np.clip((1 - w_crowd) * center + w_crowd * rng.uniform(0, 1, n), 0, 1))
    return np.column_stack(cols)


def retrieval_sweep(
    dataset: np.ndarray,
    p_levels=SWEEP_P_LEVELS,
    settings=SWEEP_SETTINGS,
    trials: int = 5,
    noise_c: float = DEFAULT_NOISE,
    steps: int = DEFAULT_STEPS,
    seed: int = 0,
) -> ExperimentReport:
    """Exact-pattern retrieval accuracy over stored-pattern counts.

    Per level p: store the first p dataset columns, build the
    nearest-neighbor scaffold, trigger every pattern `trials` times with
    fresh noise, converge, and predict the argmax-overlap pattern.
    """
    n = dataset.shape[0]
    report = ExperimentReport(
        "retrieval-sweep",
        {"n": n, "p_levels": list(p_levels), "settings": list(settings),
         "trials": trials, "noise_c": noise_c, "seed": seed},
        manifest={"dataset_fingerprint": _array_fingerprint(dataset)},
    )
    accuracies: dict[str, dict[int, float]] = {f"a{a:+g}_h{h:+g}": {} for a, h in settings}
    for p in p_levels:
        if p > dataset.shape[1]:
            raise ContractError(f"p={p} exceeds dataset size {dataset.shape[1]}")
        xi = dataset[:, :p].copy()
        patterns = PatternMatrix(xi)
        if p == 1:
            # a single stored pattern has no nearest neighbor; use the
            # edgeless graph so the level still runs
            coupling = normalize(MemoryGraph(1, (), directed=False))
        else:
            coupling = normalize(build_nn_scaffold(xi))
        rng = np.random.default_rng(seed)
        base = np.repeat(xi, trials, axis=1)
        sig0 = base + noise_c * rng.uniform(-0.5, 0.5, base.shape)
        targets = np.repeat(np.arange(p), trials)
        for a, h in settings:
            # One expression, so no final state stays alive (and adds to peak
            # memory) while the next setting iterates.
            predicted = np.argmax(
                xi.T @ iterate(sig0, patterns, coupling, ModelParams(a=a, h=h), steps)[0], axis=0
            )
            accuracies[f"a{a:+g}_h{h:+g}"][p] = float(np.mean(predicted == targets))
    report.outputs["accuracy"] = accuracies
    return report


# -- E-I balance --------------------------------------------------------------


def ei_balance(
    graph: MemoryGraph | None = None,
    settings=RANGE_SETTINGS,
    n: int = DEFAULT_N,
    seed: int = 0,
) -> ExperimentReport:
    """Final mean activity per trigger for balanced (a + h = 1) settings."""
    graph = graph if graph is not None else build_cycle(30)
    report = _graph_report("ei-balance", graph, n, seed, settings)
    for key, res in _runs_per_setting(graph, settings, n, seed):
        report.outputs[f"mean_activity_{key}"] = res["mean_activity"]
    return report


def quiescence_threshold(
    graph: MemoryGraph,
    h: float,
    a_values,
    n: int = DEFAULT_N,
    seed: int = 0,
) -> dict[float, float]:
    """Worst-trigger max |r| at 101 steps with the unnormalized coupling
    M = A, for each tested auto strength."""
    patterns = random_patterns(n, graph.p, seed)
    coupling = adjacency_coupling(graph)
    out = {}
    for a in a_values:
        res = run_all_triggers(patterns, coupling, ModelParams(a=a, h=h), seed=seed + 1)
        out[a] = float(np.abs(res["pattern_correlations"]).max())
    return out
