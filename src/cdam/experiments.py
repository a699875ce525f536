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
* Each experiment runs the paper's fixed settings, held as the module
  constants below; run_all_triggers runs any other (a, h).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import reports
from .automata import AutomatonSpec, family_tree
from .dynamics import (
    DEFAULT_NOISE,
    DEFAULT_STEPS,
    FIXED_POINT_TOL,
    ModelParams,
    PatternMatrix,
    init_state,
    iterate,
    pearson_all,
    retrieval_vector,  # noqa: F401  (public here too: perfbench traces it by this name)
)
from .errors import CdamError, NumericDivergenceError
from .graphs import (
    MemoryGraph,
    NormalizedAdjacency,
    build_barbell,
    build_cycle,
    build_named,
    build_nn_scaffold,
    hop_distances,
    named_communities,
    normalize,
)
from .ingest import compose_automaton_patterns, random_patterns
from .stats import one_way_anova, r_squared

# The four canonical operating points: pure auto-association, narrow and
# wide hetero-association, neutral quiescence.
FOUR_MODE_SETTINGS = ((1.0, 0.0), (0.5, 0.5), (-0.5, 1.5), (-2.5, 1.0))

# Balanced (a + h = 1) sweep used for range control and its ANOVA.
RANGE_SETTINGS = ((1.0, 0.0), (0.5, 0.5), (-0.5, 1.5), (-2.0, 3.0))

MIYASHITA_PARAMS = (-2.45, 3.45)
MIYASHITA_SEEDS = (0, 1, 2, 3, 4)

# Serial-distance autocorrelation means (and SEMs) of the most
# hetero-associated cell group in the classic temporal-cortex recordings,
# distances 0..6.
MIYASHITA_MEANS = (1.0, 0.33810, 0.19700, 0.11940, 0.08806, 0.07015, 0.06493)
MIYASHITA_SEMS = (0.0, 0.03731, 0.03582, 0.02985, 0.02388, 0.02015, 0.02239)

DEFAULT_N = 1000
EFFECTIVE_RANGE_THRESHOLD = 0.1
HOP_RANGE_MAX_HOP = 10


@dataclass
class ExperimentReport:
    name: str
    params: dict
    outputs: dict = field(default_factory=dict)
    manifest: dict = field(default_factory=dict)

    def write(self, outdir) -> None:
        """report.json plus those of the traces/, matrices/ and heatmaps/
        subdirectories that the outputs fill."""
        out = Path(outdir)
        for key, value in self.outputs.items():
            if isinstance(value, np.ndarray) and value.ndim == 2:
                reports.matrix_to_csv(value, out / "matrices" / f"{key}.csv")
                if value.shape[0] == value.shape[1]:
                    reports.matrix_to_pgm(value, out / "heatmaps" / f"{key}.pgm")
            elif isinstance(value, (np.ndarray, list)) and np.ndim(value) == 1 and np.size(value):
                reports.matrix_to_csv(np.reshape(value, (-1, 1)), out / "traces" / f"{key}.csv")
        reports.write_manifest(
            {"name": self.name, "params": self.params, "manifest": self.manifest,
             "outputs": self.outputs},
            out / "report.json",
        )


def _is_int(value) -> bool:
    """Whether value is a Python or numpy integer, a bool not counted."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _array_fingerprint(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


# -- batched simulation harness ---------------------------------------------


def _readout(states: np.ndarray, patterns: PatternMatrix, t: int) -> np.ndarray:
    """pearson_all of the states at step t; a non-finite r raises
    NumericDivergenceError naming t."""
    r = pearson_all(states, patterns)
    if not np.isfinite(r).all():
        raise NumericDivergenceError(t, "readout")
    return r


def run_all_triggers(
    patterns: PatternMatrix,
    coupling: NormalizedAdjacency,
    params: ModelParams,
    seed: int = 0,
    snapshots: tuple[int, ...] = (),
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """One run of DEFAULT_STEPS steps per stored pattern, as one state stack.

    Uses the same iterate as the single-run engine (their equivalence is
    pinned by tests).  Returns (final states n x p, readouts): readouts maps
    each step read, the snapshot steps and the last, once each and in step
    order, to its pattern-correlation matrix r[mu, trigger].  A snapshot step
    outside 1..DEFAULT_STEPS raises CdamError, and a read whose correlations
    are not finite NumericDivergenceError naming its step.
    """
    if not all(1 <= t <= DEFAULT_STEPS for t in snapshots):
        raise CdamError(f"snapshot steps {snapshots} are not all in 1..{DEFAULT_STEPS}")
    sig0 = init_state(patterns, np.arange(patterns.p), DEFAULT_NOISE, seed)
    readouts = {}

    def read(t: int, sig: np.ndarray) -> None:
        if t in snapshots or t == DEFAULT_STEPS:
            readouts[t] = _readout(sig, patterns, t)

    sig, _, _ = iterate(sig0, patterns, coupling, params, DEFAULT_STEPS, observe=read)
    return sig, readouts


def state_correlation_matrix(final_states: np.ndarray) -> np.ndarray:
    """Pearson correlations between the final states of every trigger pair:
    pearson_all against PatternMatrix(final_states), which copies them, so
    non-finite, non-2-D or constant states raise the PatternMatrix CdamError."""
    return pearson_all(final_states, PatternMatrix(final_states))


def _mean(vals: np.ndarray) -> float:
    return float(vals.mean()) if vals.size else float("nan")


def hop_profile(hops: np.ndarray, state_corr: np.ndarray,
                max_hop: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and SD of the state-state correlations at each hop distance
    0..max_hop from the trigger (NaN where no pair is that far apart);
    `hops` is the graph's hop_distances matrix."""
    groups = [state_corr[hops == d] for d in range(max_hop + 1)]
    sds = [float(vals.std()) if vals.size else float("nan") for vals in groups]
    return np.array([_mean(vals) for vals in groups]), np.array(sds)


def effective_range(means) -> int:
    """Largest hop whose mean correlation exceeds the threshold, else 0."""
    above = np.flatnonzero(np.asarray(means) > EFFECTIVE_RANGE_THRESHOLD)
    return int(above.max()) if above.size else 0


def per_trigger_ranges(hops: np.ndarray, state_corr: np.ndarray, max_hop: int) -> np.ndarray:
    """effective_range of each trigger's own row of the hop profile; `hops`
    is the graph's hop_distances matrix."""
    return np.array([
        effective_range([_mean(state_corr[v, hops[v] == d]) for d in range(max_hop + 1)])
        for v in range(hops.shape[0])
    ])


# -- experiments -------------------------------------------------------------


def _graph_report(name: str, graph: MemoryGraph, n: int, seed: int, settings, **params):
    params = {"n": n, "seed": seed, "settings": list(settings), **params}
    return ExperimentReport(name, params, manifest={"graph_fingerprint": graph.fingerprint()})


def _runs_per_setting(graph: MemoryGraph, settings, n: int, seed: int, **run_kw):
    """Uniform patterns from `seed` on the graph and its normalized coupling,
    then one all-trigger run per (a, h) setting with noise from seed + 1,
    yielded as (report key, final states, readouts) of run_all_triggers."""
    patterns, coupling = random_patterns(n, graph.p, seed), normalize(graph)
    for a, h in settings:
        params = ModelParams(a=a, h=h)
        yield f"a{a:+g}_h{h:+g}", *run_all_triggers(patterns, coupling, params, seed + 1, **run_kw)


def four_modes(graph: MemoryGraph, n: int = DEFAULT_N, seed: int = 0) -> ExperimentReport:
    """Run every trigger under each FOUR_MODE_SETTINGS (a, h) and collect the
    final pattern correlations, state-state correlations, and mean
    activities, with pattern correlations also at steps 1, 11, 26 and 101."""
    report = _graph_report("four-modes", graph, n, seed, FOUR_MODE_SETTINGS, graph_p=graph.p)
    for key, states, readouts in _runs_per_setting(graph, FOUR_MODE_SETTINGS, n, seed,
                                                   snapshots=(1, 11, 26)):
        report.outputs[f"corr_{key}"] = readouts[DEFAULT_STEPS]
        report.outputs[f"states_{key}"] = state_correlation_matrix(states)
        report.outputs[f"mean_activity_{key}"] = states.mean(axis=0)
        for t, mat in readouts.items():
            report.outputs[f"corr_{key}_t{t}"] = mat
    return report


def hop_range(n: int = DEFAULT_N, seed: int = 0) -> ExperimentReport:
    """Hop-distance profiles (hops 0..HOP_RANGE_MAX_HOP) on the 30-cycle per
    RANGE_SETTINGS (a, h) plus a one-way ANOVA across the per-trigger
    effective ranges."""
    graph = build_cycle(30)
    report = _graph_report("hop-range", graph, n, seed, RANGE_SETTINGS, max_hop=HOP_RANGE_MAX_HOP)
    hops = hop_distances(graph)
    groups = []
    for key, states, _ in _runs_per_setting(graph, RANGE_SETTINGS, n, seed):
        sc = state_correlation_matrix(states)
        means, sds = hop_profile(hops, sc, HOP_RANGE_MAX_HOP)
        ranges = per_trigger_ranges(hops, sc, HOP_RANGE_MAX_HOP)
        groups.append(ranges.tolist())
        report.outputs[f"profile_mean_{key}"] = means
        report.outputs[f"profile_sd_{key}"] = sds
        report.outputs[f"ranges_{key}"] = ranges
        report.outputs[f"effective_range_{key}"] = effective_range(means)
    report.outputs["anova"] = one_way_anova(groups)
    report.outputs["mean_ranges"] = [float(np.mean(g)) for g in groups]
    return report


def miyashita_fit(n: int = DEFAULT_N) -> ExperimentReport:
    """Hop 0..6 profile on the 30-cycle at MIYASHITA_PARAMS versus the
    recorded serial-distance autocorrelations; reports the R^2 of each of
    MIYASHITA_SEEDS and their mean."""
    a, h = MIYASHITA_PARAMS
    graph = build_cycle(30)
    hops = hop_distances(graph)
    report = ExperimentReport(
        "miyashita",
        {"a": a, "h": h, "n": n, "seeds": list(MIYASHITA_SEEDS)},
        manifest={"graph_fingerprint": graph.fingerprint(),
                  "target_means": list(MIYASHITA_MEANS), "target_sems": list(MIYASHITA_SEMS)},
    )
    r2s, profiles = [], []
    for seed in MIYASHITA_SEEDS:
        for _, states, _ in _runs_per_setting(graph, (MIYASHITA_PARAMS,), n, seed):
            means, _ = hop_profile(hops, state_correlation_matrix(states), 6)
            profiles.append(means)
            r2s.append(r_squared(means, MIYASHITA_MEANS))
    report.outputs["profiles"] = np.array(profiles)
    report.outputs["r2_per_seed"] = r2s
    report.outputs["r2_mean"] = float(np.mean(r2s))
    return report


def community_matrices(graph: MemoryGraph, n: int = DEFAULT_N, seed: int = 0) -> ExperimentReport:
    """State-state correlation matrix per RANGE_SETTINGS (a, h), every vertex
    a trigger."""
    report = _graph_report("community", graph, n, seed, RANGE_SETTINGS)
    for key, states, _ in _runs_per_setting(graph, RANGE_SETTINGS, n, seed):
        report.outputs[f"states_{key}"] = state_correlation_matrix(states)
    return report


def block_contrast(matrix: np.ndarray, blocks) -> float:
    """Mean within-block correlation minus mean cross-block correlation,
    diagonal excluded; a matrix that is not square, a member that is not an integer in
    [0, p), a vertex in two blocks, or blocks that leave either without a pair raise CdamError."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise CdamError(f"block contrast needs a square matrix, got shape {matrix.shape}")
    p = matrix.shape[0]
    labels = np.full(p, -1)
    for b, members in enumerate(blocks):
        if not all(_is_int(v) and 0 <= v < p and labels[v] in (-1, b) for v in members):
            raise CdamError(f"block {b} has a member not an int in [0,{p}) or in an earlier block")
        labels[list(members)] = b
    if (labels < 0).any():
        raise CdamError("blocks do not cover every vertex")
    same = (labels[:, None] == labels[None, :]) & ~np.eye(p, dtype=bool)
    diff = labels[:, None] != labels[None, :]
    if not (same.any() and diff.any()):
        raise CdamError("blocks leave no within-block pair or no cross-block pair")
    return float(matrix[same].mean() - matrix[diff].mean())


def named_block_contrast(name: str, matrix: np.ndarray) -> float:
    return block_contrast(matrix, named_communities(name))


# -- video-sequence recall ---------------------------------------------------


# The sequence experiment's frames and its runs.
FRAME_COUNT = 50
FRAME_N = 2000
FRAME_SWITCHES = (17, 34)
SEQUENCE_SETTINGS = ((-2.0, 3.0), (1.0, 0.0))
SEQUENCE_STEPS = 1500
SEQUENCE_TRIGGER = 0


def surrogate_frames(seed: int = 0) -> PatternMatrix:
    """Synthetic stand-in for FRAME_COUNT sparsely sampled video frames of
    FRAME_N pixels: each frame moves every pixel by up to 0.1 (clipped to
    [0, 1]), with abrupt scene resets at FRAME_SWITCHES."""
    rng = np.random.default_rng(seed)
    current = rng.uniform(0, 1, FRAME_N)
    cols = []
    for k in range(FRAME_COUNT):
        if k in FRAME_SWITCHES:
            current = rng.uniform(0, 1, FRAME_N)
        elif k > 0:
            current = np.clip(current + 0.1 * rng.uniform(-1, 1, FRAME_N), 0.0, 1.0)
        cols.append(current)
    return PatternMatrix(np.column_stack(cols))


# A sequence-recall argmax that persists longer than this many steps is a stall.
PATIENCE = 40


def schedule_metrics(argmax_per_step, p: int) -> dict:
    """{visited_in_order, stalls, skips, steps_to_cover} of an argmax schedule,
    read from its dwells (runs of one argmax).  Stall: a dwell longer than PATIENCE
    steps.  Skip: a move between dwells of two or more cycle positions forward.
    steps_to_cover is the first step at which all p patterns were seen, or None.  A p that is
    not an int >= 1, or a schedule that is not a non-empty 1-D sequence of ints in [0, p), raises
    CdamError."""
    schedule = np.asarray(argmax_per_step)
    if not (_is_int(p) and p >= 1 and schedule.ndim == 1 and schedule.size
            and schedule.dtype.kind in "iu" and 0 <= schedule.min() and schedule.max() < p):
        raise CdamError(f"schedule of shape {schedule.shape} is not ints in [0, p), p={p!r}")
    starts = np.concatenate(([0], np.flatnonzero(np.diff(schedule)) + 1))
    moves = np.diff(schedule[starts]) % p
    firsts = np.sort(np.unique(schedule, return_index=True)[1])
    cover = int(firsts[p - 1]) + 1 if firsts.size >= p else None
    return {"visited_in_order": cover is not None and bool(np.all(moves == 1)),
            "stalls": int(np.count_nonzero(np.diff(starts, append=schedule.size) > PATIENCE)),
            "skips": int(np.count_nonzero(moves >= 2)), "steps_to_cover": cover}


def sequence_recall(patterns: PatternMatrix, seed: int = 0) -> ExperimentReport:
    """Drive a directed cycle over the frames from SEQUENCE_TRIGGER for
    SEQUENCE_STEPS steps per SEQUENCE_SETTINGS (a, h) and log the
    argmax-correlation pattern per step, with stall/skip metrics.

    The runs iterate in the pattern basis [Xi | yc], with yc the centered
    frames, not in state space.  The argmax of pearson_all(sigma), every
    state-space run's readout, is the argmax of yc^T sigma / |yc|, since
    the columns of yc sum to zero; it is read from the last p rows of every
    step, once per run.  A zero-variance frame raises CdamError before any run.
    """
    p = patterns.p
    yc, ys, _ = patterns.centered
    basis = np.hstack([patterns.values, yc])
    graph = build_cycle(p, directed=True)
    coupling = normalize(graph)
    report = ExperimentReport(
        "sequence",
        {"p": p, "n": patterns.n, "steps": SEQUENCE_STEPS, "trigger": SEQUENCE_TRIGGER,
         "noise_c": DEFAULT_NOISE, "seed": seed, "patience": PATIENCE,
         "settings": list(SEQUENCE_SETTINGS)},
        manifest={"graph_fingerprint": graph.fingerprint(),
                  "frames_fingerprint": _array_fingerprint(patterns.values)},
    )
    sigma0 = init_state(patterns, SEQUENCE_TRIGGER, DEFAULT_NOISE, seed)
    for a, h in SEQUENCE_SETTINGS:
        kept = []
        iterate(sigma0, patterns, coupling, ModelParams(a=a, h=h), SEQUENCE_STEPS,
                observe=lambda t, rows: kept.append(rows[p:]), basis=basis)
        argmaxes = np.argmax(np.array(kept) / ys, axis=1)
        key = f"a{a:+g}_h{h:+g}"
        report.outputs[f"schedule_{key}"] = argmaxes.tolist()
        report.outputs[f"metrics_{key}"] = schedule_metrics(argmaxes, p)
    return report


# -- finite automaton --------------------------------------------------------

# Retrieval through a single out-edge lands in one step when the softmax is
# effectively hard and the whole step is taken; these are the automaton
# defaults (every vertex of an automaton graph has out-degree one).
AUTOMATON_PARAMS = ModelParams(a=0.0, h=1.0, beta=50.0, eta=1.0)


class AutomatonRunner:
    """Symbolic state on top of the attractor dynamics: each query sets the
    network to the current state's pattern, overwrites the free slots with
    the label embedding, runs to convergence, and reads the argmax-Pearson
    pattern."""

    def __init__(self, spec: AutomatonSpec, n: int = DEFAULT_N, seed: int = 0):
        self.spec = spec
        self.patterns, graph, self.free = compose_automaton_patterns(spec, n, seed)
        self.coupling = normalize(graph)
        self.names = spec.vertex_names()
        self.index = {name: i for i, name in enumerate(self.names)}
        self.carrier = {label: self.index[f"{src}+{label}"] for src, label, _ in spec.transitions}
        self.state = spec.states[0]

    def set_state(self, name: str) -> None:
        if name not in self.spec.states:
            raise CdamError(f"unknown state {name!r}")
        self.state = name

    def _settle(self, sigma: np.ndarray) -> tuple[str, float]:
        """Run to a fixed point and read the argmax-Pearson vertex; a settled
        state too large to read raises NumericDivergenceError."""
        sigma, steps, _ = iterate(sigma, self.patterns, self.coupling, AUTOMATON_PARAMS,
                                  DEFAULT_STEPS, tol=FIXED_POINT_TOL)
        r = _readout(sigma, self.patterns, steps)
        top = int(np.argmax(r))
        return self.names[top], float(r[top])

    def query(self, label: str) -> tuple[str, float]:
        """Stimulate with a label from the current state, its embedding read from the free
        block of a transition carrying it (self.carrier); updates and returns the
        post-convergence state.  A label of no transition raises CdamError."""
        if label not in self.carrier:
            raise CdamError(f"unknown label {label!r}")
        sigma = self.patterns.values[:, self.index[self.state]].copy()
        sigma[self.free] = self.patterns.values[self.free, self.carrier[label]]
        name, r = self._settle(sigma)
        if name in self.spec.states:
            self.state = name
        return name, r

    def settle_from(self, vertex: str) -> tuple[str, float]:
        """Start at a vertex pattern (state or transition) with no
        stimulation and report where the dynamics land."""
        if vertex not in self.index:
            raise CdamError(f"unknown vertex {vertex!r}")
        return self._settle(self.patterns.values[:, self.index[vertex]])


def automaton_sweep(spec: AutomatonSpec, n: int = DEFAULT_N, seed: int = 0) -> ExperimentReport:
    """Settle from every vertex pattern and report where each "landed":
    transitions should land on their targets and states on themselves."""
    runner = AutomatonRunner(spec, n=n, seed=seed)
    landed = {vertex: runner.settle_from(vertex)[0] for vertex in spec.vertex_names()}
    return ExperimentReport("automaton-sweep", {"n": n, "seed": seed}, {"landed": landed})


# -- retrieval-accuracy sweep -------------------------------------------------

SWEEP_P_LEVELS = (10, 20, 30, 40, 50, 75, 100, 150, 200, 500)
SWEEP_SETTINGS = ((0.1, 0.9), (0.5, 0.5), (1.0, 0.0))
BANK_N = 784
BANK_SIZE = 20 + 2 * 90 + 3 * 100  # distinct items, then pairs, then triples


def surrogate_image_bank(seed: int = 77) -> np.ndarray:
    """Seeded BANK_N x BANK_SIZE image-bank stand-in with the difficulty
    structure of a real image dataset, around 5 class prototypes: 20 fully
    distinct items, then 90 near-neighbor pairs (noise weight 0.2) around
    class centers (prototype weight 0.55, pair k on prototype k mod 5), then
    100 near-duplicate triples (noise weight 0.06, on prototype (k + 1) mod 5)
    that flood the store at high pattern counts.  Each kind is one uniform
    draw, a group's center noise first.  A smaller bank is a slice."""
    rng = np.random.default_rng(seed)
    protos = rng.uniform(0, 1, (5, BANK_N))
    rows = [rng.uniform(0, 1, (20, BANK_N))]
    for groups, size, weight, shift in ((90, 2, 0.2, 0), (100, 3, 0.06, 1)):
        noise = rng.uniform(0, 1, (groups, 1 + size, BANK_N))
        centers = (1 - 0.45) * protos[(np.arange(groups) + shift) % 5] + 0.45 * noise[:, 0]
        items = np.clip((1 - weight) * centers[:, None] + weight * noise[:, 1:], 0, 1)
        rows.append(items.reshape(-1, BANK_N))
    return np.ascontiguousarray(np.vstack(rows).T)


def retrieval_sweep(
    dataset: np.ndarray,
    p_levels=SWEEP_P_LEVELS,
    trials: int = 5,
    seed: int = 0,
) -> ExperimentReport:
    """Exact-pattern retrieval accuracy over stored-pattern counts.

    Per level p >= 2: store the first p dataset columns, build the
    nearest-neighbor scaffold, trigger every pattern `trials` times with
    fresh noise, run DEFAULT_STEPS steps per SWEEP_SETTINGS (a, h), and
    predict the argmax-overlap pattern.  The
    runs iterate in the pattern basis Xi: the readout is the argmax of their
    logit rows Xi^T sigma, which the rounding between the bases does not move.
    Before any level runs, trials that is not an int >= 1, a dataset that is not n x p and a
    level that is not an int from 2 (one pattern has no nearest neighbor) to the dataset's
    column count raise CdamError; numpy integers count as ints, bools do not.
    """
    if not (_is_int(trials) and trials >= 1):
        raise CdamError(f"retrieval sweep needs trials >= 1, got {trials!r} (an int)")
    if dataset.ndim != 2:
        raise CdamError(f"retrieval sweep needs an n x p dataset, got shape {dataset.shape}")
    p_levels = list(p_levels)  # read once: an iterator of levels is checked and run alike
    for p in p_levels:
        if not _is_int(p):
            raise CdamError(f"retrieval sweep level {p!r} is not an int")
        if p < 2:
            raise CdamError(f"sweep level: nearest-neighbor scaffold needs p >= 2, got {p}")
        if p > dataset.shape[1]:
            raise CdamError(f"p={p} exceeds dataset size {dataset.shape[1]}")
    report = ExperimentReport(
        "retrieval-sweep",
        {"n": dataset.shape[0], "p_levels": p_levels, "settings": list(SWEEP_SETTINGS),
         "trials": trials, "noise_c": DEFAULT_NOISE, "seed": seed},
        manifest={"dataset_fingerprint": _array_fingerprint(dataset)},
    )
    accuracies: dict[str, dict[int, float]] = {f"a{a:+g}_h{h:+g}": {} for a, h in SWEEP_SETTINGS}
    for p in p_levels:
        patterns = PatternMatrix(dataset[:, :p])
        coupling = normalize(build_nn_scaffold(patterns.values))
        targets = np.repeat(np.arange(p), trials)
        sigma0 = init_state(patterns, targets, DEFAULT_NOISE, seed)
        for a, h in SWEEP_SETTINGS:
            final, _, _ = iterate(sigma0, patterns, coupling, ModelParams(a=a, h=h),
                                  DEFAULT_STEPS, basis=patterns.values)
            predicted = np.argmax(final, axis=0)
            accuracies[f"a{a:+g}_h{h:+g}"][int(p)] = float(np.mean(predicted == targets))
    report.outputs["accuracy"] = accuracies
    return report


# -- E-I balance --------------------------------------------------------------


def ei_balance(n: int = DEFAULT_N, seed: int = 0) -> ExperimentReport:
    """Final mean activity per trigger on the 30-cycle for the balanced
    (a + h = 1) RANGE_SETTINGS."""
    graph = build_cycle(30)
    report = _graph_report("ei-balance", graph, n, seed, RANGE_SETTINGS)
    for key, states, _ in _runs_per_setting(graph, RANGE_SETTINGS, n, seed):
        report.outputs[f"mean_activity_{key}"] = states.mean(axis=0)
    return report


# `cdam experiment` name -> (run(n, seed, graph), whether n is free, whether a graph may replace
# the default).  A run looks its experiment up by module name when it runs, for perfbench's tracer.
EXPERIMENTS = {
    "four-modes": (lambda n, seed, graph: four_modes(
        graph if graph is not None else build_cycle(30), n, seed), True, True),
    "hop-range": (lambda n, seed, _: hop_range(n, seed), True, False),
    "miyashita": (lambda n, seed, _: miyashita_fit(n), True, False),
    "karate": (lambda n, seed, _: community_matrices(build_named("karate"), n, seed), True, False),
    "tutte": (lambda n, seed, _: community_matrices(build_named("tutte"), n, seed), True, False),
    "barbell": (lambda n, seed, _: community_matrices(build_barbell(10, 10), n, seed), True, False),
    "sequence": (lambda n, seed, _: sequence_recall(surrogate_frames(seed), seed + 1),
                 False, False),
    "retrieval-sweep": (lambda n, seed, _: retrieval_sweep(surrogate_image_bank(), seed=seed),
                        False, False),
    "automaton-sweep": (lambda n, seed, _: automaton_sweep(family_tree(), n, seed), True, False),
    "ei-balance": (lambda n, seed, _: ei_balance(n, seed), True, False),
}
