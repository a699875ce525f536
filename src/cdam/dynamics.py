"""State-update engine for graph-correlated dense associative memory.

The network holds p continuous patterns (columns of an n x p matrix) and a
coupling matrix M over the pattern graph.  One update moves the state toward

    retrieval = (a*Xc + h*Xc*M^T) @ softmax(beta * Xi^T sigma)

at rate eta, i.e. sigma <- sigma + eta*(retrieval - sigma), where Xc is the
pattern matrix with the mean memory load subtracted from every column.  The
auto term (a) pulls toward the best-matching pattern, the hetero term (h)
toward that pattern's graph successors.

Centering the projection columns is what keeps the mean activity at zero
for a + h = 1 (on graphs whose coupling columns sum to one it equals an
uncentered projection minus the full mean-load vector), and it makes the
quiescent regime a < -k*h decay toward the zero state instead of parking
on a multiple of the mean pattern.

A state is a float array: one vector of shape (n,), or an (n, B) stack of
B states that iterate steps together.

Every update moves the state by a blend of stored patterns, so the same
loop can run in the basis of the patterns instead: the logits L = Xi^T sigma
follow L <- L + eta*(W @ softmax(beta*L) - L), where for fixed (a, h)

    W = a*G + h*G*M^T - u (outer) (a*1 + h*M*1),   G = Xi^T Xi,  u = Xi^T mean_load

is Xi^T times the centered projection of the mixing, built once per run
(M*1 holds the row sums of the coupling, so directed graphs come out
right).  A logit step costs one p x p product per column instead of
2 n x p, but its floats differ from Xi^T sigma by rounding (a few 1e-12
relative), so only a run whose readout is discrete uses it.

The mean row.  W carries one more row, a*d + h*M*d with d the column
means of Xi minus the mean of mean_load, so a logit state may carry one
more row too: row p holds the mean activity mean(sigma), which the same
step moves exactly.

The readout identity.  yc_mu.(sigma - mean(sigma)) = L_mu - n*m_mu*mean(sigma),
with m_mu the mean and yc_mu the centered column of pattern mu, and
|sigma - mean(sigma)| is the same for every mu, so the argmax of
pearson_all(sigma) is the argmax of (L_mu - n*m_mu*L_p) / |yc_mu|.

The rounding envelope.  The retrieval sweep reads the argmax of its final
logits and sequence recall the Pearson argmax of every step; every run
whose floats are reported stays in state space.  At (a, h) = (-2, 3) a
sequence schedule's tail is sensitive to rounding: starting the
state-space run from sigma0*(1 + 2^-52) moves its own schedule at bench
seeds 44 and 52 (from steps 1254 and 1136), and the pattern-basis schedule
parts from the state-space one at seed 52 only, from step 1158, with the
same metrics (tools/sequence_basis.py).

The readout block.  run() keeps the states iterate hands its observer,
which iterate never writes again, and reads READOUT_BLOCK of them, and the
last partial block, together: pearson_all and energy of the stack, the
overlaps as one Xi^T S / n product, and the mean and SD of every column.
The states are iterate's, bit for bit, and the mean and SD take the same
reductions as per state, so they are bitwise too; r and the energy of a
block round unlike those of one state, by at most 2.6e-15 in r and 9.1e-16
relative in the energy over the 36 bench simulate runs at seeds 0, 5 and 7.
A bad readout is still named by its own step, though the run may take up
to READOUT_BLOCK - 1 more steps before it raises.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ContractError,
    EnergyUndefinedError,
    NumericDivergenceError,
    UndefinedCorrelationError,
)
from .graphs import MemoryGraph, NormalizedAdjacency, normalize

# The stock run: steps, the noise amplitude of init_state, and the
# infinity-norm change below which a run has reached a fixed point.
DEFAULT_STEPS = 101
DEFAULT_NOISE = 1.0
FIXED_POINT_TOL = 1e-9
# States whose readouts run() computes together: one product with the
# patterns per block instead of one per state.
READOUT_BLOCK = 64
# Pair terms exp(b*m_a*m_k) the energy holds at once, per chunk of states.
ENERGY_PAIR_BUDGET = 1 << 22


@dataclass(frozen=True)
class PatternMatrix:
    """Stored memories: column mu of `values` is pattern mu (n x p, finite).
    Frozen, with read-only values, so statistics derived from them cannot go stale."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ContractError(f"pattern matrix must be 2-D, got shape {v.shape}")
        if 0 in v.shape:
            raise ContractError(f"pattern matrix needs n, p >= 1, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ContractError("pattern matrix contains non-finite values")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @cached_property
    def mean_load(self) -> np.ndarray:
        """Average of all stored patterns (the global inhibitory bias vector)."""
        return self.values.mean(axis=1)

    @cached_property
    def centered(self) -> tuple[np.ndarray, np.ndarray]:
        """Centered columns and their norms, the pattern side of every Pearson
        readout; built on first use, as sweeps never read Pearson."""
        cols, norms = _center_columns(self.values)
        cols.flags.writeable = norms.flags.writeable = False
        return cols, norms


def _center_columns(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns minus their own means, and the Euclidean norms of the results."""
    centered = cols - cols.mean(axis=0, keepdims=True)
    return centered, np.sqrt((centered**2).sum(axis=0))


def _pearson_matrix(ref: tuple[np.ndarray, np.ndarray],
                    states: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """r[i, j] between reference column i and state column j; each side is
    given by its centered columns and their norms.  A zero-variance column
    on either side raises UndefinedCorrelationError."""
    rc, rnorms = ref
    sc, snorms = states
    if np.any(rnorms == 0.0) or np.any(snorms == 0.0):
        raise UndefinedCorrelationError("pearson undefined: zero-variance state or pattern")
    return (rc.T @ sc) / (rnorms[:, None] * snorms[None, :])


@dataclass(frozen=True)
class ModelParams:
    a: float = 1.0
    h: float = 0.0
    beta: float = 1.0
    eta: float = 0.1

    def __post_init__(self):
        for name in ("a", "h", "beta", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise ContractError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.beta > 0:
            raise ContractError(f"beta must be > 0, got {self.beta}")
        if not self.eta > 0:
            raise ContractError(f"eta must be > 0, got {self.eta}")


@dataclass
class SimulationTrace:
    """Per-step records of a run; row k describes the state at time k."""

    correlations: np.ndarray  # (steps+1, p) pearson r per pattern
    mean_activity: np.ndarray  # (steps+1,)
    sd_activity: np.ndarray  # (steps+1,)
    energies: np.ndarray | None  # (steps+1,) when the run recorded energies
    final_state: np.ndarray
    termination: str  # "max-steps" | "fixed-point"

    @property
    def steps(self) -> int:
        return len(self.mean_activity) - 1


def softmax_beta(z: np.ndarray, beta: float) -> np.ndarray:
    """Softmax of beta*z with max subtraction for overflow safety, computed
    in place in one new array."""
    z = np.asarray(z, dtype=float)
    e = np.multiply(beta, z, out=np.empty_like(z))  # an array even for a 0-d z
    e -= e.max(axis=0, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=0, keepdims=True)
    return e


def _check_dims(sigma: np.ndarray, patterns: PatternMatrix, m: NormalizedAdjacency, *,
                logits: bool) -> None:
    """Raise unless sigma (a vector or a (rows, batch) stack, with p rows of
    logits, or p + 1 with the mean row, or n rows of state) and m fit the
    patterns."""
    rows, name = (patterns.p, "pattern") if logits else (patterns.n, "neuron")
    if sigma.ndim not in (1, 2) or sigma.shape[0] not in (rows, rows + logits):
        raise ContractError(f"state of shape {sigma.shape} does not fit {name} count {rows}")
    if m.matrix.shape != (patterns.p, patterns.p):
        raise ContractError(
            f"coupling matrix is {m.matrix.shape}, patterns hold p={patterns.p}"
        )


def retrieval_vector(
    sigma: np.ndarray, patterns: PatternMatrix, m: NormalizedAdjacency, params: ModelParams,
    operator: np.ndarray | None = None,
) -> np.ndarray:
    """(a*Xc + h*Xc*M^T) softmax(beta*Xi^T sigma); works on a single state
    vector or an (n, batch) stack of states.  Given the logit operator W of
    (patterns, m, params), sigma holds logits Xi^T sigma (p rows, or p + 1
    with the mean activity last) and the result, W softmax(beta*logits) cut
    to as many rows, is Xi^T of the retrieval (and its mean).

    Softmax logits use the raw patterns (the centered ones would only shift
    every logit by the same constant); the projection uses centered columns.
    With h == 0 the graph mixing is skipped: a*s + 0*(M^T s) equals a*s.
    """
    if operator is not None:
        return operator[:len(sigma)] @ softmax_beta(sigma[:patterns.p], params.beta)
    xi = patterns.values
    s = softmax_beta(xi.T @ sigma, params.beta)
    mixed = params.a * s
    if params.h != 0:
        mixed += params.h * (m.matrix.T @ s)
    # Xi @ (centered mixing) == Xi @ mixed - mean_load (outer) column sums of
    # mixed, cheaper than materializing the centered matrix.
    return xi @ mixed - np.multiply.outer(patterns.mean_load, mixed.sum(axis=0))


def _logit_operator(patterns: PatternMatrix, m: NormalizedAdjacency,
                    params: ModelParams) -> np.ndarray:
    """W = a*G + h*G*M^T - u (outer) (a*1 + h*M*1) with G = Xi^T Xi and
    u = Xi^T mean_load: W s is Xi^T of the centered projection of the
    mixing a*s + h*M^T s, whose column sums are (a*1 + h*M*1)^T s.  Row p
    is a*d + h*M*d, with d = the column means of Xi minus the mean of
    mean_load: (W s)[p] is the mean of that projection, d^T of the mixing."""
    xi, coupling = patterns.values, m.matrix
    gram = xi.T @ xi
    op = params.a * gram
    d = xi.mean(axis=0) - patterns.mean_load.mean()
    mean_row = params.a * d
    if params.h != 0:
        op += params.h * (gram @ coupling.T)
        mean_row += params.h * (coupling @ d)
    op -= np.multiply.outer(xi.T @ patterns.mean_load, params.a + params.h * coupling.sum(axis=1))
    return np.vstack([op, mean_row])


def update_step(sigma: np.ndarray, patterns: PatternMatrix, m: NormalizedAdjacency,
                params: ModelParams, operator: np.ndarray | None) -> np.ndarray:
    """iterate's step sigma + eta*(retrieval - sigma), on states or, given the
    logit operator, logits; an overflow leaves a non-finite result."""
    with np.errstate(all="ignore"):
        target = retrieval_vector(sigma, patterns, m, params, operator=operator)
        return sigma + params.eta * (target - sigma)


def iterate(sigma0: np.ndarray, patterns: PatternMatrix, m: NormalizedAdjacency,
            params: ModelParams, steps: int, tol: float | None = None,
            observe: Callable[[int, np.ndarray], None] | None = None,
            logits: bool = False) -> tuple[np.ndarray, int, str]:
    """The Euler loop of every run, sigma <- update_step(sigma), on a state
    vector or an (n, batch) stack, for up to `steps` steps; with
    logits=True, on logits Xi^T sigma (p rows, or p + 1 whose last holds
    mean(sigma)) in the pattern basis, through the logit operator built once
    for the call.

    observe(t, sigma) sees the state after each step t = 1, 2, ...; each is
    a new array that iterate never writes again, so an observer may keep it
    without a copy.  With a tolerance, stops after the first step whose max
    |change| is below it.  A non-finite state raises NumericDivergenceError
    naming its step.  Returns (final state, steps taken, "max-steps" or
    "fixed-point").
    """
    sig = np.asarray(sigma0, dtype=float)
    _check_dims(sig, patterns, m, logits=logits)
    operator = _logit_operator(patterns, m, params) if logits else None
    for t in range(1, steps + 1):
        new = update_step(sig, patterns, m, params, operator)
        if not np.isfinite(new).all():
            raise NumericDivergenceError(t, "network state")
        converged = tol is not None and float(np.max(np.abs(new - sig))) < tol
        sig = new
        if observe is not None:
            observe(t, sig)
        if converged:
            return sig, t, "fixed-point"
    return sig, steps, "max-steps"


def run(sigma0: np.ndarray, patterns: PatternMatrix, graph: MemoryGraph,
        params: ModelParams, max_steps: int = DEFAULT_STEPS,
        fixed_point_tol: float = FIXED_POINT_TOL, with_energy: bool = False) -> SimulationTrace:
    """Iterate on the normalized coupling of `graph` until max_steps or an
    infinity-norm fixed point, recording every state's readouts, with its
    energy over the same graph when with_energy is set.

    The trace includes the t=0 record, so it has steps+1 rows.  The loop is
    iterate's, untouched; the readouts (Pearson r, mean, SD and energy) are
    computed READOUT_BLOCK of iterate's own states at a time (see the module
    docstring).  A non-finite state or readout aborts with
    NumericDivergenceError naming the offending step, though the run may
    take up to READOUT_BLOCK - 1 more steps before it raises, and a state
    that diverges in those steps does not hide it.
    """
    if max_steps < 1:
        raise ContractError(f"max_steps must be >= 1, got {max_steps}")
    if math.isnan(fixed_point_tol):
        raise ContractError("fixed_point_tol must not be NaN")
    sigma0 = np.asarray(sigma0, dtype=float)
    if sigma0.ndim != 1:
        raise ContractError(f"state must be a vector, got shape {sigma0.shape}")
    m = normalize(graph)
    _check_dims(sigma0, patterns, m, logits=False)
    terms = _energy_terms(graph, m) if with_energy else None

    pending = [sigma0]  # states not yet read, from step READOUT_BLOCK * len(blocks)
    blocks = []  # (r, mean, sd, energy) of each block read

    def flush() -> None:
        """Readouts of the pending states; the first state with a bad
        readout ends the run, as the per-state order would."""
        if not pending:
            return
        t0 = READOUT_BLOCK * len(blocks)  # every block but the last is full
        states = np.array(pending).T
        pending.clear()
        r = pearson_all(states, patterns)
        with np.errstate(all="ignore"):
            mean, sd = states.mean(axis=0), states.std(axis=0)
            e, arg = ((np.zeros_like(mean), np.ones_like(mean)) if terms is None
                      else energy(overlaps_all(states, patterns), terms, params))
        bad = ~np.isfinite(np.vstack([r, mean, sd, e])).all(axis=0) | (arg <= 0.0)
        if bad.any():
            j = int(bad.argmax())
            if arg[j] <= 0.0:
                raise EnergyUndefinedError(f"energy log argument {arg[j]} <= 0")
            raise NumericDivergenceError(t0 + j, "readout")
        blocks.append((r.T, mean, sd, e))

    def record(t: int, sigma: np.ndarray) -> None:
        pending.append(sigma)
        if len(pending) == READOUT_BLOCK:
            flush()

    try:
        sigma, _, termination = iterate(
            sigma0, patterns, m, params, max_steps, fixed_point_tol, observe=record
        )
    finally:
        # the last, partial block; after a state divergence, a bad readout
        # pending before it still wins
        flush()

    corr, means, sds, energies = (np.concatenate(column) for column in zip(*blocks))
    return SimulationTrace(corr, means, sds, energies if with_energy else None, sigma, termination)


def overlaps_all(sigma: np.ndarray, patterns: PatternMatrix) -> np.ndarray:
    return (patterns.values.T @ sigma) / patterns.n


def pearson_all(states: np.ndarray, patterns: PatternMatrix) -> np.ndarray:
    """Pearson r of a state (n,) or of each column of an (n, K) stack against
    every pattern, as (p,) or (p, K).  A state whose centered norm is not
    finite (too large to read) reads NaN; a zero-variance state or pattern
    raises UndefinedCorrelationError."""
    with np.errstate(all="ignore"):
        centered = _center_columns(states.reshape(len(states), -1))
        r = _pearson_matrix(patterns.centered, centered)
    r[:, ~np.isfinite(centered[1])] = np.nan
    return r.reshape(-1, *states.shape[1:])


def _energy_terms(graph: MemoryGraph, m: NormalizedAdjacency) -> tuple:
    """What the energy reads of a graph, gathered once per run: whether it
    is directed, whether it has edges, and the (rows, cols, weights) of the
    hetero sum, which are the nonzero entries of m, the graph's normalized
    coupling, for an undirected graph and the raw edges of a directed one."""
    if graph.directed:
        edges = np.array(graph.edges, dtype=float).reshape(-1, 3)
        rows, cols, weights = edges[:, 0].astype(np.intp), edges[:, 1].astype(np.intp), edges[:, 2]
    else:
        rows, cols = np.nonzero(m.matrix)
        weights = m.matrix[rows, cols]
    return graph.directed, bool(graph.edges), rows, cols, weights


def energy(m: np.ndarray, terms: tuple, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Log-sum-exp energies over the graph of _energy_terms (gathered once
    per run) of the states whose overlaps are the columns of m (p x K), and
    the log argument each needs positive.  Undirected graphs use
        -(a/b)*log sum_mu exp(b*m_mu^2) - (h/b)*log sum_{a,k} M_ak exp(b*m_a*m_k)
    without the hetero term when the graph has no edges; directed graphs use
        -(1/b)*log(a*sum_mu exp(b*m_mu^2) + h*sum_edges w*exp(b*m_a*m_k)).
    The hetero sum runs over the nonzero pairs in column chunks of at most
    ENERGY_PAIR_BUDGET pair terms.
    """
    directed, has_edges, rows, cols, weights = terms
    b = params.beta
    auto = np.exp(b * m * m).sum(axis=0)
    chunk = max(1, ENERGY_PAIR_BUDGET // max(weights.size, 1))
    hetero = np.concatenate([weights @ np.exp(b * m[rows, j:j + chunk] * m[cols, j:j + chunk])
                             for j in range(0, m.shape[1], chunk)])
    if directed:
        arg = params.a * auto + params.h * hetero
        return -np.log(arg) / b, arg
    total = -(params.a / b) * np.log(auto)
    if not has_edges:
        return total, auto
    return total - (params.h / b) * np.log(hetero), hetero


def init_state(patterns: PatternMatrix, trigger, c: float = DEFAULT_NOISE,
               seed: int = 0) -> np.ndarray:
    """sigma(0) = xi^trigger + c*zeta with zeta uniform on [-0.5, 0.5].

    `trigger` is one pattern index, giving an (n,) state, or an array of k
    indices, giving the (n, k) stack of their states from one (n, k) draw.
    """
    index = np.asarray(trigger)
    if (index.ndim > 1 or index.dtype.kind not in "iu"
            or np.any((index < 0) | (index >= patterns.p))):
        raise ContractError(f"trigger {trigger} is not a pattern index in [0,{patterns.p})")
    if not 0 <= c < math.inf:
        raise ContractError(f"noise amplitude must be finite and >= 0, got {c}")
    base = patterns.values[:, index]
    return base + c * np.random.default_rng(seed).uniform(-0.5, 0.5, base.shape)
