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
uncentered projection minus the full mean-load vector).  On a regular graph
zero is then a fixed point, stable (quiescent) for uniform patterns roughly when
-(2-eta)/eta < c*(a + h*lambda_i) < 1, c = beta*n/(12p), for each non-constant
eigenvalue lambda_i of M; the bounds are the onset of retrieval and a flip of
the Euler step.  On an irregular graph the quiescent state is a trigger-independent sigma*.

A state is a float array: one vector of shape (n,), or an (n, B) stack of
B states that iterate steps together.

A step allocates p x B arrays and two n x B ones, the outer product of the
mean-load correction and the projection Xi @ mixed, which that correction
and the Euler step turn in place into the new state iterate hands out.

Every update moves the state by a blend of stored patterns, so the same
loop can run in the basis of the patterns instead.  Given an n x k basis B
whose first p columns are the patterns, the rows x = B^T sigma, whose
first p are the logits Xi^T sigma, follow
x <- x + eta*(W @ softmax(beta*x[:p]) - x), where for fixed (a, h)

    W = B^T Xc (a*I + h*M^T)

is B^T times the centered projection of the mixing, built once per run.
A step costs one k x p product per column instead of 2 n x p, but its
floats differ from B^T sigma by rounding, so only a run whose readout is
discrete uses it: the retrieval sweep (B = Xi) and sequence recall
(B = [Xi | yc], yc the centered patterns).  Xc is formed as the patterns
minus mean_load, not expanded into Xi^T Xi minus an outer product with
Xi^T mean_load: on low-contrast patterns (values near 0.99) both terms are
about 0.98*n and cancel down to the contrasts between patterns, losing up
to 1e-7 of them, where the explicit Xc holds the contrasts themselves
(within 4e-12 of B^T of the state-space retrieval).

The rounding envelope.  At (a, h) = (-2, 3) a sequence schedule's tail is
sensitive to rounding: over bench seeds 0-63, starting the state-space run
from sigma0*(1 + 2^-52) moves its own schedule at seeds 44 and 52 (from
steps 1254 and 1136), and the pattern-basis schedule parts from the
state-space one at those seeds only, later (from steps 1268 and 1436),
with the same metrics (tools/sequence_basis.py 0 63).

Pearson readouts.  _pearson_stack is the package's one Pearson routine and
the only code that decides when r is undefined.  It centers an (n, K) stack
S and takes one product Zc = yc^T (S - mean) with the cached centered
patterns yc, r = Zc / (|yc| (outer) |S - mean|).  A state or pattern that is
constant (max == min) or of centered norm 0 raises CdamError, and a state
of no finite centered norm (too large to read) reads r = NaN.  pearson_all
serves batched runs, snapshots, the automaton, the state x state
correlations and stats.r_squared.  run() reads READOUT_BLOCK of iterate's
states at a time as one stack, for r, the mean, SD = |S - mean|/sqrt(n)
and, from Zc, the energy's overlaps Xi^T S / n = (Zc + (sum_i yc_i + n*m)
(outer) mean) / n, m the column means of Xi.  Against one state at a time
(pearson_all, and the energy of overlaps_all) a block rounds r by at most
2.6e-15, the energy by 9.1e-16 relative and SD (against std()) by 5.6e-17,
over the 36 bench simulate runs at seeds 0, 5 and 7.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CdamError, NumericDivergenceError
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
    """Stored memories: column mu of `values` is pattern mu (n x p, finite). Frozen, with
    values a read-only float copy of the input in its memory order: no statistic goes stale."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 2:
            raise CdamError(f"pattern matrix must be 2-D, got shape {v.shape}")
        if 0 in v.shape:
            raise CdamError(f"pattern matrix needs n, p >= 1, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise CdamError("pattern matrix contains non-finite values")
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
        readout; built on first use, as sweeps never read Pearson.  A constant
        column (max == min) or one of norm 0 raises CdamError on every use."""
        cols = self.values - self.values.mean(axis=0, keepdims=True)
        norms = np.sqrt((cols**2).sum(axis=0))
        if np.any((norms == 0.0) | (self.values.max(axis=0) == self.values.min(axis=0))):
            raise CdamError("pearson undefined: zero-variance pattern")
        cols.flags.writeable = norms.flags.writeable = False
        return cols, norms


@dataclass(frozen=True)
class ModelParams:
    a: float = 1.0
    h: float = 0.0
    beta: float = 1.0
    eta: float = 0.1

    def __post_init__(self):
        for name in ("a", "h", "beta", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise CdamError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.beta > 0:
            raise CdamError(f"beta must be > 0, got {self.beta}")
        if not self.eta > 0:
            raise CdamError(f"eta must be > 0, got {self.eta}")


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


def _check_states(sigma: np.ndarray, n: int) -> None:
    """Raise unless sigma is a state vector (n,) or an (n, K) stack of at
    least one state."""
    if sigma.ndim not in (1, 2) or sigma.shape[0] != n:
        raise CdamError(f"state of shape {sigma.shape} does not fit neuron count {n}")
    if sigma.size == 0:
        raise CdamError(f"state stack of shape {sigma.shape} holds no states")


def _check_dims(sigma: np.ndarray, patterns: PatternMatrix, m: NormalizedAdjacency,
                steps: int, tol: float) -> None:
    """Raise unless sigma fits the patterns (_check_states), m fits them,
    steps >= 0 and the fixed-point tol is finite."""
    _check_states(sigma, patterns.n)
    if steps < 0:
        raise CdamError(f"steps must be >= 0, got {steps}")
    if not math.isfinite(tol):
        raise CdamError(f"fixed_point_tol must not be NaN or infinite, got {tol}")
    if m.matrix.shape != (patterns.p, patterns.p):
        raise CdamError(
            f"coupling matrix is {m.matrix.shape}, patterns hold p={patterns.p}"
        )


def retrieval_vector(
    sigma: np.ndarray, patterns: PatternMatrix, m: NormalizedAdjacency, params: ModelParams,
    operator: np.ndarray | None = None,
) -> np.ndarray:
    """(a*Xc + h*Xc*M^T) softmax(beta*Xi^T sigma); works on a single state
    vector or an (n, batch) stack of states.  Given the basis operator
    W = basis^T Xc (a*I + h*M^T), sigma holds the basis rows basis^T sigma,
    whose first p are the logits, and the result, W softmax(beta*sigma[:p]),
    holds those of the retrieval.

    Softmax logits use the raw patterns (the centered ones would only shift
    every logit by the same constant); the projection uses centered columns
    of the mixing a*s + h*(M^T s), the (a*I + h*M^T) s of the basis operator.
    """
    if operator is not None:
        return operator @ softmax_beta(sigma[:patterns.p], params.beta)
    xi = patterns.values
    s = softmax_beta(xi.T @ sigma, params.beta)
    mixed = params.a * s + params.h * (m.matrix.T @ s)
    # Xi @ (centered mixing) == Xi @ mixed - mean_load (outer) column sums of
    # mixed, cheaper than materializing the centered matrix.
    retrieval = xi @ mixed
    retrieval -= np.multiply.outer(patterns.mean_load, mixed.sum(axis=0))
    return retrieval


def _basis_operator(basis: np.ndarray, patterns: PatternMatrix, m: NormalizedAdjacency,
                    params: ModelParams) -> np.ndarray:
    """W = basis^T Xc (a*I + h*M^T), the rows basis^T of the centered
    projection of the mixing; raises unless the first p columns of the
    n x k basis are the patterns, the logits the softmax reads."""
    if basis.ndim != 2 or not np.array_equal(basis[:, :patterns.p], patterns.values):
        raise CdamError(f"basis of shape {basis.shape} does not start with the patterns")
    xc = patterns.values - patterns.mean_load[:, None]
    return (basis.T @ xc) @ (params.a * np.eye(patterns.p) + params.h * m.matrix.T)


def update_step(sigma: np.ndarray, patterns: PatternMatrix, m: NormalizedAdjacency,
                params: ModelParams, operator: np.ndarray | None) -> np.ndarray:
    """iterate's bare Euler step sigma + eta*(retrieval - sigma), in place on
    the fresh retrieval of states or, given the basis operator, basis rows;
    under the error state iterate holds, an overflow leaves a non-finite result."""
    new = retrieval_vector(sigma, patterns, m, params, operator=operator)
    new -= sigma
    new *= params.eta
    new += sigma
    return new


def iterate(sigma0: np.ndarray, patterns: PatternMatrix, m: NormalizedAdjacency,
            params: ModelParams, steps: int, tol: float = 0.0,
            observe: Callable[[int, np.ndarray], None] | None = None,
            basis: np.ndarray | None = None) -> tuple[np.ndarray, int, str]:
    """The Euler loop of every run, sigma <- update_step(sigma), on a state
    vector or an (n, batch) stack, for up to `steps` steps; given an n x k
    basis whose first p columns are the patterns, in the pattern basis, on
    the rows basis^T sigma0, through the basis operator built once for the
    call, and it observes and returns those rows.

    observe(t, sigma) sees the state after each step t = 1, 2, ...; each is
    a new array that iterate never writes again, so an observer may keep it
    without a copy.  A tol > 0 stops the run after the first step whose max
    |change| is below it.  Negative steps, a non-finite tol or a stack of no
    states raise CdamError, and a non-finite state NumericDivergenceError
    naming its step; the whole loop, observer calls too, holds one
    np.errstate(all="ignore").  Returns (final state, steps taken, "max-steps" or "fixed-point").
    """
    sig = np.asarray(sigma0, dtype=float)
    _check_dims(sig, patterns, m, steps, tol)
    operator = None
    if basis is not None:
        basis = np.asarray(basis, dtype=float)
        operator = _basis_operator(basis, patterns, m, params)
        sig = basis.T @ sig
    with np.errstate(all="ignore"):
        for t in range(1, steps + 1):
            new = update_step(sig, patterns, m, params, operator)
            if not np.isfinite(new).all():
                raise NumericDivergenceError(t, "network state")
            converged = tol > 0 and np.abs(d := new - sig, out=d).max() < tol
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
    iterate's; its states are read READOUT_BLOCK at a time (see the module
    docstring).  A zero-variance pattern or a non-finite fixed_point_tol
    raises CdamError before the first step, and a zero-variance state at its
    block.  A non-finite state or readout aborts with NumericDivergenceError
    naming the offending step, though the run may take up to READOUT_BLOCK - 1
    more steps before it raises, and a state that diverges in those steps
    does not hide it.
    """
    if max_steps < 1:
        raise CdamError(f"max_steps must be >= 1, got {max_steps}")
    sigma0 = np.asarray(sigma0, dtype=float)
    if sigma0.ndim != 1:
        raise CdamError(f"state must be a vector, got shape {sigma0.shape}")
    m = normalize(graph)
    _check_dims(sigma0, patterns, m, max_steps, fixed_point_tol)
    terms = _energy_terms(graph, m) if with_energy else None
    n = patterns.n
    shift = patterns.centered[0].sum(axis=0) + n * patterns.values.mean(axis=0)

    pending = [sigma0]  # states not yet read, from step READOUT_BLOCK * len(blocks)
    blocks = []  # (r, mean, sd, energy) of each block read

    def flush() -> None:
        """Read the pending states; the first bad readout ends the run, as per-state reads would."""
        if not pending:
            return
        t0 = READOUT_BLOCK * len(blocks)  # every block but the last is full
        states = np.array(pending).T
        pending.clear()
        r, mean, norm, zc = _pearson_stack(states, patterns)
        sd, e, arg = norm / math.sqrt(n), np.zeros_like(mean), np.ones_like(mean)
        if terms is not None:
            with np.errstate(all="ignore"):
                zc += np.multiply.outer(shift, mean)
                zc /= n
                e, arg = energy(zc, terms, params)
        bad = ~np.isfinite(np.vstack([r, e])).all(axis=0) | (arg <= 0.0)
        if bad.any():
            j = int(bad.argmax())
            if arg[j] <= 0.0:
                raise CdamError(f"energy log argument {arg[j]} <= 0")
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
        # the last, partial block; a bad readout before a state divergence wins
        flush()

    corr, means, sds, energies = (np.concatenate(column) for column in zip(*blocks))
    return SimulationTrace(corr, means, sds, energies if with_energy else None, sigma, termination)


def overlaps_all(sigma: np.ndarray, patterns: PatternMatrix) -> np.ndarray:
    return (patterns.values.T @ sigma) / patterns.n


def pearson_all(states: np.ndarray, patterns: PatternMatrix) -> np.ndarray:
    """Pearson r of a state (n,) or of each column of an (n, K) stack against
    every pattern, as (p,) or (p, K), by _pearson_stack: a constant (max == min)
    or zero-norm state or pattern, a state of another shape and a stack of no
    states raise CdamError, and a state too large to read reads NaN."""
    _check_states(states, patterns.n)
    r = _pearson_stack(states.reshape(len(states), -1), patterns)[0]
    return r.reshape(-1, *states.shape[1:])


def _pearson_stack(states: np.ndarray, patterns: PatternMatrix) -> tuple[np.ndarray, ...]:
    """Pearson r (p x K) of the columns of an (n, K) stack against every
    pattern, their means, centered norms |S - mean| and Zc = yc^T (S - mean),
    yc the patterns' cached centered columns: the package's one Pearson
    routine.  A constant state (max == min) or one of centered norm 0 raises
    CdamError; a state of no finite centered norm (too large to read) reads
    r = NaN.  Rounding leaves a constant state a norm of at most
    n**1.5 eps/2 |mean|, or none finite, so only such states are compared."""
    yc, norms = patterns.centered
    with np.errstate(all="ignore"):
        mean = states.mean(axis=0)
        sc = states - mean
        zc = yc.T @ sc
        snorms = np.sqrt(np.square(sc, out=sc).sum(axis=0))
        near = ~np.isfinite(snorms) | (snorms <= len(sc) ** 1.5 * np.finfo(float).eps * abs(mean))
        flat = states[:, near]
        if np.any(snorms == 0.0) or np.any(flat.max(axis=0) == flat.min(axis=0)):
            raise CdamError("pearson undefined: zero-variance state")
        r = zc / (norms[:, None] * snorms[None, :])
    r[:, ~np.isfinite(snorms)] = np.nan
    return r, mean, snorms, zc


def _energy_terms(graph: MemoryGraph, m: NormalizedAdjacency) -> tuple:
    """What the energy reads of a graph, gathered once per run: whether it
    is directed and the (rows, cols, weights) of the hetero sum, which are
    the nonzero entries of m, the graph's normalized coupling, for an
    undirected graph and the raw edges of a directed one."""
    if graph.directed:
        edges = np.array(graph.edges, dtype=float).reshape(-1, 3)
        rows, cols, weights = edges[:, 0].astype(np.intp), edges[:, 1].astype(np.intp), edges[:, 2]
    else:
        rows, cols = np.nonzero(m.matrix)
        weights = m.matrix[rows, cols]
    return graph.directed, rows, cols, weights


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
    directed, rows, cols, weights = terms
    b = params.beta
    auto = np.exp(b * m * m).sum(axis=0)
    chunk = max(1, ENERGY_PAIR_BUDGET // max(weights.size, 1))
    hetero = np.concatenate([weights @ np.exp(b * m[rows, j:j + chunk] * m[cols, j:j + chunk])
                             for j in range(0, m.shape[1], chunk)])
    if directed:
        arg = params.a * auto + params.h * hetero
        return -np.log(arg) / b, arg
    total = -(params.a / b) * np.log(auto)
    if not weights.size:  # no edges, as edge weights are positive
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
        raise CdamError(f"trigger {trigger} is not a pattern index in [0,{patterns.p})")
    if not 0 <= c < math.inf:
        raise CdamError(f"noise amplitude must be finite and >= 0, got {c}")
    base = patterns.values[:, index]
    return base + c * np.random.default_rng(seed).uniform(-0.5, 0.5, base.shape)
