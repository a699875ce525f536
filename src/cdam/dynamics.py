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
relative), so only a run whose readout is discrete uses it: the retrieval
sweep, which reads the argmax of the final logits.  Every run whose floats
are reported stays in state space.
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
    energies: np.ndarray | None  # (steps+1,) when an energy graph was given
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
    logits or n rows of state) and m fit the patterns."""
    rows, name = (patterns.p, "pattern") if logits else (patterns.n, "neuron")
    if sigma.ndim not in (1, 2) or sigma.shape[0] != rows:
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
    (patterns, m, params), sigma holds logits Xi^T sigma (p rows) and the
    result, W softmax(beta*sigma), is Xi^T of the retrieval.

    Softmax logits use the raw patterns (the centered ones would only shift
    every logit by the same constant); the projection uses centered columns.
    With h == 0 the graph mixing is skipped: a*s + 0*(M^T s) equals a*s.
    """
    if operator is not None:
        return operator @ softmax_beta(sigma, params.beta)
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
    mixing a*s + h*M^T s, whose column sums are (a*1 + h*M*1)^T s."""
    xi, coupling = patterns.values, m.matrix
    gram = xi.T @ xi
    op = params.a * gram
    if params.h != 0:
        op += params.h * (gram @ coupling.T)
    op -= np.multiply.outer(xi.T @ patterns.mean_load, params.a + params.h * coupling.sum(axis=1))
    return op


def update_step(
    sigma: np.ndarray,
    patterns: PatternMatrix,
    m: NormalizedAdjacency,
    params: ModelParams,
) -> np.ndarray:
    """One synchronous update; returns a fresh state, input untouched."""
    _check_dims(sigma, patterns, m, logits=False)
    target = retrieval_vector(sigma, patterns, m, params)
    return sigma + params.eta * (target - sigma)


def iterate(sigma0: np.ndarray, patterns: PatternMatrix, m: NormalizedAdjacency,
            params: ModelParams, steps: int, tol: float | None = None,
            observe: Callable[[int, np.ndarray], None] | None = None,
            logits: bool = False) -> tuple[np.ndarray, int, str]:
    """The Euler loop of every run, sigma <- sigma + eta*(retrieval - sigma),
    on a state vector or an (n, batch) stack, for up to `steps` steps; with
    logits=True, on logits Xi^T sigma (p rows) in the pattern basis, through
    the logit operator built once for the call.

    observe(t, sigma) sees the state after each step t = 1, 2, ...  With a
    tolerance, stops after the first step whose max |change| is below it.  A
    non-finite state raises NumericDivergenceError naming its step.  Returns
    (final state, steps taken, "max-steps" or "fixed-point").
    """
    sig = np.asarray(sigma0, dtype=float)
    _check_dims(sig, patterns, m, logits=logits)
    operator = _logit_operator(patterns, m, params) if logits else None
    for t in range(1, steps + 1):
        # an overflow ends as a non-finite state, reported once below
        with np.errstate(all="ignore"):
            target = retrieval_vector(sig, patterns, m, params, operator=operator)
            new = sig + params.eta * (target - sig)
        if not np.isfinite(new).all():
            raise NumericDivergenceError(t, "network state")
        converged = tol is not None and float(np.max(np.abs(new - sig))) < tol
        sig = new
        if observe is not None:
            observe(t, sig)
        if converged:
            return sig, t, "fixed-point"
    return sig, steps, "max-steps"


def run(sigma0: np.ndarray, patterns: PatternMatrix, m: NormalizedAdjacency,
        params: ModelParams, max_steps: int = 101, fixed_point_tol: float = 1e-9,
        energy_graph: MemoryGraph | None = None) -> SimulationTrace:
    """Iterate until max_steps or an infinity-norm fixed point, recording
    every state's readouts.

    The trace includes the t=0 record, so it has steps+1 rows.  A non-finite
    state or readout (correlation, mean, SD or energy) aborts with
    NumericDivergenceError naming the offending step.
    """
    if max_steps < 1:
        raise ContractError(f"max_steps must be >= 1, got {max_steps}")
    if math.isnan(fixed_point_tol):
        raise ContractError("fixed_point_tol must not be NaN")
    sigma0 = np.asarray(sigma0, dtype=float)
    if sigma0.ndim != 1:
        raise ContractError(f"state must be a vector, got shape {sigma0.shape}")
    _check_dims(sigma0, patterns, m, logits=False)
    undirected = energy_graph is not None and not energy_graph.directed
    energy_coupling = normalize(energy_graph).matrix if undirected else None

    corr, means, sds, energies = [], [], [], []

    def record(t: int, sigma: np.ndarray) -> None:
        with np.errstate(all="ignore"):
            r, mean, sd = pearson_all(sigma, patterns), float(sigma.mean()), float(sigma.std())
            e = 0.0 if energy_graph is None else _energy(
                overlaps_all(sigma, patterns), energy_graph, params, energy_coupling)
        if not (np.isfinite(r).all() and math.isfinite(mean) and math.isfinite(sd)
                and math.isfinite(e)):
            raise NumericDivergenceError(t, "readout")
        corr.append(r)
        means.append(mean)
        sds.append(sd)
        energies.append(e)

    record(0, sigma0)
    sigma, _, termination = iterate(
        sigma0, patterns, m, params, max_steps, fixed_point_tol, observe=record
    )

    return SimulationTrace(
        correlations=np.array(corr),
        mean_activity=np.array(means),
        sd_activity=np.array(sds),
        energies=np.array(energies) if energy_graph is not None else None,
        final_state=sigma,
        termination=termination,
    )


def overlaps_all(sigma: np.ndarray, patterns: PatternMatrix) -> np.ndarray:
    return (patterns.values.T @ sigma) / patterns.n


def pearson_all(sigma: np.ndarray, patterns: PatternMatrix) -> np.ndarray:
    """Pearson r against every pattern at once (same zero-variance contract);
    NaN throughout when the state's norm overflows."""
    x = sigma - sigma.mean()
    xs = math.sqrt(float(x @ x))
    yc, ys = patterns.centered
    if xs == 0.0 or np.any(ys == 0.0):
        raise UndefinedCorrelationError(
            "pearson undefined: zero-variance state or pattern"
        )
    if math.isinf(xs):
        return np.full(patterns.p, np.nan)
    return (yc.T @ x) / (xs * ys)


def energy(
    sigma: np.ndarray,
    patterns: PatternMatrix,
    graph: MemoryGraph,
    params: ModelParams,
) -> float:
    """Log-sum-exp energy of the current state over the memory graph.

    Undirected graphs use the coupling-weighted double sum
        -(a/b)*log sum_mu exp(b*m_mu^2) - (h/b)*log sum_{a,k} M_ak exp(b*m_a*m_k)
    with the hetero term omitted when the graph has no edges.  Directed graphs
    use the single-log form
        -(1/b)*log(a*sum_mu exp(b*m_mu^2) + h*sum_edges w*exp(b*m_a*m_k))
    and raise if the log argument is not positive.
    """
    coupling = None if graph.directed else normalize(graph).matrix
    return _energy(overlaps_all(sigma, patterns), graph, params, coupling)


def _energy(m: np.ndarray, graph: MemoryGraph, params: ModelParams,
            coupling: np.ndarray | None) -> float:
    """energy() of a state given its overlaps m and the normalized coupling,
    which a run computes once per step and once per run respectively."""
    if graph.p != m.shape[0]:
        raise ContractError(f"graph has p={graph.p}, patterns hold p={m.shape[0]}")
    b = params.beta
    auto_sum = float(np.sum(np.exp(b * m * m)))
    if graph.directed:
        hetero_sum = 0.0
        for src, dst, w in graph.edges:
            hetero_sum += w * math.exp(b * m[src] * m[dst])
        arg = params.a * auto_sum + params.h * hetero_sum
        if arg <= 0.0:
            raise EnergyUndefinedError(f"directed energy log argument {arg} <= 0")
        return -math.log(arg) / b
    total = -(params.a / b) * math.log(auto_sum)
    if graph.edges:
        hetero_sum = float(np.sum(coupling * np.exp(b * np.outer(m, m))))
        if hetero_sum <= 0.0:
            # possible only with negative edge weights
            raise EnergyUndefinedError(f"undirected hetero log argument {hetero_sum} <= 0")
        total += -(params.h / b) * math.log(hetero_sum)
    return total


def init_state(patterns: PatternMatrix, trigger, c: float = 1.0, seed: int = 0) -> np.ndarray:
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
