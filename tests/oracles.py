"""Brute-force reference implementations, independent of the package's
vectorized code paths.  Everything here is plain Python loops over lists so a
bug in the numpy formulation cannot hide in its own mirror."""

import math


def naive_softmax(z, beta):
    scaled = [beta * v for v in z]
    top = max(scaled)
    exps = [math.exp(v - top) for v in scaled]
    total = sum(exps)
    return [e / total for e in exps]


def naive_update(sigma, xi_columns, coupling, a, h, beta, eta):
    """One update of the state, elementwise.

    xi_columns: list of p patterns, each a length-n list.
    coupling: p x p list-of-lists, coupling[i][j] = weight of edge i->j.
    The retrieval projection uses mean-load-centered pattern columns.
    """
    n = len(sigma)
    p = len(xi_columns)
    logits = []
    for mu in range(p):
        logits.append(sum(sigma[i] * xi_columns[mu][i] for i in range(n)))
    s = naive_softmax(logits, beta)
    mean_load = [sum(xi_columns[mu][i] for mu in range(p)) / p for i in range(n)]
    new = []
    for i in range(n):
        retrieval = 0.0
        for mu in range(p):
            q = a * (xi_columns[mu][i] - mean_load[i])
            for nu in range(p):
                q += h * (xi_columns[nu][i] - mean_load[i]) * coupling[mu][nu]
            retrieval += q * s[mu]
        new.append(sigma[i] + eta * (retrieval - sigma[i]))
    return new


def naive_overlaps(sigma, xi_columns):
    n = len(sigma)
    return [sum(sigma[i] * col[i] for i in range(n)) / n for col in xi_columns]


def naive_energy_undirected(sigma, xi_columns, coupling, a, h, beta):
    """Coupling-weighted double-sum form; hetero term skipped when the
    coupling matrix is all zero (edgeless graph)."""
    m = naive_overlaps(sigma, xi_columns)
    p = len(m)
    auto = sum(math.exp(beta * m[mu] * m[mu]) for mu in range(p))
    total = -(a / beta) * math.log(auto)
    hetero = 0.0
    any_edge = False
    for alpha in range(p):
        for kappa in range(p):
            if coupling[alpha][kappa] != 0.0:
                any_edge = True
            hetero += coupling[alpha][kappa] * math.exp(beta * m[alpha] * m[kappa])
    if any_edge:
        total += -(h / beta) * math.log(hetero)
    return total


def naive_energy_directed(sigma, xi_columns, edges, a, h, beta):
    """Single-log form over the raw edge multiset (weights multiply terms)."""
    m = naive_overlaps(sigma, xi_columns)
    auto = sum(math.exp(beta * mu * mu) for mu in m)
    hetero = sum(w * math.exp(beta * m[src] * m[dst]) for src, dst, w in edges)
    arg = a * auto + h * hetero
    if arg <= 0:
        raise ValueError("nonpositive log argument")
    return -math.log(arg) / beta


def descent_energy(sigma, xi_columns, a, beta):
    """E'(sigma) = -(a/beta)*lse(beta*Xi^T sigma) + |sigma|^2/2 + a*mean_load.sigma,
    the energy that an update with h = 0, a > 0 and eta <= 1 never raises:
    its gradient is sigma - a*Xc*softmax(beta*Xi^T sigma), so the update is a
    damped concave-convex step on it (Ramsauer et al. 2020, arXiv 2008.02217)."""
    n = len(sigma)
    p = len(xi_columns)
    logits = [beta * sum(sigma[i] * col[i] for i in range(n)) for col in xi_columns]
    top = max(logits)
    lse = top + math.log(sum(math.exp(v - top) for v in logits))
    mean_load = [sum(col[i] for col in xi_columns) / p for i in range(n)]
    return (-(a / beta) * lse + 0.5 * sum(v * v for v in sigma)
            + a * sum(mean_load[i] * sigma[i] for i in range(n)))


def naive_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((x[i] - mx) * (y[i] - my) for i in range(n))
    sxx = sum((v - mx) ** 2 for v in x)
    syy = sum((v - my) ** 2 for v in y)
    return sxy / math.sqrt(sxx * syy)


def naive_hop_distances(edges, p, source):
    """Floyd-Warshall over the undirected support (slow, independent of BFS)."""
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(p)] for i in range(p)]
    for src, dst, _ in edges:
        if src != dst:
            dist[src][dst] = 1
            dist[dst][src] = 1
    for k in range(p):
        for i in range(p):
            for j in range(p):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return [d if d != inf else -1 for d in dist[source]]


def naive_anova_f(groups):
    """F statistic from the textbook sums-of-squares decomposition."""
    all_values = [v for g in groups for v in g]
    grand = sum(all_values) / len(all_values)
    ss_between = sum(len(g) * (sum(g) / len(g) - grand) ** 2 for g in groups)
    ss_within = sum(sum((v - sum(g) / len(g)) ** 2 for v in g) for g in groups)
    df_b = len(groups) - 1
    df_w = len(all_values) - len(groups)
    if ss_within == 0:
        return float("inf") if ss_between > 0 else 0.0, df_b, df_w
    return (ss_between / df_b) / (ss_within / df_w), df_b, df_w


# The references below are numpy, not loops, so that the package's shared
# paths can be held to exact (bitwise) equality with them: the Pearson
# formulas the package evaluated before it cached the centered pattern
# statistics, and a run stepped one update at a time.


def step_by_hand(sigma, patterns, coupling, params, steps, tol=None):
    """Every state of a run of updates s + eta*(retrieval_vector(s) - s),
    stopping after the first step whose max |change| is below tol.  Unlike
    iterate, it steps on past a non-finite state."""
    import numpy as np

    from cdam.dynamics import retrieval_vector

    states = [sigma]
    for _ in range(steps):
        s = states[-1]
        with np.errstate(all="ignore"):
            new = s + params.eta * (retrieval_vector(s, patterns, coupling, params) - s)
        done = tol is not None and np.max(np.abs(new - s)) < tol
        states.append(new)
        if done:
            break
    return states


def uncached_pearson_all(sigma, values):
    """Pearson r of one state against every pattern column, re-centering
    the whole pattern matrix on every call."""
    import numpy as np

    x = sigma - sigma.mean()
    xs = math.sqrt(float(x @ x))
    yc = values - values.mean(axis=0, keepdims=True)
    ys = np.sqrt((yc**2).sum(axis=0))
    return (yc.T @ x) / (xs * ys)


def uncached_pearson_matrix(ref_cols, state_cols):
    """r[i, j] between column i of ref_cols and column j of state_cols."""
    import numpy as np

    rc = ref_cols - ref_cols.mean(axis=0, keepdims=True)
    sc = state_cols - state_cols.mean(axis=0, keepdims=True)
    denom = np.sqrt((rc**2).sum(axis=0))[:, None] * np.sqrt((sc**2).sum(axis=0))[None, :]
    return (rc.T @ sc) / denom
