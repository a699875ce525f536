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


def naive_r_squared(xs, ys):
    """Squared Pearson r from hand-summed deviations around each mean, the
    formula stats.r_squared evaluated before it read r through pearson_all."""
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return (sxy * sxy) / (sxx * syy)


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


def naive_schedule_metrics(argmax_per_step, p, patience):
    """{visited_in_order, stalls, skips, steps_to_cover} of an argmax schedule
    by one pass over its steps: a stall is a dwell reaching patience + 1
    steps, a skip a change of argmax by (cur - prev) % p >= 2."""
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
    return {"visited_in_order": in_order and len(seen) == p, "stalls": stalls, "skips": skips,
            "steps_to_cover": cover}


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


def retrieval_by_formula(sigma, patterns, coupling, params):
    """The retrieval (a*Xc + h*Xc*M^T) softmax(beta*Xi^T sigma) as one
    out-of-place expression, Xi @ mixed - mean_load (outer) column sums of
    mixed, for a state vector or an (n, B) stack."""
    import numpy as np

    from cdam.dynamics import softmax_beta

    xi = patterns.values
    s = softmax_beta(xi.T @ sigma, params.beta)
    mixed = params.a * s
    if params.h != 0:
        mixed = mixed + params.h * (coupling.matrix.T @ s)
    return xi @ mixed - np.multiply.outer(patterns.mean_load, mixed.sum(axis=0))


def step_by_hand(sigma, patterns, coupling, params, steps, tol=None):
    """Every state of a run of updates s + eta*(retrieval_by_formula(s) - s),
    each a new array, stopping after the first step whose max |change| is
    below tol.  Unlike iterate, it steps on past a non-finite state."""
    import numpy as np

    states = [sigma]
    for _ in range(steps):
        s = states[-1]
        with np.errstate(all="ignore"):
            new = s + params.eta * (retrieval_by_formula(s, patterns, coupling, params) - s)
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


def narrow_mode_profile(a, h, coupling, hops, max_hop=4):
    """Hop 1..max_hop means of np.corrcoef((a*I + h*M^T).T), the Pearson
    correlations between the columns of the mixing: in the narrow mode the
    softmax settles on the trigger, so the final state of trigger j is
    Xc (a*I + h*M^T) e_j and two such states correlate as their columns do
    (README, narrow-mode law).  `hops` is the graph's hop-distance matrix."""
    import numpy as np

    corr = np.corrcoef((a * np.eye(len(coupling)) + h * coupling.T).T)
    return np.array([corr[hops == d].mean() for d in range(1, max_hop + 1)])


def mode_thresholds(coupling):
    """(a*, pair edge) along a + h = 1 of the symmetric p x p coupling M (README, pair mode).

    In the narrow state of trigger j the logits are about (n/12)(a*e_j + h*M^T e_j) up to a
    constant, so the trigger keeps the softmax while a > h*m_j, m_j = max_{k != j} M_jk:
    a*_j = m_j/(1 + m_j), one per vertex.  An even pair (j, k) keeps it while
    a + h*M_jk > h*max_{l not in {j, k}} (M_jl + M_kl), that is a > d/(1 + d) with d the
    right-hand max minus M_jk; the pair edge is the largest of these over the graph's edges,
    above which every edge holds a pair."""
    p = len(coupling)
    a_star = []
    for j in range(p):
        m = max([coupling[j][k] for k in range(p) if k != j], default=0.0)
        a_star.append(m / (1 + m))
    edge = -math.inf
    for j in range(p):
        for k in range(j + 1, p):
            if coupling[j][k] > 0:
                rival = max([coupling[j][l] + coupling[k][l] for l in range(p) if l not in (j, k)],
                            default=0.0)
                d = rival - coupling[j][k]
                edge = max(edge, d / (1 + d))
    return a_star, edge


# Fixed points in coefficient space.  A fixed point of the update is
# sigma* = Xc c with c = G s(beta K c), where s is the softmax, K = Xi^T Xc
# (p x p) and G = a*I + h*M^T, whatever eta.  At a state sigma the flow
# Xc G s(beta Xi^T sigma) - sigma has the Jacobian Xc G beta D Xi^T - I,
# D = diag s - s s^T, whose eigenvalues are those of G beta D K - I and -1
# for the other n - p directions; the Euler step multiplies a perturbation
# along eigenvalue mu by 1 + eta*mu, so it is stable at eta iff every
# |1 + eta*mu| < 1.


def _coefficient_terms(patterns, coupling, params):
    """Xc, K = Xi^T Xc and G = a*I + h*M^T."""
    import numpy as np

    xc = patterns.values - patterns.mean_load[:, None]
    g = params.a * np.eye(patterns.p) + params.h * coupling.matrix.T
    return xc, patterns.values.T @ xc, g


def fixed_point(patterns, coupling, params, sigma0=None, tol=1e-13, max_iter=50):
    """Damped Newton on F(c) = c - G s(beta K c), started from the
    coefficients c = G s(beta Xi^T sigma0) of one retrieval from sigma0
    (G 1/p from the default sigma0 = 0).  Each step solves
    (I - G beta D K) d = -F and halves its length until |F| falls by the
    Armijo factor 1 - 1e-4 t.  Returns (sigma* = Xc c, iterations, max |F|)
    once max |F| <= tol * max(1, max |c|); raises AssertionError with the
    residual after max_iter steps."""
    import numpy as np

    from cdam.dynamics import softmax_beta

    xc, k, g = _coefficient_terms(patterns, coupling, params)
    logits = np.zeros(patterns.p) if sigma0 is None else patterns.values.T @ sigma0
    c = g @ softmax_beta(logits, params.beta)

    def residual(c):
        s = softmax_beta(k @ c, params.beta)
        return c - g @ s, s

    f, s = residual(c)
    for iterations in range(max_iter + 1):
        worst = float(np.abs(f).max())
        if worst <= tol * max(1.0, float(np.abs(c).max())):
            return xc @ c, iterations, worst
        if iterations == max_iter:
            break
        jac = np.eye(patterns.p) - g @ (params.beta * (np.diag(s) - np.outer(s, s))) @ k
        d = np.linalg.solve(jac, -f)
        t, norm = 1.0, np.linalg.norm(f)
        while True:
            f_new, s_new = residual(c + t * d)
            if np.linalg.norm(f_new) <= (1 - 1e-4 * t) * norm or t < 1e-12:
                break
            t /= 2
        c, f, s = c + t * d, f_new, s_new
    raise AssertionError(f"no fixed point in {max_iter} Newton steps: max |F| = {worst:.3e}")


def linearized_fixed_point(patterns, coupling, params):
    """sigma* with the softmax linearized about uniform, s ~ 1/p + (beta/p) P Xi^T sigma,
    P = I - 11^T/p: Xc (I - (beta/p) G P K)^-1 G 1/p, one p x p solve."""
    import numpy as np

    xc, k, g = _coefficient_terms(patterns, coupling, params)
    p = patterns.p
    centering = np.eye(p) - np.full((p, p), 1.0 / p)
    response = np.eye(p) - params.beta / p * g @ centering @ k
    return xc @ np.linalg.solve(response, g @ np.full(p, 1.0 / p))


def jacobian_spectrum(sigma, patterns, coupling, params):
    """The p eigenvalues mu of G beta (diag s - s s^T) K - I at the state
    sigma, s = softmax(beta Xi^T sigma): the continuous Jacobian's spectrum
    in coefficient space (at sigma = 0, s = 1/p: the zero-state rule)."""
    import numpy as np

    from cdam.dynamics import softmax_beta

    _, k, g = _coefficient_terms(patterns, coupling, params)
    s = softmax_beta(patterns.values.T @ sigma, params.beta)
    return np.linalg.eigvals(g @ (params.beta * (np.diag(s) - np.outer(s, s))) @ k) - 1


# The graph builders and the text parser written line by line, as the package
# wrote them before it built barbell cliques from itertools.combinations,
# accepted a random-regular draw with one test and took p from the parsed
# edges: the package's versions must return equal graphs and raise the same
# CdamError messages.


def looped_barbell(n, m):
    from cdam.errors import CdamError
    from cdam.graphs import MAX_GRAPH_P, MemoryGraph

    if n < 2:
        raise CdamError(f"barbell cliques need n >= 2, got {n}")
    if m < 0:
        raise CdamError(f"barbell path length must be >= 0, got {m}")
    p = 2 * n + m
    if p > MAX_GRAPH_P:
        raise CdamError(f"p={p} vertices exceeds the graph limit of {MAX_GRAPH_P}")
    edges = []
    for block_start in (0, n + m):
        for i in range(n):
            for j in range(i + 1, n):
                edges.append((block_start + i, block_start + j, 1.0))
    chain = [n - 1] + list(range(n, n + m)) + [n + m]
    for u, v in zip(chain, chain[1:]):
        edges.append((u, v, 1.0))
    return MemoryGraph(p, tuple(edges), directed=False)


def looped_random_regular(p, k, seed):
    import numpy as np

    from cdam.errors import CdamError
    from cdam.graphs import MAX_GRAPH_P, MemoryGraph

    if k >= p or k < 1:
        raise CdamError(f"need 1 <= k < p, got k={k}, p={p}")
    if (p * k) % 2 != 0:
        raise CdamError(f"p*k must be even, got p={p}, k={k}")
    if p > MAX_GRAPH_P:
        raise CdamError(f"p={p} vertices exceeds the graph limit of {MAX_GRAPH_P}")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(p), k)
    for _ in range(1000):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        canon = {(min(u, v), max(u, v)) for u, v in pairs}
        if len(canon) < len(pairs):
            continue
        edges = tuple((u, v, 1.0) for u, v in sorted(canon))
        return MemoryGraph(p, edges, directed=False)
    raise CdamError(f"no simple {k}-regular graph on {p} vertices in 1000 draws")


def looped_from_text(text):
    from cdam.errors import CdamError
    from cdam.graphs import MAX_GRAPH_P, MemoryGraph

    directed = None
    declared_p = None
    edges = []
    max_seen = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            pragma = line[1:].strip()
            if pragma.startswith("p="):
                try:
                    declared_p = int(pragma[2:])
                except ValueError as exc:
                    raise CdamError(f"line {lineno}: bad vertex count {pragma!r}") from exc
            continue
        if not line:
            continue
        if directed is None:
            if line not in ("directed", "undirected"):
                raise CdamError(f"line {lineno}: expected 'directed' or 'undirected' header")
            directed = line == "directed"
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise CdamError(f"line {lineno}: expected 'src dst [weight]', got {line!r}")
        try:
            src, dst = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise CdamError(f"line {lineno}: {line!r}") from exc
        edges.append((src, dst, w))
        max_seen = max(max_seen, src, dst)
    if directed is None:
        raise CdamError("missing 'directed'/'undirected' header line")
    p = declared_p if declared_p is not None else max_seen + 1
    if edges and p <= max_seen:
        raise CdamError(f"declared p={p} but saw vertex {max_seen}")
    if p > MAX_GRAPH_P:
        raise CdamError(f"p={p} vertices exceeds the graph limit of {MAX_GRAPH_P}")
    return MemoryGraph(p, tuple(edges), directed=directed)
