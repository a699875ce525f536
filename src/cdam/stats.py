"""One-way ANOVA with the F-distribution tail computed in-package.

The upper-tail probability of F(d1, d2) is the regularized incomplete beta
I_x(d2/2, d1/2) at x = d2/(d2 + d1*F), evaluated with a Lentz-style
continued fraction.

one_way_anova returns the dict that an experiment report stores:
{"f": F, "p": upper-tail probability, "df": [df_between, df_within]}.
"""

from __future__ import annotations

import math

from .errors import ContractError


def one_way_anova(groups) -> dict:
    """F = MS_between / MS_within over the supplied samples, as
    {"f": F, "p": upper-tail probability, "df": [df_between, df_within]}.

    Zero within-group variance with nonzero between-group spread reports
    F = inf, p = 0; identical groups report F = 0, p = 1.
    """
    groups = [list(map(float, g)) for g in groups]
    if len(groups) < 2:
        raise ContractError(f"ANOVA needs >= 2 groups, got {len(groups)}")
    if any(len(g) < 2 for g in groups):
        raise ContractError("every ANOVA group needs >= 2 samples")
    total_n = sum(len(g) for g in groups)
    grand = sum(sum(g) for g in groups) / total_n
    ss_between = sum(len(g) * (sum(g) / len(g) - grand) ** 2 for g in groups)
    ss_within = sum(sum((v - sum(g) / len(g)) ** 2 for v in g) for g in groups)
    df_b = len(groups) - 1
    df_w = total_n - len(groups)
    if ss_within == 0.0:
        f, p = (0.0, 1.0) if ss_between == 0.0 else (math.inf, 0.0)
    else:
        f = (ss_between / df_b) / (ss_within / df_w)
        p = f_sf(f, df_b, df_w)
    return {"f": f, "p": p, "df": [df_b, df_w]}


def f_sf(f: float, d1: int, d2: int) -> float:
    """Upper-tail probability of the F(d1, d2) distribution."""
    if f <= 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    x = d2 / (d2 + d1 * f)
    return betainc_regularized(d2 / 2.0, d1 / 2.0, x)


def betainc_regularized(a: float, b: float, x: float) -> float:
    """I_x(a, b) via the continued fraction, symmetrized for convergence."""
    if not (a > 0 and b > 0):
        raise ContractError(f"beta parameters must be positive, got a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # the continued fraction converges fast only for x < (a+1)/(a+b+2)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - math.exp(ln_front) * _betacf(b, a, 1.0 - x) / b


def _betacf(a: float, b: float, x: float) -> float:
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 301):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-14:
            return h
    raise ContractError(f"incomplete beta failed to converge (a={a}, b={b}, x={x})")


def r_squared(xs, ys) -> float:
    """Squared Pearson correlation between two equal-length sequences."""
    xs = list(map(float, xs))
    ys = list(map(float, ys))
    if len(xs) != len(ys) or len(xs) < 2:
        raise ContractError("r_squared needs two sequences of equal length >= 2")
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        raise ContractError("r_squared undefined for constant input")
    return (sxy * sxy) / (sxx * syy)
