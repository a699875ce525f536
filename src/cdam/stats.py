"""One-way ANOVA with the F-distribution tail computed in-package, and R^2.

The upper-tail probability of F(d1, d2) is the regularized incomplete beta
I_x(d2/2, d1/2) at x = d2/(d2 + d1*F), evaluated with a Lentz-style
continued fraction.

one_way_anova returns the dict that an experiment report stores:
{"f": F, "p": upper-tail probability, "df": [df_between, df_within]}.
r_squared squares the r of dynamics.pearson_all, which alone decides,
exactly, when r is undefined.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import PatternMatrix, pearson_all
from .errors import CdamError


def one_way_anova(groups) -> dict:
    """F = MS_between / MS_within over the supplied samples, as
    {"f": F, "p": upper-tail probability, "df": [df_between, df_within]}.

    Constant groups report F = inf, p = 0 (a report.json writes "f": null, as
    JSON has no infinity), or F = 0, p = 1 when all values are equal; a
    within-group spread that is not zero but underflows to 0 raises CdamError.
    """
    groups = [list(map(float, g)) for g in groups]
    if len(groups) < 2:
        raise CdamError(f"ANOVA needs >= 2 groups, got {len(groups)}")
    if any(len(g) < 2 for g in groups):
        raise CdamError("every ANOVA group needs >= 2 samples")
    total_n = sum(len(g) for g in groups)
    grand = sum(sum(g) for g in groups) / total_n
    ss_between = sum(len(g) * (sum(g) / len(g) - grand) ** 2 for g in groups)
    ss_within = sum(sum((v - sum(g) / len(g)) ** 2 for v in g) for g in groups)
    df_b, df_w = len(groups) - 1, total_n - len(groups)
    if all(min(g) == max(g) for g in groups):  # no spread within groups
        f = 0.0 if min(map(min, groups)) == max(map(max, groups)) else math.inf
    elif ss_within:
        f = (ss_between / df_b) / (ss_within / df_w)
    else:
        raise CdamError("ANOVA within-group spread underflows to 0")
    return {"f": f, "p": _f_sf(f, df_b, df_w), "df": [df_b, df_w]}


def _f_sf(f: float, d1: int, d2: int) -> float:
    """Upper-tail probability of F(d1, d2); 1 at F = 0 and 0 at F = inf (x = 1, 0)."""
    return _betainc_regularized(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f))


def _betainc_regularized(a: float, b: float, x: float) -> float:
    """I_x(a, b), a, b > 0, via the continued fraction, symmetrized for convergence."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    # the continued fraction converges fast only for x < (a+1)/(a+b+2)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _clamp(v: float) -> float:
    return 1e-300 if abs(v) < 1e-300 else v


def _betacf(a: float, b: float, x: float) -> float:
    """I_x(a, b)'s continued fraction by the modified Lentz method: per m the even, then the
    odd term, each denominator kept off zero by _clamp, until the odd factor is 1 +- 3e-14."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = h = 1.0 / _clamp(1.0 - qab * x / qap)
    for m in range(1, 301):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / _clamp(1.0 + aa * d)
            c = _clamp(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 3e-14:
            return h
    raise CdamError(f"incomplete beta failed to converge (a={a}, b={b}, x={x})")


def r_squared(xs, ys) -> float:
    """Squared Pearson r of two equal-length sequences: pearson_all of the state ys
    against the one pattern xs, so a constant, non-finite or too large one raises CdamError."""
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 2:
        raise CdamError("r_squared needs two sequences of equal length >= 2")
    if not math.isfinite(r := float(pearson_all(y, PatternMatrix(x[:, None]))[0])):
        raise CdamError("r_squared undefined: input not finite or too large to read")
    return r * r
