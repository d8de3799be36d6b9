"""Fitting utilities that turn measured sweeps into checkable shapes.

The paper proves asymptotic bounds (their leading terms are written
down once, in :mod:`repro.costs`); a reproduction cannot check hidden
constants, but it *can* check shapes: scaling exponents, marginal
slopes, and who-beats-whom orderings.  These two helpers are what the
benchmarks use to turn measured sweeps into checkable exponents.
"""

from __future__ import annotations

import math

__all__ = ["fit_power_law", "marginal_slope"]


def fit_power_law(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares fit ``y ~ c * x^e`` in log-log space.

    Returns ``(exponent, r_squared)``.  Used to verify scaling shapes,
    e.g. total bits vs ``l`` should fit an exponent near 1 for ``PI_Z``.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) samples")
    log_x = [math.log(float(x)) for x in xs]
    log_y = [math.log(float(y)) for y in ys]
    count = len(log_x)
    mean_x = sum(log_x) / count
    mean_y = sum(log_y) / count
    sxx = sum((x - mean_x) ** 2 for x in log_x)
    if sxx == 0:
        raise ValueError("all x values coincide")
    sxy = sum(
        (x - mean_x) * (y - mean_y) for x, y in zip(log_x, log_y)
    )
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    residual = sum(
        (y - (slope * x + intercept)) ** 2 for x, y in zip(log_x, log_y)
    )
    total = sum((y - mean_y) ** 2 for y in log_y)
    r_squared = 1.0 if total == 0 else 1.0 - residual / total
    return float(slope), float(r_squared)


def marginal_slope(xs: list[float], ys: list[float]) -> float:
    """Marginal cost ``d(y)/d(x)`` between the two largest samples.

    For communication-vs-``l`` sweeps this estimates *bits sent per
    extra input bit*; the paper's headline claim is that this marginal
    slope is ``Theta(n)`` for ``PI_Z`` (and ``Theta(n^2)`` / ``Theta(n^3)``
    for the baselines), independent of the additive ``poly(n, kappa)``
    terms.
    """
    if len(xs) < 2:
        raise ValueError("need at least two samples")
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    x1, x2 = float(xs[order[-2]]), float(xs[order[-1]])
    y1, y2 = float(ys[order[-2]]), float(ys[order[-1]])
    if x2 == x1:
        raise ValueError("largest two x values coincide")
    return (y2 - y1) / (x2 - x1)
