"""Bivariate means of positive arguments and their kernel substitutions.

Twelve mean kinds are supported: arithmetic A, geometric G, quadratic Q,
logarithmic L, identric I, the unweighted power mean of order r, the two
arc-based means P (arcsine) and T (arctangent), and the four exponential
combinations X, B, J, K built from them.

L and I are assembled from atanh((x-y)/(x+y)) so that nearly equal
arguments lose no precision; the same even ratio powers both, so the two
stay mutually consistent to the last bit. All means return x exactly when
x == y, and switch to quadratic small-ratio forms when |x-y|/(x+y) drops
below 1e-7. A, G, Q and the sums inside J and K are built from halves and
square roots, and the power mean is rescaled where its powers leave the
float range, so every pair of positive normal doubles has finite means.
Each mean is held inside [min(x, y), max(x, y)].

mean_bundle and weighted_power_mean also take numpy arrays (either
argument, or both) and evaluate them elementwise, as the kernels do.
"""

from __future__ import annotations

import math
import sys

from . import kernels
from .errors import DomainError
from .kernels import _all, _any, _np, _piecewise, _xp

MEAN_KINDS = ("A", "G", "Q", "L", "I", "power", "P", "T", "X", "B", "J", "K")

# canonical order shown by the CLI for the parametric kind
POWER_DISPLAY_R = 2.0 / 3.0

_BUNDLE_KINDS = ("A", "G", "Q", "L", "I", "P", "T", "X", "B", "J", "K")

_SQRT2 = math.sqrt(2.0)
_NEAR_DEGENERATE = 1e-7


def _real(value):
    """A float, or a float array when value is an array."""
    if getattr(value, "ndim", 0):
        return _np().asarray(value, dtype=float)
    return float(value)


def _validate_pair(pair):
    try:
        x, y = pair
    except (TypeError, ValueError):
        raise DomainError(f"pair must be a 2-sequence, got {pair!r}") from None
    x = _real(x)
    y = _real(y)
    ok = _xp(x).isfinite(x) & _xp(y).isfinite(y) & (x > 0.0) & (y > 0.0)
    if not _all(ok):
        raise DomainError(f"pair entries must be positive finite, got ({x!r}, {y!r})")
    return x, y


def _where(cond, if_true, if_false):
    if isinstance(cond, bool):
        return if_true if cond else if_false
    return _np().where(cond, if_true, if_false)


def _clamped(values, x, y) -> list:
    """Each value held inside [min(x, y), max(x, y)], where every mean lies:
    rounding can carry the mean of two close arguments past one of them.
    Arrays, which the caller has just made, are clamped in place."""
    if isinstance(x, float) and isinstance(y, float):
        lo, hi = (x, y) if x < y else (y, x)
        return [lo if v < lo else hi if v > hi else v for v in values]
    np = _np()
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    for v in values:
        np.maximum(v, lo, out=v)
        np.minimum(v, hi, out=v)
    return list(values)


def _atanh_over_u_minus1(u):
    """atanh(u)/u - 1 for |u| < 1, series below 0.2 to keep it fully relative."""
    return _piecewise(abs(u) < 0.2, _atanh_series, _atanh_direct, u)


def _atanh_direct(u):
    return _xp(u).atanh(u) / u - 1.0


def _atanh_series(u):
    """sum u^(2n)/(2n+1); a point stops at relative 1e-17 or on a zero term
    (u^2 can underflow), and its later terms are multiplied by False."""
    u2 = u * u
    power = u2
    acc = 0.0
    live = True
    n = 1
    while _any(live):
        term = power / (2 * n + 1)
        acc = acc + term * live
        live = live & (term != 0.0) & (term >= 1e-17 * acc)
        power = power * u2
        n += 1
    return acc


def _agq(x, y):
    """A, G and Q of a valid pair, from halves and square roots so that no
    finite pair overflows them. Halving a double of at least 2**-1021 is
    exact, so there a quotient of halves keeps the bits of the plain one."""
    m = _xp(x, y)
    a = 0.5 * x + 0.5 * y
    return a, m.sqrt(x) * m.sqrt(y), m.hypot(0.5 * x, 0.5 * y) / (0.5 * _SQRT2)


def _arc_means(a, g, q, u):
    """P, T, X, J, B, K from A, G, Q and u = (x-y)/(x+y)."""
    m = _xp(u)
    p = a * u / m.asin(u)
    t = a * u / m.atan(u)
    return (
        p,
        t,
        a * m.exp(g / p - 1.0),
        a * m.exp((0.5 * a + 0.5 * g) / (0.5 * p) - 2.0),
        q * m.exp(a / t - 1.0),
        q * m.exp((0.5 * q + 0.5 * a) / (0.5 * t) - 2.0),
    )


def _arc_means_near_diagonal(a, g, q, u):
    """The same six means from their quadratic forms in u, for |u| < 1e-7."""
    m = _xp(u)
    u2 = u * u
    return (
        a / (1.0 + u2 / 6.0),
        a / (1.0 - u2 / 3.0),
        a * m.exp(-u2 / 3.0),
        a * m.exp(-u2 / 6.0),
        q * m.exp(-u2 / 3.0),
        q * m.exp(-u2 / 6.0),
    )


def _bundle_values(x, y) -> tuple:
    """The eleven means of a valid pair in _BUNDLE_KINDS order, unclamped."""
    m = _xp(x, y)
    a, g, q = _agq(x, y)
    u = (0.5 * x - 0.5 * y) / a
    # Past a ratio of 2**53 u rounds to +-1, where atanh(u) is infinite but
    # atanh(u)/u is |log(x/y)|/2.
    edge = abs(u) == 1.0
    if _any(edge):
        h = _atanh_over_u_minus1(_where(edge, 0.0, u))
        h = _where(edge, 0.5 * abs(m.log(x) - m.log(y)) - 1.0, h)
    else:
        h = _atanh_over_u_minus1(u)
    lm = a / (1.0 + h)
    im = g * m.exp(h)
    p, t, xm, jm, bm, km = _piecewise(
        abs(u) < _NEAR_DEGENERATE, _arc_means_near_diagonal, _arc_means, a, g, q, u
    )
    return (a, g, q, lm, im, p, t, xm, bm, jm, km)


def mean_bundle(x, y) -> dict:
    """All eleven non-parametric means of (x, y) computed in one pass."""
    x, y = _validate_pair((x, y))
    return dict(zip(_BUNDLE_KINDS, _clamped(_bundle_values(x, y), x, y)))


def _power_form(r: float, w: float, x, y):
    return (w * x ** r + (1.0 - w) * y ** r) ** (1.0 / r)


def weighted_power_mean(r: float, w: float, x, y):
    """(w x^r + (1-w) y^r)^(1/r), with the geometric limit at r = 0."""
    if not (0.0 < w < 1.0):
        raise DomainError(f"weight must lie strictly in (0, 1), got {w!r}")
    x, y = _validate_pair((x, y))
    if _all(x == y):
        return x
    m = _xp(x, y)
    if r == 0.0:
        value = m.exp(w * m.log(x) + (1.0 - w) * m.log(y))
    elif abs(r) < 1e-8:
        # second-order expansion in r around the geometric limit
        lx = m.log(x)
        ly = m.log(y)
        mu = w * lx + (1.0 - w) * ly
        qq = w * lx * lx + (1.0 - w) * ly * ly
        value = m.exp(mu + 0.5 * r * (qq - mu * mu))
    else:
        try:
            value = _power_form(r, w, x, y)
        except (OverflowError, ZeroDivisionError):
            value = 0.0
        # positive arguments give a value in [0, inf]
        lost = (value == 0.0) | (value == math.inf)
        if _any(lost):
            # x**r or the sum left the float range: scale the argument that
            # dominates the sum to 1
            s = _where(x > y, x, y) if r > 0.0 else _where(x < y, x, y)
            value = _where(lost, s * _power_form(r, w, x / s, y / s), value)
    return _clamped((value,), x, y)[0]


def evaluate_mean(kind: str, pair, r: float | None = None) -> float:
    """Evaluate one mean kind at a positive pair; 'power' needs its order r."""
    if kind not in MEAN_KINDS:
        known = ", ".join(MEAN_KINDS)
        raise DomainError(f"unknown mean kind {kind!r}; known kinds: {known}")
    x, y = _validate_pair(pair)
    if kind == "power":
        if r is None:
            raise DomainError("mean kind 'power' requires the order r")
        return weighted_power_mean(r, 0.5, x, y)
    # A, G and Q lead _BUNDLE_KINDS and need neither atanh nor the arc means
    values = _agq(x, y) if kind in ("A", "G", "Q") else _bundle_values(x, y)
    return _clamped((values[_BUNDLE_KINDS.index(kind)],), x, y)[0]


def reduce_homogeneous(kind: str, pair, r: float | None = None) -> tuple[float, float, float]:
    """Exhibit first-degree homogeneity: M(x, y) = sqrt(xy) M(e^t, e^-t).

    Returns (t, lhs, rhs) with t = ln(x/y)/2, lhs the mean at the pair and
    rhs the rescaled mean at (e^t, e^-t).
    """
    x, y = _validate_pair(pair)
    t = 0.5 * (math.log(x) - math.log(y))
    lhs = evaluate_mean(kind, (x, y), r)
    xy = x * y
    # sqrt(x*y) wherever x*y is a normal double, so those values keep their
    # bits; a subnormal or infinite product would lose them
    g = math.sqrt(xy) if sys.float_info.min <= xy < math.inf else math.sqrt(x) * math.sqrt(y)
    rhs = g * evaluate_mean(kind, (math.exp(t), math.exp(-t)), r)
    return t, lhs, rhs


def _substitution(pair, arc, norm: str, kinds: tuple[str, str, str, str]):
    """t = arc((b-a)/(a+b)) and the residuals of sinc t, cos t, the exponential
    cotangent kernel and its half-angle form against the means ``kinds`` over
    the mean ``norm``."""
    a, b = _validate_pair(pair)
    if not b > a:
        raise DomainError(f"substitution requires b > a, got ({a!r}, {b!r})")
    t = arc((b - a) / (a + b))
    m = mean_bundle(a, b)
    forms = (kernels.sinc, math.cos, kernels.exp_tcot, kernels.exp_tcot_half)
    return t, tuple(abs(f(t) - m[kind] / m[norm]) for f, kind in zip(forms, kinds))


def substitution_arcsin(pair) -> tuple[float, tuple[float, float, float, float]]:
    """t = arcsin((b-a)/(a+b)) and the four kernel-vs-mean residuals.

    The residuals compare sinc t with P/A, cos t with G/A, the exponential
    cotangent kernel with X/A, and its half-angle form with J/A. Each is an
    absolute difference of order-one quantities.
    """
    return _substitution(pair, math.asin, "A", ("P", "G", "X", "J"))


def substitution_arctan(pair) -> tuple[float, tuple[float, float, float, float]]:
    """t = arctan((b-a)/(a+b)) and the four kernel-vs-mean residuals.

    Here sinc t pairs with T/Q, cos t with A/Q, the exponential cotangent
    kernel with B/Q, and its half-angle form with K/Q.
    """
    return _substitution(pair, math.atan, "Q", ("T", "A", "B", "K"))
