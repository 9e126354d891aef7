"""Bivariate means of positive arguments and their kernel substitutions.

Twelve mean kinds are supported: arithmetic A, geometric G, quadratic Q,
logarithmic L, identric I, the unweighted power mean of order r, the two
arc-based means P (arcsine) and T (arctangent), and the four exponential
combinations X, B, J, K built from them.

L and I are assembled from atanh(u)/u with u = (x-y)/(x+y), which both
share, so the two stay mutually consistent to the last bit. Below |u| = 0.2
it is an even power series, so nearly equal arguments lose no precision;
above, atanh(|u|) is taken as |log(x/y)|/2, because u rounded near 1
carries too few digits of the ratio. All means return x exactly when
x == y, and switch to quadratic small-ratio forms when |x-y|/(x+y) drops
below 1e-7. A, G, Q and the sums inside J and K are built from halves and
square roots, the power mean is rescaled where its sum of powers is not a
normal double, I takes its exponential in two halves where one would
overflow, and a pair that lies wholly below 2**-1021 is scaled up by an
exact power of two and its means scaled back. So every pair of positive
doubles has finite means.
Each mean is held inside [min(x, y), max(x, y)].

mean_bundle and weighted_power_mean also take numpy arrays (either
argument, or both) and evaluate them elementwise, as the kernels do.
mean_bundle computes only the kinds it is asked for: A, G and u are always
formed; L and I, the arcsine family P, X, J and the arctangent family T, B,
K are each skipped unless one of their members is named, and Q unless it or
the arctangent family, which reads it, is. No value depends on what else is
asked for, so a mean chain computes only the means it reads.

The angle t = arcsin or arctan of (x-y)/(x+y) has one formula, _angle: P
and T divide by it, and the two substitutions and the verifier's twin
check take t from it (_pair_angle), with no asin near pi/2.
"""

from __future__ import annotations

import math
import sys
from contextlib import nullcontext
from typing import Sequence

from . import kernels
from .errors import DomainError
from .kernels import _all, _any, _np, _piecewise, _xp

MEAN_KINDS = ("A", "G", "Q", "L", "I", "power", "P", "T", "X", "B", "J", "K")

# canonical order shown by the CLI for the parametric kind
POWER_DISPLAY_R = 2.0 / 3.0

_BUNDLE_KINDS = ("A", "G", "Q", "L", "I", "P", "T", "X", "B", "J", "K")
_ARCSIN_KINDS = ("P", "X", "J")
_ARCTAN_KINDS = ("T", "B", "K")
# 1/(2n+1) for n >= 1: below |u| = 0.2 the series meets relative 1e-17 by
# its 13th term.
_ATANH_COEFFS = tuple(1.0 / (2 * n + 1) for n in range(1, 30))

_SQRT2 = math.sqrt(2.0)
_NEAR_DEGENERATE = 1e-7
_LOG_MAX = math.log(sys.float_info.max)
# Halving a double of at least 2**-1021 is exact; a pair wholly below it is
# scaled by 2**1000 into the normal range, which no mean leaves.
_TINY = 2.0 ** -1021
_UP = 2.0 ** 1000


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
        if not isinstance(ok, bool):  # arrays: name the first offending pair
            np = _np()
            i = int(np.argmin(ok))
            x, y = (np.broadcast_to(v, ok.shape).flat[i].item() for v in (x, y))
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


def _atanh_over_u_minus1(u, d):
    """atanh(u)/u - 1 for u = (x-y)/(x+y) and d = |log(x/y)|: the series
    sum u^(2n)/(2n+1) below |u| = 0.2 keeps it fully relative, and above it
    atanh(|u|) is d/2, which keeps the digits u loses where it rounds near 1."""
    return _piecewise(
        abs(u) < 0.2, lambda u, d: kernels._even_series(_ATANH_COEFFS, u), _atanh_from_logs, u, d
    )


def _atanh_from_logs(u, d):
    return d / (2.0 * abs(u)) - 1.0


def _log_ratio(x, y, edge):
    """|log(x/y)|, the same for (x, y) and (y, x).

    The logarithm of the quotient loses nothing to cancellation where x and
    y lie far from 1. At the ``edge`` points, past a ratio of about 2**54,
    the quotient can overflow, and there the two logarithms are taken apart.
    """
    m = _xp(x, y)
    swap = x < y
    hi, lo = _where(swap, y, x), _where(swap, x, y)
    if not _any(edge):
        return m.log(hi / lo)
    return _where(edge, m.log(hi) - m.log(lo), m.log(hi / _where(edge, hi, lo)))


def _agu(x, y):
    """A, G and u = (x-y)/(x+y) of a valid pair, from halves and square roots
    so that no finite pair overflows them. Halving a double of at least
    2**-1021 is exact, so there a quotient of halves keeps the bits of the
    plain one."""
    m = _xp(x, y)
    a = 0.5 * x + 0.5 * y
    return a, m.sqrt(x) * m.sqrt(y), (0.5 * x - 0.5 * y) / a


def _angle(substitution: str, a, g, u):
    """arctan(u), or arcsin(u) for substitution "arcsin", from A, G and
    u = (x-y)/(x+y). asin(u) is taken as atan2(u, G/A), as
    sqrt(1 - u**2) = G/A: asin is ill-conditioned near |u| = 1, where u has
    rounded away the digits of the ratio."""
    m = _xp(u)
    return m.atan2(u, g / a) if substitution == "arcsin" else m.atan(u)


def _pair_angle(substitution: str, x, y):
    """t = arcsin or arctan of (x-y)/(x+y) for substitution "arcsin" or
    "arctan", as P or T takes it, of a valid pair (floats or arrays). The
    pair is not checked again: the twin check calls this once per link."""
    return _angle(substitution, *_agu(x, y))


def _arcsin_means(a, g, u):
    """P, X and J from A, G and u = (x-y)/(x+y)."""
    m = _xp(u)
    p = a * u / _angle("arcsin", a, g, u)
    return p, a * m.exp(g / p - 1.0), a * m.exp((0.5 * a + 0.5 * g) / (0.5 * p) - 2.0)


def _arcsin_near_diagonal(a, g, u):
    """P, X and J from their quadratic forms in u, for |u| < 1e-7."""
    m = _xp(u)
    u2 = u * u
    return a / (1.0 + u2 / 6.0), a * m.exp(-u2 / 3.0), a * m.exp(-u2 / 6.0)


def _arctan_means(a, q, u):
    """T, B and K from A, Q and u = (x-y)/(x+y)."""
    m = _xp(u)
    t = a * u / _angle("arctan", a, None, u)
    return t, q * m.exp(a / t - 1.0), q * m.exp((0.5 * q + 0.5 * a) / (0.5 * t) - 2.0)


def _arctan_near_diagonal(a, q, u):
    """T, B and K from their quadratic forms in u, for |u| < 1e-7."""
    m = _xp(u)
    u2 = u * u
    return a / (1.0 - u2 / 3.0), q * m.exp(-u2 / 3.0), q * m.exp(-u2 / 6.0)


def _log_identric(x, y, a, g, u):
    """L and I from A, G and u = (x-y)/(x+y)."""
    m = _xp(x, y)
    # past a ratio of about 2**54 u rounds to +-1
    edge = abs(u) == 1.0
    h = _atanh_over_u_minus1(u, _log_ratio(x, y, edge))
    if _any(edge):
        # Past h = log(max double), which takes a subnormal argument, exp(h)
        # overflows though I does not; there it is taken in two halves.
        half = _where(h > _LOG_MAX, 0.5 * h, 0.0)
        im = g * m.exp(h - half) * m.exp(half)
    else:
        im = g * m.exp(h)
    return a / (1.0 + h), im


def _bundle_values(x, y, kinds) -> list:
    """The means ``kinds`` of a valid pair, in that order, unclamped. A, G and
    u are always formed; Q only for itself or the arctangent family, which
    reads it, and L with I and each arc family only on demand."""
    a, g, u = _agu(x, y)
    values = {"A": a, "G": g}
    wanted = set(kinds)
    if not wanted.isdisjoint(("Q", *_ARCTAN_KINDS)):
        values["Q"] = _xp(x, y).hypot(0.5 * x, 0.5 * y) / (0.5 * _SQRT2)  # halves: no overflow
    if not wanted.isdisjoint(("L", "I")):
        values["L"], values["I"] = _log_identric(x, y, a, g, u)
    near = abs(u) < _NEAR_DEGENERATE
    if not wanted.isdisjoint(_ARCSIN_KINDS):
        arcsin = _piecewise(near, _arcsin_near_diagonal, _arcsin_means, a, g, u)
        values.update(zip(_ARCSIN_KINDS, arcsin))
    if not wanted.isdisjoint(_ARCTAN_KINDS):
        arctan = _piecewise(near, _arctan_near_diagonal, _arctan_means, a, values["Q"], u)
        values.update(zip(_ARCTAN_KINDS, arctan))
    return [values[k] for k in kinds]


def _homogeneous(x, y, kinds) -> list:
    """_bundle_values(x, y, kinds) of a valid pair, scaled into the normal
    range where both arguments lie below _TINY: there halves and quotients
    lose digits or vanish. Every mean is homogeneous of degree one, so the
    results are scaled back by the same power of two; other points keep
    their bits."""
    if not (_any(x < _TINY) and _any(y < _TINY)):
        return _bundle_values(x, y, kinds)
    s = _where((x < _TINY) & (y < _TINY), _UP, 1.0)
    return [v / s for v in _bundle_values(x * s, y * s, kinds)]


def mean_bundle(x, y, kinds: Sequence[str] = _BUNDLE_KINDS) -> dict:
    """The non-parametric means ``kinds`` of (x, y), by default all eleven,
    computed in one pass. Each value has the same bits whichever other kinds
    are asked for, so a caller asks only for the means it reads."""
    x, y = _validate_pair((x, y))
    try:
        values = _homogeneous(x, y, kinds)
    except KeyError:  # _bundle_values looks each kind up by name
        unknown = sorted(set(kinds).difference(_BUNDLE_KINDS))
        known = ", ".join(_BUNDLE_KINDS)
        raise DomainError(f"unknown mean kinds {unknown}; known kinds: {known}") from None
    return dict(zip(kinds, _clamped(values, x, y)))


def _power_sum(r: float, w: float, x, y):
    return w * x ** r + (1.0 - w) * y ** r


def weighted_power_mean(r: float, w: float, x, y):
    """(w x^r + (1-w) y^r)^(1/r), with the geometric limit at r = 0 and the
    max and min limits at r = +inf and -inf."""
    if not (0.0 < w < 1.0):
        raise DomainError(f"weight must lie strictly in (0, 1), got {w!r}")
    if math.isnan(r):
        raise DomainError(f"the order r must be a number, got {r!r}")
    x, y = _validate_pair((x, y))
    m = _xp(x, y)
    if abs(r) < 1e-8:
        # second-order expansion in r around the geometric limit; at r = 0
        # its correction is 0 and this is the weighted geometric mean
        lx = m.log(x)
        ly = m.log(y)
        mu = w * lx + (1.0 - w) * ly
        qq = w * lx * lx + (1.0 - w) * ly * ly
        value = m.exp(mu + 0.5 * r * (qq - mu * mu))
    else:
        # Where math raises, numpy gives inf or 0 with a warning; the lost
        # mask below catches both. The rescale, evaluated at every point of
        # an array, can overflow where it is not selected.
        quiet = _np().errstate(over="ignore", divide="ignore") if m is not math else nullcontext()
        with quiet:
            try:
                total = _power_sum(r, w, x, y)
                value = total ** (1.0 / r)
            except (OverflowError, ZeroDivisionError):
                total = value = math.inf
            # Positive arguments give a sum in [0, inf]. Where it is not a
            # normal double, it has lost digits or range: scale the argument
            # that dominates the sum to 1.
            lost = (total < sys.float_info.min) | (total == math.inf) | (value == math.inf)
            if _any(lost):
                s = _where(x > y, x, y) if r > 0.0 else _where(x < y, x, y)
                value = _where(lost, s * _power_sum(r, w, x / s, y / s) ** (1.0 / r), value)
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
    return mean_bundle(x, y, (kind,))[kind]


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
    try:
        scaled = (math.exp(t), math.exp(-t))
    except OverflowError:
        raise DomainError(f"e^t leaves the float range at t = {t!r}") from None
    rhs = g * evaluate_mean(kind, scaled, r)
    return t, lhs, rhs


def _substitution(pair, substitution: str, norm: str, kinds: tuple[str, str, str, str]):
    """t = _pair_angle(substitution, b, a) and the residuals of sinc t,
    cos t, the exponential cotangent kernel and its half-angle form against
    the means ``kinds`` over the mean ``norm``."""
    a, b = _validate_pair(pair)
    if not b > a:
        raise DomainError(f"substitution requires b > a, got ({a!r}, {b!r})")
    t = _pair_angle(substitution, b, a)
    m = mean_bundle(a, b, (norm, *kinds))
    forms = (kernels.sinc, math.cos, kernels.exp_tcot, kernels.exp_tcot_half)
    return t, tuple(abs(f(t) - m[kind] / m[norm]) for f, kind in zip(forms, kinds))


def substitution_arcsin(pair) -> tuple[float, tuple[float, float, float, float]]:
    """t = arcsin((b-a)/(a+b)) and the four kernel-vs-mean residuals.

    The residuals compare sinc t with P/A, cos t with G/A, the exponential
    cotangent kernel with X/A, and its half-angle form with J/A. Each is an
    absolute difference of order-one quantities.
    """
    return _substitution(pair, "arcsin", "A", ("P", "G", "X", "J"))


def substitution_arctan(pair) -> tuple[float, tuple[float, float, float, float]]:
    """t = arctan((b-a)/(a+b)) and the four kernel-vs-mean residuals.

    Here sinc t pairs with T/Q, cos t with A/Q, the exponential cotangent
    kernel with B/Q, and its half-angle form with K/Q.
    """
    return _substitution(pair, "arctan", "Q", ("T", "A", "B", "K"))
