"""Scalar kernels of the inequality chains, with stable small-argument paths.

Every trigonometric and hyperbolic function that appears inside a chain is
evaluated here: the sinc and cotangent kernels, the exponential-cotangent
pair, parametric cosine powers, the four ratio kernels driving the
monotone-ratio lemmas, and their hyperbolic counterparts.

A registry maps stable string ids (e.g. ``sinc``, ``Fp(p=0.5)``) to Kernel
records carrying the open domain, the analytic endpoint limits, and the
series/direct crossover threshold where one applies. Endpoint limits are
stored in closed form, never extrapolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from . import series
from .errors import DomainError

# Below this |t| the cancellation-prone kernels switch to their Bernoulli
# series. Chosen so both paths are well conditioned on either side; the
# series needs ~12 terms at the crossover.
SMALL_T = 0.2

_PI = math.pi
_HALF_PI = math.pi / 2


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def ln_cos(x: float) -> float:
    """ln(cos x) for cos x > 0, via log1p near the removable zero of x."""
    c = math.cos(x)
    _require(c > 0.0, f"ln_cos: cos({x!r}) <= 0")
    if c >= 0.7:
        s = math.sin(0.5 * x)
        return math.log1p(-2.0 * s * s)
    return math.log(c)


def sinc(t: float) -> float:
    """sin(t)/t on (0, pi); limit 1 at 0+."""
    _require(0.0 < t < _PI, f"sinc: t must lie in (0, pi), got {t!r}")
    return math.sin(t) / t


def t_cot_minus1(t: float) -> float:
    """t*cot(t) - 1 on (0, pi); equals -1 at pi/2, -t^2/3 - t^4/45 - ... near 0."""
    _require(0.0 < t < _PI, f"t_cot_minus1: t must lie in (0, pi), got {t!r}")
    if t < SMALL_T:
        return -_even_series(series.tcm1_coefficients(), t)
    return t / math.tan(t) - 1.0


def _even_series(coeffs: tuple[float, ...], t: float, alternating: bool = False) -> float:
    """sum c_n t^(2n) from the table, terminated at relative 1e-17."""
    t2 = t * t
    power = t2
    acc = 0.0
    sign = 1.0
    for c in coeffs:
        term = c * power
        acc += sign * term
        if term < 1e-17 * abs(acc):
            break
        power *= t2
        if alternating:
            sign = -sign
    return acc


def exp_tcot(t: float) -> float:
    """e^(t cot t - 1) on (0, pi); limits 1 at 0+ and e^-1 at pi/2."""
    return math.exp(t_cot_minus1(t))


def exp_tcot_half(t: float) -> float:
    """e^(t cot(t/2) - 2) on (0, 2pi), via t cot(t/2) - 2 = 2[(t/2)cot(t/2) - 1]."""
    _require(0.0 < t < 2.0 * _PI, f"exp_tcot_half: t must lie in (0, 2pi), got {t!r}")
    return math.exp(2.0 * t_cot_minus1(0.5 * t))


def cos_power_U(p: float, t: float) -> float:
    """U_p(t) = (cos pt)^(1/p) for p in [0,1), U_0 = 1; decreasing in p."""
    _require(0.0 <= p < 1.0, f"cos_power_U: p must lie in [0, 1), got {p!r}")
    _require(0.0 <= t <= _HALF_PI, f"cos_power_U: t must lie in [0, pi/2], got {t!r}")
    if p == 0.0 or t == 0.0:
        return 1.0
    return math.exp(ln_cos(p * t) / p)


def cos_power_V(p: float, t: float) -> float:
    """V_p(t) = (cos pt)^(1/p^2) for p in [0,1), V_0 = e^(-t^2/2)."""
    _require(0.0 <= p < 1.0, f"cos_power_V: p must lie in [0, 1), got {p!r}")
    _require(0.0 <= t <= _HALF_PI, f"cos_power_V: t must lie in [0, pi/2], got {t!r}")
    if p == 0.0:
        return math.exp(-0.5 * t * t)
    if t == 0.0:
        return 1.0
    return math.exp(ln_cos(p * t) / (p * p))


def F_p(p: float, t: float) -> float:
    """(t cot t - 1)/ln cos(pt) on (0, pi/2); limits 2/(3p^2) and -1/ln cos(p pi/2)."""
    _require(0.0 < p <= 1.0, f"F_p: p must lie in (0, 1], got {p!r}")
    _require(0.0 < t < _HALF_PI, f"F_p: t must lie in (0, pi/2), got {t!r}")
    return t_cot_minus1(t) / ln_cos(p * t)


def _g_numerator(t: float) -> float:
    """ln(sin t/t) + t cot t - 1, summed as one same-sign series near 0.

    The two pieces are each ~t^2 and carry the same sign, but the log of a
    double next to 1.0 quantizes to whole ulps, so assembling them from
    separate direct evaluations loses the numerator entirely below ~1e-7.
    """
    if t < SMALL_T:
        return -_even_series(series.g_numerator_coefficients(), t)
    return math.log(math.sin(t) / t) + t / math.tan(t) - 1.0


def G_p(p: float, t: float) -> float:
    """(ln(sin t/t) + t cot t - 1)/ln cos(pt); limits 1/p^2 and (ln2 - lnpi - 1)/ln cos(p pi/2)."""
    _require(0.0 < p <= 1.0, f"G_p: p must lie in (0, 1], got {p!r}")
    _require(0.0 < t < _HALF_PI, f"G_p: t must lie in (0, pi/2), got {t!r}")
    return _g_numerator(t) / ln_cos(p * t)


def u_ratio(p: float, t: float) -> float:
    """(1 - e^(p(t cot t - 1)))/(1 - cos^p t); limits 2/3 at 0+ and 1 - e^-p (p>0) or 0 (p<0)."""
    _require(p != 0.0, "u_ratio: p must be nonzero")
    _require(0.0 < t < _HALF_PI, f"u_ratio: t must lie in (0, pi/2), got {t!r}")
    return math.expm1(p * t_cot_minus1(t)) / math.expm1(p * ln_cos(t))


def h_ratio(t: float) -> float:
    """(sin t/t + e^(t cot t - 1))/(1 + cos t); increasing, 1 at 0+, e^-1 + 2/pi at pi/2-."""
    _require(0.0 < t < _HALF_PI, f"h_ratio: t must lie in (0, pi/2), got {t!r}")
    return (sinc(t) + exp_tcot(t)) / (1.0 + math.cos(t))


def ratio_u5_u4(t: float) -> float:
    """(3t cot t + t tan t - 3)/(2t cot t - t^2/sin^2 t + t tan t - 1) on (0, pi/2).

    Decreasing from 6/5 to 1. Both numerator and denominator are t^4-order
    sums of t^2-order pieces, so the direct form is hopeless at small t;
    below 0.5 the rederived series (coefficient ratio = m6_coeff_ratio) is
    used instead.
    """
    _require(0.0 < t < _HALF_PI, f"ratio_u5_u4: t must lie in (0, pi/2), got {t!r}")
    if t < 0.5:
        num = _even_series(series.u5_coefficients(), t)
        den = _even_series(series.u4_coefficients(), t)
        return num / den
    c = math.cos(t)
    s = math.sin(t)
    cot = c / s
    tan = s / c
    num = 3.0 * t * cot + t * tan - 3.0
    den = 2.0 * t * cot - t * t / (s * s) + t * tan - 1.0
    return num / den


def sinhc(t: float) -> float:
    """sinh(t)/t for t > 0; limit 1 at 0+."""
    _require(t > 0.0, f"sinhc: t must be positive, got {t!r}")
    return math.sinh(t) / t


def t_coth_minus1(t: float) -> float:
    """t*coth(t) - 1 for t > 0; t^2/3 - t^4/45 + ... near 0."""
    _require(t > 0.0, f"t_coth_minus1: t must be positive, got {t!r}")
    if t < SMALL_T:
        return _even_series(series.tcm1_coefficients(), t, alternating=True)
    return t / math.tanh(t) - 1.0


def exp_tcoth(t: float) -> float:
    """e^(t coth t - 1) for t > 0; limit 1 at 0+."""
    return math.exp(t_coth_minus1(t))


def cosh_power(p: float, t: float) -> float:
    """(cosh pt)^(1/p) for p != 0, t > 0."""
    _require(p != 0.0, "cosh_power: p must be nonzero")
    _require(t > 0.0, f"cosh_power: t must be positive, got {t!r}")
    x = p * t
    # ln cosh x without overflow for |x| beyond ~710
    ax = abs(x)
    if ax > 20.0:
        lc = ax - math.log(2.0) + math.log1p(math.exp(-2.0 * ax))
    else:
        lc = math.log(math.cosh(x))
    return math.exp(lc / p)


def k_ratio(t: float) -> float:
    """(sinh t/t + e^(t coth t - 1))/(1 + cosh t); decreasing, 1 at 0+, 2/e at infinity."""
    _require(t > 0.0, f"k_ratio: t must be positive, got {t!r}")
    return (sinhc(t) + exp_tcoth(t)) / (1.0 + math.cosh(t))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kernel:
    """A named scalar function on an open interval with known endpoint limits.

    limit_hi is None when the kernel diverges at the right end. When
    hi_asymptotic is set the right "endpoint" is infinity: limit_hi is the
    asymptotic value and probe_points are the t values along which the
    approach is checked (monotone |error|), since hi - delta means nothing.
    """

    id: str
    lo: float
    hi: float
    fn: Callable[[float], float]
    limit_lo: float | None
    limit_hi: float | None
    small_t_threshold: float | None = None
    monotone: str | None = None
    hi_asymptotic: bool = False
    probe_points: tuple[float, ...] = field(default=())


_SQRT10_5 = math.sqrt(10.0) / 5.0
_INV_SQRT3 = 1.0 / math.sqrt(3.0)
_LN2 = math.log(2.0)


def _build_registry() -> dict[str, Kernel]:
    ks = [
        Kernel("sinc", 0.0, _PI, sinc, 1.0, 0.0, monotone="decreasing"),
        Kernel("t_cot_minus1", 0.0, _PI, t_cot_minus1, 0.0, None,
               small_t_threshold=SMALL_T, monotone="decreasing"),
        Kernel("exp_tcot", 0.0, _PI, exp_tcot, 1.0, 0.0, monotone="decreasing"),
        Kernel("exp_tcot_half", 0.0, 2.0 * _PI, exp_tcot_half, 1.0, 0.0,
               monotone="decreasing"),
        Kernel("U(p=0.5)", 0.0, _HALF_PI, lambda t: cos_power_U(0.5, t),
               1.0, 0.5, monotone="decreasing"),
        Kernel("U(p=2/3)", 0.0, _HALF_PI, lambda t: cos_power_U(2.0 / 3.0, t),
               1.0, math.cos(_PI / 3.0) ** 1.5, monotone="decreasing"),
        Kernel("V(p=0)", 0.0, _HALF_PI, lambda t: cos_power_V(0.0, t),
               1.0, math.exp(-_PI * _PI / 8.0), monotone="decreasing"),
        Kernel("V(p=0.5)", 0.0, _HALF_PI, lambda t: cos_power_V(0.5, t),
               1.0, math.cos(_PI / 4.0) ** 4.0, monotone="decreasing"),
        Kernel("Fp(p=0.5)", 0.0, _HALF_PI, lambda t: F_p(0.5, t),
               8.0 / 3.0, -1.0 / ln_cos(_PI / 4.0), monotone="increasing"),
        Kernel("Fp(p=sqrt10/5)", 0.0, _HALF_PI, lambda t: F_p(_SQRT10_5, t),
               2.0 / (3.0 * 0.4), -1.0 / ln_cos(_SQRT10_5 * _HALF_PI),
               monotone="decreasing"),
        Kernel("Gp(p=0.5)", 0.0, _HALF_PI, lambda t: G_p(0.5, t),
               4.0, (_LN2 - math.log(_PI) - 1.0) / ln_cos(_PI / 4.0),
               monotone="increasing"),
        Kernel("Gp(p=1/sqrt3)", 0.0, _HALF_PI, lambda t: G_p(_INV_SQRT3, t),
               3.0, (_LN2 - math.log(_PI) - 1.0) / ln_cos(_INV_SQRT3 * _HALF_PI),
               monotone="decreasing"),
        Kernel("u(p=6/5)", 0.0, _HALF_PI, lambda t: u_ratio(1.2, t),
               2.0 / 3.0, 1.0 - math.exp(-1.2), monotone="increasing"),
        Kernel("u(p=0.5)", 0.0, _HALF_PI, lambda t: u_ratio(0.5, t),
               2.0 / 3.0, 1.0 - math.exp(-0.5), monotone="decreasing"),
        Kernel("u(p=-1)", 0.0, _HALF_PI, lambda t: u_ratio(-1.0, t),
               2.0 / 3.0, 0.0, monotone="decreasing"),
        Kernel("h_ratio", 0.0, _HALF_PI, h_ratio,
               1.0, math.exp(-1.0) + 2.0 / _PI, monotone="increasing"),
        Kernel("ratio_u5_u4", 0.0, _HALF_PI, ratio_u5_u4,
               1.2, 1.0, small_t_threshold=0.5, monotone="decreasing"),
        Kernel("sinhc", 0.0, 50.0, sinhc, 1.0, None, monotone="increasing"),
        Kernel("t_coth_minus1", 0.0, 50.0, t_coth_minus1, 0.0, None,
               small_t_threshold=SMALL_T, monotone="increasing"),
        Kernel("exp_tcoth", 0.0, 50.0, exp_tcoth, 1.0, None, monotone="increasing"),
        Kernel("coshpow(p=2/3)", 0.0, 50.0, lambda t: cosh_power(2.0 / 3.0, t),
               1.0, None, monotone="increasing"),
        Kernel("coshpow(p=ln2)", 0.0, 50.0, lambda t: cosh_power(_LN2, t),
               1.0, None, monotone="increasing"),
        Kernel("k_ratio", 0.0, 50.0, k_ratio, 1.0, 2.0 / math.e,
               monotone="decreasing", hi_asymptotic=True,
               probe_points=(10.0, 25.0, 50.0)),
    ]
    reg = {}
    for k in ks:
        if k.id in reg:
            raise DomainError(f"duplicate kernel id {k.id!r}")
        reg[k.id] = k
    return reg


KERNELS: dict[str, Kernel] = _build_registry()


def get_kernel(kernel_id: str) -> Kernel:
    try:
        return KERNELS[kernel_id]
    except KeyError:
        known = ", ".join(sorted(KERNELS))
        raise DomainError(f"unknown kernel id {kernel_id!r}; known ids: {known}") from None
