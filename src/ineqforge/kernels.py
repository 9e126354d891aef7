"""Kernels of the inequality chains, with stable small-argument paths.

Every trigonometric and hyperbolic function that appears inside a chain is
evaluated here: the sinc and cotangent kernels, the exponential-cotangent
pair, parametric cosine powers, the four ratio kernels driving the
monotone-ratio lemmas, and their hyperbolic counterparts.

Each kernel takes a float, evaluated with ``math``, or a numpy array of
floats, evaluated elementwise in one pass. numpy is imported on the first
array evaluation, so importing the package and loading the catalog do not
pay for it. Series/direct crossovers are applied per point with the float
arithmetic; numpy's exp, log, tan and a few others can differ from the C
library's in the last bit, so array and float values may too.

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
# t*coth(t) - 1 switches later: numpy's tanh can sit 3 ulps from libm's, and
# the direct form amplifies that 76-fold at 0.2 but only 13-fold at 0.5, where
# the alternating series still needs just ~12 terms.
SMALL_T_HYPERBOLIC = 0.5

_PI = math.pi
_HALF_PI = math.pi / 2


def _np():
    """numpy, imported on first use."""
    import numpy

    return numpy


def _xp(x, y=0.0):
    """math when x and y are scalars, numpy when either is an array."""
    if isinstance(x, (float, int)) and isinstance(y, (float, int)):
        return math
    return _np()


def _all(cond) -> bool:
    return cond if isinstance(cond, bool) else bool(cond.all())


def _any(cond) -> bool:
    return cond if isinstance(cond, bool) else bool(cond.any())


def _piecewise(cond, below, above, *args):
    """below(*args) where cond holds and above(*args) elsewhere.

    For arrays each branch sees only its own points, so neither is evaluated
    outside its range. A branch may return a tuple; the result is then an
    array with one row per entry.
    """
    if getattr(cond, "ndim", 0) == 0:
        return below(*args) if cond else above(*args)
    if not cond.any():
        return above(*args)
    if cond.all():
        return below(*args)
    np = _np()
    out = None
    for mask, fn in ((cond, below), (~cond, above)):
        part = np.asarray(fn(*(a[mask] for a in args)))
        if out is None:
            out = np.empty(part.shape[:-1] + cond.shape)
        out[..., mask] = part
    return out


def _require(ok, msg: str, value) -> None:
    """Raise DomainError unless ok holds (at every point of an array)."""
    if not _all(ok):
        if getattr(ok, "ndim", 0):
            value = value[~ok].flat[0].item()
        raise DomainError(f"{msg}, got {value!r}")


def _elementwise(name: str) -> Callable:
    def apply(x):
        return getattr(_xp(x), name)(x)

    apply.__name__ = name
    return apply


# The elementary functions catalog expressions may call: math's for a scalar,
# numpy's for an array.
ELEMENTARY = {
    name: _elementwise(name) for name in ("sin", "cos", "tan", "cosh", "exp", "log", "sqrt")
}


def ln_cos(x):
    """ln(cos x) for cos x > 0, via log1p near the removable zero of x."""
    c = _xp(x).cos(x)
    _require(c > 0.0, "ln_cos: cos(x) must be positive", x)
    return _piecewise(c >= 0.7, _ln_cos_near_zero, _ln_of_cos, x, c)


def _ln_cos_near_zero(x, c):
    s = _xp(x).sin(0.5 * x)
    return _xp(x).log1p(-2.0 * s * s)


def _ln_of_cos(x, c):
    return _xp(c).log(c)


def sinc(t):
    """sin(t)/t on (0, pi); limit 1 at 0+."""
    _require((0.0 < t) & (t < _PI), "sinc: t must lie in (0, pi)", t)
    return _xp(t).sin(t) / t


def t_cot_minus1(t):
    """t*cot(t) - 1 on (0, pi); equals -1 at pi/2, -t^2/3 - t^4/45 - ... near 0."""
    _require((0.0 < t) & (t < _PI), "t_cot_minus1: t must lie in (0, pi)", t)
    return _piecewise(t < SMALL_T, _tcm1_series, _tcm1_direct, t)


def _tcm1_series(t):
    return -_even_series(series.tcm1_coefficients(), t)


def _tcm1_direct(t):
    return t / _xp(t).tan(t) - 1.0


def _even_series(coeffs: tuple[float, ...], t, alternating: bool = False):
    """sum c_n t^(2n) from the table, terminated at relative 1e-17.

    Each array point stops on its own: once it is done, its later terms are
    multiplied by False, so it sums exactly what a float would.
    """
    t2 = t * t
    power = t * t
    acc = 0.0
    sign = 1.0
    live = True
    for c in coeffs:
        term = c * power
        acc += sign * term * live
        live &= term >= 1e-17 * abs(acc)
        if not _any(live):
            break
        power *= t2
        if alternating:
            sign = -sign
    return acc


def exp_tcot(t):
    """e^(t cot t - 1) on (0, pi); limits 1 at 0+ and e^-1 at pi/2."""
    return _xp(t).exp(t_cot_minus1(t))


def exp_tcot_half(t):
    """e^(t cot(t/2) - 2) on (0, 2pi), via t cot(t/2) - 2 = 2[(t/2)cot(t/2) - 1]."""
    _require((0.0 < t) & (t < 2.0 * _PI), "exp_tcot_half: t must lie in (0, 2pi)", t)
    return _xp(t).exp(2.0 * t_cot_minus1(0.5 * t))


def cos_power_U(p: float, t):
    """U_p(t) = (cos pt)^(1/p) for p in [0,1), U_0 = 1; decreasing in p."""
    _require((0.0 <= p) & (p < 1.0), "cos_power_U: p must lie in [0, 1)", p)
    _require((0.0 <= t) & (t <= _HALF_PI), "cos_power_U: t must lie in [0, pi/2]", t)
    if p == 0.0:
        return 0.0 * t + 1.0  # 1, as a float or an array like t
    return _xp(t).exp(ln_cos(p * t) / p)


def cos_power_V(p: float, t):
    """V_p(t) = (cos pt)^(1/p^2) for p in [0,1), V_0 = e^(-t^2/2)."""
    _require((0.0 <= p) & (p < 1.0), "cos_power_V: p must lie in [0, 1)", p)
    _require((0.0 <= t) & (t <= _HALF_PI), "cos_power_V: t must lie in [0, pi/2]", t)
    if p == 0.0:
        return _xp(t).exp(-0.5 * t * t)
    return _xp(t).exp(ln_cos(p * t) / (p * p))


def F_p(p: float, t):
    """(t cot t - 1)/ln cos(pt) on (0, pi/2); limits 2/(3p^2) and -1/ln cos(p pi/2)."""
    _require((0.0 < p) & (p <= 1.0), "F_p: p must lie in (0, 1]", p)
    _require((0.0 < t) & (t < _HALF_PI), "F_p: t must lie in (0, pi/2)", t)
    return t_cot_minus1(t) / ln_cos(p * t)


def _g_numerator(t):
    """ln(sin t/t) + t cot t - 1, summed as one same-sign series near 0.

    The two pieces are each ~t^2 and carry the same sign, but the log of a
    double next to 1.0 quantizes to whole ulps, so assembling them from
    separate direct evaluations loses the numerator entirely below ~1e-7.
    """
    return _piecewise(t < SMALL_T, _g_numerator_series, _g_numerator_direct, t)


def _g_numerator_series(t):
    return -_even_series(series.g_numerator_coefficients(), t)


def _g_numerator_direct(t):
    m = _xp(t)
    return m.log(m.sin(t) / t) + t / m.tan(t) - 1.0


def G_p(p: float, t):
    """(ln(sin t/t) + t cot t - 1)/ln cos(pt); limits 1/p^2 and (ln2 - lnpi - 1)/ln cos(p pi/2)."""
    _require((0.0 < p) & (p <= 1.0), "G_p: p must lie in (0, 1]", p)
    _require((0.0 < t) & (t < _HALF_PI), "G_p: t must lie in (0, pi/2)", t)
    return _g_numerator(t) / ln_cos(p * t)


def u_ratio(p: float, t):
    """(1 - e^(p(t cot t - 1)))/(1 - cos^p t); limits 2/3 at 0+ and 1 - e^-p (p>0) or 0 (p<0)."""
    _require(p != 0.0, "u_ratio: p must be nonzero", p)
    _require((0.0 < t) & (t < _HALF_PI), "u_ratio: t must lie in (0, pi/2)", t)
    m = _xp(t)
    return m.expm1(p * t_cot_minus1(t)) / m.expm1(p * ln_cos(t))


def h_ratio(t):
    """(sin t/t + e^(t cot t - 1))/(1 + cos t); increasing, 1 at 0+, e^-1 + 2/pi at pi/2-."""
    _require((0.0 < t) & (t < _HALF_PI), "h_ratio: t must lie in (0, pi/2)", t)
    return (sinc(t) + exp_tcot(t)) / (1.0 + _xp(t).cos(t))


def ratio_u5_u4(t):
    """(3t cot t + t tan t - 3)/(2t cot t - t^2/sin^2 t + t tan t - 1) on (0, pi/2).

    Decreasing from 6/5 to 1. Both numerator and denominator are t^4-order
    sums of t^2-order pieces, so the direct form is hopeless at small t;
    below 0.5 the rederived series (coefficient ratio = m6_coeff_ratio) is
    used instead.
    """
    _require((0.0 < t) & (t < _HALF_PI), "ratio_u5_u4: t must lie in (0, pi/2)", t)
    return _piecewise(t < 0.5, _ratio_u5_u4_series, _ratio_u5_u4_direct, t)


def _ratio_u5_u4_series(t):
    num = _even_series(series.u5_coefficients(), t)
    den = _even_series(series.u4_coefficients(), t)
    return num / den


def _ratio_u5_u4_direct(t):
    m = _xp(t)
    c = m.cos(t)
    s = m.sin(t)
    cot = c / s
    tan = s / c
    num = 3.0 * t * cot + t * tan - 3.0
    den = 2.0 * t * cot - t * t / (s * s) + t * tan - 1.0
    return num / den


def sinhc(t):
    """sinh(t)/t for t > 0; limit 1 at 0+."""
    _require(t > 0.0, "sinhc: t must be positive", t)
    return _xp(t).sinh(t) / t


def t_coth_minus1(t):
    """t*coth(t) - 1 for t > 0; t^2/3 - t^4/45 + ... near 0."""
    _require(t > 0.0, "t_coth_minus1: t must be positive", t)
    return _piecewise(t < SMALL_T_HYPERBOLIC, _tcoth_series, _tcoth_direct, t)


def _tcoth_series(t):
    return _even_series(series.tcm1_coefficients(), t, alternating=True)


def _tcoth_direct(t):
    return t / _xp(t).tanh(t) - 1.0


def exp_tcoth(t):
    """e^(t coth t - 1) for t > 0; limit 1 at 0+."""
    return _xp(t).exp(t_coth_minus1(t))


def cosh_power(p: float, t):
    """(cosh pt)^(1/p) for p != 0, t > 0."""
    _require(p != 0.0, "cosh_power: p must be nonzero", p)
    _require(t > 0.0, "cosh_power: t must be positive", t)
    x = p * t
    # ln cosh x without overflow for |x| beyond ~710
    lc = _piecewise(abs(x) > 20.0, _ln_cosh_large, _ln_of_cosh, x)
    return _xp(t).exp(lc / p)


def _ln_cosh_large(x):
    m = _xp(x)
    ax = abs(x)
    return ax - _LN2 + m.log1p(m.exp(-2.0 * ax))


def _ln_of_cosh(x):
    m = _xp(x)
    return m.log(m.cosh(x))


def k_ratio(t):
    """(sinh t/t + e^(t coth t - 1))/(1 + cosh t); decreasing, 1 at 0+, 2/e at infinity."""
    _require(t > 0.0, "k_ratio: t must be positive", t)
    return (sinhc(t) + exp_tcoth(t)) / (1.0 + _xp(t).cosh(t))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Kernel:
    """A named kernel on an open interval with known endpoint limits.

    limit_hi is None when the kernel diverges at the right end. When
    hi_asymptotic is set the right "endpoint" is infinity: limit_hi is the
    asymptotic value and probe_points are the t values along which the
    approach is checked (monotone |error|), since hi - delta means nothing.
    """

    id: str
    lo: float
    hi: float
    fn: Callable
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
               small_t_threshold=SMALL_T_HYPERBOLIC, monotone="increasing"),
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
