"""Sharp endpoint constants and the bisection solver that pins them down.

Two exponents (p0 for the sinc bound, p1 for the exponential-cotangent
bound) are transcendental roots of ln cos(p pi/2) / p = c and are solved by
bisection on fixed brackets, which makes them bit-identical across runs.
The remaining sharp constants have closed forms and are collected in a
small registry under stable names.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

from .errors import BracketError, ConvergenceError, DomainError
from .kernels import ln_cos

_MAX_ITERATIONS = 200


def solve_root(residual: Callable[[float], float],
               bracket: Sequence[float],
               tol: float = 1e-15) -> float:
    """Bisect residual to a root inside bracket.

    Converges when the bracket width drops below tol * max(1, |midpoint|).
    Raises BracketError when the residual does not change sign over the
    bracket and ConvergenceError if 200 bisections are not enough.
    """
    try:
        lo, hi = bracket
    except (TypeError, ValueError):
        raise DomainError(f"bracket must be a 2-sequence, got {bracket!r}") from None
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"bracket must satisfy lo < hi, got ({lo!r}, {hi!r})")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    f_lo = residual(lo)
    f_hi = residual(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketError(
            f"residual has the same sign at both ends of ({lo!r}, {hi!r})")
    for _ in range(_MAX_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol * max(1.0, abs(mid)):
            return mid
        f_mid = residual(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    raise ConvergenceError(
        f"no convergence after {_MAX_ITERATIONS} bisections on ({lo!r}, {hi!r})")


def _endpoint_exponent_residual(target_log: float) -> Callable[[float], float]:
    """Residual ln cos(p pi/2)/p - target_log, the right-endpoint matching equation."""
    def residual(p: float) -> float:
        return ln_cos(p * math.pi / 2.0) / p - target_log
    return residual


# Residuals of the defining equations, exposed for direct inspection.
def p1_residual(p: float) -> float:
    """Zero where (cos(p pi/2))^(1/p) equals 1/e."""
    return _endpoint_exponent_residual(-1.0)(p)


def p0_residual(p: float) -> float:
    """Zero where (cos(p pi/2))^(1/p) equals 2/pi."""
    return _endpoint_exponent_residual(math.log(2.0 / math.pi))(p)


def beta_residual(beta: float) -> float:
    """Zero where beta ln 2 equals ln pi - ln 2 + 1."""
    return beta * math.log(2.0) - (math.log(math.pi) - math.log(2.0) + 1.0)


def gamma_residual(gamma: float) -> float:
    """Zero where 2 gamma ln cos(pi/(2 sqrt 3)) equals ln 2 - ln pi - 1."""
    return gamma * 2.0 * ln_cos(math.pi / (2.0 * math.sqrt(3.0))) - (
        math.log(2.0) - math.log(math.pi) - 1.0)


@lru_cache(maxsize=None)
def constant_p1() -> float:
    """Exponent making (cos(p t))^(1/p) tangent to e^(t cot t - 1) at t = pi/2."""
    return solve_root(p1_residual, (0.5, 0.9))


@lru_cache(maxsize=None)
def constant_p0() -> float:
    """Exponent making (cos(p t))^(1/p) tangent to sin(t)/t at t = pi/2."""
    return solve_root(p0_residual, (0.2, 0.5))


@lru_cache(maxsize=None)
def constant_beta() -> float:
    """Sharp power of cos(t/2) against sqrt(sinc * exp_tcot): (ln pi - ln 2 + 1)/ln 2."""
    return (math.log(math.pi) - math.log(2.0) + 1.0) / math.log(2.0)


@lru_cache(maxsize=None)
def constant_gamma() -> float:
    """Sharp power of cos(t/sqrt 3) on the other side of the same geometric mean."""
    return (math.log(2.0) - math.log(math.pi) - 1.0) / (
        2.0 * ln_cos(math.pi / (2.0 * math.sqrt(3.0))))


def constant_registry() -> list[tuple[str, float]]:
    """Closed-form sharp constants under stable names, in a fixed order."""
    e = math.e
    pi = math.pi
    return [
        ("e_inv_plus_2_over_pi", 1.0 / e + 2.0 / pi),
        ("e_pi_minus2_over_pi", e * (pi - 2.0) / pi),
        ("two_over_e", 2.0 / e),
        ("log_ratio_q", (math.log(3.0) - math.log(2.0)) / (1.0 - math.log(2.0))),
        ("sqrt_8_over_pi_e", math.sqrt(8.0 / (pi * e))),
        ("two_sqrt2_over_e", 2.0 * math.sqrt(2.0) / e),
        ("pow2_10_3_over_pi2", 2.0 ** (10.0 / 3.0) / (pi * pi)),
        ("ln3", math.log(3.0)),
    ]
