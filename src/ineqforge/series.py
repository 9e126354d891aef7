"""Bernoulli numbers and the even-order trigonometric series built on them.

The four classical expansions handled here (t in radians):

    1/sin t   = 1/t  + sum_{n>=1} (2^(2n)-2)/(2n)!    |B_2n| t^(2n-1),  |t| < pi
    cot t     = 1/t  - sum_{n>=1} 2^(2n)/(2n)!        |B_2n| t^(2n-1),  |t| < pi
    tan t     =        sum_{n>=1} (4^n-1) 4^n/(2n)!   |B_2n| t^(2n-1),  |t| < pi/2
    1/sin^2 t = 1/t^2 + sum_{n>=1} (2n-1) 4^n/(2n)!   |B_2n| t^(2n-2),  |t| < pi

plus the coefficient-ratio sequences that drive the monotone-ratio lemmas
and the composite series the kernel evaluators need for small arguments.

Each coefficient is c_n = K(n)/(2n)! |B_2n| for a rational law K(n). With
the tangent numbers T_n (tan t = sum T_n t^(2n-1)/(2n-1)!), |B_2n| is
2n T_n / (4^n (4^n-1)), so c_n = num(n) T_n / ((4^n-1) (2n-1)! den(n)) with
num(n)/den(n) = K(n)/4^n. Each float entry is one correctly rounded division
of two integers, equal to float() of the exact rational, and no (2n)! or 4^n
ever lands in a double. T_1 .. T_N_MAX come from Brent and Harvey's in-place
integer recurrence (arXiv:1108.0286), built once on first use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, PrecisionError

# Hard cap on series length. 60 terms cover every tolerance away from the
# domain edge, but the tan series near pi/2 shrinks only like (2t/pi)^2 per
# term and needs ~100 terms at t = 1.4, so the cap sits above that.
N_MAX = 120

SERIES_IDS = ("csc", "cot", "tan", "csc2")

_RADIUS = {"csc": math.pi, "cot": math.pi, "tan": math.pi / 2, "csc2": math.pi}

# (num(n), den(n)) of each coefficient law, with num(n)/den(n) = K(n)/4^n.
_LAWS = {
    "csc": lambda n: (4**n - 2, 4**n),
    "cot": lambda n: (1, 1),
    "tan": lambda n: (4**n - 1, 1),
    "csc2": lambda n: (2 * n - 1, 1),
    "g_numerator": lambda n: (2 * n + 1, 2 * n),
    "u5": lambda n: (4**n - 4, 1),
    "u4": lambda n: (4**n - 2 * n - 2, 1),
    "g1": lambda n: (4 ** (n - 1) - n, 4**n),
    "g1_taylor": lambda n: (4**n - 4 * n, 4**n),
}


@lru_cache(maxsize=None)
def _tangent_numbers() -> tuple[int, ...]:
    """T_1 .. T_N_MAX by Brent and Harvey's algorithm TangentNumbers."""
    t = [0, 1] + [0] * (N_MAX - 1)
    for k in range(2, N_MAX + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, N_MAX + 1):
        for j in range(k, N_MAX + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(t[1:])


def _tangent(n: int) -> int:
    if not isinstance(n, int) or n < 1 or n > N_MAX:
        raise DomainError(f"n must be an integer in [1, {N_MAX}], got {n!r}")
    return _tangent_numbers()[n - 1]


def bernoulli_abs_exact(n: int) -> Fraction:
    """|B_{2n}| as an exact rational, 1 <= n <= N_MAX."""
    return Fraction(2 * n * _tangent(n), 4**n * (4**n - 1))


def bernoulli_abs(n: int) -> float:
    """|B_{2n}| exported as a double."""
    return float(bernoulli_abs_exact(n))


def _law_terms(law: str, n: int) -> tuple[int, int]:
    """Numerator and denominator of c_n under one law, not reduced."""
    tangent = _tangent(n)  # checks n before a law evaluates it
    num, den = _LAWS[law](n)
    return num * tangent, (4**n - 1) * math.factorial(2 * n - 1) * den


def _coeff_exact(series_id: str, n: int) -> Fraction:
    """Exact magnitude of the n-th coefficient of one of the four series."""
    if series_id not in SERIES_IDS:
        raise DomainError(f"unknown series id {series_id!r}; expected one of {SERIES_IDS}")
    return Fraction(*_law_terms(series_id, n))


@lru_cache(maxsize=None)
def _coeff_table(law: str, first: int = 1) -> tuple[float, ...]:
    """c_first .. c_N_MAX; CPython rounds int / int correctly, as float(Fraction) does."""
    terms = (_law_terms(law, n) for n in range(first, N_MAX + 1))
    return tuple(num / den for num, den in terms)


def series_eval(series_id: str, t: float, tol: float = 1e-14) -> tuple[float, int]:
    """Partial sum of one Lemma-C series at t.

    Truncates once the next term drops below tol * |partial sum| and returns
    (value, terms_used). Raises DomainError outside the convergence radius
    and PrecisionError if N_MAX terms do not reach the tolerance.
    """
    if series_id not in SERIES_IDS:
        raise DomainError(f"unknown series id {series_id!r}; expected one of {SERIES_IDS}")
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    radius = _RADIUS[series_id]
    if t == 0.0 or not abs(t) < radius:
        raise DomainError(f"series {series_id!r} needs 0 < |t| < {radius:.6f}, got t = {t!r}")

    coeffs = _coeff_table(series_id)
    t2 = t * t
    if series_id == "csc":
        acc, power, sign = 1.0 / t, t, 1.0
    elif series_id == "cot":
        acc, power, sign = 1.0 / t, t, -1.0
    elif series_id == "tan":
        acc, power, sign = 0.0, t, 1.0
    else:
        acc, power, sign = 1.0 / t2, 1.0, 1.0

    for n in range(1, N_MAX + 1):
        term = coeffs[n - 1] * power
        acc += sign * term
        if abs(term) < tol * abs(acc):
            return acc, n
        power *= t2
    raise PrecisionError(
        f"series {series_id!r} did not reach tol={tol:g} at t={t!r} within {N_MAX} terms"
    )


# ---------------------------------------------------------------------------
# Coefficient-ratio laws behind the monotone-ratio arguments.
# ---------------------------------------------------------------------------

def _lemma_terms(lemma: str, n: int) -> tuple[Fraction, Fraction]:
    """The exact prefactor and threshold of an ml1 or ml2 ratio difference."""
    q = 4 ** (n + 1) - 1
    if lemma == "ml1":
        return Fraction(q, 2 * n + 2), Fraction((n + 1) * (4**n - 1), n * q)
    return Fraction(q, 2 * n + 3), Fraction((2 * n + 3) * (4**n - 1), (2 * n + 1) * q)


def ml1_threshold(n: int) -> float:
    """(n+1)/n * (4^n - 1)/(4^(n+1) - 1); maximum 2/5 at n = 1, limit 1/4."""
    if not isinstance(n, int) or n < 1:
        raise DomainError("ml1_threshold: n must be a positive integer")
    return float(_lemma_terms("ml1", n)[1])


def ml1_ratio_diff(p: float, n: int) -> float:
    """Consecutive difference of the ln-cos-to-numerator coefficient ratios.

    Closed form (4^(n+1)-1)/(2n+2) * p^(2n) * (p^2 - ml1_threshold(n)).
    Nonpositive for every n when p^2 <= 1/4, nonnegative when p^2 >= 2/5;
    those two signs are exactly what makes the ratio kernel monotone on the
    two parameter ranges.
    """
    if not 0.0 < p <= 1.0:
        raise DomainError("ml1_ratio_diff: p must lie in (0, 1]")
    if not isinstance(n, int) or n < 1:
        raise DomainError("ml1_ratio_diff: n must be a positive integer")
    prefactor, threshold = _lemma_terms("ml1", n)
    return float(prefactor) * p ** (2 * n) * (p * p - float(threshold))


def ml1_ratio_diff_exact(p_squared: Fraction, n: int) -> Fraction:
    """Exact-signed variant of ml1_ratio_diff taking p^2 as a rational."""
    prefactor, threshold = _lemma_terms("ml1", n)
    return prefactor * p_squared**n * (p_squared - threshold)


def ml2_threshold(n: int) -> float:
    """(2n+3)/(2n+1) * (4^n - 1)/(4^(n+1) - 1); maximum 1/3 at n = 1 and 2."""
    if not isinstance(n, int) or n < 1:
        raise DomainError("ml2_threshold: n must be a positive integer")
    return float(_lemma_terms("ml2", n)[1])


def ml2_ratio_diff(p: float, n: int) -> float:
    """Same construction as ml1_ratio_diff for the log-sinc-augmented kernel.

    Nonpositive for p^2 <= 1/4, nonnegative for p^2 >= 1/3.
    """
    if not 0.0 < p <= 1.0:
        raise DomainError("ml2_ratio_diff: p must lie in (0, 1]")
    if not isinstance(n, int) or n < 1:
        raise DomainError("ml2_ratio_diff: n must be a positive integer")
    prefactor, threshold = _lemma_terms("ml2", n)
    return float(prefactor) * p ** (2 * n) * (p * p - float(threshold))


def ml2_ratio_diff_exact(p_squared: Fraction, n: int) -> Fraction:
    prefactor, threshold = _lemma_terms("ml2", n)
    return prefactor * p_squared**n * (p_squared - threshold)


def m6_coeff_ratio(n: int) -> float:
    """c(n) = (4^n - 4)/(4^n - 2n - 2) for n >= 2; c(2) = 6/5, decreasing to 1."""
    return float(m6_coeff_ratio_exact(n))


def m6_coeff_ratio_exact(n: int) -> Fraction:
    """Exact c(n); doubles flatten the tail to 1.0 near n = 30, rationals don't."""
    if not isinstance(n, int) or n < 2:
        raise DomainError("m6_coeff_ratio: n must be an integer >= 2 (numerator vanishes at n = 1)")
    return Fraction(4**n - 4, 4**n - 2 * n - 2)


def m5_g1_coefficients(n: int) -> float:
    """Displayed coefficient (4^(n-1) - n)/(2n)! * |B_2n|; zero only at n = 1."""
    num, den = _law_terms("g1", n)
    return num / den


def m5_g1_taylor_coefficient(n: int) -> float:
    """Actual Taylor coefficient of t^(2n) in -t^2(1+cos t)/sin^2 t + t/sin t + 1.

    Equals 4 * m5_g1_coefficients(n), i.e. (4^n - 4n)/(2n)! * |B_2n|; the
    source display dropped the factor 4 when combining the csc/csc2/cot
    pieces. Verified by Taylor matching (see tests). Sign behaviour is
    identical either way.
    """
    num, den = _law_terms("g1_taylor", n)
    return num / den


# ---------------------------------------------------------------------------
# Composite coefficient tables consumed by the kernel small-argument paths.
# All magnitudes; callers apply signs.
# ---------------------------------------------------------------------------

def tcm1_coefficients() -> tuple[float, ...]:
    """t*cot(t) - 1 = -sum c_n t^(2n) with c_n = 4^n/(2n)! |B_2n|."""
    return _coeff_table("cot")


def g_numerator_coefficients() -> tuple[float, ...]:
    """ln(sin t / t) + t*cot(t) - 1 = -sum c_n t^(2n), all same sign.

    c_n = 4^n (2n+1)/(2n (2n)!) |B_2n|; the ln-sinc part contributes the
    1/(2n) and the cotangent part the rest, so the two pieces never cancel.
    """
    return _coeff_table("g_numerator")


def u5_coefficients() -> tuple[float, ...]:
    """3(t cot t - 1) + t tan t = sum_{n>=2} c_n t^(2n), c_n = 4^n(4^n-4)/(2n)! |B_2n|.

    Table starts at n = 2 (the n = 1 coefficient vanishes identically).
    """
    return _coeff_table("u5", 2)


def u4_coefficients() -> tuple[float, ...]:
    """2 t cot t - t^2/sin^2 t + t tan t - 1 = sum_{n>=2} c_n t^(2n).

    c_n = 4^n (4^n - 2n - 2)/(2n)! |B_2n|, n >= 2; u5/u4 coefficient ratio
    is exactly m6_coeff_ratio(n).
    """
    return _coeff_table("u4", 2)
