"""Series module: Bernoulli table, the four trig expansions, coefficient laws.

Expected values come from two independent oracles: mpmath (bernfrac and
40-digit evaluation of the closed trig forms) and exact Fraction arithmetic
applied to the printed coefficient formulas. Everything frozen here was
computed outside the package.
"""

import functools
import math
import random
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import pytest

from ineqforge import kernels as K
from ineqforge import series as S
from ineqforge.errors import DomainError, PrecisionError

mp.mp.dps = 40

DIRECT = {
    "csc": lambda t: 1.0 / math.sin(t),
    "cot": lambda t: math.cos(t) / math.sin(t),
    "tan": math.tan,
    "csc2": lambda t: 1.0 / math.sin(t) ** 2,
}
RADIUS = {"csc": math.pi, "cot": math.pi, "tan": math.pi / 2, "csc2": math.pi}


# --- Bernoulli table ---------------------------------------------------------

@functools.cache
def mp_abs_bernoulli(n: int) -> Fraction:
    num, den = mp.bernfrac(2 * n)
    return abs(Fraction(int(num), int(den)))


def test_bernoulli_matches_mpmath_exactly():
    for n in range(1, S.N_MAX + 1):
        assert S.bernoulli_abs_exact(n) == mp_abs_bernoulli(n), f"n={n}"


def test_tangent_number_spot_values():
    assert S._tangent_numbers()[:7] == (1, 2, 16, 272, 7936, 353792, 22368256)


def test_bernoulli_top_of_table():
    num, den = mp.bernfrac(240)
    assert S.bernoulli_abs_exact(120) == abs(Fraction(int(num), int(den)))


def test_bernoulli_small_values():
    assert S.bernoulli_abs_exact(1) == Fraction(1, 6)
    assert S.bernoulli_abs_exact(2) == Fraction(1, 30)
    assert S.bernoulli_abs_exact(3) == Fraction(1, 42)
    assert S.bernoulli_abs_exact(4) == Fraction(1, 30)


@pytest.mark.parametrize("n", [0, -1, 121, 1.5, "2"])
def test_bernoulli_rejects_bad_n(n):
    with pytest.raises(DomainError):
        S.bernoulli_abs_exact(n)


# --- coefficient magnitudes of the four expansions ---------------------------

COEFF_SPOTS = {
    "csc": [Fraction(1, 6), Fraction(7, 360), Fraction(31, 15120)],
    "cot": [Fraction(1, 3), Fraction(1, 45), Fraction(2, 945)],
    "tan": [Fraction(1, 1), Fraction(1, 3), Fraction(2, 15)],
    "csc2": [Fraction(1, 3), Fraction(1, 15), Fraction(2, 189)],
}


@pytest.mark.parametrize("sid", S.SERIES_IDS)
def test_leading_coefficients(sid):
    for n, want in enumerate(COEFF_SPOTS[sid], start=1):
        assert S._coeff_exact(sid, n) == want, f"{sid} n={n}"


# Each float table against its printed law K(n)/(2n)! |B_2n|, with |B_2n| from
# mpmath: (table, first n, K).
TABLE_LAWS = {
    "csc": (lambda: S._coeff_table("csc"), 1, lambda n: 4**n - 2),
    "cot": (lambda: S._coeff_table("cot"), 1, lambda n: 4**n),
    "tan": (lambda: S._coeff_table("tan"), 1, lambda n: (4**n - 1) * 4**n),
    "csc2": (lambda: S._coeff_table("csc2"), 1, lambda n: (2 * n - 1) * 4**n),
    "tcm1": (S.tcm1_coefficients, 1, lambda n: 4**n),
    "g_numerator": (S.g_numerator_coefficients, 1, lambda n: Fraction(4**n * (2 * n + 1), 2 * n)),
    "u5": (S.u5_coefficients, 2, lambda n: 4**n * (4**n - 4)),
    "u4": (S.u4_coefficients, 2, lambda n: 4**n * (4**n - 2 * n - 2)),
}


def printed_law(law, n: int) -> Fraction:
    return law(n) / Fraction(math.factorial(2 * n)) * mp_abs_bernoulli(n)


@pytest.mark.parametrize("name", TABLE_LAWS)
def test_float_tables_round_their_exact_law_once(name):
    table, first, law = TABLE_LAWS[name]
    values = table()
    assert len(values) == S.N_MAX - first + 1
    for n, value in enumerate(values, start=first):
        assert value == float(printed_law(law, n)), f"{name} n={n}"


@pytest.mark.parametrize("sid", S.SERIES_IDS)
def test_exact_coefficients_follow_the_printed_law(sid):
    law = TABLE_LAWS[sid][2]
    for n in range(1, S.N_MAX + 1):
        assert S._coeff_exact(sid, n) == printed_law(law, n), f"{sid} n={n}"


def test_g1_coefficients_round_their_exact_law_once():
    # the g1 coefficients are the exact law itself, with no rounding
    for n in range(1, S.N_MAX + 1):
        assert S.m5_g1_coefficients(n) == printed_law(lambda k: 4 ** (k - 1) - k, n)
        assert S.m5_g1_taylor_coefficient(n) == printed_law(lambda k: 4**k - 4 * k, n)
        assert type(S.m5_g1_coefficients(n)) is type(S.m5_g1_taylor_coefficient(n)) is Fraction


def test_import_and_catalog_load_build_no_series_table(child_env):
    # the tables are built on first use, so their cost cannot move into
    # import or catalog set-up unseen
    code = (
        "import ineqforge\n"
        "from ineqforge import series\n"
        "ineqforge.load_catalog()\n"
        "print(series._tangent_numbers.cache_info().currsize,"
        " series._coeff_table.cache_info().currsize)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env,
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.split() == ["0", "0"]


def test_coeff_unknown_id():
    with pytest.raises(DomainError):
        S._coeff_exact("sec", 1)


# --- partial sums against direct evaluation ----------------------------------

@pytest.mark.parametrize("sid", S.SERIES_IDS)
def test_series_matches_direct_at_random_points(sid):
    # Interior of the radius: beyond ~0.85*radius the 120-term cap cannot
    # push the truncation below 1e-13, so sampling stops at 0.8.
    rng = random.Random(0x5E1)
    for _ in range(200):
        t = rng.uniform(1e-6, 0.8 * RADIUS[sid])
        value, terms = S.series_eval(sid, t)
        exact = DIRECT[sid](t)
        assert abs(value - exact) <= 1e-12 * abs(exact), f"{sid} t={t}"
        assert 1 <= terms <= S.N_MAX


def test_cot_spot_tight():
    value, _ = S.series_eval("cot", 1.0)
    exact = math.cos(1.0) / math.sin(1.0)
    assert abs(value - exact) < 1e-13 * abs(exact)


def test_csc2_spot_tight():
    value, _ = S.series_eval("csc2", 0.5)
    exact = 1.0 / math.sin(0.5) ** 2
    assert abs(value - exact) < 1e-13 * abs(exact)


def test_negative_argument_is_symmetric():
    vp, _ = S.series_eval("csc", 0.7)
    vn, _ = S.series_eval("csc", -0.7)
    assert vn == -vp  # odd function, term-by-term
    vp, _ = S.series_eval("csc2", 0.7)
    vn, _ = S.series_eval("csc2", -0.7)
    assert vn == vp  # even function


def test_tan_near_radius_converges_slowly():
    value, terms = S.series_eval("tan", 1.3)
    assert terms > 80  # slow convergence is visible in the term count
    assert terms <= S.N_MAX
    assert abs(value - math.tan(1.3)) < 1e-12 * abs(math.tan(1.3))


def test_tan_near_radius_default_tol_overflows_term_budget():
    with pytest.raises(PrecisionError):
        S.series_eval("tan", 1.4)


@pytest.mark.parametrize(
    "sid,t",
    [("csc", 0.0), ("csc", math.pi), ("tan", math.pi / 2), ("cot", -4.0)],
)
def test_series_domain_errors(sid, t):
    with pytest.raises(DomainError):
        S.series_eval(sid, t)


def test_series_rejects_bad_id():
    with pytest.raises(DomainError):
        S.series_eval("sec", 0.5)


# --- ML1/ML2 ratio-difference laws --------------------------------------------

def test_ml1_threshold_values():
    assert S.ml1_threshold(1) == Fraction(2, 5)
    # maximum sits at n = 1, tail decreases toward 1/4
    values = [S.ml1_threshold(n) for n in range(1, 201)]
    assert all(type(v) is Fraction for v in values)
    assert max(values) == values[0]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > Fraction(1, 4)


def test_ml2_threshold_values():
    assert S.ml2_threshold(1) == Fraction(1, 3)
    assert S.ml2_threshold(2) == S.ml2_threshold(1)  # twin maximum
    values = [S.ml2_threshold(n) for n in range(2, 201)]
    assert all(type(v) is Fraction for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_ml1_signs_exact_to_200():
    half = Fraction(1, 4)  # p = 1/2
    upper = Fraction(2, 5)  # p = sqrt(10)/5
    for n in range(1, 201):
        assert S.ml1_ratio_diff_exact(half, n) <= 0, f"n={n}"
        assert S.ml1_ratio_diff_exact(upper, n) >= 0, f"n={n}"
    # the upper case touches zero exactly at the threshold maximum
    assert S.ml1_ratio_diff_exact(upper, 1) == 0


def test_ml2_signs_exact_to_200():
    half = Fraction(1, 4)
    upper = Fraction(1, 3)  # p = 1/sqrt(3)
    for n in range(1, 201):
        assert S.ml2_ratio_diff_exact(half, n) <= 0, f"n={n}"
        assert S.ml2_ratio_diff_exact(upper, n) >= 0, f"n={n}"
    assert S.ml2_ratio_diff_exact(upper, 1) == 0
    assert S.ml2_ratio_diff_exact(upper, 2) == 0


def test_ml_signs_with_the_actual_doubles():
    # Each ratio kernel's parameter is a double p, so its law is evaluated
    # at the exact square of that double: fl(sqrt(10)/5)^2 lies 2.0e-17
    # above 2/5 and fl(1/sqrt(3))^2 9.0e-17 above 1/3, on the threshold's
    # safe side. The sign of every difference must match the direction the
    # kernel registry declares: <= 0 for increasing, >= 0 for decreasing.
    assert Fraction(K._SQRT10_5) ** 2 > Fraction(2, 5)
    assert Fraction(K._INV_SQRT3) ** 2 > Fraction(1, 3)
    cases = {
        "Fp(p=0.5)": (S.ml1_ratio_diff_exact, 0.5),
        "Fp(p=sqrt10/5)": (S.ml1_ratio_diff_exact, K._SQRT10_5),
        "Gp(p=0.5)": (S.ml2_ratio_diff_exact, 0.5),
        "Gp(p=1/sqrt3)": (S.ml2_ratio_diff_exact, K._INV_SQRT3),
    }
    for kid, (diff, p) in cases.items():
        monotone = K.KERNELS[kid].monotone
        assert monotone in ("increasing", "decreasing"), kid
        for n in range(1, 201):
            value = diff(Fraction(p) ** 2, n)
            assert (value <= 0 if monotone == "increasing" else value >= 0), f"{kid} n={n}"


@pytest.mark.parametrize("lemma", ["ml1", "ml2"], ids=lambda lemma: f"{lemma}_ratio_diff")
def test_ml_rejects_bad_arguments(lemma):
    fn = getattr(S, f"{lemma}_ratio_diff_exact")
    with pytest.raises(DomainError, match=r"p\^2 must lie in \(0, 1\]"):
        fn(Fraction(0), 1)
    with pytest.raises(DomainError, match=r"p\^2 must lie in \(0, 1\]"):
        fn(Fraction(9, 4), 1)
    with pytest.raises(DomainError, match="n must be a positive integer"):
        fn(Fraction(1, 4), 0)


@pytest.mark.parametrize("fn", [S.ml1_ratio_diff_exact, S.ml2_ratio_diff_exact])
@pytest.mark.parametrize("n", [0, -1, 1.5])
def test_ml_exact_rejects_bad_n(fn, n):
    with pytest.raises(DomainError, match="n must be a positive integer"):
        fn(Fraction(1, 4), n)


# --- c(n) ratio --------------------------------------------------------------

def test_m6_ratio_spot_values():
    assert S.m6_coeff_ratio_exact(2) == Fraction(6, 5)
    assert S.m6_coeff_ratio_exact(3) == Fraction(60, 56)
    assert float(S.m6_coeff_ratio_exact(2)) == 1.2
    # tail distance from 1 is (2n - 2)/(4^n - 2n - 2)
    assert S.m6_coeff_ratio_exact(20) - 1 == Fraction(38, 4**20 - 42)


def test_m6_ratio_strictly_decreasing_exact():
    prev = None
    for n in range(2, 101):
        c = S.m6_coeff_ratio_exact(n)
        assert c > 1
        if prev is not None:
            assert c < prev, f"n={n}"
        prev = c


def test_m6_ratio_double_flattens_but_exact_does_not():
    # (4^n - 4)/(4^n - 2n - 2) differs from 1 by ~(2n - 2)/4^n; by n = 40
    # that is far below double resolution while the rational form still
    # carries it. This is why the strict-decrease check uses Fractions.
    assert float(S.m6_coeff_ratio_exact(40)) == 1.0
    assert S.m6_coeff_ratio_exact(40) > 1


def test_m6_ratio_rejects_n_below_2():
    with pytest.raises(DomainError):
        S.m6_coeff_ratio_exact(1)
    with pytest.raises(DomainError):
        S.m6_coeff_ratio_exact(0)


# --- g1 coefficients ----------------------------------------------------------

def test_g1_displayed_spot_values():
    assert S.m5_g1_coefficients(1) == 0
    assert S.m5_g1_coefficients(2) == Fraction(1, 360)
    assert S.m5_g1_coefficients(3) == Fraction(13, 30240)


def test_g1_nonnegative_to_100():
    for n in range(1, 101):
        assert S.m5_g1_coefficients(n) >= 0
        assert S.m5_g1_taylor_coefficient(n) >= 0


def test_g1_taylor_is_four_times_displayed():
    # 4^n - 4n = 4 (4^(n-1) - n)
    for n in range(1, S.N_MAX + 1):
        assert S.m5_g1_taylor_coefficient(n) == 4 * S.m5_g1_coefficients(n)


def test_g1_taylor_coefficients_match_the_function():
    # Independent check of the corrected coefficient law: partial sums built
    # from exact rationals must reproduce -t^2 (1+cos t)/sin^2 t + t/sin t + 1
    # to far beyond double precision, and the displayed (un-scaled) law must
    # not. Eight evaluation points per the resolved open question.
    def direct(t):
        t = mp.mpf(t)
        return -t * t * (1 + mp.cos(t)) / mp.sin(t) ** 2 + t / mp.sin(t) + 1

    for i in range(8):
        t = mp.mpf("0.02") * (i + 1)
        total = mp.mpf(0)
        displayed = mp.mpf(0)
        for n in range(1, 26):
            b = S.bernoulli_abs_exact(n)
            c = Fraction(4**n - 4 * n, math.factorial(2 * n)) * b
            total += mp.mpf(c.numerator) / mp.mpf(c.denominator) * t ** (2 * n)
            d = Fraction(4 ** (n - 1) - n, math.factorial(2 * n)) * b
            displayed += mp.mpf(d.numerator) / mp.mpf(d.denominator) * t ** (2 * n)
        want = direct(t)
        assert abs(total - want) < mp.mpf("1e-30"), f"t={t}"
        assert abs(displayed - want) > abs(want) / 2  # off by the factor 4


def test_g1_rejects_bad_n():
    with pytest.raises(DomainError):
        S.m5_g1_coefficients(0)
    with pytest.raises(DomainError):
        S.m5_g1_taylor_coefficient(-3)
