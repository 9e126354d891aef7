"""Bivariate means: frozen values, orderings, properties, substitutions.

Frozen values computed with mpmath at 40 digits from the defining formulas.
Property sweeps use seeded RNG so failures reproduce.
"""

import json
import math
import random
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ineqforge import means as M
from ineqforge.errors import DomainError

# mpmath oracle values for the pair (3, 1)
FROZEN_31 = {
    "A": 2.0,
    "G": 1.732050807568877293527,
    "Q": 2.236067977499789696409,
    "L": 1.820478453253674787228,
    "I": 1.911557649506951877934,
    "P": 1.909859317102744029227,
    "T": 2.156810432291609984641,
    "X": 1.822204191756224494831,
    "B": 2.07926439355814566737,
    "J": 1.910269657200417115903,
    "K": 2.157093568683183158999,
}


def test_frozen_bundle_values():
    bundle = M.mean_bundle(3.0, 1.0)
    assert set(bundle) == set(FROZEN_31)
    for kind, want in FROZEN_31.items():
        assert abs(bundle[kind] - want) <= 1e-13 * want, kind


def test_frozen_values_skewed_pair():
    bundle = M.mean_bundle(7.25, 0.02)
    assert abs(bundle["L"] - 1.226874253032060970424) <= 1e-13 * 1.23
    assert abs(bundle["I"] - 2.710960656872408716825) <= 1e-13 * 2.71


def test_evaluate_mean_matches_bundle():
    bundle = M.mean_bundle(3.0, 1.0)
    for kind in bundle:
        assert M.evaluate_mean(kind, (3.0, 1.0)) == bundle[kind]


def test_power_mean_frozen_values():
    assert abs(M.weighted_power_mean(1.0 / 3.0, 0.7, 2.0, 5.0)
               - 2.714340122161386866532) < 1e-14 * 2.72
    assert abs(M.weighted_power_mean(0.0, 0.25, 2.0, 5.0)
               - 3.976353643835253325869) < 1e-14 * 3.98
    assert M.weighted_power_mean(2.0, 2.0 / 3.0, 1.0, 2.0) == pytest.approx(
        math.sqrt(2.0), rel=1e-15)
    assert M.weighted_power_mean(0.0, 2.0 / 3.0, 8.0, 1.0) == pytest.approx(
        4.0, rel=1e-15)
    assert abs(M.evaluate_mean("power", (3.0, 1.0), r=M.POWER_DISPLAY_R)
               - 1.911167758267258566056) < 1e-14 * 1.91


def test_power_mean_r_near_zero_is_continuous():
    # Around r = 0 the mean is geometric * (1 + r*Var(log)/2 + O(r^2)). The
    # expansion branch below |r| = 1e-8 is well conditioned and must hit the
    # mpmath value exactly; the generic formula just above the switch
    # amplifies one ulp of the inner sum by 1/r, hence the loose tolerance
    # there (that amplification is why the branch exists).
    geometric = M.weighted_power_mean(0.0, 0.4, 2.0, 3.0)
    below = M.weighted_power_mean(0.99e-8, 0.4, 2.0, 3.0)
    above = M.weighted_power_mean(1.01e-8, 0.4, 2.0, 3.0)
    assert abs(below - 2.5508490017497867628) < 1e-13 * geometric
    assert abs(above - 2.550849001759851512234) < 1e-7 * geometric
    assert geometric < below  # increasing in r for distinct arguments
    tiny = M.weighted_power_mean(1e-9, 0.4, 2.0, 3.0)
    assert abs(tiny - geometric) < 1e-10 * geometric


def test_classical_orderings():
    # G < L < P < I < A < T < Q strictly for distinct arguments, and the
    # exponential-type means interleave as X in (G, P), B in (A, T)-range
    rng = random.Random(31337)
    for _ in range(300):
        a = rng.uniform(0.01, 50.0)
        b = rng.uniform(0.01, 50.0)
        if a == b:
            continue
        v = M.mean_bundle(a, b)
        assert v["G"] < v["L"] < v["P"] < v["I"] < v["A"] < v["T"] < v["Q"]
        assert v["G"] < v["X"] < (v["A"] + v["G"]) / 2.0 < v["P"]
        assert v["A"] < v["B"] < (v["Q"] + v["A"]) / 2.0 < v["T"]
        assert v["G"] < v["J"] < v["A"]
        assert v["A"] < v["K"] < v["Q"]


def test_properties_random_sweep():
    rng = random.Random(90210)
    kinds = list(M.MEAN_KINDS)
    for _ in range(2000):
        a = rng.uniform(1e-3, 1e3)
        b = rng.uniform(1e-3, 1e3)
        lam = rng.uniform(0.1, 10.0)
        for kind in kinds:
            r = M.POWER_DISPLAY_R if kind == "power" else None
            v = M.evaluate_mean(kind, (a, b), r=r)
            lo, hi = min(a, b), max(a, b)
            assert lo <= v <= hi, (kind, a, b)  # internality
            sym = M.evaluate_mean(kind, (b, a), r=r)
            assert abs(sym - v) <= 1e-13 * v, (kind, a, b)
            scaled = M.evaluate_mean(kind, (lam * a, lam * b), r=r)
            assert abs(scaled - lam * v) <= 1e-12 * scaled, (kind, a, b)


def test_degenerate_pair_returns_common_value():
    bundle = M.mean_bundle(2.5, 2.5)
    assert all(v == 2.5 for v in bundle.values())
    assert M.evaluate_mean("power", (2.5, 2.5), r=0.5) == pytest.approx(2.5, rel=1e-15)


def test_near_degenerate_pairs_stay_continuous():
    # u = (a-b)/(a+b) around 1e-7 crosses the quadratic fallback. Pairwise
    # separations shrink like u^2 (u^4 for I vs P), so the ordering claims
    # weaken as the doubles run out of resolution.
    for eps in (1e-6, 1e-7, 1e-8):
        a, b = 1.0 + eps, 1.0
        v = M.mean_bundle(a, b)
        mid = (a + b) / 2.0
        for kind, value in v.items():
            assert abs(value - mid) < eps, kind
        order = ["G", "L", "P", "I", "A", "T", "Q"]
        assert all(v[k1] <= v[k2] for k1, k2 in zip(order, order[1:])), eps
    # at eps = 1e-6 everything but I-vs-P still separates strictly
    v = M.mean_bundle(1.0 + 1e-6, 1.0)
    assert v["G"] < v["L"] < v["P"] <= v["I"] < v["A"] < v["T"] < v["Q"]


def test_reduce_homogeneous_identity():
    rng = random.Random(777)
    for _ in range(200):
        x = rng.uniform(0.05, 20.0)
        y = rng.uniform(0.05, 20.0)
        for kind in M.MEAN_KINDS:
            r = M.POWER_DISPLAY_R if kind == "power" else None
            t, lhs, rhs = M.reduce_homogeneous(kind, (x, y), r=r)
            assert t == pytest.approx(0.5 * (math.log(x) - math.log(y)), rel=1e-12)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs), (kind, x, y)


def test_substitution_arcsin_identities():
    t, residuals = M.substitution_arcsin((1.0, 3.0))
    assert t == pytest.approx(math.pi / 6.0, rel=1e-14)  # arcsin(1/2)
    assert max(abs(r) for r in residuals) < 1e-12


def test_substitution_arctan_identities():
    t, residuals = M.substitution_arctan((1.0, 3.0))
    assert t == pytest.approx(0.4636476090008061162143, rel=1e-14)
    assert max(abs(r) for r in residuals) < 1e-12


@pytest.mark.parametrize("log_b", [k / 4 for k in range(4, 61)])
def test_substitution_arcsin_holds_to_an_ulp_at_far_ratios(log_b):
    # t is taken as P takes it, atan2(u, G/A); asin((b-a)/(a+b)) was
    # 1e5 ulps off at b = 1e12, where u rounds near 1
    b = 10.0 ** log_b
    t, residuals = M.substitution_arcsin((1.0, b))
    with mp.workdps(40):
        want = mp.asin((mp.mpf(b) - 1) / (mp.mpf(b) + 1))
        assert abs(mp.mpf(t) - want) <= math.ulp(t)
    assert max(residuals) <= 2.0 * sys.float_info.epsilon  # 4.4e-16


def test_substitution_random_pairs():
    rng = random.Random(424242)
    for _ in range(500):
        a = rng.uniform(0.01, 10.0)
        b = a * rng.uniform(1.0 + 1e-6, 60.0)
        _, res1 = M.substitution_arcsin((a, b))
        _, res2 = M.substitution_arctan((a, b))
        assert max(abs(r) for r in res1) < 1e-12
        assert max(abs(r) for r in res2) < 1e-12


def test_power_mean_order_nan_is_a_domain_error_and_inf_gives_the_limits():
    with pytest.raises(DomainError, match="order r must be a number, got nan"):
        M.weighted_power_mean(math.nan, 0.5, 1.0, 2.0)
    with pytest.raises(DomainError, match="order r must be a number, got nan"):
        M.evaluate_mean("power", (1.0, 2.0), r=math.nan)
    # M(+inf) = max and M(-inf) = min, for floats and arrays
    assert M.weighted_power_mean(math.inf, 0.3, 5.0, 2.0) == 5.0
    assert M.weighted_power_mean(-math.inf, 0.3, 5.0, 2.0) == 2.0
    assert M.evaluate_mean("power", (1.0, 2.0), r=math.inf) == 2.0
    assert M.evaluate_mean("power", (1.0, 2.0), r=-math.inf) == 1.0
    xs, ys = np.array([1.0, 3.0]), np.array([2.0, 1.0])
    assert M.weighted_power_mean(math.inf, 0.5, xs, ys).tolist() == [2.0, 3.0]
    assert M.weighted_power_mean(-math.inf, 0.5, xs, ys).tolist() == [1.0, 1.0]


_EQUAL_ARGS = [5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 0.3, 1.0, 3.0, 1e200, 1.7e308]


@pytest.mark.parametrize("r", [0.0, -0.0, 1e-9, -1e-9, 2.0, -2.0, 1e300, -1e300,
                               math.inf, -math.inf])
def test_power_mean_of_an_equal_pair_is_that_argument(r):
    # the mean is clamped to [min(x, y), max(x, y)], so an equal pair needs
    # no path of its own
    for x in _EQUAL_ARGS:
        got = M.weighted_power_mean(r, 0.3, x, x)
        assert type(got) is float and got.hex() == x.hex(), x
    xs = np.array(_EQUAL_ARGS)
    got = M.weighted_power_mean(r, 0.3, xs, xs.copy())
    assert got.dtype == np.float64 and got.tobytes() == xs.tobytes() and got is not xs
    # a float and an array broadcast to an array, equal or not
    assert M.weighted_power_mean(r, 0.3, 3.0, np.full(2, 3.0)).tolist() == [3.0, 3.0]


def test_power_mean_at_r_0_is_the_weighted_geometric_mean():
    # the small-r expansion at r = 0 is exp(w log x + (1-w) log y), clamped,
    # bit for bit
    rng = np.random.default_rng(2301)
    xs, ys = 10.0 ** rng.uniform(-300, 300, (2, 200))
    ws = rng.uniform(0.01, 0.99, 200)
    for r in (0.0, -0.0):
        for w, x, y in zip(ws.tolist(), xs.tolist(), ys.tolist()):
            want = math.exp(w * math.log(x) + (1.0 - w) * math.log(y))
            assert M.weighted_power_mean(r, w, x, y) == min(max(want, min(x, y)), max(x, y))
        for w in ws[:5].tolist():
            want = np.exp(w * np.log(xs) + (1.0 - w) * np.log(ys))
            want = np.clip(want, np.minimum(xs, ys), np.maximum(xs, ys))
            assert M.weighted_power_mean(r, w, xs, ys).tobytes() == want.tobytes()


def test_domain_errors():
    with pytest.raises(DomainError):
        M.mean_bundle(0.0, 1.0)
    with pytest.raises(DomainError):
        M.mean_bundle(1.0, -2.0)
    with pytest.raises(DomainError):
        M.weighted_power_mean(1.0, 0.0, 1.0, 2.0)  # weight must be interior
    with pytest.raises(DomainError):
        M.weighted_power_mean(1.0, 1.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        M.evaluate_mean("power", (1.0, 2.0))  # r is required
    with pytest.raises(DomainError) as err:
        M.evaluate_mean("H", (1.0, 2.0))
    assert "power" in str(err.value)  # unknown kind lists the known ones
    with pytest.raises(DomainError, match="unknown mean kinds \\['power'\\]"):
        M.mean_bundle(1.0, 2.0, ("A", "power"))
    with pytest.raises(DomainError):
        M.substitution_arcsin((3.0, 1.0))  # needs b > a
    with pytest.raises(DomainError):
        M.substitution_arctan((2.0, 2.0))


def test_large_pair_bundle_returns_promptly(child_env):
    # x + y overflows here; the old u = (x-y)/(x+y) became 0 and the atanh
    # series never ended. A subprocess keeps a regression from hanging the run.
    code = (
        "import math\n"
        "from ineqforge.means import mean_bundle\n"
        "b = mean_bundle(1.7e308, 1.6e308)\n"
        "print(all(math.isfinite(b[k]) for k in 'AGLIPTX'), b['A'])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env,
        capture_output=True, text=True, timeout=60, check=True,
    )
    finite, a = out.stdout.split()
    assert finite == "True"
    assert float(a) == 0.5 * 1.7e308 + 0.5 * 1.6e308


def test_large_pair_geometric_mean_does_not_overflow():
    bundle = M.mean_bundle(1e308, 1e300)
    assert bundle["G"] == pytest.approx(1e304, rel=1e-15)
    assert M.evaluate_mean("G", (1e308, 1e300)) == bundle["G"]
    assert M.evaluate_mean("A", (1e308, 1e300)) == bundle["A"] == 0.5e308 + 0.5e300
    for kind in ("I", "X", "J"):
        assert math.isfinite(bundle[kind]), kind
        assert bundle["G"] < bundle[kind] < bundle["A"], kind


def test_halved_forms_match_the_plain_ones_for_unit_y():
    # A from halves, u from halves and G as sqrt(x)*sqrt(y) change no bit
    # at the pairs (r, 1) the verifier evaluates
    rng = random.Random(7)
    for _ in range(2000):
        r = rng.uniform(1.0, 1e4)
        bundle = M.mean_bundle(r, 1.0)
        assert bundle["A"] == 0.5 * (r + 1.0)
        assert bundle["G"] == math.sqrt(r * 1.0)


_NORMAL = st.floats(min_value=1e-300, max_value=1.7e308)


@settings(max_examples=150, deadline=None)
@given(_NORMAL, _NORMAL)
def test_means_finite_internal_and_symmetric_across_the_float_range(x, y):
    lo, hi = min(x, y), max(x, y)
    for kind in M.MEAN_KINDS:
        for r in (-2.0, M.POWER_DISPLAY_R, 3.0) if kind == "power" else (None,):
            v = M.evaluate_mean(kind, (x, y), r=r)
            assert math.isfinite(v) and lo <= v <= hi, (kind, r, v)
            assert M.evaluate_mean(kind, (y, x), r=r) == v, (kind, r)
    # the array path: one pass, no numpy warning, the same bounds
    bundle = M.mean_bundle(np.array([x, y]), np.array([y, x]))
    for kind, values in bundle.items():
        assert np.all(np.isfinite(values)) and np.all((lo <= values) & (values <= hi)), kind
        assert values[0] == values[1], kind


_BUNDLE_KINDS = tuple(M.mean_bundle(3.0, 1.0))
_POSITIVE = st.floats(min_value=5e-324, max_value=1.7e308)
# |u| is about |d|/2, so these pairs straddle the near-diagonal switch at 1e-7
_NEAR_DIAGONAL = st.builds(
    lambda x, d: (x, x * (1.0 + d)), st.floats(1e-300, 1e300), st.floats(-1e-5, 1e-5)
)


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.tuples(_POSITIVE, _POSITIVE) | _NEAR_DIAGONAL,
       st.lists(st.sampled_from(_BUNDLE_KINDS), min_size=1, unique=True))
@example((1.0 + 1e-9, 1.0), ["P", "K"])
@example((1e17, 1.0), ["I", "J"])
@example((2.0 ** 60, 3.0), ["L", "T"])
@example((1e-310, 2.0), ["P", "I", "B"])
@example((5e-324, 2.5e-323), ["J", "L"])
@example((3e-320, 1e-310), ["K", "G"])
def test_a_subset_of_kinds_keeps_the_bits_of_the_full_bundle(pair, kinds):
    # a mean chain asks only for the means it reads; each must be the value
    # the full bundle gives, on floats and on arrays mixing near-diagonal,
    # far and subnormal points
    x, y = pair
    full = M.mean_bundle(x, y)
    part = M.mean_bundle(x, y, kinds)
    assert list(part) == kinds
    for kind in kinds:
        assert _bits(part[kind]) == _bits(full[kind]), kind
        assert _bits(M.evaluate_mean(kind, (x, y))) == _bits(full[kind]), kind
    xs = np.array([x, y, 3.0, 1.0 + 1e-9, 1.0 + 1.9e-7, 1.0 + 2.1e-7, 1e-310, 5e-324])
    ys = np.array([y, x, 1.0, 1.0, 1.0, 1.0, 2.0, 2.5e-323])
    full = M.mean_bundle(xs, ys)
    part = M.mean_bundle(xs, ys, kinds)
    for kind in kinds:
        assert _bits(part[kind]) == _bits(full[kind]), kind


def test_extreme_pairs_stay_finite():
    top = M.mean_bundle(1.7e308, 1.6e308)
    assert all(1.6e308 <= v <= 1.7e308 for v in top.values()), top
    # x*y overflows at the first pair and is subnormal at the other two, and
    # x**2 is subnormal at the last
    for pair in ((1e308, 1e300), (1e-160, 1e-160), (3e-160, 1e-160)):
        for kind in M.MEAN_KINDS:
            r = 2.0 if kind == "power" else None
            _, lhs, rhs = M.reduce_homogeneous(kind, pair, r)
            # e^t carries t's rounding (about 2e-14 here)
            assert math.isfinite(rhs) and rhs == pytest.approx(lhs, rel=1e-13, abs=0.0), (pair, kind)
    assert M.evaluate_mean("power", (1e308, 1e300), r=2.0) == pytest.approx(
        math.sqrt(0.5) * 1e308, rel=1e-15)
    assert M.weighted_power_mean(-2.0, 0.5, 1e-300, 1e-200) == pytest.approx(
        math.sqrt(2.0) * 1e-300, rel=1e-15, abs=0.0)
    # past a ratio of 2**53, u = (x-y)/(x+y) rounds to 1
    assert M.mean_bundle(1e17, 1.0)["L"] == pytest.approx((1e17 - 1.0) / math.log(1e17), rel=1e-15)


def test_overflow_guards_keep_in_range_values_bit_identical():
    # Q, J, K from halves keep the bits of the plain forms, and the power
    # mean is rescaled only where its sum of powers is not a normal double
    rng = random.Random(11)
    for _ in range(2000):
        x = 10 ** rng.uniform(-90, 90)
        y = x * 10 ** rng.uniform(-12, 12)
        bundle = M.mean_bundle(x, y)
        assert bundle["Q"] == math.hypot(x, y) / math.sqrt(2.0)
        a, g, q, p, t = (bundle[k] for k in "AGQPT")
        assert bundle["J"] == a * math.exp((a + g) / p - 2.0)
        assert bundle["K"] == q * math.exp((q + a) / t - 2.0)
        assert M.weighted_power_mean(3.0, 0.5, x, y) == (0.5 * x ** 3 + 0.5 * y ** 3) ** (1 / 3)
        assert M.weighted_power_mean(-2.0, 0.5, x, y) == (0.5 * x ** -2 + 0.5 * y ** -2) ** -0.5
    # so does I past a ratio of 2**53, where exp(h) does not overflow
    for _ in range(2000):
        y = 10 ** rng.uniform(-300, 100)
        x = min(y * 10 ** rng.uniform(17, 300), 1e308)
        h = 0.5 * abs(math.log(x) - math.log(y)) - 1.0
        assert M.mean_bundle(x, y)["I"] == math.sqrt(x) * math.sqrt(y) * math.exp(h)


def _means_mp(x, y) -> dict:
    """The eleven bundle means and power(r=2/3) of x != y from their
    definitions, at 40 digits."""
    with mp.workdps(40):
        x, y = mp.mpf(x), mp.mpf(y)
        a, g, q = (x + y) / 2, mp.sqrt(x * y), mp.sqrt((x * x + y * y) / 2)
        u = (x - y) / (x + y)
        p, t = a * u / mp.asin(u), a * u / mp.atan(u)
        exact = {
            "A": a, "G": g, "Q": q,
            "L": (x - y) / (mp.log(x) - mp.log(y)),
            "I": mp.exp((x * mp.log(x) - y * mp.log(y)) / (x - y) - 1),
            "P": p, "T": t,
            "X": a * mp.exp(g / p - 1), "B": q * mp.exp(a / t - 1),
            "J": a * mp.exp((a + g) / p - 2), "K": q * mp.exp((q + a) / t - 2),
            "power(r=2/3)": ((x ** (mp.mpf(2) / 3) + y ** (mp.mpf(2) / 3)) / 2) ** (mp.mpf(3) / 2),
        }
        return {kind: float(v) for kind, v in exact.items()}


def test_mpmath_oracle_matches_the_frozen_values():
    want = _means_mp(3.0, 1.0)
    for kind, value in FROZEN_31.items():
        assert want[kind] == pytest.approx(value, rel=1e-15), kind


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 300.0) | st.floats(0.0, 20.0), st.floats(-150.0, 4.0))
@example(math.log10(5e15), 0.0)
@example(math.log10(1.435e16), 0.0)
def test_logarithmic_and_identric_means_match_mpmath_at_every_ratio(log_ratio, log_y):
    # Near a ratio of 1e16 u = (x-y)/(x+y) rounds near 1, and atanh(u) lost
    # up to a third of I. Past a ratio of 2**54 log x - log y cancels up to
    # (|log x| + |log y|)/log(2**54) of its digits, and exp(h) carries h's
    # rounding times h <= ln(1e300)/2.
    y = 10.0 ** log_y
    x = y * 10.0 ** log_ratio
    if x == y:
        return
    want = _means_mp(x, y)
    floats = M.mean_bundle(x, y)
    arrays = M.mean_bundle(np.array([x, y]), np.array([y, x]))
    for kind, rel in (("L", 5e-15), ("I", 2e-13)):
        for got in (floats[kind], *arrays[kind]):
            assert abs(got - want[kind]) <= rel * want[kind], (kind, x, y, got, want[kind])


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 300.0) | st.floats(0.0, 20.0), st.floats(-150.0, 4.0))
@example(12.0, 0.0)
@example(math.log10(5e15), 0.0)
def test_arcsine_means_match_mpmath_at_every_ratio(log_ratio, log_y):
    # asin(u) is ill-conditioned near |u| = 1: P took it there and was
    # 1.4e-11 off at a ratio of 1e12 and 9.7e-10 at 5e15, and X and J with it
    y = 10.0 ** log_y
    x = y * 10.0 ** log_ratio
    if x == y:
        return
    want = _means_mp(x, y)
    floats = M.mean_bundle(x, y)
    arrays = M.mean_bundle(np.array([x, y]), np.array([y, x]))
    for kind in ("P", "X", "J"):
        for got in (floats[kind], *arrays[kind]):
            assert abs(got - want[kind]) <= 2e-15 * want[kind], (kind, x, y, got, want[kind])


_SUBNORMAL_ULP = 5e-324


@pytest.mark.parametrize("x, y", [(5e-324, 2.5e-323), (2.5e-323, 5e-324), (1e-310, 3e-310),
                                  (5e-324, 3e-308), (2.0 ** -1022, 1.5 * 2.0 ** -1022)])
def test_means_of_two_tiny_arguments(x, y):
    # Both below 2**-1021: halves and quotients of the pair lost digits, and
    # 0.5*P vanished for (5e-324, 2.5e-323), so J divided by zero. Each mean
    # is within its relative error plus one subnormal spacing of the truth.
    want = _means_mp(x, y)
    floats = M.mean_bundle(x, y)
    arrays = M.mean_bundle(np.array([x, 3.0]), np.array([y, 1.0]))
    normal = M.mean_bundle(np.array([3.0]), np.array([1.0]))
    for kind in floats:
        rel = 1e-13 if kind == "I" else 1e-14
        for got in (floats[kind], arrays[kind][0]):
            assert abs(got - want[kind]) <= rel * want[kind] + _SUBNORMAL_ULP, (kind, got)
        assert M.evaluate_mean(kind, (x, y)) == floats[kind], kind
        # a normal pair beside a tiny one keeps its bits
        assert arrays[kind][1] == normal[kind][0], kind


def test_means_cli_with_two_tiny_arguments(capsys):
    from ineqforge import cli

    code = cli.main(["means", "--a", "5e-324", "--b", "2.5e-323", "--json", "-"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    payload = json.loads(captured.out)
    want = _means_mp(5e-324, 2.5e-323)
    assert set(payload) == set(want)
    for kind, got in payload.items():
        assert abs(got - want[kind]) <= 1e-13 * want[kind] + _SUBNORMAL_ULP, (kind, got)


@pytest.mark.parametrize(
    "x, y", [(1.7e308, 5e-324), (5e-324, 1.7e308), (1e308, 1e-320), (1e308, 1e-310)]
)
def test_identric_mean_with_a_subnormal_argument(x, y):
    # h = atanh(u)/u - 1 passes log(max double) here, so exp(h) alone
    # overflows although I is about max(x, y)/e; h near 726 carries ~726 eps
    got = M.mean_bundle(x, y)["I"]
    assert got == pytest.approx(_means_mp(x, y)["I"], rel=1e-12, abs=0.0)
    assert M.evaluate_mean("I", (x, y)) == got
    # the array path gives the same bits and no numpy warning
    assert M.mean_bundle(np.array([x, 3.0]), np.array([y, 1.0]))["I"][0] == got


def test_reduce_homogeneous_rejects_t_past_the_float_range():
    # t = ln(x/y)/2 is about 727, so e^t is no double
    with pytest.raises(DomainError, match="e\\^t leaves the float range"):
        M.reduce_homogeneous("I", (1.7e308, 5e-324))
    with pytest.raises(DomainError):
        M.reduce_homogeneous("A", (5e-324, 1.7e308))


@pytest.mark.parametrize("r, w, x, y", [(-2.0, 0.5, 1e160, 2e160), (2.0, 0.5, 3e-160, 1e-160),
                                        (-3.0, 0.25, 1e105, 5e104), (4.0, 0.5, 1e-80, 3e-80)])
def test_power_mean_where_the_sum_of_powers_is_subnormal(r, w, x, y):
    with mp.workdps(40):
        want = (w * mp.mpf(x) ** r + (1 - w) * mp.mpf(y) ** r) ** (1 / mp.mpf(r))
    got = M.weighted_power_mean(r, w, x, y)
    assert got == pytest.approx(float(want), rel=4e-16, abs=0.0)
    assert M.weighted_power_mean(r, w, np.array([x, 2.0]), np.array([y, 1.0]))[0] == got


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([-3.0, -2.0, -0.5, 0.5, 2.0, 3.0]), st.floats(0.05, 0.95), _POSITIVE, _POSITIVE)
@example(-2.0, 0.5, 1e-200, 1e-100)
@example(-2.0, 0.5, 1e200, 2e200)
@example(3.0, 0.5, 1e200, 1e-300)
def test_power_mean_on_arrays_matches_floats(r, w, x, y):
    # numpy gives inf with a warning where x**r overflows, and the sum of
    # powers was then taken as it stood: at (-2, 1e-200, 1e-100) the array
    # mean was 1e-200 where the float one is 1.414e-200. numpy's power may
    # round differently from math's, so the two agree to a few ulps, or one
    # spacing where the mean is subnormal.
    got = M.weighted_power_mean(r, w, np.array([x, 2.0]), np.array([y, 1.0]))
    for value, (a, b) in zip(got, ((x, y), (2.0, 1.0))):
        want = M.weighted_power_mean(r, w, a, b)
        assert value == pytest.approx(want, rel=1e-15, abs=_SUBNORMAL_ULP), (a, b)
