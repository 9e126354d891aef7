"""Bivariate means: frozen values, orderings, properties, substitutions.

Frozen values computed with mpmath at 40 digits from the defining formulas.
Property sweeps use seeded RNG so failures reproduce.
"""

import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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


def test_substitution_random_pairs():
    rng = random.Random(424242)
    for _ in range(500):
        a = rng.uniform(0.01, 10.0)
        b = a * rng.uniform(1.0 + 1e-6, 60.0)
        _, res1 = M.substitution_arcsin((a, b))
        _, res2 = M.substitution_arctan((a, b))
        assert max(abs(r) for r in res1) < 1e-12
        assert max(abs(r) for r in res2) < 1e-12


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
    with pytest.raises(DomainError):
        M.substitution_arcsin((3.0, 1.0))  # needs b > a
    with pytest.raises(DomainError):
        M.substitution_arctan((2.0, 2.0))


def test_large_pair_bundle_returns_promptly():
    # x + y overflows here; the old u = (x-y)/(x+y) became 0 and the atanh
    # series never ended. A subprocess keeps a regression from hanging the run.
    code = (
        "import math\n"
        "from ineqforge.means import mean_bundle\n"
        "b = mean_bundle(1.7e308, 1.6e308)\n"
        "print(all(math.isfinite(b[k]) for k in 'AGLIPTX'), b['A'])\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": str(src)},
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


def test_extreme_pairs_stay_finite():
    top = M.mean_bundle(1.7e308, 1.6e308)
    assert all(1.6e308 <= v <= 1.7e308 for v in top.values()), top
    # x*y overflows at the first pair and is subnormal at the other two; the
    # last takes r = 0.5 since the power mean loses digits where x**r is subnormal
    for pair, order in (((1e308, 1e300), 2.0), ((1e-160, 1e-160), 2.0), ((3e-160, 1e-160), 0.5)):
        for kind in M.MEAN_KINDS:
            r = order if kind == "power" else None
            _, lhs, rhs = M.reduce_homogeneous(kind, pair, r)
            # L and I lose about ratio * eps through atanh((x-y)/(x+y))
            assert math.isfinite(rhs) and rhs == pytest.approx(lhs, rel=1e-8, abs=0.0), (pair, kind)
    assert M.evaluate_mean("power", (1e308, 1e300), r=2.0) == pytest.approx(
        math.sqrt(0.5) * 1e308, rel=1e-15)
    assert M.weighted_power_mean(-2.0, 0.5, 1e-300, 1e-200) == pytest.approx(
        math.sqrt(2.0) * 1e-300, rel=1e-15, abs=0.0)
    # past a ratio of 2**53, u = (x-y)/(x+y) rounds to 1
    assert M.mean_bundle(1e17, 1.0)["L"] == pytest.approx((1e17 - 1.0) / math.log(1e17), rel=1e-15)


def test_overflow_guards_keep_in_range_values_bit_identical():
    # Q, J, K from halves keep the bits of the plain forms, and the power
    # mean is rescaled only where its plain form leaves the float range
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
