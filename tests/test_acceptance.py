"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion verdicts;
printed detail lines surface with -s or on failure.
"""

import math
import random
import time
from fractions import Fraction

from ineqforge import catalog as C
from ineqforge import constants
from ineqforge import kernels as K
from ineqforge import means as M
from ineqforge import series as S
from ineqforge import verifier as V


def _report(n: int, name: str, failures: list, detail: str = "") -> None:
    if failures:
        print(f"ACCEPTANCE {n} {name}: FAIL ({'; '.join(str(f) for f in failures)})")
    else:
        print(f"ACCEPTANCE {n} {name}: PASS {detail}".rstrip())
    assert not failures, f"criterion {n} ({name}): " + "; ".join(str(f) for f in failures)


def test_criterion_1_sharp_constants():
    constants.constant_p0.cache_clear()
    constants.constant_p1.cache_clear()
    start = time.perf_counter()
    p0 = constants.constant_p0()
    p1 = constants.constant_p1()
    beta = constants.constant_beta()
    gamma = constants.constant_gamma()
    elapsed = time.perf_counter() - start

    # Known failure, kept failing: the published 4-decimal target 0.6505 for
    # p1 is a truncation of 0.650553..., which sits 5.37e-5 away and misses
    # the 5e-5 gate. The gate is encoded as stated, not loosened. The other
    # three constants pass it (7.3e-6, 8.8e-6, 4.8e-5).
    failures = []
    for name, value, published in [
        ("p1", p1, 0.6505),
        ("p0", p0, 0.3473),
        ("beta", beta, 2.0942),
        ("gamma", gamma, 1.4990),
    ]:
        err = abs(value - published)
        if err > 5e-5:
            failures.append(f"{name}={value!r} is {err:.3e} from {published} (> 5e-5)")
    for name, residual in [
        ("p1", constants.p1_residual(p1)),
        ("p0", constants.p0_residual(p0)),
    ]:
        if abs(residual) >= 1e-13:
            failures.append(f"{name} residual {residual:.3e} >= 1e-13")
    if elapsed >= 0.1:
        failures.append(f"solver runtime {elapsed:.3f}s >= 0.1s")
    _report(1, "sharp constants", failures, f"(solved in {elapsed * 1e3:.1f}ms)")


def test_criterion_2_chain_verification():
    cat = C.load_catalog()
    cfg = V.VerificationConfig()  # 20001 samples + refinement
    start = time.perf_counter()
    failures = []
    count = 0
    for cid in cat.chains:
        report = V.verify_chain(cat.get_chain(cid), cfg)
        count += 1
        if report.verdict != "verified_numeric":
            failures.append(f"{cid}: {report.verdict}")
    elapsed = time.perf_counter() - start
    if count < 30:
        failures.append(f"only {count} chains registered (need >= 30)")
    if elapsed >= 30.0:
        failures.append(f"total runtime {elapsed:.1f}s >= 30s")
    _report(2, "chain verification", failures, f"({count} chains in {elapsed:.1f}s)")


def test_criterion_3_sharpness_probes():
    cat = C.load_catalog()
    cfg = V.VerificationConfig(epsilon=1e-3)
    failures = []
    count = 0
    for pid in cat.probes:
        report = V.probe_sharpness(cat.get_probe(pid), cfg)
        count += 1
        if report.verdict != "falsified":
            failures.append(f"{pid}: {report.verdict}")
            continue
        lo, hi = report.interval
        t = report.witness["t"]
        if not lo <= t <= hi:
            failures.append(f"{pid}: witness t={t!r} outside [{lo!r}, {hi!r}]")
        if pid == "M1-lower" and not t < 0.2:
            failures.append(f"M1-lower witness t={t!r} not < 0.2")
        if pid == "M6a-p" and not t > 1.4:
            failures.append(f"M6a-p witness t={t!r} not > 1.4")
    if count < 8:
        failures.append(f"only {count} probes registered (need >= 8)")
    _report(3, "sharpness probes", failures, f"({count} probes falsified)")


def test_criterion_4_endpoint_limits():
    named = [
        "h_ratio",
        "u(p=6/5)",
        "u(p=0.5)",
        "u(p=-1)",
        "Fp(p=0.5)",
        "Fp(p=sqrt10/5)",
        "Gp(p=0.5)",
        "Gp(p=1/sqrt3)",
    ]
    delta = 1e-7
    # Known failure, kept failing: u(p) approaches its hi limit 1 - e^-p like
    # (1 - e^-p) * cos(t)^p with cos(pi/2 - delta) ~ delta, so at p = 0.5 the
    # error is ~0.39 * sqrt(1e-7) = 1.24e-4 and no delta above ~6e-12 can
    # meet 1e-6. The check is encoded at the stated delta and tolerance; the
    # other 15 sides converge (u(p=6/5) goes like delta^(6/5) = 9e-9).
    failures = []
    for kid in named:
        kernel = K.KERNELS[kid]
        for side, limit, t in [
            ("lo", kernel.limit_lo, kernel.lo + delta),
            ("hi", kernel.limit_hi, kernel.hi - delta),
        ]:
            err = abs(kernel.fn(t) - limit)
            if not err < 1e-6:
                failures.append(f"{kid} {side}: |f(endpoint -+ 1e-7) - limit| = {err:.3e}")
    # the stated limits themselves must be the analytic closed forms
    if K.KERNELS["h_ratio"].limit_hi != math.exp(-1.0) + 2.0 / math.pi:
        failures.append("h_ratio hi limit is not e^-1 + 2/pi")
    for p, kid in [(6.0 / 5.0, "u(p=6/5)"), (0.5, "u(p=0.5)")]:
        if K.KERNELS[kid].limit_hi != 1.0 - math.exp(-p):
            failures.append(f"{kid} hi limit is not 1 - e^-p")
        if K.KERNELS[kid].limit_lo != 2.0 / 3.0:
            failures.append(f"{kid} lo limit is not 2/3")
    _report(4, "endpoint limits", failures, "(16 kernel sides at delta=1e-7)")


def test_criterion_5_series_oracle_equivalence():
    direct = {
        "csc": lambda t: 1.0 / math.sin(t),
        "cot": lambda t: math.cos(t) / math.sin(t),
        "tan": math.tan,
        "csc2": lambda t: 1.0 / math.sin(t) ** 2,
    }
    rng = random.Random(0xACCE)
    failures = []
    for sid in S.SERIES_IDS:
        radius = {"tan": math.pi / 2}.get(sid, math.pi)
        worst = 0.0
        for _ in range(200):
            t = rng.uniform(1e-6, 0.8 * radius)
            value, _terms = S.series_eval(sid, t)
            rel = abs(value - direct[sid](t)) / abs(direct[sid](t))
            worst = max(worst, rel)
        if worst > 1e-12:
            failures.append(f"{sid}: worst relative error {worst:.3e} > 1e-12")

    # independent Bernoulli recurrence: sum_{k<m} C(m+1,k) B_k = -(m+1) B_m
    table = [Fraction(1)]
    for m in range(1, 121):
        acc = Fraction(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * table[k]
        table.append(-acc / (m + 1))
    for n in range(1, 61):
        if S.bernoulli_abs_exact(n) != abs(table[2 * n]):
            failures.append(f"|B_{2 * n}| disagrees with the recurrence")
    _report(5, "series oracle equivalence", failures, "(4 series x 200 points, B_2..B_120)")


def test_criterion_6_coefficient_sequence_laws():
    failures = []
    half = Fraction(1, 4)  # p = 1/2 squared
    sqrt10_5 = Fraction(2, 5)  # p = sqrt(10)/5 squared
    third = Fraction(1, 3)  # p = 1/sqrt(3) squared
    for n in range(1, 201):
        if S.ml1_ratio_diff_exact(half, n) > 0:
            failures.append(f"ML1 diff positive at p=1/2, n={n}")
        if S.ml1_ratio_diff_exact(sqrt10_5, n) < 0:
            failures.append(f"ML1 diff negative at p=sqrt10/5, n={n}")
        if S.ml2_ratio_diff_exact(half, n) > 0:
            failures.append(f"ML2 diff positive at p=1/2, n={n}")
        if S.ml2_ratio_diff_exact(third, n) < 0:
            failures.append(f"ML2 diff negative at p=1/sqrt3, n={n}")
    if S.m6_coeff_ratio_exact(2) != Fraction(6, 5):
        failures.append(f"c(2) = {S.m6_coeff_ratio_exact(2)} != 6/5")
    previous = S.m6_coeff_ratio_exact(2)
    for n in range(3, 201):
        current = S.m6_coeff_ratio_exact(n)
        if not current < previous:
            failures.append(f"c({n}) not below c({n - 1})")
        previous = current
    _report(6, "coefficient-sequence laws", failures, "(n <= 200, exact rationals)")


def test_criterion_7_substitution_identities():
    rng = random.Random(0x5B57)
    failures = []
    worst = 0.0
    for _ in range(1000):
        a = rng.uniform(0.05, 20.0)
        b = rng.uniform(0.05, 20.0)
        if a == b:
            continue
        x, y = max(a, b), min(a, b)
        bundle = M.mean_bundle(x, y)
        t1 = math.asin((x - y) / (x + y))
        for kernel_value, ratio in [
            (math.sin(t1) / t1, bundle["P"] / bundle["A"]),
            (math.cos(t1), bundle["G"] / bundle["A"]),
            (K.exp_tcot(t1), bundle["X"] / bundle["A"]),
            (K.exp_tcot_half(t1), bundle["J"] / bundle["A"]),
        ]:
            worst = max(worst, abs(kernel_value - ratio) / abs(ratio))
        t2 = math.atan((x - y) / (x + y))
        for kernel_value, ratio in [
            (math.sin(t2) / t2, bundle["T"] / bundle["Q"]),
            (math.cos(t2), bundle["A"] / bundle["Q"]),
            (K.exp_tcot(t2), bundle["B"] / bundle["Q"]),
            (K.exp_tcot_half(t2), bundle["K"] / bundle["Q"]),
        ]:
            worst = max(worst, abs(kernel_value - ratio) / abs(ratio))
    if worst > 1e-12:
        failures.append(f"worst substitution residual {worst:.3e} > 1e-12 relative")

    cat = C.load_catalog()
    cfg = V.VerificationConfig()
    worst_twin = 0.0
    for cid in cat.chains:
        chain = cat.get_chain(cid)
        if chain.kind != "mean":
            continue
        report = V.verify_chain(cat.get_chain(cid), cfg)
        if report.twin_ok is not True:
            failures.append(f"{cid}: twin margins disagree")
        worst_twin = max(worst_twin, report.twin_max_deviation)
    if worst_twin > 1e-10:
        failures.append(f"worst twin deviation {worst_twin:.3e} > 1e-10")
    _report(
        7,
        "substitution identities",
        failures,
        f"(worst residual {worst:.1e}, worst twin deviation {worst_twin:.1e})",
    )


def test_criterion_8_means_property_suite():
    rng = random.Random(0x8EA5)
    failures = []
    checked = 0
    for _ in range(10_000):
        x = rng.uniform(1e-3, 1e3)
        y = rng.uniform(1e-3, 1e3)
        lo, hi = min(x, y), max(x, y)
        scale = rng.uniform(0.5, 2.0)
        for kind in M.MEAN_KINDS:
            kwargs = {"r": M.POWER_DISPLAY_R} if kind == "power" else {}
            value = M.evaluate_mean(kind, (x, y), **kwargs)
            checked += 1
            if not lo * (1.0 - 1e-13) <= value <= hi * (1.0 + 1e-13):
                failures.append(f"{kind}({x!r}, {y!r}) = {value!r} outside [{lo}, {hi}]")
                continue
            swapped = M.evaluate_mean(kind, (y, x), **kwargs)
            if abs(swapped - value) > 1e-13 * value:
                failures.append(f"{kind} not symmetric at ({x!r}, {y!r})")
            scaled = M.evaluate_mean(kind, (scale * x, scale * y), **kwargs)
            if abs(scaled - scale * value) > 1e-12 * scale * value:
                failures.append(f"{kind} not homogeneous at ({x!r}, {y!r})")
            _t, lhs, rhs = M.reduce_homogeneous(kind, (x, y), **kwargs)
            if abs(rhs - lhs) > 1e-12 * value:
                failures.append(f"{kind} reduction off at ({x!r}, {y!r})")
        if failures:
            break
    _report(8, "means property suite", failures, f"({checked} evaluations)")


def test_criterion_9_mutation_sensitivity():
    cat = C.load_catalog()
    cfg = V.VerificationConfig(samples=2001)
    rng = random.Random(0x40B5)
    failures = []
    picks = []
    for _ in range(3):
        cid = rng.choice(list(cat.chains))
        chain = cat.get_chain(cid)
        index = rng.randrange(len(chain.members) - 1)
        picks.append(f"{cid}[{index}]")
        mutated = C.flipped_catalog(cat, cid, index)
        report = V.run_suite(cfg, mutated)
        if report.passed:
            failures.append(f"suite passed with {cid} link {index} flipped")
            continue
        row = next((r for r in report.rows if r.name == f"chain:{cid}"), None)
        if row is None or row.passed:
            failures.append(f"no failing row chain:{cid} after flipping link {index}")
            continue
        lhs, rhs = chain.members[index], chain.members[index + 1]
        if lhs not in row.detail or rhs not in row.detail:
            failures.append(
                f"chain:{cid} detail does not name the swapped members: {row.detail!r}"
            )
    _report(9, "mutation sensitivity", failures, f"(flipped {', '.join(picks)})")
