"""Whole-grid array evaluation against the float path it replaces.

The float loop of the margin scan is kept here as the reference for the
array scan. Kernels are compared point by point with their float values,
and the report types are pinned: numpy must not leak into reports or CSV,
nor be imported by loading the package.
"""

import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqforge import catalog as C
from ineqforge import kernels as K
from ineqforge import means as M
from ineqforge import series as S
from ineqforge import verifier as V
from ineqforge.cli import main
from ineqforge.errors import DomainError

SRC = Path(__file__).resolve().parents[1] / "src"
SMALL = V.VerificationConfig(samples=801)
TIE_REL = 1e-13


def reference_scan(lhs_vals, rhs_vals) -> dict:
    """The float loop the array scan replaced, without refinement.

    Returns the verdict, the first smallest margin and its index, the index
    of the first deepest violation (-1 without one), and the step of the
    witness (that violation, or the minimum when that is a violation too).
    """
    min_margin = math.inf
    min_idx = 0
    viol_idx = -1
    viol_margin = 0.0
    has_positive = False
    all_zero = True
    for i in range(len(lhs_vals)):
        a = lhs_vals[i]
        b = rhs_vals[i]
        m = b - a
        if m != 0.0:
            all_zero = False
        if m < min_margin:
            min_margin = m
            min_idx = i
        theta = TIE_REL * max(1.0, abs(a), abs(b))
        if m < -theta:
            if viol_idx < 0 or m < viol_margin:
                viol_margin = m
                viol_idx = i
        elif m > theta:
            has_positive = True

    ra, rb = lhs_vals[min_idx], rhs_vals[min_idx]
    candidates = []
    if viol_idx >= 0:
        candidates.append((viol_idx, lhs_vals[viol_idx], rhs_vals[viol_idx]))
    if (rb - ra) < -TIE_REL * max(1.0, abs(ra), abs(rb)):
        candidates.append((min_idx, ra, rb))
    if candidates:
        step = min(candidates, key=lambda c: c[2] - c[1])[0]
        return {"verdict": "falsified", "min_margin": min_margin, "argmin": min_idx,
                "viol_idx": viol_idx, "step": step}
    if all_zero:
        return {"verdict": "falsified", "min_margin": 0.0, "argmin": 0,
                "viol_idx": viol_idx, "step": None}
    verdict = "verified_numeric" if has_positive else "inconclusive"
    return {"verdict": verdict, "min_margin": min_margin, "argmin": min_idx,
            "viol_idx": viol_idx, "step": None}


def block_scan(lhs_vals, rhs_vals) -> V._LinkScan:
    a = np.asarray(lhs_vals, dtype=float)
    b = np.asarray(rhs_vals, dtype=float)
    scan = V._LinkScan("scan", "lhs", "rhs", "step", int)
    for start in range(0, len(a), V._BLOCK):
        scan.add(a[start:start + V._BLOCK], b[start:start + V._BLOCK])
    return scan


def array_scan(lhs_vals, rhs_vals) -> dict:
    scan = block_scan(lhs_vals, rhs_vals)
    link = scan.report(None)
    step = None if link.witness is None else link.witness["step"]
    return {"verdict": link.verdict, "min_margin": link.min_margin, "argmin": link.argmin,
            "viol_idx": scan.viol_idx, "step": step}


# Values and margins chosen to hit exact ties, margins of exactly +-tie
# (lhs 0 with margin +-1e-13) and repeated minima.
_LHS = st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, 3.0, -250.0, 1e3])
_MARGIN = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 2e-13, -2e-13, 5e-14, -5e-14, 1e-3, -1e-3]),
    st.floats(-1e-12, 1e-12),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_LHS, _MARGIN), min_size=1, max_size=40))
def test_array_scan_matches_float_loop(pairs):
    lhs = [a for a, _ in pairs]
    rhs = [a + m for a, m in pairs]
    got = array_scan(lhs, rhs)
    want = reference_scan(lhs, rhs)
    assert got == want
    assert type(got["min_margin"]) is float and type(got["argmin"]) is int


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3 * V._BLOCK + 16), _LHS, _MARGIN), max_size=12))
def test_array_scan_matches_float_loop_across_blocks(points):
    # a flat positive background over several scan blocks, with ties, minima
    # and violations planted at random places, block edges included
    n = 3 * V._BLOCK + 17
    lhs = [0.5] * n
    rhs = [0.5 + 1e-3] * n
    for i, a, m in points:
        lhs[i], rhs[i] = a, a + m
    assert array_scan(lhs, rhs) == reference_scan(lhs, rhs)


# Margins in and around the float-recheck slack (0.15 tie thresholds) of a
# violating minimum near -1e-3, besides ties and shallow violations.
_NEAR_MARGIN = st.sampled_from(
    [-1e-3, -1e-3 + 1e-14, -1e-3 + 1.5e-14, -1e-3 + 3e-14, -1e-3 - 1e-14, -1e-3 - 2e-14,
     0.0, 1e-13, -1e-13, -1.1e-13, -2e-13, 5e-14, 1e-3]
)
_EDGE = st.sampled_from([0, 1, 2, 3, V._BLOCK - 1, V._BLOCK - 2])


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([1e-3, 2e-13, 0.0]),
    st.lists(st.tuples(st.integers(0, 3), _EDGE, _LHS, _NEAR_MARGIN), max_size=14),
)
def test_block_skips_keep_the_near_set_and_the_violation(background, points):
    # minima, ties and violations planted at block edges, so that later blocks
    # move the minimum, add near points to an unmoved one, or are skipped
    n = 3 * V._BLOCK + 17
    lhs = [0.5] * n
    rhs = [0.5 + background] * n
    for block, offset, a, m in points:
        i = min(block * V._BLOCK + offset, n - 1)
        lhs[i], rhs[i] = a, a + m
    scan = block_scan(lhs, rhs)
    margins = [b - a for a, b in zip(lhs, rhs)]
    lowest = min(margins)
    near = [
        i for i, (m, a, b) in enumerate(zip(margins, lhs, rhs))
        if m <= lowest + 0.15 * (TIE_REL * max(1.0, abs(a), abs(b)))
    ]
    assert scan.near[0].tolist() == near
    assert scan.viol_idx == reference_scan(lhs, rhs)["viol_idx"]


def test_array_scan_takes_first_of_repeated_minima():
    lhs = [0.0] * 6
    rhs = [1e-3, -1e-3, 5e-4, -1e-3, -1e-3, 1e-3]
    assert array_scan(lhs, rhs) == reference_scan(lhs, rhs)
    assert array_scan(lhs, rhs)["argmin"] == 1
    assert array_scan(lhs, rhs)["step"] == 1


@pytest.mark.parametrize("kid", list(K.KERNELS))
def test_kernel_array_matches_floats_across_the_seams(kid):
    # 0.1..0.6 straddles the series/direct switches at 0.2 and 0.5
    fn = K.KERNELS[kid].fn
    xs = np.linspace(0.1, 0.6, 2001)
    got = fn(xs)
    want = np.array([fn(float(x)) for x in xs])
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def _series_grid(switch: float, signed: bool = False) -> np.ndarray:
    # 0, subnormal and underflowing t, a dense sweep, and t just below the switch
    ts = np.concatenate([
        [0.0, 5e-324, 1e-310, 2.2e-308, 1e-160, 1.5e-154, 1e-100, 1e-8],
        np.geomspace(1e-300, switch, 4001)[:-1],
        np.linspace(0.0, switch, 20001)[:-1],
        [np.nextafter(switch, 0.0)],
    ])
    return np.concatenate([-ts[::-1], ts]) if signed else ts


@pytest.mark.parametrize(
    "coeffs, switch, alternating, signed",
    [
        pytest.param(S.tcm1_coefficients, K.SMALL_T, False, False, id="tcm1"),
        pytest.param(S.tcm1_coefficients, K.SMALL_T_HYPERBOLIC, True, False,
                     id="tcm1-alternating"),
        pytest.param(S.g_numerator_coefficients, K.SMALL_T, False, False,
                     id="g_numerator"),
        pytest.param(S.u5_coefficients, 0.5, False, False, id="u5"),
        pytest.param(S.u4_coefficients, 0.5, False, False, id="u4"),
        pytest.param(lambda: M._ATANH_COEFFS, 0.2, False, True, id="atanh"),
    ],
)
def test_even_series_array_equals_floats_bit_for_bit(coeffs, switch, alternating, signed):
    # the array sum runs every point to the same depth, unmasked; past a
    # point's own stopping term each addition must round back to its sum
    table = coeffs()
    ts = _series_grid(switch, signed)
    got = K._even_series(table, ts, alternating)
    want = np.array([K._even_series(table, t, alternating) for t in ts.tolist()])
    assert np.array_equal(got, want)


def test_golden_refine_calls_value_fn_depth_plus_two_times():
    calls = []

    def value_fn(x):
        calls.append(x)
        return math.cos(x), 0.25 * (x - 0.3) ** 2 + math.cos(x)

    x, a, b = V._golden_refine(value_fn, 0.0, 1.0)
    assert len(calls) == V._REFINE_STEPS + 2
    assert x in calls and (a, b) == value_fn(x)


def test_floats_in_floats_out():
    for kid, kernel in K.KERNELS.items():
        assert type(kernel.fn(0.5)) is float, kid
    cat = C.load_catalog()
    bundle = M.mean_bundle(3.0, 1.0)
    assert all(type(v) is float for v in bundle.values())
    vec = [bundle[v] for v in C.MEAN_VARS]
    for chain in cat.chains.values():
        if chain.kind == "kernel":
            t = 0.5 * (chain.domain[0] + chain.domain[1])
            values = [fn(t) for fn in chain.member_fns]
        else:
            values = [fn(*vec) for fn in chain.member_fns]
        assert all(type(v) is float for v in values), chain.id


def test_mean_bundle_array_matches_floats():
    ratios = np.array([1.0, 1.0 + 1e-9, 1.5, 3.0, 97.0, 1e4])
    got = M.mean_bundle(ratios, 1.0)
    for i, r in enumerate(ratios):
        want = M.mean_bundle(float(r), 1.0)
        for kind, value in want.items():
            assert abs(got[kind][i] - value) <= 1e-14 * value, (kind, r)
    assert all(got[kind][0] == 1.0 for kind in got)


def test_non_finite_member_value_names_the_link():
    chain = C._build_chain(
        {"id": "bad", "kind": "kernel", "domain": ["0.5", "2.0"],
         "members": ["cos(t)", "log(cos(t))"]}
    )
    with pytest.raises(DomainError, match="chain bad: cannot assess cos"):
        V.verify_chain(chain, SMALL)


def test_failing_member_evaluation_names_the_chain_and_member():
    # cosh(t) overflows past t = 710, and wpm rejects the infinite entry
    chain = C._build_chain(
        {"id": "big", "kind": "kernel", "domain": ["1", "800"],
         "members": ["wpm(6/5, 2/3, cosh(t), 1)", "exp_tcoth(t)"]}
    )
    with pytest.raises(DomainError) as info:
        V.verify_chain(chain, V.VerificationConfig(samples=2001))
    message = str(info.value)
    assert message.startswith("chain big: cannot evaluate wpm(")
    assert "got (inf, 1.0)" in message and "array(" not in message


def _boom(*args):
    raise ZeroDivisionError("boom")


@pytest.mark.parametrize(
    "field, expr",
    [
        ("member", "boom(x)"),
        ("scale", "boom(scale)"),
        ("twin", "boom(twin)"),
        ("means", "the means"),
    ],
)
def test_failing_mean_chain_evaluation_names_the_chain_and_expression(
    monkeypatch, field, expr
):
    chain = C.load_catalog().get_chain("M1c-i1")
    if field == "member":
        chain = dataclasses.replace(
            chain, members=(expr,) + chain.members[1:], member_fns=(_boom,) + chain.member_fns[1:]
        )
    elif field == "scale":
        chain = dataclasses.replace(chain, scale=expr, scale_fn=_boom)
    elif field == "twin":
        chain = dataclasses.replace(
            chain, twin_members=(expr,) + chain.twin_members[1:],
            twin_fns=(_boom,) + chain.twin_fns[1:],
        )
    else:
        monkeypatch.setattr(V, "mean_bundle", _boom)
    with pytest.raises(DomainError, match=rf"^chain M1c-i1: cannot evaluate {re.escape(expr)}.*boom"):
        V.verify_chain(chain, SMALL)


def test_import_and_catalog_load_leave_numpy_out():
    code = (
        "import sys, ineqforge\n"
        "ineqforge.load_catalog()\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"


def _plain_leaves(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _plain_leaves(item)
    elif isinstance(value, list):
        for item in value:
            yield from _plain_leaves(item)
    else:
        yield value


def _assert_plain(payload):
    for leaf in _plain_leaves(payload):
        assert type(leaf) in (str, bool, int, float, type(None)), repr(leaf)
    assert "np." not in repr(payload)
    assert "np." not in json.dumps(payload)


def test_reports_hold_builtin_types_only():
    _assert_plain(V.run_suite(SMALL).to_dict())
    _assert_plain(V.verify_monotone("sinc", config=SMALL))
    _assert_plain(V.verify_monotone("sinc", direction="increasing", config=SMALL))
    _assert_plain(V.probe_sharpness("M1-lower", SMALL).to_dict())
    flipped = C.flipped_catalog(C.load_catalog(), "M5-i", 0)
    _assert_plain(V.verify_chain("M5-i", SMALL, flipped).to_dict())


def test_table_csv_has_no_numpy_text(capsys):
    assert main(["table", "exp_tcot", "--count", "7"]) == 0
    out = capsys.readouterr().out
    assert "np." not in out
    assert len(out.strip().splitlines()) == 8


def test_flat_valley_witness_is_the_float_scan_one():
    # M6a-q breaks in a valley so flat that last-bit differences between
    # numpy and math move its grid minimum; the refined witness must still
    # be the one a scan of float evaluations leads to
    cfg = V.VerificationConfig()
    probe = C.load_catalog().get_probe("M6a-q")
    report = V.probe_sharpness(probe, cfg)
    p = report.parameter
    grid = np.linspace(*report.interval, cfg.samples).tolist()
    lhs = [probe.lhs_fn(p, t) for t in grid]
    rhs = [probe.rhs_fn(p, t) for t in grid]
    i = reference_scan(lhs, rhs)["argmin"]
    x, a, b = V._golden_refine(
        lambda t: (probe.lhs_fn(p, t), probe.rhs_fn(p, t)), grid[i - 1], grid[i + 1]
    )
    assert b - a < rhs[i] - lhs[i]
    assert report.witness == {"t": x, "lhs": a, "rhs": b, "margin": b - a}


def test_float_recheck_covers_a_flat_valley_of_any_width():
    # t against exp(log(t)) - 1e-3 violates by 1e-3 everywhere, with
    # last-bit noise that differs between numpy and math, so every grid
    # point lies in the near set of the minimum. The witness must still be
    # the one a float-only scan and refinement give.
    cfg = V.VerificationConfig(samples=2001)
    chain = C._build_chain(
        {"id": "flat", "kind": "kernel", "domain": ["1", "2"],
         "members": ["t", "exp(log(t)) - 1e-3"]}
    )
    report = V.verify_chain(chain, cfg)
    lf, rf = chain.member_fns
    ts = np.linspace(*V._inset(*chain.domain, cfg.endpoint_eps), cfg.samples).tolist()
    lhs = [lf(t) for t in ts]
    rhs = [rf(t) for t in ts]
    margins = [b - a for a, b in zip(lhs, rhs)]
    lowest = min(margins)
    near = sum(m <= lowest + 0.15 * TIE_REL * max(1.0, abs(a), abs(b))
               for m, a, b in zip(margins, lhs, rhs))
    assert near > 64
    i = reference_scan(lhs, rhs)["argmin"]
    refined = V._golden_refine(
        lambda t: (lf(t), rf(t)), ts[max(i - 1, 0)], ts[min(i + 1, cfg.samples - 1)]
    )
    x, a, b = min([(ts[i], lhs[i], rhs[i]), refined], key=lambda c: c[2] - c[1])
    assert report.links[0].witness == {"t": x, "lhs": a, "rhs": b, "margin": b - a}
