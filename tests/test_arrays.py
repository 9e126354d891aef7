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
import tracemalloc
import warnings

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

SMALL = V.VerificationConfig(samples=801)
TIE_REL = 1e-13


def reference_scan(lhs_vals, rhs_vals) -> dict:
    """The float loop of the margin scan, without refinement.

    The scan keeps one point: the first deepest violation if any margin
    violates, else the first smallest margin. Returns the verdict, that
    point's index as ``idx``, the margin and argmin a report shows, and the
    step of the witness.
    """
    idx = -1
    rank = None
    has_positive = False
    all_zero = True
    for i in range(len(lhs_vals)):
        a = lhs_vals[i]
        b = rhs_vals[i]
        m = b - a
        theta = TIE_REL * max(1.0, abs(a), abs(b))
        if m != 0.0:
            all_zero = False
        if m > theta:
            has_positive = True
        if idx < 0 or (m >= -theta, m) < rank:
            idx, rank = i, (m >= -theta, m)
    violating, margin = not rank[0], rank[1]
    scan = {"idx": idx}
    if violating:
        return {"verdict": "falsified", "min_margin": margin, "argmin": idx, "step": idx, **scan}
    if all_zero:
        return {"verdict": "falsified", "min_margin": 0.0, "argmin": 0, "step": None, **scan}
    verdict = "verified_numeric" if has_positive else "inconclusive"
    return {"verdict": verdict, "min_margin": margin, "argmin": idx, "step": None, **scan}


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
            "step": step, "idx": scan.idx}


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


# Margins within a few tie thresholds of a violating minimum near -1e-3,
# besides ties and shallow violations.
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
def test_block_skips_keep_the_violation(background, points):
    # minima, ties and violations planted at block edges, so that later blocks
    # move the deepest violation, add shallower ones to an unmoved one, or are
    # skipped
    n = 3 * V._BLOCK + 17
    lhs = [0.5] * n
    rhs = [0.5 + background] * n
    for block, offset, a, m in points:
        i = min(block * V._BLOCK + offset, n - 1)
        lhs[i], rhs[i] = a, a + m
    got = array_scan(lhs, rhs)
    want = reference_scan(lhs, rhs)
    assert got["idx"] == want["idx"]
    assert got == want


def test_array_scan_takes_first_of_repeated_minima():
    lhs = [0.0] * 6
    rhs = [1e-3, -1e-3, 5e-4, -1e-3, -1e-3, 1e-3]
    got = array_scan(lhs, rhs)
    assert got == reference_scan(lhs, rhs)
    assert got["argmin"] == got["step"] == got["idx"] == 1


def test_array_scan_puts_a_violation_before_a_lower_tie():
    # -1e-8 at sides near 1e6 is a tie (threshold 1e-7) and the smallest
    # margin; the link's one point is still the violation at index 2
    lhs = [1e6, 0.0, 0.0, 0.0]
    rhs = [1e6 - 1e-8, 1e-3, -1e-3, 5e-4]
    got = array_scan(lhs, rhs)
    assert got == reference_scan(lhs, rhs)
    assert got["min_margin"] == -1e-3 and got["argmin"] == got["step"] == 2


def quiet_scan(lhs_vals, rhs_vals) -> dict:
    """array_scan with numpy's floating-point warnings silenced, as every
    check scans, and any other warning an error."""
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        return array_scan(lhs_vals, rhs_vals)


@pytest.mark.parametrize("at", [3, V._BLOCK + 5])
@pytest.mark.parametrize(
    "bad",
    [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf),
     (math.inf, math.inf), (-math.inf, -math.inf), (math.inf, -math.inf)],
    ids=["nan-lhs", "nan-rhs", "inf-lhs", "minus-inf-rhs", "inf-both", "minus-inf-both",
         "inf-minus-inf"],
)
def test_scan_names_the_first_non_finite_side(bad, at):
    # in the first block, before any positive margin, and in a later block,
    # after one; a second bad point further on is not the one named
    n = 2 * V._BLOCK + 9
    lhs, rhs = [0.5] * n, [0.5 + 1e-3] * n
    lhs[at], rhs[at] = bad
    lhs[at + 2], rhs[at + 2] = math.nan, math.nan
    message = f"scan: cannot assess lhs < rhs: member value is not a finite real at step={at}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        quiet_scan(lhs, rhs)


@pytest.mark.parametrize(
    "points, verdict, min_margin",
    [
        ([(-1e308, 1e308)], "verified_numeric", 1e-3),
        ([(1e308, -1e308)], "falsified", -math.inf),
        ([(-1e308, 1e308), (1e308, -1e308)], "falsified", -math.inf),
    ],
)
def test_scan_takes_a_margin_that_overflows_from_finite_sides(points, verdict, min_margin):
    # finite sides are not rejected, though b - a is +-inf; a sum of such
    # margins may be nan
    n = V._BLOCK + 9
    lhs, rhs = [0.0] * n, [1e-3] * n
    for i, (a, b) in enumerate(points):
        lhs[V._BLOCK + i], rhs[V._BLOCK + i] = a, b
    got = quiet_scan(lhs, rhs)
    assert got == reference_scan(lhs, rhs)
    assert (got["verdict"], got["min_margin"]) == (verdict, min_margin)


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


@pytest.mark.parametrize("k", [0, 5, V._BLOCK - 1, V._BLOCK, 2 * V._BLOCK + 6])
def test_check_links_points_are_linspace_bit_for_bit(k):
    # the blocks and the coordinates of reported points are np.linspace's;
    # here (n - 1) * step + lo rounds to 1.6999999999999997, not to hi
    lo, hi, n = 0.4, 1.7, 2 * V._BLOCK + 7
    grid = np.linspace(lo, hi, n)
    c = grid[k].item()
    blocks = []

    def zero(t):
        if isinstance(t, np.ndarray):
            blocks.append(t.copy())
        return 0.0 * t

    (link,) = V._check_links(
        "grid", ("0", "|t - c|"), (zero, lambda t: abs(t - c)), "t", V._Grid(lo, hi, n)
    )
    assert np.array_equal(np.concatenate(blocks), grid)
    assert link.min_margin == 0.0 and link.argmin == c


def test_mean_grid_is_linspace_and_ends_on_ratio_max(monkeypatch):
    # 1 + 20001 * step rounds to 1e8 - 1.49e-8; the grid's last ratio is 1e8
    cfg = V.VerificationConfig(ratio_max=1e8, ratio_samples=20001)
    blocks = []

    def recording_bundle(ratio, *args):
        if isinstance(ratio, np.ndarray):
            blocks.append(ratio.copy())
        return M.mean_bundle(ratio, *args)

    monkeypatch.setattr(V, "mean_bundle", recording_bundle)
    V.verify_chain("M1c-i1", cfg)
    ratios = np.concatenate(blocks)
    assert np.array_equal(ratios, np.linspace(1.0, 1e8, 20002)[1:])
    assert ratios[-1] == 1e8


@pytest.mark.parametrize(
    "check, target",
    [
        (V.verify_chain, "M1c"),
        (V.verify_chain, "M2c2-i"),
        (V.probe_sharpness, "M1-lower"),
        (V.verify_monotone, "sinc"),
    ],
)
def test_no_check_holds_a_grid_sized_array(check, target):
    # one float array of 200001 points takes 1.6 MB; the traced peak may
    # grow by no more than 100 KB from 20001 samples or ratios to 200001
    def peak(n: int) -> int:
        cfg = V.VerificationConfig(samples=n, ratio_samples=n)
        tracemalloc.start()
        try:
            check(target, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    check(target, V.VerificationConfig(samples=801))
    small, big = peak(20001), peak(200001)
    assert big - small < 100_000, (small, big)


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


def test_non_real_constant_member_names_the_link():
    # (-1)**0.5 is a complex constant: every point of its block becomes nan
    chain = C._build_chain(
        {"id": "imag", "kind": "kernel", "domain": ["0.5", "2.0"],
         "members": ["(-1)**0.5", "t"]}
    )
    with pytest.raises(DomainError, match="chain imag: cannot assess .*not a finite real"):
        V.verify_chain(chain, SMALL)


def test_member_failing_on_floats_only_names_the_link():
    # the grid scan passes; the float refinement of the minimum raises
    def arrays_only(t):
        if isinstance(t, float):
            raise ValueError("floats refused")
        return t

    chain = C._build_chain(
        {"id": "float", "kind": "kernel", "domain": ["0.5", "2.0"], "members": ["t", "t + 1"]}
    )
    chain = dataclasses.replace(chain, member_fns=(arrays_only,) + chain.member_fns[1:])
    with pytest.raises(DomainError, match=r"^chain float: cannot assess t < t \+ 1: floats refused"):
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


def test_import_and_catalog_load_leave_numpy_out(child_env):
    code = (
        "import sys, ineqforge\n"
        "ineqforge.load_catalog()\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env,
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"


def test_import_load_and_a_mean_chain_leave_sympy_out(child_env):
    # sympy proves the mean transcriptions in the tests only.
    code = (
        "import sys, ineqforge\n"
        "ineqforge.load_catalog()\n"
        "ineqforge.verify_chain('M1c-i1')\n"
        "print('sympy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env,
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
    wrong = dataclasses.replace(K.KERNELS["sinc"], monotone="increasing")
    _assert_plain(V.verify_monotone(wrong, config=SMALL))
    _assert_plain(V.probe_sharpness("M1-lower", SMALL).to_dict())
    flipped = C.flipped_catalog(C.load_catalog(), "M5-i", 0)
    _assert_plain(V.verify_chain(flipped.get_chain("M5-i"), SMALL).to_dict())


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


def test_flat_valley_witness_is_float_and_within_a_tie_of_the_lowest():
    # t against exp(log(t)) - 1e-3 violates by 1e-3 everywhere, with
    # last-bit noise that differs between numpy and math, so the valley holds
    # many grid points within one tie threshold of its lowest float margin.
    # The witness must re-evaluate as floats and be within one tie threshold
    # of that lowest margin.
    cfg = V.VerificationConfig(samples=2001)
    chain = C._build_chain(
        {"id": "flat", "kind": "kernel", "domain": ["1", "2"],
         "members": ["t", "exp(log(t)) - 1e-3"]}
    )
    report = V.verify_chain(chain, cfg)
    lf, rf = chain.member_fns
    ts = np.linspace(*V._inset(*chain.domain, cfg.endpoint_eps), cfg.samples).tolist()
    margins = [rf(t) - lf(t) for t in ts]
    lowest = min(margins)
    # the lhs is t, the larger side, so a point's tie threshold is 1e-13 * t
    assert sum(m <= lowest + TIE_REL * t for m, t in zip(margins, ts)) > 64
    w = report.links[0].witness
    a, b = lf(w["t"]), rf(w["t"])
    tie = TIE_REL * max(1.0, abs(a), abs(b))
    assert w == {"t": w["t"], "lhs": a, "rhs": b, "margin": b - a}
    assert w["margin"] < -tie
    assert abs(w["margin"] - lowest) <= tie


def test_deepest_violation_witness_has_float_sides():
    # With link 1 of I-A23 flipped, the smallest margin at 2001 samples is a
    # tie of huge values near t = 49. The link's one point is the deepest
    # violation near t = 3.4 instead: its argmin and min_margin are the
    # witness's, and the witness carries the float sides.
    cfg = V.VerificationConfig(samples=2001, ratio_samples=2001)
    chain = C.flipped_catalog(C.load_catalog(), "I-A23", 1).get_chain("I-A23")
    link = V.verify_chain(chain, cfg).links[1]
    w = link.witness
    assert link.verdict == "falsified"
    assert link.argmin == w["t"] and link.min_margin == w["margin"]
    a, b = chain.member_fns[1](w["t"]), chain.member_fns[2](w["t"])
    assert w == {"t": w["t"], "lhs": a, "rhs": b, "margin": b - a}
