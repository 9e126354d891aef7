"""Whole-grid array evaluation against the float path it replaces.

The float loop of the margin scan is kept here as the reference for the
array scan. Kernels are compared point by point with their float values,
and the report types are pinned: numpy must not leak into reports or CSV,
nor be imported by loading the package.
"""

import json
import math
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
from ineqforge import verifier as V
from ineqforge.cli import main
from ineqforge.errors import DomainError

SRC = Path(__file__).resolve().parents[1] / "src"
SMALL = V.VerificationConfig(samples=801, refine_depth=20)
TIE_REL = 1e-13


def reference_scan(lhs_vals, rhs_vals) -> dict:
    """The float loop the array scan replaced, without refinement.

    Returns the verdict, the first smallest margin and its index, and the
    step of the witness (the first deepest violation, or the minimum when
    that is a violation too).
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
        return {"verdict": "falsified", "min_margin": min_margin, "argmin": min_idx, "step": step}
    if all_zero:
        return {"verdict": "falsified", "min_margin": 0.0, "argmin": 0, "step": None}
    verdict = "verified_numeric" if has_positive else "inconclusive"
    return {"verdict": verdict, "min_margin": min_margin, "argmin": min_idx, "step": None}


def array_scan(lhs_vals, rhs_vals) -> dict:
    a = np.asarray(lhs_vals, dtype=float)
    b = np.asarray(rhs_vals, dtype=float)
    scan = V._LinkScan("scan", "lhs", "rhs", "step", int)
    for start in range(0, len(a), V._BLOCK):
        scan.add(a[start:start + V._BLOCK], b[start:start + V._BLOCK])
    link = scan.report(None, 0)
    step = None if link.witness is None else link.witness["step"]
    return {"verdict": link.verdict, "min_margin": link.min_margin, "argmin": link.argmin, "step": step}


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
    grid = V._Grid.between(*report.interval, cfg.samples)
    grid = [grid.x(i) for i in range(cfg.samples)]
    lhs = [probe.lhs_fn(p, t) for t in grid]
    rhs = [probe.rhs_fn(p, t) for t in grid]
    i = reference_scan(lhs, rhs)["argmin"]
    x, a, b = V._golden_refine(
        lambda t: (probe.lhs_fn(p, t), probe.rhs_fn(p, t)), grid[i - 1], grid[i + 1], cfg.refine_depth
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
    grid = V._Grid.between(*V._inset(*chain.domain, cfg.endpoint_eps), cfg.samples)
    ts = [grid.x(i) for i in range(cfg.samples)]
    lhs = [lf(t) for t in ts]
    rhs = [rf(t) for t in ts]
    margins = [b - a for a, b in zip(lhs, rhs)]
    lowest = min(margins)
    near = sum(m <= lowest + 0.15 * TIE_REL * max(1.0, abs(a), abs(b))
               for m, a, b in zip(margins, lhs, rhs))
    assert near > 64
    i = reference_scan(lhs, rhs)["argmin"]
    refined = V._golden_refine(
        lambda t: (lf(t), rf(t)), ts[max(i - 1, 0)], ts[min(i + 1, cfg.samples - 1)],
        cfg.refine_depth,
    )
    x, a, b = min([(ts[i], lhs[i], rhs[i]), refined], key=lambda c: c[2] - c[1])
    assert report.links[0].witness == {"t": x, "lhs": a, "rhs": b, "margin": b - a}
