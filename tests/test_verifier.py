"""Verifier behavior: chain verdicts, probes, limits, monotone checks, suite.

Small grids keep this module fast; the default-config run lives in the
acceptance tests.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from ineqforge import catalog as C
from ineqforge import kernels as K
from ineqforge import means as M
from ineqforge import verifier as V
from ineqforge.errors import DomainError
from ineqforge.verifier import VerificationConfig

SMALL = VerificationConfig(samples=801)


@pytest.fixture(scope="module")
def cat():
    return C.load_catalog()


# --- configuration -----------------------------------------------------------------

def test_config_defaults():
    cfg = VerificationConfig()
    assert cfg.samples == 20001
    assert cfg.endpoint_eps == 1e-9
    assert cfg.ratio_max == 100.0
    assert cfg.ratio_samples == 100
    assert cfg.epsilon == 1e-3


@pytest.mark.parametrize(
    "kwargs",
    [
        {"samples": 2},
        {"samples": -5},
        {"ratio_samples": 1},
        {"endpoint_eps": 0.0},
        {"endpoint_eps": 0.5},
        {"ratio_max": 1.0},
        {"ratio_samples": 0},
        {"epsilon": 0.0},
        {"epsilon": math.nan},
        {"epsilon": math.inf},
        {"ratio_max": math.inf},
        {"samples": 2001.5},
        {"samples": 2001.0},
        {"samples": True},
        {"ratio_samples": 100.0},
        {"ratio_samples": np.int64(100)},
        {"ratio_max": 1 + 1e-14, "ratio_samples": 100},
        {"ratio_max": 1.0000000000000002, "ratio_samples": 2},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(DomainError):
        VerificationConfig(**kwargs)


def test_config_rejects_a_first_ratio_of_one_by_name():
    # 1 + (ratio_max - 1)/ratio_samples rounding to 1 would put the twins at t = 0
    with pytest.raises(DomainError, match="ratio_max.*ratio_samples"):
        VerificationConfig(ratio_max=1 + 1e-14)
    cfg = VerificationConfig(ratio_max=1 + 1e-13)
    assert V.verify_chain("M1c-i1", cfg).twin_ok is True


# --- kernel chains -------------------------------------------------------------------

@pytest.mark.parametrize("cid", ["M1", "M23c", "L-I-A-G", "M4b", "M6a"])
def test_kernel_chains_verify(cat, cid):
    report = V.verify_chain(cat.get_chain(cid), SMALL)
    assert report.verdict == "verified_numeric", report.to_dict()
    assert report.kind == "kernel"
    assert all(link.verdict == "verified_numeric" for link in report.links)
    # sharp endpoints push the refined minimum to within an ulp of zero, so
    # only genuine violations may go below the tie band
    assert all(link.min_margin > -1e-12 for link in report.links)


def test_verify_chain_accepts_chain_objects(cat):
    report = V.verify_chain(cat.get_chain("M1"), SMALL)
    assert report.verdict == "verified_numeric"


def test_degenerate_chain_is_falsified_not_verified():
    chain = C._build_chain(
        {
            "id": "degen",
            "kind": "kernel",
            "domain": ["0.1", "1.0"],
            "members": ["sin(t)/t", "sin(t)/t"],
        }
    )
    report = V.verify_chain(chain, SMALL)
    assert report.verdict == "falsified"
    assert "identical" in report.links[0].note


def test_tie_band_chain_is_inconclusive():
    # margins of a few ulps never leave the tie threshold: no evidence either way
    chain = C._build_chain(
        {
            "id": "ties",
            "kind": "kernel",
            "domain": ["0.5", "1.0"],
            "members": ["1", "1 + t*4e-16"],
        }
    )
    report = V.verify_chain(chain, SMALL)
    assert report.verdict == "inconclusive"
    assert "tie threshold" in report.links[0].note


def test_chain_whose_margin_overflows_warns_nothing():
    # finite members 2e308 apart: the margin b - a overflows to inf inside the
    # scan, where the check silences numpy's warnings; any RuntimeWarning
    # would fail this test
    chain = C._build_chain(
        {
            "id": "far",
            "kind": "kernel",
            "domain": ["0.5", "1.0"],
            "members": ["-1e308", "1e308"],
        }
    )
    report = V.verify_chain(chain, SMALL)
    assert report.verdict == "verified_numeric"
    assert report.links[0].min_margin == math.inf


def test_flipped_link_is_falsified_and_named(cat):
    original = cat.get_chain("M1")
    flipped = C.flipped_catalog(cat, "M1", 1)
    report = V.verify_chain(flipped.get_chain("M1"), SMALL)
    assert report.verdict == "falsified"
    bad = [link for link in report.links if link.verdict == "falsified"]
    assert bad, "expected at least one falsified link"
    named = {bad[0].lhs, bad[0].rhs}
    assert named == {original.members[1], original.members[2]}
    assert bad[0].witness is not None
    assert bad[0].witness["margin"] < 0.0


@pytest.fixture(scope="module")
def flipped_links(cat):
    """Every link with a witness of every flipped chain, as (name, chain,
    link index, link report): the 165-chain sweep, run once for the module."""
    cfg = VerificationConfig(samples=2001, ratio_samples=2001)
    found = []
    for chain in cat.chains.values():
        for i in range(len(chain.members) - 1):
            flipped = C.flipped_catalog(cat, chain.id, i).get_chain(chain.id)
            for j, link in enumerate(V.verify_chain(flipped, cfg).links):
                if link.witness is not None:
                    found.append((f"{chain.id} flipped at {i}, link {j}", flipped, j, link))
    return found


def _float_sides(chain, j: int, x: float) -> tuple[float, float]:
    """The members of link j called on floats at coordinate x; mean members
    read the full mean bundle of the pair (x, 1)."""
    if chain.kind == "mean":
        bundle = M.mean_bundle(x, 1.0)
        args = [bundle[v] for v in C.MEAN_VARS]
    else:
        args = [x]
    return chain.member_fns[j](*args), chain.member_fns[j + 1](*args)


def test_flipped_falsified_links_report_their_witness(flipped_links):
    # Every falsified link of every flipped chain is judged at its witness:
    # argmin and min_margin are the witness's, a mean witness's pair is
    # (ratio, 1), and the witness violates by more than the tie threshold
    # when the members are called on floats.
    checked, wrong = 0, []
    for name, flipped, j, link in flipped_links:
        if link.verdict != "falsified":
            continue
        w = link.witness
        x = w["t"] if flipped.kind == "kernel" else w["ratio"]
        if (link.argmin, link.min_margin) != (x, w["margin"]):
            wrong.append(f"{name}: argmin and min_margin are not the witness's")
        if flipped.kind == "mean" and w["pair"] != [x, 1.0]:
            wrong.append(f"{name}: pair {w['pair']!r} is not [ratio, 1.0]")
        a, b = _float_sides(flipped, j, x)
        if not b - a < -1e-13 * max(1.0, abs(a), abs(b)):
            wrong.append(f"{name}: does not violate by more than the tie threshold")
        checked += 1
    assert checked >= 165
    assert wrong == []


def _witness_problem(w: dict, a: float, b: float) -> str | None:
    """What is wrong with a witness whose members give a and b as floats at
    its coordinate: its sides must be those floats, its margin their difference,
    and that margin must be below -tie."""
    if (w["lhs"], w["rhs"]) != (a, b):
        return f"sides {w['lhs']!r}, {w['rhs']!r} re-evaluate as {a!r}, {b!r}"
    if w["margin"] != b - a:
        return f"margin {w['margin']!r} is not rhs - lhs = {b - a!r}"
    if not w["margin"] < -1e-13 * max(1.0, abs(a), abs(b)):
        return f"margin {w['margin']!r} is not below -tie"
    return None


def test_every_witness_re_evaluates_as_floats(cat, flipped_links):
    # Each witness is reproducible from the report alone: the members called
    # on floats at its coordinate give its sides bit for bit. Mean members
    # read the full mean bundle of the pair (ratio, 1).
    checked, wrong = 0, []
    for name, flipped, j, link in flipped_links:
        x = link.witness["t" if flipped.kind == "kernel" else "ratio"]
        problem = _witness_problem(link.witness, *_float_sides(flipped, j, x))
        if problem:
            wrong.append(f"{name}: {problem}")
        checked += 1
    probe_reports = [(p, V.probe_sharpness(p).to_dict()) for p in cat.probes.values()]
    for case in V.theorem_m6_iff_suite()["cases"]:
        probe_reports += zip(C.m6_probe_specs(case["p"]), case["probes"])
    for probe, report in probe_reports:
        w = report.get("witness")
        if w is None:
            continue
        p, t = report["parameter"], w["t"]
        problem = _witness_problem(w, probe.lhs_fn(p, t), probe.rhs_fn(p, t))
        if problem:
            wrong.append(f"probe {report['probe']}: {problem}")
        checked += 1
    # 165 flipped links, 12 packaged probes and the 10 regime probes
    assert wrong == []
    assert checked == 165 + 12 + 10


# --- mean chains ----------------------------------------------------------------------

@pytest.mark.parametrize("cid", ["M1c-i1", "M2a-i2", "M23c-i1", "M6a-i"])
def test_mean_chains_verify_with_consistent_twins(cat, cid):
    report = V.verify_chain(cat.get_chain(cid), SMALL)
    assert report.verdict == "verified_numeric", report.to_dict()
    assert report.kind == "mean"
    assert report.twin_ok is True
    assert report.twin_max_deviation is not None
    d = report.to_dict()
    assert d["twin_ok"] is True
    assert d["twin_tolerance_rel"] == 1e-10


def test_wrong_counterpart_member_makes_the_twin_check_fail(cat):
    # M1c-i1's last member (2A+G)/3 is M1c's (2+cos t)/3, member 7; member 6,
    # cos(t/3)**3, follows member 5 too, so the chain loads, but its twin
    # margins disagree with the mean margins.
    chain = cat.get_chain("M1c-i1")
    refs = [list(ref) for ref in chain.counterpart]
    assert refs[-1] == ["M1c", 7]
    record = {
        "id": chain.id,
        "kind": "mean",
        "substitution": chain.substitution,
        "scale": chain.scale,
        "members": list(chain.members),
        "counterpart": refs[:-1] + [["M1c", 6]],
    }
    wrong = C._build_chain(record, cat.chains)
    assert wrong.twin_members[-1] == "cos(t/3)**3"
    report = V.verify_chain(wrong)
    assert all(link.verdict == "verified_numeric" for link in report.links)
    assert report.twin_ok is False
    assert report.verdict == "inconclusive"
    assert report.note == "mean and kernel margins disagree beyond tolerance"


@pytest.mark.parametrize(
    "cfg",
    [
        VerificationConfig(),
        VerificationConfig(ratio_samples=2001, ratio_max=47.5),
        VerificationConfig(ratio_samples=2001, ratio_max=1e4),
    ],
)
def test_twin_fields_measure_each_link_at_its_reported_ratio(cat, cfg):
    # The identities are proved in test_transcriptions; at run time each
    # link's mean margin meets its scaled twins' margin once, at its argmin.
    for chain in cat.chains.values():
        if chain.kind != "mean":
            continue
        report = V.verify_chain(chain, cfg)
        deviations, ok = [], True
        for i, link in enumerate(report.links):
            bundle = M.mean_bundle(link.argmin, 1.0)
            args = [bundle[v] for v in C.MEAN_VARS]
            lhs, rhs = (chain.member_fns[k](*args) for k in (i, i + 1))
            scale = chain.scale_fn(*args)
            t = M._pair_angle(chain.substitution, link.argmin, 1.0)
            lhs_twin, rhs_twin = (scale * chain.twin_fns[k](t) for k in (i, i + 1))
            deviation = abs(rhs - lhs - (rhs_twin - lhs_twin))
            deviations.append(deviation)
            tolerance = report.twin_tolerance_rel * max(1.0, abs(lhs_twin), abs(rhs_twin))
            ok = ok and deviation <= tolerance
        assert report.twin_max_deviation == max(deviations), chain.id
        assert report.twin_ok is ok is True, chain.id


@pytest.mark.parametrize("ratio_max", [1e8, 1e12])
def test_mean_chain_twins_agree_at_far_ratios(cat, ratio_max):
    # The twins' t is taken as P takes it, with no asin near pi/2, and the
    # tolerance scales with the twins, not with their cancelling margin.
    cfg = VerificationConfig(ratio_samples=20001, ratio_max=ratio_max)
    for chain in cat.chains.values():
        if chain.kind == "mean":
            report = V.verify_chain(chain, cfg)
            assert (report.verdict, report.twin_ok) == ("verified_numeric", True), chain.id


@pytest.mark.parametrize("cid", ["M2c2-i", "M6a-i", "M1c-i2"])
def test_a_member_scaled_by_1e_8_fails_the_twin_check(cat, cid):
    chain = cat.get_chain(cid)
    for i, fn in enumerate(chain.member_fns):
        fns = list(chain.member_fns)
        fns[i] = lambda *args, fn=fn: fn(*args) * (1.0 + 1e-8)
        mutated = dataclasses.replace(chain, member_fns=tuple(fns))
        for ratio_max in (100.0, 1e4, 1e8, 1e12):
            cfg = VerificationConfig(ratio_samples=2001, ratio_max=ratio_max)
            assert V.verify_chain(mutated, cfg).twin_ok is False, (i, ratio_max)


def test_mean_chain_witness_carries_the_pair(cat):
    flipped = C.flipped_catalog(cat, "M5-i", 0)
    report = V.verify_chain(flipped.get_chain("M5-i"), SMALL)
    assert report.verdict == "falsified"
    bad = [link for link in report.links if link.verdict == "falsified"][0]
    assert "pair" in bad.witness
    ratio, one = bad.witness["pair"]
    assert one == 1.0
    assert 1.0 < ratio <= 100.0


def test_mean_chains_match_a_full_bundle_run(cat, monkeypatch):
    # each mean chain computes only the means it reads; its reports must be
    # the ones a run computing all eleven gives, on both ratio ranges
    flipped = C.flipped_catalog(cat, "M5-i", 0)
    chains = [c for c in cat.chains.values() if c.kind == "mean"]
    chains.append(flipped.get_chain("M5-i"))
    configs = [VerificationConfig(ratio_samples=20001, ratio_max=r) for r in (3.0, 1e12)]
    reports = [V.verify_chain(c, cfg).to_dict() for c in chains for cfg in configs]
    monkeypatch.setattr(V, "mean_bundle", lambda x, y, kinds: M.mean_bundle(x, y))
    full = [V.verify_chain(c, cfg).to_dict() for c in chains for cfg in configs]
    assert any(r["verdict"] == "falsified" for r in full)
    for got, want in zip(reports, full):
        got.pop("elapsed_s")
        want.pop("elapsed_s")
        assert got == want, want["chain"]


def test_refinement_bundles_each_point_once_per_check(cat, monkeypatch):
    # links whose refinements meet at a ratio share its bundle, made once, and
    # the twin check reuses the bundles at the links' ratios. Nothing is kept
    # between checks: a second check makes the same calls and the same report.
    chain = cat.get_chain("M23c-i1")
    cfg = VerificationConfig(ratio_samples=20001)
    scalar, refined = [], []

    def counting_bundle(ratio, *args):
        if isinstance(ratio, float):
            scalar.append(ratio)
        return M.mean_bundle(ratio, *args)

    golden_refine = V._golden_refine

    def recording_refine(value_fn, a, b):
        def recorded(x):
            refined.append(x)
            return value_fn(x)

        return golden_refine(recorded, a, b)

    monkeypatch.setattr(V, "mean_bundle", counting_bundle)
    monkeypatch.setattr(V, "_golden_refine", recording_refine)
    runs = []
    for _ in range(2):
        scalar.clear()
        refined.clear()
        report = V.verify_chain(chain, cfg).to_dict()
        report.pop("elapsed_s")
        assert report["verdict"] == "verified_numeric"
        links = len(report["links"])
        assert len(refined) == links * (V._REFINE_STEPS + 2) > len(set(refined))
        assert sorted(scalar) == sorted(set(refined) | {link["argmin"] for link in report["links"]})
        runs.append((len(scalar), report))
    assert runs[0] == runs[1]


def test_member_reading_an_unlisted_mean_fails_loudly(cat):
    chain = dataclasses.replace(cat.get_chain("M1c-i1"), mean_kinds=("A", "G"))
    with pytest.raises(DomainError, match="not a finite real"):
        V.verify_chain(chain, SMALL)


# --- probes ----------------------------------------------------------------------------

def test_all_packaged_probes_falsify(cat):
    for pid in cat.probes:
        report = V.probe_sharpness(cat.get_probe(pid), SMALL)
        assert report.verdict == "falsified", report.to_dict()
        assert report.witness is not None
        lo, hi = report.interval
        assert lo <= report.witness["t"] <= hi
        assert report.witness["margin"] < 0.0


def test_probe_interval_regions(cat):
    near_zero = V.probe_sharpness(cat.get_probe("M1-lower"), SMALL)
    lo, hi = near_zero.interval
    assert lo < 1e-6
    assert hi == pytest.approx(math.pi / 16.0, rel=1e-6)
    near_right = V.probe_sharpness(cat.get_probe("M6a-p"), SMALL)
    lo, hi = near_right.interval
    assert lo == pytest.approx(math.pi / 2.0 - math.pi / 20.0, rel=1e-6)
    assert hi < math.pi / 2.0


def test_probe_off_nominal_parameter_does_not_falsify(cat):
    # nudging away from the sharp constant in the safe direction keeps the
    # inequality true, so the probe must report not_falsified
    probe = cat.get_probe("M1-lower")
    report = V.probe_sharpness(probe, SMALL)
    assert report.parameter != probe.base_value
    assert report.verdict == "falsified"


def test_probe_epsilon_too_small_to_move_the_constant_is_an_error(cat):
    probe = cat.get_probe("M1-lower")
    assert probe.base_value == 2.0 / 3.0
    config = VerificationConfig(samples=801, epsilon=1e-17)
    message = "epsilon=1e-17 is too small for probe M1-lower: its constant 0.6666666666666666"
    with pytest.raises(DomainError, match=f"^{re.escape(message)} does not move$"):
        V.probe_sharpness(probe, config)


@pytest.mark.parametrize(
    "pid, eps, region",
    [
        ("M1-upper", 0.11, "near_right region [1.413716694115407, 1.5707963267948966]"),
        ("M1-lower", 0.2, "near_zero region [0.0, 0.19634954084936207]"),
    ],
)
def test_probe_endpoint_eps_that_empties_the_region_is_an_error(cat, pid, eps, region):
    # the inset domain (eps * pi/2, pi/2 - eps * pi/2) misses the region
    # wholly: a grid over it would run backwards, outside the region
    message = f"endpoint_eps={eps!r} is too large for probe {pid}: it leaves no point of its {region}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        V.probe_sharpness(cat.get_probe(pid), VerificationConfig(samples=801, endpoint_eps=eps))


# --- endpoint limits and monotonicity ----------------------------------------------------

def test_endpoint_limits_all_registered_kernels():
    for kid, kernel in K.KERNELS.items():
        if kernel.limit_lo is None and kernel.limit_hi is None:
            continue
        report = V.verify_endpoint_limits(kid)
        assert report["verdict"] == "ok", (kid, report)


@pytest.mark.parametrize("kid", list(K.KERNELS))
def test_kernel_checks_take_the_kernel_or_its_id(kid):
    kernel = K.KERNELS[kid]
    assert V.verify_endpoint_limits(kernel) == V.verify_endpoint_limits(kid)
    if kernel.monotone is not None:
        assert V.verify_monotone(kernel, SMALL) == V.verify_monotone(kid, SMALL)


def test_endpoint_limit_errors_shrink_toward_the_limit():
    report = V.verify_endpoint_limits("h_ratio")
    errors = report["sides"]["hi"]["errors"]
    assert errors[-1] < 1e-6
    assert errors[0] >= errors[-1]


def test_asymptotic_kernel_uses_probe_points():
    report = V.verify_endpoint_limits("k_ratio")
    assert "points" in report["sides"]["hi"]
    assert report["sides"]["hi"]["points"] == [10.0, 25.0, 50.0]
    # without probe points the right end is approached by offsets
    bare = dataclasses.replace(K.KERNELS["k_ratio"], probe_points=())
    side = V.verify_endpoint_limits(bare)["sides"]["hi"]
    assert "points" not in side and side["offsets"] == [1e-3, 1e-5, 1e-7]


def test_endpoint_limits_need_a_stored_limit():
    kernel = K.Kernel("no_limits", 0.0, 1.0, lambda t: t, None, None)
    with pytest.raises(DomainError, match="kernel 'no_limits' stores no endpoint limit"):
        V.verify_endpoint_limits(kernel)


@pytest.mark.parametrize(
    "fn, message",
    [
        (lambda t: math.log(t - 0.5), "kernel bad: cannot evaluate bad: math domain error"),
        (lambda t: math.nan, "kernel bad: value is not a finite real at t=0.001: nan"),
        (lambda t: complex(t, 1.0), "kernel bad: value is not a finite real at t=0.001: (0.001+1j)"),
    ],
    ids=["raises", "nan", "complex"],
)
def test_endpoint_limits_value_failure_names_the_kernel(fn, message):
    kernel = K.Kernel("bad", 0.0, 1.0, fn, 0.0, 1.0)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        V.verify_endpoint_limits(kernel)


def test_monotone_declared_direction():
    report = V.verify_monotone("sinc", config=SMALL)
    assert report["direction"] == "decreasing"
    assert report["verdict"] == "verified_numeric"


def test_monotone_wrong_direction_is_falsified():
    # sinc is decreasing and sinhc increasing: each is declared the other way
    for kernel_id, wrong, sign in (("sinc", "increasing", 1.0), ("sinhc", "decreasing", -1.0)):
        kernel = K.KERNELS[kernel_id]
        report = V.verify_monotone(dataclasses.replace(kernel, monotone=wrong), config=SMALL)
        assert report["direction"] == wrong
        assert report["verdict"] == "falsified"
        # the witness is the deepest wrong-way step of the linspace grid, in t
        ts = np.linspace(*V._inset(kernel.lo, kernel.hi, SMALL.endpoint_eps), SMALL.samples)
        values = kernel.fn(ts)
        i = int(np.argmin(sign * np.diff(values)))
        assert report["witness"] == {
            "t": ts[i].item(),
            "t_next": ts[i + 1].item(),
            "value": values[i].item(),
            "value_next": values[i + 1].item(),
        }
        assert report["worst_at"] == report["witness"]["t"]


def test_monotone_non_finite_value_names_the_step():
    # sinc is decreasing, so its steps are the links f(t_i+1) < f(t_i)
    def inf_from_2(t):
        return np.where(t < 2.0, K.sinc(t), np.inf)

    kernel = dataclasses.replace(K.KERNELS["sinc"], fn=inf_from_2)
    with pytest.raises(DomainError, match=r"f\(t_i\+1\) < f\(t_i\): .* at t=1\.99"):
        V.verify_monotone(kernel, config=SMALL)


def test_monotone_requires_a_direction():
    kernel = dataclasses.replace(K.KERNELS["sinc"], monotone=None)
    with pytest.raises(DomainError, match="declares no monotone direction"):
        V.verify_monotone(kernel, config=SMALL)


def test_monotone_constant_kernel_is_inconclusive():
    # every step is an exact tie: no wrong-way step, and no evidence either
    flat = K.Kernel("flat", 0.0, 1.0, lambda t: 0.0 * t + 1.0, 1.0, 1.0, monotone="increasing")
    report = V.verify_monotone(flat, config=SMALL)
    assert report["verdict"] == "inconclusive"
    assert report["net_change"] == 0.0
    assert "witness" not in report


def test_monotone_net_change_inside_the_tie_threshold_is_inconclusive():
    # the kernel drops by one ulp, a tie: not a wrong-way step, nor a net fall
    def drop(t):
        return np.where(t < 0.5, 1.0, 1.0 - 2.0**-53)

    kernel = K.Kernel("drop", 0.0, 1.0, drop, 1.0, 1.0, monotone="increasing")
    report = V.verify_monotone(kernel, config=SMALL)
    assert report["net_change"] == -(2.0**-53)
    assert report["verdict"] == "inconclusive"
    assert "witness" not in report


def test_monotone_net_change_alone_is_the_witness():
    # the kernel drops 5e-14 per step, a tie, and 4e-11 in all: only the net
    # change falsifies it, so the witness is the grid's first and last points
    def drift(t):
        return 1.0 - 4e-11 * t

    kernel = K.Kernel("drift", 0.0, 1.0, drift, None, None, monotone="increasing")
    report = V.verify_monotone(kernel, config=SMALL)
    ts = np.linspace(*V._inset(kernel.lo, kernel.hi, SMALL.endpoint_eps), SMALL.samples)
    values = drift(ts)
    assert report["verdict"] == "falsified"
    assert report["worst_step"] > -1e-13
    assert report["witness"] == {
        "t": ts[0].item(),
        "t_next": ts[-1].item(),
        "value": values[0].item(),
        "value_next": values[-1].item(),
    }
    assert report["net_change"] == (values[-1] - values[0]).item()


EDGES = VerificationConfig(samples=2 * V._BLOCK + 7)


@pytest.mark.parametrize("config", [SMALL, EDGES])
def test_monotone_evaluates_its_kernel_only_on_its_grid(config):
    kernel = K.KERNELS["sinc"]
    seen = []

    def recorded(t):
        seen.extend(np.atleast_1d(t).tolist())
        return kernel.fn(t)

    report = V.verify_monotone(dataclasses.replace(kernel, fn=recorded), config)
    assert report["verdict"] == "verified_numeric"
    ts = np.linspace(*V._inset(kernel.lo, kernel.hi, config.endpoint_eps), config.samples)
    assert set(seen) == set(ts.tolist())


@pytest.mark.parametrize("direction", ["increasing", "decreasing"])
@pytest.mark.parametrize("step", [V._BLOCK - 1, V._BLOCK, 2 * V._BLOCK + 5])
def test_monotone_finds_a_wrong_way_step_at_a_block_edge(direction, step):
    # steps V._BLOCK - 1 and V._BLOCK end and start a block; the last step
    # ends the grid. The kernel moves the declared way but drops by 1 there.
    sign = 1.0 if direction == "increasing" else -1.0
    ts = np.linspace(*V._inset(0.0, 3.0, EDGES.endpoint_eps), EDGES.samples)
    cut = ts[step].item()

    def planted(t):
        return sign * (t - np.where(t > cut, 1.0, 0.0))

    kernel = K.Kernel("planted", 0.0, 3.0, planted, None, None, monotone=direction)
    report = V.verify_monotone(kernel, EDGES)
    values = planted(ts)
    assert report["verdict"] == "falsified"
    assert report["witness"] == {
        "t": ts[step].item(),
        "t_next": ts[step + 1].item(),
        "value": values[step].item(),
        "value_next": values[step + 1].item(),
    }
    assert report["worst_at"] == ts[step].item()
    assert report["worst_step"] == sign * (values[step + 1] - values[step]).item()
    assert report["net_change"] == sign * (values[-1] - values[0]).item()


@pytest.mark.parametrize(
    "samples, step",
    [
        (20001, V._BLOCK - 1),  # from a block's last point to the next block's first
        (20001, 2 * V._BLOCK - 1),
        (20001, 20001 - 2),  # the last step, into hi
        (V._BLOCK + 1, V._BLOCK - 1),  # the last block holds one point
        (2 * V._BLOCK + 1, 2 * V._BLOCK - 1),
    ],
)
def test_monotone_steps_across_block_edges(samples, step):
    # a decreasing kernel that jumps up by 1 on one chosen step, its only
    # wrong-way step: the witness is that step, wherever the blocks end
    config = VerificationConfig(samples=samples)
    grid = V._Grid(*V._inset(0.0, 3.0, config.endpoint_eps), samples)
    cut = grid.at(step)

    def jump(t):
        return np.where(t > cut, 1.0, 0.0) - t

    kernel = K.Kernel("jump", 0.0, 3.0, jump, None, None, monotone="decreasing")
    report = V.verify_monotone(kernel, config)
    assert report["verdict"] == "falsified"
    t, t_next = grid.at(step), grid.at(step + 1)
    assert (report["witness"]["t"], report["witness"]["t_next"]) == (t, t_next)
    assert report["worst_at"] == t


def test_monotone_flat_step_of_a_decreasing_kernel_is_minus_zero():
    flat = K.Kernel("flat", 0.0, 1.0, lambda t: 0.0 * t + 1.0, 1.0, 1.0, monotone="decreasing")
    report = V.verify_monotone(flat, config=EDGES)
    assert report["verdict"] == "inconclusive"
    assert math.copysign(1.0, report["worst_step"]) == -1.0
    assert math.copysign(1.0, report["net_change"]) == -1.0


@pytest.mark.parametrize(
    "check, target",
    [
        (V.verify_chain, "M1"),
        (V.probe_sharpness, "M1-upper"),
        (V.verify_monotone, "sinc"),
    ],
)
@pytest.mark.parametrize("eps", [5e-17, 1e-320])
def test_endpoint_eps_that_moves_no_domain_end_is_an_error(check, target, eps):
    # pi/2 - 5e-17 * pi/2 rounds to pi/2: the grid would end on the domain's end
    with pytest.raises(DomainError, match=rf"^endpoint_eps={eps!r} is too small for the domain \("):
        check(target, VerificationConfig(endpoint_eps=eps))


# --- parametric family and suite -----------------------------------------------------------

def test_theorem_m6_iff_suite_small():
    result = V.theorem_m6_iff_suite(p_grid=(2.0, 1.0, -1.0), config=SMALL)
    assert result["passed"] is True
    assert [case["p"] for case in result["cases"]] == [2.0, 1.0, -1.0]
    for case in result["cases"]:
        assert case["ok"] is True
        assert case["chain"]["verdict"] == "verified_numeric"
        assert all(pr["verdict"] == "falsified" for pr in case["probes"])


def test_theorem_m6_iff_suite_needs_an_exponent():
    with pytest.raises(DomainError, match="p_grid holds no exponent"):
        V.theorem_m6_iff_suite([])


@pytest.mark.parametrize("cid, p", [("M6", 1.2), ("M6-p05", 0.5), ("M6-pm1", -1.0)])
def test_packaged_m6_chains_are_the_regime_chains(cat, cid, p):
    packaged, regime = cat.get_chain(cid), C.make_m6_chain(p)
    ts = np.linspace(1e-9, math.pi / 2 - 1e-9, 4097)
    sample = ts.tolist()[::64]
    for f, g in zip(packaged.member_fns, regime.member_fns, strict=True):
        assert [f(t) for t in sample] == [g(t) for t in sample]
        want = np.broadcast_to(g(ts), ts.shape)
        assert np.broadcast_to(f(ts), ts.shape).tobytes() == want.tobytes()
    # at the defaults their links differ only in the member names
    links = V.verify_chain(packaged).links
    for link, want in zip(links, V.verify_chain(regime).links, strict=True):
        assert dataclasses.replace(link, lhs=want.lhs, rhs=want.rhs) == want


def test_run_suite_details_a_tie_only_chain_and_a_probe_that_holds(cat):
    members = ("sin(t)", "sin(t)+1e-16")
    fns = tuple(C.compile_expression(m, ("t",)) for m in members)
    tie = C.Chain("tie", "kernel", members, fns, (0.0, math.pi))
    # nudging the constant the other way keeps the inequality
    probe = cat.probes["M1-lower"]
    holds = dataclasses.replace(probe, direction="+" if probe.direction == "-" else "-")
    report = V.run_suite(SMALL, C.Catalog({"tie": tie}, {"holds": holds}))
    rows = {row.name: row for row in report.rows}
    assert not rows["chain:tie"].passed
    assert rows["chain:tie"].detail == "every margin sits inside the tie threshold"
    assert not rows["probe:holds"].passed
    assert rows["probe:holds"].detail == f"no violation found in {probe.region}"


def test_run_suite_small_passes(cat):
    report = V.run_suite(SMALL, cat)
    assert report.passed is True, [r.name for r in report.rows if not r.passed]
    names = [row.name for row in report.rows]
    assert sum(1 for n in names if n.startswith("chain:")) == 55
    assert sum(1 for n in names if n.startswith("probe:")) == 12
    assert "constant:p1" in names
    assert "series:csc" in names
    d = report.to_dict()
    assert d["passed"] is True


def test_run_suite_names_a_flipped_chain(cat):
    flipped = C.flipped_catalog(cat, "M2", 0)
    report = V.run_suite(SMALL, flipped)
    assert report.passed is False
    failing = {row.name for row in report.rows if not row.passed}
    assert "chain:M2" in failing
    row = next(r for r in report.rows if r.name == "chain:M2")
    chain = cat.get_chain("M2")
    assert chain.members[0] in row.detail and chain.members[1] in row.detail


def test_repeated_verification_is_deterministic(cat):
    first = V.verify_chain(cat.get_chain("M1"), SMALL).to_dict()
    second = V.verify_chain(cat.get_chain("M1"), SMALL).to_dict()
    first.pop("elapsed_s")
    second.pop("elapsed_s")
    assert first == second


# --- report schemas ---------------------------------------------------------------------

def test_report_key_sets_are_stable(cat):
    config_keys = {
        "samples", "endpoint_eps", "ratio_max", "ratio_samples", "epsilon",
    }
    kernel = V.verify_chain(cat.get_chain("M1"), SMALL).to_dict()
    assert set(kernel) == {"chain", "kind", "verdict", "config", "elapsed_s", "links"}
    assert kernel["config"] == dataclasses.asdict(SMALL)
    assert set(kernel["config"]) == config_keys
    assert set(kernel["links"][0]) == {"lhs", "rhs", "verdict", "min_margin", "argmin"}

    mean = V.verify_chain(cat.get_chain("M1c-i1"), SMALL).to_dict()
    assert set(mean) == {
        "chain", "kind", "verdict", "config", "elapsed_s", "links",
        "twin_max_deviation", "twin_tolerance_rel", "twin_ok",
    }

    flipped = V.verify_chain(C.flipped_catalog(cat, "M1", 0).get_chain("M1"), SMALL).to_dict()
    bad = next(link for link in flipped["links"] if link["verdict"] == "falsified")
    assert set(bad) == {"lhs", "rhs", "verdict", "min_margin", "argmin", "witness"}
    assert set(bad["witness"]) == {"t", "lhs", "rhs", "margin"}

    probe = V.probe_sharpness(cat.get_probe("M1-lower"), SMALL).to_dict()
    assert set(probe) == {
        "probe", "chain", "parameter", "base_value", "config", "direction", "region",
        "interval", "min_margin", "verdict", "elapsed_s", "witness",
    }
    assert probe["config"] == dataclasses.asdict(SMALL)
    assert isinstance(probe["interval"], list)

    suite = V.SuiteReport(
        rows=[V.SuiteRow(name="x", passed=True, detail="d")], passed=True, elapsed_s=0.0
    ).to_dict()
    assert set(suite) == {"passed", "elapsed_s", "rows"}
    assert suite["rows"] == [{"name": "x", "passed": True, "detail": "d"}]

    monotone_keys = {
        "kernel", "direction", "verdict", "worst_step", "worst_at", "net_change",
    }
    assert set(V.verify_monotone("sinc", config=SMALL)) == monotone_keys
    wrong_way = dataclasses.replace(K.KERNELS["sinc"], monotone="increasing")
    wrong = V.verify_monotone(wrong_way, config=SMALL)
    assert set(wrong) == monotone_keys | {"witness"}
    assert set(wrong["witness"]) == {"t", "t_next", "value", "value_next"}
