"""Verifier behavior: chain verdicts, probes, limits, monotone checks, suite.

Small grids keep this module fast; the default-config run lives in the
acceptance tests.
"""

import dataclasses
import math

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


def test_flipped_falsified_links_report_their_witness(cat):
    # Every falsified link of every flipped chain is judged at its witness:
    # argmin and min_margin are the witness's, and the witness violates by
    # more than the tie threshold when the members are called on floats.
    cfg = VerificationConfig(samples=2001, ratio_samples=2001)
    checked, wrong = 0, []
    for chain in cat.chains.values():
        for i in range(len(chain.members) - 1):
            flipped = C.flipped_catalog(cat, chain.id, i).get_chain(chain.id)
            for j, link in enumerate(V.verify_chain(flipped, cfg).links):
                w = link.witness
                if link.verdict != "falsified" or w is None:
                    continue
                if flipped.kind == "mean":
                    x = w["ratio"]
                    bundle = M.mean_bundle(*w["pair"])
                    args = [bundle[v] for v in C.MEAN_VARS]
                else:
                    x = w["t"]
                    args = [x]
                a = flipped.member_fns[j](*args)
                b = flipped.member_fns[j + 1](*args)
                if (link.argmin, link.min_margin) != (x, w["margin"]) or not (
                    b - a < -1e-13 * max(1.0, abs(a), abs(b))
                ):
                    wrong.append(f"{chain.id} flipped at {i}, link {j}")
                checked += 1
    assert checked >= 165
    assert wrong == []


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


def test_monotone_declared_direction():
    report = V.verify_monotone("sinc", config=SMALL)
    assert report["direction"] == "decreasing"
    assert report["verdict"] == "verified_numeric"
    assert report["spot_checks_ok"] is True


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
    assert "witness" not in report and report["spot_checks_ok"] is True


EDGES = VerificationConfig(samples=2 * V._BLOCK + 7)


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
        "spot_checks_ok",
    }
    assert set(V.verify_monotone("sinc", config=SMALL)) == monotone_keys
    wrong_way = dataclasses.replace(K.KERNELS["sinc"], monotone="increasing")
    wrong = V.verify_monotone(wrong_way, config=SMALL)
    assert set(wrong) == monotone_keys | {"witness", "spot_witness"}
    assert set(wrong["witness"]) == {"t", "t_next", "value", "value_next"}
    assert set(wrong["spot_witness"]) == {"t", "value_left", "value_right"}
