"""Verifier behavior: chain verdicts, probes, limits, monotone checks, suite.

Small grids keep this module fast; the default-config run lives in the
acceptance tests.
"""

import dataclasses
import math

import pytest

from ineqforge import catalog as C
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
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(DomainError):
        VerificationConfig(**kwargs)


# --- kernel chains -------------------------------------------------------------------

@pytest.mark.parametrize("cid", ["M1", "M23c", "L-I-A-G", "M4b", "M6a"])
def test_kernel_chains_verify(cat, cid):
    report = V.verify_chain(cid, SMALL, cat)
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
    report = V.verify_chain("M1", SMALL, flipped)
    assert report.verdict == "falsified"
    bad = [link for link in report.links if link.verdict == "falsified"]
    assert bad, "expected at least one falsified link"
    named = {bad[0].lhs, bad[0].rhs}
    assert named == {original.members[1], original.members[2]}
    assert bad[0].witness is not None
    assert bad[0].witness["margin"] < 0.0


# --- mean chains ----------------------------------------------------------------------

@pytest.mark.parametrize("cid", ["M1c-i1", "M2a-i2", "M23c-i1", "M6a-i"])
def test_mean_chains_verify_with_consistent_twins(cat, cid):
    report = V.verify_chain(cid, SMALL, cat)
    assert report.verdict == "verified_numeric", report.to_dict()
    assert report.kind == "mean"
    assert report.twin_ok is True
    assert report.twin_max_deviation is not None
    d = report.to_dict()
    assert d["twin_ok"] is True
    assert d["twin_tolerance_rel"] == 1e-10


def test_mean_chain_witness_carries_the_pair(cat):
    flipped = C.flipped_catalog(cat, "M5-i", 0)
    report = V.verify_chain("M5-i", SMALL, flipped)
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
    for pid in cat.probe_ids():
        report = V.probe_sharpness(pid, SMALL, cat)
        assert report.verdict == "falsified", report.to_dict()
        assert report.witness is not None
        lo, hi = report.interval
        assert lo <= report.witness["t"] <= hi
        assert report.witness["margin"] < 0.0


def test_probe_interval_regions(cat):
    near_zero = V.probe_sharpness("M1-lower", SMALL, cat)
    lo, hi = near_zero.interval
    assert lo < 1e-6
    assert hi == pytest.approx(math.pi / 16.0, rel=1e-6)
    near_right = V.probe_sharpness("M6a-p", SMALL, cat)
    lo, hi = near_right.interval
    assert lo == pytest.approx(math.pi / 2.0 - math.pi / 20.0, rel=1e-6)
    assert hi < math.pi / 2.0


def test_probe_off_nominal_parameter_does_not_falsify(cat):
    # nudging away from the sharp constant in the safe direction keeps the
    # inequality true, so the probe must report not_falsified
    probe = cat.get_probe("M1-lower")
    report = V.probe_sharpness(probe, SMALL, cat)
    assert report.parameter != probe.base_value
    assert report.verdict == "falsified"


# --- endpoint limits and monotonicity ----------------------------------------------------

def test_endpoint_limits_all_registered_kernels():
    from ineqforge.kernels import KERNELS
    for kid, kernel in KERNELS.items():
        if kernel.limit_lo is None and kernel.limit_hi is None:
            continue
        report = V.verify_endpoint_limits(kid)
        assert report["verdict"] == "ok", (kid, report)


def test_endpoint_limit_errors_shrink_toward_the_limit():
    report = V.verify_endpoint_limits("h_ratio")
    errors = report["sides"]["hi"]["errors"]
    assert errors[-1] < 1e-6
    assert errors[0] >= errors[-1]


def test_asymptotic_kernel_uses_probe_points():
    report = V.verify_endpoint_limits("k_ratio")
    assert "points" in report["sides"]["hi"]
    assert report["sides"]["hi"]["points"] == [10.0, 25.0, 50.0]


def test_monotone_declared_direction():
    report = V.verify_monotone("sinc", config=SMALL)
    assert report["direction"] == "decreasing"
    assert report["verdict"] == "verified_numeric"
    assert report["spot_checks_ok"] is True


def test_monotone_wrong_direction_is_falsified():
    report = V.verify_monotone("sinc", direction="increasing", config=SMALL)
    assert report["verdict"] == "falsified"
    assert report["witness"] is not None or report["net_change"] < 0.0
    # the witness is the deepest wrong-way step, which is where worst_step sits
    assert report["witness"]["t"] == report["worst_at"]


def test_monotone_requires_a_direction():
    with pytest.raises(DomainError):
        V.verify_monotone("sinc", direction="sideways", config=SMALL)


# --- parametric family and suite -----------------------------------------------------------

def test_theorem_m6_iff_suite_small():
    result = V.theorem_m6_iff_suite(p_grid=(2.0, 1.0, -1.0), config=SMALL)
    assert result["passed"] is True
    assert [case["p"] for case in result["cases"]] == [2.0, 1.0, -1.0]
    for case in result["cases"]:
        assert case["ok"] is True
        assert case["chain"]["verdict"] == "verified_numeric"
        assert all(pr["verdict"] == "falsified" for pr in case["probes"])


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
    first = V.verify_chain("M1", SMALL, cat).to_dict()
    second = V.verify_chain("M1", SMALL, cat).to_dict()
    first.pop("elapsed_s")
    second.pop("elapsed_s")
    assert first == second


# --- report schemas ---------------------------------------------------------------------

def test_report_key_sets_are_stable(cat):
    config_keys = {
        "samples", "endpoint_eps", "ratio_max", "ratio_samples", "epsilon",
    }
    kernel = V.verify_chain("M1", SMALL, cat).to_dict()
    assert set(kernel) == {"chain", "kind", "verdict", "config", "elapsed_s", "links"}
    assert kernel["config"] == dataclasses.asdict(SMALL)
    assert set(kernel["config"]) == config_keys
    assert set(kernel["links"][0]) == {"lhs", "rhs", "verdict", "min_margin", "argmin"}

    mean = V.verify_chain("M1c-i1", SMALL, cat).to_dict()
    assert set(mean) == {
        "chain", "kind", "verdict", "config", "elapsed_s", "links",
        "twin_max_deviation", "twin_tolerance_rel", "twin_ok",
    }

    flipped = V.verify_chain("M1", SMALL, C.flipped_catalog(cat, "M1", 0)).to_dict()
    bad = next(link for link in flipped["links"] if link["verdict"] == "falsified")
    assert set(bad) == {"lhs", "rhs", "verdict", "min_margin", "argmin", "witness"}
    assert set(bad["witness"]) == {"t", "lhs", "rhs", "margin"}

    probe = V.probe_sharpness("M1-lower", SMALL, cat).to_dict()
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
    wrong = V.verify_monotone("sinc", direction="increasing", config=SMALL)
    assert set(wrong) == monotone_keys | {"witness", "spot_witness"}
    assert set(wrong["witness"]) == {"t", "t_next", "value", "value_next"}
    assert set(wrong["spot_witness"]) == {"t", "value_left", "value_right"}
