"""End-to-end CLI coverage via cli.main(argv): exit codes, output shapes, JSON."""

import csv
import dataclasses
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from ineqforge import catalog as C
from ineqforge import cli
from ineqforge import kernels as K
from ineqforge import verifier as V

FAST = ["--samples", "801"]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- list ------------------------------------------------------------------------

def test_list_default_prints_all_sections(capsys):
    code, out, err = run(capsys, "list")
    assert code == 0 and err == ""
    assert "chains:" in out and "probes:" in out and "kernels:" in out
    assert "M1" in out and "M1-lower" in out and "sinc" in out
    assert "asymptote=0.735759" in out  # k_ratio has probe points


def test_list_single_section(capsys):
    code, out, err = run(capsys, "list", "--probes")
    assert code == 0
    assert "probes:" in out
    assert "chains:" not in out and "kernels:" not in out


def test_list_prints_each_mean_chains_counterpart(capsys):
    code, out, err = run(capsys, "list", "--chains")
    assert code == 0
    rows = {line.split()[0]: line for line in out.splitlines()[1:]}
    assert rows["M1c-i1"].endswith("scale A, counterpart M1c[0,3,4,5,7]")
    assert rows["M2c3-i"].endswith("scale A, counterpart M23c[3] M2c3[0,1,2]")
    assert rows["M2c2-i"].endswith("scale A**2, counterpart M2c2[0,1,2,3,4,5,6]")
    assert "counterpart" not in rows["M1c"]


# --- verify ---------------------------------------------------------------------

def test_verify_good_chain_exits_zero(capsys):
    code, out, err = run(capsys, "verify", "M1", *FAST)
    assert code == 0 and err == ""
    assert "chain M1 [kernel]: verified_numeric" in out
    assert "min margin" in out


def test_verify_mean_chain_reports_twin_margins(capsys):
    code, out, err = run(capsys, "verify", "M1c-i1", *FAST)
    assert code == 0
    assert "twin margins: max deviation" in out
    assert "(ok)" in out


def test_verify_prints_the_witness_of_a_flipped_link(capsys, monkeypatch):
    flipped = C.flipped_catalog(C.load_catalog(), "M1", 0)
    monkeypatch.setattr(V, "load_catalog", lambda: flipped)
    code, out, err = run(capsys, "verify", "M1", *FAST)
    assert code == 1 and "chain M1 [kernel]: falsified" in out
    printed = [json.loads(line.split("witness: ", 1)[1])
               for line in out.splitlines() if "witness: " in line]
    report = V.verify_chain(flipped.get_chain("M1"), V.VerificationConfig(samples=801))
    assert printed and printed == [link.witness for link in report.links if link.witness]


def test_verify_prints_the_note_of_a_degenerate_link(capsys, monkeypatch):
    source = C.load_catalog()
    chain = source.get_chain("M1")
    twice = dataclasses.replace(chain, members=chain.members[:1] * 2,
                                member_fns=chain.member_fns[:1] * 2)
    monkeypatch.setattr(V, "load_catalog", lambda: C.Catalog({"M1": twice}, {}))
    code, out, err = run(capsys, "verify", "M1", *FAST)
    assert code == 1
    assert "    note: degenerate: both sides are numerically identical across the grid" in out


def test_verify_unknown_chain_exits_two(capsys):
    code, out, err = run(capsys, "verify", "no-such-chain", *FAST)
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert "M1" in err  # the message lists what is available


def test_verify_json_to_stdout_parses(capsys):
    code, out, err = run(capsys, "verify", "M23c", "--json", "-", *FAST)
    assert code == 0
    payload = json.loads(out)  # stdout carries the JSON document and nothing else
    assert "chain M23c [kernel]: verified_numeric" in err
    assert payload["chain"] == "M23c"
    assert payload["verdict"] == "verified_numeric"
    assert len(payload["links"]) >= 1


def test_verify_json_to_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "M1", "--json", str(target), *FAST)
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["chain"] == "M1"


def test_verify_mean_chain_json_carries_the_full_config(capsys):
    code, out, err = run(capsys, "verify", "M1c-i1", "--json", "-")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["samples"] == 20001
    assert payload["config"]["ratio_samples"] == 100
    assert payload["twin_ok"] is True and payload["twin_tolerance_rel"] == 1e-10


@pytest.mark.parametrize("argv", [
    ("table", "sinc", "--count", "3", "--csv"),
    ("verify", "M1", "--samples", "101", "--json"),
])
def test_unwritable_output_path_exits_two(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "out"
    code, out, err = run(capsys, *argv, str(target))
    assert code == 2
    assert err.splitlines()[-1].startswith("error: cannot write") and str(target) in err


# --- sharpness --------------------------------------------------------------------

def test_sharpness_falsifies_and_exits_zero(capsys):
    code, out, err = run(capsys, "sharpness", "M1-lower", *FAST)
    assert code == 0 and err == ""
    assert "verdict: falsified" in out
    assert "witness:" in out


def test_sharpness_unknown_probe_exits_two(capsys):
    code, out, err = run(capsys, "sharpness", "nope", *FAST)
    assert code == 2
    assert "error:" in err


def test_sharpness_non_real_member_value_exits_two(capsys):
    # epsilon 2 pushes cos(p t) negative, so the member value turns complex
    code, out, err = run(capsys, "sharpness", "M1-upper", "--epsilon", "2", "--samples", "101")
    assert code == 2
    assert "error:" in err and "M1-upper" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sharpness", "M1-lower", *FAST],
        ["constants"],
        ["means", "--a", "1", "--b", "3"],
        ["suite", *FAST],
    ],
    ids=["sharpness", "constants", "means", "suite"],
)
def test_json_dash_puts_only_json_on_stdout(capsys, argv):
    code, out, err = run(capsys, *argv, "--json", "-")
    assert code == 0
    json.loads(out)
    assert err.strip()  # the human-readable lines moved to stderr


def test_sharpness_json(capsys, tmp_path):
    target = tmp_path / "probe.json"
    code, out, err = run(capsys, "sharpness", "M6a-p", "--json", str(target), *FAST)
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["verdict"] == "falsified"
    lo, hi = payload["interval"]
    assert lo <= payload["witness"]["t"] <= hi


# --- constants ----------------------------------------------------------------------

def test_constants_prints_values_and_residuals(capsys):
    code, out, err = run(capsys, "constants")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("p1 = 0.65055367") for line in lines)
    assert any(line.startswith("p0 = 0.34730724") for line in lines)
    assert all("(residual" in line for line in lines)
    assert any(line.startswith("ln3 = ") for line in lines)


def test_constants_json_residuals_are_small(capsys, tmp_path):
    target = tmp_path / "constants.json"
    code, out, err = run(capsys, "constants", "--json", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    byname = {entry["name"]: entry for entry in payload}
    assert len(byname) == 12
    assert abs(byname["p1"]["value"] - 0.6505536797606640) < 1e-15
    for entry in payload:
        assert abs(entry["residual"]) < 1e-13


# --- means -------------------------------------------------------------------------

def test_means_output_for_1_3(capsys):
    code, out, err = run(capsys, "means", "--a", "1", "--b", "3")
    assert code == 0
    assert "= 1.9098593171027438" in out  # first Seiffert mean of (1, 3)
    assert "power(r=2/3)" in out


def test_means_json_round_trip(capsys, tmp_path):
    target = tmp_path / "means.json"
    code, out, err = run(capsys, "means", "--a", "1", "--b", "3", "--json", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["A"] == 2.0
    assert payload["P"] == pytest.approx(1.9098593171027440292, rel=1e-15)
    assert "power(r=2/3)" in payload
    assert len(payload) == 12


def test_means_with_a_subnormal_argument(capsys, tmp_path):
    target = tmp_path / "means.json"
    code, out, err = run(capsys, "means", "--a", "1.7e308", "--b", "5e-324", "--json", str(target))
    assert code == 0, err
    payload = json.loads(target.read_text())
    # I is about a/e; exp(h) alone would overflow
    assert payload["I"] == pytest.approx(6.2539504999145192e307, rel=1e-12)
    assert all(5e-324 <= v <= 1.7e308 for v in payload.values())


def test_means_rejects_bad_pair(capsys):
    code, out, err = run(capsys, "means", "--a", "-1", "--b", "3")
    assert code == 2
    assert "error:" in err


# --- table --------------------------------------------------------------------------

def test_table_csv_shape_and_determinism(capsys, tmp_path):
    code, out, err = run(capsys, "table", "sinc", "--start", "0.1", "--stop", "1.0",
                         "--count", "10")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "value"]
    assert len(rows) == 11
    # values are full-precision reprs that survive a float round trip
    assert float(rows[1][0]) == 0.1
    assert rows[1][1] == repr(__import__("math").sin(0.1) / 0.1)
    code2, out2, err2 = run(capsys, "table", "sinc", "--start", "0.1", "--stop", "1.0",
                            "--count", "10")
    assert out2 == out


def test_table_to_file(capsys, tmp_path):
    target = tmp_path / "k.csv"
    code, out, err = run(capsys, "table", "u(p=-1)", "--count", "5",
                         "--csv", str(target))
    assert code == 0 and out == ""
    with target.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t", "value"]
    assert len(rows) == 6


def test_table_bad_range_and_count(capsys):
    code, out, err = run(capsys, "table", "sinc", "--start", "1.0", "--stop", "0.5")
    assert code == 2 and "empty range" in err
    code, out, err = run(capsys, "table", "sinc", "--count", "1")
    assert code == 2 and "--count" in err


def test_table_last_row_is_stop(capsys):
    # start + 25 * step rounds to 1.5707963267948968, past pi/2 and out of
    # U's domain; the last row must be stop itself
    stop = "1.5707963267948966"
    code, out, err = run(capsys, "table", "U(p=0.5)", "--start", "0", "--stop", stop,
                         "--count", "26")
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 27 and rows[-1][0] == repr(float(stop))


def test_table_default_range_is_the_verifier_inset(capsys):
    code, out, err = run(capsys, "table", "sinc", "--count", "3")
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))
    kernel = K.get_kernel("sinc")
    lo, hi = V._inset(kernel.lo, kernel.hi, V.VerificationConfig().endpoint_eps)
    assert (rows[1][0], rows[-1][0]) == (repr(lo), repr(hi))


def test_table_rows_are_linspace(capsys):
    code, out, err = run(capsys, "table", "sinc", "--start", "0.1", "--stop", "1.5",
                         "--count", "200")
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [float(t) for t, _ in rows] == np.linspace(0.1, 1.5, 200).tolist()


@pytest.mark.parametrize(
    "argv, eps",
    [
        (["verify", "M1", "--endpoint-eps", "5e-17"], 5e-17),
        (["sharpness", "M1-upper", "--endpoint-eps", "5e-17"], 5e-17),
        (["suite", "--endpoint-eps", "1e-320"], 1e-320),
    ],
)
def test_endpoint_eps_too_small_to_move_a_domain_end_exits_2(capsys, argv, eps):
    code, out, err = run(capsys, *argv, *FAST)
    assert code == 2 and out == ""
    assert err.startswith(
        f"error: endpoint_eps={eps!r} is too small for the domain (0.0, 1.5707963267948966)"
    )


def test_table_arithmetic_failure_names_t(capsys):
    code, out, err = run(capsys, "table", "sinhc", "--start", "1", "--stop", "1000",
                         "--count", "3")
    assert code == 2
    assert err.startswith("error: sinhc fails at t=1000.0")


def test_table_failure_leaves_no_partial_file(capsys, tmp_path):
    target = tmp_path / "part.csv"
    code, out, err = run(capsys, "table", "sinhc", "--start", "1", "--stop", "1000",
                         "--count", "3", "--csv", str(target))
    assert code == 2
    assert err.startswith("error: sinhc fails at t=1000.0")
    assert not target.exists()


def test_pipe_closed_early_exits_one_without_a_traceback(child_env):
    # 200000 rows overfill any pipe buffer, so the writer is still writing
    # when the reader goes away after the first line
    with subprocess.Popen(
        [sys.executable, "-m", "ineqforge.cli", "table", "sinc", "--count", "200000"],
        env=child_env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert first == b"t,value\r\n"
    assert proc.returncode == 1
    assert err == b""


def test_table_unknown_kernel(capsys):
    code, out, err = run(capsys, "table", "wat")
    assert code == 2
    assert "error:" in err and "sinc" in err


# --- suite ---------------------------------------------------------------------------

def test_suite_small_passes_with_one_line_per_check(capsys, tmp_path):
    target = tmp_path / "suite.json"
    code, out, err = run(capsys, "suite", *FAST, "--json", str(target))
    assert code == 0
    lines = out.splitlines()
    marks = [line.split()[0] for line in lines[:-1]]
    assert set(marks) == {"PASS"}
    assert any("chain:M1 " in line for line in lines)
    assert any(line.startswith("PASS probe:") for line in lines)
    assert "checks passed" in lines[-1]
    payload = json.loads(target.read_text())
    assert payload["passed"] is True
    assert len(payload["rows"]) == len(lines) - 1


# --- config file handling -------------------------------------------------------------

def test_config_file_is_read(capsys, tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("samples = 801\nepsilon = 0.001  # comment\n\n")
    code, out, err = run(capsys, "verify", "M1", "--config", str(cfg))
    assert code == 0


def test_flag_beats_config_file(capsys, tmp_path):
    cfg = tmp_path / "verify.cfg"
    # samples=2 would be rejected by VerificationConfig; the flag must win
    cfg.write_text("samples = 2\n")
    code, out, err = run(capsys, "verify", "M1", "--config", str(cfg),
                         "--samples", "801")
    assert code == 0


def test_config_file_errors(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "M1", "--config", str(tmp_path / "missing.cfg"))
    assert code == 2 and "cannot read config file" in err
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense\n")
    code, out, err = run(capsys, "verify", "M1", "--config", str(bad))
    assert code == 2 and "expected key=value" in err
    bad.write_text("volume = 11\n")
    code, out, err = run(capsys, "verify", "M1", "--config", str(bad))
    assert code == 2 and "unknown key" in err
    bad.write_text("samples = many\n")
    code, out, err = run(capsys, "verify", "M1", "--config", str(bad))
    assert code == 2 and "cannot parse value" in err


def test_config_file_that_is_not_utf8_is_an_error(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "verify", "M1", "--config", str(bad))
    assert code == 2
    assert err == f"error: cannot read config file {str(bad)!r}: not UTF-8 (byte 0)\n"
    assert out == ""


def test_invalid_config_value_is_a_clean_error(capsys):
    code, out, err = run(capsys, "verify", "M1", "--samples", "2")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("config", [None, "refine_depth = 20\n"])
def test_refine_depth_is_gone_from_flags_and_config_files(tmp_path, child_env, config):
    argv = ["verify", "M1"]
    if config is None:
        argv += ["--refine-depth", "20"]
    else:
        path = tmp_path / "old.cfg"
        path.write_text(config)
        argv += ["--config", str(path)]
    proc = subprocess.run(
        [sys.executable, "-m", "ineqforge.cli", *argv],
        env=child_env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "refine" in proc.stderr and "Traceback" not in proc.stderr
