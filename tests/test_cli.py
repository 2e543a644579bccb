"""Command-line surface: exit codes, document shape, precedence, determinism."""

import json
import os

import pytest

from quadhecke import cli
from quadhecke.cli import SCHEMA_VERSION, run


def _run(capsys, *argv):
    code = run(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# --- document shape -------------------------------------------------------------

def test_constants_document(capsys):
    doc = _run_json(capsys, "constants")
    assert doc["schema_version"] == SCHEMA_VERSION
    prov = doc["provenance"]
    assert prov["tool"] == "quadhecke"
    assert prov["command"] == "constants"
    res = doc["result"]
    assert abs(res["zetaK0"] + 0.25) < 1e-10
    assert "gamma_K" in res and "zetaK_prime_0_from_gamma_K" in res
    assert "elapsed_s" not in json.dumps(doc)


def test_sieve_document(capsys):
    doc = _run_json(capsys, "sieve", "--bound", "2000")
    res = doc["result"]
    assert res["bound"] == 2000
    assert res["n_primary_squarefree"] > 0
    assert res["n_family_with_units"] == 4 * res["n_primary_squarefree"]
    assert abs(res["squarefree_density"] - res["squarefree_density_limit"]) < 2e-3
    assert doc["provenance"]["config"]["bound"] == 2000


def test_density_document(capsys):
    doc = _run_json(capsys, "density", "--X", "80", "--phi", "fejer:1.2")
    res = doc["result"]
    assert res["X"] == 80.0
    assert res["sigma"] == 1.2
    assert "D_total" in res and "elapsed_s" not in res
    cfgecho = doc["provenance"]["config"]
    assert cfgecho["phi"] == "fejer:1.2"
    assert cfgecho["x"] == 80.0


def test_predict_first_order_document(capsys):
    doc = _run_json(capsys, "predict", "--X", "80", "--first-order")
    res = doc["result"]
    assert "D_ratios_first_order" in res
    assert "D_ratios_integral" not in res
    assert set(res["terms"]) == {"phi_hat0", "tail_integral", "conductor",
                                 "digamma_integral", "prime_even", "phi_hat1"}


def test_predict_integral_document(capsys):
    doc = _run_json(capsys, "predict", "--X", "80", "--T-cap", "100")
    res = doc["result"]
    assert "D_ratios_integral" in res and "integral_parts" in res
    assert doc["provenance"]["tolerances"]["t_cap"] == 100.0


def test_expand_document(capsys):
    doc = _run_json(capsys, "expand", "--M", "1", "--X-grid", "100",
                    "--route", "analytic")
    res = doc["result"]
    assert len(res["coefficients"]) == 1
    row = res["coefficients"][0]
    assert row["m"] == 1
    grid_row = res["grid"][0]
    assert grid_row["X"] == 100.0
    for key in ("J", "J_err_bound", "J_first_order", "thm_prediction"):
        assert key in grid_row


def test_compare_csv_document(capsys):
    code, out, err = _run(capsys, "compare", "--X-grid", "60,90",
                          "--M", "1", "--T-cap", "60", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    comments = [ln for ln in lines if ln.startswith("# ")]
    assert comments[0].startswith("# quadhecke")
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx].split(",") == list(cli.ratios.COMPARE_COLUMNS)
    data = [ln for ln in lines[header_idx + 1:] if ln]
    assert len(data) == 2
    for ln in data:
        for cell in ln.split(","):
            float(cell)


# --- config precedence ------------------------------------------------------------

def test_flag_overrides_config(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# comment line\nx = 50\nphi = fejer:1.2\n")
    doc = _run_json(capsys, "--config", str(cfgfile), "density", "--X", "70")
    echo = doc["provenance"]["config"]
    assert echo["x"] == 70.0          # flag wins
    assert echo["phi"] == "fejer:1.2"  # config fills the gap


def test_config_dashed_keys(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("t-cap = 80\nx = 60\n")
    doc = _run_json(capsys, "--config", str(cfgfile), "predict")
    assert doc["provenance"]["tolerances"]["t_cap"] == 80.0


def test_missing_config_file(capsys):
    code, out, err = _run(capsys, "--config", "/nonexistent/nope.cfg",
                          "constants")
    assert code == 1
    assert err.startswith("quadhecke: error[config]")


# --- error paths -------------------------------------------------------------------

def test_bad_phi_spec(capsys):
    code, out, err = _run(capsys, "density", "--X", "80", "--phi", "welch:1.0")
    assert code == 1
    assert err.startswith("quadhecke: error[config]")


def test_bad_subcommand(capsys):
    code, out, err = _run(capsys, "frobnicate")
    assert code == 1
    assert err.startswith("quadhecke: error[config]")


def test_bad_x(capsys):
    code, out, err = _run(capsys, "density", "--X", "0.5")
    assert code == 1
    assert "error[config]" in err


@pytest.mark.parametrize("argv", [
    ("density", "--X", "100", "--R-mult", "0"),
    ("density", "--X", "100", "--R-mult", "-1"),
    ("density", "--X", "100", "--threads", "0"),
    ("density", "--X", "100000", "--phi", "fejer:1.9"),
    ("compare", "--X-grid", "100", "--threads", "0"),
])
def test_bad_density_config(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert err.startswith("quadhecke: error[config]")
    assert out == ""


def test_bad_format(capsys):
    # argparse rejects the bad choice before the command runs
    code, out, err = _run(capsys, "compare", "--format", "xml")
    assert code == 1


# --- selftest ----------------------------------------------------------------------

def test_selftest_quick_passes(capsys):
    code, out, err = _run(capsys, "selftest", "--quick")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert all(ln.startswith("ok") for ln in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_selftest_impossible_tolerance(capsys):
    code, out, err = _run(capsys, "selftest", "--quick", "--tol-scale", "1e-12")
    assert code == 2
    assert err.startswith("quadhecke: error[tolerance]")
    assert any(ln.startswith("FAIL") for ln in capsys.readouterr().out.splitlines()
               ) or "FAIL" in out


# --- output files ------------------------------------------------------------------

def test_out_file_written_atomically(tmp_path, capsys):
    target = tmp_path / "consts.json"
    code, out, err = _run(capsys, "constants", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["provenance"]["command"] == "constants"
    leftovers = [p for p in os.listdir(tmp_path) if p != "consts.json"]
    assert leftovers == []


def test_repeat_runs_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["sieve", "--bound", "1500", "--out", str(path)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("quadhecke ")
