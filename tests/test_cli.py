"""Command-line surface: exit codes, document shape, precedence, determinism."""

import json
import os
import re

import pytest

from quadhecke import checks, cli
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


@pytest.mark.parametrize("channel", ["flag", "config"])
def test_predict_first_order_reads_no_grid(tmp_path, capsys, channel):
    # the closed form runs no axis integral: its grid and dual switch are
    # neither checked nor recorded
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("panel_h = 0.005\nt_cap = -5\nno_dual = true\n")
    if channel == "flag":
        argv = ("predict", "--X", "80", "--first-order", "--panel-h", "0.005",
                "--T-cap", "-5", "--no-dual")
    else:
        argv = ("--config", str(cfgfile), "predict", "--X", "80", "--first-order")
    doc = _run_json(capsys, *argv)
    prov = doc["provenance"]
    assert set(prov["config"]) == {"first_order", "phi", "r_mult", "threads",
                                   "weight", "x"}
    assert prov["tolerances"] == {}
    assert "D_ratios_first_order" in doc["result"]


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


# the provenance config keys of each command, and the flags it takes
PROVENANCE = [
    (("sieve", "--bound", "100"), {"bound"}, {"--bound", "--out"}),
    (("constants",), set(), {"--out"}),
    (("selftest", "--quick"), {"quick", "tol_scale"},
     {"--quick", "--tol-scale", "--out"}),
    (("density", "--X", "60"), {"phi", "r_mult", "threads", "weight", "x"},
     {"--X", "--phi", "--weight", "--R-mult", "--threads", "--out"}),
    (("predict", "--X", "60", "--T-cap", "60"),
     {"first_order", "no_dual", "panel_h", "phi", "r_mult", "t_cap", "threads",
      "weight", "x"},
     {"--X", "--phi", "--weight", "--R-mult", "--threads", "--first-order",
      "--no-dual", "--T-cap", "--panel-h", "--out"}),
    (("predict", "--X", "60", "--first-order"),
     {"first_order", "phi", "r_mult", "threads", "weight", "x"}, None),
    (("expand", "--M", "1"), {"cutoff", "m_order", "phi", "route", "weight"},
     {"--M", "--phi", "--weight", "--X-grid", "--route", "--cutoff", "--out"}),
    (("expand", "--M", "1", "--X-grid", "100"),
     {"cutoff", "m_order", "phi", "route", "weight", "x_grid"}, None),
    (("compare", "--X-grid", "60,90", "--M", "1", "--T-cap", "60", "--format", "json"),
     {"format", "m_order", "panel_h", "phi", "r_mult", "t_cap", "threads",
      "weight", "x_grid"},
     {"--X-grid", "--phi", "--weight", "--R-mult", "--threads", "--M",
      "--T-cap", "--panel-h", "--format", "--out"}),
]

# the CSV header of `compare --X-grid 60,90 --M 1 --T-cap 60 --format csv`,
# as recorded before the options moved into one table
COMPARE_CSV_HEADER = [
    "# quadhecke 0.1.0 compare", "# format=csv", "# m_order=1", "# panel_h=0.25",
    "# phi=fejer:1.5", "# r_mult=4.0", "# sieve_bound=360", "# t_cap=60.0",
    "# threads=1", "# weight=gaussian", "# x_grid=60,90",
]


def test_provenance_pinned(tmp_path, capsys, monkeypatch):
    code, out, err = _run(capsys, "compare", "--X-grid", "60,90", "--M", "1",
                          "--T-cap", "60", "--format", "csv")
    assert code == 0, err
    assert [ln for ln in out.splitlines() if ln.startswith("#")] == COMPARE_CSV_HEADER
    monkeypatch.setattr(checks, "CHECKS", (("one", "quick", lambda: (0.0, 1.0)),))
    for argv, keys, flags in PROVENANCE:
        path = tmp_path / f"{argv[0]}.json"
        assert run([*argv, "--out", str(path)]) == 0, argv
        assert set(json.loads(path.read_text())["provenance"]["config"]) == keys, argv
        if flags is not None:
            with pytest.raises(SystemExit) as exc:
                run([argv[0], "--help"])
            assert exc.value.code == 0
            listed = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
            assert listed == flags | {"--help"}, argv[0]


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


def _no_compute(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("computed before the options were checked")
    for owner, name in ((cli, "one_level_density"), (cli, "expansion_coefficients"),
                        (cli.ratios, "ratios_density"), (cli.ratios, "compare"),
                        (cli.zint, "primary_squarefree_arrays")):
        monkeypatch.setattr(owner, name, boom)


@pytest.mark.parametrize("command, line, key", [
    ("density", "X = 50", "X"),         # the flag's spelling, not the key's
    ("expand", "M = 1", "M"),
    ("predict", "t_capp = 5", "t_capp"),
    ("sieve", "x = 50", "x"),           # an option of other commands only
])
def test_config_key_not_taken(tmp_path, capsys, monkeypatch, command, line, key):
    # refused before any route runs, not dropped without a word
    _no_compute(monkeypatch)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(line + "\n")
    x = ("--X", "500") if command == "predict" else ()
    code, out, err = _run(capsys, "--config", str(cfgfile), command, *x)
    assert code == 1
    assert err == f"quadhecke: error[config]: config key {key}: not an option of {command}\n"
    assert out == ""


@pytest.mark.parametrize("command, line, message", [
    ("compare", "format = xml", "config key format: expected csv/json"),
    ("expand", "route = exact", "config key route: expected analytic/sieve"),
    ("selftest", "quick = yes", "config key quick: expected true/false"),
])
def test_bad_choice_config_key(tmp_path, capsys, monkeypatch, command, line, message):
    # a config value is held to the same allowed strings as its flag
    _no_compute(monkeypatch)
    monkeypatch.setattr(checks, "CHECKS", ())
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(line + "\n")
    code, out, err = _run(capsys, "--config", str(cfgfile), command)
    assert code == 1
    assert err == f"quadhecke: error[config]: {message}\n"
    assert out == ""


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


@pytest.mark.parametrize("command", ["density", "predict", "expand", "compare"])
@pytest.mark.parametrize("flag, value, message", [
    ("--phi", "welch:1.0", "bad test-function spec 'welch:1.0'"),
    ("--weight", "flat", "bad weight spec 'flat'"),
])
def test_bad_spec_is_a_config_error(capsys, command, flag, value, message):
    # the parsers raise ValueError; run() maps it to error[config], exit 1
    x = ("--X", "80") if command in ("density", "predict") else ()
    code, out, err = _run(capsys, command, *x, flag, value)
    assert code == 1
    assert err == f"quadhecke: error[config]: {message}\n"
    assert out == ""


def test_bad_subcommand(capsys):
    code, out, err = _run(capsys, "frobnicate")
    assert code == 1
    assert err.startswith("quadhecke: error[config]")


def test_bad_x(capsys):
    code, out, err = _run(capsys, "density", "--X", "0.5")
    assert code == 1
    assert "error[config]" in err


@pytest.mark.parametrize("command", ["expand", "compare"])
@pytest.mark.parametrize("grid", ["inf", "nan", "500,inf", "1e400"])
def test_non_finite_x_grid(capsys, command, grid):
    # rejected before any route runs, not reported as a tolerance failure
    code, out, err = _run(capsys, command, "--X-grid", grid)
    assert code == 1
    assert err.startswith("quadhecke: error[config]")
    assert out == ""


@pytest.mark.parametrize("grid", ["2", "500,2.5"])
def test_expand_grid_below_e(capsys, monkeypatch, grid):
    # J(X) needs X > e; the grid is refused before the coefficients are built
    def boom(*args, **kwargs):
        raise RuntimeError("expansion computed before the grid was checked")
    monkeypatch.setattr(cli, "expansion_coefficients", boom)
    code, out, err = _run(capsys, "expand", "--M", "1", "--X-grid", grid)
    assert code == 1
    assert err.startswith("quadhecke: error[config]")
    assert out == ""


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


@pytest.mark.parametrize("command", ["predict", "compare"])
@pytest.mark.parametrize("flag, value", [
    ("--panel-h", "-1"), ("--panel-h", "0"), ("--panel-h", "nan"),
    ("--T-cap", "-5"), ("--T-cap", "0"), ("--T-cap", "inf"),
])
def test_bad_quadrature_grid(capsys, monkeypatch, command, flag, value):
    # refused as configuration before any route runs, not computed into a
    # quiet wrong number or a tolerance failure
    def boom(*args, **kwargs):
        raise RuntimeError("computed before the quadrature grid was checked")
    for name in ("ratios_density", "ratios_first_order", "compare"):
        monkeypatch.setattr(cli.ratios, name, boom)
    x = ("--X", "500") if command == "predict" else ("--X-grid", "500")
    code, out, err = _run(capsys, command, *x, flag, value)
    assert code == 1
    assert err.startswith("quadhecke: error[config]: t-cap and panel-h")
    assert out == ""


@pytest.mark.parametrize("line", ["t_cap = -5", "panel-h = 0"])
def test_bad_quadrature_grid_config_key(tmp_path, capsys, line):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(line + "\n")
    code, out, err = _run(capsys, "--config", str(cfgfile), "predict", "--X", "500")
    assert code == 1
    assert err.startswith("quadhecke: error[config]: t-cap and panel-h")


@pytest.mark.parametrize("command", ["predict", "compare"])
def test_under_resolved_panel_width(capsys, monkeypatch, command):
    # a finite but far too wide panel is a configuration error, raised
    # before the profile, the expansion or the empirical route runs
    def boom(*args, **kwargs):
        raise RuntimeError("computed before the panel width was checked")
    for name in ("_axis_profile", "expansion_coefficients", "one_level_density"):
        monkeypatch.setattr(cli.ratios, name, boom)
    x = ("--X", "500") if command == "predict" else ("--X-grid", "500")
    code, out, err = _run(capsys, command, *x, "--panel-h", "1000")
    assert code == 1
    assert err.startswith("quadhecke: error[config]: panel width h=1000.0 under-resolves")
    assert out == ""


@pytest.mark.parametrize("command", ["predict", "compare"])
def test_panel_width_inside_pole_guard(capsys, monkeypatch, command):
    # a panel so narrow that its first node puts zeta_K(1 + 2it) inside the
    # pole guard is refused before any route runs, not raised mid-run
    def boom(*args, **kwargs):
        raise RuntimeError("computed before the first node was checked")
    for name in ("_axis_profile", "expansion_coefficients", "one_level_density"):
        monkeypatch.setattr(cli.ratios, name, boom)
    x = ("--X", "500") if command == "predict" else ("--X-grid", "500")
    code, out, err = _run(capsys, command, *x, "--panel-h", "0.005")
    assert code == 1
    assert err.startswith("quadhecke: error[config]: panel width h=0.005 puts the first "
                          "node t=4.61e-05 inside zeta_K's pole guard")
    assert out == ""


def test_internal_error_exit_code(capsys, monkeypatch):
    def boom(opts):
        raise RuntimeError("unexpected")
    monkeypatch.setitem(cli._COMMANDS, "constants", boom)
    code, out, err = _run(capsys, "constants")
    assert code == 3
    assert err.startswith("quadhecke: error[internal]: unexpected")


def test_internal_key_error_exit_code(capsys, monkeypatch):
    # a KeyError is a fault of the program, not of its configuration
    def boom(*args):
        return {}["missing"]
    monkeypatch.setitem(cli._COMMANDS, "constants", boom)
    code, out, err = _run(capsys, "constants")
    assert code == 3
    assert err == "quadhecke: error[internal]: 'missing'\n"


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


def test_selftest_impossible_tolerance(capsys, monkeypatch):
    monkeypatch.setattr(checks, "CHECKS", (("one", "quick", lambda: (1e-3, 1.0)),))
    code, out, err = _run(capsys, "selftest", "--quick", "--tol-scale", "1e-12")
    assert code == 2
    assert err.startswith("quadhecke: error[tolerance]")
    assert any(ln.startswith("FAIL") for ln in out.splitlines())


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_selftest_tol_scale_finite_positive(capsys, scale):
    # refused before the first check runs, not reported as a tolerance failure
    code, out, err = _run(capsys, "selftest", "--quick", "--tol-scale", scale)
    assert code == 1
    assert err.startswith("quadhecke: error[config]: tol-scale needs a finite value > 0")
    assert out == ""


def test_selftest_reports_a_raising_check(tmp_path, capsys, monkeypatch):
    # a check that raises ArithmeticError is a failed row; the rest still run
    def raises():
        raise ArithmeticError("methods disagree")
    monkeypatch.setattr(checks, "CHECKS", (("raises", "quick", raises),
                                           ("passes", "quick", lambda: (0.0, 1.0))))
    path = tmp_path / "selftest.json"
    code, out, err = _run(capsys, "selftest", "--quick", "--out", str(path))
    assert code == 2
    assert err.startswith("quadhecke: error[tolerance]")
    lines = out.splitlines()
    assert lines[0].startswith("FAIL raises ")
    assert lines[0].endswith("raised: methods disagree")
    assert lines[1].startswith("ok   passes ")
    assert lines[2] == "1/2 checks passed"
    doc = json.loads(path.read_text())
    first, second = doc["result"]["checks"]
    assert first == {"check": "raises", "error": "methods disagree", "ok": False}
    assert second["ok"] and second["residual"] == 0.0
    assert doc["result"]["failures"] == 1
    assert set(doc["provenance"]["tolerances"]) == {"passes"}


def test_selftest_other_exception_is_internal(capsys, monkeypatch):
    def boom():
        raise RuntimeError("unexpected")
    monkeypatch.setattr(checks, "CHECKS", (("boom", "quick", boom),))
    code, out, err = _run(capsys, "selftest", "--quick")
    assert code == 3
    assert err.startswith("quadhecke: error[internal]: unexpected")


def test_selftest_out_document(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert run(["selftest", "--quick", "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    doc = json.loads(paths[0].read_text())
    quick = {name: fn()[1] for name, tier, fn in checks.CHECKS if tier == "quick"}
    assert [c["check"] for c in doc["result"]["checks"]] == list(quick)
    assert doc["result"]["failures"] == 0
    assert doc["provenance"]["tolerances"] == pytest.approx(quick, rel=1e-14)


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
