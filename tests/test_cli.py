import json
import math
from pathlib import Path

import pytest

import resodyn.cli as cli
from resodyn.config import load_config
from resodyn.errors import ConfigurationError
from resodyn.semiflow import IntegratorSettings

REPO = Path(__file__).resolve().parents[1]
ARCTAN_CFG = REPO / "configs" / "arctan40_resonant.ini"
JSON_CFG = REPO / "configs" / "two_component.json"


def test_load_config_ini():
    exp = load_config(ARCTAN_CFG)
    assert exp.problem.m == 1
    assert exp.problem.lam[0] == exp.basis.mu[0]
    assert exp.field.name == "arctan(40)"
    assert exp.run["s_grid"] == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_load_config_json():
    exp = load_config(JSON_CFG)
    assert exp.problem.m == 2
    assert exp.problem.lam == (float(exp.basis.mu[0]),) * 2


@pytest.mark.parametrize("path", sorted((REPO / "configs").iterdir()), ids=lambda p: p.name)
def test_shipped_configs_load(path):
    exp = load_config(path)
    run = exp.run
    settings = IntegratorSettings(dt=run["dt"], T=run["T"], scheme=run["scheme"])
    assert settings.nsteps * settings.dt == pytest.approx(run["T"], rel=1e-12)


def test_ini_run_keys_match_in_any_case(tmp_path):
    # configparser lowercases keys: margin_R_grid arrives as margin_r_grid
    path = tmp_path / "grid.ini"
    path.write_text(
        "[domain]\nJ = 8\nquad_nodes = 32\n"
        "[system]\nm = 1\nl = 1\nlambda = mu(1)\nsigma = 0\n"
        "[field]\nname = arctan(40)\n"
        "[run]\nT = 2\nmargin_R_grid = 5, 20\n")
    run = load_config(path).run
    assert run["T"] == 2.0
    assert run["margin_R_grid"] == (5.0, 20.0)
    assert "margin_r_grid" not in run


def test_unknown_run_key_exit_code(tmp_path, capsys):
    bad = tmp_path / "typo.ini"
    bad.write_text(
        "[domain]\nJ = 8\nquad_nodes = 32\n"
        "[system]\nm = 1\nl = 1\nlambda = mu(1)\nsigma = 0\n"
        "[field]\nname = arctan(40)\n"
        "[run]\ntypo_key = 5\n")
    assert cli.run_subcommand("index", bad, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "typo_key" in err and "margin_R_grid" in err


@pytest.mark.parametrize("section,line,named,listed", [
    ("system", "sigam = 0.5", "'sigam'", "resonance_tol"),
    ("system", "p_note = 2", "'p_note'", "resonance_tol"),
    ("domain", "lenght = 2", "'lenght'", "quad_nodes"),
    ("field", "gain = 3", "'gain'", "name, h"),
    ("output", "dir = x", "[output]", "domain, system, field, run"),
    ("Run", "T = 2", "[Run]", "domain, system, field, run"),
], ids=["system", "p_note", "domain", "field", "section", "section-case"])
def test_unknown_key_or_section_exit_code(tmp_path, capsys, section, line, named, listed):
    sections = {"domain": ["J = 8", "quad_nodes = 32"],
                "system": ["m = 1", "l = 1", "lambda = mu(1)", "sigma = 0"],
                "field": ["name = arctan(40)"]}
    sections.setdefault(section, []).append(line)
    bad = tmp_path / "typo.ini"
    bad.write_text("".join(f"[{name}]\n" + "".join(f"{entry}\n" for entry in entries)
                           for name, entries in sections.items()))
    assert cli.run_subcommand("index", bad, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert named in err and listed in err


def test_json_keys_match_in_any_case(tmp_path):
    path = tmp_path / "cased.json"
    path.write_text(json.dumps({
        "domain": {"J": 8, "Quad_Nodes": 40, "LENGTH": 2.0},
        "system": {"M": 1, "L": 1, "Lambda": "mu(1)", "Sigma": 0, "Resonance_Tol": 1e-6},
        "field": {"Name": "arctan(40)"}}))
    exp = load_config(path)
    assert exp.basis.x.size == 40 and exp.basis.domain.length == 2.0
    assert exp.problem.lam == (float(exp.basis.mu[0]),)
    assert exp.field.name == "arctan(40)"


def test_etd_overflow_exit_code(tmp_path, capsys):
    path = tmp_path / "overflow.ini"
    path.write_text(
        "[domain]\nJ = 32\nquad_nodes = 80\n"
        "[system]\nm = 1\nl = 1\nlambda = mu(30)\nsigma = 0\n"
        "[field]\nname = arctan(40)\n"
        "[run]\ndt = 0.1\nT = 1\ns_grid = 1\nseeds = 1\n"
        "margin_R_grid = 5\nmargin_samples = 2\nll_samples = 4\n")
    assert cli.run_subcommand("simulate", path, out_dir=tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "stage 'simulate'" in err and "(k=1, j=1)" in err


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(tmp_path / "nope.ini")


def test_index_subcommand_report(tmp_path):
    code = cli.run_subcommand("index", ARCTAN_CFG, out_dir=tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    idx = report["stages"]["index"]
    assert idx["h_K_infinity"] == "Sphere(1)"
    assert idx["d0"] == 2
    assert idx["connection_predicted"] is True
    assert idx["theorem_applied"] == "plus_plus"
    assert report["stages"]["simulate"] == "skipped"
    assert report["verdicts"]["ll"]["LL1+"] == "holds"


def test_spectrum_subcommand_csv(tmp_path):
    code = cli.run_subcommand("spectrum", ARCTAN_CFG, out_dir=tmp_path)
    assert code == 0
    lines = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "j,mu"
    values = [float(line.split(",")[1]) for line in lines[1:4]]
    expected = [math.pi ** 2, 4 * math.pi ** 2, 9 * math.pi ** 2]
    for got, want in zip(values, expected):
        assert got == pytest.approx(want, abs=1e-10)


def test_malformed_degrees_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(
        "[domain]\nJ = 8\nquad_nodes = 32\n"
        "[system]\nm = 2\nl = 1\nlambda = mu(1), mu(1)\nsigma = 1, 1\n"
        "[field]\nname = arctan(40)\n")
    code = cli.run_subcommand("index", bad, out_dir=tmp_path / "out")
    assert code == 2


def test_unknown_subcommand():
    assert cli.run_subcommand("bogus", ARCTAN_CFG) == 2


def test_runtime_error_exit_code(tmp_path, monkeypatch):
    def boom(exp, ctx):
        raise RuntimeError("stage exploded")

    monkeypatch.setitem(cli._STAGE_FUNCS, "decompose", boom)
    code = cli.run_subcommand("decompose", ARCTAN_CFG, out_dir=tmp_path)
    assert code == 1


def test_reports_are_reproducible(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli.run_subcommand("index", ARCTAN_CFG, out_dir=out1, seed=42) == 0
    assert cli.run_subcommand("index", ARCTAN_CFG, out_dir=out2, seed=42) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_decompose_json_config(tmp_path):
    code = cli.run_subcommand("decompose", JSON_CFG, out_dir=tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    dec = report["stages"]["decompose"]
    assert dec["counts"] == {"d_inf": 0, "n1": 1, "n2": 1}


def test_s_grid_override(tmp_path):
    code = cli.run_subcommand("decompose", ARCTAN_CFG, out_dir=tmp_path,
                              s_grid=[0.0, 1.0])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["stages"]["decompose"]["resonance_warning"] is False


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(
        "[domain]\nJ = 8\nquad_nodes = 32\n"
        "[system]\nm = 1\nl = 1\nlambda = mu(1)\nsigma = 0\n"
        "[field]\nname = arctan(40)\n"
        "[run]\ndt = 1e-3\nT = 4\ns_grid = 0, 1\nseeds = 2\n"
        "eps_grid = 1e-3\nseed = 5\nmargin_R_grid = 5, 20\nmargin_samples = 8\n")
    return path


def test_simulate_subcommand_outputs(tmp_path, small_config):
    out = tmp_path / "sim"
    assert cli.run_subcommand("simulate", small_config, out_dir=out) == 0
    report = json.loads((out / "report.json").read_text())
    sim = report["stages"]["simulate"]
    assert len(sim["runs"]) == 4  # 2 seeds x 2 homotopy values
    for run in sim["runs"]:
        assert set(run) >= {"label", "s", "stayed_in_box", "bound_report"}
    assert (out / "margins.csv").exists()
    assert any((out / "trajectories").glob("seed*.csv"))


def test_connect_subcommand_finds_orbit(tmp_path, small_config):
    out = tmp_path / "conn"
    assert cli.run_subcommand("connect", small_config, out_dir=out) == 0
    report = json.loads((out / "report.json").read_text())
    conn = report["stages"]["connect"]
    assert conn["connection_predicted"] is True
    assert conn["connections_found"] >= 1
    assert any(e["outcome"] == "connected" for e in conn["shots"])
    assert any((out / "trajectories").glob("connection_*.csv"))


def test_verdict_fields_complete(tmp_path):
    assert cli.run_subcommand("index", ARCTAN_CFG, out_dir=tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    verdicts = report["verdicts"]
    for key in ("ll", "conditions", "connection_predicted",
                "unbounded_runs", "connections_found"):
        assert key in verdicts
        assert verdicts[key] is not None
    # stages outside the chain are explicitly marked
    assert report["stages"]["connect"] == "skipped"


def test_main_entrypoint(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--config", str(ARCTAN_CFG), "--out", str(tmp_path)])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "resodyn spectrum: ok" in out
