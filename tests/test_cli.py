import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
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


_SMALL_SECTIONS = {"domain": ["J = 8", "quad_nodes = 32"],
                   "system": ["m = 1", "l = 1", "lambda = mu(1)", "sigma = 0"],
                   "field": ["name = arctan(40)"]}


def _write_ini(path, sections):
    path.write_text("".join(f"[{name}]\n" + "".join(f"{entry}\n" for entry in entries)
                            for name, entries in sections.items()))
    return path


@pytest.mark.parametrize("section,key", [("system", "m"), ("system", "l"),
                                         ("system", "lambda"), ("field", "name")])
def test_missing_required_key_exit_code(tmp_path, capsys, section, key):
    sections = {name: [entry for entry in entries if not entry.startswith(f"{key} =")]
                for name, entries in _SMALL_SECTIONS.items()}
    bad = _write_ini(tmp_path / "missing.ini", sections)
    assert cli.run_subcommand("index", bad, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert f"missing the required key '{key}' in [{section}]" in err


@pytest.mark.parametrize("section,entry,named", [
    ("domain", "J = 2.5", "[domain] J = '2.5' is not a whole number"),
    ("field", "h = nan", "[field] h = 'nan' must be finite"),
    ("run", "seeds = -1", "[run] seeds = -1 must be >= 0"),
    ("run", "ll_samples = -5", "[run] ll_samples = -5 must be >= 1"),
    ("run", "margin_R_grid =", "[run] margin_R_grid needs at least one value"),
    ("system", "lambda = nan", "[system] lambda = 'nan' must be finite"),
    ("run", "dt = nan", "[run] dt = 'nan' must be finite"),
    ("run", "T = 1e300", "passes the cap MAX_STEPS"),
    # a value's output files are named by its %g label; one label, one file lost
    ("run", "s_grid = 0.25, 0.2500001",
     "[run] s_grid values 0.25 and 0.2500001 share the label '0.25'"),
    ("run", "s_grid = 0.5, 0.5", "[run] s_grid values 0.5 and 0.5 share the label '0.5'"),
    ("run", "eps_grid = 1e-3, 0.0010000001",
     "[run] eps_grid values 0.001 and 0.0010000001 share the label '0.001'"),
    ("run", "margin_R_grid = -5, 0", "[run] margin_R_grid = -5.0 must be positive"),
    ("run", "margin_R_grid = 5, 0", "[run] margin_R_grid = 0.0 must be positive"),
    ("run", "eps_grid = 1e-3, 0", "[run] eps_grid = 0.0 shoots from the equilibrium itself"),
], ids=["J", "h", "seeds", "ll_samples", "margin_R_grid", "lambda", "dt", "nsteps",
        "s_grid_labels", "s_grid_duplicate", "eps_grid_labels", "margin_R_negative",
        "margin_R_zero", "eps_zero"])
def test_bad_number_or_count_exit_code(tmp_path, capsys, section, entry, named):
    # every case is caught at load, before any stage runs or marches
    key = entry.split("=")[0]
    sections = {name: [e for e in entries if not e.startswith(key)]
                for name, entries in _SMALL_SECTIONS.items()}
    sections.setdefault(section, []).append(entry)
    bad = _write_ini(tmp_path / "bad.ini", sections)
    assert cli.run_subcommand("index", bad, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "stage 'load'" in err and named in err


@pytest.mark.parametrize("overrides,named", [
    ({"seed": -1}, "[run] seed = -1 must be >= 0"),
    ({"s_grid": [0.0, float("nan")]}, "[run] s_grid = nan must be finite"),
    ({"s_grid": []}, "[run] s_grid needs at least one value"),
    ({"s_grid": [0.0, 0.25, 0.2500001]},
     "[run] s_grid values 0.25 and 0.2500001 share the label '0.25'"),
])
def test_bad_command_line_override_exit_code(tmp_path, capsys, overrides, named):
    assert cli.run_subcommand("decompose", ARCTAN_CFG, out_dir=tmp_path, **overrides) == 2
    assert named in capsys.readouterr().err


def test_bad_s_grid_flag_exit_code(tmp_path, capsys):
    # the flag's text goes through the same checks as the file's [run] s_grid
    with pytest.raises(SystemExit) as exc:
        cli.main(["decompose", "--config", str(ARCTAN_CFG), "--out", str(tmp_path),
                  "--s-grid", "0,x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "stage 'load'" in err and "[run] s_grid = 'x' is not a number" in err


@pytest.mark.parametrize("name,text,named", [
    ("syntax.json", '{"domain": {J: 8}}', "Expecting property name"),
    ("headerless.ini", "J = 8\n[domain]\n", "no section headers"),
    ("section.json", '{"domain": 5}', "section [domain] must be an object of keys, not int"),
    ("scalar.json", "5", "must hold an object of sections, not int"),
    ("directory.ini", None, "not a file"),
], ids=["json-syntax", "ini-header", "json-section", "json-scalar", "directory"])
def test_malformed_experiment_file_exit_code(tmp_path, capsys, name, text, named):
    path = tmp_path / name
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    assert cli.run_subcommand("index", path, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "stage 'load'" in err and named in err


@pytest.mark.parametrize("J,ok", [(8.0, True), ("8", True), (8.5, False), (True, False)])
def test_json_counts_are_not_truncated(tmp_path, J, ok):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps({
        "domain": {"J": J, "quad_nodes": 32},
        "system": {"m": 1, "l": 1, "lambda": "mu(1)", "sigma": 0},
        "field": {"name": "arctan(40)"}}))
    if ok:
        assert load_config(path).basis.J == 8
    else:
        with pytest.raises(ConfigurationError, match="whole number"):
            load_config(path)


@pytest.mark.parametrize("name,named", [("arctan(1,2,3)", "got 3"),
                                        ("scaled-arctan(0, 0.5)", "gain must be nonzero")])
def test_bad_field_spec_exit_code(tmp_path, capsys, name, named):
    bad = _write_ini(tmp_path / "field.ini", {**_SMALL_SECTIONS, "field": [f"name = {name}"]})
    assert cli.run_subcommand("index", bad, out_dir=tmp_path / "out") == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("system,component", [
    (["m = 1", "l = 1", "lambda = mu(1)", "sigma = 0"], 1),
    (["m = 2", "l = 1", "lambda = mu(1), mu(1)", "sigma = 0.5, 0"], 2),
])
def test_sigma_must_match_field_degrees(tmp_path, capsys, system, component):
    bad = _write_ini(tmp_path / "sigma.ini", {**_SMALL_SECTIONS, "system": system,
                                               "field": ["name = scaled-arctan(40, 0.5)"]})
    assert cli.run_subcommand("index", bad, out_dir=tmp_path / "out") == 2
    assert f"sigma of component {component} is 0," in capsys.readouterr().err


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
    # the march's factors are checked when the config loads, before any stage
    assert cli.run_subcommand("simulate", path, out_dir=tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "stage 'load'" in err and "(k=1, j=1)" in err


def test_connect_marches_with_the_configured_scheme(tmp_path, capsys):
    # IMEX-Euler at dt = 1e-3 is unstable on this spectrum: the config is
    # refused when it loads, before any stage runs
    path = tmp_path / "imex.ini"
    path.write_text((REPO / "configs" / "arctan40_resonant.ini").read_text()
                    .replace("scheme = ETD1", "scheme = IMEX-Euler"))
    assert cli.run_subcommand("connect", path, out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "stage 'load'" in err and "IMEX-Euler requires dt" in err
    # under the IMEX-Euler limit (0.25 / (63 pi^2) at J = 8), connect shoots
    # with the configured scheme: the shots miss on the short horizon, and
    # their closest approaches differ from those of ETD1
    closest = {}
    for scheme in ("ETD1", "IMEX-Euler"):
        path = _write_ini(tmp_path / f"{scheme}.ini", {
            "domain": ["J = 8", "quad_nodes = 32"],
            "system": ["m = 1", "l = 1", "lambda = mu(1)", "sigma = 0"],
            "field": ["name = arctan(40)"],
            "run": [f"scheme = {scheme}", "dt = 2.5e-4", "T = 0.25", "ll_samples = 4"]})
        assert load_config(path).settings.scheme == scheme
        out = tmp_path / scheme
        assert cli.run_subcommand("connect", path, out_dir=out) == 0
        shots = json.loads((out / "report.json").read_text())["stages"]["connect"]["shots"]
        assert len(shots) == 4 and {shot["outcome"] for shot in shots} == {"miss"}
        closest[scheme] = [shot["closest_distance"] for shot in shots]
    assert closest["ETD1"] != closest["IMEX-Euler"]


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


def test_failed_stage_writes_no_file(tmp_path, monkeypatch, small_config):
    # files are written only after every stage has returned
    def boom(exp, stages, files):
        raise RuntimeError("stage exploded")

    monkeypatch.setitem(cli._STAGE_FUNCS, "connect", boom)
    out = tmp_path / "out"
    assert cli.run_subcommand("full", small_config, out_dir=out) == 1
    assert list(out.iterdir()) == []


def test_unencodable_report_blames_the_output_step(tmp_path, monkeypatch, capsys):
    # every stage returns; the report then fails to encode (a numpy integer
    # is not JSON), which is the output step's failure, not the last stage's
    index = cli._STAGE_FUNCS["index"]
    monkeypatch.setitem(cli._STAGE_FUNCS, "index",
                        lambda *args: {**index(*args), "d0": np.int64(1)})
    out = tmp_path / "out"
    assert cli.run_subcommand("index", ARCTAN_CFG, out_dir=out) == 1
    err = capsys.readouterr().err
    assert "runtime failure in stage 'output': Object of type int64" in err
    assert "'index'" not in err
    assert list(out.iterdir()) == []


def test_runtime_error_exit_code(tmp_path, monkeypatch):
    def boom(exp, stages, files):
        raise RuntimeError("stage exploded")

    monkeypatch.setitem(cli._STAGE_FUNCS, "decompose", boom)
    code = cli.run_subcommand("decompose", ARCTAN_CFG, out_dir=tmp_path)
    assert code == 1


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_nonfinite_linearization_exit_code(tmp_path, monkeypatch, capsys, value):
    # a field whose u-Jacobian at 0 is not finite fails the eigensolve in
    # 'index' with scipy's check_finite message
    from resodyn import fields
    row = fields._ROWS["arctan"]
    monkeypatch.setitem(fields._ROWS, "arctan", row._replace(slope=lambda gain: value))
    with np.errstate(invalid="ignore"):
        code = cli.run_subcommand("index", ARCTAN_CFG, out_dir=tmp_path)
    assert code == 1
    assert ("runtime failure in stage 'index': array must not contain infs or NaNs"
            in capsys.readouterr().err)


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


_SIMULATE_FILES = {"margins.csv", "trajectories",
                   *(f"trajectories/seed{i}_s{s}.csv" for i in (0, 1) for s in (0, 1))}
_CONNECT_FILES = {"trajectories", "trajectories/connection_d1_eps0.001.csv"}


@pytest.mark.parametrize("subcommand,written", [
    ("spectrum", set()), ("check", set()), ("simulate", _SIMULATE_FILES),
    ("connect", _CONNECT_FILES), ("full", _SIMULATE_FILES | _CONNECT_FILES),
])
def test_subcommand_writes_exactly_its_files(tmp_path, small_config, subcommand, written):
    out = tmp_path / subcommand
    assert cli.run_subcommand(subcommand, small_config, out_dir=out) == 0
    assert ({p.relative_to(out).as_posix() for p in out.rglob("*")}
            == {"report.json", "spectrum.csv", *written})


def test_simulate_without_seeds_keeps_an_empty_trajectories_directory(tmp_path,
                                                                     small_config):
    path = tmp_path / "no_seeds.ini"
    path.write_text(small_config.read_text().replace("seeds = 2", "seeds = 0"))
    out = tmp_path / "sim"
    assert cli.run_subcommand("simulate", path, out_dir=out) == 0
    assert json.loads((out / "report.json").read_text())["stages"]["simulate"]["runs"] == []
    assert (out / "trajectories").is_dir() and not any((out / "trajectories").iterdir())


def test_connect_subcommand_finds_orbit(tmp_path, small_config):
    out = tmp_path / "conn"
    assert cli.run_subcommand("connect", small_config, out_dir=out) == 0
    report = json.loads((out / "report.json").read_text())
    conn = report["stages"]["connect"]
    assert conn["connection_predicted"] is True
    assert conn["connections_found"] >= 1
    assert any(e["outcome"] == "connected" for e in conn["shots"])
    assert any((out / "trajectories").glob("connection_*.csv"))


@pytest.mark.parametrize("verdict", ["holds", "fails"])
def test_connect_retires_misses_only_when_F2_holds(tmp_path, small_config, monkeypatch,
                                                   verdict):
    # the bound behind the retirement trusts the declared C3, which F2 certifies
    check, shoot, calls = cli._STAGE_FUNCS["check"], cli.shoot_connection, []

    def checked(exp, stages, files):
        part = check(exp, stages, files)
        part["F2"]["verdict"] = verdict
        return part

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return shoot(*args, **kwargs)

    monkeypatch.setitem(cli._STAGE_FUNCS, "check", checked)
    monkeypatch.setattr(cli, "shoot_connection", recorded)
    assert cli.run_subcommand("connect", small_config, out_dir=tmp_path / "out") == 0
    assert calls == [{"retire_misses": verdict == "holds"}]


@pytest.mark.parametrize("path", [ARCTAN_CFG, JSON_CFG], ids=lambda p: p.name)
def test_connect_reports_match_the_march_to_the_horizon(tmp_path, monkeypatch, path):
    # the stage's shots with retirement against the same shots to the
    # horizon: the same reports, and every retired miss's stored samples are
    # those of its horizon march, up to its last step
    shoot, ends = cli.shoot_connection, []

    def both(*args, retire_misses):
        assert retire_misses
        horizon = shoot(*args)
        retired = shoot(*args, retire_misses=True)
        for a, b in zip(retired, horizon, strict=True):
            assert type(a) is type(b) and a.to_dict() == b.to_dict()
            a, b = a.trajectory, b.trajectory
            k = int(np.searchsorted(b.times, a.times[-1]))
            assert a.times.size in (k, k + 1) and a.diverged == b.diverged
            for name in ("times", "coeffs", "norms"):
                assert np.array_equal(getattr(a, name)[:k], getattr(b, name)[:k])
            ends.append(float(a.times[-1]))
        return retired

    monkeypatch.setattr(cli, "shoot_connection", both)
    assert cli.run_subcommand("connect", path, out_dir=tmp_path / "out") == 0
    T = load_config(path).settings.T
    assert max(ends) < T  # the misses too


@pytest.mark.parametrize("config", ["small", "two_component"])
def test_connect_runs_one_newton_search_after_the_origin(tmp_path, small_config, monkeypatch,
                                                         config):
    from resodyn.connections import unstable_directions
    path = small_config if config == "small" else JSON_CFG
    exp = load_config(path)
    search = cli.find_equilibria
    calls = []

    def recorded(*args, **kwargs):
        calls.append((len(args[-1]), kwargs, search(*args, **kwargs)))
        return calls[-1][-1]

    monkeypatch.setattr(cli, "find_equilibria", recorded)
    assert cli.run_subcommand("connect", path, out_dir=tmp_path / "out") == 0
    (first, first_kwargs, found), (second, second_kwargs, equilibria) = calls
    (origin,) = found
    directions = unstable_directions(exp.field, exp.basis, exp.problem, origin)
    assert first == 0 and origin.is_origin and first_kwargs == {}
    # the seeded search is handed the first search's result and keeps it first
    assert second_kwargs["known"] is found and equilibria[0] is origin
    assert second == 4 + 2 * len(directions) and len(directions) > 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["stages"]["connect"]["equilibria"] == [eq.to_dict() for eq in equilibria]
    # every equilibrium's Morse index counts its unstable directions
    for eq in equilibria:
        assert eq.morse_index == len(unstable_directions(exp.field, exp.basis, exp.problem, eq))


@pytest.mark.parametrize("config", ["small", "two_component"])
def test_connect_linearizes_each_equilibrium_once(tmp_path, small_config, monkeypatch, config,
                                                  assert_stored_spectrum):
    # the origin is linearized once, by the stage's first search, which hands
    # it to the second; every other equilibrium by its own search, and no
    # Morse index is a dense eigvalsh (the searches run on the field not
    # declared odd, so that each of a +- pair is linearized)
    import resodyn.connections as connections
    path = small_config if config == "small" else JSON_CFG
    exp = load_config(path)
    linearized, dense, searches = [], [], []
    linearize, eigvalsh, search = (connections.discrete_linearization, np.linalg.eigvalsh,
                                   cli.find_equilibria)

    def counted_linearize(field, basis, problem, at):
        linearized.append(not np.any(at.coeffs))
        return linearize(field, basis, problem, at)

    def counted_eigvalsh(a, *args, **kwargs):
        dense.append(sys._getframe(1).f_globals["__name__"])
        return eigvalsh(a, *args, **kwargs)

    def recorded(field, *args, **kwargs):
        found = search(replace(field, odd=False), *args, **kwargs)
        searches.append(found[len(kwargs.get("known", ())):])  # what this search accepted
        return found

    monkeypatch.setattr(connections, "discrete_linearization", counted_linearize)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(cli, "find_equilibria", recorded)
    assert cli.run_subcommand("connect", path, out_dir=tmp_path / "out") == 0
    monkeypatch.undo()
    assert linearized.count(True) == 1
    assert len(linearized) == sum(map(len, searches))
    assert "resodyn.connections" not in dense
    for eq in (eq for found in searches for eq in found):
        assert_stored_spectrum(exp.field, exp.basis, exp.problem, eq)


@pytest.mark.parametrize("config", ["small", "two_component"])
def test_connect_linearizes_one_of_each_mirror_pair(tmp_path, small_config, monkeypatch, config,
                                                    assert_stored_spectrum):
    # with the odd catalogue field, an equilibrium that is the exact
    # negation of an earlier one is not linearized: it shares that one's
    # linearization, which is bit for bit its own
    import resodyn.connections as connections
    path = small_config if config == "small" else JSON_CFG
    exp = load_config(path)
    assert exp.field.odd
    linearized, searches = [], []
    linearize, search = connections.discrete_linearization, cli.find_equilibria

    def counted_linearize(field, basis, problem, at):
        linearized.append(at.coeffs)
        return linearize(field, basis, problem, at)

    def recorded(*args, **kwargs):
        searches.append(search(*args, **kwargs))
        return searches[-1]

    monkeypatch.setattr(connections, "discrete_linearization", counted_linearize)
    monkeypatch.setattr(cli, "find_equilibria", recorded)
    assert cli.run_subcommand("connect", path, out_dir=tmp_path / "out") == 0
    monkeypatch.undo()
    equilibria = searches[-1]
    twins = [eq for i, eq in enumerate(equilibria)
             if any(np.array_equal(eq.state.coeffs, -e.state.coeffs) for e in equilibria[:i])]
    assert len(linearized) == len(equilibria) - len(twins)
    for i, c in enumerate(linearized):
        assert not any(np.array_equal(c, -d) for d in linearized[:i])
    for eq in twins:
        (mirror,) = [e for e in equilibria if np.array_equal(e.state.coeffs, -eq.state.coeffs)]
        assert eq.linearization is mirror.linearization and eq.unstable is mirror.unstable
    for eq in equilibria:
        assert_stored_spectrum(exp.field, exp.basis, exp.problem, eq)
    if config == "two_component":
        assert twins


def test_index_evaluates_each_kernel_block_once(tmp_path, monkeypatch):
    # both blocks of two_component.json are 1-D; each is drawn and evaluated
    # once, and its + and - reports are read from that one evaluation
    import resodyn.resonance as resonance
    calls = []
    for name in ("_sphere_directions", "_ll_values"):
        def counted(*args, _name=name, _original=getattr(resonance, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(resonance, name, counted)
    assert cli.run_subcommand("index", JSON_CFG, out_dir=tmp_path / "out") == 0
    assert calls == ["_sphere_directions", "_ll_values"] * 2
    monkeypatch.undo()
    ll = cli._stage_ll(load_config(JSON_CFG), {}, {})
    assert list(ll) == ["LL1+", "LL1-", "LL2+", "LL2-"]
    assert [rep["condition"] for rep in ll.values()] == list(ll)


@pytest.mark.parametrize("subcommand", ["simulate", "full"])
def test_simulate_without_kernel_modes_in_block_1(tmp_path, subcommand):
    # lambda = 5 lies below mu_1 = pi^2, so neither kernel block has a mode:
    # no guiding margins, kernel radii 0 and no margins.csv
    path = _write_ini(tmp_path / "no_kernel.ini", {
        "domain": ["J = 16"],
        "system": ["m = 1", "l = 1", "lambda = 5.0", "sigma = 0"],
        "field": ["name = -arctan(3)"],
        "run": ["dt = 1e-3", "T = 1", "s_grid = 0, 1", "seeds = 2",
                "margin_R_grid = 5, 20", "margin_samples = 8"]})
    out = tmp_path / subcommand
    assert cli.run_subcommand(subcommand, path, out_dir=out) == 0
    stages = json.loads((out / "report.json").read_text())["stages"]
    assert stages["ll"]["LL1+"]["verdict"] == stages["ll"]["LL1-"]["verdict"] == "vacuous"
    sim = stages["simulate"]
    assert sim["box"]["R1"] == sim["box"]["R2"] == 0.0
    assert sim["margins_block1"] == sim["margins_block2"] == "vacuous"
    assert len(sim["runs"]) == 4 and all(run["stayed_in_box"] for run in sim["runs"])
    assert not (out / "margins.csv").exists()


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


@pytest.mark.parametrize("flags,written", [
    ([], {"report.json", "spectrum.csv"}),
    (["--json"], {"report.json"}),
    (["--csv"], {"spectrum.csv"}),
    (["--json", "--csv"], {"report.json", "spectrum.csv"}),
], ids=["neither", "json", "csv", "both"])
def test_main_output_flags_choose_the_files(tmp_path, capsys, flags, written):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--config", str(ARCTAN_CFG), "--out", str(tmp_path), *flags])
    assert exc.value.code == 0
    assert {p.name for p in tmp_path.iterdir()} == written


# component 2 sits off resonance (lambda = 3 < mu(1)), so it has no kernel
# mode: at s = 0 the whole of its restricted evaluation is dropped from H
_NAN_SECTIONS = {"domain": ["J = 16", "quad_nodes = {nodes}"],
                 "system": ["m = 2", "l = 1", "lambda = mu(1), 3", "sigma = 0, 0"],
                 "field": ["name = arctan(40)"],
                 "run": ["dt = 1e-3", "T = 0.05", "s_grid = 0, 0.5, 1", "seeds = 2",
                         "eps_grid = 1e-3", "margin_R_grid = 5", "margin_samples = 2",
                         "ll_samples = 4"]}


# simulate marches the members (seed, s) = (0, 0), (0, 0.5), (0, 1), (1, 0),
# (1, 0.5), (1, 1): stack rows 0-5 are their restricted states and rows 6, 7
# the full states of the two s = 0.5 members; connect marches s = 1 shots
@pytest.mark.parametrize("subcommand,row", [
    ("simulate", 0), ("simulate", 1), ("simulate", 6), ("connect", 0),
], ids=["simulate-s0", "simulate-mid-restricted", "simulate-mid-full", "connect"])
@pytest.mark.parametrize("nodes", [80, 81])
def test_nan_in_the_middle_of_a_march_exit_code(tmp_path, monkeypatch, capsys, nodal_index,
                                                subcommand, row, nodes):
    import resodyn.semiflow as semiflow

    sections = {name: [entry.format(nodes=nodes) for entry in entries]
                for name, entries in _NAN_SECTIONS.items()}
    path = _write_ini(tmp_path / "nan.ini", sections)
    homotopy, marching, calls = semiflow._homotopy, [], []

    def flagged_homotopy(*args, **kwargs):
        # every march step evaluates H through _homotopy; Newton does not
        marching.append(True)
        return homotopy(*args, **kwargs)

    # the midpoint node of the odd rule; at 80 nodes, the first node of the
    # mirrored half, which the split layout holds last in its second block
    node, k = nodes // 2, 5

    def patched_load(*args, **kwargs):
        exp = load_config(*args, **kwargs)
        clean = exp.field.eval

        def eval_with_nan(x, U, dU):
            out = clean(x, U, dU)
            if marching:
                calls.append(U.size // (2 * nodes))  # the states evaluated (m = 2)
                if len(calls) == k:
                    out = np.array(out)
                    out[nodal_index(out, nodes, row, 1, node=node)] = np.nan
            return out

        monkeypatch.setattr(exp.field, "eval", eval_with_nan)
        return exp

    monkeypatch.setattr(semiflow, "_homotopy", flagged_homotopy)
    monkeypatch.setattr(cli, "load_config", patched_load)
    assert cli.run_subcommand(subcommand, path, out_dir=tmp_path / "out") == 1
    err = capsys.readouterr().err
    x = load_config(path).basis.x
    assert f"runtime failure in stage '{subcommand}'" in err
    assert f"non-finite field value in component 2 at node x={x[node]:.6g}" in err
    # the march stops at the evaluation that returned the NaN
    assert len(calls) == k
    if subcommand == "simulate":
        assert calls[0] == 8


def _check_stage_fields(m, basis):
    """Every catalogue field once (two negated), and a u'-reading field with
    no declared C3, whose F2 check also evaluates the half-size grid."""
    from resodyn.fields import NonlinearField, make_field
    zeros = lambda x: np.zeros((m, x.size))  # noqa: E731
    return [make_field("arctan(7)", m), make_field("-scaled-arctan(3, 0.5)", m),
            make_field("gaussian-decay(0.25)", m),
            make_field("-constant-kernel(1, 1, 2)", m, basis=basis),
            NonlinearField(name="no-C3", m=m, eval=lambda x, U, dU: np.arctan(U + 1e-3 * dU),
                           sigma=np.full(m, 0.25), f_plus=zeros, f_minus=zeros)]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("which", range(5))
def test_check_stage_evaluates_the_grid_once(tmp_path, m, which):
    import dataclasses
    from resodyn.fields import SampleGrid, check_bounded, check_sign_condition, verify_limits
    path = tmp_path / "check.ini"
    path.write_text(
        "[domain]\nJ = 8\nquad_nodes = 32\n"
        f"[system]\nm = {m}\nl = 1\nlambda = {', '.join(['mu(1)'] * m)}\nsigma = 0\n"
        f"[field]\nname = arctan(7)\nh = {', '.join(str(-0.1 * k) for k in range(m))}\n"
        "[run]\nseed = 11\n")
    exp = load_config(path)
    field = _check_stage_fields(m, exp.basis)[which]
    grid = SampleGrid.default(exp.basis, m, seed=exp.seed)
    on_grid = []
    ev = field.eval

    def counted(x, U, dU):
        if U.shape == (200, m, x.size) and np.array_equal(U[..., 0], grid.u_draws):
            on_grid.append(dU)
        return ev(x, U, dU)

    field.eval = counted
    out = cli._stage_check(dataclasses.replace(exp, field=field), {}, {})
    assert len(on_grid) == 1
    assert (on_grid[0] is None) == (not field.reads_du)
    field.eval = ev
    assert out["F2"] == check_bounded(field, grid).to_dict()
    for sign in ("+", "-"):
        assert out["sign_conditions"][sign] == [
            check_sign_condition(field, k, sign, lambda x, h=h: np.full(x.shape, h), grid,
                                 l=1).to_dict()
            for k, h in enumerate(exp.h_const, start=1)]
    # the limits of every component come from one stacked evaluation
    assert out["limits"] == [verify_limits(field, k, basis=exp.basis, seed=exp.seed).to_dict()
                             for k in range(1, m + 1)]
