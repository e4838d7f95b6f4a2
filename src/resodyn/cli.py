"""Configuration-driven experiment runner.

Every pipeline stage is a subcommand; ``full`` chains them and, when the
index arithmetic predicts a connecting orbit, finishes with the equilibrium
search and the shooting experiment.  Reports are deterministic for a fixed
config and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, load_config
from .connections import (ConnectionRecord, find_equilibria, shoot_connection,
                          unstable_directions)
from .decomposition import counts
from .errors import ConfigurationError, DivergenceSignal
from .fields import SampleGrid, check_bounded, check_sign_condition, verify_limits
from .indexcalc import (IndexReport, LinearizationData, connection_verdict,
                        d_zero, index_K_infinity, nonresonance_at_origin)
from .resonance import evaluate_LL, guiding_margin
from .semiflow import (HomotopyBox, IntegratorSettings, apriori_bounds,
                       check_bounded_solution, integrate, sample_states_in_box)
from .spectral import GalerkinState

SUBCOMMANDS = ("spectrum", "decompose", "check", "index", "simulate", "connect", "full")

_STAGE_CHAIN = {
    "spectrum": ("spectrum",),
    "decompose": ("spectrum", "decompose"),
    "check": ("spectrum", "decompose", "check"),
    "index": ("spectrum", "decompose", "check", "ll", "index"),
    "simulate": ("spectrum", "decompose", "check", "ll", "index", "simulate"),
    "connect": ("spectrum", "decompose", "check", "ll", "index", "connect"),
    "full": ("spectrum", "decompose", "check", "ll", "index", "simulate", "connect"),
}


def _stage_spectrum(exp: ExperimentConfig, ctx: dict) -> dict:
    rows = [{"j": j, "mu": mu} for j, mu in enumerate(exp.basis.mu.tolist(), start=1)]
    ctx["spectrum_csv"] = "j,mu\n" + "\n".join(
        f"{r['j']},{r['mu']:.17g}" for r in rows) + "\n"
    return {"J": exp.basis.J, "length": exp.basis.domain.length, "eigenvalues": rows}


def _stage_decompose(exp: ExperimentConfig, ctx: dict) -> dict:
    cv = counts(exp.split)
    ctx["counts"] = cv
    return {
        "counts": {"d_inf": cv.d_inf, "n1": cv.n1, "n2": cv.n2},
        "gap": exp.split.gap,
        "n1_modes": sorted(map(list, exp.split.n1_modes)),
        "n2_modes": sorted(map(list, exp.split.n2_modes)),
        "minus_modes": sorted(map(list, exp.split.minus_modes)),
        "nonresonant_components": list(exp.split.nonresonant_components),
        "resonance_warning": bool(exp.split.nonresonant_components),
    }


def _stage_check(exp: ExperimentConfig, ctx: dict) -> dict:
    grid = SampleGrid.default(exp.basis, exp.problem.m, seed=exp.seed)
    f2 = check_bounded(exp.field, grid)
    sign_reports = {}
    c_flags = {}
    for sign in ("+", "-"):
        per_component = []
        for k in range(1, exp.problem.m + 1):
            h_k = exp.h_const[k - 1]
            rep = check_sign_condition(
                exp.field, k, sign, lambda x, hv=h_k: np.full(x.shape, hv),
                grid, l=exp.problem.l)
            per_component.append(rep)
        block1 = all(r.verdict == "holds" for r in per_component[: exp.problem.l])
        block2_reports = per_component[exp.problem.l:]
        block2 = all(r.verdict == "holds" for r in block2_reports) if block2_reports else None
        c_flags[f"C1{sign}"] = "holds" if block1 else "fails"
        c_flags[f"C2{sign}"] = ("vacuous" if block2 is None
                                else ("holds" if block2 else "fails"))
        sign_reports[sign] = [r.to_dict() for r in per_component]
    limits = [verify_limits(exp.field, k, basis=exp.basis, seed=exp.seed)
              for k in range(1, exp.problem.m + 1)]
    ctx["c_flags"] = c_flags
    return {
        "F2": f2.to_dict(),
        "sign_conditions": sign_reports,
        "c_flags": c_flags,
        "limits": [r.to_dict() for r in limits],
    }


def _stage_ll(exp: ExperimentConfig, ctx: dict) -> dict:
    reports = {}
    for condition in ("LL1+", "LL1-", "LL2+", "LL2-"):
        rep = evaluate_LL(exp.field, exp.basis, exp.split, exp.problem, condition,
                          samples=exp.run["ll_samples"], seed=exp.seed)
        reports[condition] = rep
    ctx["ll_reports"] = reports
    return {name: rep.to_dict() for name, rep in reports.items()}


def _resolved_sign(ctx: dict, block: int):
    """Combine the sampled sign-condition and resonance-functional verdicts
    into one verified sign for the block (or 'vacuous' / None)."""
    ll = ctx["ll_reports"]
    c = ctx["c_flags"]
    plus = ll[f"LL{block}+"].verdict
    minus = ll[f"LL{block}-"].verdict
    if plus == "vacuous":
        return "vacuous"
    if plus == "holds" and c[f"C{block}+"] in ("holds", "vacuous"):
        return "+"
    if minus == "holds" and c[f"C{block}-"] in ("holds", "vacuous"):
        return "-"
    return None


def _stage_index(exp: ExperimentConfig, ctx: dict) -> dict:
    cv = ctx["counts"]
    ll1 = _resolved_sign(ctx, 1)
    ll2 = _resolved_sign(ctx, 2)
    lin = LinearizationData.from_field(exp.field, exp.problem)
    nonres = nonresonance_at_origin(exp.basis, lin)
    d0 = d_zero(exp.basis, exp.problem, lin) if nonres else None
    verdict = connection_verdict(cv, d0 if d0 is not None else 0, ll1, ll2, nonres)
    h_inf, tag = index_K_infinity(cv, ll1, ll2)
    report = IndexReport(
        counts=cv, d0=d0,
        ll_flags={k: v.verdict for k, v in ctx["ll_reports"].items()},
        c_flags=dict(ctx["c_flags"]),
        verdict=verdict,
    )
    ctx["index"] = report
    ctx["signs"] = (ll1, ll2)
    out = report.to_dict()
    out["theta"] = [float(t) for t in lin.theta]
    out["nonresonant_at_origin"] = nonres
    return out


def _bound_constant(exp: ExperimentConfig) -> float:
    C3 = exp.field.bound_C3
    if C3 is None:
        raise ConfigurationError(
            "simulate needs a bounded field (declared C3) for the a priori radii")
    return float(C3) * float(np.sqrt(exp.problem.m * exp.basis.domain.length))


def _stage_simulate(exp: ExperimentConfig, ctx: dict) -> dict:
    run = exp.run
    C6 = _bound_constant(exp)
    bounds = apriori_bounds(exp.basis, exp.split, exp.problem, C6)
    sign1 = "+" if ctx.get("signs", ("+", "+"))[0] != "-" else "-"
    margins1 = guiding_margin(
        exp.field, exp.basis, exp.split, exp.problem, which=1,
        W_radius=max(bounds.R0_minus, bounds.R0_plus),
        R_grid=run["margin_R_grid"], samples=run["margin_samples"],
        sign=sign1, seed=exp.seed)
    R1 = next((R for R, margin in margins1.rows if margin > 0), None)
    margins2 = None
    R2 = 0.0
    if exp.problem.l < exp.problem.m and ctx["counts"].n2 > 0:
        sign2 = "+" if ctx.get("signs", ("+", "+"))[1] != "-" else "-"
        margins2 = guiding_margin(
            exp.field, exp.basis, exp.split, exp.problem, which=2,
            W_radius=max(bounds.R0_minus, bounds.R0_plus),
            R_grid=run["margin_R_grid"], samples=run["margin_samples"],
            sign=sign2, seed=exp.seed + 1)
        R2 = next((R for R, margin in margins2.rows if margin > 0), None)
    box = HomotopyBox(
        R0=max(bounds.R0_minus, bounds.R0_plus),
        R1=R1 if R1 is not None else float("inf"),
        R2=R2 if R2 is not None else float("inf"),
    )
    ctx["margins_csv"] = margins1.to_csv()
    settings = IntegratorSettings(dt=float(run["dt"]), T=float(run["T"]),
                                  scheme=run["scheme"], store_every=10)
    # an uncertified kernel radius leaves the box unbounded there; sample
    # seeds from the largest margin radius instead
    fallback = float(max(run["margin_R_grid"]))
    sample_box = HomotopyBox(
        R0=box.R0,
        R1=box.R1 if np.isfinite(box.R1) else fallback,
        R2=box.R2 if np.isfinite(box.R2) else fallback,
    )
    seeds = sample_states_in_box(exp.basis, exp.split, exp.problem, sample_box,
                                 count=int(run["seeds"]), seed=exp.seed)
    runs = []
    trajectories = {}
    for i, u0 in enumerate(seeds):
        for s in run["s_grid"]:
            label = f"seed{i}_s{s:g}"
            try:
                traj = integrate(exp.field, exp.basis, exp.split, exp.problem,
                                 float(s), u0, settings)
                diverged = False
            except DivergenceSignal as sig:
                traj = sig.trajectory
                diverged = True
            rep = check_bounded_solution(traj, bounds, box.R1, box.R2,
                                         tol_drift=settings.tol_drift)
            trajectories[label] = traj
            runs.append({
                "label": label, "s": float(s), "diverged": diverged,
                "stayed_in_box": box.contains(traj),
                "bound_report": rep.to_dict(),
            })
    ctx["trajectories"] = trajectories
    return {
        "C6": C6,
        "bounds": bounds.to_dict(),
        "box": box.to_dict(),
        "margins_block1": margins1.to_dict(),
        "margins_block2": margins2.to_dict() if margins2 is not None else "vacuous",
        "runs": runs,
    }


def _stage_connect(exp: ExperimentConfig, ctx: dict) -> dict:
    run = exp.run
    index_report = ctx.get("index")
    predicted = bool(index_report and index_report.verdict.connection_predicted)
    rng = np.random.default_rng(exp.seed)
    m, J = exp.problem.m, exp.basis.J
    seeds = [GalerkinState(0.05 * rng.normal(size=(m, J)) / np.sqrt(m * J))
             for _ in range(4)]
    equilibria = find_equilibria(exp.field, exp.basis, exp.split, exp.problem, seeds)
    origin = next((eq for eq in equilibria if eq.is_origin), None)
    shots = []
    records = []
    if origin is not None:
        directions = unstable_directions(exp.field, exp.basis, exp.problem, origin)
        for rate, direction in directions:
            seed_scale = 0.05
            newton_seeds = [GalerkinState(seed_scale * direction.coeffs),
                            GalerkinState(-seed_scale * direction.coeffs)]
            for eq in find_equilibria(exp.field, exp.basis, exp.split, exp.problem,
                                      newton_seeds):
                if all(np.sqrt(np.sum((eq.state.coeffs - other.state.coeffs) ** 2)) > 1e-6
                       for other in equilibria):
                    equilibria.append(eq)
        settings = IntegratorSettings(dt=float(run["dt"]), T=float(run["T"]),
                                      store_every=10)
        for d_idx, (rate, direction) in enumerate(directions):
            for eps in run["eps_grid"]:
                result = shoot_connection(
                    exp.field, exp.basis, exp.split, exp.problem, origin,
                    direction, float(eps), settings, equilibria)
                entry = {"direction": d_idx, "rate": rate, "eps": float(eps)}
                if isinstance(result, ConnectionRecord):
                    entry["outcome"] = "connected"
                    entry.update(result.to_dict())
                    records.append((d_idx, eps, result))
                else:
                    entry["outcome"] = "miss"
                    entry.update(result.to_dict())
                shots.append(entry)
    ctx["connections"] = records
    return {
        "connection_predicted": predicted,
        "equilibria": [eq.to_dict() for eq in equilibria],
        "shots": shots,
        "connections_found": len(records),
    }


_STAGE_FUNCS = {
    "spectrum": _stage_spectrum,
    "decompose": _stage_decompose,
    "check": _stage_check,
    "ll": _stage_ll,
    "index": _stage_index,
    "simulate": _stage_simulate,
    "connect": _stage_connect,
}


def run_subcommand(name: str, config_path, out_dir=None, seed=None, s_grid=None,
                   write_json: bool = True, write_csv: bool = True) -> int:
    """Execute one pipeline subcommand; returns the process exit code.

    0: success.  2: a configuration or hypothesis violation.  1: any other
    runtime failure.  Every error message names the failing stage.
    """
    if name not in SUBCOMMANDS:
        print(f"unknown subcommand {name!r}; expected one of {SUBCOMMANDS}",
              file=sys.stderr)
        return 2
    stage = "load"
    try:
        exp = load_config(config_path)
        if seed is not None:
            exp.run["seed"] = int(seed)
        if s_grid is not None:
            exp.run["s_grid"] = tuple(float(v) for v in s_grid)
        out = Path(out_dir) if out_dir is not None else Path(exp.run["out"])
        out.mkdir(parents=True, exist_ok=True)
        report = {
            "version": __version__,
            "subcommand": name,
            "seed": exp.seed,
            "config": exp.echo(),
            "stages": {key: "skipped" for key in _STAGE_FUNCS},
        }
        ctx: dict = {}
        for stage in _STAGE_CHAIN[name]:
            if name == "full" and stage == "connect":
                idx = ctx.get("index")
                if not (idx and idx.verdict.connection_predicted):
                    report["stages"]["connect"] = "skipped: no connection predicted"
                    continue
            report["stages"][stage] = _STAGE_FUNCS[stage](exp, ctx)
        report["verdicts"] = _summarize(report, ctx)
        if write_json:
            (out / "report.json").write_text(
                json.dumps(_sanitize(report), indent=2, sort_keys=True,
                           default=_json_default) + "\n")
        if write_csv:
            _write_csv_outputs(out, ctx)
        _print_summary(report)
        return 0
    except ConfigurationError as exc:
        print(f"hypothesis/configuration violation in stage {stage!r}: {exc}",
              file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure in stage {stage!r}: {exc}", file=sys.stderr)
        return 1


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _sanitize(obj):
    """Strict-JSON copy: non-finite floats become descriptive strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not np.isfinite(obj):
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    return obj


def _summarize(report: dict, ctx: dict) -> dict:
    verdicts = {"ll": "skipped", "conditions": "skipped",
                "connection_predicted": "skipped", "unbounded_runs": "skipped",
                "connections_found": "skipped"}
    if "ll_reports" in ctx:
        verdicts["ll"] = {k: v.verdict for k, v in ctx["ll_reports"].items()}
    if "c_flags" in ctx:
        verdicts["conditions"] = dict(ctx["c_flags"])
    if "index" in ctx:
        verdicts["connection_predicted"] = ctx["index"].verdict.connection_predicted
    sim = report["stages"].get("simulate")
    if isinstance(sim, dict):
        verdicts["unbounded_runs"] = [r["label"] for r in sim["runs"]
                                      if r["bound_report"]["unbounded"]]
    conn = report["stages"].get("connect")
    if isinstance(conn, dict):
        verdicts["connections_found"] = conn["connections_found"]
    return verdicts


def _write_csv_outputs(out: Path, ctx: dict) -> None:
    if "spectrum_csv" in ctx:
        (out / "spectrum.csv").write_text(ctx["spectrum_csv"])
    if "margins_csv" in ctx:
        (out / "margins.csv").write_text(ctx["margins_csv"])
    if "trajectories" in ctx:
        tdir = out / "trajectories"
        tdir.mkdir(exist_ok=True)
        for label, traj in ctx["trajectories"].items():
            (tdir / f"{label}.csv").write_text(traj.to_csv())
    if "connections" in ctx:
        tdir = out / "trajectories"
        tdir.mkdir(exist_ok=True)
        for d_idx, eps, record in ctx["connections"]:
            (tdir / f"connection_d{d_idx}_eps{eps:g}.csv").write_text(
                record.trajectory.to_csv())


def _print_summary(report: dict) -> None:
    print(f"resodyn {report['subcommand']}: ok (seed {report['seed']})")
    verdicts = report.get("verdicts", {})
    for key in ("conditions", "ll", "connection_predicted", "connections_found"):
        value = verdicts.get(key, "skipped")
        if value != "skipped":
            print(f"  {key}: {value}")
    index = report["stages"].get("index")
    if isinstance(index, dict):
        print(f"  h(K_inf) = {index['h_K_infinity']}, h(K_0) = {index['h_K_zero']}, "
              f"d0 = {index['d0']}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="resodyn",
        description="Spectral-Galerkin resonance experiments for "
                    "reaction-diffusion systems")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="experiment file (INI or JSON)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the run seed")
    parser.add_argument("--s-grid", default=None,
                        help="comma list of homotopy parameters, e.g. 0,0.5,1")
    parser.add_argument("--json", action="store_true", help="write report.json only")
    parser.add_argument("--csv", action="store_true", help="write CSV outputs only")
    args = parser.parse_args(argv)
    s_grid = None
    if args.s_grid is not None:
        s_grid = [float(v) for v in args.s_grid.split(",") if v.strip()]
    write_json = True
    write_csv = True
    if args.json and not args.csv:
        write_csv = False
    if args.csv and not args.json:
        write_json = False
    code = run_subcommand(args.subcommand, args.config, out_dir=args.out,
                          seed=args.seed, s_grid=s_grid,
                          write_json=write_json, write_csv=write_csv)
    sys.exit(code)


if __name__ == "__main__":
    main()
