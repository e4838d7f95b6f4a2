"""Configuration-driven experiment runner.

Every pipeline stage is a subcommand; ``full`` chains them and, when the
index arithmetic predicts a connecting orbit, finishes with the equilibrium
search and the shooting experiment.  Reports are deterministic for a fixed
config and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, load_config
from .connections import ConnectionRecord, find_equilibria, shoot_connection
from .decomposition import counts
from .errors import ConfigurationError
from .fields import SampleGrid, _bounded_report, _grid_values, _sign_report, verify_limits
from .indexcalc import (LinearizationData, connection_verdict, d_zero,
                        nonresonance_at_origin)
from .resonance import evaluate_LL, guiding_margin
from .semiflow import (HomotopyBox, apriori_bounds,
                       check_bounded_solution, integrate_ensemble,
                       sample_states_in_box)
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


# A stage is stage(exp, stages, files) -> dict: it reads the parts that
# earlier stages returned from ``stages`` (the report's "stages"), and puts
# each output file it makes into ``files``, as a path relative to the output
# directory mapped to a zero-argument callable that returns the file's text
# (None for a directory that is kept even when empty).


def _stage_spectrum(exp: ExperimentConfig, stages: dict, files: dict) -> dict:
    rows = [{"j": j, "mu": mu} for j, mu in enumerate(exp.basis.mu.tolist(), start=1)]
    files["spectrum.csv"] = lambda: "j,mu\n" + "\n".join(
        f"{r['j']},{r['mu']:.17g}" for r in rows) + "\n"
    return {"J": exp.basis.J, "length": exp.basis.domain.length, "eigenvalues": rows}


def _stage_decompose(exp: ExperimentConfig, stages: dict, files: dict) -> dict:
    return {
        "counts": asdict(counts(exp.split)),
        "gap": exp.split.gap,
        "n1_modes": sorted(map(list, exp.split.n1_modes)),
        "n2_modes": sorted(map(list, exp.split.n2_modes)),
        "minus_modes": sorted(map(list, exp.split.minus_modes)),
        "nonresonant_components": list(exp.split.nonresonant_components),
        "resonance_warning": bool(exp.split.nonresonant_components),
    }


def _stage_check(exp: ExperimentConfig, stages: dict, files: dict) -> dict:
    grid = SampleGrid.default(exp.basis, exp.problem.m, seed=exp.seed)
    # one evaluation on the grid serves F2 and every sign condition
    vals = _grid_values(exp.field, grid)
    f2 = _bounded_report(exp.field, grid, vals)
    sign_reports = {}
    c_flags = {}
    for sign in ("+", "-"):
        per_component = [
            _sign_report(exp.field, k, sign, exp.h_const[k - 1], grid, vals, exp.problem.l)
            for k in range(1, exp.problem.m + 1)]
        block1 = all(r.verdict == "holds" for r in per_component[: exp.problem.l])
        block2_reports = per_component[exp.problem.l:]
        block2 = all(r.verdict == "holds" for r in block2_reports) if block2_reports else None
        c_flags[f"C1{sign}"] = "holds" if block1 else "fails"
        c_flags[f"C2{sign}"] = ("vacuous" if block2 is None
                                else ("holds" if block2 else "fails"))
        sign_reports[sign] = [r.to_dict() for r in per_component]
    limits = [verify_limits(exp.field, k, basis=exp.basis, seed=exp.seed)
              for k in range(1, exp.problem.m + 1)]
    return {
        "F2": f2.to_dict(),
        "sign_conditions": sign_reports,
        "c_flags": c_flags,
        "limits": [r.to_dict() for r in limits],
    }


def _stage_ll(exp: ExperimentConfig, stages: dict, files: dict) -> dict:
    return {name: rep.to_dict() for which in (1, 2)
            for name, rep in evaluate_LL(exp.field, exp.basis, exp.split, exp.problem, which,
                                         samples=exp.run["ll_samples"], seed=exp.seed).items()}


def _resolved_sign(stages: dict, block: int):
    """Combine the sampled sign-condition and resonance-functional verdicts
    into one verified sign for the block (or 'vacuous' / None)."""
    ll = stages["ll"]
    c = stages["check"]["c_flags"]
    plus = ll[f"LL{block}+"]["verdict"]
    minus = ll[f"LL{block}-"]["verdict"]
    if plus == "vacuous":
        return "vacuous"
    if plus == "holds" and c[f"C{block}+"] in ("holds", "vacuous"):
        return "+"
    if minus == "holds" and c[f"C{block}-"] in ("holds", "vacuous"):
        return "-"
    return None


def _stage_index(exp: ExperimentConfig, stages: dict, files: dict) -> dict:
    cv = counts(exp.split)
    ll1 = _resolved_sign(stages, 1)
    ll2 = _resolved_sign(stages, 2)
    lin = LinearizationData.from_field(exp.field, exp.problem)
    nonres = nonresonance_at_origin(exp.basis, lin)
    d0 = d_zero(exp.basis, exp.problem, lin) if nonres else None
    verdict = connection_verdict(cv, d0 if d0 is not None else 0, ll1, ll2, nonres)
    return {
        "counts": asdict(cv),
        "d0": d0,
        "ll": {k: v["verdict"] for k, v in stages["ll"].items()},
        "conditions": dict(stages["check"]["c_flags"]),
        **verdict.to_dict(),
        "theta": [float(t) for t in lin.theta],
        "nonresonant_at_origin": nonres,
    }


def _bound_constant(exp: ExperimentConfig) -> float:
    C3 = exp.field.bound_C3
    if C3 is None:
        raise ConfigurationError(
            "simulate needs a bounded field (declared C3) for the a priori radii")
    return float(C3) * float(np.sqrt(exp.problem.m * exp.basis.domain.length))


def _stage_simulate(exp: ExperimentConfig, stages: dict, files: dict) -> dict:
    run = exp.run
    C6 = _bound_constant(exp)
    bounds = apriori_bounds(exp.basis, exp.split, exp.problem, C6)
    # a block without kernel modes has no margins and radius 0; a block whose
    # margins are never positive has no certified radius (inf)
    margins, radius = {}, {1: 0.0, 2: 0.0}
    cv = counts(exp.split)
    for which in [w for w, n in ((1, cv.n1), (2, cv.n2)) if n]:
        margins[which] = guiding_margin(
            exp.field, exp.basis, exp.split, exp.problem, which=which,
            W_radius=max(bounds.R0_minus, bounds.R0_plus),
            R_grid=run["margin_R_grid"], samples=run["margin_samples"],
            sign="-" if _resolved_sign(stages, which) == "-" else "+", seed=exp.seed + which - 1)
        radius[which] = next((R for R, margin in margins[which].rows if margin > 0),
                             float("inf"))
    box = HomotopyBox(R0=max(bounds.R0_minus, bounds.R0_plus), R1=radius[1], R2=radius[2])
    if 1 in margins:
        files["margins.csv"] = margins[1].to_csv
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
    # every seed x s pair marches in one stack, in label order
    pairs = [(f"seed{i}_s{s:g}", float(s), u0)
             for i, u0 in enumerate(seeds) for s in run["s_grid"]]
    ensemble = integrate_ensemble(exp.field, exp.basis, exp.split, exp.problem,
                                  [s for _, s, _ in pairs], [u0 for _, _, u0 in pairs],
                                  exp.settings)
    runs = []
    files["trajectories"] = None
    for (label, s, _), traj in zip(pairs, ensemble):
        rep = check_bounded_solution(traj, bounds, box.R1, box.R2)
        files[f"trajectories/{label}.csv"] = traj.to_csv
        runs.append({
            "label": label, "s": s, "diverged": traj.diverged,
            "stayed_in_box": box.contains(traj),
            "bound_report": rep.to_dict(),
        })
    return {
        "C6": C6,
        "bounds": bounds.to_dict(),
        "box": box.to_dict(),
        **{f"margins_block{w}": margins[w].to_dict() if w in margins else "vacuous"
           for w in (1, 2)},
        "runs": runs,
    }


def _stage_connect(exp: ExperimentConfig, stages: dict, files: dict) -> dict:
    run = exp.run
    rng = np.random.default_rng(exp.seed)
    m, J = exp.problem.m, exp.basis.J
    seeds = [GalerkinState(0.05 * rng.normal(size=(m, J)) / np.sqrt(m * J))
             for _ in range(4)]
    known = find_equilibria(exp.field, exp.basis, exp.split, exp.problem, [])
    origin = next(iter(known), None)
    directions = () if origin is None else origin.unstable
    # one Newton search: the random seeds, then +- 0.05 d for each unstable
    # direction d of the origin, in direction order; the origin leads as found
    seeds += [GalerkinState(sign * 0.05 * d.coeffs) for _, d in directions for sign in (1, -1)]
    equilibria = find_equilibria(exp.field, exp.basis, exp.split, exp.problem, seeds,
                                 known=known)
    shots = []
    files["trajectories"] = None
    if origin is not None:
        # every direction x eps shot marches in one stack, in this order
        grid = [(d_idx, rate, direction, float(eps))
                for d_idx, (rate, direction) in enumerate(directions)
                for eps in run["eps_grid"]]
        # the misses retire early only on a bound that trusts the declared C3,
        # which the check stage certified (F2)
        results = shoot_connection(
            exp.field, exp.basis, exp.split, exp.problem, origin,
            [direction for _, _, direction, _ in grid], [eps for *_, eps in grid],
            exp.settings, equilibria,
            retire_misses=stages["check"]["F2"]["verdict"] == "holds")
        for (d_idx, rate, _, eps), result in zip(grid, results):
            connected = isinstance(result, ConnectionRecord)
            shots.append({"direction": d_idx, "rate": rate, "eps": eps,
                          "outcome": "connected" if connected else "miss",
                          **result.to_dict()})
            if connected:
                files[f"trajectories/connection_d{d_idx}_eps{eps:g}.csv"] = (
                    result.trajectory.to_csv)
    return {
        "connection_predicted": stages["index"]["connection_predicted"],
        "equilibria": [eq.to_dict() for eq in equilibria],
        "shots": shots,
        "connections_found": sum(shot["outcome"] == "connected" for shot in shots),
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
    runtime failure.  Every error message names the failing stage.  Files
    are written only after every stage has returned, so a failed run leaves
    none.  ``s_grid`` is a comma list or a sequence of numbers, checked like
    the file's own [run] s_grid.
    """
    if name not in SUBCOMMANDS:
        print(f"unknown subcommand {name!r}; expected one of {SUBCOMMANDS}",
              file=sys.stderr)
        return 2
    stage = "load"
    try:
        overrides = {"seed": seed, "s_grid": s_grid}
        exp = load_config(config_path, {k: v for k, v in overrides.items() if v is not None})
        out = Path(out_dir) if out_dir is not None else Path(exp.run["out"])
        out.mkdir(parents=True, exist_ok=True)
        report = {
            "version": __version__,
            "subcommand": name,
            "seed": exp.seed,
            "config": exp.raw,
            "stages": {key: "skipped" for key in _STAGE_FUNCS},
        }
        stages = report["stages"]
        files = {"report.json": lambda: json.dumps(_sanitize(report), indent=2,
                                                   sort_keys=True) + "\n"}
        for stage in _STAGE_CHAIN[name]:
            if (name == "full" and stage == "connect"
                    and not stages["index"]["connection_predicted"]):
                stages["connect"] = "skipped: no connection predicted"
                continue
            stages[stage] = _STAGE_FUNCS[stage](exp, stages, files)
        report["verdicts"] = _summarize(stages)
        for rel, text in files.items():
            if (write_json if rel == "report.json" else write_csv):
                if text is None:
                    (out / rel).mkdir(exist_ok=True)
                else:
                    (out / rel).write_text(text())
        _print_summary(report)
        return 0
    except ConfigurationError as exc:
        print(f"hypothesis/configuration violation in stage {stage!r}: {exc}",
              file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure in stage {stage!r}: {exc}", file=sys.stderr)
        return 1


def _sanitize(obj):
    """Strict-JSON copy: tuples become lists, non-finite floats become
    descriptive strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    return obj


# each summary verdict: the stage it reads and how it reads that stage's part
_VERDICTS = {
    "ll": ("ll", lambda ll: {k: v["verdict"] for k, v in ll.items()}),
    "conditions": ("check", lambda check: dict(check["c_flags"])),
    "connection_predicted": ("index", lambda index: index["connection_predicted"]),
    "unbounded_runs": ("simulate", lambda sim: [r["label"] for r in sim["runs"]
                                                if r["bound_report"]["unbounded"]]),
    "connections_found": ("connect", lambda conn: conn["connections_found"]),
}


def _summarize(stages: dict) -> dict:
    """The report's verdicts, read from the stages that ran ('skipped' for
    the others)."""
    return {key: read(stages[stage]) if isinstance(stages[stage], dict) else "skipped"
            for key, (stage, read) in _VERDICTS.items()}


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
    code = run_subcommand(args.subcommand, args.config, out_dir=args.out,
                          seed=args.seed, s_grid=args.s_grid,
                          write_json=args.json or not args.csv,
                          write_csv=args.csv or not args.json)
    sys.exit(code)


if __name__ == "__main__":
    main()
