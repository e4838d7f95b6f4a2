"""The three workloads: experiment files generated from a seed, and the checks
of each experiment's outputs against the closed forms in ``oracles``.

A round is the list returned by ``round_for``; a run repeats whole rounds.
Its make-up (sizes, fields, step counts) is fixed per workload, so the cost
of a round hardly moves with the seed; the seed picks gains, degrees,
interval lengths and the program's own sampling seeds.  Every input is
chosen inside the range where the program is known to behave (see the
FOUND lines in CHANGES.md for the faults the ranges steer around):
T is a whole multiple of 10 dt, every shift sits on mu(1), and the linear
rates stay far below the exp() overflow of the ETD factors.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import oracles

WORKLOADS = ("ensemble-simulate", "shoot-connect", "hypothesis-sweep")
STORE_EVERY = 10  # the cli stores every 10th integrator step
# reference slices run between two experiments: about 3-5 % of a typical
# experiment's time, so the reference samples enough of the run
SLICES_PER_GAP = {"ensemble-simulate": 4, "shoot-connect": 2, "hypothesis-sweep": 4}
# slope_P1 of an undamped sigma = 0 run lies in [(1 - SLOPE_TOL) sqrt(2L), sqrt(2L)]
SLOPE_TOL = 0.1
# ensemble-simulate time step and steps per trajectory
SIM_DT = 1e-3
SIM_STEPS = 600


@dataclass(frozen=True)
class Experiment:
    """One experiment file and the problem data its checks need."""

    name: str
    subcommand: str
    m: int
    l: int
    J: int
    length: float
    kind: str            # "arctan" | "scaled-arctan" | "gaussian-decay"
    sign: int            # +1, -1; 0 for gaussian-decay (limits vanish)
    gain: float          # K > 0; unused for gaussian-decay
    sigma: float
    run: dict = field(default_factory=dict)

    @property
    def field_spec(self) -> str:
        if self.kind == "gaussian-decay":
            return f"gaussian-decay({self.sigma:g})"
        body = (f"arctan({self.gain:.17g})" if self.kind == "arctan"
                else f"scaled-arctan({self.gain:.17g},{self.sigma:g})")
        return body if self.sign > 0 else "-" + body

    @property
    def g0(self) -> float:
        """u-Jacobian of the field at the origin (G = g0 I)."""
        return 0.0 if self.kind == "gaussian-decay" else self.sign * self.gain

    def ini(self) -> str:
        lines = ["[domain]", f"length = {self.length!r}", f"J = {self.J}",
                 f"quad_nodes = {2 * self.J + 16}", "", "[system]",
                 f"m = {self.m}", f"l = {self.l}",
                 "lambda = " + ", ".join(["mu(1)"] * self.m),
                 f"sigma = {self.sigma:g}", "alpha = 0.8", "", "[field]",
                 f"name = {self.field_spec}", "h = 0", "", "[run]"]
        for key, val in self.run.items():
            if isinstance(val, (tuple, list)):
                val = ", ".join(f"{v:g}" for v in val)
            lines.append(f"{key} = {val}")
        return "\n".join(lines) + "\n"


def _simulate_round(rng: np.random.Generator) -> list[Experiment]:
    # m x J x {arctan, -arctan, +-scaled-arctan}: half the runs drift along
    # the kernel (+), half settle (-).  dt, the seed count and the sampling
    # counts are those of configs/arctan40_resonant.ini (the last two the
    # config defaults); T is shorter than its 10 so that a round fits a run,
    # but long enough that integrate() still takes about 94 % of the time.
    out = []
    for m in (1, 2):
        for J in (16, 32):
            length = float(rng.uniform(0.8, 1.25))
            for kind, sign in (("arctan", 1), ("arctan", -1),
                               ("scaled-arctan", 1 if J == 16 else -1)):
                sigma = float(rng.choice((0.25, 0.5))) if kind == "scaled-arctan" else 0.0
                run = {"scheme": "ETD1", "dt": SIM_DT, "T": round(SIM_STEPS * SIM_DT, 12),
                       "s_grid": (0.0, 0.25, 0.5, 0.75, 1.0), "seeds": 3,
                       "seed": int(rng.integers(1, 10**6))}
                out.append(Experiment(
                    name=f"sim_m{m}_J{J}_{'p' if sign > 0 else 'm'}{kind}",
                    subcommand="simulate", m=m, l=1, J=J, length=length,
                    kind=kind, sign=sign, gain=float(rng.uniform(30.0, 60.0)),
                    sigma=sigma, run=run))
    return out


def _connect_round(rng: np.random.Generator) -> list[Experiment]:
    # K between mu_2 - mu_1 and mu_3 - mu_1 (L = 1), so d0 = 2 m differs from
    # the exponent at infinity m and a connection is predicted.  Five m = 1
    # experiments of similar cost put the median inside one dense band.  The
    # program's own seed (the random Newton starts) is fixed per experiment:
    # it decides how many equilibria are found, which moved the cost of an
    # m = 2 experiment by +-12 % from seed to seed.
    out = []
    for slot, (m, J) in enumerate(((1, 16), (1, 20), (1, 24), (1, 28), (1, 32),
                                   (2, 16), (2, 32))):
        run = {"dt": 0.01, "T": 4.0, "eps_grid": (1e-3, -1e-3),
               "seed": 1000 + slot, "ll_samples": 16}
        out.append(Experiment(
            name=f"con_m{m}_J{J}", subcommand="connect", m=m, l=m, J=J,
            length=1.0, kind="arctan", sign=1,
            gain=float(rng.uniform(40.0, 55.0)), sigma=0.0, run=run))
    return out


def _index_round(rng: np.random.Generator) -> list[Experiment]:
    out = []
    for m in (2, 3):
        J = 16
        for kind, sigma in (("arctan", 0.0), ("scaled-arctan", 0.25),
                            ("scaled-arctan", 0.5), ("gaussian-decay", 0.5)):
            run = {"seed": int(rng.integers(1, 10**6)), "ll_samples": 128}
            out.append(Experiment(
                name=f"idx_m{m}_{kind}_{sigma:g}", subcommand="index", m=m, l=m,
                J=J, length=float(rng.uniform(0.5, 2.0)), kind=kind,
                sign=0 if kind == "gaussian-decay" else 1,
                gain=float(rng.uniform(5.0, 60.0)), sigma=sigma, run=run))
    return out


_ROUNDS = {"ensemble-simulate": _simulate_round, "shoot-connect": _connect_round,
           "hypothesis-sweep": _index_round}


def round_for(workload: str, seed: int) -> list[Experiment]:
    """The workload's experiments for one seed, in run order."""
    return _ROUNDS[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]))


def warmup_for(workload: str) -> Experiment:
    """A small experiment on the workload's code paths, run once in set-up so
    that lazy imports and first-call costs stay out of the timed phase."""
    exp = round_for(workload, 0)[0]
    run = dict(exp.run)
    if "T" in run:
        run["T"] = round(2 * STORE_EVERY * run["dt"], 12)
    run["ll_samples"] = 4
    return Experiment(**{**exp.__dict__, "name": "warmup", "run": run})


# -- checks ------------------------------------------------------------------

def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check(exp: Experiment, out: Path) -> list[str]:
    """Compare one experiment's outputs with the oracles; returns the
    mismatches (empty when every check holds)."""
    bad = []
    report = json.loads((out / "report.json").read_text())
    stages = report["stages"]
    index = stages["index"]
    cv = oracles.counts(exp.m, exp.l, [1] * exp.m)
    if stages["decompose"]["counts"] != cv or index["counts"] != cv:
        bad.append(f"counts {index['counts']} != {cv}")
    d0 = oracles.d0(exp.J, exp.length, [1] * exp.m, exp.g0)
    if index["d0"] != d0:
        bad.append(f"d0 {index['d0']} != {d0}")
    sign = {1: "+", -1: "-"}.get(exp.sign)
    h_inf = oracles.exponent_at_infinity(cv, sign, sign)
    want = None if h_inf is None else f"Sphere({h_inf})"
    if index["h_K_infinity"] != want:
        bad.append(f"h_K_infinity {index['h_K_infinity']} != {want}")
    if exp.subcommand == "simulate":
        bad += _check_simulate(exp, stages["simulate"], out)
    elif exp.subcommand == "connect":
        bad += _check_connect(exp, stages["connect"], d0)
    else:
        bad += _check_index(exp, stages["ll"])
    return bad


def _check_simulate(exp: Experiment, sim: dict, out: Path) -> list[str]:
    bad = []
    rows = round(exp.run["T"] / exp.run["dt"]) // STORE_EVERY + 1
    runs = sim["runs"]
    if len(runs) != exp.run["seeds"] * len(exp.run["s_grid"]):
        bad.append(f"{len(runs)} trajectories")
    bound = math.sqrt(2.0 * exp.length)
    for r in runs:
        n = len(_csv_rows(out / "trajectories" / f"{r['label']}.csv"))
        if n != rows:
            bad.append(f"{r['label']}: {n} CSV rows != {rows}")
        rep = r["bound_report"]
        if exp.sign < 0 and (rep["unbounded"] or not r["stayed_in_box"] or r["diverged"]):
            bad.append(f"{r['label']}: damped run left the box or flagged unbounded")
        if exp.sign > 0 and exp.sigma == 0.0:
            slope = rep["slope_P1"]
            if not (1.0 - SLOPE_TOL) * bound <= slope <= bound * (1.0 + 1e-9):
                bad.append(f"{r['label']}: slope_P1 {slope:.6g} not in "
                           f"[{(1 - SLOPE_TOL) * bound:.6g}, {bound:.6g}]")
    return bad


def _check_connect(exp: Experiment, con: dict, d0: Optional[int]) -> list[str]:
    bad = []
    if not con["connection_predicted"]:
        bad.append("no connection predicted")
    eqs = con["equilibria"]
    origin = [e for e in eqs if e["is_origin"]]
    if len(origin) != 1 or origin[0]["morse_index"] != d0:
        bad.append(f"origin Morse index {[e['morse_index'] for e in origin]} != d0 {d0}")
        return bad
    good = [s for s in con["shots"] if s["outcome"] == "connected"
            and s["terminal_distance"] <= 1e-4
            and s["energy_final"] < s["energy_initial"]
            and s["target"]["morse_index"] < origin[0]["morse_index"]]
    if not good:
        bad.append("no shot connects to a lower-index target with decreasing energy")
    return bad


def _check_index(exp: Experiment, ll: dict) -> list[str]:
    bad = []
    plus, minus = ll["LL1+"], ll["LL1-"]
    if exp.kind == "gaussian-decay":
        if plus["min_value"] != 0.0 or plus["verdict"] != "fails":
            bad.append(f"gaussian-decay LL1+ {plus['min_value']} {plus['verdict']}")
        return bad
    s_star = oracles.ll_value(exp.sigma, exp.length)
    if abs(plus["min_value"] - s_star) > 1e-8:
        bad.append(f"LL1+ min {plus['min_value']!r} != S* {s_star!r}")
    floor = -oracles.ll_block_max(exp.m, exp.sigma, exp.length)
    if minus["min_value"] < floor - 1e-8:
        bad.append(f"LL1- min {minus['min_value']!r} below block bound {floor!r}")
    return bad
