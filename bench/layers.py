"""Per-layer metrics: one traced round plus per-call micro loops.

The layers are resodyn's modules.  ``Tracer`` replaces, from outside the
program, every public function a module defines (and the few methods listed
in ``METHODS``) by a timing wrapper, in the defining module and in every
module that imported the name.  Each wrapped call is a span; a layer's self
time is the time of its spans minus the time of the spans they caused,
reported as a share of the traced round.  Counts come from the same spans,
so they repeat exactly for a seed.

The ``_us`` / ``_ms`` metrics time short loops over the public functions at
the largest sizes the workload uses, tracing off.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import reference

LAYERS = ("spectral", "decomposition", "fields", "resonance", "indexcalc",
          "semiflow", "connections", "config", "cli")
# methods called across modules that the counts need
METHODS = (("spectral", "SpectralBasis", "values"), ("spectral", "SpectralBasis", "dvalues"),
           ("spectral", "SpectralBasis", "project"), ("spectral", "GalerkinState", "__init__"),
           ("indexcalc", "LinearizationData", "from_field"),
           ("indexcalc", "LinearizationData", "from_G"))
FIELD_CHECKS = ("fields.check_bounded", "fields.check_sign_condition", "fields.verify_limits")
# the experiment whose sizes the micro loops use, per workload
REPRESENTATIVE = {"ensemble-simulate": "sim_m2_J32_parctan", "shoot-connect": "con_m2_J32",
                  "hypothesis-sweep": "idx_m3_scaled-arctan_0.5"}


class Tracer:
    """Span bookkeeping for the wrapped names; ``install``/``remove`` patch
    and restore the program's module namespaces."""

    def __init__(self):
        self.stack: list[list] = []          # [layer, qualname, child seconds]
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.field_evals: Counter = Counter()  # galerkin_F calls by enclosing connections span
        self._undo: list = []

    def _wrap(self, layer: str, qualname: str, fn):
        stack, self_s, total_s, calls = self.stack, self.self_s, self.total_s, self.calls
        field_evals = self.field_evals
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [layer, qualname, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                self_s[layer] += dur - frame[2]
                total_s[qualname] += dur
                calls[qualname] += 1
                if stack:
                    stack[-1][2] += dur
                if qualname == "fields.galerkin_F":
                    owner = next((f[1] for f in reversed(stack) if f[0] == "connections"), None)
                    if owner is not None:
                        field_evals[owner] += 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    def install(self) -> None:
        modules = {name: sys.modules[f"resodyn.{name}"] for name in LAYERS}
        namespaces = [m for key, m in sys.modules.items()
                      if key == "resodyn" or key.startswith("resodyn.")]
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapped = self._wrap(layer, f"{layer}.{name}", obj)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is obj:
                            self._undo.append((ns, attr, value))
                            setattr(ns, attr, wrapped)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[meth]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self._wrap(layer, f"{layer}.{cls_name}.{meth}", fn)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)

    def remove(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _per_call(fn, n: int, reps: int = 5) -> float:
    """Median over ``reps`` batches of the mean seconds per call."""
    out = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        out.append((time.perf_counter() - start) / n)
    return statistics.median(out)


def _differential(run, n: int, reps: int = 3) -> float:
    """Seconds per step from ``run(steps)``, with fixed costs cancelled:
    (time of 2 n steps - time of n steps) / n, median over ``reps``."""
    out = []
    for _ in range(reps):
        start = time.perf_counter()
        run(n)
        mid = time.perf_counter()
        run(2 * n)
        end = time.perf_counter()
        out.append(((end - mid) - (mid - start)) / n)
    return statistics.median(out)


def micro(setup) -> dict:
    """Per-call costs of the public functions at the workload's sizes."""
    import resodyn as rd
    from resodyn.decomposition import mode_mask
    from resodyn.semiflow import trajectory_norms

    name = REPRESENTATIVE[setup.workload]
    exp = next(e for e in setup.round if e.name == name)
    cfg = setup.config.load_config(setup.paths[name])
    basis, problem, field, split = cfg.basis, cfg.problem, cfg.field, cfg.split
    m, J = problem.m, basis.J
    rng = np.random.default_rng(7)
    c = 0.3 * rng.standard_normal((m, J))
    state = rd.GalerkinState(c)
    fv = basis.values(c)
    dt = float(exp.run.get("dt", 0.01))

    def integrate(s):
        def run(steps):
            rd.integrate(field, basis, split, problem, s, state,
                         rd.IntegratorSettings(dt=dt, T=steps * dt, store_every=10**6))
        return _differential(run, 100)

    origin = rd.find_equilibria(field, basis, split, problem, [])[0]
    rate, direction = rd.unstable_directions(field, basis, problem, origin)[0]

    def shoot(steps):
        rd.shoot_connection(field, basis, split, problem, origin, direction, 1e-3,
                            rd.IntegratorSettings(dt=dt, T=steps * dt), [origin])

    import resodyn.connections as conn
    jacobians = Counter()
    fd_jacobian = conn._fd_jacobian

    def counted(*args, **kwargs):
        jacobians["n"] += 1
        return fd_jacobian(*args, **kwargs)

    seed = [rd.GalerkinState(0.05 * rng.standard_normal((m, J)) / np.sqrt(m * J))]
    conn._fd_jacobian = counted
    try:
        start = time.perf_counter()
        rd.find_equilibria(field, basis, split, problem, seed)
        with_seed = time.perf_counter() - start
    finally:
        conn._fd_jacobian = fd_jacobian
    start = time.perf_counter()
    rd.find_equilibria(field, basis, split, problem, [])
    newton_ms = 1e3 * max(with_seed - (time.perf_counter() - start), 0.0) / max(jacobians["n"], 1)

    d = np.full(len(split.n1_modes), 1.0 / np.sqrt(len(split.n1_modes)))
    loads = [_per_call(lambda p=p: setup.config.load_config(p), 3, reps=1)
             for p in setup.paths.values()]
    return {
        "spectral.values_us": 1e6 * _per_call(lambda: basis.values(c), 2000),
        "spectral.project_us": 1e6 * _per_call(lambda: basis.project(fv), 2000),
        "spectral.state_us": 1e6 * _per_call(lambda: rd.GalerkinState(c), 2000),
        "decomposition.mode_mask_us": 1e6 * _per_call(lambda: mode_mask(split, "Q0"), 2000),
        "fields.galerkin_F_us": 1e6 * _per_call(lambda: rd.galerkin_F(field, basis, state), 1000),
        "resonance.ll_functional_ms": 1e3 * _per_call(
            lambda: rd.ll_functional(field, basis, split, problem, 1, d), 10),
        "semiflow.step_us_s0": 1e6 * integrate(0.0),
        "semiflow.step_us_s05": 1e6 * integrate(0.5),
        "semiflow.step_us_s1": 1e6 * integrate(1.0),
        "semiflow.trajectory_norms_us": 1e6 * _per_call(
            lambda: trajectory_norms(basis, split, problem, c), 1000),
        "connections.newton_iter_ms": newton_ms,
        "connections.linearization_ms": 1e3 * _per_call(
            lambda: rd.discrete_linearization(field, basis, problem, origin.state), 20),
        "connections.shoot_step_us": 1e6 * _differential(shoot, 100),
        "config.load_ms": 1e3 * statistics.median(loads),
    }


def _output_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def per_layer(setup, run_round) -> tuple[dict, list[dict]]:
    """One untraced and one traced round, then the micro loops; returns the
    per-layer metrics and the traced round's records."""
    untraced = sum(setup.run(exp)[1] for exp in setup.round)
    tracer = Tracer()
    tracer.install()
    try:
        records = run_round(setup)
    finally:
        tracer.remove()
    out_bytes = sum(_output_bytes(setup.out / r["name"]) for r in records if r["rc"] == 0)
    traced = sum(r["wall"] for r in records)
    print(f"tracing overhead: untraced round {untraced:.3f} s, traced round {traced:.3f} s "
          f"(+{100 * (traced / untraced - 1):.1f} %)", file=sys.stderr)

    calls, self_s, total = tracer.calls, tracer.self_s, tracer.total_s
    counts = {
        "spectral.eval_calls": calls["spectral.SpectralBasis.values"]
        + calls["spectral.SpectralBasis.dvalues"],
        "spectral.state_calls": calls["spectral.GalerkinState.__init__"],
        "decomposition.mode_mask_calls": calls["decomposition.mode_mask"],
        "fields.galerkin_F_calls": calls["fields.galerkin_F"],
        "resonance.ll_functional_calls": calls["resonance.ll_functional"],
        "semiflow.homotopy_field_calls": calls["semiflow.homotopy_field"],
        "semiflow.trajectory_norms_calls": calls["semiflow.trajectory_norms"],
        "connections.newton_field_evals": tracer.field_evals["connections.find_equilibria"],
        "connections.shoot_field_evals": tracer.field_evals["connections.shoot_connection"],
        "cli.output_bytes": out_bytes,
    }
    # shares of the traced round: a layer the workload never enters reads 0 %
    # rather than a constant 0 s, and a slower host does not move them
    timings = {f"{layer}.self_pct": 100.0 * self_s[layer] / traced for layer in LAYERS}
    timings["fields.check_pct"] = 100.0 * sum(total[q] for q in FIELD_CHECKS) / traced
    timings["resonance.guiding_margin_pct"] = 100.0 * total["resonance.guiding_margin"] / traced
    timings["bench.traced_round_s"] = traced
    timings["cli.import_s"] = setup.import_s
    per_call = micro(setup)
    refs = [reference.run_slice() for _ in range(15)]
    values = {**counts, **timings, **per_call,
              "bench.reference_ms": 1e3 * statistics.median(refs)}
    return {name: (values[name], unit) for name, unit in PER_LAYER}, records


PER_LAYER = (
    ("spectral.eval_calls", "count"), ("spectral.state_calls", "count"),
    ("spectral.self_pct", "%"), ("spectral.values_us", "us"),
    ("spectral.project_us", "us"), ("spectral.state_us", "us"),
    ("decomposition.mode_mask_calls", "count"), ("decomposition.self_pct", "%"),
    ("decomposition.mode_mask_us", "us"),
    ("fields.galerkin_F_calls", "count"), ("fields.self_pct", "%"),
    ("fields.galerkin_F_us", "us"), ("fields.check_pct", "%"),
    ("resonance.ll_functional_calls", "count"), ("resonance.self_pct", "%"),
    ("resonance.ll_functional_ms", "ms"), ("resonance.guiding_margin_pct", "%"),
    ("indexcalc.self_pct", "%"),
    ("semiflow.homotopy_field_calls", "count"), ("semiflow.trajectory_norms_calls", "count"),
    ("semiflow.self_pct", "%"), ("semiflow.step_us_s0", "us"), ("semiflow.step_us_s05", "us"),
    ("semiflow.step_us_s1", "us"), ("semiflow.trajectory_norms_us", "us"),
    ("connections.newton_field_evals", "count"), ("connections.shoot_field_evals", "count"),
    ("connections.self_pct", "%"), ("connections.newton_iter_ms", "ms"),
    ("connections.linearization_ms", "ms"), ("connections.shoot_step_us", "us"),
    ("config.load_ms", "ms"),
    ("cli.self_pct", "%"), ("cli.output_bytes", "bytes"), ("cli.import_s", "s"),
    ("bench.reference_ms", "ms"), ("bench.traced_round_s", "s"),
)
