"""Experiment configuration: a flat sectioned key-value format (INI) or the
same structure as JSON.  Loading validates every module-level invariant by
actually building the basis, the problem data, the field, and the mode
classification."""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from .decomposition import SplitIndexSet, classify
from .errors import ConfigurationError
from .fields import NonlinearField, make_field
from .semiflow import IntegratorSettings
from .spectral import Domain1D, ProblemConfig, SpectralBasis, _count, _radius, build_basis

__all__ = ["ExperimentConfig", "load_config"]

_RUN_DEFAULTS = {
    "scheme": "ETD1",
    "dt": 1e-3,
    "T": 10.0,
    "s_grid": (0.0, 0.25, 0.5, 0.75, 1.0),
    "seeds": 5,
    "eps_grid": (1e-3, -1e-3),
    "seed": 0,
    "out": "out",
    "margin_R_grid": (2.0, 5.0, 10.0, 20.0, 50.0),
    "margin_samples": 32,
    "ll_samples": 512,
}


def _number(section: str, key: str, value) -> float:
    """One finite number."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"[{section}] {key} = {value!r} is not a number") from None
    if not math.isfinite(out):
        raise ConfigurationError(f"[{section}] {key} = {value!r} must be finite")
    return out


def _numbers(section: str, key: str, value) -> tuple[float, ...]:
    """A comma list (or a JSON list) of at least one finite number."""
    items = (value if isinstance(value, (list, tuple))
             else [v for v in str(value).split(",") if v.strip()])
    if not items:
        raise ConfigurationError(f"[{section}] {key} needs at least one value")
    return tuple(_number(section, key, v) for v in items)


# a [run] value is parsed by the type of its default; its counts are >= 1,
# except the seed count and the seed itself
_RUN_MINIMUM = {"seeds": 0, "seed": 0}
_RUN_PARSERS = {
    tuple: _numbers, float: _number,
    int: lambda section, key, value: _count(f"[{section}] {key}", value, _RUN_MINIMUM.get(key, 1)),
    str: lambda section, key, value: str(value),
}
_SECTION_KEYS = {
    "domain": ("length", "J", "quad_nodes"),
    "system": ("m", "l", "lambda", "sigma", "alpha", "resonance_tol"),
    "field": ("name", "h"),
    "run": tuple(_RUN_DEFAULTS),
}
_REQUIRED_KEYS = {"system": ("m", "l", "lambda"), "field": ("name",)}


def _section(sections: dict, name: str) -> dict:
    """One section's entries under their canonical key names.

    Keys match in any case, since configparser lowercases them (J -> j,
    margin_R_grid -> margin_r_grid); an unknown or a missing required key
    raises."""
    names = {key.lower(): key for key in _SECTION_KEYS[name]}
    out = {}
    for key, val in sections.get(name, {}).items():
        canonical = names.get(key.lower())
        if canonical is None:
            raise ConfigurationError(
                f"unknown [{name}] key {key!r}; valid keys (in any case): "
                f"{', '.join(_SECTION_KEYS[name])}")
        out[canonical] = val
    for key in _REQUIRED_KEYS.get(name, ()):
        if key not in out:
            raise ConfigurationError(f"config is missing the required key {key!r} in [{name}]")
    return out


def _resolve_lambda(tokens, basis: SpectralBasis) -> tuple[float, ...]:
    """Spectral shifts: float literals or eigenvalue references ``mu(j)``.

    The reference form places a shift exactly on an eigenvalue of the
    truncated spectrum, which is how resonant experiments are written.
    """
    if isinstance(tokens, (int, float)):
        tokens = [tokens]
    if isinstance(tokens, str):
        tokens = [t.strip() for t in tokens.split(",") if t.strip()]
    out = []
    for tok in tokens:
        tok = tok.strip() if isinstance(tok, str) else tok
        if isinstance(tok, str) and tok.startswith("mu(") and tok.endswith(")"):
            j = _count("[system] lambda", tok[3:-1])
            if j > basis.J:
                raise ConfigurationError(f"eigenvalue reference {tok} outside 1..{basis.J}")
            out.append(float(basis.mu[j - 1]))
        else:
            out.append(_number("system", "lambda", tok))
    return tuple(out)


@dataclass
class ExperimentConfig:
    """Fully built experiment: raw data plus the validated artifacts."""

    raw: dict
    basis: SpectralBasis
    problem: ProblemConfig
    field: NonlinearField
    split: SplitIndexSet
    h_const: tuple[float, ...]
    settings: IntegratorSettings
    run: dict = dc_field(default_factory=dict)

    @property
    def seed(self) -> int:
        return int(self.run["seed"])


def _sections_from_ini(path: Path) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path) as fh:
        parser.read_file(fh)
    return {section: dict(parser.items(section)) for section in parser.sections()}


def load_config(path: str | Path, run_overrides: dict | None = None) -> ExperimentConfig:
    """Parse, build, and validate an experiment file (INI or JSON).

    ``run_overrides`` replaces [run] values (the command line's --seed and
    --s-grid) before they are parsed and checked like the file's own."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found or not a file: {path}")
    try:
        if path.suffix.lower() == ".json":
            with open(path) as fh:
                sections = json.load(fh)
        else:
            sections = _sections_from_ini(path)
    except (json.JSONDecodeError, configparser.Error) as exc:
        raise ConfigurationError(f"malformed experiment file {path}: {exc}") from None
    if not isinstance(sections, dict):
        raise ConfigurationError(f"{path} must hold an object of sections, "
                                 f"not {type(sections).__name__}")
    for name, entries in sections.items():
        if name not in _SECTION_KEYS:
            raise ConfigurationError(
                f"unknown section [{name}]; valid sections: {', '.join(_SECTION_KEYS)}")
        if not isinstance(entries, dict):
            raise ConfigurationError(
                f"section [{name}] must be an object of keys, not {type(entries).__name__}")
    for required in ("domain", "system", "field"):
        if required not in sections:
            raise ConfigurationError(f"config is missing the [{required}] section")

    dom = _section(sections, "domain")
    sysc = _section(sections, "system")
    fld = _section(sections, "field")

    J = _count("[domain] J", dom.get("J", 32))
    length = _number("domain", "length", dom.get("length", 1.0))
    quad_nodes = _count("[domain] quad_nodes", dom.get("quad_nodes", 2 * J + 16))
    basis = build_basis(Domain1D(length=length, quad_nodes=quad_nodes), J)

    m = _count("[system] m", sysc["m"])
    l = _count("[system] l", sysc["l"])
    lam = _resolve_lambda(sysc["lambda"], basis)
    sigma = _numbers("system", "sigma", sysc.get("sigma", "0"))
    if len(sigma) == 1 and m > 1:
        sigma = sigma * m
    alpha = _number("system", "alpha", sysc.get("alpha", 0.8))
    problem = ProblemConfig(m=m, l=l, lam=lam, sigma=sigma, alpha=alpha)

    field = make_field(str(fld["name"]), m, basis=basis)
    for k, (given, declared) in enumerate(zip(problem.sigma, field.sigma), start=1):
        if given != declared:
            raise ConfigurationError(
                f"[system] sigma of component {k} is {given:g}, but field "
                f"{field.name} has degree {declared:g} there")
    h_const = _numbers("field", "h", fld.get("h", "0"))
    if len(h_const) == 1 and m > 1:
        h_const = h_const * m
    if len(h_const) != m:
        raise ConfigurationError(f"h must have 1 or {m} entries, got {len(h_const)}")

    tol = _number("system", "resonance_tol", sysc.get("resonance_tol", 1e-8))
    tol = _radius("[system] resonance_tol", tol, positive=True)
    split = classify(basis, problem, tol=tol)

    run = dict(_RUN_DEFAULTS)
    given = {**_section(sections, "run"), **(run_overrides or {})}
    for name, val in given.items():
        run[name] = _RUN_PARSERS[type(_RUN_DEFAULTS[name])]("run", name, val)
    for s in run["s_grid"]:
        if not (0.0 <= s <= 1.0):
            raise ConfigurationError(f"s_grid values must lie in [0, 1], got {s}")
    for R in run["margin_R_grid"]:
        _radius("[run] margin_R_grid", R, positive=True)
    if 0.0 in run["eps_grid"]:
        raise ConfigurationError("[run] eps_grid = 0.0 shoots from the equilibrium itself; "
                                 "it must be nonzero")
    # each value names its output files by its %g label (seed0_s0.25.csv,
    # connection_d0_eps0.001.csv), so two values with one label lose a file
    for key in ("s_grid", "eps_grid"):
        seen = {}
        for value in run[key]:
            label = f"{value:g}"
            if label in seen:
                raise ConfigurationError(
                    f"[run] {key} values {seen[label]!r} and {value!r} share the label "
                    f"{label!r} of their output files")
            seen[label] = value
    # dt, T and scheme are checked here, the step cap, the IMEX-Euler limit
    # and the ETD overflow included, not when a stage first marches;
    # simulate and connect both march with these
    settings = IntegratorSettings(dt=run["dt"], T=run["T"], scheme=run["scheme"],
                                  store_every=10)
    settings.step_factors(basis, problem)

    raw = {k: dict(v) if isinstance(v, dict) else v for k, v in sections.items()}
    return ExperimentConfig(raw=raw, basis=basis, problem=problem, field=field,
                            split=split, h_const=tuple(h_const), settings=settings, run=run)
