"""Experiment configuration: a flat sectioned key-value format (INI) or the
same structure as JSON.  Loading validates every module-level invariant by
actually building the basis, the problem data, the field, and the mode
classification."""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from .decomposition import SplitIndexSet, classify
from .errors import ConfigurationError
from .fields import NonlinearField, make_field
from .spectral import Domain1D, ProblemConfig, SpectralBasis, build_basis

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


def _parse_float_list(text) -> tuple[float, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(float(v) for v in text)
    return tuple(float(v) for v in str(text).split(",") if str(v).strip())


# a [run] value is parsed by the type of its default
_RUN_PARSERS = {tuple: _parse_float_list, int: int, float: float, str: str}
_SECTION_KEYS = {
    "domain": ("length", "J", "quad_nodes"),
    "system": ("m", "l", "lambda", "sigma", "alpha", "resonance_tol"),
    "field": ("name", "h"),
    "run": tuple(_RUN_DEFAULTS),
}


def _section(sections: dict, name: str) -> dict:
    """One section's entries under their canonical key names.

    Keys match in any case, since configparser lowercases them (J -> j,
    margin_R_grid -> margin_r_grid); an unknown key raises."""
    names = {key.lower(): key for key in _SECTION_KEYS[name]}
    out = {}
    for key, val in sections.get(name, {}).items():
        canonical = names.get(key.lower())
        if canonical is None:
            raise ConfigurationError(
                f"unknown [{name}] key {key!r}; valid keys (in any case): "
                f"{', '.join(_SECTION_KEYS[name])}")
        out[canonical] = val
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
        if isinstance(tok, (int, float)):
            out.append(float(tok))
            continue
        tok = tok.strip()
        if tok.startswith("mu(") and tok.endswith(")"):
            j = int(tok[3:-1])
            if not (1 <= j <= basis.J):
                raise ConfigurationError(f"eigenvalue reference {tok} outside 1..{basis.J}")
            out.append(float(basis.mu[j - 1]))
        else:
            out.append(float(tok))
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
    run: dict = dc_field(default_factory=dict)

    @property
    def seed(self) -> int:
        return int(self.run["seed"])

    def echo(self) -> dict:
        """Deterministic copy of the raw configuration for the report."""
        return json.loads(json.dumps(self.raw, sort_keys=True))


def _sections_from_ini(path: Path) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path) as fh:
        parser.read_file(fh)
    return {section: dict(parser.items(section)) for section in parser.sections()}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse, build, and validate an experiment file (INI or JSON)."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    if path.suffix.lower() == ".json":
        with open(path) as fh:
            sections = json.load(fh)
    else:
        sections = _sections_from_ini(path)
    for name in sections:
        if name not in _SECTION_KEYS:
            raise ConfigurationError(
                f"unknown section [{name}]; valid sections: {', '.join(_SECTION_KEYS)}")
    for required in ("domain", "system", "field"):
        if required not in sections:
            raise ConfigurationError(f"config is missing the [{required}] section")

    dom = _section(sections, "domain")
    sysc = _section(sections, "system")
    fld = _section(sections, "field")

    J = int(dom.get("J", 32))
    length = float(dom.get("length", 1.0))
    quad_nodes = int(dom.get("quad_nodes", 2 * J + 16))
    basis = build_basis(Domain1D(length=length, quad_nodes=quad_nodes), J)

    m = int(sysc["m"])
    l = int(sysc["l"])
    lam = _resolve_lambda(sysc["lambda"], basis)
    sigma = _parse_float_list(sysc.get("sigma", "0"))
    if len(sigma) == 1 and m > 1:
        sigma = sigma * m
    alpha = float(sysc.get("alpha", 0.8))
    problem = ProblemConfig(m=m, l=l, lam=lam, sigma=sigma, alpha=alpha)

    field = make_field(str(fld["name"]), m, basis=basis)
    h_const = _parse_float_list(fld.get("h", "0"))
    if len(h_const) == 1 and m > 1:
        h_const = h_const * m
    if len(h_const) != m:
        raise ConfigurationError(f"h must have 1 or {m} entries, got {len(h_const)}")

    tol = float(sysc.get("resonance_tol", 1e-8))
    split = classify(basis, problem, tol=tol)

    run = dict(_RUN_DEFAULTS)
    for name, val in _section(sections, "run").items():
        run[name] = _RUN_PARSERS[type(_RUN_DEFAULTS[name])](val)
    for s in run["s_grid"]:
        if not (0.0 <= s <= 1.0):
            raise ConfigurationError(f"s_grid values must lie in [0, 1], got {s}")

    raw = {k: dict(v) if isinstance(v, dict) else v for k, v in sections.items()}
    return ExperimentConfig(raw=raw, basis=basis, problem=problem, field=field,
                            split=split, h_const=tuple(h_const), run=run)
