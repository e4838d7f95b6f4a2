"""Degree-of-resonance bookkeeping and the kernel-weighted resonance
functionals, evaluated with sign-set quadrature split at eigenfunction roots."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq
from scipy.stats import qmc

from .decomposition import SplitIndexSet
from .errors import ConfigurationError, HypothesisError
from .fields import NonlinearField, galerkin_F
from .spectral import GalerkinState, ProblemConfig, SpectralBasis, fractional_weights

__all__ = [
    "DegreeSets",
    "LLReport",
    "MarginTable",
    "degree_sets",
    "block_modes",
    "kernel_state",
    "ll_functional",
    "evaluate_LL",
    "guiding_margin",
]

ROOT_TOL = 1e-12


@dataclass(frozen=True)
class DegreeSets:
    """Minima of the resonance degrees and their argmin index sets.

    For l = m the second block is empty: sigma_check2 is None and J2 = ().
    """

    sigma_check1: float
    J1: tuple[int, ...]
    sigma_check2: Optional[float]
    J2: tuple[int, ...]


@dataclass(frozen=True)
class LLReport:
    condition: str           # "LL1+" | "LL1-" | "LL2+" | "LL2-"
    verdict: str             # "holds" | "fails" | "vacuous"
    min_value: Optional[float]
    argmin_direction: Optional[tuple[float, ...]]
    samples: int
    sampled_only: bool = False

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "verdict": self.verdict,
            "min_value": self.min_value,
            "argmin_direction": list(self.argmin_direction) if self.argmin_direction else None,
            "samples": self.samples,
            "sampled_only": self.sampled_only,
        }


def degree_sets(config: ProblemConfig) -> DegreeSets:
    """sigma-check minima with their argmin sets J1 (and J2 when l < m)."""
    sig = np.asarray(config.sigma)
    s1 = float(np.min(sig[: config.l]))
    if s1 >= 1:
        raise HypothesisError(f"min(sigma_1..sigma_l)={s1} must be < 1")
    J1 = tuple(int(k) for k in range(1, config.l + 1) if sig[k - 1] == s1)
    if config.l == config.m:
        return DegreeSets(sigma_check1=s1, J1=J1, sigma_check2=None, J2=())
    s2 = float(np.min(sig[config.l:]))
    if s2 >= 1:
        raise HypothesisError(f"min(sigma_(l+1)..sigma_m)={s2} must be < 1")
    J2 = tuple(int(k) for k in range(config.l + 1, config.m + 1) if sig[k - 1] == s2)
    return DegreeSets(sigma_check1=s1, J1=J1, sigma_check2=s2, J2=J2)


def _block_mask(split: SplitIndexSet, which: int) -> np.ndarray:
    if which not in (1, 2):
        raise ConfigurationError(f"which must be 1 or 2, got {which}")
    return split.masks["P1" if which == 1 else "P2"]


def block_modes(split: SplitIndexSet, which: int) -> tuple[tuple[int, int], ...]:
    """Kernel modes of block 1 (components <= l) or 2, in deterministic order."""
    return tuple((int(k) + 1, int(j) + 1) for k, j in np.argwhere(_block_mask(split, which)))


def kernel_state(split: SplitIndexSet, which: int, direction: Sequence[float]) -> GalerkinState:
    """Kernel-block coefficient vector -> GalerkinState (zeros elsewhere).

    The entries follow the order of ``block_modes``."""
    mask = _block_mask(split, which)
    direction = np.asarray(direction, dtype=float)
    dim = int(np.count_nonzero(mask))
    if direction.shape != (dim,):
        raise ConfigurationError(
            f"direction must have {dim} entries for block {which}, got {direction.shape}"
        )
    c = np.zeros((split.m, split.J))
    c[mask] = direction
    return GalerkinState(c)


def _component_roots(coeff_j: dict[int, float], basis: SpectralBasis) -> list[float]:
    """Interior roots of u(x) = sum_j coeff_j phi_j(x) on (0, L).

    Sign changes are bracketed on the quadrature-node grid (plus endpoints)
    and refined by Brent's method to ROOT_TOL.
    """
    L = basis.domain.length
    modes = sorted(coeff_j)
    if not modes:
        return []
    norm = np.sqrt(2.0 / L)

    def f(x):
        return sum(coeff_j[j] * norm * np.sin(j * np.pi * x / L) for j in modes)

    if len(modes) == 1:
        j = modes[0]
        return [i * L / j for i in range(1, j)]
    # bracket on a grid finer than the highest oscillation present
    grid = np.linspace(0.0, L, 8 * max(modes) + 1)
    vals = np.array([f(x) for x in grid])
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0 and 0 < a < L:
            roots.append(a)
        elif fa * fb < 0:
            roots.append(brentq(f, a, b, xtol=ROOT_TOL))
    return sorted(r for r in roots if ROOT_TOL < r < L - ROOT_TOL)


def _segment_rule(basis: SpectralBasis):
    n = max(32, basis.domain.quad_nodes // 2)
    xg, wg = leggauss(n)
    return xg, wg


def _graded_panels(a: float, b: float, levels: int = 40) -> list[tuple[float, float]]:
    """Panels of [a, b] refined geometrically toward both endpoints.

    The sign-set integrand behaves like (distance to endpoint)^{1-sigma}
    there, so fixed-order Gauss panels on a geometric grading restore fast
    convergence.
    """
    c = 0.5 * (a + b)
    cuts = [a]
    cuts += [a + (c - a) * 2.0 ** (-k) for k in range(levels, 0, -1)]
    cuts += [b - (b - c) * 2.0 ** (-k) for k in range(1, levels + 1)]
    cuts.append(b)
    return [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]


def ll_functional(field: NonlinearField, basis: SpectralBasis, split: SplitIndexSet,
                  config: ProblemConfig, which: int, direction: Sequence[float]) -> float:
    """Signless resonance sum S for one kernel direction.

    S = sum_{k in J} ( int_{u_k>0} f_k^+ |u_k|^{1-sigma_k}
                       - int_{u_k<0} f_k^- |u_k|^{1-sigma_k} ),
    where J is the argmin degree set of the block and u is the kernel element
    encoded by ``direction``.  The sign conditions then read +-S > 0.
    Quadrature subintervals are split at the roots of each u_k, where
    |u_k|^{1-sigma} has a kink.
    """
    modes = block_modes(split, which)
    if not modes:
        raise ConfigurationError(f"kernel block {which} is trivial")
    dsets = degree_sets(config)
    Jset = dsets.J1 if which == 1 else dsets.J2
    state = kernel_state(split, which, direction)
    L = basis.domain.length
    fp_all = np.asarray(field.f_plus(basis.x), dtype=float)  # only for shape checks
    if fp_all.shape != (config.m, basis.x.size):
        raise ConfigurationError("f_plus must return an (m, n) array on the nodes")
    xg, wg = _segment_rule(basis)
    total = 0.0
    for k in Jset:
        coeff_j = {j: state.coeffs[k - 1, j - 1] for (kk, j) in modes if kk == k}
        coeff_j = {j: c for j, c in coeff_j.items() if c != 0.0}
        if not coeff_j:
            continue
        sigma_k = config.sigma[k - 1]
        cuts = [0.0] + _component_roots(coeff_j, basis) + [L]
        norm = np.sqrt(2.0 / L)
        for a, b in zip(cuts[:-1], cuts[1:]):
            if b - a <= ROOT_TOL:
                continue
            mid = 0.5 * (a + b)
            sgn = np.sign(sum(c * norm * np.sin(j * np.pi * mid / L)
                              for j, c in coeff_j.items()))
            if sgn == 0:
                continue
            # u_k vanishes at both segment ends, so for sigma > 0 the
            # integrand has a root-power kink there; grade the panels
            panels = _graded_panels(a, b) if sigma_k > 0 else [(a, b)]
            for lo, hi in panels:
                xs = 0.5 * (hi - lo) * xg + 0.5 * (lo + hi)
                ws = 0.5 * (hi - lo) * wg
                uk = np.zeros_like(xs)
                for j, c in coeff_j.items():
                    uk += c * norm * np.sin(j * np.pi * xs / L)
                weight = np.abs(uk) ** (1.0 - sigma_k)
                limit_fn = field.f_plus if sgn > 0 else field.f_minus
                lim = np.asarray(limit_fn(xs), dtype=float)[k - 1]
                total += float(sgn) * float(np.sum(ws * lim * weight))
    return total


def _sphere_directions(dim: int, samples: int, seed: int) -> np.ndarray:
    """+-e_i plus low-discrepancy sphere points (deterministic for a seed)."""
    dirs = [v for i in range(dim) for v in (np.eye(dim)[i], -np.eye(dim)[i])]
    if dim >= 2 and samples > 0:
        sob = qmc.Sobol(d=dim, scramble=True, seed=seed)
        pts = sob.random(samples)
        from scipy.stats import norm as gauss
        g = gauss.ppf(np.clip(pts, 1e-12, 1 - 1e-12))
        lens = np.linalg.norm(g, axis=1)
        good = lens > 0
        dirs.extend(g[good] / lens[good, None])
    return np.array(dirs)


def evaluate_LL(field: NonlinearField, basis: SpectralBasis, split: SplitIndexSet,
                config: ProblemConfig, condition: str, samples: int = 512,
                seed: int = 0) -> LLReport:
    """Minimize +-S over a deterministic sampling of the kernel-block sphere.

    1-D kernel blocks are exhausted by the two directions +-e_1; higher
    dimensional blocks are only sampled and the report says so.  The verdict
    holds iff the sampled minimum is strictly positive.
    """
    if condition not in ("LL1+", "LL1-", "LL2+", "LL2-"):
        raise ConfigurationError(f"unknown condition {condition!r}")
    which = 1 if condition.startswith("LL1") else 2
    sign = 1.0 if condition.endswith("+") else -1.0
    if which == 2 and config.l == config.m:
        return LLReport(condition, "vacuous", None, None, 0)
    modes = block_modes(split, which)
    dim = len(modes)
    if dim == 0:
        return LLReport(condition, "vacuous", None, None, 0)
    dirs = _sphere_directions(dim, samples if dim >= 2 else 0, seed)
    best = np.inf
    best_dir = None
    for d in dirs:
        val = sign * ll_functional(field, basis, split, config, which, d)
        if val < best:
            best = val
            best_dir = d
    return LLReport(
        condition=condition,
        verdict="holds" if best > 0 else "fails",
        min_value=float(best),
        argmin_direction=tuple(float(v) for v in best_dir),
        samples=len(dirs),
        sampled_only=dim >= 2,
    )


@dataclass(frozen=True)
class MarginTable:
    """Sampled guiding margins min +-<F(u+v+w), u>_which over a radius grid."""

    which: int
    sign: str
    rows: tuple[tuple[float, float], ...]  # (R, margin)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["R", "margin"])
        for R, margin in self.rows:
            writer.writerow([f"{R:.17g}", f"{margin:.17g}"])
        return buf.getvalue()

    def to_dict(self) -> dict:
        return {"which": self.which, "sign": self.sign,
                "rows": [{"R": R, "margin": margin} for R, margin in self.rows]}


def _block_inner(config: ProblemConfig, fcoeffs: np.ndarray, ucoeffs: np.ndarray,
                 which: int) -> float:
    lo, hi = (1, config.l) if which == 1 else (config.l + 1, config.m)
    total = 0.0
    for k in range(lo, hi + 1):
        total += float(np.dot(fcoeffs[k - 1], ucoeffs[k - 1]))
    return total


def guiding_margin(field: NonlinearField, basis: SpectralBasis, split: SplitIndexSet,
                   config: ProblemConfig, which: int, W_radius: float,
                   R_grid: Sequence[float], samples: int = 64, sign: str = "+",
                   v_radius: float = 10.0, seed: int = 0) -> MarginTable:
    """Empirical lower bounds for the kernel-drift functional.

    For each R, samples (u, v, w) with ||u|| = R in the block kernel, v in
    the complementary kernel ball of radius ``v_radius``, and w in the
    X- + X+ ball of fractional radius ``W_radius``; returns the minimum of
    +-<F(u+v+w), u>_which over the samples.  A positive margin at and beyond
    some radius supports the guiding estimate behind the a priori bounds.
    The samples of one R are drawn first and evaluated as one stack.
    """
    if sign not in ("+", "-"):
        raise ConfigurationError(f"sign must be '+' or '-', got {sign!r}")
    sgn = 1.0 if sign == "+" else -1.0
    rng = np.random.default_rng(seed)
    main_mask = _block_mask(split, which)
    other_mask = _block_mask(split, 2 if which == 1 else 1)
    n_main = int(np.count_nonzero(main_mask))
    n_other = int(np.count_nonzero(other_mask))
    if not n_main:
        raise ConfigurationError(f"kernel block {which} is trivial")
    out_mask = ~split.masks["Q0"]
    n_out = int(np.count_nonzero(out_mask))
    weights = fractional_weights(basis, config) ** config.alpha
    shape = (samples, split.m, split.J)
    rows = []
    for R in R_grid:
        u, v, w = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        for i in range(samples):
            du = rng.normal(size=n_main)
            du /= np.linalg.norm(du)
            u[i][main_mask] = R * du
            if n_other:
                dv = rng.normal(size=n_other)
                dv *= v_radius * rng.uniform() / np.linalg.norm(dv)
                v[i][other_mask] = dv
            if n_out:
                raw = w[i]
                raw[out_mask] = rng.normal(size=n_out)
                frac = np.sqrt(np.sum((weights * raw) ** 2))
                if frac > 0:
                    raw *= W_radius * rng.uniform() / frac
        F = galerkin_F(field, basis, GalerkinState._trusted(u + v + w)).coeffs
        worst = min((sgn * _block_inner(config, F[i], u[i], which) for i in range(samples)),
                    default=np.inf)
        rows.append((float(R), float(worst)))
    return MarginTable(which=which, sign=sign, rows=tuple(rows))
