"""Reaction terms: evaluation on quadrature nodes, Galerkin projection, and
sampled verification of the structural hypotheses (boundedness, sign
conditions, asymptotic limits)."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .spectral import (GalerkinState, SpectralBasis, _count, _interleave, _one_based, _radius,
                       _sign, _ufuncs, _unit)

__all__ = [
    "NonlinearField",
    "ConditionReport",
    "SampleGrid",
    "galerkin_F",
    "check_bounded",
    "check_sign_condition",
    "verify_limits",
    "make_field",
]

U_JACOBIAN_STEP = 1e-6  # central-difference step of the field's u-Jacobian
LIMIT_DRAWS = 20        # sampled (u, du) draws of verify_limits
LIMIT_TOL = 1e-3        # deviation at s = 1e6 above which verify_limits rejects the limits


@dataclass
class NonlinearField:
    """A reaction term f = (f_1, .., f_m) with its resonance metadata.

    ``eval(x, U, dU)`` is vectorized over nodes and states: x has shape
    (n,), U and dU shape (..., m, n) with any leading batch axes, and the
    result has the shape of U; ``eval`` must not write into U or dU, which
    may be read-only views.  ``f_plus``/``f_minus`` return the
    declared asymptotic limits as (m, n) arrays on the given nodes; they are
    *verified* numerically by verify_limits, never inferred.  ``potential``
    (optional) evaluates a scalar potential ftilde(x, u) with
    d ftilde / d s_k = f_k, enabling the energy functional; it is pointwise
    in x: for x of shape (N,) and U of shape (m, N), for any N and with
    nodes that may repeat (the energies of a stack of states are one call on
    the nodes repeated per state), it returns the (N,) values
    ftilde(x_i, U[:, i]).  ``jac0`` is the
    u-Jacobian at (x, 0, 0) when known analytically.  A field that does not
    read u' (every catalogue field) sets ``reads_du=False``; every
    evaluation then passes ``dU=None`` (``galerkin_F`` skips the nodal
    derivative).  A field whose values and declared limits do not depend on
    x (every catalogue field but ``constant-kernel``: f_k = g(u_k)) sets
    ``reads_x=False``; the sampled hypothesis checks then evaluate it, and
    read its limits, at the first node only (x of shape (1,)), and that
    value stands for every node.  A field that is exactly odd,
    ``eval(x, -U, -dU) == -eval(x, U, dU)`` value for value with every
    nonzero value bit for bit (a zero may come back with either sign;
    ``arctan`` and ``scaled-arctan`` and their negations, which keep the
    zeros' signs too), sets
    ``odd=True``; ``find_equilibria`` then solves a seed that mirrors an
    earlier one, and linearizes an equilibrium that mirrors an earlier one,
    only once.  A field whose f_k reads only x, u_k (and u_k') sets
    ``componentwise=True`` (every catalogue field; ``constant-kernel`` reads
    no state at all): f_k does not move when another component does, so
    Newton's finite-difference Jacobian shifts one column of every component
    in one state and takes the entries between components as exact zeros.
    ``m`` is a whole number >= 1 and ``sigma`` holds m degrees
    in [0, 1]; anything else raises ConfigurationError.
    """

    name: str
    m: int
    eval: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    sigma: np.ndarray
    f_plus: Callable[[np.ndarray], np.ndarray]
    f_minus: Callable[[np.ndarray], np.ndarray]
    bound_C3: Optional[float] = None
    potential: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    jac0: Optional[np.ndarray] = None
    reads_du: bool = True
    reads_x: bool = True
    odd: bool = False
    componentwise: bool = False

    def __post_init__(self):
        self.m, self.sigma = _count("m", self.m), _unit("sigma", self.sigma)
        if self.sigma.shape != (self.m,):
            raise ConfigurationError(
                f"sigma must have shape ({self.m},), got {self.sigma.shape}"
            )


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one sampled hypothesis check."""

    condition_id: str
    verdict: str  # "holds" | "fails" | "vacuous"
    margin: float
    witness: Optional[dict] = None
    detail: str = ""

    def __post_init__(self):
        if self.verdict == "fails" and self.witness is None:
            raise ConfigurationError("a failing verdict must carry a witness")

    def to_dict(self) -> dict:
        return {
            "condition": self.condition_id,
            "verdict": self.verdict,
            "margin": self.margin,
            "witness": self.witness,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class SampleGrid:
    """Sampled (x, u, du) points for the pointwise hypothesis checks.

    x is the quadrature node set by default; u and du are random draws in
    sup-norm boxes, seeded for reproducibility.
    """

    x: np.ndarray
    u_draws: np.ndarray   # (draws, m)
    du_draws: np.ndarray  # (draws, m)

    def __post_init__(self):
        """x is a non-empty 1-D node array; u and du are finite draws of one
        (draws >= 1, m >= 1) shape.  Anything else raises ConfigurationError."""
        shape = np.shape(self.u_draws)
        if np.ndim(self.x) != 1 or not np.size(self.x):
            raise ConfigurationError(f"SampleGrid x must be a non-empty 1-D array, "
                                     f"got shape {np.shape(self.x)}")
        if len(shape) != 2 or min(shape) < 1 or np.shape(self.du_draws) != shape:
            raise ConfigurationError(
                f"SampleGrid u_draws and du_draws must share one (draws >= 1, m >= 1) "
                f"shape, got {shape} and {np.shape(self.du_draws)}")
        if not (np.isfinite(self.x).all() and np.isfinite(self.u_draws).all()
                and np.isfinite(self.du_draws).all()):
            raise ConfigurationError("SampleGrid x, u_draws and du_draws must be finite")

    @classmethod
    def default(cls, basis: SpectralBasis, m: int, u_box: float = 1e3,
                du_box: float = 1e3, draws: int = 200, seed: int = 0) -> "SampleGrid":
        """``draws`` (>= 1) uniform draws of u in [-u_box, u_box]^m and of du
        in [-du_box, du_box]^m; each box is positive and finite, and ``seed``
        is a whole number >= 0."""
        m, draws, seed = _count("m", m), _count("draws", draws), _count("seed", seed, 0)
        u_box = _radius("u_box", u_box, positive=True)
        du_box = _radius("du_box", du_box, positive=True)
        rng = np.random.default_rng(seed)
        u = rng.uniform(-u_box, u_box, size=(draws, m))
        du = rng.uniform(-du_box, du_box, size=(draws, m))
        return cls(x=basis.x, u_draws=u, du_draws=du)

    def scaled(self, factor: float) -> "SampleGrid":
        return SampleGrid(self.x, self.u_draws * factor, self.du_draws * factor)


def galerkin_F(field: NonlinearField, basis: SpectralBasis, u: GalerkinState) -> GalerkinState:
    """Coefficients <f_k(., u(.), u'(.)), phi_j> by folded quadrature.

    ``u.coeffs`` may be one (m, J) matrix, a (B, m, J) stack or an
    (S, B, m, J) stack of S independent blocks.  Up to three dimensions the
    whole array is one block of rows; with four, each trailing (B, m, J)
    stack is its own block, and its fold and projection products are the
    BLAS calls that block alone makes, so every block's coefficients are
    bit for bit those of a separate call.  The field then receives U (and
    dU) of shape (S, B, m, n): two leading batch axes.

    The states are copied into ``SpectralBasis._blocks`` and evaluated by
    ``_evaluate``, the one evaluation body, which the march step
    (``semiflow._homotopy``) runs too.  A field value of another shape than
    U, or a non-finite one, raises EvaluationError there; a state whose
    trailing shape is not (field.m, basis.J) raises ConfigurationError.
    """
    c = u.coeffs
    if c.shape[-2:] != (field.m, basis.J):
        raise ConfigurationError(f"state shape {c.shape} is not (..., m, J) = "
                                 f"(..., {field.m}, {basis.J})")
    work = _evaluate(field, basis, basis._blocks(c.shape, states=c))
    return GalerkinState._trusted(_interleave(work.cs, work.ca).reshape(c.shape))


def _evaluate(field: NonlinearField, basis: SpectralBasis, work):
    """Overwrite the parity blocks of ``work`` (``spectral._Blocks``) with F
    of the states they hold, and return ``work``: the fold of U (and, for a
    field that ``reads_du``, of u' into a buffer of its own), one
    ``field.eval`` on the nodes, and the projection into the blocks
    (``np.matmul(..., out=)``).

    A field value of another shape than U raises EvaluationError, and so
    does a non-finite one, naming its component and node (the first in
    memory order).  The check sums the flat buffer, not the nodal values:
    the products spread inf and NaN to every coefficient of the row (0 *
    inf is NaN), and a non-finite coefficient makes the sum non-finite in
    any order, so the nodal values are scanned only when the sum is not
    finite.  If every nodal value is finite (the quadrature sum, or the
    check's own sum, overflowed), nothing is raised, and the march's
    divergence guard sees the coefficients as they are.
    """
    flat, cs, ca, nodal, halves, U = work
    basis._fold_blocks(cs, ca, basis._phi_fold, False, halves)
    dU = None
    if field.reads_du:
        dU = np.empty_like(nodal)
        basis._fold_blocks(cs, ca, basis._dphi_fold, True, basis._halves(dU))
        dU = dU.reshape(U.shape)
    fv = np.ascontiguousarray(field.eval(basis.x, U, dU), dtype=float)
    if fv.shape != U.shape:
        raise EvaluationError(f"field returned shape {fv.shape}, expected {U.shape}")
    basis._project_blocks(fv.reshape(nodal.shape), cs, ca)
    if not math.isfinite(flat.sum()) and not np.isfinite(fv).all():
        *_, k, i = np.argwhere(~np.isfinite(fv))[0]
        raise EvaluationError(
            f"non-finite field value in component {k + 1} at node x={basis.x[i]:.6g}")
    return work


def _u_jacobian(field: NonlinearField, x: np.ndarray, U: np.ndarray,
                dU: Optional[np.ndarray]) -> np.ndarray:
    """Central-difference u-Jacobian of the field on the nodes, shape (m, m, n):
    entry [k, col] is (f_k(U + h e_col) - f_k(U - h e_col)) / 2h with
    h = U_JACOBIAN_STEP, all 2 m shifted states in one stacked evaluation
    (``dU=None`` is passed on)."""
    m = U.shape[0]
    shifted = np.broadcast_to(U, (2, m, m, x.size)).copy()
    cols = np.arange(m)
    shifted[0, cols, cols] += U_JACOBIAN_STEP
    shifted[1, cols, cols] -= U_JACOBIAN_STEP
    dU = None if dU is None else np.broadcast_to(dU, shifted.shape)
    f = np.asarray(field.eval(x, shifted, dU))
    return ((f[0] - f[1]) / (2 * U_JACOBIAN_STEP)).transpose(1, 0, 2)


def _sample_nodes(field: NonlinearField, x: np.ndarray) -> np.ndarray:
    """The nodes of ``x`` the sampled checks evaluate ``field`` at: all of
    them, or only the first for a field that does not read x."""
    return x if field.reads_x else x[:1]


def _grid_values(field: NonlinearField, grid: SampleGrid) -> np.ndarray:
    """Field values on every draw of ``grid``, shape (draws, m, n); for a
    field that does not read x, shape (draws, m, 1): its values at the first
    node, which are its values at every node.  U and dU are read-only
    broadcast views of the draws, and a field that does not read u' gets
    ``dU=None``."""
    x = _sample_nodes(field, grid.x)
    shape = grid.u_draws.shape + x.shape
    U = np.broadcast_to(grid.u_draws[:, :, None], shape)
    dU = np.broadcast_to(grid.du_draws[:, :, None], shape) if field.reads_du else None
    return np.asarray(field.eval(x, U, dU), dtype=float)


def check_bounded(field: NonlinearField, grid: SampleGrid) -> ConditionReport:
    """Certify the uniform bound |f_k| <= C3 on the sample grid.

    With a declared bound the verdict compares against it; without one the
    empirical maximum is reported, and the check fails if the maximum keeps
    growing with the sampling box (compared against the half-size box).
    """
    return _bounded_report(field, grid, _grid_values(field, grid))


def _bounded_report(field: NonlinearField, grid: SampleGrid,
                    vals: np.ndarray) -> ConditionReport:
    """``check_bounded`` from the field's values on ``grid``
    (``_grid_values``); the witness is the first node of the worst draw."""
    size = np.abs(vals)
    max_full = float(np.max(size))
    i, k, nidx = np.unravel_index(int(np.argmax(size)), vals.shape)
    witness = {
        "x": float(grid.x[nidx]),
        "u": grid.u_draws[i].tolist(),
        "du": grid.du_draws[i].tolist(),
        "component": int(k + 1),
        "value": float(vals[i, k, nidx]),
    }
    if field.bound_C3 is not None:
        ok = max_full <= field.bound_C3 * (1 + 1e-12)
        return ConditionReport(
            "F2", "holds" if ok else "fails", margin=field.bound_C3 - max_full,
            witness=None if ok else witness,
            detail=f"max |f| = {max_full:.6g} vs declared C3 = {field.bound_C3:.6g}",
        )
    max_half = float(np.max(np.abs(_grid_values(field, grid.scaled(0.5)))))
    if max_full > 1.5 * max_half:
        return ConditionReport(
            "F2", "fails", margin=-max_full, witness=witness,
            detail=f"max grows with the box ({max_half:.6g} -> {max_full:.6g}); not bounded",
        )
    return ConditionReport(
        "F2", "holds", margin=max_full, witness=None,
        detail=f"empirical C3 = {max_full:.6g} (no declared bound)",
    )


def check_sign_condition(field: NonlinearField, k: int, sign: str,
                         h_k: Callable[[np.ndarray], np.ndarray],
                         grid: SampleGrid, l: Optional[int] = None) -> ConditionReport:
    """Sampled check of +- f_k(x,u,du) |u_k|^sigma_k sgn(u_k) >= h_k(x).

    ``h_k`` returns finite values on the grid's nodes, one number or one
    per node; anything else raises ConfigurationError.  ``l`` (the split
    index, a whole number >= 1) only selects the report label C1/C2.
    """
    k, sign = _one_based("k", k, field.m), _sign("sign", sign)
    if l is not None:
        l = _count("l", l)
    hvals = np.asarray(h_k(grid.x), dtype=float)
    if hvals.shape not in ((), grid.x.shape) or not np.isfinite(hvals).all():
        raise ConfigurationError(
            f"h_k must return one finite value or one per node (shape {grid.x.shape}); got "
            f"shape {hvals.shape} with {np.count_nonzero(~np.isfinite(hvals))} non-finite")
    return _sign_report(field, k, sign, hvals, grid, _grid_values(field, grid), l)


def _sign_report(field: NonlinearField, k: int, sign: str, hvals,
                 grid: SampleGrid, vals: np.ndarray, l: Optional[int]) -> ConditionReport:
    """``check_sign_condition`` from h_k (one value, or one per node) and
    the field's values on ``grid`` (``_grid_values``).  The margins span the
    nodes only where the values or h_k do; the witness is the first node of
    the worst draw, and every draw counts as n samples."""
    s = 1.0 if sign == "+" else -1.0
    sigma_k = field.sigma[k - 1]
    uk = grid.u_draws[:, k - 1][:, None]
    lhs = s * vals[:, k - 1, :] * np.abs(uk) ** sigma_k * np.sign(uk)
    margins = lhs - hvals
    worst = float(np.min(margins))
    i, nidx = np.unravel_index(int(np.argmin(margins)), margins.shape)
    witness = {
        "x": float(grid.x[nidx]),
        "u": grid.u_draws[i].tolist(),
        "du": grid.du_draws[i].tolist(),
        "margin": worst,
    }
    cid = ("C1" if (l is None or k <= l) else "C2") + sign
    verdict = "holds" if worst >= 0 else "fails"
    return ConditionReport(cid, verdict, margin=worst,
                           witness=None if verdict == "holds" else witness,
                           detail=f"component {k}, sign {sign}, "
                                  f"{uk.size * grid.x.size} samples")


def verify_limits(field: NonlinearField, k: int, basis: SpectralBasis,
                  seed: int = 0) -> ConditionReport:
    """Check |s|^sigma_k f_k(x, u +- s e_k, du) -> f_k^{+-}(x) over samples.

    The declared limits are rejected when the deviation at s = 1e6 exceeds
    LIMIT_TOL.  The samples are LIMIT_DRAWS draws of ``SampleGrid.default``
    with u and du in [-10, 10], drawn from ``seed`` (a whole number >= 0).
    Uniformity is checked only over the finite sample set.
    """
    k, seed = _one_based("k", k, field.m), _count("seed", seed, 0)
    return _limit_reports(field, basis, seed, [k])[0]


def _limit_reports(field: NonlinearField, basis: SpectralBasis, seed: int,
                   ks) -> list[ConditionReport]:
    """``verify_limits`` of each 1-based component in ``ks``, from one draw
    of the grid and one evaluation of every component's +-s states."""
    s = 1e6
    grid = SampleGrid.default(basis, field.m, u_box=10.0, du_box=10.0,
                              draws=LIMIT_DRAWS, seed=seed)
    draws = grid.u_draws.shape[0]
    x = _sample_nodes(field, grid.x)
    fp = np.asarray(field.f_plus(x), dtype=float)
    fm = np.asarray(field.f_minus(x), dtype=float)
    # every (component, sign, draw) state in one evaluation: one block per
    # component in ks order, its + draws before its -
    blocks = np.tile(grid.u_draws, (len(ks), 2, 1))
    for block, k in zip(blocks, ks):
        block[:, k - 1] = np.repeat([s, -s], draws)
    stacked = SampleGrid(grid.x, blocks.reshape(-1, field.m),
                         np.tile(grid.du_draws, (2 * len(ks), 1)))
    vals = _grid_values(field, stacked).reshape(len(ks), 2 * draws, field.m, x.size)
    reports = []
    for block, k in zip(vals, ks):
        scaled = s ** field.sigma[k - 1] * block[:, k - 1, :]
        final = float(np.max(np.abs(scaled - np.repeat([fp[k - 1], fm[k - 1]], draws, axis=0))))
        verdict = "holds" if final <= LIMIT_TOL else "fails"
        reports.append(ConditionReport(
            "LIMITS", verdict, margin=LIMIT_TOL - final,
            witness=None if verdict == "holds" else {"s": float(s), "deviation": final},
            detail=f"component {k}: sup deviation {final:.3e} at s={s:.3g} "
                   f"(checked on {draws} samples only)",
        ))
    return reports


# ---------------------------------------------------------------------------
# catalogue

_HALF_PI = np.pi / 2.0


def _odd_arctan(U, gain):
    # written in an explicitly odd form so that mirrored nodal data
    # cancels bit-exactly regardless of the platform's libm, -0.0 included
    return np.copysign(np.arctan(gain * np.abs(U)), U if gain > 0 else gain * U)


def _arctan_limits(gain, *_):
    return (_HALF_PI, -_HALF_PI) if gain > 0 else (-_HALF_PI, _HALF_PI)


def _gaussian_potential(U, sigma):
    return np.sum(0.5 * np.sqrt(np.pi) * _ufuncs().erf(U), axis=0)


class _Row(NamedTuple):
    """A pointwise catalogue field f_k(u) = g(u_k).  Every callable takes the
    field's arguments in ``defaults`` order (g and potential after U)."""

    defaults: dict        # argument name -> default; the number of names is the arity
    label: str            # the field's name, formatted with the arguments
    g: Callable           # g(U, *args), applied to every component
    limits: Callable      # (f^+, f^-), constant in x and equal for every component
    sigma: Callable       # the degree of every component
    C3: float             # sup |g|
    slope: Callable       # g'(0), so jac0 = slope * I
    potential: Optional[Callable]  # potential(U, *args) = sum_k G(u_k) with G' = g
    odd: bool             # g(-U) == -g(U), every nonzero value bit for bit


_ROWS = {
    # carries the potential sum_k [u_k arctan(gain u_k) - log(1+gain^2 u_k^2)/(2 gain)]
    "arctan": _Row(
        defaults={"gain": 1.0}, label="arctan({0:g})", g=_odd_arctan,
        limits=_arctan_limits, sigma=lambda gain: 0.0, C3=_HALF_PI,
        slope=lambda gain: gain,
        potential=lambda U, gain: np.sum(
            U * np.arctan(gain * U) - np.log1p((gain * U) ** 2) / (2.0 * gain), axis=0),
        odd=True),
    # degree-sigma resonance: |s|^sigma g(s) has the plain arctan limits while
    # the perturbation itself decays
    "scaled-arctan": _Row(
        defaults={"gain": 1.0, "sigma": 0.5}, label="scaled-arctan({0:g},{1:g})",
        g=lambda U, gain, sigma: _odd_arctan(U, gain) / (1.0 + U ** 2) ** (sigma / 2.0),
        limits=_arctan_limits, sigma=lambda gain, sigma: sigma, C3=_HALF_PI,
        slope=lambda gain, sigma: gain, potential=None, odd=True),
    # Gaussian decay dominates any power, so both limits vanish and every
    # kernel-weighted resonance functional is identically zero
    "gaussian-decay": _Row(
        defaults={"sigma": 0.5}, label="gaussian-decay", g=lambda U, sigma: np.exp(-U ** 2),
        limits=lambda sigma: (0.0, 0.0), sigma=lambda sigma: sigma, C3=1.0,
        slope=lambda sigma: 0.0, potential=_gaussian_potential, odd=False),
}
# every name make_field accepts, with its argument defaults
_DEFAULTS = {name: row.defaults for name, row in _ROWS.items()}
_DEFAULTS["constant-kernel"] = {"component": 1.0, "mode": 1.0, "amplitude": 1.0}


def _pointwise(row: _Row, m: int, args: tuple) -> dict:
    """The NonlinearField parts of a table row at the given arguments."""
    g, pot = row.g, row.potential
    fp, fm = row.limits(*args)
    return dict(
        name=row.label.format(*args), eval=lambda x, U, dU: g(U, *args),
        sigma=np.full(m, float(row.sigma(*args))),
        f_plus=lambda x: np.full((m, x.size), fp), f_minus=lambda x: np.full((m, x.size), fm),
        bound_C3=row.C3, potential=None if pot is None else (lambda x, U: pot(U, *args)),
        jac0=row.slope(*args) * np.eye(m), reads_du=False, reads_x=False, odd=row.odd,
        componentwise=True)


def _constant_kernel(m: int, basis: SpectralBasis, component: float, mode: float,
                     amplitude: float) -> dict:
    """State-independent field F = amplitude * phi_mode e_component.

    When (component, mode) is a kernel mode of the shifted operator this is
    the classic counterexample field: the kernel projection of every solution
    drifts linearly and no bounded full solution exists.
    """
    k, j = _one_based("component", component, m), _one_based("mode", mode, basis.J)
    L = basis.domain.length
    norm = np.sqrt(2.0 / L)

    def profile(x):
        return amplitude * norm * np.sin(j * np.pi * x / L)

    def ev(x, U, dU):
        out = np.zeros(np.shape(U))
        out[..., k - 1, :] = profile(x)
        return out

    def limit(x):  # the field ignores the state, so its limits are its values
        return ev(x, np.empty((m, x.size)), None)

    return dict(
        name=f"constant-kernel({k},{j},{amplitude:g})", eval=ev, sigma=np.zeros(m),
        f_plus=limit, f_minus=limit, bound_C3=abs(amplitude) * norm,
        potential=lambda x, U: profile(x) * U[k - 1], jac0=np.zeros((m, m)), reads_du=False,
        componentwise=True)


def _signed(sign: int, m: int, **parts) -> NonlinearField:
    """The field, or for sign -1 its exact negation: the sign multiplies each
    whole output (eval, limits, potential, jac0), never a gain or amplitude,
    which would leave +0.0 where -f has -0.0; sigma, C3, oddness and
    ``componentwise`` are unchanged."""
    if sign < 0:
        parts["name"] = f"-({parts['name']})"
        for key in ("eval", "f_plus", "f_minus", "potential"):
            if parts[key] is not None:
                parts[key] = lambda *a, fn=parts[key]: -fn(*a)
        parts["jac0"] = -parts["jac0"]
    return NonlinearField(m=m, **parts)


def _parse_args(spec: str, argstr: Optional[str], defaults: dict) -> tuple:
    """The spec's arguments: none (every default) or exactly one per
    parameter, all finite; a gain is nonzero and a degree lies in [0, 1]."""
    try:
        args = tuple(float(a) for a in argstr.split(",")) if argstr and argstr.strip() else ()
    except ValueError:
        raise ConfigurationError(f"cannot parse the arguments of field spec {spec!r}") from None
    if not args:
        args = tuple(defaults.values())
    if len(args) != len(defaults):
        raise ConfigurationError(
            f"field spec {spec!r} takes no arguments or exactly {len(defaults)} "
            f"({', '.join(defaults)}), got {len(args)}")
    values = dict(zip(defaults, args))
    for key, val in values.items():
        if not np.isfinite(val):
            raise ConfigurationError(f"field spec {spec!r}: {key} must be finite, got {val}")
    if values.get("gain") == 0:
        raise ConfigurationError(f"field spec {spec!r}: gain must be nonzero")
    _unit(f"field spec {spec!r}: sigma", values.get("sigma", 0.0))
    return args


_CATALOGUE_RE = re.compile(r"^\s*(-?)\s*([a-zA-Z-]+)\s*(?:\(([^)]*)\))?\s*$")


def make_field(spec: str, m: int, basis: Optional[SpectralBasis] = None) -> NonlinearField:
    """Build a catalogue field from a name like ``arctan(40)``.

    Recognized names: ``arctan(gain)``, ``scaled-arctan(gain, sigma)``,
    ``gaussian-decay(sigma)`` and ``constant-kernel(component, mode,
    amplitude)`` (needs the basis).  A spec gives no arguments (every default)
    or all of them.  A leading ``-`` negates the field exactly.  ``m`` is a
    whole number >= 1.
    """
    m = _count("m", m)
    match = _CATALOGUE_RE.match(spec)
    if not match:
        raise ConfigurationError(f"cannot parse field spec {spec!r}")
    negate, name, argstr = match.groups()
    defaults = _DEFAULTS.get(name)
    if defaults is None:
        raise ConfigurationError(
            f"unknown catalogue field {name!r}; known fields: {', '.join(_DEFAULTS)}")
    if name == "constant-kernel" and basis is None:
        raise ConfigurationError("constant-kernel field needs the spectral basis")
    args = _parse_args(spec, argstr, defaults)
    if name == "constant-kernel":
        parts = _constant_kernel(m, basis, *args)
    else:
        parts = _pointwise(_ROWS[name], m, args)
    return _signed(-1 if negate else 1, m, **parts)
