"""Reaction terms: evaluation on quadrature nodes, Galerkin projection, and
sampled verification of the structural hypotheses (boundedness, sign
conditions, asymptotic limits)."""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .spectral import GalerkinState, SpectralBasis

__all__ = [
    "NonlinearField",
    "ConditionReport",
    "SampleGrid",
    "galerkin_F",
    "check_bounded",
    "check_sign_condition",
    "verify_limits",
    "make_field",
    "arctan_field",
    "scaled_arctan_field",
    "gaussian_decay_field",
    "constant_kernel_field",
    "negate_field",
]


@dataclass
class NonlinearField:
    """A reaction term f = (f_1, .., f_m) with its resonance metadata.

    ``eval(x, U, dU)`` is vectorized over nodes and states: x has shape
    (n,), U and dU shape (..., m, n) with any leading batch axes, and the
    result has the shape of U.  ``f_plus``/``f_minus`` return the
    declared asymptotic limits as (m, n) arrays on the given nodes; they are
    *verified* numerically by verify_limits, never inferred.  ``potential``
    (optional) evaluates a scalar potential ftilde(x, u) with
    d ftilde / d s_k = f_k, enabling the energy functional.  ``jac0`` is the
    u-Jacobian at (x, 0, 0) when known analytically.
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
    params: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.sigma = np.asarray(self.sigma, dtype=float)
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

    @classmethod
    def default(cls, basis: SpectralBasis, m: int, u_box: float = 1e3,
                du_box: float = 1e3, draws: int = 200, seed: int = 0) -> "SampleGrid":
        rng = np.random.default_rng(seed)
        u = rng.uniform(-u_box, u_box, size=(draws, m))
        du = rng.uniform(-du_box, du_box, size=(draws, m))
        return cls(x=basis.x, u_draws=u, du_draws=du)

    def scaled(self, factor: float) -> "SampleGrid":
        return SampleGrid(self.x, self.u_draws * factor, self.du_draws * factor)


def galerkin_F(field: NonlinearField, basis: SpectralBasis, u: GalerkinState) -> GalerkinState:
    """Coefficients <f_k(., u(.), u'(.)), phi_j> by folded quadrature.

    ``u.coeffs`` may be one (m, J) matrix or a (..., m, J) stack; the stack
    is evaluated row-wise through the same folded tables.
    """
    c = u.coeffs
    rows = c.reshape(-1, c.shape[-1])
    nodal = c.shape[:-1] + (basis.x.size,)
    U = basis.values(rows).reshape(nodal)
    dU = basis.dvalues(rows).reshape(nodal)
    fv = np.asarray(field.eval(basis.x, U, dU), dtype=float)
    if fv.shape != nodal:
        raise EvaluationError(f"field returned shape {fv.shape}, expected {nodal}")
    if not np.all(np.isfinite(fv)):
        *_, k, i = np.argwhere(~np.isfinite(fv))[0]
        raise EvaluationError(
            f"non-finite field value in component {k + 1} at node x={basis.x[i]:.6g}"
        )
    return GalerkinState._trusted(basis.project(fv.reshape(-1, nodal[-1])).reshape(c.shape))


def _eval_on_grid(field: NonlinearField, grid: SampleGrid):
    """Field values on every (draw, node) pair; shape (draws, m, n)."""
    n = grid.x.size
    U = np.repeat(grid.u_draws[:, :, None], n, axis=2)
    dU = np.repeat(grid.du_draws[:, :, None], n, axis=2)
    return np.asarray(field.eval(grid.x, U, dU), dtype=float)


def check_bounded(field: NonlinearField, grid: SampleGrid) -> ConditionReport:
    """Certify the uniform bound |f_k| <= C3 on the sample grid.

    With a declared bound the verdict compares against it; without one the
    empirical maximum is reported, and the check fails if the maximum keeps
    growing with the sampling box (compared against the half-size box).
    """
    vals = _eval_on_grid(field, grid)
    max_full = float(np.max(np.abs(vals)))
    i, k, nidx = np.unravel_index(int(np.argmax(np.abs(vals))), vals.shape)
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
    max_half = float(np.max(np.abs(_eval_on_grid(field, grid.scaled(0.5)))))
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

    ``l`` (the split index) only selects the report label C1/C2.
    """
    if sign not in ("+", "-"):
        raise ConfigurationError(f"sign must be '+' or '-', got {sign!r}")
    s = 1.0 if sign == "+" else -1.0
    sigma_k = field.sigma[k - 1]
    hvals = np.asarray(h_k(grid.x), dtype=float)
    if hvals.ndim == 0:
        hvals = np.full(grid.x.shape, float(hvals))
    vals = _eval_on_grid(field, grid)[:, k - 1, :]  # (draws, n)
    uk = grid.u_draws[:, k - 1][:, None]
    lhs = s * vals * np.abs(uk) ** sigma_k * np.sign(uk)
    margins = lhs - hvals[None, :]
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
                           detail=f"component {k}, sign {sign}, {margins.size} samples")


def verify_limits(field: NonlinearField, k: int, s_values=None,
                  grid: Optional[SampleGrid] = None, basis: Optional[SpectralBasis] = None,
                  draws: int = 20, seed: int = 0, tol: float = 1e-3) -> ConditionReport:
    """Check |s|^sigma_k f_k(x, u + s e_k, du) -> f_k^{+-}(x) over samples.

    The declared limits are rejected when the deviation at the largest s
    (>= 1e6 by default) exceeds ``tol``.  Uniformity is checked only over the
    finite sample set.
    """
    if s_values is None:
        s_values = np.geomspace(1e2, 1e6, 9)
    s_values = np.asarray(sorted(s_values), dtype=float)
    if s_values[-1] < 1e6:
        raise ConfigurationError("s_values must reach at least 1e6")
    if grid is None:
        if basis is None:
            raise ConfigurationError("verify_limits needs a grid or a basis")
        grid = SampleGrid.default(basis, field.m, u_box=10.0, du_box=10.0,
                                  draws=draws, seed=seed)
    x = grid.x
    n = x.size
    sigma_k = field.sigma[k - 1]
    fp = np.asarray(field.f_plus(x), dtype=float)[k - 1]
    fm = np.asarray(field.f_minus(x), dtype=float)[k - 1]
    # every (s, sign, draw) state in one evaluation: axes (s, sign, draw, m, n)
    u = np.broadcast_to(grid.u_draws, (s_values.size, 2) + grid.u_draws.shape).copy()
    u[..., k - 1] = np.stack([s_values, -s_values], axis=1)[:, :, None]
    U = np.repeat(u[..., None], n, axis=-1)
    dU = np.repeat(np.broadcast_to(grid.du_draws, u.shape)[..., None], n, axis=-1)
    scale = np.array([abs(s) ** sigma_k for s in s_values])
    vals = scale[:, None, None, None] * np.asarray(field.eval(x, U, dU))[..., k - 1, :]
    target = np.stack([fp, fm])[None, :, None, :]
    sup_dev = np.max(np.abs(vals - target).reshape(s_values.size, -1), axis=1)
    final = float(sup_dev[-1])
    verdict = "holds" if final <= tol else "fails"
    witness = None if verdict == "holds" else {"s": float(s_values[-1]), "deviation": final}
    return ConditionReport(
        "LIMITS", verdict, margin=tol - final, witness=witness,
        detail=f"component {k}: sup deviation {final:.3e} at s={s_values[-1]:.3g} "
               f"(checked on {grid.u_draws.shape[0]} samples only)",
    )


# ---------------------------------------------------------------------------
# catalogue

def arctan_field(m: int, gain: float = 1.0) -> NonlinearField:
    """f_k(u) = arctan(gain * u_k) componentwise; sigma = 0, limits +-pi/2 sgn(gain).

    Carries the potential sum_k [u_k arctan(gain u_k) - log(1+gain^2 u_k^2)/(2 gain)].
    """
    if gain == 0:
        raise ConfigurationError("arctan gain must be nonzero")
    half_pi = np.pi / 2.0

    def ev(x, U, dU):
        # written in an explicitly odd form so that mirrored nodal data
        # cancels bit-exactly regardless of the platform's libm
        return np.sign(U) * np.arctan(gain * np.abs(U))

    def f_plus(x):
        return np.full((m, x.size), half_pi if gain > 0 else -half_pi)

    def f_minus(x):
        return np.full((m, x.size), -half_pi if gain > 0 else half_pi)

    def potential(x, U):
        return np.sum(U * np.arctan(gain * U) - np.log1p((gain * U) ** 2) / (2.0 * gain), axis=0)

    return NonlinearField(
        name=f"arctan({gain:g})", m=m, eval=ev, sigma=np.zeros(m),
        f_plus=f_plus, f_minus=f_minus, bound_C3=half_pi, potential=potential,
        jac0=gain * np.eye(m), params={"gain": gain},
    )


def scaled_arctan_field(m: int, gain: float = 1.0, sigma: float = 0.5) -> NonlinearField:
    """f_k(u) = arctan(gain u_k) / (1 + u_k^2)^{sigma/2}; degree-sigma resonance.

    |s|^sigma f_k(.., s, ..) -> +-pi/2 sgn(gain), so the limits match the
    plain arctan field while the perturbation itself decays.
    """
    if not (0 <= sigma <= 1):
        raise ConfigurationError(f"sigma must lie in [0, 1], got {sigma}")
    half_pi = np.pi / 2.0

    def ev(x, U, dU):
        return np.sign(U) * np.arctan(gain * np.abs(U)) / (1.0 + U ** 2) ** (sigma / 2.0)

    def f_plus(x):
        return np.full((m, x.size), half_pi if gain > 0 else -half_pi)

    def f_minus(x):
        return np.full((m, x.size), -half_pi if gain > 0 else half_pi)

    return NonlinearField(
        name=f"scaled-arctan({gain:g},{sigma:g})", m=m, eval=ev,
        sigma=np.full(m, float(sigma)), f_plus=f_plus, f_minus=f_minus,
        bound_C3=half_pi, jac0=gain * np.eye(m), params={"gain": gain, "sigma": sigma},
    )


def gaussian_decay_field(m: int, sigma: float = 0.5) -> NonlinearField:
    """f_k(u) = exp(-u_k^2); Gaussian decay dominates any power, limits 0.

    A strong-resonance-style example: both asymptotic limits vanish, so every
    kernel-weighted resonance functional is identically zero.
    """
    from scipy.special import erf

    def ev(x, U, dU):
        return np.exp(-U ** 2)

    def zero(x):
        return np.zeros((m, x.size))

    def potential(x, U):
        return np.sum(0.5 * np.sqrt(np.pi) * erf(U), axis=0)

    return NonlinearField(
        name="gaussian-decay", m=m, eval=ev, sigma=np.full(m, float(sigma)),
        f_plus=zero, f_minus=zero, bound_C3=1.0, potential=potential,
        jac0=np.zeros((m, m)), params={"sigma": sigma},
    )


def constant_kernel_field(basis: SpectralBasis, m: int, component: int = 1,
                          mode: int = 1, amplitude: float = 1.0) -> NonlinearField:
    """State-independent field F = amplitude * phi_mode e_component.

    When (component, mode) is a kernel mode of the shifted operator this is
    the classic counterexample field: the kernel projection of every solution
    drifts linearly and no bounded full solution exists.
    """
    if not (1 <= component <= m):
        raise ConfigurationError(f"component must lie in [1, {m}], got {component}")
    if not (1 <= mode <= basis.J):
        raise ConfigurationError(f"mode must lie in [1, {basis.J}], got {mode}")
    L = basis.domain.length
    norm = np.sqrt(2.0 / L)
    km, jm = component, mode

    def profile(x):
        return amplitude * norm * np.sin(jm * np.pi * x / L)

    def ev(x, U, dU):
        out = np.zeros(np.shape(U))
        out[..., km - 1, :] = profile(x)
        return out

    def limit(x):
        out = np.zeros((m, x.size))
        out[km - 1] = profile(x)
        return out

    def potential(x, U):
        return profile(x) * U[km - 1]

    return NonlinearField(
        name=f"constant-kernel({component},{mode},{amplitude:g})", m=m, eval=ev,
        sigma=np.zeros(m), f_plus=limit, f_minus=limit,
        bound_C3=abs(amplitude) * norm, potential=potential, jac0=np.zeros((m, m)),
        params={"component": component, "mode": mode, "amplitude": amplitude},
    )


def negate_field(field: NonlinearField) -> NonlinearField:
    """The field -f, with limits swapped and negated accordingly."""
    base_eval, base_fp, base_fm = field.eval, field.f_plus, field.f_minus
    base_pot = field.potential

    def ev(x, U, dU):
        return -base_eval(x, U, dU)

    def potential(x, U):
        return -base_pot(x, U)

    return NonlinearField(
        name=f"-({field.name})", m=field.m, eval=ev, sigma=field.sigma.copy(),
        f_plus=lambda x: -base_fp(x), f_minus=lambda x: -base_fm(x),
        bound_C3=field.bound_C3,
        potential=potential if base_pot is not None else None,
        jac0=None if field.jac0 is None else -field.jac0,
        params=dict(field.params),
    )


_CATALOGUE_RE = re.compile(r"^\s*(-?)\s*([a-zA-Z-]+)\s*(?:\(([^)]*)\))?\s*$")


def make_field(spec: str, m: int, basis: Optional[SpectralBasis] = None) -> NonlinearField:
    """Build a catalogue field from a name like ``arctan(40)``.

    Recognized names: ``arctan(gain)``, ``scaled-arctan(gain, sigma)``,
    ``gaussian-decay`` or ``gaussian-decay(sigma)``, and
    ``constant-kernel(component, mode, amplitude)`` (needs the basis).  A
    leading ``-`` negates the field.
    """
    match = _CATALOGUE_RE.match(spec)
    if not match:
        raise ConfigurationError(f"cannot parse field spec {spec!r}")
    negate, name, argstr = match.groups()
    args = [float(a) for a in argstr.split(",")] if argstr else []
    if name == "arctan":
        field = arctan_field(m, *(args or [1.0]))
    elif name == "scaled-arctan":
        field = scaled_arctan_field(m, *(args or [1.0, 0.5]))
    elif name == "gaussian-decay":
        field = gaussian_decay_field(m, *(args or [0.5]))
    elif name == "constant-kernel":
        if basis is None:
            raise ConfigurationError("constant-kernel field needs the spectral basis")
        comp, mode = (int(args[0]), int(args[1])) if len(args) >= 2 else (1, 1)
        amp = args[2] if len(args) >= 3 else 1.0
        field = constant_kernel_field(basis, m, comp, mode, amp)
    else:
        raise ConfigurationError(f"unknown catalogue field {name!r}")
    return negate_field(field) if negate else field
