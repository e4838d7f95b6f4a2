"""Time integration of the deformation family u' = -A u + H(s, u), bound
conformance checks, the kernel blow-up demonstration, and the s=0 product
flow identity."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .decomposition import SplitIndexSet
from .errors import ConfigurationError, DivergenceSignal, UnboundedModeError
from .fields import NonlinearField, galerkin_F
from .spectral import (OVERFLOW_EXPONENT, GalerkinState, ProblemConfig, SpectralBasis,
                       fractional_weights, semigroup_apply)

__all__ = [
    "IntegratorSettings",
    "Trajectory",
    "AprioriBounds",
    "BoundReport",
    "BlowupReport",
    "HomotopyBox",
    "homotopy_field",
    "integrate",
    "integrate_ensemble",
    "blowup_demo",
    "apriori_bounds",
    "check_bounded_solution",
    "product_flow_check",
    "sample_states_in_box",
    "trajectory_norms",
]

NORM_NAMES = ("l2", "fractional", "P1_seminorm", "P2_seminorm",
              "Qminus_alpha", "Qplus_alpha")

SCHEMES = ("ETD1", "IMEX-Euler")


@dataclass(frozen=True)
class IntegratorSettings:
    """Step size, horizon, scheme, and the drift tolerance of the
    boundedness detector.

    ETD1 is exact on the diagonal linear part, so its step size is limited by
    accuracy only; the IMEX-Euler alternative must satisfy
    dt <= 0.25 / max|mu_J - lambda_k| (checked at integration time).  The
    horizon T must be a whole multiple of dt (to a relative 1e-9): no step
    is partial, and no horizon is silently shortened.
    """

    dt: float
    T: float
    scheme: str = "ETD1"
    tol_drift: float = 1e-3
    store_every: int = 1
    divergence_threshold: float = 1e8

    def __post_init__(self):
        if not (0 < self.dt < np.inf and 0 < self.T < np.inf):
            raise ConfigurationError("dt and T must be positive and finite")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.tol_drift <= 0:
            raise ConfigurationError("tol_drift must be positive")
        if self.store_every < 1:
            raise ConfigurationError("store_every must be >= 1")
        steps = self.T / self.dt
        if round(steps) < 1 or abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigurationError(
                f"T={self.T!r} must be a whole positive multiple of dt={self.dt!r} "
                f"(T/dt = {steps!r})")

    @property
    def nsteps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass(frozen=True)
class Trajectory:
    """Recorded solution samples with per-sample norms.

    ``coeffs`` has shape (n, m, J); ``norms`` shape (n, 6) with columns
    NORM_NAMES.  ``diverged`` marks trajectories cut short by the divergence
    guard.
    """

    times: np.ndarray
    coeffs: np.ndarray
    norms: np.ndarray
    s: float
    diverged: bool = False

    def __post_init__(self):
        n = self.times.size
        if self.coeffs.shape[0] != n or self.norms.shape[0] != n:
            raise ConfigurationError("trajectory arrays must have equal lengths")

    def state(self, i: int) -> GalerkinState:
        return GalerkinState(self.coeffs[i])

    @property
    def final(self) -> GalerkinState:
        return GalerkinState(self.coeffs[-1])

    def norm_series(self, name: str) -> np.ndarray:
        return self.norms[:, NORM_NAMES.index(name)]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["t", *NORM_NAMES])
        for t, norms in zip(self.times, self.norms):
            writer.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in norms])
        return buf.getvalue()


def trajectory_norms(basis: SpectralBasis, split: SplitIndexSet, config: ProblemConfig,
                     coeffs: np.ndarray) -> np.ndarray:
    """The six monitored norms of one (m, J) coefficient matrix, shape (6,),
    or of every matrix in an (n, m, J) stack, shape (n, 6)."""
    weights = fractional_weights(basis, config) ** config.alpha
    masks = split.masks
    sq = coeffs ** 2
    wsq = (weights * coeffs) ** 2
    full = np.ones(sq.shape[-2:], dtype=bool)

    def total(a, mask):
        # C-ordered rows, so that each sum runs as over one flat matrix
        return np.ascontiguousarray(a[..., mask]).sum(axis=-1)

    return np.sqrt(np.stack([
        total(sq, full), total(wsq, full),
        total(sq, masks["P1"]), total(sq, masks["P2"]),
        total(wsq, masks["Qminus"]), total(wsq, masks["Qplus"]),
    ], axis=-1))


def homotopy_field(field: NonlinearField, basis: SpectralBasis, split: SplitIndexSet,
                   s, u: GalerkinState) -> GalerkinState:
    """Deformed reaction term
    H(s, u) = Q0 F(s Q- u + s Q+ u + Q0 u) + s Q- F(u) + s Q+ F(u).

    At s=1 the three projections telescope back to F(u); at s=0 only the
    kernel projection of the kernel-restricted field survives.  ``u`` may be
    a (B, m, J) stack with one s per member (``s`` of shape (B,)); F(u) is
    evaluated only for the members with 0 < s < 1, since at s = 1 it equals
    the kernel-restricted evaluation and at s = 0 it is not needed.
    """
    s = np.asarray(s, dtype=float)
    if not ((0.0 <= s) & (s <= 1.0)).all():
        raise ConfigurationError(f"s must lie in [0, 1], got {s}")
    if (s == 1.0).all():
        return galerkin_F(field, basis, u)
    q0 = split.masks["Q0"]  # its complement is X- + X+
    c = u.coeffs
    sc = s[..., None, None]
    f_inner = galerkin_F(field, basis, GalerkinState._trusted(np.where(q0, c, sc * c))).coeffs
    f_full = np.where(sc == 0.0, 0.0, f_inner)
    mid = (0.0 < s) & (s < 1.0)  # for a scalar s, True selects the whole state
    if mid.any():
        f_full[mid] = galerkin_F(field, basis, GalerkinState._trusted(c[mid])).coeffs
    return GalerkinState._trusted(np.where(q0, f_inner, sc * f_full))


def _etd_factors(basis: SpectralBasis, config: ProblemConfig, dt: float):
    z = dt * (basis.mu[None, :] - config.lam_array()[:, None])
    # e^{-z} overflows on strongly growing modes; name the worst one
    if np.max(-z) > OVERFLOW_EXPONENT:
        k, j = np.unravel_index(int(np.argmin(z)), z.shape)
        raise UnboundedModeError(k + 1, j + 1, float(-z[k, j]))
    E = np.exp(-z)
    # phi1(z) = (1 - e^{-z})/z with the analytic limit 1 at z = 0; resonance
    # puts exact zeros on the diagonal, so the limit branch is load-bearing
    small = np.abs(z) < 1e-12
    P = np.where(small, 1.0, (1.0 - E) / np.where(small, 1.0, z))
    return E, P


def _march(rhs: Callable[[np.ndarray, np.ndarray], np.ndarray], basis: SpectralBasis,
           config: ProblemConfig, settings: IntegratorSettings,
           c: np.ndarray) -> Iterator[tuple]:
    """The one time-stepping loop for u' = -A u + rhs(u), from the (B, m, J)
    stack c at t = 0.

    ETD1: u_{n+1} = e^{-dt A} u_n + dt phi1(dt A) rhs(u_n), exact on the
    linear part (Cox & Matthews, JCP 176, 2002); IMEX-Euler treats the
    linear part implicitly.  ``rhs(c, members)`` gets the active rows and
    their indices into the original stack.  Yields fresh
    ``(n, t, c, members, diverged)`` after steps n = 1..nsteps, with
    ``diverged`` marking the rows whose L2 norm passed the divergence
    threshold or is not finite; those rows leave the stack after the yield,
    and the loop stops when no row is left.
    """
    dt = settings.dt
    if settings.scheme == "IMEX-Euler":
        rates = basis.mu[None, :] - config.lam_array()[:, None]
        limit = 0.25 / float(np.max(np.abs(rates)))
        if dt > limit:
            raise ConfigurationError(
                f"IMEX-Euler requires dt <= {limit:.3e} for this spectrum, got {dt}")
        denom = 1.0 + dt * rates
    else:
        E, P = _etd_factors(basis, config, dt)
    threshold = settings.divergence_threshold
    members = np.arange(c.shape[0])
    for n in range(settings.nsteps):
        H = rhs(c, members)
        if settings.scheme == "ETD1":
            c = E * c + dt * P * H
        else:
            c = (c + dt * H) / denom
        diverged = ~(np.sqrt((c ** 2).sum(axis=(-2, -1))) <= threshold)
        yield n + 1, (n + 1) * dt, c, members, diverged
        if diverged.any():
            c, members = c[~diverged], members[~diverged]
            if members.size == 0:
                return


def integrate_ensemble(field: NonlinearField, basis: SpectralBasis, split: SplitIndexSet,
                       config: ProblemConfig, s_values: Sequence[float],
                       states: Sequence[GalerkinState],
                       settings: IntegratorSettings) -> list[Trajectory]:
    """March u' = -A u + H(s_i, u) from states[i] for every member i at once,
    as one (B, m, J) stack, with the step of ``settings.scheme``.

    A member whose L2 norm passes the divergence threshold or stops being
    finite leaves the stack; its partial trajectory comes back with
    ``diverged=True``.  The others are unaffected: each row of the stack is
    stepped as it would be on its own, up to the last bits that the BLAS
    path of a stacked product can move (README, "Numerical notes").
    """
    s = np.asarray(s_values, dtype=float).reshape(-1)
    if s.size != len(states):
        raise ConfigurationError(
            f"need one s value per initial state, got {s.size} for {len(states)}")
    if s.size == 0:
        return []
    if any(u0.coeffs.shape != (config.m, basis.J) for u0 in states):
        raise ConfigurationError("initial state shape mismatch")

    def rhs(c, members):
        return homotopy_field(field, basis, split, s[members], GalerkinState._trusted(c)).coeffs

    c0 = np.stack([u0.coeffs for u0 in states])
    times = [[0.0] for _ in states]
    coeffs = [[u0.coeffs] for u0 in states]
    diverged = np.zeros(s.size, dtype=bool)
    for n, t, c, members, hit in _march(rhs, basis, config, settings, c0):
        stored = n % settings.store_every == 0 or n == settings.nsteps
        if stored or hit.any():
            diverged[members[hit]] = True
            for row in (range(members.size) if stored else np.flatnonzero(hit)):
                times[members[row]].append(t)
                coeffs[members[row]].append(c[row])
    return [_assemble(basis, split, config, times[i], coeffs[i], s[i], diverged[i])
            for i in range(s.size)]


def integrate(field: NonlinearField, basis: SpectralBasis, split: SplitIndexSet,
              config: ProblemConfig, s: float, u0: GalerkinState,
              settings: IntegratorSettings) -> Trajectory:
    """March u' = -A u + H(s, u) from u0 over [0, T] with the ETD1 or
    IMEX-Euler step of ``settings.scheme``: the ensemble of one.

    Raises DivergenceSignal when the L2 norm passes the divergence threshold
    or stops being finite; the partial trajectory rides on the signal.
    """
    traj, = integrate_ensemble(field, basis, split, config, [s], [u0], settings)
    if traj.diverged:
        raise DivergenceSignal(exit_time=float(traj.times[-1]), trajectory=traj)
    return traj


def _assemble(basis, split, config, times, coeffs, s, diverged):
    coeffs = np.asarray(coeffs)
    return Trajectory(times=np.asarray(times), coeffs=coeffs,
                      norms=trajectory_norms(basis, split, config, coeffs),
                      s=float(s), diverged=bool(diverged))


@dataclass(frozen=True)
class BlowupReport:
    """Linear fit of the kernel coefficients under a constant kernel forcing."""

    slopes: dict
    expected: dict
    max_residual: float
    qplus_alpha_initial: float
    qplus_alpha_final: float

    def to_dict(self) -> dict:
        return {
            "slopes": {f"{k},{j}": v for (k, j), v in self.slopes.items()},
            "expected": {f"{k},{j}": v for (k, j), v in self.expected.items()},
            "max_residual": self.max_residual,
            "qplus_alpha_initial": self.qplus_alpha_initial,
            "qplus_alpha_final": self.qplus_alpha_final,
        }


def blowup_demo(basis: SpectralBasis, split: SplitIndexSet, config: ProblemConfig,
                v0: GalerkinState, T: float,
                settings: Optional[IntegratorSettings] = None,
                u0: Optional[GalerkinState] = None) -> tuple[Trajectory, BlowupReport]:
    """Integrate u' = -A u + v0 for a kernel-valued constant forcing.

    The kernel projection then drifts linearly, Q0 u(t) = Q0 u(0) + t v0, so
    no bounded full solution can exist; the report returns the fitted slope
    of every kernel coefficient (expected: the corresponding v0 coefficient).
    """
    kmask = split.masks["Q0"]
    if np.any(v0.coeffs[~kmask] != 0.0):
        raise ConfigurationError("v0 must be supported on kernel modes only")
    if not np.any(v0.coeffs != 0.0):
        raise ConfigurationError("v0 must be nonzero")
    settings = IntegratorSettings(dt=1e-3, T=T) if settings is None else replace(settings, T=T)
    vvals = basis.values(v0.coeffs)
    m = config.m

    def const_eval(x, U, dU):
        return np.broadcast_to(vvals, np.shape(U))

    const_field = NonlinearField(
        name="blowup-forcing", m=m, eval=const_eval, sigma=np.zeros(m),
        f_plus=lambda x: vvals[:, : x.size], f_minus=lambda x: vvals[:, : x.size],
        bound_C3=float(np.max(np.abs(vvals))),
    )
    start = u0 if u0 is not None else GalerkinState.zeros(m, basis.J)
    traj = integrate(const_field, basis, split, config, 1.0, start, settings)
    slopes, expected = {}, {}
    max_res = 0.0
    for k, j in np.argwhere(kmask):
        series = traj.coeffs[:, k, j]
        fit = np.polyfit(traj.times, series, 1)
        res = float(np.max(np.abs(series - np.polyval(fit, traj.times))))
        slopes[(int(k) + 1, int(j) + 1)] = float(fit[0])
        expected[(int(k) + 1, int(j) + 1)] = float(v0.coeffs[k, j])
        max_res = max(max_res, res)
    return traj, BlowupReport(
        slopes=slopes, expected=expected, max_residual=max_res,
        qplus_alpha_initial=float(traj.norm_series("Qplus_alpha")[0]),
        qplus_alpha_final=float(traj.norm_series("Qplus_alpha")[-1]),
    )


@dataclass(frozen=True)
class AprioriBounds:
    """Computable constants of the trajectory bounds.

    R0_minus = C5 C6 C7 ||Q-|| / c and
    R0_plus = C5 C6 ||Q+|| (e^{-c}/c + 1/(1-alpha)), with C5 = 1 for the
    diagonal semigroup, C7 the finite-dimensional norm-equivalence constant
    on the negative block, and c the spectral gap.
    """

    c: float
    C5: float
    C6: float
    C7: float
    alpha: float
    norm_Qminus: float
    norm_Qplus: float
    R0_minus: float
    R0_plus: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in
                ("c", "C5", "C6", "C7", "alpha", "norm_Qminus", "norm_Qplus",
                 "R0_minus", "R0_plus")}


def apriori_bounds(basis: SpectralBasis, split: SplitIndexSet, config: ProblemConfig,
                   C6: float) -> AprioriBounds:
    """Plug-in evaluation of the bound constants from the spectral gap."""
    c = split.gap
    if not (c > 0):
        raise ConfigurationError("spectral gap must be positive; check the classification")
    weights = fractional_weights(basis, config) ** config.alpha
    minus = split.masks["Qminus"]
    plus = split.masks["Qplus"]
    C5 = 1.0
    C7 = float(np.max(weights[minus])) if minus.any() else 0.0
    nQm = 1.0 if minus.any() else 0.0
    nQp = 1.0 if plus.any() else 0.0
    R0_minus = C5 * C6 * C7 * nQm / c
    R0_plus = C5 * C6 * nQp * (np.exp(-c) / c + 1.0 / (1.0 - config.alpha))
    return AprioriBounds(c=c, C5=C5, C6=float(C6), C7=C7, alpha=config.alpha,
                         norm_Qminus=nQm, norm_Qplus=nQp,
                         R0_minus=float(R0_minus), R0_plus=float(R0_plus))


@dataclass(frozen=True)
class BoundReport:
    """Post-transient conformance of a trajectory against the a priori radii."""

    ratios: dict
    maxima: dict
    slope_P1: float
    unbounded: bool
    transient_fraction: float

    def to_dict(self) -> dict:
        return {"ratios": dict(self.ratios), "maxima": dict(self.maxima),
                "slope_P1": self.slope_P1, "unbounded": self.unbounded,
                "transient_fraction": self.transient_fraction}


def _ratio(value: float, bound: float) -> float:
    if bound == 0.0:
        return 0.0 if value <= 1e-12 else float("inf")
    return value / bound


def check_bounded_solution(trajectory: Trajectory, bounds: AprioriBounds,
                           R1: float, R2: float, transient_fraction: float = 0.2,
                           tol_drift: float = 1e-3) -> BoundReport:
    """Check the four componentwise norms against their radii after the
    transient, and flag kernel drift.

    Boundedness detection is window growth: the run is flagged unbounded if
    the linear-fit slope of the first-block kernel seminorm over the last
    half of the horizon exceeds tol_drift (or the integrator diverged).
    """
    n = trajectory.times.size
    start = int(np.floor(transient_fraction * n))
    start = min(start, n - 1)
    tail = slice(start, None)
    maxima = {
        "Qminus_alpha": float(np.max(trajectory.norm_series("Qminus_alpha")[tail])),
        "Qplus_alpha": float(np.max(trajectory.norm_series("Qplus_alpha")[tail])),
        "P1_seminorm": float(np.max(trajectory.norm_series("P1_seminorm")[tail])),
        "P2_seminorm": float(np.max(trajectory.norm_series("P2_seminorm")[tail])),
    }
    ratios = {
        "Qminus_alpha": _ratio(maxima["Qminus_alpha"], bounds.R0_minus),
        "Qplus_alpha": _ratio(maxima["Qplus_alpha"], bounds.R0_plus),
        "P1_seminorm": _ratio(maxima["P1_seminorm"], R1),
        "P2_seminorm": _ratio(maxima["P2_seminorm"], R2),
    }
    half = slice(n // 2, None)
    t = trajectory.times[half]
    p1 = trajectory.norm_series("P1_seminorm")[half]
    slope = float(np.polyfit(t, p1, 1)[0]) if t.size >= 2 else 0.0
    unbounded = trajectory.diverged or slope > tol_drift
    return BoundReport(ratios=ratios, maxima=maxima, slope_P1=slope,
                       unbounded=unbounded, transient_fraction=transient_fraction)


@dataclass(frozen=True)
class HomotopyBox:
    """Product box M: combined fractional radius R0+1 on the nonkernel block,
    kernel-block seminorm radii R1+1 and R2+1."""

    R0: float
    R1: float
    R2: float

    def membership(self, trajectory: Trajectory) -> np.ndarray:
        q = np.sqrt(trajectory.norm_series("Qminus_alpha") ** 2
                    + trajectory.norm_series("Qplus_alpha") ** 2)
        inside = (q <= self.R0 + 1.0)
        inside &= trajectory.norm_series("P1_seminorm") <= self.R1 + 1.0
        inside &= trajectory.norm_series("P2_seminorm") <= self.R2 + 1.0
        return inside

    def contains(self, trajectory: Trajectory) -> bool:
        return bool(np.all(self.membership(trajectory)))

    def to_dict(self) -> dict:
        return {"R0": self.R0, "R1": self.R1, "R2": self.R2}


def sample_states_in_box(basis: SpectralBasis, split: SplitIndexSet,
                         config: ProblemConfig, box: HomotopyBox, count: int,
                         seed: int = 0, fill: float = 0.9) -> list[GalerkinState]:
    """Random initial states strictly inside the box (fill < 1 keeps them off
    the boundary)."""
    rng = np.random.default_rng(seed)
    weights = fractional_weights(basis, config) ** config.alpha
    masks = split.masks
    out_mask = ~masks["Q0"]  # X- + X+
    states = []
    for _ in range(count):
        c = np.zeros((config.m, basis.J))
        for name, radius in (("P1", box.R1 + 1.0), ("P2", box.R2 + 1.0)):
            mask = masks[name]
            k = int(mask.sum())
            if k == 0:
                continue
            vec = rng.normal(size=k)
            nrm = np.linalg.norm(vec)
            if nrm > 0:
                vec *= fill * radius * rng.uniform() / nrm
            c[mask] = vec
        k = int(out_mask.sum())
        if k:
            vec = rng.normal(size=k)
            frac = np.linalg.norm(weights[out_mask] * vec)
            if frac > 0:
                vec *= fill * (box.R0 + 1.0) * rng.uniform() / frac
            c[out_mask] = vec
        states.append(GalerkinState(c))
    return states


def product_flow_check(field: NonlinearField, basis: SpectralBasis,
                       split: SplitIndexSet, config: ProblemConfig,
                       u0: GalerkinState, T: float,
                       settings: IntegratorSettings) -> float:
    """Max L2 discrepancy between the full s=0 integration and the split one.

    At s=0 the deformed system decouples into the kernel-only reduced flow
    and the linear semigroup on the complement; the full trajectory must
    agree with their superposition.
    """
    settings = replace(settings, T=T)
    full = integrate(field, basis, split, config, 0.0, u0, settings)
    kmask = split.masks["Q0"]
    kc = np.where(kmask, u0.coeffs, 0.0)
    out0 = GalerkinState(np.where(kmask, 0.0, u0.coeffs))
    kernel_track = {0: kc.copy()}
    c = kc.copy()
    for n in range(settings.nsteps):
        fk = galerkin_F(field, basis, GalerkinState(c)).coeffs
        c = c + settings.dt * np.where(kmask, fk, 0.0)
        kernel_track[n + 1] = c.copy()
    worst = 0.0
    for i, t in enumerate(full.times):
        step = int(round(t / settings.dt))
        linear = semigroup_apply(basis, config, t, out0).coeffs
        combined = kernel_track[step] + linear
        worst = max(worst, float(np.sqrt(np.sum((full.coeffs[i] - combined) ** 2))))
    return worst
