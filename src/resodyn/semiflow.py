"""Time integration of the deformation family u' = -A u + H(s, u), bound
conformance checks, the kernel blow-up demonstration, and the s=0 product
flow identity."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .decomposition import SplitIndexSet
from .errors import ConfigurationError, DivergenceSignal, UnboundedModeError
from .fields import NonlinearField, _evaluate
from .spectral import (OVERFLOW_EXPONENT, GalerkinState, ProblemConfig, SpectralBasis, _Blocks,
                       _check_states, _count, _parity_order, _radius, _unit, diag_A,
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

# Most steps one run may take: a thousand times the 10 000 of the shipped
# configs.  A horizon past it (T = 1e300 at dt = 1e-2, say) is refused
# rather than marched without end.
MAX_STEPS = 10 ** 7

DRIFT_TOL = 1e-3  # kernel-seminorm slope above which a run is flagged unbounded
TRANSIENT_FRACTION = 0.2  # leading share of a trajectory that the bound check skips
BOX_FILL = 0.9    # share of each box radius that sampled initial states fill
# L2 norm past which a state has diverged: the march's default guard, and
# the bound on every Newton iterate of ``connections.find_equilibria``
DIVERGENCE_THRESHOLD = 1e8


@dataclass(frozen=True)
class IntegratorSettings:
    """Step size, horizon, scheme, sample spacing and divergence threshold.

    ETD1 is exact on the diagonal linear part, so its step size is limited by
    accuracy only; the IMEX-Euler alternative must satisfy
    dt <= 0.25 / max|mu_J - lambda_k| (``step_factors`` checks it, and
    ``load_config`` calls that when the experiment loads).  The
    horizon T must be a whole multiple of dt (to a relative 1e-9): no step
    is partial, and no horizon is silently shortened.  T / dt may not pass
    MAX_STEPS.  ``store_every`` is a whole number >= 1 and
    ``divergence_threshold`` is positive (inf disables the guard).
    """

    dt: float
    T: float
    scheme: str = "ETD1"
    store_every: int = 1
    divergence_threshold: float = DIVERGENCE_THRESHOLD

    def __post_init__(self):
        object.__setattr__(self, "dt", _radius("dt", self.dt, positive=True))
        object.__setattr__(self, "T", _radius("T", self.T, positive=True))
        object.__setattr__(self, "store_every", _count("store_every", self.store_every))
        object.__setattr__(self, "divergence_threshold", _radius(
            "divergence_threshold", self.divergence_threshold, positive=True, inf=True))
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        steps = self.T / self.dt
        if not steps <= MAX_STEPS:
            raise ConfigurationError(
                f"T/dt = {steps!r} steps passes the cap MAX_STEPS = {MAX_STEPS}")
        if round(steps) < 1 or abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigurationError(
                f"T={self.T!r} must be a whole positive multiple of dt={self.dt!r} "
                f"(T/dt = {steps!r})")

    @property
    def nsteps(self) -> int:
        return int(round(self.T / self.dt))

    def step_factors(self, basis: SpectralBasis, config: ProblemConfig):
        """The per-mode (m, J) factors of one step of ``self.scheme``:
        ``(E, dt * P)`` for ETD1, with E = e^{-dt A} and P = phi1(dt A), and
        ``1 + dt * A`` for IMEX-Euler.

        Raises ConfigurationError when dt passes the IMEX-Euler limit and
        UnboundedModeError when e^{-dt A} overflows, each naming its mode.
        """
        dt = self.dt
        if self.scheme == "IMEX-Euler":
            rates = diag_A(basis, config)
            k, j = np.unravel_index(int(np.argmax(np.abs(rates))), rates.shape)
            limit = 0.25 / abs(float(rates[k, j]))
            if dt > limit:
                raise ConfigurationError(
                    f"IMEX-Euler requires dt <= {limit:.3e} for this spectrum (set by mode "
                    f"({k + 1}, {j + 1})), got {dt}")
            return 1.0 + dt * rates
        z = dt * diag_A(basis, config)
        # e^{-z} overflows on strongly growing modes; name the worst one
        if np.max(-z) > OVERFLOW_EXPONENT:
            k, j = np.unravel_index(int(np.argmin(z)), z.shape)
            raise UnboundedModeError(k + 1, j + 1, float(-z[k, j]))
        E = np.exp(-z)
        # phi1(z) = (1 - e^{-z})/z with the analytic limit 1 at z = 0; resonance
        # puts exact zeros on the diagonal, so the limit branch is load-bearing
        small = np.abs(z) < 1e-12
        P = np.where(small, 1.0, (1.0 - E) / np.where(small, 1.0, z))
        return E, dt * P  # dt * P * H evaluates dt * P first


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
        return _csv_table(("t", *NORM_NAMES), np.column_stack([self.times, self.norms]))


def _csv_table(header: Sequence[str], table) -> str:
    """CSV text of a float table in one format pass: the header row, then
    every value as ``%.17g``, comma-separated, with ``\\r\\n`` line ends (the
    ``csv`` module's dialect; no value needs quoting)."""
    table = np.asarray(table, dtype=float)
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    return ",".join(header) + "\r\n" + (row * len(table)) % tuple(table.ravel().tolist())


def trajectory_norms(basis: SpectralBasis, split: SplitIndexSet, config: ProblemConfig,
                     coeffs: np.ndarray) -> np.ndarray:
    """The six monitored norms of one (m, J) coefficient matrix, shape (6,),
    or of every matrix in an (n, m, J) stack, shape (n, 6); any other
    trailing shape raises ConfigurationError."""
    # C-ordered, so that each full norm sums one flat run of m J squares
    coeffs = np.ascontiguousarray(coeffs)
    if coeffs.shape[-2:] != (config.m, basis.J):
        raise ConfigurationError(f"coefficient shape {coeffs.shape} is not (..., m, J) = "
                                 f"(..., {config.m}, {basis.J})")
    weights = fractional_weights(basis, config) ** config.alpha
    masks = split.masks
    sq = coeffs ** 2
    wsq = (weights * coeffs) ** 2
    flat = coeffs.shape[:-2] + (-1,)

    def total(a, mask):
        # C-ordered rows, so that each sum runs as over one flat matrix
        return np.ascontiguousarray(a[..., mask]).sum(axis=-1)

    return np.sqrt(np.stack([
        sq.reshape(flat).sum(axis=-1), wsq.reshape(flat).sum(axis=-1),
        total(sq, masks["P1"]), total(sq, masks["P2"]),
        total(wsq, masks["Qminus"]), total(wsq, masks["Qplus"]),
    ], axis=-1))


def homotopy_field(field: NonlinearField, basis: SpectralBasis, split: SplitIndexSet,
                   s, u: GalerkinState) -> GalerkinState:
    """Deformed reaction term
    H(s, u) = Q0 F(s Q- u + s Q+ u + Q0 u) + s Q- F(u) + s Q+ F(u).

    At s=1 the three projections telescope back to F(u); at s=0 only the
    kernel projection of the kernel-restricted field survives.  ``u`` may be
    a (B, m, J) stack with one s per member (``s`` of shape (B,)) or one
    s for all; any other shape of s, or a state whose trailing shape is
    not the split's (m, J), raises ConfigurationError before any
    evaluation.

    This is one march step's evaluation (``_plan``, ``_homotopy``) of the
    states, checked: one evaluation of every member's restricted state and
    of u itself for the members with 0 < s < 1.
    """
    c = u.coeffs
    q0 = split.masks["Q0"]
    s = _unit("s", s)
    if c.shape[-2:] != q0.shape or s.shape not in ((), c.shape[:-2]):
        raise ConfigurationError(
            f"homotopy_field takes states of shape (..., m, J) with (m, J) = {q0.shape} and one "
            f"s or one per state; got states of shape {c.shape} and s of shape {s.shape}")
    plan = _plan(basis, q0, np.broadcast_to(s, c.shape[:-2]).reshape(-1))
    return GalerkinState._trusted(_homotopy(field, basis, plan, c).reshape(c.shape))


class _Plan(NamedTuple):
    """H(s, .) for one stack composition (one s per row), built once.

    Every row is evaluated at its restricted state W u, with W = 1 on Q0
    and s elsewhere, and the rows with 0 < s < 1 once more at u: one
    evaluation of R states, held in ``blocks`` (``SpectralBasis._blocks``,
    with one spare 0.0).  ``take`` picks their entries flat from the
    (B, m, J) stack into ``taken``, the blocks' head, in the blocks'
    order, and ``scale`` is W at each pick.  The projection lands in the
    same place; ``gather`` picks H's entries from the flat buffer in
    natural (B, m, J) order: the restricted evaluation on Q0 and at s = 1,
    F(u) off Q0 at interior s, and the spare 0.0 off Q0 at s = 0.  H is W
    times them.  ``scale`` and ``W`` are None when every s is 1 (H is F).
    """

    take: np.ndarray
    scale: Optional[np.ndarray]
    gather: np.ndarray
    W: Optional[np.ndarray]
    taken: np.ndarray
    blocks: _Blocks


def _plan(basis: SpectralBasis, q0: np.ndarray, s: np.ndarray) -> _Plan:
    """The plan of the rows ``s`` (shape (B,)) for the (m, J) Q0 mask
    ``q0``: index arrays and every buffer and view a step reads, made
    once, so that a step classifies no s and allocates only H."""
    sc = s[:, None, None]
    mid = np.flatnonzero((0.0 < s) & (s < 1.0))
    B, R = s.size, s.size + mid.size
    W = np.where(q0, 1.0, sc)
    flat = np.arange(R * q0.size).reshape((R,) + q0.shape)
    # the position in the blocks of each entry of the R evaluated states
    pos = np.argsort(_parity_order(flat)).reshape(flat.shape)
    gather = pos[:B].copy()
    gather[mid] = np.where(q0, pos[mid], pos[B:])
    gather[~q0 & (sc == 0.0)] = R * q0.size
    ones = bool((s == 1.0).all())
    blocks = basis._blocks(flat.shape, spare=1)
    return _Plan(take=_parity_order(np.concatenate([flat[:B], flat[mid]])),
                 scale=None if ones else _parity_order(np.concatenate([W, np.ones_like(W[mid])])),
                 gather=gather, W=None if ones else W, taken=blocks.flat[:-1], blocks=blocks)


def _homotopy(field, basis, plan, c):
    """H, shape (B, m, J), of the B states of ``c`` (an (..., m, J) array,
    read flat) by ``plan``: one march step's evaluation, and
    ``homotopy_field``'s.

    The blocks are ``scale`` times one flat take; since 1.0 * x == x, they
    hold where(Q0, c, s c) and c for the interior-s rows, and the one
    evaluation body (``fields._evaluate``, which ``galerkin_F`` runs)
    overwrites them with F of those states.  A non-finite field value
    raises EvaluationError there, the entries that the s = 0 mask drops
    included.
    """
    c.take(plan.take, out=plan.taken, mode="clip")
    if plan.scale is not None:
        np.multiply(plan.scale, plan.taken, out=plan.taken)
    _evaluate(field, basis, plan.blocks)
    H = plan.blocks.flat.take(plan.gather)
    return H if plan.W is None else plan.W * H


def integrate_ensemble(field: NonlinearField, basis: SpectralBasis, split: SplitIndexSet,
                       config: ProblemConfig, s_values: Sequence[float],
                       states: Sequence[GalerkinState], settings: IntegratorSettings,
                       settle: Optional[Callable] = None) -> list[Trajectory]:
    """March u' = -A u + H(s_i, u) from states[i] for every member i at once,
    as one (B, m, J) stack: the one time-stepping loop (``simulate``,
    ``connect`` at s = 1 and the product-flow check at s = 0).

    ETD1: u_{n+1} = e^{-dt A} u_n + dt phi1(dt A) H(u_n), exact on the
    linear part (Cox & Matthews, JCP 176, 2002); IMEX-Euler treats the
    linear part implicitly.  s is checked once, and H(s, .) is planned
    (``_plan``) at the start and again only when rows leave, so a step
    classifies no s.

    After each step, a row whose L2 norm passed the divergence threshold or
    is not finite has diverged; ``settle(t, c, members)``, if given, sees
    the other rows, read-only (with no diverged row they are the march's
    own array), with their member ids (indices into ``states``), and
    returns a boolean mask of those to retire (or False).  A diverged or
    retired row leaves the stack, and the loop stops when no row is left.
    A member is recorded at t = 0, after every ``store_every``-th step and
    the last one, and on the step it leaves; a diverged member's partial
    trajectory comes back with ``diverged=True``.  The others are
    unaffected: each row of the stack is stepped as it would be on its own,
    up to the last bits that the BLAS path of a stacked product can move
    (README, "Numerical notes").  The rows ``settle`` sees and the recorded
    states are C-ordered, so that sums over them run as over one state.
    ``settle`` may keep references to the rows and the members it sees: the
    march never writes into an array after it has shown it.
    """
    s = _unit("s", s_values).reshape(-1)
    if s.size != len(states):
        raise ConfigurationError(
            f"need one s value per initial state, got {s.size} for {len(states)}")
    if s.size == 0:
        return []
    _check_states("initial state", [u0.coeffs for u0 in states], config.m, basis.J)

    factors = settings.step_factors(basis, config)
    etd = settings.scheme == "ETD1"
    E, dtP = factors if etd else (None, None)
    dt, threshold, store_every = settings.dt, settings.divergence_threshold, settings.store_every
    q0 = split.masks["Q0"]
    # while every |c| is at most `calm`, every row's norm is at most half
    # the threshold and no square overflows, so no row can have diverged
    calm = 0.5 * min(threshold, 1e150) / math.sqrt(q0.size)
    c = np.stack([u0.coeffs for u0 in states])
    members = np.arange(s.size)
    plan = _plan(basis, q0, s)
    times = [[0.0] for _ in c]
    coeffs = [[row] for row in c]
    diverged = np.zeros(s.size, dtype=bool)
    nsteps = settings.nsteps
    for n in range(1, nsteps + 1):
        H = _homotopy(field, basis, plan, c)
        c = E * c + dtP * H if etd else (c + dt * H) / factors
        t = n * dt
        leave = None
        if not abs(c).max() <= calm:
            # sqrt is monotone and NaN propagates through max, so the largest
            # norm passes the threshold exactly when some row's does
            sq = (c ** 2).sum(axis=(-2, -1))
            if not math.sqrt(sq.max()) <= threshold:
                leave = ~(np.sqrt(sq) <= threshold)
                diverged[members[leave]] = True
        if settle is not None:
            if leave is None:
                done = settle(t, c, members)
                if done is not False:
                    leave = np.zeros(members.size, dtype=bool)
                    leave |= done
            else:
                live = ~leave
                if live.any():
                    done = settle(t, c[live], members[live])
                    if done is not False:
                        leave[live] |= done
        stored = n % store_every == 0 or n == nsteps
        gone = leave is not None and leave.any()
        if stored or gone:
            for row in (range(members.size) if stored else np.flatnonzero(leave)):
                times[members[row]].append(t)
                coeffs[members[row]].append(c[row])
            if gone:
                c, members = c[~leave], members[~leave]
                if members.size == 0:
                    break
                plan = _plan(basis, q0, s[members])
    return [Trajectory(times=np.asarray(t), coeffs=c, s=float(si), diverged=bool(d),
                       norms=trajectory_norms(basis, split, config, c))
            for t, c, si, d in zip(times, map(np.asarray, coeffs), s, diverged)]


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
    vvals = basis.values(v0.coeffs)
    m = config.m

    def const_eval(x, U, dU):
        return np.broadcast_to(vvals, np.shape(U))

    const_field = NonlinearField(
        name="blowup-forcing", m=m, eval=const_eval, sigma=np.zeros(m),
        f_plus=lambda x: vvals[:, : x.size], f_minus=lambda x: vvals[:, : x.size],
        bound_C3=float(np.max(np.abs(vvals))), reads_du=False,
    )
    start = u0 if u0 is not None else GalerkinState.zeros(m, basis.J)
    traj = integrate(const_field, basis, split, config, 1.0, start, IntegratorSettings(1e-3, T))
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
        return asdict(self)


def apriori_bounds(basis: SpectralBasis, split: SplitIndexSet, config: ProblemConfig,
                   C6: float) -> AprioriBounds:
    """Plug-in evaluation of the bound constants from the spectral gap; C6
    (the field's L2 bound) is finite and >= 0."""
    C6 = _radius("C6", C6)
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
    return AprioriBounds(c=c, C5=C5, C6=C6, C7=C7, alpha=config.alpha,
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
        return asdict(self)


def _ratio(value: float, bound: float) -> float:
    if bound == 0.0:
        return 0.0 if value <= 1e-12 else float("inf")
    return value / bound


def check_bounded_solution(trajectory: Trajectory, bounds: AprioriBounds,
                           R1: float, R2: float) -> BoundReport:
    """Check the four componentwise norms against their radii after the
    transient (the first TRANSIENT_FRACTION of the samples), and flag kernel drift.

    Boundedness detection is window growth: the run is flagged unbounded if
    the linear-fit slope of the first-block kernel seminorm over the last
    half of the horizon exceeds DRIFT_TOL (or the integrator diverged).
    ``R1`` and ``R2`` are >= 0 (inf: uncertified); anything else raises
    ConfigurationError.
    """
    R1, R2 = _radius("R1", R1, inf=True), _radius("R2", R2, inf=True)
    n = trajectory.times.size
    tail = slice(min(int(np.floor(TRANSIENT_FRACTION * n)), n - 1), None)
    radii = {"Qminus_alpha": bounds.R0_minus, "Qplus_alpha": bounds.R0_plus,
             "P1_seminorm": R1, "P2_seminorm": R2}
    maxima = {name: float(np.max(trajectory.norm_series(name)[tail])) for name in radii}
    ratios = {name: _ratio(maxima[name], radius) for name, radius in radii.items()}
    half = slice(n // 2, None)
    t = trajectory.times[half]
    p1 = trajectory.norm_series("P1_seminorm")[half]
    slope = float(np.polyfit(t, p1, 1)[0]) if t.size >= 2 else 0.0
    unbounded = trajectory.diverged or slope > DRIFT_TOL
    return BoundReport(ratios=ratios, maxima=maxima, slope_P1=slope,
                       unbounded=unbounded, transient_fraction=TRANSIENT_FRACTION)


@dataclass(frozen=True)
class HomotopyBox:
    """Product box M: combined fractional radius R0+1 on the nonkernel block,
    kernel-block seminorm radii R1+1 and R2+1.  Every radius is >= 0, and
    R0 is finite; an inf kernel radius leaves the box unbounded there."""

    R0: float
    R1: float
    R2: float

    def __post_init__(self):
        _radius("R0", self.R0)
        _radius("R1", self.R1, inf=True)
        _radius("R2", self.R2, inf=True)

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
        return asdict(self)


def sample_states_in_box(basis: SpectralBasis, split: SplitIndexSet,
                         config: ProblemConfig, box: HomotopyBox, count: int,
                         seed: int = 0) -> list[GalerkinState]:
    """``count`` (>= 0) random initial states strictly inside the box
    (BOX_FILL < 1 keeps them off the boundary)."""
    count = _count("count", count, minimum=0)
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
                vec *= BOX_FILL * radius * rng.uniform() / nrm
            c[mask] = vec
        k = int(out_mask.sum())
        if k:
            vec = rng.normal(size=k)
            frac = np.linalg.norm(weights[out_mask] * vec)
            if frac > 0:
                vec *= BOX_FILL * (box.R0 + 1.0) * rng.uniform() / frac
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
    agree with their superposition at every stored time.  The reduced flow
    is the s=0 march from Q0 u0: its kernel modes step as c + dt Q0 F(c)
    (E = P = 1) and its complement stays 0.
    """
    settings = replace(settings, T=T)
    kmask = split.masks["Q0"]
    full = integrate(field, basis, split, config, 0.0, u0, settings)
    kernel = integrate(field, basis, split, config, 0.0,
                       GalerkinState(np.where(kmask, u0.coeffs, 0.0)), settings)
    out0 = GalerkinState(np.where(kmask, 0.0, u0.coeffs))
    worst = 0.0
    for t, c, kc in zip(full.times, full.coeffs, kernel.coeffs):
        combined = kc + semigroup_apply(basis, config, t, out0).coeffs
        worst = max(worst, float(np.sqrt(np.sum((c - combined) ** 2))))
    return worst
