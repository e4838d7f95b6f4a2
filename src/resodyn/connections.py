"""Equilibria of the discretized system, the energy functional for gradient
fields, and forward shooting for orbits connecting stationary points."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .decomposition import SplitIndexSet
from .errors import ConfigurationError, GradientStructureError
from .fields import NonlinearField, _u_jacobian, galerkin_F
from .semiflow import DIVERGENCE_THRESHOLD, IntegratorSettings, Trajectory, integrate_ensemble
from .spectral import (GalerkinState, ProblemConfig, SpectralBasis, _check_states, _eigh,
                       _entries, _real, diag_A)

log = logging.getLogger(__name__)

__all__ = [
    "Equilibrium",
    "ConnectionRecord",
    "ShootMiss",
    "find_equilibria",
    "discrete_linearization",
    "unstable_directions",
    "liapunov_energy",
    "validate_potential",
    "shoot_connection",
]

NEWTON_TOL = 1e-10          # residual norm at which a Newton seed has converged
NEWTON_MAX_ITER = 100       # Newton iterations per seed
DEDUP_TOL = 1e-6            # L2 distance under which two equilibria are one
NEWTON_FD_STEP = 1e-7       # relative central-difference step of the Newton Jacobian
# Most bytes of the temporaries of one stacked evaluation: the nodal values of
# a group of Newton Jacobians (``_newton``; unless the group is one seed) and
# the differences of a window of settle steps to every target
# (``shoot_connection``; unless the window is one step).  glibc's default mmap
# threshold, above which a temporary is mapped and its pages are faulted in
# again on every use.
FD_STACK_BYTES = 128 * 1024
MORSE_TOL = 1e-10           # a linearization eigenvalue below -MORSE_TOL is unstable
SETTLE_TOL = 1e-4           # a shot settles once it stays this close to one target
DWELL = 1.0                 # ... and stays there this many time units
DIRECTION_TOL = 1e-6        # eigen-residual bound (absolute or relative) of a direction
POTENTIAL_SAMPLES = 32      # random points at which validate_potential checks the gradient
POTENTIAL_SEED = 0
POTENTIAL_TOL = 1e-6        # largest central-difference error of the potential's gradient
POTENTIAL_FD_STEP = 1e-5


@dataclass(frozen=True)
class Equilibrium:
    """Newton-certified stationary point of u' = -A u + F(u), as accepted by
    ``find_equilibria``: ``linearization`` is the read-only self-adjoint
    discrete linearization diag(mu_j - lambda_k) - K(u*) there, and
    ``unstable`` its (eigenvalue, unit eigenvector) pairs with eigenvalue
    below -MORSE_TOL, most unstable first (the unstable directions of the
    forward flow), which ``morse_index`` counts.
    """

    state: GalerkinState
    residual: float
    is_origin: bool
    linearization: np.ndarray
    unstable: tuple[tuple[float, GalerkinState], ...]

    @property
    def morse_index(self) -> int:
        return len(self.unstable)

    def to_dict(self) -> dict:
        return {"residual": self.residual, "morse_index": self.morse_index,
                "is_origin": self.is_origin,
                "l2_norm": self.state.l2_norm()}


def _residual(field, basis, config, c):
    F = galerkin_F(field, basis, GalerkinState._trusted(c)).coeffs
    return -diag_A(basis, config) * c + F


def _norms(r):
    """The L2 norm of each state of an (S, m, J) stack, each summed as
    ``np.sum`` sums that state alone (one C-ordered m*J run)."""
    return np.sqrt((r ** 2).reshape(r.shape[0], math.prod(r.shape[1:])).sum(axis=-1))


def _fd_states(field, m, J):
    """Shifted states per sign of one finite-difference Jacobian."""
    return J if field.componentwise else m * J


def _fd_jacobian(field, basis, config, c):
    """Central differences, every column from one stacked residual evaluation
    of the states c +- h_i e_i with h_i = NEWTON_FD_STEP * max(1, |c_i|):
    2 m J states, one column each, or for a ``componentwise`` field 2 J
    states, state j shifting column j of every component.  Column (k, j) is
    then read from component k's rows of state j, and its other rows are the
    exact +0.0 that its own state gives as r - r.

    ``c`` is one (m, J) state, giving its (n, n) Jacobian (n = m J), or an
    (S, m, J) stack, giving (S, n, n): each state's shifted states are then
    one block of an (S, 2 p, m, J) residual stack, so every Jacobian is bit
    for bit that of its state alone."""
    *lead, m, J = c.shape
    n = m * J
    base = c.reshape(*lead, n)
    h = NEWTON_FD_STEP * np.maximum(1.0, np.abs(base))
    p, cols = _fd_states(field, m, J), np.arange(n)
    state = cols % p  # the state shifting each column
    shifted = np.broadcast_to(base[..., None, None, :], (*lead, 2, p, n)).copy()
    shifted[..., 0, state, cols] += h
    shifted[..., 1, state, cols] -= h
    r = _residual(field, basis, config, shifted.reshape(*lead, 2 * p, m, J))
    r = r.reshape(*lead, 2, p, n)
    d = r[..., 0, :, :] - r[..., 1, :, :]
    if p < n:  # column (k, j): component k's rows of state j, +0.0 elsewhere
        same = (cols[:, None] // J == cols // J).reshape(m, J, n)
        d = np.where(same, d[..., None, :, :], 0.0)
    return (d.reshape(*lead, n, n) / (2 * h[..., None])).swapaxes(-1, -2)


def _newton(field, basis, config, c):
    """Damped Newton from every state of the (S, m, J) stack ``c`` (updated
    in place) in lockstep; returns the residual norms at the last iterates.

    Each iteration builds the live seeds' finite-difference Jacobians in
    groups of whole seeds, each group one stacked ``_fd_jacobian`` call
    whose nodal array stays within FD_STACK_BYTES (or is one seed), and
    solves them in one batched ``np.linalg.solve`` (LAPACK dgesv per
    matrix, as for one seed); when that raises LinAlgError, the seeds are
    solved one by one, so a singular Jacobian retires only its own seed.
    Each backtracking round evaluates the trial residuals of every seed
    still searching in one (S', 1, m, J) stack, one block per seed, so each
    seed rounds as it would alone; a seed whose round finds no decrease
    after 30 halvings retires, and the accepted trial's residual is the
    next iteration's.  A seed converges once its norm is at most NEWTON_TOL,
    after its last permitted step too, and retires once an accepted iterate's
    L2 norm passes DIVERGENCE_THRESHOLD.
    """
    r = _residual(field, basis, config, c[:, None])[:, 0]
    rnorm = _norms(r)
    live = np.ones(len(c), dtype=bool)
    m, J = c.shape[1:]
    group = max(1, FD_STACK_BYTES // (2 * _fd_states(field, m, J) * m * basis.x.size * 8))
    for _ in range(NEWTON_MAX_ITER):
        live &= ~(rnorm <= NEWTON_TOL)
        searching = np.flatnonzero(live)
        if not searching.size:
            break
        jac = np.concatenate([_fd_jacobian(field, basis, config, c[searching[k:k + group]])
                              for k in range(0, searching.size, group)])
        rhs = -r[searching].reshape(searching.size, -1, 1)
        try:
            delta = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            solved = []
            for k, i in enumerate(searching):
                try:
                    solved.append(np.linalg.solve(jac[k], rhs[k]))
                except np.linalg.LinAlgError:
                    live[i] = False
            if not solved:
                break
            searching, delta = searching[live[searching]], np.stack(solved)
        delta = delta.reshape(searching.size, m, J)
        lam_damp = 1.0
        for _ in range(30):
            trial = c[searching] + lam_damp * delta
            tr = _residual(field, basis, config, trial[:, None])[:, 0]
            tnorm = _norms(tr)
            better = tnorm < rnorm[searching]
            done = searching[better]
            accepted = trial[better]
            c[done], r[done], rnorm[done] = accepted, tr[better], tnorm[better]
            live[done[~(_norms(accepted) <= DIVERGENCE_THRESHOLD)]] = False
            searching, delta = searching[~better], delta[~better]
            if not searching.size:
                break
            lam_damp *= 0.5
        live[searching] = False
    return rnorm


def find_equilibria(field: NonlinearField, basis: SpectralBasis, split: SplitIndexSet,
                    config: ProblemConfig, seeds: Sequence[GalerkinState],
                    *, known: Sequence[Equilibrium] = ()) -> list[Equilibrium]:
    """Damped Newton on -A u + F(u) = 0 from every seed at once.

    Finite-difference Jacobian, backtracking on the residual norm;
    non-converged seeds, and seeds whose iterate left the ball of L2 radius
    DIVERGENCE_THRESHOLD (a field that decays along a resonant mode has
    residuals below NEWTON_TOL far out along it, points at infinity), are
    dropped with a warning, in seed order.  The seeds step in lockstep
    (``_newton``): the Jacobians and the trial residuals of a backtracking
    round are stacked ``galerkin_F`` calls with one block per seed, which
    the field sees as U of shape (S, B, m, n) (or, split, (2, S, B, m,
    n/2): ``galerkin_F``), and every seed's iterates are bit for bit those
    of a Newton run from that seed alone.  Every seed's shape is checked
    before any Newton step.

    The candidates are the origin, whenever the field vanishes there, then
    the seeds' roots in seed order; each is dropped when within DEDUP_TOL
    (L2) of an earlier one.  ``known`` holds equilibria that an earlier
    call accepted under the same field, basis and config: they lead the
    result as they are, and a candidate within DEDUP_TOL of one of them is
    dropped (with a known origin, the origin is not evaluated again).  This
    is the one place that linearizes an equilibrium: every accepted one
    carries its ``discrete_linearization`` and that matrix's unstable
    spectrum, solved once by ``_block_eigh``.

    For an ``odd`` field the fold, the field and the projection all keep
    -u the exact mirror of u, so Newton from -s is the negation of Newton
    from s, and L(-u) is L(u).  A seed that is exactly the negation of an
    earlier solved seed is then not stepped: it takes that seed's negated
    root and residual norm (and logs at DEBUG which seed it mirrors); an
    accepted root that is exactly the negation of an earlier equilibrium
    shares that equilibrium's ``linearization`` and ``unstable`` pairs.  The
    result equals that of ``odd=False`` value for value; only an exact zero
    coefficient of a mirrored root may carry the other sign (Newton's sums
    round x + (-x) to +0.0 in both runs), which no distance, norm or
    linearization reads.
    """
    m, J = config.m, basis.J
    coeffs = [seed.coeffs for seed in seeds]
    _check_states("seed", coeffs, m, J)
    stack = np.array(coeffs, dtype=float).reshape(-1, m, J)
    roots = []
    if not any(eq.is_origin for eq in known):
        zero = np.zeros((m, J))
        origin_res = np.sqrt(np.sum(_residual(field, basis, config, zero) ** 2))
        if origin_res <= NEWTON_TOL:
            roots.append((zero, origin_res))
    if len(seeds):
        # for an odd field, -s runs Newton to the negation of the run from s:
        # a seed that mirrors an earlier solved one takes its negated root
        solved, mirrors, first = [], [], {}
        for i, c in enumerate(stack):
            j = first.get((0.0 - c).tobytes()) if field.odd else None
            if j is None:
                first.setdefault((c + 0.0).tobytes(), i)
                solved.append(i)
            else:
                log.debug("seed %d mirrors seed %d; its Newton run is not repeated", i, j)
                mirrors.append((i, j))
        rnorm = np.empty(len(stack))
        searched = stack[solved]
        rnorm[solved] = _newton(field, basis, config, searched)
        stack[solved] = searched
        for i, j in mirrors:
            stack[i], rnorm[i] = -stack[j], rnorm[j]
        for seed_idx, (c, res, size) in enumerate(zip(stack, rnorm, _norms(stack))):
            if not size <= DIVERGENCE_THRESHOLD:
                log.warning("Newton from seed %d passed the divergence bound %g "
                            "(|u| = %.3e); discarded", seed_idx, DIVERGENCE_THRESHOLD,
                            float(size))
            elif res <= NEWTON_TOL:
                roots.append((c, res))
            else:
                log.warning("Newton did not converge from seed %d (|R| = %.3e); discarded",
                            seed_idx, float(res))

    found = list(known)
    for c, rnorm in roots:
        if any(np.sqrt(np.sum((c - eq.state.coeffs) ** 2)) <= DEDUP_TOL for eq in found):
            continue
        state = GalerkinState(c)
        # the u-Jacobian of an odd field is even, so L(-u) is L(u) bit for bit
        twins = [eq for eq in found if field.odd and np.array_equal(c, -eq.state.coeffs)]
        if not twins:
            L = discrete_linearization(field, basis, config, state)
            vals, vecs = _block_eigh(L)
            L.flags.writeable = vecs.flags.writeable = False  # shared by every reader
            unstable = tuple((float(vals[i]), GalerkinState(vecs[:, i].reshape(m, J)))
                             for i in np.flatnonzero(vals < -MORSE_TOL))
        else:
            L, unstable = twins[0].linearization, twins[0].unstable
        found.append(Equilibrium(
            state=state, residual=float(rnorm),
            is_origin=bool(np.sqrt(np.sum(c ** 2)) <= DEDUP_TOL), linearization=L,
            unstable=unstable))
    return found


def discrete_linearization(field: NonlinearField, basis: SpectralBasis,
                           config: ProblemConfig, at: GalerkinState) -> np.ndarray:
    """Self-adjoint matrix diag(mu_j - lambda_k) - K(u*) in flattened (k, j)
    coordinates, with K the Galerkin matrix of multiplication by the field's
    u-Jacobian along the state (u' is folded only for a field that reads it)."""
    m, J = config.m, basis.J
    _check_states("state", [at.coeffs], m, J)
    dU = basis.dvalues(at.coeffs) if field.reads_du else None
    gprime = _u_jacobian(field, basis.x, basis.values(at.coeffs), dU)
    # P[k, kp, j', j] = <g'_{k,kp} phi_{j'}, phi_j> over nodes, one
    # projection per (k, kp) block
    P = basis.project(gprime[:, :, None, :] * basis.phi)
    K = P.transpose(0, 2, 1, 3).reshape(m * J, m * J)
    K = 0.5 * (K + K.T)
    return np.diag(diag_A(basis, config).ravel()) - K


def _components(pattern: np.ndarray) -> np.ndarray:
    """Connected-component labels of a symmetric boolean pattern, numbered
    by each component's smallest index (scipy.sparse.csgraph's order).

    Every node takes the smallest label among itself and its neighbours,
    then the label of its label, until nothing changes; a label never
    leaves its component and ends at the component's smallest index.
    """
    n = pattern.shape[0]
    labels = np.arange(n)
    while True:
        reached = np.minimum(labels, np.where(pattern, labels, n).min(axis=1))
        reached = reached[reached]
        if np.array_equal(reached, labels):
            return np.unique(labels, return_inverse=True)[1]
        labels = reached


def _block_eigh(L: np.ndarray):
    """Symmetric eigensolve respecting the exact sparsity blocks of L.

    The folded quadrature produces exact zeros between decoupled mode groups
    (e.g. opposite mirror parities at symmetric states); solving per
    connected component keeps eigenvectors exactly supported on their block,
    so shooting along them cannot leak into a decoupled group.
    """
    n = L.shape[0]
    labels = _components(L != 0.0)
    vals = np.empty(n)
    vecs = np.zeros((n, n))
    pos = 0
    for comp in range(labels.max() + 1):
        idx = np.flatnonzero(labels == comp)
        sub_vals, sub_vecs = _eigh(L[np.ix_(idx, idx)])
        vals[pos:pos + idx.size] = sub_vals
        vecs[np.ix_(idx, range(pos, pos + idx.size))] = sub_vecs
        pos += idx.size
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


def unstable_directions(field: NonlinearField, basis: SpectralBasis,
                        config: ProblemConfig, eq: Equilibrium) -> list[tuple[float, GalerkinState]]:
    """(eigenvalue, unit direction) pairs with linearization eigenvalue
    below -MORSE_TOL, most unstable first: one per unit of the Morse index.
    ``find_equilibria`` solved them when it accepted ``eq`` (under this
    field, basis and config); this lists ``eq.unstable``."""
    return list(eq.unstable)


def validate_potential(field: NonlinearField) -> None:
    """Check d potential / d s_k = f_k by central differences (step
    POTENTIAL_FD_STEP) at POTENTIAL_SAMPLES random points, to POTENTIAL_TOL."""
    if field.potential is None:
        raise GradientStructureError(f"field {field.name!r} declares no potential")
    rng = np.random.default_rng(POTENTIAL_SEED)
    x = rng.uniform(0.05, 0.95, size=POTENTIAL_SAMPLES)
    U = rng.uniform(-3.0, 3.0, size=(field.m, POTENTIAL_SAMPLES))
    f = np.asarray(field.eval(x, U, np.zeros_like(U) if field.reads_du else None))
    for k in range(field.m):
        Up = U.copy()
        Um = U.copy()
        Up[k] += POTENTIAL_FD_STEP
        Um[k] -= POTENTIAL_FD_STEP
        dpot = ((np.asarray(field.potential(x, Up)) - np.asarray(field.potential(x, Um)))
                / (2 * POTENTIAL_FD_STEP))
        err = float(np.max(np.abs(dpot - f[k])))
        if err > POTENTIAL_TOL:
            raise GradientStructureError(
                f"potential inconsistent with component {k + 1}: "
                f"finite-difference error {err:.3e} > {POTENTIAL_TOL:g}"
            )


def liapunov_energy(field: NonlinearField, basis: SpectralBasis, config: ProblemConfig,
                    u: GalerkinState) -> float:
    """Energy E(u) = 1/2 sum (mu_j - lambda_k) c_{k,j}^2 - int ftilde(x, u(x)) dx.

    The quadratic part carries the spectral shifts and the potential enters
    with a minus sign, which is the convention that makes E nonincreasing
    along u' = -A u + F(u) when F is the u-gradient of ftilde
    (``validate_potential`` checks that gradient numerically).
    """
    if field.potential is None:
        raise GradientStructureError(f"field {field.name!r} declares no potential")
    _check_states("state", [u.coeffs], config.m, basis.J)
    return float(_energies(field, basis, config, u.coeffs[None])[0])


def _energies(field: NonlinearField, basis: SpectralBasis, config: ProblemConfig,
              C: np.ndarray) -> np.ndarray:
    """``liapunov_energy`` of each state of the (n, m, J) stack ``C``, bit for
    bit: one fold of the stack (each state its own block), one ``potential``
    call on the nodes repeated n times, and each state's sums over its own
    contiguous run, as ``np.sum`` sums one state."""
    n, m, J = C.shape
    nq = basis.x.size
    quad = 0.5 * np.sum((diag_A(basis, config) * C ** 2).reshape(n, m * J), axis=-1)
    U = basis.values(C).transpose(1, 0, 2).reshape(m, n * nq)
    pot = np.asarray(field.potential(np.tile(basis.x, n), U)).reshape(n, nq)
    return quad - np.sum(basis.w * pot, axis=-1)


@dataclass(frozen=True)
class ConnectionRecord:
    """An accepted connecting orbit between two equilibria."""

    source: Equilibrium
    target: Equilibrium
    trajectory: Trajectory
    terminal_distance: float
    energy_profile: Optional[np.ndarray]

    def to_dict(self) -> dict:
        return {
            "source": self.source.to_dict(),
            "target": self.target.to_dict(),
            "terminal_distance": self.terminal_distance,
            "settle_time": float(self.trajectory.times[-1]),
            "energy_initial": None if self.energy_profile is None else float(self.energy_profile[0]),
            "energy_final": None if self.energy_profile is None else float(self.energy_profile[-1]),
        }


@dataclass(frozen=True)
class ShootMiss:
    """A shot that did not settle: carries the reason and closest approach."""

    reason: str  # "horizon" | "divergent" | "not-unstable"
    closest_distance: float
    closest_target: Optional[int]
    trajectory: Optional[Trajectory]

    def to_dict(self) -> dict:
        return {"reason": self.reason, "closest_distance": self.closest_distance,
                "closest_target": self.closest_target}


def _kernel_drift(field: NonlinearField, basis: SpectralBasis, config: ProblemConfig,
                  settings: IntegratorSettings):
    """What ``shoot_connection`` needs to retire a miss, or None when it
    cannot: the field declares no C3, some mode grows (an ETD1 factor
    E > 1, an IMEX-Euler factor below 1), or no mode steps as exactly
    c + dt H (ETD1 with E == 1.0 and dt P == dt; IMEX-Euler with factor
    1.0).  Otherwise ``(exact, K, growth)``: the (m, J) mask of those
    modes, the norm K over them of the bounds
    |H_kj| <= C3 sum_i w_i |phi_j(x_i)|, and the most one step can add to a
    state's L2 norm, max(dt P) times the norm of those bounds over every
    mode."""
    if field.bound_C3 is None:
        return None
    factors = settings.step_factors(basis, config)
    if settings.scheme == "ETD1":
        E, dtP = factors
        grows, exact, step = E.max() > 1.0, (E == 1.0) & (dtP == settings.dt), dtP.max()
    else:
        grows, exact, step = factors.min() < 1.0, factors == 1.0, settings.dt
    if grows or not exact.any():
        return None
    bound = np.broadcast_to(field.bound_C3 * np.abs(basis.w * basis.phi).sum(axis=-1),
                            exact.shape)
    return exact, math.sqrt(np.sum(bound[exact] ** 2)), step * math.sqrt(np.sum(bound ** 2))


def _drift_floor(dist, norm, steps, reach, terms):
    """A lower bound on every distance that the march computes in the next
    ``steps`` steps from a row to each target, for rows whose (R, G) kernel
    distances ``dist`` = |P0 (c_n - g)| and (R,) kernel norms ``norm`` =
    |P0 c_n|, where one step moves the kernel part by at most ``reach`` =
    dt K:  dist - steps * reach - slack, with

        slack = (terms + 2 steps) eps (dist + norm + 2 steps reach),

    eps = 2**-52 and ``terms`` = quadrature nodes + m J + 8.  The ``terms``
    share covers the rounding of the quadrature sum (of H and of its
    bound) and of the distances, the ``2 steps`` share the rounding of the
    ``steps`` kernel updates c + dt H, each at most half an ulp of a kernel
    part no longer than norm + steps * reach."""
    far = steps * reach
    slack = (terms + 2 * steps) * np.finfo(float).eps * (dist + norm[:, None] + 2 * far)
    return dist - far - slack


def _proven(floor, closest):
    """Rows whose floor (R, G) exceeds both their (R,) closest distance and
    SETTLE_TOL at every target: no later step can lower ``closest``, change
    its target (the first strict minimum) or start a dwell."""
    return (floor > np.maximum(closest, SETTLE_TOL)[:, None]).all(axis=-1)


def shoot_connection(field: NonlinearField, basis: SpectralBasis, split: SplitIndexSet,
                     config: ProblemConfig, source: Equilibrium,
                     direction, eps, settings: IntegratorSettings,
                     equilibria: Sequence[Equilibrium], *, retire_misses: bool = False):
    """Integrate from source + eps * direction at s = 1, with the step of
    ``settings.scheme``, until the state dwells within SETTLE_TOL of some
    other equilibrium for at least DWELL time units, or the horizon runs
    out.

    ``source`` comes from ``find_equilibria``.  ``direction`` must be a unit
    eigenvector of ``source.linearization`` with eigenvalue below
    -MORSE_TOL (an unstable direction of the forward flow, by the rule of
    ``find_equilibria``); otherwise the shot is a miss by contract.  A
    direction, an equilibrium or a source of another shape than (m, J), or a
    source linearization of another shape than (mJ, mJ), raises
    ConfigurationError before any march.  ``eps`` is a finite nonzero
    number.  Returns a ConnectionRecord or a ShootMiss.  ``direction`` and ``eps`` may also be
    equal-length sequences, one shot per pair: every shot then marches in
    one (B, m, J) stack through ``integrate_ensemble``, a connected shot
    leaves it as it settles, and the results come back as a list in input
    order.

    With ``retire_misses``, the march stops before the horizon once a bound
    proves that no later step can change any report, and every shot still
    marching is reported as a ``horizon`` miss whose trajectory ends at that
    step (bit for bit the start of its march to the horizon).  The bound
    trusts the field's declared C3 (hypothesis F2, |f| <= C3) and needs
    ``_kernel_drift``'s conditions: no growing mode and some modes P0 that
    step as exactly c + dt H, so that each step moves P0 c by at most dt K.
    At step n, with k steps left, each row's later distances to a target g
    are then at least |P0 (c_n - g)| - k dt K, less the rounding slack of
    ``_drift_floor``.  The march stops when that exceeds both the row's
    closest distance and SETTLE_TOL for every target and every row still
    marching, and |c_n| + k max(dt P) |bound of H|, times
    1 + (terms + 2 k) eps, stays below the divergence threshold, so that no
    row could have diverged.  Rows stop all at once, never some of them: a
    smaller stack can take other BLAS paths and so move the bits of the
    rows that go on (README, "Numerical notes").  The check runs with each
    window evaluation of the settle rule, and the next evaluation is due by
    the time the bound could first pass (it rises at most 2 K per time
    unit).
    """
    single = isinstance(direction, GalerkinState)
    if single != (np.ndim(eps) == 0):
        raise ConfigurationError(
            "eps must be one number for one direction and a sequence for a sequence "
            f"of directions, got {eps!r}")
    directions = [direction] if single else _entries("direction", direction)
    epsilons = [_real("eps", e) for e in ([eps] if single else eps)]
    if 0.0 in epsilons:
        raise ConfigurationError(f"eps must be nonzero, got {eps!r}")
    if len(directions) != len(epsilons):
        raise ConfigurationError(
            f"need one eps per direction, got {len(epsilons)} for {len(directions)}")
    _check_states("direction", [d.coeffs for d in directions], config.m, basis.J)
    _check_states("equilibrium", [eq.state.coeffs for eq in equilibria], config.m, basis.J)
    _check_states("source", [source.state.coeffs], config.m, basis.J)
    L = source.linearization
    mj = config.m * basis.J
    if np.shape(L) != (mj, mj):
        raise ConfigurationError(f"source linearization shape {np.shape(L)} is not "
                                 f"(mJ, mJ) = ({mj}, {mj})")
    results: list = [None] * len(directions)
    shots = []
    for i, d in enumerate(directions):
        nrm = np.sqrt(np.sum(d.coeffs ** 2))
        if abs(nrm - 1.0) > 1e-8:
            raise ConfigurationError(f"direction must be a unit state, norm={nrm}")
        flat = d.coeffs.ravel()
        theta = float(flat @ (L @ flat))
        eig_residual = float(np.sqrt(np.sum((L @ flat - theta * flat) ** 2)))
        if theta >= -MORSE_TOL or eig_residual > max(DIRECTION_TOL, DIRECTION_TOL * abs(theta)):
            results[i] = ShootMiss(reason="not-unstable", closest_distance=float("inf"),
                                   closest_target=None, trajectory=None)
        else:
            shots.append(i)

    # every shot marches at s = 1 (none if no direction is unstable) and
    # settles on its own; the settle state is held in arrays indexed by member
    # id (the position in ``shots``), updated through the members ``settle`` sees
    B = len(shots)
    # never settle back onto the source itself
    candidates = np.array([
        i for i, eq in enumerate(equilibria)
        if not np.sqrt(np.sum((eq.state.coeffs - source.state.coeffs) ** 2)) <= SETTLE_TOL],
        dtype=int)
    goals = np.stack([equilibria[i].state.coeffs for i in candidates]) if candidates.size else None
    # per member: closest distance and its target (-1: none yet), the target
    # dwelt on (-1: none) and since when, the target settled on and its distance
    closest, closest_target = np.full(B, np.inf), np.full(B, -1)
    inside_target, inside_since = np.full(B, -1), np.zeros(B)
    settled_target, settled_distance = np.full(B, -1), np.zeros(B)
    # the window: the times of the steps shown since the last evaluation and
    # their rows, all with the members ``held``, copied into ``window`` (so
    # the march's arrays are freed step by step as before); every dwell run
    # ongoing when it opened began at ``known`` or later.  ``window`` holds as
    # many steps as keep their differences to every target, ``diff``, within
    # FD_STACK_BYTES (or one step); both are views of buffers made once per
    # call and grown only when a set of rows needs more.
    window_t = []
    held, known, window, diff = None, math.inf, None, None
    rows_buffer, diff_buffer = np.empty(0), np.empty(0)
    # retiring misses: ``drift`` (``_kernel_drift``) and the time by which the
    # window is next evaluated (first at the first step)
    drift = (_kernel_drift(field, basis, config, settings)
             if retire_misses and B and goals is not None else None)
    terms = basis.x.size + config.m * basis.J + 8
    check_at = math.inf if drift is None else 0.0

    def evaluate():
        """Settle every step of the window at once, as one (K, B, G, m J)
        distance computation, and empty it; returns the mask of the members
        that settle at its last step (or False).  Bit for bit the per-step
        rule: each distance is one C-ordered m J run, as ``np.sum`` sums one
        state; the closest approach is the first strict minimum over the
        window; a dwell run starts at the last step that breaks it."""
        if not window_t:
            return False
        K, members = len(window_t), held
        sq = np.subtract(window[:K, :, None], goals, out=diff[:K])
        np.square(sq, out=sq)
        dists = np.sqrt(sq.reshape(K, members.size, goals.shape[0], -1).sum(axis=-1))
        times = np.array(window_t)
        window_t.clear()
        near = dists.min(axis=-1)
        step = near.argmin(axis=0)
        cols = np.arange(members.size)
        low = near[step, cols]
        closer = low < closest[members]
        if closer.any():
            closest[members[closer]] = low[closer]
            closest_target[members[closer]] = candidates[
                dists[step[closer], cols[closer]].argmin(axis=-1)]
        if not near.min() <= SETTLE_TOL:
            inside_target[members] = -1
            return False
        within = dists <= SETTLE_TOL
        inside = within.any(axis=-1)
        first = within.argmax(axis=-1)
        best = np.where(inside, candidates[first], -1)
        stay = inside & (np.concatenate([inside_target[members][None], best[:-1]]) == best)
        start = np.where(stay, -1, np.arange(K)[:, None]).max(axis=0)
        since = np.where(start < 0, inside_since[members], times[start])
        settled = stay[-1] & (times[-1] - since >= DWELL)
        inside_target[members] = best[-1]
        inside_since[members] = since
        if not settled.any():
            return False
        settled_target[members[settled]] = best[-1, settled]
        settled_distance[members[settled]] = dists[-1, settled, first[-1, settled]]
        return settled

    def settle(t, c, members):
        # Nothing settles at step t while t - t0 < DWELL for the window's
        # first step t0 and t - known < DWELL: every dwell run began at t0
        # or later, or at a known start, and float subtraction is monotone.
        nonlocal held, known, window, diff, rows_buffer, diff_buffer
        if members is not held:
            evaluate()
            held = members
            cap = min(settings.nsteps, max(1, FD_STACK_BYTES // (c.size * goals.shape[0] * 8)))
            n = cap * c.size
            if rows_buffer.size < n:
                rows_buffer, diff_buffer = np.empty(n), np.empty(n * goals.shape[0])
            window = rows_buffer[:n].reshape((cap,) + c.shape)
            diff = diff_buffer[:n * goals.shape[0]].reshape((cap, c.shape[0]) + goals.shape)
        if not window_t:
            dwelling = inside_target[members] >= 0
            known = inside_since[members][dwelling].min(initial=math.inf)
        window[len(window_t)] = c
        window_t.append(t)
        if (t - window_t[0] < DWELL and t - known < DWELL and len(window_t) < len(window)
                and t < check_at):
            return False
        done = evaluate()
        return done if drift is None else retire(t, c, members, done)

    def retire(t, c, members, done):
        # every row that goes on past this step, or none (``_proven``)
        nonlocal check_at
        going = np.ones(members.size, dtype=bool) if done is False else ~done
        if not going.any():
            return done
        exact, K, growth = drift
        rows = c[going]
        steps = settings.nsteps - round(t / settings.dt)
        part = rows[:, exact]
        floor = _drift_floor(np.sqrt(((part[:, None] - goals[:, exact]) ** 2).sum(axis=-1)),
                             np.sqrt((part ** 2).sum(axis=-1)), steps, settings.dt * K, terms)
        closest_going = closest[members[going]]
        if _proven(floor, closest_going).all():
            norms = np.sqrt((rows ** 2).sum(axis=(-2, -1)))
            if ((norms + steps * growth) * (1 + (terms + 2 * steps) * np.finfo(float).eps)
                    < settings.divergence_threshold).all():
                return np.ones(members.size, dtype=bool)
            check_at = t + DWELL
            return done
        gap = float((np.maximum(closest_going, SETTLE_TOL)[:, None] - floor).max())
        check_at = t + gap / (2 * K) if K > 0 else math.inf
        return done

    starts = [GalerkinState._trusted(source.state.coeffs + epsilons[i] * directions[i].coeffs)
              for i in shots]
    trajectories = integrate_ensemble(field, basis, split, config, np.ones(B), starts, settings,
                                      None if goals is None else settle)
    evaluate()  # the closest approaches of the steps left in the window
    for b, (i, traj) in enumerate(zip(shots, trajectories)):
        if settled_target[b] >= 0:
            energies = (None if field.potential is None
                        else _energies(field, basis, config, traj.coeffs))
            results[i] = ConnectionRecord(
                source=source, target=equilibria[settled_target[b]], trajectory=traj,
                terminal_distance=float(settled_distance[b]), energy_profile=energies)
        else:
            target = int(closest_target[b])
            results[i] = ShootMiss(
                reason="divergent" if traj.diverged else "horizon",
                closest_distance=float(closest[b]),
                closest_target=None if target < 0 else target, trajectory=traj)
    return results[0] if single else results
