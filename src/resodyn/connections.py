"""Equilibria of the discretized system, the energy functional for gradient
fields, and forward shooting for orbits connecting stationary points."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .decomposition import SplitIndexSet
from .errors import ConfigurationError, GradientStructureError
from .fields import NonlinearField, _u_jacobian, galerkin_F
from .semiflow import IntegratorSettings, Trajectory, integrate_ensemble
from .spectral import GalerkinState, ProblemConfig, SpectralBasis, _eigh, diag_A

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


def _fd_jacobian(field, basis, config, c):
    """Central differences, every column from one stacked residual evaluation
    of the 2 m J states c +- h_i e_i with h_i = NEWTON_FD_STEP * max(1, |c_i|)."""
    m, J = c.shape
    n = m * J
    base = c.ravel()
    h = NEWTON_FD_STEP * np.maximum(1.0, np.abs(base))
    shifted = np.tile(base, (2, n, 1))
    diag = np.arange(n)
    shifted[0, diag, diag] += h
    shifted[1, diag, diag] -= h
    r = _residual(field, basis, config, shifted.reshape(2 * n, m, J)).reshape(2, n, n)
    return ((r[0] - r[1]) / (2 * h[:, None])).T


def find_equilibria(field: NonlinearField, basis: SpectralBasis, split: SplitIndexSet,
                    config: ProblemConfig, seeds: Sequence[GalerkinState]) -> list[Equilibrium]:
    """Damped Newton on -A u + F(u) = 0 from each seed.

    Finite-difference Jacobian, backtracking on the residual norm;
    non-converged seeds are dropped.  The candidates are the origin, whenever
    the field vanishes there, then the seeds' roots in seed order; each is
    dropped when within DEDUP_TOL (L2) of an earlier one.  This is the one
    place that linearizes an equilibrium: every accepted one carries its
    ``discrete_linearization`` and that matrix's unstable spectrum, solved
    once by ``_block_eigh``.
    """
    m, J = config.m, basis.J
    zero = np.zeros((m, J))
    origin_res = np.sqrt(np.sum(_residual(field, basis, config, zero) ** 2))
    roots = [(zero, origin_res)] if origin_res <= NEWTON_TOL else []
    for seed_idx, seed in enumerate(seeds):
        c = np.atleast_2d(np.asarray(seed.coeffs, dtype=float)).copy()
        if c.shape != (m, J):
            raise ConfigurationError(f"seed shape {c.shape} != ({m}, {J})")
        converged = False
        for _ in range(NEWTON_MAX_ITER):
            r = _residual(field, basis, config, c)
            rnorm = np.sqrt(np.sum(r ** 2))
            if rnorm <= NEWTON_TOL:
                converged = True
                break
            jac = _fd_jacobian(field, basis, config, c)
            try:
                delta = np.linalg.solve(jac, -r.ravel()).reshape(m, J)
            except np.linalg.LinAlgError:
                break
            lam_damp = 1.0
            for _ in range(30):
                trial = c + lam_damp * delta
                tnorm = np.sqrt(np.sum(_residual(field, basis, config, trial) ** 2))
                if tnorm < rnorm:
                    c, rnorm = trial, tnorm
                    break
                lam_damp *= 0.5
            else:
                break
        if converged:
            roots.append((c, rnorm))
        else:
            log.warning("Newton did not converge from seed %d (|R| = %.3e); discarded",
                        seed_idx, float(rnorm))

    found: list[Equilibrium] = []
    for c, rnorm in roots:
        if any(np.sqrt(np.sum((c - eq.state.coeffs) ** 2)) <= DEDUP_TOL for eq in found):
            continue
        state = GalerkinState(c)
        L = discrete_linearization(field, basis, config, state)
        vals, vecs = _block_eigh(L)
        L.flags.writeable = vecs.flags.writeable = False  # shared by every reader
        found.append(Equilibrium(
            state=state, residual=float(rnorm),
            is_origin=bool(np.sqrt(np.sum(c ** 2)) <= DEDUP_TOL), linearization=L,
            unstable=tuple((float(vals[i]), GalerkinState(vecs[:, i].reshape(m, J)))
                           for i in np.flatnonzero(vals < -MORSE_TOL))))
    return found


def discrete_linearization(field: NonlinearField, basis: SpectralBasis,
                           config: ProblemConfig, at: GalerkinState) -> np.ndarray:
    """Self-adjoint matrix diag(mu_j - lambda_k) - K(u*) in flattened (k, j)
    coordinates, with K the Galerkin matrix of multiplication by the field's
    u-Jacobian along the state (u' is folded only for a field that reads it)."""
    m, J = config.m, basis.J
    dU = basis.dvalues(at.coeffs) if field.reads_du else None
    gprime = _u_jacobian(field, basis.x, basis.values(at.coeffs), dU)
    size = m * J
    K = np.zeros((size, size))
    for k in range(m):
        for kp in range(m):
            # <g'_{k,kp} phi_{j'}, phi_j> over nodes
            block = basis.project(gprime[k, kp][None, :] * basis.phi)
            K[k * J:(k + 1) * J, kp * J:(kp + 1) * J] = block
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
    quad = 0.5 * float(np.sum(diag_A(basis, config) * u.coeffs ** 2))
    U = basis.values(u.coeffs)
    pot = float(np.sum(basis.w * np.asarray(field.potential(basis.x, U))))
    return quad - pot


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


def shoot_connection(field: NonlinearField, basis: SpectralBasis, split: SplitIndexSet,
                     config: ProblemConfig, source: Equilibrium,
                     direction, eps, settings: IntegratorSettings,
                     equilibria: Sequence[Equilibrium]):
    """Integrate from source + eps * direction at s = 1, with the step of
    ``settings.scheme``, until the state dwells within SETTLE_TOL of some
    other equilibrium for at least DWELL time units, or the horizon runs
    out.

    ``source`` comes from ``find_equilibria``.  ``direction`` must be a unit
    eigenvector of ``source.linearization`` with negative eigenvalue (an
    unstable direction of the forward flow); otherwise the shot is a miss by
    contract.  Returns a ConnectionRecord or a ShootMiss.  ``direction`` and
    ``eps`` may also be equal-length sequences, one shot per pair: every shot
    then marches in one (B, m, J) stack through ``integrate_ensemble``, a
    connected shot leaves it as it settles, and the results come back as a
    list in input order.
    """
    single = isinstance(direction, GalerkinState)
    directions = [direction] if single else list(direction)
    epsilons = [float(e) for e in ([eps] if single else eps)]
    if len(directions) != len(epsilons):
        raise ConfigurationError(
            f"need one eps per direction, got {len(epsilons)} for {len(directions)}")
    for d in directions:
        nrm = np.sqrt(np.sum(d.coeffs ** 2))
        if abs(nrm - 1.0) > 1e-8:
            raise ConfigurationError(f"direction must be a unit state, norm={nrm}")
    L = source.linearization
    results: list = [None] * len(directions)
    shots = []
    for i, d in enumerate(directions):
        flat = d.coeffs.ravel()
        theta = float(flat @ (L @ flat))
        eig_residual = float(np.sqrt(np.sum((L @ flat - theta * flat) ** 2)))
        if theta >= 0 or eig_residual > max(DIRECTION_TOL, DIRECTION_TOL * abs(theta)):
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

    def settle(t, c, members):
        # one C-ordered m*J run per distance, summed as np.sum sums one state
        sq = (c[:, None] - goals) ** 2
        dists = np.sqrt(sq.reshape(members.size, goals.shape[0], -1).sum(axis=-1))
        near = dists.min(axis=1)
        closer = near < closest[members]
        if closer.any():
            closest[members[closer]] = near[closer]
            closest_target[members[closer]] = candidates[dists[closer].argmin(axis=1)]
        if not near.min() <= SETTLE_TOL:
            inside_target[members] = -1
            return False
        within = dists <= SETTLE_TOL
        inside = within.any(axis=1)
        first = within.argmax(axis=1)
        best = np.where(inside, candidates[first], -1)
        stay = inside & (inside_target[members] == best)
        settled = stay & (t - inside_since[members] >= DWELL)
        inside_target[members] = best
        inside_since[members] = np.where(stay, inside_since[members], t)
        if not settled.any():
            return False
        settled_target[members[settled]] = best[settled]
        settled_distance[members[settled]] = dists[settled, first[settled]]
        return settled

    starts = [GalerkinState._trusted(source.state.coeffs + epsilons[i] * directions[i].coeffs)
              for i in shots]
    trajectories = integrate_ensemble(field, basis, split, config, np.ones(B), starts, settings,
                                      None if goals is None else settle)
    for b, (i, traj) in enumerate(zip(shots, trajectories)):
        if settled_target[b] >= 0:
            energies = None
            if field.potential is not None:
                energies = np.asarray([
                    liapunov_energy(field, basis, config, GalerkinState._trusted(c))
                    for c in traj.coeffs])
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
