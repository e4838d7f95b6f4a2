"""Equilibria of the discretized system, the energy functional for gradient
fields, and forward shooting for orbits connecting stationary points."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import eigh

log = logging.getLogger(__name__)

from .decomposition import SplitIndexSet
from .errors import ConfigurationError, GradientStructureError
from .fields import NonlinearField, _u_jacobian, galerkin_F
from .semiflow import IntegratorSettings, Trajectory, _assemble, _march
from .spectral import GalerkinState, ProblemConfig, SpectralBasis

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


@dataclass(frozen=True)
class Equilibrium:
    """Newton-certified stationary point of u' = -A u + F(u).

    ``morse_index`` counts the negative eigenvalues of the self-adjoint
    discrete linearization diag(mu_j - lambda_k) - K(u*), i.e. the unstable
    directions of the forward flow.
    """

    state: GalerkinState
    residual: float
    morse_index: int
    is_origin: bool

    def to_dict(self) -> dict:
        return {"residual": self.residual, "morse_index": self.morse_index,
                "is_origin": self.is_origin,
                "l2_norm": self.state.l2_norm()}


def _residual(field, basis, config, c):
    weights = basis.mu[None, :] - config.lam_array()[:, None]
    F = galerkin_F(field, basis, GalerkinState(c)).coeffs
    return -weights * c + F


def _fd_jacobian(field, basis, config, c, step=1e-7):
    """Central differences, every column from one stacked residual evaluation
    of the 2 m J states c +- h_i e_i with h_i = step * max(1, |c_i|)."""
    m, J = c.shape
    n = m * J
    base = c.ravel()
    h = step * np.maximum(1.0, np.abs(base))
    shifted = np.tile(base, (2, n, 1))
    diag = np.arange(n)
    shifted[0, diag, diag] += h
    shifted[1, diag, diag] -= h
    r = _residual(field, basis, config, shifted.reshape(2 * n, m, J)).reshape(2, n, n)
    return ((r[0] - r[1]) / (2 * h[:, None])).T


def find_equilibria(field: NonlinearField, basis: SpectralBasis, split: SplitIndexSet,
                    config: ProblemConfig, seeds: Sequence[GalerkinState],
                    residual_tol: float = 1e-10, max_iter: int = 100,
                    dedup_tol: float = 1e-6) -> list[Equilibrium]:
    """Damped Newton on -A u + F(u) = 0 from each seed.

    Finite-difference Jacobian, backtracking on the residual norm;
    non-converged seeds are dropped.  Results are deduplicated by L2
    distance, and the origin is prepended whenever the field vanishes there.
    """
    m, J = config.m, basis.J
    found: list[Equilibrium] = []

    zero = GalerkinState.zeros(m, J)
    origin_res = float(np.sqrt(np.sum(_residual(field, basis, config, zero.coeffs) ** 2)))
    if origin_res <= residual_tol:
        found.append(Equilibrium(
            state=zero, residual=origin_res,
            morse_index=_morse_index(field, basis, config, zero),
            is_origin=True))

    for seed_idx, seed in enumerate(seeds):
        c = np.atleast_2d(np.asarray(seed.coeffs, dtype=float)).copy()
        if c.shape != (m, J):
            raise ConfigurationError(f"seed shape {c.shape} != ({m}, {J})")
        converged = False
        for _ in range(max_iter):
            r = _residual(field, basis, config, c)
            rnorm = np.sqrt(np.sum(r ** 2))
            if rnorm <= residual_tol:
                converged = True
                break
            jac = _fd_jacobian(field, basis, config, c)
            try:
                delta = np.linalg.solve(jac, -r.ravel()).reshape(m, J)
            except np.linalg.LinAlgError:
                break
            lam_damp = 1.0
            improved = False
            for _ in range(30):
                trial = c + lam_damp * delta
                tnorm = np.sqrt(np.sum(_residual(field, basis, config, trial) ** 2))
                if tnorm < rnorm:
                    c = trial
                    improved = True
                    break
                lam_damp *= 0.5
            if not improved:
                break
        if not converged:
            log.warning("Newton did not converge from seed %d (|R| = %.3e); discarded",
                        seed_idx, float(np.sqrt(np.sum(
                            _residual(field, basis, config, c) ** 2))))
            continue
        state = GalerkinState(c)
        if any(np.sqrt(np.sum((c - eq.state.coeffs) ** 2)) <= dedup_tol for eq in found):
            continue
        rfinal = float(np.sqrt(np.sum(_residual(field, basis, config, c) ** 2)))
        found.append(Equilibrium(
            state=state, residual=rfinal,
            morse_index=_morse_index(field, basis, config, state),
            is_origin=bool(np.sqrt(np.sum(c ** 2)) <= dedup_tol)))
    return found


def discrete_linearization(field: NonlinearField, basis: SpectralBasis,
                           config: ProblemConfig, at: GalerkinState,
                           fd_step: float = 1e-6) -> np.ndarray:
    """Self-adjoint matrix diag(mu_j - lambda_k) - K(u*) in flattened (k, j)
    coordinates, with K the Galerkin matrix of multiplication by the field's
    u-Jacobian along the state."""
    m, J = config.m, basis.J
    gprime = _u_jacobian(field, basis.x, basis.values(at.coeffs), basis.dvalues(at.coeffs),
                         fd_step)
    size = m * J
    K = np.zeros((size, size))
    for k in range(m):
        for kp in range(m):
            # <g'_{k,kp} phi_{j'}, phi_j> over nodes
            block = basis.project(gprime[k, kp][None, :] * basis.phi)
            K[k * J:(k + 1) * J, kp * J:(kp + 1) * J] = block
    K = 0.5 * (K + K.T)
    diag = (basis.mu[None, :] - config.lam_array()[:, None]).ravel()
    return np.diag(diag) - K


def _morse_index(field, basis, config, state, tol=1e-10):
    L = discrete_linearization(field, basis, config, state)
    return int(np.sum(np.linalg.eigvalsh(L) < -tol))


def _block_eigh(L: np.ndarray):
    """Symmetric eigensolve respecting the exact sparsity blocks of L.

    The folded quadrature produces exact zeros between decoupled mode groups
    (e.g. opposite mirror parities at symmetric states); solving per
    connected component keeps eigenvectors exactly supported on their block,
    so shooting along them cannot leak into a decoupled group.
    """
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse import csr_matrix

    n = L.shape[0]
    ncomp, labels = connected_components(csr_matrix(L != 0.0), directed=False)
    vals = np.empty(n)
    vecs = np.zeros((n, n))
    pos = 0
    for comp in range(ncomp):
        idx = np.flatnonzero(labels == comp)
        sub_vals, sub_vecs = eigh(L[np.ix_(idx, idx)])
        vals[pos:pos + idx.size] = sub_vals
        vecs[np.ix_(idx, range(pos, pos + idx.size))] = sub_vecs
        pos += idx.size
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


def unstable_directions(field: NonlinearField, basis: SpectralBasis,
                        config: ProblemConfig, eq: Equilibrium) -> list[tuple[float, GalerkinState]]:
    """(eigenvalue, unit direction) pairs with negative linearization
    eigenvalue, most unstable first."""
    L = discrete_linearization(field, basis, config, eq.state)
    vals, vecs = _block_eigh(L)
    out = []
    for i in range(vals.size):
        if vals[i] < 0:
            out.append((float(vals[i]), GalerkinState(vecs[:, i].reshape(config.m, basis.J))))
    return out


def validate_potential(field: NonlinearField, samples: int = 32, seed: int = 0,
                       tol: float = 1e-6, fd_step: float = 1e-5) -> None:
    """Check d potential / d s_k = f_k by central differences at random points."""
    if field.potential is None:
        raise GradientStructureError(f"field {field.name!r} declares no potential")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 0.95, size=samples)
    U = rng.uniform(-3.0, 3.0, size=(field.m, samples))
    dU = np.zeros_like(U)
    f = np.asarray(field.eval(x, U, dU))
    for k in range(field.m):
        Up = U.copy()
        Um = U.copy()
        Up[k] += fd_step
        Um[k] -= fd_step
        dpot = (np.asarray(field.potential(x, Up)) - np.asarray(field.potential(x, Um))) / (2 * fd_step)
        err = float(np.max(np.abs(dpot - f[k])))
        if err > tol:
            raise GradientStructureError(
                f"potential inconsistent with component {k + 1}: "
                f"finite-difference error {err:.3e} > {tol:g}"
            )


def liapunov_energy(field: NonlinearField, basis: SpectralBasis, config: ProblemConfig,
                    u: GalerkinState, check_potential: bool = False) -> float:
    """Energy E(u) = 1/2 sum (mu_j - lambda_k) c_{k,j}^2 - int ftilde(x, u(x)) dx.

    The quadratic part carries the spectral shifts and the potential enters
    with a minus sign, which is the convention that makes E nonincreasing
    along u' = -A u + F(u) when F is the u-gradient of ftilde; the sign is
    validated numerically rather than assumed.
    """
    if field.potential is None:
        raise GradientStructureError(f"field {field.name!r} declares no potential")
    if check_potential:
        validate_potential(field)
    weights = basis.mu[None, :] - config.lam_array()[:, None]
    quad = 0.5 * float(np.sum(weights * u.coeffs ** 2))
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
                     direction: GalerkinState, eps: float,
                     settings: IntegratorSettings,
                     equilibria: Sequence[Equilibrium],
                     settle_tol: float = 1e-4, dwell: float = 1.0,
                     direction_tol: float = 1e-6):
    """Integrate from source + eps * direction, with the step of
    ``settings.scheme``, until the state dwells within ``settle_tol`` of
    some other equilibrium for at least ``dwell`` time units, or the
    horizon runs out.

    ``direction`` must be a unit eigenvector of the discrete linearization at
    the source with negative eigenvalue (an unstable direction of the
    forward flow); otherwise the shot is a miss by contract.  Returns a
    ConnectionRecord or a ShootMiss.
    """
    d = direction.coeffs
    nrm = np.sqrt(np.sum(d ** 2))
    if abs(nrm - 1.0) > 1e-8:
        raise ConfigurationError(f"direction must be a unit state, norm={nrm}")
    L = discrete_linearization(field, basis, config, source.state)
    flat = d.ravel()
    theta = float(flat @ (L @ flat))
    eig_residual = float(np.sqrt(np.sum((L @ flat - theta * flat) ** 2)))
    if theta >= 0 or eig_residual > max(direction_tol, direction_tol * abs(theta)):
        return ShootMiss(reason="not-unstable", closest_distance=float("inf"),
                         closest_target=None, trajectory=None)

    c = source.state.coeffs + eps * d
    targets = list(equilibria)
    # never settle back onto the source itself
    source_like = [np.sqrt(np.sum((eq.state.coeffs - source.state.coeffs) ** 2)) <= settle_tol
                   for eq in targets]
    has_energy = field.potential is not None
    times, coeffs = [0.0], [c]
    energies = [liapunov_energy(field, basis, config, GalerkinState(c))] if has_energy else None
    inside_since = None
    inside_target = None
    closest = float("inf")
    closest_target = None

    def rhs(c, members):
        return galerkin_F(field, basis, GalerkinState._trusted(c)).coeffs

    def record(t, c):
        times.append(t)
        coeffs.append(c)
        if has_energy:
            energies.append(liapunov_energy(field, basis, config, GalerkinState._trusted(c)))

    diverged = False
    for n, t, stack, _, hit in _march(rhs, basis, config, settings, c[None]):
        c, diverged = stack[0], bool(hit[0])
        stored = diverged or n % settings.store_every == 0 or n == settings.nsteps
        if stored:
            record(t, c)
        if diverged:
            break
        dists = [float(np.sqrt(np.sum((c - eq.state.coeffs) ** 2))) for eq in targets]
        best = None
        for i, dist in enumerate(dists):
            if source_like[i]:
                continue
            if dist < closest:
                closest = dist
                closest_target = i
            if best is None and dist <= settle_tol:
                best = i
        if best is not None:
            if inside_target == best and inside_since is not None:
                if t - inside_since >= dwell:
                    if not stored:
                        record(t, c)
                    traj = _assemble(basis, split, config, times, coeffs, 1.0, diverged=False)
                    return ConnectionRecord(
                        source=source, target=targets[best], trajectory=traj,
                        terminal_distance=float(dists[best]),
                        energy_profile=np.asarray(energies) if has_energy else None)
            else:
                inside_target = best
                inside_since = t
        else:
            inside_target = None
            inside_since = None
    traj = _assemble(basis, split, config, times, coeffs, 1.0, diverged=diverged)
    return ShootMiss(reason="divergent" if diverged else "horizon",
                     closest_distance=closest, closest_target=closest_target,
                     trajectory=traj)
