import math

import numpy as np
import pytest

import resodyn as rd
from resodyn.connections import _components
from resodyn.errors import ConfigurationError, GradientStructureError


def _zero_field_with_potential(m=1):
    return rd.NonlinearField(
        name="zero", m=m, eval=lambda x, U, dU: np.zeros_like(U),
        sigma=np.zeros(m), f_plus=lambda x: np.zeros((m, x.size)),
        f_minus=lambda x: np.zeros((m, x.size)), bound_C3=0.0,
        potential=lambda x, U: np.zeros(x.size))


def test_zero_field_only_origin(basis32, desk_problem, desk_split, rng):
    field = _zero_field_with_potential()
    seeds = [rd.GalerkinState(0.1 * rng.normal(size=(1, 32))) for _ in range(3)]
    eqs = rd.find_equilibria(field, basis32, desk_split, desk_problem, seeds)
    assert len(eqs) == 1 and eqs[0].is_origin


def test_desk_equilibrium_pair(desk_equilibria):
    nontrivial = [eq for eq in desk_equilibria if not eq.is_origin]
    assert len(nontrivial) == 2
    for eq in nontrivial:
        assert eq.residual <= 1e-10
        assert eq.morse_index == 1
    a, b = nontrivial
    assert np.allclose(a.state.coeffs, -b.state.coeffs, atol=1e-9)
    origin = next(eq for eq in desk_equilibria if eq.is_origin)
    assert origin.morse_index == 2


def test_newton_fixed_point(basis32, desk_problem, desk_split, desk_field,
                            desk_equilibria):
    ustar = next(eq for eq in desk_equilibria if not eq.is_origin)
    eqs = rd.find_equilibria(desk_field, basis32, desk_split, desk_problem,
                             [ustar.state])
    nontrivial = [eq for eq in eqs if not eq.is_origin]
    assert len(nontrivial) == 1
    assert np.sqrt(np.sum((nontrivial[0].state.coeffs - ustar.state.coeffs) ** 2)) <= 1e-10


def test_newton_certificate_fresh_quadrature(desk_problem, desk_field, desk_equilibria):
    fine = rd.build_basis(rd.Domain1D(1.0, 112), 32)
    split = rd.classify(fine, desk_problem)
    for eq in desk_equilibria:
        F = rd.galerkin_F(desk_field, fine, eq.state)
        weights = fine.mu[None, :] - np.asarray(desk_problem.lam)[:, None]
        res = np.sqrt(np.sum((-weights * eq.state.coeffs + F.coeffs) ** 2))
        assert res <= 1e-10


def test_liapunov_energy_zero_state(basis32, desk_problem, desk_field):
    e = rd.liapunov_energy(desk_field, basis32, desk_problem,
                           rd.GalerkinState.zeros(1, 32))
    assert e == 0.0


def test_liapunov_energy_quadratic_form(basis32, desk_problem):
    field = _zero_field_with_potential()
    a = 0.7
    u = rd.GalerkinState.unit(1, 32, 1, 2, amplitude=a)
    e = rd.liapunov_energy(field, basis32, desk_problem, u)
    expected = 0.5 * (basis32.mu[1] - desk_problem.lam[0]) * a ** 2
    assert e == pytest.approx(expected, rel=1e-12)


def test_energy_monotone_along_trajectory(basis32, desk_problem, desk_split, desk_field):
    u0 = rd.GalerkinState.unit(1, 32, 1, 2, amplitude=0.3)
    settings = rd.IntegratorSettings(dt=1e-3, T=2.0, store_every=10)
    traj = rd.integrate(desk_field, basis32, desk_split, desk_problem, 1.0, u0, settings)
    energies = np.array([
        rd.liapunov_energy(desk_field, basis32, desk_problem, traj.state(i))
        for i in range(traj.times.size)])
    assert np.all(np.diff(energies) <= 1e-8)


def test_validate_potential_accepts_and_rejects(desk_field):
    rd.validate_potential(desk_field)
    broken = rd.NonlinearField(
        name="broken", m=1, eval=desk_field.eval, sigma=desk_field.sigma,
        f_plus=desk_field.f_plus, f_minus=desk_field.f_minus,
        bound_C3=desk_field.bound_C3,
        potential=lambda x, U: np.sum(U ** 2, axis=0))
    with pytest.raises(GradientStructureError):
        rd.validate_potential(broken)
    nopot = rd.make_field("gaussian-decay", 1)
    rd.validate_potential(nopot)  # gaussian field carries a valid potential


def test_unstable_directions_ordering(basis32, desk_problem, desk_field, desk_equilibria):
    origin = next(eq for eq in desk_equilibria if eq.is_origin)
    dirs = rd.unstable_directions(desk_field, basis32, desk_problem, origin)
    assert len(dirs) == 2
    rates = [r for r, _ in dirs]
    assert rates[0] == pytest.approx(-40.0, abs=1e-6)
    assert rates[1] == pytest.approx(3 * math.pi ** 2 - 40.0, abs=1e-6)
    # block eigensolve keeps the parity support exact
    assert np.all(dirs[1][1].coeffs[0, 0::2] == 0.0)


def test_no_unstable_directions_for_damped_field(basis32, desk_problem, desk_split):
    field = rd.make_field("-arctan(40)", 1)
    eqs = rd.find_equilibria(field, basis32, desk_split, desk_problem, [])
    origin = eqs[0]
    assert origin.is_origin and origin.morse_index == 0
    assert rd.unstable_directions(field, basis32, desk_problem, origin) == []


def test_morse_index_counts_the_unstable_directions(basis32, desk_problem, desk_field,
                                                    desk_equilibria, assert_stored_spectrum):
    for eq in desk_equilibria:
        dirs = rd.unstable_directions(desk_field, basis32, desk_problem, eq)
        assert eq.morse_index == len(dirs)
        assert_stored_spectrum(desk_field, basis32, desk_problem, eq)


def test_shoot_connection_builds_no_linearization(basis32, desk_problem, desk_split,
                                                  desk_field, desk_equilibria, monkeypatch):
    from resodyn import connections
    origin = next(eq for eq in desk_equilibria if eq.is_origin)
    _, second = rd.unstable_directions(desk_field, basis32, desk_problem, origin)[1]

    def refuse(*args):
        raise AssertionError("shoot_connection linearized its source")

    monkeypatch.setattr(connections, "discrete_linearization", refuse)
    shots = rd.shoot_connection(desk_field, basis32, desk_split, desk_problem, origin,
                                [second, rd.GalerkinState.unit(1, 32, 1, 3)], [1e-3, 1e-3],
                                rd.IntegratorSettings(dt=1e-2, T=4.0), desk_equilibria)
    assert isinstance(shots[0], rd.ConnectionRecord)
    assert shots[1].reason == "not-unstable"


def test_nearly_neutral_origin_is_not_unstable(basis32, desk_problem, desk_split):
    # the resonant mode's eigenvalue is -1e-12, above -MORSE_TOL
    field = rd.make_field("arctan(1e-12)", 1)
    origin, = rd.find_equilibria(field, basis32, desk_split, desk_problem, [])
    assert origin.is_origin and origin.morse_index == 0
    assert rd.unstable_directions(field, basis32, desk_problem, origin) == []


def test_shoot_miss_by_contract_on_stable_direction(basis32, desk_problem, desk_split,
                                                    desk_field, desk_equilibria):
    origin = next(eq for eq in desk_equilibria if eq.is_origin)
    stable = rd.GalerkinState.unit(1, 32, 1, 3)  # linearization eigenvalue > 0
    settings = rd.IntegratorSettings(dt=1e-3, T=1.0)
    result = rd.shoot_connection(desk_field, basis32, desk_split, desk_problem,
                                 origin, stable, 1e-3, settings, desk_equilibria)
    assert isinstance(result, rd.ShootMiss)
    assert result.reason == "not-unstable"


def test_shoot_connects_to_pair(basis32, desk_problem, desk_split, desk_field,
                                desk_equilibria):
    origin = next(eq for eq in desk_equilibria if eq.is_origin)
    dirs = rd.unstable_directions(desk_field, basis32, desk_problem, origin)
    direction = dirs[1][1]
    settings = rd.IntegratorSettings(dt=1e-3, T=8.0, store_every=20)
    plus = rd.shoot_connection(desk_field, basis32, desk_split, desk_problem,
                               origin, direction, 1e-3, settings, desk_equilibria)
    minus = rd.shoot_connection(desk_field, basis32, desk_split, desk_problem,
                                origin, direction, -1e-3, settings, desk_equilibria)
    assert isinstance(plus, rd.ConnectionRecord)
    assert isinstance(minus, rd.ConnectionRecord)
    assert plus.terminal_distance <= 1e-4
    assert minus.terminal_distance <= 1e-4
    # odd symmetry: opposite signs land on opposite equilibria
    assert np.allclose(plus.target.state.coeffs, -minus.target.state.coeffs, atol=1e-8)
    for record in (plus, minus):
        assert np.all(np.diff(record.energy_profile) <= 1e-8)


def test_shoot_kernel_direction_escapes(basis32, desk_problem, desk_split, desk_field,
                                        desk_equilibria):
    # the resonance functional repels the kernel direction: that shot is
    # unbounded, with the kernel coefficient drifting at the limit rate
    origin = next(eq for eq in desk_equilibria if eq.is_origin)
    dirs = rd.unstable_directions(desk_field, basis32, desk_problem, origin)
    kernel_dir = dirs[0][1]
    assert abs(abs(kernel_dir.coeffs[0, 0]) - 1.0) <= 1e-12
    settings = rd.IntegratorSettings(dt=1e-3, T=6.0, store_every=100)
    result = rd.shoot_connection(desk_field, basis32, desk_split, desk_problem,
                                 origin, kernel_dir, 1e-3, settings, desk_equilibria)
    assert isinstance(result, rd.ShootMiss)
    assert result.reason == "horizon"
    p1 = result.trajectory.norm_series("P1_seminorm")
    t = result.trajectory.times
    slope = np.polyfit(t[t.size // 2:], p1[t.size // 2:], 1)[0]
    assert slope == pytest.approx(math.sqrt(2), rel=0.05)


def test_connection_consistency_with_bounds(basis32, desk_problem, desk_split,
                                            desk_field, desk_equilibria):
    origin = next(eq for eq in desk_equilibria if eq.is_origin)
    dirs = rd.unstable_directions(desk_field, basis32, desk_problem, origin)
    settings = rd.IntegratorSettings(dt=1e-3, T=8.0, store_every=20)
    record = rd.shoot_connection(desk_field, basis32, desk_split, desk_problem,
                                 origin, dirs[1][1], 1e-3, settings, desk_equilibria)
    assert isinstance(record, rd.ConnectionRecord)
    start = record.trajectory.coeffs[0]
    assert np.sqrt(np.sum((start - origin.state.coeffs) ** 2)) <= 1e-3 + 1e-12
    end = record.trajectory.coeffs[-1]
    assert np.sqrt(np.sum((end - record.target.state.coeffs) ** 2)) <= 1e-4
    C6 = desk_field.bound_C3 * math.sqrt(1 * basis32.domain.length)
    bounds = rd.apriori_bounds(basis32, desk_split, desk_problem, C6)
    rep = rd.check_bounded_solution(record.trajectory, bounds, R1=20.0, R2=0.0)
    assert not rep.unbounded
    assert all(r <= 1.0 for r in rep.ratios.values())


@pytest.mark.parametrize("m", [1, 2])
def test_fd_jacobian_matches_column_loop(basis32, m):
    # the stacked evaluation may move the field's last bit (another BLAS
    # path), which a central difference turns into eps |r| / h; every entry
    # must stay inside that rounding floor of the one-column-at-a-time loop
    from resodyn.connections import _fd_jacobian, _residual
    cfg = rd.ProblemConfig(m=m, l=1, lam=(float(basis32.mu[0]),) * m, sigma=(0.0,) * m)
    field = rd.make_field("arctan(40)", m)
    c = 0.1 * np.random.default_rng(2).normal(size=(m, 32))
    c[0, 0] = 3.0  # a coefficient above 1 scales its step
    n = m * 32
    loop = np.zeros((n, n))
    floor = np.zeros((n, n))
    for idx in range(n):
        h = 1e-7 * max(1.0, abs(c.flat[idx]))
        dp, dm = c.copy(), c.copy()
        dp.flat[idx] += h
        dm.flat[idx] -= h
        rp = _residual(field, basis32, cfg, dp).ravel()
        rm = _residual(field, basis32, cfg, dm).ravel()
        loop[:, idx] = (rp - rm) / (2 * h)
        floor[:, idx] = 2 * np.finfo(float).eps * (np.maximum(abs(rp), abs(rm)) + 1.0) / h
    assert np.all(np.abs(_fd_jacobian(field, basis32, cfg, c) - loop) <= floor)


# -- batched shots ------------------------------------------------------------

def _close(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf
        near = np.abs(a - b) <= 1e-14 + 1e-12 * np.abs(b)
    return a.shape == b.shape and bool(np.all((a == b) | near))


def _assert_same_shot(batched, single):
    assert type(batched) is type(single)
    if isinstance(single, rd.ShootMiss):
        assert batched.reason == single.reason
        assert batched.closest_target == single.closest_target
        assert _close(batched.closest_distance, single.closest_distance)
        if single.trajectory is None:
            assert batched.trajectory is None
            return
    else:
        assert batched.target is single.target
        assert _close(batched.terminal_distance, single.terminal_distance)
        assert _close(batched.energy_profile, single.energy_profile)
    assert np.array_equal(batched.trajectory.times, single.trajectory.times)
    assert batched.trajectory.diverged == single.trajectory.diverged
    assert _close(batched.trajectory.coeffs, single.trajectory.coeffs)
    assert _close(batched.trajectory.norms, single.trajectory.norms)


def _shoot_both(field, basis, split, cfg, origin, directions, eps, settings, equilibria):
    batched = rd.shoot_connection(field, basis, split, cfg, origin, directions, eps,
                                  settings, equilibria)
    single = [rd.shoot_connection(field, basis, split, cfg, origin, d, e, settings,
                                  equilibria) for d, e in zip(directions, eps)]
    assert isinstance(batched, list) and len(batched) == len(single)
    for b, s in zip(batched, single):
        _assert_same_shot(b, s)
    return batched


def test_batched_shots_match_single_desk(basis32, desk_problem, desk_split, desk_field,
                                         desk_equilibria):
    origin = next(eq for eq in desk_equilibria if eq.is_origin)
    dirs = [d for _, d in rd.unstable_directions(desk_field, basis32, desk_problem, origin)]
    settings = rd.IntegratorSettings(dt=1e-2, T=4.0, store_every=10)
    shots = _shoot_both(desk_field, basis32, desk_split, desk_problem, origin,
                        [d for d in dirs for _ in range(2)], [1e-3, -1e-3] * len(dirs),
                        settings, desk_equilibria)
    assert [type(r).__name__ for r in shots] == ["ShootMiss"] * 2 + ["ConnectionRecord"] * 2
    # the kernel shot keeps marching after its stack mates have settled
    assert shots[0].trajectory.times[-1] == 4.0 > shots[2].trajectory.times[-1]


def test_batched_shots_match_single_two_components():
    basis = rd.build_basis(rd.Domain1D(1.0, 48), 16)
    cfg = rd.ProblemConfig(m=2, l=1, lam=(float(basis.mu[0]),) * 2, sigma=(0.0, 0.0))
    split = rd.classify(basis, cfg)
    field = rd.make_field("arctan(40)", 2)
    origin, = rd.find_equilibria(field, basis, split, cfg, [])
    dirs = [d for _, d in rd.unstable_directions(field, basis, cfg, origin)]
    equilibria = rd.find_equilibria(field, basis, split, cfg,
                                    [rd.GalerkinState(sign * 0.05 * d.coeffs)
                                     for d in dirs for sign in (1, -1)])
    settings = rd.IntegratorSettings(dt=1e-2, T=4.0, store_every=10)
    shots = _shoot_both(field, basis, split, cfg, origin,
                        [d for d in dirs for _ in range(2)], [1e-3, -1e-3] * len(dirs),
                        settings, equilibria)
    kinds = {type(r).__name__ for r in shots}
    assert kinds == {"ShootMiss", "ConnectionRecord"}


def test_pure_parity_shot_stays_exact_in_mixed_stack(basis32, desk_problem, desk_split,
                                                     desk_field, desk_equilibria):
    origin = next(eq for eq in desk_equilibria if eq.is_origin)
    (_, kernel), (_, second) = rd.unstable_directions(desk_field, basis32, desk_problem,
                                                      origin)
    assert np.all(second.coeffs[0, 0::2] == 0.0)  # antisymmetric about L/2
    settings = rd.IntegratorSettings(dt=1e-2, T=4.0, store_every=1)
    shots = rd.shoot_connection(desk_field, basis32, desk_split, desk_problem, origin,
                                [kernel, second, kernel], [1e-3, 1e-3, -1e-3], settings,
                                desk_equilibria)
    record = shots[1]
    assert isinstance(record, rd.ConnectionRecord)
    assert np.all(record.trajectory.coeffs[:, 0, 0::2] == 0.0)
    assert np.any(record.trajectory.coeffs[-1, 0, 1::2] != 0.0)
    # the symmetric shots fill the modes the antisymmetric one must not touch
    assert np.any(shots[0].trajectory.coeffs[-1, 0, 0::2] != 0.0)


def test_misses_report_first_closest_approach(basis32, desk_problem, desk_split, desk_field,
                                             desk_equilibria):
    # the horizon ends before either pair shot has dwelt long enough to settle
    origin = next(eq for eq in desk_equilibria if eq.is_origin)
    (_, kernel), (_, second) = rd.unstable_directions(desk_field, basis32, desk_problem,
                                                      origin)
    settings = rd.IntegratorSettings(dt=1e-2, T=1.5, store_every=1)
    shots = rd.shoot_connection(desk_field, basis32, desk_split, desk_problem, origin,
                                [kernel, second, second], [1e-3, 1e-3, -1e-3], settings,
                                desk_equilibria)
    targets = [i for i, eq in enumerate(desk_equilibria) if not eq.is_origin]
    for shot in shots:
        assert shot.reason == "horizon"
        dists = np.array([[np.sqrt(np.sum((c - desk_equilibria[i].state.coeffs) ** 2))
                           for i in targets] for c in shot.trajectory.coeffs[1:]])
        assert shot.closest_distance == dists.min()
        # first in (step, target) order, as a serial scan finds it
        assert shot.closest_target == targets[np.argmin(dists) % len(targets)]
    assert shots[1].closest_target != shots[2].closest_target


def test_batch_with_rejected_and_divergent_members(basis32, desk_problem, desk_split,
                                                   desk_field, desk_equilibria):
    origin = next(eq for eq in desk_equilibria if eq.is_origin)
    (_, kernel), (_, second) = rd.unstable_directions(desk_field, basis32, desk_problem,
                                                      origin)
    stable = rd.GalerkinState.unit(1, 32, 1, 3)
    # the kernel shot escapes past the threshold; the saddle pair has norm 0.024
    settings = rd.IntegratorSettings(dt=1e-2, T=4.0, store_every=10,
                                     divergence_threshold=1.0)
    shots = _shoot_both(desk_field, basis32, desk_split, desk_problem, origin,
                        [second, stable, kernel, second], [1e-3, 1e-3, 1e-3, -1e-3],
                        settings, desk_equilibria)
    assert shots[1].reason == "not-unstable" and shots[1].trajectory is None
    assert shots[2].reason == "divergent" and shots[2].trajectory.diverged
    assert shots[2].trajectory.times[-1] < 4.0
    assert all(isinstance(shots[i], rd.ConnectionRecord) for i in (0, 3))


def test_batched_shots_validate_inputs(basis32, desk_problem, desk_split, desk_field,
                                       desk_equilibria):
    origin = next(eq for eq in desk_equilibria if eq.is_origin)
    settings = rd.IntegratorSettings(dt=1e-2, T=0.1)
    unit = rd.GalerkinState.unit(1, 32, 1, 2)
    with pytest.raises(ConfigurationError, match="one eps per direction"):
        rd.shoot_connection(desk_field, basis32, desk_split, desk_problem, origin,
                            [unit, unit], [1e-3], settings, desk_equilibria)
    with pytest.raises(ConfigurationError, match="unit state"):
        rd.shoot_connection(desk_field, basis32, desk_split, desk_problem, origin,
                            [unit, rd.GalerkinState.unit(1, 32, 1, 2, 2.0)], [1e-3, 1e-3],
                            settings, desk_equilibria)
    assert rd.shoot_connection(desk_field, basis32, desk_split, desk_problem, origin,
                               [], [], settings, desk_equilibria) == []


@pytest.mark.parametrize("n", [1, 2, 5, 64, 128])
def test_component_labels_match_scipy(n):
    # numbered by smallest index, as scipy.sparse.csgraph numbers them
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components
    rng = np.random.default_rng(n)
    chain = rng.permutation(n)  # one component as a path in shuffled order
    path = np.zeros((n, n), dtype=bool)
    path[chain[:-1], chain[1:]] = True
    patterns = [np.zeros((n, n), dtype=bool), np.eye(n, dtype=bool),
                np.ones((n, n), dtype=bool), path | path.T]
    for density in (0.005, 0.02, 0.05, 0.2, 0.6):
        for _ in range(8):
            p = rng.uniform(size=(n, n)) < density
            patterns.append(p | p.T)
    for p in patterns:
        _, expected = connected_components(csr_matrix(p), directed=False)
        assert np.array_equal(_components(p), expected)
