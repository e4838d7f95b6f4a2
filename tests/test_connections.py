import math
from dataclasses import replace

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


def _per_state_energy(field, basis, config, c):
    """``liapunov_energy`` of one (m, J) state as it was written before the
    energies were stacked."""
    from resodyn.spectral import diag_A
    quad = 0.5 * float(np.sum(diag_A(basis, config) * c ** 2))
    U = basis.values(c)
    pot = float(np.sum(basis.w * np.asarray(field.potential(basis.x, U))))
    return quad - pot


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("nq", [48, 49, 65, 80, 81])
def test_stacked_energies_match_the_per_state_loop(m, nq):
    from resodyn.connections import _energies
    basis = rd.build_basis(rd.Domain1D(1.0, nq), 16)
    cfg = rd.ProblemConfig(m=m, l=1, lam=(float(basis.mu[0]),) * m, sigma=(0.0,) * m)
    rng = np.random.default_rng(nq + m)
    # a random stack, one state, a strided view and a pure-parity stack
    wide = rng.normal(size=(2, 9, m, 16)) * np.logspace(-4, 1, 9)[:, None, None]
    parity = np.zeros((5, m, 16))
    parity[..., 1::2] = rng.normal(size=(5, m, 8))
    stacks = [wide[0], wide[1, :1], wide[:, 3], parity]
    for spec in ("arctan(40)", "gaussian-decay(0.5)", "constant-kernel(1,2,1.3)"):
        for sign in ("", "-"):
            field = rd.make_field(sign + spec, m, basis=basis)
            for C in stacks:
                loop = np.asarray([_per_state_energy(field, basis, cfg, c) for c in C])
                assert _energies(field, basis, cfg, C).tobytes() == loop.tobytes()
                assert [rd.liapunov_energy(field, basis, cfg, rd.GalerkinState(c))
                        for c in C] == loop.tolist()


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


def test_shoot_along_a_nearly_neutral_direction_is_not_unstable(basis32, desk_problem,
                                                                  desk_split):
    # one rule for "unstable" (eigenvalue below -MORSE_TOL): phi_1's
    # eigenvalue at the arctan(1e-12) origin is -1e-12, so the origin has
    # Morse index 0, and a shot along phi_1 is a miss by contract rather
    # than a march to the horizon; so is a hand-built theta = -1e-11, while
    # theta = -2e-10 is shot
    field = rd.make_field("arctan(1e-12)", 1)
    origin, = rd.find_equilibria(field, basis32, desk_split, desk_problem, [])
    assert origin.morse_index == 0
    phi1 = rd.GalerkinState.unit(1, 32, 1, 1)
    settings = rd.IntegratorSettings(dt=1e-2, T=0.1)
    shot = rd.shoot_connection(field, basis32, desk_split, desk_problem, origin, phi1, 1e-3,
                               settings, [origin])
    assert shot.reason == "not-unstable" and shot.trajectory is None
    for theta, reason in ((-1e-11, "not-unstable"), (-2e-10, "horizon")):
        source = replace(origin, linearization=np.diag(np.r_[theta, np.arange(1.0, 32.0)]))
        shot = rd.shoot_connection(field, basis32, desk_split, desk_problem, source, phi1,
                                   1e-3, settings, [source])
        assert shot.reason == reason


def test_shoot_connection_names_a_mis_shaped_state_before_any_march(
        basis32, desk_problem, desk_split, desk_field, desk_equilibria, monkeypatch):
    from resodyn import connections
    calls = []
    monkeypatch.setattr(connections, "integrate_ensemble", lambda *a, **k: calls.append(a))
    origin = next(eq for eq in desk_equilibria if eq.is_origin)
    _, d = origin.unstable[0]
    settings = rd.IntegratorSettings(dt=1e-2, T=1.0)
    bad = rd.GalerkinState(np.full((1, 31), 1.0 / math.sqrt(31.0)))
    with pytest.raises(ConfigurationError, match=r"direction shape \(1, 31\) of direction 1 "
                                                 r"is not \(m, J\) = \(1, 32\)"):
        rd.shoot_connection(desk_field, basis32, desk_split, desk_problem, origin, [d, bad],
                            [1e-3, 1e-3], settings, desk_equilibria)
    odd = replace(desk_equilibria[2], state=rd.GalerkinState(np.zeros((1, 31))))
    with pytest.raises(ConfigurationError, match=r"equilibrium shape \(1, 31\) of "
                                                 r"equilibrium 2 is not \(m, J\) = \(1, 32\)"):
        rd.shoot_connection(desk_field, basis32, desk_split, desk_problem, origin, d, 1e-3,
                            settings, [*desk_equilibria[:2], odd])
    assert calls == []


def test_shoot_connection_names_a_mis_shaped_source_before_any_march(
        basis32, desk_problem, desk_split, desk_field, desk_equilibria, monkeypatch):
    from resodyn import connections
    calls = []
    monkeypatch.setattr(connections, "integrate_ensemble", lambda *a, **k: calls.append(a))
    origin = next(eq for eq in desk_equilibria if eq.is_origin)
    _, d = origin.unstable[0]
    settings = rd.IntegratorSettings(dt=1e-2, T=1.0)
    odd = replace(origin, state=rd.GalerkinState(np.zeros((1, 31))),
                  linearization=np.eye(31))
    with pytest.raises(ConfigurationError, match=r"source shape \(1, 31\) of source 0 "
                                                 r"is not \(m, J\) = \(1, 32\)"):
        rd.shoot_connection(desk_field, basis32, desk_split, desk_problem, odd, d, 1e-3,
                            settings, desk_equilibria)
    odd = replace(origin, linearization=np.eye(31))
    with pytest.raises(ConfigurationError, match=r"source linearization shape \(31, 31\) "
                                                 r"is not \(mJ, mJ\) = \(32, 32\)"):
        rd.shoot_connection(desk_field, basis32, desk_split, desk_problem, odd, d, 1e-3,
                            settings, desk_equilibria)
    assert calls == []


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


# -- lockstep Newton -----------------------------------------------------------

def _per_seed_search(field, basis, config, seeds):
    """``find_equilibria`` as it ran before its seeds stepped in lockstep: one
    seed after the other, every residual of one (m, J) state evaluated afresh
    at the top of each iteration, warnings as each seed fails.  Kept as the
    oracle of the stacked search, with convergence also tested after the last
    permitted step, and with a seed retired once an accepted iterate's L2
    norm passes DIVERGENCE_THRESHOLD."""
    from resodyn import connections as cn
    m, J = config.m, basis.J
    zero = np.zeros((m, J))
    origin_res = np.sqrt(np.sum(cn._residual(field, basis, config, zero) ** 2))
    roots = [(zero, origin_res)] if origin_res <= cn.NEWTON_TOL else []
    for seed_idx, seed in enumerate(seeds):
        c = np.atleast_2d(np.asarray(seed.coeffs, dtype=float)).copy()
        for it in range(cn.NEWTON_MAX_ITER + 1):
            r = cn._residual(field, basis, config, c)
            rnorm = np.sqrt(np.sum(r ** 2))
            if rnorm <= cn.NEWTON_TOL or it == cn.NEWTON_MAX_ITER:
                break
            jac = cn._fd_jacobian(field, basis, config, c)
            try:
                delta = np.linalg.solve(jac, -r.ravel()).reshape(m, J)
            except np.linalg.LinAlgError:
                break
            lam_damp = 1.0
            for _ in range(30):
                trial = c + lam_damp * delta
                tnorm = np.sqrt(np.sum(cn._residual(field, basis, config, trial) ** 2))
                if tnorm < rnorm:
                    c, rnorm = trial, tnorm
                    break
                lam_damp *= 0.5
            else:
                break
            if not np.sqrt(np.sum(c ** 2)) <= cn.DIVERGENCE_THRESHOLD:
                break
        size = np.sqrt(np.sum(c ** 2))
        if not size <= cn.DIVERGENCE_THRESHOLD:
            cn.log.warning("Newton from seed %d passed the divergence bound %g "
                           "(|u| = %.3e); discarded", seed_idx, cn.DIVERGENCE_THRESHOLD,
                           float(size))
        elif rnorm <= cn.NEWTON_TOL:
            roots.append((c, rnorm))
        else:
            cn.log.warning("Newton did not converge from seed %d (|R| = %.3e); discarded",
                           seed_idx, float(rnorm))
    found = []
    for c, rnorm in roots:
        if any(np.sqrt(np.sum((c - eq.state.coeffs) ** 2)) <= cn.DEDUP_TOL for eq in found):
            continue
        state = rd.GalerkinState(c)
        L = rd.discrete_linearization(field, basis, config, state)
        vals, vecs = cn._block_eigh(L)
        found.append(cn.Equilibrium(
            state=state, residual=float(rnorm),
            is_origin=bool(np.sqrt(np.sum(c ** 2)) <= cn.DEDUP_TOL), linearization=L,
            unstable=tuple((float(vals[i]), rd.GalerkinState(vecs[:, i].reshape(m, J)))
                           for i in np.flatnonzero(vals < -cn.MORSE_TOL))))
    return found


def _assert_same_equilibria(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.state.coeffs, b.state.coeffs)
        assert a.residual == b.residual and a.is_origin == b.is_origin
        assert np.array_equal(a.linearization, b.linearization)
        assert [rate for rate, _ in a.unstable] == [rate for rate, _ in b.unstable]
        for (_, d), (_, e) in zip(a.unstable, b.unstable):
            assert np.array_equal(d.coeffs, e.coeffs)


def _newton_field(spec, m):
    if spec != "u'-reading":
        return rd.make_field(spec, m)
    return rd.NonlinearField(name="arctan(40u)+tanh(u')/10", m=m,
                             eval=lambda x, U, dU: np.arctan(40 * U) + 0.1 * np.tanh(dU),
                             sigma=np.zeros(m), f_plus=None, f_minus=None)


def _warnings(caplog):
    messages = [r.getMessage() for r in caplog.records if r.name == "resodyn.connections"]
    caplog.clear()
    return messages


@pytest.mark.parametrize("quad_nodes", [80, 81])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("spec", ["arctan(40)", "-arctan(40)", "scaled-arctan(40,0.5)",
                                  "u'-reading"])
def test_lockstep_newton_matches_per_seed_loop(spec, m, quad_nodes, monkeypatch, caplog):
    # the connect stage's seeds (four small random states, then +-0.05 d per
    # unstable direction of the origin), a repeated seed, two far seeds and
    # one whose Jacobian is singular; with the default iteration cap and with
    # a cap of 3, under which most seeds never converge
    from resodyn import connections
    basis = rd.build_basis(rd.Domain1D(length=1.0, quad_nodes=quad_nodes), 32)
    cfg = rd.ProblemConfig(m=m, l=1, lam=(float(basis.mu[0]),) * m, sigma=(0.0,) * m)
    split = rd.classify(basis, cfg)
    field = _newton_field(spec, m)
    rng = np.random.default_rng(m * 100 + quad_nodes)
    seeds = [rd.GalerkinState(0.05 * rng.normal(size=(m, 32)) / np.sqrt(m * 32))
             for _ in range(4)]
    for origin in rd.find_equilibria(field, basis, split, cfg, []):
        seeds += [rd.GalerkinState(sign * 0.05 * d.coeffs)
                  for _, d in origin.unstable for sign in (1, -1)]
    far, farther, singular = np.zeros((3, m, 32))
    far[0, 0], farther[:, 1] = 30.0, -50.0
    singular[-1, :4] = 0.01
    seeds += [seeds[1], rd.GalerkinState(far), rd.GalerkinState(singular),
              rd.GalerkinState(farther)]
    jacobian = connections._fd_jacobian

    def with_singular_seed(field, basis, config, c):
        # the oracle passes one state, the lockstep search a stack of seeds;
        # the singular seed's block of the result is zeroed
        jac = jacobian(field, basis, config, c)
        for state, block in zip(c.reshape(-1, *c.shape[-2:]), jac.reshape(-1, *jac.shape[-2:])):
            if np.array_equal(state, singular):
                block[...] = 0.0
        return jac

    monkeypatch.setattr(connections, "_fd_jacobian", with_singular_seed)
    caplog.set_level("WARNING", logger="resodyn.connections")
    singular_warning = f"Newton did not converge from seed {len(seeds) - 2} "
    found, warned = [], []
    for cap in (connections.NEWTON_MAX_ITER, 3):
        monkeypatch.setattr(connections, "NEWTON_MAX_ITER", cap)
        want = _per_seed_search(field, basis, cfg, seeds)
        expected = _warnings(caplog)
        got = rd.find_equilibria(field, basis, split, cfg, seeds)
        assert _warnings(caplog) == expected
        _assert_same_equilibria(got, want)
        assert any(w.startswith(singular_warning) for w in expected)
        found.append(len(got))
        warned.append(len(expected))
    # seeds converge besides the origin (only the damped field has none),
    # and under the cap of 3 more seeds fail than the singular one
    assert found[0] >= 3 if spec != "-arctan(40)" else found[0] == 1
    assert warned[1] > 1


def test_lockstep_newton_without_seeds(basis32, desk_problem, desk_split, desk_field,
                                       monkeypatch):
    from resodyn import connections
    calls = []
    evaluate = connections.galerkin_F
    monkeypatch.setattr(connections, "galerkin_F",
                        lambda *args: calls.append(args[-1].coeffs.shape) or evaluate(*args))
    got = rd.find_equilibria(desk_field, basis32, desk_split, desk_problem, [])
    assert calls == [(1, 32)]  # the origin's residual, and no Newton step
    _assert_same_equilibria(got, _per_seed_search(desk_field, basis32, desk_problem, []))


def test_lockstep_newton_rounds_are_one_stacked_evaluation(basis32, desk_problem,
                                                           desk_split, desk_field,
                                                           monkeypatch):
    # after the origin, every residual is one (S', 1, 1, 32) stack of the
    # seeds still searching, or one group of whole seeds' Jacobian stacks
    # (g, 64, 1, 32); an iteration takes every live seed's Jacobian in
    # ceil(live / group) stacks, then one solve of all of them (on the field
    # not declared odd, so that every seed of a +- pair is stepped)
    from resodyn import connections
    desk_field = replace(desk_field, odd=False)
    shapes, solves = [], []
    evaluate, solve = connections.galerkin_F, np.linalg.solve
    monkeypatch.setattr(connections, "galerkin_F",
                        lambda *args: shapes.append(args[-1].coeffs.shape) or evaluate(*args))
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(a.shape) or solve(a, b))
    seeds = [rd.GalerkinState.unit(1, 32, 1, j, a) for j in (1, 2) for a in (0.05, -0.05)]
    rd.find_equilibria(desk_field, basis32, desk_split, desk_problem, seeds)
    group = connections.FD_STACK_BYTES // (64 * 80 * 8)
    assert group == 3
    assert shapes[:2] == [(1, 32), (4, 1, 1, 32)]
    assert all(len(s) == 4 and s[1] in (1, 64) and s[2:] == (1, 32) for s in shapes[2:])
    iterations = []  # (Jacobian group sizes, trial stack heights) per iteration
    for s in shapes[2:]:
        if s[1] == 64 and (not iterations or iterations[-1][1]):
            iterations.append(([], []))
        iterations[-1][s[1] == 1].append(s[0])
    assert iterations[0][0] == [3, 1]
    for jacobians, trials in iterations:
        live = sum(jacobians)
        assert len(jacobians) == -(-live // group)
        assert all(g == group for g in jacobians[:-1])
        assert trials[0] == live and all(a > b for a, b in zip(trials, trials[1:]))
    assert solves == [(sum(jacobians), 32, 32) for jacobians, _ in iterations]


def test_odd_field_steps_one_seed_per_mirror_pair(basis32, desk_problem, desk_split,
                                                  desk_field, monkeypatch, caplog):
    # the same +- seed pairs on the odd field: Newton steps only the first
    # seed of each pair, and each second seed is logged as its mirror
    from resodyn import connections
    assert desk_field.odd
    stepped, evaluated = [], []
    jacobian, evaluate = connections._fd_jacobian, connections.galerkin_F
    monkeypatch.setattr(connections, "_fd_jacobian",
                        lambda *args: stepped.append(args[-1].copy()) or jacobian(*args))
    monkeypatch.setattr(connections, "galerkin_F",
                        lambda *args: evaluated.append(args[-1].coeffs.shape) or evaluate(*args))
    seeds = [rd.GalerkinState.unit(1, 32, 1, j, a) for j in (1, 2) for a in (0.05, -0.05)]
    caplog.set_level("DEBUG", logger="resodyn.connections")
    got = rd.find_equilibria(desk_field, basis32, desk_split, desk_problem, seeds)
    assert evaluated[:2] == [(1, 32), (2, 1, 1, 32)]
    first = stepped[0]
    assert first.shape == (2, 1, 32)
    assert np.array_equal(first, np.stack([seeds[0].coeffs, seeds[2].coeffs]))
    assert all(len(c) <= 2 for c in stepped)
    assert [r.getMessage() for r in caplog.records if r.levelname == "DEBUG"] == [
        "seed 1 mirrors seed 0; its Newton run is not repeated",
        "seed 3 mirrors seed 2; its Newton run is not repeated"]
    _assert_same_equilibria(got, rd.find_equilibria(replace(desk_field, odd=False), basis32,
                                                    desk_split, desk_problem, seeds))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("spec", ["arctan(40)", "scaled-arctan(40,0.5)", "-arctan(40)"])
def test_odd_field_search_matches_the_full_search(spec, m, monkeypatch, caplog):
    # +- pairs of the connect stage's seeds, of the origin's directions, of
    # far seeds and of the origin itself, with the default iteration cap and
    # a cap of 3: the odd path finds the same equilibria, value for value,
    # and logs the same warnings as the search that steps every seed
    from resodyn import connections
    basis = rd.build_basis(rd.Domain1D(length=1.0, quad_nodes=80), 32)
    cfg = rd.ProblemConfig(m=m, l=1, lam=(float(basis.mu[0]),) * m, sigma=(0.0,) * m)
    split = rd.classify(basis, cfg)
    odd = rd.make_field(spec, m)
    assert odd.odd
    rng = np.random.default_rng(m)
    states = [0.05 * rng.normal(size=(m, 32)) / np.sqrt(m * 32) for _ in range(3)]
    for origin in rd.find_equilibria(odd, basis, split, cfg, []):
        states += [0.05 * d.coeffs for _, d in origin.unstable]
    far = np.zeros((m, 32))
    far[0, 0] = 30.0
    states += [far, np.zeros((m, 32))]
    seeds = [rd.GalerkinState(sign * c) for c in states for sign in (1, -1)]
    seeds.insert(3, seeds[0])  # a repeated seed is stepped again, not mirrored
    caplog.set_level("WARNING", logger="resodyn.connections")
    for cap in (connections.NEWTON_MAX_ITER, 3):
        monkeypatch.setattr(connections, "NEWTON_MAX_ITER", cap)
        want = rd.find_equilibria(replace(odd, odd=False), basis, split, cfg, seeds)
        expected = _warnings(caplog)
        got = rd.find_equilibria(odd, basis, split, cfg, seeds)
        assert _warnings(caplog) == expected
        _assert_same_equilibria(got, want)
        if cap == 3:
            assert expected


@pytest.mark.parametrize("quad_nodes", [80, 81])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("S", [1, 3])
@pytest.mark.parametrize("spec", ["arctan(40)", "u'-reading"])
def test_stacked_fd_jacobian_matches_per_state_calls(spec, S, m, quad_nodes):
    from resodyn.connections import _fd_jacobian
    basis = rd.build_basis(rd.Domain1D(length=1.0, quad_nodes=quad_nodes), 32)
    cfg = rd.ProblemConfig(m=m, l=1, lam=(float(basis.mu[0]),) * m, sigma=(0.0,) * m)
    field = _newton_field(spec, m)
    c = 0.1 * np.random.default_rng(S * 10 + m).normal(size=(S, m, 32))
    c[0, 0, 0] = 3.0  # a coefficient above 1 scales its step
    stacked = _fd_jacobian(field, basis, cfg, c)
    assert stacked.shape == (S, m * 32, m * 32)
    for state, jac in zip(c, stacked):
        assert np.array_equal(jac, _fd_jacobian(field, basis, cfg, state))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("J, quad_nodes", [(16, 48), (16, 49), (20, 56), (32, 80), (32, 81)])
@pytest.mark.parametrize("spec", ["arctan(40)", "u'-reading"])
def test_linearization_matches_block_loop(spec, J, quad_nodes, m):
    # the oracle projects each (k, kp) block on its own and copies it in
    from resodyn.connections import _u_jacobian, diag_A
    basis = rd.build_basis(rd.Domain1D(length=1.0, quad_nodes=quad_nodes), J)
    cfg = rd.ProblemConfig(m=m, l=1, lam=(float(basis.mu[0]),) * m, sigma=(0.0,) * m)
    field = _newton_field(spec, m)
    for c in 0.3 * np.random.default_rng(J * 10 + m).normal(size=(3, m, J)):
        dU = basis.dvalues(c) if field.reads_du else None
        gprime = _u_jacobian(field, basis.x, basis.values(c), dU)
        K = np.zeros((m * J, m * J))
        for k in range(m):
            for kp in range(m):
                block = basis.project(gprime[k, kp][None, :] * basis.phi)
                K[k * J:(k + 1) * J, kp * J:(kp + 1) * J] = block
        loop = np.diag(diag_A(basis, cfg).ravel()) - 0.5 * (K + K.T)
        assert np.array_equal(rd.discrete_linearization(field, basis, cfg, rd.GalerkinState(c)),
                              loop)


@pytest.mark.parametrize("m, J, quad_nodes, group", [(2, 32, 80, 1), (1, 16, 48, 10),
                                                     (1, 32, 80, 3)])
def test_newton_jacobian_groups_stay_under_the_byte_bound(m, J, quad_nodes, group,
                                                          monkeypatch):
    # twelve live seeds: the first iteration's groups are full, and a group's
    # nodal array passes FD_STACK_BYTES only when it is one seed
    from resodyn import connections
    basis = rd.build_basis(rd.Domain1D(length=1.0, quad_nodes=quad_nodes), J)
    cfg = rd.ProblemConfig(m=m, l=1, lam=(float(basis.mu[0]),) * m, sigma=(0.0,) * m)
    split = rd.classify(basis, cfg)
    rng = np.random.default_rng(J + m)
    seeds = [rd.GalerkinState(0.05 * rng.normal(size=(m, J))) for _ in range(12)]
    groups, nodal = [], []
    jacobian, evaluate = connections._fd_jacobian, connections.galerkin_F

    def fd_jacobian(field, basis, config, c):
        groups.append(len(c))
        return jacobian(field, basis, config, c)

    def galerkin_F(field, basis, u):
        if u.coeffs.shape[1] == 2 * m * J:
            nodal.append(u.coeffs.shape[0] * 2 * m * J * m * basis.x.size * 8)
        return evaluate(field, basis, u)

    monkeypatch.setattr(connections, "_fd_jacobian", fd_jacobian)
    monkeypatch.setattr(connections, "galerkin_F", galerkin_F)
    monkeypatch.setattr(connections, "NEWTON_MAX_ITER", 2)
    rd.find_equilibria(rd.make_field("arctan(40)", m), basis, split, cfg, seeds)
    first = [group] * (12 // group) + ([12 % group] if 12 % group else [])
    assert groups[:len(first)] == first
    assert max(groups) == group and len(nodal) == len(groups)
    assert all(g == 1 or b <= connections.FD_STACK_BYTES for g, b in zip(groups, nodal))
    assert (group == 1) == (2 * m * J * m * quad_nodes * 8 > connections.FD_STACK_BYTES)


def test_known_equilibria_lead_and_are_not_derived_again(basis32, desk_problem, desk_split,
                                                        desk_field, monkeypatch):
    # on the field not declared odd, so that each of the +- pair is linearized
    from resodyn import connections
    desk_field = replace(desk_field, odd=False)
    seeds = [rd.GalerkinState.unit(1, 32, 1, 2, a) for a in (0.05, -0.05)]
    known = rd.find_equilibria(desk_field, basis32, desk_split, desk_problem, [])
    plain = rd.find_equilibria(desk_field, basis32, desk_split, desk_problem, seeds)
    linearized, evaluated = [], []
    linearize, evaluate = connections.discrete_linearization, connections.galerkin_F
    monkeypatch.setattr(connections, "discrete_linearization",
                        lambda *args: linearized.append(args[-1]) or linearize(*args))
    monkeypatch.setattr(connections, "galerkin_F",
                        lambda *args: evaluated.append(args[-1].coeffs.shape) or evaluate(*args))
    handed = rd.find_equilibria(desk_field, basis32, desk_split, desk_problem, seeds,
                                known=known)
    assert handed[0] is known[0] and known[0].is_origin
    _assert_same_equilibria(handed, plain)
    assert len(linearized) == len(plain) - 1 and all(np.any(s.coeffs) for s in linearized)
    assert (1, 32) not in evaluated  # the origin's residual is not evaluated again


def test_odd_field_linearizes_one_of_each_mirror_pair(basis32, desk_problem, desk_split,
                                                     desk_field, monkeypatch,
                                                     assert_stored_spectrum):
    # the +- pair of the odd field: the second root is the exact negation of
    # the first and shares its linearization and unstable pairs, which are
    # bit for bit those of its own linearization
    from resodyn import connections
    seeds = [rd.GalerkinState.unit(1, 32, 1, 2, a) for a in (0.05, -0.05)]
    known = rd.find_equilibria(desk_field, basis32, desk_split, desk_problem, [])
    linearized = []
    linearize = connections.discrete_linearization
    monkeypatch.setattr(connections, "discrete_linearization",
                        lambda *args: linearized.append(args[-1]) or linearize(*args))
    handed = rd.find_equilibria(desk_field, basis32, desk_split, desk_problem, seeds,
                                known=known)
    monkeypatch.undo()
    origin, plus, minus = handed
    assert origin is known[0] and np.array_equal(minus.state.coeffs, -plus.state.coeffs)
    assert linearized == [plus.state]
    assert minus.linearization is plus.linearization and minus.unstable is plus.unstable
    for eq in handed:
        assert_stored_spectrum(desk_field, basis32, desk_problem, eq)
    _assert_same_equilibria(handed, rd.find_equilibria(replace(desk_field, odd=False), basis32,
                                                       desk_split, desk_problem, seeds,
                                                       known=known))


def test_wrong_seed_shape_raises_before_any_newton_step(basis32, desk_problem, desk_split,
                                                        desk_field, monkeypatch):
    from resodyn import connections
    calls = []
    monkeypatch.setattr(connections, "galerkin_F", lambda *args: calls.append(args))
    good = rd.GalerkinState.unit(1, 32, 1, 2, 0.05)
    for bad in (rd.GalerkinState.zeros(2, 32), rd.GalerkinState.zeros(1, 31)):
        with pytest.raises(ConfigurationError, match="seed shape"):
            rd.find_equilibria(desk_field, basis32, desk_split, desk_problem, [good, bad])
    assert calls == []


def test_newton_discards_points_at_infinity(caplog):
    # scaled-arctan decays along the resonant kernel mode phi_1, so far out
    # along it the residual falls below NEWTON_TOL: from these seeds Newton
    # walked out to |u| ~ 1e21 and accepted a "root" of Morse index 0 there
    basis = rd.build_basis(rd.Domain1D(length=1.0, quad_nodes=80), 32)
    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis.mu[0]),), sigma=(0.0,))
    seeds = [rd.GalerkinState.unit(1, 32, 1, 1, a) for a in (3.0, 10.0, 30.0)]
    caplog.set_level("WARNING", logger="resodyn.connections")
    found = rd.find_equilibria(rd.make_field("scaled-arctan(40,0.5)", 1), basis,
                               rd.classify(basis, cfg), cfg, seeds)
    assert [eq.is_origin for eq in found] == [True]
    warned = _warnings(caplog)
    assert [w.split(" (")[0] for w in warned] == [
        f"Newton from seed {i} passed the divergence bound 1e+08" for i in range(3)]
    assert all(float(w.split("|u| = ")[1].split(")")[0]) > 1e8 for w in warned)


def _affine_field(m):
    # F(u) = 2 u + 1: the residual is affine, so one Newton step lands at the
    # root up to the rounding of the finite-difference Jacobian
    return rd.NonlinearField(name="2u+1", m=m, eval=lambda x, U, dU: 2.0 * U + 1.0,
                             sigma=np.zeros(m), f_plus=None, f_minus=None, reads_du=False)


@pytest.mark.parametrize("cap", [1, 2])
def test_seed_converging_on_its_last_permitted_step_is_kept(basis32, monkeypatch, caplog, cap):
    from resodyn import connections
    cfg = rd.ProblemConfig(m=1, l=1, lam=(0.0,), sigma=(0.0,))
    split = rd.classify(basis32, cfg)
    field = _affine_field(1)
    root = next(eq for eq in rd.find_equilibria(field, basis32, split, cfg,
                                                [rd.GalerkinState.zeros(1, 32)])
                if not eq.is_origin)
    # one step from near the root, two from the origin, lands within NEWTON_TOL
    seed = root.state.coeffs + 1e-6 if cap == 1 else np.zeros((1, 32))
    monkeypatch.setattr(connections, "NEWTON_MAX_ITER", cap)
    calls = []
    jacobian = connections._fd_jacobian
    monkeypatch.setattr(connections, "_fd_jacobian",
                        lambda *args: calls.append(1) or jacobian(*args))
    caplog.set_level("WARNING", logger="resodyn.connections")
    (eq,) = rd.find_equilibria(field, basis32, split, cfg, [rd.GalerkinState(seed)])
    assert len(calls) == cap and _warnings(caplog) == []
    assert eq.residual <= connections.NEWTON_TOL and not eq.is_origin
    assert np.sqrt(np.sum((eq.state.coeffs - root.state.coeffs) ** 2)) <= 1e-12


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


# -- lazy settling against the per-step rule -----------------------------------

def _per_step_shots(field, basis, split, cfg, source, directions, eps, settings, equilibria):
    """``shoot_connection`` for a list of shots with the settle rule it had
    before settling went lazy: every step's distances to every target,
    evaluated on the step.  The oracle of the lazy rule."""
    from resodyn.connections import (DIRECTION_TOL, DWELL, MORSE_TOL, SETTLE_TOL,
                                     ConnectionRecord, ShootMiss, liapunov_energy)
    L = source.linearization
    results = [None] * len(directions)
    shots = []
    for i, d in enumerate(directions):
        flat = d.coeffs.ravel()
        theta = float(flat @ (L @ flat))
        eig_residual = float(np.sqrt(np.sum((L @ flat - theta * flat) ** 2)))
        if theta >= -MORSE_TOL or eig_residual > max(DIRECTION_TOL, DIRECTION_TOL * abs(theta)):
            results[i] = ShootMiss(reason="not-unstable", closest_distance=float("inf"),
                                   closest_target=None, trajectory=None)
        else:
            shots.append(i)
    B = len(shots)
    candidates = np.array([
        i for i, eq in enumerate(equilibria)
        if not np.sqrt(np.sum((eq.state.coeffs - source.state.coeffs) ** 2)) <= SETTLE_TOL],
        dtype=int)
    goals = np.stack([equilibria[i].state.coeffs for i in candidates]) if candidates.size else None
    closest, closest_target = np.full(B, np.inf), np.full(B, -1)
    inside_target, inside_since = np.full(B, -1), np.zeros(B)
    settled_target, settled_distance = np.full(B, -1), np.zeros(B)

    def settle(t, c, members):
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

    starts = [rd.GalerkinState(source.state.coeffs + eps[i] * directions[i].coeffs)
              for i in shots]
    trajectories = rd.integrate_ensemble(field, basis, split, cfg, np.ones(B), starts,
                                         settings, None if goals is None else settle)
    for b, (i, traj) in enumerate(zip(shots, trajectories)):
        if settled_target[b] >= 0:
            energies = None
            if field.potential is not None:
                energies = np.asarray([liapunov_energy(field, basis, cfg, rd.GalerkinState(c))
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
    return results


def _assert_identical_shot(lazy, oracle):
    assert type(lazy) is type(oracle)
    if isinstance(oracle, rd.ShootMiss):
        assert lazy.reason == oracle.reason
        assert lazy.closest_target == oracle.closest_target
        assert np.array_equal(lazy.closest_distance, oracle.closest_distance)
        if oracle.trajectory is None:
            assert lazy.trajectory is None
            return
    else:
        assert lazy.source is oracle.source and lazy.target is oracle.target
        assert np.array_equal(lazy.terminal_distance, oracle.terminal_distance)
        if oracle.energy_profile is None:
            assert lazy.energy_profile is None
        else:
            assert np.array_equal(lazy.energy_profile, oracle.energy_profile)
    a, b = lazy.trajectory, oracle.trajectory
    assert a.s == b.s and a.diverged == b.diverged
    for name in ("times", "coeffs", "norms"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def _fake_equilibrium(c, linearization=None):
    # shoot_connection reads a source's state and linearization and a
    # target's state only
    from resodyn.connections import Equilibrium
    return Equilibrium(state=rd.GalerkinState(c), residual=0.0, is_origin=False,
                       linearization=linearization, unstable=())


def _desk_case(dt=1e-2, T=4.0, **settings):
    basis = rd.build_basis(rd.Domain1D(length=1.0, quad_nodes=80), 32)
    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis.mu[0]),), sigma=(0.0,))
    split = rd.classify(basis, cfg)
    field = rd.make_field("arctan(40)", 1)
    equilibria = rd.find_equilibria(field, basis, split, cfg,
                                    [rd.GalerkinState.unit(1, 32, 1, 2, 0.05),
                                     rd.GalerkinState.unit(1, 32, 1, 2, -0.05)])
    origin = next(eq for eq in equilibria if eq.is_origin)
    (_, kernel), (_, second) = rd.unstable_directions(field, basis, cfg, origin)
    return (field, basis, split, cfg, origin, [kernel, second, kernel, second],
            [1e-3, 1e-3, -1e-3, -1e-3], rd.IntegratorSettings(dt=dt, T=T, **settings),
            equilibria)


def _two_component_case():
    basis = rd.build_basis(rd.Domain1D(1.0, 48), 16)
    cfg = rd.ProblemConfig(m=2, l=1, lam=(float(basis.mu[0]),) * 2, sigma=(0.0, 0.0))
    split = rd.classify(basis, cfg)
    field = rd.make_field("arctan(40)", 2)
    origin, = rd.find_equilibria(field, basis, split, cfg, [])
    dirs = [d for _, d in rd.unstable_directions(field, basis, cfg, origin)]
    equilibria = rd.find_equilibria(field, basis, split, cfg,
                                    [rd.GalerkinState(sign * 0.05 * d.coeffs)
                                     for d in dirs for sign in (1, -1)])
    return (field, basis, split, cfg, origin, [d for d in dirs for _ in range(2)],
            [1e-3, -1e-3] * len(dirs), rd.IntegratorSettings(dt=1e-2, T=4.0, store_every=10),
            equilibria)


# a shot spiralling into the origin of the (c_{1,1}, c_{2,1}) plane, where
# the target P sits 4e-5 off centre: its stints in P's ball grow by about
# 0.3 per turn, and one lasts 0.99, one step short of DWELL
_SPIRAL_START, _SPIRAL_P = 1.4e-4, 4e-5


def _spiral_case():
    basis = rd.build_basis(rd.Domain1D(1.0, 32), 8)
    cfg = rd.ProblemConfig(m=2, l=1, lam=(float(basis.mu[0]),) * 2, sigma=(0.0, 0.0))
    split = rd.classify(basis, cfg)

    def damped_rotation(x, U, dU):
        out = np.empty_like(U)
        out[..., 0, :] = 2.0 * U[..., 1, :]
        out[..., 1, :] = -2.0 * U[..., 0, :] - 0.1 * U[..., 1, :]
        return out

    field = rd.NonlinearField(name="damped-rotation", m=2, eval=damped_rotation,
                              sigma=np.zeros(2), f_plus=None, f_minus=None, reads_du=False)
    start = np.zeros((2, 8))
    start[0, 0] = _SPIRAL_START
    d1, d2 = np.zeros((2, 8)), np.zeros((2, 8))
    d1[0, 1] = d2[1, 0] = 1.0
    # every unit state is an unstable direction of -I; the second shot starts
    # on the plane, a little off the first one's path, and settles first
    source = _fake_equilibrium(start - d1, linearization=-np.eye(16))
    p, far = np.zeros((2, 8)), np.zeros((2, 8))
    p[0, 0], far[1, 0] = _SPIRAL_P, 0.5
    equilibria = [source, _fake_equilibrium(p), _fake_equilibrium(far)]
    return (field, basis, split, cfg, source, [rd.GalerkinState(d1), rd.GalerkinState(d2)],
            [1.0, -5e-5], rd.IntegratorSettings(dt=1e-2, T=12.0, store_every=1), equilibria)


_LAZY_CASES = {
    "desk": _desk_case,
    "two-component": _two_component_case,
    "spiral": _spiral_case,
    "divergent-row": lambda: _desk_case(divergence_threshold=1.0),
    # the horizon ends while the pair shots close in, before they can settle
    "short-horizon": lambda: _desk_case(T=1.5, store_every=1),
    "dt=0.03": lambda: _desk_case(dt=0.03, T=4.2),
    "dt=0.007": lambda: _desk_case(dt=0.007, T=4.2, store_every=3),
}


@pytest.mark.parametrize("stack_bytes", [None, 0, 2 ** 62],
                         ids=["default-windows", "one-step-windows", "unbounded-windows"])
@pytest.mark.parametrize("case", list(_LAZY_CASES))
def test_lazy_settle_matches_per_step_settle(case, stack_bytes, monkeypatch):
    from resodyn import connections
    args = _LAZY_CASES[case]()
    if stack_bytes is not None:
        monkeypatch.setattr(connections, "FD_STACK_BYTES", stack_bytes)
    lazy = rd.shoot_connection(*args)
    oracle = _per_step_shots(*args)
    assert len(lazy) == len(oracle)
    for a, b in zip(lazy, oracle):
        _assert_identical_shot(a, b)
    kinds = [type(r).__name__ for r in oracle]
    if case == "divergent-row":
        assert [r.reason for r in oracle if isinstance(r, rd.ShootMiss)] == ["divergent"] * 2
    if case == "short-horizon":
        assert [r.reason for r in oracle] == ["horizon"] * 4
    if case not in ("spiral", "short-horizon"):
        assert {"ShootMiss", "ConnectionRecord"} <= set(kinds)
    if case != "spiral":
        return
    # the first shot leaves P's ball one step short of DWELL, comes back and
    # settles there, after the second shot: stints are counted on its
    # recorded steps (store_every = 1)
    settings, equilibria = args[7], args[8]
    record = oracle[0]
    assert kinds == ["ConnectionRecord"] * 2 and record.target is equilibria[1]
    assert oracle[1].trajectory.times[-1] < record.trajectory.times[-1]
    traj = record.trajectory
    dists = np.sqrt(((traj.coeffs - equilibria[1].state.coeffs) ** 2).sum(axis=(1, 2)))
    inside = np.flatnonzero(dists <= connections.SETTLE_TOL)
    runs = np.split(inside, np.flatnonzero(np.diff(inside) > 1) + 1)
    lengths = [traj.times[r[-1]] - traj.times[r[0]] for r in runs if r[0] > 0]
    assert any(connections.DWELL - 2 * settings.dt < x < connections.DWELL
               for x in lengths[:-1])
    assert traj.times[-1] < settings.T


def test_lazy_settle_without_marching_shots(basis32, desk_problem, desk_split, desk_field,
                                            desk_equilibria):
    # B = 0: no direction is unstable, so nothing marches and settle never runs
    origin = next(eq for eq in desk_equilibria if eq.is_origin)
    stable = rd.GalerkinState.unit(1, 32, 1, 3)
    args = (desk_field, basis32, desk_split, desk_problem, origin, [stable, stable],
            [1e-3, -1e-3], rd.IntegratorSettings(dt=1e-2, T=1.0), desk_equilibria)
    lazy = rd.shoot_connection(*args)
    for a, b in zip(lazy, _per_step_shots(*args)):
        _assert_identical_shot(a, b)
    assert [r.reason for r in lazy] == ["not-unstable"] * 2
    single = rd.shoot_connection(*args[:5], stable, 1e-3, *args[7:])
    assert single.reason == "not-unstable" and single.trajectory is None


# -- retiring proven misses ---------------------------------------------------

def _assert_retired_match(args):
    """Shoots with retirement and to the horizon, every step recorded: the
    same reports, the same connections, and each retired miss's trajectory
    bit for bit the start of its march to the horizon.  Returns both."""
    from dataclasses import replace
    args = list(args)
    args[7] = replace(args[7], store_every=1)
    horizon = rd.shoot_connection(*args)
    retired = rd.shoot_connection(*args, retire_misses=True)
    for a, b in zip(retired, horizon, strict=True):
        assert type(a) is type(b) and a.to_dict() == b.to_dict()
        if isinstance(b, rd.ConnectionRecord):
            _assert_identical_shot(a, b)
        elif b.trajectory is not None:
            assert a.trajectory.diverged == b.trajectory.diverged
            n = a.trajectory.times.size
            for name in ("times", "coeffs", "norms"):
                assert np.array_equal(getattr(a.trajectory, name),
                                      getattr(b.trajectory, name)[:n])
    return horizon, retired


def _ends(shots):
    return [float(r.trajectory.times[-1]) for r in shots if isinstance(r, rd.ShootMiss)]


def _imex_case():
    basis = rd.build_basis(rd.Domain1D(1.0, 28), 6)
    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis.mu[0]),), sigma=(0.0,))
    split = rd.classify(basis, cfg)
    field = rd.make_field("arctan(40)", 1)
    equilibria = rd.find_equilibria(field, basis, split, cfg,
                                    [rd.GalerkinState.unit(1, 6, 1, 2, 0.05),
                                     rd.GalerkinState.unit(1, 6, 1, 2, -0.05)])
    origin = next(eq for eq in equilibria if eq.is_origin)
    dirs = [d for _, d in rd.unstable_directions(field, basis, cfg, origin)]
    return (field, basis, split, cfg, origin, [d for d in dirs for _ in range(2)],
            [1e-3, -1e-3] * len(dirs),
            rd.IntegratorSettings(dt=7e-4, T=2.1, scheme="IMEX-Euler"), equilibria)


def _growing_case():
    # component 2 resonates at mu_2, so its first mode grows (E > 1)
    basis = rd.build_basis(rd.Domain1D(1.0, 48), 16)
    cfg = rd.ProblemConfig(m=2, l=1, lam=(float(basis.mu[0]), float(basis.mu[1])),
                           sigma=(0.0, 0.0))
    split = rd.classify(basis, cfg)
    field = rd.make_field("arctan(40)", 2)
    origin, = rd.find_equilibria(field, basis, split, cfg, [])
    dirs = [d for _, d in rd.unstable_directions(field, basis, cfg, origin)][:3]
    equilibria = rd.find_equilibria(field, basis, split, cfg,
                                    [rd.GalerkinState(sign * 0.05 * d.coeffs)
                                     for d in dirs for sign in (1, -1)], known=[origin])
    return (field, basis, split, cfg, origin, [d for d in dirs for _ in range(2)],
            [1e-3, -1e-3] * len(dirs), rd.IntegratorSettings(dt=1e-2, T=4.0), equilibria)


def _bounded_spiral_case():
    # the spiral through P's ball, with a bounded field (|f| <= 2.1): the shot
    # leaves the ball and comes back to settle
    args = list(_spiral_case())

    def bounded_rotation(x, U, dU):
        out = np.empty_like(U)
        out[..., 0, :] = 2.0 * np.tanh(U[..., 1, :])
        out[..., 1, :] = -2.0 * np.tanh(U[..., 0, :]) - 0.1 * np.tanh(U[..., 1, :])
        return out

    args[0] = rd.NonlinearField(name="bounded-rotation", m=2, eval=bounded_rotation,
                                sigma=np.zeros(2), f_plus=None, f_minus=None, bound_C3=2.1,
                                reads_du=False)
    return args


def _without_C3():
    from dataclasses import replace
    args = list(_desk_case())
    args[0] = replace(args[0], bound_C3=None)
    return args


def _lone_row_case():
    # the kernel miss is proven at t = 1.52, before the pair shot settles
    # (1.81); stopping it alone would leave the pair shot as a stack of one
    args = list(_desk_case(T=2.0))
    args[5], args[6] = args[5][:2], args[6][:2]
    return args


# name: (case, whether the misses retire before the horizon)
_RETIRE_CASES = {
    "desk": (_desk_case, True),
    "two-component": (_two_component_case, True),
    "IMEX-Euler": (_imex_case, True),
    "dt=0.03": (lambda: _desk_case(dt=0.03, T=4.2), True),
    "dt=0.007": (lambda: _desk_case(dt=0.007, T=4.2), True),
    "lone-row": (_lone_row_case, True),
    "no-C3": (_without_C3, False),
    "growing-mode": (_growing_case, False),
    "wander-and-settle": (_bounded_spiral_case, False),
    # the kernel shots pass the threshold at t = 2.99, after the distance
    # bound holds (t = 2.09): they must still diverge
    "divergent": (lambda: _desk_case(divergence_threshold=4.0), False),
}


@pytest.mark.parametrize("case", list(_RETIRE_CASES))
def test_retired_misses_match_the_march_to_the_horizon(case):
    make, retires = _RETIRE_CASES[case]
    args = make()
    horizon, retired = _assert_retired_match(args)
    T = args[7].T
    kinds = [type(r).__name__ for r in horizon]
    if retires:
        assert all(end < T - 1e-9 for end in _ends(retired))
        # every shot still marching stops at one step
        assert len(set(_ends(retired))) == 1
    else:
        assert _ends(retired) == _ends(horizon)
    if case == "divergent":
        assert [r.reason for r in horizon if isinstance(r, rd.ShootMiss)] == ["divergent"] * 2
    if case == "wander-and-settle":
        # the first shot is in P's ball, out of it and back before it settles
        from resodyn.connections import SETTLE_TOL
        assert kinds == ["ConnectionRecord"] * 2
        traj, target = retired[0].trajectory, args[8][1].state.coeffs
        inside = np.sqrt(((traj.coeffs - target) ** 2).sum(axis=(1, 2))) <= SETTLE_TOL
        assert np.count_nonzero(np.diff(inside.astype(int)) == 1) >= 2
    if case == "lone-row":
        # the miss stops with the pair shot's settling step, not on its own
        assert kinds == ["ShootMiss", "ConnectionRecord"]
        assert retired[0].trajectory.times[-1] == retired[1].trajectory.times[-1]


def test_kernel_drift_bound_of_the_desk_case():
    from dataclasses import replace
    from resodyn.connections import _kernel_drift
    field, basis, split, cfg, *_, settings, _ = _desk_case()
    exact, K, growth = _kernel_drift(field, basis, cfg, settings)
    assert np.array_equal(exact, split.masks["Q0"])
    # K = pi/2 sum_i w_i |phi_1(x_i)| = sqrt(2) up to the quadrature
    assert abs(K - math.sqrt(2.0)) < 1e-3
    assert growth >= settings.dt * K
    assert _kernel_drift(replace(field, bound_C3=None), basis, cfg, settings) is None
    growing = rd.ProblemConfig(m=1, l=1, lam=(float(basis.mu[1]),), sigma=(0.0,))
    assert _kernel_drift(field, basis, growing, settings) is None
    off = rd.ProblemConfig(m=1, l=1, lam=(float(basis.mu[0]) - 1.0,), sigma=(0.0,))
    assert _kernel_drift(field, basis, off, settings) is None  # no exact kernel mode


def test_drift_floor_slack():
    from resodyn.connections import _drift_floor
    from resodyn.semiflow import MAX_STEPS
    eps = np.finfo(float).eps
    dist, norm = np.array([[1.0, 3.0]]), np.array([2.0])
    # no step left: the distance less the rounding of the distance itself
    assert (_drift_floor(dist, norm, 0, 0.5, 100) < dist).all()
    for steps in (1, 1000, MAX_STEPS):
        floor = _drift_floor(dist, norm, steps, 1e-9, 100)
        far = steps * 1e-9
        assert (floor < dist - far).all()
        # k kernel updates round by up to half an ulp of the kernel norm each
        assert (floor <= dist - far - steps * eps / 2 * (norm + far)).all()
    # at MAX_STEPS that is 1.1e-9 of the norm: a relative 1e-9 is not enough
    assert (_drift_floor(dist, norm, MAX_STEPS, 0.0, 100) < dist - 1e-9 * (dist + norm)).all()


def test_proven_needs_a_floor_above_closest_and_the_settle_tolerance():
    from resodyn.connections import SETTLE_TOL, _proven
    closest = np.array([0.5, 0.5, SETTLE_TOL / 2, 0.5])
    floor = np.array([[0.6, 0.7], [0.5, 0.7], [SETTLE_TOL, 1.0], [0.7, 0.4]])
    assert _proven(floor, closest).tolist() == [True, False, False, False]
    assert _proven(np.nextafter(floor, np.inf)[2:3], closest[2:3]).tolist() == [True]


@pytest.mark.parametrize("directions, eps", [("list", 1e-3), ("one", [1e-3]),
                                             ("one", (1e-3, -1e-3)), ("one", math.nan),
                                             ("list", [1e-3, math.inf]), ("one", 0.0),
                                             ("list", [1e-3, 0.0]), ("one", "small")])
def test_shoot_connection_rejects_bad_eps(basis32, desk_problem, desk_split, desk_field,
                                          desk_equilibria, directions, eps):
    origin = next(eq for eq in desk_equilibria if eq.is_origin)
    _, kernel = origin.unstable[0]
    direction = [kernel, kernel] if directions == "list" else kernel
    with pytest.raises(ConfigurationError, match="eps"):
        rd.shoot_connection(desk_field, basis32, desk_split, desk_problem, origin, direction,
                            eps, rd.IntegratorSettings(dt=1e-2, T=0.1), desk_equilibria)
