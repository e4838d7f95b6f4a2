"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; expected values come from analytic
oracles or independent brute-force computations inside each test.
"""

import math
import time

import numpy as np
import pytest

import resodyn as rd
from resodyn.semiflow import trajectory_norms

SQRT2 = math.sqrt(2.0)


def _ok(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


# -- 1 -----------------------------------------------------------------------

def test_criterion_01_spectrum_exactness():
    tic = time.monotonic()
    basis = rd.build_basis(rd.Domain1D(1.0, 80), 32)
    for j in range(1, 33):
        assert abs(basis.mu[j - 1] - (j * math.pi) ** 2) <= 1e-12
    assert np.abs(basis.gram() - np.eye(32)).max() <= 1e-10
    elapsed = time.monotonic() - tic
    assert elapsed < 1.0
    _ok(1, f"spectrum exactness ({elapsed:.3f}s)")


# -- 2 -----------------------------------------------------------------------

def test_criterion_02_negative_count_matches_bruteforce():
    basis = rd.build_basis(rd.Domain1D(1.0, 80), 32)
    rng = np.random.default_rng(2)
    for trial in range(10):
        m = int(rng.integers(1, 4))
        lam = []
        for _ in range(m):
            j = int(rng.integers(1, 30))
            if rng.uniform() < 0.5:
                lam.append(float(basis.mu[j - 1]))  # on an eigenvalue
            else:
                lam.append(float(0.5 * (basis.mu[j - 1] + basis.mu[j])))  # between
        cfg = rd.ProblemConfig(m=m, l=max(1, m - 1), lam=tuple(lam),
                               sigma=tuple([0.0] * m))
        split = rd.classify(basis, cfg)
        # independent scan: recompute the analytic spectrum from scratch
        brute = 0
        for lk in lam:
            brute += sum(1 for j in range(1, 33)
                         if (j * math.pi) ** 2 < lk - 1e-9 * max(1.0, abs(lk)))
        assert len(split.minus_modes) == brute
    _ok(2, "dim X- equals per-component below-shift count (10 random configs)")


# -- 3 -----------------------------------------------------------------------

def test_criterion_03_kernel_identity_exact():
    basis = rd.build_basis(rd.Domain1D(1.0, 80), 32)
    cfg = rd.ProblemConfig(m=2, l=1, lam=(float(basis.mu[0]), float(basis.mu[3])),
                           sigma=(0.0, 0.0))
    amp1, amp2 = 0.731, -1.25
    c = np.zeros((2, 32))
    c[0, 0] = amp1   # kernel mode of component 1
    c[1, 3] = amp2   # kernel mode of component 2
    u = rd.GalerkinState(c)
    for t in (0.1, 1.0, 10.0):
        out = rd.semigroup_apply(basis, cfg, t, u)
        assert out.coeffs[0, 0] == amp1
        assert out.coeffs[1, 3] == amp2
    _ok(3, "kernel modes exactly invariant under the semigroup")


# -- 4 -----------------------------------------------------------------------

def test_criterion_04_resonance_functional_values():
    basis = rd.build_basis(rd.Domain1D(1.0, 80), 32)
    field = rd.make_field("arctan(1)", 1)
    for mode in (1, 2):
        cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis.mu[mode - 1]),), sigma=(0.0,))
        split = rd.classify(basis, cfg)
        value = rd.ll_functional(field, basis, split, cfg, 1, [1.0])
        assert value == pytest.approx(SQRT2, abs=1e-8)
    _ok(4, "kernel-weighted functional equals sqrt(2) for both shifts")


# -- 5 -----------------------------------------------------------------------

def test_criterion_05_index_formula_table():
    rows = [
        ((0, 1, 0), "+", "+", 1), ((0, 1, 0), "-", "-", 0),
        ((0, 1, 0), "+", "-", 1), ((0, 1, 0), "-", "+", 0),
        ((1, 1, 1), "+", "+", 3), ((1, 1, 1), "-", "-", 1),
        ((2, 1, 3), "+", "-", 3), ((2, 1, 3), "-", "+", 5),
        ((4, 2, 2), "+", "+", 8), ((4, 2, 2), "-", "-", 4),
        ((3, 0, 5), "+", "-", 3), ((0, 2, 1), "-", "+", 1),
    ]
    assert len(rows) == 12
    for (d_inf, n1, n2), s1, s2, expected in rows:
        cv = rd.CountVector(d_inf, n1, n2)
        h, tag = rd.index_K_infinity(cv, s1, s2)
        assert h == rd.HomotopyType.sphere(expected), (cv, s1, s2)
        assert tag != "none"
        # the two-block partition formula must agree exactly
        alt = rd.index_partition(d_inf, [n1, n2], [(1,), (2,)], [s1, s2])
        assert alt == h
    _ok(5, "12-row index table matches the sign-resolved exponents")


# -- 6 -----------------------------------------------------------------------

def test_criterion_06_origin_exponent_double_count():
    basis = rd.build_basis(rd.Domain1D(1.0, 80), 32)
    rng = np.random.default_rng(6)
    done = 0
    while done < 20:
        m = int(rng.integers(1, 4))
        lam = tuple(float(v) for v in rng.uniform(0.0, 60.0, size=m))
        cfg = rd.ProblemConfig(m=m, l=max(1, m // 2), lam=lam, sigma=tuple([0.0] * m))
        G = rng.normal(scale=10.0, size=(m, m))
        G = 0.5 * (G + G.T)
        lin = rd.LinearizationData.from_G(G, cfg)
        if not rd.nonresonance_at_origin(basis, lin):
            continue
        if np.any(lin.theta >= basis.mu[-1]):
            continue
        got = rd.d_zero(basis, cfg, lin)
        # independent dense oracle: negative eigenvalues of the block operator
        L = np.zeros((m * 32, m * 32))
        shifted = G + np.diag(lam)
        for i, mu_j in enumerate(basis.mu):
            L[i * m:(i + 1) * m, i * m:(i + 1) * m] = mu_j * np.eye(m) - shifted
        dense = int(np.sum(np.linalg.eigvalsh(L) < 0))
        assert got == dense
        done += 1
    _ok(6, "origin exponent equals dense negative-eigenvalue count (20 random G)")


# -- 7 -----------------------------------------------------------------------

def test_criterion_07_kernel_drift_blowup():
    basis = rd.build_basis(rd.Domain1D(1.0, 80), 32)
    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis.mu[0]),), sigma=(0.0,))
    split = rd.classify(basis, cfg)
    v0 = rd.GalerkinState.unit(1, 32, 1, 1)
    u0 = rd.GalerkinState.unit(1, 32, 1, 2, amplitude=0.5)  # some decaying content
    traj, rep = rd.blowup_demo(basis, split, cfg, v0, T=10.0, u0=u0)
    assert rep.slopes[(1, 1)] == pytest.approx(1.0, abs=1e-6)
    assert rep.qplus_alpha_final < 1e-6 * rep.qplus_alpha_initial
    bounds = rd.apriori_bounds(basis, split, cfg, C6=1.0)
    verdict = rd.check_bounded_solution(traj, bounds, R1=5.0, R2=0.0)
    assert verdict.unbounded
    _ok(7, "constant kernel forcing drifts with slope 1.0 and is flagged unbounded")


# -- 8 -----------------------------------------------------------------------

def test_criterion_08_product_flow_identity():
    basis = rd.build_basis(rd.Domain1D(1.0, 80), 32)
    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis.mu[0]),), sigma=(0.0,))
    split = rd.classify(basis, cfg)
    field = rd.make_field("arctan(40)", 1)
    c = np.zeros((1, 32))
    c[0, 0] = 0.15   # kernel
    c[0, 1] = -0.2   # positive block
    c[0, 4] = 0.05
    u0 = rd.GalerkinState(c)
    settings = rd.IntegratorSettings(dt=1e-3, T=5.0, store_every=100)
    dev = rd.product_flow_check(field, basis, split, cfg, u0, 5.0, settings)
    assert dev <= 1e-6
    _ok(8, f"s=0 flow equals the kernel x linear product (dev {dev:.2e})")


# -- desk fixtures for 9/10/11 ------------------------------------------------

@pytest.fixture(scope="module")
def desk():
    basis = rd.build_basis(rd.Domain1D(1.0, 80), 32)
    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis.mu[0]),), sigma=(0.0,))
    split = rd.classify(basis, cfg)
    field = rd.make_field("arctan(40)", 1)
    return basis, cfg, split, field


# -- 9 -----------------------------------------------------------------------

def test_criterion_09_apriori_conformance(desk):
    basis, cfg, split, field = desk
    C6 = field.bound_C3 * math.sqrt(1 * basis.domain.length)
    bounds = rd.apriori_bounds(basis, split, cfg, C6)
    seeds = [rd.GalerkinState.unit(1, 32, 1, 2, 0.05),
             rd.GalerkinState.unit(1, 32, 1, 2, -0.05)]
    eqs = rd.find_equilibria(field, basis, split, cfg, seeds)
    origin = next(eq for eq in eqs if eq.is_origin)
    dirs = rd.unstable_directions(field, basis, cfg, origin)
    settings = rd.IntegratorSettings(dt=1e-3, T=8.0, store_every=20)
    trajectories = []
    # the heteroclinic shot (bounded), the equilibrium hold (bounded), and
    # the kernel-direction shot (unbounded, excluded by its flag)
    shot = rd.shoot_connection(field, basis, split, cfg, origin, dirs[1][1],
                               1e-3, settings, eqs)
    assert isinstance(shot, rd.ConnectionRecord)
    trajectories.append(shot.trajectory)
    ustar = shot.target
    trajectories.append(rd.integrate(field, basis, split, cfg, 1.0, ustar.state,
                                     settings))
    kernel_shot = rd.shoot_connection(field, basis, split, cfg, origin, dirs[0][1],
                                      1e-3, settings, eqs)
    assert isinstance(kernel_shot, rd.ShootMiss)
    trajectories.append(kernel_shot.trajectory)
    bounded_seen = 0
    for traj in trajectories:
        rep = rd.check_bounded_solution(traj, bounds, R1=20.0, R2=0.0)
        if rep.unbounded:
            continue
        bounded_seen += 1
        assert rep.ratios["Qminus_alpha"] <= 1.0
        assert rep.ratios["Qplus_alpha"] <= 1.0
    assert bounded_seen >= 2
    _ok(9, "bounded trajectories respect the fractional radii (ratios <= 1)")


# -- 10 ----------------------------------------------------------------------

def test_criterion_10_connecting_orbit_realization(desk):
    tic = time.monotonic()
    basis, cfg, split, field = desk

    # sign condition with h = 0 and the resonance functional margin sqrt(2)
    grid = rd.SampleGrid.default(basis, 1, seed=10)
    c1 = rd.check_sign_condition(field, 1, "+", lambda x: np.zeros_like(x), grid, l=1)
    assert c1.verdict == "holds"
    ll = rd.evaluate_LL(field, basis, split, cfg, 1)["LL1+"]
    assert ll.verdict == "holds"
    assert ll.min_value == pytest.approx(SQRT2, abs=1e-8)

    # nonresonant origin with the expected shifted spectrum
    lin = rd.LinearizationData.from_field(field, cfg)
    assert lin.theta[0] == pytest.approx(math.pi ** 2 + 40.0, abs=1e-9)
    assert rd.nonresonance_at_origin(basis, lin)
    d0 = rd.d_zero(basis, cfg, lin)
    cv = rd.counts(split)
    verdict = rd.connection_verdict(cv, d0, "+", "vacuous", True)
    assert d0 == 2
    assert verdict.h_K_infinity == rd.HomotopyType.sphere(1)
    assert verdict.connection_predicted

    # nontrivial equilibrium by damped Newton
    eqs = rd.find_equilibria(field, basis, split, cfg,
                             [rd.GalerkinState.unit(1, 32, 1, 2, 0.05),
                              rd.GalerkinState.unit(1, 32, 1, 2, -0.05)])
    nontrivial = [eq for eq in eqs if not eq.is_origin]
    assert nontrivial and all(eq.residual <= 1e-10 for eq in nontrivial)

    # shooting from the origin realizes the connection
    origin = next(eq for eq in eqs if eq.is_origin)
    dirs = rd.unstable_directions(field, basis, cfg, origin)
    settings = rd.IntegratorSettings(dt=1e-3, T=10.0, store_every=20)
    records = []
    for _, direction in dirs:
        result = rd.shoot_connection(field, basis, split, cfg, origin, direction,
                                     1e-3, settings, eqs)
        if isinstance(result, rd.ConnectionRecord):
            records.append(result)
    assert records, "no shot settled on an equilibrium"
    best = records[0]
    assert best.terminal_distance <= 1e-4
    assert np.all(np.diff(best.energy_profile) <= 1e-8)
    assert best.energy_profile[-1] < best.energy_profile[0]
    elapsed = time.monotonic() - tic
    assert elapsed < 60.0
    _ok(10, f"connecting orbit realized end to end ({elapsed:.1f}s)")


# -- 11 ----------------------------------------------------------------------

def test_criterion_11_negative_control(desk):
    basis, cfg, split, _ = desk
    field = rd.make_field("arctan(1)", 1)
    ll = rd.evaluate_LL(field, basis, split, cfg, 1)["LL1+"]
    assert ll.verdict == "holds"
    lin = rd.LinearizationData.from_field(field, cfg)
    assert rd.nonresonance_at_origin(basis, lin)
    d0 = rd.d_zero(basis, cfg, lin)
    cv = rd.counts(split)
    verdict = rd.connection_verdict(cv, d0, "+", "vacuous", True)
    # hand-computed criterion: theta_1 = pi^2 + 1 sits between mu_1 and mu_2,
    # so d0 = 1, while the bounded-set exponent is d_inf + n1 = 1
    hand_d0 = sum(1 for j in range(1, 33) if (j * math.pi) ** 2 < math.pi ** 2 + 1.0)
    hand_exponent = cv.d_inf + cv.n1
    assert d0 == hand_d0 == 1
    assert verdict.h_K_infinity == rd.HomotopyType.sphere(hand_exponent)
    assert verdict.connection_predicted == (hand_d0 != hand_exponent) == False  # noqa: E712
    _ok(11, "negative control: predicted flag equals the exact integer criterion")


# -- 12 ----------------------------------------------------------------------

def _box_for(field, basis, cfg, split, sign):
    C6 = field.bound_C3 * math.sqrt(cfg.m * basis.domain.length)
    bounds = rd.apriori_bounds(basis, split, cfg, C6)
    R0 = max(bounds.R0_minus, bounds.R0_plus)
    table = rd.guiding_margin(field, basis, split, cfg, which=1, W_radius=R0,
                              R_grid=[2.0, 5.0, 10.0], samples=24, sign=sign, seed=12)
    R1 = next(R for R, margin in table.rows if margin > 0)
    R2 = 0.0
    if cfg.l < cfg.m:
        table2 = rd.guiding_margin(field, basis, split, cfg, which=2, W_radius=R0,
                                   R_grid=[2.0, 5.0, 10.0], samples=24, sign=sign,
                                   seed=13)
        R2 = next(R for R, margin in table2.rows if margin > 0)
    return rd.HomotopyBox(R0=R0, R1=R1, R2=R2)


def test_criterion_12_homotopy_box_invariance():
    # Forward invariance of the box is the all-minus, d_inf = 0 situation:
    # with plus-signed conditions the kernel boundary is an exit set, and any
    # negative-block content leaves through the unstable directions.
    basis = rd.build_basis(rd.Domain1D(1.0, 80), 32)
    systems = []
    cfg1 = rd.ProblemConfig(m=1, l=1, lam=(float(basis.mu[0]),), sigma=(0.0,))
    systems.append((rd.make_field("-arctan(40)", 1), cfg1))
    cfg2 = rd.ProblemConfig(m=2, l=1, lam=(float(basis.mu[0]), float(basis.mu[0])),
                            sigma=(0.0, 0.0))
    systems.append((rd.make_field("-arctan(40)", 2), cfg2))
    total = 0
    for field, cfg in systems:
        split = rd.classify(basis, cfg)
        assert rd.counts(split).d_inf == 0
        box = _box_for(field, basis, cfg, split, sign="-")
        states = rd.sample_states_in_box(basis, split, cfg, box, count=10,
                                         seed=120 + cfg.m)
        settings = rd.IntegratorSettings(dt=2e-3, T=10.0, store_every=50)
        for u0 in states:
            norms0 = trajectory_norms(basis, split, cfg, u0.coeffs)
            assert math.hypot(norms0[4], norms0[5]) <= box.R0 + 1.0
        s_grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        pairs = [(u0, s) for u0 in states for s in s_grid]
        trajs = rd.integrate_ensemble(field, basis, split, cfg, [s for _, s in pairs],
                                      [u0 for u0, _ in pairs], settings)
        for traj, (_, s) in zip(trajs, pairs):
            assert not traj.diverged, (cfg.m, s)
            assert box.contains(traj), (cfg.m, s)
        total += len(states)
    assert total == 20
    _ok(12, "20 seeded trajectories stay inside the product box for all s")
