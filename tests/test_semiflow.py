import math

import numpy as np
import pytest

import resodyn as rd
from resodyn.errors import ConfigurationError, DivergenceSignal, UnboundedModeError


def _zero_field(m=1):
    return rd.NonlinearField(
        name="zero", m=m, eval=lambda x, U, dU: np.zeros_like(U),
        sigma=np.zeros(m), f_plus=lambda x: np.zeros((m, x.size)),
        f_minus=lambda x: np.zeros((m, x.size)), bound_C3=0.0,
        potential=lambda x, U: np.zeros(x.size))


def test_homotopy_field_telescopes_at_s1(basis32, desk_split, desk_field, rng):
    u = rd.GalerkinState(rng.normal(size=(1, 32)))
    H = rd.homotopy_field(desk_field, basis32, desk_split, 1.0, u)
    F = rd.galerkin_F(desk_field, basis32, u)
    assert np.array_equal(H.coeffs, F.coeffs)


def test_homotopy_field_kernel_only_at_s0(basis32, desk_split, desk_field, rng):
    u = rd.GalerkinState(rng.normal(size=(1, 32)))
    H = rd.homotopy_field(desk_field, basis32, desk_split, 0.0, u)
    q0 = rd.project(desk_split, "Q0", u)
    expected = rd.project(desk_split, "Q0", rd.galerkin_F(desk_field, basis32, q0))
    assert np.allclose(H.coeffs, expected.coeffs, atol=1e-15)
    # no content outside the kernel block
    outside = rd.project(desk_split, "Qplus", H).coeffs
    assert np.all(outside == H.coeffs * rd.decomposition.mode_mask(desk_split, "Qplus"))


def test_homotopy_field_constant_kernel_forcing(basis32, desk_split, desk_problem):
    field = rd.constant_kernel_field(basis32, 1, component=1, mode=1, amplitude=0.7)
    v0 = rd.galerkin_F(field, basis32, rd.GalerkinState.zeros(1, 32))
    for s in (0.0, 0.3, 1.0):
        u = rd.GalerkinState(np.random.default_rng(1).normal(size=(1, 32)))
        H = rd.homotopy_field(field, basis32, desk_split, s, u)
        assert np.allclose(H.coeffs, v0.coeffs, atol=1e-13)


def test_integrate_pure_decay_matches_exponential(basis32, desk_problem, desk_split):
    u0 = rd.GalerkinState.unit(1, 32, 1, 2)
    settings = rd.IntegratorSettings(dt=1e-3, T=1.0, store_every=100)
    traj = rd.integrate(_zero_field(), basis32, desk_split, desk_problem, 1.0, u0, settings)
    rate = basis32.mu[1] - desk_problem.lam[0]
    exact = math.exp(-rate * 1.0)
    assert abs(traj.final.coeffs[0, 1] - exact) <= 1e-6
    assert np.all(traj.coeffs[:, 0, 0] == 0.0)


def test_integrate_kernel_mode_constant(basis32, desk_problem, desk_split):
    u0 = rd.GalerkinState.unit(1, 32, 1, 1, amplitude=0.4)
    settings = rd.IntegratorSettings(dt=1e-3, T=0.5, store_every=50)
    traj = rd.integrate(_zero_field(), basis32, desk_split, desk_problem, 1.0, u0, settings)
    assert np.all(traj.coeffs[:, 0, 0] == 0.4)


def test_integrate_equilibrium_is_fixed(basis32, desk_problem, desk_split, desk_field,
                                        desk_equilibria):
    ustar = next(eq for eq in desk_equilibria if not eq.is_origin)
    settings = rd.IntegratorSettings(dt=1e-3, T=10.0, store_every=500)
    traj = rd.integrate(desk_field, basis32, desk_split, desk_problem, 1.0,
                        ustar.state, settings)
    drift = np.max(np.sqrt(np.sum((traj.coeffs - ustar.state.coeffs) ** 2, axis=(1, 2))))
    assert drift <= 1e-8


def test_integrate_divergence_signal(basis32):
    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis32.mu[1]),), sigma=(0.0,))
    split = rd.classify(basis32, cfg)
    u0 = rd.GalerkinState.unit(1, 32, 1, 1)  # negative-block mode grows
    settings = rd.IntegratorSettings(dt=1e-3, T=2.0, store_every=100)
    with pytest.raises(DivergenceSignal) as err:
        rd.integrate(_zero_field(), basis32, split, cfg, 1.0, u0, settings)
    assert 0 < err.value.exit_time < 1.0
    assert err.value.trajectory.diverged


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_state_counts_as_divergence(basis32, desk_problem, desk_split):
    # finite nodal values whose projection overflows: the state turns NaN,
    # and the divergence guard must stop the run rather than step on
    huge = rd.NonlinearField(
        name="huge", m=1, eval=lambda x, U, dU: np.full_like(U, 1e308),
        sigma=np.zeros(1), f_plus=lambda x: np.zeros((1, x.size)),
        f_minus=lambda x: np.zeros((1, x.size)))
    settings = rd.IntegratorSettings(dt=1e-3, T=1.0)
    with pytest.raises(DivergenceSignal) as err:
        rd.integrate(huge, basis32, desk_split, desk_problem, 1.0,
                     rd.GalerkinState.unit(1, 32, 1, 2, 0.1), settings)
    assert err.value.exit_time == 1e-3
    assert err.value.trajectory.diverged


def test_etd_factor_overflow_names_mode(basis32, desk_split):
    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis32.mu[29]),), sigma=(0.0,))
    split = rd.classify(basis32, cfg)
    settings = rd.IntegratorSettings(dt=0.1, T=1.0)
    with pytest.raises(UnboundedModeError) as err:
        rd.integrate(_zero_field(), basis32, split, cfg, 1.0,
                     rd.GalerkinState.unit(1, 32, 1, 30), settings)
    assert (err.value.component, err.value.mode) == (1, 1)
    assert err.value.exponent == pytest.approx(0.1 * 899 * math.pi ** 2, rel=1e-12)


@pytest.mark.parametrize("dt,T", [(0.3, 1.0), (0.3, 0.1), (1e-3, 0.0105)])
def test_horizon_not_a_multiple_of_dt_rejected(dt, T):
    with pytest.raises(ConfigurationError, match="multiple of dt"):
        rd.IntegratorSettings(dt=dt, T=T)


@pytest.mark.parametrize("dt,T", [(math.nan, 1.0), (1e-3, math.inf), (0.0, 1.0)])
def test_nonpositive_or_nonfinite_step_rejected(dt, T):
    with pytest.raises(ConfigurationError, match="positive and finite"):
        rd.IntegratorSettings(dt=dt, T=T)


@pytest.mark.parametrize("dt,T,steps", [(1e-3, 0.6, 600), (1e-3, 100 * 0.001, 100),
                                        (2e-3, 10.0, 5000), (1e-2, 0.1, 10)])
def test_horizon_multiple_of_dt_accepted(dt, T, steps):
    assert rd.IntegratorSettings(dt=dt, T=T).nsteps == steps


def test_step_halving_first_order(basis32, desk_problem, desk_split, desk_field):
    u0 = rd.GalerkinState.unit(1, 32, 1, 2, amplitude=0.1)
    T = 0.5

    def terminal(dt):
        settings = rd.IntegratorSettings(dt=dt, T=T, store_every=10 ** 9)
        return rd.integrate(desk_field, basis32, desk_split, desk_problem, 1.0,
                            u0, settings).final.coeffs

    ref = terminal(1e-3 / 8)
    err_coarse = np.sqrt(np.sum((terminal(2e-3) - ref) ** 2))
    err_fine = np.sqrt(np.sum((terminal(1e-3) - ref) ** 2))
    assert err_coarse / err_fine >= 1.8


def test_s_continuity(basis32, desk_problem, desk_split, desk_field):
    u0 = rd.GalerkinState.unit(1, 32, 1, 2, amplitude=0.2)
    settings = rd.IntegratorSettings(dt=1e-3, T=1.0, store_every=10 ** 9)
    finals = {}
    for s in (0.5, 0.55):
        finals[s] = rd.integrate(desk_field, basis32, desk_split, desk_problem, s,
                                 u0, settings).final.coeffs
    diff = np.sqrt(np.sum((finals[0.5] - finals[0.55]) ** 2))
    assert diff <= 10 * 0.05


def test_imex_requires_small_steps(basis32, desk_problem, desk_split, desk_field):
    settings = rd.IntegratorSettings(dt=1e-3, T=0.1, scheme="IMEX-Euler")
    with pytest.raises(ConfigurationError, match="IMEX"):
        rd.integrate(desk_field, basis32, desk_split, desk_problem, 1.0,
                     rd.GalerkinState.zeros(1, 32), settings)


def test_imex_small_system_runs(rng):
    basis = rd.build_basis(rd.Domain1D(1.0, 24), 4)
    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis.mu[0]),), sigma=(0.0,))
    split = rd.classify(basis, cfg)
    field = rd.arctan_field(1, gain=2.0)
    u0 = rd.GalerkinState(0.1 * rng.normal(size=(1, 4)))
    # dt * max|mu_j - lambda| just below 0.2, with T a whole multiple of dt
    dt = 0.2 / math.ceil(float(np.max(np.abs(basis.mu - cfg.lam[0]))))
    imex = rd.IntegratorSettings(dt=dt, T=0.2, scheme="IMEX-Euler", store_every=10 ** 9)
    etd = rd.IntegratorSettings(dt=dt, T=0.2, scheme="ETD1", store_every=10 ** 9)
    a = rd.integrate(field, basis, split, cfg, 1.0, u0, imex).final.coeffs
    b = rd.integrate(field, basis, split, cfg, 1.0, u0, etd).final.coeffs
    assert np.sqrt(np.sum((a - b) ** 2)) <= 0.05


def test_blowup_demo_slope(basis32, desk_problem, desk_split):
    v0 = rd.GalerkinState.unit(1, 32, 1, 1)
    traj, rep = rd.blowup_demo(basis32, desk_split, desk_problem, v0, T=5.0)
    assert rep.slopes[(1, 1)] == pytest.approx(1.0, abs=1e-6)
    assert rep.max_residual <= 1e-9


def test_blowup_demo_scaling(basis32, desk_problem, desk_split):
    v0 = rd.GalerkinState.unit(1, 32, 1, 1, amplitude=2.5)
    _, rep = rd.blowup_demo(basis32, desk_split, desk_problem, v0, T=3.0)
    assert rep.slopes[(1, 1)] == pytest.approx(2.5, abs=1e-6)


def test_blowup_demo_superposition(basis32, desk_problem, desk_split):
    v0 = rd.GalerkinState.unit(1, 32, 1, 1)
    u0 = rd.GalerkinState.unit(1, 32, 1, 2, amplitude=1.0)
    traj, rep = rd.blowup_demo(basis32, desk_split, desk_problem, v0, T=3.0, u0=u0)
    qplus = traj.norm_series("Qplus_alpha")
    assert rep.qplus_alpha_final < rep.qplus_alpha_initial
    assert qplus[-1] < 1e-3 * qplus[0]
    assert rep.slopes[(1, 1)] == pytest.approx(1.0, abs=1e-6)


def test_blowup_demo_validates_kernel_support(basis32, desk_problem, desk_split):
    with pytest.raises(ConfigurationError):
        rd.blowup_demo(basis32, desk_split, desk_problem,
                       rd.GalerkinState.unit(1, 32, 1, 2), T=1.0)
    with pytest.raises(ConfigurationError):
        rd.blowup_demo(basis32, desk_split, desk_problem,
                       rd.GalerkinState.zeros(1, 32), T=1.0)


def test_apriori_bounds_formulas(basis32, desk_problem, desk_split):
    B = math.pi / 2
    bounds = rd.apriori_bounds(basis32, desk_split, desk_problem, C6=B)
    c = 3 * math.pi ** 2
    assert bounds.c == pytest.approx(c, rel=1e-12)
    assert bounds.R0_plus == pytest.approx(B * (math.exp(-c) / c + 1 / (1 - 0.8)), rel=1e-12)
    assert bounds.R0_minus == 0.0  # trivial negative block
    assert rd.apriori_bounds(basis32, desk_split, desk_problem, C6=0.0).R0_plus == 0.0


def test_apriori_bounds_monotone_in_alpha(basis32, desk_split):
    lam = (float(basis32.mu[0]),)
    lo = rd.ProblemConfig(m=1, l=1, lam=lam, sigma=(0.0,), alpha=0.8)
    hi = rd.ProblemConfig(m=1, l=1, lam=lam, sigma=(0.0,), alpha=0.95)
    b_lo = rd.apriori_bounds(basis32, desk_split, lo, C6=1.0)
    b_hi = rd.apriori_bounds(basis32, desk_split, hi, C6=1.0)
    assert b_hi.R0_plus > b_lo.R0_plus


def test_check_bounded_solution_decay(basis32, desk_problem, desk_split):
    u0 = rd.GalerkinState.unit(1, 32, 1, 3, amplitude=0.5)
    settings = rd.IntegratorSettings(dt=1e-3, T=2.0, store_every=50)
    traj = rd.integrate(_zero_field(), basis32, desk_split, desk_problem, 1.0,
                        u0, settings)
    bounds = rd.apriori_bounds(basis32, desk_split, desk_problem, C6=1.0)
    rep = rd.check_bounded_solution(traj, bounds, R1=1.0, R2=0.0)
    assert not rep.unbounded
    assert all(r <= 1e-3 for r in rep.ratios.values())


def test_check_bounded_solution_flags_drift(basis32, desk_problem, desk_split):
    v0 = rd.GalerkinState.unit(1, 32, 1, 1)
    traj, _ = rd.blowup_demo(basis32, desk_split, desk_problem, v0, T=5.0)
    bounds = rd.apriori_bounds(basis32, desk_split, desk_problem, C6=math.sqrt(2) / 2)
    rep = rd.check_bounded_solution(traj, bounds, R1=1.0, R2=0.0)
    assert rep.unbounded
    assert rep.slope_P1 == pytest.approx(1.0, abs=1e-6)
    assert rep.ratios["P1_seminorm"] > 1.0


def test_product_flow_zero_field(basis32, desk_problem, desk_split, rng):
    u0 = rd.GalerkinState(0.3 * rng.normal(size=(1, 32)))
    settings = rd.IntegratorSettings(dt=1e-3, T=1.0, store_every=100)
    dev = rd.product_flow_check(_zero_field(), basis32, desk_split, desk_problem,
                                u0, 1.0, settings)
    assert dev <= 1e-8


def test_product_flow_kernel_only_initial(basis32, desk_problem, desk_split, desk_field):
    u0 = rd.GalerkinState.unit(1, 32, 1, 1, amplitude=0.2)
    settings = rd.IntegratorSettings(dt=1e-3, T=1.0, store_every=100)
    dev = rd.product_flow_check(desk_field, basis32, desk_split, desk_problem,
                                u0, 1.0, settings)
    assert dev <= 1e-10


def test_trajectory_norms_recomputable(basis32, desk_problem, desk_split, desk_field, rng):
    u0 = rd.GalerkinState(0.1 * rng.normal(size=(1, 32)))
    settings = rd.IntegratorSettings(dt=1e-3, T=0.2, store_every=20)
    traj = rd.integrate(desk_field, basis32, desk_split, desk_problem, 1.0, u0, settings)
    from resodyn.semiflow import trajectory_norms
    for i in range(traj.times.size):
        again = trajectory_norms(basis32, desk_split, desk_problem, traj.coeffs[i])
        assert np.abs(again - traj.norms[i]).max() <= 1e-10


def test_trajectory_csv_roundtrip(basis32, desk_problem, desk_split, desk_field):
    u0 = rd.GalerkinState.unit(1, 32, 1, 1, amplitude=0.1)
    settings = rd.IntegratorSettings(dt=1e-2, T=0.1, store_every=2)
    traj = rd.integrate(desk_field, basis32, desk_split, desk_problem, 1.0, u0, settings)
    text = traj.to_csv()
    lines = text.strip().splitlines()
    assert lines[0].split(",")[:2] == ["t", "l2"]
    assert len(lines) == traj.times.size + 1
    parsed = float(lines[1].split(",")[1])
    assert parsed == pytest.approx(0.1, abs=1e-12)


def test_box_membership_and_sampling(basis32, desk_problem, desk_split, rng):
    box = rd.HomotopyBox(R0=2.0, R1=3.0, R2=0.0)
    states = rd.sample_states_in_box(basis32, desk_split, desk_problem, box,
                                     count=10, seed=4)
    from resodyn.semiflow import trajectory_norms
    for st in states:
        norms = trajectory_norms(basis32, desk_split, desk_problem, st.coeffs)
        q = math.hypot(norms[4], norms[5])
        assert q <= box.R0 + 1.0
        assert norms[2] <= box.R1 + 1.0
        assert norms[3] <= box.R2 + 1.0
