import math

import numpy as np
import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

import resodyn as rd
from resodyn.errors import (ConfigurationError, DivergenceSignal, EvaluationError,
                            UnboundedModeError)
from resodyn.semiflow import MAX_STEPS, trajectory_norms
from resodyn.spectral import fractional_weights


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
    field = rd.make_field("constant-kernel(1, 1, 0.7)", 1, basis=basis32)
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


@pytest.mark.parametrize("dt,T", [(1e-2, 1e300), (1e-300, 1e300), (1.0, MAX_STEPS + 1.0)])
def test_step_count_above_cap_rejected(dt, T):
    # constructing the settings is the whole test: nothing is marched
    with pytest.raises(ConfigurationError, match="MAX_STEPS"):
        rd.IntegratorSettings(dt=dt, T=T)


def test_step_cap_far_above_shipped_horizons():
    assert MAX_STEPS >= 100 * 10_000
    assert rd.IntegratorSettings(dt=1.0, T=float(MAX_STEPS)).nsteps == MAX_STEPS


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
    field = rd.make_field("arctan(2)", 1)
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
    for st in states:
        norms = trajectory_norms(basis32, desk_split, desk_problem, st.coeffs)
        q = math.hypot(norms[4], norms[5])
        assert q <= box.R0 + 1.0
        assert norms[2] <= box.R1 + 1.0
        assert norms[3] <= box.R2 + 1.0


# -- batched ensemble ---------------------------------------------------------

_SMALL = rd.build_basis(rd.Domain1D(1.0, 32), 8)


def _small_system(m):
    lam = tuple(float(_SMALL.mu[0]) for _ in range(m))
    cfg = rd.ProblemConfig(m=m, l=1, lam=lam, sigma=(0.0,) * m)
    return rd.classify(_SMALL, cfg), cfg


def _max_rel(a, b):
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1e-300)


@hsettings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2 ** 32 - 1),
       st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                min_size=1, max_size=20))
def test_ensemble_matches_serial(m, seed, s_values):
    split, cfg = _small_system(m)
    field = rd.make_field("-arctan(5)", m)
    gen = np.random.default_rng(seed)
    states = [rd.GalerkinState(gen.normal(size=(m, 8))) for _ in s_values]
    settings = rd.IntegratorSettings(dt=1e-2, T=0.2, store_every=5)
    ens = rd.integrate_ensemble(field, _SMALL, split, cfg, s_values, states, settings)
    assert len(ens) == len(s_values)
    for traj, s, u0 in zip(ens, s_values, states):
        ref = rd.integrate(field, _SMALL, split, cfg, s, u0, settings)
        assert not traj.diverged and traj.s == s
        assert np.array_equal(traj.times, ref.times)
        assert _max_rel(traj.coeffs, ref.coeffs) <= 1e-12
        assert _max_rel(traj.norms, ref.norms) <= 1e-12


@pytest.mark.parametrize("m", [1, 2])
def test_ensemble_keeps_pure_parity_exact(basis32, m):
    cfg = rd.ProblemConfig(m=m, l=1, lam=(float(basis32.mu[0]),) * m, sigma=(0.0,) * m)
    split = rd.classify(basis32, cfg)
    field = rd.make_field("arctan(40)", m)
    gen = np.random.default_rng(3)
    states, odd = [], []
    for i in range(6):
        c = gen.normal(size=(m, 32))
        sym = i % 2 == 0  # odd j: symmetric about L/2
        c[:, basis32.parity_sym != sym] = 0.0
        states.append(rd.GalerkinState(c))
        odd.append(basis32.parity_sym == sym)
    s_values = [0.0, 0.0, 0.5, 0.5, 1.0, 1.0]
    settings = rd.IntegratorSettings(dt=1e-3, T=0.3, store_every=1)
    for traj, keep in zip(rd.integrate_ensemble(field, basis32, split, cfg, s_values,
                                                states, settings), odd):
        assert traj.times.size == 301
        assert np.all(traj.coeffs[:, :, ~keep] == 0.0)
        assert np.any(traj.coeffs[-1][:, keep] != 0.0)


def test_ensemble_divergent_member_leaves_stack(basis32):
    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis32.mu[1]),), sigma=(0.0,))
    split = rd.classify(basis32, cfg)
    field = rd.make_field("arctan(3)", 1)
    settings = rd.IntegratorSettings(dt=1e-3, T=2.0, store_every=100)
    # antisymmetric, so the odd field never feeds the growing symmetric mode
    calm = rd.GalerkinState.unit(1, 32, 1, 4, amplitude=0.5)
    wild = rd.GalerkinState.unit(1, 32, 1, 1)  # negative-block mode grows
    s_values = [0.5, 1.0, 0.0]
    states = [calm, wild, calm]
    ens = rd.integrate_ensemble(field, basis32, split, cfg, s_values, states, settings)
    with pytest.raises(DivergenceSignal) as err:
        rd.integrate(field, basis32, split, cfg, 1.0, wild, settings)
    partial = err.value.trajectory
    assert ens[1].diverged and partial.diverged
    assert np.array_equal(ens[1].times, partial.times)
    assert ens[1].times[-1] == err.value.exit_time < 1.0
    assert _max_rel(ens[1].coeffs, partial.coeffs) <= 1e-12
    for i in (0, 2):
        ref = rd.integrate(field, basis32, split, cfg, s_values[i], states[i], settings)
        assert not ens[i].diverged
        assert np.array_equal(ens[i].times, ref.times)
        assert _max_rel(ens[i].coeffs, ref.coeffs) <= 1e-12


def test_ensemble_rejects_mismatched_inputs(basis32, desk_problem, desk_split, desk_field):
    settings = rd.IntegratorSettings(dt=1e-3, T=0.01)
    u0 = rd.GalerkinState.zeros(1, 32)
    with pytest.raises(ConfigurationError, match="one s value"):
        rd.integrate_ensemble(desk_field, basis32, desk_split, desk_problem,
                              [0.0, 1.0], [u0], settings)
    with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
        rd.integrate_ensemble(desk_field, basis32, desk_split, desk_problem,
                              [1.5], [u0], settings)
    assert rd.integrate_ensemble(desk_field, basis32, desk_split, desk_problem,
                                 [], [], settings) == []


def test_homotopy_field_per_member_s(rng):
    split, cfg = _small_system(2)
    field = rd.make_field("arctan(40)", 2)
    s_values = np.array([0.0, 0.3, 1.0, 0.0, 0.7])
    c = rng.normal(size=(5, 2, 8))
    H = rd.homotopy_field(field, _SMALL, split, s_values, rd.GalerkinState(c))
    for i, s in enumerate(s_values):
        one = rd.homotopy_field(field, _SMALL, split, float(s), rd.GalerkinState(c[i]))
        assert _max_rel(H.coeffs[i], one.coeffs) <= 1e-14


def test_trajectory_norms_stack_matches_rows(basis32, desk_problem, desk_split, rng):
    c = rng.normal(size=(7, 1, 32))
    stacked = trajectory_norms(basis32, desk_split, desk_problem, c)
    assert stacked.shape == (7, 6)
    for i in range(7):
        one = trajectory_norms(basis32, desk_split, desk_problem, c[i])
        assert one.shape == (6,)
        assert np.array_equal(stacked[i], one)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("lead", [(), (7,), (40,), ("F",), ("T",)])
def test_trajectory_norms_match_masked_sums(basis32, rng, m, lead):
    # the oracle gathers each norm's entries through its mask, the full
    # norms through an all-True one; "F" and "T" are a Fortran-ordered stack
    # and a stack seen through a transpose
    cfg = rd.ProblemConfig(m=m, l=1, lam=(float(basis32.mu[0]),) * m, sigma=(0.0,) * m)
    split = rd.classify(basis32, cfg)
    if lead == ("F",):
        c = np.asfortranarray(rng.normal(size=(5, m, 32)))
    elif lead == ("T",):
        c = rng.normal(size=(m, 5, 32)).transpose(1, 0, 2)
    else:
        c = rng.normal(size=lead + (m, 32))
    sq = c ** 2
    wsq = (fractional_weights(basis32, cfg) ** cfg.alpha * c) ** 2
    full = np.ones((m, 32), dtype=bool)
    masked = [np.ascontiguousarray(a[..., split.masks[key] if key else full]).sum(axis=-1)
              for a, key in ((sq, None), (wsq, None), (sq, "P1"), (sq, "P2"),
                             (wsq, "Qminus"), (wsq, "Qplus"))]
    assert np.array_equal(trajectory_norms(basis32, split, cfg, c),
                          np.sqrt(np.stack(masked, axis=-1)))


@pytest.mark.parametrize("scheme", ["ETD1", "IMEX-Euler"])
def test_march_retirement_by_settle_keeps_rows_exact(scheme):
    # m = 2 stacks take the matrix-matrix path at every stack size, so rows
    # that stay in a shrinking stack are stepped bit for bit as in the full
    # one; at s = 1 H is galerkin_F bit for bit, and no plan is built
    split, cfg = _small_system(2)
    field = rd.make_field("arctan(40)", 2)
    gen = np.random.default_rng(11)
    states = [rd.GalerkinState(gen.normal(size=(2, 8))) for _ in range(4)]
    settings = rd.IntegratorSettings(dt=2.5e-4, T=5e-3, scheme=scheme)
    ref = rd.integrate_ensemble(field, _SMALL, split, cfg, [1.0] * 4, states, settings)

    leave_at = {1: 3, 2: 7, 0: 20}  # member -> step after which it is retired

    def settle(t, c, members):
        n = round(t / settings.dt)
        return np.array([leave_at.get(int(i)) == n for i in members])

    ens = rd.integrate_ensemble(field, _SMALL, split, cfg, [1.0] * 4, states, settings, settle)
    assert not any(traj.diverged for traj in ens)
    for i in range(4):
        steps = leave_at.get(i, settings.nsteps)
        assert len(ens[i].times) == steps + 1
        assert np.array_equal(ens[i].times, ref[i].times[:steps + 1])
        assert np.array_equal(ens[i].coeffs, ref[i].coeffs[:steps + 1])


def test_march_recording_rule():
    # store_every = 3 over 10 steps: stored steps are 3, 6, 9 and the last
    split, cfg = _small_system(1)
    settings = rd.IntegratorSettings(dt=0.01, T=0.1, store_every=3)
    heights = []

    def zero_eval(x, U, dU):
        # H is 0 except on the fifth evaluation, where member 2 (still row 2
        # of the s = 1 stack) blows up
        heights.append(U.shape[0])
        out = np.zeros_like(U)
        if len(heights) == 5:
            out[2] = 1e12
        return out

    field = rd.NonlinearField(name="zero-then-blowup", m=1, eval=zero_eval, sigma=np.zeros(1),
                              f_plus=None, f_minus=None, reads_du=False)
    retire_at = {0: 6, 1: 7}
    seen = []

    def settle(t, c, members):
        n = round(t / settings.dt)
        seen.append(members.copy())
        return np.array([retire_at.get(int(i)) == n for i in members])

    states = [rd.GalerkinState(np.arange(1.0, 9.0)[None]) for _ in range(4)]
    ens = rd.integrate_ensemble(field, _SMALL, split, cfg, [1.0] * 4, states, settings, settle)
    dt = settings.dt
    assert np.array_equal(ens[0].times, np.array([0, 3, 6]) * dt)
    assert np.array_equal(ens[1].times, np.array([0, 3, 6, 7]) * dt)
    assert np.array_equal(ens[2].times, np.array([0, 3, 5]) * dt)
    assert np.array_equal(ens[3].times, np.array([0, 3, 6, 9, 10]) * dt)
    assert [traj.diverged for traj in ens] == [False, False, True, False]
    assert np.sqrt(np.sum(ens[2].coeffs[-1] ** 2)) > settings.divergence_threshold
    for traj in ens:
        assert len(traj.coeffs) == len(traj.times)
        assert np.all(np.diff(traj.times) > 0)
    # a diverged row is never shown to settle, and a left row is never stepped
    assert seen[4].tolist() == [0, 1, 3]
    assert heights == [4, 4, 4, 4, 4, 3, 2, 1, 1, 1]


def _march_five_ufunc_rule(field, basis, split, config, s_values, states, settings,
                           settle=None):
    """``integrate_ensemble``'s loop as it tested divergence before: every
    row's norm (square, sum, sqrt, compare, invert) on every step, and the
    rows ``settle`` sees cut by that mask whenever a row diverged.  Kept as
    the oracle of the test by the largest norm; returns each member's
    recorded times and states and the diverged flags."""
    from resodyn.semiflow import _homotopy, _plan
    from resodyn.spectral import _unit
    s = _unit("s", s_values).reshape(-1)
    factors = settings.step_factors(basis, config)
    dt, threshold = settings.dt, settings.divergence_threshold
    q0 = split.masks["Q0"]
    c = np.stack([u0.coeffs for u0 in states])
    members = np.arange(s.size)
    plan = _plan(basis, q0, s)
    times = [[0.0] for _ in c]
    coeffs = [[row] for row in c]
    diverged = np.zeros(s.size, dtype=bool)
    nsteps = settings.nsteps
    for n in range(1, nsteps + 1):
        H = _homotopy(field, basis, plan, c)
        if settings.scheme == "ETD1":
            E, dtP = factors
            c = E * c + dtP * H
        else:
            c = (c + dt * H) / factors
        t = n * dt
        hit = ~(np.sqrt((c ** 2).sum(axis=(-2, -1))) <= threshold)
        leave = hit
        if settle is not None:
            live = ~hit if hit.any() else slice(None)
            rows = members[live]
            done = settle(t, c[live], rows) if rows.size else False
            if done is not False:
                leave = hit.copy()
                leave[live] |= done
        stored = n % settings.store_every == 0 or n == nsteps
        gone = leave.any()
        if stored or gone:
            diverged[members[hit]] = True
            for row in (range(members.size) if stored else np.flatnonzero(leave)):
                times[members[row]].append(t)
                coeffs[members[row]].append(c[row])
            if gone:
                c, members = c[~leave], members[~leave]
                if members.size == 0:
                    break
                plan = _plan(basis, q0, s[members])
    return times, [np.asarray(x) for x in coeffs], diverged


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("store_every", [1, 4])
@pytest.mark.parametrize("retire", [None, {2: [3], 6: [], 8: [4], 9: []}],
                         ids=["no-settle", "settle"])
def test_divergence_by_largest_norm_matches_five_ufunc_rule(retire, store_every):
    # u' = -A u + 50 u grows every row along phi_1.  A row tagged with +phi_2
    # turns NaN, and one tagged with -phi_2 turns +-inf, at the step after
    # its nodal values pass 50 (finite nodal values whose projection
    # overflows); the threshold is row 0's norm at step 3, so row 0 lands
    # exactly on it there, row 1 just above and row 2 just below
    split, cfg = _small_system(1)
    nq, h = _SMALL.x.size, _SMALL.x.size // 2

    def eval_(x, U, dU):
        out = 50.0 * U
        for row, u in zip(out.reshape(-1, nq), U.reshape(-1, nq)):
            tag = u[0] - u[-1]  # nonzero only on rows with an antisymmetric part
            if tag != 0.0 and np.abs(u).max() > 50.0:
                if tag > 0:
                    row[:] = 1e308
                else:
                    row[h - 3] = row[nq - h + 2] = 1e308  # one mirrored pair
        return out

    field = rd.NonlinearField(name="tagged-growth", m=1, eval=eval_, sigma=np.zeros(1),
                              f_plus=None, f_minus=None, reads_du=False)
    rows = [(1000.0, 0.0), (1000.001, 0.0), (999.0, 0.0), (10.0, 0.0), (0.0, 0.0),
            (1.0, 1.0), (3.0, -1.0), (2.0, 1.0)]
    states = []
    for a1, a2 in rows:
        c = np.zeros((1, 8))
        c[0, :2] = a1, a2
        states.append(rd.GalerkinState(c))
    s_values = [1.0] * len(states)
    dry = rd.IntegratorSettings(dt=0.01, T=0.03, divergence_threshold=math.inf)
    times, coeffs, _ = _march_five_ufunc_rule(field, _SMALL, split, cfg, s_values, states, dry)
    at3 = np.sqrt((np.stack([c[3] for c in coeffs]) ** 2).sum(axis=(-2, -1)))
    threshold = float(at3[0])
    assert at3[1] > threshold > at3[2] and np.all(at3[3:] < threshold)
    settings = rd.IntegratorSettings(dt=0.01, T=0.1, store_every=store_every,
                                     divergence_threshold=threshold)

    def logged(log):
        if retire is None:
            return None

        def settle(t, c, members):
            log.append((t, c.copy(), members.copy()))
            step = round(t / settings.dt)
            return np.isin(members, retire[step]) if step in retire else False
        return settle

    seen, seen_ref = [], []
    ens = rd.integrate_ensemble(field, _SMALL, split, cfg, s_values, states, settings,
                                logged(seen))
    times, coeffs, diverged = _march_five_ufunc_rule(field, _SMALL, split, cfg, s_values,
                                                     states, settings, logged(seen_ref))
    assert [traj.diverged for traj in ens] == diverged.tolist()
    for traj, t, c in zip(ens, times, coeffs):
        assert np.array_equal(traj.times, t)
        assert np.array_equal(traj.coeffs, c, equal_nan=True)
    assert len(seen) == len(seen_ref)
    for (t, c, members), (t_ref, c_ref, members_ref) in zip(seen, seen_ref):
        assert t == t_ref and np.array_equal(members, members_ref)
        assert np.array_equal(c, c_ref)
    # the cases: rows 5 and 7 end NaN, row 6 infinite, row 1 past the
    # threshold at step 3 and rows 0 and 2 at step 4; rows 3 and 4 never
    # diverge, and the settle retires them at steps 2 and 8, the second on
    # a step where a row diverges
    last = [traj.coeffs[-1] for traj in ens]
    assert diverged.tolist() == [True, True, True, False, False, True, True, True]
    assert np.isnan(last[5]).any() and np.isnan(last[7]).any()
    assert np.isinf(last[6]).any() and not np.isnan(last[6]).any()
    assert [round(ens[i].times[-1] / settings.dt) for i in (0, 1, 2)] == [4, 3, 4]
    assert len({round(ens[i].times[-1] / settings.dt) for i in (5, 6, 7)}) == 3


@pytest.mark.parametrize("kwargs", [
    {"store_every": 2.5}, {"store_every": math.nan}, {"store_every": True},
    {"divergence_threshold": math.nan}, {"divergence_threshold": -1.0},
    {"divergence_threshold": 0.0},
], ids=["store_every=2.5", "store_every=nan", "store_every=True",
        "threshold=nan", "threshold=-1", "threshold=0"])
def test_bad_integrator_settings_rejected(kwargs):
    with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
        rd.IntegratorSettings(dt=1e-3, T=1.0, **kwargs)


def test_infinite_divergence_threshold_accepted():
    assert rd.IntegratorSettings(dt=1e-3, T=1.0, divergence_threshold=math.inf).nsteps == 1000


# -- one stacked evaluation per step ------------------------------------------

def _two_call_homotopy(field, basis, split, s, c):
    """H(s, u) with the restricted stack and the interior-s members
    evaluated by two separate galerkin_F calls."""
    q0 = split.masks["Q0"]
    sc = s[:, None, None]
    f_inner = rd.galerkin_F(field, basis,
                            rd.GalerkinState._trusted(np.where(q0, c, sc * c))).coeffs
    f_full = np.where(sc == 0.0, 0.0, f_inner)
    mid = (0.0 < s) & (s < 1.0)
    if mid.any():
        f_full[mid] = rd.galerkin_F(field, basis, rd.GalerkinState._trusted(c[mid])).coeffs
    return np.where(q0, f_inner, sc * f_full)


def _count_evaluations(monkeypatch):
    """Patch the one evaluation body, as galerkin_F and the march step call
    it, to record the number of states (the evaluated height) per call."""
    import resodyn.fields as fields
    import resodyn.semiflow as semiflow
    calls, body = [], fields._evaluate

    def counted(field, basis, work):
        calls.append(math.prod(work.U.shape[:-2]))
        return body(field, basis, work)

    monkeypatch.setattr(fields, "_evaluate", counted)
    monkeypatch.setattr(semiflow, "_evaluate", counted)
    return calls


@pytest.mark.parametrize("B", [1, 2, 7, 38, 100])
def test_homotopy_field_is_one_stacked_call(basis32, B, monkeypatch):
    # stacking can move the last bit (a 38-row stack at J = 32 already does),
    # so the one-call result is bounded against the two-call one, not equated
    cfg = rd.ProblemConfig(m=2, l=1, lam=(float(basis32.mu[0]), float(basis32.mu[1])),
                           sigma=(0.0, 0.0))
    split = rd.classify(basis32, cfg)
    field = rd.make_field("arctan(40)", 2)
    c = np.random.default_rng(B).normal(size=(B, 2, 32))
    s = np.resize([0.0, 0.25, 0.5, 1.0], B)
    calls = _count_evaluations(monkeypatch)
    H = rd.homotopy_field(field, basis32, split, s, rd.GalerkinState(c)).coeffs
    assert calls == [B + int(np.count_nonzero((0.0 < s) & (s < 1.0)))]
    assert _max_rel(H, _two_call_homotopy(field, basis32, split, s, c)) <= 1e-12
    at_one = rd.homotopy_field(field, basis32, split, np.ones(B), rd.GalerkinState(c)).coeffs
    assert np.array_equal(at_one, rd.galerkin_F(field, basis32, rd.GalerkinState(c)).coeffs)


def test_galerkin_F_homotopy_field_and_a_march_step_each_evaluate_once(monkeypatch):
    # the one evaluation body: one call per galerkin_F (2-D, 3-D and a
    # block stack), per homotopy_field and per march step
    basis, split, cfg = _plan_system(2, 48)
    field = rd.make_field("arctan(40)", 2)
    c = np.random.default_rng(5).normal(size=(3, 2, 16))
    calls = _count_evaluations(monkeypatch)
    for u in (c[0], c, np.stack([c, c])):
        rd.galerkin_F(field, basis, rd.GalerkinState._trusted(u))
    assert calls == [1, 3, 6]
    rd.homotopy_field(field, basis, split, np.array([0.0, 0.5, 1.0]), rd.GalerkinState(c))
    assert calls[3:] == [4]
    settings = rd.IntegratorSettings(dt=1e-3, T=5e-3)
    rd.integrate_ensemble(field, basis, split, cfg, [0.5, 1.0],
                          [rd.GalerkinState(row) for row in c[:2]], settings)
    assert calls[4:] == [3] * settings.nsteps


@pytest.mark.parametrize("m", [1, 2])
def test_interior_s_march_keeps_pure_parity_exact_at_odd_nodes(m):
    basis = rd.build_basis(rd.Domain1D(1.0, 81), 32)
    cfg = rd.ProblemConfig(m=m, l=1, lam=(float(basis.mu[0]),) * m, sigma=(0.0,) * m)
    split = rd.classify(basis, cfg)
    field = rd.make_field("-arctan(40)", m)
    gen = np.random.default_rng(8)
    states, keeps = [], []
    for sym in (True, False, True, False):
        c = gen.normal(size=(m, 32))
        c[:, basis.parity_sym != sym] = 0.0
        states.append(rd.GalerkinState(c))
        keeps.append(basis.parity_sym == sym)
    settings = rd.IntegratorSettings(dt=1e-3, T=0.2, store_every=10)
    ens = rd.integrate_ensemble(field, basis, split, cfg, [0.25, 0.5, 0.5, 0.75],
                                states, settings)
    for traj, keep in zip(ens, keeps):
        assert np.all(traj.coeffs[:, :, ~keep] == 0.0)
        assert np.any(traj.coeffs[-1][:, keep] != 0.0)


def test_blocked_march_errors_name_the_natural_mode():
    # eigenvalues grow with j, so the worst ETD mode is always j = 1; the
    # IMEX limit is set by the last mode j = J: both are named as (k, j)
    basis = rd.build_basis(rd.Domain1D(1.0, 50), 17)
    cfg = rd.ProblemConfig(m=2, l=1, lam=(float(basis.mu[0]), float(basis.mu[1])),
                           sigma=(0.0, 0.0))
    split = rd.classify(basis, cfg)
    field = rd.make_field("arctan(2)", 2)
    u0 = [rd.GalerkinState.unit(2, 17, 1, 2)]
    imex = rd.IntegratorSettings(dt=1e-3, T=1e-2, scheme="IMEX-Euler")
    with pytest.raises(ConfigurationError, match=r"set by mode \(1, 17\)"):
        rd.integrate_ensemble(field, basis, split, cfg, [0.5], u0, imex)
    cfg = rd.ProblemConfig(m=2, l=1, lam=(float(basis.mu[0]), float(basis.mu[14])),
                           sigma=(0.0, 0.0))
    split = rd.classify(basis, cfg)
    with pytest.raises(UnboundedModeError) as err:
        rd.integrate_ensemble(field, basis, split, cfg, [0.5], u0,
                              rd.IntegratorSettings(dt=0.4, T=0.8))
    assert (err.value.component, err.value.mode) == (2, 1)


# -- one march: settle hook, s checked once, product flow -----------------------

def _etd1_settle_loop(field, basis, cfg, settings, c, settle):
    """ETD1 written out at s = 1, where H is F: c <- e^{-dt A} c + dt phi1(dt A) F(c),
    with ``settle`` shown every step's rows and the rows it retires dropped."""
    z = settings.dt * (basis.mu[None, :] - np.asarray(cfg.lam)[:, None])  # dt A
    E = np.exp(-z)
    small = np.abs(z) < 1e-12
    dtP = settings.dt * np.where(small, 1.0, (1.0 - E) / np.where(small, 1.0, z))
    members = np.arange(len(c))
    for n in range(1, settings.nsteps + 1):
        c = E * c + dtP * rd.galerkin_F(field, basis, rd.GalerkinState._trusted(c)).coeffs
        done = settle(n * settings.dt, c, members)
        if done is not False:
            c, members = c[~done], members[~done]


@pytest.mark.parametrize("nodes", [80, 81])
def test_settle_rows_and_records_are_natural_and_c_ordered(nodes):
    # a hand-written ETD1 loop is the oracle for the rows settle sees
    basis = rd.build_basis(rd.Domain1D(1.0, nodes), 16)
    cfg = rd.ProblemConfig(m=2, l=1, lam=(float(basis.mu[0]), float(basis.mu[1])),
                           sigma=(0.0, 0.0))
    split = rd.classify(basis, cfg)
    field = rd.make_field("arctan(40)", 2)
    gen = np.random.default_rng(5)
    states = [rd.GalerkinState(0.3 * gen.normal(size=(2, 16))) for _ in range(3)]
    settings = rd.IntegratorSettings(dt=1e-3, T=0.02)

    def retire(log):
        def settle(t, c, members):
            log.append((t, c, members.copy()))
            return members == 1 if round(t / settings.dt) == 7 else False
        return settle

    seen, natural = [], []
    ens = rd.integrate_ensemble(field, basis, split, cfg, np.ones(3), states, settings,
                                retire(seen))
    _etd1_settle_loop(field, basis, cfg, settings, np.stack([u.coeffs for u in states]),
                      retire(natural))
    assert len(seen) == len(natural) == settings.nsteps
    for (t, c, members), (t_ref, c_ref, members_ref) in zip(seen, natural):
        assert t == t_ref and np.array_equal(members, members_ref)
        assert c.flags["C_CONTIGUOUS"]
        assert np.array_equal(c, c_ref)
        for row, i in zip(c, members):
            step, = np.flatnonzero(ens[i].times == t)
            assert np.array_equal(row, ens[i].coeffs[step])
    assert len(ens[1].times) == 8 and len(ens[0].times) == settings.nsteps + 1
    for traj in ens:
        assert traj.coeffs.flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan, -math.inf])
def test_s_outside_unit_interval_rejected_before_any_step(bad, monkeypatch):
    import resodyn.semiflow as semiflow
    split, cfg = _small_system(1)
    field = rd.make_field("arctan(40)", 1)
    u0 = rd.GalerkinState.zeros(1, 8)
    settings = rd.IntegratorSettings(dt=1e-3, T=0.01)
    calls = []
    monkeypatch.setattr(semiflow, "_plan", lambda *a: calls.append("plan"))
    monkeypatch.setattr(semiflow, "_evaluate", lambda *a: calls.append("F"))
    # the march and homotopy_field evaluate through _evaluate: guard eval too
    ev = field.eval
    field.eval = lambda x, U, dU: calls.append("eval") or ev(x, U, dU)
    with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
        rd.integrate_ensemble(field, _SMALL, split, cfg, [0.5, bad], [u0, u0], settings)
    with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
        rd.homotopy_field(field, _SMALL, split, bad, u0)
    with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
        rd.homotopy_field(field, _SMALL, split, np.array([1.0, bad]),
                          rd.GalerkinState(np.zeros((2, 1, 8))))
    assert calls == []


def _explicit_kernel_track(field, basis, split, u0, settings):
    """The explicit recursion c_{n+1} = c_n + dt Q0 F(c_n) from Q0 u0, every step."""
    kmask = split.masks["Q0"]
    c = np.where(kmask, u0.coeffs, 0.0)
    track = [c]
    for _ in range(settings.nsteps):
        fk = rd.galerkin_F(field, basis, rd.GalerkinState(c)).coeffs
        c = c + settings.dt * np.where(kmask, fk, 0.0)
        track.append(c)
    return np.stack(track)


@pytest.mark.parametrize("scheme", ["ETD1", "IMEX-Euler"])
@pytest.mark.parametrize("nodes", [80, 81])
@pytest.mark.parametrize("m", [1, 2])
def test_s0_kernel_march_is_the_explicit_recursion(m, nodes, scheme):
    basis = rd.build_basis(rd.Domain1D(1.0, nodes), 8)
    cfg = rd.ProblemConfig(m=m, l=1, lam=tuple(float(mu) for mu in basis.mu[:m]),
                           sigma=(0.0,) * m)
    split = rd.classify(basis, cfg)
    field = rd.make_field("arctan(40)", m)
    u0 = rd.GalerkinState(0.3 * np.random.default_rng(nodes + m).normal(size=(m, 8)))
    settings = rd.IntegratorSettings(dt=2e-4, T=0.02, scheme=scheme, store_every=7)
    track = _explicit_kernel_track(field, basis, split, u0, settings)
    kmask = split.masks["Q0"]
    kernel = rd.integrate(field, basis, split, cfg, 0.0,
                          rd.GalerkinState(np.where(kmask, u0.coeffs, 0.0)), settings)
    steps = np.rint(kernel.times / settings.dt).astype(int)
    assert steps.tolist() == [*range(0, settings.nsteps, 7), settings.nsteps]
    assert np.array_equal(kernel.coeffs, track[steps])
    # the check itself: the full s = 0 run against the recursion plus the semigroup
    full = rd.integrate(field, basis, split, cfg, 0.0, u0, settings)
    out0 = rd.GalerkinState(np.where(kmask, 0.0, u0.coeffs))
    worst = max(float(np.sqrt(np.sum(
        (c - track[n] - rd.semigroup_apply(basis, cfg, t, out0).coeffs) ** 2)))
        for t, c, n in zip(full.times, full.coeffs, steps))
    assert rd.product_flow_check(field, basis, split, cfg, u0, 0.02, settings) == worst


# -- planned H step and one-pass CSV against their reference formulas ---------

def _where_homotopy(field, basis, q0, s, c):
    """H(s, u) of a (B, m, J) stack by the where-formula the per-composition
    plan replaced: one stacked galerkin_F call of the restricted states and
    the interior-s states, then masks rebuilt from s."""
    sc = s[:, None, None]
    mid = (0.0 < s) & (s < 1.0)
    n = len(c)
    f = rd.galerkin_F(field, basis, rd.GalerkinState._trusted(
        np.concatenate([np.where(q0, c, sc * c), c[mid]]))).coeffs
    f_inner = f[:n]
    f_full = np.where(sc == 0.0, 0.0, f_inner)
    f_full[mid] = f[n:]
    return np.where(q0, f_inner, sc * f_full)


def _same_bits(a, b):
    """array_equal that also tells -0.0 from +0.0."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _plan_system(m, nodes):
    # at m = 2 the second component is off resonance: no kernel mode at all
    basis = rd.build_basis(rd.Domain1D(1.0, nodes), 16)
    lam = (float(basis.mu[0]), 3.0)[:m]
    cfg = rd.ProblemConfig(m=m, l=1, lam=lam, sigma=(0.0,) * m)
    return basis, rd.classify(basis, cfg), cfg


@pytest.mark.parametrize("nodes", [80, 81])
@pytest.mark.parametrize("m", [1, 2])
def test_homotopy_field_matches_where_formula(m, nodes):
    basis, split, _ = _plan_system(m, nodes)
    field = rd.make_field("-arctan(40)", m)
    q0 = split.masks["Q0"]
    gen = np.random.default_rng(10 * m + nodes)
    for s in ([0.0, 0.3, 1.0, 0.7, 0.0, 1.0, 0.5], [1.0] * 3, [0.0] * 4, [0.25] * 2,
              [0.0, 1.0], [1.0, 0.5]):
        s = np.array(s)
        c = gen.normal(size=(s.size, m, 16))
        c[0, 0, 1] = -0.0
        H = rd.homotopy_field(field, basis, split, s, rd.GalerkinState(c)).coeffs
        assert _same_bits(H, _where_homotopy(field, basis, q0, s, c))
    for s in (0.0, 0.6, 1.0):  # one state, one s
        c = gen.normal(size=(m, 16))
        H = rd.homotopy_field(field, basis, split, s, rd.GalerkinState(c)).coeffs
        assert H.shape == (m, 16)
        assert _same_bits(H, _where_homotopy(field, basis, q0, np.array([s]), c[None])[0])


@pytest.mark.parametrize("nodes", [80, 81])
@pytest.mark.parametrize("m", [1, 2])
def test_march_plan_matches_homotopy_field(m, nodes, monkeypatch):
    # every planned step of a march whose stack loses rows twice (two members
    # diverge on the first step, two retire at t = 4 dt) equals the public
    # homotopy_field and the where-formula on the same stack, bit for bit
    import resodyn.semiflow as semiflow
    basis, split, cfg = _plan_system(m, nodes)
    field = rd.make_field("arctan(40)", m)
    s = np.array([0.0, 0.3, 1.0, 0.7, 0.0, 1.0, 0.5, 0.0])
    gen = np.random.default_rng(m + nodes)
    scale = np.where(np.isin(np.arange(s.size), [2, 3]), 50.0, 0.1)
    states = [rd.GalerkinState(a * gen.normal(size=(m, 16)) / 4.0) for a in scale]
    plan, homotopy, steps = semiflow._plan, semiflow._homotopy, []

    def recording_plan(basis_, q0, s_rows):
        steps.append(("plan", s_rows.copy()))
        return plan(basis_, q0, s_rows)

    def recording_homotopy(field_, basis_, plan_, c):
        H = homotopy(field_, basis_, plan_, c)
        steps.append(("step", c.copy(), H.copy()))
        return H

    def settle(t, c, members):
        return np.isin(members, [0, 6]) if t >= 4 * 1e-3 - 1e-12 else False

    monkeypatch.setattr(semiflow, "_plan", recording_plan)
    monkeypatch.setattr(semiflow, "_homotopy", recording_homotopy)
    settings = rd.IntegratorSettings(dt=1e-3, T=1e-2, divergence_threshold=5.0)
    trajs = rd.integrate_ensemble(field, basis, split, cfg, s, states, settings, settle=settle)
    monkeypatch.undo()
    assert [t.diverged for t in trajs] == [i in (2, 3) for i in range(s.size)]

    heights, s_rows = [], None
    for entry in steps:
        if entry[0] == "plan":
            s_rows = entry[1]
            continue
        _, c, H = entry
        heights.append(len(c))
        assert _same_bits(H, _where_homotopy(field, basis, split.masks["Q0"], s_rows, c))
        public = rd.homotopy_field(field, basis, split, s_rows, rd.GalerkinState(c)).coeffs
        assert _same_bits(H, public)
    assert sorted(set(heights), reverse=True) == [8, 6, 4]
    assert [entry[0] for entry in steps].count("plan") == 3


def _csv_writer_reference(header, rows):
    """The csv.writer formatter that the one-pass CSV replaced."""
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.17g}" for v in row])
    return buf.getvalue()


_CSV_VALUES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2e-310, 1e300,
               -1e300, 1e-300, -1e-300, 1.7976931348623157e308, 0.1, -1 / 3, 12345.678]


def test_trajectory_csv_matches_csv_writer():
    from resodyn.semiflow import NORM_NAMES
    gen = np.random.default_rng(11)
    n = 61
    times = gen.normal(size=n)
    norms = gen.normal(size=(n, 6)) * 10.0 ** gen.integers(-300, 300, size=(n, 6))
    flat = norms.reshape(-1)
    flat[:len(_CSV_VALUES)] = _CSV_VALUES
    times[:len(_CSV_VALUES)] = _CSV_VALUES[::-1]
    traj = rd.Trajectory(times=times, coeffs=np.zeros((n, 1, 4)), norms=norms, s=1.0)
    text = traj.to_csv()
    assert text == _csv_writer_reference(["t", *NORM_NAMES], np.column_stack([times, norms]))
    assert text.count("\r\n") == n + 1


@pytest.mark.parametrize("scheme", ["ETD1", "IMEX-Euler"])
def test_march_never_writes_into_rows_shown_to_settle(scheme):
    # a settle may keep the arrays it is shown (connect's lazy settle
    # buffers them): after a march with two divergences and two
    # retirements, each kept array still equals its copy taken when shown
    split, cfg = _small_system(1)
    calls = []

    def eval_(x, U, dU):
        calls.append(None)
        out = np.arctan(40.0 * U)
        if len(calls) in (5, 12):
            out[-1] = 1e15  # the last row blows up
        return out

    field = rd.NonlinearField(name="arctan-then-blowup", m=1, eval=eval_, sigma=np.zeros(1),
                              f_plus=None, f_minus=None, reads_du=False)
    settings = rd.IntegratorSettings(dt=2e-4, T=4e-3, scheme=scheme)
    retire_at = {0: 6, 1: 9}
    kept = []

    def settle(t, c, members):
        kept.append((c, c.copy(), members, members.copy()))
        n = round(t / settings.dt)
        return np.array([retire_at.get(int(i)) == n for i in members])

    gen = np.random.default_rng(3)
    states = [rd.GalerkinState(gen.normal(size=(1, 8))) for _ in range(5)]
    ens = rd.integrate_ensemble(field, _SMALL, split, cfg, [1.0] * 5, states, settings, settle)
    assert [traj.diverged for traj in ens] == [False, False, False, True, True]
    assert [len(traj.times) for traj in ens[:3]] == [7, 10, settings.nsteps + 1]
    assert len(kept) == settings.nsteps
    for c, c_copy, members, members_copy in kept:
        assert np.array_equal(c, c_copy) and np.array_equal(members, members_copy)


# -- the precomputed march step ------------------------------------------------

def _oracle_system(nodes, J, m):
    # component 1 resonant at mode 1, component 2 off resonance (no kernel
    # mode), component 3 resonant at mode 2
    basis = rd.build_basis(rd.Domain1D(1.0, nodes), J)
    lam = (float(basis.mu[0]), 3.0, float(basis.mu[1]))[:m]
    cfg = rd.ProblemConfig(m=m, l=1, lam=lam, sigma=(0.0,) * m)
    return basis, rd.classify(basis, cfg), cfg


def _du_field(m):
    # a custom field that reads u': the march folds dU for it
    return rd.NonlinearField(name="du-reader", m=m,
                             eval=lambda x, U, dU: np.arctan(U) + 1e-3 * dU * U,
                             sigma=np.zeros(m), f_plus=None, f_minus=None)


@pytest.mark.parametrize("nodes,J", [(48, 15), (48, 16), (49, 15), (49, 16), (80, 15),
                                     (80, 16), (80, 32), (81, 15), (81, 16), (81, 32)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_march_step_matches_the_where_formula(nodes, J, m):
    # stack heights 1-40 and the projection tables' BLAS class switches at
    # 76 and 101 rows; every s 1, every s 0 and mixed; a catalogue field
    # and a u'-reading one; each plan steps two stacks, the second through
    # the buffers the first made
    from resodyn.semiflow import _homotopy, _plan
    basis, split, _ = _oracle_system(nodes, J, m)
    q0 = split.masks["Q0"]
    gen = np.random.default_rng(nodes + 7 * J + m)
    fields = (rd.make_field("-arctan(40)", m), _du_field(m))
    for B in [*range(1, 41), 76, 101]:
        for s in (np.ones(B), np.zeros(B), np.resize([0.0, 0.3, 1.0, 0.7, 0.5], B)):
            for field in fields if B in (1, 2, 5, 40, 76) else fields[:1]:
                plan = _plan(basis, q0, s)
                for _ in range(2):
                    c = gen.normal(size=(B, m, J))
                    c[0, 0, 0] = -0.0
                    H = _homotopy(field, basis, plan, c)
                    assert _same_bits(H, _where_homotopy(field, basis, q0, s, c))


@pytest.mark.parametrize("scheme", ["ETD1", "IMEX-Euler"])
@pytest.mark.parametrize("nodes", [48, 81])
@pytest.mark.parametrize("reads_du", [False, True])
def test_march_matches_the_where_formula_march(scheme, nodes, reads_du):
    # the whole march against a loop written out with the where-formula
    basis, split, cfg = _oracle_system(nodes, 16, 3)
    field = _du_field(3) if reads_du else rd.make_field("arctan(40)", 3)
    s = np.array([0.0, 0.3, 1.0, 0.7, 0.5, 0.0, 1.0])
    c = 0.3 * np.random.default_rng(nodes).normal(size=(s.size, 3, 16))
    settings = rd.IntegratorSettings(dt=5e-5, T=1e-3, scheme=scheme)
    ens = rd.integrate_ensemble(field, basis, split, cfg, s,
                                [rd.GalerkinState(row) for row in c], settings)
    factors = settings.step_factors(basis, cfg)
    track = [c]
    for _ in range(settings.nsteps):
        H = _where_homotopy(field, basis, split.masks["Q0"], s, c)
        c = factors[0] * c + factors[1] * H if scheme == "ETD1" else (
            (c + settings.dt * H) / factors)
        track.append(c)
    for i, traj in enumerate(ens):
        assert np.array_equal(traj.coeffs, np.stack(track)[:, i])


def test_march_steps_evaluate_once_and_wrap_no_state(monkeypatch):
    # N steps are N field evaluations, and between the first and the last
    # no GalerkinState is built, checked or trusted, also across the plans
    # built when rows leave
    basis, split, cfg = _oracle_system(48, 16, 2)
    made = {"init": 0, "trusted": 0}
    init = rd.GalerkinState.__init__
    trusted = rd.GalerkinState.__dict__["_trusted"].__func__

    def counted_init(self, *args, **kwargs):
        made["init"] += 1
        init(self, *args, **kwargs)

    def counted_trusted(cls, coeffs):
        made["trusted"] += 1
        return trusted(cls, coeffs)

    monkeypatch.setattr(rd.GalerkinState, "__init__", counted_init)
    monkeypatch.setattr(rd.GalerkinState, "_trusted", classmethod(counted_trusted))
    seen = []
    arctan = rd.make_field("arctan(40)", 2)

    def ev(x, U, dU):
        seen.append(dict(made))
        return arctan.eval(x, U, dU)

    field = rd.NonlinearField(name="counted", m=2, eval=ev, sigma=np.zeros(2), f_plus=None,
                              f_minus=None, reads_du=False)
    states = [rd.GalerkinState(0.3 * np.random.default_rng(i).normal(size=(2, 16)))
              for i in range(5)]
    settings = rd.IntegratorSettings(dt=1e-3, T=0.03)

    def settle(t, c, members):
        return members == round(t / settings.dt) % 5 if t > 0.01 else False

    rd.integrate_ensemble(field, basis, split, cfg, [0.0, 0.5, 1.0, 0.5, 0.0], states,
                          settings, settle)
    assert len(seen) == 15  # every member retired by step 15
    assert seen[0] == seen[-1]
    seen.clear()
    rd.integrate_ensemble(field, basis, split, cfg, [1.0] * 5, states, settings)
    assert len(seen) == settings.nsteps and seen[0] == seen[-1]


def test_integrate_ensemble_names_a_mis_shaped_initial_state():
    split, cfg = _small_system(1)
    field = rd.make_field("arctan(40)", 1)
    states = [rd.GalerkinState.zeros(1, 8), rd.GalerkinState.zeros(1, 7)]
    with pytest.raises(ConfigurationError, match=r"initial state shape \(1, 7\) of initial "
                                                 r"state 1 is not \(m, J\) = \(1, 8\)"):
        rd.integrate_ensemble(field, _SMALL, split, cfg, [1.0, 1.0], states,
                              rd.IntegratorSettings(dt=1e-3, T=0.01))


def test_homotopy_field_rejects_s_of_another_shape():
    basis, split, _ = _oracle_system(48, 16, 1)
    calls = []
    field = rd.NonlinearField(name="guard", m=1, sigma=np.zeros(1), f_plus=None,
                              f_minus=None, eval=lambda x, U, dU: calls.append(U) or U)
    with pytest.raises(ConfigurationError, match=r"s of shape \(2,\)"):
        rd.homotopy_field(field, basis, split, [0.5, 0.5], rd.GalerkinState.zeros(1, 16))
    with pytest.raises(ConfigurationError, match=r"s of shape \(3,\)"):
        rd.homotopy_field(field, basis, split, [0.5] * 3,
                          rd.GalerkinState(np.zeros((2, 1, 16))))
    assert calls == []


def test_homotopy_field_rejects_a_state_of_another_shape():
    basis, split, _ = _oracle_system(48, 16, 1)
    calls = []
    field = rd.NonlinearField(name="guard", m=1, sigma=np.zeros(1), f_plus=None,
                              f_minus=None, eval=lambda x, U, dU: calls.append(U) or U)
    for shape in ((1, 15), (2, 16), (3, 2, 16)):
        with pytest.raises(ConfigurationError, match=r"\(m, J\) = \(1, 16\)"):
            rd.homotopy_field(field, basis, split, 0.5, rd.GalerkinState(np.zeros(shape)))
    assert calls == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_masked_nonfinite_field_value_still_raises():
    # component 2 has no kernel mode (lambda_2 between mu_2 and mu_3), so at
    # s = 0 its restricted state is 0 and H drops its whole evaluation; the
    # field's +inf there must still raise, not leave a finite H behind
    basis = rd.build_basis(rd.Domain1D(1.0, 48), 16)
    lam2 = 0.5 * float(basis.mu[1] + basis.mu[2])
    cfg = rd.ProblemConfig(m=2, l=1, lam=(float(basis.mu[0]), lam2), sigma=(0.0, 0.0))
    split = rd.classify(basis, cfg)
    assert not split.masks["Q0"][1].any()

    def ev(x, U, dU):
        out = np.arctan(U)
        out[..., 1, :] = np.where(U[..., 1, :] == 0.0, np.inf, out[..., 1, :])
        return out

    field = rd.NonlinearField(name="inf-at-zero", m=2, eval=ev, sigma=np.zeros(2),
                              f_plus=None, f_minus=None, reads_du=False)
    u0 = rd.GalerkinState(0.3 * np.random.default_rng(2).normal(size=(2, 16)))
    settings = rd.IntegratorSettings(dt=1e-4, T=1e-3)
    with pytest.raises(EvaluationError,
                       match=rf"component 2 at node x={basis.x[0]:.6g}$"):
        rd.integrate_ensemble(field, basis, split, cfg, [0.0], [u0], settings)
    assert f"{basis.x[0]:.6g}" == "0.000614496"
    for s in (0.5, 1.0):
        traj, = rd.integrate_ensemble(field, basis, split, cfg, [s], [u0], settings)
        assert not traj.diverged and traj.times.size == settings.nsteps + 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_march_divergence_pretest_keeps_overflowing_norms(basis32):
    # below a huge threshold, entries of 1e200 square to inf: the exact rule
    # calls the row diverged, and the pre-test on max |c| must not hide it
    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis32.mu[0]),), sigma=(0.0,))
    split = rd.classify(basis32, cfg)
    big = rd.GalerkinState.unit(1, 32, 1, 1, amplitude=1e200)
    small = rd.GalerkinState.unit(1, 32, 1, 1, amplitude=1.0)
    for threshold, diverged in ((1e300, [True, False]), (math.inf, [False, False])):
        settings = rd.IntegratorSettings(dt=1e-3, T=3e-3, divergence_threshold=threshold)
        ens = rd.integrate_ensemble(_zero_field(), basis32, split, cfg, [1.0, 1.0],
                                    [big, small], settings)
        assert [traj.diverged for traj in ens] == diverged
