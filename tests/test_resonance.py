import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import resodyn as rd
from resodyn.decomposition import N1, PLUS
from resodyn.errors import ConfigurationError, EvaluationError, HypothesisError
from resodyn.resonance import MarginTable, _sobol, _sphere_directions, block_modes

SQRT2 = math.sqrt(2.0)


def test_degree_sets_two_components():
    cfg = rd.ProblemConfig(m=2, l=1, lam=(1.0, 1.0), sigma=(0.0, 0.0))
    d = rd.degree_sets(cfg)
    assert d.sigma_check1 == 0.0 and d.J1 == (1,)
    assert d.sigma_check2 == 0.0 and d.J2 == (2,)


def test_degree_sets_minimum_selection():
    cfg = rd.ProblemConfig(m=3, l=2, lam=(1.0, 1.0, 1.0), sigma=(0.5, 0.2, 0.0))
    d = rd.degree_sets(cfg)
    assert d.sigma_check1 == 0.2 and d.J1 == (2,)
    assert d.sigma_check2 == 0.0 and d.J2 == (3,)


def test_degree_sets_degenerate_l_equals_m():
    cfg = rd.ProblemConfig(m=2, l=2, lam=(1.0, 1.0), sigma=(0.0, 1.0))
    d = rd.degree_sets(cfg)
    assert d.sigma_check1 == 0.0 and d.J1 == (1,)
    assert d.sigma_check2 is None and d.J2 == ()


def test_ll_functional_first_kernel(basis32, desk_problem, desk_split, desk_field):
    value = rd.ll_functional(desk_field, basis32, desk_split, desk_problem, 1, [1.0])
    assert value == pytest.approx(SQRT2, abs=1e-8)
    # the opposite direction gives the same value through the sign split
    value = rd.ll_functional(desk_field, basis32, desk_split, desk_problem, 1, [-1.0])
    assert value == pytest.approx(SQRT2, abs=1e-8)


def test_ll_functional_second_kernel(basis32, desk_field):
    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis32.mu[1]),), sigma=(0.0,))
    split = rd.classify(basis32, cfg)
    value = rd.ll_functional(desk_field, basis32, split, cfg, 1, [1.0])
    # int_0^1 |sin 2 pi x| = 2/pi, so S = (pi/2) sqrt2 (2/pi) = sqrt2
    assert value == pytest.approx(SQRT2, abs=1e-8)


def test_ll_functional_strong_resonance_zero(basis32, desk_problem, desk_split):
    field = rd.make_field("gaussian-decay", 1)
    value = rd.ll_functional(field, basis32, desk_split, desk_problem, 1, [1.0])
    assert value == 0.0


def test_ll_homogeneity(basis32, desk_problem, desk_split, desk_field):
    base = rd.ll_functional(desk_field, basis32, desk_split, desk_problem, 1, [1.0])
    for c in (2.0, 10.0):
        scaled = rd.ll_functional(desk_field, basis32, desk_split, desk_problem, 1, [c])
        assert scaled == pytest.approx(c ** (1 - 0.0) * base, rel=1e-10)


def test_ll_homogeneity_fractional_degree(basis32):
    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis32.mu[0]),), sigma=(0.5,))
    split = rd.classify(basis32, cfg)
    field = rd.make_field("scaled-arctan(1, 0.5)", 1)
    base = rd.ll_functional(field, basis32, split, cfg, 1, [1.0])
    for c in (2.0, 10.0):
        scaled = rd.ll_functional(field, basis32, split, cfg, 1, [c])
        assert scaled == pytest.approx(c ** 0.5 * base, rel=1e-6)


def test_ll_functional_intermediate_degree_oracle(basis32):
    # sigma = 0.5: S = (pi/2) int_0^1 (sqrt2 sin(pi x))^{1/2} dx, frozen
    # against an adaptive-quadrature oracle on the analytic integrand
    from scipy.integrate import quad

    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis32.mu[0]),), sigma=(0.5,))
    split = rd.classify(basis32, cfg)
    field = rd.make_field("scaled-arctan(1, 0.5)", 1)
    value = rd.ll_functional(field, basis32, split, cfg, 1, [1.0])
    oracle, err = quad(lambda x: (math.pi / 2)
                       * (SQRT2 * math.sin(math.pi * x)) ** 0.5, 0.0, 1.0)
    assert err < 1e-10
    assert value == pytest.approx(oracle, abs=1e-7)
    rep = rd.evaluate_LL(field, basis32, split, cfg, 1)["LL1+"]
    assert rep.verdict == "holds"
    assert rep.min_value == pytest.approx(oracle, abs=1e-7)


def test_evaluate_ll_desk(basis32, desk_problem, desk_split, desk_field):
    rep = rd.evaluate_LL(desk_field, basis32, desk_split, desk_problem, 1)["LL1+"]
    assert rep.verdict == "holds"
    assert rep.min_value == pytest.approx(SQRT2, abs=1e-8)
    assert rep.samples == 2  # 1-D kernel: only the two signed directions
    assert not rep.sampled_only


def test_evaluate_ll_antisymmetry(basis32, desk_problem, desk_split, desk_field):
    neg = rd.make_field("-arctan(40)", 1)
    reps = rd.evaluate_LL(neg, basis32, desk_split, desk_problem, 1)
    plus, minus = reps["LL1+"], reps["LL1-"]
    assert plus.verdict == "fails"
    assert minus.verdict == "holds"
    assert minus.min_value == pytest.approx(SQRT2, abs=1e-8)


def test_evaluate_ll_vacuous_second_block(basis32, desk_problem, desk_split, desk_field):
    reps = rd.evaluate_LL(desk_field, basis32, desk_split, desk_problem, 2)
    assert list(reps) == ["LL2+", "LL2-"]
    assert all(rep.verdict == "vacuous" and rep.samples == 0 for rep in reps.values())


def test_evaluate_ll_multidimensional_sampled(basis32):
    cfg = rd.ProblemConfig(m=2, l=2, lam=(float(basis32.mu[0]), float(basis32.mu[0])),
                           sigma=(0.0, 0.0))
    split = rd.classify(basis32, cfg)
    field = rd.make_field("arctan(40)", 2)
    rep = rd.evaluate_LL(field, basis32, split, cfg, 1, samples=128, seed=11)["LL1+"]
    assert rep.verdict == "holds"
    assert rep.sampled_only
    assert rep.samples > 4
    assert rep.min_value > 0.9  # worst mixed direction still clears


def test_ll_fails_off_the_minimum_degree_set(basis32):
    # the sum ranges over the argmin degree set only, but the quantifier
    # ranges over the whole kernel block: a direction supported on a
    # component outside J1 makes the sum empty, so the condition fails
    cfg = rd.ProblemConfig(m=2, l=2, lam=(float(basis32.mu[0]), float(basis32.mu[0])),
                           sigma=(0.5, 0.0))
    split = rd.classify(basis32, cfg)
    field = rd.make_field("arctan(40)", 2)
    d = rd.degree_sets(cfg)
    assert d.J1 == (2,)
    modes = sorted(split.n1_modes)
    idx_comp1 = modes.index((1, 1))
    direction = [0.0, 0.0]
    direction[idx_comp1] = 1.0
    assert rd.ll_functional(field, basis32, split, cfg, 1, direction) == 0.0
    rep = rd.evaluate_LL(field, basis32, split, cfg, 1, samples=64, seed=3)["LL1+"]
    assert rep.verdict == "fails"
    assert rep.min_value <= 0.0


def _quad_oracle(field, basis, modes, sigma, direction):
    """S(d) by adaptive quadrature of the defining integrals, one call per
    sign segment of each u_k = d_i phi_j."""
    L = basis.domain.length
    total = 0.0
    for (k, j), d in zip(modes, direction):
        def u(x, d=d, j=j):
            return d * math.sqrt(2.0 / L) * math.sin(j * math.pi * x / L)
        for i in range(j):
            a, b = i * L / j, (i + 1) * L / j
            sgn = math.copysign(1.0, u(0.5 * (a + b)))
            limit = field.f_plus if sgn > 0 else field.f_minus
            val, err = quad(lambda x: limit(np.array([x]))[k - 1, 0]
                            * abs(u(x)) ** (1.0 - sigma), a, b,
                            epsabs=1e-13, epsrel=1e-13, limit=200)
            assert err < 1e-10
            total += sgn * val
    return total


def _oracle_case(name, basis):
    mu = [float(v) for v in basis.mu]
    if name == "constant-kernel":
        # x-dependent limits 1.5 phi_2 on the kernel mode j = 2: S(d) = 1.5 d
        cfg = rd.ProblemConfig(m=1, l=1, lam=(mu[1],), sigma=(0.0,))
        field = rd.make_field("constant-kernel(1, 2, 1.5)", 1, basis=basis)
        return cfg, field, [[1.0], [-1.0], [0.3], [-2.5]]
    if name == "mode-2-sigma-0.5":
        cfg = rd.ProblemConfig(m=1, l=1, lam=(mu[1],), sigma=(0.5,))
        field = rd.make_field("scaled-arctan(2, 0.5)", 1)
        return cfg, field, [[1.0], [-1.0], [0.7], [-3.0]]
    # a 2-D block (kernel modes j = 1 and j = 3) with sigma = 0.25
    cfg = rd.ProblemConfig(m=2, l=2, lam=(mu[0], mu[2]), sigma=(0.25, 0.25))
    field = rd.make_field("-scaled-arctan(3, 0.25)", 2)
    return cfg, field, np.random.default_rng(17).normal(size=(6, 2)).tolist()


@pytest.mark.parametrize("name", ["constant-kernel", "mode-2-sigma-0.5", "2d-block-sigma-0.25"])
def test_closed_form_matches_quad_oracle(basis32, name):
    cfg, field, directions = _oracle_case(name, basis32)
    split = rd.classify(basis32, cfg)
    modes = block_modes(split, 1)
    sigma = rd.degree_sets(cfg).sigma_check1
    for d in directions:
        value = rd.ll_functional(field, basis32, split, cfg, 1, d)
        oracle = _quad_oracle(field, basis32, modes, sigma, d)
        assert value == pytest.approx(oracle, rel=1e-8, abs=1e-8)


def test_evaluate_ll_matches_direction_loop(basis32):
    # the vectorized sweep against a loop of one-direction calls, with the
    # first of tied minima kept
    cfg, field, _ = _oracle_case("2d-block-sigma-0.25", basis32)
    split = rd.classify(basis32, cfg)
    reps = rd.evaluate_LL(field, basis32, split, cfg, 1, samples=64, seed=5)
    assert list(reps) == ["LL1+", "LL1-"]
    for condition, sign in (("LL1+", 1.0), ("LL1-", -1.0)):
        rep = reps[condition]
        assert rep.condition == condition
        best, best_dir = np.inf, None
        for d in _sphere_directions(2, 64, 5):
            val = sign * rd.ll_functional(field, basis32, split, cfg, 1, d)
            if val < best:
                best, best_dir = val, d
        assert rep.min_value == best
        assert rep.argmin_direction == tuple(float(v) for v in best_dir)


def test_evaluate_ll_draws_and_evaluates_a_sampled_block_once(basis32, monkeypatch):
    # LL1+ and LL1- of a 2-D block are read from one Sobol' draw and one S
    import resodyn.resonance as resonance
    cfg, field, _ = _oracle_case("2d-block-sigma-0.25", basis32)
    split = rd.classify(basis32, cfg)
    calls = []
    for name in ("_sphere_directions", "_sobol", "_ll_values"):
        def counted(*args, _name=name, _original=getattr(resonance, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(resonance, name, counted)
    reps = rd.evaluate_LL(field, basis32, split, cfg, 1, samples=64, seed=5)
    assert calls == ["_sphere_directions", "_sobol", "_ll_values"]
    plus, minus = reps["LL1+"], reps["LL1-"]
    assert plus.samples == minus.samples == 68
    assert plus.sampled_only and minus.sampled_only


def test_two_kernel_modes_on_one_component_rejected(basis32, desk_problem, desk_field):
    labels = np.full((1, 32), PLUS)
    labels[0, [0, 2]] = N1
    split = rd.SplitIndexSet(labels=labels, gap=1.0)
    with pytest.raises(ConfigurationError, match="component 1 has 2 kernel modes"):
        rd.ll_functional(desk_field, basis32, split, desk_problem, 1, [1.0, 0.0])
    with pytest.raises(ConfigurationError, match="component 1 has 2 kernel modes"):
        rd.evaluate_LL(desk_field, basis32, split, desk_problem, 1)


def test_nonfinite_limit_names_component(basis32):
    cfg = rd.ProblemConfig(m=2, l=2, lam=(float(basis32.mu[0]),) * 2, sigma=(0.0, 0.0))
    split = rd.classify(basis32, cfg)
    base = rd.make_field("arctan(1)", 2)

    def f_minus(x):
        out = base.f_minus(x)
        out[1, x > 0.5] = np.nan
        return out

    field = rd.NonlinearField(name="nan-limit", m=2, eval=base.eval, sigma=np.zeros(2),
                              f_plus=base.f_plus, f_minus=f_minus)
    with pytest.raises(EvaluationError, match="f_minus value in component 2"):
        rd.ll_functional(field, basis32, split, cfg, 1, [0.6, 0.8])


@settings(max_examples=200, deadline=None)
@given(J=st.integers(1, 24), length=st.floats(0.2, 5.0), m=st.integers(1, 3),
       picks=st.lists(st.tuples(st.integers(1, 24),
                                st.sampled_from([0.0, 1e-9, -3e-9, 5e-8, 1e-3, -0.2, 0.4])),
                      min_size=3, max_size=3),
       tol=st.sampled_from([0.0, 1e-10, 1e-8, 1e-4, 1e-2, 0.05, 0.1, 0.5, 0.8, 1.0, 3.0]))
def test_classify_gives_at_most_one_kernel_mode_per_component(J, length, m, picks, tol):
    basis = rd.build_basis(rd.Domain1D(length, 2 * J + 16), J)
    lam = tuple(float(basis.mu[min(j, J) - 1]) * (1.0 + rel) for j, rel in picks[:m])
    cfg = rd.ProblemConfig(m=m, l=1, lam=lam, sigma=(0.0,) * m)
    try:
        split = rd.classify(basis, cfg, tol=tol)
    except HypothesisError:
        return
    kernel = split.masks["Q0"]
    assert np.all(np.count_nonzero(kernel, axis=1) <= 1)


def test_degree_error_surfaces():
    # a degenerate degree surfaces when the config is built, before any
    # degree_sets call could see it, in either block
    for l, sigma in ((2, (1.0, 1.0)), (1, (0.0, 1.0))):
        with pytest.raises(HypothesisError, match="degree-of-resonance"):
            rd.ProblemConfig(m=2, l=l, lam=(1.0, 1.0), sigma=sigma)


def test_guiding_margin_positive_for_large_radius(basis32, desk_problem, desk_split,
                                                  desk_field):
    bounds = rd.apriori_bounds(basis32, desk_split, desk_problem,
                               C6=math.pi / 2)
    table = rd.guiding_margin(desk_field, basis32, desk_split, desk_problem, which=1,
                              W_radius=bounds.R0_plus, R_grid=[20.0, 50.0],
                              samples=32, sign="+", seed=2)
    for R, margin in table.rows:
        assert margin > 0.0
    # consistency with the resonance functional scale: margin approaches sqrt2 R
    assert table.rows[1][1] > 0.9 * SQRT2 * 50.0


def test_guiding_margin_zero_field(basis32, desk_problem, desk_split):
    zero = rd.NonlinearField(
        name="zero", m=1, eval=lambda x, U, dU: np.zeros_like(U),
        sigma=np.zeros(1), f_plus=lambda x: np.zeros((1, x.size)),
        f_minus=lambda x: np.zeros((1, x.size)), bound_C3=0.0)
    table = rd.guiding_margin(zero, basis32, desk_split, desk_problem, which=1,
                              W_radius=1.0, R_grid=[5.0, 20.0], samples=16, seed=2)
    assert all(margin == 0.0 for _, margin in table.rows)


def test_guiding_margin_sign_mirror(basis32, desk_problem, desk_split, desk_field):
    neg = rd.make_field("-arctan(40)", 1)
    plus = rd.guiding_margin(desk_field, basis32, desk_split, desk_problem, which=1,
                             W_radius=2.0, R_grid=[20.0], samples=16, sign="+", seed=2)
    minus = rd.guiding_margin(neg, basis32, desk_split, desk_problem, which=1,
                              W_radius=2.0, R_grid=[20.0], samples=16, sign="-", seed=2)
    assert plus.rows[0][1] == pytest.approx(minus.rows[0][1], rel=1e-12)


def test_margin_table_csv(basis32, desk_problem, desk_split, desk_field):
    table = rd.guiding_margin(desk_field, basis32, desk_split, desk_problem, which=1,
                              W_radius=1.0, R_grid=[10.0], samples=4, seed=0)
    text = table.to_csv()
    assert text.splitlines()[0] == "R,margin"
    assert len(text.splitlines()) == 2


def test_margin_table_csv_matches_csv_writer():
    import csv
    import io
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2e-310, 1e300,
              -1e300, 1e-300, -1e-300, 0.1, 20.0, -1 / 3]
    rows = tuple(zip(values, values[::-1]))
    buf = io.StringIO()
    writer = csv.writer(buf)  # the formatter the one-pass CSV replaced
    writer.writerow(["R", "margin"])
    for R, margin in rows:
        writer.writerow([f"{R:.17g}", f"{margin:.17g}"])
    assert MarginTable(which=1, sign="+", rows=rows).to_csv() == buf.getvalue()
    assert MarginTable(which=1, sign="+", rows=()).to_csv() == "R,margin\r\n"


def test_ll_report_serialization(basis32, desk_problem, desk_split, desk_field):
    rep = rd.evaluate_LL(desk_field, basis32, desk_split, desk_problem, 1)["LL1+"]
    d = rep.to_dict()
    assert d["condition"] == "LL1+" and d["verdict"] == "holds"


@pytest.mark.parametrize("which", [1, 2])
def test_guiding_margin_matches_sample_loop(basis32, which):
    # the per-sample reference draws in the same order: du, dv, uniform,
    # raw, uniform, then evaluates one state at a time
    cfg = rd.ProblemConfig(m=2, l=1, lam=(float(basis32.mu[0]), float(basis32.mu[1])),
                           sigma=(0.0, 0.0))
    split = rd.classify(basis32, cfg)
    field = rd.make_field("-arctan(40)", 2)
    R_grid, samples, v_radius, W_radius = [2.0, 5.0], 12, 10.0, 3.0
    table = rd.guiding_margin(field, basis32, split, cfg, which=which, W_radius=W_radius,
                              R_grid=R_grid, samples=samples, sign="-", seed=7)
    rng = np.random.default_rng(7)
    main = split.masks["P1" if which == 1 else "P2"]
    other = split.masks["P2" if which == 1 else "P1"]
    out = ~split.masks["Q0"]
    weights = rd.spectral.fractional_weights(basis32, cfg) ** cfg.alpha
    k = which - 1  # block 1 is component 1 (l = 1), block 2 component 2
    for (R, margin), R_ref in zip(table.rows, R_grid):
        worst = np.inf
        for _ in range(samples):
            u, v, w = (np.zeros((2, 32)) for _ in range(3))
            du = rng.normal(size=main.sum())
            u[main] = R_ref * du / np.linalg.norm(du)
            dv = rng.normal(size=other.sum())
            v[other] = dv * (v_radius * rng.uniform() / np.linalg.norm(dv))
            w[out] = rng.normal(size=out.sum())
            w *= W_radius * rng.uniform() / np.sqrt(np.sum((weights * w) ** 2))
            F = rd.galerkin_F(field, basis32, rd.GalerkinState(u + v + w)).coeffs
            worst = min(worst, -float(np.dot(F[k], u[k])))
        assert R == R_ref
        assert margin == pytest.approx(worst, rel=1e-12, abs=1e-14)


# scipy modules that no run imports: numpy Sobol' points stand in for
# scipy.stats, _eigh loads scipy's LAPACK wrappers without scipy.linalg,
# _block_eigh labels its components without scipy.sparse, and _ufuncs loads
# scipy.special's compiled ufuncs without the package, whose __init__ would
# import scipy._lib._array_api (with numpy.testing and numpy.f2py)
_UNLOADED = ("scipy.stats", "scipy.linalg", "scipy.sparse", "scipy._lib._array_api")
# packages that no run imports, though compiled modules under them may load
_PACKAGES = ("scipy.special",)


def _loaded(prefixes) -> str:
    """Python source printing the sorted loaded modules under ``prefixes``,
    and the packages of ``_PACKAGES`` themselves if loaded."""
    return (f"sorted(k for k in sys.modules if k.startswith({tuple(prefixes)!r})"
            f" or k in {_PACKAGES!r})")


def _modules_after_runs(tmp_path, inis: dict, prefixes) -> str:
    """Run each subcommand on its INI text in one fresh process; returns the
    exit codes and the loaded modules under ``prefixes`` as printed."""
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(rd.__file__).resolve().parents[1])
    for name, text in inis.items():
        (tmp_path / f"{name}.ini").write_text(text)
    script = (
        f"import sys; sys.path.insert(0, {src!r}); from resodyn.cli import run_subcommand\n"
        f"codes = [run_subcommand(name, {str(tmp_path)!r} + f'/{{name}}.ini', "
        f"out_dir={str(tmp_path)!r} + f'/out_{{name}}') for name in {tuple(inis)!r}]\n"
        f"print(codes, {_loaded(prefixes)})")
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_stats_unloaded():
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(rd.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {src!r}); import resodyn.cli; "
         f"print({_loaded(_UNLOADED)})"],
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("dim,samples,seed", [(2, 64, 5), (3, 512, 0), (4, 128, 9)])
def test_sphere_directions_match_norm_ppf(dim, samples, seed):
    # ndtri in place of scipy.stats.norm.ppf moves no bit
    from scipy.stats import norm, qmc
    pts = np.clip(qmc.Sobol(d=dim, scramble=True, seed=seed).random(samples),
                  1e-12, 1 - 1e-12)
    g = norm.ppf(pts)
    lens = np.linalg.norm(g, axis=1)
    axes = [sign * np.eye(dim)[i] for i in range(dim) for sign in (1.0, -1.0)]
    expected = np.vstack([axes, g[lens > 0] / lens[lens > 0, None]])
    assert np.array_equal(_sphere_directions(dim, samples, seed), expected)


# index on a 2-D kernel block (the sampled sphere) and the m = 2 connect case
_INDEX_M2 = ("[domain]\nlength = 1.3\nJ = 16\nquad_nodes = 48\n"
             "[system]\nm = 2\nl = 2\nlambda = mu(1), mu(1)\nsigma = 0.5\n"
             "[field]\nname = scaled-arctan(20, 0.5)\n[run]\nll_samples = 64\n")
_CONNECT_M2 = ("[domain]\nlength = 1.0\nJ = 16\nquad_nodes = 48\n"
               "[system]\nm = 2\nl = 2\nlambda = mu(1), mu(1)\nsigma = 0\n"
               "[field]\nname = arctan(45)\n"
               "[run]\ndt = 0.01\nT = 4.0\neps_grid = 0.001, -0.001\nseed = 1005\n"
               "ll_samples = 16\n")
# simulate with 1-D kernel blocks and the m = 1 connect case: no scipy.special
_SIMULATE_M2_L1 = ("[domain]\nlength = 1.0\nJ = 16\nquad_nodes = 48\n"
                   "[system]\nm = 2\nl = 1\nlambda = mu(1), mu(1)\nsigma = 0\n"
                   "[field]\nname = arctan(40)\n"
                   "[run]\ndt = 0.01\nT = 0.2\nseeds = 2\ns_grid = 0, 1\n")
_CONNECT_M1 = ("[domain]\nlength = 1.0\nJ = 16\nquad_nodes = 48\n"
               "[system]\nm = 1\nl = 1\nlambda = mu(1)\nsigma = 0\n"
               "[field]\nname = arctan(45)\n"
               "[run]\ndt = 0.01\nT = 4.0\neps_grid = 0.001, -0.001\nseed = 1000\n")


def test_pipeline_leaves_scipy_stats_unloaded(tmp_path):
    import json
    inis = {"index": _INDEX_M2, "connect": _CONNECT_M2}
    assert _modules_after_runs(tmp_path, inis, _UNLOADED) == "[0, 0] []"
    index = json.loads((tmp_path / "out_index" / "report.json").read_text())
    assert index["stages"]["ll"]["LL1+"]["sampled_only"]
    connect = json.loads((tmp_path / "out_connect" / "report.json").read_text())
    assert connect["stages"]["connect"]["shots"]


def test_pipeline_without_sampled_sphere_leaves_array_api_unloaded(tmp_path):
    # scipy._lib._array_api (with numpy.testing and numpy.f2py) stays out as on
    # the sampled sphere, and a run that needs neither ndtri nor erf loads no
    # scipy.special module at all, not even its compiled ufuncs
    import json
    inis = {"simulate": _SIMULATE_M2_L1, "connect": _CONNECT_M1}
    prefixes = ("scipy.special", *_UNLOADED)
    assert _modules_after_runs(tmp_path, inis, prefixes) == "[0, 0] []"
    simulate = json.loads((tmp_path / "out_simulate" / "report.json").read_text())
    assert simulate["stages"]["simulate"]
    connect = json.loads((tmp_path / "out_connect" / "report.json").read_text())
    assert connect["stages"]["connect"]["shots"]


@pytest.mark.parametrize("dim", [*range(1, 9), 40])
def test_sobol_matches_scipy(dim):
    import warnings
    from scipy.stats import qmc
    for seed in range(10):
        for n in (1, 2, 3, 100, 128, 512, 1000):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                expected = qmc.Sobol(d=dim, scramble=True, seed=seed).random(n)
                got = _sobol(dim, n, seed)
            assert np.array_equal(got, expected), (dim, seed, n)


@pytest.mark.parametrize("n", [1, 2, 3, 100, 128, 1000])
def test_sobol_warns_like_scipy(n):
    import warnings
    from scipy.stats import qmc
    caught = []
    for draw in (lambda: qmc.Sobol(d=3, scramble=True, seed=4).random(n),
                 lambda: _sobol(3, n, 4)):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            draw()
        caught.append([(w.category, str(w.message)) for w in seen])
    assert caught[0] == caught[1]
    assert len(caught[1]) == (0 if n & (n - 1) == 0 else 1)


def _per_sample_margin(field, basis, split, cfg, which, W_radius, R_grid, samples, sign,
                       seed):
    """``guiding_margin`` as it was written before its arithmetic was
    stacked: per sample, ``np.linalg.norm`` divisors, an ``np.sum``
    fractional norm and one ``np.dot`` per block component, added to 0.0 in
    component order; the minimum by ``min``.  The oracle of the stacked
    version, which must match it exactly."""
    from resodyn.resonance import V_RADIUS
    sgn = 1.0 if sign == "+" else -1.0
    rng = np.random.default_rng(seed)
    main = split.masks["P1" if which == 1 else "P2"]
    other = split.masks["P2" if which == 1 else "P1"]
    out = ~split.masks["Q0"]
    n_main, n_other, n_out = int(main.sum()), int(other.sum()), int(out.sum())
    weights = rd.spectral.fractional_weights(basis, cfg) ** cfg.alpha
    lo, hi = (1, cfg.l) if which == 1 else (cfg.l + 1, cfg.m)
    shape = (samples, split.m, split.J)
    rows = []
    for R in R_grid:
        u, v, w = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        for i in range(samples):
            du = rng.normal(size=n_main)
            du /= np.linalg.norm(du)
            u[i][main] = R * du
            if n_other:
                dv = rng.normal(size=n_other)
                dv *= V_RADIUS * rng.uniform() / np.linalg.norm(dv)
                v[i][other] = dv
            if n_out:
                raw = w[i]
                raw[out] = rng.normal(size=n_out)
                frac = np.sqrt(np.sum((weights * raw) ** 2))
                if frac > 0:
                    raw *= W_radius * rng.uniform() / frac
        F = rd.galerkin_F(field, basis, rd.GalerkinState(u + v + w)).coeffs

        def inner(i):
            total = 0.0
            for k in range(lo, hi + 1):
                total += float(np.dot(F[i][k - 1], u[i][k - 1]))
            return total

        rows.append((float(R), float(min((sgn * inner(i) for i in range(samples)),
                                         default=np.inf))))
    return rows


@pytest.mark.parametrize("m,l", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
def test_stacked_guiding_margin_matches_per_sample_loop_exactly(m, l):
    for J, nodes in ((16, 49), (32, 80)):
        basis = rd.build_basis(rd.Domain1D(1.0, nodes), J)
        cfg = rd.ProblemConfig(m=m, l=l, lam=(float(basis.mu[0]),) * m, sigma=(0.0,) * m)
        split = rd.classify(basis, cfg)
        for spec in ("arctan(40)", "-scaled-arctan(30,0.5)"):
            field = rd.make_field(spec, m)
            for which in (1, 2) if l < m else (1,):
                for sign in "+-":
                    for samples in (1, 7):
                        args = (field, basis, split, cfg, which, 2.5, [0.5, 5.0, 40.0],
                                samples, sign, 10 * m + l)
                        rows = rd.guiding_margin(*args[:7], samples=samples, sign=sign,
                                                 seed=args[-1]).rows
                        ref = _per_sample_margin(*args)
                        assert rows == tuple(ref)
                        assert [math.copysign(1, x) for _, x in rows] == [
                            math.copysign(1, x) for _, x in ref]
