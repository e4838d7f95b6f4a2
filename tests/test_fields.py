import math

import numpy as np
import pytest

import resodyn as rd
from resodyn.errors import ConfigurationError, EvaluationError
from resodyn.fields import SampleGrid


def _custom(m, fn, sigma=None, fp=None, fm=None, bound=None):
    zeros = lambda x: np.zeros((m, x.size))
    return rd.NonlinearField(
        name="custom", m=m, eval=fn,
        sigma=np.zeros(m) if sigma is None else np.asarray(sigma, float),
        f_plus=fp or zeros, f_minus=fm or zeros, bound_C3=bound)


def test_galerkin_F_zero_field(basis32):
    field = _custom(1, lambda x, U, dU: np.zeros_like(U))
    out = rd.galerkin_F(field, basis32, rd.GalerkinState.zeros(1, 32))
    assert np.all(out.coeffs == 0.0)


def test_galerkin_F_constant_field(basis32):
    v = 1.7
    field = _custom(1, lambda x, U, dU: np.full_like(U, v))
    out = rd.galerkin_F(field, basis32, rd.GalerkinState.zeros(1, 32))
    # analytic sine integral: int phi_j = sqrt(2) (1 - (-1)^j) / (j pi)
    for j in range(1, 33):
        expected = v * math.sqrt(2) * (1 - (-1) ** j) / (j * math.pi)
        assert out.coeffs[0, j - 1] == pytest.approx(expected, abs=1e-12)
    assert out.coeffs[0, 0] == pytest.approx(v * 2 * math.sqrt(2) / math.pi, abs=1e-12)


def test_galerkin_F_identity_field(basis32, rng):
    field = _custom(1, lambda x, U, dU: U)
    c = rng.normal(size=(1, 32))
    out = rd.galerkin_F(field, basis32, rd.GalerkinState(c))
    assert np.abs(out.coeffs - c).max() <= 1e-9


def test_galerkin_F_nonfinite_reports_node(basis32):
    def bad(x, U, dU):
        out = np.ones_like(U)
        out[0, 3] = np.inf
        return out
    field = _custom(1, bad)
    with pytest.raises(EvaluationError, match="node"):
        rd.galerkin_F(field, basis32, rd.GalerkinState.zeros(1, 32))


def test_check_bounded_arctan(basis32):
    field = rd.arctan_field(1)
    grid = SampleGrid.default(basis32, 1, seed=3)
    report = rd.check_bounded(field, grid)
    assert report.verdict == "holds"
    assert report.detail.startswith("max |f|")


def test_check_bounded_linear_field_fails(basis32):
    field = _custom(1, lambda x, U, dU: U)
    grid = SampleGrid.default(basis32, 1, seed=3)
    report = rd.check_bounded(field, grid)
    assert report.verdict == "fails"
    # witness sits at the sampling-box edge
    assert abs(report.witness["u"][0]) >= 0.9 * 1e3


def test_check_bounded_product_field(basis32):
    def fn(x, U, dU):
        return np.stack([np.sin(x) * np.cos(U[..., 0, :] + U[..., 1, :])] * 2, axis=-2)

    field = _custom(2, fn, bound=1.0)
    grid = SampleGrid.default(basis32, 2, seed=3)
    assert rd.check_bounded(field, grid).verdict == "holds"


def test_sign_condition_arctan_holds(basis32):
    field = rd.arctan_field(1, gain=40.0)
    grid = SampleGrid.default(basis32, 1, seed=5)
    rep = rd.check_sign_condition(field, 1, "+", lambda x: np.zeros_like(x), grid, l=1)
    assert rep.verdict == "holds"
    assert rep.margin >= 0.0


def test_sign_condition_negated_fails_with_witness(basis32):
    field = rd.negate_field(rd.arctan_field(1))
    grid = SampleGrid.default(basis32, 1, seed=5)
    rep = rd.check_sign_condition(field, 1, "+", lambda x: np.zeros_like(x), grid, l=1)
    assert rep.verdict == "fails"
    assert rep.witness is not None


def test_sign_condition_with_offset_bound(basis32):
    def fn(x, U, dU):
        out = np.zeros_like(U)
        out[0] = np.arctan(U[0]) + 0.1 * np.cos(U[1])
        out[1] = np.arctan(U[1])
        return out
    field = _custom(2, fn)
    grid = SampleGrid.default(basis32, 2, seed=5)
    h = -(math.pi / 2 + 0.1)
    rep = rd.check_sign_condition(field, 1, "+", lambda x: np.full_like(x, h), grid, l=1)
    assert rep.verdict == "holds"


def test_verify_limits_arctan(basis32):
    field = rd.arctan_field(1)
    rep = rd.verify_limits(field, 1, basis=basis32)
    assert rep.verdict == "holds"


def test_verify_limits_degree_one(basis32):
    def fn(x, U, dU):
        return U / (1.0 + U ** 2)
    field = _custom(1, fn, sigma=[1.0],
                    fp=lambda x: np.ones((1, x.size)),
                    fm=lambda x: -np.ones((1, x.size)))
    rep = rd.verify_limits(field, 1, basis=basis32)
    assert rep.verdict == "holds"


def test_verify_limits_gaussian_decay(basis32):
    field = rd.gaussian_decay_field(1)
    rep = rd.verify_limits(field, 1, basis=basis32)
    assert rep.verdict == "holds"


def test_verify_limits_negated_field(basis32):
    field = rd.negate_field(rd.arctan_field(1))
    rep = rd.verify_limits(field, 1, basis=basis32)
    assert rep.verdict == "holds"
    # the declared limits are the negated originals, not the swapped ones
    assert field.f_plus(np.array([0.5]))[0, 0] == pytest.approx(-math.pi / 2)


def test_verify_limits_rejects_wrong_declaration(basis32):
    field = rd.arctan_field(1)
    wrong = rd.NonlinearField(
        name="wrong", m=1, eval=field.eval, sigma=field.sigma,
        f_plus=lambda x: np.zeros((1, x.size)), f_minus=field.f_minus,
        bound_C3=field.bound_C3)
    rep = rd.verify_limits(wrong, 1, basis=basis32)
    assert rep.verdict == "fails"
    assert rep.witness["deviation"] > 1e-3


def test_verify_limits_rejects_small_s(basis32):
    field = rd.arctan_field(1)
    for s in (1e5, float("nan")):
        with pytest.raises(ConfigurationError, match="at least 1e6"):
            rd.verify_limits(field, 1, s=s, basis=basis32)


def test_bounded_field_projection_norm(basis32, desk_split, rng):
    field = rd.arctan_field(1, gain=40.0)
    bound = field.bound_C3 * math.sqrt(1 * basis32.domain.length)
    for _ in range(5):
        u = rd.GalerkinState(rng.normal(size=(1, 32)))
        out = rd.galerkin_F(field, basis32, u)
        assert out.l2_norm() <= bound + 1e-12


def test_catalogue_parsing(basis32):
    f = rd.make_field("arctan(40)", 2)
    assert f.params["gain"] == 40.0 and f.m == 2
    f = rd.make_field("scaled-arctan(2, 0.5)", 1)
    assert f.sigma[0] == 0.5
    f = rd.make_field("gaussian-decay", 1)
    assert f.bound_C3 == 1.0
    f = rd.make_field("constant-kernel(1, 1, 2.5)", 1, basis=basis32)
    assert f.params["amplitude"] == 2.5
    f = rd.make_field("-arctan(40)", 1)
    vals = f.eval(basis32.x[:1], np.array([[3.0]]), np.array([[0.0]]))
    assert vals[0, 0] == -np.arctan(120.0)


def test_catalogue_errors(basis32):
    with pytest.raises(ConfigurationError):
        rd.make_field("constant-kernel(1,1)", 1)  # needs the basis
    with pytest.raises(ConfigurationError):
        rd.make_field("unknown-thing", 1)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("spec", ["arctan(40)", "-arctan(40)", "scaled-arctan(2, 0.5)",
                                  "-scaled-arctan(2, 0.5)", "gaussian-decay",
                                  "-gaussian-decay", "constant-kernel(1, 2, 2.5)",
                                  "-constant-kernel(1, 2, 2.5)"])
def test_catalogue_eval_on_stack_matches_members(basis32, spec, m):
    field = rd.make_field(spec, m, basis=basis32)
    gen = np.random.default_rng(11)
    U = 3.0 * gen.normal(size=(6, m, basis32.x.size))
    dU = gen.normal(size=U.shape)
    stacked = field.eval(basis32.x, U, dU)
    assert stacked.shape == U.shape
    for i in range(U.shape[0]):
        assert np.array_equal(stacked[i], field.eval(basis32.x, U[i], dU[i]))


def test_eval_on_grid_matches_draw_loop(basis32):
    from resodyn.fields import _eval_on_grid
    field = rd.make_field("-scaled-arctan(3, 0.5)", 2)
    grid = SampleGrid.default(basis32, 2, draws=30, seed=9)
    n = grid.x.size
    loop = np.array([field.eval(grid.x, np.repeat(u[:, None], n, axis=1),
                                np.repeat(du[:, None], n, axis=1))
                     for u, du in zip(grid.u_draws, grid.du_draws)])
    assert np.array_equal(_eval_on_grid(field, grid), loop)


def test_galerkin_F_stack_matches_members(basis32):
    field = rd.make_field("arctan(40)", 2)
    c = np.random.default_rng(5).normal(size=(4, 3, 2, 32))
    stacked = rd.galerkin_F(field, basis32, rd.GalerkinState._trusted(c)).coeffs
    assert stacked.shape == c.shape
    for idx in np.ndindex(4, 3):
        one = rd.galerkin_F(field, basis32, rd.GalerkinState(c[idx])).coeffs
        assert np.max(np.abs(stacked[idx] - one)) <= 1e-14 * np.max(np.abs(one))


@pytest.mark.parametrize("spec,k", [("scaled-arctan(2, 0.5)", 2), ("-arctan(40)", 1)])
def test_verify_limits_matches_draw_loop(basis32, spec, k):
    field = rd.make_field(spec, 2)
    grid = SampleGrid.default(basis32, 2, u_box=10.0, du_box=10.0, draws=20, seed=4)
    x, n = grid.x, grid.x.size
    fp, fm = field.f_plus(x)[k - 1], field.f_minus(x)[k - 1]
    s = 1e6
    dev = 0.0
    for uv, duv in zip(grid.u_draws, grid.du_draws):
        for target, sval in ((fp, s), (fm, -s)):
            uvec = uv.copy()
            uvec[k - 1] = sval
            vals = abs(sval) ** field.sigma[k - 1] * field.eval(
                x, np.repeat(uvec[:, None], n, axis=1), np.repeat(duv[:, None], n, axis=1))[k - 1]
            dev = max(dev, float(np.max(np.abs(vals - target))))
    rep = rd.verify_limits(field, k, s=s, grid=grid)
    assert rep.margin == 1e-3 - dev
