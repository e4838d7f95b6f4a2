import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

import resodyn as rd
from resodyn.errors import ConfigurationError, EvaluationError
from resodyn.fields import _DEFAULTS, SampleGrid


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


def _nodal_scan_message(basis, fv):
    """The message of the nodal finite scan that galerkin_F ran on every call
    before it checked the coefficients first."""
    *_, k, i = np.argwhere(~np.isfinite(fv))[0]
    return f"non-finite field value in component {k + 1} at node x={basis.x[i]:.6g}"


@pytest.mark.parametrize("nodes", [80, 81])
def test_galerkin_F_nonfinite_anywhere_names_the_first_node(nodes):
    # a non-finite value at any node of any row makes its coefficients
    # non-finite, so the coefficient check never lets one through, and the
    # nodal scan behind it names what the old per-call scan named
    basis = rd.build_basis(rd.Domain1D(1.0, nodes), 16)
    gen = np.random.default_rng(nodes)
    clean = 0.5 * gen.normal(size=(3, 2, nodes))
    for bad in (np.nan, np.inf, -np.inf):
        for row in range(3):
            for k in range(2):
                for i in range(nodes):
                    fv = clean.copy()
                    fv[row, k, i] = bad
                    fv[2, 1, (i + 7) % nodes] = -bad  # a second one, later in C order
                    field = _custom(2, lambda x, U, dU, fv=fv: fv)
                    # inf - inf in the fold warns before the error
                    with np.errstate(invalid="ignore"), pytest.raises(EvaluationError) as err:
                        rd.galerkin_F(field, basis, rd.GalerkinState(np.zeros((3, 2, 16))))
                    assert str(err.value) == _nodal_scan_message(basis, fv)


def test_galerkin_F_quadrature_overflow_is_returned():
    # every nodal value finite, the quadrature sum overflows: returned as
    # before, with the non-finite coefficients for the march's guard to see
    basis = rd.build_basis(rd.Domain1D(1.0, 81), 16)
    field = _custom(1, lambda x, U, dU: np.full_like(U, 1.5e308))
    with np.errstate(over="ignore", invalid="ignore"):
        out = rd.galerkin_F(field, basis, rd.GalerkinState.zeros(1, 16))
    assert not np.isfinite(out.coeffs).all()


def test_check_bounded_arctan(basis32):
    field = rd.make_field("arctan(1)", 1)
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
    field = rd.make_field("arctan(40)", 1)
    grid = SampleGrid.default(basis32, 1, seed=5)
    rep = rd.check_sign_condition(field, 1, "+", lambda x: np.zeros_like(x), grid, l=1)
    assert rep.verdict == "holds"
    assert rep.margin >= 0.0


def test_sign_condition_negated_fails_with_witness(basis32):
    field = rd.make_field("-arctan(1)", 1)
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


@pytest.mark.parametrize("h_k", [lambda x: np.zeros(3), lambda x: np.zeros((2, x.size)),
                                 lambda x: np.full_like(x, np.nan), lambda x: math.inf],
                         ids=["shape-3", "shape-2n", "nan", "inf"])
def test_sign_condition_rejects_a_bad_h_k(basis32, h_k):
    field = rd.make_field("arctan(40)", 1)
    grid = SampleGrid.default(basis32, 1, seed=5)
    with pytest.raises(ConfigurationError, match="h_k"):
        rd.check_sign_condition(field, 1, "+", h_k, grid, l=1)


def test_sign_condition_takes_h_k_as_one_value_or_one_per_node(basis32):
    field = rd.make_field("arctan(40)", 1)
    grid = SampleGrid.default(basis32, 1, seed=5)
    per_node = rd.check_sign_condition(field, 1, "+", lambda x: np.full_like(x, -0.5), grid)
    assert per_node == rd.check_sign_condition(field, 1, "+", lambda x: -0.5, grid)


def test_verify_limits_arctan(basis32):
    field = rd.make_field("arctan(1)", 1)
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
    field = rd.make_field("gaussian-decay", 1)
    rep = rd.verify_limits(field, 1, basis=basis32)
    assert rep.verdict == "holds"


def test_verify_limits_negated_field(basis32):
    field = rd.make_field("-arctan(1)", 1)
    rep = rd.verify_limits(field, 1, basis=basis32)
    assert rep.verdict == "holds"
    # the declared limits are the negated originals, not the swapped ones
    assert field.f_plus(np.array([0.5]))[0, 0] == pytest.approx(-math.pi / 2)


def test_verify_limits_rejects_wrong_declaration(basis32):
    field = rd.make_field("arctan(1)", 1)
    wrong = rd.NonlinearField(
        name="wrong", m=1, eval=field.eval, sigma=field.sigma,
        f_plus=lambda x: np.zeros((1, x.size)), f_minus=field.f_minus,
        bound_C3=field.bound_C3)
    rep = rd.verify_limits(wrong, 1, basis=basis32)
    assert rep.verdict == "fails"
    assert rep.witness["deviation"] > 1e-3


def _one_based_calls(basis):
    """Each 1-based argument: its name, its top value, and a call with it."""
    field = rd.make_field("arctan(1)", 2)
    grid = SampleGrid.default(basis, 2, draws=5)
    return {
        "verify_limits": ("k", 2, lambda v: rd.verify_limits(field, v, basis=basis)),
        "check_sign_condition": (
            "k", 2, lambda v: rd.check_sign_condition(field, v, "+", np.zeros_like, grid)),
        "unit-component": ("component", 2, lambda v: rd.GalerkinState.unit(2, 32, v, 1)),
        "unit-mode": ("mode", 32, lambda v: rd.GalerkinState.unit(2, 32, 1, v)),
        "constant-kernel-component": (
            "component", 2, lambda v: rd.make_field(f"constant-kernel({v},1,1)", 2, basis=basis)),
        "constant-kernel-mode": (
            "mode", 32, lambda v: rd.make_field(f"constant-kernel(1,{v},1)", 2, basis=basis)),
    }


@pytest.mark.parametrize("where", ["verify_limits", "check_sign_condition", "unit-component",
                                   "unit-mode", "constant-kernel-component",
                                   "constant-kernel-mode"])
@pytest.mark.parametrize("past", ["zero", "minus-one", "top-plus-one"])
def test_one_based_argument_out_of_range_raises(basis32, where, past):
    # 0 and -1 once wrapped to the last component or mode, and top + 1
    # raised a bare IndexError
    name, top, call = _one_based_calls(basis32)[where]
    call(1)
    call(top)
    value = {"zero": 0, "minus-one": -1, "top-plus-one": top + 1}[past]
    with pytest.raises(ConfigurationError,
                       match=rf"^{name} must be an integer in \[1, {top}\], got {value}$"):
        call(value)


def test_bounded_field_projection_norm(basis32, desk_split, rng):
    field = rd.make_field("arctan(40)", 1)
    bound = field.bound_C3 * math.sqrt(1 * basis32.domain.length)
    for _ in range(5):
        u = rd.GalerkinState(rng.normal(size=(1, 32)))
        out = rd.galerkin_F(field, basis32, u)
        assert out.l2_norm() <= bound + 1e-12


def test_catalogue_parsing(basis32):
    f = rd.make_field("arctan(40)", 2)
    assert f.name == "arctan(40)" and f.m == 2
    f = rd.make_field("scaled-arctan(2, 0.5)", 1)
    assert f.sigma[0] == 0.5
    f = rd.make_field("gaussian-decay", 1)
    assert f.bound_C3 == 1.0
    f = rd.make_field("constant-kernel(1, 1, 2.5)", 1, basis=basis32)
    assert f.name == "constant-kernel(1,1,2.5)"
    f = rd.make_field("-arctan(40)", 1)
    vals = f.eval(basis32.x[:1], np.array([[3.0]]), np.array([[0.0]]))
    assert vals[0, 0] == -np.arctan(120.0)


def test_catalogue_errors(basis32):
    with pytest.raises(ConfigurationError):
        rd.make_field("constant-kernel(1,1)", 1)  # needs the basis
    with pytest.raises(ConfigurationError):
        rd.make_field("unknown-thing", 1)


@pytest.mark.parametrize("spec,message", [
    ("arctan(1,2,3)", r"exactly 1 \(gain\), got 3"),
    ("scaled-arctan(2)", r"exactly 2 \(gain, sigma\), got 1"),
    ("constant-kernel(1)", r"exactly 3 \(component, mode, amplitude\), got 1"),
    ("constant-kernel(1.5, 1)", "exactly 3"),
    ("constant-kernel(1.5, 1, 1)", r"component must be an integer in \[1, 2\], got 1.5"),
    ("constant-kernel(1, 2.5, 1)", r"mode must be an integer in \[1, 32\], got 2.5"),
    ("arctan(inf)", "gain must be finite"),
    ("arctan(nan)", "gain must be finite"),
    ("-constant-kernel(1, 1, nan)", "amplitude must be finite"),
    ("scaled-arctan(0, 0.5)", "gain must be nonzero"),
    ("gaussian-decay(2)", r"sigma must lie in \[0, 1\], got 2"),
    ("gaussian-decay(-0.5)", r"sigma must lie in \[0, 1\]"),
    ("arctan(x)", "cannot parse the arguments"),
])
def test_make_field_rejects_bad_arguments(basis32, spec, message):
    with pytest.raises(ConfigurationError, match=message):
        rd.make_field(spec, 2, basis=basis32)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("spec", [*_DEFAULTS, "arctan(-40)", "scaled-arctan(-3, 0.25)",
                                  "gaussian-decay(0.25)", "constant-kernel(1, 2, -2.5)"])
def test_negation_is_exact_flip(basis32, spec, m):
    field = rd.make_field(spec, m, basis=basis32)
    neg = rd.make_field("-" + spec, m, basis=basis32)
    x = basis32.x
    U = 3.0 * np.random.default_rng(3).normal(size=(4, m, x.size))
    U[0, :, :4], U[1, :, :4] = 0.0, -0.0
    dU = np.zeros_like(U)
    assert neg.name == f"-({field.name})"
    assert _same_bits(neg.eval(x, U, dU), -field.eval(x, U, dU))
    assert _same_bits(neg.f_plus(x), -field.f_plus(x))
    assert _same_bits(neg.f_minus(x), -field.f_minus(x))
    assert _same_bits(neg.jac0, -field.jac0)
    assert _same_bits(neg.sigma, field.sigma) and neg.bound_C3 == field.bound_C3
    assert (neg.potential is None) == (field.potential is None)
    if field.potential is not None:
        assert _same_bits(neg.potential(x, U[2]), -field.potential(x, U[2]))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("spec", [*_DEFAULTS, *("-" + name for name in _DEFAULTS)])
def test_catalogue_declarations_hold(basis32, spec, m):
    field = rd.make_field(spec, m, basis=basis32)
    for k in range(1, m + 1):
        assert rd.verify_limits(field, k, basis=basis32).verdict == "holds"
    if field.potential is not None:
        rd.validate_potential(field)


def test_readme_catalogue_matches_make_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Field catalogue", 1)[1].split("\n## ", 1)[0]
    forms = re.findall(r"^\| `([a-z-]+)\(([^)]*)\)`", section, flags=re.M)
    assert {name: len(args.split(",")) for name, args in forms} == {
        name: len(defaults) for name, defaults in _DEFAULTS.items()}


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
    from resodyn.fields import _grid_values
    field = rd.make_field("-scaled-arctan(3, 0.5)", 2)
    grid = SampleGrid.default(basis32, 2, draws=30, seed=9)
    n = grid.x.size
    loop = np.array([field.eval(grid.x, np.repeat(u[:, None], n, axis=1),
                                np.repeat(du[:, None], n, axis=1))
                     for u, du in zip(grid.u_draws, grid.du_draws)])
    on_grid = np.broadcast_to(_grid_values(field, grid), grid.u_draws.shape + grid.x.shape)
    assert np.array_equal(on_grid, loop)


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
    rep = rd.verify_limits(field, k, basis=basis32, seed=4)
    assert rep.margin == 1e-3 - dev


def _count_derivative_folds(monkeypatch):
    """Count nodal derivative evaluations, public or inside galerkin_F, at
    the fold body that both run."""
    calls = []
    fold = rd.SpectralBasis._fold_blocks

    def counted(self, cs, ca, tables, flip, halves):
        calls.append(flip)
        return fold(self, cs, ca, tables, flip, halves)

    monkeypatch.setattr(rd.SpectralBasis, "_fold_blocks", counted)
    return calls


@pytest.mark.parametrize("spec", [*_DEFAULTS, *("-" + name for name in _DEFAULTS)])
def test_catalogue_fields_skip_derivative(basis32, spec, monkeypatch):
    field = rd.make_field(spec, 2, basis=basis32)
    seen = []
    ev = field.eval
    field.eval = lambda x, U, dU: seen.append(dU) or ev(x, U, dU)
    calls = _count_derivative_folds(monkeypatch)
    c = np.random.default_rng(2).normal(size=(5, 2, 32))
    rd.galerkin_F(field, basis32, rd.GalerkinState._trusted(c))
    assert field.reads_du is False
    assert calls == [False] and seen == [None]


def test_custom_field_keeps_derivative(basis32, monkeypatch):
    field = _custom(2, lambda x, U, dU: dU)
    assert field.reads_du
    calls = _count_derivative_folds(monkeypatch)
    c = np.random.default_rng(4).normal(size=(2, 32))
    F = rd.galerkin_F(field, basis32, rd.GalerkinState(c)).coeffs
    assert calls == [False, True]
    assert np.array_equal(F, basis32.project(basis32.dvalues(c)))


def test_fields_without_derivative_get_no_du_in_the_checks(basis32):
    seen = []

    def ev(x, U, dU):
        assert dU is None
        seen.append(U.shape)
        return np.arctan(U)

    field = rd.NonlinearField(
        name="no-du", m=2, eval=ev, sigma=np.zeros(2),
        f_plus=lambda x: np.full((2, x.size), np.pi / 2),
        f_minus=lambda x: np.full((2, x.size), -np.pi / 2), bound_C3=np.pi / 2,
        potential=lambda x, U: np.sum(U * np.arctan(U) - 0.5 * np.log1p(U ** 2), axis=0),
        reads_du=False)
    for k in (1, 2):
        assert rd.verify_limits(field, k, basis=basis32).verdict == "holds"
    rd.validate_potential(field)
    cfg = _linearization_config(basis32)
    lin = rd.LinearizationData.from_field(field, cfg)
    assert np.allclose(lin.G, np.eye(2), atol=1e-8)
    assert len(seen) == 4


def _linearization_config(basis):
    return rd.ProblemConfig(m=2, l=1, lam=(float(basis.mu[0]), float(basis.mu[1])),
                            sigma=(0.0, 0.0))


@pytest.mark.parametrize("spec", [*_DEFAULTS, *("-" + name for name in _DEFAULTS)])
def test_linearization_skips_derivative(basis32, spec, monkeypatch):
    field = rd.make_field(spec, 2, basis=basis32)
    seen = []
    ev = field.eval
    field.eval = lambda x, U, dU: seen.append(dU) or ev(x, U, dU)
    calls = _count_derivative_folds(monkeypatch)
    at = rd.GalerkinState(0.3 * np.random.default_rng(6).normal(size=(2, 32)))
    rd.discrete_linearization(field, basis32, _linearization_config(basis32), at)
    assert True not in calls
    assert seen == [None]


def test_linearization_keeps_derivative_for_custom_field(basis32, monkeypatch):
    seen = []
    field = _custom(2, lambda x, U, dU: seen.append(dU) or np.sin(U) + 0.1 * dU)
    assert field.reads_du
    calls = _count_derivative_folds(monkeypatch)
    c = 0.3 * np.random.default_rng(7).normal(size=(2, 32))
    rd.discrete_linearization(field, basis32, _linearization_config(basis32),
                              rd.GalerkinState(c))
    assert calls.count(True) == 1
    dU, = seen
    assert dU.shape == (2, 2, 2, basis32.x.size)
    assert np.array_equal(dU, np.broadcast_to(basis32.dvalues(c), dU.shape))


_CATALOGUE = [*_DEFAULTS, "arctan(-40)", "scaled-arctan(3, 0.25)", "gaussian-decay(1)",
              "constant-kernel(1, 2, -2.5)"]


@pytest.mark.parametrize("spec", [*_CATALOGUE, *("-" + spec for spec in _CATALOGUE)])
def test_reads_x_declaration(basis32, spec):
    """Values and limits on two different node sets are equal exactly when
    the field declares that it does not read x; of the catalogue, only
    constant-kernel reads x."""
    field = rd.make_field(spec, 2, basis=basis32)
    assert field.reads_x is ("constant-kernel" in spec)
    x1, x2 = basis32.x, 0.5 * basis32.x[::-1] + 0.1
    U = 3.0 * np.random.default_rng(8).normal(size=(3, 2, x1.size))
    same = [np.array_equal(a(x1), a(x2)) for a in (
        lambda x: field.eval(x, U, None), field.f_plus, field.f_minus)]
    assert same == [not field.reads_x] * 3


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("spec", [*_CATALOGUE, *("-" + spec for spec in _CATALOGUE)])
def test_odd_declaration(basis32, spec, m):
    """A field that declares ``odd`` maps -U to the negation of its value
    at U, value for value and every nonzero value bit for bit, on draws with
    signed zeros, subnormals, huge and infinite values; of the catalogue,
    arctan and scaled-arctan (and their negations) are odd, gaussian-decay
    and constant-kernel are not.  The catalogue's odd fields are odd in
    every bit, zeros included: -0.0 maps to a zero with the sign of the
    slope at 0, so arctan(40) maps -0.0 to -0.0."""
    field = rd.make_field(spec, m, basis=basis32)
    assert field.odd is ("arctan" in spec)
    if not field.odd:
        return
    x = basis32.x
    tiny = np.finfo(float).smallest_subnormal
    special = [0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-310, 1e300, -1e300, np.inf, -np.inf]
    U = 3.0 * np.random.default_rng(m).normal(size=(3, m, x.size))
    U.reshape(-1)[:len(special)] = special
    U.reshape(-1)[-len(special):] = special[::-1]
    with np.errstate(over="ignore"):  # scaled-arctan squares 1e300
        mirrored, negated = field.eval(x, -U, None), -field.eval(x, U, None)
    nonzero = negated != 0
    assert np.array_equal(mirrored, negated)
    assert _same_bits(mirrored[nonzero], negated[nonzero])
    assert _same_bits(mirrored, negated)
    at_zero = field.eval(x, np.full((m, x.size), -0.0), None)
    assert _same_bits(at_zero, np.full((m, x.size), -0.0 if field.jac0[0, 0] > 0 else 0.0))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("spec", [*_CATALOGUE, *("-" + spec for spec in _CATALOGUE)])
def test_componentwise_declaration(basis32, spec, m):
    """Every catalogue field declares ``componentwise``: perturbing u_k, by
    a small step or a large one, moves f_k only, and every other
    component's values keep their bits; a field of your own keeps the
    default, False."""
    field = rd.make_field(spec, m, basis=basis32)
    assert field.componentwise
    x = basis32.x
    U = 3.0 * np.random.default_rng(m).normal(size=(m, x.size))
    base = field.eval(x, U, None)
    for k in range(m):
        for step in (1e-6, 10.0):
            moved = U.copy()
            moved[k] += step
            f = field.eval(x, moved, None)
            others = np.arange(m) != k
            assert _same_bits(f[others], base[others])
    assert _custom(m, lambda x, U, dU: np.zeros_like(U)).componentwise is False


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("spec", [*_CATALOGUE, *("-" + spec for spec in _CATALOGUE)])
def test_checks_at_one_node_match_every_node(basis32, spec, m):
    """The sampled checks of a field that does not read x (one node per
    draw) give the reports of the same field evaluated on every node: the
    same verdicts, margins, witnesses and details, bit for bit, with h_k one
    value, one per node or varying by node, and with no declared C3 or a
    violated one."""
    fast = rd.make_field(spec, m, basis=basis32)
    slow = dataclasses.replace(fast, reads_x=True)
    grid = SampleGrid.default(basis32, m, draws=40, seed=m)
    h_ks = [lambda x: 0.0, lambda x: np.full(x.size, 0.3), lambda x: 0.3 * np.sin(np.pi * x),
            lambda x: np.where(x < 0.5, 0.0, -0.0), lambda x: -1.0]

    def reports(field):
        out = [rd.check_bounded(field, grid),
               rd.check_bounded(dataclasses.replace(field, bound_C3=None), grid),
               rd.check_bounded(dataclasses.replace(field, bound_C3=0.0), grid)]
        out += [rd.check_sign_condition(field, k, sign, h_k, grid, l=1)
                for k in range(1, m + 1) for sign in "+-" for h_k in h_ks]
        out += [rd.verify_limits(field, k, basis=basis32, seed=m) for k in range(1, m + 1)]
        return [repr(r.to_dict()) for r in out]

    fast_reports = reports(fast)
    assert fast_reports == reports(slow)
    # the comparison covers failing verdicts and their witnesses
    assert "'verdict': 'fails'" in fast_reports[2] and "'witness': {" in fast_reports[2]
    assert any("'verdict': 'fails'" in r for r in fast_reports[3:])
    assert all(f"{40 * grid.x.size} samples" in r for r in fast_reports[3:-m])
