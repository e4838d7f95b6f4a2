"""Public entries refuse a bad argument with a ConfigurationError that names
it, one bad value per case, on the objects of ``arctan40_resonant.ini``."""

import inspect
from pathlib import Path

import numpy as np
import pytest

import resodyn as rd
from resodyn.config import load_config
from resodyn.errors import ConfigurationError
from resodyn.semiflow import trajectory_norms

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "arctan40_resonant.ini"


@pytest.fixture(scope="module")
def exp():
    return load_config(CONFIG)


def _box(**radii):
    return rd.HomotopyBox(**{"R0": 1.0, "R1": 1.0, "R2": 1.0, **radii})


def _margin(e, **kwargs):
    return rd.guiding_margin(e.field, e.basis, e.split, e.problem,
                             **{"which": 1, "W_radius": 1.0, "R_grid": [2.0], "samples": 2,
                                **kwargs})


def _grid(e, x=None, u=np.ones((3, 1)), du=np.ones((3, 1))):
    return rd.SampleGrid(e.basis.x if x is None else x, u, du)


def _sign_check(e, k=1, sign="+", l=None):
    return rd.check_sign_condition(e.field, k, sign, lambda x: 0.0, _grid(e), l=l)


def _field(m=1, sigma=(0.0,)):
    return rd.NonlinearField(name="zero", m=m, eval=lambda x, U, dU: np.zeros(np.shape(U)),
                             sigma=sigma, f_plus=None, f_minus=None)


def _settings(**kwargs):
    return rd.IntegratorSettings(**{"dt": 1e-3, "T": 1e-3, **kwargs})


def _march(e, call, s=1.0):
    return call(e.field, e.basis, e.split, e.problem, s, rd.GalerkinState.zeros(1, 32),
                _settings())


def _bounded(e, R1=1.0, R2=1.0):
    zero = rd.GalerkinState.zeros(1, 32)
    trajectory = rd.integrate(e.field, e.basis, e.split, e.problem, 1.0, zero, _settings())
    bounds = rd.apriori_bounds(e.basis, e.split, e.problem, 1.0)
    return rd.check_bounded_solution(trajectory, bounds, R1, R2)


def _shoot(e, eps):
    zero = rd.GalerkinState.zeros(1, 32)
    return rd.shoot_connection(e.field, e.basis, e.split, e.problem, None,
                               rd.GalerkinState.unit(1, 32, 1, 1), eps, _settings(), [zero])


BAD_STATE = rd.GalerkinState(np.ones((1, 31)))
NAN, INF = float("nan"), float("inf")
# (case, call of exp, the name the message must carry)
CASES = [
    ("galerkin_F state", lambda e: rd.galerkin_F(e.field, e.basis, BAD_STATE), "state shape"),
    ("values rows", lambda e: e.basis.values(np.ones((1, 31))), "coefficient shape"),
    ("dvalues rows", lambda e: e.basis.dvalues(np.ones((1, 31))), "coefficient shape"),
    ("project rows", lambda e: e.basis.project(np.ones((1, 79))), "nodal shape"),
    ("linearization state",
     lambda e: rd.discrete_linearization(e.field, e.basis, e.problem, BAD_STATE), "state"),
    ("energy state",
     lambda e: rd.liapunov_energy(e.field, e.basis, e.problem, BAD_STATE), "state"),
    ("norms state",
     lambda e: trajectory_norms(e.basis, e.split, e.problem, np.ones((1, 31))),
     "coefficient shape"),
    ("norms stack",
     lambda e: trajectory_norms(e.basis, e.split, e.problem, np.ones((2, 2, 32))),
     "coefficient shape"),
    ("C6 nan", lambda e: rd.apriori_bounds(e.basis, e.split, e.problem, float("nan")), "C6"),
    ("C6 negative", lambda e: rd.apriori_bounds(e.basis, e.split, e.problem, -1.0), "C6"),
    ("C6 inf", lambda e: rd.apriori_bounds(e.basis, e.split, e.problem, float("inf")), "C6"),
    ("box R0 negative", lambda e: _box(R0=-5.0), "R0"),
    ("box R0 inf", lambda e: _box(R0=float("inf")), "R0"),
    ("box R1 nan", lambda e: _box(R1=float("nan")), "R1"),
    ("box R2 negative", lambda e: _box(R2=-0.5), "R2"),
    ("sample count negative",
     lambda e: rd.sample_states_in_box(e.basis, e.split, e.problem, _box(), count=-1), "count"),
    ("sample count fraction",
     lambda e: rd.sample_states_in_box(e.basis, e.split, e.problem, _box(), count=2.5), "count"),
    ("grid draws 0", lambda e: rd.SampleGrid.default(e.basis, 1, draws=0), "draws"),
    ("grid draws numpy bool", lambda e: rd.SampleGrid.default(e.basis, 1, draws=np.True_), "draws"),
    ("grid u_box 0", lambda e: rd.SampleGrid.default(e.basis, 1, u_box=0.0), "u_box"),
    ("grid u_box nan", lambda e: rd.SampleGrid.default(e.basis, 1, u_box=float("nan")), "u_box"),
    ("grid du_box inf",
     lambda e: rd.SampleGrid.default(e.basis, 1, du_box=float("inf")), "du_box"),
    ("grid du_box negative", lambda e: rd.SampleGrid.default(e.basis, 1, du_box=-1.0), "du_box"),
    ("grid direct no draws", lambda e: _grid(e, u=np.empty((0, 1)), du=np.empty((0, 1))),
     "du_draws"),
    ("grid direct no components", lambda e: _grid(e, u=np.empty((3, 0)), du=np.empty((3, 0))),
     "du_draws"),
    ("grid direct du shape", lambda e: _grid(e, du=np.ones((2, 1))), "du_draws"),
    ("grid direct 1-D draws", lambda e: _grid(e, u=np.ones(3), du=np.ones(3)), "du_draws"),
    ("grid direct nan draw", lambda e: _grid(e, u=np.array([[1.0], [NAN], [0.0]])), "finite"),
    ("grid direct inf du", lambda e: _grid(e, du=np.full((3, 1), -INF)), "finite"),
    ("grid direct 2-D x", lambda e: _grid(e, x=e.basis.x[None, :]), "x must"),
    ("grid direct empty x", lambda e: _grid(e, x=np.empty(0)), "x must"),
    ("margin R negative", lambda e: _margin(e, R_grid=[-5.0]), "R_grid"),
    ("margin R nan", lambda e: _margin(e, R_grid=[2.0, NAN]), "R_grid"),
    ("margin R inf", lambda e: _margin(e, R_grid=[INF]), "R_grid"),
    ("margin W_radius negative", lambda e: _margin(e, W_radius=-3.0), "W_radius"),
    ("margin W_radius nan", lambda e: _margin(e, W_radius=NAN), "W_radius"),
    ("margin W_radius inf", lambda e: _margin(e, W_radius=INF), "W_radius"),
    ("semigroup t negative",
     lambda e: rd.semigroup_apply(e.basis, e.problem, -1.0, rd.GalerkinState(np.ones((1, 32)))),
     "t = "),
    ("semigroup t tiny negative",
     lambda e: rd.semigroup_apply(e.basis, e.problem, -1e-300,
                                  rd.GalerkinState(np.ones((1, 32)))), "t = "),
    ("split labels outside the classes",
     lambda e: rd.SplitIndexSet(labels=[[7, -1, 0]], gap=1.0), "labels"),
    ("classify tol negative", lambda e: rd.classify(e.basis, e.problem, tol=-1.0), "tol = "),
    ("classify tol nan", lambda e: rd.classify(e.basis, e.problem, tol=NAN), "tol = "),
    ("classify tol 0", lambda e: rd.classify(e.basis, e.problem, tol=0.0), "tol = "),
    ("ll direction nan",
     lambda e: rd.ll_functional(e.field, e.basis, e.split, e.problem, 1, [NAN]), "direction"),
    ("ll direction inf",
     lambda e: rd.ll_functional(e.field, e.basis, e.split, e.problem, 1, [-INF]), "direction"),
    ("domain length inf", lambda e: rd.Domain1D(length=INF, quad_nodes=80), "length = "),
    ("domain nodes fraction", lambda e: rd.Domain1D(length=1.0, quad_nodes=48.5), "quad_nodes"),
    ("problem lambda nan",
     lambda e: rd.ProblemConfig(m=1, l=1, lam=(NAN,), sigma=(0.0,)), "lambda_1"),
    ("field m 0", lambda e: rd.make_field("arctan(40)", 0), "m = 0"),
    # whole numbers, indices, [0, 1] values and signs through the shared rules
    ("problem sigma nan",
     lambda e: rd.ProblemConfig(m=1, l=1, lam=(1.0,), sigma=(NAN,)), "sigma must lie in"),
    ("problem m true", lambda e: rd.ProblemConfig(m=True, l=1, lam=(1.0,), sigma=(0.0,)),
     "m = True"),
    ("problem l fraction",
     lambda e: rd.ProblemConfig(m=2, l=1.5, lam=(1.0, 1.0), sigma=(0.0, 0.0)),
     "l must be an integer"),
    ("problem alpha text",
     lambda e: rd.ProblemConfig(m=1, l=1, lam=(1.0,), sigma=(0.0,), alpha="x"), "alpha = "),
    ("sphere fraction", lambda e: rd.HomotopyType.sphere(2.7), "exponent = 2.7"),
    ("sphere bool", lambda e: rd.HomotopyType.sphere(True), "exponent = True"),
    ("homotopy type fraction", lambda e: rd.HomotopyType(2.5), "exponent = 2.5"),
    ("partition d_inf fraction", lambda e: rd.index_partition(2.5, [1], [[1]], ["+"]),
     "d_inf = 2.5"),
    ("partition kernel dim fraction", lambda e: rd.index_partition(2, [1.7], [[1]], ["+"]),
     "kernel_dims = 1.7"),
    ("partition block fraction", lambda e: rd.index_partition(2, [1], [[1.5]], ["+"]),
     r"blocks must be an integer in \[1, 1\], got 1.5"),
    ("partition sign", lambda e: rd.index_partition(2, [1], [[1]], ["x"]), "sign must be"),
    ("verdict d0 fraction",
     lambda e: rd.connection_verdict(rd.CountVector(1, 1, 0), 2.5, "+", "vacuous", True),
     "d0 = 2.5"),
    ("basis J fraction", lambda e: rd.build_basis(e.basis.domain, 2.5), "J = 2.5"),
    ("LL which bool",
     lambda e: rd.evaluate_LL(e.field, e.basis, e.split, e.problem, which=True),
     r"which must be an integer in \[1, 2\], got True"),
    ("LL samples 0",
     lambda e: rd.evaluate_LL(e.field, e.basis, e.split, e.problem, 1, samples=0), "samples"),
    ("ll functional which bool",
     lambda e: rd.ll_functional(e.field, e.basis, e.split, e.problem, True, [1.0]), "which"),
    ("margin which bool", lambda e: _margin(e, which=True),
     r"which must be an integer in \[1, 2\], got True"),
    ("margin sign", lambda e: _margin(e, sign="x"), "sign must be"),
    ("margin samples 0", lambda e: _margin(e, samples=0), "samples"),
    ("sign check l 0", lambda e: _sign_check(e, l=0), "l = 0"),
    ("sign check k bool", lambda e: _sign_check(e, k=True), "k must be"),
    ("sign check sign", lambda e: _sign_check(e, sign="x"), "sign must be"),
    ("limits k bool", lambda e: rd.verify_limits(e.field, True, e.basis), "k must be"),
    ("zeros m fraction", lambda e: rd.GalerkinState.zeros(2.5, 32), "m = 2.5"),
    ("zeros J negative", lambda e: rd.GalerkinState.zeros(1, -1), "J = -1"),
    ("unit m fraction", lambda e: rd.GalerkinState.unit(1.5, 32, 1, 1), "m = 1.5"),
    ("unit J 0", lambda e: rd.GalerkinState.unit(1, 0, 1, 1), "J = 0"),
    ("unit component bool", lambda e: rd.GalerkinState.unit(1, 32, True, 1), "component"),
    ("unit mode bool", lambda e: rd.GalerkinState.unit(1, 32, 1, True), "mode"),
    ("settings dt nan", lambda e: _settings(dt=NAN), "dt = "),
    ("settings T inf", lambda e: _settings(T=INF), "T = "),
    ("settings store_every 0", lambda e: _settings(store_every=0), "store_every"),
    ("settings divergence_threshold text", lambda e: _settings(divergence_threshold="x"),
     "divergence_threshold = "),
    ("field m bool", lambda e: _field(m=True), "m = True"),
    ("field sigma nan", lambda e: _field(sigma=[NAN]), "sigma must lie in"),
    ("grid m 0", lambda e: rd.SampleGrid.default(e.basis, 0), "m = 0"),
    ("bounded R1 negative", lambda e: _bounded(e, R1=-1.0), "R1 = "),
    ("bounded R2 nan", lambda e: _bounded(e, R2=NAN), "R2 = "),
    ("blowup T nan",
     lambda e: rd.blowup_demo(e.basis, e.split, e.problem, rd.GalerkinState.unit(1, 32, 1, 1),
                              NAN), "T = "),
    ("product flow T inf",
     lambda e: rd.product_flow_check(e.field, e.basis, e.split, e.problem,
                                     rd.GalerkinState.zeros(1, 32), INF, _settings()), "T = "),
    ("homotopy field s text",
     lambda e: rd.homotopy_field(e.field, e.basis, e.split, "x", rd.GalerkinState.zeros(1, 32)),
     "s = "),
    ("integrate s text", lambda e: _march(e, rd.integrate, s="x"), "s = "),
    ("ensemble s text",
     lambda e: rd.integrate_ensemble(e.field, e.basis, e.split, e.problem, ["x"],
                                     [rd.GalerkinState.zeros(1, 32)], _settings()), "s = "),
    ("project component", lambda e: rd.project(e.split, "X", rd.GalerkinState.zeros(1, 32)),
     "unknown projection"),
    ("shoot eps nan", lambda e: _shoot(e, NAN), "eps = "),
]


@pytest.mark.parametrize("call,name", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_bad_argument_raises_configuration_error(exp, call, name):
    with pytest.raises(ConfigurationError, match=name):
        call(exp)


def test_edge_values_stay_accepted(exp):
    """The values at the edge of each domain: no seeds, a zero field bound,
    an uncertified (inf) kernel radius, one draw, stacked states, zero
    margin radii and t = 0."""
    assert rd.sample_states_in_box(exp.basis, exp.split, exp.problem, _box(), count=0) == []
    bounds = rd.apriori_bounds(exp.basis, exp.split, exp.problem, 0.0)
    assert bounds.R0_minus == bounds.R0_plus == 0.0
    assert _box(R1=float("inf"), R2=0.0).R1 == float("inf")
    assert rd.SampleGrid.default(exp.basis, 1, draws=1).u_draws.shape == (1, 1)
    assert rd.SampleGrid.default(exp.basis, 1, draws=np.int64(2)).u_draws.shape == (2, 1)
    assert rd.sample_states_in_box(exp.basis, exp.split, exp.problem, _box(),
                                   count=np.int64(0)) == []
    c = np.zeros((3, 1, 32))
    assert trajectory_norms(exp.basis, exp.split, exp.problem, c).shape == (3, 6)
    assert rd.galerkin_F(exp.field, exp.basis, rd.GalerkinState._trusted(c)).coeffs.shape == c.shape
    assert exp.basis.values(c).shape == (3, 1, exp.basis.x.size)
    # simulate passes W_radius = max(R0_minus, R0_plus), which can be 0
    assert len(_margin(exp, W_radius=0.0, R_grid=[0.0, 2.0]).rows) == 2
    assert _grid(exp, u=np.zeros((1, 1)), du=np.zeros((1, 1))).u_draws.shape == (1, 1)
    state = rd.GalerkinState(np.ones((1, 32)))
    assert np.array_equal(rd.semigroup_apply(exp.basis, exp.problem, 0.0, state).coeffs,
                          state.coeffs)
    # a whole float or numpy node count, a negative shift, a tiny tolerance
    assert rd.Domain1D(length=1.0, quad_nodes=np.int64(48)).quad_nodes == 48
    assert rd.Domain1D(length=1.0, quad_nodes=48.0).quad_nodes == 48
    assert rd.ProblemConfig(m=1, l=1, lam=(-2.5,), sigma=(0.0,)).lam == (-2.5,)
    assert rd.classify(exp.basis, exp.problem, tol=1e-300).m == 1
    # whole floats and numpy integers are counts and indices, stored as int
    for count in (2.0, np.int64(3)):
        store_every = _settings(store_every=count).store_every
        assert store_every == count and type(store_every) is int
    assert rd.HomotopyType.sphere(np.int64(3)) == rd.HomotopyType.sphere(3)
    assert str(rd.HomotopyType.sphere(np.int64(3))) == "Sphere(3)"
    for which in (1.0, np.int64(1)):
        reports = rd.evaluate_LL(exp.field, exp.basis, exp.split, exp.problem, which=which)
        assert list(reports) == ["LL1+", "LL1-"]
        assert [r.condition for r in reports.values()] == ["LL1+", "LL1-"]


# (entry, parameter) pairs of resodyn.__all__ whose parameter is a state
# count, an index, a real, a [0, 1] value, a radius, a time or a sign
SWEPT = set("m l J k component mode which count samples draws quad_nodes store_every d0 d_inf "
            "kernel_dims length lam sigma alpha dt T t tol C6 W_radius R_grid R0 R1 R2 u_box "
            "du_box divergence_threshold eps s s_values sign signs".split())
# the pairs that a row of CASES refuses a bad value of
COVERED = {
    ("Domain1D", "length"), ("Domain1D", "quad_nodes"),
    ("GalerkinState.zeros", "m"), ("GalerkinState.zeros", "J"),
    ("GalerkinState.unit", "m"), ("GalerkinState.unit", "J"),
    ("GalerkinState.unit", "component"), ("GalerkinState.unit", "mode"),
    ("HomotopyBox", "R0"), ("HomotopyBox", "R1"), ("HomotopyBox", "R2"),
    ("HomotopyType.sphere", "k"),
    ("IntegratorSettings", "dt"), ("IntegratorSettings", "T"),
    ("IntegratorSettings", "store_every"), ("IntegratorSettings", "divergence_threshold"),
    ("NonlinearField", "m"), ("NonlinearField", "sigma"),
    ("ProblemConfig", "m"), ("ProblemConfig", "l"), ("ProblemConfig", "lam"),
    ("ProblemConfig", "sigma"), ("ProblemConfig", "alpha"),
    ("SampleGrid.default", "m"), ("SampleGrid.default", "u_box"),
    ("SampleGrid.default", "du_box"), ("SampleGrid.default", "draws"),
    ("apriori_bounds", "C6"), ("blowup_demo", "T"), ("build_basis", "J"),
    ("check_bounded_solution", "R1"), ("check_bounded_solution", "R2"),
    ("check_sign_condition", "k"), ("check_sign_condition", "sign"),
    ("check_sign_condition", "l"), ("classify", "tol"), ("connection_verdict", "d0"),
    ("evaluate_LL", "which"), ("evaluate_LL", "samples"),
    ("guiding_margin", "which"), ("guiding_margin", "W_radius"), ("guiding_margin", "R_grid"),
    ("guiding_margin", "samples"), ("guiding_margin", "sign"),
    ("homotopy_field", "s"), ("index_partition", "d_inf"), ("index_partition", "kernel_dims"),
    ("index_partition", "signs"), ("integrate", "s"), ("integrate_ensemble", "s_values"),
    ("ll_functional", "which"), ("make_field", "m"), ("product_flow_check", "T"),
    ("project", "component"), ("sample_states_in_box", "count"), ("semigroup_apply", "t"),
    ("shoot_connection", "eps"), ("verify_limits", "k"),
}
# the pairs that no entry checks, each with the reason
NOT_CHECKED = {
    ("AprioriBounds", "C6"): "a record that apriori_bounds builds from a checked C6",
    ("AprioriBounds", "alpha"): "a record that apriori_bounds builds from ProblemConfig.alpha",
    ("CountVector", "d_inf"): "a record that counts builds from a split",
    ("LLReport", "samples"): "a record that evaluate_LL builds",
    ("MarginTable", "which"): "a record that guiding_margin builds from a checked which",
    ("MarginTable", "sign"): "a record that guiding_margin builds from a checked sign",
    ("SpectralBasis", "J"): "a record that build_basis builds from a checked J",
    ("Trajectory", "s"): "a record that the march builds from a checked s",
}


def _swept_pairs():
    """Every (entry, parameter) pair in SWEPT of the functions, the class
    constructors and the public classmethods of resodyn.__all__."""
    pairs = set()
    for name in rd.__all__:
        obj = getattr(rd, name)
        if inspect.isclass(obj) and not issubclass(obj, BaseException):
            entries = [(name, obj)] + [(f"{name}.{attr}", getattr(obj, attr))
                                       for attr, raw in vars(obj).items()
                                       if isinstance(raw, classmethod) and attr[0] != "_"]
        elif inspect.isfunction(obj):
            entries = [(name, obj)]
        else:
            continue
        pairs |= {(entry, p) for entry, call in entries
                  for p in inspect.signature(call).parameters if p in SWEPT}
    return pairs


def test_every_swept_argument_has_a_case_or_a_reason():
    pairs = _swept_pairs()
    assert not COVERED & NOT_CHECKED.keys()
    assert not pairs - COVERED - NOT_CHECKED.keys(), "add a CASES row or a NOT_CHECKED reason"
    assert not (COVERED | NOT_CHECKED.keys()) - pairs, "stale pairs in COVERED or NOT_CHECKED"
