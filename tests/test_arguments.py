"""Public entries refuse a bad argument with a ConfigurationError that names
it, one bad value per case, on the objects of ``arctan40_resonant.ini``."""

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
