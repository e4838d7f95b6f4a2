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


BAD_STATE = rd.GalerkinState(np.ones((1, 31)))
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
]


@pytest.mark.parametrize("call,name", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_bad_argument_raises_configuration_error(exp, call, name):
    with pytest.raises(ConfigurationError, match=name):
        call(exp)


def test_edge_values_stay_accepted(exp):
    """The values at the edge of each domain: no seeds, a zero field bound,
    an uncertified (inf) kernel radius, one draw, and stacked states."""
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
