"""The split nodal layout (``SpectralBasis._blocks``): a field that does not
read x is evaluated, at an even node count, on the two mirrored halves of
the nodes, U of shape (2, ..., m, nq/2).  Every result is bit for bit that
of the natural layout, which the same field declared to read x gets."""

from dataclasses import replace

import numpy as np
import pytest

import resodyn as rd
from resodyn.errors import EvaluationError
from resodyn.fields import _ROWS

_SPECS = [*_ROWS, *("-" + name for name in _ROWS)]


def _du_field(m):
    """A field free of x that reads u'."""
    return rd.NonlinearField(name="arctan(40u)+tanh(u')/10", m=m,
                             eval=lambda x, U, dU: np.arctan(40 * U) + 0.1 * np.tanh(dU),
                             sigma=np.zeros(m), f_plus=None, f_minus=None, reads_x=False)


def _system(nodes, m):
    # component 1 resonant at mode 1, component 2 off resonance, component 3
    # resonant at mode 2; J = 32 where the nodes allow it (2 J + 16 <= nq)
    basis = rd.build_basis(rd.Domain1D(1.0, nodes), (nodes - 16) // 2)
    lam = (float(basis.mu[0]), 3.0, float(basis.mu[1]))[:m]
    cfg = rd.ProblemConfig(m=m, l=1, lam=lam, sigma=(0.0,) * m)
    return basis, rd.classify(basis, cfg), cfg


def _same_bits(a, b):
    """Equal shapes and equal float64 bytes: -0.0 differs from +0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("spec", [*_SPECS, "du-reader"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("nodes", [48, 80])
def test_split_layout_matches_the_natural_one_bit_for_bit(nodes, m, spec):
    basis, split, cfg = _system(nodes, m)
    J = basis.J
    fast = _du_field(m) if spec == "du-reader" else rd.make_field(spec, m)
    slow = replace(fast, reads_x=True)
    assert fast.reads_x is False
    gen = np.random.default_rng(nodes + 10 * m)

    # galerkin_F on one state, a (B, m, J) stack and an (S, B, m, J) stack
    for shape in ((m, J), (5, m, J), (3, 4, m, J)):
        c = gen.normal(size=shape)
        c.reshape(-1)[0] = -0.0
        state = rd.GalerkinState._trusted(c)
        assert _same_bits(rd.galerkin_F(fast, basis, state).coeffs,
                          rd.galerkin_F(slow, basis, state).coeffs)

    # homotopy_field at mixed s
    s = np.array([0.0, 0.25, 0.5, 1.0, 0.75, 0.0])
    state = rd.GalerkinState._trusted(gen.normal(size=(s.size, m, J)))
    assert _same_bits(rd.homotopy_field(fast, basis, split, s, state).coeffs,
                      rd.homotopy_field(slow, basis, split, s, state).coeffs)

    # a 50-step march at mixed s
    settings = rd.IntegratorSettings(dt=1e-3, T=0.05, store_every=10)
    states = [rd.GalerkinState(0.3 * gen.normal(size=(m, J))) for _ in range(4)]
    s_march = [0.0, 0.3, 1.0, 0.6]
    for a, b in zip(rd.integrate_ensemble(fast, basis, split, cfg, s_march, states, settings),
                    rd.integrate_ensemble(slow, basis, split, cfg, s_march, states, settings)):
        assert a.diverged == b.diverged
        assert _same_bits(a.times, b.times) and _same_bits(a.coeffs, b.coeffs)
        assert _same_bits(a.norms, b.norms)

    # a Newton search
    seeds = [rd.GalerkinState(0.05 * gen.normal(size=(m, J)))]
    seeds += [rd.GalerkinState.unit(m, J, 1, 2, a) for a in (0.05, -0.05)]
    eq_fast = rd.find_equilibria(fast, basis, split, cfg, seeds)
    eq_slow = rd.find_equilibria(slow, basis, split, cfg, seeds)
    assert len(eq_fast) == len(eq_slow)
    for a, b in zip(eq_fast, eq_slow):
        assert _same_bits(a.state.coeffs, b.state.coeffs) and a.residual == b.residual
        assert _same_bits(a.linearization, b.linearization)
        assert len(a.unstable) == len(b.unstable)
        for (rate_a, d_a), (rate_b, d_b) in zip(a.unstable, b.unstable):
            assert rate_a == rate_b and _same_bits(d_a.coeffs, d_b.coeffs)


def _seen(field):
    """Record the shapes of x, U and dU of every evaluation of ``field``."""
    seen, ev = [], field.eval

    def recording(x, U, dU):
        seen.append((x.copy(), U.shape, None if dU is None else dU.shape))
        return ev(x, U, dU)

    field.eval = recording
    return seen


@pytest.mark.parametrize("reads_du", [False, True])
@pytest.mark.parametrize("reads_x", [False, True])
@pytest.mark.parametrize("nodes", [48, 49])
def test_evaluation_layout_follows_reads_x_and_node_parity(nodes, reads_x, reads_du):
    # the split layout is the fast path: a later change must not drop it
    # silently, nor hand it a field that reads x or an odd node count
    m, B, S = 2, 3, 2
    basis, split, cfg = _system(nodes, m)
    J, half = basis.J, nodes // 2
    field = rd.NonlinearField(name="arctan", m=m, eval=lambda x, U, dU: np.arctan(U),
                              sigma=np.zeros(m), f_plus=None, f_minus=None,
                              reads_du=reads_du, reads_x=reads_x)
    seen = _seen(field)
    for lead in ((), (B,), (S, B)):
        rd.galerkin_F(field, basis, rd.GalerkinState._trusted(np.ones(lead + (m, J))))
    s = [0.0, 0.5, 1.0]  # one interior s: four evaluated states a step
    rd.integrate_ensemble(field, basis, split, cfg, s, [rd.GalerkinState.zeros(m, J)] * 3,
                          rd.IntegratorSettings(dt=1e-3, T=2e-3))
    leads = [(), (B,), (S, B), (4,), (4,)]
    if not reads_x and nodes % 2 == 0:
        expected = [((2, *lead, m, half), basis.x[:half]) for lead in leads]
    else:
        expected = [((*lead, m, nodes), basis.x) for lead in leads]
    assert len(seen) == len(expected)
    for (x, U_shape, dU_shape), (shape, nodes_x) in zip(seen, expected):
        assert U_shape == shape and np.array_equal(x, nodes_x)
        assert dU_shape == (shape if reads_du else None)


# (state, component, node) pairs of NaNs at 80 nodes, and the one that comes
# first in natural order; the split layout holds nodes 40-79 last, reversed
@pytest.mark.parametrize("nans,first", [
    ([(0, 0, 60), (0, 1, 10)], (0, 0, 60)),  # other halves, other components
    ([(0, 1, 70), (0, 1, 30)], (0, 1, 30)),  # other halves, one component
    ([(0, 0, 75), (0, 0, 50)], (0, 0, 50)),  # both in the mirrored half
    ([(1, 0, 5), (0, 1, 79)], (0, 1, 79)),   # other states
])
def test_non_finite_value_is_named_in_natural_order(basis32, nodal_index, nans, first):
    m = 2
    fast = rd.NonlinearField(name="arctan", m=m, eval=lambda x, U, dU: np.arctan(U),
                             sigma=np.zeros(m), f_plus=None, f_minus=None, reads_du=False,
                             reads_x=False)
    c = rd.GalerkinState._trusted(np.random.default_rng(5).normal(size=(2, m, 32)))
    messages = []
    for field in (fast, replace(fast, reads_x=True)):
        ev = field.eval

        def with_nans(x, U, dU, ev=ev):
            out = np.array(ev(x, U, dU))
            for state, k, node in nans:
                out[nodal_index(out, 80, state, k, node=node)] = np.nan
            return out

        field.eval = with_nans
        with np.errstate(invalid="ignore"), pytest.raises(EvaluationError) as err:
            rd.galerkin_F(field, basis32, c)
        messages.append(str(err.value))
    _, k, node = first
    assert messages[0] == messages[1] == (
        f"non-finite field value in component {k + 1} at node x={basis32.x[node]:.6g}")
