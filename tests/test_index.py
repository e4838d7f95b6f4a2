import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resodyn as rd
from resodyn.decomposition import CountVector
from resodyn.errors import ConfigurationError, HypothesisError

Sphere = rd.HomotopyType.sphere
Trivial = rd.HomotopyType.trivial


def test_wedge_examples():
    assert rd.wedge(Sphere(0), Sphere(2)) == Sphere(2)
    assert rd.wedge(Sphere(1), Sphere(1)) == Sphere(2)
    assert rd.wedge(Trivial(), Sphere(3)) == Trivial()


tokens = st.one_of(st.just(None), st.integers(min_value=0, max_value=12)).map(
    lambda k: Trivial() if k is None else Sphere(k))


@settings(max_examples=200, deadline=None)
@given(tokens, tokens, tokens)
def test_wedge_algebra(a, b, c):
    assert rd.wedge(a, b) == rd.wedge(b, a)
    assert rd.wedge(rd.wedge(a, b), c) == rd.wedge(a, rd.wedge(b, c))
    assert rd.wedge(a, Sphere(0)) == a
    assert rd.wedge(a, Trivial()) == Trivial()


def test_index_formula_examples():
    h, tag = rd.index_K_infinity(CountVector(0, 1, 0), "+", "vacuous")
    assert h == Sphere(1) and tag == "plus_plus"
    h, tag = rd.index_K_infinity(CountVector(1, 1, 1), "-", "-")
    assert h == Sphere(1) and tag == "minus_minus"
    h, tag = rd.index_K_infinity(CountVector(2, 1, 3), "+", "-")
    assert h == Sphere(3) and tag == "plus_minus"
    h, tag = rd.index_K_infinity(CountVector(2, 1, 3), "-", "+")
    assert h == Sphere(5) and tag == "minus_plus"


def test_index_formula_no_verified_pair():
    h, tag = rd.index_K_infinity(CountVector(1, 1, 1), None, "+")
    assert h is None and tag == "none"


def test_vacuous_requires_zero_count():
    with pytest.raises(ConfigurationError):
        rd.index_K_infinity(CountVector(0, 1, 2), "+", "vacuous")


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.integers(0, 4), st.integers(0, 4),
       st.sampled_from(["+", "-"]), st.sampled_from(["+", "-"]))
def test_partition_r2_matches_closed_form(d_inf, n1, n2, s1, s2):
    cv = CountVector(d_inf, n1, n2)
    h, _ = rd.index_K_infinity(cv, s1, s2)
    # two blocks: components {1} with kernel dim n1, {2} with kernel dim n2
    alt = rd.index_partition(d_inf, [n1, n2], [(1,), (2,)], [s1, s2])
    assert h == alt


def test_partition_all_plus_and_all_minus():
    dims = [2, 1, 3]
    h = rd.index_partition(4, dims, [(1,), (2,), (3,)], ["+", "+", "+"])
    assert h == Sphere(4 + 6)
    h = rd.index_partition(4, dims, [(1, 2, 3)], ["-"])
    assert h == Sphere(4)


def test_partition_validation():
    with pytest.raises(ConfigurationError, match="overlap"):
        rd.index_partition(0, [1, 1], [(1, 2), (2,)], ["+", "-"])
    with pytest.raises(ConfigurationError):
        rd.index_partition(0, [1, 1], [(1,)], ["+"])


def test_linearization_data_validation():
    cfg = rd.ProblemConfig(m=2, l=1, lam=(1.0, 2.0), sigma=(0.0, 0.0))
    with pytest.raises(ConfigurationError, match="symmetric"):
        rd.LinearizationData.from_G(np.array([[0.0, 1.0], [0.0, 0.0]]), cfg)
    lin = rd.LinearizationData.from_G(np.array([[0.0, 1.0], [1.0, 0.0]]), cfg)
    assert np.all(np.diff(lin.theta) >= 0)


def test_d_zero_scalar_desk(basis32, desk_problem):
    lin = rd.LinearizationData.from_G(np.array([[40.0]]), desk_problem)
    assert lin.theta[0] == pytest.approx(math.pi ** 2 + 40.0, abs=1e-12)
    assert rd.d_zero(basis32, desk_problem, lin) == 2


def test_d_zero_two_component(basis32):
    lam = (float(basis32.mu[0]), float(basis32.mu[0]))
    cfg = rd.ProblemConfig(m=2, l=1, lam=lam, sigma=(0.0, 0.0))
    lin = rd.LinearizationData.from_G(np.diag([1.0, -1.0]), cfg)
    assert rd.d_zero(basis32, cfg, lin) == 1


def test_d_zero_below_spectrum(basis32):
    cfg = rd.ProblemConfig(m=1, l=1, lam=(0.5,), sigma=(0.0,))
    lin = rd.LinearizationData.from_G(np.array([[0.0]]), cfg)
    assert rd.d_zero(basis32, cfg, lin) == 0


def test_d_zero_double_count_random(basis32, rng):
    for _ in range(20):
        m = int(rng.integers(1, 4))
        lam = tuple(float(v) for v in rng.uniform(0.0, 50.0, size=m))
        cfg = rd.ProblemConfig(m=m, l=max(1, m // 2), lam=lam, sigma=tuple([0.0] * m))
        G = rng.normal(size=(m, m))
        G = 0.5 * (G + G.T)
        lin = rd.LinearizationData.from_G(G, cfg)
        if not rd.nonresonance_at_origin(basis32, lin):
            continue
        got = rd.d_zero(basis32, cfg, lin)
        # independent dense count
        blocks = [mu_j * np.eye(m) - (G + np.diag(lam)) for mu_j in basis32.mu]
        L = np.zeros((m * 32, m * 32))
        for i, blk in enumerate(blocks):
            L[i * m:(i + 1) * m, i * m:(i + 1) * m] = blk
        assert got == int(np.sum(np.linalg.eigvalsh(L) < 0))


def test_d_zero_resonant_origin_raises(basis32):
    cfg = rd.ProblemConfig(m=1, l=1, lam=(0.0,), sigma=(0.0,))
    lin = rd.LinearizationData.from_G(np.array([[4 * math.pi ** 2]]), cfg)
    with pytest.raises(HypothesisError, match="resonant"):
        rd.d_zero(basis32, cfg, lin)


def test_nonresonance_cases(basis32, desk_problem):
    lin = rd.LinearizationData.from_G(np.array([[40.0]]), desk_problem)
    assert rd.nonresonance_at_origin(basis32, lin) is True
    cfg = rd.ProblemConfig(m=1, l=1, lam=(0.0,), sigma=(0.0,))
    lin = rd.LinearizationData.from_G(np.array([[4 * math.pi ** 2]]), cfg)
    assert rd.nonresonance_at_origin(basis32, lin) is False
    lin = rd.LinearizationData.from_G(np.array([[0.0]]), desk_problem)
    assert rd.nonresonance_at_origin(basis32, lin) is False  # origin itself resonant


def test_connection_verdict_desk():
    v = rd.connection_verdict(CountVector(0, 1, 0), 2, "+", "vacuous", True)
    assert v.h_K_infinity == Sphere(1)
    assert v.h_K_zero == Sphere(2)
    assert v.connection_predicted is True


def test_connection_verdict_equal_exponents():
    v = rd.connection_verdict(CountVector(0, 1, 1), 2, "+", "+", True)
    assert v.h_K_infinity == Sphere(2) and v.h_K_zero == Sphere(2)
    assert v.connection_predicted is False
    v = rd.connection_verdict(CountVector(1, 1, 0), 1, "-", "-", True)
    assert v.h_K_infinity == Sphere(1) and v.connection_predicted is False


def test_connection_verdict_resonant_origin():
    v = rd.connection_verdict(CountVector(0, 1, 0), 0, "+", "vacuous", False)
    assert v.connection_predicted is False
    assert v.h_K_zero is None
    assert "resonant" in v.reason


def test_three_component_pipeline_integers(basis32):
    # mixed shifts across three components: every integer in the chain
    lam = (float(basis32.mu[0]), float(basis32.mu[1]), float(basis32.mu[0]))
    cfg = rd.ProblemConfig(m=3, l=2, lam=lam, sigma=(0.0, 0.0, 0.0))
    split = rd.classify(basis32, cfg)
    cv = rd.counts(split)
    assert (cv.d_inf, cv.n1, cv.n2) == (1, 2, 1)
    assert split.n1_modes == frozenset({(1, 1), (2, 2)})
    assert split.n2_modes == frozenset({(3, 1)})
    assert split.minus_modes == frozenset({(2, 1)})

    field = rd.arctan_field(3, gain=40.0)
    ll1 = rd.evaluate_LL(field, basis32, split, cfg, "LL1+", samples=64, seed=7)
    ll2 = rd.evaluate_LL(field, basis32, split, cfg, "LL2+")
    assert ll1.verdict == "holds" and ll2.verdict == "holds"
    # the block-1 minimum sits on the axis directions of the 2-D kernel
    assert ll1.min_value == pytest.approx(math.sqrt(2), abs=1e-6)

    lin = rd.LinearizationData.from_field(field, cfg)
    d0 = rd.d_zero(basis32, cfg, lin)
    assert d0 == 6  # two shifts below mu_2 contribute 2 each, one below mu_3
    h, tag = rd.index_K_infinity(cv, "+", "+")
    assert h == Sphere(4) and tag == "plus_plus"
    assert rd.index_partition(cv.d_inf, [1, 1, 1], [(1,), (2,), (3,)],
                              ["+", "+", "+"]) == h
    verdict = rd.connection_verdict(cv, d0, "+", "+", True)
    assert verdict.connection_predicted  # 6 != 4


def test_field_linearization_finite_differences(basis32):
    cfg = rd.ProblemConfig(m=2, l=1, lam=(1.0, 2.0), sigma=(0.0, 0.0))

    def fn(x, U, dU):
        out = np.empty_like(U)
        out[..., 0, :] = np.arctan(3.0 * U[..., 0, :]) + 0.5 * U[..., 1, :]
        out[..., 1, :] = 0.5 * U[..., 0, :] - np.sin(U[..., 1, :])
        return out

    field = rd.NonlinearField(name="fd", m=2, eval=fn, sigma=np.zeros(2),
                              f_plus=lambda x: np.zeros((2, x.size)),
                              f_minus=lambda x: np.zeros((2, x.size)))
    lin = rd.LinearizationData.from_field(field, cfg)
    assert np.allclose(lin.G, np.array([[3.0, 0.5], [0.5, -1.0]]), atol=1e-7)
