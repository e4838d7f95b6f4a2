import math

import numpy as np
import pytest

import resodyn as rd
from resodyn.errors import ConfigurationError, HypothesisError, UnboundedModeError


def test_analytic_spectrum_unit_interval(basis32):
    for j, mu in enumerate(basis32.mu, start=1):
        assert abs(mu - (j * math.pi) ** 2) <= 1e-12


def test_analytic_rescaling_length_two():
    basis = rd.build_basis(rd.Domain1D(length=2.0, quad_nodes=20), 1)
    assert abs(basis.mu[0] - (math.pi / 2) ** 2) <= 1e-12


def test_gram_identity_j8():
    basis = rd.build_basis(rd.Domain1D(length=1.0, quad_nodes=32), 8)
    assert np.abs(basis.gram() - np.eye(8)).max() <= 1e-10


def test_gram_identity_j32(basis32):
    assert np.abs(basis32.gram() - np.eye(32)).max() <= 1e-10


def test_quad_nodes_too_small_names_minimum():
    with pytest.raises(ConfigurationError, match="80"):
        rd.build_basis(rd.Domain1D(length=1.0, quad_nodes=40), 32)


def test_reprojection_roundtrip(basis32, rng):
    c = rng.normal(size=(2, 32))
    values = basis32.values(c)
    assert np.abs(basis32.project(values) - c).max() <= 1e-10


def test_parity_fold_is_exact(basis32):
    # an even and an odd node count: the odd one has a midpoint column
    for basis in (basis32, rd.build_basis(rd.Domain1D(length=1.0, quad_nodes=81), 32)):
        # antisymmetric state: even modes only
        c = np.zeros((1, 32))
        c[0, 1] = 0.3
        c[0, 5] = -0.02
        vals = basis.values(c)
        h = basis.x.size // 2
        assert np.array_equal(vals[0, vals.shape[1] - h:], -vals[0, :h][::-1])
        proj = basis.project(np.arctan(vals))
        assert np.all(proj[0, 0::2] == 0.0)


@pytest.mark.parametrize("quad_nodes", [80, 81])
def test_folded_tables_match_dense_products(quad_nodes, rng):
    basis = rd.build_basis(rd.Domain1D(length=1.0, quad_nodes=quad_nodes), 32)
    c = rng.normal(size=(3, 32))
    f = rng.normal(size=(3, quad_nodes))
    pairs = ((basis.values(c), c @ basis.phi), (basis.dvalues(c), c @ basis.dphi),
             (basis.project(f), f @ (basis.phi * basis.w).T))
    for folded, dense in pairs:
        assert np.abs(folded - dense).max() <= 1e-12 * np.abs(dense).max()


def test_apply_A_kernel_mode(basis32, desk_problem):
    u = rd.GalerkinState.unit(1, 32, 1, 1)
    out = rd.apply_A(basis32, desk_problem, u)
    assert np.all(out.coeffs == 0.0)


def test_apply_A_diagonal_action(basis32):
    cfg = rd.ProblemConfig(m=1, l=1, lam=(0.0,), sigma=(0.0,))
    u = rd.GalerkinState.unit(1, 32, 1, 2)
    out = rd.apply_A(basis32, cfg, u)
    assert out.coeffs[0, 1] == pytest.approx(4 * math.pi ** 2, abs=1e-12)


def test_apply_A_matches_dense_operator(basis32, rng):
    cfg = rd.ProblemConfig(m=2, l=1, lam=(3.0, -1.5), sigma=(0.0, 0.0))
    c = rng.normal(size=(2, 32))
    out = rd.apply_A(basis32, cfg, rd.GalerkinState(c))
    for k in range(2):
        dense = np.diag(basis32.mu - cfg.lam[k])
        assert np.allclose(out.coeffs[k], dense @ c[k], atol=1e-13)


def test_semigroup_kernel_mode_fixed(basis32, desk_problem):
    u = rd.GalerkinState.unit(1, 32, 1, 1, amplitude=0.37)
    for t in (0.1, 1.0, 10.0):
        out = rd.semigroup_apply(basis32, desk_problem, t, u)
        assert out.coeffs[0, 0] == 0.37


def test_semigroup_identity_at_t0(basis32, desk_problem, rng):
    c = rng.normal(size=(1, 32))
    out = rd.semigroup_apply(basis32, desk_problem, 0.0, rd.GalerkinState(c))
    assert np.array_equal(out.coeffs, c)


def test_semigroup_scalar_oracle(basis32):
    cfg = rd.ProblemConfig(m=1, l=1, lam=(0.0,), sigma=(0.0,))
    u = rd.GalerkinState.unit(1, 32, 1, 1)
    out = rd.semigroup_apply(basis32, cfg, 0.1, u)
    assert out.coeffs[0, 0] == pytest.approx(math.exp(-0.1 * math.pi ** 2), abs=1e-15)


def test_semigroup_law(basis32, desk_problem, rng):
    c = rng.normal(size=(1, 32))
    u = rd.GalerkinState(c)
    for t in (0.01, 0.1, 1.0):
        for s in (0.01, 0.1, 1.0):
            once = rd.semigroup_apply(basis32, desk_problem, t + s, u)
            twice = rd.semigroup_apply(
                basis32, desk_problem, t, rd.semigroup_apply(basis32, desk_problem, s, u))
            scale = np.maximum(np.abs(once.coeffs), 1e-300)
            assert np.max(np.abs(once.coeffs - twice.coeffs) / scale) <= 1e-12


def test_semigroup_negative_time_on_negative_block(basis32):
    # the group extension: backward time is allowed on the decaying block
    cfg = rd.ProblemConfig(m=1, l=1, lam=(4 * math.pi ** 2,), sigma=(0.0,))
    u = rd.GalerkinState.unit(1, 32, 1, 1)
    out = rd.semigroup_apply(basis32, cfg, -1.0, u)
    rate = basis32.mu[0] - 4 * math.pi ** 2  # negative
    assert out.coeffs[0, 0] == pytest.approx(math.exp(rate), rel=1e-14)
    assert out.coeffs[0, 0] < 1.0


def test_semigroup_overflow_guard_ignores_empty_modes(basis32):
    # growing factors on modes with zero coefficients are harmless
    cfg = rd.ProblemConfig(m=1, l=1, lam=(4 * math.pi ** 2,), sigma=(0.0,))
    u = rd.GalerkinState.unit(1, 32, 1, 2)  # kernel mode only
    out = rd.semigroup_apply(basis32, cfg, 100.0, u)
    assert out.coeffs[0, 1] == 1.0
    assert np.all(out.coeffs[0, [0] + list(range(2, 32))] == 0.0)


def test_semigroup_overflow_guard(basis32):
    cfg = rd.ProblemConfig(m=1, l=1, lam=(4 * math.pi ** 2,), sigma=(0.0,))
    u = rd.GalerkinState.unit(1, 32, 1, 1)
    with pytest.raises(UnboundedModeError) as err:
        rd.semigroup_apply(basis32, cfg, 30.0, u)
    assert err.value.component == 1 and err.value.mode == 1


def test_fractional_norm_zero(basis32, desk_problem):
    assert rd.fractional_norm(basis32, desk_problem, rd.GalerkinState.zeros(1, 32)) == 0.0


def test_fractional_norm_kernel_mode_weight(basis32, desk_problem):
    # weight on the kernel mode is delta + 0 = 1 + pi^2; norm = (1+pi^2)^alpha
    u = rd.GalerkinState.unit(1, 32, 1, 1)
    expected = (1.0 + math.pi ** 2) ** 0.8
    assert rd.fractional_norm(basis32, desk_problem, u) == pytest.approx(expected, rel=1e-14)


def test_fractional_norm_dominates_l2(basis32, desk_problem, rng):
    c = rng.normal(size=(1, 32))
    u = rd.GalerkinState(c)
    assert rd.fractional_norm(basis32, desk_problem, u) >= u.l2_norm()


def test_fractional_norm_equivalence_on_finite_block(basis32, rng):
    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis32.mu[2]),), sigma=(0.0,))
    split = rd.classify(basis32, cfg)
    weights = (cfg.delta + basis32.mu - cfg.lam[0]) ** cfg.alpha
    finite = sorted(j for (_, j) in (split.minus_modes | split.n1_modes))
    lo = min(weights[j - 1] for j in finite)
    hi = max(weights[j - 1] for j in finite)
    for _ in range(10):
        c = np.zeros((1, 32))
        for j in finite:
            c[0, j - 1] = rng.normal()
        u = rd.GalerkinState(c)
        fn = rd.fractional_norm(basis32, cfg, u)
        l2 = u.l2_norm()
        assert lo * l2 - 1e-12 <= fn <= hi * l2 + 1e-12


def test_problem_config_delta_derived():
    cfg = rd.ProblemConfig(m=2, l=1, lam=(1.0, 5.0), sigma=(0.0, 0.0))
    assert cfg.delta == 6.0


@pytest.mark.parametrize("sigma,l,m", [((1.0,), 1, 1), ((1.0, 1.0), 1, 2), ((0.0, 1.0), 1, 2)])
def test_problem_config_rejects_degenerate_degrees(sigma, l, m):
    with pytest.raises(HypothesisError):
        rd.ProblemConfig(m=m, l=l, lam=tuple([1.0] * m), sigma=sigma)


def test_problem_config_rejects_bad_alpha():
    with pytest.raises(ConfigurationError):
        rd.ProblemConfig(m=1, l=1, lam=(1.0,), sigma=(0.0,), alpha=0.5)


def test_problem_config_sigma_one_allowed_off_minimum():
    cfg = rd.ProblemConfig(m=2, l=2, lam=(1.0, 1.0), sigma=(0.0, 1.0))
    assert cfg.sigma == (0.0, 1.0)
