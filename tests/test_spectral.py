import contextlib
import io
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import resodyn as rd
from resodyn import cli, connections, indexcalc, spectral
from resodyn.config import load_config
from resodyn.errors import ConfigurationError, HypothesisError, UnboundedModeError
from resodyn.spectral import _eigh, _gauss_legendre

REPO = Path(__file__).resolve().parents[1]


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


def _gather_fold(basis, coeffs, tables, flip):
    """The gather-and-scatter fold that the slice fold replaced: the parity
    blocks are gathered by fancy indexing of the natural columns."""
    sym, anti = np.flatnonzero(basis.parity_sym), np.flatnonzero(~basis.parity_sym)
    table_s, table_a, table_mid = tables
    cs, ca = coeffs[:, sym], coeffs[:, anti]
    vs, va = cs @ table_s, ca @ table_a
    nq, h = basis.x.size, basis._half
    out = np.empty((coeffs.shape[0], nq))
    out[:, :h] = vs + va
    out[:, nq - h:] = ((va - vs) if flip else (vs - va))[:, ::-1]
    if nq % 2:
        out[:, h] = np.ascontiguousarray(ca if flip else cs) @ table_mid
    return out


def _gather_project(basis, fvals):
    """The gather-and-scatter projection that the slice one replaced."""
    weighted_s, weighted_a, weighted_mid = basis._project_fold
    nq, h = basis.x.size, basis._half
    f1, f2 = fvals[:, :h], fvals[:, nq - h:][:, ::-1]
    ps = (f1 + f2) @ weighted_s
    if nq % 2:
        ps += np.outer(fvals[:, h], weighted_mid)
    out = np.empty((fvals.shape[0], basis.J))
    out[:, np.flatnonzero(basis.parity_sym)] = ps
    out[:, np.flatnonzero(~basis.parity_sym)] = (f1 - f2) @ weighted_a
    return out


def _gather_galerkin_F(field, basis, c):
    rows = c.reshape(-1, c.shape[-1])
    nodal = c.shape[:-1] + (basis.x.size,)
    U = _gather_fold(basis, rows, basis._phi_fold, flip=False).reshape(nodal)
    dU = _gather_fold(basis, rows, basis._dphi_fold, flip=True).reshape(nodal)
    fv = np.asarray(field.eval(basis.x, U, dU if field.reads_du else None), dtype=float)
    return _gather_project(basis, fv.reshape(-1, nodal[-1])).reshape(c.shape)


def _layouts(a):
    """``a`` C-ordered, F-ordered, as every second row of a taller array and
    as every second column of a wider one: equal values, four memory layouts."""
    tall = np.zeros((2 * a.shape[0], a.shape[1]))
    tall[::2] = a
    wide = np.zeros((a.shape[0], 2 * a.shape[1]))
    wide[:, ::2] = a
    return a, np.asfortranarray(a), tall[::2], wide[:, ::2]


# 1 runs as a matrix-vector product; the others straddle the row counts at
# which OpenBLAS switches matrix-matrix kernels for these table shapes
_ROW_COUNTS = [*range(1, 41), 64, 75, 76, 77, 100, 101, 150, 151, 152, 200, 300]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("quad_nodes", [80, 81])
def test_blocked_fold_is_exact(quad_nodes, m):
    # the fold reads its parity blocks as stride-2 slices where the earlier
    # fold gathered them; equal bits are a property of the BLAS, so every
    # stack size of m-component states is checked, not assumed
    basis = rd.build_basis(rd.Domain1D(length=1.0, quad_nodes=quad_nodes), 32)
    assert not basis.mu.flags.writeable
    field = rd.make_field("-arctan(40)", m)
    custom = rd.NonlinearField(name="u+u'", m=m, eval=lambda x, U, dU: np.arctan(U) + dU,
                               sigma=np.zeros(m), f_plus=None, f_minus=None)
    gen = np.random.default_rng(quad_nodes + m)
    for B in [*range(1, 41), 64, 100, 200]:
        c = gen.normal(size=(B, m, 32))
        rows = c.reshape(-1, 32)
        f = gen.normal(size=(B * m, quad_nodes))
        assert np.array_equal(basis.values(rows),
                              _gather_fold(basis, rows, basis._phi_fold, flip=False))
        assert np.array_equal(basis.dvalues(rows),
                              _gather_fold(basis, rows, basis._dphi_fold, flip=True))
        assert np.array_equal(basis.project(f), _gather_project(basis, f))
        for fld in (field, custom):
            F = rd.galerkin_F(fld, basis, rd.GalerkinState._trusted(c)).coeffs
            assert np.array_equal(F, _gather_galerkin_F(fld, basis, c))


@pytest.mark.parametrize("quad_nodes", [48, 49, 80, 81])
def test_blocked_fold_is_exact_on_c_ordered_rows(quad_nodes):
    # the march hands the fold C-ordered rows; they, and F-ordered, row- and
    # column-strided copies of them, must fold to the gather fold's bits for
    # every J and row count, also at the odd node counts' midpoint; project
    # copies its rows C-ordered, so every layout projects to the bits of the
    # gather projection of the C-ordered rows
    field = {m: rd.make_field("-arctan(40)", m) for m in (1, 2, 3)}
    custom = {m: rd.NonlinearField(name="u+u'", m=m, eval=lambda x, U, dU: np.arctan(U) + dU,
                                   sigma=np.zeros(m), f_plus=None, f_minus=None)
              for m in (1, 2, 3)}
    for J in (8, 15, 16, 17, 24, 32):
        if quad_nodes < 2 * J + 16:
            continue
        basis = rd.build_basis(rd.Domain1D(length=1.0, quad_nodes=quad_nodes), J)
        assert not basis.mu.flags.writeable
        gen = np.random.default_rng(quad_nodes + J)
        for R in _ROW_COUNTS:
            c = gen.normal(size=(R, J))
            f = gen.normal(size=(R, quad_nodes))
            for rows, fvals in zip(_layouts(c), _layouts(f)):
                assert np.array_equal(basis.values(rows),
                                      _gather_fold(basis, rows, basis._phi_fold, flip=False))
                assert np.array_equal(basis.dvalues(rows),
                                      _gather_fold(basis, rows, basis._dphi_fold, flip=True))
                assert np.array_equal(basis.project(fvals), _gather_project(basis, f))
            for m in (1, 2, 3):
                if R % m:
                    continue
                stack = c.reshape(R // m, m, J)
                for fld in (field[m], custom[m]):
                    F = rd.galerkin_F(fld, basis, rd.GalerkinState._trusted(stack)).coeffs
                    assert np.array_equal(F, _gather_galerkin_F(fld, basis, stack))


@pytest.mark.parametrize("quad_nodes", [48, 49, 80, 81])
def test_block_stack_is_separate_calls(quad_nodes):
    # an (S, B, m, J) stack evaluates each (B, m, J) block as its own call
    # does: one row per block (m = B = 1, the matrix-vector product) up to
    # 384 rows, past the kernel switch of every table shape here; the
    # derivative fold is read by the u'-reading field, and the block of a
    # 4-D stack of one block is the 3-D call
    J = 16 if quad_nodes < 64 else 32
    basis = rd.build_basis(rd.Domain1D(length=1.0, quad_nodes=quad_nodes), J)
    gen = np.random.default_rng(quad_nodes)
    for m in (1, 2, 3):
        fields = (rd.make_field("scaled-arctan(40,0.5)", m),
                  rd.NonlinearField(name="arctan(u)+tanh(u')", m=m,
                                    eval=lambda x, U, dU: np.arctan(40 * U) + np.tanh(dU),
                                    sigma=np.zeros(m), f_plus=None, f_minus=None))
        for B in (1, 2, 5, 384 // m):
            for S in (1, 3):
                c = 0.3 * gen.normal(size=(S, B, m, J))
                for field in fields:
                    F = rd.galerkin_F(field, basis, rd.GalerkinState._trusted(c)).coeffs
                    assert F.shape == c.shape
                    for s in range(S):
                        alone = rd.galerkin_F(field, basis, rd.GalerkinState._trusted(c[s]))
                        assert np.array_equal(F[s], alone.coeffs), (m, B, S, s, field.name)
                    if B == 1:  # a block of one state is the (m, J) call
                        alone = rd.galerkin_F(field, basis, rd.GalerkinState(c[0, 0]))
                        assert np.array_equal(F[0, 0], alone.coeffs)


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


@pytest.mark.parametrize("n", [32, 48, 81])
def test_gauss_legendre_is_memoised_and_read_only(n):
    from numpy.polynomial.legendre import leggauss
    x, w = _gauss_legendre(n)
    assert _gauss_legendre(n)[0] is x
    for got, expected in zip((x, w), leggauss(n)):
        assert np.array_equal(got, expected)
        assert not got.flags.writeable


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("matrix", ["G", "L"])
def test_nonfinite_eigh_input_raises_scipys_error(basis32, desk_problem, desk_field,
                                                   matrix, value):
    # the message of scipy's check_finite; dsyevr itself takes NaN silently
    # (from_G's symmetry test is False for NaN)
    with pytest.raises(ValueError, match=r"^array must not contain infs or NaNs$"):
        if matrix == "G":
            cfg = rd.ProblemConfig(m=2, l=1, lam=(1.0, 1.0), sigma=(0.0, 0.0))
            with np.errstate(invalid="ignore"):
                rd.LinearizationData.from_G(np.diag([value, 1.0]), cfg)
        else:
            L = rd.discrete_linearization(desk_field, basis32, desk_problem,
                                          rd.GalerkinState.zeros(1, basis32.J))
            L[2, 2] = value
            connections._block_eigh(L)


def _eigh_oracle_matrices(tmp: Path) -> list[np.ndarray]:
    """Random symmetric matrices (n = 1-64), c I and random diagonal ones
    (n = 1-8, where numpy's syevd returns other eigenvectors), and every
    matrix the program itself hands to _eigh: G + diag(lambda) of the
    shipped configs and of every workload generator at seeds 0-11, and the
    component blocks of the linearizations solved by the shoot-connect
    rounds at seeds 1-3."""
    rng = np.random.default_rng(15)
    mats = []
    for n in range(1, 65):
        a = rng.normal(size=(n, n))
        mats.append(a + a.T)
    for n in range(1, 9):
        mats += [c * np.eye(n) for c in (0.0, 1.0, -1.0, 2.5, -40.0)]
        mats.append(np.diag(rng.normal(size=n)))
    seen = []

    def record(a):
        seen.append(np.array(a))
        return _eigh(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(REPO / "bench"))
        import workloads
        mp.setattr(indexcalc, "_eigh", record)
        mp.setattr(connections, "_eigh", record)
        for path in sorted((REPO / "configs").iterdir()):
            exp = load_config(path)
            rd.LinearizationData.from_field(exp.field, exp.problem)
        for workload in workloads.WORKLOADS:
            for seed in range(12):
                for exp in workloads.round_for(workload, seed):
                    path = tmp / f"{exp.name}.ini"
                    path.write_text(exp.ini())
                    loaded = load_config(path)
                    rd.LinearizationData.from_field(loaded.field, loaded.problem)
        n_shifted = len(seen)
        for seed in (1, 2, 3):
            for exp in workloads.round_for("shoot-connect", seed):
                path = tmp / f"{exp.name}.ini"
                path.write_text(exp.ini())
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.run_subcommand("connect", path, out_dir=tmp / "out") == 0
    blocks = len(seen) - n_shifted
    assert n_shifted > 300 and blocks > 0 and max(b.shape[0] for b in seen[n_shifted:]) > 1
    return mats + seen


_EIGH_ORACLE = """
import sys
sys.path.insert(0, {src!r})
import numpy as np
if {scipy_first}:
    import scipy.linalg
from resodyn.spectral import _eigh, _flapack
with np.load({path!r}) as stored:
    mats = [stored[f"m{{i}}"] for i in range(len(stored.files))]
got = [_eigh(a) for a in mats]
assert ("scipy.linalg" in sys.modules) == {scipy_first}
import scipy.linalg
assert (_flapack() is sys.modules["scipy.linalg._flapack"]) == {scipy_first}
bad = [i for i, (a, mine) in enumerate(zip(mats, got))
       if not all(map(np.array_equal, mine, scipy.linalg.eigh(a)))]
print(len(mats), bad)
"""


@pytest.fixture(scope="module")
def eigh_oracle_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("eigh")
    mats = _eigh_oracle_matrices(tmp)
    np.savez(tmp / "mats.npz", **{f"m{i}": a for i, a in enumerate(mats)})
    return tmp / "mats.npz", len(mats)


@pytest.mark.parametrize("scipy_first", [True, False])
def test_eigh_matches_scipy_linalg(eigh_oracle_file, scipy_first):
    # both (w, v) array_equal to scipy.linalg.eigh, with scipy.linalg
    # imported before the first _eigh call (its own _flapack) and after it
    path, count = eigh_oracle_file
    script = _EIGH_ORACLE.format(src=str(REPO / "src"), scipy_first=scipy_first, path=str(path))
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == [str(count), "[]"]


def test_missing_lapack_module_names_the_path(monkeypatch):
    # no fallback to scipy.linalg: a scipy without the module is an ImportError
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(spectral, "EXTENSION_SUFFIXES", [".absent.so"])
    with pytest.raises(ImportError, match=r"linalg/_flapack\.absent\.so"):
        spectral._flapack.__wrapped__()


_UFUNCS_ORACLE = """
import sys
sys.path.insert(0, {src!r})
import numpy as np
if {scipy_first}:
    import scipy.special
from resodyn.spectral import _ufuncs
x = np.array([1e-12, 1 - 1e-12, 0.0, 1.0, 0.5, 0.25, 1e-300, 5e-324, -0.0, -1e-12, 1.5,
              -3.0, 3.0, 30.0, np.inf, -np.inf, np.nan])
x = np.concatenate([x, np.linspace(-6.0, 6.0, 4097), np.random.default_rng(3).uniform(size=4096)])
got = _ufuncs().ndtri(x), _ufuncs().erf(x)
assert ("scipy.special" in sys.modules) == {scipy_first}
import scipy.special
print(_ufuncs().ndtri is scipy.special.ndtri, _ufuncs().erf is scipy.special.erf,
      np.array_equal(got[0], scipy.special.ndtri(x), equal_nan=True),
      np.array_equal(got[1], scipy.special.erf(x), equal_nan=True))
"""


@pytest.mark.parametrize("scipy_first", [True, False])
def test_ufuncs_match_scipy_special(scipy_first):
    # ndtri and erf are the package's own ufunc objects, with scipy.special
    # imported before the first _ufuncs call and after it; a later real
    # import of the package works and reuses the loaded extensions
    script = _UFUNCS_ORACLE.format(src=str(REPO / "src"), scipy_first=scipy_first)
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True"] * 4


_UFUNCS_MISSING = """
import sys
sys.path.insert(0, {src!r})
import scipy
scipy.__file__ = {fake!r}
from resodyn.spectral import _ufuncs
try:
    _ufuncs()
except ImportError as exc:
    print(type(exc).__name__, exc.path, "scipy.special" in sys.modules)
    print(exc)
"""


def test_missing_ufuncs_module_names_the_path(tmp_path):
    # no fallback to scipy.special: a scipy without the module is an
    # ImportError, and the stand-in package is gone after it
    special = tmp_path / "scipy" / "special"
    special.mkdir(parents=True)
    script = _UFUNCS_MISSING.format(src=str(REPO / "src"),
                                    fake=str(tmp_path / "scipy" / "__init__.py"))
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, check=True)
    first, message = out.stdout.strip().splitlines()
    assert first.split() == ["ImportError", str(special), "False"]
    assert f"not loaded from {special}: No module named 'scipy.special._ufuncs'" in message
