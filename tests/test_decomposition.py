import math

import numpy as np
import pytest

import resodyn as rd
from resodyn.decomposition import mode_mask
from resodyn.errors import AmbiguousResonanceError, HypothesisError


def _basis(J=3, nq=None):
    return rd.build_basis(rd.Domain1D(1.0, nq or (2 * J + 16)), J)


def test_classify_first_eigenvalue():
    basis = _basis(3)
    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis.mu[0]),), sigma=(0.0,))
    split = rd.classify(basis, cfg)
    assert split.n1_modes == frozenset({(1, 1)})
    assert split.minus_modes == frozenset()
    assert split.plus_modes == frozenset({(1, 2), (1, 3)})


def test_classify_second_eigenvalue():
    basis = _basis(3)
    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis.mu[1]),), sigma=(0.0,))
    split = rd.classify(basis, cfg)
    # brute force: eigenvalues strictly below 4 pi^2
    below = sum(1 for j in range(1, 4) if (j * math.pi) ** 2 < 4 * math.pi ** 2 - 1e-6)
    assert split.n1_modes == frozenset({(1, 2)})
    assert split.minus_modes == frozenset({(1, 1)})
    assert len(split.minus_modes) == below
    assert split.plus_modes == frozenset({(1, 3)})


def test_classify_two_components():
    basis = _basis(3)
    cfg = rd.ProblemConfig(m=2, l=1, lam=(float(basis.mu[0]), float(basis.mu[1])),
                           sigma=(0.0, 0.0))
    split = rd.classify(basis, cfg)
    assert split.n1_modes == frozenset({(1, 1)})
    assert split.n2_modes == frozenset({(2, 2)})
    assert split.minus_modes == frozenset({(2, 1)})
    assert rd.counts(split).d_inf == 1


def test_counts_examples():
    basis = _basis(3)
    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis.mu[0]),), sigma=(0.0,))
    cv = rd.counts(rd.classify(basis, cfg))
    assert (cv.d_inf, cv.n1, cv.n2) == (0, 1, 0)

    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis.mu[1]),), sigma=(0.0,))
    cv = rd.counts(rd.classify(basis, cfg))
    assert (cv.d_inf, cv.n1, cv.n2) == (1, 1, 0)

    cfg = rd.ProblemConfig(m=2, l=1, lam=(float(basis.mu[0]), float(basis.mu[0])),
                           sigma=(0.0, 0.0))
    cv = rd.counts(rd.classify(basis, cfg))
    assert (cv.d_inf, cv.n1, cv.n2) == (0, 1, 1)


def test_negative_dimension_matches_bruteforce(basis32, rng):
    # randomized shifts on and between eigenvalues
    mu = basis32.mu
    for _ in range(10):
        m = int(rng.integers(1, 4))
        lam = []
        for _k in range(m):
            j = int(rng.integers(1, 30))
            if rng.uniform() < 0.5:
                lam.append(float(mu[j - 1]))
            else:
                lam.append(float(0.5 * (mu[j - 1] + mu[j])))
        cfg = rd.ProblemConfig(m=m, l=max(1, m - 1), lam=tuple(lam),
                               sigma=tuple([0.0] * m))
        split = rd.classify(basis32, cfg)
        brute = sum(int(np.sum(mu < lk - 1e-9 * max(1.0, abs(lk)))) for lk in lam)
        assert len(split.minus_modes) == brute


def test_projections_partition_identity(basis32, desk_split, rng):
    c = rng.normal(size=(1, 32))
    u = rd.GalerkinState(c)
    total = np.zeros_like(c)
    for comp in ("P1", "P2", "Qminus", "Qplus"):
        total = total + rd.project(desk_split, comp, u).coeffs
    assert np.array_equal(total, c)


def test_projections_idempotent(basis32, desk_split, rng):
    u = rd.GalerkinState(rng.normal(size=(1, 32)))
    for comp in ("P1", "P2", "Qminus", "Qplus", "Q0"):
        once = rd.project(desk_split, comp, u)
        twice = rd.project(desk_split, comp, once)
        assert np.array_equal(once.coeffs, twice.coeffs)


def test_projections_orthogonal(basis32, desk_split, rng):
    u = rd.GalerkinState(rng.normal(size=(1, 32)))
    v = rd.GalerkinState(rng.normal(size=(1, 32)))
    p1u = rd.project(desk_split, "P1", u)
    qpv = rd.project(desk_split, "Qplus", v)
    assert abs(float(np.sum(p1u.coeffs * qpv.coeffs))) == 0.0


def test_projections_commute_with_operator(basis32, desk_problem, desk_split, rng):
    u = rd.GalerkinState(rng.normal(size=(1, 32)))
    for comp in ("P1", "Qplus"):
        left = rd.project(desk_split, comp, rd.apply_A(basis32, desk_problem, u))
        right = rd.apply_A(basis32, desk_problem, rd.project(desk_split, comp, u))
        assert np.array_equal(left.coeffs, right.coeffs)
        lsg = rd.project(desk_split, comp, rd.semigroup_apply(basis32, desk_problem, 0.3, u))
        rsg = rd.semigroup_apply(basis32, desk_problem, 0.3, rd.project(desk_split, comp, u))
        assert np.array_equal(lsg.coeffs, rsg.coeffs)


def test_spectral_gap_positive(desk_split):
    assert desk_split.gap == pytest.approx(3 * math.pi ** 2, rel=1e-12)


def test_ambiguous_shift_raises(basis32):
    lam = float(basis32.mu[0]) * (1.0 + 5e-8)  # inside the (tol, 10 tol) band
    cfg = rd.ProblemConfig(m=1, l=1, lam=(lam,), sigma=(0.0,))
    with pytest.raises(AmbiguousResonanceError):
        rd.classify(basis32, cfg)


def test_shift_above_truncation_refused(basis32):
    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis32.mu[-1]) + 10.0,), sigma=(0.0,))
    with pytest.raises(HypothesisError):
        rd.classify(basis32, cfg)


def test_nonresonant_shift_warns_but_classifies(basis32):
    lam = 0.5 * (basis32.mu[0] + basis32.mu[1])
    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(lam),), sigma=(0.0,))
    split = rd.classify(basis32, cfg)
    assert split.nonresonant_components == (1,)
    assert len(split.minus_modes) == 1


def test_l_equals_m_gives_trivial_second_block(basis32):
    cfg = rd.ProblemConfig(m=1, l=1, lam=(float(basis32.mu[0]),), sigma=(0.0,))
    split = rd.classify(basis32, cfg)
    assert split.n2_modes == frozenset()
    assert not mode_mask(split, "P2").any()


def test_masks_partition_the_grid(basis32):
    cfg = rd.ProblemConfig(m=3, l=2, lam=(float(basis32.mu[0]), float(basis32.mu[2]),
                                          float(basis32.mu[1])), sigma=(0.0, 0.0, 0.0))
    split = rd.classify(basis32, cfg)
    masks = {name: mode_mask(split, name) for name in ("P1", "P2", "Qminus", "Qplus", "Q0")}
    disjoint = [masks[name] for name in ("P1", "P2", "Qminus", "Qplus")]
    assert np.array_equal(sum(mk.astype(int) for mk in disjoint), np.ones((3, 32), dtype=int))
    assert np.array_equal(masks["Q0"], masks["P1"] | masks["P2"])
    as_sets = {"P1": split.n1_modes, "P2": split.n2_modes,
               "Qminus": split.minus_modes, "Qplus": split.plus_modes}
    for name, modes in as_sets.items():
        assert modes == {(k + 1, j + 1) for k, j in zip(*np.nonzero(masks[name]))}
        assert all(type(k) is int and type(j) is int for k, j in modes)
    assert split.n1_modes == {(1, 1), (2, 3)}
    assert split.n2_modes == {(3, 2)}
    assert split.minus_modes == {(2, 1), (2, 2), (3, 1)}
    assert rd.counts(split) == rd.CountVector(d_inf=3, n1=2, n2=1)


def test_mode_mask_is_read_only(desk_split):
    mask = mode_mask(desk_split, "Q0")
    with pytest.raises(ValueError):
        mask[0, 5] = True
    assert mode_mask(desk_split, "Q0")[0].tolist() == [True] + [False] * 31
