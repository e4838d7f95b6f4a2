"""The closed forms in oracles.py against brute force, and the generator's
invariants.  Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy import integrate, optimize
from scipy.linalg import eigh_tridiagonal
from scipy.stats import ortho_group

import oracles
import workloads


@pytest.mark.parametrize("length", [0.5, 1.0, 2.0])
def test_mu_matches_finite_difference_laplacian(length):
    n = 4000
    h = length / (n + 1)
    fd = eigh_tridiagonal(np.full(n, 2.0 / h**2), np.full(n - 1, -1.0 / h**2),
                          select="i", select_range=(0, 5))[0]
    np.testing.assert_allclose(oracles.mu(6, length), fd, rtol=1e-5)


def _brute_counts(J, length, r, l):
    ev = oracles.mu(J, length)
    lam = [ev[k - 1] for k in r]
    kernel = [(k, j) for k in range(len(r)) for j in range(J)
              if abs(ev[j] - lam[k]) <= 1e-8 * max(1.0, ev[j])]
    below = sum(1 for k in range(len(r)) for j in range(J)
                if ev[j] < lam[k] and (k, j) not in kernel)
    return {"d_inf": below, "n1": sum(1 for k, _ in kernel if k < l),
            "n2": sum(1 for k, _ in kernel if k >= l)}


@pytest.mark.parametrize("seed", range(20))
def test_counts_match_mode_by_mode_classification(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    r = [int(v) for v in rng.integers(1, 6, size=m)]
    l = int(rng.integers(1, m + 1))
    J, length = int(rng.integers(8, 33)), float(rng.uniform(0.5, 2.0))
    assert oracles.counts(m, l, r) == _brute_counts(J, length, r, l)


@pytest.mark.parametrize("seed", range(20))
def test_d0_matches_eigvalsh_of_the_linearization(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    J, length = int(rng.integers(8, 25)), float(rng.uniform(0.5, 2.0))
    r = [int(v) for v in rng.integers(1, 4, size=m)]
    g = float(rng.uniform(-80.0, 80.0))
    ev = oracles.mu(J, length)
    # blkdiag_j(mu_j I - (G + Lambda)), hidden behind a random rotation
    diag = np.concatenate([ev[j] - (g + ev[np.array(r) - 1]) for j in range(J)])
    Q = ortho_group.rvs(m * J, random_state=seed)
    negatives = int(np.sum(np.linalg.eigvalsh(Q @ np.diag(diag) @ Q.T) < 0))
    assert oracles.d0(J, length, r, g) == negatives


def test_d0_is_undefined_at_a_resonant_origin():
    # gaussian-decay has G = 0: the shifted linearization sits on mu_1
    assert oracles.d0(16, 1.0, [1, 1], 0.0) is None


@pytest.mark.parametrize("seed", range(10))
def test_exponent_at_infinity_matches_perturbed_spectrum(seed):
    # a verified '+' sign pushes its kernel block to the unstable side and
    # '-' to the stable side; the exponent counts the unstable modes
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    l = int(rng.integers(1, m + 1))
    r = [int(v) for v in rng.integers(1, 5, size=m)]
    J, length = 12, 1.0
    ev = oracles.mu(J, length)
    cv = oracles.counts(m, l, r)
    for s1, s2 in itertools.product("+-", repeat=2):
        spectrum = []
        for k in range(m):
            sign = s1 if k < l else s2
            for j in range(J):
                d = ev[j] - ev[r[k] - 1]
                spectrum.append(d if j != r[k] - 1 else (-1e-3 if sign == "+" else 1e-3))
        want = int(np.sum(np.array(spectrum) < 0))
        assert oracles.exponent_at_infinity(cv, s1, s2) == want


def test_exponent_at_infinity_needs_a_verified_sign():
    cv = {"d_inf": 0, "n1": 2, "n2": 0}
    assert oracles.exponent_at_infinity(cv, None, "vacuous") is None
    assert oracles.exponent_at_infinity(cv, "+", None) == 2


def _ll_quadrature(sigma, length, weights):
    p = 1.0 - sigma
    total = 0.0
    for w in weights:
        val, _ = integrate.quad(
            lambda x: abs(w * math.sqrt(2.0 / length) * math.sin(math.pi * x / length)) ** p,
            0.0, length, epsabs=0.0, epsrel=1e-13, limit=200)
        total += (math.pi / 2.0) * val
    return total


@pytest.mark.parametrize("sigma", [0.0, 0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("length", [0.5, 1.0, 2.0])
def test_ll_value_matches_quadrature(sigma, length):
    assert oracles.ll_value(sigma, length) == pytest.approx(
        _ll_quadrature(sigma, length, [1.0]), rel=1e-11)


def test_ll_value_at_sigma_zero_is_sqrt_2L():
    for length in (0.5, 1.0, 3.0):
        assert oracles.ll_value(0.0, length) == pytest.approx(math.sqrt(2 * length), rel=1e-15)


@pytest.mark.parametrize("k,sigma", [(2, 0.0), (2, 0.5), (3, 0.25), (3, 0.5)])
def test_ll_block_max_matches_sphere_maximum(k, sigma):
    length = 1.3

    def neg(angles):
        d = np.ones(k)
        for i, a in enumerate(angles):
            d[i] *= math.cos(a)
            d[i + 1:] *= math.sin(a)
        return -_ll_quadrature(sigma, length, d)

    best = min((optimize.minimize(neg, x0, method="Nelder-Mead",
                                  options={"xatol": 1e-10, "fatol": 1e-13})
                for x0 in np.random.default_rng(k).uniform(0.2, 1.4, size=(3, k - 1))),
               key=lambda res: res.fun)
    assert -best.fun == pytest.approx(oracles.ll_block_max(k, sigma, length), rel=1e-7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_are_deterministic_and_inside_the_safe_ranges(workload):
    for seed in range(30):
        first = workloads.round_for(workload, seed)
        assert [e.ini() for e in first] == [e.ini() for e in workloads.round_for(workload, seed)]
        assert len({e.name for e in first}) == len(first)
        for exp in first:
            if "T" in exp.run:
                steps = exp.run["T"] / exp.run["dt"]
                assert abs(steps - round(steps)) < 1e-9 and round(steps) % 10 == 0
            if exp.subcommand == "connect":
                cv = oracles.counts(exp.m, exp.l, [1] * exp.m)
                d0 = oracles.d0(exp.J, exp.length, [1] * exp.m, exp.g0)
                assert d0 == 2 * exp.m != oracles.exponent_at_infinity(cv, "+", "+")
