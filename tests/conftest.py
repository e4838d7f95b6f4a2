import numpy as np
import pytest

import resodyn as rd


@pytest.fixture(scope="session")
def basis32():
    return rd.build_basis(rd.Domain1D(length=1.0, quad_nodes=80), 32)


@pytest.fixture(scope="session")
def desk_problem(basis32):
    """Scalar system at resonance with the first eigenvalue."""
    return rd.ProblemConfig(m=1, l=1, lam=(float(basis32.mu[0]),), sigma=(0.0,))


@pytest.fixture(scope="session")
def desk_split(basis32, desk_problem):
    return rd.classify(basis32, desk_problem)


@pytest.fixture(scope="session")
def desk_field():
    return rd.make_field("arctan(40)", 1)


@pytest.fixture(scope="session")
def desk_equilibria(basis32, desk_problem, desk_split, desk_field):
    seeds = [rd.GalerkinState.unit(1, 32, 1, 2, 0.05),
             rd.GalerkinState.unit(1, 32, 1, 2, -0.05)]
    eqs = rd.find_equilibria(desk_field, basis32, desk_split, desk_problem, seeds)
    assert len(eqs) == 3  # origin and the +- pair
    return eqs


@pytest.fixture(scope="session")
def assert_stored_spectrum():
    """Checks that an equilibrium's linearization and unstable pairs are bit
    for bit a fresh ``discrete_linearization`` and its ``_block_eigh``
    solve, and that ``unstable_directions`` returns those pairs."""
    from resodyn.connections import MORSE_TOL, _block_eigh

    def check(field, basis, problem, eq):
        L = rd.discrete_linearization(field, basis, problem, eq.state)
        assert np.array_equal(eq.linearization, L) and not eq.linearization.flags.writeable
        vals, vecs = _block_eigh(L)
        keep = np.flatnonzero(vals < -MORSE_TOL)
        dirs = rd.unstable_directions(field, basis, problem, eq)
        assert [r for r, _ in dirs] == [r for r, _ in eq.unstable] == vals[keep].tolist()
        for (_, d), (_, stored), i in zip(dirs, eq.unstable, keep):
            assert np.array_equal(d.coeffs, stored.coeffs)
            assert np.array_equal(stored.coeffs, vecs[:, i].reshape(stored.coeffs.shape))
        # the dense count of the whole matrix agrees with the block solve
        assert eq.morse_index == keep.size == int(np.sum(np.linalg.eigvalsh(L) < -MORSE_TOL))

    return check


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)
