"""The reference slice: a fixed loop, timed next to every experiment, that
stands for the machine's speed at that moment.

It does the same kind of work as resodyn's hot path, an explicit Galerkin
step on a (2, 32) state: a validated frozen-dataclass state, parity-folded
matmuls against a (32, 80) node table, elementwise ufuncs, masks and a norm
test, all in small Python calls.  It imports nothing from resodyn, so a
change to the program cannot move it, while a slower or faster host moves
it and the experiment together.  (A loop made of fewer, larger numpy calls
slowed down more than the experiments in the host's slow phases.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

ITERATIONS = 250

_rng = np.random.default_rng(20191028)
_TABLE = _rng.standard_normal((32, 40)) / 8.0      # half of a (32, 80) node table
_WEIGHTS = _rng.uniform(0.0, 0.05, size=40)
_SYM = np.arange(32) % 2 == 0
_MASK = np.zeros((2, 32), dtype=bool)
_MASK[:, 0] = True
_C0 = _rng.standard_normal((2, 32)) / 10.0


@dataclass(frozen=True)
class _State:
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if not np.all(np.isfinite(c)):
            raise FloatingPointError("reference slice diverged")
        object.__setattr__(self, "coeffs", c)


def _field(u: np.ndarray) -> np.ndarray:
    return np.sign(u) * np.arctan(40.0 * np.abs(u))


def _step(state: _State) -> _State:
    c = state.coeffs
    vs = c[:, _SYM] @ _TABLE[_SYM]
    va = c[:, ~_SYM] @ _TABLE[~_SYM]
    f1, f2 = _field(vs + va), _field(vs - va)
    out = np.empty_like(c)
    out[:, _SYM] = ((f1 + f2) * _WEIGHTS) @ _TABLE[_SYM].T
    out[:, ~_SYM] = ((f1 - f2) * _WEIGHTS) @ _TABLE[~_SYM].T
    return _State(0.5 * c + 1e-3 * np.where(_MASK, out, 0.5 * out))


def run_slice(repeats: int = 1) -> float:
    """Run the loop ``repeats`` times; returns the mean wall time of one run
    in seconds."""
    start = time.perf_counter()
    for _ in range(repeats):
        state = _State(_C0)
        for _ in range(ITERATIONS):
            state = _step(state)
            if np.sqrt(np.sum(state.coeffs ** 2)) > 1e8:
                raise FloatingPointError("reference slice diverged")
    return (time.perf_counter() - start) / repeats
