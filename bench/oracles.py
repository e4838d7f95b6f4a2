"""Closed forms that the benchmark checks resodyn's outputs against.

Nothing here imports resodyn: every value is derived from the problem data
alone (interval length, truncation, shifts, field gain and sign, resonance
degree), so a fault in the program cannot also hide in its oracle.

Conventions follow the program's experiment files: the shifts are written
``lambda_k = mu(r_k)``, i.e. exactly on an eigenvalue of the Dirichlet
Laplacian on (0, L), and an arctan-type field ``+-arctan(K u)`` (or its
scaled variant) has the u-Jacobian ``G = +-K I`` at the origin.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

# relative distance below which a shifted linearization counts as resonant
RESONANCE_TOL = 1e-8


def mu(J: int, length: float) -> np.ndarray:
    """Dirichlet eigenvalues mu_j = (j pi / L)^2, j = 1..J."""
    j = np.arange(1, J + 1)
    return (j * np.pi / length) ** 2


def counts(m: int, l: int, resonant_index: Sequence[int]) -> dict:
    """(d_inf, n1, n2) for shifts lambda_k = mu(r_k).

    Every component has exactly one kernel mode (j = r_k) and r_k - 1 modes
    below its shift; the kernel modes of components 1..l form block 1.
    """
    r = [int(v) for v in resonant_index]
    if len(r) != m or not 1 <= l <= m:
        raise ValueError(f"need m={m} resonant indices and 1 <= l <= m, got {r}, l={l}")
    return {"d_inf": sum(v - 1 for v in r), "n1": l, "n2": m - l}


def d0(J: int, length: float, resonant_index: Sequence[int],
       gain: float) -> Optional[int]:
    """Origin exponent sum_k #{j <= J : mu_j < lambda_k + g} for G = g I.

    Returns None when some lambda_k + g sits on an eigenvalue (the origin is
    resonant and has no index).
    """
    ev = mu(J, length)
    total = 0
    for r in resonant_index:
        theta = ev[int(r) - 1] + gain
        scale = max(1.0, abs(theta), float(ev[-1]))
        if np.min(np.abs(ev - theta)) <= RESONANCE_TOL * scale:
            return None
        total += int(np.sum(ev < theta))
    return total


def exponent_at_infinity(cv: dict, sign1: Optional[str],
                         sign2: Optional[str]) -> Optional[int]:
    """Sphere exponent of the bounded invariant set for a verified sign pair.

    (+,+) -> d_inf + n1 + n2, (-,-) -> d_inf, (+,-) -> d_inf + n1,
    (-,+) -> d_inf + n2.  An empty block (count 0) is compatible with either
    sign.  None when a nonempty block has no verified sign.
    """
    exponent = cv["d_inf"]
    for sign, n in ((sign1, cv["n1"]), (sign2, cv["n2"])):
        if n == 0:
            continue
        if sign not in ("+", "-"):
            return None
        if sign == "+":
            exponent += n
    return exponent


def ll_value(sigma: float, length: float) -> float:
    """S* = (pi/2) (2/L)^{p/2} (L/sqrt(pi)) Gamma((p+1)/2) / Gamma(p/2+1), p = 1 - sigma.

    This is the resonance functional of a field with limits +-pi/2 along a
    unit kernel direction phi_1 e_k; at sigma = 0 it equals sqrt(2 L).
    """
    p = 1.0 - sigma
    return ((math.pi / 2.0) * (2.0 / length) ** (p / 2.0) * (length / math.sqrt(math.pi))
            * math.gamma((p + 1.0) / 2.0) / math.gamma(p / 2.0 + 1.0))


def ll_block_max(k: int, sigma: float, length: float) -> float:
    """Maximum of the functional over the unit sphere of a k-dimensional
    block, k^{(1+sigma)/2} S*, attained at equal weights 1/sqrt(k)."""
    return k ** ((1.0 + sigma) / 2.0) * ll_value(sigma, length)
