"""Homotopy-type tokens with smash-product arithmetic, the sign-resolved
index formulas for the set of bounded solutions, the origin exponent d0, and
the connecting-orbit criterion."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import eigh

from .decomposition import CountVector
from .errors import ConfigurationError, HypothesisError
from .fields import _u_jacobian
from .spectral import ProblemConfig, SpectralBasis

__all__ = [
    "HomotopyType",
    "LinearizationData",
    "ConnectionVerdict",
    "IndexReport",
    "wedge",
    "index_K_infinity",
    "index_partition",
    "d_zero",
    "nonresonance_at_origin",
    "connection_verdict",
]

SIGN_PAIRS = {
    ("+", "+"): "plus_plus",
    ("-", "-"): "minus_minus",
    ("+", "-"): "plus_minus",
    ("-", "+"): "minus_plus",
}


@dataclass(frozen=True)
class HomotopyType:
    """Either the trivial pointed type or a sphere token with an exponent.

    The toolkit never builds topological spaces: smash products act on these
    tokens as exponent addition with the trivial type absorbing.
    """

    exponent: Optional[int]  # None encodes the trivial type

    def __post_init__(self):
        if self.exponent is not None and self.exponent < 0:
            raise ConfigurationError(f"sphere exponent must be >= 0, got {self.exponent}")

    @classmethod
    def trivial(cls) -> "HomotopyType":
        return cls(exponent=None)

    @classmethod
    def sphere(cls, k: int) -> "HomotopyType":
        return cls(exponent=int(k))

    @property
    def is_trivial(self) -> bool:
        return self.exponent is None

    def __str__(self) -> str:
        return "Trivial" if self.is_trivial else f"Sphere({self.exponent})"


def wedge(a: HomotopyType, b: HomotopyType) -> HomotopyType:
    """Smash product on tokens: Sphere(p) ^ Sphere(q) = Sphere(p+q); the
    trivial type absorbs everything."""
    if a.is_trivial or b.is_trivial:
        return HomotopyType.trivial()
    return HomotopyType.sphere(a.exponent + b.exponent)


def _normalize_sign(sign, n_count: int) -> Optional[str]:
    """Fold a vacuous verdict into a sign choice (its count contribution is 0,
    so both branches agree); None means not verified."""
    if sign in ("+", "-"):
        return sign
    if sign == "vacuous":
        if n_count != 0:
            raise ConfigurationError(
                "a vacuous resonance verdict requires the matching kernel count to be 0"
            )
        return "+"
    return None


def index_K_infinity(cv: CountVector, ll1_sign, ll2_sign) -> tuple[Optional[HomotopyType], str]:
    """Sphere exponent of the maximal bounded invariant set for a verified
    sign pair.

    (+,+) -> d_inf + n1 + n2, (-,-) -> d_inf, (+,-) -> d_inf + n1,
    (-,+) -> d_inf + n2.  ``vacuous`` verdicts are sign-compatible with
    either branch.  Returns (None, "none") when no pair is verified.
    """
    s1 = _normalize_sign(ll1_sign, cv.n1)
    s2 = _normalize_sign(ll2_sign, cv.n2)
    if s1 is None or s2 is None:
        return None, "none"
    exponent = cv.d_inf
    if s1 == "+":
        exponent += cv.n1
    if s2 == "+":
        exponent += cv.n2
    return HomotopyType.sphere(exponent), SIGN_PAIRS[(s1, s2)]


def index_partition(d_inf: int, kernel_dims: Sequence[int],
                    blocks: Sequence[Sequence[int]],
                    signs: Sequence[str]) -> HomotopyType:
    """Sphere exponent for an r-block partition of the components.

    ``kernel_dims[k-1]`` is dim Ker for component k; the blocks must
    partition {1..m}.  Each block contributes its kernel-dimension sum when
    its sign is plus and nothing when minus.
    """
    m = len(kernel_dims)
    if len(blocks) != len(signs):
        raise ConfigurationError("need one sign per block")
    seen: set[int] = set()
    for block in blocks:
        bset = set(int(i) for i in block)
        if bset & seen:
            raise ConfigurationError(f"overlapping partition blocks: {sorted(bset & seen)}")
        if not bset <= set(range(1, m + 1)):
            raise ConfigurationError(f"block {sorted(bset)} is not a subset of 1..{m}")
        seen |= bset
    if seen != set(range(1, m + 1)):
        raise ConfigurationError("blocks must partition {1..m}")
    exponent = int(d_inf)
    for block, sign in zip(blocks, signs):
        if sign not in ("+", "-"):
            raise ConfigurationError(f"sign must be '+' or '-', got {sign!r}")
        if sign == "+":
            exponent += sum(int(kernel_dims[i - 1]) for i in block)
    return HomotopyType.sphere(exponent)


@dataclass(frozen=True)
class LinearizationData:
    """Symmetric coupling matrix G = D_u f(x, 0, 0) and the sorted spectrum
    of G + diag(lambda)."""

    G: np.ndarray
    theta: np.ndarray
    O: np.ndarray

    @classmethod
    def from_G(cls, G: np.ndarray, config: ProblemConfig) -> "LinearizationData":
        G = np.asarray(G, dtype=float)
        m = config.m
        if G.shape != (m, m):
            raise ConfigurationError(f"G must be {m}x{m}, got {G.shape}")
        if np.max(np.abs(G - G.T)) > 1e-12:
            raise ConfigurationError("G must be symmetric to 1e-12")
        shifted = G + np.diag(config.lam_array())
        theta, O = eigh(shifted)
        residual = np.max(np.abs(O.T @ shifted @ O - np.diag(theta)))
        if residual > 1e-10:
            raise ConfigurationError(f"diagonalization residual {residual:.2e} exceeds 1e-10")
        return cls(G=G, theta=theta, O=O)

    @classmethod
    def from_field(cls, field, config: ProblemConfig, fd_step: float = 1e-6) -> "LinearizationData":
        """Use the field's analytic u-Jacobian at zero when available, else
        central finite differences at (x=midpoint, u=0, du=0)."""
        if field.jac0 is not None:
            return cls.from_G(field.jac0, config)
        zero = np.zeros((config.m, 1))
        G = _u_jacobian(field, np.array([0.5]), zero, zero, fd_step)[:, :, 0]
        return cls.from_G(0.5 * (G + G.T), config)


def d_zero(basis: SpectralBasis, config: ProblemConfig, lin: LinearizationData,
           tol: float = 1e-8) -> int:
    """Count of eigenvalues below the shifted matrix spectrum:
    sum_k #{ j : mu_j < theta_k }.

    Cross-checked against the negative-eigenvalue count of the assembled
    discrete linearization L = blkdiag_j( mu_j I - (G + Lambda) ); the two
    counts must agree exactly.
    """
    mu = basis.mu
    theta = lin.theta
    if np.any(theta >= mu[-1]):
        raise HypothesisError(
            f"max theta={np.max(theta):.6g} is not below mu_J={mu[-1]:.6g}; "
            "increase the truncation"
        )
    for t in theta:
        scale = max(1.0, abs(t))
        if np.any(np.abs(mu - t) <= tol * scale):
            raise HypothesisError(
                f"theta={t:.8g} coincides with an eigenvalue of the diffusion "
                "operator; the linearization at the origin is resonant"
            )
    count = int(sum(int(np.sum(mu < t)) for t in theta))

    m = config.m
    shifted = lin.G + np.diag(config.lam_array())
    blocks = [mu_j * np.eye(m) - shifted for mu_j in mu]
    Lmat = np.zeros((m * basis.J, m * basis.J))
    for idx, blk in enumerate(blocks):
        Lmat[idx * m:(idx + 1) * m, idx * m:(idx + 1) * m] = blk
    negatives = int(np.sum(np.linalg.eigvalsh(Lmat) < 0))
    if negatives != count:
        raise ConfigurationError(
            f"origin-exponent double count disagrees: {count} vs {negatives}"
        )
    return count


def nonresonance_at_origin(basis: SpectralBasis, lin: LinearizationData,
                           tol: float = 1e-8) -> bool:
    """True iff the spectra of the diffusion operator and of G + Lambda are
    disjoint: min |theta_k - mu_j| > tol (relative)."""
    mu = basis.mu
    for t in lin.theta:
        scale = max(1.0, abs(t), float(np.max(np.abs(mu))))
        if np.min(np.abs(mu - t)) <= tol * scale:
            return False
    return True


@dataclass(frozen=True)
class ConnectionVerdict:
    h_K_zero: Optional[HomotopyType]
    h_K_infinity: Optional[HomotopyType]
    theorem_applied: str
    connection_predicted: bool
    reason: str

    def to_dict(self) -> dict:
        return {
            "h_K_zero": str(self.h_K_zero) if self.h_K_zero else None,
            "h_K_infinity": str(self.h_K_infinity) if self.h_K_infinity else None,
            "theorem_applied": self.theorem_applied,
            "connection_predicted": self.connection_predicted,
            "reason": self.reason,
        }


def connection_verdict(cv: CountVector, d0: int, ll1_sign, ll2_sign,
                       nonresonant: bool) -> ConnectionVerdict:
    """Compare the sphere exponents at the origin and at infinity.

    A nontrivial orbit leaving or entering the origin is predicted exactly
    when both indices exist (verified sign pair, nonresonant origin) and
    their exponents differ.
    """
    h_inf, tag = index_K_infinity(cv, ll1_sign, ll2_sign)
    if tag == "none":
        return ConnectionVerdict(None, None, "none", False,
                                 "no verified sign pair; no index formula applies")
    if not nonresonant:
        return ConnectionVerdict(None, h_inf, tag, False,
                                 "linearization at the origin is resonant; "
                                 "the origin index is not defined")
    h_zero = HomotopyType.sphere(d0)
    predicted = (not h_zero.is_trivial) and (h_zero != h_inf)
    reason = (
        f"h(K_0)={h_zero} vs h(K_inf)={h_inf}: "
        + ("distinct exponents force a connecting orbit"
           if predicted else "equal exponents; no connection is forced")
    )
    return ConnectionVerdict(h_zero, h_inf, tag, predicted, reason)


@dataclass(frozen=True)
class IndexReport:
    """Aggregate of the index pipeline for one experiment."""

    counts: CountVector
    d0: Optional[int]
    ll_flags: dict
    c_flags: dict
    verdict: ConnectionVerdict

    def to_dict(self) -> dict:
        return {
            "counts": {"d_inf": self.counts.d_inf, "n1": self.counts.n1, "n2": self.counts.n2},
            "d0": self.d0,
            "ll": self.ll_flags,
            "conditions": self.c_flags,
            "h_K_zero": self.verdict.to_dict()["h_K_zero"],
            "h_K_infinity": self.verdict.to_dict()["h_K_infinity"],
            "theorem_applied": self.verdict.theorem_applied,
            "connection_predicted": self.verdict.connection_predicted,
            "reason": self.verdict.reason,
        }
