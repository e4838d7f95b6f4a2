"""Mode classification into the kernel blocks N1, N2 and the spectral halves
X-, X+, with the associated projections and integer counts."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import AmbiguousResonanceError, ConfigurationError, HypothesisError
from .spectral import GalerkinState, ProblemConfig, SpectralBasis, _check_states, _radius

__all__ = ["SplitIndexSet", "CountVector", "classify", "counts", "project", "mode_mask"]

# mode classes stored in SplitIndexSet.labels
N1, N2, MINUS, PLUS = range(4)
# projection name -> the mode classes it keeps
_PROJECTION_CLASSES = {"P1": (N1,), "P2": (N2,), "Qminus": (MINUS,), "Qplus": (PLUS,),
                       "Q0": (N1, N2)}
PROJECTIONS = tuple(_PROJECTION_CLASSES)
# projection name -> whether it keeps each mode class, indexed by label
_PROJECTION_TABLES = {name: np.isin(range(4), classes)
                      for name, classes in _PROJECTION_CLASSES.items()}


def _mode_set(mask: np.ndarray) -> frozenset:
    return frozenset((int(k) + 1, int(j) + 1) for k, j in np.argwhere(mask))


@dataclass(frozen=True, eq=False)
class SplitIndexSet:
    """Partition of {1..m} x {1..J} into kernel, negative and positive modes.

    ``labels`` is the read-only (m, J) array of mode classes N1, N2, MINUS,
    PLUS (any other value raises ConfigurationError); ``masks`` maps every
    name in PROJECTIONS to its read-only boolean (m, J) mask, built once
    from the labels.
    ``gap`` is the smallest |mu_j - lambda_k| over the nonkernel modes, the
    spectral-gap constant used by the a priori bounds.
    ``nonresonant_components`` lists components whose shift matched no
    eigenvalue (classification proceeds, but the standing resonance
    assumption fails there).
    """

    labels: np.ndarray
    gap: float
    nonresonant_components: tuple[int, ...] = ()
    masks: Mapping[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 2 or not np.all((labels == N1) | (labels == N2) | (labels == MINUS)
                                          | (labels == PLUS)):
            raise ConfigurationError(f"labels must be a 2-D array of the mode classes N1, N2, "
                                     f"MINUS, PLUS ({N1}..{PLUS}), got {self.labels!r}")
        labels = labels.astype(np.int8)
        labels.flags.writeable = False
        masks = {}
        for name, table in _PROJECTION_TABLES.items():
            mask = table[labels]
            mask.flags.writeable = False
            masks[name] = mask
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "masks", MappingProxyType(masks))

    @property
    def m(self) -> int:
        return self.labels.shape[0]

    @property
    def J(self) -> int:
        return self.labels.shape[1]

    # the mode sets as frozensets of 1-based (k, j) pairs, for reports
    n1_modes = property(lambda self: _mode_set(self.masks["P1"]))
    n2_modes = property(lambda self: _mode_set(self.masks["P2"]))
    minus_modes = property(lambda self: _mode_set(self.masks["Qminus"]))
    plus_modes = property(lambda self: _mode_set(self.masks["Qplus"]))


@dataclass(frozen=True)
class CountVector:
    d_inf: int
    n1: int
    n2: int


def classify(basis: SpectralBasis, config: ProblemConfig,
             tol: float = 1e-8) -> SplitIndexSet:
    """Classify every mode (k, j) by the sign of mu_j - lambda_k.

    Kernel membership is by relative tolerance; a shift falling between tol
    and 10 tol of an eigenvalue raises AmbiguousResonanceError.  Refuses
    configurations with lambda_k >= mu_J, where the negative count would be
    truncation-dependent.  ``tol`` is finite and > 0; anything else raises
    ConfigurationError.
    """
    tol = _radius("tol", tol, positive=True)
    mu = basis.mu
    lam = config.lam_array()
    labels = np.empty((config.m, basis.J), dtype=np.int8)
    nonres = []
    gap = np.inf
    for k in range(1, config.m + 1):
        lk = lam[k - 1]
        scale_top = max(1.0, abs(mu[-1]), abs(lk))
        if lk >= mu[-1] - 10 * tol * scale_top:
            raise HypothesisError(
                f"lambda_{k}={lk:.6g} is not below mu_J={mu[-1]:.6g}; "
                "the negative spectral count would be under-counted at this truncation"
            )
        d = mu - lk
        scale = np.maximum(np.maximum(1.0, np.abs(mu)), abs(lk))
        kernel = np.abs(d) <= tol * scale
        ambiguous = ~kernel & (np.abs(d) < 10 * tol * scale)
        if ambiguous.any():
            j = int(np.argmax(ambiguous)) + 1
            raise AmbiguousResonanceError(
                f"lambda_{k}={lk!r} lies within ({tol:g}, {10 * tol:g}) relative "
                f"distance of mu_{j}={mu[j - 1]!r}; adjust the kernel tolerance"
            )
        labels[k - 1] = np.where(kernel, N1 if k <= config.l else N2,
                                 np.where(d < 0, MINUS, PLUS))
        if not kernel.all():
            gap = min(gap, np.min(np.abs(d[~kernel])))
        if not kernel.any():
            nonres.append(k)
    return SplitIndexSet(labels=labels, gap=float(gap), nonresonant_components=tuple(nonres))


def counts(split: SplitIndexSet) -> CountVector:
    """Integer counts (d_inf, n1, n2) = (|X- modes|, |N1 modes|, |N2 modes|)."""
    return CountVector(*(int(np.count_nonzero(split.masks[name]))
                         for name in ("Qminus", "P1", "P2")))


def mode_mask(split: SplitIndexSet, component: str) -> np.ndarray:
    """Read-only boolean (m, J) mask selecting the modes of one projection."""
    try:
        return split.masks[component]
    except KeyError:
        raise ConfigurationError(
            f"unknown projection {component!r}; expected one of {PROJECTIONS}") from None


def project(split: SplitIndexSet, component: str, u: GalerkinState) -> GalerkinState:
    """Zero all coefficients outside the selected mode set; Q0 = P1 + P2."""
    mask = mode_mask(split, component)
    _check_states("state", [u.coeffs], *mask.shape)
    return GalerkinState._trusted(np.where(mask, u.coeffs, 0.0))
