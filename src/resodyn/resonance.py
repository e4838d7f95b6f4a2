"""Degree-of-resonance bookkeeping and the kernel-weighted resonance
functionals, evaluated in closed form from one sign-set quadrature per
kernel component."""

from __future__ import annotations

import warnings
import zipfile
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from numpy.lib import format as npy

from .decomposition import SplitIndexSet
from .errors import ConfigurationError, EvaluationError
from .fields import NonlinearField, galerkin_F
from .semiflow import _csv_table
from .spectral import (GalerkinState, ProblemConfig, SpectralBasis, _count, _gauss_legendre,
                       _one_based, _radius, _scipy_dir, _sign, _ufuncs, fractional_weights)

__all__ = [
    "DegreeSets",
    "LLReport",
    "MarginTable",
    "degree_sets",
    "block_modes",
    "ll_functional",
    "evaluate_LL",
    "guiding_margin",
]

V_RADIUS = 10.0  # radius of the complementary kernel ball guiding_margin draws v from
PANEL_LEVELS = 40  # geometric refinements toward each end of a sign-set interval

@dataclass(frozen=True)
class DegreeSets:
    """Minima of the resonance degrees and their argmin index sets.

    For l = m the second block is empty: sigma_check2 is None and J2 = ().
    """

    sigma_check1: float
    J1: tuple[int, ...]
    sigma_check2: Optional[float]
    J2: tuple[int, ...]


@dataclass(frozen=True)
class LLReport:
    condition: str           # "LL1+" | "LL1-" | "LL2+" | "LL2-"
    verdict: str             # "holds" | "fails" | "vacuous"
    min_value: Optional[float]
    argmin_direction: Optional[tuple[float, ...]]
    samples: int
    sampled_only: bool = False

    def to_dict(self) -> dict:
        # every field is a scalar or a tuple of floats, so asdict's deep copy
        # would only rebuild the same values
        return dict(vars(self))


def degree_sets(config: ProblemConfig) -> DegreeSets:
    """sigma-check minima with their argmin sets J1 (and J2 when l < m);
    ProblemConfig has already refused a minimum >= 1."""
    sig = np.asarray(config.sigma)
    s1 = float(np.min(sig[: config.l]))
    J1 = tuple(int(k) for k in range(1, config.l + 1) if sig[k - 1] == s1)
    if config.l == config.m:
        return DegreeSets(sigma_check1=s1, J1=J1, sigma_check2=None, J2=())
    s2 = float(np.min(sig[config.l:]))
    J2 = tuple(int(k) for k in range(config.l + 1, config.m + 1) if sig[k - 1] == s2)
    return DegreeSets(sigma_check1=s1, J1=J1, sigma_check2=s2, J2=J2)


def _block_mask(split: SplitIndexSet, which: int) -> np.ndarray:
    return split.masks[("P1", "P2")[_one_based("which", which, 2) - 1]]


def block_modes(split: SplitIndexSet, which: int) -> tuple[tuple[int, int], ...]:
    """Kernel modes of block 1 (components <= l) or 2, in deterministic order."""
    return tuple((int(k) + 1, int(j) + 1) for k, j in np.argwhere(_block_mask(split, which)))


def _graded_panels(a: float, b: float) -> list[tuple[float, float]]:
    """Panels of [a, b] refined geometrically toward both endpoints.

    The sign-set integrand behaves like (distance to endpoint)^{1-sigma}
    there, so fixed-order Gauss panels on a geometric grading restore fast
    convergence.
    """
    c = 0.5 * (a + b)
    cuts = [a]
    cuts += [a + (c - a) * 2.0 ** (-k) for k in range(PANEL_LEVELS, 0, -1)]
    cuts += [b - (b - c) * 2.0 ** (-k) for k in range(1, PANEL_LEVELS + 1)]
    cuts.append(b)
    return [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]


def _sign_set_integrals(field: NonlinearField, basis: SpectralBasis, m: int,
                        components: Sequence[tuple[int, int]],
                        sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """P_k and N_k for each (component k, kernel mode j) pair of an m-component
    system.

    With p = 1 - sigma and the segments of (0, L) between the roots i L / j
    of phi_j, where phi_j has the sign (-1)^i on segment i,
        P_k = int_{phi_j>0} f_k^+ |phi_j|^p - int_{phi_j<0} f_k^- |phi_j|^p,
        N_k = int_{phi_j<0} f_k^+ |phi_j|^p - int_{phi_j>0} f_k^- |phi_j|^p,
    so that u_k = d phi_j contributes |d|^p P_k for d > 0 and |d|^p N_k for
    d < 0.  The panels, their nodes, weights and |phi_j|^p, and f_plus and
    f_minus (each called once on all nodes) are computed once per distinct
    kernel mode j and gathered per pair, whose panel sums are added in pair
    and panel order.
    """
    L = basis.domain.length
    norm = np.sqrt(2.0 / L)
    xg, wg = _gauss_legendre(max(32, basis.domain.quad_nodes // 2))
    panels, mode, positive, spans = [], [], [], {}
    for j in dict.fromkeys(j for _, j in components):
        first = len(panels)
        cuts = [0.0] + [i * L / j for i in range(1, j)] + [L]
        for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
            # phi_j vanishes at both segment ends, so for sigma > 0 the
            # integrand has a root-power kink there; grade the panels
            segment = _graded_panels(a, b) if sigma > 0 else [(a, b)]
            panels += segment
            positive += [i % 2 == 0] * len(segment)
        mode += [j] * (len(panels) - first)
        spans[j] = np.arange(first, len(panels))
    # the panels of each pair, in pair order, and the pair and row of each
    take = np.concatenate([spans[j] for _, j in components] or [np.empty(0, dtype=int)])
    owner = np.repeat(np.arange(len(components)), [spans[j].size for _, j in components])
    rows = np.array([k - 1 for k, _ in components], dtype=int)[owner]
    lo, hi = np.array(panels, dtype=float).reshape(-1, 2).T
    half = 0.5 * (hi - lo)[:, None]
    xs = half * xg + 0.5 * (lo + hi)[:, None]
    ws = (half * wg)[take]
    weight = (np.abs(norm * np.sin(np.array(mode, dtype=int)[:, None] * np.pi * xs / L))
              ** (1.0 - sigma))[take]
    sums = {}
    for name in ("f_plus", "f_minus"):
        lim = np.asarray(getattr(field, name)(xs.ravel()), dtype=float)
        if lim.shape != (m, xs.size):
            raise ConfigurationError(f"{name} must return an (m, n) array on the nodes")
        lim = lim.reshape(m, *xs.shape)[rows, take]
        if not np.all(np.isfinite(lim)):
            panel, node = np.argwhere(~np.isfinite(lim))[0]
            raise EvaluationError(
                f"non-finite {name} value in component {rows[panel] + 1} "
                f"at x={xs[take[panel], node]:.6g}")
        sums[name] = np.sum(ws * lim * weight, axis=1)
    positive = np.array(positive, dtype=bool)[take]
    fp, fm = sums["f_plus"], sums["f_minus"]
    P = np.bincount(owner, np.where(positive, fp, -fm), minlength=len(components))
    N = np.bincount(owner, np.where(positive, -fm, fp), minlength=len(components))
    return P, N


def _ll_values(field: NonlinearField, basis: SpectralBasis, split: SplitIndexSet,
               config: ProblemConfig, which: int, directions: np.ndarray) -> np.ndarray:
    """S for each row of ``directions`` (entries in ``block_modes`` order).

    Each component of a kernel block carries exactly one kernel mode, so
    u_k = d_i phi_j and S(d) = sum_{k in J} |d_i|^{1-sigma} (P_k if d_i > 0,
    N_k if d_i < 0), with P_k, N_k from ``_sign_set_integrals``.
    """
    modes = block_modes(split, which)
    if not modes:
        raise ConfigurationError(f"kernel block {which} is trivial")
    components = [k for k, _ in modes]
    for k in components:
        if components.count(k) > 1:
            raise ConfigurationError(
                f"component {k} has {components.count(k)} kernel modes in block {which}; "
                "a classified split gives at most one")
    if directions.shape[1:] != (len(modes),):
        raise ConfigurationError(
            f"direction must have {len(modes)} entries for block {which}, "
            f"got {directions.shape[1:]}")
    dsets = degree_sets(config)
    Jset = dsets.J1 if which == 1 else dsets.J2
    sigma = dsets.sigma_check1 if which == 1 else dsets.sigma_check2
    active = [(i, k, j) for i, (k, j) in enumerate(modes) if k in Jset]
    P, N = _sign_set_integrals(field, basis, config.m, [(k, j) for _, k, j in active], sigma)
    total = np.zeros(directions.shape[0])
    for (i, _, _), Pk, Nk in zip(active, P, N):
        d = directions[:, i]
        total += np.abs(d) ** (1.0 - sigma) * np.where(d > 0, Pk, np.where(d < 0, Nk, 0.0))
    return total


def ll_functional(field: NonlinearField, basis: SpectralBasis, split: SplitIndexSet,
                  config: ProblemConfig, which: int, direction: Sequence[float]) -> float:
    """Signless resonance sum S for one kernel direction.

    S = sum_{k in J} ( int_{u_k>0} f_k^+ |u_k|^{1-sigma_k}
                       - int_{u_k<0} f_k^- |u_k|^{1-sigma_k} ),
    where J is the argmin degree set of the block and u is the kernel element
    encoded by ``direction`` (entries in ``block_modes`` order).  The sign
    conditions then read +-S > 0.  A NaN or infinite entry of ``direction``
    raises ConfigurationError.
    """
    direction = np.asarray(direction, dtype=float)
    _radius("largest |direction| entry", np.abs(direction).max(initial=0.0))
    return float(_ll_values(field, basis, split, config, which, direction[None])[0])


SOBOL_BITS = 30  # scipy's default: the points are multiples of 2**-30
_NPY_HEADERS = {(1, 0): npy.read_array_header_1_0, (2, 0): npy.read_array_header_2_0}


def _npy_rows(npz: zipfile.ZipFile, name: str, dim: int,
              ncols: Optional[int] = None) -> np.ndarray:
    """The first ``dim`` entries of the 1-D int64 member ``name`` of ``npz``,
    or, given ``ncols``, the first ``dim`` rows of the first ``ncols``
    columns of its column-major 2-D int64 member, shape (dim, ncols).  The
    stream is read only up to the last entry used, so the rest of the
    member is never decompressed; another layout raises ValueError."""
    with npz.open(f"{name}.npy") as stream:
        version = npy.read_magic(stream)
        if version not in _NPY_HEADERS:
            raise ValueError(f"{name}.npy has format version {version}")
        shape, fortran_order, dtype = _NPY_HEADERS[version](stream)
        layout = (len(shape) == 1 if ncols is None
                  else len(shape) == 2 and fortran_order and shape[1] >= ncols)
        if not layout or dtype != np.int64 or shape[0] < dim:
            raise ValueError(f"{name}.npy holds a {'Fortran' if fortran_order else 'C'}-ordered "
                             f"{dtype} array of shape {shape}, not int64 with {dim} rows")
        width = 1 if ncols is None else ncols
        kept = []
        for c in range(width):
            # the rest of the previous column, in 16 KB reads that keep the
            # decompression buffers small
            left = 8 * (shape[0] - dim) if c else 0
            while left > 0 and (chunk := len(stream.read(min(left, 1 << 14)))):
                left -= chunk
            kept.append(stream.read(8 * dim))
    data = b"".join(kept)
    if len(data) < 8 * dim * width:
        raise ValueError(f"{name}.npy ends early")
    out = np.frombuffer(data, dtype=np.int64)
    return out if ncols is None else out.reshape(width, dim).T


@lru_cache(maxsize=None)
def _sobol_directions(dim: int) -> np.ndarray:
    """The direction numbers of scipy's Sobol' sequence in its first ``dim``
    dimensions, read-only, shape (dim, SOBOL_BITS): entry (d, j) is
    direction number j of dimension d as an integer multiple of
    2**-SOBOL_BITS.

    Dimension 0 has every initial number 1, and each later dimension
    follows the Bratley-Fox recurrence of its primitive polynomial from its
    initial direction numbers, both from scipy's table
    ``stats/_sobol_direction_numbers.npz`` (Joe and Kuo's; ``scipy.stats``
    itself is not imported).  Only the entries of these dimensions are
    read: the first ``dim`` polynomials and, of the column-major ``vinit``,
    the columns up to their highest degree.  A table of another layout
    raises ImportError naming it.
    """
    path = _scipy_dir() / "stats" / "_sobol_direction_numbers.npz"
    try:
        with zipfile.ZipFile(path) as npz:
            poly = [int(p) for p in _npy_rows(npz, "poly", dim)]
            vinit = _npy_rows(npz, "vinit", dim, max(p.bit_length() - 1 for p in poly))
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ImportError(f"Sobol' direction numbers not read from {path}: {exc}",
                          path=str(path)) from None
    v = np.ones((dim, SOBOL_BITS), dtype=np.int64)
    for d in range(1, dim):
        p = poly[d]
        deg = p.bit_length() - 1
        row = [int(a) for a in vinit[d, :deg]]
        for j in range(deg, SOBOL_BITS):
            new = row[j - deg]
            for k in range(deg):
                if (p >> (deg - 1 - k)) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        v[d] = row
    v <<= SOBOL_BITS - 1 - np.arange(SOBOL_BITS)
    v.flags.writeable = False
    return v


def _sobol(dim: int, n: int, seed: int) -> np.ndarray:
    """The first n points of ``scipy.stats.qmc.Sobol(d=dim, scramble=True,
    seed=seed)``, bit for bit, with its warning for an n that is not a
    power of 2.

    The direction numbers come from ``_sobol_directions``.
    default_rng(seed) draws, in scipy's order, a digital shift and one
    lower-triangular GF(2) matrix per dimension with unit diagonal (LMS
    scrambling, acting on the bits from the most significant down).  Point
    0 is the shift, and point i + 1 is point i XOR the scrambled direction
    number at the lowest zero bit of i (Gray-code order).
    """
    v, bits = _sobol_directions(dim), SOBOL_BITS
    pos = np.arange(bits)
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(dim, bits), dtype=np.uint32) @ (1 << pos)
    ltm = np.tril(rng.integers(2, size=(dim, bits, bits), dtype=np.uint32))
    ltm[:, pos, pos] = 1
    digits = (v[:, :, None] >> (bits - 1 - pos)) & 1  # (dim, j, digit r from the top)
    # each entry counts at most SOBOL_BITS ones, so the float64 product is exact
    sums = digits.astype(float) @ ltm.transpose(0, 2, 1)
    scrambled = (sums.astype(np.int64) & 1) @ (1 << (bits - 1 - pos))
    if n & (n - 1):
        warnings.warn("The balance properties of Sobol' points require"
                      " n to be a power of 2.", stacklevel=2)
    i = np.arange(max(n - 1, 0), dtype=np.uint32)
    col = np.bitwise_count(i ^ (i + 1)) - 1  # the lowest zero bit of i
    walk = np.bitwise_xor.accumulate(scrambled[:, col].T, axis=0)
    return np.vstack([shift, walk ^ shift])[:n] * 2.0 ** -bits


def _sphere_directions(dim: int, samples: int, seed: int) -> np.ndarray:
    """+-e_i plus low-discrepancy sphere points (deterministic for a seed):
    scrambled Sobol' points mapped through the normal quantile and
    normalised."""
    eye = np.eye(dim)
    axes = np.stack([eye, -eye], axis=1).reshape(2 * dim, dim)  # e_0, -e_0, e_1, ...
    if dim < 2 or samples <= 0:
        return axes
    g = _ufuncs().ndtri(np.clip(_sobol(dim, samples, seed), 1e-12, 1 - 1e-12))
    lens = np.linalg.norm(g, axis=1)
    good = lens > 0
    return np.concatenate([axes, g[good] / lens[good, None]])


def evaluate_LL(field: NonlinearField, basis: SpectralBasis, split: SplitIndexSet,
                config: ProblemConfig, which: int, samples: int = 512,
                seed: int = 0) -> dict[str, LLReport]:
    """Minimize S and -S over one deterministic sampling of the sphere of
    kernel block ``which``; returns the reports ``LL<which>+`` and
    ``LL<which>-``, both read from one draw and one evaluation of S.

    1-D blocks are exhausted by +-e_1; higher dimensional blocks are only
    sampled and the reports say so.  A verdict holds iff its sampled
    minimum is strictly positive; a block without kernel modes is vacuous.
    """
    which, samples = _one_based("which", which, 2), _count("samples", samples)
    names = (f"LL{which}+", f"LL{which}-")
    dim = len(block_modes(split, which))
    if dim == 0:
        return {name: LLReport(name, "vacuous", None, None, 0) for name in names}
    dirs = _sphere_directions(dim, samples if dim >= 2 else 0, seed)
    S = _ll_values(field, basis, split, config, which, dirs)
    reports = {}
    for name, sign in zip(names, (1.0, -1.0)):
        values = sign * S
        best = int(np.argmin(values))  # the first of tied minima
        reports[name] = LLReport(
            condition=name,
            verdict="holds" if values[best] > 0 else "fails",
            min_value=float(values[best]),
            argmin_direction=tuple(float(v) for v in dirs[best]),
            samples=len(dirs),
            sampled_only=dim >= 2,
        )
    return reports


@dataclass(frozen=True)
class MarginTable:
    """Sampled guiding margins min +-<F(u+v+w), u>_which over a radius grid."""

    which: int
    sign: str
    rows: tuple[tuple[float, float], ...]  # (R, margin)

    def to_csv(self) -> str:
        return _csv_table(("R", "margin"), self.rows)

    def to_dict(self) -> dict:
        return {"which": self.which, "sign": self.sign,
                "rows": [{"R": R, "margin": margin} for R, margin in self.rows]}


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] . b[i]`` for each row of two (S, n) stacks, each the ddot that
    ``np.dot`` of the two rows alone makes (a stacked vector-vector matmul
    runs one dot per pair)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def guiding_margin(field: NonlinearField, basis: SpectralBasis, split: SplitIndexSet,
                   config: ProblemConfig, which: int, W_radius: float,
                   R_grid: Sequence[float], samples: int = 64, sign: str = "+",
                   seed: int = 0) -> MarginTable:
    """Empirical lower bounds for the kernel-drift functional.

    For each R, samples (u, v, w) with ||u|| = R in the block kernel, v in
    the complementary kernel ball of radius V_RADIUS, and w in the
    X- + X+ ball of fractional radius ``W_radius``; returns the minimum of
    +-<F(u+v+w), u>_which over the samples.  A positive margin at and beyond
    some radius supports the guiding estimate behind the a priori bounds.
    Every R and ``W_radius`` is finite and >= 0; anything else raises
    ConfigurationError.

    The draws of each sample come from one generator in sample order (u's
    normals; v's normals and radius; w's normals and, when its fractional
    norm is positive, its radius), so they stay one loop; everything else
    runs on the stack of one R, bit for bit the per-sample arithmetic:
    norms as ``np.linalg.norm``'s ddot, fractional norms as ``np.sum`` over
    one C-ordered (m, J) state, the block inner product adding each
    component's ddot in component order from 0.0, and the first of tied
    minima.
    """
    which, sign = _one_based("which", which, 2), _sign("sign", sign)
    samples = _count("samples", samples)
    sgn = 1.0 if sign == "+" else -1.0
    if not len(R_grid):
        raise ConfigurationError("R_grid needs at least one value")
    R_grid = [_radius("R_grid", R) for R in R_grid]
    W_radius = _radius("W_radius", W_radius)
    rng = np.random.default_rng(seed)
    main_mask = _block_mask(split, which)
    other_mask = _block_mask(split, 2 if which == 1 else 1)
    n_main = int(np.count_nonzero(main_mask))
    n_other = int(np.count_nonzero(other_mask))
    if not n_main:
        raise ConfigurationError(f"kernel block {which} is trivial")
    out_mask = ~split.masks["Q0"]
    n_out = int(np.count_nonzero(out_mask))
    weights = fractional_weights(basis, config) ** config.alpha
    w_out = weights[out_mask]
    lo, hi = (0, config.l) if which == 1 else (config.l, config.m)
    shape = (samples, split.m, split.J)
    rows = []
    for R in R_grid:
        du = np.empty((samples, n_main))
        dv, v_scale = np.empty((samples, n_other)), np.empty(samples)
        raw, w_scale = np.empty((samples, n_out)), np.empty(samples)
        scaled = np.zeros(samples, dtype=bool)
        for i in range(samples):
            du[i] = rng.normal(size=n_main)
            if n_other:
                dv[i] = rng.normal(size=n_other)
                v_scale[i] = V_RADIUS * rng.uniform()
            if n_out:
                raw[i] = rng.normal(size=n_out)
                # the fractional norm is positive exactly when a weighted
                # square is (a sum of nonnegative terms is 0 only if each is)
                x = w_out * raw[i]
                if x.dot(x) > 0:
                    scaled[i] = True
                    w_scale[i] = W_radius * rng.uniform()
        u, v, w = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        u[:, main_mask] = R * (du / np.sqrt(_dots(du, du))[:, None])
        if n_other:
            v[:, other_mask] = dv * (v_scale / np.sqrt(_dots(dv, dv)))[:, None]
        if n_out:
            w[:, out_mask] = raw
            frac = np.sqrt(((weights * w) ** 2).reshape(samples, -1).sum(axis=-1))
            w[scaled] *= (w_scale[scaled] / frac[scaled])[:, None, None]
        F = galerkin_F(field, basis, GalerkinState._trusted(u + v + w)).coeffs
        inner = np.zeros(samples)
        for k in range(lo, hi):
            inner += _dots(F[:, k], u[:, k])
        scores = sgn * inner
        rows.append((float(R), float(scores[scores.argmin()])))
    return MarginTable(which=which, sign=sign, rows=tuple(rows))
