"""Dirichlet sine spectrum on an interval, the diagonal shifted operator, its
semigroup, and the fractional norm.

The basis is analytic: phi_j(x) = sqrt(2/L) sin(j pi x / L) with eigenvalue
mu_j = (j pi / L)^2 of -d^2/dx^2.  Quadrature is Gauss-Legendre on (0, L).

Node and basis tables are built mirror-symmetrically about L/2 and all
projections are folded over mirrored node pairs, so that the odd/even parity
of a coefficient vector is preserved *bit-exactly* by evaluation and
projection.  This matters for dynamics: connecting orbits that live inside a
reflection-symmetry subspace are saddle-targeted, and any roundoff leak into
the complementary parity is exponentially amplified along the kernel
directions.  The fold is a pure reassociation of the same quadrature sum, so
accuracy is unchanged for generic data.
"""

from __future__ import annotations

import math
import operator
import sys
import types
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import import_module
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigurationError, HypothesisError, UnboundedModeError

__all__ = [
    "Domain1D",
    "SpectralBasis",
    "ProblemConfig",
    "GalerkinState",
    "build_basis",
    "apply_A",
    "semigroup_apply",
    "fractional_norm",
]

# exp() argument beyond which a growing semigroup factor is treated as overflow
OVERFLOW_EXPONENT = 700.0


@dataclass(frozen=True)
class Domain1D:
    """Interval (0, length) with a Gauss-Legendre node count: a finite
    length > 0 and a whole number of at least 2 nodes; anything else raises
    ConfigurationError."""

    length: float
    quad_nodes: int

    def __post_init__(self):
        _radius("length", self.length, positive=True)
        object.__setattr__(self, "quad_nodes", _count("quad_nodes", self.quad_nodes, 2))


@dataclass(frozen=True)
class SpectralBasis:
    """First J Dirichlet eigenpairs with mirror-symmetric quadrature tables.

    ``mu`` holds the eigenvalues (J,) and ``phi`` the basis values on all
    nodes, shape (J, nq).  ``parity_sym`` marks modes that are symmetric
    about length/2 (odd j, the columns ``0::2`` of a coefficient matrix);
    the remaining modes (even j, ``1::2``) are antisymmetric.  The
    ``_*_fold`` tables (symmetric rows, antisymmetric rows, the midpoint
    entries of the one parity block nonzero there) are split once, in the
    memory order of the products they feed: a contiguous copy of the
    transposed ``project`` tables would change the last bit.
    """

    domain: Domain1D
    J: int
    mu: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    dphi: np.ndarray = field(repr=False)
    parity_sym: np.ndarray = field(repr=False)
    _half: int = field(repr=False)
    _phi_fold: tuple = field(repr=False)
    _dphi_fold: tuple = field(repr=False)
    _project_fold: tuple = field(repr=False)

    # -- nodal evaluation ---------------------------------------------------

    def values(self, coeffs: np.ndarray) -> np.ndarray:
        """Nodal values of u_k = sum_j c_{k,j} phi_j, shape (m, nq).

        The second half of the nodes is filled by the parity fold, so states
        with pure parity produce exactly (anti)symmetric nodal data.
        """
        return self._fold(coeffs, self._phi_fold, flip=False)

    def dvalues(self, coeffs: np.ndarray) -> np.ndarray:
        """Nodal values of the spatial derivative u_k', shape (m, nq).

        Differentiation swaps the mirror parity of every mode.
        """
        return self._fold(coeffs, self._dphi_fold, flip=True)

    def _fold(self, coeffs, tables, flip):
        """``values`` (or, flipped, ``dvalues``) of ``coeffs`` as float rows
        of at least two dimensions (a stack of 2-D arrays, each its own
        block); rows of another length than J raise ConfigurationError."""
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        if coeffs.shape[-1] != self.J:
            raise ConfigurationError(f"coefficient shape {coeffs.shape} is not (..., J) = "
                                     f"(..., {self.J})")
        # the parity blocks as C-ordered copies, so that the products take
        # one BLAS path whatever numpy does with a stride-2 operand
        cs = np.ascontiguousarray(coeffs[..., 0::2])
        ca = np.ascontiguousarray(coeffs[..., 1::2])
        out = np.empty(coeffs.shape[:-1] + (self.x.size,))
        self._fold_blocks(cs, ca, tables, flip, self._halves(out, False))
        return out

    def _halves(self, nodal, split):
        """Where a fold writes into the nodal array ``nodal`` and a
        projection reads it: its first half of the nodes, its mirrored half
        in mirror order (node nq - 1 - i at position i), and its midpoint
        column (None at an even node count).  A ``split`` array, shape
        (2, ..., nq/2), holds the two halves as its two contiguous blocks;
        any other holds the nodes in natural order, shape (..., nq)."""
        if split:
            return nodal[0], nodal[1], None
        nq, h = self.x.size, self._half
        return nodal[..., :h], nodal[..., nq - h:][..., ::-1], nodal[..., h] if nq % 2 else None

    def _fold_blocks(self, cs, ca, tables, flip, halves):
        """The fold: nodal values of the C-ordered parity blocks ``cs`` (the
        odd-j columns) and ``ca`` (the even-j ones), written into ``halves``
        (``_halves`` of the nodal array, natural or split)."""
        table_s, table_a, table_mid = tables
        head, mirrored, mid = halves
        vs, va = cs @ table_s, ca @ table_a
        np.add(vs, va, out=head)
        np.subtract(*((va, vs) if flip else (vs, va)), out=mirrored)
        if mid is not None:
            # only the block that is symmetric after the map is nonzero there
            mid[...] = (ca if flip else cs) @ table_mid

    def project(self, fvals: np.ndarray) -> np.ndarray:
        """Quadrature coefficients <f, phi_j>, folded over mirrored pairs.

        Equivalent to ``(phi * w) @ f`` up to reassociation; the fold makes
        the parity cancellation happen elementwise, before any reduction.
        The rows (of a 2-D array, or of each 2-D block of a stack, one
        product per block) are copied C-ordered first, so that every memory
        layout takes the same BLAS path and rounds the same.  Rows of another
        length than the node count raise ConfigurationError.
        """
        fvals = np.ascontiguousarray(np.atleast_2d(np.asarray(fvals, dtype=float)))
        if fvals.shape[-1] != self.x.size:
            raise ConfigurationError(f"nodal shape {fvals.shape} is not (..., nq) = "
                                     f"(..., {self.x.size})")
        return _interleave(*self._project_blocks(self._halves(fvals, False)))

    def _project_blocks(self, halves, ps=None, pa=None):
        """The projection: the coefficients of the float rows whose
        ``halves`` (``_halves`` of a C-ordered nodal array, natural or
        split) are given, as the C-ordered parity blocks ``(ps, pa)`` (the
        odd-j columns, the even-j ones), written into ``ps`` and ``pa`` if
        given.  The products' operands are the fresh C-ordered arrays
        f1 +- f2 in either layout, so the layouts agree bit for bit."""
        weighted_s, weighted_a, weighted_mid = self._project_fold
        f1, f2, mid = halves
        ps = np.matmul(f1 + f2, weighted_s, out=ps)
        if mid is not None:
            ps += mid[..., None] * weighted_mid
        return ps, np.matmul(f1 - f2, weighted_a, out=pa)

    def gram(self) -> np.ndarray:
        """Quadrature Gram matrix of the basis (identity up to quadrature error)."""
        return self.project(self.phi)

    def _blocks(self, shape, reads_x, spare=0, states=None) -> "_Blocks":
        """``_Blocks`` for states of shape (..., m, J): the rows of a 2-D or
        3-D array are one block, and with more axes each trailing (B, m, J)
        stack is its own block, whose products have the shapes that block
        alone gives them.  The blocks hold a copy of ``states``, if given,
        and are uninitialised otherwise; ``spare`` entries of 0.0 follow
        them in the flat buffer.

        For a field that does not read x (``reads_x`` False) at an even
        node count, the nodal buffer is split: shape (2, ..., nq/2), the
        first half of the nodes, then the mirrored half in mirror order,
        so that the fold writes, and the projection reads, two contiguous
        halves instead of two row-strided views.  Otherwise it holds the
        nodes in natural order, the only layout that lines x up with a
        node axis and holds the midpoint.
        """
        lead = shape[:-3] + (math.prod(shape[-3:-1]),)
        size, odd = math.prod(shape), (self.J + 1) // 2
        cut = size // self.J * odd
        flat = np.empty(size + spare)
        if spare:
            flat[size:] = 0.0
        cs, ca = flat[:cut].reshape(lead + (odd,)), flat[cut:size].reshape(lead + (self.J - odd,))
        if states is not None:
            rows = states.reshape(lead + (self.J,))
            cs[...], ca[...] = rows[..., 0::2], rows[..., 1::2]
        split = not reads_x and self.x.size % 2 == 0
        pair, n = ((2,), self._half) if split else ((), self.x.size)
        nodal = np.empty(pair + lead + (n,))
        return _Blocks(flat, cs, ca, nodal, self._halves(nodal, split),
                       nodal.reshape(pair + shape[:-1] + (n,)), self.x[:n], split)


class _Blocks(NamedTuple):
    """Coefficient rows held as the operands of the fold and the projection.

    ``flat`` holds the C-ordered parity blocks, ``cs`` (every row's odd-j
    columns) and then ``ca`` (the even-j ones), which view it (the order of
    ``_parity_order``; ``_interleave`` undoes it), then any spare entries.
    ``nodal`` is the rows' nodal buffer, split into its two mirrored
    halves, shape (2, ..., nq/2), if ``split`` (``SpectralBasis._blocks``),
    ``halves`` where a fold writes into it (``SpectralBasis._halves``),
    and ``U`` views it in the states' shape: (..., m, nq), or
    (2, ..., m, nq/2) if split.  ``x`` is the nodes of U's last axis: all
    of them, or, split, the first half.
    """

    flat: np.ndarray
    cs: np.ndarray
    ca: np.ndarray
    nodal: np.ndarray
    halves: tuple
    U: np.ndarray
    x: np.ndarray
    split: bool


def _interleave(cs, ca):
    """The rows whose odd-j columns are ``cs`` and whose even-j ones are ``ca``."""
    out = np.empty(cs.shape[:-1] + (cs.shape[-1] + ca.shape[-1],))
    out[..., 0::2], out[..., 1::2] = cs, ca
    return out


def _parity_order(a: np.ndarray) -> np.ndarray:
    """The entries of an (..., J) array in the order of ``_Blocks.flat``:
    every row's odd-j columns, then every row's even-j columns."""
    return np.concatenate([a[..., 0::2].ravel(), a[..., 1::2].ravel()])


@dataclass(frozen=True)
class ProblemConfig:
    """Scalar hypothesis data of a resonant system.

    m equations, split index l, spectral shifts lambda_k, resonance degrees
    sigma_k, fractional exponent alpha.  delta = 1 + max(lambda) is derived.
    """

    m: int
    l: int
    lam: tuple[float, ...]
    sigma: tuple[float, ...]
    alpha: float = 0.8

    def __post_init__(self):
        m = _count("m", self.m)
        l = _one_based("l", self.l, m)
        lam = tuple(_real(f"lambda_{k}", v)
                    for k, v in enumerate(_entries("lambda", self.lam), start=1))
        sig = _unit("sigma", self.sigma)
        alpha = _real("alpha", self.alpha)
        if len(lam) != m:
            raise ConfigurationError(f"lambda must have {m} entries, got {len(lam)}")
        if sig.shape != (m,):
            raise ConfigurationError(f"sigma must have {m} entries, got shape {sig.shape}")
        sig = tuple(sig.tolist())
        for name, value in (("m", m), ("l", l), ("lam", lam), ("sigma", sig), ("alpha", alpha)):
            object.__setattr__(self, name, value)
        for block, first, last in ((sig[:l], "1", "l"), (sig[l:], "{l+1}", "m")):
            if block and min(block) >= 1:
                raise HypothesisError(f"min(sigma_{first}..sigma_{last}) must be < 1 "
                                      f"(degree-of-resonance hypothesis), got min={min(block)}")
        if not (0.75 < alpha < 1):
            raise ConfigurationError(f"alpha must lie in (3/4, 1), got {alpha}")

    @property
    def delta(self) -> float:
        return 1.0 + max(self.lam)

    def lam_array(self) -> np.ndarray:
        return np.asarray(self.lam, dtype=float)


@dataclass(frozen=True)
class GalerkinState:
    """m x J coefficient matrix c_{k,j} = <u_k, phi_j>."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if not np.all(np.isfinite(c)):
            raise ConfigurationError("GalerkinState coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _trusted(cls, coeffs: np.ndarray) -> "GalerkinState":
        """Wrap a 2-D float array that is finite by construction, skipping the
        validation pass; for states derived inside the integrators and the
        field evaluation from arrays that were already checked."""
        state = object.__new__(cls)
        object.__setattr__(state, "coeffs", coeffs)
        return state

    @property
    def m(self) -> int:
        return self.coeffs.shape[0]

    @property
    def J(self) -> int:
        return self.coeffs.shape[1]

    @classmethod
    def zeros(cls, m: int, J: int) -> "GalerkinState":
        return cls(np.zeros((_count("m", m), _count("J", J))))

    @classmethod
    def unit(cls, m: int, J: int, component: int, mode: int, amplitude: float = 1.0) -> "GalerkinState":
        """State amplitude * phi_mode e_component (1-based indices)."""
        m, J = _count("m", m), _count("J", J)
        c = np.zeros((m, J))
        c[_one_based("component", component, m) - 1, _one_based("mode", mode, J) - 1] = amplitude
        return cls(c)

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(self.coeffs ** 2)))


def _one_based(name: str, value, top: int) -> int:
    """``value`` as a 1-based index into 1..top: a whole number by
    ``_count`` and at most ``top``; anything else raises a
    ConfigurationError naming ``name``."""
    try:
        out = _count(name, value)
    except ConfigurationError:
        out = top + 1
    if out > top:
        shown = f"{value:g}" if isinstance(value, float) else value
        raise ConfigurationError(f"{name} must be an integer in [1, {top}], got {shown}")
    return out


def _count(name: str, value, minimum: int = 1) -> int:
    """``value`` as a whole number >= minimum: an integer of any type, a
    whole float or a numeric string; a fraction, NaN, a bool or anything
    that is not a number raises a ConfigurationError naming ``name``."""
    out = value
    if isinstance(value, str):
        try:
            out = int(value)
        except ValueError:
            pass
    elif isinstance(value, float) and value.is_integer():
        out = int(value)
    try:
        if isinstance(out, (bool, np.bool_)):
            raise TypeError
        out = operator.index(out)  # any integer type, numpy's too
    except TypeError:
        raise ConfigurationError(f"{name} = {value!r} is not a whole number") from None
    if out < minimum:
        raise ConfigurationError(f"{name} = {out} must be >= {minimum}")
    return out


def _real(name: str, value) -> float:
    """``value`` as a finite float; NaN, inf or anything that is not a
    number raises a ConfigurationError naming ``name``."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} = {value!r} is not a number") from None
    if not math.isfinite(out):
        raise ConfigurationError(f"{name} = {value!r} must be finite")
    return out


def _radius(name: str, value, positive: bool = False, inf: bool = False) -> float:
    """``value`` as a float >= 0 (> 0 if ``positive``), finite unless
    ``inf``; NaN, a negative number or anything that is not a number raises
    a ConfigurationError naming ``name``."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} = {value!r} is not a number") from None
    if not (out > 0 if positive else out >= 0) or (out == math.inf and not inf):
        raise ConfigurationError(f"{name} = {value!r} must be {'positive' if positive else '>= 0'}"
                                 + ("" if inf else " and finite"))
    return out


def _floats(name: str, value) -> np.ndarray:
    """``value``, one number or an array of them, as a float array; anything
    that is not a number raises a ConfigurationError naming ``name``."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} = {value!r} is not a number") from None


def _unit(name: str, value) -> np.ndarray:
    """``value`` as a float array by ``_floats`` whose every entry lies in
    [0, 1]; NaN or anything else raises a ConfigurationError naming
    ``name``."""
    out = _floats(name, value)
    if not ((0.0 <= out) & (out <= 1.0)).all():
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value}")
    return out


def _entries(name: str, value) -> list:
    """The entries of ``value`` as a list; a value that is not a sequence
    raises a ConfigurationError naming ``name``."""
    if not np.iterable(value):
        raise ConfigurationError(f"{name} must be a sequence, got {value!r}")
    return list(value)


def _sign(name: str, value) -> str:
    """``value`` if it is '+' or '-'; anything else raises a
    ConfigurationError naming ``name``."""
    if isinstance(value, str) and value in ("+", "-"):
        return value
    raise ConfigurationError(f"{name} must be '+' or '-', got {value!r}")


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], computed once per n; the
    nodes and weights are shared, so they are read-only."""
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def _scipy_dir() -> Path:
    """scipy's package directory, found without running its ``__init__``
    (whose imports cost about 12 ms and 0.8 MB)."""
    spec = find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed", name="scipy")
    return Path(spec.submodule_search_locations[0])


@lru_cache(maxsize=None)
def _flapack():
    """scipy's f2py wrappers of LAPACK, loaded once per process without
    importing the ``scipy.linalg`` package, whose imports cost about 0.3 s."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:  # scipy.linalg is imported and loaded it
        return sys.modules[name]
    linalg = _scipy_dir() / "linalg"
    paths = [linalg / f"_flapack{suffix}" for suffix in EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"scipy's LAPACK wrappers not found: none of {', '.join(map(str, paths))}",
                          name=name, path=str(paths[0]))
    loader = ExtensionFileLoader(name, str(path))
    module = module_from_spec(spec_from_loader(name, loader))
    loader.exec_module(module)
    # CPython files a single-phase extension module under its name; take it
    # out, so that sys.modules still says scipy.linalg was not imported (a
    # later import of it makes its own module around the same functions)
    sys.modules.pop(name, None)
    return module


@lru_cache(maxsize=None)
def _ufuncs():
    """scipy.special's compiled ufuncs (``ndtri``, ``erf``: the very objects
    the package exports), loaded once per process without running the
    ``scipy.special`` package's ``__init__``, whose imports (scipy._lib._array_api
    with numpy.testing and numpy.f2py) cost about 0.3 s.  The extensions
    import ``scipy._cyutility``, which brings in the ``scipy`` package
    itself."""
    name = "scipy.special._ufuncs"
    if "scipy.special" in sys.modules:  # the package is imported and loaded it
        return import_module(name)
    special = _scipy_dir() / "special"
    # _ufuncs imports its sibling extensions relative to its package; a bare
    # stand-in package lets them load by the normal import machinery, and it
    # is taken out again, so that a later import of scipy.special runs the
    # real package, which reuses the loaded extensions
    stand_in = types.ModuleType("scipy.special")
    stand_in.__path__ = [str(special)]
    sys.modules["scipy.special"] = stand_in
    try:
        return import_module(name)
    except ModuleNotFoundError as exc:
        raise ImportError(f"scipy.special's compiled ufuncs not loaded from {special}: {exc}",
                          name=name, path=str(special)) from None
    finally:
        del sys.modules["scipy.special"]


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.linalg.eigh(a)`` with its defaults, bit for bit, for a real
    symmetric float64 matrix: ascending eigenvalues and orthonormal
    eigenvectors (columns) from LAPACK dsyevr on the lower triangle.

    A non-finite entry raises scipy's ``ValueError``, a failed solve
    ``numpy.linalg.LinAlgError``.
    """
    a = np.asarray_chkfinite(a)
    lapack = _flapack()
    lwork, liwork, _ = lapack.dsyevr_lwork(n=a.shape[0], lower=1)  # info 0 for any n >= 0
    w, v, _, _, info = lapack.dsyevr(a=a, compute_v=1, lower=1, overwrite_a=0,
                                     lwork=int(lwork), liwork=int(liwork))
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dsyevr failed with info = {info}")
    return w, v


def build_basis(domain: Domain1D, J: int) -> SpectralBasis:
    """Construct the first J Dirichlet sine eigenpairs with quadrature tables.

    Requires quad_nodes >= 2 J + 16 so that products of basis functions are
    integrated with margin.
    """
    J = _count("J", J)
    required = 2 * J + 16
    if domain.quad_nodes < required:
        raise ConfigurationError(
            f"quad_nodes={domain.quad_nodes} too small for J={J}; need at least {required}"
        )
    L = domain.length
    nq = domain.quad_nodes
    x0, w0 = _gauss_legendre(nq)
    # exact mirror symmetry of the rule about the midpoint
    x0 = 0.5 * (x0 - x0[::-1])
    w0 = 0.5 * (w0 + w0[::-1])
    x = 0.5 * L + (0.5 * L) * x0
    w = (0.5 * L) * w0
    h = nq // 2
    x[nq - h:] = (L - x[:h])[::-1]

    j = np.arange(1, J + 1)
    mu = (j * np.pi / L) ** 2
    norm = np.sqrt(2.0 / L)
    parity_sym = (j % 2 == 1)  # phi_j(L - x) = +phi_j(x) for odd j

    phi_h = norm * np.sin(np.outer(j, np.pi / L * x[:h]))
    dphi_h = (norm * j * np.pi / L)[:, None] * np.cos(np.outer(j, np.pi / L * x[:h]))
    # midpoint column (odd node counts): antisymmetric entries vanish exactly
    phi_mid = np.where(parity_sym, norm * np.sin(j * np.pi / 2.0), 0.0)
    dphi_mid = np.where(parity_sym, 0.0, norm * j * np.pi / L * np.cos(j * np.pi / 2.0))

    phi = np.empty((J, nq))
    phi[:, :h] = phi_h
    phi[:, nq - h:] = (np.where(parity_sym, 1.0, -1.0)[:, None] * phi_h)[:, ::-1]
    dphi = np.empty((J, nq))
    dphi[:, :h] = dphi_h
    dphi[:, nq - h:] = (np.where(parity_sym, -1.0, 1.0)[:, None] * dphi_h)[:, ::-1]
    if nq % 2:
        phi[:, h] = phi_mid
        dphi[:, h] = dphi_mid

    mu.flags.writeable = False
    sym, anti = np.flatnonzero(parity_sym), np.flatnonzero(~parity_sym)
    weighted_h = phi_h * w[:h]
    return SpectralBasis(
        domain=domain, J=J, mu=mu, x=x, w=w, phi=phi, dphi=dphi,
        parity_sym=parity_sym, _half=h,
        _phi_fold=(phi_h[sym], phi_h[anti], phi_mid[sym]),
        _dphi_fold=(dphi_h[sym], dphi_h[anti], dphi_mid[anti]),
        _project_fold=(weighted_h[sym].T, weighted_h[anti].T, w[h] * phi_mid[sym]),
    )


def _check_states(name: str, states, m: int, J: int) -> None:
    """Raise ConfigurationError naming the first of the coefficient arrays
    ``states`` (``name`` 0, 1, ...) whose shape is not (m, J)."""
    for i, c in enumerate(states):
        if c.shape != (m, J):
            raise ConfigurationError(f"{name} shape {c.shape} of {name} {i} is not "
                                     f"(m, J) = ({m}, {J})")


def diag_A(basis: SpectralBasis, config: ProblemConfig) -> np.ndarray:
    """The diagonal of A, mu_j - lambda_k, shape (m, J)."""
    return basis.mu[None, :] - config.lam_array()[:, None]


def apply_A(basis: SpectralBasis, config: ProblemConfig, u: GalerkinState) -> GalerkinState:
    """Diagonal action (A u)_{k,j} = (mu_j - lambda_k) c_{k,j}."""
    _check_states("state", [u.coeffs], config.m, basis.J)
    return GalerkinState(diag_A(basis, config) * u.coeffs)


def semigroup_apply(basis: SpectralBasis, config: ProblemConfig, t: float,
                    u: GalerkinState) -> GalerkinState:
    """Coefficientwise multiplication by exp(-t (mu_j - lambda_k)).

    The semigroup runs forward only: t is finite and >= 0, and a negative
    or non-finite t raises ConfigurationError.  Exactly resonant modes
    (mu_j == lambda_k as floats) have factor 1 for every t.  Raises
    UnboundedModeError when a growing factor would overflow.
    """
    _check_states("state", [u.coeffs], config.m, basis.J)
    t = _radius("t", t)
    z = -t * diag_A(basis, config)
    overflow = z > OVERFLOW_EXPONENT
    # only modes actually present in the state can make it unbounded
    hot = overflow & (u.coeffs != 0.0)
    if np.any(hot):
        k, j = np.unravel_index(int(np.argmax(np.where(hot, z, -np.inf))), z.shape)
        raise UnboundedModeError(k + 1, j + 1, float(z[k, j]))
    return GalerkinState(np.exp(np.where(overflow, 0.0, z)) * u.coeffs)


def fractional_weights(basis: SpectralBasis, config: ProblemConfig) -> np.ndarray:
    """Mode weights delta + mu_j - lambda_k, shape (m, J); all > 0 by the
    choice delta = 1 + max(lambda)."""
    weights = config.delta + basis.mu[None, :] - config.lam_array()[:, None]
    if np.any(weights <= 0):
        raise ConfigurationError("nonpositive fractional weight; delta invariant violated")
    return weights


def fractional_norm(basis: SpectralBasis, config: ProblemConfig, u: GalerkinState) -> float:
    """Discrete graph norm ( sum (delta + mu_j - lambda_k)^{2 alpha} c^2 )^{1/2}."""
    _check_states("state", [u.coeffs], config.m, basis.J)
    weights = fractional_weights(basis, config)
    return float(np.sqrt(np.sum(weights ** (2.0 * config.alpha) * u.coeffs ** 2)))
