"""SHA-256 of arrays that no experiment file writes, one line each.

- The full energy profiles of the connected shots of
  ``connect_arctan_odd.ini``: a report keeps only each profile's two ends.
- A march (ETD1, 49 nodes) and a Newton search with a field that reads u'.
  No catalogue field does, so no experiment file reaches the u' fold.
  ``split_du_digests.py`` prints the same arrays for the field declared
  free of x, at 48 nodes.

``regenerate.py`` digests this script's stdout as one more case entry.
Run it from the root of a source checkout:

    PYTHONPATH=src python tests/golden/array_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np

import resodyn as rd
from resodyn import cli

CONNECT_CASE = Path(__file__).resolve().parent / "connect_arctan_odd.ini"


def _sha(*arrays) -> str:
    """sha256 of the shapes and float64 bytes of the arrays, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def energy_profiles() -> list[str]:
    """One line per connected shot of the connect case, in shot order."""
    batches = []
    shoot = cli.shoot_connection

    def recorded(*args, **kwargs):
        batches.append(shoot(*args, **kwargs))
        return batches[-1]

    cli.shoot_connection = recorded
    try:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            assert cli.run_subcommand("connect", CONNECT_CASE, out_dir=tmp) == 0
    finally:
        cli.shoot_connection = shoot
    (shots,) = batches
    return [f"{CONNECT_CASE.name} shot {i} energy_profile {_sha(shot.energy_profile)}"
            for i, shot in enumerate(shots) if isinstance(shot, rd.ConnectionRecord)]


def reads_du(nodes: int = 49, reads_x: bool = True, tag: str = "reads_du") -> list[str]:
    """A march at s = 0.5 and 1 and a Newton search with f = arctan(40 u) +
    tanh(u') / 10 on ``nodes`` quadrature nodes, which is declared neither
    odd nor free of u' (nor, unless ``reads_x`` is False, free of x); each
    line starts with ``tag``."""
    m = 1
    field = rd.NonlinearField(name="arctan(40u)+tanh(u')/10", m=m,
                              eval=lambda x, U, dU: np.arctan(40 * U) + 0.1 * np.tanh(dU),
                              sigma=np.zeros(m), f_plus=None, f_minus=None, reads_x=reads_x)
    basis = rd.build_basis(rd.Domain1D(length=1.0, quad_nodes=nodes), 16)
    cfg = rd.ProblemConfig(m=m, l=1, lam=(float(basis.mu[0]),), sigma=(0.0,))
    split = rd.classify(basis, cfg)
    rng = np.random.default_rng(nodes)
    u0 = rd.GalerkinState(0.3 * rng.normal(size=(m, 16)))
    settings = rd.IntegratorSettings(dt=1e-3, T=1.0, scheme="ETD1", store_every=10)
    lines = [f"{tag} march s={traj.s:g} {_sha(traj.times, traj.coeffs, traj.norms)}"
             for traj in rd.integrate_ensemble(field, basis, split, cfg, [0.5, 1.0],
                                               [u0, u0], settings)]
    seeds = [rd.GalerkinState(0.05 * rng.normal(size=(m, 16))) for _ in range(2)]
    seeds += [rd.GalerkinState.unit(m, 16, 1, 2, a) for a in (0.05, -0.05)]
    for i, eq in enumerate(rd.find_equilibria(field, basis, split, cfg, seeds)):
        unstable = [a for rate, d in eq.unstable for a in ([rate], d.coeffs)]
        lines.append(f"{tag} equilibrium {i} "
                     f"{_sha(eq.state.coeffs, [eq.residual], eq.linearization, *unstable)}")
    return lines


if __name__ == "__main__":
    print("\n".join(energy_profiles() + reads_du()))
