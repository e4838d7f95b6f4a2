"""The output manifest of the shipped configs, the demos, the bench rounds and
the experiment files beside this script.

``shipped.json`` holds the sha256 of every file that ``resodyn full`` writes
for each config in ``configs/`` and of its stdout, the sha256 of each demo's
stdout, the sha256 of every file and the stdout of each experiment of the
bench rounds in ``ROUNDS`` (built by ``bench/workloads.round_for``), the
sha256 of every file and the stdout of each experiment file in ``CASES``
(test data for the paths no shipped config reaches), the sha256 of the
stdout of each script in ``ARRAYS`` (digests of arrays that no experiment
file writes),
and the facts of the machine that produced them: the last bits of the
outputs depend on the numpy and scipy builds, the BLAS and its kernels
(picked by the CPU's instruction sets) and the core count.

Regenerate it from the root of a source checkout, after a change that is
meant to alter an output, and list every changed entry it prints in
CHANGES.md:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = Path(__file__).resolve().parent / "shipped.json"
CONFIGS = sorted((ROOT / "configs").iterdir())
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCH = ROOT / "bench"
# experiment files that are test data, not shipped configs: each runs the
# subcommand its name starts with (``index_constant_kernel.ini`` runs index)
CASES = sorted(Path(__file__).resolve().parent.glob("*.ini"))
# scripts that print the sha256 of arrays no experiment file writes; the
# stdout of each is one more case entry
ARRAYS = tuple(Path(__file__).resolve().parent / name
               for name in ("array_digests.py", "split_du_digests.py"))
# (workload, seed) of every bench round in the manifest
ROUNDS = (("shoot-connect", 1), ("shoot-connect", 2), ("shoot-connect", 3),
          ("ensemble-simulate", 1), ("hypothesis-sweep", 1))


def digest(data) -> str:
    """sha256 of bytes, or of text as UTF-8."""
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def machine() -> dict:
    """The facts the digests depend on besides the program."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_configuration": blas.get("openblas configuration", ""),
        "cpu_features": sorted(config["SIMD Extensions"]["found"]),
        "nproc": os.cpu_count(),
    }


def _run_digests(subcommand: str, config: Path, dest: Path, key: str) -> dict:
    """``key/relative path`` -> sha256 of every file one ``run_subcommand``
    call writes into ``dest``, and ``key/stdout`` of its exit code and what
    it prints."""
    from resodyn import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run_subcommand(subcommand, config, out_dir=dest)
    out = {f"{key}/stdout": digest(f"exit {code}\n{buf.getvalue()}")}
    for path in sorted(p for p in dest.rglob("*") if p.is_file()):
        out[f"{key}/{path.relative_to(dest).as_posix()}"] = digest(path.read_bytes())
    return out


def full_digests() -> dict:
    """``config/relative path`` -> sha256 of every file ``full`` writes for
    each shipped config, and ``config/stdout`` of what it prints."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in CONFIGS:
            out.update(_run_digests("full", config, Path(tmp) / config.name, config.name))
    return out


def round_digests() -> dict:
    """``workload-seed/experiment/relative path`` -> sha256 of every file
    each experiment of the bench rounds in ``ROUNDS`` writes, and
    ``workload-seed/experiment/stdout``.  The experiments come from
    ``bench/workloads.round_for``, which this only reads."""
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))  # workloads imports oracles as a top-level module
    import workloads
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed in ROUNDS:
            for exp in workloads.round_for(workload, seed):
                key = f"{workload}-{seed}/{exp.name}"
                config = Path(tmp) / f"{workload}-{seed}-{exp.name}.ini"
                config.write_text(exp.ini())
                out.update(_run_digests(exp.subcommand, config, Path(tmp) / key, key))
    return out


def case_digests() -> dict:
    """``file/relative path`` -> sha256 of every file the subcommand of each
    experiment file in ``CASES`` writes, and ``file/stdout``; and
    ``<script>/stdout``, the sha256 of what each script in ``ARRAYS``
    prints."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            out.update(_run_digests(case.stem.split("_", 1)[0], case, Path(tmp) / case.name,
                                    case.name))
    for script in ARRAYS:
        out[f"{script.name}/stdout"] = digest(demo_stdout(script))
    return out


def demo_stdout(path: Path) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exc:
            if exc.code not in (None, 0):
                raise
    return buf.getvalue()


def load() -> dict:
    return json.loads(MANIFEST.read_text())


def foreign_facts(recorded: dict) -> list[str]:
    """The machine facts that differ from the recorded ones, one line each."""
    here = machine()
    return [f"{key}: recorded {recorded.get(key)!r}, here {here.get(key)!r}"
            for key in sorted(recorded.keys() | here.keys())
            if recorded.get(key) != here.get(key)]


def differences(expected: dict, actual: dict) -> list[str]:
    """One line per entry that is missing, extra or different."""
    return ([f"missing: {k}" for k in sorted(expected.keys() - actual.keys())]
            + [f"extra: {k}" for k in sorted(actual.keys() - expected.keys())]
            + [f"changed: {k}" for k in sorted(expected.keys() & actual.keys())
               if expected[k] != actual[k]])


def main() -> int:
    manifest = {"machine": machine(), "full": full_digests(),
                "demos": {path.stem: digest(demo_stdout(path)) for path in DEMOS},
                "rounds": round_digests(), "cases": case_digests()}
    if MANIFEST.is_file():
        old = load()
        for part in ("machine", "full", "demos", "rounds", "cases"):
            for line in differences(old.get(part, {}), manifest[part]):
                print(f"{part}: {line}")
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST.relative_to(ROOT)}: {len(manifest['full'])} full entries, "
          f"{len(manifest['demos'])} demos, {len(manifest['rounds'])} round entries, "
          f"{len(manifest['cases'])} case entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
