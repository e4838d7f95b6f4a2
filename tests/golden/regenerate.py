"""The output manifest of the shipped configs and the demos.

``shipped.json`` holds the sha256 of every file that ``resodyn full`` writes
for each config in ``configs/`` and of its stdout, the sha256 of each demo's
stdout, and the facts of the machine that produced them: the last bits of
the outputs depend on the numpy and scipy builds, the BLAS and its kernels
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


def full_digests() -> dict:
    """``config/relative path`` -> sha256 of every file ``full`` writes for
    each shipped config, and ``config/stdout`` of what it prints."""
    from resodyn import cli
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in CONFIGS:
            dest = Path(tmp) / config.name
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run_subcommand("full", config, out_dir=dest)
            out[f"{config.name}/stdout"] = digest(f"exit {code}\n{buf.getvalue()}")
            for path in sorted(p for p in dest.rglob("*") if p.is_file()):
                out[f"{config.name}/{path.relative_to(dest).as_posix()}"] = digest(
                    path.read_bytes())
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
                "demos": {path.stem: digest(demo_stdout(path)) for path in DEMOS}}
    if MANIFEST.is_file():
        old = load()
        for part in ("machine", "full", "demos"):
            for line in differences(old.get(part, {}), manifest[part]):
                print(f"{part}: {line}")
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST.relative_to(ROOT)}: {len(manifest['full'])} full entries, "
          f"{len(manifest['demos'])} demos")
    return 0


if __name__ == "__main__":
    sys.exit(main())
