"""resodyn benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload ensemble-simulate --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and driven through its public pipeline entry
``resodyn.cli.run_subcommand``, in-process and single-threaded, with every
report file written.  An operation is one experiment: one
``run_subcommand`` call plus the checks of its outputs against the closed
forms in ``oracles.py``.

``--trace 0`` repeats whole rounds of the workload's experiments for
``--seconds`` and prints the end-to-end metrics; ``--trace 1`` runs one
round with timing wrappers around resodyn's cross-module calls and prints
the per-layer metrics (see README.md).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import time

T_START = time.perf_counter()

# pin BLAS / OpenMP pools before numpy is imported anywhere in the process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5        # this process plus four set-up-only children
CHILD_TIMEOUT_S = 120


class Setup:
    """What the timed phase needs: the imported program and the round's
    experiment files, loaded once and warmed up."""

    def __init__(self, workload: str, seed: int, out: Path):
        self.workload = workload
        self.out = out
        t = time.perf_counter()
        if not (SRC / "resodyn" / "__init__.py").is_file():
            raise SystemExit(f"no resodyn sources under {SRC}; run from a source checkout")
        sys.path.insert(0, str(SRC))
        self.cli = importlib.import_module("resodyn.cli")
        self.config = importlib.import_module("resodyn.config")
        if not Path(self.cli.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"imported resodyn from {self.cli.__file__}, not from {SRC}")
        self.import_s = time.perf_counter() - t
        out.mkdir(parents=True, exist_ok=True)
        self.round = workloads.round_for(workload, seed)
        self.paths = {}
        for exp in self.round:
            path = out / f"{exp.name}.ini"
            path.write_text(exp.ini())
            self.config.load_config(path)
            self.paths[exp.name] = path
        warm = workloads.warmup_for(workload)
        path = out / "warmup.ini"
        path.write_text(warm.ini())
        rc, _ = self.run(warm, path)
        if rc != 0:
            raise SystemExit(f"warm-up experiment exited {rc}")

    def run(self, exp, path=None) -> tuple[int, float]:
        """One run_subcommand call into a fresh output directory; returns
        (exit code, wall seconds)."""
        dest = self.out / exp.name
        shutil.rmtree(dest, ignore_errors=True)
        path = path or self.paths[exp.name]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            rc = self.cli.run_subcommand(exp.subcommand, path, out_dir=dest)
            wall = time.perf_counter() - start
        return rc, wall


def _blas_threads() -> str:
    """Thread count reported by the loaded OpenBLAS, if it exports one."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown (OPENBLAS_NUM_THREADS=" + os.environ["OPENBLAS_NUM_THREADS"] + ")"


def machine_facts(reference_s: float) -> dict:
    import scipy
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": _blas_threads(), "reference_ms": reference_s * 1e3}


def checked(exp, out: Path) -> list[str]:
    """workloads.check, with outputs it cannot read counted as mismatches."""
    try:
        return workloads.check(exp, out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def run_round(setup: Setup) -> list[dict]:
    """Every experiment of the round, each between two reference slices and
    then checked.  A record's ``ref`` is the mean of the slices timed just
    before and just after its experiment (each the mean of the workload's
    ``SLICES_PER_GAP`` repeats): the host's speed drifts on a scale of
    seconds, and the pair brackets the experiment."""
    records = []
    repeats = workloads.SLICES_PER_GAP[setup.workload]
    before = reference.run_slice(repeats)
    for exp in setup.round:
        rc, wall = setup.run(exp)
        after = reference.run_slice(repeats)
        bad = checked(exp, setup.out / exp.name) if rc == 0 else []
        for line in bad:
            print(f"check failed: {exp.name}: {line}", file=sys.stderr)
        records.append({"name": exp.name, "rc": rc, "wall": wall,
                        "ref": 0.5 * (before + after), "bad": bad})
        before = after
    return records


def timed_phase(setup: Setup, seconds: float) -> list[dict]:
    """Whole rounds until ``seconds`` have passed."""
    records = []
    start = time.perf_counter()
    while True:
        records += run_round(setup)
        if time.perf_counter() - start >= seconds:
            return records


def child_setups(args, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes doing this run's set-up."""
    out = []
    for i in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
             "--setup-only", str(i + 1)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"set-up child exited {proc.returncode}: {proc.stderr[-2000:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def end_to_end(records: list[dict], setups: list[float]) -> dict:
    """The end-to-end metrics of a timed phase: the raw seconds users wait
    for, and the same times divided by the reference slices beside them."""
    done = [r for r in records if r["rc"] == 0]
    walls = [r["wall"] for r in done]
    refs = [r["ref"] for r in done]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "experiment_s_p50": (statistics.median(walls), "s"),
        "experiments_per_s": (len(walls) / sum(walls), "1/s"),
        "experiment_ref_p50": (statistics.median(w / r for w, r in zip(walls, refs)), "ref"),
        "run_ref": (sum(walls) / sum(refs), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    out = OUT_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = Setup(args.workload, args.seed, out)
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            import layers
            metrics, records = layers.per_layer(setup, run_round)
        else:
            records = timed_phase(setup, args.seconds)
            metrics = end_to_end(records, [setup_s] + child_setups(args, SETUP_SAMPLES - 1))
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()

    failed = sum(1 for r in records if r["rc"] != 0)
    correct = all(not r["bad"] for r in records)
    facts = machine_facts(statistics.median(r["ref"] for r in records))
    print("machine: " + json.dumps(facts, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
