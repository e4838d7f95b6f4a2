"""Steadiness check: run one workload in two interleaved sets of runs and
compare them the way a regression gate would.

    python3 bench/steady.py --workload shoot-connect --runs 10

Run i of each set uses seed i (from 1), for BENCHMARK.json's run_seconds;
the two sets alternate which goes first.  For every end-to-end metric in
BENCHMARK.json it prints each set's median and quartiles, the spread
(q3 - q1) / median, and whether the spread stays within the metric's bound
and the second median is no worse than the first by more than the bound.
The share of failed experiments must be equal in the two sets.  Exit code 0
when everything agrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets: list[list[dict]] = [[], []]
    for i in range(args.runs):
        for s in ((0, 1) if i % 2 == 0 else (1, 0)):
            result = one_run(args.workload, i + 1, spec["run_seconds"])
            sets[s].append(result)
            print(f"set {s + 1} seed {i + 1}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        stats = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
        line = f"{name:20s} bound {bound:.2f}"
        for i, st in enumerate(stats):
            line += (f" | set {i + 1}: median {st['median']:.5g} "
                     f"[{st['q1']:.5g}, {st['q3']:.5g}] spread {st['spread']:.3f}")
            if st["spread"] > bound:
                ok = False
                line += " SPREAD>BOUND"
            elif st["spread"] > bound / 3:
                line += " (spread > bound/3)"
        sign = 1.0 if metric["better"] == "lower" else -1.0
        worse = sign * (stats[1]["median"] - stats[0]["median"]) / stats[0]["median"]
        line += f" | second vs first {worse:+.3f}"
        if worse > bound:
            ok = False
            line += " SHIFT>BOUND"
        print(line)
    shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
    correct = all(r["correct"] for runs in sets for r in runs)
    print(f"failed share per set: {shares}; all correct: {correct}")
    ok = ok and correct and shares[0] == shares[1]
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
