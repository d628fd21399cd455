"""Same-code spread of the end-to-end metrics across seeds.

Runs ``run.py`` once per seed on one workload and prints, for each
end-to-end metric, the median of the runs and the distance between the
first and third quartile as a share of that median, next to the metric's
bound in ``BENCHMARK.json``.  From the root of a checkout::

    python3 perfbench/spread.py --workload edit --runs 10 --first-seed 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ]
        out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: failed", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
    print(f"{args.workload}: {args.runs} runs of {seconds}s")
    for metric in spec["end_to_end"]:
        runs = values[metric["name"]]
        share = spread(runs)
        verdict = "ok" if share < metric["bound"] / 3 else "WIDE"
        print(
            f"  {metric['name']:<12} median {statistics.median(runs):>10.4f} {metric['unit']:<5}"
            f" spread {share:6.3f}  bound {metric['bound']:.2f}  {verdict}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
