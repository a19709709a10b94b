"""Run every workload of BENCHMARK.json on several seeds and report the spread.

    python3 perfbench/spread.py --first-seed 1 --runs 10 --out perfbench/proof/set_1.json
    python3 perfbench/spread.py --first-seed 11 --runs 10 --out perfbench/proof/set_2.json \\
        --compare perfbench/proof/set_1.json

For each end-to-end metric it prints the median of the runs and the
interquartile range as a share of that median (``statistics.quantiles(n=4)``),
next to the metric's bound. With ``--compare`` it also prints how much worse
each median is than the earlier set's, as a share of the earlier median. The
output file holds every run's result line and these figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--compare", type=Path, help="an earlier output file of this script")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else None
    out = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                                  cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(dict(result, seed=seed))
            print(workload, seed, result["correct"], result["attempted"], result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        summary = {}
        for name, m in metrics.items():
            median, iqr = spread([r["metrics"][name]["value"] for r in runs])
            summary[name] = {"median": median, "iqr_over_median": iqr, "bound": m["bound"]}
            line = f"{workload:14s} {name:12s} median {median:.5g}  IQR/median {iqr:.4f}  bound {m['bound']}"
            if earlier:
                before = earlier[workload]["summary"][name]["median"]
                worse = (median - before) / before * (1 if m["better"] == "lower" else -1)
                summary[name]["worse_than_compared"] = worse
                line += f"  worse than compared {worse:+.4f}"
            print(line, flush=True)
        out["workloads"][workload] = {"runs": runs, "summary": summary}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
