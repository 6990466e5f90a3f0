"""Repeat the benchmark over seeds and summarise each metric.

    python3 bench/repeat.py --label baseline [--runs 10] [--trace 0|1]

Runs bench/run.py once per workload of BENCHMARK.json and seed 1..runs, one
run at a time, with the run length of BENCHMARK.json.  For every metric it
reports the median, the quartiles (statistics.quantiles, n=4) and the
spread, the distance between the quartiles as a share of the median.
Writes bench/BENCH_<label>.json with the machine, every run's result and
inputs digest, and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = declared["run_seconds"]

    report = {"label": args.label, "command": declared["command"],
              "run_seconds": seconds, "trace": args.trace, "workloads": {}}
    for name in (w["name"] for w in declared["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            record = json.loads((ROOT / ".bench_out" /
                                 f"{name}-seed{seed}-trace{args.trace}.json").read_text())
            report["machine"] = record["machine"]
            runs.append({"seed": seed, "inputs_sha256": record["inputs_sha256"],
                         "wall_samples": record["wall_samples"],
                         "setup_samples": record["setup_samples"],
                         "calibration_samples": record["calibration_samples"],
                         "raw": {key: record["end_to_end"][key]
                                 for key in ("setup_raw_s", "wall_raw_s", "calibration_s")},
                         **record["result"]})
            print(f"{name} seed {seed}: wall_s samples "
                  + " ".join(f"{s:.3f}" for s in record["wall_samples"]), flush=True)
        metrics = runs[0]["metrics"]
        summary = {key: {"unit": metrics[key]["unit"],
                         **summarise([r["metrics"][key]["value"] for r in runs])}
                   for key in metrics}
        report["workloads"][name] = {"runs": runs, "summary": summary}
        for key, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:<13} {key:<48} median {s['median']:<14.6g} spread {spread}")

    out = ROOT / "bench" / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
