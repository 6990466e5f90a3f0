"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of bench/workloads.json in a fresh subprocess, with BLAS
and OpenMP pinned to one thread, and checks its outputs.  Prints the
machine, the digest of the workload's inputs and every metric with its
unit, then, as the last line, one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end metrics of BENCHMARK.json with --trace 0
and its per-layer metrics with --trace 1.  The full record (per-sample
times, check counts, trace spans) is written under .bench_out/.  Exits
non-zero without a result line when the package source is missing or the
workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ekemq benchmark: one workload run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inputs", default=str(BENCH / "workloads.json"),
                        help="workload inputs file (the smoke test passes a tiny one)")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "ekemq" / "__init__.py").is_file():
        return fail(f"package source {ROOT / 'src' / 'ekemq'} not found")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads(Path(args.inputs).read_text())["workloads"]
    if args.workload not in workloads:
        return fail(f"unknown workload {args.workload!r}; known: {sorted(workloads)}")

    # one CPU for the workload (and this runner), which is single-threaded:
    # it keeps the scheduler from moving it between cores mid-run
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    work = OUT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inputs", str(Path(args.inputs).resolve()), "--work", str(work)]
    # SIGTERM unwinds through the finally below, which stops the workload
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=DEADLINE_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        return fail(f"workload exceeded {DEADLINE_S:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        return fail(f"workload process exited with {proc.returncode}")
    record = json.loads(stdout.strip().splitlines()[-1])
    # the runner starts one child, so the children's peak is this workload's
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record["end_to_end"]["peak_rss_mb"] = peak_kib * 1024 / 1e6
    record["machine"] = {
        **record["versions"],
        "nproc": len(cpus),
        "pinned_cpu": max(cpus),
        "cpu": cpu_model(),
        "blas_threads": 1,
    }

    kind = "per_layer" if args.trace else "end_to_end"
    values = record[kind]
    if values is None or any(m["name"] not in values for m in declared[kind]):
        return fail(f"workload did not report every {kind} metric")
    correct = record["failed"] == 0

    m = record["machine"]
    print(f"workload  {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    print(f"why       {record['why']}")
    print(f"machine   python {m['python']}  numpy {m['numpy']}  scipy {m['scipy']}"
          f"  nproc {m['nproc']}  cpu {m['cpu']}  pinned to cpu {m['pinned_cpu']}"
          f"  blas_threads {m['blas_threads']}")
    print(f"inputs    sha256 {record['inputs_sha256']}")
    print("samples   wall_raw_s " + " ".join(f"{s:.4f}" for s in record["wall_samples"])
          + f"  (n={len(record['wall_samples'])}, median reported)")
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    units.update({"level_sup_diff": "prob", "wait_sup_diff": "prob",
                  "busy_sup_diff": "prob", "failed_ratio": "1",
                  "setup_raw_s": "s", "wall_raw_s": "s", "calibration_s": "s"})
    shown = dict(record["end_to_end"])
    if args.trace:
        shown.update(record["per_layer"])
    for name, value in shown.items():
        print(f"metric    {name:<48} {value:<24.10g} {units[name]}")
    for name, (ran, failed) in sorted(record["checks"].items()):
        print(f"check     {name:<48} ran {ran}  failed {failed}")

    record["result"] = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared[kind]},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
