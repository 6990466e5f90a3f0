"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload once with tiny inputs (grid 32, cap 20, horizon 1,
step 1/32), with and without tracing, and checks that every metric is
printed with a unit, that the result line has the contract's shape and
that the correctness checks ran.  Also checks that the benchmark refuses
to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workload import read_config, render_config

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = {"setup_s", "wall_s", "peak_rss_mb", "route_sup_diff",
              "setup_raw_s", "wall_raw_s", "calibration_s"}
ACCURACY = {
    "cli-law": {"level_sup_diff", "wait_sup_diff"},
    "series-sweep": {"level_sup_diff", "wait_sup_diff"},
    "busy-period": {"busy_sup_diff"},
}
PER_LAYER = {
    "cli.main.self_s", "cli.bytes_written", "cli.write_MBps",
    "oracle.integrate_periodic.self_s", "oracle.integrate_periodic.calls",
    "oracle.periods", "oracle.matvecs", "oracle.residual", "oracle.cap_mass",
    "oracle.extract_boundary.self_s", "oracle.levels_at.self_s",
    "roots.build_root_set.self_s", "roots.build_root_set.calls",
    "roots.count", "roots.max_residual",
    "series.SeriesEvaluator.self_s", "series.SeriesEvaluator.calls",
    "series.level_matrix.self_s", "series.level_matrix.calls",
    "bounds.truncation_error_bound.self_s", "bounds.truncation_error_bound.calls",
    "bounds.truncation_error_bound.applicable_ratio",
    "waiting.wait_cdf.self_s", "waiting.wait_cdf.calls",
    "waiting.oracle_wait_cdf.self_s", "waiting.oracle_wait_cdf.calls",
    "busy.busy_period_cdf.self_s", "busy.march_steps", "busy.off_support",
    "busy.busy_oracle.self_s", "busy.oracle_rk_steps", "busy.cap_mass",
    "trace.overhead_s", "trace.coverage",
}
CHECKS = {
    "cli-law": {"cli.exit_code", "oracle.residual<=tol", "oracle.cap_mass",
                "distribution.mass", "level_sup_diff", "wait_sup_diff"},
    "series-sweep": {"level_sup_diff", "wait_sup_diff", "bound_violation"},
    "busy-period": {"busy_sup_diff", "busy.cap_mass"},
}


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """workloads.json with every workload shrunk to its warm-up size."""
    tmp = tmp_path_factory.mktemp("tiny")
    inputs = json.loads((ROOT / "bench" / "workloads.json").read_text())
    config = dict(read_config(ROOT / "bench" / inputs["config"]), **inputs["warmup_config"])
    (tmp / "tiny.cfg").write_text(render_config(config))
    inputs["config"] = "tiny.cfg"
    inputs["setup_repeats"] = 1
    for spec in inputs["workloads"].values():
        spec["params"].update(spec["warmup"])
    inputs["workloads"]["busy-period"]["params"].update(horizon=1.0, step=1 / 32)
    path = tmp / "tiny.json"
    path.write_text(json.dumps(inputs))
    return path


def run_bench(args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--seed", "3", "--seconds", "0.01", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def printed_metrics(stdout):
    metrics = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            metrics[name] = (float(value), unit)
    return metrics


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(ACCURACY))
def test_workload_prints_every_metric(tiny_inputs, workload, trace):
    done = run_bench(["--workload", workload, "--trace", str(trace),
                      "--inputs", str(tiny_inputs)])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]

    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name]
        assert isinstance(entry["value"], float)

    printed = printed_metrics(done.stdout)
    expected = END_TO_END | ACCURACY[workload] | {"failed_ratio"}
    if trace:
        expected |= PER_LAYER
    assert expected <= set(printed)
    assert all(unit for _, unit in printed.values())
    assert printed["failed_ratio"][0] == 0.0

    ran = {}
    for line in lines:
        if line.startswith("check "):
            fields = line.split()
            ran[fields[1]] = int(fields[3])
    assert set(ran) == CHECKS[workload]
    assert all(count >= 1 for count in ran.values())


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(["--workload", "cli-law", "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
