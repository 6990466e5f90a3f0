"""One benchmark workload in one process: set-up, timed iterations, checks.

run.py starts this file as a fresh subprocess per workload, so peak memory
and BLAS threading belong to the workload alone:

    python3 bench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --inputs bench/workloads.json --work DIR

The last line of standard output is one JSON object with the workload's
figures; run.py turns it into the benchmark's result line.  The package is
imported from `src/` of the checkout this file sits in, never from
site-packages.  Every library call goes through the `ekemq` namespace at
call time, so the timing wrappers of tracer.py see it.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SPANS = (
    "cli.main",
    "oracle.integrate_periodic",
    "oracle.extract_boundary",
    "oracle.levels_at",
    "roots.build_root_set",
    "series.SeriesEvaluator",
    "series.level_matrix",
    "bounds.truncation_error_bound",
    "waiting.wait_cdf",
    "waiting.oracle_wait_cdf",
    "busy.busy_period_cdf",
    "busy.busy_oracle",
)
LAYERS = ("cli", "oracle", "roots", "series", "bounds", "waiting", "busy")
# counters summed per iteration; the rest of tracer.maxima are largest values
ADDITIVE = ("cli.bytes_written", "oracle.matvecs", "roots.count",
            "busy.march_steps", "busy.oracle_rk_steps")
PEAKS = ("oracle.periods", "oracle.residual", "oracle.cap_mass",
         "roots.max_residual", "busy.off_support", "busy.cap_mass")


def read_config(path: Path) -> dict[str, str]:
    """key = value lines of an ekemq config, in file order."""
    values = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def render_config(values: dict[str, str]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


class Checks:
    """Correctness checks by name: how often each ran and failed."""

    def __init__(self):
        self.log: dict[str, list[int]] = {}

    def __call__(self, name: str, ok) -> bool:
        ok = bool(ok)
        entry = self.log.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += not ok
        return ok


class Outcome(NamedTuple):
    """One iteration: timed seconds, operations attempted and failed, and
    the accuracy figures it measured."""

    elapsed: float
    attempted: int
    failed: int
    figures: dict


class CliLaw:
    """`ekemq oracle` then `ekemq compare`, in-process, into fresh directories.

    An operation is one CLI command; a check on a command's output fails
    that command.
    """

    def __init__(self, ek, cfg, params, draws, work, tol):
        self.ek = ek
        self.tol = tol
        self.work = work
        self.operations = 2
        values = dict(cfg, **{"waiting.u": repr(draws["u"])})
        self.cfg_path = work / "run.cfg"
        self.cfg_path.write_text(render_config(values))
        self.oracle_tol = float(values["oracle.tol"])
        ek.cli.RunConfig.load(str(self.cfg_path)).spec()   # rejects a bad config in set-up

    def _cli(self, command, out):
        try:
            return self.ek.cli.main([command, "--config", str(self.cfg_path),
                                     "--out", str(out)])
        except SystemExit as exc:
            return exc.code

    def iterate(self, checks, index):
        base = self.work / f"iter{index}"
        oracle_dir, compare_dir = base / "oracle", base / "compare"
        t0 = time.perf_counter()
        rc_oracle = self._cli("oracle", oracle_dir)
        rc_compare = self._cli("compare", compare_dir)
        elapsed = time.perf_counter() - t0

        figures = {}
        oracle_ok = checks("cli.exit_code", rc_oracle == 0)
        try:
            summary = json.loads((oracle_dir / "oracle.json").read_text())
            oracle_ok &= checks("oracle.residual<=tol",
                                summary["residual"] <= self.oracle_tol)
            oracle_ok &= checks("oracle.cap_mass",
                                summary["cap_mass"] <= self.tol["cap_mass"])
            oracle_ok &= checks("distribution.mass",
                                self._mass_error(oracle_dir, summary) <= self.tol["mass"])
        except (OSError, ValueError, KeyError):
            traceback.print_exc()
            oracle_ok = checks("oracle.outputs_readable", False)

        compare_ok = checks("cli.exit_code", rc_compare == 0)
        try:
            report = json.loads((compare_dir / "compare.json").read_text())
            figures["level_sup_diff"] = max(report["levels_sup_diff"].values())
            figures["wait_sup_diff"] = max(report["waiting_sup_diff"].values())
            compare_ok &= checks("level_sup_diff",
                                 figures["level_sup_diff"] <= self.tol["level_sup_diff"])
            compare_ok &= checks("wait_sup_diff",
                                 figures["wait_sup_diff"] <= self.tol["wait_sup_diff"])
        except (OSError, ValueError, KeyError):
            traceback.print_exc()
            compare_ok = checks("compare.outputs_readable", False)
        if figures:
            figures["route_sup_diff"] = max(figures.values())
        shutil.rmtree(base, ignore_errors=True)
        return Outcome(elapsed, self.operations, (not oracle_ok) + (not compare_ok),
                       figures)

    def _mass_error(self, oracle_dir, summary):
        """Largest |total probability - 1| over the grid times of
        distribution.csv; rows come in blocks of one grid time each."""
        table = np.loadtxt(oracle_dir / "distribution.csv", delimiter=",",
                           skiprows=2, usecols=(0, 4))
        grid = summary["grid_size"]
        block = table.reshape(grid, -1, 2)
        if np.any(block[:, :, 0] != block[:, :1, 0]):
            raise ValueError("distribution.csv rows are not grouped by time")
        return float(np.abs(block[:, :, 1].sum(axis=1) - 1.0).max())


class SeriesSweep:
    """Roots, series, bounds and both wait routes against a fixed oracle.

    Set-up runs the periodic oracle once; the timed part does no oracle
    work.  An operation is one checked case: a level at the accuracy order,
    a wait curve pair (epoch, kind), or a tail-bound case (level, order,
    time).
    """

    def __init__(self, ek, cfg, params, draws, work, tol):
        self.ek = ek
        self.p = params
        self.tol = tol
        self.spec = ek.cli.RunConfig.from_text(render_config(cfg)).spec()
        self.dist = ek.integrate_periodic(
            self.spec, level_cap=int(cfg["oracle.levels"]),
            grid_size=int(cfg["oracle.grid"]), tol=float(cfg["oracle.tol"]))
        self.boundary = ek.extract_boundary(self.dist)
        self.epochs = draws["epochs"]
        self.horizons = np.linspace(0.0, params["wait_horizon"], params["wait_steps"])
        count = params["bound_times"]
        self.bound_times = [n / count for n in range(count)]
        self.bound_rows = [n * self.dist.grid_size // count for n in range(count)]
        self.operations = (params["levels"] + 2 * len(self.epochs)
                           + len(params["bound_levels"]) * len(params["orders"]) * count)

    def iterate(self, checks, index):
        ek, p, spec = self.ek, self.p, self.spec
        grid = self.dist.grid
        levels = range(1, p["levels"] + 1)
        t0 = time.perf_counter()
        root_sets = {q: ek.build_root_set(spec, q) for q in p["orders"]}
        evaluators = {q: ek.SeriesEvaluator(root_sets[q], self.boundary)
                      for q in p["orders"]}
        values = {q: [evaluators[q].level_matrix(j, grid).real for j in levels]
                  for q in p["orders"]}
        budgets = {(j, q, n): ek.truncation_error_bound(spec, t, j, q)
                   for j in p["bound_levels"] for q in p["orders"]
                   for n, t in enumerate(self.bound_times)}
        wait_roots = root_sets[p["wait_order"]]
        curves = [(ek.wait_cdf(spec, wait_roots, self.boundary, u, self.horizons, kind=kind),
                   ek.oracle_wait_cdf(spec, self.dist, u, self.horizons, kind=kind))
                  for u in self.epochs for kind in ("queue", "sojourn")]
        elapsed = time.perf_counter() - t0

        failed = 0
        level_diffs = []
        for j in levels:
            diff = float(np.abs(values[p["accuracy_order"]][j - 1]
                                - self.dist.levels[:, j - 1]).max())
            level_diffs.append(diff)
            failed += not checks("level_sup_diff", diff <= self.tol["level_sup_diff"])
        wait_diffs = []
        for series, oracle in curves:
            diff = float(np.abs(series.values - oracle.values).max())
            wait_diffs.append(diff)
            failed += not checks("wait_sup_diff", diff <= self.tol["wait_sup_diff"])
        ref = p["reference_order"]
        floors = {q: self._rounding_floor(root_sets[q], evaluators[q])
                  for q in p["orders"]}
        for (j, q, n), budget in budgets.items():
            i = self.bound_rows[n]
            measured = np.abs(values[q][j - 1][i] - values[ref][j - 1][i])
            resolved = float((measured - floors[q][j][n] - floors[ref][j][n]).max())
            failed += not checks("bound_violation",
                                 not budget.applicable or resolved <= budget.bound)
        figures = {"level_sup_diff": max(level_diffs),
                   "wait_sup_diff": max(wait_diffs)}
        figures["route_sup_diff"] = max(figures.values())
        return Outcome(elapsed, self.operations, failed, figures)

    def _rounding_floor(self, root_set, evaluator):
        """Rounding error of each level sum at the bound times, by phase:
        eps * (number of roots) * sum over roots of |term|.  A difference
        between two orders below the sum of their floors measures rounding,
        not truncation, so it cannot show a bound violation."""
        eps = np.finfo(float).eps
        coef = np.abs(evaluator.coefficients(self.bound_times))
        chi = np.array([abs(r.chi) for r in root_set])
        weights = np.abs(np.array([self.ek.phase_weights(r) for r in root_set]))
        return {j: eps * len(root_set) * (coef * chi ** -float(j)) @ weights
                for j in self.p["bound_levels"]}


class BusyPeriod:
    """Volterra march and absorbing-ODE oracle for one busy period.

    The seed picks the first start time; each further iteration (by index)
    moves it by half a period, so that the agreement figure, which varies
    by about 40% with the start time, covers both halves of the period in
    every run.  An operation is one route's call; the agreement check reads
    both outputs and fails both.
    """

    def __init__(self, ek, cfg, params, draws, work, tol):
        self.ek = ek
        self.p = params
        self.tol = tol
        self.first_u = draws["u"]
        self.spec = ek.cli.RunConfig.from_text(render_config(cfg)).spec()
        self.operations = 2

    def iterate(self, checks, index):
        ek, p = self.ek, self.p
        phase = tuple(p["phase"])
        u = (self.first_u + 0.5 * index) % 1.0
        t0 = time.perf_counter()
        vol = ek.busy_period_cdf(self.spec, p["level"], phase, u=u,
                                 horizon=p["horizon"], step=p["step"],
                                 refine=p["refine"])
        ode = ek.busy_oracle(self.spec, p["level"], phase, u=u,
                             horizon=p["horizon"], step=p["step"],
                             level_cap=p["level_cap"], substeps=p["substeps"])
        elapsed = time.perf_counter() - t0
        diff = float(np.abs(vol.total() - ode.total()).max())
        agree = checks("busy_sup_diff", diff <= self.tol["busy_sup_diff"])
        capped = checks("busy.cap_mass", ode.cap_mass <= self.tol["cap_mass"])
        failed = (not agree) + (not (agree and capped))
        return Outcome(elapsed, self.operations, failed,
                       {"busy_sup_diff": diff, "route_sup_diff": diff})


WORKLOADS = {"cli-law": CliLaw, "series-sweep": SeriesSweep, "busy-period": BusyPeriod}


def draw_inputs(name, params, seed):
    """Seed-dependent inputs: arrival epochs and start times only."""
    rng = np.random.default_rng(seed)
    if name == "series-sweep":
        return {"epochs": sorted(float(x) for x in rng.uniform(0.0, 1.0, params["epochs"]))}
    return {"u": float(rng.uniform(0.0, 1.0))}


def install_tracing(tracer, ek):
    """Timing wrappers on every public function each layer exposes to the
    workloads, with the work and health counters read off their results."""

    def after_main(tr, rc, args):
        argv = list(args["argv"])
        out = Path(argv[argv.index("--out") + 1])
        if out.is_dir():
            tr.add("cli.bytes_written", sum(f.stat().st_size for f in out.iterdir()))

    def after_oracle(tr, dist, args):
        tr.add("oracle.matvecs", dist.periods * dist.grid_size * 8)
        tr.peak("oracle.periods", dist.periods)
        tr.peak("oracle.residual", dist.residual)
        tr.peak("oracle.cap_mass", dist.cap_mass())

    def after_roots(tr, root_set, args):
        tr.add("roots.count", len(root_set))
        tr.peak("roots.max_residual",
                max(max(r.poly_residual, r.exp_residual) for r in root_set))

    def after_bound(tr, budget, args):
        tr.add("bounds.applicable", budget.applicable)

    def after_busy(tr, sol, args):
        steps = int(round(args["horizon"] / args["step"]))
        tr.add("busy.march_steps", 3 * steps if args["refine"] else steps)
        tr.peak("busy.off_support", sol.off_support)

    def after_busy_oracle(tr, sol, args):
        tr.add("busy.oracle_rk_steps",
               int(round(args["horizon"] / args["step"])) * args["substeps"])
        tr.peak("busy.cap_mass", sol.cap_mass)

    tracer.install(ek.cli.main, "cli.main", after_main)
    tracer.install(ek.integrate_periodic, "oracle.integrate_periodic", after_oracle)
    tracer.install(ek.extract_boundary, "oracle.extract_boundary")
    tracer.install_method(ek.PeriodicDistribution, "levels_at", "oracle.levels_at")
    tracer.install(ek.build_root_set, "roots.build_root_set", after_roots)
    tracer.install_method(ek.SeriesEvaluator, "__init__", "series.SeriesEvaluator")
    tracer.install_method(ek.SeriesEvaluator, "level_matrix", "series.level_matrix")
    tracer.install(ek.truncation_error_bound, "bounds.truncation_error_bound", after_bound)
    tracer.install(ek.wait_cdf, "waiting.wait_cdf")
    tracer.install(ek.oracle_wait_cdf, "waiting.oracle_wait_cdf")
    tracer.install(ek.busy_period_cdf, "busy.busy_period_cdf", after_busy)
    tracer.install(ek.busy_oracle, "busy.busy_oracle", after_busy_oracle)


def layer_metrics(tracer, traced):
    """Per-layer figures per timed iteration of a traced run."""
    n = len(traced)
    self_time, calls, root_time = tracer.summary()
    out = {}
    for span in SPANS:
        out[f"{span}.self_s"] = self_time.get(span, 0.0) / n
        out[f"{span}.calls"] = calls.get(span, 0) / n
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_time.items()
                                     if k.split(".")[0] == layer) / n
    for key in ADDITIVE:
        out[key] = tracer.counters.get(key, 0.0) / n
    for key in PEAKS:
        out[key] = tracer.maxima.get(key, 0.0)
    main_self = out["cli.main.self_s"]
    out["cli.write_MBps"] = out["cli.bytes_written"] / main_self / 1e6 if main_self else 0.0
    bound_calls = calls.get("bounds.truncation_error_bound", 0)
    out["bounds.truncation_error_bound.applicable_ratio"] = (
        tracer.counters.get("bounds.applicable", 0.0) / bound_calls if bound_calls else 0.0)
    out["trace.overhead_s"] = tracer.overhead / n
    out["trace.coverage"] = root_time / sum(traced)
    return out


def attempt(workload, checks, index) -> Outcome:
    """One iteration; a library call that raises fails all its operations."""
    t0 = time.perf_counter()
    try:
        return workload.iterate(checks, index)
    except Exception:  # noqa: BLE001 - recorded as failed operations
        traceback.print_exc()
        ops = workload.operations
        return Outcome(time.perf_counter() - t0, ops, ops, {})


# buffers of the calibration mix, allocated once and small, so that neither
# the allocator's state nor peak memory couples the mix to the workload
_CAL_VECTOR = np.linspace(0.0, 1.0, 1 << 15)
_CAL_SCRATCH = _CAL_VECTOR.copy()
_CAL_MATRIX = np.full((128, 128), 1.0 / 128)
_CAL_PRODUCT = _CAL_MATRIX.copy()


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter, vector and BLAS work
    that no change to the package can move: a reading of the machine's
    current speed."""
    t0 = time.perf_counter()
    total = 0
    for i in range(800_000):
        total += i % 7
    for _ in range(800):
        np.multiply(_CAL_VECTOR, _CAL_VECTOR, out=_CAL_SCRATCH)
        np.sqrt(_CAL_SCRATCH, out=_CAL_SCRATCH)
    for _ in range(400):
        np.matmul(_CAL_MATRIX, _CAL_MATRIX, out=_CAL_PRODUCT)
    return time.perf_counter() - t0


def sample(make, run, repeats, seconds, min_samples):
    """Set up `repeats` times and `run` iterations until the timed samples
    number at least `min_samples` and add up to at least `seconds`.

    One iteration follows each set-up while samples are still due, so that
    samples spread over the whole run rather than one stretch of it: the
    machine's speed drifts over seconds to minutes.  The calibration mix
    runs first and after every set-up and iteration, and each of those is
    paired with the mean of the two calibration times around it.  Returns
    the last set-up's workload, the (set-up seconds, calibration) pairs,
    the (outcome, calibration) pairs and every calibration time.
    """
    setups, outcomes, calibrations = [], [], [calibrate()]

    def bracket():
        calibrations.append(calibrate())
        return 0.5 * (calibrations[-2] + calibrations[-1])

    def due():
        return (len(outcomes) < min_samples
                or sum(o.elapsed for o, _ in outcomes) < seconds)

    for rep in range(repeats):
        t0 = time.perf_counter()
        workload = make(rep)
        setups.append((time.perf_counter() - t0, bracket()))
        if due():
            outcomes.append((run(workload, len(outcomes)), bracket()))
    while due():
        outcomes.append((run(workload, len(outcomes)), bracket()))
    return workload, setups, outcomes, calibrations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import ekemq as ek
    import ekemq.cli
    if not Path(ek.__file__).resolve().is_relative_to(SRC):
        print(f"ekemq imported from {ek.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED

    inputs_path = Path(args.inputs)
    inputs = json.loads(inputs_path.read_text())
    spec = inputs["workloads"][args.workload]
    cfg = read_config(inputs_path.parent / inputs["config"])
    warm_cfg = dict(cfg, **inputs["warmup_config"])
    warm_params = dict(spec["params"], **spec["warmup"])
    draws = draw_inputs(args.workload, spec["params"], args.seed)
    digest = hashlib.sha256(json.dumps(
        {"workload": args.workload, "config": cfg, "params": spec["params"],
         "draws": draws}, sort_keys=True).encode()).hexdigest()
    cls = WORKLOADS[args.workload]
    tol = inputs["tolerances"]
    work = Path(args.work)

    def make(rep):
        """Set-up: the workload's own, then one warm-up iteration at tiny size."""
        rep_dir, warm_dir = work / f"setup{rep}", work / f"warm{rep}"
        rep_dir.mkdir(parents=True)
        warm_dir.mkdir()
        workload = cls(ek, cfg, spec["params"], draws, rep_dir, tol)
        warm = cls(ek, warm_cfg, warm_params,
                   draw_inputs(args.workload, warm_params, args.seed), warm_dir, tol)
        warm.iterate(Checks(), 0)
        shutil.rmtree(warm_dir)
        return workload

    # A traced run samples like an untraced one, with the timing wrappers
    # installed around each timed iteration only, never around set-up.  The
    # tracing overhead is what the wrappers time of themselves: it is
    # milliseconds, and two consecutive untraced iterations already differ
    # by 4-12% (seconds), so traced minus untraced time would measure only
    # that noise.
    checks = Checks()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    def run(workload, index):
        if tracer is None:
            return attempt(workload, checks, index)
        install_tracing(tracer, ek)
        try:
            return attempt(workload, checks, index)
        finally:
            tracer.uninstall()

    # Set-up is repeated and its median reported, so that work moved into
    # set-up shows.  setup_s and wall_s are given at the reference speed:
    # each set-up and iteration is scaled by the calibration mix's reference
    # time over the mix's time around it, because the shared machine's
    # speed drifts by up to 1.75x within an hour, on every workload alike.
    # The raw seconds are reported beside them.
    workload, setups, paired, calibrations = sample(
        make, run, inputs["setup_repeats"], args.seconds, spec["min_samples"])
    ref = inputs["calibration_s"]
    outcomes = [o for o, _ in paired]
    samples = [o.elapsed for o in outcomes]
    setup_raw_s = import_s + statistics.median(t for t, _ in setups)
    wall_raw_s = statistics.median(samples)
    setup_s = (import_s * ref / calibrations[0]
               + statistics.median(t * ref / c for t, c in setups))
    wall_s = statistics.median(o.elapsed * ref / c for o, c in paired)

    per_layer = None
    if tracer is not None:
        per_layer = layer_metrics(tracer, samples)
        tracer.dump(work.parent / f"trace-{args.workload}-seed{args.seed}.json")

    figures = {}
    for o in outcomes:
        for key, value in o.figures.items():
            figures[key] = max(figures.get(key, 0.0), value)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "why": spec["why"],
        "inputs_sha256": digest,
        "draws": draws,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "ekemq": ek.__version__},
        "import_s": import_s,
        "setup_samples": [t for t, _ in setups],
        "wall_samples": samples,
        "calibration_samples": calibrations,
        "end_to_end": {"setup_s": setup_s, "wall_s": wall_s,
                       **figures, "failed_ratio": failed / attempted,
                       "setup_raw_s": setup_raw_s, "wall_raw_s": wall_raw_s,
                       "calibration_s": statistics.median(calibrations)},
        "per_layer": per_layer,
        "checks": checks.log,
        "attempted": attempted,
        "failed": failed,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
