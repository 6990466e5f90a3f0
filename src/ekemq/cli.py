"""Command-line front end.

Configuration is a flat key = value text file with dotted keys (see
RunConfig._SCHEMA for the full key set, ranges and defaults); rate functions
are given by their mean and comma-separated harmonic:amplitude terms, e.g.

    model.k = 7
    model.m = 4
    model.arrival.base = 3
    model.arrival.sin = 1:-2
    model.service.base = 5
    model.service.sin = 1:4

Subcommands: analyze, roots, oracle, bounds, waiting, busy, compare.  Every
command writes CSV files (first line `# schema: <name>`, floats with 17
significant digits, fixed row order, so identical configs give identical
bytes) and JSON summaries into --out.  Exit codes: 0 success, 2 bad
configuration or usage, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import truncation_error_bound
from .busy import busy_oracle, busy_period_cdf
from .model import ModelSpec, RateFunction
from .oracle import extract_boundary, integrate_periodic
from .roots import build_root_set
from .series import SeriesEvaluator
from .waiting import oracle_wait_cdf, wait_cdf


class ConfigError(Exception):
    """Anything wrong with the run configuration."""


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {raw!r}") from exc


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


def _parse_int_list(raw: str) -> tuple[int, ...]:
    if not raw.strip():
        return ()
    return tuple(_parse_int(part.strip()) for part in raw.split(","))


def _parse_terms(raw: str) -> tuple[tuple[int, float], ...]:
    """Harmonic terms like '1:-2, 3:0.5'."""
    if not raw.strip():
        return ()
    terms = []
    for part in raw.split(","):
        if ":" not in part:
            raise ConfigError(f"harmonic term {part.strip()!r} is not j:amplitude")
        j, amp = part.split(":", 1)
        terms.append((_parse_int(j.strip()), _parse_float(amp.strip())))
    return tuple(terms)


def _parse_pair(raw: str) -> tuple[int, int]:
    parts = _parse_int_list(raw)
    if len(parts) != 2:
        raise ConfigError(f"expected 'a,s', got {raw!r}")
    return parts[0], parts[1]


def _at_least(parse, low, strict: bool = False):
    """`parse`, then refuse a value, or any entry of a list, below `low`
    (or equal to it when `strict`)."""
    def checked(raw: str):
        value = parse(raw)
        for v in value if isinstance(value, tuple) else (value,):
            if v < low or (strict and v == low):
                sign = ">" if strict else ">="
                raise ConfigError(f"must be {sign} {low}, got {v}")
        return value
    return checked


def _parse_kind(raw: str) -> str:
    raw = raw.strip()
    if raw not in ("queue", "sojourn"):
        raise ConfigError(f"waiting.kind must be queue or sojourn, got {raw!r}")
    return raw


@dataclass
class RunConfig:
    """Typed view of a parsed configuration file."""

    values: dict

    _SCHEMA = {
        "model.k": (_at_least(_parse_int, 1), None),
        "model.m": (_at_least(_parse_int, 1), None),
        "model.arrival.base": (_parse_float, None),
        "model.arrival.cos": (_parse_terms, ()),
        "model.arrival.sin": (_parse_terms, ()),
        "model.service.base": (_parse_float, None),
        "model.service.cos": (_parse_terms, ()),
        "model.service.sin": (_parse_terms, ()),
        "series.order": (_at_least(_parse_int, 0), 10),
        "oracle.levels": (_at_least(_parse_int, 1), 50),
        "oracle.grid": (_at_least(_parse_int, 4), 512),
        "oracle.tol": (_at_least(_parse_float, 0.0, strict=True), 1e-10),
        "oracle.max_periods": (_at_least(_parse_int, 1), 500),
        "analyze.levels": (_at_least(_parse_int_list, 1), (1, 2, 3)),
        "analyze.times": (_at_least(_parse_int, 1), 16),
        "bounds.levels": (_at_least(_parse_int_list, 1), (3, 4, 5)),
        "bounds.orders": (_at_least(_parse_int_list, 0), (3, 5, 10)),
        "bounds.reference": (_at_least(_parse_int, 0), 40),
        "bounds.times": (_at_least(_parse_int, 1), 16),
        "waiting.u": (_parse_float, 0.2),
        "waiting.kind": (_parse_kind, "queue"),
        "waiting.horizon": (_at_least(_parse_float, 0.0), 3.0),
        "waiting.steps": (_at_least(_parse_int, 1), 61),
        "busy.level": (_at_least(_parse_int, 1), 1),
        "busy.phase": (_at_least(_parse_pair, 0), (0, 0)),
        "busy.u": (_parse_float, 0.0),
        "busy.horizon": (_at_least(_parse_float, 0.0, strict=True), 5.0),
        "busy.step": (_at_least(_parse_float, 0.0, strict=True), 1.0 / 512),
        "busy.cap": (_at_least(_parse_int, 1), 40),
        "busy.substeps": (_at_least(_parse_int, 1), 4),
    }

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        raw: dict[str, str] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected key = value")
            key, value = stripped.split("=", 1)
            key = key.strip()
            if key not in cls._SCHEMA:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in raw:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            raw[key] = value.strip()

        values = {}
        for key, (parse, default) in cls._SCHEMA.items():
            if key in raw:
                try:
                    values[key] = parse(raw[key])
                except ConfigError as exc:
                    raise ConfigError(f"key {key!r}: {exc}") from exc
            elif default is None:
                raise ConfigError(f"missing required key {key!r}")
            else:
                values[key] = default
        # the two limits that join keys
        cap = values["oracle.levels"]
        if max(values["analyze.levels"], default=0) > cap:
            raise ConfigError(f"key 'analyze.levels': a level is past "
                              f"oracle.levels = {cap}")
        a, s = values["busy.phase"]
        if a >= values["model.k"] or s >= values["model.m"]:
            raise ConfigError(f"key 'busy.phase': stages {a},{s} are outside "
                              "model.k x model.m")
        return cls(values=values)

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        return cls.from_text(text)

    def __getitem__(self, key: str):
        return self.values[key]

    def spec(self) -> ModelSpec:
        try:
            arrival = RateFunction(
                base=self["model.arrival.base"],
                cos=self["model.arrival.cos"],
                sin=self["model.arrival.sin"],
            )
            service = RateFunction(
                base=self["model.service.base"],
                cos=self["model.service.cos"],
                sin=self["model.service.sin"],
            )
            return ModelSpec(k=self["model.k"], m=self["model.m"],
                             arrival=arrival, service=service)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(path: Path, schema: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {schema}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _time_grid(count: int) -> np.ndarray:
    return np.arange(count) / count


def _series_setup(cfg: RunConfig, spec: ModelSpec):
    dist = integrate_periodic(
        spec, level_cap=cfg["oracle.levels"], grid_size=cfg["oracle.grid"],
        tol=cfg["oracle.tol"], max_periods=cfg["oracle.max_periods"],
    )
    return dist, extract_boundary(dist)


def _level_pairs(cfg: RunConfig, dist, ev: SeriesEvaluator):
    """(times, [(level, series, oracle)]) for the analyze levels."""
    times = _time_grid(cfg["analyze.times"])
    oracle_levels = dist.levels_at(times)
    return times, [(j, ev.level_matrix(j, times).real, oracle_levels[:, j - 1, :])
                   for j in cfg["analyze.levels"]]


def _wait_pair(cfg: RunConfig, spec: ModelSpec, roots, dist, boundary,
               kind: str):
    """(horizons, series CDF, oracle CDF) of a wait arriving at waiting.u."""
    horizons = np.linspace(0.0, cfg["waiting.horizon"], cfg["waiting.steps"])
    u = cfg["waiting.u"]
    series = wait_cdf(spec, roots, boundary, u, horizons, kind=kind)
    reference = oracle_wait_cdf(spec, dist, u, horizons, kind=kind)
    return horizons, series.values, reference.values


def cmd_roots(cfg: RunConfig, spec: ModelSpec, out: Path) -> None:
    roots = build_root_set(spec, cfg["series.order"])
    rows = [
        (r.n, r.branch, r.y.real, r.y.imag, abs(r.y), r.poly_residual, r.exp_residual)
        for r in roots.roots
    ]
    _write_csv(out / "roots.csv", "roots v1",
               ("n", "branch", "re_y", "im_y", "abs_y",
                "poly_residual", "exp_residual"), rows)


def _write_grid_csv(path: Path, schema: str, header, grid, labels,
                    values: np.ndarray) -> None:
    """Rows (t, label, value) for every grid time t and state, states in
    `labels` order: the bytes `_write_csv` gives on the same rows, formatted
    with one join per grid time instead of one `_fmt` call per cell."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {schema}\n")
        fh.write(",".join(header) + "\n")
        for t, row in zip(grid.tolist(), values.tolist()):
            prefix = format(t, ".17g") + ","
            fh.write("".join([f"{prefix}{label},{v:.17g}\n"
                              for label, v in zip(labels, row)]))


def _write_law(out: Path, spec: ModelSpec, dist, boundary) -> None:
    """distribution.csv and boundary.csv of the oracle command."""
    m = spec.m
    idle = [f"{a},-1" for a in range(spec.k)]
    phases = [f"{ph // m},{ph % m}" for ph in range(spec.phase_count)]
    labels = [f"0,{a}" for a in idle] + [
        f"{j},{ph}" for j in range(1, dist.level_cap + 1) for ph in phases]
    _write_grid_csv(out / "distribution.csv", "periodic-distribution v1",
                    ("t", "level", "arrival_stage", "service_stage", "probability"),
                    dist.grid, labels,
                    np.hstack([dist.idle, dist.levels.reshape(dist.grid_size, -1)]))
    blabels = [f"idle,{a}" for a in idle] + [f"first,{ph}" for ph in phases]
    _write_grid_csv(out / "boundary.csv", "boundary v1",
                    ("t", "kind", "arrival_stage", "service_stage", "value"),
                    boundary.grid, blabels, np.hstack([boundary.idle, boundary.first]))


def cmd_oracle(cfg: RunConfig, spec: ModelSpec, out: Path) -> None:
    dist, boundary = _series_setup(cfg, spec)
    _write_law(out, spec, dist, boundary)
    _write_json(out / "oracle.json", {
        "periods": dist.periods,
        "residual": dist.residual,
        "cap_mass": dist.cap_mass(),
        "level_cap": dist.level_cap,
        "grid_size": dist.grid_size,
    })


def cmd_analyze(cfg: RunConfig, spec: ModelSpec, out: Path) -> None:
    dist, boundary = _series_setup(cfg, spec)
    order = cfg["series.order"]
    ev = SeriesEvaluator(build_root_set(spec, order), boundary)
    times, pairs = _level_pairs(cfg, dist, ev)

    m = spec.m
    rows = []
    sup = {}
    for j, series_vals, oracle_vals in pairs:
        diff = np.abs(series_vals - oracle_vals)
        sup[str(j)] = float(diff.max())
        for i, t in enumerate(times):
            budget = truncation_error_bound(spec, t, j, order)
            bound_txt = _fmt(budget.bound) if budget.applicable else "NA"
            for ph in range(spec.phase_count):
                rows.append((t, j, ph // m, ph % m,
                             series_vals[i, ph], oracle_vals[i, ph],
                             diff[i, ph], bound_txt))
    _write_csv(out / "levels.csv", "level-comparison v1",
               ("t", "level", "arrival_stage", "service_stage",
                "series", "oracle", "abs_diff", "tail_bound"), rows)
    _write_json(out / "analyze.json", {
        "order": order,
        "sup_error_by_level": sup,
        "oracle_periods": dist.periods,
        "oracle_residual": dist.residual,
    })


def cmd_bounds(cfg: RunConfig, spec: ModelSpec, out: Path) -> None:
    _, boundary = _series_setup(cfg, spec)
    times = _time_grid(cfg["bounds.times"])
    reference = build_root_set(spec, cfg["bounds.reference"])
    ev_ref = SeriesEvaluator(reference, boundary)
    evs = {q: SeriesEvaluator(build_root_set(spec, q), boundary)
           for q in cfg["bounds.orders"]}

    rows = []
    for j in cfg["bounds.levels"]:
        ref_vals = ev_ref.level_matrix(j, times).real
        for q in cfg["bounds.orders"]:
            measured = float(np.abs(evs[q].level_matrix(j, times).real - ref_vals).max())
            budgets = [truncation_error_bound(spec, t, j, q)
                       for t in times]
            if all(b.applicable for b in budgets):
                bound_txt = _fmt(max(b.bound for b in budgets))
            else:
                bound_txt = "NA"
            rows.append((j, q, bound_txt, measured))
    _write_csv(out / "bounds.csv", "tail-bounds v1",
               ("level", "order", "bound", "measured"), rows)


def cmd_waiting(cfg: RunConfig, spec: ModelSpec, out: Path) -> None:
    dist, boundary = _series_setup(cfg, spec)
    roots = build_root_set(spec, cfg["series.order"])
    kind = cfg["waiting.kind"]
    horizons, series, reference = _wait_pair(cfg, spec, roots, dist, boundary,
                                             kind)
    rows = [
        (t, sv, ov, abs(sv - ov))
        for t, sv, ov in zip(horizons, series, reference)
    ]
    _write_csv(out / "waiting.csv", "waiting v1",
               ("t", "series", "oracle", "abs_diff"), rows)
    _write_json(out / "waiting.json", {
        "kind": kind,
        "u": cfg["waiting.u"],
        "order": cfg["series.order"],
        "sup_diff": float(np.abs(series - reference).max()),
    })


def cmd_busy(cfg: RunConfig, spec: ModelSpec, out: Path) -> None:
    level = cfg["busy.level"]
    phase = cfg["busy.phase"]
    vol = busy_period_cdf(spec, level, phase, u=cfg["busy.u"],
                          horizon=cfg["busy.horizon"], step=cfg["busy.step"])
    ode = busy_oracle(spec, level, phase, u=cfg["busy.u"],
                      horizon=cfg["busy.horizon"], step=cfg["busy.step"],
                      level_cap=cfg["busy.cap"], substeps=cfg["busy.substeps"])
    header = ["t"]
    header += [f"volterra_a{a}" for a in range(spec.k)]
    header += [f"ode_a{a}" for a in range(spec.k)]
    header += ["volterra_total", "ode_total"]
    vt, ot = vol.total(), ode.total()
    rows = []
    for i, t in enumerate(vol.times):
        rows.append((t, *vol.values[i], *ode.values[i], vt[i], ot[i]))
    _write_csv(out / "busy.csv", "busy-period v1", header, rows)
    _write_json(out / "busy.json", {
        "level": level,
        "phase": list(divmod(vol.phase, spec.m)),
        "u": cfg["busy.u"],
        "step": vol.step,
        "sup_diff": float(np.abs(vt - ot).max()),
        "off_support": vol.off_support,
        "error_estimate": vol.error_estimate,
        "cap_mass": ode.cap_mass,
    })


def cmd_compare(cfg: RunConfig, spec: ModelSpec, out: Path) -> None:
    dist, boundary = _series_setup(cfg, spec)
    roots = build_root_set(spec, cfg["series.order"])
    _, pairs = _level_pairs(cfg, dist, SeriesEvaluator(roots, boundary))
    levels = {str(j): float(np.abs(series - oracle).max())
              for j, series, oracle in pairs}
    waits = {}
    for kind in ("queue", "sojourn"):
        _, series, reference = _wait_pair(cfg, spec, roots, dist, boundary, kind)
        waits[kind] = float(np.abs(series - reference).max())

    _write_json(out / "compare.json", {
        "order": cfg["series.order"],
        "levels_sup_diff": levels,
        "waiting_sup_diff": waits,
        "waiting_u": cfg["waiting.u"],
    })


_COMMANDS = {
    "analyze": cmd_analyze,
    "roots": cmd_roots,
    "oracle": cmd_oracle,
    "bounds": cmd_bounds,
    "waiting": cmd_waiting,
    "busy": cmd_busy,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ekemq",
        description="Periodic Erlang-k/Erlang-m/1 queue computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to key=value config")
        p.add_argument("--out", default="out", help="output directory")

    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.load(args.config)
        spec = cfg.spec()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, spec, out)
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        kind = f"{type(exc).__module__}.{type(exc).__qualname__}"
        print(f"numerical failure in {args.command}: {kind}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
