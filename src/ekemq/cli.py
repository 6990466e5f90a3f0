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
bytes, all through the one writer `_write_csv`) and JSON summaries into
--out.  Exit codes: 0 success, 2 bad configuration or usage (an --out that
cannot be made a directory, or an output file in it that cannot be written,
among them), 3 numerical failure.
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
from .busy import busy_period_cdf
from .model import ModelSpec, RateFunction
from .oracle import busy_oracle, extract_boundary, integrate_periodic
from .roots import _listing, build_root_set
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


def _parse_tol(raw: str) -> float:
    """oracle.tol, refused outside (0, 1), where the solve would return a law
    of no mass."""
    value = _parse_float(raw)
    if not 0.0 < value < 1.0:
        raise ConfigError(f"must be > 0 and < 1, got {value}")
    return value


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
        "oracle.tol": (_parse_tol, 1e-10),
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
        # the limits that join keys
        cap = values["oracle.levels"]
        if max(values["analyze.levels"], default=0) > cap:
            raise ConfigError(f"key 'analyze.levels': a level is past "
                              f"oracle.levels = {cap}")
        if max(values["bounds.orders"], default=-1) >= values["bounds.reference"]:
            raise ConfigError("key 'bounds.reference': must exceed every bounds.orders "
                              f"entry, got {values['bounds.reference']}")
        a, s = values["busy.phase"]
        if a >= values["model.k"] or s >= values["model.m"]:
            raise ConfigError(f"key 'busy.phase': stages {a},{s} are outside "
                              "model.k x model.m")
        # int(round(horizon / step)) >= 2, the march's step count, without
        # rounding an infinite ratio
        if values["busy.horizon"] / values["busy.step"] < 1.5:
            raise ConfigError("key 'busy.step': busy.horizon holds fewer than "
                              "two steps")
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


# The writer formats about this many floats at a time, a chunk of rows:
# 2**14 wrote the reference law 5-10% faster than 2**13 in three sets of
# alternating runs, and a chunk's working arrays peak at about 3.3 MB
# (tracemalloc).
_CHUNK_VALUES = 2 ** 14


def _write_csv(path: Path, schema: str, header, *columns: np.ndarray) -> None:
    """Every CSV file of the CLI: the schema line, the header, then
    `_g17.csv_lines` of the columns, a chunk along the first axis at a
    time.  A column has one axis per axis of the lines (a text column one
    more, for its bytes), each of full length or 1; one of length 1 on the
    first axis serves every chunk."""
    # _g17 is imported where it is used, so that a run that writes no CSV
    # neither loads the formatter nor builds its tables
    from . import _g17
    floats = [c for c in columns if c.dtype != np.uint8]
    lead = np.broadcast_shapes(*(c.shape for c in floats))
    # values per row: 0 with no float column or an empty one
    per_row = len(floats) * math.prod(lead[1:])
    step = max(1, _CHUNK_VALUES // max(1, per_row))
    with open(path, "wb") as fh:
        fh.write(f"# schema: {schema}\n{','.join(header)}\n".encode())
        for i in range(0, max(len(c) for c in columns), step):
            fh.write(_g17.csv_lines(*(c[i:i + step] if len(c) > 1 else c
                                      for c in columns)))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _time_grid(count: int) -> np.ndarray:
    return np.arange(count) / count


def _law(cfg: RunConfig, spec: ModelSpec):
    return integrate_periodic(spec, level_cap=cfg["oracle.levels"],
                              grid_size=cfg["oracle.grid"], tol=cfg["oracle.tol"])


def _series_setup(cfg: RunConfig, spec: ModelSpec):
    dist = _law(cfg, spec)
    return dist, extract_boundary(dist)


def _level_pairs(cfg: RunConfig, dist, ev: SeriesEvaluator):
    """(times, [(level, series, oracle)]) for the analyze levels."""
    times = _time_grid(cfg["analyze.times"])
    oracle_levels = dist.levels_at(times)
    return times, [(j, ev.level_matrix(j, times), oracle_levels[:, j - 1, :])
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
    place, _, y = _listing(roots.y)
    i = np.arange(len(y), dtype=float)
    # np.hypot is Python's abs of a complex; np.abs can differ in the last bit
    _write_csv(out / "roots.csv", "roots v1",
               ("n", "branch", "re_y", "im_y", "abs_y", "poly_residual", "exp_residual"),
               i // spec.m - roots.order, i % spec.m, y.real, y.imag,
               np.hypot(y.real, y.imag), roots.poly_residual.ravel()[place],
               roots.exp_residual.ravel()[place])


def _write_law(out: Path, spec: ModelSpec, grid: np.ndarray, samples: np.ndarray,
               solved_levels: int) -> None:
    """distribution.csv and boundary.csv of the oracle command: a line
    (t, state label, value) for every grid time t and state, from the law's
    samples at the grid times, whose columns are in label order.
    distribution.csv lists the idle states and levels 1..solved_levels: the
    levels past them, up to level_cap, are exact zeros and are not listed.
    boundary.csv lists the idle states and level 1."""
    from . import _g17  # see _write_csv
    m = spec.m
    idle = [f"{a},-1" for a in range(spec.k)]
    phases = [f"{ph // m},{ph % m}" for ph in range(spec.phase_count)]
    labels = [f"0,{a}" for a in idle] + [
        f"{j},{ph}" for j in range(1, solved_levels + 1) for ph in phases]
    blabels = [f"idle,{a}" for a in idle] + [f"first,{ph}" for ph in phases]
    # the grid times are rendered once and serve every chunk of both files
    times = _g17.text_rows(grid.tolist())[:, None]
    _write_csv(out / "distribution.csv", "periodic-distribution v2",
               ("t", "level", "arrival_stage", "service_stage", "probability"),
               times, _g17.text_rows(labels)[None], samples[:, :len(labels)])
    _write_csv(out / "boundary.csv", "boundary v1",
               ("t", "kind", "arrival_stage", "service_stage", "value"),
               times, _g17.text_rows(blabels)[None], samples[:, :len(blabels)])


def cmd_oracle(cfg: RunConfig, spec: ModelSpec, out: Path) -> None:
    dist = _law(cfg, spec)
    _write_law(out, spec, dist.grid, dist.samples, dist.solved_levels)
    _write_json(out / "oracle.json", {
        "periods": dist.periods,
        "residual": dist.residual,
        "cap_mass": dist.cap_mass(),
        "level_cap": dist.level_cap,
        "solved_levels": dist.solved_levels,
        "level_decay": dist.level_decay,
        "iterations": dist.iterations,
        "grid_size": dist.grid_size,
    })


def cmd_analyze(cfg: RunConfig, spec: ModelSpec, out: Path) -> None:
    dist, boundary = _series_setup(cfg, spec)
    order = cfg["series.order"]
    ev = SeriesEvaluator(build_root_set(spec, order), boundary)
    times, pairs = _level_pairs(cfg, dist, ev)

    from . import _g17  # see _write_csv
    # a line per (level, time) row and phase column
    km = spec.phase_count
    levels = np.array(cfg["analyze.levels"], dtype=float)
    phases = np.arange(km, dtype=float)[None]
    series = np.array([s for _, s, _ in pairs]).reshape(-1, km)
    oracle = np.array([o for _, _, o in pairs]).reshape(-1, km)
    bounds = [b.bound if b.applicable else "NA" for j in cfg["analyze.levels"]
              for b in (truncation_error_bound(spec, t, j, order) for t in times)]
    _write_csv(out / "levels.csv", "level-comparison v1",
               ("t", "level", "arrival_stage", "service_stage",
                "series", "oracle", "abs_diff", "tail_bound"),
               np.tile(times, len(levels))[:, None], np.repeat(levels, len(times))[:, None],
               phases // spec.m, phases % spec.m, series, oracle,
               np.abs(series - oracle), _g17.text_rows(bounds)[:, None])
    _write_json(out / "analyze.json", {
        "order": order,
        "sup_error_by_level": {str(j): float(np.abs(s - o).max()) for j, s, o in pairs},
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

    from . import _g17  # see _write_csv
    levels = np.array(cfg["bounds.levels"], dtype=float)
    orders = np.array(cfg["bounds.orders"], dtype=float)
    bounds, measured = [], []
    for j in cfg["bounds.levels"]:
        ref_vals = ev_ref.level_matrix(j, times)
        for q in cfg["bounds.orders"]:
            measured.append(np.abs(evs[q].level_matrix(j, times) - ref_vals).max())
            budgets = [truncation_error_bound(spec, t, j, q)
                       for t in times]
            if all(b.applicable for b in budgets):
                bounds.append(max(b.bound for b in budgets))
            else:
                bounds.append("NA")
    _write_csv(out / "bounds.csv", "tail-bounds v1",
               ("level", "order", "bound", "measured"),
               np.repeat(levels, len(orders)), np.tile(orders, len(levels)),
               _g17.text_rows(bounds), np.array(measured, dtype=float))


def cmd_waiting(cfg: RunConfig, spec: ModelSpec, out: Path) -> None:
    dist, boundary = _series_setup(cfg, spec)
    roots = build_root_set(spec, cfg["series.order"])
    kind = cfg["waiting.kind"]
    horizons, series, reference = _wait_pair(cfg, spec, roots, dist, boundary,
                                             kind)
    _write_csv(out / "waiting.csv", "waiting v1",
               ("t", "series", "oracle", "abs_diff"),
               horizons, series, reference, np.abs(series - reference))
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
                      substeps=cfg["busy.substeps"])
    header = ["t"]
    header += [f"volterra_a{a}" for a in range(spec.k)]
    header += [f"ode_a{a}" for a in range(spec.k)]
    header += ["volterra_total", "ode_total"]
    vt, ot = vol.total(), ode.total()
    _write_csv(out / "busy.csv", "busy-period v1", header,
               vol.times, *vol.values.T, *ode.values.T, vt, ot)
    _write_json(out / "busy.json", {
        "level": level,
        "phase": list(divmod(vol.phase, spec.m)),
        "u": cfg["busy.u"],
        "step": vol.step,
        "sup_diff": float(np.abs(vt - ot).max()),
        "off_support": vol.off_support,
        "error_estimate": vol.error_estimate,
        "cap_mass": ode.cap_mass,
        "ode_solved_levels": ode.solved_levels,
        "ode_reach_bound": ode.reach_bound,
        # the mass neither route has seen empty by the horizon
        "volterra_unresolved_mass": float(1.0 - vt[-1]),
        "ode_unresolved_mass": float(1.0 - ot[-1]),
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
    except OSError as exc:
        print(f"cannot use --out {args.out!r} as the output directory: {exc}",
              file=sys.stderr)
        return 2
    try:
        _COMMANDS[args.command](cfg, spec, out)
    except OSError as exc:  # an output file that cannot be written
        path = args.out if exc.filename is None else exc.filename
        print(f"cannot write the output of {args.command} to {str(path)!r}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        kind = f"{type(exc).__module__}.{type(exc).__qualname__}"
        print(f"numerical failure in {args.command}: {kind}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
