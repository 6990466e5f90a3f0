"""Command-line front end: config grammar, outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from reference import write_csv_by_rows

import ekemq
from ekemq import ModelSpec, RateFunction, integrate_periodic
from ekemq.bounds import truncation_error_bound
from ekemq.busy import busy_period_cdf
from ekemq._g17 import (
    POW_BOTTOM,
    POW_HI,
    POW_LO,
    POW_TOP,
    csv_lines,
    fast_fields,
    text_rows,
)
from ekemq.cli import (
    _CHUNK_VALUES,
    ConfigError,
    RunConfig,
    _law,
    _series_setup,
    _write_csv,
    _write_law,
    main,
)
from ekemq.oracle import busy_oracle

MM1_BASE = {
    "model.k": 1,
    "model.m": 1,
    "model.arrival.base": 3.0,
    "model.service.base": 5.0,
    "series.order": 0,
    "oracle.levels": 40,
    "oracle.grid": 64,
    "oracle.tol": 1e-10,
    "analyze.levels": "1,2",
    "analyze.times": 8,
    "waiting.horizon": 2.0,
    "waiting.steps": 21,
    "busy.horizon": 1.0,
    "busy.step": 0.015625,
}


def write_cfg(tmp_path, name="run.cfg", drop=(), **overrides):
    entries = {**MM1_BASE, **overrides}
    for key in drop:
        entries.pop(key, None)
    text = "# generated by the test suite\n"
    text += "\n".join(f"{k} = {v}" for k, v in entries.items()) + "\n"
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_config_defaults_and_parsing():
    cfg = RunConfig.from_text(
        "model.k = 7\nmodel.m = 4\n"
        "model.arrival.base = 3\nmodel.arrival.sin = 1:-2\n"
        "model.service.base = 5\nmodel.service.sin = 1:4\n"
    )
    assert cfg["series.order"] == 10
    assert cfg["oracle.grid"] == 512
    assert cfg["model.arrival.sin"] == ((1, -2.0),)
    assert cfg["busy.phase"] == (0, 0)
    spec = cfg.spec()
    assert spec.k == 7 and spec.m == 4
    assert spec.arrival.value(0.25) == pytest.approx(1.0)


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="line 2: unknown key"):
        RunConfig.from_text("model.k = 1\nmodel.q = 2\n")
    with pytest.raises(ConfigError, match="line 2: unknown key 'threads'"):
        RunConfig.from_text("model.k = 1\nthreads = 2\n")
    for key in ("series.nodes", "series.panels"):
        with pytest.raises(ConfigError, match=f"line 2: unknown key '{key}'"):
            RunConfig.from_text(f"model.k = 1\n{key} = 8\n")


def test_config_rejects_duplicate_and_missing():
    with pytest.raises(ConfigError, match="duplicate"):
        RunConfig.from_text("model.k = 1\nmodel.k = 2\n")
    with pytest.raises(ConfigError, match="missing required key"):
        RunConfig.from_text("model.k = 1\nmodel.m = 1\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        RunConfig.from_text("model.k\n")


def test_bad_values_exit_2(tmp_path, capsys):
    bad_value = write_cfg(tmp_path, "bad1.cfg", **{"oracle.grid": "many"})
    assert main(["oracle", "--config", bad_value,
                 "--out", str(tmp_path / "o1")]) == 2
    shared_factor = write_cfg(tmp_path, "bad2.cfg",
                              **{"model.k": 4, "model.m": 2})
    assert main(["oracle", "--config", shared_factor,
                 "--out", str(tmp_path / "o2")]) == 2
    unstable = write_cfg(tmp_path, "bad3.cfg", **{
        "model.arrival.base": 5.0, "model.service.base": 3.0})
    assert main(["oracle", "--config", unstable,
                 "--out", str(tmp_path / "o3")]) == 2
    missing_file = str(tmp_path / "absent.cfg")
    assert main(["roots", "--config", missing_file,
                 "--out", str(tmp_path / "o4")]) == 2
    err = capsys.readouterr().err
    assert err.count("configuration error") == 4
    # non-finite numbers stop at the config, before any solver sees them
    for n, (command, key, value) in enumerate([
            ("waiting", "waiting.u", "nan"),
            ("busy", "busy.horizon", "inf"),
            ("oracle", "model.arrival.sin", "1:nan"),
            ("oracle", "model.service.base", "-inf")]):
        cfg = write_cfg(tmp_path, f"nonfinite{n}.cfg", **{key: value})
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / f"n{n}")]) == 2
        assert "finite" in capsys.readouterr().err
    for command in ("waiting", "busy"):
        cfg = write_cfg(tmp_path, f"{command}.cfg", **{f"{command}.u": "nan"})
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / command)]) == 2
        err = capsys.readouterr().err
        assert f"key '{command}.u': expected a finite number" in err
    assert not any((tmp_path / name).exists()
                   for name in ("n0", "n1", "n2", "n3", "waiting", "busy"))


def test_usage_error_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    # the config file is the one input: no flag overrides its keys
    cfg = write_cfg(tmp_path)
    for extra in (["waiting", "--u", "0.5"], ["waiting", "--kind", "sojourn"],
                  ["busy", "--j", "2"], ["busy", "--u", "0.25"]):
        with pytest.raises(SystemExit) as exc:
            main([*extra, "--config", cfg, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_roots_output_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path, **{
        "model.k": 7, "model.m": 4,
        "model.arrival.sin": "1:-2", "model.service.sin": "1:4",
        "series.order": 3,
    })
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["roots", "--config", cfg, "--out", str(out)]) == 0
        outs.append((out / "roots.csv").read_bytes())
    assert outs[0] == outs[1]

    lines = outs[0].decode().splitlines()
    assert lines[0] == "# schema: roots v1"
    assert lines[1].split(",")[:3] == ["n", "branch", "re_y"]
    data = [line.split(",") for line in lines[2:]]
    assert len(data) == 7 * 4          # (2 * order + 1) * m outer roots
    assert {int(row[0]) for row in data} == set(range(-3, 4))
    assert all(float(row[5]) < 1e-10 for row in data)


def test_oracle_outputs(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "oracle.json").read_text())
    assert meta["residual"] <= 1e-10
    # the level cap sits at 40, so the parked mass is the geometric tail
    assert meta["cap_mass"] == pytest.approx(0.4 * 0.6 ** 40, rel=1e-3)
    assert meta["level_cap"] == 40
    # the law falls by 0.6 a level: 82 levels would reach 1e-18, so all 40
    # are solved
    assert meta["solved_levels"] == 40
    assert meta["level_decay"] == pytest.approx(0.6, rel=1e-12)
    dist_lines = (out / "distribution.csv").read_text().splitlines()
    assert dist_lines[0] == "# schema: periodic-distribution v2"
    # level-0 rows carry no service stage
    first = dist_lines[2].split(",")
    assert first[1] == "0" and first[3] == "-1"
    assert (out / "boundary.csv").exists()


def test_oracle_reports_the_solved_levels(tmp_path):
    # the reference model on a grid of 16: levels 1..8 are solved, and
    # distribution.csv lists those 8 only, those past 8 being exactly 0.
    # The rate matrix at N = 12 starts from those at N = 3 and 6, and takes
    # 3 iterations
    cfg = write_cfg(tmp_path, **{
        "model.k": 7, "model.m": 4, "model.arrival.sin": "1:-2",
        "model.service.sin": "1:4", "oracle.levels": 50, "oracle.grid": 16})
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "oracle.json").read_text())
    assert (meta["level_cap"], meta["solved_levels"]) == (50, 8)
    assert (meta["periods"], meta["iterations"]) == (12, 3)
    assert meta["level_decay"] == pytest.approx(0.0032247, rel=1e-5)
    assert 1e-17 < meta["cap_mass"] < 3.9e-17
    rows = [line.split(",") for line in
            (out / "distribution.csv").read_text().splitlines()[2:]]
    assert len(rows) == 16 * (7 + 8 * 28)
    assert max(int(row[1]) for row in rows) == 8
    assert all(float(row[-1]) > 0.0 for row in rows if int(row[1]) == 8)


@pytest.mark.parametrize("command, keys, names", [
    ("roots", {}, ["roots.csv"]),
    ("oracle", {}, ["boundary.csv", "distribution.csv", "oracle.json"]),
    ("analyze", {}, ["analyze.json", "levels.csv"]),
    ("bounds", {}, ["bounds.csv"]),
    ("waiting", {"waiting.kind": "queue"}, ["waiting.csv", "waiting.json"]),
    ("waiting", {"waiting.kind": "sojourn"}, ["waiting.csv", "waiting.json"]),
    ("busy", {}, ["busy.csv", "busy.json"]),
    ("compare", {}, ["compare.json"]),
], ids=["roots", "oracle", "analyze", "bounds", "waiting-queue", "waiting-sojourn",
        "busy", "compare"])
def test_outputs_are_byte_identical(tmp_path, command, keys, names):
    """Same config, same bytes, at the fixed BLAS thread count of one process.

    Both runs share this process and so its BLAS thread count; bytes written
    at another thread count can differ, as the order of BLAS reductions
    does.
    """
    cfg = write_cfg(tmp_path, **keys)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert sorted(p.name for p in out1.iterdir()) == names
    assert sorted(p.name for p in out2.iterdir()) == names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def _write_law_by_rows(out, spec, dist):
    """The law files by the row-tuple writer: one row per grid time and
    state, the idle and solved ones in distribution.csv, the idle and
    level-1 ones in boundary.csv."""
    m = spec.m
    rows = []
    for i, t in enumerate(dist.grid):
        for a in range(spec.k):
            rows.append((t, 0, a, -1, dist.idle[i, a]))
        for j in range(1, dist.solved_levels + 1):
            for ph in range(spec.phase_count):
                rows.append((t, j, ph // m, ph % m, dist.levels[i, j - 1, ph]))
    write_csv_by_rows(out / "distribution.csv", "periodic-distribution v2",
                      ("t", "level", "arrival_stage", "service_stage", "probability"),
                      rows)
    brows = []
    for i, t in enumerate(dist.grid):
        for a in range(spec.k):
            brows.append((t, "idle", a, -1, dist.idle[i, a]))
        for ph in range(spec.phase_count):
            brows.append((t, "first", ph // m, ph % m, dist.levels[i, 0, ph]))
    write_csv_by_rows(out / "boundary.csv", "boundary v1",
                      ("t", "kind", "arrival_stage", "service_stage", "value"), brows)


def _assert_law_writers_agree(tmp_path, spec, dist):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    _write_law(new, spec, dist.grid, dist.samples, dist.solved_levels)
    _write_law_by_rows(old, spec, dist)
    for name in ("distribution.csv", "boundary.csv"):
        assert (new / name).read_bytes() == (old / name).read_bytes(), name


def test_law_writer_matches_row_writer(tmp_path):
    spec = ModelSpec(2, 3, RateFunction(1.0), RateFunction(2.0))
    grid_size, cap = 5, 3
    rng = np.random.default_rng(11)
    idle = rng.random((grid_size, spec.k))
    levels = rng.random((grid_size, cap, spec.phase_count)) * 10.0 ** -rng.integers(
        0, 300, (grid_size, cap, spec.phase_count))
    idle[0, 0], levels[1, 0, 0], levels[2, 1, 3], levels[3, 2, 5] = 1.0, 0.0, -0.0, 5e-324
    # a stand-in with a law's sample fields: no series reads -0.0 or 5e-324
    # exactly at a grid time
    dist = SimpleNamespace(grid=np.arange(grid_size) / grid_size, idle=idle,
                           levels=levels, level_cap=cap, solved_levels=cap,
                           grid_size=grid_size,
                           samples=np.hstack([idle, levels.reshape(grid_size, -1)]))
    _assert_law_writers_agree(tmp_path, spec, dist)


@pytest.fixture(scope="module")
def periodic74_law128(periodic74_spec):
    """The reference law on a grid of 128, several chunks of grid rows."""
    return integrate_periodic(periodic74_spec, level_cap=50, grid_size=128,
                              tol=1e-10)


def test_law_writer_matches_row_writer_on_a_solved_law(tmp_path, periodic74_spec,
                                                       periodic74_law128):
    _assert_law_writers_agree(tmp_path, periodic74_spec, periodic74_law128)


def test_law_writer_takes_a_law_of_zeros(tmp_path):
    # solved_levels == 0: distribution.csv lists the k idle states at each
    # time, and boundary.csv still lists level 1, as zeros
    spec = ModelSpec(2, 3, RateFunction(1.0), RateFunction(2.0))
    grid_size, cap = 7, 3
    dist = SimpleNamespace(grid=np.arange(grid_size) / grid_size,
                           idle=np.zeros((grid_size, spec.k)),
                           levels=np.zeros((grid_size, cap, spec.phase_count)),
                           level_cap=cap, solved_levels=0, grid_size=grid_size,
                           samples=np.zeros((grid_size, spec.k + cap * spec.phase_count)))
    _assert_law_writers_agree(tmp_path, spec, dist)
    lines = (tmp_path / "new" / "distribution.csv").read_text().splitlines()[2:]
    assert len(lines) == grid_size * spec.k
    assert {line.split(",")[1] for line in lines} == {"0"}
    lines = (tmp_path / "new" / "boundary.csv").read_text().splitlines()[2:]
    assert len(lines) == grid_size * (spec.k + spec.phase_count)
    assert sum(line.split(",")[1] == "first" for line in lines) == grid_size * spec.phase_count
    assert {line.rsplit(",", 1)[1] for line in lines} == {"0"}


@pytest.mark.parametrize("law", ["reference", "all-levels"])
def test_law_file_reads_back_bit_for_bit(tmp_path, request, law):
    # distribution.csv read back with float() is the law's samples of the
    # idle states and the solved levels, to the bit, and every value it
    # leaves out is +0, the one double with no bit set
    if law == "reference":
        spec, dist = (request.getfixturevalue("periodic74_spec"),
                      request.getfixturevalue("periodic74_dist"))
        assert (dist.level_cap, dist.solved_levels) == (50, 8)
    else:  # the law of test_oracle_outputs
        cfg = RunConfig.load(write_cfg(tmp_path))
        spec = cfg.spec()
        dist = _law(cfg, spec)
        assert dist.level_cap == dist.solved_levels == 40
    _write_law(tmp_path, spec, dist.grid, dist.samples, dist.solved_levels)
    listed = spec.k + dist.solved_levels * spec.phase_count
    lines = (tmp_path / "distribution.csv").read_text().splitlines()[2:]
    values = np.array([float(line.rsplit(",", 1)[1]) for line in lines])
    assert values.shape == (dist.grid_size * listed,)
    assert (values.reshape(dist.grid_size, listed).view(np.uint64)
            == dist.samples[:, :listed].view(np.uint64)).all()
    assert not dist.samples[:, listed:].view(np.uint64).any()


def test_formatter_fast_path_covers_most_of_a_law(periodic74_law128, periodic74_dist):
    # what the oracle command writes of a law, its idle states and solved
    # levels, holds no zero, no value below 1e-290 and no value within the
    # rounding bound of a tie, so the fast path takes every value
    for law in (periodic74_law128, periodic74_dist):
        listed = law.spec.k + law.solved_levels * law.spec.phase_count
        written = law.samples[:, :listed]
        assert written.size == law.grid_size * 231
        _, taken = fast_fields(written.ravel())
        assert taken.all()


def test_formatter_writes_signed_zeros_as_percent_g():
    # 0 and -0 amid other values, in runs and alone, and a column of zeros:
    # the fast path leaves them to Python's '%.17g'
    rng = np.random.default_rng(17)
    values = rng.random(5_000) * 10.0 ** -rng.integers(0, 30, 5_000)
    values[rng.random(5_000) < 0.6] = 0.0
    values[rng.random(5_000) < 0.3] *= -1.0
    values[[0, 1, 2]] = [-0.0, 0.5, 0.0]
    for column in (values, np.zeros(9), -np.zeros(9), np.array([-0.0])):
        _, taken = fast_fields(column)
        assert not taken[column == 0.0].any()
        want = "".join("%.17g\n" % x for x in column.tolist())
        assert csv_lines(column).decode() == want
    assert csv_lines(np.array([0.0, -0.0])) == b"0\n-0\n"


def _doubles_to_format():
    """Over a million doubles, in chunks: random bit patterns of both signs,
    every power of ten in the double range with its neighbours, the values
    around the formatter's fast-path threshold at 1e-290, values whose
    17 digits round up to the next decade, subnormals, tiny values, exact
    ties at the 17th digit, and the special values."""
    rng = np.random.default_rng(2024)
    yield rng.integers(0, 2 ** 64, 600_000, dtype=np.uint64).view(np.float64)
    powers = np.array([float(f"1e{n}") for n in range(-323, 309)])
    near = np.concatenate([powers, np.nextafter(powers, 0.0),
                           np.nextafter(powers, np.inf)])
    yield np.concatenate([near, -near])
    # 1e-292 to 1e-289 and the neighbours of its decades
    threshold = np.geomspace(1e-292, 1e-289, 20_000)
    yield np.concatenate([threshold, np.nextafter(threshold, 0.0),
                          np.nextafter(threshold, 1.0)])
    # the doubles up to 8 ulps below and above each power of ten below 1,
    # whose scaled value lies next to 1e16 or 1e17: most round to the decade
    steps = np.arange(-8, 9)
    decades = powers[powers < 1.0].view(np.int64)[:, None] + steps
    yield decades[decades.view(np.float64) < 1.0].view(np.float64)
    yield rng.integers(1, 2 ** 52, 100_000, dtype=np.uint64).view(np.float64)
    yield rng.random(200_000) ** 40
    # M / 2**18 for odd M in [26215, 2**18) has exactly 18 significant
    # digits, the last a 5: a tie at 17 digits, rounded half to even
    ties = np.arange(26215, 2 ** 18, 2) / 2.0 ** 18
    yield np.concatenate([ties, -ties])
    yield np.array([5e-324, -5e-324, 0.0, -0.0, 1.0, -1.0, 1.5, 1e16, 1e17,
                    123456789.125, 2.0 ** 60, 1.7976931348623157e308,
                    np.nan, np.inf, -np.inf])


def test_formatter_matches_percent_g():
    count = 0
    for values in _doubles_to_format():
        for chunk in np.array_split(values, -(-len(values) // 100_000)):
            got = csv_lines(chunk[:, None]).decode().splitlines()
            want = ["%.17g" % x for x in chunk.tolist()]
            bad = [(x, g, w) for x, g, w in zip(chunk.tolist(), got, want) if g != w]
            assert len(got) == len(want) and not bad[:5]
            count += len(chunk)
    assert count >= 1_000_000


@pytest.mark.parametrize("shift", [-1.6, -0.6, 0.6, 1.6])
def test_formatter_moves_a_decade_log10_put_off(monkeypatch, shift):
    """log10 is off by at most one decade, next to a power of ten; with it
    pushed off anywhere, each value whose decade it misreads falls back to
    Python's '%.17g', with no numpy warning, and every other value stays
    taken."""
    values = 10.0 ** -np.random.default_rng(3).uniform(3, 300, 20_000)
    values = np.concatenate([values, [1e-290, 0.99999999999999989]])
    log10 = np.log10
    read = np.floor(log10(values) + shift)
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
    got = csv_lines(values[:, None]).decode().splitlines()
    assert got == ["%.17g" % x for x in values.tolist()]
    _, taken = fast_fields(values)
    # Decimal(x) is x exactly, its adjusted() the decimal exponent
    right = read == [Decimal(x).adjusted() for x in values.tolist()]
    assert (taken == (right & (values >= 1e-290))).all()
    assert taken.any() == (abs(shift) < 1)


def test_power_tables_hold_the_scales_in_double_double():
    assert len(POW_HI) == 292
    for q, (hi, lo, top, bottom) in enumerate(zip(
            POW_HI.tolist(), POW_LO.tolist(), POW_TOP.tolist(), POW_BOTTOM.tolist())):
        exact = Fraction(10 ** (16 + q))
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact / 2 ** 104, q
        assert top + bottom == hi, q
        for half in (top, bottom):
            numerator = Fraction(half).numerator
            # at most 26 significant bits: the odd part of the significand
            assert (numerator // (numerator & -numerator)).bit_length() <= 26, q


def test_no_double_scales_near_a_decade():
    """The formatter tells on which side of 1e16 a scaled value lies from a
    double-double within 1e-13 of it: no double x comes nearer than 0.01 to
    10**-q, in units of 10**-(16 + q)."""
    for q in range(1, 325):
        exact = Fraction(1, 10 ** q)
        nearest = float(exact)
        for x in (np.nextafter(nearest, 0.0), nearest, np.nextafter(nearest, 1.0)):
            assert abs(Fraction(float(x)) - exact) * 10 ** (16 + q) > Fraction(1, 100), q


def test_matrix_writer_matches_row_writer(tmp_path):
    # more rows than one chunk, every kind of float the busy law can hold
    rng = np.random.default_rng(5)
    matrix = rng.random((30_000, 5)) * 10.0 ** -rng.integers(0, 40, (30_000, 5))
    matrix[:, 0] = np.arange(30_000) / 512
    matrix[1, 1:] = [0.0, -0.0, 1.0, -2e-9]
    matrix[2, 1:] = [np.nan, np.inf, 5e-324, 0.5]
    header = ["t", "a", "b", "c", "d"]
    _write_csv(tmp_path / "new.csv", "busy-period v1", header, *matrix.T)
    write_csv_by_rows(tmp_path / "old.csv", "busy-period v1", header,
                      [tuple(row) for row in matrix])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _mixed_columns(rows):
    """(columns, row tuples) of `rows` lines: an integer column of 0,
    negatives and values up to 40, a text column of '%.17g' numbers and
    'NA', and a column of every kind of double in `_doubles_to_format`."""
    rng = np.random.default_rng(7)
    ints = rng.integers(-40, 41, rows)
    ints[:3] = [0, -1, 40][:rows]
    doubles = np.concatenate([chunk[:2000] for chunk in _doubles_to_format()])
    values = np.resize(rng.permutation(doubles), rows)
    texts = [float(v) if i % 3 else "NA" for i, v in enumerate(values[::-1])]
    columns = (ints.astype(float), text_rows(texts), values)
    return columns, list(zip(ints.tolist(), texts, values.tolist()))


@pytest.mark.parametrize("rows", [0, 1, 3 * _CHUNK_VALUES])
def test_column_writer_matches_row_writer(tmp_path, rows):
    columns, tuples = _mixed_columns(rows)
    header = ["level", "bound", "value"]
    _write_csv(tmp_path / "new.csv", "mixed v1", header, *columns)
    write_csv_by_rows(tmp_path / "old.csv", "mixed v1", header, tuples)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert len((tmp_path / "new.csv").read_text().splitlines()) == 2 + rows


def test_writer_takes_text_only_and_empty_columns(tmp_path):
    # no float column, and a float column of no values: a chunk still has
    # a row or more
    _write_csv(tmp_path / "text.csv", "text v1", ["kind", "name"],
               text_rows(["idle", "first", "NA"]), text_rows(["a", "bc", "d"]))
    assert (tmp_path / "text.csv").read_text() == (
        "# schema: text v1\nkind,name\nidle,a\nfirst,bc\nNA,d\n")
    _write_csv(tmp_path / "empty.csv", "empty v1", ["value"], np.zeros((2, 0)))
    assert (tmp_path / "empty.csv").read_text() == "# schema: empty v1\nvalue\n"


def test_integer_valued_doubles_are_written_as_integers():
    # root frequencies, branches, levels, stages and the idle stage -1, as
    # the CLI passes them: as doubles
    ints = list(range(-40, 1001)) + [10 ** 6, 2 ** 53]
    got = csv_lines(np.array(ints, dtype=float)[:, None]).decode()
    assert got == "".join(f"{i}\n" for i in ints)


@pytest.mark.parametrize("command, key, name", [
    ("analyze", "analyze.levels", "levels.csv"),
    ("bounds", "bounds.orders", "bounds.csv"),
    ("bounds", "bounds.levels", "bounds.csv"),
])
def test_empty_lists_write_header_only_files(tmp_path, command, key, name):
    cfg = write_cfg(tmp_path, **{key: ""})
    out = tmp_path / "e"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert len((out / name).read_text().splitlines()) == 2


@pytest.mark.parametrize("under", [False, True], ids=["a file", "under a file"])
def test_unusable_out_exits_2(tmp_path, capsys, under):
    cfg = write_cfg(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "sub" if under else taken
    assert main(["roots", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out) in err
    assert "numerical failure" not in err


def test_unwritable_output_file_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "o"
    (out / "roots.csv").mkdir(parents=True)
    assert main(["roots", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out / "roots.csv") in err
    assert "numerical failure" not in err


def test_analyze_outputs_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert main(["analyze", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["analyze", "--config", cfg, "--out", str(out2)]) == 0
    meta1 = json.loads((out1 / "analyze.json").read_text())
    meta2 = json.loads((out2 / "analyze.json").read_text())
    assert meta1["sup_error_by_level"] == meta2["sup_error_by_level"]
    assert all(v < 1e-8 for v in meta1["sup_error_by_level"].values())
    lines = (out1 / "levels.csv").read_text().splitlines()
    assert lines[0] == "# schema: level-comparison v1"
    assert len(lines) == 2 + 8 * 2     # times * levels, one phase each
    assert lines[2].rstrip().endswith("NA")


def test_analyze_rows_carry_their_own_tail_bound(tmp_path):
    keys = {"model.k": 7, "model.m": 4,
            "model.arrival.sin": "1:-2", "model.service.sin": "1:4",
            "series.order": 10, "analyze.levels": "3", "analyze.times": 4}
    cfg = write_cfg(tmp_path, **keys)
    out = tmp_path / "a"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    spec = RunConfig.load(cfg).spec()
    rows = [line.split(",")
            for line in (out / "levels.csv").read_text().splitlines()[2:]]
    assert len(rows) == 4 * 28
    for row in rows:
        t, j = float(row[0]), int(row[1])
        assert float(row[-1]) == truncation_error_bound(spec, t, j, 10).bound
    # the bound moves with the time of day on this model
    assert len({row[-1] for row in rows}) == 4


def test_waiting_overrides(tmp_path):
    cfg = write_cfg(tmp_path, **{"waiting.u": 0.5, "waiting.kind": "sojourn"})
    out = tmp_path / "w"
    assert main(["waiting", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "waiting.json").read_text())
    assert meta["kind"] == "sojourn"
    assert meta["u"] == 0.5
    assert meta["sup_diff"] < 1e-8
    lines = (out / "waiting.csv").read_text().splitlines()
    assert lines[0] == "# schema: waiting v1"
    assert len(lines) == 2 + 21


def test_busy_overrides(tmp_path):
    cfg = write_cfg(tmp_path, **{"busy.level": 2, "busy.u": 0.25})
    out = tmp_path / "b"
    assert main(["busy", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "busy.json").read_text())
    assert meta["level"] == 2
    assert meta["u"] == 0.25
    assert meta["sup_diff"] < 1e-3
    assert meta["cap_mass"] < 1e-10
    assert 0.0 < meta["error_estimate"] < 1e-2
    header = (out / "busy.csv").read_text().splitlines()[1].split(",")
    assert header == ["t", "volterra_a0", "ode_a0",
                      "volterra_total", "ode_total"]


def test_busy_reports_the_unresolved_mass(tmp_path):
    # load 0.95 (the reference model at arrival rate 8.3125 - 2 sin 2 pi t):
    # the default horizon leaves about 11% of the busy period unresolved
    keys = {"model.k": 7, "model.m": 4, "model.arrival.base": 8.3125,
            "model.arrival.sin": "1:-2", "model.service.base": 5.0,
            "model.service.sin": "1:4", "busy.horizon": 5.0, "busy.substeps": 1}
    cfg = write_cfg(tmp_path, **keys)
    out = tmp_path / "b"
    assert main(["busy", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "busy.json").read_text())
    spec = RunConfig.load(cfg).spec()
    step = MM1_BASE["busy.step"]
    vol = busy_period_cdf(spec, 1, (0, 0), horizon=5.0, step=step)
    ode = busy_oracle(spec, 1, (0, 0), horizon=5.0, step=step, substeps=1)
    assert meta["volterra_unresolved_mass"] == 1.0 - vol.total()[-1]
    assert meta["ode_unresolved_mass"] == 1.0 - ode.total()[-1]
    assert meta["volterra_unresolved_mass"] > 0.05
    assert meta["ode_unresolved_mass"] > 0.05


def test_series_commands_build_no_law_samples(tmp_path):
    # the cap check and the boundary check evaluate their own series
    cfg = RunConfig.load(write_cfg(tmp_path))
    dist, boundary = _series_setup(cfg, cfg.spec())
    assert "samples" not in dist.__dict__
    top = dist.levels[:, dist.solved_levels - 1]
    assert dist.cap_mass() == pytest.approx(top.sum(axis=1).max(), rel=1e-12)
    assert np.allclose(boundary.idle_at(dist.grid), dist.idle, rtol=0.0, atol=1e-15)


def test_oracle_builds_no_law_samples(tmp_path, monkeypatch):
    # the oracle command writes the law's samples, the listed states at the
    # grid, and builds no sample array padded to the level cap; the bytes
    # are those of the padded arrays
    laws = []

    def law(cfg, spec):
        laws.append(_law(cfg, spec))
        return laws[-1]
    monkeypatch.setattr(ekemq.cli, "_law", law)
    cfg = write_cfg(tmp_path, **{"model.k": 7, "model.m": 4, "model.arrival.sin": "1:-2",
                                 "model.service.sin": "1:4", "oracle.levels": 50})
    out = tmp_path / "o"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    (dist,) = laws
    assert "_samples" not in dist.__dict__
    assert dist.__dict__["samples"].shape == (dist.grid_size, 7 + 8 * 28)
    assert (dist.solved_levels, dist.level_cap) == (8, 50)
    padded = np.hstack([dist.idle, dist.levels.reshape(dist.grid_size, -1)])
    assert padded.shape == (dist.grid_size, 7 + 50 * 28)
    _write_law(tmp_path, dist.spec, dist.grid, padded, dist.solved_levels)
    for name in ("distribution.csv", "boundary.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_small_m_model_runs_every_command(tmp_path):
    # k = 7, m = 1: the outside root reaches |y| = 9.1 at n = 6, where p's
    # terms are about 2e8 and |p(y)| at rounding is 4.5e-8, so the root
    # check scales by the terms' moduli; the other keys as in the benchmark's
    # reference config
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model.k = 7\nmodel.m = 1\nmodel.arrival.base = 4.2\n"
                   "model.arrival.sin = 1:-2\nmodel.service.base = 3\n"
                   "model.service.sin = 1:1.5\nseries.order = 10\noracle.levels = 80\n"
                   "oracle.grid = 512\noracle.tol = 1e-10\n")
    out = tmp_path / "out"
    for command in ("roots", "oracle", "analyze", "bounds", "waiting", "busy", "compare"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0, command
    meta = json.loads((out / "compare.json").read_text())
    above = {j: v for j, v in meta["levels_sup_diff"].items() if int(j) >= 2}
    assert above and max(above.values()) <= 1e-13


def test_compare_output(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "c"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "compare.json").read_text())
    assert set(meta["levels_sup_diff"]) == {"1", "2"}
    assert set(meta["waiting_sup_diff"]) == {"queue", "sojourn"}
    assert all(v < 1e-8 for v in meta["levels_sup_diff"].values())


def test_levels_outside_truncation_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, **{"analyze.levels": "1,41"})
    for command in ("analyze", "compare"):
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / command)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: key 'analyze.levels'" in err
        assert "past oracle.levels = 40" in err
        assert not (tmp_path / command).exists()


@pytest.mark.parametrize("command, key, value", [
    ("analyze", "analyze.levels", "0"),
    ("bounds", "bounds.levels", "0"),
    ("busy", "busy.level", "0"),
    ("roots", "series.order", "-1"),
    ("oracle", "oracle.grid", "2"),
    ("oracle", "oracle.levels", "0"),
    ("oracle", "oracle.tol", "0"),
    ("oracle", "oracle.tol", "1"),
    ("oracle", "oracle.tol", "100"),
    ("waiting", "waiting.steps", "0"),
    ("analyze", "analyze.times", "0"),
    ("bounds", "bounds.times", "0"),
    ("waiting", "waiting.horizon", "-1"),
    ("busy", "busy.substeps", "0"),
    ("busy", "busy.phase", "0,5"),
    ("busy", "busy.step", "0.75"),
    # an order at the reference would measure its error against itself
    ("bounds", "bounds.reference", "10"),
])
def test_out_of_range_values_exit_2(tmp_path, capsys, command, key, value):
    # refused when the config is parsed, before any solve; the analyze-level
    # limit is test_levels_outside_truncation_exit_2
    cfg = write_cfg(tmp_path, **{key: value})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"configuration error: key '{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_removed_max_periods_key_exits_2(tmp_path, capsys):
    # the periodic solve iterates no periods, so the key is gone
    cfg = write_cfg(tmp_path, **{"oracle.max_periods": 500})
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 2
    assert "unknown key 'oracle.max_periods'" in capsys.readouterr().err
    assert not out.exists()


def test_removed_busy_cap_key_exits_2(tmp_path, capsys):
    # the busy oracle marches the levels its horizon reaches, so the key is gone
    cfg = write_cfg(tmp_path, **{"busy.cap": 40})
    out = tmp_path / "out"
    assert main(["busy", "--config", cfg, "--out", str(out)]) == 2
    assert "unknown key 'busy.cap'" in capsys.readouterr().err
    assert not out.exists()


def test_busy_at_load_099_needs_no_cap_key(tmp_path):
    # load 0.99: the march reaches 1 + ceil(116 / 7) levels over the horizon
    keys = {"model.k": 7, "model.m": 4, "model.arrival.base": 8.6625,
            "model.arrival.sin": "1:-2", "model.service.base": 5.0,
            "model.service.sin": "1:4", "busy.horizon": 5.0,
            "busy.step": 1 / 128, "busy.substeps": 1}
    out = tmp_path / "b"
    assert main(["busy", "--config", write_cfg(tmp_path, **keys),
                 "--out", str(out)]) == 0
    meta = json.loads((out / "busy.json").read_text())
    assert meta["ode_solved_levels"] == 18
    assert 0.0 < meta["ode_reach_bound"] < 1e-18
    assert meta["cap_mass"] <= 1e-18


def test_busy_starts_past_half_the_oracle_cap(tmp_path):
    # the ODE route marches the levels its horizon reaches, so a start level
    # past 500, half of its level cap of 1000, runs: over the horizon of 1
    # the arrivals climb 30 levels with more than 1e-18 of probability, and
    # neither route sees the system empty by then
    cfg = write_cfg(tmp_path, **{"busy.level": 501})
    out = tmp_path / "b"
    assert main(["busy", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "busy.json").read_text())
    assert (meta["level"], meta["ode_solved_levels"]) == (501, 531)
    assert meta["volterra_unresolved_mass"] == meta["ode_unresolved_mass"] == 1.0


def test_numerical_failure_exits_3(tmp_path, capsys):
    # a rate at harmonic 50: no N up to 128 brings |c_N| to tol
    cfg = write_cfg(tmp_path, **{"model.arrival.base": 60.0,
                                 "model.arrival.cos": "50:59",
                                 "model.service.base": 120.0})
    assert main(["analyze", "--config", cfg,
                 "--out", str(tmp_path / "f")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure in analyze" in err
    assert "harmonics reach past 128" in err


def test_mass_at_cap_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, **{
        "model.k": 2, "model.m": 3,
        "model.arrival.base": 1.9, "model.arrival.sin": "1:0.5",
        "model.service.base": 2.9, "model.service.cos": "2:0.3",
        "oracle.levels": 60, "oracle.grid": 16, "oracle.tol": 1e-12,
    })
    assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure in oracle" in err
    assert "at the level cap 60" in err


def test_module_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, **{
        "model.k": 7, "model.m": 4,
        "model.arrival.sin": "1:-2", "model.service.sin": "1:4",
        "series.order": 1,
    })
    # the child imports the same package as this process, installed or not
    src = str(Path(ekemq.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ekemq.cli", "roots",
         "--config", cfg, "--out", str(tmp_path / "m")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "m" / "roots.csv").exists()
