"""Characteristic roots: counts, residuals, symmetry, and the dual solvers."""

import re

import numpy as np
import pytest

import reference
from ekemq import ModelSpec, RateFunction, build_root_set, characteristic_roots, roots
from reference import (_poly, _poly_coeffs, _poly_deriv, outer_roots_by_iteration,
                       root_set_by_frequency, roots_by_frequency)


def _sorted_by_arg(values):
    return sorted(values, key=lambda y: (np.angle(y) % (2 * np.pi), abs(y)))


def test_mm1_single_outer_root(mm1_spec):
    inside, outside = characteristic_roots(mm1_spec, 0)
    assert len(inside) == 1 and len(outside) == 1
    assert inside[0] == pytest.approx(1.0)
    assert outside[0] == pytest.approx(5.0 / 3.0)


def test_unit_root_present_at_zero_frequency(periodic74_spec):
    inside, _ = characteristic_roots(periodic74_spec, 0)
    assert min(abs(y - 1.0) for y in inside) < 1e-12


def test_split_counts_across_frequencies(periodic74_spec):
    for n in range(-20, 21):
        inside, outside = characteristic_roots(periodic74_spec, n)
        assert len(inside) == 7
        assert len(outside) == 4


def test_root_set_size_and_residuals(periodic74_spec):
    rs = build_root_set(periodic74_spec, 20)
    assert len(rs) == 41 * 4
    assert max(r.poly_residual for r in rs) < 1e-10
    assert max(r.exp_residual for r in rs) < 1e-8


def test_root_set_conjugate_symmetry(periodic74_roots40):
    rs = periodic74_roots40
    for n in (1, 7, 25, 40):
        pos = _sorted_by_arg([r.y for r in rs if r.n == n])
        neg = _sorted_by_arg([np.conj(r.y) for r in rs if r.n == -n])
        neg_matched = sorted(neg, key=lambda y: (y.real, y.imag))
        pos_matched = sorted(pos, key=lambda y: (y.real, y.imag))
        assert max(abs(a - b) for a, b in zip(pos_matched, neg_matched)) < 1e-12


def test_roots_distinct_within_frequency(periodic74_roots40):
    for n in range(-40, 41):
        ys = [r.y for r in periodic74_roots40 if r.n == n]
        for i in range(len(ys)):
            for j in range(i + 1, len(ys)):
                assert abs(ys[i] - ys[j]) > 1e-8


def test_branch_labels_sorted_by_argument(periodic74_roots10):
    for n in (-10, -3, 0, 4, 10):
        rs = sorted((r for r in periodic74_roots10 if r.n == n),
                    key=lambda r: r.branch)
        args = [np.angle(r.y) % (2 * np.pi) for r in rs]
        assert all(args[i] <= args[i + 1] + 1e-12 for i in range(len(args) - 1))


def test_fractional_powers_are_integer_powers(periodic74_roots10):
    for r in periodic74_roots10:
        assert r.chi == pytest.approx(r.y ** 28, rel=1e-12)
        assert (r.y ** 4) ** 7 == pytest.approx(r.chi, rel=1e-9)
        assert (r.y ** 7) ** 4 == pytest.approx(r.chi, rel=1e-9)


def test_iteration_agrees_with_companion(periodic74_spec):
    for n in (0, 1, 2, 3, 5, 10, 20):
        _, outside = characteristic_roots(periodic74_spec, n)
        iterated = outer_roots_by_iteration(periodic74_spec, n)
        a = _sorted_by_arg(outside)
        b = _sorted_by_arg(iterated)
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-9


def test_iteration_seeds_close_at_high_frequency(periodic74_spec):
    n = 50
    _, outside = characteristic_roots(periodic74_spec, n)
    lam_bar = periodic74_spec.arrival_mean
    mu_bar = periodic74_spec.service_mean
    seed_mag = (abs(2j * np.pi * n + lam_bar + mu_bar) / lam_bar) ** (1.0 / 4)
    for y in outside:
        assert abs(abs(y) - seed_mag) / seed_mag < 0.1


def test_iteration_disallowed_fallback_raises(periodic74_spec):
    with pytest.raises(RuntimeError, match="did not converge"):
        outer_roots_by_iteration(periodic74_spec, 0, max_iter=1)


def test_residual_scale_for_tight_frequencies():
    spec = ModelSpec(2, 3, RateFunction(1.0, sin=((1, 0.5),)),
                     RateFunction(2.0, cos=((1, 0.3),)))
    rs = build_root_set(spec, 15)
    assert len(rs) == 31 * 3
    assert max(r.poly_residual for r in rs) < 1e-10


def _reference_rates(k, m):
    return ModelSpec(k, m, RateFunction(3.0, sin=((1, -2.0),)),
                     RateFunction(5.0, sin=((1, 4.0),)))


def _bits(ys):
    return [(y.real.hex(), y.imag.hex()) for y in ys]


def _forward_gaps(spec, n, got, ref):
    """For each root y of got at frequency n, its distance to the nearest
    root of ref times |p'(y)|, in units of eps times the residual check's
    scale lam_bar |y|**(k+m) + |b| |y|**k + mu_bar: two backward-stable
    roots of one polynomial are a few such units apart.  The nearest roots
    must be distinct, so the match is one to one."""
    poly = _poly(spec, n)
    lb, b, mb, k, m = poly
    nearest = [min(range(len(ref)), key=lambda i: abs(ref[i] - y)) for y in got]
    assert len(set(nearest)) == len(got) == len(ref), n
    return [abs(ref[i] - y) * abs(_poly_deriv(poly, y))
            / (np.finfo(float).eps * (lb * abs(y) ** (k + m) + abs(b) * abs(y) ** k + mb))
            for i, y in zip(nearest, got)]


# the forward error two backward-stable roots allow, in the units of
# _forward_gaps
_ROOT_GAP = 8.0


@pytest.mark.parametrize("order", [0, 1, 10, 40])
@pytest.mark.parametrize("k, m", [(7, 4), (2, 3), (1, 1)])
def test_root_set_is_the_per_frequency_loop_within_forward_error(k, m, order):
    # the array pass, in numpy's complex arithmetic, finds the roots the
    # loop over single frequencies finds in CPython's, within the forward
    # error of two backward-stable roots, each root matched within its
    # frequency; the set stores n >= 0 only, and the residuals of each n < 0
    # root, computed at it, are its mirror's bit for bit
    spec = _reference_rates(k, m)
    got, ref = build_root_set(spec, order), root_set_by_frequency(spec, order)
    assert len(got) == len(ref) == (2 * order + 1) * m
    for n in range(-order, order + 1):
        ys = [r.y for r in got if r.n == n]
        assert max(_forward_gaps(spec, n, ys, [r.y for r in ref if r.n == n])) <= _ROOT_GAP
    freqs = np.arange(order + 1)
    stored = roots._residuals(spec, freqs, got.y)
    mirrored = roots._residuals(spec, -freqs, got.y.conj())
    assert all(a.tobytes() == b.tobytes() for a, b in zip(stored, mirrored))
    assert stored[0].tobytes() == got.poly_residual.tobytes()
    assert stored[2].tobytes() == got.exp_residual.tobytes()


@pytest.mark.parametrize("k, m", [(7, 4), (2, 3), (1, 1)])
def test_array_call_is_the_single_frequency_calls(k, m):
    # an array call and calls one frequency at a time give the same bits;
    # both are within the forward error of two backward-stable roots of the
    # loop in CPython's arithmetic
    spec = _reference_rates(k, m)
    freqs = np.arange(-20, 21)
    inside, outside = characteristic_roots(spec, freqs)
    assert inside.shape == (41, k) and outside.shape == (41, m)
    for i, n in enumerate(freqs.tolist()):
        one_in, one_out = characteristic_roots(spec, n)
        assert _bits(one_in) == _bits(inside[i]) and _bits(one_out) == _bits(outside[i]), n
        ref_in, ref_out = roots_by_frequency(spec, n)
        assert max(_forward_gaps(spec, n, one_in + one_out, ref_in + ref_out)) <= _ROOT_GAP


def test_array_call_refuses_non_integer_frequencies(periodic74_spec):
    for bad in (np.array([0.0, 1.0]), np.arange(4).reshape(2, 2), [0, 1.5]):
        with pytest.raises(TypeError, match="^n must be an integer or a 1-D integer array"):
            characteristic_roots(periodic74_spec, bad)


def test_bad_split_names_the_first_failing_frequency(periodic74_spec, monkeypatch):
    # with |y| <= 1.7 counted inside, all four outside roots of n = 3 count
    # inside and none of n = 7 or 10 does (their smallest moduli are 1.96
    # and 2.14)
    monkeypatch.setattr(roots, "_INSIDE_TOL", 0.7)
    monkeypatch.setattr(reference, "_INSIDE_TOL", 0.7)
    with pytest.raises(RuntimeError, match=r"^root split failed at n=3: 11 inside, "
                                           r"0 outside \(wanted 7/4\)$"):
        characteristic_roots(periodic74_spec, [10, 7, 3, 0])
    with pytest.raises(RuntimeError) as single:
        characteristic_roots(periodic74_spec, 3)
    with pytest.raises(RuntimeError) as looped:
        roots_by_frequency(periodic74_spec, 3)
    assert single.value.args == looped.value.args
    with pytest.raises(RuntimeError, match="^root split failed at n=0: ") as got:
        build_root_set(periodic74_spec, 10)
    with pytest.raises(RuntimeError) as ref:
        root_set_by_frequency(periodic74_spec, 10)
    assert got.value.args == ref.value.args


def test_collision_names_the_first_failing_frequency(periodic74_spec, monkeypatch):
    # outside roots of n = 0 are 1.75 apart at the closest, and of n = 1
    # 1.88; a gap of 1.8 makes n = 0 collide and n = 1 not
    monkeypatch.setattr(roots, "_COLLISION_GAP", 1.8)
    monkeypatch.setattr(reference, "_COLLISION_GAP", 1.8)
    with pytest.raises(RuntimeError, match="^outside roots collide at n=0$") as got:
        build_root_set(periodic74_spec, 10)
    with pytest.raises(RuntimeError) as ref:
        root_set_by_frequency(periodic74_spec, 10)
    assert got.value.args == ref.value.args


@pytest.mark.parametrize("which", ["poly", "exp"])
def test_residual_failure_names_the_first_failing_root(periodic74_spec, monkeypatch, which):
    # a tolerance just below the largest residual of the set fails that root
    # alone (and its mirror, named by n >= 0), with the figures of its check
    rs = build_root_set(periodic74_spec, 10)
    if which == "poly":
        name = "_POLY_RESIDUAL_TOL"
        # the scale of each root's check, the sum of its terms' moduli
        scale = np.array([[3.0 * abs(y ** 11) + abs(8.0 + 2j * np.pi * n) * abs(y ** 7) + 5.0
                           for y in row] for n, row in enumerate(rs.y.tolist())])
        ratio = rs.poly_residual / scale
        n, j = np.unravel_index(np.argmax(ratio), ratio.shape)
        tol = ratio[n, j] * (1.0 - 1e-9)
        message = "^" + re.escape(f"root residual {rs.poly_residual[n, j]:.3e} too large "
                                  f"at n={n} (scale ")
    else:
        name = "_EXP_RESIDUAL_TOL"
        n, j = np.unravel_index(np.argmax(rs.exp_residual), rs.exp_residual.shape)
        tol = rs.exp_residual[n, j] * (1.0 - 1e-9)
        message = "^" + re.escape(f"exponential residual {rs.exp_residual[n, j]:.3e} "
                                  f"too large at n={n}") + "$"
    monkeypatch.setattr(roots, name, tol)
    with pytest.raises(RuntimeError, match=message) as got:
        build_root_set(periodic74_spec, 10)
    if which == "poly":
        assert float(got.value.args[0].split("scale ")[1][:-1]) == pytest.approx(
            scale[n, j], rel=1e-3)


@pytest.mark.parametrize("k, m", [(7, 4), (1, 1), (2, 3)])
def test_eigenvalues_are_numpy_roots_bits(k, m, monkeypatch):
    # one stacked eigvals call per root set, whose row n holds np.roots'
    # eigenvalues of frequency n, bit for bit, in np.roots' order
    spec = _reference_rates(k, m)
    eigvals = np.linalg.eigvals
    calls = []

    def spy(a):
        calls.append(eigvals(a))
        return calls[-1]

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    for q in (3, 10, 40):
        calls.clear()
        build_root_set(spec, q)
        assert len(calls) == 1
        assert calls[0].shape == (q + 1, k + m)
        for n, ys in enumerate(calls[0]):
            assert ys.tobytes() == np.roots(_poly_coeffs(_poly(spec, n))).tobytes(), (q, n)


def _sweep_models(count=100, seed=7):
    """The seeded random models of the roadmap's sweep: k, m uniform on
    1..8 and coprime (a pair that is not is redrawn), mu_bar uniform on
    [1, 6], the load uniform on [0.1, 0.97] with lam_bar = load k mu_bar / m,
    arrival lam_bar + a sin 2 pi h_a t and service mu_bar + b cos 2 pi h_s t,
    h_a and h_s uniform on {1, 2, 3}, a / lam_bar and b / mu_bar uniform on
    [0, 0.9]; drawn in the order k, m, mu_bar, load, h_a, h_s, a, b."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        while np.gcd(k, m) != 1:
            k, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        mu_bar, load = rng.uniform(1.0, 6.0), rng.uniform(0.1, 0.97)
        h_a, h_s = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a, b = rng.uniform(0.0, 0.9), rng.uniform(0.0, 0.9)
        lam_bar = load * k * mu_bar / m
        yield ModelSpec(k, m, RateFunction(lam_bar, sin=((h_a, a * lam_bar),)),
                        RateFunction(mu_bar, cos=((h_s, b * mu_bar),)))


def test_seeded_sweep_builds_every_root_set():
    # every model of the sweep builds its root sets at orders 10, 20 and 40;
    # row 0 (real coefficients) is closed under conjugation, its positive
    # real root is exactly real and has branch 0, and every stored residual
    # is within its check
    for spec in _sweep_models():
        for order in (10, 20, 40):
            rs = build_root_set(spec, order)
            row0 = rs.y[0].tolist()
            assert max(_forward_gaps(spec, 0, row0, [y.conjugate() for y in row0])) \
                <= _ROOT_GAP, (spec, order)
            assert row0[0].imag == 0.0 and row0[0].real > 1.0, (spec, order)
            lb, mb, k, m = spec.arrival_mean, spec.service_mean, spec.k, spec.m
            freqs = np.arange(order + 1)[:, None]
            scale = (lb * np.abs(rs.y) ** (k + m)
                     + np.abs(lb + mb + 2j * np.pi * freqs) * np.abs(rs.y) ** k + mb)
            assert (rs.poly_residual <= roots._POLY_RESIDUAL_TOL * scale).all(), (spec, order)
            assert (rs.exp_residual <= roots._EXP_RESIDUAL_TOL).all(), (spec, order)
