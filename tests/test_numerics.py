import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from mzhomodyne.numerics import (
    Interval,
    NoConvergence,
    NoSignChange,
    RandomStream,
    _drive,
    _golden,
    _walk_chunks,
    erf_diff,
    find_root,
    find_roots,
)
from oracles import central_diff

mp.mp.dps = 40


def gauss_density(t):
    return 2.0 / np.sqrt(np.pi) * np.exp(-t * t)


# ---------------------------------------------------------------------------
# erf_diff, and erf and erfc through it: erf(x) is erf_diff(0.0, x) and
# erfc(x) is erf_diff(x, inf)


def test_erf_zero_is_zero():
    assert erf_diff(0.0, 0.0) == 0.0
    assert erf_diff(0.0, -0.0) == 0.0


def test_erf_one_sigma_matches_quadrature():
    # erf(1/sqrt(2)) is the +-1 sigma mass of the standard normal
    oracle, err = integrate.quad(
        lambda t: np.exp(-t * t / 2.0) / np.sqrt(2.0 * np.pi), -1.0, 1.0
    )
    assert err < 1e-13
    assert abs(erf_diff(0.0, 1.0 / np.sqrt(2.0)) - oracle) < 1e-12


@pytest.mark.parametrize("x", [0.1, 0.46875, 0.7, 1.3, 2.9, 4.2, 5.5])
def test_erf_matches_quadrature(x):
    oracle, err = integrate.quad(gauss_density, 0.0, x, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-11
    assert abs(erf_diff(0.0, x) - oracle) < 1e-11


def test_erf_absolute_error_bound():
    xs = np.concatenate(
        [
            np.linspace(-6.5, 6.5, 1501),
            np.geomspace(1e-12, 30.0, 200),
            -np.geomspace(1e-12, 30.0, 200),
            np.random.default_rng(11).uniform(-12.0, 12.0, 300),
        ]
    )
    worst = max(abs(erf_diff(0.0, float(x)) - float(mp.erf(mp.mpf(float(x)))))
                for x in xs)
    assert worst <= 1e-14


def test_erf_odd_symmetry_exact():
    # compares values: erf_diff(0.0, -0.0) is +0.0, not erf(-0.0) = -0.0
    for x in np.linspace(1e-8, 9.0, 137):
        assert erf_diff(0.0, -float(x)) == -erf_diff(0.0, float(x))


def test_erf_saturates():
    for x in (6.0, 7.5, 20.0, 300.0):
        assert abs(erf_diff(0.0, x) - 1.0) <= 1e-15
        assert abs(erf_diff(0.0, -x) + 1.0) <= 1e-15


def test_erf_monotone_and_bounded():
    xs = np.sort(np.random.default_rng(3).uniform(-10.0, 10.0, 4000))
    vals = erf_diff(0.0, xs)
    assert np.all(np.diff(vals) >= 0.0)
    assert np.all(np.abs(vals) <= 1.0)


def test_erf_array_matches_scalar():
    xs = np.array([-8.0, -1.0, -0.2, 0.0, 0.3, 2.0, 9.0])
    vec = erf_diff(0.0, xs)
    assert vec.shape == xs.shape
    for i, x in enumerate(xs):
        assert vec[i] == erf_diff(0.0, float(x))


def test_erfc_complement_and_tail():
    for x in (0.1, 1.0, 3.0):
        assert abs(erf_diff(x, math.inf) - (1.0 - erf_diff(0.0, x))) < 1e-15
    for x in (5.0, 9.0, 15.0, 25.0):
        exact = float(mp.erfc(mp.mpf(x)))
        assert abs(erf_diff(x, math.inf) - exact) / exact < 1e-13


def test_erf_diff_identical_arguments_exact_zero():
    for x in (0.0, 0.3, 5.0, -7.2):
        assert erf_diff(x, x) == 0.0


def test_erf_diff_tail_relative_accuracy():
    # deep in the tail erf(5.5)-erf(5.0) is ~1e-12; the plain difference
    # of erf values would lose all significant digits
    oracle, err = integrate.quad(gauss_density, 5.0, 5.5)
    assert err < 1e-20
    got = erf_diff(5.0, 5.5)
    assert abs(got - oracle) / oracle < 1e-10


def test_erf_diff_both_tails():
    for a, b in [(4.1, 9.0), (-9.0, -4.1), (6.0, 6.25), (-6.25, -6.0)]:
        exact = float(mp.erf(mp.mpf(b)) - mp.erf(mp.mpf(a)))
        assert abs(erf_diff(a, b) - exact) / abs(exact) < 1e-12


def test_erf_diff_matches_plain_difference_midrange():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = rng.uniform(-2.0, 2.0, 2)
        assert abs(erf_diff(a, b) - (erf_diff(0.0, b) - erf_diff(0.0, a))) < 5e-16


def test_erf_diff_antisymmetry():
    for a, b in [(0.1, 0.9), (5.0, 5.5), (-3.0, 2.0)]:
        assert erf_diff(a, b) == -erf_diff(b, a)


def test_erf_diff_array_broadcast():
    a = np.array([0.0, 5.0, -6.0])
    b = np.array([1.0, 5.5, -5.5])
    out = erf_diff(a, b)
    for i in range(3):
        assert out[i] == erf_diff(float(a[i]), float(b[i]))


# ---------------------------------------------------------------------------
# root finding / minimization / finite differences


def test_find_root_sqrt2():
    root = find_root(lambda x: x * x - 2.0, (0.0, 2.0), tol=1e-12)
    assert abs(root - np.sqrt(2.0)) < 1e-10


def test_find_root_accepts_interval():
    root = find_root(np.sin, Interval(3.0, 3.3), tol=1e-12)
    assert abs(root - np.pi) < 1e-10


def test_find_root_endpoint_zero():
    assert find_root(lambda x: x, (0.0, 1.0)) == 0.0


def test_find_root_no_sign_change():
    with pytest.raises(NoSignChange):
        find_root(lambda x: 1.0 + x * x, (-1.0, 1.0))


def test_find_root_steep_flat_mix():
    f = lambda x: np.tanh(50.0 * (x - 0.7531))
    root = find_root(f, (0.0, 1.0), tol=1e-12)
    assert abs(root - 0.7531) < 1e-9


def test_find_root_raises_at_iteration_cap():
    # a jump at 0 with a tolerance below the spacing of doubles near 0:
    # the bracket cannot shrink to tol within 200 iterations
    with pytest.raises(NoConvergence):
        find_root(lambda x: -1.0 if x < 0 else 1.0, (-1.0, 0.7), tol=1e-300)
    assert not issubclass(NoConvergence, ValueError)


# find_roots drives one find_root search per bracket in lockstep.  The
# drawn functions are monotone: a sign, a line, a cubic and a tanh step
# centred in [0, 1].  A steep step (large k) defeats the interpolation steps,
# so Brent falls back to bisection; a target equal to g at an end is an
# endpoint zero.


def _monotone(sign, c1, c3, ct, k, x0):
    return lambda x: sign * (c1 * x + c3 * x ** 3 + ct * math.tanh(k * (x - x0)))


@st.composite
def _root_problems(draw):
    g = _monotone(draw(st.sampled_from((1.0, -1.0))),
                  draw(st.floats(1e-3, 10.0)), draw(st.floats(0.0, 10.0)),
                  draw(st.floats(0.0, 10.0)), 10.0 ** draw(st.floats(-1.0, 6.0)),
                  draw(st.floats(0.0, 1.0)))
    brackets, targets = [], []
    for _ in range(draw(st.integers(0, 6))):
        lo = draw(st.floats(-2.0, 1.0))
        hi = lo + draw(st.floats(1e-3, 2.0))
        g_lo, g_hi = g(lo), g(hi)
        u = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 1.0))))
        t = g_lo + u * (g_hi - g_lo)
        brackets.append((lo, hi))
        targets.append(g_lo if u == 0.0 else g_hi if u == 1.0
                       else min(max(t, min(g_lo, g_hi)), max(g_lo, g_hi)))
    return g, targets, brackets, draw(st.sampled_from((1e-12, 1e-8, 1e-4)))


_STEP = _monotone(1.0, 1e-3, 0.0, 1.0, 1e6, 0.3)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_root_problems())
@example((_STEP, [0.0, 0.5, -0.5, _STEP(1.0)],
          [(0.0, 1.0), (0.0, 1.0), (-0.5, 0.7), (0.0, 1.0)], 1e-12))
def test_find_roots_equals_find_root_elementwise(problem):
    g, targets, brackets, tol = problem
    batch = lambda xs: np.array([g(x) for x in xs.tolist()])
    want = [find_root(lambda x: g(x) - t, b, tol) for t, b in zip(targets, brackets)]
    # given the end values, the searches skip their first two rounds
    for g_ends in (None, [(g(lo), g(hi)) for lo, hi in brackets]):
        got = find_roots(batch, targets, brackets, tol, g_ends=g_ends)
        assert got == want
        assert [type(r) for r in got] == [type(r) for r in want]


def test_find_roots_calls_g_once_per_round_on_running_searches():
    sizes = []

    def batch(xs):
        sizes.append(len(xs))
        return np.where(xs < 0, -1.0, 1.0)

    # endpoint zeros end the outer searches after their two bracket ends;
    # the middle one is the iteration-cap search of find_root's test
    with pytest.raises(NoConvergence):
        find_roots(batch, [1.0, 0.0, -1.0], [(-1.0, 0.7)] * 3, tol=1e-300)
    assert sizes == [3, 3] + [1] * 200
    sizes.clear()
    with pytest.raises(NoConvergence):
        find_roots(batch, [1.0, 0.0, -1.0], [(-1.0, 0.7)] * 3, tol=1e-300,
                   g_ends=[(-1.0, 1.0)] * 3)
    assert sizes == [1] * 200


def test_find_roots_propagates_no_sign_change():
    with pytest.raises(NoSignChange):
        find_roots(lambda xs: xs, [0.5, 5.0, 0.2], [(0.0, 1.0)] * 3)


def test_find_roots_of_no_brackets_is_empty():
    def batch(xs):
        raise AssertionError("g evaluated without a bracket")
    assert find_roots(batch, [], []) == []


def test_find_roots_rejects_lists_of_different_lengths():
    with pytest.raises(ValueError):
        find_roots(lambda xs: xs, [0.1, 0.2, 0.3], [(0.0, 1.0)] * 2)
    with pytest.raises(ValueError):
        find_roots(lambda xs: xs, [0.1, 0.2], [(0.0, 1.0)] * 3)
    with pytest.raises(ValueError):
        find_roots(lambda xs: xs, [0.1, 0.2], [(0.0, 1.0)] * 2,
                   g_ends=[(0.0, 1.0)])


def test_walk_chunks_doubles_and_stops_lazily():
    chunks = list(_walk_chunks(0.25, -1.0, 0.002, 100))
    assert [len(xs) for xs in chunks] == [16, 32, 52]
    assert sum(chunks, []) == [0.25 + -1.0 * i * 0.002 for i in range(1, 101)]

    def first_value(walk):  # a search that stops at the walk's first step
        for xs in walk:
            return (yield xs)[0]

    calls = []

    def batch(xs):
        calls.append(len(xs))
        return [2.0 * x for x in xs]

    assert _drive(batch, first_value(_walk_chunks(0.0, 1.0, 1e-3, 3141))) == 2e-3
    assert calls == [16]


# Scalar minimisation: _golden driven with one objective call per point.


def test_minimize_scalar_quadratic():
    f = lambda x: (x - 1.234) ** 2 + 0.5
    x, fx = _drive(lambda xs: [f(x) for x in xs], _golden((0.0, 3.0)))
    assert abs(x - 1.234) < 1e-7
    assert abs(fx - 0.5) < 1e-12


def test_minimize_scalar_finds_narrow_global_basin():
    # broad shallow ripples plus one narrow deep well: a descent-only
    # method started anywhere misses the well, the grid scan may not
    def f(x):
        return 0.2 * np.cos(7.0 * x) - np.exp(-300.0 * (x - 2.347) ** 2)

    x, fx = _drive(lambda xs: [f(x) for x in xs], _golden((0.0, 4.0), tol=1e-12))
    brute = np.linspace(2.3, 2.4, 200_001)
    oracle = brute[np.argmin([f(t) for t in brute])]
    assert abs(x - oracle) < 1e-6
    assert fx < -0.9


def test_minimize_scalar_tolerates_inf_values():
    def f(x):
        return float("inf") if x < 1.5 else (x - 2.0) ** 2

    x, _ = _drive(lambda xs: [f(x) for x in xs], _golden((0.0, 3.0)))
    assert abs(x - 2.0) < 1e-6


# A vectorised objective drives _golden with one call per round (as
# best_sensitivity does), and gives what per-point calls give.  The drawn objectives use only exactly rounded
# operations, so one expression gives the same value on a phase array as at
# each of its points: a parabola plus a sawtooth ripple (many local minima),
# optionally rounded down to a quantum (exact ties on the grid; 1e6 ties
# them all) and set to +inf below a cut (an inf plateau that may cover the
# whole grid).


def _scan_objective(x0, curv, amp, freq, quantum, cut):
    def f(x):
        t = x * freq - np.floor(x * freq)
        v = curv * (x - x0) * (x - x0) + amp * t * (1.0 - t)
        if quantum:
            v = np.floor(v / quantum) * quantum
        return v if cut is None else np.where(x < cut, np.inf, v)
    return f


@st.composite
def _scan_problems(draw):
    lo = draw(st.floats(-10.0, 10.0))
    hi = lo + draw(st.floats(1e-3, 10.0))
    f = _scan_objective(
        draw(st.floats(lo, hi)), draw(st.floats(0.0, 10.0)),
        draw(st.floats(0.0, 2.0)), draw(st.floats(0.1, 50.0)),
        draw(st.sampled_from((0.0, 1e-3, 0.1, 1.0, 1e6))),
        draw(st.one_of(st.none(), st.floats(lo - 1.0, hi + 1.0))))
    return f, (lo, hi), draw(st.integers(3, 600))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_scan_problems())
@example((_scan_objective(0.5, 0.0, 0.0, 1.0, 0.0, None), (0.0, 1.0), 64))
@example((_scan_objective(1.0, 1.0, 0.5, 3.0, 0.1, 0.7), (0.0, 3.0), 512))
@example((_scan_objective(1.0, 1.0, 0.0, 1.0, 0.0, 9.0), (0.0, 3.0), 17))
def test_minimize_scalar_batched_scan_equals_scalar_scan(problem):
    f, bracket, n = problem
    batch = lambda xs: np.asarray(f(np.asarray(xs)), dtype=float).tolist()
    scalar = lambda xs: [f(x) for x in xs]
    assert (_drive(batch, _golden(bracket, grid_points=n))
            == _drive(scalar, _golden(bracket, grid_points=n)))


def test_central_diff_cubic():
    d = central_diff(lambda x: x ** 3, 2.0, 1e-5)
    assert abs(d - 12.0) < 1e-8


def test_central_diff_second_order():
    # halving h shrinks the error by ~4x for smooth f
    f = np.cos
    e1 = abs(central_diff(f, 1.0, 2e-3) + np.sin(1.0))
    e2 = abs(central_diff(f, 1.0, 1e-3) + np.sin(1.0))
    assert e2 < e1 / 3.0


def test_central_diff_rejects_bad_h():
    with pytest.raises(ValueError):
        central_diff(np.sin, 0.0, 0.0)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    iv = Interval(-1.0, 2.0)
    assert iv.width == 3.0
    assert iv.contains(0.0) and not iv.contains(2.5)


# ---------------------------------------------------------------------------
# random streams


def test_stream_is_deterministic():
    a = RandomStream(12345, 7).uniform(1000)
    b = RandomStream(12345, 7).uniform(1000)
    assert np.array_equal(a, b)


def test_bulk_draws_equal_sequential_draws():
    bulk = RandomStream(5, 3).uniform(10)
    s = RandomStream(5, 3)
    seq = np.array([float(s.uniform()) for _ in range(10)])
    assert np.array_equal(bulk, seq)


def test_uniform_in_place_equals_fresh_draws():
    n = 1000
    fresh, stream = RandomStream(5, 3), RandomStream(5, 3)
    buf = np.full(2 * n, np.nan)
    assert stream.uniform(out=buf[:n]) is not None
    stream.uniform(size=n, out=buf[n:])
    assert np.array_equal(buf[:n], fresh.uniform(size=n))
    assert np.array_equal(buf[n:], fresh.uniform(size=n))


def test_distinct_stream_indices_are_distinct():
    a = RandomStream(12345, 0).uniform(100)
    b = RandomStream(12345, 1).uniform(100)
    assert not np.array_equal(a, b)


def test_distinct_master_seeds_are_distinct():
    a = RandomStream(1, 0).uniform(100)
    b = RandomStream(2, 0).uniform(100)
    assert not np.array_equal(a, b)


def test_uniform_range_and_mean():
    draws = RandomStream(2026, 0).uniform(100_000)
    assert np.all((draws >= 0.0) & (draws < 1.0))
    assert abs(draws.mean() - 0.5) < 0.005


def test_uniform_ks_statistic():
    n = 100_000
    draws = np.sort(RandomStream(424242, 0).uniform(n))
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - draws)
    d_minus = np.max(draws - (i - 1) / n)
    d = max(d_plus, d_minus)
    critical_1pct = 1.628 / np.sqrt(n)
    assert d < critical_1pct


def test_stream_rejects_bad_seeds():
    with pytest.raises(ValueError):
        RandomStream(-1, 0)
    with pytest.raises(ValueError):
        RandomStream(0, 2 ** 64)


@pytest.mark.parametrize("seed, index", [
    (1.5, 0), (0, 2.5), (1.0, 0), (np.float64(3.0), 0), ("1", 0), (None, 0),
])
def test_stream_rejects_non_integral_keys(seed, index):
    # int() would truncate 1.5 and silently draw seed 1's stream
    with pytest.raises(ValueError):
        RandomStream(seed, index)


@pytest.mark.parametrize("seed, index", [
    (np.int64(12345), np.uint32(7)), (np.uint64(2 ** 64 - 1), np.int8(0)),
])
def test_stream_accepts_numpy_integer_keys(seed, index):
    stream = RandomStream(seed, index)
    assert (stream.master_seed, stream.stream_index) == (int(seed), int(index))
    assert type(stream.master_seed) is int and type(stream.stream_index) is int
    assert np.array_equal(stream.uniform(50),
                          RandomStream(int(seed), int(index)).uniform(50))
