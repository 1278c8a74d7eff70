import math
import sys
import warnings

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
    _row_sums,
    _streams,
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
    root = find_root(lambda x: x * x - 2.0, (0.0, 2.0))
    assert abs(root - np.sqrt(2.0)) < 1e-10


def test_find_root_accepts_interval():
    root = find_root(np.sin, Interval(3.0, 3.3))
    assert abs(root - np.pi) < 1e-10


def test_find_root_endpoint_zero():
    assert find_root(lambda x: x, (0.0, 1.0)) == 0.0


def test_find_root_no_sign_change():
    with pytest.raises(NoSignChange):
        find_root(lambda x: 1.0 + x * x, (-1.0, 1.0))


def test_find_root_steep_flat_mix():
    f = lambda x: np.tanh(50.0 * (x - 0.7531))
    root = find_root(f, (0.0, 1.0))
    assert abs(root - 0.7531) < 1e-9


def _shrinking(lo, hi):
    """-1 at lo, 1 at hi, and at every other point a positive value 0.3 times
    the last: a sign change that the interpolation steps creep towards from
    one side, so the bracket stays wider than Brent's stop for 200 iterations.
    A jump at 0 would not do: its bracket shrinks to the stop in 53 calls."""
    inner = [1.0]

    def f(x):
        if x in (lo, hi):
            return -1.0 if x == lo else 1.0
        inner[0] *= 0.3
        return inner[0]

    return f


def test_find_root_raises_at_iteration_cap():
    calls = []
    f = _shrinking(-1.0, 0.7)
    with pytest.raises(NoConvergence):
        find_root(lambda x: calls.append(x) or f(x), (-1.0, 0.7))
    assert len(calls) == 202
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
    return g, targets, brackets


_STEP = _monotone(1.0, 1e-3, 0.0, 1.0, 1e6, 0.3)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_root_problems())
@example((_STEP, [0.0, 0.5, -0.5, _STEP(1.0)],
          [(0.0, 1.0), (0.0, 1.0), (-0.5, 0.7), (0.0, 1.0)]))
def test_find_roots_equals_find_root_elementwise(problem):
    g, targets, brackets = problem
    batch = lambda xs: np.array([g(x) for x in xs.tolist()])
    want = [find_root(lambda x: g(x) - t, b) for t, b in zip(targets, brackets)]
    # given the end values, the searches skip their first two rounds
    for g_ends in (None, [(g(lo), g(hi)) for lo, hi in brackets]):
        got = find_roots(batch, targets, brackets, g_ends=g_ends)
        assert got == want
        assert [type(r) for r in got] == [type(r) for r in want]


def test_find_roots_calls_g_once_per_round_on_running_searches():
    # endpoint zeros end the outer searches after their two bracket ends;
    # the middle one is the iteration-cap search of find_root's test
    for g_ends, rounds in ((None, [3, 3] + [1] * 200), ([(-1.0, 1.0)] * 3, [1] * 200)):
        sizes, f = [], _shrinking(-1.0, 0.7)

        def batch(xs):
            sizes.append(len(xs))
            return np.array([f(x) for x in xs.tolist()])

        with pytest.raises(NoConvergence):
            find_roots(batch, [1.0, 0.0, -1.0], [(-1.0, 0.7)] * 3, g_ends=g_ends)
        assert sizes == rounds


@pytest.mark.parametrize("bracket", [(0.0, math.inf), (-math.inf, 3.0),
                                     Interval(0.0, math.inf)])
def test_searches_reject_an_infinite_bracket_end_before_evaluating(bracket):
    calls = []

    def f(x):
        calls.append(x)
        return x - 1.0

    with pytest.raises(ValueError, match="finite") as err:
        find_root(f, bracket)
    assert type(err.value) is ValueError
    assert calls == []


def test_find_roots_raises_an_infinite_lane_error_in_lane_order():
    batch = lambda xs: xs - 1.0
    with pytest.raises(ValueError, match=r"\[-inf, 3.0\]"):
        find_roots(batch, [0.0] * 3, [(0.0, 2.0), (-math.inf, 3.0), (0.0, math.inf)])
    # a lane before it that fails on its values raises first
    with pytest.raises(NoSignChange):
        find_roots(batch, [5.0, 0.0], [(0.0, 2.0), (0.0, math.inf)])
    with pytest.raises(ValueError, match=r"\[0.0, inf\]") as err:
        find_roots(batch, [0.0, 5.0], [(0.0, math.inf), (0.0, 2.0)])
    assert type(err.value) is ValueError


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
    assert (iv.lo, iv.hi) == (-1.0, 2.0)


# ---------------------------------------------------------------------------
# row sums: the exactly rounded math.fsum of each row


_BIG = 2.0 ** 1022
_MAX = sys.float_info.max
_ZEROS = st.sampled_from([0.0, -0.0])
# Each table draws its terms from one pool, so some tables stay under the
# column add's magnitude guard and some cross it: any finite float; small
# values with signed zeros; subnormals; values around the guard, 2**1022,
# up to the largest float, whose pairwise sums overflow; the guard, the float
# above it and the non-finite values, which fail it, among small values.
_TERM_POOLS = [
    st.floats(allow_nan=False, allow_infinity=False),
    st.one_of(_ZEROS, st.floats(-1e3, 1e3)),
    st.one_of(_ZEROS, st.floats(-2.3e-308, 2.3e-308)),
    st.one_of(_ZEROS, st.sampled_from([_BIG, -_BIG, math.nextafter(_BIG, _MAX),
                                       2.0 ** 1023, -(2.0 ** 1023), _MAX, -_MAX]),
              st.floats(2.0 ** 1021, _MAX), st.floats(-_MAX, -(2.0 ** 1021))),
    st.one_of(_ZEROS, st.floats(-1.0, 1.0),
              st.sampled_from([_BIG, -_BIG, math.nextafter(_BIG, _MAX), math.nan,
                               math.inf, -math.inf])),
]


@st.composite
def _row_tables(draw):
    """A float64 table of 1, 2, 5 or 8 columns and 0 to 24 rows, so both the
    column add and the row-by-row fsum run; a drawn row may end in a pair
    that cancels exactly or to within an ulp."""
    cols = draw(st.sampled_from([1, 2, 5, 8]))
    rows = draw(st.integers(0, 24))
    terms = draw(st.sampled_from(_TERM_POOLS))
    table = [[draw(terms) for _ in range(cols)] for _ in range(rows)]
    for row in table:
        if cols > 1 and draw(st.booleans()):
            row[-1] = -draw(st.sampled_from([row[-2], math.nextafter(row[-2], 0.0)]))
    return np.array(table, dtype=np.float64).reshape(rows, cols)


def _assert_row_sums_equal_fsum(table):
    """_row_sums(table) has the bits of math.fsum on each row, or raises the
    error math.fsum raises first, with no RuntimeWarning either way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            want = [math.fsum(row) for row in table.tolist()]
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc)):
                _row_sums(table)
            return
        got = _row_sums(table)
    assert got.dtype == np.float64 and got.shape == (len(table),)
    assert np.array_equal(got.view(np.int64), np.array(want, dtype=np.float64).view(np.int64))


_MANY = 17  # a last row below 16 rows that alone would take the column add


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_row_tables())
@example(np.array([[-0.0]]))
@example(np.full((8, 2), -0.0))
@example(np.array([[_BIG, _BIG], [-_BIG, 1.0], [_BIG, -_BIG]]))
@example(np.array([[math.nextafter(_BIG, _MAX)], [1.0]]))
@example(np.array([[math.nextafter(_BIG, _MAX), -_BIG]] * 4))
@example(np.array([[math.nan, 1.0], [0.5, 0.25]]))
@example(np.array([[math.nan]] * 5))
@example(np.array([[math.inf, 1.0]] * 3))
@example(np.array([[-math.inf]] * 8))
@example(np.full((_MANY, 1), -0.0))
@example(np.full((_MANY, 2), -0.0))
@example(np.tile([[5e-324, -5e-324]], (_MANY, 1)))
@example(np.tile([[_BIG, _BIG]], (_MANY, 1)))
@example(np.tile([[2.0 ** 1023, 2.0 ** 1023]], (_MANY, 1)))
@example(np.tile([[2.0 ** 1023, -(2.0 ** 1023)]], (_MANY, 1)))
@example(np.tile([[1.0, 2.0 ** -53 + 2.0 ** -105]], (_MANY, 1)))
def test_row_sums_equal_fsum_bit_for_bit(table):
    _assert_row_sums_equal_fsum(table)


@pytest.mark.parametrize("rows", [1, _MANY])
@pytest.mark.parametrize("row", [
    [math.inf], [-math.inf], [math.nan], [math.inf, 1.0], [math.inf, -math.inf],
    [math.nan, 1.0], [math.inf, math.nan], [sys.float_info.max, sys.float_info.max],
    [-(2.0 ** 1023), -(2.0 ** 1023)], [1.0, 2.0, math.inf, -math.inf, 3.0],
], ids=repr)
def test_row_sums_of_non_finite_and_overflowing_rows_act_as_fsum(row, rows):
    table = np.array([[0.5] * len(row)] * (rows - 1) + [row], dtype=np.float64)
    _assert_row_sums_equal_fsum(table)


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
    (True, 0), (0, False),
])
def test_stream_rejects_non_integral_keys(seed, index):
    # int() would truncate 1.5 and silently draw seed 1's stream; True is 1
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


def test_rekeyed_streams_draw_as_fresh_streams():
    # 5 draws leave 3 of Philox's 4 buffered words, which a re-key drops
    streams = _streams(2 ** 64 - 1, 2 ** 64 - 3, 3)
    for index in range(2 ** 64 - 3, 2 ** 64):
        stream = next(streams)
        assert repr(stream) == repr(RandomStream(2 ** 64 - 1, index))
        assert np.array_equal(stream.uniform(5),
                              RandomStream(2 ** 64 - 1, index).uniform(5))
    assert next(streams, None) is None


def test_streams_check_the_last_index_before_the_first_stream():
    with pytest.raises(ValueError, match="stream_index"):
        _streams(0, 2 ** 64 - 2, 3)
