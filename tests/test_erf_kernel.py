"""erf_diff against the per-function case analysis it replaced.

erf_diff runs every call on whole arrays, one split that evaluates each
rational form at most once per call, and never on an empty set.  The oracles
below are the helper and the erf_diff it replaced, copied verbatim; they call
the same rational forms, so every case asserts bit equality (int64 views,
which tell +0.0 from -0.0) and the same return type.  A property holds the
float kernel of the small search rounds, _erf_diff_floats, to erf_diff bit
for bit on every pair that holds no NaN.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mzhomodyne import metrics, numerics
from mzhomodyne.interferometer import BinningScheme, InterferometerConfig
from mzhomodyne.metrics import _FIRST_CHUNK, sweep
from mzhomodyne.numerics import (
    _ERFC_ZERO,
    _THRESH,
    _erf_diff_floats,
    _erf_rational_small,
    _erfc_positive,
    erf_diff,
)


def _erf_array(x):
    y = np.abs(x)
    out = np.empty_like(x)
    small = y <= _THRESH
    out[small] = _erf_rational_small(x[small])
    big = ~small
    out[big] = np.sign(x[big]) * (1.0 - _erfc_positive(y[big]))
    return out


def old_erf_diff(x, y):
    bx, by = np.broadcast_arrays(np.asarray(x, dtype=np.float64),
                                 np.asarray(y, dtype=np.float64))
    scalar = bx.ndim == 0
    bx = np.atleast_1d(bx)
    by = np.atleast_1d(by)
    out = np.empty_like(bx)

    hi = (bx >= _THRESH) & (by >= _THRESH)
    lo = (bx <= -_THRESH) & (by <= -_THRESH)
    mid = ~(hi | lo)
    out[hi] = _erfc_positive(bx[hi]) - _erfc_positive(by[hi])
    out[lo] = _erfc_positive(-by[lo]) - _erfc_positive(-bx[lo])
    out[mid] = _erf_array(by[mid]) - _erf_array(bx[mid])
    out[bx == by] = 0.0
    return float(out[0]) if scalar else out


def _edges():
    """+-_THRESH, +-4, +-26.543, +-0.0, +-1 and their float neighbours."""
    points = []
    for v in (_THRESH, 4.0, 26.543, 0.0, 1.0):
        for s in (1.0, -1.0):
            points += [s * v, np.nextafter(s * v, np.inf),
                       np.nextafter(s * v, -np.inf)]
    return np.array(points)


EDGES = _edges()
RANDOM = np.concatenate([np.random.default_rng(17).normal(0.0, scale, 2000)
                         for scale in (0.3, 1.0, 3.0, 10.0)])


def assert_same(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_erf_diff_matches_case_analysis():
    for x in EDGES.tolist():
        for y in EDGES.tolist():
            assert_same(erf_diff(x, y), old_erf_diff(x, y))
    assert type(erf_diff(0.1, 2.0)) is float
    cases = [
        (EDGES[:, None], EDGES[None, :]),          # every edge pair, 2-D
        (RANDOM[:4000], RANDOM[4000:]),             # mixed signs and tails
        (RANDOM, RANDOM + 0.01 * np.abs(RANDOM)),   # narrow bins
        (RANDOM.reshape(80, 100), 2.0),             # broadcast scalar
        (-3.0, RANDOM),
        (np.array(0.3), np.array(-0.7)),            # 0-d arrays
    ]
    for x, y in cases:
        assert_same(erf_diff(x, y), old_erf_diff(x, y))


def _spy_on_array_forms(monkeypatch, record):
    """Route each call of an array form (the small one, or the tail one on
    the elements beyond _THRESH) through record(name, v); _erf_diff_floats
    calls the small form on floats, which record does not see."""
    def spied(name, form):
        def wrapper(v):
            if isinstance(v, np.ndarray):
                record(name, v)
            return form(v)
        return wrapper

    monkeypatch.setattr(numerics, "_erf_rational_small",
                        spied("small", _erf_rational_small))
    monkeypatch.setattr(numerics, "_erfc_positive", spied("tail", _erfc_positive))


def test_each_call_evaluates_each_rational_form_at_most_once_never_empty(
        monkeypatch):
    sizes = {"small": [], "tail": []}
    _spy_on_array_forms(monkeypatch, lambda name, v: sizes[name].append(v.size))
    both = {"small", "tail"}
    for call, forms in ((lambda: erf_diff(0.0, 0.3), {"small"}),
                        (lambda: erf_diff(0.0, RANDOM), both),
                        (lambda: erf_diff(0.1, 2.0), both),
                        (lambda: erf_diff(5.0 * np.ones(3), 5.5), {"tail"}),
                        (lambda: erf_diff(-np.inf, np.nan), {"tail"}),
                        (lambda: erf_diff(np.empty(0), np.empty(0)), set()),
                        (lambda: erf_diff(EDGES[:, None], EDGES[None, :]), both)):
        sizes.update(small=[], tail=[])
        call()
        assert {name for name, n in sizes.items() if n} == forms
        assert all(len(n) <= 1 and all(n) for n in sizes.values()), sizes


def test_a_binary_sweep_cell_takes_only_its_grid_scan_and_walk_chunks_to_the_array_forms(
        monkeypatch):
    # A cell calls fwhm, best_sensitivity and visibility in turn.  Their
    # rounds are one to a few phases, except the fringe lattice chunks of
    # _FIRST_CHUNK points and more per side and the sensitivity scan (0 and
    # the shift lattice); each round is one metrics._signal_rows call, and a
    # binary scheme has one bin, so a round of n phases holds n element pairs.
    rounds, reached = [], set()
    _spy_on_array_forms(monkeypatch, lambda name, v: reached.add(len(rounds) - 1))

    def counted(cfg, scheme, obs, phis, *rest):
        rounds.append(len(phis))
        return signal_rows(cfg, scheme, obs, phis, *rest)

    signal_rows = metrics._signal_rows
    monkeypatch.setattr(metrics, "_signal_rows", counted)
    sweep([200.0], [0.5])
    assert reached == {i for i, n in enumerate(rounds) if n >= _FIRST_CHUNK}
    # the lattice steps 0.05 in c out to alpha0/2 = 7.07, then pi/2: 142
    # phases; the fringe's sides read chunks of 16, 32 and 64 phases each
    # before they reach their dark points, then the scan reads 0 and the lattice
    lattice = sum(map(len, metrics._shift_lattice(InterferometerConfig.from_nbar(200.0),
                                                  BinningScheme.binary(0.5))))
    assert lattice == 142
    assert min(rounds) <= 3
    assert [rounds[i] for i in sorted(reached)] == [2 * 16, 2 * 32, 2 * 64, 1 + lattice]


# Values at the kernel's case boundaries, subnormals and the non-finite
# ones, mixed with values across the forms' ranges and beyond erfc's underflow.
SPECIAL = EDGES.tolist() + [5e-324, -5e-324, 1e-310, -1e-310,
                            np.inf, -np.inf, np.nan]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(-30.0, 30.0))
_COUNT = st.integers(0, 32)


@st.composite
def _arguments(draw):
    """(x, y): drawn arrays of 0 to 32 pairs, 0-d arrays or floats, 2-D
    shapes that broadcast to an outer product, or an array and a scalar."""
    x_shape, y_shape = draw(st.one_of(
        _COUNT.map(lambda n: ((n,), (n,))),
        st.just(((), ())),
        st.tuples(st.integers(0, 6), st.integers(0, 6)).map(
            lambda rc: ((rc[0], 1), (1, rc[1]))),
        _COUNT.map(lambda n: ((n,), ())),
        _COUNT.map(lambda n: ((), (n,)))))
    x, y = (draw(hnp.arrays(np.float64, shape, elements=VALUES))
            for shape in (x_shape, y_shape))
    return tuple(float(v) if v.ndim == 0 and draw(st.booleans()) else v
                 for v in (x, y))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_arguments())
def test_the_float_kernel_equals_erf_diff(arguments):
    x, y = arguments
    want = np.ravel(erf_diff(x, y))
    bx, by = (v.ravel() for v in np.broadcast_arrays(np.asarray(x), np.asarray(y)))
    nan = np.isnan(bx) | np.isnan(by)
    assert_same(np.array(_erf_diff_floats(bx[~nan].tolist(), by[~nan].tolist()),
                         dtype=np.float64), want[~nan])
    assert np.isnan(want[nan]).all()


def unmasked_erfc_positive(y):
    """_erfc_positive as it was before the elements beyond _ERFC_ZERO left
    the tail form: it evaluated them, then overwrote them with 0."""
    out = np.empty_like(y)
    mid = y <= 4.0
    ym = y[mid]
    xnum = numerics._C[8] * ym
    xden = ym
    for c, d in zip(numerics._C[:7], numerics._D[:7]):
        xnum = (xnum + c) * ym
        xden = (xden + d) * ym
    r = (xnum + numerics._C[7]) / (xden + numerics._D[7])
    t = np.trunc(ym * 16.0) / 16.0
    out[mid] = np.exp(-t * t) * np.exp(-(ym - t) * (ym + t)) * r

    far = ~mid
    yf = y[far]
    ysq = 1.0 / (yf * yf)
    xnum = numerics._P[5] * ysq
    xden = ysq
    for p, q in zip(numerics._P[:4], numerics._Q[:4]):
        xnum = (xnum + p) * ysq
        xden = (xden + q) * ysq
    r = ysq * (xnum + numerics._P[4]) / (xden + numerics._Q[4])
    r = (numerics._SQRPI - r) / yf
    t = np.trunc(yf * 16.0) / 16.0
    out[far] = np.exp(-t * t) * np.exp(-(yf - t) * (yf + t)) * r

    out[y > _ERFC_ZERO] = 0.0
    return out


def test_tail_form_is_unchanged_where_it_was_finite():
    # finite arguments whose squares do not overflow, NaN, and the edges
    y = np.concatenate([EDGES[EDGES >= _THRESH], np.abs(RANDOM) + _THRESH,
                        np.geomspace(_THRESH, 1e150, 400), [np.nan]])
    assert_same(_erfc_positive(y), unmasked_erfc_positive(y))


def test_infinite_arguments_give_the_limits_without_warnings():
    # pytest turns warnings into errors, so inf - inf inside the tail form
    # would fail here
    inf = float("inf")
    assert erf_diff(0.0, inf) == 1.0 and erf_diff(0.0, -inf) == -1.0
    assert erf_diff(-inf, inf) == 2.0 and erf_diff(inf, -inf) == -2.0
    assert erf_diff(0.0, 1e300) == 1.0 and erf_diff(1e300, inf) == 0.0
    nan = float("nan")
    assert np.isnan(erf_diff(0.0, nan)) and np.isnan(erf_diff(nan, inf))
