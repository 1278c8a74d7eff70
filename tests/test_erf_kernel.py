"""erf_diff against the per-function case analysis it replaced.

erf_diff is built from one split that evaluates each rational form once
per call.  The oracles below are the helper and the erf_diff it replaced,
copied verbatim; they call the same two rational forms, so every case
asserts bit equality (int64 views, which tell +0.0 from -0.0) and the same
return type.
"""

import numpy as np
import pytest

from mzhomodyne import numerics
from mzhomodyne.numerics import (
    _ERFC_ZERO,
    _THRESH,
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


def test_each_call_evaluates_each_rational_form_once(monkeypatch):
    calls = {"small": 0, "tail": 0}

    def counted(name, form):
        def wrapper(v):
            calls[name] += 1
            return form(v)
        return wrapper

    monkeypatch.setattr(numerics, "_erf_rational_small",
                        counted("small", _erf_rational_small))
    monkeypatch.setattr(numerics, "_erfc_positive",
                        counted("tail", _erfc_positive))
    for call in (lambda: erf_diff(0.0, 0.3), lambda: erf_diff(0.0, RANDOM),
                 lambda: erf_diff(0.1, 2.0), lambda: erf_diff(5.0, 5.5),
                 lambda: erf_diff(EDGES[:, None], EDGES[None, :])):
        calls.update(small=0, tail=0)
        call()
        assert calls == {"small": 1, "tail": 1}


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
