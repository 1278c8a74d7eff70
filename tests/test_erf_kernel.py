"""erf, erfc and erf_diff against the per-function case analysis they replaced.

The three public functions are built from one split that evaluates each
rational form once per call.  The oracles below are the helpers and the
erf_diff they replaced, copied verbatim; they call the same two rational
forms, so every case asserts bit equality (int64 views, which tell +0.0
from -0.0) and the same return type.
"""

import numpy as np
import pytest

from mzhomodyne import numerics
from mzhomodyne.numerics import (
    _THRESH,
    _erf_rational_small,
    _erfc_positive,
    erf,
    erf_diff,
    erfc,
)


def _erf_array(x):
    y = np.abs(x)
    out = np.empty_like(x)
    small = y <= _THRESH
    out[small] = _erf_rational_small(x[small])
    big = ~small
    out[big] = np.sign(x[big]) * (1.0 - _erfc_positive(y[big]))
    return out


def _erfc_array(x):
    y = np.abs(x)
    out = np.empty_like(x)
    small = y <= _THRESH
    out[small] = 1.0 - _erf_rational_small(x[small])
    pos = x > _THRESH
    out[pos] = _erfc_positive(x[pos])
    neg = x < -_THRESH
    out[neg] = 2.0 - _erfc_positive(y[neg])
    return out


def old_erf(x):
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        return float(_erf_array(arr.reshape(1))[0])
    return _erf_array(arr)


def old_erfc(x):
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        return float(_erfc_array(arr.reshape(1))[0])
    return _erfc_array(arr)


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


@pytest.mark.parametrize("new, old", [(erf, old_erf), (erfc, old_erfc)],
                         ids=["erf", "erfc"])
def test_one_argument_functions_match_case_analysis(new, old):
    for x in EDGES.tolist():
        assert_same(new(x), old(x))
        assert type(new(x)) is float
    for arr in (EDGES, RANDOM, RANDOM.reshape(80, 100), np.array(0.3)):
        assert_same(new(arr), old(arr))


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
    for call in (lambda: erf(0.3), lambda: erf(RANDOM), lambda: erfc(-2.0),
                 lambda: erfc(RANDOM), lambda: erf_diff(0.1, 2.0),
                 lambda: erf_diff(5.0, 5.5),
                 lambda: erf_diff(EDGES[:, None], EDGES[None, :])):
        calls.update(small=0, tail=0)
        call()
        assert calls == {"small": 1, "tail": 1}
