"""Sweep cells run in lockstep against the sequential code they replaced.

A sweep cell runs the fringe search of fwhm, the scan and golden-section
search of best_sensitivity and the two phases of visibility together, one
outcome_table call per round.  The oracle below is the sequential code that
cell replaced, copied verbatim: the chunked walk, _fringe_half_crossings,
minimize_scalar and visibility, each making its own outcome_table calls.  A
cell must give the same floats, raise the same error, and evaluate the same
phases.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzhomodyne import metrics
from mzhomodyne.interferometer import BinningScheme, InterferometerConfig
from mzhomodyne.metrics import (
    DegenerateSignal,
    NoFringe,
    Observable,
    best_sensitivity,
    error_propagation_sensitivity,
    fwhm,
    signal,
    sweep,
    visibility,
)
from mzhomodyne.numerics import Interval, NoSignChange, find_root

UNIT_BINARY_OBS = Observable((1.0,), 0.0)


def _chunked_walk(f, start, direction, step, n_steps):
    lo, size = 1, 16
    while lo <= n_steps:
        hi = min(lo + size, n_steps + 1)
        xs = [start + direction * i * step for i in range(lo, hi)]
        yield from zip(xs, f(np.array(xs)).tolist())
        lo, size = hi, 2 * size


def _minimize_scalar(f, bracket, tol=1e-10, grid_points=512, f_batch=None):
    if isinstance(bracket, Interval):
        lo, hi = bracket.lo, bracket.hi
    else:
        lo, hi = bracket
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    n = max(int(grid_points), 3)
    xs = np.linspace(lo, hi, n)
    fs = np.asarray(f_batch(xs)) if f_batch else np.array([f(x) for x in xs])
    i = int(np.argmin(fs))
    best_x, best_f = float(xs[i]), float(fs[i])

    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, n - 1)])
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    for x, fx in ((c, fc), (d, fd)):
        if fx < best_f:
            best_x, best_f = float(x), float(fx)
    return best_x, best_f


def _fringe_half_crossings(f, center, scan_step=0.002, max_span=math.pi):
    f0 = f(center)
    left_probe = f(center - scan_step)
    right_probe = f(center + scan_step)
    if left_probe < f0 and right_probe < f0:
        h = f
    elif left_probe > f0 and right_probe > f0:
        h = lambda x: -f(x)
        f0 = -f0
    else:
        raise NoFringe(f"signal is not extremal at center {center}")

    crossings = []
    for sign in (-1.0, 1.0):
        prev_x, prev_v = center, f0
        dark = None
        steps = int(max_span / scan_step)
        for x, v in _chunked_walk(h, center, sign, scan_step, steps):
            if v > prev_v:
                # passed a local minimum; refine it within the last window
                lo = min(prev_x - sign * scan_step, x)
                hi = max(prev_x - sign * scan_step, x)
                dark, dark_val = _minimize_scalar(h, (lo, hi), grid_points=64,
                                                  f_batch=h)
                break
            prev_x, prev_v = x, v
        if dark is None:
            raise NoFringe("no dark point within half a period of the center")
        if f0 - dark_val <= 1e-10 * max(abs(f0), abs(dark_val)):
            raise NoFringe("fringe depth within rounding noise")
        level = 0.5 * (f0 + dark_val)
        try:
            crossing = find_root(lambda x: h(x) - level,
                                 (min(center, dark), max(center, dark)))
        except NoSignChange as exc:
            raise NoFringe("fringe shallower than half depth") from exc
        crossings.append(crossing)

    return min(crossings), max(crossings)


def _fwhm(cfg, scheme, obs):
    lo, hi = _fringe_half_crossings(
        lambda phi: signal(cfg, scheme, obs, phi).mean, 0.0
    )
    if lo <= -math.pi / 2 or hi >= math.pi / 2:
        raise NoFringe("half-maximum crossings escape (-pi/2, pi/2)")
    if hi - lo <= 0.0:
        raise NoFringe(f"zero-width fringe: both crossings at {lo}")
    return hi - lo


def _best_sensitivity(cfg, scheme, obs):
    objective = lambda phi: error_propagation_sensitivity(cfg, scheme, obs, phi)
    return _minimize_scalar(objective, (1e-4, math.pi / 2 - 1e-4),
                            f_batch=objective)


def _visibility(cfg, scheme, obs):
    s_bright, s_dark = signal(cfg, scheme, obs, [0.0, math.pi / 2]).mean.tolist()
    denom = s_bright + s_dark
    if abs(denom) < 1e-14:
        raise DegenerateSignal(f"signal means cancel: {s_bright} + {s_dark}")
    return (s_bright - s_dark) / denom


def _sequential_cell(nbar, a):
    """(resolution, sensitivity, visibility) of one cell, one call at a time."""
    res = sens = vis = math.nan
    cfg = InterferometerConfig.from_nbar(nbar)
    scheme = BinningScheme.binary(a)
    obs = UNIT_BINARY_OBS
    try:
        res = (2.0 * math.pi / 3.0) / _fwhm(cfg, scheme, obs)
    except NoFringe:
        pass
    _, dphi_min = _best_sensitivity(cfg, scheme, obs)
    if math.isfinite(dphi_min) and dphi_min > 0.0:
        sens = (1.0 / math.sqrt(nbar)) / dphi_min
    try:
        vis = _visibility(cfg, scheme, obs)
    except DegenerateSignal:
        pass
    return res, sens, vis


def _sweep_cell(nbar, a):
    grid = sweep([nbar], [a])
    return (grid.resolution_ratio[0, 0], grid.sensitivity_ratio[0, 0],
            grid.visibility[0, 0])


def _outcome(cell, nbar, a):
    """A cell's three values, or the type and message of the error it raised."""
    try:
        return cell(nbar, a)
    except Exception as exc:
        return type(exc), str(exc)


def _same(x, y):
    if isinstance(x, float) and isinstance(y, float):
        return x == y or (math.isnan(x) and math.isnan(y))
    return x == y


# The drawn box holds no NaN cell (checked on a 17 x 8 grid over it), so the
# examples add the cells where fwhm, the sensitivity or the sweep fail.
@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(st.floats(-2.0, 6.0).map(lambda e: 10.0 ** e), st.floats(0.05, 1.5))
@example(1e-12, 0.05)   # not extremal at 0: NoFringe, finite sensitivity
@example(1e-10, 3.0)    # NoFringe and no finite sensitivity
@example(1e-30, 0.5)    # flat to double precision
@example(1e-28, 0.05)   # two ulps deep: NoFringe, a NaN resolution
@example(1e-14, 0.5)    # a rounding-noise dark point: NoFringe
def test_sweep_cell_equals_sequential_oracle(nbar, a):
    got = _outcome(_sweep_cell, nbar, a)
    want = _outcome(_sequential_cell, nbar, a)
    assert len(got) == len(want)
    assert all(_same(g, w) for g, w in zip(got, want)), (got, want)


def test_sweep_cell_evaluates_the_sequential_phases_in_few_calls(monkeypatch):
    calls = []
    table = metrics.outcome_table

    def recording(cfg, scheme, phis):
        calls.append(np.asarray(phis, dtype=np.float64).tolist())
        return table(cfg, scheme, phis)

    monkeypatch.setattr(metrics, "outcome_table", recording)
    sweep([5.0], [0.1])
    lockstep = list(calls)
    calls.clear()
    _sequential_cell(5.0, 0.1)
    flat = lambda rounds: sorted(itertools.chain.from_iterable(rounds))
    assert flat(lockstep) == flat(calls)
    assert len(lockstep) <= 60 < len(calls)


def test_cell_without_fringe_keeps_sensitivity_and_visibility():
    # at nbar=1e-12 the binary signal is flat within rounding at phi=0, so
    # fwhm's probes find no extremum; the sensitivity search still works
    nbar, a = 1e-12, 0.05
    cfg = InterferometerConfig.from_nbar(nbar)
    scheme = BinningScheme.binary(a)
    with pytest.raises(NoFringe, match="not extremal"):
        fwhm(cfg, scheme, UNIT_BINARY_OBS)
    _, dphi = best_sensitivity(cfg, scheme, UNIT_BINARY_OBS)
    res, sens, vis = _sweep_cell(nbar, a)
    assert math.isnan(res)
    assert math.isfinite(sens) and sens == (1.0 / math.sqrt(nbar)) / dphi
    assert math.isfinite(vis) and vis == visibility(cfg, scheme, UNIT_BINARY_OBS)


def test_zero_width_fringe_is_no_fringe_and_a_nan_cell():
    # at nbar=1e-28 the fringe is two ulps deep, which the depth rule
    # rejects before its half-level crossings (both on the center) are
    # sought; the zero-width guard stays behind it
    nbar, a = 1e-28, 0.05
    cfg = InterferometerConfig.from_nbar(nbar)
    scheme = BinningScheme.binary(a)
    with pytest.raises(NoFringe, match="rounding noise"):
        fwhm(cfg, scheme, UNIT_BINARY_OBS)
    with pytest.raises(NoFringe, match="zero-width"):
        metrics._fringe_width(0.0, 0.0)
    res, sens, vis = _sweep_cell(nbar, a)
    assert math.isnan(res)
    assert _same(sens, _sequential_cell(nbar, a)[1])
    assert vis == visibility(cfg, scheme, UNIT_BINARY_OBS)
