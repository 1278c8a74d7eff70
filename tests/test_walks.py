"""Walks and column reductions against their one-outcome originals.

The fringe walk of fwhm and the branch walk of monotone_branch are both
numerics._walk, a search that evaluates its steps in doubling chunks, both
sides of a walk in lockstep.  The oracles below are the one-phase-per-step loops they
replaced, copied verbatim; every case asserts that both return the same
crossings or edges as the same floats, or raise the same error.
binarized_cfi groups outcome_table columns; its oracle is the loop over
one outcome at a time that it replaced.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzhomodyne import interferometer, metrics, simulate
from mzhomodyne.interferometer import (
    BinningScheme,
    InterferometerConfig,
    outcome_distribution,
)
from mzhomodyne.metrics import (
    FIXED_RANDOM_EIGENVALUES,
    NoFringe,
    Observable,
    _fringe_half_crossings,
    binarized_cfi,
    fwhm,
    signal,
)
from mzhomodyne.numerics import Interval, NoSignChange, _drive, _golden, find_root
from mzhomodyne.simulate import NonMonotoneBranch, invert_signal, monotone_branch

FIG2_CFG = InterferometerConfig.from_nbar(200.0)
FIG2_SCHEME = BinningScheme(half_width=0.5, spacing=3.8, cutoff=2)
FIG4_CFG = InterferometerConfig.from_nbar(1000.0)
FIG4_SCHEME = BinningScheme(half_width=0.5, spacing=3.2, cutoff=5)
FIG4_OBS = Observable.alternating(FIG4_SCHEME)
BRIGHT_CFG = InterferometerConfig.from_nbar(1e8)
BRIGHT_SCHEME = BinningScheme(half_width=0.5, spacing=3.2, cutoff=3)
BRIGHT_OBS = Observable.alternating(BRIGHT_SCHEME)
UNIT_BINARY_OBS = Observable((1.0,), 0.0)
BRANCH_STEP = 1e-3


def _scalar_half_crossings(f, center, scan_step=0.002, max_span=math.pi):
    """Step-by-step fringe walk: one scalar f call per step."""
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
        for i in range(1, steps + 1):
            x = center + sign * i * scan_step
            v = h(x)
            if v > prev_v:
                lo = min(prev_x - sign * scan_step, x)
                hi = max(prev_x - sign * scan_step, x)
                dark, dark_val = _drive(lambda xs: [h(x) for x in xs],
                                        _golden((lo, hi), grid_points=64))
                break
            prev_x, prev_v = x, v
        if dark is None:
            raise NoFringe("no dark point within half a period of the center")
        level = 0.5 * (f0 + dark_val)
        try:
            crossing = find_root(lambda x: h(x) - level,
                                 (min(center, dark), max(center, dark)))
        except NoSignChange as exc:
            raise NoFringe("fringe shallower than half depth") from exc
        crossings.append(crossing)

    return min(crossings), max(crossings)


def _scalar_branch(cfg, scheme, obs, phi_true):
    """Step-by-step branch walk: one scalar signal call per step."""
    slope = lambda x: signal(cfg, scheme, obs, x).slope
    s0 = slope(phi_true)
    if s0 == 0.0:
        s0 = slope(phi_true + BRANCH_STEP)
    if s0 == 0.0:
        raise NonMonotoneBranch(f"signal is flat around phi={phi_true}")
    positive = s0 > 0.0

    def walk(direction):
        edge = phi_true
        for i in range(1, int(math.pi / BRANCH_STEP) + 1):
            x = phi_true + direction * i * BRANCH_STEP
            if (slope(x) > 0.0) != positive:
                break
            edge = x
        return edge

    lo, hi = walk(-1.0), walk(1.0)
    if lo == hi:
        raise NonMonotoneBranch(f"no monotone run around phi={phi_true}")
    return Interval(lo, hi)


def _result(fn, *args):
    """Return value, or the type of the search error raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@pytest.mark.parametrize("nbar", [5.0, 200.0, 1e6])
def test_fringe_crossings_match_step_by_step_walk(nbar):
    cfg = InterferometerConfig.from_nbar(nbar)
    scheme = BinningScheme.binary(0.5)
    f = lambda phi: signal(cfg, scheme, UNIT_BINARY_OBS, phi).mean
    got = _result(_fringe_half_crossings, f, 0.0)
    assert isinstance(got, tuple)
    assert got == _result(_scalar_half_crossings, f, 0.0)
    assert type(fwhm(cfg, scheme, UNIT_BINARY_OBS)) is float


@pytest.mark.parametrize("phi", [0.0, 0.02, 0.1, 0.18])
def test_fig4_branch_matches_step_by_step_walk(phi):
    got = monotone_branch(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, phi)
    assert got == _scalar_branch(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, phi)
    assert type(got.lo) is float and type(got.hi) is float


@pytest.mark.parametrize("phi, rejected", [(0.0003, False), (0.0006, True)])
def test_bright_branch_matches_step_by_step_walk(phi, rejected):
    got = monotone_branch(BRIGHT_CFG, BRIGHT_SCHEME, BRIGHT_OBS, phi)
    assert got == _scalar_branch(BRIGHT_CFG, BRIGHT_SCHEME, BRIGHT_OBS, phi)
    # the 1e-3 rad walk steps over slope sign changes at nbar=1e8; the
    # re-sampling check must keep rejecting the branch it returns at 0.0006
    measured = signal(BRIGHT_CFG, BRIGHT_SCHEME, BRIGHT_OBS, phi).mean
    if rejected:
        with pytest.raises(NonMonotoneBranch):
            invert_signal(BRIGHT_CFG, BRIGHT_SCHEME, BRIGHT_OBS, measured, got)
    else:
        invert_signal(BRIGHT_CFG, BRIGHT_SCHEME, BRIGHT_OBS, measured, got)


@pytest.mark.parametrize("system, phi, rounds", [
    ((FIG4_CFG, FIG4_SCHEME, FIG4_OBS), 0.1, 4),
    ((BRIGHT_CFG, BRIGHT_SCHEME, BRIGHT_OBS), 0.0003, 2),
], ids=["fig4", "bright"])
def test_branch_sides_walk_in_lockstep(monkeypatch, system, phi, rounds):
    # one core call (the whole table or either half) for the probe at phi,
    # then one per round of the longer side
    calls = []
    for name in ("outcome_table", "outcome_probs", "outcome_derivs"):
        def recording(cfg, scheme, phis, core=getattr(interferometer, name)):
            calls.append(len(phis))
            return core(cfg, scheme, phis)

        for module in (metrics, simulate):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording)
    got = monotone_branch(*system, phi)
    assert len(calls) == rounds
    monkeypatch.undo()
    assert got == _scalar_branch(*system, phi)


@st.composite
def _systems(draw):
    """A drawn system: nbar log-uniform in [1, 1e4], 0 < a, b > 2a, cutoff
    0-5, ones or alternating eigenvalues, and a phase."""
    cfg = InterferometerConfig.from_nbar(10.0 ** draw(st.floats(0.0, 4.0)))
    a = draw(st.floats(0.05, 2.0))
    scheme = BinningScheme(a, 2.0 * a * draw(st.floats(1.05, 4.0)),
                           draw(st.integers(0, 5)))
    obs = draw(st.sampled_from((Observable.ones, Observable.alternating)))(scheme)
    return cfg, scheme, obs, draw(st.floats(-math.pi, math.pi))


# each example walks up to pi one scalar signal call at a time, ~0.4 s
@settings(derandomize=True, max_examples=6, deadline=None, database=None)
@given(_systems())
def test_walks_match_step_by_step_walks_on_drawn_systems(system):
    cfg, scheme, obs, phi = system
    assert _result(monotone_branch, cfg, scheme, obs, phi) == \
        _result(_scalar_branch, cfg, scheme, obs, phi)
    f = lambda x: signal(cfg, scheme, obs, x).mean
    assert _result(_fringe_half_crossings, f, 0.0) == \
        _result(_scalar_half_crossings, f, 0.0)


def _cosine_fringe(period):
    """cos(pi*x/period), math.cos per point, for floats and arrays."""
    def f(x):
        if np.ndim(x) == 0:
            return math.cos(math.pi * x / period)
        return np.array([math.cos(math.pi * v / period) for v in x.tolist()])
    return f


def test_fringe_first_rise_on_chunk_boundary():
    # dark point at 16.3 steps: the first rise is step 17, the first step
    # of the second chunk, so the walk must carry step 16 across chunks
    f = _cosine_fringe(16.3 * 0.002)
    assert f(17 * 0.002) > f(16 * 0.002) and f(16 * 0.002) < f(15 * 0.002)
    assert _fringe_half_crossings(f, 0.0) == _scalar_half_crossings(f, 0.0)


def _two_sided(left, right):
    """left(x) for x < 0, else right(x): scalar functions, for floats and
    arrays."""
    def f(x):
        if np.ndim(x) == 0:
            return left(x) if x < 0 else right(x)
        return np.array([left(v) if v < 0 else right(v) for v in x.tolist()])
    return f


# sides that fail: one never turns up again within pi ("no dark point");
# one is a cosine fringe whose dark point, 16.5 steps out, is NaN, so the
# half level is NaN and the crossing has no sign change ("shallower")
_FALLING = lambda x: 1.0 - x * x
_FRINGE = lambda x: math.cos(math.pi * x / 0.033)
_NAN_DARK = lambda x: math.nan if abs(abs(x) - 0.033) < 2e-4 else _FRINGE(x)


@pytest.mark.parametrize("left, right", [
    (_FALLING, _FRINGE), (_FRINGE, _FALLING), (_NAN_DARK, _FRINGE),
    (_FRINGE, _NAN_DARK), (_FALLING, _NAN_DARK), (_NAN_DARK, _FALLING),
], ids=["left-flat", "right-flat", "left-nan", "right-nan", "flat-nan", "nan-flat"])
def test_fringe_failing_sides_raise_like_step_by_step_walk(left, right):
    # both sides now run in lockstep, but a failure still reads as the
    # sequential walk's: the left side's error when both fail
    f = _two_sided(left, right)
    with pytest.raises(NoFringe) as want:
        _scalar_half_crossings(f, 0.0)
    with pytest.raises(NoFringe) as got:
        _fringe_half_crossings(f, 0.0)
    assert str(got.value) == str(want.value)


def test_branch_first_flip_on_chunk_boundary():
    # put the slope zero beyond the fig4 branch half a step after step 16,
    # so the first flip is step 17, the first step of the second chunk
    edge = _scalar_branch(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, 0.1).hi
    zero = find_root(lambda x: signal(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, x).slope,
                     (edge, edge + BRANCH_STEP))
    phi = zero - 16.5 * BRANCH_STEP
    expected = _scalar_branch(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, phi)
    assert expected.hi == phi + 16 * BRANCH_STEP
    assert monotone_branch(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, phi) == expected


def _outcome_loop_binarized_cfi(cfg, scheme, obs, phi):
    """binarized_cfi as one lookup per outcome: bin k, or None for the
    leftover, with its eigenvalue, probability and derivative."""
    dist = outcome_distribution(cfg, scheme, phi)
    outcomes = list(range(-scheme.cutoff, scheme.cutoff + 1)) + [None]

    def value(o):
        return obs.leftover_value if o is None else obs.bin_values[o + obs.cutoff]

    def prob(o):
        return dist.leftover_prob if o is None else float(dist.bin_probs[o + dist.cutoff])

    def deriv(o):
        return dist.leftover_deriv if o is None else float(dist.bin_derivs[o + dist.cutoff])

    groups = {}
    for o in outcomes:
        groups.setdefault(value(o), []).append(o)
    total = 0.0
    for members in groups.values():
        q = math.fsum(prob(o) for o in members)
        dq = math.fsum(deriv(o) for o in members)
        if q >= 1e-15:
            total += dq * dq / q
    return total


@pytest.mark.parametrize("obs", [
    Observable(FIXED_RANDOM_EIGENVALUES, 0.0),
    Observable.alternating(FIG2_SCHEME),
    Observable.ones(FIG2_SCHEME),
], ids=["fixed", "alternating", "ones"])
def test_binarized_cfi_matches_outcome_loop(obs):
    for phi in (-2.9, -0.7, 0.0, 0.13, 0.3, 1.1, math.pi / 2, 2.4):
        assert binarized_cfi(FIG2_CFG, FIG2_SCHEME, obs, phi) == \
            _outcome_loop_binarized_cfi(FIG2_CFG, FIG2_SCHEME, obs, phi)
