"""Walks and column reductions against their one-outcome originals.

The fringe walk of fwhm and the branch walk of monotone_branch are both
numerics._walk, a search that evaluates its steps in doubling chunks, both
sides of a walk in lockstep.  The oracles below are the one-phase-per-step loops they
replaced, copied verbatim; every case asserts that both return the same
crossings or edges as the same floats, or raise the same error.
binarized_cfi groups outcome_table columns; its oracle is the loop over
one outcome at a time that it replaced.  The last two properties sample the
signal 20 times finer than each walk's fixed step or than the fringe's
feature scale, and hold both walks to what that finer sampling shows.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from mzhomodyne import interferometer, metrics, simulate
from mzhomodyne.interferometer import (
    BinningScheme,
    InterferometerConfig,
    outcome_derivs,
    outcome_distribution,
    outcome_probs,
)
from mzhomodyne.metrics import (
    FIXED_RANDOM_EIGENVALUES,
    NoFringe,
    Observable,
    _fringe_search,
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


def _fringe_half_crossings(f, center):
    """The fringe search driven on f, an array function of the phases."""
    return _drive(lambda xs: f(np.array(xs)).tolist(), _fringe_search(center))


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
    terms = []
    for members in groups.values():
        q = math.fsum(prob(o) for o in members)
        dq = math.fsum(deriv(o) for o in members)
        if q >= 1e-15:
            terms.append(dq * dq / q)
    return math.fsum(terms)


@pytest.mark.parametrize("obs", [
    Observable(FIXED_RANDOM_EIGENVALUES, 0.0),
    Observable.alternating(FIG2_SCHEME),
    Observable.ones(FIG2_SCHEME),
], ids=["fixed", "alternating", "ones"])
def test_binarized_cfi_matches_outcome_loop(obs):
    for phi in (-2.9, -0.7, 0.0, 0.13, 0.3, 1.1, math.pi / 2, 2.4):
        assert binarized_cfi(FIG2_CFG, FIG2_SCHEME, obs, phi) == \
            _outcome_loop_binarized_cfi(FIG2_CFG, FIG2_SCHEME, obs, phi)


# ---------------------------------------------------------------------------
# The walks at the scale of the fringe.  Both take a fixed step in phase
# (monotone_branch 1e-3 rad, the fringe walk 0.002 rad), while the signal's
# features are about min(2a, b - 2a, 1)/alpha0 wide: 1.6e-4 rad at nbar=1e8.


def _feature_step(cfg, scheme):
    """A twentieth of the feature scale min(2a, b - 2a, 1)/alpha0."""
    a, b = scheme.half_width, scheme.spacing
    return min(2.0 * a, b - 2.0 * a, 1.0) / cfg.alpha0 / 20.0


def _reduce(obs, table):
    """sum_k mu_k T[i, k] of each table row, exactly rounded."""
    return [math.fsum(row) for row in (obs.all_values() * table).tolist()]


def _fine_side(mean, h, side, f0):
    """The half-depth crossing on one side of 0, or None where there is no
    fringe.  The grid i*h walks from 0 outward in doubling chunks to the
    first point that does not fall below the one before it, so an exact
    plateau (an underflowed tail) ends the walk at its value.  scipy
    refines the dark value inside the two grid cells around it, and the
    crossing inside the cell that brackets the half level: where the half
    level falls on a nearly flat stretch, a grid-rounded dark value would
    move the crossing by many cells."""
    values, n_steps, lo, size = [f0], int(math.pi / h), 1, 64
    while lo <= n_steps:
        hi = min(lo + size, n_steps + 1)
        values += mean([side * i * h for i in range(lo, hi)])
        rise = next((i for i in range(lo, hi) if values[i] >= values[i - 1]), None)
        if rise is not None:
            break
        lo, size = hi, 2 * size
    else:
        return None
    f = lambda x: mean([side * x])[0]
    refined = optimize.minimize_scalar(f, bounds=((rise - 2) * h, rise * h),
                                       method="bounded", options={"xatol": 1e-15})
    dark = min(refined.fun, values[rise - 1])
    if f0 - dark <= 1e-10 * max(abs(f0), abs(dark)):
        return None
    half = 0.5 * (f0 + dark)
    j = next(i for i, v in enumerate(values) if v <= half)
    return side * optimize.brentq(lambda x: f(x) - half, (j - 1) * h, j * h, xtol=1e-15)


def _fine_grid_fwhm(cfg, scheme, obs, h):
    """The central fringe's half-depth width on the grid i*h, or None where
    that grid shows no fringe inside (-pi/2, pi/2)."""
    f0, left, right = _reduce(obs, outcome_probs(cfg, scheme, [0.0, -h, h]))
    if left < f0 and right < f0:
        orient = 1.0
    elif left > f0 and right > f0:
        orient = -1.0
    else:
        return None
    mean = lambda xs: [orient * v for v in _reduce(obs, outcome_probs(cfg, scheme, xs))]
    lo, hi = (_fine_side(mean, h, side, orient * f0) for side in (-1.0, 1.0))
    if lo is None or hi is None or lo <= -math.pi / 2 or hi >= math.pi / 2:
        return None
    return hi - lo


@st.composite
def _bright_systems(draw):
    """(cfg, scheme, obs): nbar log-uniform in [1, 1e8], 0 < a, b > 2a,
    cutoff 0-8, ones or alternating eigenvalues."""
    cfg = InterferometerConfig.from_nbar(10.0 ** draw(st.floats(0.0, 8.0)))
    a = draw(st.floats(0.05, 2.0))
    scheme = BinningScheme(a, 2.0 * a * draw(st.floats(1.05, 4.0)),
                           draw(st.integers(0, 8)))
    obs = draw(st.sampled_from((Observable.ones, Observable.alternating)))(scheme)
    return cfg, scheme, obs


@pytest.mark.xfail(strict=True, reason=(
    "monotone_branch walks in fixed steps of _BRANCH_STEP = 1e-3 rad and "
    "steps over slope sign changes of features narrower than that"))
@example(system=(BRIGHT_CFG, BRIGHT_SCHEME, BRIGHT_OBS), phi=0.0005)
@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(_bright_systems(), st.floats(-math.pi, math.pi))
def test_branch_keeps_one_slope_sign_at_a_twentieth_of_its_step(system, phi):
    cfg, scheme, obs = system
    try:
        branch = monotone_branch(cfg, scheme, obs, phi)
    except NonMonotoneBranch:
        return
    n = max(1, round(branch.width / (BRANCH_STEP / 20.0)))
    slopes = _reduce(obs, outcome_derivs(cfg, scheme,
                                         np.linspace(branch.lo, branch.hi, n + 1)))
    assert not (max(slopes) > 0.0 and min(slopes) < 0.0)


@pytest.mark.xfail(strict=True, reason=(
    "the fringe walk steps _SCAN_STEP = 0.002 rad and passes over dark "
    "points of fringes narrower than that"))
@example(system=(BRIGHT_CFG, BRIGHT_SCHEME, Observable.ones(BRIGHT_SCHEME)))
@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(_bright_systems())
def test_fwhm_matches_a_grid_finer_than_the_fringe(system):
    cfg, scheme, obs = system
    h = _feature_step(cfg, scheme)
    want = _fine_grid_fwhm(cfg, scheme, obs, h)
    got = _result(fwhm, cfg, scheme, obs)
    if want is None:
        assert got is NoFringe
    else:
        assert got is not NoFringe and abs(got - want) <= h
