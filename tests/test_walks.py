"""Searches and column reductions against finer or one-outcome originals.

The branch search of monotone_branch and the fringe search of fwhm read
slope signs on one lattice in the quadrature shift, in doubling chunks,
with their two sides or ends in lockstep, and end every run of one slope
sign by one rule.  Their oracles walk the same lattice one scalar signal
call per phase, by one scalar run-end walk; every case asserts that both
return the same edges as the same floats, or raise the same error.
binarized_cfi groups outcome_table columns; its oracle is the loop over
one outcome at a time that it replaced.  The last properties sample the
signal 20 times finer than a 1 mrad step or than the fringe's feature
scale, and hold both searches to what the finer sampling shows; one more
holds every phase of a branch to the same branch, and one the fringe's
dark points to the ends of the branches around its first lattice phases,
bit for bit.  The last two hold inversions and branch ends to rounding at
nbar up to 1e12, where a fixed stop in radians would not be.
"""

import bisect
import itertools
import math
from unittest import mock

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
    binarized_cfi,
    fwhm,
    signal,
)
from mzhomodyne.numerics import _EPS, Interval, NoSignChange, _drive, _lockstep, find_root
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
# 1 mrad, the fixed step of the walk the branch lattice replaced, coarser
# than a feature at nbar=1e8 (6.4e-4 rad between slope zeros)
BRANCH_STEP = 1e-3


def _scalar_sign(slope):
    """The sign of a slope function at a phase, 0.0 below 1e-14."""
    return lambda t: 0.0 if abs(slope(t)) < 1e-14 else math.copysign(1.0, slope(t))


def _scalar_end(path, slope, i, step, run):
    """One scalar slope call per phase from path[i], stepping by step, to the
    first phase of another sign than run: the end if its slope is zero, else
    find_root finds the root between it and the phase before it, and the end
    is the phase find_root read nearest the root whose slope is zero or of
    the run's sign.  A run that leaves the path ends at its last phase."""
    sign = _scalar_sign(slope)
    while 0 <= i < len(path) and sign(path[i]) == run:
        i += step
    if not 0 <= i < len(path):
        return path[i - step]
    if sign(path[i]) == 0.0:
        return path[i]
    read = {}

    def f(t):
        read[t] = slope(t)
        return read[t]

    root = find_root(f, tuple(sorted((path[i - step], path[i]))))
    return min((t for t, v in read.items() if v * run >= 0.0), key=lambda t: abs(t - root))


def _scalar_run(cfg, scheme, slope, x):
    """Step-by-step lattice walk for the ends of the run of one slope sign
    around x in [-pi/2, pi/2].  On the path -pi/2, ..., -q_1, 0, q_1, ...,
    pi/2 of lattice phases, x's cell ends at the first phase as far out as
    x on x's side (0 and -0.0 count as the right).  The run's sign is the
    slope's at x, else at that phase, else at the one before it; a slope
    below 1e-14 counts as zero.  _scalar_end walks from the cell each way.
    Returns (lo, hi)."""
    path = _path(cfg, scheme)
    sign = _scalar_sign(slope)
    out = 1 if x >= 0.0 else -1
    outer = len(path) // 2 + out
    while abs(path[outer]) < abs(x):
        outer += out
    run = sign(x) or sign(path[outer]) or sign(path[outer - out])
    if not run:
        raise NonMonotoneBranch("signal is flat around the phase")
    return tuple(sorted((_scalar_end(path, slope, outer - out, -out, run),
                         _scalar_end(path, slope, outer, out, run))))


def _path(cfg, scheme):
    """The lattice phases -pi/2, ..., -q_1, 0, q_1, ..., pi/2."""
    qs = _lattice(cfg, scheme)
    return [-q for q in reversed(qs)] + [0.0] + qs


def _scalar_branch(cfg, scheme, obs, phi):
    """_scalar_run on the signal slope around phi folded by 2*pi into
    [-pi, pi] and mirrored through +-pi - phi off the central quarters, its
    ends mapped back to k*pi +- end, k = 2n + mirror, plus k*sin(pi)."""
    x = math.remainder(phi, 2.0 * math.pi)
    mirror = math.copysign(1.0, x) if abs(x) > math.pi / 2 else 0.0
    run = _scalar_run(cfg, scheme, lambda t: signal(cfg, scheme, obs, t).slope,
                      mirror * math.pi - x if mirror else x)
    k = 2 * round((phi - x) / (2.0 * math.pi)) + mirror
    lo, hi = sorted((k * math.pi + (-end if mirror else end)) + k * math.sin(math.pi)
                    for end in run)
    if not lo < hi:
        raise NonMonotoneBranch(f"no monotone run around phi={phi}")
    return Interval(lo, hi)


def _lattice_step(scheme):
    """The fringe lattice's step in the shift c: a twentieth of min(2a, b - 2a)
    (no b - 2a for one bin) held within [0.2, 1]."""
    a, b = scheme.half_width, scheme.spacing
    return min(max(min(2.0 * a, b - 2.0 * a if scheme.cutoff else 1.0), 0.2), 1.0) / 20.0


def _lattice(cfg, scheme):
    """The fringe search's lattice, from its definition: c_j = j*h with
    h = _lattice_step(scheme), out to alpha0/2 or 26.543/sqrt(2) past the
    outermost bin edge, as phases, then pi/2."""
    a, b, h = scheme.half_width, scheme.spacing, _lattice_step(scheme)
    end = min(0.5 * cfg.alpha0, scheme.cutoff * b + a + 26.543 / math.sqrt(2.0))
    return [math.asin(min(1.0, 2.0 * (j * h) / cfg.alpha0))
            for j in range(1, int(end / h) + 1)] + [math.pi / 2]


def _scalar_fringe_width(cfg, scheme, mean, slope):
    """Step-by-step lattice search: one scalar mean or slope call per phase.
    Each side's dark point is the end of the run (_scalar_end) from +-q_1
    of the slope's sign there; then the half-depth crossings, each to 4 eps
    of its bracket's larger end, the left side's error first."""
    path = _path(cfg, scheme)
    center = len(path) // 2
    f0, s_left, s_right = mean(0.0), slope(path[center - 1]), slope(path[center + 1])
    if s_left > 0.0 > s_right:
        orient = 1.0
    elif s_left < 0.0 < s_right:
        orient = -1.0
    else:
        raise NoFringe("signal is not extremal at 0")
    darks = [_scalar_end(path, slope, center + out, out, -out * orient) for out in (-1, 1)]
    crossings = []
    for dark in darks:
        f_dark = mean(dark)
        if orient * (f0 - f_dark) <= 1e-10 * max(abs(f0), abs(f_dark)):
            raise NoFringe("fringe depth within rounding noise")
        level = 0.5 * (f0 + f_dark)
        bracket = tuple(sorted((0.0, dark)))
        try:
            crossings.append(find_root(lambda x: mean(x) - level, bracket))
        except NoSignChange as exc:
            raise NoFringe("fringe shallower than half depth") from exc
    return metrics._fringe_width(min(crossings), max(crossings))


def _lattice_fringe_width(cfg, scheme, mean, slope):
    """The fringe search on the lattice of cfg and scheme, then its two
    crossings in lockstep, as fwhm drives them, sent the scalar mean and
    slope of each phase as its (mean, slope) rows."""
    rows = lambda xs: [(mean(x), slope(x)) for x in xs]
    crossings = _drive(rows, _lockstep(_drive(rows, metrics._fringe_search(cfg, scheme))))
    return metrics._fringe_width(*sorted(crossings))


def _signal_fringe_width(cfg, scheme, obs):
    """_scalar_fringe_width on the signal's mean and slope."""
    return _scalar_fringe_width(cfg, scheme, lambda x: signal(cfg, scheme, obs, x).mean,
                                lambda x: signal(cfg, scheme, obs, x).slope)


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
    got = fwhm(cfg, scheme, UNIT_BINARY_OBS)
    assert type(got) is float
    assert got == _signal_fringe_width(cfg, scheme, UNIT_BINARY_OBS)


@pytest.mark.parametrize("phi", [0.0, 0.02, 0.1, 0.18])
def test_fig4_branch_matches_step_by_step_walk(phi):
    got = monotone_branch(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, phi)
    assert got == _scalar_branch(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, phi)
    assert type(got.lo) is float and type(got.hi) is float


@pytest.mark.parametrize("phi, rejected", [(0.0003, False), (0.0006, True)])
def test_bright_branch_matches_step_by_step_walk(phi, rejected):
    got = monotone_branch(BRIGHT_CFG, BRIGHT_SCHEME, BRIGHT_OBS, phi)
    assert got == _scalar_branch(BRIGHT_CFG, BRIGHT_SCHEME, BRIGHT_OBS, phi)
    assert got.width < BRANCH_STEP
    # invert_signal takes the branch, and an interval 1e-4 rad each way of
    # phi only if it lies inside it: at 0.0006 it crosses the slope zero at
    # 6.4e-4 rad
    measured = signal(BRIGHT_CFG, BRIGHT_SCHEME, BRIGHT_OBS, phi).mean
    assert got.lo <= invert_signal(BRIGHT_CFG, BRIGHT_SCHEME, BRIGHT_OBS, measured,
                                   got) <= got.hi
    around = Interval(phi - BRANCH_STEP / 10.0, phi + BRANCH_STEP / 10.0)
    if rejected:
        with pytest.raises(NonMonotoneBranch):
            invert_signal(BRIGHT_CFG, BRIGHT_SCHEME, BRIGHT_OBS, measured, around)
    else:
        invert_signal(BRIGHT_CFG, BRIGHT_SCHEME, BRIGHT_OBS, measured, around)


def _ramp(scheme):
    """Eigenvalues -cutoff..cutoff: an odd signal, whose runs cross 0."""
    return Observable(tuple(map(float, range(-scheme.cutoff, scheme.cutoff + 1))))


# the ramp's run around phi crosses 0; one core call (slopes only) a round:
# 0, q_1 and phi, then lattice chunks (of 21, 42 and 84 phases for fig4's 12
# outcomes, 32 and 64 for the bright system's 8: _FIRST_CELLS = 256 cells,
# then doubling) reach phi and the outer end's cell; the inner end then
# crosses 0, and the other side's chunks of 1, 21 (32), 42 (64) and 84 ride
# with the outer end's Brent rounds, one phase each; the inner end's own
# Brent rounds come last
@pytest.mark.parametrize("system, phi, rounds", [
    ((FIG4_CFG, FIG4_SCHEME, _ramp(FIG4_SCHEME)), 0.1, [3, 21, 42, 85, 22, 43, 85, 1, 1, 1]),
    ((BRIGHT_CFG, BRIGHT_SCHEME, _ramp(BRIGHT_SCHEME)), 0.0003,
     [3, 32, 65, 33, 65, 2, 1, 1]),
], ids=["fig4", "bright"])
def test_branch_sides_walk_in_lockstep(monkeypatch, system, phi, rounds):
    calls = []
    for name in ("outcome_table", "outcome_probs", "outcome_derivs"):
        def recording(cfg, scheme, phis, core=getattr(interferometer, name)):
            calls.append((name, len(phis)))
            return core(cfg, scheme, phis)

        for module in (metrics, simulate):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording)
    got = monotone_branch(*system, phi)
    assert calls == [("outcome_derivs", n) for n in rounds]
    monkeypatch.undo()
    assert got == _scalar_branch(*system, phi)
    assert got.lo < 0.0 < got.hi


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


# each example walks one scalar signal call at a time, the branch up to pi
# and the fringe's lattice to the ends of its runs, ~0.4 s
@settings(derandomize=True, max_examples=6, deadline=None, database=None)
@given(_systems())
def test_walks_match_step_by_step_walks_on_drawn_systems(system):
    cfg, scheme, obs, phi = system
    assert _result(monotone_branch, cfg, scheme, obs, phi) == \
        _result(_scalar_branch, cfg, scheme, obs, phi)
    assert _result(fwhm, cfg, scheme, obs) == \
        _result(_signal_fringe_width, cfg, scheme, obs)


# a lattice of 385 phases 0.05 apart in the shift c, then pi/2, on which
# synthetic fringes stand in for the signal
SYNTHETIC_CFG, SYNTHETIC_SCHEME = InterferometerConfig.from_nbar(1e4), BinningScheme.binary(0.5)
SYNTHETIC_LATTICE = _lattice(SYNTHETIC_CFG, SYNTHETIC_SCHEME)


def _cosine(period):
    """(mean, slope) of cos(pi*x/period)."""
    return (lambda x: math.cos(math.pi * x / period),
            lambda x: -math.pi / period * math.sin(math.pi * x / period))


def _edge():
    """The index of the first lattice phase of the third chunk, which
    follows the second chunk's last phase across a round."""
    chunks = list(metrics._shift_lattice(SYNTHETIC_CFG, SYNTHETIC_SCHEME))
    assert list(itertools.chain.from_iterable(chunks)) == SYNTHETIC_LATTICE
    assert len(chunks) > 3 and len(chunks[2]) == 2 * len(chunks[1]) > 2
    return len(chunks[0]) + len(chunks[1])


def test_fringe_first_rise_on_chunk_boundary():
    # dark point halfway between the last lattice phase of the second chunk
    # and the first of the third: the first rise is that first phase, so the
    # search must carry the last one across chunks
    edge = _edge()
    mean, slope = _cosine(0.5 * (SYNTHETIC_LATTICE[edge - 1] + SYNTHETIC_LATTICE[edge]))
    assert slope(SYNTHETIC_LATTICE[edge - 1]) < 0.0 < slope(SYNTHETIC_LATTICE[edge])
    got = _lattice_fringe_width(SYNTHETIC_CFG, SYNTHETIC_SCHEME, mean, slope)
    assert got == _scalar_fringe_width(SYNTHETIC_CFG, SYNTHETIC_SCHEME, mean, slope)


def _two_sided(left, right):
    """(mean, slope) of left (a (mean, slope) pair) for x < 0, else right."""
    return tuple(lambda x, i=i: (left if x < 0 else right)[i](x) for i in (0, 1))


# sides that fail: one falls by 2.5e-13 of the signal out to pi/2 and never
# turns back ("rounding noise"); one is a cosine fringe whose mean is NaN
# at its dark point, so the half level is NaN ("shallower")
_PERIOD = 0.5 * (SYNTHETIC_LATTICE[20] + SYNTHETIC_LATTICE[21])
_FLAT = (lambda x: 1.0 - 1e-13 * x * x, lambda x: -2e-13 * x)
_FRINGE = _cosine(_PERIOD)
_NAN_DARK = (lambda x: math.nan if abs(abs(x) - _PERIOD) < 1e-3 else _FRINGE[0](x),
             _FRINGE[1])


@pytest.mark.parametrize("left, right", [
    (_FLAT, _FRINGE), (_FRINGE, _FLAT), (_NAN_DARK, _FRINGE),
    (_FRINGE, _NAN_DARK), (_FLAT, _NAN_DARK), (_NAN_DARK, _FLAT),
], ids=["left-flat", "right-flat", "left-nan", "right-nan", "flat-nan", "nan-flat"])
def test_fringe_failing_sides_raise_like_step_by_step_walk(left, right):
    # both sides run in lockstep, but a failure reads as the step-by-step
    # search's: the left side's error when both fail
    args = SYNTHETIC_CFG, SYNTHETIC_SCHEME, *_two_sided(left, right)
    with pytest.raises(NoFringe) as want:
        _scalar_fringe_width(*args)
    with pytest.raises(NoFringe) as got:
        _lattice_fringe_width(*args)
    assert str(got.value) == str(want.value)


def test_branch_first_flip_on_chunk_boundary():
    # a synthetic slope with its zero halfway between the last lattice phase
    # of the second chunk and the first of the third: the run from its center
    # ends at that first phase, the first of the third round (0, q_1 and x,
    # then the second chunk, then the third), so the search must carry the
    # last one across rounds, and refine the end between the two
    edge = _edge()
    chunks = list(map(len, metrics._shift_lattice(SYNTHETIC_CFG, SYNTHETIC_SCHEME)))
    mean, slope = _cosine(0.5 * (SYNTHETIC_LATTICE[edge - 1] + SYNTHETIC_LATTICE[edge]))
    x = 0.25 * (SYNTHETIC_LATTICE[edge - 1] + SYNTHETIC_LATTICE[edge])
    calls = []

    def rows(xs):
        calls.append(len(xs))
        return [(t, slope(t)) for t in xs]

    got = sorted(_drive(rows, simulate._branch_search(SYNTHETIC_CFG, SYNTHETIC_SCHEME, x)))
    assert calls[:3] == [3, *chunks[1:3]] and set(calls[3:]) == {1}
    assert tuple(got) == _scalar_run(SYNTHETIC_CFG, SYNTHETIC_SCHEME, slope, x)
    assert got[0] == 0.0 and SYNTHETIC_LATTICE[edge - 1] < got[1] < SYNTHETIC_LATTICE[edge]


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
# The searches at the scale of the fringe.  monotone_branch takes a fixed
# step of 1e-3 rad, while the signal's features are about
# min(2a, b - 2a, 1)/alpha0 wide: 1.6e-4 rad at nbar=1e8.  The fringe search
# steps a twentieth of that scale in the shift c = alpha0*sin(phi)/2.


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


def _phase_near_the_bins(cfg, scheme, u):
    """The phase in [-pi/2, pi/2] whose shift c is u (in [-1, 1]) times 2
    past the outermost bin edge."""
    c = u * (scheme.cutoff * scheme.spacing + scheme.half_width + 2.0)
    return math.asin(max(-1.0, min(1.0, 2.0 * c / cfg.alpha0)))


@st.composite
def _branch_phases(draw):
    """(cfg, scheme, obs, phi): a drawn bright system with ones, alternating,
    ramp or drawn eigenvalues, and a phase whose shift c lies within 2 of
    the outermost bin edge, mirrored past +-pi/2 half the time and shifted
    by 2*pi*n, n in -2..2."""
    cfg, scheme, _ = draw(_bright_systems())
    n = 2 * scheme.cutoff + 1
    drawn = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).map(tuple).map(Observable)
    obs = draw(st.one_of(
        st.sampled_from((Observable.ones, Observable.alternating, _ramp)).map(lambda f: f(scheme)),
        drawn))
    phi = _phase_near_the_bins(cfg, scheme, draw(st.floats(-1.0, 1.0)))
    if draw(st.booleans()):
        phi = math.copysign(math.pi, phi) - phi
    return cfg, scheme, obs, phi + 2.0 * math.pi * draw(st.integers(-2, 2))


def _bits(branch):
    """The ends of a branch as int64 views, which tell every float apart."""
    return np.array([branch.lo, branch.hi]).view(np.int64).tolist()


@example(system=(BRIGHT_CFG, BRIGHT_SCHEME, BRIGHT_OBS, 0.0005),
         fractions=[1e-6, 0.5, 1.0 - 1e-6])
@example(system=(FIG4_CFG, FIG4_SCHEME, _ramp(FIG4_SCHEME), math.pi - 0.05),
         fractions=[1e-6, 0.3, 1.0 - 1e-6])
# the branch between slope roots 4e-12 and 0.305 rad: a phase 3e-7 inside
# either end shares its lattice cell with the root
@example(system=(FIG2_CFG, FIG2_SCHEME, Observable(FIXED_RANDOM_EIGENVALUES), 0.3),
         fractions=[1e-6, 1.0 - 1e-6])
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_branch_phases(), st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=4))
def test_every_phase_of_a_branch_gets_the_same_branch(system, fractions):
    # the branch does not depend on the phase that asks for it: a batched
    # estimator may share one branch across all the phases inside it.  A
    # fraction near 0 or 1 puts the phase in the lattice cell of a refined
    # end, where the phase alone decides on which side of the root it lies
    cfg, scheme, obs, phi = system
    try:
        branch = monotone_branch(cfg, scheme, obs, phi)
    except NonMonotoneBranch:
        return
    assert branch.lo <= phi <= branch.hi
    for t in fractions:
        inside = branch.lo + t * branch.width
        assert _bits(monotone_branch(cfg, scheme, obs, inside)) == _bits(branch)
        assert branch.lo <= inside <= branch.hi


@example(system=(BRIGHT_CFG, BRIGHT_SCHEME, Observable.ones(BRIGHT_SCHEME)))
# a symmetric alternating fringe whose width moves from 0.2033 to 0.1731
# when its dark value is 3.3e-6 too high (a grid minimum, not a refined one)
@example(system=(InterferometerConfig(79.06), BinningScheme(1.0905, 8.0222, 3),
                 Observable.alternating(BinningScheme(1.0905, 8.0222, 3))))
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


@st.composite
def _oriented_systems(draw):
    """A drawn bright system whose eigenvalues are negated half the time, so
    that its central fringe is a peak or a dip."""
    cfg, scheme, obs = draw(_bright_systems())
    if draw(st.booleans()):
        obs = Observable(tuple(-v for v in obs.bin_values), -obs.leftover_value)
    return cfg, scheme, obs


def _fringe_dark_points(cfg, scheme, obs):
    """The dark points fwhm's half-depth crossings are sought against, left
    then right, or NoFringe where fwhm fails."""
    darks, crossing = [], metrics._half_crossing

    def recording(center, dark, orient):
        darks.append(dark[0])
        return crossing(center, dark, orient)

    with mock.patch.object(metrics, "_half_crossing", recording):
        if _result(fwhm, cfg, scheme, obs) is NoFringe:
            return NoFringe
    return darks


# flat: beyond c = 19.3 every exponential of the single bin underflows, so
# each side's run ends on its first zero row, as a peak or as a dip
@example(system=(BRIGHT_CFG, BinningScheme.binary(0.5), UNIT_BINARY_OBS))
@example(system=(BRIGHT_CFG, BinningScheme.binary(0.5), Observable((-1.0,), 0.0)))
@example(system=(BRIGHT_CFG, BRIGHT_SCHEME, Observable.ones(BRIGHT_SCHEME)))
# a bright binary fringe, whose slope falls below 1e-14 on its tail at
# 0.00896 rad, well inside +-pi/2
@example(system=(InterferometerConfig.from_nbar(1e6), BinningScheme.binary(0.1),
                 UNIT_BINARY_OBS))
@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(_oriented_systems())
def test_fringe_dark_points_are_the_branch_ends(system):
    # one run-end rule: each side's dark point is the outer end of the
    # monotone branch around its first lattice phase, bit for bit
    cfg, scheme, obs = system
    darks = _fringe_dark_points(cfg, scheme, obs)
    if darks is NoFringe:
        return
    (q,) = next(metrics._shift_lattice(cfg, scheme))
    ends = [monotone_branch(cfg, scheme, obs, -q).lo, monotone_branch(cfg, scheme, obs, q).hi]
    assert np.array(darks).view(np.int64).tolist() == np.array(ends).view(np.int64).tolist()


@st.composite
def _alternating_phases(draw):
    """(cfg, scheme, obs, phi): nbar log-uniform in [1e2, 1e12], 0 < a,
    b > 2a, cutoff 0-8, alternating eigenvalues, and a phase near the bins."""
    cfg = InterferometerConfig.from_nbar(10.0 ** draw(st.floats(2.0, 12.0)))
    a = draw(st.floats(0.05, 2.0))
    scheme = BinningScheme(a, 2.0 * a * draw(st.floats(1.05, 4.0)), draw(st.integers(0, 8)))
    return (cfg, scheme, Observable.alternating(scheme),
            _phase_near_the_bins(cfg, scheme, draw(st.floats(-1.0, 1.0))))


# a phase's own signal inverts to the phase, to Brent's stop (it returns an
# end of a last bracket up to 8 eps of the branch's larger end wide) plus
# the phase that the signal's rounding spans at its slope: 8 eps, for
# eigenvalues +-1 on probabilities that sum to at most 1.  A stop fixed in
# radians fails it from nbar 1e2
@example(system=(BRIGHT_CFG, BRIGHT_SCHEME, BRIGHT_OBS, 0.0003), fractions=[0.05, 0.5, 0.95])
@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(_alternating_phases(), st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4))
def test_inversion_returns_the_phase_to_rounding(system, fractions):
    cfg, scheme, obs, phi = system
    try:
        branch = monotone_branch(cfg, scheme, obs, phi)
    except NonMonotoneBranch:
        return
    scale = max(abs(branch.lo), abs(branch.hi))
    for t in fractions:
        x = branch.lo + t * branch.width
        point = signal(cfg, scheme, obs, x)
        error = abs(invert_signal(cfg, scheme, obs, point.mean, branch) - x)
        assert error * abs(point.slope) <= 8.0 * _EPS * (scale * abs(point.slope) + 1.0)


# ends that are not lattice phases (0, +-pi/2 or a zero-slope row) are
# Brent's, each within 8 eps of the larger end of its lattice cell, the
# bracket it was given, of the slope root there; a stop fixed in radians
# fails it from nbar 1e2
@example(log_nbar=math.log10(200.0), u=0.3)
@example(log_nbar=12.0, u=0.5)
@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.floats(2.0, 12.0), st.floats(-1.0, 1.0))
def test_branch_ends_off_the_lattice_are_slope_roots(log_nbar, u):
    cfg = InterferometerConfig.from_nbar(10.0 ** log_nbar)
    obs = Observable(FIXED_RANDOM_EIGENVALUES)
    try:
        branch = monotone_branch(cfg, FIG2_SCHEME, obs, _phase_near_the_bins(cfg, FIG2_SCHEME, u))
    except NonMonotoneBranch:
        return
    path = _path(cfg, FIG2_SCHEME)
    slope = lambda x: signal(cfg, FIG2_SCHEME, obs, x).slope
    for end in (branch.lo, branch.hi):
        if end not in path:
            lo, hi = path[bisect.bisect(path, end) - 1:][:2]
            root = optimize.brentq(slope, lo, hi, xtol=1e-300, rtol=4.0 * _EPS)
            assert abs(end - root) <= 8.0 * _EPS * max(abs(lo), abs(hi))
