"""A search round in Python floats against the array path.

metrics._signal_rows runs a round of at most _FLOAT_PAIRS limit pairs
(phases x bins) from phase to reduced row in Python floats: the table from
interferometer._float_table, each mean, variance and slope a math.fsum, and
the sensitivity from metrics._sensitivity.  On every drawn round these equal
outcome_table, _moments and _sensitivities bit for bit (int64 views, which
tell +0.0 from -0.0), and a non-finite phase raises the same error.  A
larger round is one outcome_table call and its reduction.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzhomodyne import metrics
from mzhomodyne.interferometer import (
    BinningScheme,
    InterferometerConfig,
    _erf_limits,
    _float_table,
    outcome_table,
)
from mzhomodyne.metrics import Observable, _moments, _sensitivities, _signal_rows
from mzhomodyne.numerics import _ERFC_ZERO, _FLOAT_PAIRS, _THRESH, erf_diff

_PHASES = st.one_of(st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi]),
                    st.floats(-4.0, 4.0))
_EIGENVALUE = st.builds(lambda offset, x: offset + x,
                        st.sampled_from([0.0, 0.0, 1e3, -1e6]), st.floats(-3.0, 3.0))


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _system(nbar, a, b, cutoff, values, leftover, phis):
    return (InterferometerConfig.from_nbar(nbar), BinningScheme(a, b, cutoff),
            Observable(tuple(values), leftover), phis)


@st.composite
def _rounds(draw):
    """(cfg, scheme, obs, phis): nbar log-uniform in [1e-30, 1e8], so limits
    reach past _ERFC_ZERO, a in [1e-3, 3], gaps b - 2a down to 1e-15, where
    the bins can add up past 1 and the leftover is 0, eigenvalues with and
    without a large offset, and as many phases as the cut admits."""
    cutoff = draw(st.integers(0, (_FLOAT_PAIRS - 1) // 2))
    n, a = 2 * cutoff + 1, draw(st.floats(1e-3, 3.0))
    return _system(10.0 ** draw(st.floats(-30.0, 8.0)), a,
                   2.0 * a + draw(st.one_of(st.floats(1e-3, 3.0), st.just(1e-15))), cutoff,
                   draw(st.lists(_EIGENVALUE, min_size=n, max_size=n)), draw(_EIGENVALUE),
                   draw(st.lists(_PHASES, min_size=1, max_size=_FLOAT_PAIRS // n)))


# eight bins 1e-15 apart that add up to 1 + 1.6e-15, and limits past _ERFC_ZERO
ZERO_LEFTOVER = (3528223.544200611, 2.8196818875730165, 5.639363775146036, 7, [1.0] * 15, 0.0,
                 [-3.108165478538448])


def _array_round(cfg, scheme, obs, phis):
    """(P, dP, rows): the table and its (mean, slope, sensitivity) rows on
    whole arrays.  numpy warns where a limit overflows to inf, which the
    float path meets silently."""
    with np.errstate(over="ignore"):
        probs, derivs = outcome_table(cfg, scheme, phis)
    means, variances, slopes = _moments(obs, probs, derivs)
    return probs, derivs, np.column_stack((means, slopes, _sensitivities(variances, slopes)))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_rounds())
# bins 5e-17 wide, where erf's rounding leaves P = -5.6e-17 unclamped
@example(_system(1.0, 5e-17, 1.0, 0, [1e6], 0.0, [0.7263963198159908]))
# (mu - mean)**2 rounds differently from (mu - mean) * (mu - mean) here
@example(_system(0.014679535967012883, 0.5588614596337969, 2.0594438806690976, 2,
                 [-1.022, -2.431, -2.866, 1.623, 2.3], -2.181, [-2.4307597505821272]))
# bins adding up past 1, so the leftover is max(0, 1 - sum) = 0
@example(_system(*ZERO_LEFTOVER))
# centers at +-1.5e308 put the outer limits past the float range, at inf
@example((InterferometerConfig.from_nbar(4.0), BinningScheme(1.0, 1.5e308, 1),
          Observable((1.0, 2.0, 3.0), 0.5), [0.3, -1.0]))
def test_a_float_round_equals_the_table_and_its_reduction(system):
    cfg, scheme, obs, phis = system
    probs, derivs, want = _array_round(cfg, scheme, obs, phis)
    p, dp = zip(*_float_table(cfg, scheme, phis))
    assert np.array_equal(_bits(p), _bits(probs))
    assert np.array_equal(_bits(dp), _bits(derivs))
    assert np.array_equal(_bits(_signal_rows(cfg, scheme, obs, phis)), _bits(want))


def test_the_examples_reach_a_clamped_bin_a_zero_leftover_and_the_far_tail():
    cfg, scheme, obs, phis = _system(1.0, 5e-17, 1.0, 0, [1e6], 0.0, [0.7263963198159908])
    assert erf_diff(*_erf_limits(cfg, scheme, phis)[1:])[0, 0] < 0.0
    probs, _, ((_, slope, sens),) = _array_round(cfg, scheme, obs, phis)
    assert _bits(probs[0, 0]) == _bits(0.0) and probs[0, 1] == 1.0
    # the variance is the exact 0 of a one-valued outcome, past the slope floor
    assert abs(slope) > metrics._SLOPE_FLOOR and _bits(sens) == _bits(0.0)
    cfg, scheme, _, phis = _system(*ZERO_LEFTOVER)
    (p, _), = _float_table(cfg, scheme, phis)
    assert math.fsum(p[:-1]) > 1.0 and p[-1] == 0.0
    assert 0.5 * cfg.alpha0 * abs(math.sin(phis[0])) * math.sqrt(2.0) > _ERFC_ZERO


def test_float_rounds_around_the_slope_floor_equal_the_array_path():
    # the binary slope at a fixed phase grows like nbar, so this grid puts
    # it on both sides of _SLOPE_FLOOR
    slopes = []
    for nbar in np.geomspace(1e-16, 1e-12, 41).tolist():
        cfg, scheme, obs, phis = _system(nbar, 0.5, 2.0, 0, [1.0], 0.0, [0.3, -1.2])
        *_, want = _array_round(cfg, scheme, obs, phis)
        assert np.array_equal(_bits(_signal_rows(cfg, scheme, obs, phis)), _bits(want))
        slopes += np.abs(want[:, 1]).tolist()
    assert min(slopes) < metrics._SLOPE_FLOOR < max(slopes)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_rounds(), st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, _FLOAT_PAIRS))
def test_a_non_finite_phase_raises_the_array_paths_error(system, bad, at):
    cfg, scheme, obs, phis = system
    phis = list(phis)
    phis[at % len(phis)] = bad
    with pytest.raises(ValueError) as want:
        outcome_table(cfg, scheme, phis)
    with pytest.raises(ValueError) as got:
        _signal_rows(cfg, scheme, obs, phis)
    assert str(got.value) == str(want.value) == f"phase must be finite, got {bad}"


def _table_calls(monkeypatch):
    calls = []

    def recording(cfg, scheme, phis):
        calls.append(len(phis))
        return outcome_table(cfg, scheme, phis)

    monkeypatch.setattr(metrics, "outcome_table", recording)
    return calls


def test_a_round_past_the_cut_is_one_table_call_and_its_reduction(monkeypatch):
    calls = _table_calls(monkeypatch)
    cfg = InterferometerConfig.from_nbar(5.0)
    wide = BinningScheme(0.5, 2.0, (_FLOAT_PAIRS + 1) // 2)  # one phase past the cut
    for scheme, phis in ((BinningScheme.binary(0.5), np.linspace(0.1, 1.4, _FLOAT_PAIRS + 1)),
                         (wide, [0.1])):
        obs = Observable.alternating(scheme, 0.25)
        calls.clear()
        got = _signal_rows(cfg, scheme, obs, phis)
        assert calls == [len(phis)]
        assert np.array_equal(_bits(got), _bits(_array_round(cfg, scheme, obs, phis)[2]))


def test_a_round_within_the_cut_makes_no_table_call(monkeypatch):
    calls = _table_calls(monkeypatch)
    cfg = InterferometerConfig.from_nbar(5.0)
    for cutoff in range((_FLOAT_PAIRS - 1) // 2 + 1):
        scheme = BinningScheme(0.5, 2.0, cutoff)
        phis = np.linspace(0.1, 1.4, _FLOAT_PAIRS // (2 * cutoff + 1)).tolist()
        _signal_rows(cfg, scheme, Observable.ones(scheme), phis)
    assert calls == []


def test_both_paths_meet_an_overflowing_variance_silently():
    # (1e200 - mean)**2 overflows to inf: neither a round within the cut
    # (3 phases x 5 bins) nor one past it (4 phases) may warn, and both read
    # inf, as does fwhm, whose rounds take both paths
    cfg, scheme = InterferometerConfig.from_nbar(200.0), BinningScheme(0.5, 3.8, 2)
    obs = Observable((1e200,) * 5)
    phis = [0.1, 0.2, 0.3, 0.4]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        small, large = _signal_rows(cfg, scheme, obs, phis[:3]), _signal_rows(cfg, scheme, obs, phis)
        width = metrics.fwhm(cfg, scheme, obs)
    assert 3 * 5 <= _FLOAT_PAIRS < 4 * 5
    assert np.array_equal(_bits(small), _bits(large[:3]))
    assert all(row[2] == math.inf for row in large) and math.isfinite(width)


@st.composite
def _thin_bins(draw):
    """(cfg, scheme, phis): bins of width 1e-3..3, or under two ulps of
    _THRESH wide, and one phase that puts bin k's limits within a few dozen
    ulps of +-_THRESH, where erf_diff changes form and can leave a bin's
    rounded integral below 0."""
    cutoff = draw(st.integers(0, 2))
    a = draw(st.one_of(st.floats(1e-18, 1e-16), st.floats(1e-3, 3.0)))
    b = 2.0 * a + draw(st.floats(1e-3, 3.0))
    k, edge = draw(st.integers(-cutoff, cutoff)), draw(st.sampled_from([_THRESH, -_THRESH]))
    shift = edge / math.sqrt(2.0) - k * b  # alpha0*sin(phi)/2 that puts bin k's center there
    u = draw(st.floats(0.05, 1.0))  # |sin(phi)|
    phi, steps = math.asin(math.copysign(u, shift)), draw(st.integers(-48, 48))
    for _ in range(abs(steps)):
        phi = math.nextafter(phi, math.copysign(math.inf, steps))
    return InterferometerConfig(2.0 * abs(shift) / u), BinningScheme(a, b, cutoff), [phi]


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.one_of(_thin_bins(), _rounds().map(lambda system: system[:2] + system[3:])))
# the bin 5e-17 wide pinned above, whose erf difference rounds below 0
@example((InterferometerConfig(1.0), BinningScheme.binary(5e-17), [0.7263963198159908]))
def test_no_bin_probability_is_negative(system):
    cfg, scheme, phis = system
    with np.errstate(over="ignore"):
        probs, _ = outcome_table(cfg, scheme, phis)
    assert (probs >= 0.0).all()
    p, _ = zip(*_float_table(cfg, scheme, phis))
    assert np.array_equal(_bits(p), _bits(probs))
