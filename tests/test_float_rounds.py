"""A search round in Python floats against the array path.

metrics._signal_rows runs a round of at most _FLOAT_PAIRS limit pairs
(phases x bins) from phase to reduced row in Python floats: the table from
interferometer._float_table, each mean, variance and slope a math.fsum, and
the sensitivity from metrics._sensitivity.  On every drawn round these equal
outcome_table, _moments and _sensitivities bit for bit (int64 views, which
tell +0.0 from -0.0), and a non-finite phase raises the same error.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzhomodyne import metrics
from mzhomodyne.interferometer import (
    BinningScheme,
    InterferometerConfig,
    _float_table,
    outcome_table,
)
from mzhomodyne.metrics import Observable, _moments, _sensitivities, _sensitivity, _signal_rows
from mzhomodyne.numerics import _ERFC_ZERO, _FLOAT_PAIRS

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


def _arrays(phis):
    raise AssertionError(f"a round of {len(phis)} phases within the cut left the float path")


def _float_round(cfg, scheme, obs, phis):
    with np.errstate(invalid="ignore"):  # the root of a variance below 0
        return _signal_rows(cfg, scheme, obs, phis,
                            lambda m, v, s: (m, v, s, _sensitivity(v, s)), _arrays)


def _array_round(cfg, scheme, obs, phis):
    # numpy warns where a limit overflows to inf, which the float path meets
    # silently, and where it roots a variance below 0
    with np.errstate(over="ignore", invalid="ignore"):
        probs, derivs = outcome_table(cfg, scheme, phis)
        means, variances, slopes = _moments(obs, probs, derivs)
        sens = _sensitivities(variances, slopes)
    return probs, derivs, np.column_stack((means, variances, slopes, sens))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_rounds())
# bins 5e-17 wide: P = -5.6e-17 and a negative variance, past the slope floor
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
    assert np.array_equal(_bits(_float_round(cfg, scheme, obs, phis)), _bits(want))


def test_the_examples_reach_a_negative_variance_a_zero_leftover_and_the_far_tail():
    cfg, scheme, obs, phis = _system(1.0, 5e-17, 1.0, 0, [1e6], 0.0, [0.7263963198159908])
    *_, ((_, variance, slope, sens),) = _array_round(cfg, scheme, obs, phis)
    assert variance < 0.0 and abs(slope) > metrics._SLOPE_FLOOR and math.isnan(sens)
    with pytest.warns(RuntimeWarning, match="invalid value"):  # as numpy warns
        assert math.isnan(_sensitivity(variance, slope))
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
        assert np.array_equal(_bits(_float_round(cfg, scheme, obs, phis)), _bits(want))
        slopes += np.abs(want[:, 2]).tolist()
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
        _float_round(cfg, scheme, obs, phis)
    assert str(got.value) == str(want.value) == f"phase must be finite, got {bad}"


def test_a_round_past_the_cut_takes_the_callers_array_reduction():
    cfg, scheme, obs, _ = _system(5.0, 0.5, 2.0, 0, [1.0], 0.0, [])
    taken = lambda xs: [len(xs)]
    assert _signal_rows(cfg, scheme, obs, [0.1] * (_FLOAT_PAIRS + 1), None, taken) == [
        _FLOAT_PAIRS + 1]
    wide = BinningScheme(0.5, 2.0, (_FLOAT_PAIRS + 1) // 2)  # one phase past the cut
    assert _signal_rows(cfg, wide, Observable.ones(wide), [0.1], None, taken) == [1]
