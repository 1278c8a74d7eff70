"""The two halves of the outcome table, and the searches that read one half.

outcome_probs and outcome_derivs return outcome_table's P and dP bit for
bit, and the metrics reduction of either half equals signal's mean or slope
bit for bit.  A slope search (the branch search, which also checks the branch
that invert_signal is given) evaluates no error function, and the inversion
rounds evaluate no derivatives.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mzhomodyne import interferometer, simulate
from mzhomodyne.interferometer import (
    BinningScheme,
    InterferometerConfig,
    outcome_derivs,
    outcome_probs,
    outcome_table,
)
from mzhomodyne.metrics import Observable, _expectation, signal
from mzhomodyne.simulate import (
    calibration_curve,
    estimate,
    invert_signal,
    monotone_branch,
)

FIG4_CFG = InterferometerConfig.from_nbar(1000.0)
FIG4_SCHEME = BinningScheme(half_width=0.5, spacing=3.2, cutoff=5)
FIG4_OBS = Observable.alternating(FIG4_SCHEME)


def _bits(values):
    """int64 view, which tells +0.0 from -0.0 and compares NaN payloads."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


@st.composite
def _systems(draw):
    """(cfg, scheme, obs, phis): nbar log-uniform in [1e-2, 1e8], b > 2a,
    cutoff 0-8, drawn eigenvalues, and phases that include 0 and +-pi/2."""
    nbar = 10.0 ** draw(st.floats(-2.0, 8.0))
    a = draw(st.floats(0.05, 2.0))
    b = 2.0 * a * (1.0 + draw(st.floats(1e-3, 3.0)))
    cutoff = draw(st.integers(0, 8))
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=2 * cutoff + 1,
                           max_size=2 * cutoff + 1))
    leftover = draw(st.floats(-10.0, 10.0))
    phis = draw(st.permutations(
        [0.0, math.pi / 2, -math.pi / 2]
        + draw(st.lists(st.floats(-math.pi, math.pi), max_size=12))))
    return (InterferometerConfig.from_nbar(nbar), BinningScheme(a, b, cutoff),
            Observable(tuple(values), leftover), phis)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(_systems())
def test_halves_equal_the_table_and_reductions_equal_signal(system):
    cfg, scheme, obs, phis = system
    probs, derivs = outcome_table(cfg, scheme, phis)
    half_probs = outcome_probs(cfg, scheme, phis)
    half_derivs = outcome_derivs(cfg, scheme, phis)
    assert np.array_equal(_bits(half_probs), _bits(probs))
    assert np.array_equal(_bits(half_derivs), _bits(derivs))
    point = signal(cfg, scheme, obs, np.array(phis))
    assert np.array_equal(_bits(_expectation(obs, half_probs)), _bits(point.mean))
    assert np.array_equal(_bits(_expectation(obs, half_derivs)), _bits(point.slope))


def _core_log(monkeypatch):
    """The calls simulate makes of the two halves ("probs", "derivs"), and
    the erf_diff calls of the core ("erf"), in order."""
    log = []

    def logged(tag, fn):
        def wrapper(*args):
            log.append(tag)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(interferometer, "erf_diff",
                        logged("erf", interferometer.erf_diff))
    monkeypatch.setattr(simulate, "outcome_probs", logged("probs", outcome_probs))
    monkeypatch.setattr(simulate, "outcome_derivs",
                        logged("derivs", outcome_derivs))
    return log


def _probs_rounds(log):
    """log after its leading derivative calls, checked to be probability
    calls only, each with its one erf_diff call."""
    first = log.index("probs")
    assert set(log[:first]) == {"derivs"}
    rest = log[first:]
    assert rest == ["probs", "erf"] * (len(rest) // 2)
    return first


def test_slope_searches_evaluate_no_error_function(monkeypatch):
    log = _core_log(monkeypatch)
    branch = monotone_branch(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, 0.1)
    # one call per lattice round: 0, q_1 and phi, then chunks of 21 and 42 (_FIRST_CELLS
    # over 12 outcomes) out to the slope zero at c = 3.2; both ends are zero rows,
    # refined by none
    assert log == ["derivs"] * 3
    measured = 0.5 * sum(signal(FIG4_CFG, FIG4_SCHEME, FIG4_OBS,
                                [branch.lo, branch.hi]).mean.tolist())
    log.clear()
    invert_signal(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, measured, branch)
    # the branch of the given branch's midpoint, the same three rounds, then
    # the branch ends and the Brent rounds
    assert _probs_rounds(log) == 3
    assert not hasattr(simulate, "outcome_table")


def test_estimate_inverts_on_probabilities_alone(monkeypatch):
    (replicas,) = calibration_curve(FIG4_CFG, FIG4_SCHEME, [0.1], 400, 20, 0)
    log = _core_log(monkeypatch)
    report = estimate(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, replicas)
    # the three lattice rounds of the branch read slopes; every inversion
    # round after them reads means
    assert _probs_rounds(log) == 3
    assert log.count("probs") > 2
    monkeypatch.undo()
    assert report == estimate(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, replicas)
