"""Sweep cells against the three functions called alone, and the rounds
of their searches.

A sweep cell calls fwhm, best_sensitivity and visibility in turn, each
making its own metrics._signal_rows rounds.  The oracle calls them one
after another and keeps the values as a cell does, so a cell must give the
same floats, raise the same error, and make the same rounds.  The searches'
round counts, round sizes and phase totals are pinned here as well.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzhomodyne import metrics, simulate
from mzhomodyne.interferometer import BinningScheme, InterferometerConfig
from mzhomodyne.metrics import (
    DegenerateSignal,
    NoFringe,
    Observable,
    best_sensitivity,
    fwhm,
    sweep,
    visibility,
)
from mzhomodyne.simulate import monotone_branch

UNIT_BINARY_OBS = Observable((1.0,), 0.0)


def _sequential_cell(nbar, a):
    """(resolution, sensitivity, visibility) of one cell from fwhm,
    best_sensitivity and visibility called one after another."""
    res = sens = vis = math.nan
    cfg = InterferometerConfig.from_nbar(nbar)
    scheme = BinningScheme.binary(a)
    obs = UNIT_BINARY_OBS
    try:
        res = (2.0 * math.pi / 3.0) / fwhm(cfg, scheme, obs)
    except NoFringe:
        pass
    _, dphi_min = best_sensitivity(cfg, scheme, obs)
    if math.isfinite(dphi_min) and dphi_min > 0.0:
        sens = (1.0 / math.sqrt(nbar)) / dphi_min
    try:
        vis = visibility(cfg, scheme, obs)
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
@example(1e-12, 0.05)   # 1e-12 of the signal deep: NoFringe, finite sensitivity
@example(1e-10, 3.0)    # NoFringe and no finite sensitivity
@example(1e-30, 0.5)    # flat to double precision
@example(1e-28, 0.05)   # two ulps deep: NoFringe, a NaN resolution
@example(1e-14, 0.5)    # a rounding-noise dark point: NoFringe
def test_sweep_cell_equals_sequential_oracle(nbar, a):
    got = _outcome(_sweep_cell, nbar, a)
    want = _outcome(_sequential_cell, nbar, a)
    assert len(got) == len(want)
    assert all(_same(g, w) for g, w in zip(got, want)), (got, want)


def _rounds(monkeypatch, run):
    """The phases of each round that run() makes through metrics: each
    _signal_rows call, which runs a small round in floats and hands a larger
    one to outcome_table."""
    calls, signal_rows = [], metrics._signal_rows

    def recording(cfg, scheme, obs, phis):
        calls.append(np.asarray(phis, dtype=np.float64).tolist())
        return signal_rows(cfg, scheme, obs, phis)

    monkeypatch.setattr(metrics, "_signal_rows", recording)
    run()
    monkeypatch.undo()
    return calls


def test_sweep_cell_makes_the_rounds_of_the_three_calls_in_turn(monkeypatch):
    cfg, scheme = InterferometerConfig.from_nbar(5.0), BinningScheme.binary(0.1)
    cell = _rounds(monkeypatch, lambda: sweep([5.0], [0.1]))
    calls = [_rounds(monkeypatch, lambda: run(cfg, scheme, UNIT_BINARY_OBS))
             for run in (fwhm, best_sensitivity, visibility)]
    assert cell == list(itertools.chain.from_iterable(calls))
    # the lattice steps 0.01 in c out to alpha0/2 = 1.118, then pi/2: 112
    # phases.  fwhm reads 0 and both sides' first phases, then both sides'
    # other 111 lattice phases in one round of chunks (up to 128 phases a side,
    # _FIRST_CELLS over the binary table's 2 columns) and 8 Brent rounds of 2;
    # best_sensitivity scans 0 and the lattice, then Brent takes 5 phases, one
    # a round, for its one valley; visibility reads its 2 phases in one round
    lattice = _lattice_size(cfg, scheme)
    assert lattice == 112 and metrics._FIRST_CELLS // scheme.n_outcomes == 128
    assert list(map(len, calls)) == [1 + 1 + 8, 1 + 5, 1] and len(cell) == 17
    assert list(map(len, calls[0][:2])) == [3, 2 * (lattice - 1)]
    assert list(map(len, calls[2])) == [2]
    assert sum(map(len, cell)) == (1 + 2 * lattice + 16) + (1 + lattice + 5) + 2 == 361


@pytest.mark.parametrize("nbar", [5.0, 1e2, 1e4, 1e6, 1e8])
def test_a_binary_search_takes_few_rounds(monkeypatch, nbar):
    # over nbar 5..1e8 and a 0.05..2, best_sensitivity takes its scan and 3
    # to 8 Brent rounds, fwhm its probes, lattice chunks and Brent rounds, 8
    # to 13 in all; visibility's one round makes a cell 15 to 20
    cfg, obs = InterferometerConfig.from_nbar(nbar), UNIT_BINARY_OBS
    for a in (0.05, 0.25, 1.0, 2.0):
        scheme = BinningScheme.binary(a)
        assert len(_rounds(monkeypatch, lambda: best_sensitivity(cfg, scheme, obs))) <= 9, a
        assert len(_rounds(monkeypatch, lambda: fwhm(cfg, scheme, obs))) <= 15, a


def _lattice_size(cfg, scheme):
    return sum(map(len, metrics._shift_lattice(cfg, scheme)))


# but for best_sensitivity's scan (0 and the lattice), a round holds at most
# one lattice chunk of _SIDE_CHUNK = 1024 phases for each of the fringe's two
# sides, or one Brent phase for each of the sensitivity scan's valleys.
# _FIRST_CELLS sizes a walk's first chunks in table cells, so a narrow table
# reaches that cap in fewer rounds, but the cap is in phases, whatever the width
_ROUND_CAP = 2050
_STAIRS = BinningScheme(0.1, 0.4, 32)


@pytest.mark.parametrize("cfg, scheme, run, lattice, phases", [
    # a lattice step of 0.01 out to 18.77; the sensitivity scan reads it
    # whole, and each fringe side stops where its slope falls below 1e-14,
    # in its chunk of 1024 phases after chunks of 128, 256 and 512
    (InterferometerConfig.from_nbar(1e6), BinningScheme.binary(0.005),
     lambda cfg, scheme: sweep([cfg.nbar], [scheme.half_width]), 1_878, 3_706),
    # fringe_scan's 34-outcome alphabet, out to alpha0/2 = 50; its sides
    # turn back within the first chunks, of 7, 14, 28, 56 phases
    (InterferometerConfig.from_nbar(1e4), BinningScheme(0.5, 3.2, 16),
     lambda cfg, scheme: fwhm(cfg, scheme, Observable.alternating(scheme)), 1_001, 225),
    # eigenvalues -|k| falling outward past the outermost bin: each side
    # reads chunks of 3 phases doubling to 768, then one of 1024 phases,
    # before its slope falls below 1e-14
    (InterferometerConfig.from_nbar(1e6), _STAIRS,
     lambda cfg, scheme: fwhm(cfg, scheme, Observable(tuple(-abs(k) for k in range(-32, 33)),
                                                      -33.0)), 3_167, 5_129),
], ids=["tiny-bin-cell", "wide-alphabet", "falling-stairs"])
def test_no_round_exceeds_the_cap(monkeypatch, cfg, scheme, run, lattice, phases):
    assert _lattice_size(cfg, scheme) == lattice
    calls = _rounds(monkeypatch, lambda: run(cfg, scheme))
    assert max(len(c) for c in calls if len(c) != 1 + lattice) <= _ROUND_CAP
    assert sum(map(len, calls)) == phases


def test_a_branch_reads_its_lattice_to_the_end_in_capped_chunks(monkeypatch):
    # 121 touching bins out past alpha0/2 = 50 and eigenvalues -60..60: the
    # slope keeps its sign to +-pi/2, so the branch around 0.1 reads both
    # sides' 5,001-phase lattices to their ends (0 and 0.1 besides), each in
    # chunks doubling from 2 phases (_FIRST_CELLS over 122 outcomes) to 1024
    cfg, scheme = InterferometerConfig.from_nbar(1e4), BinningScheme(0.5, 1.0 + 1e-9, 60)
    assert _lattice_size(cfg, scheme) == 5_001
    calls, derivs = [], simulate.outcome_derivs

    def recording(cfg, scheme, phis):
        calls.append(len(phis))
        return derivs(cfg, scheme, phis)

    monkeypatch.setattr(simulate, "outcome_derivs", recording)
    branch = monotone_branch(cfg, scheme, Observable(tuple(map(float, range(-60, 61)))), 0.1)
    assert (branch.lo, branch.hi) == (-math.pi / 2, math.pi / 2)
    assert metrics._FIRST_CELLS // scheme.n_outcomes == 2
    assert calls == [3, 2, 4, 8, 16, 32, 64, 128, 256, 513, 1026, 1028, 1032, 922,
                     32, 64, 128, 256, 512, 1024, 1024, 1024, 906]
    assert sum(calls) == 2 + 2 * 5_001 and max(calls) <= _ROUND_CAP


@pytest.mark.parametrize("run, cap", [
    # the sensitivity scan reads the 1,877-phase lattice, and each fringe
    # side at most that (2,929 phases in all, with the Brent rounds)
    (lambda: sweep([1e6], [1e-6]), 3 * 1_877 + 100),
    # each fringe side reads at most the 2,227-phase lattice (2,035 in all)
    (lambda: fwhm(InterferometerConfig.from_nbar(1e4), BinningScheme(0.5, 1.0 + 1e-9, 3),
                  Observable.ones(BinningScheme(0.5, 1.0 + 1e-9, 3))), 5_000),
], ids=["bin-1e-6-wide", "gaps-1e-9-wide"])
def test_tiny_bins_and_gaps_cost_a_few_thousand_phases(monkeypatch, run, cap):
    # the lattice step stays at 0.01 or more however fine the bins, so the
    # lattice ends at c = a + 18.77 (bin) or 3b + a + 18.77 (gaps), where
    # every probability underflows
    assert sum(map(len, _rounds(monkeypatch, run))) <= cap


def test_cell_without_fringe_keeps_sensitivity_and_visibility():
    # at nbar=1e-12 the binary fringe is 1e-12 of the signal deep, which
    # fwhm rejects as rounding noise; the sensitivity search still works
    nbar, a = 1e-12, 0.05
    cfg = InterferometerConfig.from_nbar(nbar)
    scheme = BinningScheme.binary(a)
    with pytest.raises(NoFringe, match="rounding noise"):
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
