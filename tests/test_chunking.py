"""The size of a lattice walk's chunks moves no result.

metrics._shift_lattice hands a walk its lattice in chunks of 1, then
_FIRST_CELLS table cells' worth of phases, doubling to _SIDE_CHUNK.  The
budget sets only how many phases a search round holds: each walk reads the
same phases in the same order and stops at the same first sign change.  So
fwhm, monotone_branch and a one-cell sweep give the same doubles, or raise
the same error, at any budget, from 1-phase chunks up to chunks capped at
_SIDE_CHUNK from the first.
"""

import itertools
import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzhomodyne import metrics
from mzhomodyne.interferometer import BinningScheme, InterferometerConfig
from mzhomodyne.metrics import Observable, fwhm, sweep
from mzhomodyne.simulate import monotone_branch


@st.composite
def _systems(draw):
    """(cfg, scheme, obs, phi): nbar log-uniform in [1, 1e8], b > 2a, a
    binary or multi-bin scheme (cutoff 0-8), ones, alternating or drawn
    eigenvalues, and a phase."""
    cfg = InterferometerConfig.from_nbar(10.0 ** draw(st.floats(0.0, 8.0)))
    a = draw(st.floats(0.05, 2.0))
    cutoff = draw(st.one_of(st.just(0), st.integers(1, 8)))
    scheme = BinningScheme(a, 2.0 * a * draw(st.floats(1.05, 4.0)), cutoff)
    eigenvalues = draw(st.sampled_from(["ones", "alternating", "drawn"]))
    if eigenvalues == "drawn":
        values = draw(st.lists(st.floats(-10.0, 10.0), min_size=2 * cutoff + 1,
                               max_size=2 * cutoff + 1))
        obs = Observable(tuple(values), draw(st.floats(-10.0, 10.0)))
    else:
        obs = getattr(Observable, eigenvalues)(scheme)
    return cfg, scheme, obs, draw(st.floats(-math.pi, math.pi))


def _packed(run):
    """run()'s doubles packed as bytes, or the type and message of its error."""
    try:
        return np.array(run(), dtype=np.float64).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def _results(cfg, scheme, obs, phi):
    """fwhm, monotone_branch and the one-cell sweep at (nbar, a), packed."""
    def cell():
        grid = sweep([cfg.nbar], [scheme.half_width])
        return (grid.resolution_ratio[0, 0], grid.sensitivity_ratio[0, 0],
                grid.visibility[0, 0])

    def branch():
        got = monotone_branch(cfg, scheme, obs, phi)
        return got.lo, got.hi

    return [_packed(lambda: fwhm(cfg, scheme, obs)), _packed(branch), _packed(cell)]


# each example runs the three searches at four budgets, ~0.1-0.3 s
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_systems())
# a fig4 system, whose alternating signal turns in the first chunks
@example((InterferometerConfig.from_nbar(1000.0), BinningScheme(0.5, 3.2, 5),
          Observable.alternating(BinningScheme(0.5, 3.2, 5)), 0.1))
# a bright binary system, whose fringe sides read several chunks
@example((InterferometerConfig.from_nbar(1e6), BinningScheme.binary(0.13),
          Observable((1.0,), 0.0), 0.0))
# the sweep cell's binary fringe (nbar 1000, a 0.5) ends at lattice phase 93,
# the last of a chunk when the budget is this scheme's 6 outcomes (3 binary phases)
@example((InterferometerConfig.from_nbar(1000.0), BinningScheme(0.5, 3.2, 2),
          Observable.ones(BinningScheme(0.5, 3.2, 2)), 0.1))
def test_chunk_budget_moves_no_result(system):
    cfg, scheme, obs, phi = system
    results, lattices, sizes = [], [], set()
    for cells in (scheme.n_outcomes, 16 * scheme.n_outcomes, 256, 4096):
        with mock.patch.object(metrics, "_FIRST_CELLS", cells):
            chunks = list(metrics._shift_lattice(cfg, scheme))
            results.append(_results(cfg, scheme, obs, phi))
        lattices.append(list(itertools.chain.from_iterable(chunks)))
        sizes.add(tuple(map(len, chunks)))
    assert all(lattice == lattices[0] for lattice in lattices)
    assert len(sizes) > 1 or len(lattices[0]) <= 3
    assert all(got == results[0] for got in results), results
