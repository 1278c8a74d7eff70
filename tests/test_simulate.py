"""Simulation layer tests.

Oracles: a test-side reimplementation of the cumulative classifier, scipy
brentq inversion of the cdf-reconstructed signal, an inverse-erfc analytic
inversion for the binary tail, and binomial/KS statistical envelopes.
"""

import dataclasses
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize, special, stats

from mzhomodyne.interferometer import (
    BinningScheme,
    InterferometerConfig,
    outcome_distribution,
    outcome_table,
)
from mzhomodyne.metrics import AlphabetMismatch, Observable, crb, signal
from mzhomodyne.numerics import Interval, RandomStream, find_root, find_roots
from mzhomodyne import simulate
from mzhomodyne.simulate import (
    EstimationReport,
    NonMonotoneBranch,
    ReplicaSet,
    calibration_curve,
    estimate,
    invert_signal,
    monotone_branch,
)

FIG2_CFG = InterferometerConfig.from_nbar(200.0)
FIG2_SCHEME = BinningScheme(half_width=0.5, spacing=3.8, cutoff=2)
FIG4_CFG = InterferometerConfig.from_nbar(1000.0)
FIG4_SCHEME = BinningScheme(half_width=0.5, spacing=3.2, cutoff=5)
FIG4_OBS = Observable.alternating(FIG4_SCHEME)
BINARY_HALF = BinningScheme.binary(0.5)
UNIT_BINARY_OBS = Observable((1.0,), 0.0)


# ---------------------------------------------------------------------------
# Record types.


def test_replica_set_accepts_count_records():
    rs = ReplicaSet(0.1, 10, 7, ((4, 3, 3), (10, 0, 0)))
    assert rs.replicas == 2
    assert np.allclose(np.array(rs.records) / rs.shots,
                       [[0.4, 0.3, 0.3], [1.0, 0.0, 0.0]])
    # the count matrix built to check the records is kept, read-only
    assert np.array_equal(rs._counts, rs.records)
    with pytest.raises(ValueError):
        rs._counts[0, 0] = 5


def test_counts_record_validation():
    # a record is one replica's count tuple; ReplicaSet checks each one
    for shots, record, message in (
        (10, (-1, 8, 3), "non-negative"),
        (10, (4, 3, 2), "sum to 10"),  # sums to 9
        (0, (0, 0), r"shots must be an integer in \[1, inf\)"),
    ):
        with pytest.raises(ValueError, match=message):
            ReplicaSet(0.1, shots, 7, (record,))


def test_replica_set_validation():
    for records, message in (
        ((), "at least one record"),
        (((4, 3, 3), (10, 0)), "one length"),
    ):
        with pytest.raises(ValueError, match=message):
            ReplicaSet(0.1, 10, 7, records)


@pytest.mark.parametrize("phi, shots, records, message", [
    (0.0, 1, ((0.5, 0.5),), "non-negative integers"),
    (0.0, 2, ((True, True),), "non-negative integers"),
    (0.0, 2.5, ((2, 0.5),), "shots must be an integer"),
    (0.0, True, ((1,),), "shots must be an integer"),
    (math.nan, 2, ((1, 1),), "phase must be finite"),
    (math.inf, 2, ((1, 1),), "phase must be finite"),
], ids=["half_counts", "bool_counts", "float_shots", "bool_shots", "nan_phase",
        "inf_phase"])
def test_replica_set_rejects_non_integer_counts_and_non_finite_phase(
        phi, shots, records, message):
    # if accepted, half counts would read as a signal of 0.5, and a NaN phase
    # would fail only inside estimate's branch search
    with pytest.raises(ValueError, match=message):
        ReplicaSet(phi, shots, 0, records)


@pytest.mark.parametrize("seed", [True, 1.5, -7, 2 ** 64])
def test_replica_set_rejects_a_seed_outside_uint64(seed):
    # unchecked, each constructed: a record set claiming a seed no stream has
    message = r"master_seed must be an integer in \[0, 18446744073709551616\)"
    with pytest.raises(ValueError, match=message):
        ReplicaSet(0.3, 2, seed, ((1, 1),))


def test_replica_set_stores_its_seed_as_an_int():
    rs = ReplicaSet(0.3, 2, np.uint64(2 ** 64 - 1), ((1, 1),))
    assert type(rs.master_seed) is int and rs.master_seed == 2 ** 64 - 1


def _fsum_per_record(obs, replicas):
    """measured_signals as a loop over records, one fsum per record."""
    mu = obs.all_values()
    return [math.fsum(mu * np.array(r)) / replicas.shots
            for r in replicas.records]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.integers(0, 6).flatmap(lambda cutoff: st.tuples(
    st.lists(st.floats(-1e6, 1e6), min_size=2 * cutoff + 2,
             max_size=2 * cutoff + 2),
    st.lists(st.lists(st.integers(0, 10 ** 6), min_size=2 * cutoff + 2,
                      max_size=2 * cutoff + 2).filter(lambda c: sum(c) > 0),
             min_size=1, max_size=8))))
def test_measured_signals_equal_per_record_fsum(alphabet):
    values, counts = alphabet
    # every record is rescaled to one shot total by topping up its leftover
    shots = max(sum(c) for c in counts)
    records = tuple(tuple(c[:-1]) + (c[-1] + shots - sum(c),) for c in counts)
    rs = ReplicaSet(0.0, shots, 0, records)
    obs = Observable(tuple(values[:-1]), values[-1])
    assert rs.measured_signals(obs) == _fsum_per_record(obs, rs)


@pytest.mark.parametrize("records", [((10,), (10,)), ((4, 6), (10, 0))])
def test_records_of_another_alphabet_raise_alphabet_mismatch(records):
    # unchecked, one-count records broadcast to estimates (0.0, 0.0), and
    # two-count ones fail inside numpy
    replicas = ReplicaSet(0.1, 10, 0, records)
    obs = Observable.alternating(FIG2_SCHEME)
    with pytest.raises(AlphabetMismatch):
        replicas.measured_signals(obs)
    with pytest.raises(AlphabetMismatch):
        estimate(FIG2_CFG, FIG2_SCHEME, obs, replicas)


# ---------------------------------------------------------------------------
# Sampling: stream (seed, i) at phi is record i of a one-point calibration.


def _stream_record(cfg, scheme, phi, shots, seed, i):
    """The record drawn from RandomStream(seed, i) at phi."""
    (rs,) = calibration_curve(cfg, scheme, [phi], shots, i + 1, seed)
    return rs.records[i]


def test_sampling_is_deterministic():
    first = _stream_record(FIG2_CFG, FIG2_SCHEME, 0.3, 500, 42, 0)
    second = _stream_record(FIG2_CFG, FIG2_SCHEME, 0.3, 500, 42, 0)
    assert first == second
    other = _stream_record(FIG2_CFG, FIG2_SCHEME, 0.3, 500, 42, 1)
    assert other != first


def test_sampling_matches_explicit_classifier():
    phi, shots = 0.3, 1000
    rec = _stream_record(FIG2_CFG, FIG2_SCHEME, phi, shots, 7, 3)
    # same draws, classified by an explicit left-to-right prefix scan
    xi = RandomStream(7, 3).uniform(size=shots)
    probs = outcome_distribution(FIG2_CFG, FIG2_SCHEME, phi).bin_probs
    counts = [0] * (len(probs) + 1)
    for x in xi:
        acc = 0.0
        for j, p in enumerate(probs):
            acc += p
            if x <= acc:
                counts[j] += 1
                break
        else:
            counts[-1] += 1
    assert list(rec) == counts


def test_sampling_near_certain_outcome():
    # a bin wide enough to capture everything
    scheme = BinningScheme(half_width=20.0, spacing=50.0, cutoff=0)
    rec = _stream_record(InterferometerConfig(2.0), scheme, 0.0, 500, 1, 0)
    assert rec == (500, 0)


def test_sampled_frequencies_match_probabilities():
    (rs,) = calibration_curve(FIG2_CFG, FIG2_SCHEME, [0.0], 200, 10,
                              master_seed=5)
    freqs = (np.array(rs.records) / rs.shots).mean(axis=0)
    dist = outcome_distribution(FIG2_CFG, FIG2_SCHEME, 0.0)
    for f, p in zip(freqs, dist.all_probs()):
        se = math.sqrt(max(p * (1.0 - p), 1e-30) / 2000.0)
        assert abs(f - p) <= max(3.0 * se, 1e-12)


def test_large_sample_frequency_consistency():
    phi, shots = 0.3, 20000
    rec = _stream_record(FIG2_CFG, FIG2_SCHEME, phi, shots, 9, 0)
    dist = outcome_distribution(FIG2_CFG, FIG2_SCHEME, phi)
    for f, p in zip(np.array(rec) / shots, dist.all_probs()):
        bound = 5.0 * math.sqrt(max(p * (1.0 - p), 1e-30) / shots)
        assert abs(f - p) <= max(bound, 1e-12)


@pytest.mark.parametrize("phi", [math.nan, math.inf])
def test_samplers_reject_non_finite_phase(phi, monkeypatch):
    # a NaN row has NaN prefix sums, which would send every draw to Leftover
    with pytest.raises(ValueError, match="phase must be finite"):
        calibration_curve(FIG2_CFG, FIG2_SCHEME, [0.3, phi], 10, 2,
                          master_seed=1)
    # the branch search is rejected before its first table call, not after
    # walking half a period each way
    def no_table(*args):
        raise AssertionError("the signal was evaluated")
    monkeypatch.setattr(simulate, "outcome_derivs", no_table)
    monkeypatch.setattr(simulate, "outcome_probs", no_table)
    with pytest.raises(ValueError, match="phase must be finite"):
        monotone_branch(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, phi)


def _searchsorted_counts(prefix, xi):
    """The classifier the sampler used before counting against edges."""
    return np.bincount(np.searchsorted(prefix, xi, side="left"),
                       minlength=len(prefix) + 1)


class _FixedStream:
    """A stream whose uniform draws are the given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def uniform(self, size=None, out=None):
        assert size == len(self.values)
        if out is None:
            return self.values.copy()
        out[:] = self.values
        return out


# Blocks of many rows (the last one partial), of two rows at the largest
# shots that still share a block, and of one row from one shot more on.
@pytest.mark.parametrize("shots", [
    None, simulate._BLOCK_DRAWS // 2, simulate._BLOCK_DRAWS // 2 + 1,
    simulate._BLOCK_DRAWS + 5,
], ids=["many_rows", "two_rows", "one_row", "one_long_row"])
def test_draw_counts_ties_like_searchsorted(shots):
    # a zero first bin puts an edge at 0.0; zero bins repeat edges
    prefix = np.cumsum([0.0, 0.1, 0.0, 0.25, 0.0, 0.0, 0.3])
    up = np.nextafter(prefix, 2.0)
    down = np.nextafter(prefix[1:], -1.0)
    xi = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], prefix, up, down,
                         np.linspace(0.0, 0.99, 23)])
    xi = np.resize(xi, shots or len(xi))  # tiled to the requested shots
    shots = len(xi)
    # more streams than one block holds, each its own order of the values
    rows = max(1, simulate._BLOCK_DRAWS // shots)
    streams = [_FixedStream(np.roll(xi, i)) for i in range(2 * rows + 3)]
    taken = iter(streams + ["not drawn"])
    counts = simulate._draw(prefix, shots, len(streams), taken)
    assert list(taken) == ["not drawn"]  # only the rows' streams are taken
    reference = _searchsorted_counts(prefix, xi)
    # 0.0 ties the first edge; a zero bin stays empty though draws tie its edge
    assert reference[0] > 0 and reference[2] == 0
    assert np.array_equal(counts, np.tile(reference, (len(streams), 1)))


@st.composite
def _systems(draw):
    """(cfg, scheme): nbar log-uniform in [1, 1e8], b > 2a, cutoff 0-8."""
    cfg = InterferometerConfig.from_nbar(10.0 ** draw(st.floats(0.0, 8.0)))
    a = draw(st.floats(0.01, 2.0))
    b = 2.0 * a * (1.0 + draw(st.floats(1e-3, 4.0)))
    return cfg, BinningScheme(half_width=a, spacing=b,
                              cutoff=draw(st.integers(0, 8)))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_systems(), st.floats(-math.pi, math.pi),
       st.one_of(st.integers(1, simulate._BLOCK_DRAWS),
                 st.integers(simulate._BLOCK_DRAWS + 1,
                             2 * simulate._BLOCK_DRAWS)),
       st.integers(0, 2 ** 16))
def test_sampling_equals_searchsorted_on_drawn_systems(system, phi, shots, seed):
    cfg, scheme = system
    rec = _stream_record(cfg, scheme, phi, shots, seed, 1)
    prefix = np.cumsum(outcome_table(cfg, scheme, [phi])[0][0, :-1])
    xi = RandomStream(seed, 1).uniform(size=shots)
    assert list(rec) == _searchsorted_counts(prefix, xi).tolist()


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_systems(), st.lists(st.floats(-math.pi, math.pi), min_size=1,
                            max_size=64))
def test_outcome_table_is_a_distribution_on_drawn_systems(system, phis):
    # what the sampler's counting relies on: non-decreasing prefix sums
    cfg, scheme = system
    probs, derivs = outcome_table(cfg, scheme, phis)
    assert np.all(probs >= 0.0)
    assert np.all(np.diff(np.cumsum(probs[:, :-1], axis=1), axis=1) >= 0.0)
    for p_row, d_row in zip(probs.tolist(), derivs.tolist()):
        assert abs(math.fsum(p_row) - 1.0) <= 1e-12
        assert abs(math.fsum(d_row)) <= 1e-12 * (1.0 + cfg.alpha0)


# ---------------------------------------------------------------------------
# Replica sets


def test_replica_spread_shrinks_with_shots():
    phi = 0.25
    spread = []
    for shots in (200, 2000):
        (rs,) = calibration_curve(FIG2_CFG, FIG2_SCHEME, [phi], shots, 40,
                                  master_seed=3)
        freqs = np.array(rs.records) / rs.shots
        spread.append(freqs[:, 2].std(ddof=0))  # central bin
    ratio = spread[0] / spread[1]
    assert 2.2 < ratio < 4.5  # expect sqrt(10) ~ 3.16


def test_different_seeds_same_envelope():
    phi, shots, m = 0.2, 200, 50
    (rs_a,) = calibration_curve(FIG2_CFG, FIG2_SCHEME, [phi], shots, m,
                                master_seed=101)
    (rs_b,) = calibration_curve(FIG2_CFG, FIG2_SCHEME, [phi], shots, m,
                                master_seed=202)
    counts_a = [r[:-1] for r in rs_a.records]
    counts_b = [r[:-1] for r in rs_b.records]
    assert counts_a != counts_b
    freq_a = [r[2] / shots for r in rs_a.records]
    freq_b = [r[2] / shots for r in rs_b.records]
    assert stats.ks_2samp(freq_a, freq_b).pvalue > 1e-3


@pytest.mark.parametrize("shots, replicas, message", [
    (100, 0, r"replicas must be an integer in \[1, inf\)"),
    (100, True, "replicas must be an integer"),  # not one replica
    (100, 2.0, "replicas must be an integer"),
    (True, 2, "shots must be an integer"),
    (200.0, 2, "shots must be an integer"),
], ids=["zero_replicas", "bool_replicas", "float_replicas", "bool_shots",
        "float_shots"])
def test_calibration_rejects_non_integer_sizes(shots, replicas, message):
    with pytest.raises(ValueError, match=message):
        calibration_curve(FIG2_CFG, FIG2_SCHEME, [0.0], shots, replicas,
                          master_seed=1)


# ---------------------------------------------------------------------------
# monotone_branch


def test_branch_around_interior_point():
    branch = monotone_branch(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, 0.1)
    # slope keeps one sign between the fringe peak at 0 and the next peak
    # at arcsin(2*3.2/alpha0) = 0.20379
    assert -1e-3 <= branch.lo <= 3e-3
    assert branch.hi == pytest.approx(math.asin(6.4 / FIG4_CFG.alpha0), abs=2e-3)
    assert branch.lo <= 0.1 <= branch.hi


def test_branch_from_exact_peak_extends_right():
    branch = monotone_branch(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, 0.0)
    assert branch.lo == 0.0
    assert branch.hi > 0.19


def test_branch_slope_single_signed_inside():
    branch = monotone_branch(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, 0.1)
    # endpoints may sit on an extremum where the slope is exactly zero
    slopes = [
        signal(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, x).slope
        for x in np.linspace(branch.lo, branch.hi, 402)[1:-1]
    ]
    assert all(s < 0 for s in slopes) or all(s > 0 for s in slopes)


def test_branch_rejects_flat_signal():
    # constant eigenvalues make the slope exactly zero everywhere
    flat = Observable((1.0,) * 5, 1.0)
    with pytest.raises(NonMonotoneBranch):
        monotone_branch(FIG2_CFG, FIG2_SCHEME, flat, 0.3)


# ---------------------------------------------------------------------------
# invert_signal


def test_inversion_roundtrip_on_central_branch():
    branch = monotone_branch(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, 0.1)
    for phi0 in (0.03, 0.1, 0.18):
        measured = signal(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, phi0).mean
        got = invert_signal(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, measured, branch)
        assert got == pytest.approx(phi0, abs=1e-10)


def test_inversion_matches_brentq_oracle():
    branch = monotone_branch(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, 0.1)
    g = lambda x: signal(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, x).mean
    measured = 0.4 * g(branch.lo) + 0.6 * g(branch.hi)
    got = invert_signal(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, measured, branch)
    oracle = optimize.brentq(lambda x: g(x) - measured, branch.lo, branch.hi,
                             xtol=1e-12)
    assert got == pytest.approx(oracle, abs=1e-8)


def test_inversion_binary_tail_matches_erfcinv_oracle():
    # on the steep outer branch the lower erf term dominates, so the phase
    # follows from the inverse complementary error function directly
    phi0 = 0.65
    branch = monotone_branch(FIG2_CFG, BINARY_HALF, UNIT_BINARY_OBS, phi0)
    measured = float(outcome_table(FIG2_CFG, BINARY_HALF, [phi0])[0][0, 0])
    got = invert_signal(FIG2_CFG, BINARY_HALF, UNIT_BINARY_OBS, measured, branch)
    c = float(special.erfcinv(2.0 * measured)) / math.sqrt(2.0) + 0.5
    oracle = math.asin(2.0 * c / FIG2_CFG.alpha0)
    assert got == pytest.approx(oracle, abs=1e-8)
    assert got == pytest.approx(phi0, abs=1e-9)


def test_inversion_clamps_out_of_range_values():
    branch = monotone_branch(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, 0.1)
    g = lambda x: signal(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, x).mean
    top = branch.lo if g(branch.lo) > g(branch.hi) else branch.hi
    bottom = branch.hi if top == branch.lo else branch.lo
    assert invert_signal(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, 5.0, branch) == top
    assert invert_signal(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, -5.0, branch) == bottom


def test_inversion_rejects_nonmonotone_branch():
    # (-0.1, 0.1) straddles the fringe peak at 0
    with pytest.raises(NonMonotoneBranch):
        invert_signal(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, 0.2, Interval(-0.1, 0.1))


def test_inversion_accepts_plain_tuple_branch():
    branch = monotone_branch(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, 0.1)
    measured = signal(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, 0.1).mean
    got = invert_signal(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, measured,
                        (branch.lo, branch.hi))
    assert got == pytest.approx(0.1, abs=1e-10)


@pytest.mark.parametrize("width", [math.nextafter(2.0 * math.pi, 7.0), 20.0, 200.0])
def test_inversion_rejects_a_branch_wider_than_a_period_before_evaluating(
        monkeypatch, width):
    # the re-check samples a branch every 1e-3 rad, so the rows it asks for
    # grow without bound with the width (2e9 for a 2e6-rad branch); no
    # signal is monotone over a whole period
    def no_table(*args):
        raise AssertionError("the signal was evaluated")
    monkeypatch.setattr(simulate, "outcome_derivs", no_table)
    monkeypatch.setattr(simulate, "outcome_probs", no_table)
    with pytest.raises(NonMonotoneBranch, match="wider than 2\\*pi"):
        invert_signal(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, 0.2, Interval(0.0, width))


@pytest.mark.parametrize("measured, branch", [
    (math.nan, (0.0, 0.203)),
    (math.inf, (0.0, 0.203)),
    (-math.inf, (0.0, 0.203)),
    (0.5, (0.05, math.inf)),
    (0.5, (-math.inf, 0.203)),
])
def test_inversion_rejects_non_finite_input(monkeypatch, measured, branch):
    # unchecked, a NaN value reaches Brent as a NoSignChange, an infinite one
    # clamps to a branch end, and an infinite end overflows the re-check's
    # sample count; each is rejected before any table call
    def no_table(*args):
        raise AssertionError("the signal was evaluated")
    monkeypatch.setattr(simulate, "outcome_derivs", no_table)
    monkeypatch.setattr(simulate, "outcome_probs", no_table)
    with pytest.raises(ValueError, match="must be finite"):
        invert_signal(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, measured, branch)


# ---------------------------------------------------------------------------
# estimate


def test_estimate_zero_noise_single_replica():
    # a noiseless measured value inverts to the exact phase
    shots, k0 = 1000, 450
    g = lambda x: signal(FIG2_CFG, BINARY_HALF, UNIT_BINARY_OBS, x).mean
    phi_true = optimize.brentq(lambda x: g(x) - k0 / shots, 0.05, 1.5, xtol=1e-14)
    record = (k0, shots - k0)
    rs = ReplicaSet(phi_true, shots, 0, (record,))
    report = estimate(FIG2_CFG, BINARY_HALF, UNIT_BINARY_OBS, rs)
    assert report.bias == pytest.approx(0.0, abs=1e-8)
    assert report.sigma == pytest.approx(0.0, abs=1e-6)
    assert report.clamp_count == 0


def test_estimate_statistics_definitions():
    # hand-checkable report: two synthetic replicas near the true frequency
    shots = 100
    g = lambda x: signal(FIG2_CFG, BINARY_HALF, UNIT_BINARY_OBS, x).mean
    phi_true = 0.05
    records = tuple((k, shots - k) for k in (55, 59))
    rs = ReplicaSet(phi_true, shots, 0, records)
    report = estimate(FIG2_CFG, BINARY_HALF, UNIT_BINARY_OBS, rs)
    e = report.estimates
    assert len(e) == 2
    for k, est in zip((55, 59), e):
        assert g(est) == pytest.approx(k / shots, abs=1e-9)
    mean = (e[0] + e[1]) / 2.0
    assert report.mean_estimate == pytest.approx(mean, rel=1e-15)
    assert report.bias == pytest.approx(mean - phi_true, rel=1e-12)
    assert report.std_dev == pytest.approx(abs(e[0] - e[1]) / 2.0, rel=1e-12)
    rms = math.sqrt(((e[0] - phi_true) ** 2 + (e[1] - phi_true) ** 2) / 2.0)
    assert report.sigma == pytest.approx(math.sqrt(shots) * rms, rel=1e-12)


def test_estimator_tracks_lower_bound():
    # sigma within 25% of the Cramer-Rao bound at the best branch point
    grid = np.linspace(0.02, 0.19, 35)
    phi_best = min(grid, key=lambda p: crb(FIG4_CFG, FIG4_SCHEME, p))
    (rs,) = calibration_curve(FIG4_CFG, FIG4_SCHEME, [phi_best], 200, 400,
                              master_seed=12)
    report = estimate(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, rs)
    # sigma is sqrt(N)-scaled, so the bound is the single-shot 1/sqrt(F)
    bound = crb(FIG4_CFG, FIG4_SCHEME, phi_best)
    assert abs(report.sigma - bound) / bound < 0.25
    assert abs(report.bias) < report.std_dev
    assert report.clamp_count < 0.01 * len(report.estimates)


# The per-replica loop estimate ran before its inversions were batched,
# copied verbatim: one scalar find_root per replica inside the branch.


def _invert_unchecked(cfg, scheme, obs, measured, branch, g_lo, g_hi):
    g = lambda x: signal(cfg, scheme, obs, x).mean
    if measured > max(g_lo, g_hi):
        return (branch.lo if g_lo >= g_hi else branch.hi), True
    if measured < min(g_lo, g_hi):
        return (branch.lo if g_lo <= g_hi else branch.hi), True
    return find_root(lambda x: g(x) - measured, branch), False


def _per_replica_estimates(cfg, scheme, obs, replicas):
    branch = monotone_branch(cfg, scheme, obs, replicas.phi)
    g_lo, g_hi = signal(cfg, scheme, obs, [branch.lo, branch.hi]).mean
    estimates = []
    clamped = 0
    for measured in replicas.measured_signals(obs):
        phi_inv, was_clamped = _invert_unchecked(cfg, scheme, obs, measured,
                                                 branch, g_lo, g_hi)
        estimates.append(phi_inv)
        clamped += was_clamped
    return estimates, clamped


BRIGHT_CFG = InterferometerConfig.from_nbar(1e8)
BRIGHT_SCHEME = BinningScheme(half_width=0.5, spacing=3.2, cutoff=3)


@pytest.mark.parametrize("cfg, scheme, phis, replicas", [
    (FIG4_CFG, FIG4_SCHEME, (0.012, 0.1, 0.19), 100),
    # near the slope zeros at 0 and 6.4e-4 rad, which end a branch, so that
    # some replicas clamp
    (BRIGHT_CFG, BRIGHT_SCHEME, (0.00002, 0.0006), 25),
], ids=["fig4", "nbar1e8"])
def test_lockstep_estimate_equals_per_replica_loop(cfg, scheme, phis, replicas):
    obs = Observable.alternating(scheme)
    clamps = 0
    for pt in calibration_curve(cfg, scheme, phis, 200, replicas, master_seed=4):
        report = estimate(cfg, scheme, obs, pt)
        estimates, clamped = _per_replica_estimates(cfg, scheme, obs, pt)
        assert list(report.estimates) == estimates
        assert report.clamp_count == clamped
        clamps += clamped
    # the clamped and the inverted replicas share one batch
    assert 0 < clamps < len(phis) * replicas


# _invert inverts each distinct in-branch (value, branch) pair once.  The
# reference below makes one find_roots call per value, on its own branch and
# that branch's g_ends, cached by value and sign so that 0.0 and -0.0 are
# each inverted on their own.


@functools.cache
def _one_root(cfg, scheme, obs, branch, g_ends, m, sign):
    """The root for target m alone; sign, m's copysign, keys the cache only."""
    g = lambda xs: signal(cfg, scheme, obs, xs).mean
    (root,) = find_roots(g, [m], [branch], g_ends=[g_ends])
    return root


@functools.cache
def _branch_ends(cfg, scheme, obs, branch):
    """The signal at the branch's two ends, from a two-phase evaluation."""
    return tuple(map(float, signal(cfg, scheme, obs, [branch.lo, branch.hi]).mean))


def _per_value_invert(cfg, scheme, obs, measured, branches):
    """simulate._invert with one find_roots call per measured value."""
    phis, clamped = [], []
    for m, branch in zip(measured, branches, strict=True):
        g_ends = _branch_ends(cfg, scheme, obs, branch)
        g_min, g_max = sorted(g_ends)
        top = branch.lo if g_ends[0] >= g_ends[1] else branch.hi
        bottom = branch.lo if g_ends[0] <= g_ends[1] else branch.hi
        phis.append(top if m > g_max else bottom if m < g_min
                    else _one_root(cfg, scheme, obs, branch, g_ends, m, math.copysign(1.0, m)))
        clamped.append(not g_min <= m <= g_max)
    return phis, clamped


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.int64)


@functools.cache
def _fig4_targets():
    """Fig4's branches at phi = 0.1, -0.1 and 2.5, each with 66 targets on
    it: k/40 for |k| <= 30 (beyond both ends from |k| = 28), -0.0, both end
    signals, and the next float past each end."""
    targets = []
    for phi in (0.1, -0.1, 2.5):
        branch = monotone_branch(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, phi)
        g_min, g_max = sorted(_branch_ends(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, branch))
        ends = [g_min, g_max, math.nextafter(g_min, -math.inf), math.nextafter(g_max, math.inf)]
        targets.append((branch, [k / 40 for k in range(-30, 31)] + [-0.0] + ends))
    return targets


# (branch, target) index pairs into _fig4_targets: target 30 is 0.0, 61 is
# -0.0, 0 and 60 clamp
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 65)), min_size=1, max_size=8,
                unique=True).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1,
                                                            max_size=40)))
@example([(0, 30), (0, 61), (0, 30), (0, 0), (0, 61), (0, 60), (0, 62), (0, 63), (0, 0),
          (0, 64), (0, 65)])
@example([(0, 61), (0, 30), (0, 61)])
@example([(0, 40), (1, 40), (2, 40), (0, 40), (1, 0), (2, 60), (1, 61), (2, 30)])
def test_invert_equals_one_find_roots_call_per_value(picks):
    targets = _fig4_targets()
    measured = [targets[b][1][i] for b, i in picks]
    branches = [targets[b][0] for b, _ in picks]
    calls = []
    def spy(g_batch, values, brackets, **kwargs):
        calls.append(list(zip(values, brackets)))
        return find_roots(g_batch, values, brackets, **kwargs)
    with mock.patch.object(simulate, "find_roots", spy):
        got, clamped = simulate._invert(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, measured, branches)
    want, want_clamped = _per_value_invert(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, measured, branches)
    assert np.array_equal(_bits(got), _bits(want))
    assert clamped == want_clamped
    # one batch, which holds each in-branch (value, branch) pair once, in
    # first-seen order; 0.0 and -0.0 on one branch share a lane
    pairs = [pair for pair, c in zip(zip(measured, branches), clamped) if not c]
    assert calls == [list(dict.fromkeys(pairs))]


@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(st.sampled_from([0.012, 0.1, 0.19]), st.sampled_from([5, 40, 200]),
       st.integers(1, 60), st.integers(0, 2 ** 64 - 1))
def test_estimate_equals_per_value_inversion(phi, shots, replicas, seed):
    (rs,) = calibration_curve(FIG4_CFG, FIG4_SCHEME, [phi], shots, replicas, seed)
    report = estimate(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, rs)
    with mock.patch.object(simulate, "_invert", _per_value_invert):
        want = estimate(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, rs)
    assert report == want
    assert np.array_equal(_bits(report.estimates), _bits(want.estimates))


def test_estimate_inverts_each_distinct_in_branch_value_once(monkeypatch):
    # 0.012 and 0.1 share a branch, -0.05 lies on its mirror image
    points = calibration_curve(FIG4_CFG, FIG4_SCHEME, [0.012, 0.1, -0.05, 0.012], 200, 100,
                               master_seed=4)
    calls, searched = [], []
    def spy(g_batch, values, brackets, **kwargs):
        calls.append(list(zip(values, brackets)))
        return find_roots(g_batch, values, brackets, **kwargs)
    def logged(cfg, scheme, obs, phi):
        searched.append(phi)
        return monotone_branch(cfg, scheme, obs, phi)
    monkeypatch.setattr(simulate, "find_roots", spy)
    monkeypatch.setattr(simulate, "monotone_branch", logged)
    reports = simulate._estimates(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, points)
    # the first point's branch serves the second and the fourth
    assert searched == [0.012, -0.05]
    pairs = []
    for rs in points:
        branch = monotone_branch(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, rs.phi)
        g_min, g_max = sorted(_branch_ends(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, branch))
        pairs += [(m, branch) for m in rs.measured_signals(FIG4_OBS) if g_min <= m <= g_max]
    distinct = []
    for pair in pairs:
        if pair not in distinct:
            distinct.append(pair)
    assert calls == [distinct]
    # the curve has repeats within and across points, and clamped values
    assert len(distinct) < len(pairs) < sum(rs.replicas for rs in points)
    assert sum(r.clamp_count for r in reports) == sum(rs.replicas for rs in points) - len(pairs)


# The batch over a curve equals, bit for bit, each point estimated alone:
# its own monotone_branch, and one find_roots call per value.


def _point_reference(cfg, scheme, obs, pt):
    """pt's EstimationReport on its own branch, or the NonMonotoneBranch its
    branch search raised."""
    try:
        branch = monotone_branch(cfg, scheme, obs, pt.phi)
    except NonMonotoneBranch as exc:
        return exc
    measured = pt.measured_signals(obs)
    estimates, clamped = _per_value_invert(cfg, scheme, obs, measured, [branch] * len(measured))
    m = len(estimates)
    mean = math.fsum(estimates) / m
    rms = math.sqrt(math.fsum((e - pt.phi) ** 2 for e in estimates) / m)
    return EstimationReport(
        phi_true=pt.phi,
        shots=pt.shots,
        estimates=tuple(estimates),
        mean_signal=math.fsum(measured) / m,
        mean_estimate=mean,
        bias=mean - pt.phi,
        std_dev=math.sqrt(math.fsum((e - mean) ** 2 for e in estimates) / m),
        sigma=math.sqrt(pt.shots) * rms,
        clamp_count=sum(clamped),
    )


@functools.cache
def _curve_branches(system):
    """The distinct branches of a system around 0: fig4's 20 over (-pi, pi),
    and 8 of the nbar-1e8 system's 6.4e-4-rad branches."""
    cfg, scheme, obs, span, _ = _CURVE_SYSTEMS[system]
    return tuple(dict.fromkeys(monotone_branch(cfg, scheme, obs, float(phi))
                               for phi in np.linspace(-span, span, 401)))


# (cfg, scheme, obs, span of the branch scan, phases that raise)
_CURVE_SYSTEMS = {
    "fig4": (FIG4_CFG, FIG4_SCHEME, FIG4_OBS, 3.14, []),
    "nbar1e8": (BRIGHT_CFG, BRIGHT_SCHEME, Observable.alternating(BRIGHT_SCHEME), 0.0028, [0.5]),
}


@st.composite
def _curves(draw):
    """(system, phases): an inner phase on each of at least 3 branches, a
    phase at one of their ends, a repeated phase and any phase that raises,
    plus drawn phases on the branches, in drawn order."""
    system = draw(st.sampled_from(sorted(_CURVE_SYSTEMS)))
    branches = draw(st.lists(st.sampled_from(_curve_branches(system)), min_size=3,
                             max_size=5, unique=True))
    inner = lambda b: b.lo + draw(st.floats(0.05, 0.95)) * b.width
    end = lambda b: draw(st.sampled_from([b.lo, b.hi]))
    phases = [inner(b) for b in branches] + [end(branches[0])]
    for _ in range(draw(st.integers(0, 4))):
        b = draw(st.sampled_from(branches))
        phases.append(inner(b) if draw(st.booleans()) else end(b))
    phases += [draw(st.sampled_from(phases))] + _CURVE_SYSTEMS[system][4]
    return system, draw(st.permutations(phases))


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(_curves(), st.sampled_from([5, 40, 200]), st.integers(1, 12),
       st.integers(0, 2 ** 64 - 1))
def test_curve_batch_equals_each_point_alone(curve, shots, replicas, seed):
    system, phases = curve
    cfg, scheme, obs, _, raising = _CURVE_SYSTEMS[system]
    points = calibration_curve(cfg, scheme, phases, shots, replicas, seed)
    # a point whose two records hold every shot in one bin each, of
    # eigenvalues -1 and +1: both values lie beyond any branch's range
    one_bin = lambda k: tuple(shots if j == k else 0 for j in range(scheme.n_outcomes))
    anchor = next(phi for phi in phases if phi not in raising)
    points.insert(1, ReplicaSet(anchor, shots, seed, (one_bin(0), one_bin(1))))
    assert points[1].measured_signals(obs) == [-1.0, 1.0]
    got = simulate._estimates(cfg, scheme, obs, points)
    want = [_point_reference(cfg, scheme, obs, pt) for pt in points]
    assert want[1].clamp_count == 2
    assert sum(isinstance(w, NonMonotoneBranch) for w in want) == len(raising)
    assert len(got) == len(want)
    for pt, g, w in zip(points, got, want):
        if isinstance(w, NonMonotoneBranch):
            assert type(g) is NonMonotoneBranch and str(g) == str(w)
            with pytest.raises(NonMonotoneBranch):
                estimate(cfg, scheme, obs, pt)
            continue
        assert type(g) is EstimationReport
        for f in dataclasses.fields(EstimationReport):
            a, b = getattr(g, f.name), getattr(w, f.name)
            assert type(a) is type(b), f.name
            assert np.array_equal(_bits(a), _bits(b)), f.name
        assert estimate(cfg, scheme, obs, pt) == g


def test_estimate_propagates_nonmonotone_branch():
    rec = (60, 40)
    rs = ReplicaSet(0.3, 100, 0, (rec,))
    flat = Observable((1.0,), 1.0)
    with pytest.raises(NonMonotoneBranch):
        estimate(FIG2_CFG, BINARY_HALF, flat, rs)


# ---------------------------------------------------------------------------
# calibration_curve


def test_calibration_frequencies_are_record_statistics():
    pts = calibration_curve(FIG2_CFG, FIG2_SCHEME, [0.3], 200, 10, master_seed=5)
    freqs = np.array(pts[0].records) / pts[0].shots
    assert len(pts) == 1
    assert (pts[0].phi, pts[0].shots, pts[0].replicas) == (0.3, 200, 10)
    assert np.array_equal(pts[0].mean_freqs, freqs.mean(axis=0))
    assert np.array_equal(pts[0].std_freqs, freqs.std(axis=0, ddof=0))


def test_calibration_grid_points_use_disjoint_streams():
    pts = calibration_curve(FIG2_CFG, FIG2_SCHEME, [0.3, 0.3], 200, 10,
                            master_seed=5)
    # same phase, different stream block: independent draws
    assert not np.array_equal(pts[0].mean_freqs, pts[1].mean_freqs)


def test_calibration_traces_analytic_probabilities():
    grid = np.linspace(-math.pi, math.pi, 41)
    pts = calibration_curve(FIG2_CFG, FIG2_SCHEME, grid, 200, 10, master_seed=8)
    cells = ok = 0
    for pt in pts:
        dist = outcome_distribution(FIG2_CFG, FIG2_SCHEME, pt.phi)
        for f, p in zip(pt.mean_freqs, dist.all_probs()):
            se = math.sqrt(max(p * (1.0 - p), 1e-30) / 2000.0)
            cells += 1
            ok += abs(f - p) <= max(3.0 * se, 1e-12)
    assert ok / cells >= 0.95


def test_calibration_standard_error_scales_with_replicas():
    phi = 0.3
    se = {}
    for m in (50, 200):
        pts = calibration_curve(FIG2_CFG, FIG2_SCHEME, [phi], 200, m,
                                master_seed=21)
        se[m] = pts[0].std_freqs[2] / math.sqrt(m)
    ratio = se[50] / se[200]
    assert 1.4 < ratio < 2.9  # expect 2 for a 4x replica increase


def test_calibration_records_equal_searchsorted_on_each_stream():
    grid = [-0.4, 0.1, 0.3]
    for shots, replicas, seed in (
        (150, 4, 9),
        (70_000, 3, 9),  # more draws than a block: one replica per block
        (2_000, 70, 9),  # 32 replicas per block, the last block holds 6
        (150, 4, 2 ** 64 - 1),  # the largest seed
        # 32 replicas per block; Philox makes 4 words at a time, so each
        # replica leaves 3 unused that the next one must not draw
        (2_001, 40, 9),
    ):
        pts = calibration_curve(FIG2_CFG, FIG2_SCHEME, grid, shots, replicas,
                                master_seed=seed)
        probs, _ = outcome_table(FIG2_CFG, FIG2_SCHEME, grid)
        for p, pt in enumerate(pts):
            prefix = np.cumsum(probs[p, :-1])
            assert pt.records == tuple(
                tuple(_searchsorted_counts(prefix, RandomStream(
                    seed, p * replicas + i).uniform(size=shots)).tolist())
                for i in range(replicas))


def test_calibration_points_compare_by_value():
    a, b = (calibration_curve(FIG2_CFG, FIG2_SCHEME, [0.3], 20, 2, 1)[0]
            for _ in range(2))
    other = calibration_curve(FIG2_CFG, FIG2_SCHEME, [0.3], 20, 2, 2)[0]
    assert a == b and hash(a) == hash(b)
    assert not a != b
    assert a != other
    assert a != "not a point"
    # the stored count matrix takes no part in ==, hash or repr
    twin = ReplicaSet(a.phi, a.shots, a.master_seed, a.records)
    object.__setattr__(twin, "_counts", np.zeros((1, 1), dtype=np.int64))
    assert twin == a and hash(twin) == hash(a)
    assert repr(twin) == repr(a) and "_counts" not in repr(a)


def test_calibration_rejects_empty_grid():
    with pytest.raises(ValueError):
        calibration_curve(FIG2_CFG, FIG2_SCHEME, [], 200, 10, master_seed=1)
    with pytest.raises(ValueError, match=r"replicas must be an integer in \[1, inf\)"):
        calibration_curve(FIG2_CFG, FIG2_SCHEME, [0.3], 200, 0, master_seed=1)
    with pytest.raises(ValueError, match=r"shots must be an integer in \[1, inf\)"):
        calibration_curve(FIG2_CFG, FIG2_SCHEME, [0.3], 0, 10, master_seed=1)


def test_calibration_rejects_a_non_integral_seed(monkeypatch):
    (point,) = calibration_curve(FIG2_CFG, FIG2_SCHEME, [0.3], 200, 10,
                                 master_seed=np.int64(1))
    assert point == calibration_curve(FIG2_CFG, FIG2_SCHEME, [0.3], 200, 10,
                                      master_seed=1)[0]
    # int() would truncate 1.5 and True is 1: seed 1's draws recorded as
    # master_seed 1.5 or True.  Every key is checked before the table call.
    def no_table(*args):
        raise AssertionError("the outcome table was evaluated")
    monkeypatch.setattr(simulate, "outcome_probs", no_table)
    for seed in (1.5, -1, 2 ** 64, True):
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            calibration_curve(FIG2_CFG, FIG2_SCHEME, [0.3, 0.5], 20, 3, master_seed=seed)
