"""Simulation layer tests.

Oracles: a test-side reimplementation of the cumulative classifier, scipy
brentq inversion of the cdf-reconstructed signal, an inverse-erfc analytic
inversion for the binary tail, and binomial/KS statistical envelopes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special, stats

from mzhomodyne.interferometer import (
    BinningScheme,
    InterferometerConfig,
    outcome_distribution,
    outcome_table,
)
from mzhomodyne.metrics import AlphabetMismatch, Observable, crb, signal
from mzhomodyne.numerics import Interval, RandomStream, find_root
from mzhomodyne import simulate
from mzhomodyne.simulate import (
    EstimationReport,
    NonMonotoneBranch,
    ReplicaSet,
    calibration_curve,
    estimate,
    invert_signal,
    monotone_branch,
    run_replicas,
    sample_outcomes,
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


def test_counts_record_validation():
    # a record is one replica's count tuple; ReplicaSet checks each one
    for shots, record, message in (
        (10, (-1, 8, 3), "non-negative"),
        (10, (4, 3, 2), "sum to 10"),  # sums to 9
        (0, (0, 0), "shots must be >= 1"),
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
# sample_outcomes


def test_sampling_is_deterministic():
    first = sample_outcomes(FIG2_CFG, FIG2_SCHEME, 0.3, 500, RandomStream(42, 0))
    second = sample_outcomes(FIG2_CFG, FIG2_SCHEME, 0.3, 500, RandomStream(42, 0))
    assert first == second
    other = sample_outcomes(FIG2_CFG, FIG2_SCHEME, 0.3, 500, RandomStream(42, 1))
    assert other != first


def test_sampling_matches_explicit_classifier():
    phi, shots = 0.3, 1000
    rec = sample_outcomes(FIG2_CFG, FIG2_SCHEME, phi, shots, RandomStream(7, 3))
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
    rec = sample_outcomes(InterferometerConfig(2.0), scheme, 0.0, 500,
                          RandomStream(1, 0))
    assert rec == (500, 0)


def test_sampled_frequencies_match_probabilities():
    rs = run_replicas(FIG2_CFG, FIG2_SCHEME, 0.0, 200, 10, master_seed=5)
    freqs = (np.array(rs.records) / rs.shots).mean(axis=0)
    dist = outcome_distribution(FIG2_CFG, FIG2_SCHEME, 0.0)
    for f, p in zip(freqs, dist.all_probs()):
        se = math.sqrt(max(p * (1.0 - p), 1e-30) / 2000.0)
        assert abs(f - p) <= max(3.0 * se, 1e-12)


def test_large_sample_frequency_consistency():
    phi, shots = 0.3, 20000
    rec = sample_outcomes(FIG2_CFG, FIG2_SCHEME, phi, shots, RandomStream(9, 0))
    dist = outcome_distribution(FIG2_CFG, FIG2_SCHEME, phi)
    for f, p in zip(np.array(rec) / shots, dist.all_probs()):
        bound = 5.0 * math.sqrt(max(p * (1.0 - p), 1e-30) / shots)
        assert abs(f - p) <= max(bound, 1e-12)


def test_sample_outcomes_rejects_zero_shots():
    with pytest.raises(ValueError):
        sample_outcomes(FIG2_CFG, FIG2_SCHEME, 0.0, 0, RandomStream(1, 0))


@pytest.mark.parametrize("phi", [math.nan, math.inf])
def test_samplers_reject_non_finite_phase(phi):
    # a NaN row has NaN prefix sums, which would send every draw to Leftover
    with pytest.raises(ValueError, match="phase must be finite"):
        sample_outcomes(FIG2_CFG, FIG2_SCHEME, phi, 10, RandomStream(1, 0))
    with pytest.raises(ValueError, match="phase must be finite"):
        calibration_curve(FIG2_CFG, FIG2_SCHEME, [0.3, phi], 10, 2,
                          master_seed=1)


def _searchsorted_counts(prefix, xi):
    """The classifier sample_outcomes used before counting against edges."""
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
    counts = simulate._draw(prefix, shots, streams)
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
    rec = sample_outcomes(cfg, scheme, phi, shots, RandomStream(seed, 1))
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
# run_replicas


def test_single_replica_equals_direct_sampling():
    rs = run_replicas(FIG2_CFG, FIG2_SCHEME, 0.2, 300, 1, master_seed=11)
    direct = sample_outcomes(FIG2_CFG, FIG2_SCHEME, 0.2, 300, RandomStream(11, 0))
    assert rs.replicas == 1
    assert rs.records[0] == direct


def test_replica_spread_shrinks_with_shots():
    phi = 0.25
    spread = []
    for shots in (200, 2000):
        rs = run_replicas(FIG2_CFG, FIG2_SCHEME, phi, shots, 40, master_seed=3)
        freqs = np.array(rs.records) / rs.shots
        spread.append(freqs[:, 2].std(ddof=0))  # central bin
    ratio = spread[0] / spread[1]
    assert 2.2 < ratio < 4.5  # expect sqrt(10) ~ 3.16


def test_different_seeds_same_envelope():
    phi, shots, m = 0.2, 200, 50
    rs_a = run_replicas(FIG2_CFG, FIG2_SCHEME, phi, shots, m, master_seed=101)
    rs_b = run_replicas(FIG2_CFG, FIG2_SCHEME, phi, shots, m, master_seed=202)
    counts_a = [r[:-1] for r in rs_a.records]
    counts_b = [r[:-1] for r in rs_b.records]
    assert counts_a != counts_b
    freq_a = [r[2] / shots for r in rs_a.records]
    freq_b = [r[2] / shots for r in rs_b.records]
    assert stats.ks_2samp(freq_a, freq_b).pvalue > 1e-3


def test_run_replicas_validation():
    with pytest.raises(ValueError):
        run_replicas(FIG2_CFG, FIG2_SCHEME, 0.0, 100, 0, master_seed=1)


# ---------------------------------------------------------------------------
# monotone_branch


def test_branch_around_interior_point():
    branch = monotone_branch(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, 0.1)
    # slope keeps one sign between the fringe peak at 0 and the next peak
    # at arcsin(2*3.2/alpha0) = 0.20379
    assert -1e-3 <= branch.lo <= 3e-3
    assert branch.hi == pytest.approx(math.asin(6.4 / FIG4_CFG.alpha0), abs=2e-3)
    assert branch.contains(0.1)


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
    rs = run_replicas(FIG4_CFG, FIG4_SCHEME, phi_best, 200, 400, master_seed=12)
    report = estimate(FIG4_CFG, FIG4_SCHEME, FIG4_OBS, rs)
    # sigma is sqrt(N)-scaled, so the bound is the single-shot 1/sqrt(F)
    bound = crb(FIG4_CFG, FIG4_SCHEME, phi_best)
    assert abs(report.sigma - bound) / bound < 0.25
    assert abs(report.bias) < report.std_dev
    assert report.clamp_fraction < 0.01


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
    branch = monotone_branch(cfg, scheme, obs, replicas.phi_true)
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
    (BRIGHT_CFG, BRIGHT_SCHEME, (0.0003, 0.0012), 25),
], ids=["fig4", "nbar1e8"])
def test_lockstep_estimate_equals_per_replica_loop(cfg, scheme, phis, replicas):
    obs = Observable.alternating(scheme)
    clamps = 0
    for pt in calibration_curve(cfg, scheme, phis, 200, replicas, master_seed=4):
        report = estimate(cfg, scheme, obs, pt.replicas)
        estimates, clamped = _per_replica_estimates(cfg, scheme, obs, pt.replicas)
        assert list(report.estimates) == estimates
        assert report.clamp_count == clamped
        clamps += clamped
    # the clamped and the inverted replicas share one batch
    assert 0 < clamps < len(phis) * replicas


def test_estimate_propagates_nonmonotone_branch():
    rec = (60, 40)
    rs = ReplicaSet(0.3, 100, 0, (rec,))
    flat = Observable((1.0,), 1.0)
    with pytest.raises(NonMonotoneBranch):
        estimate(FIG2_CFG, BINARY_HALF, flat, rs)


# ---------------------------------------------------------------------------
# calibration_curve


def test_calibration_single_point_reduces_to_run_replicas():
    pts = calibration_curve(FIG2_CFG, FIG2_SCHEME, [0.3], 200, 10, master_seed=5)
    rs = run_replicas(FIG2_CFG, FIG2_SCHEME, 0.3, 200, 10, master_seed=5)
    freqs = np.array(rs.records) / rs.shots
    assert len(pts) == 1
    assert pts[0].replicas == rs
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


def test_calibration_records_equal_sample_outcomes_on_each_stream():
    grid = [-0.4, 0.1, 0.3]
    for shots, replicas in (
        (150, 4),
        (70_000, 3),  # more draws than a block: one replica per block
        (2_000, 70),  # 32 replicas per block, the last block holds 6
    ):
        pts = calibration_curve(FIG2_CFG, FIG2_SCHEME, grid, shots, replicas,
                                master_seed=9)
        for p, (phi, pt) in enumerate(zip(grid, pts)):
            assert pt.replicas.records == tuple(
                sample_outcomes(FIG2_CFG, FIG2_SCHEME, phi, shots,
                                RandomStream(9, p * replicas + i))
                for i in range(replicas))


def test_calibration_points_compare_by_value():
    a, b = (calibration_curve(FIG2_CFG, FIG2_SCHEME, [0.3], 20, 2, 1)[0]
            for _ in range(2))
    other = calibration_curve(FIG2_CFG, FIG2_SCHEME, [0.3], 20, 2, 2)[0]
    assert a == b
    assert not a != b
    assert a != other
    assert a != "not a point"


def test_calibration_rejects_empty_grid():
    with pytest.raises(ValueError):
        calibration_curve(FIG2_CFG, FIG2_SCHEME, [], 200, 10, master_seed=1)
    with pytest.raises(ValueError, match="replicas must be >= 1"):
        calibration_curve(FIG2_CFG, FIG2_SCHEME, [0.3], 200, 0, master_seed=1)
    with pytest.raises(ValueError, match="shots must be >= 1"):
        calibration_curve(FIG2_CFG, FIG2_SCHEME, [0.3], 0, 10, master_seed=1)


def test_calibration_rejects_a_non_integral_seed():
    # int() would truncate 1.5: seed 1's draws recorded as master_seed 1.5
    with pytest.raises(ValueError, match="master_seed must be an integer"):
        calibration_curve(FIG2_CFG, FIG2_SCHEME, [0.3], 200, 10, master_seed=1.5)
    (point,) = calibration_curve(FIG2_CFG, FIG2_SCHEME, [0.3], 200, 10,
                                 master_seed=np.int64(1))
    assert point.replicas == run_replicas(FIG2_CFG, FIG2_SCHEME, 0.3, 200, 10,
                                          master_seed=1)
