"""Monte Carlo simulation of the binned homodyne measurement.

Repeated N-shot experiments produce occurrence frequencies N_k/N; the
inversion estimator maps the measured signal back through the calibration
curve g(phi) on a monotone branch around the true phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .interferometer import BinningScheme, InterferometerConfig, outcome_table
from .metrics import AlphabetMismatch, Observable, signal
from .numerics import (Interval, RandomStream, _drive, _lockstep, _walk_chunks,
                       find_roots)

__all__ = [
    "CalibrationPoint",
    "EstimationReport",
    "NonMonotoneBranch",
    "ReplicaSet",
    "calibration_curve",
    "estimate",
    "invert_signal",
    "monotone_branch",
    "run_replicas",
    "sample_outcomes",
]

_BRANCH_STEP = 1e-3
_SLOPE_TOL = 1e-10
_BLOCK_DRAWS = 2 ** 16


class NonMonotoneBranch(ValueError):
    """Signal slope changes sign on the requested inversion branch."""


@dataclass(frozen=True)
class ReplicaSet:
    """M independent repetitions of the same N-shot experiment.  A record is
    one replica's outcome counts, a tuple of ints in outcome_table column
    order: bins -cutoff..cutoff, then the leftover."""

    phi_true: float
    shots: int
    master_seed: int
    records: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if len({len(r) for r in self.records}) != 1:
            raise ValueError("need at least one record, all of one length")
        counts = np.array(self.records)
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        if np.any(counts.sum(axis=1) != self.shots):
            raise ValueError(f"a record's counts do not sum to {self.shots}")

    @property
    def replicas(self) -> int:
        return len(self.records)

    def measured_signals(self, obs: Observable) -> list[float]:
        """Each record's measured signal sum_k mu_k N_k / N.  Raises
        AlphabetMismatch unless obs assigns one value to each count."""
        if len(self.records[0]) != len(obs.bin_values) + 1:
            raise AlphabetMismatch(f"records hold {len(self.records[0])} counts, "
                                   f"obs has {len(obs.bin_values) + 1} values")
        terms = obs.all_values() * np.array(self.records)
        return [math.fsum(row) / self.shots for row in terms.tolist()]


@dataclass(frozen=True)
class EstimationReport:
    """Inversion-estimator statistics over a ReplicaSet.

    sigma is the sqrt(N)-scaled RMS error about the true phase, the
    shot-normalized spread that a Cramer-Rao bound is stated for;
    std_dev is the population spread of the estimates about their own mean,
    and mean_signal the mean of the replicas' measured signals.
    """

    phi_true: float
    shots: int
    estimates: tuple[float, ...]
    mean_signal: float
    mean_estimate: float
    bias: float
    std_dev: float
    sigma: float
    clamp_count: int

    @property
    def clamp_fraction(self) -> float:
        return self.clamp_count / len(self.estimates)


def sample_outcomes(cfg: InterferometerConfig, scheme: BinningScheme, phi: float,
                    shots: int, stream: RandomStream) -> tuple[int, ...]:
    """Classify `shots` uniform draws by cumulative outcome probability.

    The partition is left-open right-closed in the alphabet order -cutoff,
    ..., +cutoff, with everything above the final prefix sum treated as
    Leftover; xi <= P(-cutoff) selects the first bin.  _draw counts the
    draws against the non-decreasing prefix sums, in outcome_table column
    order; calibration_curve calls it on a block of replicas at a time.
    """
    phi = _finite_phase(phi)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs, _ = outcome_table(cfg, scheme, [phi])
    (counts,) = _draw(np.cumsum(probs[0, :-1]), shots, [stream]).tolist()
    return tuple(counts)


def _finite_phase(phi) -> float:
    """phi as a float; a NaN or infinite phase has no prefix sums to draw
    against, so it is rejected before the table is evaluated."""
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {phi}")
    return phi


def _draw(prefix, shots, streams):
    """Counts matrix, a row per stream, of `shots` uniform draws from each
    stream classified against the prefix sums of a probability row.

    A block of about _BLOCK_DRAWS draws (a stream per row, drawn in place,
    at least one row) is counted at once: n_j = #{xi <= prefix[j]} in each
    row.  The prefix is a running sum of non-negative probabilities, so it
    never decreases and the differences of the n_j are the left-open
    right-closed classes.  A one-row block is counted whole by an axis-less
    count_nonzero, whose intp count holds any row length; a block of several
    rows sums each row's comparison bytes into uint32, which cannot wrap
    because such a row holds at most _BLOCK_DRAWS // 2 draws.
    """
    rows = max(1, _BLOCK_DRAWS // shots)
    if rows == 1:
        count = np.count_nonzero
    else:  # a row of at most _BLOCK_DRAWS // 2 draws: a uint32 count cannot wrap
        count = lambda hits: hits.view(np.uint8).sum(axis=1, dtype=np.uint32)
    below = np.full((len(streams), len(prefix) + 1), shots, dtype=np.int64)
    block = np.empty((min(rows, len(streams)), shots))
    for start in range(0, len(streams), rows):
        chunk = streams[start:start + rows]
        for row, stream in zip(block, chunk):
            stream.uniform(size=shots, out=row)
        for j, edge in enumerate(prefix):
            below[start:start + len(chunk), j] = count(block[:len(chunk)] <= edge)
    return np.diff(below, axis=1, prepend=0)


def run_replicas(cfg: InterferometerConfig, scheme: BinningScheme, phi: float,
                 shots: int, replicas: int, master_seed: int) -> ReplicaSet:
    """M independent records; replica i consumes random stream index i.

    The replica set of a one-point calibration_curve.
    """
    (point,) = calibration_curve(cfg, scheme, [phi], shots, replicas, master_seed)
    return point.replicas


def monotone_branch(cfg: InterferometerConfig, scheme: BinningScheme,
                    obs: Observable, phi_true: float) -> Interval:
    """Largest interval around phi_true where the sampled signal slope keeps
    one sign (resolution 1e-3 rad, capped at half a period each way).
    The two sides walk in lockstep, in doubling chunks of steps (see
    numerics._walk_chunks): each round is one outcome_table call.

    At an exact extremum the sign is taken from the right neighbor, so the
    branch starts at phi_true itself.
    """
    return _drive(lambda xs: signal(cfg, scheme, obs, xs).slope.tolist(),
                  _branch_search(phi_true))


def _branch_search(phi_true):
    """monotone_branch as a search (see numerics._drive), sent slopes."""
    (s0,) = yield [phi_true]
    if s0 == 0.0:
        (s0,) = yield [phi_true + _BRANCH_STEP]
    if s0 == 0.0:
        raise NonMonotoneBranch(f"signal is flat around phi={phi_true}")
    steps = int(math.pi / _BRANCH_STEP)
    sides = [(_branch_side(phi_true, direction, s0 > 0.0, steps), None)
             for direction in (-1.0, 1.0)]
    lo, hi = yield from _lockstep(sides)
    if lo == hi:
        raise NonMonotoneBranch(f"no monotone run around phi={phi_true}")
    return Interval(lo, hi)


def _branch_side(start, direction, positive, steps):
    """The last step from start whose slope keeps the sign `positive`."""
    edge = start
    for xs in _walk_chunks(start, direction, _BRANCH_STEP, steps):
        for x, s in zip(xs, (yield xs)):
            if (s > 0.0) != positive:
                return edge
            edge = x
    return edge


def _check_branch_monotone(cfg, scheme, obs, branch):
    n_samples = max(int(branch.width / _BRANCH_STEP), 2)
    slopes = signal(cfg, scheme, obs,
                    np.linspace(branch.lo, branch.hi, n_samples + 1)).slope
    if np.any(slopes > _SLOPE_TOL) and np.any(slopes < -_SLOPE_TOL):
        raise NonMonotoneBranch(
            f"slope changes sign on [{branch.lo}, {branch.hi}]"
        )


def _invert(cfg, scheme, obs, measured, branch):
    """Phases of the measured signals on the branch, and how many of them
    were clamped to an end.

    One two-phase evaluation of the branch ends serves every value: a value
    beyond the branch's signal range clamps to the end whose signal is
    nearest; all the others are inverted by one lockstep Brent batch, which
    is given the end signals instead of evaluating them again.
    """
    g_lo, g_hi = signal(cfg, scheme, obs, [branch.lo, branch.hi]).mean.tolist()
    top = branch.lo if g_lo >= g_hi else branch.hi
    bottom = branch.lo if g_lo <= g_hi else branch.hi
    phis = [top if m > max(g_lo, g_hi) else bottom if m < min(g_lo, g_hi)
            else None for m in measured]
    inside = [m for m, phi in zip(measured, phis) if phi is None]
    roots = iter(find_roots(lambda xs: signal(cfg, scheme, obs, xs).mean,
                            inside, [branch] * len(inside),
                            g_ends=[(g_lo, g_hi)] * len(inside)))
    return ([next(roots) if phi is None else phi for phi in phis],
            len(phis) - len(inside))


def invert_signal(cfg: InterferometerConfig, scheme: BinningScheme,
                  obs: Observable, measured_value: float,
                  branch: Interval) -> float:
    """Phase whose signal mean equals measured_value on the given branch.

    The branch is re-sampled first and rejected if the slope changes sign.
    Values beyond the branch's signal range clamp to the endpoint whose
    signal is nearest (finite-sample fluctuations routinely overshoot).
    """
    branch = branch if isinstance(branch, Interval) else Interval(*branch)
    _check_branch_monotone(cfg, scheme, obs, branch)
    (phi,), _ = _invert(cfg, scheme, obs, [measured_value], branch)
    return phi


def estimate(cfg: InterferometerConfig, scheme: BinningScheme, obs: Observable,
             replicas: ReplicaSet) -> EstimationReport:
    """Invert each replica's measured signal on the monotone branch around
    the true phase and aggregate the estimator statistics.  Every replica
    is inverted in one lockstep batch (see numerics.find_roots)."""
    branch = monotone_branch(cfg, scheme, obs, replicas.phi_true)
    _check_branch_monotone(cfg, scheme, obs, branch)
    measured = replicas.measured_signals(obs)
    estimates, clamped = _invert(cfg, scheme, obs, measured, branch)
    m = len(estimates)
    mean = math.fsum(estimates) / m
    std_dev = math.sqrt(math.fsum((e - mean) ** 2 for e in estimates) / m)
    rms = math.sqrt(math.fsum((e - replicas.phi_true) ** 2 for e in estimates) / m)
    return EstimationReport(
        phi_true=replicas.phi_true,
        shots=replicas.shots,
        estimates=tuple(estimates),
        mean_signal=math.fsum(measured) / m,
        mean_estimate=mean,
        bias=mean - replicas.phi_true,
        std_dev=std_dev,
        sigma=math.sqrt(replicas.shots) * rms,
        clamp_count=clamped,
    )


@dataclass(frozen=True)
class CalibrationPoint:
    """Mean and spread of the occurrence frequencies at one grid phase, and
    the replica set they were taken from."""

    phi: float
    mean_freqs: np.ndarray
    std_freqs: np.ndarray
    replicas: ReplicaSet

    def __eq__(self, other):
        if not isinstance(other, CalibrationPoint):
            return NotImplemented
        return (self.phi == other.phi and self.replicas == other.replicas
                and np.array_equal(self.mean_freqs, other.mean_freqs)
                and np.array_equal(self.std_freqs, other.std_freqs))


def calibration_curve(cfg: InterferometerConfig, scheme: BinningScheme,
                      phi_grid, shots: int, replicas: int,
                      master_seed: int) -> list[CalibrationPoint]:
    """Replica sets and statistics of N_k/N across a phase grid.

    Replica i of grid point p consumes random stream p*replicas + i, so a
    single-point grid is run_replicas and no two grid points share draws.
    The grid's outcome table is evaluated once; each point's draws are
    counted against its row's non-decreasing prefix sums a block of
    replicas at a time, and each record equals sample_outcomes on its stream.
    """
    phi_grid = [_finite_phase(p) for p in phi_grid]
    if len(phi_grid) == 0:
        raise ValueError("phi_grid must be nonempty")
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs, _ = outcome_table(cfg, scheme, phi_grid)
    points = []
    for p, phi in enumerate(phi_grid):
        streams = [RandomStream(master_seed, p * replicas + i)
                   for i in range(replicas)]
        counts = _draw(np.cumsum(probs[p, :-1]), shots, streams)
        freqs = counts / shots
        points.append(CalibrationPoint(
            phi=phi,
            mean_freqs=freqs.mean(axis=0),
            std_freqs=freqs.std(axis=0, ddof=0),
            replicas=ReplicaSet(phi, shots, master_seed,
                                tuple(map(tuple, counts.tolist()))),
        ))
    return points
