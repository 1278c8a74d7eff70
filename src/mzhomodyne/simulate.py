"""Monte Carlo simulation of the binned homodyne measurement.

Repeated N-shot experiments produce occurrence frequencies N_k/N; the
inversion estimator maps the measured signal back through the calibration
curve g(phi) on a monotone branch around the true phase.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .interferometer import (BinningScheme, InterferometerConfig, _finite_phase,
                             outcome_derivs, outcome_probs)
from .metrics import AlphabetMismatch, Observable, _check_alphabet, _expectation
from .numerics import Interval, _drive, _lockstep, _streams, _uint64, _walk, find_roots

__all__ = [
    "EstimationReport",
    "NonMonotoneBranch",
    "ReplicaSet",
    "calibration_curve",
    "estimate",
    "invert_signal",
    "monotone_branch",
]

_BRANCH_STEP = 1e-3
_SLOPE_TOL = 1e-10
_BLOCK_DRAWS = 2 ** 16


class NonMonotoneBranch(ValueError):
    """Signal slope changes sign on the requested inversion branch."""


@dataclass(frozen=True)
class ReplicaSet:
    """M independent repetitions of the same N-shot experiment at phase phi.
    A record is one replica's outcome counts, a tuple of ints in outcome_table
    column order: bins -cutoff..cutoff, then the leftover.  The count matrix
    that checks them is kept, read-only, in _counts; mean_freqs and std_freqs
    are the mean and population spread of each N_k/N over the replicas."""

    phi: float
    shots: int
    master_seed: int
    records: tuple[tuple[int, ...], ...]
    _counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "phi", _finite_phase(self.phi))
        object.__setattr__(self, "master_seed", _uint64("master_seed", self.master_seed))
        _check_count("shots", self.shots)
        if len({len(r) for r in self.records}) != 1:
            raise ValueError("need at least one record, all of one length")
        counts = np.array(self.records)
        if counts.dtype.kind not in "iu" or np.any(counts < 0):
            raise ValueError("counts must be non-negative integers")
        if np.any(counts.sum(axis=1) != self.shots):
            raise ValueError(f"a record's counts do not sum to {self.shots}")
        counts.flags.writeable = False
        object.__setattr__(self, "_counts", counts)

    @property
    def replicas(self) -> int:
        return len(self.records)

    @property
    def mean_freqs(self) -> np.ndarray:
        return (self._counts / self.shots).mean(axis=0)

    @property
    def std_freqs(self) -> np.ndarray:
        return (self._counts / self.shots).std(axis=0, ddof=0)

    def measured_signals(self, obs: Observable) -> list[float]:
        """Each record's measured signal sum_k mu_k N_k / N.  Raises
        AlphabetMismatch unless obs assigns one value to each count."""
        if len(self.records[0]) != len(obs.bin_values) + 1:
            raise AlphabetMismatch(f"records hold {len(self.records[0])} counts, "
                                   f"obs has {len(obs.bin_values) + 1} values")
        terms = obs.all_values() * self._counts
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


def _check_count(name, value):
    """A shot or replica count is an int (a bool is not) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _draw(prefix, shots, replicas, streams):
    """Counts matrix, a row each, of `shots` uniform draws from the next
    `replicas` streams, classified against a probability row's prefix sums.

    A block of about _BLOCK_DRAWS draws (a stream per row, drawn in place,
    at least one row) is counted at once: n_j = #{xi <= prefix[j]} in each
    row.  The prefix is a running sum of non-negative probabilities, so it
    never decreases and the differences of the n_j are the left-open
    right-closed classes, leftover last.  A one-row block is counted whole
    by an axis-less count_nonzero, whose intp count holds any row length; a
    block of several rows sums each row's comparison bytes into uint32,
    which cannot wrap because such a row holds at most _BLOCK_DRAWS // 2 draws.
    """
    rows = max(1, _BLOCK_DRAWS // shots)
    if rows == 1:
        count = np.count_nonzero
    else:  # a row of at most _BLOCK_DRAWS // 2 draws: a uint32 count cannot wrap
        count = lambda hits: hits.view(np.uint8).sum(axis=1, dtype=np.uint32)
    below = np.full((replicas, len(prefix) + 1), shots, dtype=np.int64)
    block = np.empty((min(rows, replicas), shots))
    for start in range(0, replicas, rows):
        chunk = block[:min(rows, replicas - start)]
        for row, stream in zip(chunk, streams):  # chunk first: no stream is taken past it
            stream.uniform(size=shots, out=row)
        for j, edge in enumerate(prefix):
            below[start:start + len(chunk), j] = count(chunk <= edge)
    return np.diff(below, axis=1, prepend=0)


def monotone_branch(cfg: InterferometerConfig, scheme: BinningScheme,
                    obs: Observable, phi_true: float) -> Interval:
    """Largest interval around phi_true where the sampled signal slope keeps
    one sign (resolution 1e-3 rad, capped at half a period each way).
    The two sides are numerics._walk searches run in lockstep, each
    stopping at its first slope sign flip: each round is one
    outcome_derivs call.

    At an exact extremum the sign is taken from the right neighbor, so the
    branch starts at phi_true itself.
    """
    phi_true = _finite_phase(phi_true)
    _check_alphabet(obs, scheme)
    return _drive(lambda xs: _expectation(obs, outcome_derivs(cfg, scheme, xs)),
                  _branch_search(phi_true))


def _branch_search(phi_true):
    """monotone_branch as a search (see numerics._drive), sent slopes."""
    (s0,) = yield [phi_true]
    if s0 == 0.0:
        (s0,) = yield [phi_true + _BRANCH_STEP]
    if s0 == 0.0:
        raise NonMonotoneBranch(f"signal is flat around phi={phi_true}")
    flip = lambda v_prev, v: (v_prev > 0.0) != (v > 0.0)
    sides = [(_walk(phi_true, direction, _BRANCH_STEP, s0, flip), None)
             for direction in (-1.0, 1.0)]
    (lo, _), (hi, _) = yield from _lockstep(sides)
    if lo == hi:
        raise NonMonotoneBranch(f"no monotone run around phi={phi_true}")
    return Interval(lo, hi)


def _check_branch_monotone(cfg, scheme, obs, branch):
    _check_alphabet(obs, scheme)
    n_samples = max(int(branch.width / _BRANCH_STEP), 2)
    slopes = np.array(_expectation(obs, outcome_derivs(
        cfg, scheme, np.linspace(branch.lo, branch.hi, n_samples + 1))))
    if np.any(slopes > _SLOPE_TOL) and np.any(slopes < -_SLOPE_TOL):
        raise NonMonotoneBranch(
            f"slope changes sign on [{branch.lo}, {branch.hi}]"
        )


def _invert(cfg, scheme, obs, measured, branch):
    """Phases of the measured signals on the branch, and how many of them
    were clamped to an end.

    One two-phase evaluation of the branch ends serves every value: a value
    beyond the branch's signal range clamps to the end whose signal is
    nearest; each distinct other value, in first-seen order, is inverted
    once by one lockstep Brent batch, which is given the end signals instead
    of evaluating them again.  Equal targets on one bracket give one root
    bit for bit, and Brent reads a target only through f - target, tested
    for zero and sign, so 0.0 and -0.0 may share theirs.
    """
    means = lambda xs: _expectation(obs, outcome_probs(cfg, scheme, xs))
    g_lo, g_hi = means([branch.lo, branch.hi])
    top = branch.lo if g_lo >= g_hi else branch.hi
    bottom = branch.lo if g_lo <= g_hi else branch.hi
    phis = [top if m > max(g_lo, g_hi) else bottom if m < min(g_lo, g_hi)
            else None for m in measured]
    inside = list(dict.fromkeys(m for m, phi in zip(measured, phis) if phi is None))
    roots = dict(zip(inside, find_roots(lambda xs: np.array(means(xs)),
                                        inside, [branch] * len(inside),
                                        g_ends=[(g_lo, g_hi)] * len(inside))))
    return ([roots[m] if phi is None else phi for m, phi in zip(measured, phis)],
            len(phis) - phis.count(None))


def invert_signal(cfg: InterferometerConfig, scheme: BinningScheme,
                  obs: Observable, measured_value: float,
                  branch: Interval) -> float:
    """Phase whose signal mean equals measured_value on the given branch.

    The branch is re-sampled first and rejected if the slope changes sign.
    Values beyond the branch's signal range clamp to the endpoint whose
    signal is nearest (finite-sample fluctuations routinely overshoot).
    A non-finite measured value or branch end is rejected with ValueError.
    """
    branch = branch if isinstance(branch, Interval) else Interval(*branch)
    if not all(map(math.isfinite, (measured_value, branch.lo, branch.hi))):
        raise ValueError(f"measured value and branch ends must be finite, "
                         f"got {measured_value} on [{branch.lo}, {branch.hi}]")
    _check_branch_monotone(cfg, scheme, obs, branch)
    (phi,), _ = _invert(cfg, scheme, obs, [measured_value], branch)
    return phi


def estimate(cfg: InterferometerConfig, scheme: BinningScheme, obs: Observable,
             replicas: ReplicaSet) -> EstimationReport:
    """Invert each replica's measured signal on the monotone branch around
    the true phase and aggregate the estimator statistics.  Each distinct
    measured value is inverted once, all of them in one lockstep batch (see
    numerics.find_roots); replicas that share a value share its root."""
    branch = monotone_branch(cfg, scheme, obs, replicas.phi)
    _check_branch_monotone(cfg, scheme, obs, branch)
    measured = replicas.measured_signals(obs)
    estimates, clamped = _invert(cfg, scheme, obs, measured, branch)
    m = len(estimates)
    mean = math.fsum(estimates) / m
    std_dev = math.sqrt(math.fsum((e - mean) ** 2 for e in estimates) / m)
    rms = math.sqrt(math.fsum((e - replicas.phi) ** 2 for e in estimates) / m)
    return EstimationReport(
        phi_true=replicas.phi,
        shots=replicas.shots,
        estimates=tuple(estimates),
        mean_signal=math.fsum(measured) / m,
        mean_estimate=mean,
        bias=mean - replicas.phi,
        std_dev=std_dev,
        sigma=math.sqrt(replicas.shots) * rms,
        clamp_count=clamped,
    )


def calibration_curve(cfg: InterferometerConfig, scheme: BinningScheme,
                      phi_grid, shots: int, replicas: int,
                      master_seed: int) -> list[ReplicaSet]:
    """One ReplicaSet per grid phase; its mean_freqs and std_freqs are the
    statistics of N_k/N there.

    Replica i of grid point p consumes random stream p*replicas + i, so no
    two grid points share draws, and stream (s, i) at phi is record i of a
    one-point grid at master_seed s.  The keys are checked, then the grid's
    outcome table is evaluated once and _draw counts each point's draws.
    """
    phi_grid = [_finite_phase(p) for p in phi_grid]
    if len(phi_grid) == 0:
        raise ValueError("phi_grid must be nonempty")
    _check_count("replicas", replicas)
    _check_count("shots", shots)
    streams = _streams(master_seed, 0, len(phi_grid) * replicas)
    prefixes = np.cumsum(outcome_probs(cfg, scheme, phi_grid)[:, :-1], axis=1)
    return [ReplicaSet(phi, shots, master_seed,
                       tuple(map(tuple, _draw(prefix, shots, replicas, streams).tolist())))
            for phi, prefix in zip(phi_grid, prefixes)]
