"""Monte Carlo simulation of the binned homodyne measurement.

Repeated N-shot experiments produce occurrence frequencies N_k/N; the
inversion estimator maps the measured signal back through the calibration
curve g(phi) on a monotone branch around the true phase.  A whole curve is
estimated in one batch: one search per branch, one Brent batch in all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .interferometer import (BinningScheme, InterferometerConfig, _finite_phase,
                             _finite_phases, outcome_derivs, outcome_probs)
from .metrics import (AlphabetMismatch, Observable, _check_alphabet, _expectation, _run_end,
                      _shift_lattice, _sign)
from .numerics import Interval, _drive, _integer, _lockstep, _streams, find_roots

__all__ = [
    "EstimationReport",
    "NonMonotoneBranch",
    "ReplicaSet",
    "calibration_curve",
    "estimate",
    "invert_signal",
    "monotone_branch",
]

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
        object.__setattr__(self, "master_seed",
                           _integer("master_seed", self.master_seed, 0, 2 ** 64))
        object.__setattr__(self, "shots", _integer("shots", self.shots, 1))
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
        return (_expectation(obs, self._counts) / self.shots).tolist()


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
    """Largest interval around phi_true on which the signal slope keeps one
    sign, read on metrics._shift_lattice (see _branch_search).  P depends on
    phi only through c = alpha0*sin(phi)/2, so phi is folded by 2*pi and
    mirrored through +-pi - phi off the central quarters; the ends map back
    to k*pi +- end plus k*(pi - math.pi), rounded once, so a mirrored pi/2
    lies past pi/2.  Every phase of one branch gets the same Interval, bit
    for bit.  A slope below _SLOPE_FLOOR at phi_true and at the lattice
    phases around it raises NonMonotoneBranch."""
    phi_true = _finite_phase(phi_true)
    _check_alphabet(obs, scheme)
    x = math.remainder(phi_true, math.tau)
    mirror = math.copysign(1.0, x) if abs(x) > math.pi / 2 else 0.0
    rows = lambda xs: list(zip(xs, _expectation(obs, outcome_derivs(cfg, scheme, xs)).tolist()))
    ends = _drive(rows, _branch_search(cfg, scheme, mirror * math.pi - x if mirror else x))
    k = 2 * round((phi_true - x) / math.tau) + mirror  # one k for both frames across +-pi
    lo, hi = sorted((k * math.pi + (-end if mirror else end)) + k * math.sin(math.pi)
                    for end in ends)
    if not lo < hi:
        raise NonMonotoneBranch(f"no monotone run around phi={phi_true}")
    return Interval(lo, hi)


def _branch_search(cfg, scheme, x):
    """The two ends of the run of one slope sign around x in [-pi/2, pi/2],
    as a search (see numerics._drive) sent (phase, slope) rows.  Its sign is
    the slope's at x, else at the lattice phases around x, read outward on
    x's side of 0: 0, q_1 and x, then a chunk a round.  The ends are found
    in lockstep (see metrics._run_end): outward along the lattice, and
    inward back through the rows, then along the other side if the run
    crosses 0."""
    side, u = (-1.0 if x < 0.0 else 1.0), abs(x)
    lattice = _shift_lattice(cfg, scheme)
    xs = [0.0] + [side * q for q in next(lattice)] + [x]
    *rows, (_, at_x) = zip(xs, (yield xs))
    while abs(rows[-1][0]) < u:  # the lattice ends at pi/2 >= u
        xs = [side * q for q in next(lattice)]
        rows += zip(xs, (yield xs))
    i = next(j for j in range(1, len(rows)) if abs(rows[j][0]) >= u)
    sign = _sign(at_x) or _sign(rows[i][1]) or _sign(rows[i - 1][1])
    if not sign:
        raise NonMonotoneBranch("signal is flat around the phase")
    return [end for end, _ in (yield from _lockstep([
        _run_end(_shift_lattice(cfg, scheme), -side, rows[i::-1], 1, sign),
        _run_end(lattice, side, rows, i, sign)]))]


def _invert(cfg, scheme, obs, measured, spans, keys):
    """Phase of each measured signal on its branch, spans[k] for its k in keys,
    and whether it was clamped to an end.  One table call evaluates the ends of
    spans: a value beyond its branch's signal range clamps to the end whose
    signal is nearest; each distinct other (value, k) pair is inverted once,
    all in one lockstep Brent batch, in first-seen order, given the end
    signals.  Brent reads a target only through f - target, tested for zero
    and sign, so 0.0 and -0.0 may share a root."""
    means = lambda xs: _expectation(obs, outcome_probs(cfg, scheme, xs))
    g = iter(means([end for b in spans for end in (b.lo, b.hi)]).tolist())
    ends = list(zip(g, g))
    phis = [(b.lo if g_lo >= g_hi else b.hi) if m > max(g_lo, g_hi)
            else (b.lo if g_lo <= g_hi else b.hi) if m < min(g_lo, g_hi) else None
            for m, k in zip(measured, keys) for b, (g_lo, g_hi) in [(spans[k], ends[k])]]
    inside = dict.fromkeys((m, k) for m, k, phi in zip(measured, keys, phis) if phi is None)
    roots = dict(zip(inside, find_roots(means, [m for m, _ in inside],
                                        [spans[k] for _, k in inside],
                                        g_ends=[ends[k] for _, k in inside])))
    return ([roots[m, k] if phi is None else phi for m, k, phi in zip(measured, keys, phis)],
            [phi is not None for phi in phis])


def invert_signal(cfg: InterferometerConfig, scheme: BinningScheme,
                  obs: Observable, measured_value: float,
                  branch: Interval) -> float:
    """Phase whose signal mean equals measured_value on the given branch.

    The branch is rejected unsampled if wider than 2*pi, else rejected
    unless it lies inside monotone_branch of its midpoint.
    Values beyond the branch's signal range clamp to the endpoint whose
    signal is nearest (finite-sample fluctuations routinely overshoot).
    A non-finite measured value or branch end is rejected with ValueError.
    """
    branch = branch if isinstance(branch, Interval) else Interval(*branch)
    if not all(map(math.isfinite, (measured_value, branch.lo, branch.hi))):
        raise ValueError(f"measured value and branch ends must be finite, "
                         f"got {measured_value} on [{branch.lo}, {branch.hi}]")
    if branch.width > 2.0 * math.pi:
        raise NonMonotoneBranch(f"branch [{branch.lo}, {branch.hi}] is wider than 2*pi")
    own = monotone_branch(cfg, scheme, obs, 0.5 * (branch.lo + branch.hi))
    if not own.lo <= branch.lo < branch.hi <= own.hi:
        raise NonMonotoneBranch(f"[{branch.lo}, {branch.hi}] leaves its midpoint's {own}")
    (phi,), _ = _invert(cfg, scheme, obs, [measured_value], [branch], [0])
    return phi


def _estimates(cfg, scheme, obs, points):
    """The EstimationReport of each ReplicaSet of a curve, or the NonMonotoneBranch its
    phase raised.  A phase strictly inside a branch already found takes it, as
    monotone_branch gives every phase of a branch the same Interval; any other is
    searched.  One _invert call inverts all, each branch keyed by its index in spans."""
    spans, results = [], []  # the distinct branches; each point's key or error, then report
    for pt in points:
        key = next((k for k, b in enumerate(spans) if b.lo < pt.phi < b.hi), None)
        if key is None:
            try:
                branch = monotone_branch(cfg, scheme, obs, pt.phi)
                spans += [branch] * (branch not in spans)  # a phase at an end may find it again
                key = spans.index(branch)
            except NonMonotoneBranch as exc:
                key = exc
        results.append(key)
    measured = [pt.measured_signals(obs) if isinstance(k, int) else []
                for pt, k in zip(points, results)]
    phis, clamps = map(iter, _invert(cfg, scheme, obs, [m for ms in measured for m in ms], spans,
                                     [k for k, ms in zip(results, measured) for _ in ms]))
    for i, (pt, ms) in enumerate(zip(points, measured)):
        if ms:
            m = len(ms)
            estimates = [next(phis) for _ in ms]
            mean = math.fsum(estimates) / m
            std_dev = math.sqrt(math.fsum((e - mean) ** 2 for e in estimates) / m)
            rms = math.sqrt(math.fsum((e - pt.phi) ** 2 for e in estimates) / m)
            results[i] = EstimationReport(
                phi_true=pt.phi, shots=pt.shots, estimates=tuple(estimates),
                mean_signal=math.fsum(ms) / m, mean_estimate=mean, bias=mean - pt.phi,
                std_dev=std_dev, sigma=math.sqrt(pt.shots) * rms,
                clamp_count=sum(next(clamps) for _ in ms))
    return results


def estimate(cfg: InterferometerConfig, scheme: BinningScheme, obs: Observable,
             replicas: ReplicaSet) -> EstimationReport:
    """Invert each replica's measured signal on the monotone branch around the
    true phase and aggregate the estimator statistics: _estimates of one point,
    whose NonMonotoneBranch is raised."""
    (report,) = _estimates(cfg, scheme, obs, [replicas])
    if isinstance(report, NonMonotoneBranch):
        raise report
    return report


def calibration_curve(cfg: InterferometerConfig, scheme: BinningScheme,
                      phi_grid, shots: int, replicas: int,
                      master_seed: int) -> list[ReplicaSet]:
    """One ReplicaSet per grid phase; its mean_freqs and std_freqs are the
    statistics of N_k/N there.

    Replica i of grid point p consumes random stream p*replicas + i, so no
    two grid points share draws, and stream (s, i) at phi is record i of a
    one-point grid at master_seed s.  The keys are checked, then the grid's
    outcome table is evaluated once and _sample draws from its rows.
    """
    phi_grid = _finite_phases(phi_grid)
    if len(phi_grid) == 0:
        raise ValueError("phi_grid must be nonempty")
    replicas = _integer("replicas", replicas, 1)
    shots = _integer("shots", shots, 1)
    master_seed = _integer("master_seed", master_seed, 0, 2 ** 64)
    return _sample(phi_grid, outcome_probs(cfg, scheme, phi_grid), shots, replicas, master_seed)


def _sample(phi_grid, probs, shots, replicas, master_seed):
    """calibration_curve on checked keys, from the grid's outcome_probs rows."""
    streams = _streams(master_seed, 0, len(phi_grid) * replicas)
    return [ReplicaSet(phi, shots, master_seed,
                       tuple(map(tuple, _draw(prefix, shots, replicas, streams).tolist())))
            for phi, prefix in zip(phi_grid, np.cumsum(probs[:, :-1], axis=1))]
