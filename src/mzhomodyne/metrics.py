"""Estimation-theoretic figures of merit for the binned homodyne readout.

Signals of arbitrary eigenvalue assignments, error-propagation sensitivity,
classical Fisher information with its Cramer-Rao bound, fringe visibility
and width, peak locations, best-sensitivity search, and 2-D parameter
sweeps over (nbar, a) for the binary scheme.
"""

from __future__ import annotations

import itertools
import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .interferometer import (BinningScheme, InterferometerConfig, _curved_table,
                             _finite_phases, _float_table, outcome_probs, outcome_table)
from .numerics import _ERFC_ZERO, NoSignChange, _brent, _drive, _lockstep, _row_sums, find_root

__all__ = [
    "AlphabetMismatch",
    "DegenerateSignal",
    "FIXED_RANDOM_EIGENVALUES",
    "NoFringe",
    "NoSolution",
    "Observable",
    "SchemeNotBinary",
    "SignalPoint",
    "SweepGrid",
    "best_sensitivity",
    "binarized_cfi",
    "binary_sensitivity",
    "cfi",
    "continuous_signal",
    "crb",
    "error_propagation_sensitivity",
    "fwhm",
    "fwhm_continuous",
    "signal",
    "signal_peaks",
    "sweep",
    "visibility",
    "visibility_boundary",
]

_SLOPE_FLOOR = 1e-14
_PROB_FLOOR = 1e-15
_CFI_FLOOR = 1e-20
_FIRST_CELLS = 256  # table cells (phases x outcomes) a side asks for after its first round
_SIDE_CHUNK = 1024  # most lattice phases one side asks for in a round

# fixed pseudorandom eigenvalue vector (bins -2..2) kept as a regression case
FIXED_RANDOM_EIGENVALUES = (-0.715, 0.068, 0.839, -0.102, 0.392)


class AlphabetMismatch(ValueError):
    """Observable does not assign eigenvalues to this scheme's alphabet."""


class SchemeNotBinary(ValueError):
    """Operation requires a single-bin (cutoff 0) scheme."""


class DegenerateSignal(ValueError):
    """Signal means cancel (no visibility), or its variance overflows (NaN dphi)."""


class NoSolution(ValueError):
    """Bracketed search exhausted without meeting the target."""


class NoFringe(ValueError):
    """Signal has no usable half-maximum crossing around the center."""


@dataclass(frozen=True)
class Observable:
    """Eigenvalue assignment: one value per bin (ordered -cutoff..cutoff)
    plus the leftover value."""

    bin_values: tuple[float, ...]
    leftover_value: float = 0.0

    def __post_init__(self):
        vals = tuple(float(v) for v in self.bin_values)
        object.__setattr__(self, "bin_values", vals)
        object.__setattr__(self, "leftover_value", float(self.leftover_value))
        if len(vals) == 0 or len(vals) % 2 == 0:
            raise ValueError(
                f"bin_values must have odd positive length, got {len(vals)}"
            )
        if not all(map(math.isfinite, vals + (self.leftover_value,))):
            raise ValueError(f"eigenvalues must be finite, got bins {vals} "
                             f"and leftover {self.leftover_value}")

    @property
    def cutoff(self) -> int:
        return (len(self.bin_values) - 1) // 2

    def all_values(self) -> np.ndarray:
        """Bins then leftover, matching the outcome_table columns."""
        return np.array(self.bin_values + (self.leftover_value,))

    @classmethod
    def ones(cls, scheme: BinningScheme, leftover: float = 0.0) -> "Observable":
        return cls((1.0,) * (2 * scheme.cutoff + 1), leftover)

    @classmethod
    def alternating(cls, scheme: BinningScheme, leftover: float = 0.0) -> "Observable":
        vals = tuple(
            float((-1) ** abs(k)) for k in range(-scheme.cutoff, scheme.cutoff + 1)
        )
        return cls(vals, leftover)


def _check_alphabet(obs: Observable, scheme: BinningScheme):
    if obs.cutoff != scheme.cutoff:
        raise AlphabetMismatch(
            f"observable covers cutoff {obs.cutoff}, scheme has {scheme.cutoff}"
        )


def _table(cfg, scheme, phi):
    """(scalar, P, dP): outcome_table over phi, a float or a 1-D array."""
    phis = np.asarray(phi, dtype=np.float64)
    probs, derivs = outcome_table(cfg, scheme, np.atleast_1d(phis))
    return phis.ndim == 0, probs, derivs


def _shaped(scalar: bool, values):
    """A float for a scalar phase, else an array over the phases."""
    return float(values[0]) if scalar else np.asarray(values, dtype=np.float64)


def _expectation(obs: Observable, table: np.ndarray) -> np.ndarray:
    """sum_k mu_k T[i, k] of each row: the signal mean over outcome_probs,
    its phase slope over outcome_derivs."""
    return _row_sums(obs.all_values() * table)


def _moments(obs: Observable, probs: np.ndarray, derivs: np.ndarray):
    """(means, variances, slopes) of the observable over each table row.

    The variance is the centered sum of (mu - mean)^2 P, which stays
    accurate when an eigenvalue offset dwarfs the spread (the raw
    difference sum(mu^2 P) - mean^2 cancels catastrophically there); a
    square that overflows is as silent as in _signal_rows' float path.
    """
    means = _expectation(obs, probs)
    with np.errstate(over="ignore", invalid="ignore"):
        variances = _row_sums((obs.all_values() - means[:, None]) ** 2 * probs)
    return means, variances, _expectation(obs, derivs)


# Up to this many limit pairs (phases x bins) a search round of _signal_rows runs
# from phase to reduced row in Python floats.  Floats against arrays at orders 0, 1
# and 2, best of 15 on a 2-core Xeon VM (Python 3.11, numpy 2.4), a binary round:
# 9, 12-13 and 15-16 against 54, 69-70 and 112-117 us at 1 phase; 19-21, 29-32 and
# 40-42 against 86, 102-106 and 149-150 at 3 (a cell's rounds but its chunks and scan
# hold 1-3); 85-89, 130-148 and 177-178 against 90-92, 109-110 and 156 at 16.  15
# pairs over 3 or 15 bins: 62-63, 83 and 107 or 60, 70 and 79 against 85-87, 102-104
# and 145-146 or 103-105, 118-121 and 161-163 us.
_FLOAT_PAIRS = 16


def _signal_rows(cfg, scheme, obs, phis, order=2):
    """(mean, slope, sqrt(var)/|slope|, E) of obs at each phase of a search
    round, or (mean,) at order 0 and (mean, slope) at order 1: the columns
    that need P's phase derivatives up to order.  E = V'S - 2VS' (S the slope,
    V the variance, V' = sum (mu - mean)^2 P' as the P' sum to 0, S' = sum mu
    P'') is dphi's stationarity column, finite where S = 0 (dphi' = dphi
    E/(2VS)), NaN where V is not.  From _float_table in floats, each sum a
    math.fsum, if the round holds at most _FLOAT_PAIRS limit pairs, else from
    outcome_probs, outcome_table or _curved_table (order 0, 1, 2) on whole
    arrays: the same bits (_row_sums equals math.fsum)."""
    if len(phis) * (2 * scheme.cutoff + 1) > _FLOAT_PAIRS:
        if order < 2:
            tables = (outcome_table(cfg, scheme, phis) if order
                      else [outcome_probs(cfg, scheme, phis)])
            return list(zip(*[_expectation(obs, table).tolist() for table in tables]))
        probs, derivs, curves = _curved_table(cfg, scheme, phis)
        means, variances, slopes = _moments(obs, probs, derivs)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = (obs.all_values() - means[:, None]) ** 2 * derivs
            turns = (_row_sums(np.where((variances < math.inf)[:, None], terms, math.nan))
                     * slopes - 2.0 * variances * _expectation(obs, curves))
        return list(zip(means.tolist(), slopes.tolist(),
                        _sensitivities(variances, slopes).tolist(), turns.tolist()))
    values, rows = obs.bin_values + (obs.leftover_value,), []
    for table in _float_table(cfg, scheme, phis, order):
        sums = tuple(math.fsum([mu * x for mu, x in zip(values, column)]) for column in table[:2])
        if order < 2:
            rows.append(sums)
            continue
        (mean, slope), (probs, derivs, curves) = sums, table
        u2 = [u * u for u in [mu - mean for mu in values]]
        variance = math.fsum([q * p for q, p in zip(u2, probs)])
        dv = math.fsum([q * d for q, d in zip(u2, derivs)]) if variance < math.inf else math.nan
        turn = dv * slope - 2.0 * variance * math.fsum([mu * c for mu, c in zip(values, curves)])
        rows.append((mean, slope, _sensitivity(variance, slope), turn))
    return rows


@dataclass(frozen=True)
class SignalPoint:
    """Signal at one phase (floats) or on a phase array (arrays like phi)."""

    phi: float | np.ndarray
    mean: float | np.ndarray
    variance: float | np.ndarray
    slope: float | np.ndarray


def signal(cfg: InterferometerConfig, scheme: BinningScheme,
           obs: Observable, phi) -> SignalPoint:
    """Mean, centered variance, and phase slope of the observable at phi, a
    float or a 1-D array of phases."""
    _check_alphabet(obs, scheme)
    scalar, probs, derivs = _table(cfg, scheme, phi)
    means, variances, slopes = _moments(obs, probs, derivs)
    return SignalPoint(
        phi=float(phi) if scalar else np.array(phi, dtype=np.float64),
        mean=_shaped(scalar, means),
        variance=_shaped(scalar, variances),
        slope=_shaped(scalar, slopes),
    )


def error_propagation_sensitivity(cfg: InterferometerConfig, scheme: BinningScheme,
                                  obs: Observable, phi):
    """Phase uncertainty sqrt(Var)/|slope|; +inf where the signal is flat.

    phi is a float or a 1-D array of phases; the result has the same shape.
    The variance is the centered one that signal reports.
    """
    _check_alphabet(obs, scheme)
    scalar, probs, derivs = _table(cfg, scheme, phi)
    _, variances, slopes = _moments(obs, probs, derivs)
    return _shaped(scalar, _sensitivities(variances, slopes))


def _sensitivities(variances: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """sqrt(var)/|slope| of each row; +inf where |slope| < _SLOPE_FLOOR."""
    slopes = np.abs(slopes)
    return np.divide(np.sqrt(variances), slopes, out=np.full_like(slopes, math.inf),
                     where=~(slopes < _SLOPE_FLOOR))


def _sensitivity(variance: float, slope: float) -> float:
    """_sensitivities of one row, in floats."""
    return math.inf if abs(slope) < _SLOPE_FLOOR else math.sqrt(variance) / abs(slope)


def _fisher_rows(probs: np.ndarray, derivs: np.ndarray) -> np.ndarray:
    """sum of P'^2/P over each row's outcomes with P >= 1e-15; a skipped
    term is an exact 0.0, which leaves the row sum unchanged."""
    return _row_sums(np.divide(derivs * derivs, probs, out=np.zeros_like(probs),
                               where=probs >= _PROB_FLOOR))


def cfi(cfg: InterferometerConfig, scheme: BinningScheme, phi):
    """Fisher information of the full outcome alphabet at phi, a float or a
    1-D array of phases.

    Terms with probability below 1e-15 are skipped: their true contribution
    [P']^2/P vanishes in the Gaussian tail, but the floating-point quotient
    can blow up first.
    """
    scalar, probs, derivs = _table(cfg, scheme, phi)
    return _shaped(scalar, _fisher_rows(probs, derivs))


def _bounds(probs: np.ndarray, derivs: np.ndarray) -> np.ndarray:
    """1/sqrt(cfi) of each row; +inf where the information is below 1e-20."""
    info = _fisher_rows(probs, derivs)
    return np.divide(1.0, np.sqrt(info), out=np.full_like(info, math.inf),
                     where=~(info < _CFI_FLOOR))


def _bound_rows(cfg, scheme, phis):
    """(crb, F') at each phase, F' = sum P'(2PP'' - P'^2)/P^2 over the terms
    _fisher_rows keeps: the bound's stationarity column, as crb' = -F'/(2F^1.5)."""
    probs, derivs, curves = _curved_table(cfg, scheme, phis)
    turns = _row_sums(np.divide(derivs * (2.0 * probs * curves - derivs * derivs), probs * probs,
                                out=np.zeros_like(probs), where=probs >= _PROB_FLOOR))
    return list(zip(_bounds(probs, derivs).tolist(), turns.tolist()))


def crb(cfg: InterferometerConfig, scheme: BinningScheme, phi):
    """Cramer-Rao phase bound 1/sqrt(cfi); +inf where the information dies.

    phi is a float or a 1-D array of phases; the result has the same shape.
    """
    scalar, probs, derivs = _table(cfg, scheme, phi)
    return _shaped(scalar, _bounds(probs, derivs))


def _signal_columns(obs: Observable, probs: np.ndarray, derivs: np.ndarray):
    """(means, sensitivities, bounds) of each table row: the values of
    signal(...).mean, error_propagation_sensitivity and crb, from one table."""
    means, variances, slopes = _moments(obs, probs, derivs)
    return means, _sensitivities(variances, slopes), _bounds(probs, derivs)


def binary_sensitivity(cfg: InterferometerConfig, scheme: BinningScheme, phi):
    """sqrt(P(1-P))/|P'| of the single bin: the propagated error of the
    {1, 0} observable.

    phi is a float or a 1-D array of phases; the result has the same shape.
    """
    if scheme.cutoff != 0:
        raise SchemeNotBinary(f"cutoff must be 0, got {scheme.cutoff}")
    return error_propagation_sensitivity(cfg, scheme, Observable((1.0,), 0.0), phi)


def binarized_cfi(cfg: InterferometerConfig, scheme: BinningScheme,
                  obs: Observable, phi):
    """Fisher information after coarse-graining outcomes that share an
    eigenvalue (exact value comparison, no tolerance): a group's P and P'
    are math.fsum of its columns, and the groups reduce like cfi's outcomes.
    phi is a float or a 1-D array of phases; the result has the same shape."""
    _check_alphabet(obs, scheme)
    groups: dict[float, list[int]] = {}
    for col, value in enumerate(obs.all_values().tolist()):
        groups.setdefault(value, []).append(col)
    scalar, probs, derivs = _table(cfg, scheme, phi)
    merged = [np.column_stack([_row_sums(table[:, cols]) for cols in groups.values()])
              for table in (probs, derivs)]
    return _shaped(scalar, _fisher_rows(*merged))


def visibility(cfg: InterferometerConfig, scheme: BinningScheme,
               obs: Observable) -> float:
    """(s(0) - s(pi/2)) / (s(0) + s(pi/2)) of the signal mean."""
    _check_alphabet(obs, scheme)
    (s_bright,), (s_dark,) = _signal_rows(cfg, scheme, obs, [0.0, math.pi / 2], 0)
    denom = s_bright + s_dark
    if abs(denom) < 1e-14:
        raise DegenerateSignal(f"signal means cancel: {s_bright} + {s_dark}")
    return (s_bright - s_dark) / denom


def visibility_boundary(half_width: float, target: float) -> float:
    """Smallest nbar whose binary {1, 0} fringe visibility reaches target.

    Brent's method over nbar in [1e-6, 1e4]; visibility grows monotonically
    with nbar at fixed half_width.
    """
    if not target < 1.0:
        raise ValueError(f"target visibility must be below 1, got {target}")
    scheme = BinningScheme.binary(half_width)
    lo, hi = 1e-6, 1e4
    if target <= 0.0:
        return lo
    obs = Observable((1.0,), 0.0)
    vis = lambda nbar: visibility(InterferometerConfig.from_nbar(nbar), scheme, obs)
    try:
        return find_root(lambda nbar: vis(nbar) - target, (lo, hi))
    except NoSignChange:
        if vis(hi) < target:
            raise NoSolution(f"visibility at nbar={hi} still below {target}") from None
        return lo


def continuous_signal(cfg: InterferometerConfig, phi):
    """Mean measured quadrature -(alpha0/2)*sin(phi); the un-binned
    reference fringe.  phi is a float or a 1-D array of phases."""
    return _shaped(np.ndim(phi) == 0, [-0.5 * cfg.alpha0 * math.sin(x)
                                       for x in _finite_phases(np.atleast_1d(phi))])


# ---------------------------------------------------------------------------
# Fringe geometry.


def _shift_lattice(cfg, scheme):
    """Phases asin(2jh/alpha0), then pi/2, of a lattice in c = alpha0*sin(phi)/2,
    through which alone P depends on phi, in chunks of 1, then of _FIRST_CELLS table
    cells (phases x outcomes, at least 1 phase; a smaller array round is mostly numpy
    dispatch) doubling to _SIDE_CHUNK phases.  h = min(2a, b - 2a, 1)/20 (no b - 2a
    for one bin) is at least 0.01: the Gaussian (deviation 1/2 in c) damps finer
    structure below rounding.  c ends at alpha0/2, or where every P and P' underflows."""
    a, b = scheme.half_width, scheme.spacing
    h = max(min(2.0 * a, b - 2.0 * a if scheme.cutoff else 1.0, 1.0), 0.2) / 20.0
    n = int(min(0.5 * cfg.alpha0, scheme.cutoff * b + a + _ERFC_ZERO / math.sqrt(2.0)) / h)
    lo, size, first = 1, 1, max(1, _FIRST_CELLS // scheme.n_outcomes)
    while lo <= n + 1:  # 2c/alpha0 may round above 1, where asin raises
        j = np.arange(lo, min(lo + size, n + 2))
        sines = np.where(j > n, 1.0, np.fmin(1.0, 2.0 * j * h / cfg.alpha0))
        yield list(map(math.asin, sines.tolist()))
        lo, size = lo + size, min(max(2 * size, first), _SIDE_CHUNK)


def _root_rows(rows, col, target=0.0):
    """Brent's root of row[col] - target between the two phases of rows, a dict
    of rows by phase, as a search sent rows, each kept in rows (rows[root])."""
    bracket = sorted(rows)
    brent = _brent(bracket, target, [rows[x][col] for x in bracket])
    try:
        (x,) = next(brent)
        while True:
            (rows[x],) = yield [x]
            (x,) = brent.send([rows[x][col]])
    except StopIteration as done:
        return done.value


def _half_crossing(center, dark, orient):
    """The half-depth crossing between a fringe's center and its dark point,
    (phase, row) pairs with the signal at row[0] (orient +1 for a peak, -1 for
    a dip), as a search sent rows.  Brent's stop follows its bracket, so the
    crossing is good to rounding whatever the bracket."""
    f0, f_dark = center[1][0], dark[1][0]
    if orient * (f0 - f_dark) <= 1e-10 * max(abs(f0), abs(f_dark)):
        raise NoFringe("fringe depth within rounding noise")
    try:
        return (yield from _root_rows(dict((center, dark)), 0, 0.5 * (f0 + f_dark)))
    except NoSignChange as exc:
        raise NoFringe("fringe shallower than half depth") from exc


def _sign(row):
    """-1.0, 0.0 or 1.0: the sign of a row's slope row[1], zero below _SLOPE_FLOOR."""
    return 0.0 if abs(row[1]) < _SLOPE_FLOOR else math.copysign(1.0, row[1])


def _run_end(lattice, side, rows, k, sign):
    """(end, row there) of a run of one slope sign, as a search sent rows
    (slope at [1]), from the (phase, row) pairs rows[k:] on and then along
    one side's lattice: the first row of zero slope, the last row (+-pi/2),
    or where the slope turns, of the rows that _root_rows reads for the
    slope's root between the two rows around the turn, the nearest the root
    with a slope of 0 or of sign, so the sign holds to it.  Brent's stop
    follows the bracket, so that end is good to rounding at any nbar."""
    while True:
        for j in range(k, len(rows)):
            if _sign(rows[j][1]) != sign:
                if not _sign(rows[j][1]):
                    return rows[j]
                turn = dict(rows[j - 1:j + 1])
                root = yield from _root_rows(turn, 1)
                return min(((x, row) for x, row in turn.items() if row[1] * sign >= 0.0),
                           key=lambda end: abs(end[0] - root))
        chunk, k = [side * q for q in next(lattice, ())], len(rows)
        if not chunk:
            return rows[-1]
        rows += zip(chunk, (yield chunk))


def _fringe_search(cfg, scheme):
    """The two _half_crossing searches of the central fringe, left then right,
    as a search (numerics._drive) sent (mean, slope, ...) rows.  The slope on
    (-pi/2, pi/2) has the sign of dS/dc, so both sides read it on _shift_lattice,
    in lockstep (the left side's error first).  Falling outward from 0 is a peak,
    rising a dip; each side's dark point is the end of its run (_run_end) from +-q_1."""
    lattice = _shift_lattice(cfg, scheme)
    (x,) = next(lattice)
    center, left, right = yield [0.0, -x, x]
    if not (left[1] > 0.0 > right[1] or left[1] < 0.0 < right[1]):
        raise NoFringe("signal is not extremal at 0")
    orient = math.copysign(1.0, left[1])
    sides = zip((-1.0, 1.0), itertools.tee(lattice), (left, right))
    darks = yield from _lockstep([
        _run_end(chunks, side, [(0.0, center), (side * x, first)], 1, -side * orient)
        for side, chunks, first in sides])
    return [_half_crossing((0.0, center), dark, orient) for dark in darks]


def _fringe_width(lo: float, hi: float) -> float:
    """hi - lo of half-maximum crossings inside (-pi/2, pi/2), if positive."""
    if lo <= -math.pi / 2 or hi >= math.pi / 2:
        raise NoFringe("half-maximum crossings escape (-pi/2, pi/2)")
    if hi - lo <= 0.0:
        raise NoFringe(f"zero-width fringe: both crossings at {lo}")
    return hi - lo


def fwhm(cfg: InterferometerConfig, scheme: BinningScheme, obs: Observable) -> float:
    """Full width at half maximum of the central signal fringe around phi=0.

    The baseline on each side is the signal at its dark point, where the
    run of one slope sign outward from the center ends, by the rule that
    ends a monotone_branch (_run_end): where the fringe turns back, where
    its slope falls below _SLOPE_FLOOR, or at +-pi/2.
    Raises NoFringe when the center is not extremal, when a crossing is
    missing or falls outside (-pi/2, pi/2), when a side's depth is at most
    1e-10 of the signal (rounding noise), or when both crossings coincide.
    The walk reads the mean and slope (order 1), the two crossings, in
    lockstep, the mean alone (order 0).
    """
    _check_alphabet(obs, scheme)
    searches = _drive(lambda xs: _signal_rows(cfg, scheme, obs, xs, 1), _fringe_search(cfg, scheme))
    crossings = _drive(lambda xs: _signal_rows(cfg, scheme, obs, xs, 0), _lockstep(searches))
    return _fringe_width(*sorted(crossings))


def fwhm_continuous(cfg: InterferometerConfig) -> float:
    """Width of the un-binned reference fringe |mean quadrature| at half
    depth, centered on its peak at phi=pi/2, whose dark points are 0 and pi;
    equals 2*pi/3."""
    evaluate = lambda xs: [(f,) for f in np.abs(continuous_signal(cfg, xs)).tolist()]
    center, left, right = zip([math.pi / 2, 0.0, math.pi], evaluate([math.pi / 2, 0.0, math.pi]))
    crossing = lambda dark: _drive(evaluate, _half_crossing(center, dark, 1.0))
    return crossing(right) - crossing(left)


def signal_peaks(cfg: InterferometerConfig, scheme: BinningScheme) -> list[float]:
    """Phases arcsin(2*k*spacing/alpha0) for reachable bins, plus mirrors.

    Mirrors pi - phi_k are wrapped to (-pi, pi].  Per-outcome probabilities
    peak at the opposite sign, -arcsin(2*k*spacing/alpha0); the set is the
    same because k runs symmetrically, so callers that care about which bin
    owns a peak should use the sign convention of the quadrature mean.
    """
    points = set()
    for k in scheme.bin_indices():
        x = 2.0 * k * scheme.spacing / cfg.alpha0
        if abs(x) > 1.0:
            continue
        peak = math.asin(x)
        mirror = math.pi - peak
        if mirror > math.pi:
            mirror -= 2.0 * math.pi
        points.update((peak, mirror))
    return sorted(points)


def best_sensitivity(cfg: InterferometerConfig, scheme: BinningScheme,
                     obs: Observable | None) -> tuple[float, float]:
    """(phi_min, dphi_min) over phi in [0, pi/2].

    With an observable, minimizes error_propagation_sensitivity, read off
    _signal_rows; with None, the Cramer-Rao bound, read off _bound_rows.
    It scans 0 and _shift_lattice, which follows alpha0 and spans every phase
    where dphi is finite, in one round, then refines its valleys; a round is
    one evaluation.  Raises DegenerateSignal if dphi is NaN at a scan phase.
    """
    if obs is None:
        evaluate = lambda xs: _bound_rows(cfg, scheme, xs)
    else:
        _check_alphabet(obs, scheme)
        evaluate = lambda xs: _signal_rows(cfg, scheme, obs, xs)
    return _drive(evaluate, _sensitivity_search(cfg, scheme))


def _sensitivity_search(cfg, scheme):
    """best_sensitivity as a search (numerics._drive) sent rows ending in dphi and its
    stationarity column.  A scan, one round, finds the valleys (below the point before,
    not above the one after), or raises DegenerateSignal at its first NaN dphi; each
    valley goes in lockstep to Brent's root of the column between it and the first
    neighbour across which the column changes sign, else keeps its scan point.
    (phi, dphi) of the least dphi, the first on ties."""
    xs = [0.0, *itertools.chain.from_iterable(_shift_lattice(cfg, scheme))]
    rows = yield xs
    fs, turns, last = [row[-2] for row in rows], [row[-1] for row in rows], len(xs) - 1
    nans = [x for x, f in zip(xs, fs) if math.isnan(f)]
    if nans:
        raise DegenerateSignal(f"dphi is NaN at scan phase {nans[0]}")

    def refine(i):
        j = next((j for j in (i - 1, i + 1) if 0 <= j <= last and turns[i] * turns[j] < 0.0), i)
        bracket = {xs[i]: rows[i], xs[j]: rows[j]}
        root = xs[i] if j == i else (yield from _root_rows(bracket, -1))
        return root, bracket[root]

    valleys = [refine(i) for i in range(last + 1)
               if (i == 0 or fs[i] < fs[i - 1]) and (i == last or fs[i] <= fs[i + 1])]
    best = min((yield from _lockstep(valleys)), key=lambda point: point[1][-2],
               default=(0.0, rows[0]))
    return best[0], best[1][-2]


# ---------------------------------------------------------------------------
# Parameter sweeps.


@dataclass(frozen=True)
class SweepGrid:
    """Figures of merit for the binary scheme on an (nbar, a) grid.

    Matrices are indexed [i][j] = (nbar_axis[i], a_axis[j]); cells where a
    quantity is undefined hold nan.
    """

    nbar_axis: tuple[float, ...]
    a_axis: tuple[float, ...]
    resolution_ratio: np.ndarray
    sensitivity_ratio: np.ndarray
    visibility: np.ndarray

    def __post_init__(self):
        shape = (len(self.nbar_axis), len(self.a_axis))
        for m in (self.resolution_ratio, self.sensitivity_ratio, self.visibility):
            if m.shape != shape:
                raise ValueError(f"matrix shape {m.shape} does not match axes {shape}")


def sweep(nbar_axis, a_axis) -> SweepGrid:
    """Binary-scheme merit grid: (2pi/3)/FWHM, (1/sqrt(nbar))/dphi_min and
    visibility at each (nbar, a), from fwhm, best_sensitivity and visibility
    called in turn; nan where fwhm raises NoFringe, dphi_min is not finite
    and positive, or visibility raises DegenerateSignal.  Any other error
    propagates.  An empty, non-finite or unsorted axis raises ValueError first."""
    nbar_axis = tuple(float(v) for v in nbar_axis)
    a_axis = tuple(float(v) for v in a_axis)
    for name, axis in (("nbar_axis", nbar_axis), ("a_axis", a_axis)):
        if len(axis) == 0 or not all(map(math.isfinite, axis)):  # NaN passes the order test
            raise ValueError(f"{name} must be nonempty and finite, got {axis}")
        if any(y <= x for x, y in zip(axis, axis[1:])):
            raise ValueError(f"{name} must be strictly ascending")

    shape = (len(nbar_axis), len(a_axis))
    res, sens, vis = (np.full(shape, math.nan) for _ in range(3))
    obs = Observable((1.0,), 0.0)
    for i, nbar in enumerate(nbar_axis):
        cfg = InterferometerConfig.from_nbar(nbar)
        for j, a in enumerate(a_axis):
            scheme = BinningScheme.binary(a)
            with suppress(NoFringe):
                res[i, j] = (2.0 * math.pi / 3.0) / fwhm(cfg, scheme, obs)
            _, dphi_min = best_sensitivity(cfg, scheme, obs)
            if math.isfinite(dphi_min) and dphi_min > 0.0:
                sens[i, j] = (1.0 / math.sqrt(nbar)) / dphi_min
            with suppress(DegenerateSignal):
                vis[i, j] = visibility(cfg, scheme, obs)
    return SweepGrid(nbar_axis, a_axis, res, sens, vis)
