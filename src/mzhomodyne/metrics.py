"""Estimation-theoretic figures of merit for the binned homodyne readout.

Signals of arbitrary eigenvalue assignments, error-propagation sensitivity,
classical Fisher information with its Cramer-Rao bound, fringe visibility
and width, peak locations, best-sensitivity search, and 2-D parameter
sweeps over (nbar, a) for the binary scheme.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .interferometer import (BinningScheme, InterferometerConfig, _finite_phase,
                             outcome_probs, outcome_table)
from .numerics import (NoSignChange, _brent, _drive, _golden, _lockstep,
                       _unwrap, _walk, find_root)

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
_SCAN_STEP = 0.002  # fringe walk step, rad
_SENSITIVITY_BAND = (1e-4, math.pi / 2 - 1e-4)

# fixed pseudorandom eigenvalue vector (bins -2..2) kept as a regression case
FIXED_RANDOM_EIGENVALUES = (-0.715, 0.068, 0.839, -0.102, 0.392)


class AlphabetMismatch(ValueError):
    """Observable does not assign eigenvalues to this scheme's alphabet."""


class SchemeNotBinary(ValueError):
    """Operation requires a single-bin (cutoff 0) scheme."""


class DegenerateSignal(ValueError):
    """Signal means cancel; visibility undefined."""


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


def _row_sums(terms: np.ndarray) -> list:
    """Exactly rounded math.fsum of each row."""
    return [math.fsum(row) for row in terms.tolist()]


def _shaped(scalar: bool, values: list):
    """A float for a scalar phase, else an array over the phases."""
    return values[0] if scalar else np.array(values, dtype=np.float64)


def _expectation(obs: Observable, table: np.ndarray) -> list:
    """sum_k mu_k T[i, k] of each row: the signal mean over outcome_probs,
    its phase slope over outcome_derivs."""
    return _row_sums(obs.all_values() * table)


def _moments(obs: Observable, probs: np.ndarray, derivs: np.ndarray):
    """(means, variances, slopes) of the observable over each table row.

    The variance is the centered sum of (mu - mean)^2 P, which stays
    accurate when an eigenvalue offset dwarfs the spread (the raw
    difference sum(mu^2 P) - mean^2 cancels catastrophically there).
    """
    means = _expectation(obs, probs)
    variances = _row_sums((obs.all_values() - np.array(means)[:, None]) ** 2 * probs)
    return means, variances, _expectation(obs, derivs)


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
    return _shaped(scalar, list(map(_sensitivity, variances, slopes)))


def _sensitivity(var: float, slope: float) -> float:
    return math.inf if abs(slope) < _SLOPE_FLOOR else math.sqrt(var) / abs(slope)


def _fisher_rows(probs: np.ndarray, derivs: np.ndarray) -> list:
    """sum of P'^2/P over each row's outcomes with P >= 1e-15."""
    return [
        math.fsum(d * d / p for p, d in zip(p_row, d_row) if p >= _PROB_FLOOR)
        for p_row, d_row in zip(probs.tolist(), derivs.tolist())
    ]


def cfi(cfg: InterferometerConfig, scheme: BinningScheme, phi):
    """Fisher information of the full outcome alphabet at phi, a float or a
    1-D array of phases.

    Terms with probability below 1e-15 are skipped: their true contribution
    [P']^2/P vanishes in the Gaussian tail, but the floating-point quotient
    can blow up first.
    """
    scalar, probs, derivs = _table(cfg, scheme, phi)
    return _shaped(scalar, _fisher_rows(probs, derivs))


def _bounds(probs: np.ndarray, derivs: np.ndarray) -> list:
    """1/sqrt(cfi) of each row; +inf where the information is below 1e-20."""
    return [math.inf if f < _CFI_FLOOR else 1.0 / math.sqrt(f)
            for f in _fisher_rows(probs, derivs)]


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
    return (means, list(map(_sensitivity, variances, slopes)),
            _bounds(probs, derivs))


def binary_sensitivity(cfg: InterferometerConfig, scheme: BinningScheme, phi):
    """sqrt(P(1-P))/|P'| of the single bin; eigenvalue-free form.

    phi is a float or a 1-D array of phases; the result has the same shape.
    """
    if scheme.cutoff != 0:
        raise SchemeNotBinary(f"cutoff must be 0, got {scheme.cutoff}")
    scalar, probs, derivs = _table(cfg, scheme, phi)
    return _shaped(scalar, [_sensitivity(p * (1.0 - p), dp) for p, dp in
                            zip(probs[:, 0].tolist(), derivs[:, 0].tolist())])


def binarized_cfi(cfg: InterferometerConfig, scheme: BinningScheme,
                  obs: Observable, phi):
    """Fisher information after coarse-graining outcomes that share an
    eigenvalue (exact value comparison, no tolerance): a group's P and P'
    are math.fsum of its columns, and the groups reduce like cfi's outcomes.
    phi is a float or a 1-D array of phases; the result has the same shape."""
    _check_alphabet(obs, scheme)
    groups: dict[float, list[int]] = {}
    for col, value in enumerate(obs.bin_values + (obs.leftover_value,)):
        groups.setdefault(value, []).append(col)
    scalar, probs, derivs = _table(cfg, scheme, phi)
    merged = [np.column_stack([_row_sums(table[:, cols]) for cols in groups.values()])
              for table in (probs, derivs)]
    return _shaped(scalar, _fisher_rows(*merged))


def visibility(cfg: InterferometerConfig, scheme: BinningScheme,
               obs: Observable) -> float:
    """(s(0) - s(pi/2)) / (s(0) + s(pi/2)) of the signal mean."""
    _check_alphabet(obs, scheme)
    return _drive(lambda xs: _expectation(obs, outcome_probs(cfg, scheme, xs)),
                  _visibility_search())


def _visibility_search():
    """visibility as a search: yields its two phases, is sent their means."""
    s_bright, s_dark = yield [0.0, math.pi / 2]
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

    def vis(nbar: float) -> float:
        return visibility(InterferometerConfig.from_nbar(nbar), scheme, obs)

    if vis(hi) < target:
        raise NoSolution(f"visibility at nbar={hi} still below {target}")
    if vis(lo) >= target:
        return lo
    return find_root(lambda nbar: vis(nbar) - target, (lo, hi), tol=1e-10)


def continuous_signal(cfg: InterferometerConfig, phi):
    """Mean measured quadrature -(alpha0/2)*sin(phi); the un-binned
    reference fringe.  phi is a float or a 1-D array of phases."""
    phis = np.asarray(phi, dtype=np.float64)
    return _shaped(phis.ndim == 0, [-0.5 * cfg.alpha0 * math.sin(_finite_phase(x))
                                    for x in np.atleast_1d(phis).tolist()])


# ---------------------------------------------------------------------------
# Fringe geometry.


def _fringe_side(center, f0, sign):
    """One side of _fringe_search, sent the fringe oriented as a peak."""
    prev_x, x = yield from _walk(center, sign, _SCAN_STEP, f0, operator.lt)
    if x is None:
        raise NoFringe("no dark point within half a period of the center")
    # passed a local minimum; refine it within the last window
    back = prev_x - sign * _SCAN_STEP
    dark, dark_val = yield from _golden((min(back, x), max(back, x)), grid_points=64)
    if f0 - dark_val <= 1e-10 * max(abs(f0), abs(dark_val)):
        raise NoFringe("fringe depth within rounding noise")
    bracket = (min(center, dark), max(center, dark))
    try:
        return (yield from _brent(bracket, 1e-12, 0.5 * (f0 + dark_val)))
    except NoSignChange as exc:
        raise NoFringe("fringe shallower than half depth") from exc


def _fringe_search(center):
    """_fringe_half_crossings as a search (see numerics._drive), sent f."""
    f0, left_probe, right_probe = yield [center, center - _SCAN_STEP, center + _SCAN_STEP]
    if left_probe < f0 and right_probe < f0:
        h = None
    elif left_probe > f0 and right_probe > f0:
        h, f0 = operator.neg, -f0
    else:
        raise NoFringe(f"signal is not extremal at center {center}")
    sides = [(_fringe_side(center, f0, s), h) for s in (-1.0, 1.0)]
    crossings = [_unwrap(side) for side in (yield from _lockstep(sides))]
    return min(crossings), max(crossings)


def _fringe_half_crossings(f, center: float) -> tuple[float, float]:
    """Half-depth crossings (left, right) of the fringe of f around center.

    Orientation is taken from the neighborhood of the center: a dip is
    flipped so the fringe is always treated as a peak.  Each side walks
    outward (numerics._walk, in steps of _SCAN_STEP for at most pi) to its
    first local minimum (the fringe-local baseline), refines it, and
    brackets the half-level crossing between center and that dark point.
    The sides run in lockstep, one call of f (on a 1-D array of phases) per
    round; the left side's error is raised first.
    """
    return _drive(lambda xs: f(np.array(xs)).tolist(), _fringe_search(center))


def _fringe_width(lo: float, hi: float) -> float:
    """hi - lo of half-maximum crossings inside (-pi/2, pi/2), if positive."""
    if lo <= -math.pi / 2 or hi >= math.pi / 2:
        raise NoFringe("half-maximum crossings escape (-pi/2, pi/2)")
    if hi - lo <= 0.0:
        raise NoFringe(f"zero-width fringe: both crossings at {lo}")
    return hi - lo


def fwhm(cfg: InterferometerConfig, scheme: BinningScheme, obs: Observable) -> float:
    """Full width at half maximum of the central signal fringe around phi=0.

    The baseline on each side is the signal value at the first dark point;
    half level is midway between peak and baseline.  Raises NoFringe when a
    crossing is missing or falls outside (-pi/2, pi/2), when a side's depth
    is at most 1e-10 of the signal (rounding noise), or when both crossings
    coincide.
    """
    _check_alphabet(obs, scheme)
    return _fringe_width(*_fringe_half_crossings(lambda phis: np.array(
        _expectation(obs, outcome_probs(cfg, scheme, phis))), 0.0))


def fwhm_continuous(cfg: InterferometerConfig) -> float:
    """Width of the un-binned reference fringe |mean quadrature| at half
    depth, centered on its peak at phi=pi/2; equals 2*pi/3 exactly."""
    lo, hi = _fringe_half_crossings(
        lambda phi: abs(continuous_signal(cfg, phi)), math.pi / 2
    )
    return hi - lo


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
    """(phi_min, dphi_min) over phi in (1e-4, pi/2 - 1e-4).

    With an observable, minimizes error_propagation_sensitivity; with None,
    minimizes the Cramer-Rao bound.  The guard band keeps the search away
    from the slope zeros at 0 and pi/2 where the objective diverges.  The
    grid scan is one outcome_table call, and so is each refinement step.
    """
    if obs is None:
        objective = lambda phis: crb(cfg, scheme, phis)
    else:
        _check_alphabet(obs, scheme)
        objective = lambda phis: error_propagation_sensitivity(cfg, scheme, obs, phis)
    return _drive(lambda xs: objective(xs).tolist(), _golden(_SENSITIVITY_BAND))


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
    """Binary-scheme merit grid: (2pi/3)/FWHM, (1/sqrt(nbar))/dphi_min, and
    visibility at each (nbar, a).  Cells that fail to produce a value (no
    fringe, degenerate signal) are recorded as nan.  A cell runs the searches
    of fwhm, best_sensitivity and visibility in lockstep, one outcome_table
    call per round, with the values and errors of those three calls."""
    nbar_axis = tuple(float(v) for v in nbar_axis)
    a_axis = tuple(float(v) for v in a_axis)
    for name, axis in (("nbar_axis", nbar_axis), ("a_axis", a_axis)):
        if len(axis) == 0:
            raise ValueError(f"{name} must be nonempty")
        if any(y <= x for x, y in zip(axis, axis[1:])):
            raise ValueError(f"{name} must be strictly ascending")

    shape = (len(nbar_axis), len(a_axis))
    res = np.full(shape, math.nan)
    sens = np.full(shape, math.nan)
    vis = np.full(shape, math.nan)
    obs = Observable((1.0,), 0.0)
    for i, nbar in enumerate(nbar_axis):
        cfg = InterferometerConfig.from_nbar(nbar)
        for j, a in enumerate(a_axis):
            scheme = BinningScheme.binary(a)

            def rows(phis):  # (mean, sensitivity) at each phase
                means, var, slopes = _moments(obs, *outcome_table(cfg, scheme, phis))
                return list(zip(means, map(_sensitivity, var, slopes)))

            mean, sensitivity = operator.itemgetter(0), operator.itemgetter(1)
            crossings, best, contrast = _drive(rows, _lockstep([
                (_fringe_search(0.0), mean), (_golden(_SENSITIVITY_BAND), sensitivity),
                (_visibility_search(), mean)]))
            try:
                res[i, j] = (2.0 * math.pi / 3.0) / _fringe_width(*_unwrap(crossings))
            except NoFringe:
                pass
            _, dphi_min = _unwrap(best)
            if math.isfinite(dphi_min) and dphi_min > 0.0:
                sens[i, j] = (1.0 / math.sqrt(nbar)) / dphi_min
            try:
                vis[i, j] = _unwrap(contrast)
            except DegenerateSignal:
                pass
    return SweepGrid(nbar_axis, a_axis, res, sens, vis)
