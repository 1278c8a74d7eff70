"""Estimation-theoretic figures of merit for the binned homodyne readout.

Signals of arbitrary eigenvalue assignments, error-propagation sensitivity,
classical Fisher information with its Cramer-Rao bound, fringe visibility
and width, peak locations, best-sensitivity search, and 2-D parameter
sweeps over (nbar, a) for the binary scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .interferometer import BinningScheme, InterferometerConfig, outcome_table
from .numerics import NoSignChange, chunked_walk, find_root, minimize_scalar

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

    @property
    def cutoff(self) -> int:
        return (len(self.bin_values) - 1) // 2

    @property
    def is_binary(self) -> bool:
        return len(set(self.bin_values) | {self.leftover_value}) == 2

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


@dataclass(frozen=True)
class SignalPoint:
    """Signal at one phase (floats) or on a phase array (arrays like phi)."""

    phi: float | np.ndarray
    mean: float | np.ndarray
    second_moment: float | np.ndarray
    slope: float | np.ndarray

    @property
    def variance(self):
        var = np.maximum(self.second_moment - self.mean * self.mean, 0.0)
        return float(var) if var.ndim == 0 else var


def signal(cfg: InterferometerConfig, scheme: BinningScheme,
           obs: Observable, phi) -> SignalPoint:
    """Mean, second moment, and phase slope of the observable at phi, a
    float or a 1-D array of phases."""
    _check_alphabet(obs, scheme)
    scalar, probs, derivs = _table(cfg, scheme, phi)
    mu = obs.all_values()
    return SignalPoint(
        phi=float(phi) if scalar else np.array(phi, dtype=np.float64),
        mean=_shaped(scalar, _row_sums(mu * probs)),
        second_moment=_shaped(scalar, _row_sums(mu * mu * probs)),
        slope=_shaped(scalar, _row_sums(mu * derivs)),
    )


def error_propagation_sensitivity(cfg: InterferometerConfig, scheme: BinningScheme,
                                  obs: Observable, phi):
    """Phase uncertainty sqrt(Var)/|slope|; +inf where the signal is flat.

    phi is a float or a 1-D array of phases; the result has the same shape.
    The variance is accumulated in centered form sum (mu - mean)^2 P, which
    stays accurate when an eigenvalue offset dwarfs the spread (the raw
    second_moment - mean^2 difference cancels catastrophically there).
    """
    _check_alphabet(obs, scheme)
    scalar, probs, derivs = _table(cfg, scheme, phi)
    mu = obs.all_values()
    slopes = _row_sums(mu * derivs)
    means = np.array(_row_sums(mu * probs))
    variances = _row_sums((mu - means[:, None]) ** 2 * probs)
    return _shaped(scalar, [
        math.inf if abs(slope) < _SLOPE_FLOOR else math.sqrt(var) / abs(slope)
        for slope, var in zip(slopes, variances)
    ])


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


def crb(cfg: InterferometerConfig, scheme: BinningScheme, phi):
    """Cramer-Rao phase bound 1/sqrt(cfi); +inf where the information dies.

    phi is a float or a 1-D array of phases; the result has the same shape.
    """
    scalar, probs, derivs = _table(cfg, scheme, phi)
    return _shaped(scalar, [
        math.inf if f < _CFI_FLOOR else 1.0 / math.sqrt(f)
        for f in _fisher_rows(probs, derivs)
    ])


def binary_sensitivity(cfg: InterferometerConfig, scheme: BinningScheme, phi):
    """sqrt(P(1-P))/|P'| of the single bin; eigenvalue-free form.

    phi is a float or a 1-D array of phases; the result has the same shape.
    """
    if scheme.cutoff != 0:
        raise SchemeNotBinary(f"cutoff must be 0, got {scheme.cutoff}")
    scalar, probs, derivs = _table(cfg, scheme, phi)
    return _shaped(scalar, [
        math.inf if abs(dp) < _SLOPE_FLOOR else math.sqrt(p * (1.0 - p)) / abs(dp)
        for p, dp in zip(probs[:, 0].tolist(), derivs[:, 0].tolist())
    ])


def binarized_cfi(cfg: InterferometerConfig, scheme: BinningScheme,
                  obs: Observable, phi: float) -> float:
    """Fisher information after coarse-graining outcomes that share an
    eigenvalue (exact value comparison, no tolerance)."""
    _check_alphabet(obs, scheme)
    probs, derivs = outcome_table(cfg, scheme, [phi])
    groups: dict[float, list[int]] = {}
    for col, value in enumerate(obs.bin_values + (obs.leftover_value,)):
        groups.setdefault(value, []).append(col)
    p_row, d_row = probs[0].tolist(), derivs[0].tolist()
    total = 0.0
    for cols in groups.values():
        q = math.fsum(p_row[c] for c in cols)
        dq = math.fsum(d_row[c] for c in cols)
        if q >= _PROB_FLOOR:
            total += dq * dq / q
    return total


def visibility(cfg: InterferometerConfig, scheme: BinningScheme,
               obs: Observable) -> float:
    """(s(0) - s(pi/2)) / (s(0) + s(pi/2)) of the signal mean."""
    s_bright, s_dark = signal(cfg, scheme, obs, [0.0, math.pi / 2]).mean.tolist()
    denom = s_bright + s_dark
    if abs(denom) < 1e-14:
        raise DegenerateSignal(f"signal means cancel: {s_bright} + {s_dark}")
    return (s_bright - s_dark) / denom


def visibility_boundary(half_width: float, target: float) -> float:
    """Smallest nbar whose binary {1, 0} fringe visibility reaches target.

    Brent's method over nbar in [1e-6, 1e4]; visibility grows monotonically
    with nbar at fixed half_width.
    """
    if target >= 1.0:
        raise ValueError(f"target visibility must be below 1, got {target}")
    lo, hi = 1e-6, 1e4
    if target <= 0.0:
        return lo
    scheme = BinningScheme.binary(half_width)
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
    if np.ndim(phi) == 0:
        return -0.5 * cfg.alpha0 * math.sin(phi)
    return np.array([-0.5 * cfg.alpha0 * math.sin(x)
                     for x in np.asarray(phi, dtype=np.float64).tolist()])


# ---------------------------------------------------------------------------
# Fringe geometry.


def _fringe_half_crossings(f, center: float, scan_step: float = 0.002,
                           max_span: float = math.pi) -> tuple[float, float]:
    """Half-depth crossings (left, right) of the fringe of f around center.

    Orientation is taken from the neighborhood of the center: a dip is
    flipped so the fringe is always treated as a peak.  Each side walks
    outward to its first local minimum (the fringe-local baseline), refines
    it, and brackets the half-level crossing between center and that dark
    point.  f takes a float or a 1-D array of phases; the walk evaluates it
    on chunks of steps (see chunked_walk).
    """
    f0 = f(center)
    left_probe = f(center - scan_step)
    right_probe = f(center + scan_step)
    if left_probe < f0 and right_probe < f0:
        h = f
    elif left_probe > f0 and right_probe > f0:
        h = lambda x: -f(x)
        f0 = -f0
    else:
        raise NoFringe(f"signal is not extremal at center {center}")

    crossings = []
    for sign in (-1.0, 1.0):
        prev_x, prev_v = center, f0
        dark = None
        steps = int(max_span / scan_step)
        for x, v in chunked_walk(h, center, sign, scan_step, steps):
            if v > prev_v:
                # passed a local minimum; refine it within the last window
                lo = min(prev_x - sign * scan_step, x)
                hi = max(prev_x - sign * scan_step, x)
                dark, dark_val = minimize_scalar(h, (lo, hi), grid_points=64)
                break
            prev_x, prev_v = x, v
        if dark is None:
            raise NoFringe("no dark point within half a period of the center")
        level = 0.5 * (f0 + dark_val)
        try:
            crossing = find_root(lambda x: h(x) - level,
                                 (min(center, dark), max(center, dark)))
        except NoSignChange as exc:
            raise NoFringe("fringe shallower than half depth") from exc
        crossings.append(crossing)

    return min(crossings), max(crossings)


def fwhm(cfg: InterferometerConfig, scheme: BinningScheme, obs: Observable) -> float:
    """Full width at half maximum of the central signal fringe around phi=0.

    The baseline on each side is the signal value at the first dark point;
    half level is midway between peak and baseline.  Raises NoFringe when a
    crossing is missing or falls outside (-pi/2, pi/2).
    """
    _check_alphabet(obs, scheme)
    lo, hi = _fringe_half_crossings(
        lambda phi: signal(cfg, scheme, obs, phi).mean, 0.0
    )
    if lo <= -math.pi / 2 or hi >= math.pi / 2:
        raise NoFringe("half-maximum crossings escape (-pi/2, pi/2)")
    return hi - lo


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
    from the slope zeros at 0 and pi/2 where the objective diverges.
    """
    if obs is None:
        objective = lambda phi: crb(cfg, scheme, phi)
    else:
        _check_alphabet(obs, scheme)
        objective = lambda phi: error_propagation_sensitivity(cfg, scheme, obs, phi)
    return minimize_scalar(objective, (1e-4, math.pi / 2 - 1e-4))


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
    fringe, degenerate signal) are recorded as nan."""
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
            try:
                res[i, j] = (2.0 * math.pi / 3.0) / fwhm(cfg, scheme, obs)
            except NoFringe:
                pass
            _, dphi_min = best_sensitivity(cfg, scheme, obs)
            if math.isfinite(dphi_min) and dphi_min > 0.0:
                sens[i, j] = (1.0 / math.sqrt(nbar)) / dphi_min
            try:
                vis[i, j] = visibility(cfg, scheme, obs)
            except DegenerateSignal:
                pass
    return SweepGrid(nbar_axis, a_axis, res, sens, vis)
