"""Mach-Zehnder interferometer with binned homodyne readout.

A coherent state |alpha0> enters one port, vacuum the other.  After the
phase phi the measured p-quadrature of output mode a is Gaussian,

    P(p|phi) = sqrt(2/pi) * exp(-2*(p + (alpha0/2)*sin(phi))**2),

with the vacuum convention Var(p) = 1/4.  The homodyne record is coarse
grained into 2*cutoff+1 bins of half-width a centered at k*b for
k = -cutoff..cutoff, plus a leftover outcome collecting everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import _erf_diff_floats, _integer, _row_sums, erf_diff

__all__ = [
    "BinningScheme",
    "InterferometerConfig",
    "InvalidScheme",
    "OutcomeDistribution",
    "default_cutoff",
    "outcome_derivs",
    "outcome_distribution",
    "outcome_probs",
    "outcome_table",
    "quadrature_pdf",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRTPI = 1.0 / math.sqrt(math.pi)


class InvalidScheme(ValueError):
    """Binning parameters violate a > 0, b > 2a, or cutoff >= 0."""


@dataclass(frozen=True)
class InterferometerConfig:
    """Input coherent amplitude alpha0 > 0 (mean photon number alpha0**2)."""

    alpha0: float

    def __post_init__(self):
        if not self.alpha0 > 0:
            raise ValueError(f"alpha0 must be positive, got {self.alpha0}")
        if not math.isfinite(self.alpha0):
            raise ValueError(f"alpha0 must be finite, got {self.alpha0}")

    @property
    def nbar(self) -> float:
        return self.alpha0 * self.alpha0

    @classmethod
    def from_nbar(cls, nbar: float) -> "InterferometerConfig":
        if not 0 < nbar < math.inf:
            raise ValueError(f"nbar must be positive and finite, got {nbar}")
        return cls(math.sqrt(nbar))


@dataclass(frozen=True)
class BinningScheme:
    """Bins [k*spacing - half_width, k*spacing + half_width], k = -cutoff..cutoff.

    spacing > 2*half_width keeps the bins disjoint.
    """

    half_width: float
    spacing: float
    cutoff: int

    def __post_init__(self):
        if not self.half_width > 0:
            raise InvalidScheme(f"half_width must be positive, got {self.half_width}")
        if not self.spacing > 2.0 * self.half_width:
            raise InvalidScheme(
                f"spacing must exceed 2*half_width, got spacing={self.spacing}, "
                f"half_width={self.half_width}"
            )
        if not math.isfinite(self.spacing):
            raise InvalidScheme(f"spacing must be finite, got {self.spacing}")
        try:
            object.__setattr__(self, "cutoff", _integer("cutoff", self.cutoff, 0))
        except ValueError as exc:
            raise InvalidScheme(str(exc))

    @classmethod
    def binary(cls, half_width: float) -> "BinningScheme":
        # single bin at the origin; spacing is irrelevant for cutoff=0 but
        # must still satisfy the disjointness invariant
        return cls(half_width, 4.0 * half_width, 0)

    @property
    def n_outcomes(self) -> int:
        return 2 * self.cutoff + 2

    def bin_indices(self) -> np.ndarray:
        return np.arange(-self.cutoff, self.cutoff + 1)

    def centers(self) -> np.ndarray:
        return self.spacing * self.bin_indices()


def default_cutoff(cfg: InterferometerConfig, half_width: float, spacing: float) -> int:
    """Cutoff covering the signal swing: round(alpha0 / (2*spacing)).

    Rounds to nearest, ties away from zero, so the outermost bins sit at
    the quadrature turning points +-alpha0/2.  Raises InvalidScheme for a
    half width and spacing that no BinningScheme accepts.
    """
    BinningScheme(half_width, spacing, 0)
    x = cfg.alpha0 / (2.0 * spacing)
    return int(math.floor(x + 0.5))


# ---------------------------------------------------------------------------
# Quadrature distribution.


def _finite_phase(phi) -> float:
    """phi as a float.  A NaN or infinite phase has no quadrature shift,
    table row, prefix sums or slope, so every caller rejects it here."""
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {phi}")
    return phi


def _finite_phases(phis) -> list:
    """phis, a 1-D array of phases, as a list of finite floats."""
    phis = np.asarray(phis, dtype=np.float64)
    if phis.ndim != 1:
        raise ValueError(f"phis must be a 1-D array, got shape {phis.shape}")
    if not np.isfinite(phis).all():  # name the first non-finite phase
        _finite_phase(phis[np.argmin(np.isfinite(phis))])
    return phis.tolist()


def quadrature_pdf(cfg: InterferometerConfig, phi: float, p):
    """Closed-form pdf of the measured p quadrature at phase phi."""
    shift = 0.5 * cfg.alpha0 * math.sin(_finite_phase(phi))
    arr = np.asarray(p, dtype=np.float64)
    out = math.sqrt(2.0 / math.pi) * np.exp(-2.0 * (arr + shift) ** 2)
    return float(out) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# Binned outcome probabilities.


def _erf_limits(cfg, scheme, phis):
    """(phis as a list, G_minus, G_plus), each G of shape [n_phi, 2*cutoff+1].

    P(k|phi) integrates the Gaussian over bin k, which in erf form uses
    G+- = sqrt(2)*(alpha0*sin(phi)/2 + k*spacing +- half_width).  The sine
    is math.sin of each phase, so a row does not depend on the grid it is in.
    A NaN or infinite phase raises ValueError (see _finite_phase).
    """
    phis = _finite_phases(phis)
    c = 0.5 * cfg.alpha0 * np.array(list(map(math.sin, phis)))
    shift = _SQRT2 * (c[:, None] + scheme.centers())
    ga = _SQRT2 * scheme.half_width
    return phis, shift - ga, shift + ga


def _probs(g_lo, g_hi):
    # a bin narrower than erf's rounding can read -5.6e-17; NaN stays NaN
    bins = 0.5 * erf_diff(g_lo, g_hi)
    bins[bins < 0.0] = 0.0
    return np.column_stack((bins, np.fmax(0.0, 1.0 - _row_sums(bins))))


def _derivs(cfg, phis, g_lo, g_hi):
    # d/dphi [erf(G)] = (2/sqrt(pi)) exp(-G^2) * dG/dphi, and both limits have
    # dG/dphi = alpha0*cos(phi)/sqrt(2), so P'(k|phi) = (1/sqrt(pi))
    # * (alpha0*cos(phi)/sqrt(2)) * (exp(-G_plus^2) - exp(-G_minus^2))
    cos = np.array(list(map(math.cos, phis)))
    factor = _INV_SQRTPI * cfg.alpha0 * cos / _SQRT2
    bins = factor[:, None] * (np.exp(-g_hi * g_hi) - np.exp(-g_lo * g_lo))
    return np.column_stack((bins, -_row_sums(bins)))


def _float_table(cfg, scheme, phis):
    """Yields outcome_table's (P, dP) rows at phis as lists of floats, from the
    array path's operations in its order, so its bits: bins by _erf_diff_floats,
    exponentials from one np.exp call (math.exp rounds some otherwise), row sums
    by math.fsum, a negative bin clamped at +0.0.  A limit past the float range
    is inf, erfc 0 in both paths."""
    centers = [scheme.spacing * k for k in range(-scheme.cutoff, scheme.cutoff + 1)]
    phis, ga, m = list(map(_finite_phase, phis)), _SQRT2 * scheme.half_width, len(centers)
    shifts = [_SQRT2 * (0.5 * cfg.alpha0 * math.sin(phi) + x) for phi in phis for x in centers]
    g_lo, g_hi = [s - ga for s in shifts], [s + ga for s in shifts]
    bins = [max(0.5 * d, 0.0) for d in _erf_diff_floats(g_lo, g_hi)]
    exps = np.exp([-g * g for g in g_hi + g_lo]).tolist()
    for i, phi in enumerate(phis):
        factor, j = _INV_SQRTPI * cfg.alpha0 * math.cos(phi) / _SQRT2, i * m
        p = bins[j:j + m]
        dp = [factor * (e_hi - e_lo) for e_hi, e_lo in zip(exps[j:j + m], exps[len(shifts) + j:])]
        yield p + [max(0.0, 1.0 - math.fsum(p))], dp + [-math.fsum(dp)]


def outcome_probs(cfg: InterferometerConfig, scheme: BinningScheme, phis):
    """The P of outcome_table alone."""
    return _probs(*_erf_limits(cfg, scheme, phis)[1:])


def outcome_derivs(cfg: InterferometerConfig, scheme: BinningScheme, phis):
    """The dP of outcome_table alone; it evaluates no error function."""
    return _derivs(cfg, *_erf_limits(cfg, scheme, phis))


def outcome_table(cfg: InterferometerConfig, scheme: BinningScheme, phis):
    """Probabilities and phi-derivatives of the whole alphabet on a phase grid.

    Returns (P, dP), each of shape [len(phis), 2*cutoff+2]: the columns are
    bins -cutoff..cutoff, then the leftover outcome.  Row i depends on
    phis[i] alone, so it equals the one-phase table of that phase bit for
    bit.  A bin is clamped at +0.0 where erf's rounding leaves it below 0.
    The leftover probability is max(0, 1 - sum of the bins) and the
    leftover derivative the negative sum of the bin derivatives, each an
    exactly rounded math.fsum of its row.  outcome_probs and outcome_derivs
    return P and dP alone, bit for bit, for a caller that reads one half.
    """
    phis, g_lo, g_hi = _erf_limits(cfg, scheme, phis)
    return _probs(g_lo, g_hi), _derivs(cfg, phis, g_lo, g_hi)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities and phi-derivatives for the full alphabet at one phase."""

    phi: float
    cutoff: int
    bin_probs: np.ndarray
    leftover_prob: float
    bin_derivs: np.ndarray
    leftover_deriv: float

    def __eq__(self, other):
        if not isinstance(other, OutcomeDistribution):
            return NotImplemented
        return ((self.phi, self.cutoff, self.leftover_prob, self.leftover_deriv)
                == (other.phi, other.cutoff, other.leftover_prob,
                    other.leftover_deriv)
                and np.array_equal(self.bin_probs, other.bin_probs)
                and np.array_equal(self.bin_derivs, other.bin_derivs))

    def all_probs(self) -> np.ndarray:
        """Bins -cutoff..cutoff then leftover: the outcome_table columns."""
        return np.append(self.bin_probs, self.leftover_prob)

    def all_derivs(self) -> np.ndarray:
        return np.append(self.bin_derivs, self.leftover_deriv)


def outcome_distribution(cfg: InterferometerConfig, scheme: BinningScheme,
                         phi: float) -> OutcomeDistribution:
    """Full alphabet probabilities and derivatives at one phase: the single
    row of outcome_table."""
    phis, g_lo, g_hi = _erf_limits(cfg, scheme, [phi])
    probs, derivs = _probs(g_lo, g_hi), _derivs(cfg, phis, g_lo, g_hi)
    return OutcomeDistribution(
        phi=float(phi),
        cutoff=scheme.cutoff,
        bin_probs=probs[0, :-1],
        leftover_prob=float(probs[0, -1]),
        bin_derivs=derivs[0, :-1],
        leftover_deriv=float(derivs[0, -1]),
    )
