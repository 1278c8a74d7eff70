"""Self-contained numerical kernels.

Error function via fixed rational approximations (no platform-dependent
special-function library, so CSV output is bit-stable across machines),
a bracketing Brent root finder, a grid-scan + golden-section minimizer,
central finite differences, and deterministic counter-based uniform
random streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Interval",
    "NoConvergence",
    "NoSignChange",
    "RandomStream",
    "central_diff",
    "erf",
    "erf_diff",
    "erfc",
    "find_root",
    "minimize_scalar",
    "chunked_walk",
]


class NoSignChange(ValueError):
    """Root bracket endpoints do not straddle a sign change."""


class NoConvergence(RuntimeError):
    """A search reached its iteration cap without meeting its tolerance.

    Not a ValueError: the inputs were valid, the search failed on them.
    """


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


# ---------------------------------------------------------------------------
# Error function.
#
# Rational minimax approximations after W. J. Cody, "Rational Chebyshev
# approximation for the error function" (the SPECFUN/CALERF coefficients).
# Relative error is a few ulp over the whole double range, far below the
# 1e-14 absolute bound documented for erf().  Only exp/sqrt primitives are
# used, with fixed coefficients, so results do not depend on the platform's
# libm erf.

_THRESH = 0.46875
_SQRPI = 5.6418958354775628695e-1  # 1/sqrt(pi)
_ERFC_ZERO = 26.543  # erfc underflows to 0 beyond this

_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
      3.20937758913846947e03, 1.85777706184603153e-1)
_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
      2.84423683343917062e03)
_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
      2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
      2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
      1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
      3.43936767414372164e03, 1.23033935480374942e03)
_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
      1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_Q = (2.56852019228982242e00, 1.87295284992346047e00, 5.27905102951428412e-1,
      6.05183413124413191e-2, 2.33520497626869185e-3)


def _erf_rational_small(x):
    """erf(x) for |x| <= _THRESH; odd in x by construction."""
    ysq = x * x
    xnum = _A[4] * ysq
    xden = ysq
    for a, b in zip(_A[:3], _B[:3]):
        xnum = (xnum + a) * ysq
        xden = (xden + b) * ysq
    return x * (xnum + _A[3]) / (xden + _B[3])


def _erfc_positive(y):
    """erfc(y) for y >= _THRESH."""
    out = np.empty_like(y)
    mid = y <= 4.0
    ym = y[mid]
    xnum = _C[8] * ym
    xden = ym
    for c, d in zip(_C[:7], _D[:7]):
        xnum = (xnum + c) * ym
        xden = (xden + d) * ym
    r = (xnum + _C[7]) / (xden + _D[7])
    # exp(-y^2) split as exp(-t^2)*exp(-(y-t)(y+t)) with t = trunc(16y)/16
    # keeps the argument of each exp exactly representable.
    t = np.trunc(ym * 16.0) / 16.0
    out[mid] = np.exp(-t * t) * np.exp(-(ym - t) * (ym + t)) * r

    far = ~mid
    yf = y[far]
    ysq = 1.0 / (yf * yf)
    xnum = _P[5] * ysq
    xden = ysq
    for p, q in zip(_P[:4], _Q[:4]):
        xnum = (xnum + p) * ysq
        xden = (xden + q) * ysq
    r = ysq * (xnum + _P[4]) / (xden + _Q[4])
    r = (_SQRPI - r) / yf
    t = np.trunc(yf * 16.0) / 16.0
    out[far] = np.exp(-t * t) * np.exp(-(yf - t) * (yf + t)) * r

    out[y > _ERFC_ZERO] = 0.0
    return out


def _erf_parts(v):
    """(erf(v), erfc(|v|)) of a float64 array.  Each rational form is
    evaluated once: the small one where |v| <= _THRESH, the tail one where
    |v| >= _THRESH or v is NaN; erfc(|v|) is 0 where |v| < _THRESH."""
    y = np.abs(v)
    tail = ~(y < _THRESH)
    c = np.zeros_like(v)
    c[tail] = _erfc_positive(y[tail])
    f = np.sign(v) * (1.0 - c)
    small = y <= _THRESH
    f[small] = _erf_rational_small(v[small])
    return f, c


def erf(x):
    """Error function, |absolute error| <= 1e-14 for all finite x.

    Accepts a float or ndarray; odd symmetry erf(-x) = -erf(x) is exact
    because the sign is applied after evaluating at |x|.
    """
    arr = np.asarray(x, dtype=np.float64)
    f, _ = _erf_parts(np.atleast_1d(arr))
    return float(f[0]) if arr.ndim == 0 else f


def erfc(x):
    """Complementary error function 1 - erf(x), accurate in the far tail."""
    arr = np.asarray(x, dtype=np.float64)
    v = np.atleast_1d(arr)
    f, c = _erf_parts(v)
    out = np.where(v > _THRESH, c, np.where(v < -_THRESH, 2.0 - c, 1.0 - f))
    return float(out[0]) if arr.ndim == 0 else out


def erf_diff(x, y):
    """erf(y) - erf(x) without catastrophic cancellation.

    When both arguments sit in the same tail (beyond +-_THRESH) the
    difference is formed from erfc values, which keeps the *relative*
    error small even when erf(x) and erf(y) both round to +-1.
    """
    bx, by = np.broadcast_arrays(np.asarray(x, dtype=np.float64),
                                 np.asarray(y, dtype=np.float64))
    scalar = bx.ndim == 0
    bx = np.atleast_1d(bx)
    by = np.atleast_1d(by)
    (fx, fy), (cx, cy) = _erf_parts(np.stack((bx, by)))

    out = np.where((bx >= _THRESH) & (by >= _THRESH), cx - cy,
                   np.where((bx <= -_THRESH) & (by <= -_THRESH), cy - cx,
                            fy - fx))
    out[bx == by] = 0.0
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Root finding and minimization.


def find_root(f: Callable[[float], float], bracket, tol: float = 1e-12) -> float:
    """Brent's method on a sign-changing bracket.

    Inverse-quadratic/secant steps with a bisection fallback, so
    convergence is guaranteed once the endpoints straddle a sign change.
    Terminates when the bracket width falls below ~tol.

    Raises NoSignChange if f has the same sign at both endpoints, and
    NoConvergence if the bracket is still wider than ~tol after 200
    iterations.
    """
    if isinstance(bracket, Interval):
        a, b = bracket.lo, bracket.hi
    else:
        a, b = bracket
    if not a < b:
        raise ValueError("bracket must satisfy lo < hi")
    if tol <= 0:
        raise ValueError("tol must be positive")

    fa = f(a)
    fb = f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise NoSignChange(f"f({a}) = {fa} and f({b}) = {fb} have the same sign")

    c, fc = a, fa
    d = e = b - a
    eps = float(np.finfo(float).eps)
    for _ in range(200):
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * eps * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += tol1 if xm > 0 else -tol1
        fb = f(b)
    raise NoConvergence(
        f"bracket [{min(b, c)}, {max(b, c)}] still wider than tol={tol} "
        f"after 200 iterations"
    )


def minimize_scalar(f: Callable[[float], float], bracket, tol: float = 1e-10,
                    grid_points: int = 512):
    """Global grid scan followed by golden-section refinement.

    The target functions here (e.g. sensitivity vs phase) have many local
    minima, so a dense scan locates the global basin before the local
    refinement; a pure descent method would latch onto the wrong valley.

    Returns (x_min, f_min).
    """
    if isinstance(bracket, Interval):
        lo, hi = bracket.lo, bracket.hi
    else:
        lo, hi = bracket
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    n = max(int(grid_points), 3)
    xs = np.linspace(lo, hi, n)
    fs = np.array([f(x) for x in xs])
    i = int(np.argmin(fs))
    best_x, best_f = float(xs[i]), float(fs[i])

    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, n - 1)])
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    for x, fx in ((c, fc), (d, fd)):
        if fx < best_f:
            best_x, best_f = float(x), float(fx)
    return best_x, best_f


_FIRST_CHUNK = 16


def chunked_walk(f: Callable, start: float, direction: float, step: float,
                 n_steps: int):
    """Yield (x_i, f(x_i)) for x_i = start + direction*i*step, i = 1..n_steps.

    f maps a 1-D array of points to an array of values.  It is called on
    chunks of consecutive steps that double in size from 16 points, so a
    caller that stops after a few steps evaluates f on few points, and one
    that walks all n_steps makes O(log n_steps) calls.  x_i and f(x_i) are
    floats, and x_i is the scalar expression above, so a caller sees what a
    step-by-step walk with a vectorised f would see.
    """
    lo, size = 1, _FIRST_CHUNK
    while lo <= n_steps:
        hi = min(lo + size, n_steps + 1)
        xs = [start + direction * i * step for i in range(lo, hi)]
        yield from zip(xs, f(np.array(xs)).tolist())
        lo, size = hi, 2 * size


def central_diff(f: Callable[[float], float], x: float, h: float) -> float:
    """Second-order central difference (f(x+h) - f(x-h)) / (2h)."""
    if h <= 0:
        raise ValueError("h must be positive")
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# Random streams.


class RandomStream:
    """Deterministic uniform stream over [0, 1).

    Built on the Philox 4x64 counter-based generator with
    key = (master_seed, stream_index), so the pair fully determines the
    sequence: streams with different indices are statistically independent
    and reproducible regardless of how many other streams exist or in what
    order they are consumed.  Treat instances as values; create a fresh one
    per consumer instead of sharing.
    """

    def __init__(self, master_seed: int, stream_index: int = 0):
        master_seed = int(master_seed)
        stream_index = int(stream_index)
        if not 0 <= master_seed < 2 ** 64:
            raise ValueError("master_seed must fit in uint64")
        if not 0 <= stream_index < 2 ** 64:
            raise ValueError("stream_index must fit in uint64")
        self.master_seed = master_seed
        self.stream_index = stream_index
        key = np.array([master_seed, stream_index], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self, size=None):
        """Draw uniforms in [0, 1); a scalar when size is None."""
        return self._gen.random(size)

    def __repr__(self):
        return f"RandomStream(master_seed={self.master_seed}, stream_index={self.stream_index})"
