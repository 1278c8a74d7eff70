"""Self-contained numerical kernels.

The error function, whose one entry point is erf_diff (erf over a bin),
from fixed rational approximations (no platform-dependent special-function
library, so CSV output is bit-stable across machines); a bracketing Brent
root finder, a grid-scan + golden-section minimizer and doubling-chunk
walks (each a search that one driver runs alone or in lockstep with
others); and deterministic counter-based uniform random streams.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Interval",
    "NoConvergence",
    "NoSignChange",
    "RandomStream",
    "erf_diff",
    "find_root",
    "find_roots",
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
# Relative error is a few ulp over the whole double range, far below a
# 1e-14 absolute bound on erf.  Only exp/sqrt primitives are used, with
# fixed coefficients, so results do not depend on the platform's libm erf.

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
    """erfc(y) for y >= _THRESH, or NaN.  Beyond _ERFC_ZERO (inf included)
    it is 0, set without evaluating the tail form there."""
    out = np.zeros_like(y)
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

    far = ~(mid | (y > _ERFC_ZERO))  # NaN is in neither, so it lands here
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
    return out


def erf_diff(x, y):
    """erf(y) - erf(x) without catastrophic cancellation.

    When both arguments sit in the same tail (beyond +-_THRESH) the
    difference is formed from erfc values, which keeps the *relative*
    error small even when erf(x) and erf(y) both round to +-1.  Each
    rational form is evaluated once per call, on both arguments: the small
    one where |v| <= _THRESH, the tail one where |v| >= _THRESH or v is NaN.
    """
    bx, by = np.broadcast_arrays(np.asarray(x, dtype=np.float64),
                                 np.asarray(y, dtype=np.float64))
    scalar = bx.ndim == 0
    v = np.stack((np.atleast_1d(bx), np.atleast_1d(by)))
    a = np.abs(v)
    tail = ~(a < _THRESH)
    c = np.zeros_like(v)  # erfc(|v|), 0 where |v| < _THRESH
    c[tail] = _erfc_positive(a[tail])
    f = np.sign(v) * (1.0 - c)  # erf(v)
    small = a <= _THRESH
    f[small] = _erf_rational_small(v[small])
    (bx, by), (fx, fy), (cx, cy) = v, f, c

    out = np.where((bx >= _THRESH) & (by >= _THRESH), cx - cy,
                   np.where((bx <= -_THRESH) & (by <= -_THRESH), cy - cx,
                            fy - fx))
    out[bx == by] = 0.0
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Root finding and minimization.

_EPS = float(np.finfo(float).eps)


def _ends(bracket):
    lo, hi = (bracket.lo, bracket.hi) if isinstance(bracket, Interval) else bracket
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    return lo, hi


def _drive(evaluate, search):
    """Result of a search, a generator that yields lists of points and is
    sent evaluate(points), their values."""
    values = None
    while True:
        try:
            points = search.send(values)
        except StopIteration as done:
            return done.value
        values = evaluate(points)


def _lockstep(searches):
    """(search, objective) pairs in lockstep as one search, each sent its values
    mapped by its objective (None: as they are).  Returns results or errors."""
    outcomes = [None] * len(searches)
    running, sent = list(range(len(searches))), [None] * len(searches)
    while True:
        points, alive, ends = [], [], []
        for i, values in zip(running, sent):
            try:
                xs = searches[i][0].send(values)
            except StopIteration as done:
                outcomes[i] = done.value
            except Exception as exc:
                outcomes[i] = exc
            else:
                alive.append(i)
                points.extend(xs)
                ends.append(len(points))
        if not alive:
            return outcomes
        values = yield points
        running, sent = alive, [values[a:b] for a, b in zip([0] + ends, ends)]
        for k, i in enumerate(alive):
            if searches[i][1] is not None:
                sent[k] = list(map(searches[i][1], sent[k]))


def _unwrap(outcome):
    """A search's result from _lockstep, or raise the exception it raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _brent(bracket, tol, target=0.0, f_ends=None):
    """Brent's method as a search (see _drive) for a root of f - target.
    f_ends, if given, is (f(lo), f(hi)), which the search then does not ask for."""
    a, b = _ends(bracket)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if f_ends is None:
        f_ends = (yield [a])[0], (yield [b])[0]
    fa, fb = f_ends[0] - target, f_ends[1] - target
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise NoSignChange(f"f({a}) = {fa} and f({b}) = {fb} have the same sign")

    c, fc = a, fa
    d = e = b - a
    for _ in range(200):
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
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
        fb = (yield [b])[0] - target
    raise NoConvergence(
        f"bracket [{min(b, c)}, {max(b, c)}] still wider than tol={tol} "
        f"after 200 iterations"
    )


def find_root(f: Callable[[float], float], bracket, tol: float = 1e-12) -> float:
    """Brent's method on a sign-changing bracket.

    Inverse-quadratic/secant steps with a bisection fallback, so
    convergence is guaranteed once the endpoints straddle a sign change.
    Terminates when the bracket width falls below ~tol.

    Raises NoSignChange if f has the same sign at both endpoints, and
    NoConvergence if the bracket is still wider than ~tol after 200
    iterations.
    """
    return _drive(lambda xs: [f(x) for x in xs], _brent(bracket, tol))


def find_roots(g_batch: Callable, targets, brackets, tol: float = 1e-12,
               g_ends=None) -> list:
    """Roots of g(x) - targets[i] on brackets[i], found in lockstep.

    g_batch maps a 1-D array of points to an array of g values.  Each round
    calls it once, on the next point of every search still running.  Root i
    equals find_root(lambda x: g(x) - targets[i], brackets[i], tol) bit for
    bit; once all have ended, the first failed bracket's error is raised.
    g_ends, if given, holds (g(lo), g(hi)) of each bracket, as g_batch would
    give them, and saves the searches' first two rounds.  Lists of different
    lengths raise ValueError.
    """
    g_ends = [None] * len(brackets) if g_ends is None else g_ends
    searches = [(_brent(b, tol, t, e), None)
                for t, b, e in zip(targets, brackets, g_ends, strict=True)]
    roots = _drive(lambda xs: g_batch(np.array(xs)).tolist(), _lockstep(searches))
    return [_unwrap(root) for root in roots]


def _golden(bracket, tol=1e-10, grid_points=512):
    """(x_min, f_min) as a search (see _drive): a grid scan, yielded as one
    array, finds the global basin among many local minima (a pure descent
    would latch onto the wrong valley); golden sections then refine it."""
    n = max(int(grid_points), 3)
    xs = np.linspace(*_ends(bracket), n)
    fs = np.asarray((yield xs))
    i = int(np.argmin(fs))
    best_x, best_f = float(xs[i]), float(fs[i])
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, n - 1)])
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = yield [c, d]
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            (fc,) = yield [c]
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            (fd,) = yield [d]
    for x, fx in ((c, fc), (d, fd)):
        if fx < best_f:
            best_x, best_f = float(x), float(fx)
    return best_x, best_f


_FIRST_CHUNK = 16


def _walk_chunks(start: float, direction: float, step: float, n_steps: int):
    """Points x_i = start + direction*i*step, i = 1..n_steps, one list per chunk.

    Chunks of consecutive steps double in size from 16 points, so a walk
    that stops after a few steps evaluates few points, and one that walks
    all n_steps takes O(log n_steps) chunks.  Each x_i is the scalar
    expression above, so a walk sees the points a step-by-step loop would.
    """
    lo, size = 1, _FIRST_CHUNK
    while lo <= n_steps:
        hi = min(lo + size, n_steps + 1)
        yield [start + direction * i * step for i in range(lo, hi)]
        lo, size = hi, 2 * size


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
        # an int() of 1.5 would silently draw seed 1's stream
        for name, value in (("master_seed", master_seed), ("stream_index", stream_index)):
            if not isinstance(value, numbers.Integral) or not 0 <= value < 2 ** 64:
                raise ValueError(f"{name} must be an integer that fits in uint64, "
                                 f"got {value!r}")
        self.master_seed, self.stream_index = int(master_seed), int(stream_index)
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self, size=None, out=None):
        """Draw uniforms in [0, 1); a scalar when size and out are None.
        With out, the draws fill that float64 array in place."""
        return self._gen.random(size, out=out)

    def __repr__(self):
        return f"RandomStream(master_seed={self.master_seed}, stream_index={self.stream_index})"
