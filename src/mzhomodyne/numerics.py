"""Self-contained numerical kernels.

The error function, whose one entry point is erf_diff (erf over a bin),
from fixed rational approximations (no platform-dependent special-function
library, so CSV output is bit-stable across machines), on whole arrays,
and _erf_diff_floats, its bits pair by pair in Python floats for small
search rounds; the exactly rounded row sum that every per-row reduction
runs through (_row_sums: a column add on one or two columns, else math.fsum
row by row); Brent's bracketing root search, the one search algorithm of
the package, which one driver runs alone or in lockstep with other searches;
and deterministic counter-based uniform random streams.
"""

from __future__ import annotations

import math
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


def _erfc_mid(y):
    """R(y) of erfc(y) = exp(-y^2) R(y) for _THRESH <= y <= 4."""
    xnum = _C[8] * y
    xden = y
    for c, d in zip(_C[:7], _D[:7]):
        xnum = (xnum + c) * y
        xden = (xden + d) * y
    return (xnum + _C[7]) / (xden + _D[7])


def _erfc_far(y):
    """R(y) of erfc(y) = exp(-y^2) R(y) for 4 < y <= _ERFC_ZERO, or NaN."""
    ysq = 1.0 / (y * y)
    xnum = _P[5] * ysq
    xden = ysq
    for p, q in zip(_P[:4], _Q[:4]):
        xnum = (xnum + p) * ysq
        xden = (xden + q) * ysq
    return (_SQRPI - ysq * (xnum + _P[4]) / (xden + _Q[4])) / y


def _erfc_parts(y, form):
    """(e1, e2, R) with erfc(y) = exp(e1) * exp(e2) * R, R = form(y).

    exp(-y^2) split as exp(-t^2)*exp(-(y-t)(y+t)) with t = trunc(16y)/16
    keeps the argument of each exp exactly representable.  t is spelt as a
    floor, which is trunc for y >= 0 and the same code for floats and arrays.
    """
    t = y * 16.0 // 1.0 / 16.0
    return -t * t, -(y - t) * (y + t), form(y)


def _erfc_positive(y):
    """erfc(y) for y >= _THRESH, or NaN; 0 beyond _ERFC_ZERO (inf included).
    Each rational form is evaluated only where some element needs it."""
    out = np.zeros_like(y)
    mid = y <= 4.0
    far = ~(mid | (y > _ERFC_ZERO))  # NaN is in neither, so it lands here
    for part, form in ((mid, _erfc_mid), (far, _erfc_far)):
        if part.any():
            e1, e2, r = _erfc_parts(y[part], form)
            out[part] = np.exp(e1) * np.exp(e2) * r
    return out


def erf_diff(x, y):
    """erf(y) - erf(x) without catastrophic cancellation.

    When both arguments sit in the same tail (beyond +-_THRESH) the
    difference is formed from erfc values, which keeps the *relative*
    error small even when erf(x) and erf(y) both round to +-1.  Each rational
    form runs at most once, on whole arrays, only if some argument needs it:
    the small one where |v| <= _THRESH, the tail ones where |v| >= _THRESH or NaN.
    """
    bx, by = np.broadcast_arrays(np.asarray(x, dtype=np.float64),
                                 np.asarray(y, dtype=np.float64))
    v = np.stack((np.atleast_1d(bx), np.atleast_1d(by)))
    a = np.abs(v)
    tail = ~(a < _THRESH)
    c = np.zeros_like(v)  # erfc(|v|), 0 where |v| < _THRESH
    if tail.any():
        c[tail] = _erfc_positive(a[tail])
    f = np.sign(v) * (1.0 - c)  # erf(v)
    small = a <= _THRESH
    if small.any():
        f[small] = _erf_rational_small(v[small])
    (vx, vy), (fx, fy), (cx, cy) = v, f, c
    out = np.where((vx >= _THRESH) & (vy >= _THRESH), cx - cy,
                   np.where((vx <= -_THRESH) & (vy <= -_THRESH), cy - cx, fy - fx))
    out[vx == vy] = 0.0
    return float(out[0]) if bx.ndim == 0 else out


def _erf_diff_floats(xs, ys):
    """erf_diff of two equal-length lists of floats, none NaN, as a list:
    erf_diff's operations on each pair in float arithmetic, so its bits (the
    kernel of interferometer._float_table).  All exps are one np.exp call,
    as math.exp rounds some arguments otherwise."""
    vs = xs + ys
    parts = [_erfc_parts(abs(v), _erfc_mid if abs(v) <= 4.0 else _erfc_far)
             if _THRESH <= abs(v) <= _ERFC_ZERO else None for v in vs]
    exps = iter(np.exp([e for p in parts if p for e in p[:2]]).tolist())
    c = [next(exps) * next(exps) * p[2] if p else 0.0 for p in parts]
    f = [_erf_rational_small(v) if abs(v) <= _THRESH else math.copysign(1.0 - cv, v)
         for v, cv in zip(vs, c)]
    n = len(xs)
    return [0.0 if x == y else
            c[i] - c[n + i] if x >= _THRESH and y >= _THRESH else
            c[n + i] - c[i] if x <= -_THRESH and y <= -_THRESH else
            f[n + i] - f[i]
            for i, (x, y) in enumerate(zip(xs, ys))]


# ---------------------------------------------------------------------------
# Row sums.


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """The exactly rounded math.fsum of each row of a 2-D array.

    A row of one or two terms needs no fsum: IEEE addition of two doubles is
    their exactly rounded sum, and + 0.0 turns a -0.0 sum into fsum's 0.0.  So
    a table of one or two columns that has rows is added by columns if no
    term exceeds 2**1022 in magnitude, as then no sum overflows (a NaN fails
    the test).  Others run math.fsum, which raises on overflow.
    """
    if terms.shape[1] in (1, 2) and len(terms) and np.abs(terms).max() <= 2.0 ** 1022:
        return (terms[:, 0] + terms[:, 1] if terms.shape[1] == 2 else terms[:, 0]) + 0.0
    return np.array(list(map(math.fsum, terms.tolist())), dtype=np.float64)


# ---------------------------------------------------------------------------
# Root finding.

_EPS = float(np.finfo(float).eps)


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
    """Searches run in lockstep as one search; returns their results or errors."""
    outcomes = [None] * len(searches)
    running, sent = list(range(len(searches))), [None] * len(searches)
    while True:
        points, alive, ends = [], [], []
        for i, values in zip(running, sent):
            try:
                xs = searches[i].send(values)
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


def _unwrap(outcome):
    """A search's result from _lockstep, or raise the exception it raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _brent(bracket, target=0.0, f_ends=None):
    """Brent's method as a search (see _drive) for a root of f - target, down
    to tol = 4 eps max(|lo|, |hi|) of its bracket: good to rounding at any scale.
    f_ends, if given, is (f(lo), f(hi)), which the search then does not ask for."""
    a, b = (bracket.lo, bracket.hi) if isinstance(bracket, Interval) else bracket
    if not (a < b and math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"bracket must be finite with lo < hi, got [{a}, {b}]")
    tol = 4.0 * _EPS * max(abs(a), abs(b))
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


def find_root(f: Callable[[float], float], bracket) -> float:
    """Brent's method on a sign-changing bracket.

    Inverse-quadratic/secant steps with a bisection fallback, so
    convergence is guaranteed once the endpoints straddle a sign change.
    Terminates when the bracket is ~tol = 4 eps max(|lo|, |hi|) wide.

    Raises ValueError, before any call of f, if the bracket is not finite
    with lo < hi; NoSignChange if f has the same sign at both endpoints; and
    NoConvergence if the bracket is still wider than ~tol after 200
    iterations.
    """
    return _drive(lambda xs: [f(x) for x in xs], _brent(bracket))


def find_roots(g_batch: Callable, targets, brackets, g_ends=None) -> list:
    """Roots of g(x) - targets[i] on brackets[i], found in lockstep.

    g_batch maps a 1-D array of points to an array of g values.  Each round
    calls it once, on the next point of every search still running.  Root i
    equals find_root(lambda x: g(x) - targets[i], brackets[i]) bit for
    bit; once all have ended, the first failed bracket's error is raised.
    g_ends, if given, holds (g(lo), g(hi)) of each bracket, as g_batch would
    give them, and saves the searches' first two rounds.  Lists of different
    lengths raise ValueError.
    """
    g_ends = [None] * len(brackets) if g_ends is None else g_ends
    searches = [_brent(b, t, e) for t, b, e in zip(targets, brackets, g_ends, strict=True)]
    roots = _drive(lambda xs: g_batch(np.array(xs)).tolist(), _lockstep(searches))
    return [_unwrap(root) for root in roots]


# ---------------------------------------------------------------------------
# Random streams.


def _integer(name, value, lo, hi=math.inf) -> int:
    """value as an int in [lo, hi), the one rule for every count, cutoff
    and key.  int() would truncate 1.5, and True is 1: either would pass
    for 1 (a shot count, or seed 1's stream), so both are rejected."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       and lo <= int(value) < hi):
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}), got {value!r}")
    return int(value)


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
        self.master_seed = _integer("master_seed", master_seed, 0, 2 ** 64)
        self.stream_index = _integer("stream_index", stream_index, 0, 2 ** 64)
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self, size=None, out=None):
        """Draw uniforms in [0, 1); a scalar when size and out are None.
        With out, the draws fill that float64 array in place."""
        return self._gen.random(size, out=out)

    def __repr__(self):
        return f"RandomStream(master_seed={self.master_seed}, stream_index={self.stream_index})"


def _streams(master_seed: int, first: int, count: int):
    """RandomStream(master_seed, first + i) for i < count, one at a time from
    one Philox re-keyed at each step to the state Philox(key) starts in, a
    tenth of the cost of a new one: draw from each before taking the next."""
    stream = RandomStream(master_seed, first + count - 1)  # checks the seed and last index
    def rekey(index):
        stream.stream_index, stream._gen.bit_generator.state = index, {
            "bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0,
            "uinteger": 0, "state": {"counter": [0] * 4, "key": [stream.master_seed, index]}}
        return stream
    return map(rekey, range(first, first + count))
