"""Reference computations that only the tests use.

Each one checks the package from outside it: it does not ship with the
code it is compared against.
"""

from typing import Callable


def central_diff(f: Callable[[float], float], x: float, h: float) -> float:
    """Second-order central difference (f(x+h) - f(x-h)) / (2h)."""
    if h <= 0:
        raise ValueError("h must be positive")
    return (f(x + h) - f(x - h)) / (2.0 * h)
