"""Reference computations that only the tests use.

Each one checks the package from outside it: it does not ship with the
code it is compared against.
"""

import math
from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np

from mzhomodyne.interferometer import BinningScheme, InterferometerConfig, outcome_table
from mzhomodyne.metrics import Observable


def central_diff(f: Callable[[float], float], x: float, h: float) -> float:
    """Second-order central difference (f(x+h) - f(x-h)) / (2h)."""
    if h <= 0:
        raise ValueError("h must be positive")
    return (f(x + h) - f(x - h)) / (2.0 * h)


# Gaussian-state propagation: the quadrature pdf without the closed form.


@dataclass(frozen=True)
class GaussianState:
    """Two-mode Gaussian Wigner function: mean (x_a, p_a, x_b, p_b), 4x4 covariance.

    Vacuum covariance is (1/4)*I in this convention.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.cov, dtype=np.float64)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if mean.shape != (4,):
            raise ValueError(f"mean must have shape (4,), got {mean.shape}")
        if cov.shape != (4, 4):
            raise ValueError(f"cov must have shape (4, 4), got {cov.shape}")
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-14):
            raise ValueError("cov must be symmetric")
        if np.min(np.linalg.eigvalsh(cov)) <= 0.0:
            raise ValueError("cov must be positive definite")


def coherent_vacuum_state(cfg: InterferometerConfig) -> GaussianState:
    """|alpha0> in mode a, vacuum in mode b."""
    return GaussianState(
        mean=np.array([cfg.alpha0, 0.0, 0.0, 0.0]),
        cov=0.25 * np.eye(4),
    )


def mode_mix_matrix(phi: float) -> np.ndarray:
    """Real 4x4 form of the mode map used by the output Wigner function.

    The output Wigner function is W_out(v) = W_in(S v) where S represents
    the complex map
        a~ =  a*(e^{i phi}-1)/2 + b*(e^{i phi}+1)/2
        b~ = -a*(e^{i phi}+1)/2 - b*(e^{i phi}-1)/2
    on coordinates (x_a, p_a, x_b, p_b).
    """
    u = complex(math.cos(phi), math.sin(phi))
    t = 0.5 * np.array([[u - 1.0, u + 1.0], [-(u + 1.0), -(u - 1.0)]])
    s = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            c = t[i, j]
            s[2 * i:2 * i + 2, 2 * j:2 * j + 2] = [[c.real, -c.imag], [c.imag, c.real]]
    return s


def wigner_oracle_pdf(cfg: InterferometerConfig, phi: float, p) -> float:
    """p-quadrature pdf obtained by propagating the full two-mode Gaussian.

    Independent check of quadrature_pdf: builds the input Wigner function,
    applies the 4x4 mode map by generic mean/covariance propagation, and
    marginalizes mode a onto p.  No binning formulas are reused.
    """
    state = coherent_vacuum_state(cfg)
    s_inv = np.linalg.inv(mode_mix_matrix(phi))
    mean = s_inv @ state.mean
    cov = s_inv @ state.cov @ s_inv.T
    mu, var = mean[1], cov[1, 1]
    arr = np.asarray(p, dtype=np.float64)
    out = np.exp(-((arr - mu) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    return float(out) if arr.ndim == 0 else out


# The score observable: the propagated error that meets the Cramer-Rao bound.


def score_observable(cfg: InterferometerConfig, scheme: BinningScheme,
                     phi: float) -> Observable:
    """Eigenvalues mu_k = P'_k/P_k from one outcome_table row at phi, 0 where
    P_k = 0.

    Its mean sum_k P'_k is 0, and its variance sum_k P'_k^2/P_k and slope
    sum_k P'_k mu_k are both the Fisher information F, so its propagated
    error sqrt(F)/F is 1/sqrt(F), the Cramer-Rao bound.
    """
    probs, derivs = outcome_table(cfg, scheme, [phi])
    values = [d / p if p > 0.0 else 0.0
              for p, d in zip(probs[0].tolist(), derivs[0].tolist())]
    return Observable(tuple(values[:-1]), values[-1])


# The binary fringe's half-depth width to 50 digits.


def binary_half_depth_width(cfg: InterferometerConfig, a: float) -> float:
    """Half-depth width of the binary {1, 0} fringe from 50-digit mpmath.

    P(c) = (erfc(sqrt(2)(c - a)) - erfc(sqrt(2)(c + a)))/2 falls from the
    shift c = 0 to c = alpha0/2; its crossing c* of half of P(0) + P(alpha0/2)
    gives the width 2*asin(2c*/alpha0).
    """
    with mpmath.workdps(50):
        alpha0, a, s = mpmath.mpf(cfg.alpha0), mpmath.mpf(a), mpmath.sqrt(2)
        p = lambda c: (mpmath.erfc(s * (c - a)) - mpmath.erfc(s * (c + a))) / 2
        half = (p(0) + p(alpha0 / 2)) / 2
        c = mpmath.findroot(lambda c: p(c) - half, (0, min(alpha0 / 2, a + 20)),
                            solver="anderson")
        return float(2 * mpmath.asin(2 * c / alpha0))
