"""Phase estimation in a coherent-light Mach-Zehnder interferometer read out
by multi-outcome (binned) homodyne detection.

Closed-form outcome probabilities, signals, error-propagation sensitivities,
classical Fisher information, and seeded Monte Carlo simulation with an
inversion estimator.  The CLI lives in mzhomodyne.cli.
"""

from . import interferometer, metrics, numerics, simulate
from .interferometer import *
from .metrics import *
from .numerics import *
from .simulate import *

__version__ = "0.1.0"

__all__ = (interferometer.__all__ + metrics.__all__ + numerics.__all__
           + simulate.__all__)
