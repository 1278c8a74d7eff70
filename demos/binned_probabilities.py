"""Walk through the measurement model: a coherent beam enters one port of a
balanced interferometer, the output quadrature is measured by homodyne
detection, and the continuous readout is sorted into narrow bins centered at
multiples of the spacing b.  Everything downstream (signals, sensitivities,
simulation) is built on the conditional outcome probabilities printed here.

Run: python3 demos/binned_probabilities.py
"""

import math

from mzhomodyne import (
    BinningScheme,
    InterferometerConfig,
    default_cutoff,
    outcome_probs,
    quadrature_pdf,
)

cfg = InterferometerConfig.from_nbar(200.0)
print(f"mean photon number {cfg.nbar:g}, coherent amplitude {cfg.alpha0:.4f}")

# the quadrature mean swings as -(alpha0/2) sin(phi); the bins have to cover
# that swing, which is what the default cutoff works out
a, b = 0.5, 3.8
kf = default_cutoff(cfg, a, b)
scheme = BinningScheme(half_width=a, spacing=b, cutoff=kf)
print(f"bins of half width {a} at spacing {b}: indices -{kf}..{kf} "
      f"plus a leftover outcome ({scheme.n_outcomes} outcomes total)")

print("\nconditional probabilities across the fringe:")
header = "phi".rjust(8) + "".join(f"P({k})".rjust(11) for k in scheme.bin_indices())
print(header + "P(left)".rjust(11) + "sum".rjust(9))
# one row per phase: the bins -kf..kf, then the leftover in the last column
phis = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0, math.pi / 2)
for phi, row in zip(phis, outcome_probs(cfg, scheme, phis)):
    cells = "".join(f"{p:11.3e}" for p in row[:-1])
    print(f"{phi:8.3f}{cells}{row[-1]:11.3e}{math.fsum(row):9.5f}")

# each bin probability is the continuous pdf integrated over the bin window;
# check bin 1 at phi = -0.3 against a crude Riemann sum
phi = -0.3
closed = outcome_probs(cfg, scheme, [phi])[0, kf + 1]
step = 2 * a / 4000
riemann = sum(
    quadrature_pdf(cfg, phi, b + (i + 0.5) * step - a) * step for i in range(4000)
)
print(f"\nbin 1 at phi={phi}: closed form {closed:.8f}, "
      f"Riemann sum over the window {riemann:.8f}")

# mirror symmetry about phi = pi/2: the quadrature mean depends on sin(phi)
left, right = outcome_probs(cfg, scheme, [0.7, math.pi - 0.7])[:, kf - 1]
print(f"mirror check P(-1|0.7) = {left:.12f} equals "
      f"P(-1|pi-0.7) = {right:.12f}")
