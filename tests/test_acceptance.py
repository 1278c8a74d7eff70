"""Acceptance battery: fifteen end-to-end checks at desk scale.

Each test prints one PASS/FAIL line (run pytest with -s to see them all)
and then asserts, so the suite doubles as a readable report.  Checks 5 and
6 compare against the narrow-bin closed forms: fringe width
2*sqrt(2*ln2)/sqrt(nbar), and visibility tanh(nbar/4), which crosses 0.9
at nbar = 4*atanh(0.9) = 5.889.  See README, "Narrow-bin targets".
"""

import math

import numpy as np
import pytest

from mzhomodyne.cli import main as cli_main
from mzhomodyne.interferometer import (
    BinningScheme,
    InterferometerConfig,
    outcome_distribution,
    outcome_table,
    quadrature_pdf,
)
from mzhomodyne.metrics import (
    Observable,
    best_sensitivity,
    binarized_cfi,
    binary_sensitivity,
    cfi,
    crb,
    error_propagation_sensitivity,
    fwhm,
    fwhm_continuous,
    signal,
    visibility_boundary,
)
from mzhomodyne.numerics import find_root
from mzhomodyne.simulate import calibration_curve, estimate, monotone_branch
from oracles import central_diff, wigner_oracle_pdf

FIG2_CFG = InterferometerConfig.from_nbar(200.0)
FIG2_SCHEME = BinningScheme(half_width=0.5, spacing=3.8, cutoff=2)
FIG4_CFG = InterferometerConfig.from_nbar(1000.0)
FIG4_SCHEME = BinningScheme(half_width=0.5, spacing=3.2, cutoff=5)
THIRD_CFG = InterferometerConfig.from_nbar(50.0)
THIRD_SCHEME = BinningScheme(half_width=0.3, spacing=1.5, cutoff=2)
PARAMETER_SETS = (
    (FIG2_CFG, FIG2_SCHEME),
    (FIG4_CFG, FIG4_SCHEME),
    (THIRD_CFG, THIRD_SCHEME),
)


def _report(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{number:2d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_01_binary_sensitivity_saturates_the_bound():
    worst = 0.0
    for nbar in (10.0, 200.0, 1000.0):
        cfg = InterferometerConfig.from_nbar(nbar)
        for a in (0.25, 0.5, 1.0):
            scheme = BinningScheme.binary(a)
            for phi in np.linspace(-math.pi, math.pi, 500):
                phi = float(phi)
                slope = outcome_distribution(cfg, scheme, phi).bin_derivs[0]
                if abs(slope) < 1e-10:
                    continue
                product = binary_sensitivity(cfg, scheme, phi) * math.sqrt(
                    cfi(cfg, scheme, phi)
                )
                worst = max(worst, abs(product - 1.0))
    _report(1, "binary sensitivity saturates the bound", worst <= 1e-10,
            f"max |delta*sqrt(F) - 1| = {worst:.3e}, want <= 1e-10")


def test_02_binary_sensitivity_ignores_eigenvalue_choice():
    rng = np.random.default_rng(7)
    scheme = BinningScheme.binary(0.5)
    worst = 0.0
    # phases where the signal slope is well clear of the 1e-14 flatness
    # floor, so every eigenvalue pair yields a finite sensitivity
    for phi in (0.1, 0.25, 0.4, 0.55):
        values = [
            error_propagation_sensitivity(
                FIG2_CFG, scheme,
                Observable((float(hi),), float(lo)), phi)
            for hi, lo in rng.normal(0.0, 3.0, size=(10, 2))
        ]
        assert all(math.isfinite(v) for v in values)
        spread = (max(values) - min(values)) / min(values)
        worst = max(worst, spread)
    _report(2, "binary sensitivity ignores eigenvalue choice", worst <= 1e-12,
            f"max relative spread = {worst:.3e} over 10 random pairs, "
            f"want <= 1e-12")


def test_03_best_binary_sensitivity_near_reference():
    details = []
    ok = True
    unit = Observable((1.0,), 0.0)
    for nbar in (200.0, 1000.0):
        cfg = InterferometerConfig.from_nbar(nbar)
        _, best = best_sensitivity(cfg, BinningScheme.binary(0.5), unit)
        target = 1.37 / math.sqrt(nbar)
        ok = ok and abs(best - target) <= 0.05 * target
        details.append(f"nbar={nbar:g}: {best:.5f} vs {target:.5f}")
    _report(3, "best binary sensitivity near 1.37/sqrt(nbar)", ok,
            "; ".join(details) + ", want within 5%")


def test_04_continuous_fringe_width():
    width = fwhm_continuous(FIG2_CFG)
    target = 2.0 * math.pi / 3.0
    _report(4, "continuous fringe width 2pi/3",
            abs(width - target) <= 1e-9,
            f"got {width:.12f}, want {target:.12f} within 1e-9")


def test_05_narrow_bin_fringe_width():
    width = fwhm(InterferometerConfig.from_nbar(200.0),
                 BinningScheme.binary(0.05), Observable((1.0,), 0.0))
    # As a -> 0 the quadrature pdf gives P(bin 0) ~ exp(-(nbar/2) sin^2 phi),
    # so the half level sits at sin^2 phi = 2 ln2/nbar and the fringe FWHM
    # tends to 2*asin(sqrt(2 ln2/nbar)) ~ 2*sqrt(2 ln2)/sqrt(nbar).
    target = 2.0 * math.sqrt(2.0 * math.log(2.0)) / math.sqrt(200.0)
    _report(5, "narrow bin fringe width near 2*sqrt(2 ln2)/sqrt(nbar)",
            abs(width - target) <= 0.10 * target,
            f"got {width:.6f}, want {target:.6f} within 10%; the a -> 0 "
            f"half level is 2*asin(sqrt(2*ln2/nbar)) = 0.16672")


def test_06_visibility_boundary():
    # The interval comes from the narrow-bin limit, where the binary
    # visibility is tanh(nbar/4) and crosses 0.9 at 4*atanh(0.9) = 5.889, so
    # the boundary is taken at check 5's a = 0.05.  A wider bin lowers the
    # contrast: at a = 1/2 the crossing is 7.83 (pinned in test_metrics).
    boundary = visibility_boundary(0.05, 0.9)
    _report(6, "visibility 0.9 boundary near nbar 5.8",
            5.6 <= boundary <= 6.0,
            f"got nbar = {boundary:.4f} at a = 0.05, want within [5.6, 6.0]; "
            f"the narrow-bin limit is 4*atanh(0.9) = 5.889")


def test_07_sensitivity_divergence_near_dark_point():
    ones = Observable.ones(FIG2_SCHEME)
    dark = find_root(
        lambda x: signal(FIG2_CFG, FIG2_SCHEME, ones, x).slope, (0.15, 0.4)
    )
    target = FIG2_SCHEME.spacing / FIG2_CFG.alpha0
    _report(7, "sensitivity divergence near b/alpha0",
            abs(dark - target) <= 0.10 * target,
            f"first positive-phase divergence at {dark:.5f}, want "
            f"{target:.5f} within 10%")


def test_08_bound_never_exceeds_propagated_error():
    rng = np.random.default_rng(2026)
    checked = violations = 0
    for cfg, scheme in PARAMETER_SETS:
        n = 2 * scheme.cutoff + 1
        for _ in range(334):
            obs = Observable(tuple(rng.normal(0.0, 2.0, size=n)),
                             float(rng.normal(0.0, 2.0)))
            phi = float(rng.uniform(-math.pi, math.pi))
            bound = crb(cfg, scheme, phi)
            delta = error_propagation_sensitivity(cfg, scheme, obs, phi)
            if math.isfinite(bound) and math.isfinite(delta):
                checked += 1
                violations += not bound <= delta + 1e-12
    _report(8, "Cramer-Rao bound below propagated error", violations == 0,
            f"{violations} violations over {checked} finite draws, want 0")


def test_09_binarization_cannot_raise_information():
    violations = 0
    for cfg, scheme in PARAMETER_SETS:
        obs = Observable.ones(scheme)
        for phi in np.linspace(-math.pi, math.pi, 500):
            phi = float(phi)
            if binarized_cfi(cfg, scheme, obs, phi) > cfi(cfg, scheme, phi):
                violations += 1
    _report(9, "binarization cannot raise information", violations == 0,
            f"{violations} violations over 1500 grid points, want 0")


def test_10_alternating_eigenvalues_track_the_bound():
    alternating = Observable.alternating(FIG2_SCHEME)
    cap = 10.0 * 1.37 / math.sqrt(FIG2_CFG.nbar)
    included = ok = 0
    for phi in np.linspace(-math.pi + 0.05, math.pi - 0.05, 2000):
        phi = float(phi)
        bound = crb(FIG2_CFG, FIG2_SCHEME, phi)
        if not math.isfinite(bound) or bound > cap:
            continue
        delta = error_propagation_sensitivity(FIG2_CFG, FIG2_SCHEME,
                                              alternating, phi)
        included += 1
        ok += math.isfinite(delta) and delta / bound <= 1.25
    _report(10, "alternating eigenvalues track the bound",
            included > 1000 and ok / included >= 0.90,
            f"{ok}/{included} usable points with ratio <= 1.25, want >= 90%")


def test_11_gaussian_propagation_matches_direct_pdf():
    worst = 0.0
    for phi in np.linspace(-math.pi, math.pi, 40):
        for p in np.linspace(-9.0, 9.0, 25):
            direct = quadrature_pdf(FIG2_CFG, float(phi), float(p))
            propagated = wigner_oracle_pdf(FIG2_CFG, float(phi), float(p))
            worst = max(worst, abs(direct - propagated))
    _report(11, "Gaussian propagation matches the direct pdf", worst <= 1e-10,
            f"max |difference| = {worst:.3e} over 1000 grid points, "
            f"want <= 1e-10")


def test_12_sampled_calibration_follows_analytic_curves():
    shots, replicas = 200, 10
    grid = np.linspace(-math.pi, math.pi, 41)
    points = calibration_curve(FIG2_CFG, FIG2_SCHEME, grid, shots, replicas,
                               master_seed=0)
    cells = ok = 0
    for point in points:
        dist = outcome_distribution(FIG2_CFG, FIG2_SCHEME, point.phi)
        for freq, p in zip(point.mean_freqs, dist.all_probs()):
            se = math.sqrt(max(p * (1.0 - p), 0.0) / (shots * replicas))
            cells += 1
            ok += abs(freq - p) <= max(3.0 * se, 1e-12)
    _report(12, "sampled calibration follows the analytic curves",
            ok / cells >= 0.95,
            f"{ok}/{cells} cells within 3 standard errors, want >= 95%")


def test_13_inversion_estimator_tracks_the_bound():
    obs = Observable.alternating(FIG4_SCHEME)
    branch = monotone_branch(FIG4_CFG, FIG4_SCHEME, obs, 0.1)
    width = branch.hi - branch.lo
    grid = branch.lo + width * np.linspace(0.05, 0.95, 21)
    shots, replicas = 200, 400
    tracked = 0
    unbiased = True
    for index, phi in enumerate(grid):
        phi = float(phi)
        (rs,) = calibration_curve(FIG4_CFG, FIG4_SCHEME, [phi], shots,
                                  replicas, master_seed=index)
        report = estimate(FIG4_CFG, FIG4_SCHEME, obs, rs)
        bound = crb(FIG4_CFG, FIG4_SCHEME, phi)
        tracked += abs(report.sigma - bound) <= 0.25 * bound
        unbiased = unbiased and abs(report.bias) < report.std_dev
    _report(13, "inversion estimator tracks the bound",
            tracked >= math.ceil(0.8 * len(grid)) and unbiased,
            f"sigma within 25% of the bound at {tracked}/{len(grid)} branch "
            f"points (want >= 80%), bias below replica spread: {unbiased}")


def test_14_analytic_derivatives_match_finite_differences():
    grid = np.linspace(-math.pi, math.pi, 202)[1:-1]
    worst = 0.0
    for phi in grid:
        probs, derivs = outcome_table(FIG2_CFG, FIG2_SCHEME, [float(phi)])
        for col in range(FIG2_SCHEME.n_outcomes):
            if abs(probs[0, col]) < 1e-12:
                continue
            numeric = central_diff(
                lambda x, c=col: float(outcome_table(
                    FIG2_CFG, FIG2_SCHEME, [x])[0][0, c]),
                float(phi), 1e-5,
            )
            analytic = float(derivs[0, col])
            worst = max(worst, abs(numeric - analytic) / abs(analytic))
    _report(14, "analytic derivatives match finite differences",
            worst <= 1e-6,
            f"max relative error = {worst:.3e} over 200 phases x 6 outcomes, "
            f"want <= 1e-6")


def test_15_simulation_output_is_byte_reproducible(tmp_path):
    argv = ["simulate", "--nbar", "1000", "--b", "3.2", "--kf", "5",
            "--eigenvalues", "alternating", "--phi-min", "0.02",
            "--phi-max", "0.18", "--steps", "3", "--shots", "100",
            "--replicas", "5", "--seed", "11"]
    assert cli_main(argv + ["--out", str(tmp_path / "one")]) == 0
    assert cli_main(argv + ["--out", str(tmp_path / "two")]) == 0
    same = all(
        (tmp_path / f"one_{name}.csv").read_bytes()
        == (tmp_path / f"two_{name}.csv").read_bytes()
        for name in ("calibration", "estimation")
    )
    _report(15, "simulation output is byte reproducible", same,
            "two seeded runs compared byte for byte on both CSV files")
