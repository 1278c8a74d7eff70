"""Interferometer layer tests.

Oracles: scipy quadrature of the closed-form pdf for bin probabilities,
the independent Gaussian-propagation pdf, central differences for the
analytic derivative, and mpmath for one high-precision tail case.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from mzhomodyne import interferometer
from mzhomodyne.interferometer import (
    BinningScheme,
    InterferometerConfig,
    InvalidScheme,
    default_cutoff,
    outcome_derivs,
    outcome_distribution,
    outcome_probs,
    outcome_table,
    quadrature_pdf,
)
from mzhomodyne.metrics import (
    Observable,
    binarized_cfi,
    binary_sensitivity,
    cfi,
    continuous_signal,
    crb,
    error_propagation_sensitivity,
    signal,
)
from mzhomodyne.numerics import _drive, _golden, erf_diff
from oracles import (
    GaussianState,
    central_diff,
    coherent_vacuum_state,
    mode_mix_matrix,
    wigner_oracle_pdf,
)

FIG2_CFG = InterferometerConfig.from_nbar(200.0)
FIG2_SCHEME = BinningScheme(half_width=0.5, spacing=3.8, cutoff=2)


def _prob(cfg, scheme, col, phi):
    """P of outcome_table column col (bin k is column k + cutoff) at phi."""
    return float(outcome_table(cfg, scheme, [phi])[0][0, col])


def _deriv(cfg, scheme, col, phi):
    """dP/dphi of outcome_table column col at phi."""
    return float(outcome_table(cfg, scheme, [phi])[1][0, col])


# ---------------------------------------------------------------------------
# Config and scheme types.


def test_config_requires_positive_amplitude():
    with pytest.raises(ValueError):
        InterferometerConfig(0.0)
    with pytest.raises(ValueError):
        InterferometerConfig(-3.0)
    with pytest.raises(ValueError):
        InterferometerConfig.from_nbar(0.0)
    with pytest.raises(ValueError, match="finite"):
        InterferometerConfig(math.inf)
    with pytest.raises(ValueError, match="finite"):
        InterferometerConfig.from_nbar(math.inf)


def test_config_nbar_roundtrip():
    cfg = InterferometerConfig.from_nbar(200.0)
    assert cfg.alpha0 == pytest.approx(math.sqrt(200.0), abs=0.0)
    assert cfg.nbar == pytest.approx(200.0, rel=1e-15)


def test_scheme_validation():
    with pytest.raises(InvalidScheme):
        BinningScheme(half_width=0.0, spacing=1.0, cutoff=1)
    with pytest.raises(InvalidScheme):
        BinningScheme(half_width=0.5, spacing=1.0, cutoff=1)  # spacing == 2a
    with pytest.raises(InvalidScheme):
        BinningScheme(half_width=0.5, spacing=3.8, cutoff=-1)
    with pytest.raises(InvalidScheme):
        BinningScheme(half_width=0.5, spacing=3.8, cutoff=1.5)
    with pytest.raises(InvalidScheme, match="finite"):
        BinningScheme(half_width=0.5, spacing=math.inf, cutoff=0)


def test_scheme_rejects_a_bool_cutoff():
    # True is an int subclass, but not a count of bins
    with pytest.raises(InvalidScheme, match="cutoff must be a non-negative"):
        BinningScheme(0.5, 3.8, True)


def test_scheme_stores_a_numpy_integer_cutoff_as_int():
    s = BinningScheme(0.5, 3.8, np.int64(2))
    assert type(s.cutoff) is int
    assert s == FIG2_SCHEME
    assert np.array_equal(outcome_table(FIG2_CFG, s, [0.3])[0],
                          outcome_table(FIG2_CFG, FIG2_SCHEME, [0.3])[0])


def test_scheme_centers_and_outcomes():
    s = FIG2_SCHEME
    assert np.array_equal(s.bin_indices(), [-2, -1, 0, 1, 2])
    assert np.allclose(s.centers(), [-7.6, -3.8, 0.0, 3.8, 7.6])
    probs, derivs = outcome_table(FIG2_CFG, s, [0.3])
    assert probs.shape == derivs.shape == (1, s.n_outcomes) == (1, 6)


def test_binary_scheme():
    s = BinningScheme.binary(0.5)
    assert s.cutoff == 0
    assert s.n_outcomes == 2
    assert s.half_width == 0.5


# ---------------------------------------------------------------------------
# default_cutoff


def test_default_cutoff_covers_signal_swing():
    # alpha0/(2b) = 14.142/7.6 = 1.861 -> 2
    assert default_cutoff(FIG2_CFG, 0.5, 3.8) == 2
    # alpha0/(2b) = 31.623/6.4 = 4.941 -> 5
    assert default_cutoff(InterferometerConfig.from_nbar(1000.0), 0.5, 3.2) == 5


def test_default_cutoff_ties_round_away_from_zero():
    assert default_cutoff(InterferometerConfig(5.0), 0.4, 1.0) == 3  # x = 2.5
    assert default_cutoff(InterferometerConfig(1.0), 0.4, 1.0) == 1  # x = 0.5


def test_default_cutoff_small_amplitude_gives_zero():
    assert default_cutoff(InterferometerConfig(0.5), 0.1, 10.0) == 0


def test_default_cutoff_rejects_bad_scheme():
    with pytest.raises(InvalidScheme):
        default_cutoff(FIG2_CFG, 0.5, 1.0)
    with pytest.raises(InvalidScheme):
        default_cutoff(FIG2_CFG, -0.5, 3.8)
    with pytest.raises(InvalidScheme):
        default_cutoff(FIG2_CFG, 0.5, math.inf)


# ---------------------------------------------------------------------------
# Quadrature pdf.


def test_quadrature_pdf_normalized():
    for phi in (0.0, 0.3, -1.2, math.pi / 2):
        # finite window around the peak; the tail beyond +-12 is < 1e-120
        peak = -0.5 * FIG2_CFG.alpha0 * math.sin(phi)
        total, err = integrate.quad(
            lambda p: quadrature_pdf(FIG2_CFG, phi, p), peak - 12.0, peak + 12.0
        )
        assert err < 1e-10
        assert total == pytest.approx(1.0, abs=1e-10)


def test_quadrature_pdf_peak_value_and_location():
    cfg = InterferometerConfig(2.0)
    # peak sits at p = -(alpha0/2)*sin(phi) with height sqrt(2/pi)
    for phi in (0.0, 0.7, -0.4, math.pi / 2):
        peak = -0.5 * cfg.alpha0 * math.sin(phi)
        assert quadrature_pdf(cfg, phi, peak) == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-14
        )
        grid = np.linspace(peak - 2.0, peak + 2.0, 40001)
        vals = quadrature_pdf(cfg, phi, grid)
        assert abs(grid[np.argmax(vals)] - peak) < 1.1e-4


def test_quadrature_pdf_scalar_and_array_agree():
    grid = np.linspace(-3.0, 3.0, 17)
    vals = quadrature_pdf(FIG2_CFG, 0.25, grid)
    assert isinstance(quadrature_pdf(FIG2_CFG, 0.25, 0.5), float)
    for p, v in zip(grid, vals):
        assert quadrature_pdf(FIG2_CFG, 0.25, float(p)) == v


def test_quadrature_pdf_vacuum_variance_is_quarter():
    # second moment of the phi=0 marginal
    m2, err = integrate.quad(
        lambda p: p * p * quadrature_pdf(FIG2_CFG, 0.0, p), -12.0, 12.0
    )
    assert err < 1e-10
    assert m2 == pytest.approx(0.25, abs=1e-10)


# ---------------------------------------------------------------------------
# Gaussian-propagation oracle.


def test_input_state_is_valid_gaussian():
    st = coherent_vacuum_state(FIG2_CFG)
    assert st.mean[0] == pytest.approx(FIG2_CFG.alpha0)
    assert np.allclose(st.cov, 0.25 * np.eye(4))


def test_gaussian_state_validation():
    with pytest.raises(ValueError):
        GaussianState(mean=np.zeros(3), cov=np.eye(4))
    bad = np.eye(4)
    bad[0, 1] = 1e-3
    with pytest.raises(ValueError):
        GaussianState(mean=np.zeros(4), cov=bad)
    with pytest.raises(ValueError):
        GaussianState(mean=np.zeros(4), cov=-np.eye(4))


def test_mode_mix_matrix_is_orthogonal():
    for phi in np.linspace(-math.pi, math.pi, 37):
        s = mode_mix_matrix(phi)
        assert np.allclose(s @ s.T, np.eye(4), atol=1e-14)
        assert np.linalg.det(s) == pytest.approx(1.0, abs=1e-12)


def test_wigner_oracle_matches_closed_form_pdf():
    rng = np.random.default_rng(7)
    phis = rng.uniform(-math.pi, math.pi, 1000)
    ps = rng.uniform(-12.0, 12.0, 1000)
    worst = 0.0
    for phi, p in zip(phis, ps):
        diff = abs(wigner_oracle_pdf(FIG2_CFG, phi, p) - quadrature_pdf(FIG2_CFG, phi, p))
        worst = max(worst, diff)
    assert worst <= 1e-10


def test_wigner_oracle_at_zero_phase_is_vacuum_marginal():
    # phi=0 routes the vacuum port to the measured mode
    for p in (-1.0, 0.0, 0.3):
        expected = math.sqrt(2.0 / math.pi) * math.exp(-2.0 * p * p)
        assert wigner_oracle_pdf(FIG2_CFG, 0.0, p) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Bin probabilities against quadrature of the pdf.


@pytest.mark.parametrize("phi", [0.0, 0.17, -0.6, 1.1, math.pi / 2, 2.8, -3.0])
@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
def test_bin_probability_matches_quadrature(k, phi):
    lo = FIG2_SCHEME.spacing * k - FIG2_SCHEME.half_width
    hi = FIG2_SCHEME.spacing * k + FIG2_SCHEME.half_width
    oracle, err = integrate.quad(
        lambda p: quadrature_pdf(FIG2_CFG, phi, p), lo, hi,
        epsabs=1e-14, epsrel=1e-13,
    )
    got = _prob(FIG2_CFG, FIG2_SCHEME, k + 2, phi)
    assert got == pytest.approx(oracle, abs=max(2e-12, 10 * err))
    assert 0.0 <= got <= 1.0


def test_deep_tail_bin_probability_against_mpmath():
    # bin 2 at phi = +pi/2 sits ~29 sigma from the quadrature mean; relative
    # accuracy must survive out there (erfc form avoids oracle cancellation)
    cfg, s = FIG2_CFG, FIG2_SCHEME
    phi = math.pi / 2
    with mpmath.workdps(60):
        c = mpmath.mpf(cfg.alpha0) / 2 * mpmath.sin(phi)
        lo = mpmath.sqrt(2) * (c + mpmath.mpf("7.6") - mpmath.mpf("0.5"))
        hi = mpmath.sqrt(2) * (c + mpmath.mpf("7.6") + mpmath.mpf("0.5"))
        oracle = float((mpmath.erfc(lo) - mpmath.erfc(hi)) / 2)
    got = _prob(cfg, s, 2 + 2, phi)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert 0.0 < got < 1e-80


def test_leftover_completes_the_distribution():
    for phi in np.linspace(-math.pi, math.pi, 41):
        probs = [
            _prob(FIG2_CFG, FIG2_SCHEME, col, phi)
            for col in range(FIG2_SCHEME.n_outcomes)
        ]
        assert all(0.0 <= q <= 1.0 for q in probs)
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)


def test_leftover_probability_against_quadrature():
    phi = 0.45
    inside = 0.0
    for k in range(-2, 3):
        lo = FIG2_SCHEME.spacing * k - 0.5
        hi = FIG2_SCHEME.spacing * k + 0.5
        q, _ = integrate.quad(lambda p: quadrature_pdf(FIG2_CFG, phi, p), lo, hi)
        inside += q
    got = _prob(FIG2_CFG, FIG2_SCHEME, -1, phi)  # leftover: the last column
    assert got == pytest.approx(1.0 - inside, abs=1e-10)


def test_bin_probability_symmetries():
    for phi in (0.13, 0.8, -1.9, 2.2):
        for k in range(-2, 3):
            direct = _prob(FIG2_CFG, FIG2_SCHEME, k + 2, phi)
            # sin(pi - phi) = sin(phi)
            mirror = _prob(FIG2_CFG, FIG2_SCHEME, k + 2, math.pi - phi)
            assert mirror == pytest.approx(direct, rel=1e-12, abs=1e-300)
            # flipping the phase flips the quadrature shift, swapping k <-> -k
            flipped = _prob(FIG2_CFG, FIG2_SCHEME, -k + 2, -phi)
            assert flipped == pytest.approx(direct, rel=1e-12, abs=1e-300)


def test_bin_probability_periodicity():
    for phi in (0.0, 0.37, -2.1):
        for col in range(FIG2_SCHEME.n_outcomes):
            a = _prob(FIG2_CFG, FIG2_SCHEME, col, phi)
            b = _prob(FIG2_CFG, FIG2_SCHEME, col, phi + 2.0 * math.pi)
            assert b == pytest.approx(a, rel=1e-10, abs=1e-300)


def test_bin_peak_sits_at_matching_phase():
    # P(k|phi) peaks where the quadrature mean crosses the bin center:
    # -(alpha0/2) sin(phi) = k b, i.e. phi = -arcsin(2 k b / alpha0)
    grid = np.linspace(-math.pi / 2, math.pi / 2, 4001)
    table = np.array(
        [outcome_distribution(FIG2_CFG, FIG2_SCHEME, phi).bin_probs for phi in grid]
    )
    step = grid[1] - grid[0]
    for k in (-1, 1):
        coarse = grid[np.argmax(table[:, k + 2])]
        peak, _ = _drive(
            lambda xs: [-_prob(FIG2_CFG, FIG2_SCHEME, k + 2, phi) for phi in xs],
            _golden((coarse - 2 * step, coarse + 2 * step)),
        )
        expected = -math.asin(2.0 * k * 3.8 / FIG2_CFG.alpha0)
        assert abs(peak - expected) < 1e-7
    # |2 k b| > alpha0 for k = +-2 here: the mean never reaches those bin
    # centers, so the maximum sits at the swing extremum instead
    assert np.argmax(table[:, 4]) == 0
    assert np.argmax(table[:, 0]) == len(grid) - 1


def test_binary_scheme_probability_formula():
    # cutoff 0: P(0|phi) = [erf(g+) - erf(g-)]/2 directly, with
    # g+- = sqrt(2)*(alpha0*sin(phi)/2 +- a)
    s = BinningScheme.binary(0.5)
    for phi in (0.0, 0.6, -1.4):
        c = FIG2_CFG.alpha0 * math.sin(phi) / 2
        gm = math.sqrt(2.0) * (c - s.half_width)
        gp = math.sqrt(2.0) * (c + s.half_width)
        direct = 0.5 * (math.erf(gp) - math.erf(gm))
        got = _prob(FIG2_CFG, s, 0, phi)
        assert got == pytest.approx(direct, rel=1e-13)


# ---------------------------------------------------------------------------
# Analytic derivative.


@pytest.mark.parametrize("phi", [0.05, 0.4, -0.9, 1.3, 2.5, -2.9])
def test_bin_derivative_matches_central_difference(phi):
    for col in range(FIG2_SCHEME.n_outcomes):
        f = lambda x: _prob(FIG2_CFG, FIG2_SCHEME, col, x)
        numeric = central_diff(f, phi, 1e-6)
        analytic = _deriv(FIG2_CFG, FIG2_SCHEME, col, phi)
        assert analytic == pytest.approx(numeric, rel=1e-5, abs=1e-9)


def test_derivative_vanishes_at_stationary_phases():
    # cos(pi/2) kills every derivative; bin 0 is also even around phi=0
    for col in range(FIG2_SCHEME.n_outcomes):
        assert abs(_deriv(FIG2_CFG, FIG2_SCHEME, col, math.pi / 2)) < 1e-12
    assert _deriv(FIG2_CFG, FIG2_SCHEME, 0 + 2, 0.0) == 0.0


def test_derivatives_sum_to_zero():
    for phi in np.linspace(-3.0, 3.0, 25):
        derivs = [
            _deriv(FIG2_CFG, FIG2_SCHEME, col, phi)
            for col in range(FIG2_SCHEME.n_outcomes)
        ]
        # leftover is the rounded negative of the bin sum, so the re-summed
        # total carries at most one rounding of the largest term
        assert math.fsum(derivs) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# OutcomeDistribution bundle.


def test_outcome_distribution_matches_scalar_calls():
    phi = 0.37
    dist = outcome_distribution(FIG2_CFG, FIG2_SCHEME, phi)
    assert dist.phi == phi
    assert dist.cutoff == 2
    for col in range(FIG2_SCHEME.n_outcomes):
        assert dist.all_probs()[col] == _prob(FIG2_CFG, FIG2_SCHEME, col, phi)
        assert dist.all_derivs()[col] == _deriv(FIG2_CFG, FIG2_SCHEME, col, phi)
    assert dist.bin_probs[1 + 2] == _prob(FIG2_CFG, FIG2_SCHEME, 1 + 2, phi)
    assert dist.leftover_deriv == _deriv(FIG2_CFG, FIG2_SCHEME, -1, phi)
    assert len(dist.all_probs()) == 6
    assert math.fsum(dist.all_probs()) == pytest.approx(1.0, abs=1e-12)
    assert math.fsum(dist.all_derivs()) == pytest.approx(0.0, abs=1e-15)


def test_outcome_distributions_compare_by_value():
    dist = outcome_distribution(FIG2_CFG, FIG2_SCHEME, 0.37)
    assert dist == outcome_distribution(FIG2_CFG, FIG2_SCHEME, 0.37)
    assert not dist != outcome_distribution(FIG2_CFG, FIG2_SCHEME, 0.37)
    assert dist != outcome_distribution(FIG2_CFG, FIG2_SCHEME, 0.38)
    assert dist != outcome_distribution(InterferometerConfig.from_nbar(201.0),
                                        FIG2_SCHEME, 0.37)
    assert dist != "not a distribution"


# ---------------------------------------------------------------------------
# Phase-batched outcome table.

BATCH_SYSTEMS = {
    "binary": (InterferometerConfig.from_nbar(200.0), BinningScheme.binary(0.5)),
    "fig2": (FIG2_CFG, FIG2_SCHEME),
    "wide": (InterferometerConfig.from_nbar(1e4), BinningScheme(0.5, 3.2, 16)),
}
BATCH_GRID = np.concatenate([
    np.linspace(-math.pi, math.pi, 2001),
    [0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi],
])


def _one_phase_row(cfg, scheme, phi):
    """Probabilities and derivatives at one phase, by the scalar formulas
    that evaluated one phase per call before the batched table."""
    c = 0.5 * cfg.alpha0 * math.sin(phi)
    shift = math.sqrt(2.0) * (c + scheme.centers())
    ga = math.sqrt(2.0) * scheme.half_width
    g_lo, g_hi = shift - ga, shift + ga
    probs = 0.5 * erf_diff(g_lo, g_hi)
    factor = (1.0 / math.sqrt(math.pi)) * cfg.alpha0 * math.cos(phi) / math.sqrt(2.0)
    derivs = factor * (np.exp(-g_hi * g_hi) - np.exp(-g_lo * g_lo))
    return (np.append(probs, max(0.0, 1.0 - math.fsum(probs))),
            np.append(derivs, -math.fsum(derivs)))


@pytest.mark.parametrize("system", sorted(BATCH_SYSTEMS))
def test_outcome_table_is_batch_invariant(system):
    cfg, scheme = BATCH_SYSTEMS[system]
    probs, derivs = outcome_table(cfg, scheme, BATCH_GRID)
    assert probs.shape == derivs.shape == (len(BATCH_GRID), 2 * scheme.cutoff + 2)

    rows = [outcome_table(cfg, scheme, [phi]) for phi in BATCH_GRID]
    assert np.array_equal(probs, np.vstack([p for p, _ in rows]))
    assert np.array_equal(derivs, np.vstack([d for _, d in rows]))
    scalar = [_one_phase_row(cfg, scheme, phi) for phi in BATCH_GRID.tolist()]
    assert np.array_equal(probs, np.array([p for p, _ in scalar]))
    assert np.array_equal(derivs, np.array([d for _, d in scalar]))

    for p_row, d_row in zip(probs.tolist(), derivs.tolist()):
        assert abs(math.fsum(p_row) - 1.0) <= 1e-12
        assert abs(math.fsum(d_row)) <= 1e-12 * (1.0 + cfg.alpha0)


def test_outcome_table_rejects_non_vector_phases():
    with pytest.raises(ValueError):
        outcome_table(FIG2_CFG, FIG2_SCHEME, 0.3)
    with pytest.raises(ValueError):
        outcome_table(FIG2_CFG, FIG2_SCHEME, [[0.1, 0.2]])



@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_core_rejects_a_phase_that_is_not_finite(phi, monkeypatch):
    # a NaN phase gave NaN bins with leftover max(0.0, nan) = 0.0, or a NaN
    # pdf and fringe; an infinite one a bare "math domain error" from math.sin
    def no_erf(x, y):
        raise AssertionError("erf_diff called")

    monkeypatch.setattr(interferometer, "erf_diff", no_erf)
    obs = Observable.ones(FIG2_SCHEME)
    binary = BinningScheme.binary(0.5)
    for call in (lambda: quadrature_pdf(FIG2_CFG, phi, [0.0, 1.0]),
                 lambda: continuous_signal(FIG2_CFG, phi),
                 lambda: continuous_signal(FIG2_CFG, np.array([0.3, phi])),
                 lambda: outcome_probs(FIG2_CFG, FIG2_SCHEME, [0.1, phi]),
                 lambda: outcome_derivs(FIG2_CFG, FIG2_SCHEME, [phi]),
                 lambda: outcome_table(FIG2_CFG, FIG2_SCHEME, [phi]),
                 lambda: outcome_distribution(FIG2_CFG, FIG2_SCHEME, phi),
                 lambda: signal(FIG2_CFG, FIG2_SCHEME, obs, phi),
                 lambda: error_propagation_sensitivity(FIG2_CFG, FIG2_SCHEME, obs, phi),
                 lambda: binary_sensitivity(FIG2_CFG, binary, phi),
                 lambda: binarized_cfi(FIG2_CFG, FIG2_SCHEME, obs, [0.2, phi]),
                 lambda: cfi(FIG2_CFG, FIG2_SCHEME, np.array([0.2, phi])),
                 lambda: crb(FIG2_CFG, FIG2_SCHEME, phi)):
        with pytest.raises(ValueError, match=f"phase must be finite, got {phi}"):
            call()
