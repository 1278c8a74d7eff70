"""Metrics layer tests.

Independent oracles: normal-CDF signal reconstructions and brentq root
finding from scipy, high-precision Fisher information from mpmath, and
adaptive quadrature for the continuous reference signal.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from mzhomodyne import metrics
from mzhomodyne.interferometer import (
    BinningScheme,
    InterferometerConfig,
    InvalidScheme,
    outcome_derivs,
    outcome_distribution,
    outcome_probs,
    outcome_table,
    quadrature_pdf,
)
from mzhomodyne.metrics import (
    FIXED_RANDOM_EIGENVALUES,
    AlphabetMismatch,
    DegenerateSignal,
    NoFringe,
    Observable,
    SchemeNotBinary,
    best_sensitivity,
    binarized_cfi,
    binary_sensitivity,
    cfi,
    continuous_signal,
    crb,
    error_propagation_sensitivity,
    fwhm,
    fwhm_continuous,
    signal,
    signal_peaks,
    sweep,
    visibility,
    visibility_boundary,
)
from mzhomodyne.numerics import _drive
from mzhomodyne.simulate import calibration_curve
from oracles import (binary_best_sensitivity, binary_half_depth_width, central_diff,
                     score_observable)

FIG2_CFG = InterferometerConfig.from_nbar(200.0)
FIG2_SCHEME = BinningScheme(half_width=0.5, spacing=3.8, cutoff=2)
FIG4_SCHEME = BinningScheme(half_width=0.5, spacing=3.2, cutoff=5)
BINARY_HALF = BinningScheme.binary(0.5)
UNIT_BINARY_OBS = Observable((1.0,), 0.0)


def _prob(cfg, scheme, col, phi):
    """P of outcome_table column col (bin k is column k + cutoff) at phi."""
    return float(outcome_table(cfg, scheme, [phi])[0][0, col])


def _cdf_signal(cfg, scheme, values, leftover, phi):
    """Signal mean rebuilt from the normal CDF, bypassing the erf kernels."""
    mean_p = -0.5 * cfg.alpha0 * math.sin(phi)
    total_bins = 0.0
    mean = 0.0
    for k, mu in zip(range(-scheme.cutoff, scheme.cutoff + 1), values):
        lo = k * scheme.spacing - scheme.half_width
        hi = k * scheme.spacing + scheme.half_width
        p = stats.norm.cdf(hi, mean_p, 0.5) - stats.norm.cdf(lo, mean_p, 0.5)
        total_bins += p
        mean += mu * p
    return mean + leftover * (1.0 - total_bins)


# ---------------------------------------------------------------------------
# Observable type.


def test_observable_validation():
    with pytest.raises(ValueError):
        Observable(())
    with pytest.raises(ValueError):
        Observable((1.0, 2.0))  # even length has no center bin


@pytest.mark.parametrize("bins, leftover", [
    ((math.nan,), 0.0), ((1.0, math.inf, 1.0), 0.0), ((1.0,), math.nan)])
def test_observable_rejects_non_finite_eigenvalues(bins, leftover):
    # unchecked, a NaN eigenvalue gives a NaN visibility, an inf one a NaN variance
    with pytest.raises(ValueError, match="finite"):
        Observable(bins, leftover)


def test_observable_accessors():
    obs = Observable(FIXED_RANDOM_EIGENVALUES, 0.25)
    assert obs.cutoff == 2
    values = obs.all_values()
    assert len(values) == 2 * obs.cutoff + 2
    assert values[0] == -0.715
    assert values[4] == 0.392
    assert values[-1] == 0.25
    with pytest.raises(AlphabetMismatch):
        signal(FIG2_CFG, BinningScheme(0.5, 3.8, 3), obs, 0.0)


def test_observable_constructors():
    ones = Observable.ones(FIG2_SCHEME)
    assert ones.bin_values == (1.0,) * 5 and ones.leftover_value == 0.0
    alt = Observable.alternating(FIG2_SCHEME)
    assert alt.bin_values == (1.0, -1.0, 1.0, -1.0, 1.0)
    assert alt.leftover_value == 0.0


# ---------------------------------------------------------------------------
# signal


def test_signal_constant_observable_is_flat():
    obs = Observable((2.5,) * 5, 2.5)
    for phi in (0.0, 0.4, -1.3, 2.0):
        pt = signal(FIG2_CFG, FIG2_SCHEME, obs, phi)
        assert pt.mean == pytest.approx(2.5, abs=1e-12)
        assert pt.variance == pytest.approx(0.0, abs=1e-12)
        assert pt.slope == pytest.approx(0.0, abs=1e-12)


def test_signal_ones_equals_one_minus_leftover():
    obs = Observable.ones(FIG2_SCHEME)
    for phi in (0.0, 0.27, 0.9, -2.2):
        pt = signal(FIG2_CFG, FIG2_SCHEME, obs, phi)
        leftover = outcome_distribution(FIG2_CFG, FIG2_SCHEME, phi).leftover_prob
        assert pt.mean == pytest.approx(1.0 - leftover, abs=1e-14)


def test_signal_against_cdf_oracle():
    obs = Observable(FIXED_RANDOM_EIGENVALUES, 0.3)
    for phi in (0.0, 0.17, -0.62, 1.4, 2.9):
        pt = signal(FIG2_CFG, FIG2_SCHEME, obs, phi)
        oracle = _cdf_signal(FIG2_CFG, FIG2_SCHEME, FIXED_RANDOM_EIGENVALUES, 0.3, phi)
        assert pt.mean == pytest.approx(oracle, abs=1e-12)


def test_signal_slope_matches_central_difference():
    obs = Observable(FIXED_RANDOM_EIGENVALUES, 0.0)
    for phi in (0.08, 0.51, -1.1):
        pt = signal(FIG2_CFG, FIG2_SCHEME, obs, phi)
        numeric = central_diff(
            lambda x: signal(FIG2_CFG, FIG2_SCHEME, obs, x).mean, phi, 1e-6
        )
        assert pt.slope == pytest.approx(numeric, rel=1e-6, abs=1e-10)


def test_signal_variance_is_non_negative():
    obs = Observable(FIXED_RANDOM_EIGENVALUES, -0.4)
    for phi in np.linspace(-3.1, 3.1, 101):
        pt = signal(FIG2_CFG, FIG2_SCHEME, obs, phi)
        assert pt.variance >= 0.0


@pytest.mark.parametrize("offset", [1e6, 1e8])
def test_signal_variance_matches_centered_sum_oracle(offset):
    # an offset that dwarfs the +-1 spread: sum mu^2 P - mean^2 cancels
    # catastrophically, the centered sum does not
    alt = Observable.alternating(FIG2_SCHEME)
    obs = Observable(tuple(v + offset for v in alt.bin_values),
                     alt.leftover_value + offset)
    grid = np.linspace(-3.0, 3.0, 61)
    point = signal(FIG2_CFG, FIG2_SCHEME, obs, grid)
    probs, _ = outcome_table(FIG2_CFG, FIG2_SCHEME, grid)
    mu = [mpmath.mpf(v) for v in obs.all_values().tolist()]
    with mpmath.workdps(50):
        for var, row in zip(point.variance.tolist(), probs.tolist()):
            p = [mpmath.mpf(x) for x in row]
            mean = mpmath.fsum(m * q for m, q in zip(mu, p))
            oracle = mpmath.fsum((m - mean) ** 2 * q for m, q in zip(mu, p))
            assert var == pytest.approx(float(oracle), rel=1e-12)


def test_sensitivity_is_root_variance_over_slope():
    obs = Observable(FIXED_RANDOM_EIGENVALUES, 0.3)
    grid = np.linspace(0.05, 1.5, 30)
    point = signal(FIG2_CFG, FIG2_SCHEME, obs, grid)
    delta = error_propagation_sensitivity(FIG2_CFG, FIG2_SCHEME, obs, grid)
    assert np.all(np.abs(point.slope) > 1e-14)
    for d, var, slope in zip(delta.tolist(), point.variance.tolist(),
                             point.slope.tolist()):
        assert d == math.sqrt(var) / abs(slope)


def test_signal_alternating_flips_sign_between_fringe_peaks():
    obs = Observable.alternating(FIG2_SCHEME)
    # quadrature mean sweeps across bin 0, -1, -2 centers as phi grows
    s_center = signal(FIG2_CFG, FIG2_SCHEME, obs, 0.0).mean
    phi_1 = math.asin(2.0 * 3.8 / FIG2_CFG.alpha0)
    s_next = signal(FIG2_CFG, FIG2_SCHEME, obs, phi_1).mean
    assert s_center > 0.5
    assert s_next < -0.5


def test_signal_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        signal(FIG2_CFG, FIG2_SCHEME, Observable((1.0,), 0.0), 0.1)
    with pytest.raises(AlphabetMismatch):
        error_propagation_sensitivity(
            FIG2_CFG, FIG2_SCHEME, Observable((1.0, 2.0, 3.0), 0.0), 0.1
        )


# ---------------------------------------------------------------------------
# error_propagation_sensitivity


def test_sensitivity_binary_eigenvalue_independence():
    rng = np.random.default_rng(11)
    phi = 0.46
    reference = binary_sensitivity(FIG2_CFG, BINARY_HALF, phi)
    for _ in range(10):
        mu_plus, mu_minus = rng.uniform(-5.0, 5.0, 2)
        if abs(mu_plus - mu_minus) < 0.1:
            mu_plus += 0.5
        obs = Observable((mu_plus,), mu_minus)
        got = error_propagation_sensitivity(FIG2_CFG, BINARY_HALF, obs, phi)
        assert got == pytest.approx(reference, rel=1e-12)


def test_sensitivity_affine_invariance():
    obs = Observable(FIXED_RANDOM_EIGENVALUES, 0.3)
    scaled = Observable(
        tuple(3.7 * v - 1.2 for v in FIXED_RANDOM_EIGENVALUES), 3.7 * 0.3 - 1.2
    )
    for phi in (0.11, 0.52, -0.95, 2.3):
        a = error_propagation_sensitivity(FIG2_CFG, FIG2_SCHEME, obs, phi)
        b = error_propagation_sensitivity(FIG2_CFG, FIG2_SCHEME, scaled, phi)
        assert b == pytest.approx(a, rel=1e-12)


def test_sensitivity_constant_observable_is_infinite():
    obs = Observable((4.0,) * 5, 4.0)
    for phi in (0.0, 0.3, 1.2):
        assert error_propagation_sensitivity(FIG2_CFG, FIG2_SCHEME, obs, phi) == math.inf


def test_ones_signal_dark_point_location():
    # slope of the ones signal vanishes at the first dark point, close to
    # the coarse estimate spacing/alpha0 = 0.2687
    obs = Observable.ones(FIG2_SCHEME)
    slope = lambda phi: signal(FIG2_CFG, FIG2_SCHEME, obs, phi).slope
    dark = optimize.brentq(slope, 0.15, 0.4, xtol=1e-12)
    coarse = 3.8 / FIG2_CFG.alpha0
    assert abs(dark - coarse) / coarse < 0.10
    assert dark == pytest.approx(0.27204, abs=5e-5)
    assert error_propagation_sensitivity(FIG2_CFG, FIG2_SCHEME, obs, dark) > 1e4
    assert error_propagation_sensitivity(FIG2_CFG, FIG2_SCHEME, obs, 0.15) < 1.0


def _floor_neighbours(floor):
    """floor, the two floats next to it, and each of them negated."""
    near = [floor, math.nextafter(floor, 0.0), math.nextafter(floor, math.inf)]
    return near + [-x for x in near]


def test_vector_sensitivity_equals_the_scalar_formula_around_the_slope_floor():
    slopes = _floor_neighbours(metrics._SLOPE_FLOOR) + [0.0, -0.0, 1e-300, 0.7, -3.5]
    for variance in (0.0, 5e-324, 0.25, 1e300):
        want = [math.inf if abs(s) < metrics._SLOPE_FLOOR else math.sqrt(variance) / abs(s)
                for s in slopes]
        got = metrics._sensitivities(np.full(len(slopes), variance), np.array(slopes))
        assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))
        floats = [metrics._sensitivity(variance, s) for s in slopes]  # a float round's
        assert np.array_equal(np.array(floats).view(np.int64), np.array(want).view(np.int64))


# ---------------------------------------------------------------------------
# cfi / crb


def test_vector_bound_equals_the_scalar_formula_around_the_cfi_floor():
    # one outcome with P' = 1, so a row's information is 1/P: P = 1e20 and
    # its neighbours put it at _CFI_FLOOR = 1e-20 and on either side
    probs = [1e20, math.nextafter(1e20, 0.0), math.nextafter(1e20, math.inf),
             1.0, 1e-3, 1e-16]
    probs, derivs = np.array(probs)[:, None], np.ones((len(probs), 1))
    info = metrics._fisher_rows(probs, derivs).tolist()
    assert info[:3] == [metrics._CFI_FLOOR,
                        math.nextafter(metrics._CFI_FLOOR, 1.0),
                        math.nextafter(metrics._CFI_FLOOR, 0.0)]
    want = [math.inf if f < metrics._CFI_FLOOR else 1.0 / math.sqrt(f) for f in info]
    got = metrics._bounds(probs, derivs)
    assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))
    assert got[2] == math.inf and math.isfinite(got[0])


_NEAR_PROB_FLOOR = [0.0, -0.0, 1e-16, math.nextafter(1e-15, 0.0), 1e-15,
                    math.nextafter(1e-15, 1.0), 1e-9, 0.5, 1.0, math.nan]


@st.composite
def _fisher_tables(draw):
    """(P, P') tables of 1, 2 or 6 columns; P drawn around _PROB_FLOOR."""
    cols = draw(st.sampled_from([1, 2, 6]))
    rows = draw(st.integers(0, 20))
    probs = st.one_of(st.sampled_from(_NEAR_PROB_FLOOR), st.floats(0.0, 1.0))
    derivs = st.one_of(st.just(0.0), st.floats(-1e6, 1e6))
    tables = [[[draw(f) for _ in range(cols)] for _ in range(rows)] for f in (probs, derivs)]
    return [np.array(t, dtype=np.float64).reshape(rows, cols) for t in tables]


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_fisher_tables())
def test_fisher_rows_equal_the_fsum_of_the_kept_terms(tables):
    # the masked array gives each skipped term an exact 0.0; the sum is the
    # fsum over the outcomes with P >= _PROB_FLOOR alone, bit for bit
    probs, derivs = tables
    want = [math.fsum(d * d / p for p, d in zip(p_row, d_row) if p >= metrics._PROB_FLOOR)
            for p_row, d_row in zip(probs.tolist(), derivs.tolist())]
    got = metrics._fisher_rows(probs, derivs)
    assert np.array_equal(got.view(np.int64), np.array(want, dtype=np.float64).view(np.int64))


@pytest.mark.parametrize("phis", [[], np.empty(0)], ids=["list", "array"])
@pytest.mark.parametrize("scheme", [BinningScheme.binary(0.5), BinningScheme(0.5, 3.2, 2)],
                         ids=["binary", "five_bins"])
def test_an_empty_phase_grid_gives_empty_results(scheme, phis):
    # the row sums meet tables of no rows here, which hold no largest term
    cfg, obs = InterferometerConfig.from_nbar(100.0), Observable.alternating(scheme)
    width = scheme.n_outcomes
    for table in (*outcome_table(cfg, scheme, phis), outcome_probs(cfg, scheme, phis),
                  outcome_derivs(cfg, scheme, phis)):
        assert table.dtype == np.float64 and table.shape == (0, width)
    point = signal(cfg, scheme, obs, phis)
    for values in (point.phi, point.mean, point.variance, point.slope, cfi(cfg, scheme, phis),
                   crb(cfg, scheme, phis), binarized_cfi(cfg, scheme, obs, phis)):
        assert values.dtype == np.float64 and values.shape == (0,)


def test_cfi_binary_equals_inverse_square_sensitivity():
    # identity F = 1/dphi^2 holds wherever the tail-skip rule drops nothing,
    # i.e. while the central-bin probability stays above the 1e-15 cutoff
    checked = 0
    for phi in np.linspace(0.05, math.pi / 2 - 0.05, 40):
        p = _prob(FIG2_CFG, BINARY_HALF, 0, phi)
        dphi = binary_sensitivity(FIG2_CFG, BINARY_HALF, phi)
        if p < 1e-12 or not math.isfinite(dphi):
            continue
        f = cfi(FIG2_CFG, BINARY_HALF, phi)
        assert f == pytest.approx(1.0 / dphi**2, rel=1e-10)
        checked += 1
    assert checked >= 10


def test_cfi_zero_at_symmetric_point():
    assert cfi(FIG2_CFG, BINARY_HALF, 0.0) == 0.0


def test_cfi_matches_finite_difference_oracle():
    phi, h = 0.1, 1e-6
    total = 0.0
    for col in range(FIG2_SCHEME.n_outcomes):
        p = _prob(FIG2_CFG, FIG2_SCHEME, col, phi)
        if p < 1e-15:
            continue
        dp = central_diff(
            lambda x: _prob(FIG2_CFG, FIG2_SCHEME, col, x), phi, h
        )
        total += dp * dp / p
    assert cfi(FIG2_CFG, FIG2_SCHEME, phi) == pytest.approx(total, rel=1e-6)


def test_cfi_matches_high_precision_oracle():
    # full-precision reference keeps every tail term; the 1e-15 skip rule
    # must not move the result at this scale
    phi = 0.3
    with mpmath.workdps(60):
        alpha0 = mpmath.sqrt(200)
        a, b = mpmath.mpf("0.5"), mpmath.mpf("3.8")
        c = alpha0 / 2 * mpmath.sin(phi)
        probs, derivs = [], []
        for k in range(-2, 3):
            gm = mpmath.sqrt(2) * (c + k * b - a)
            gp = mpmath.sqrt(2) * (c + k * b + a)
            # erfc keeps relative accuracy for far bins on either side
            if gm + gp >= 0:
                probs.append((mpmath.erfc(gm) - mpmath.erfc(gp)) / 2)
            else:
                probs.append((mpmath.erfc(-gp) - mpmath.erfc(-gm)) / 2)
            derivs.append(
                alpha0 * mpmath.cos(phi) / mpmath.sqrt(2)
                * (mpmath.exp(-gp**2) - mpmath.exp(-gm**2)) / mpmath.sqrt(mpmath.pi)
            )
        probs.append(1 - mpmath.fsum(probs))
        derivs.append(-mpmath.fsum(derivs))
        oracle = float(mpmath.fsum(d**2 / p for p, d in zip(probs, derivs)))
    assert cfi(FIG2_CFG, FIG2_SCHEME, phi) == pytest.approx(oracle, rel=2e-12)


def test_crb_positive_finite_at_generic_phase():
    value = crb(FIG2_CFG, FIG2_SCHEME, 0.1)
    assert 0.0 < value < 1.0
    assert crb(FIG2_CFG, BINARY_HALF, 0.0) == math.inf


def test_best_binary_crb_scaling():
    _, dphi = best_sensitivity(FIG2_CFG, BINARY_HALF, None)
    target = 1.37 / math.sqrt(200.0)
    assert abs(dphi - target) / target < 0.05


def test_crb_never_exceeds_error_propagation():
    rng = np.random.default_rng(23)
    for _ in range(200):
        values = tuple(rng.uniform(-2.0, 2.0, 5))
        obs = Observable(values, float(rng.uniform(-2.0, 2.0)))
        for phi in rng.uniform(-math.pi, math.pi, 5):
            dphi = error_propagation_sensitivity(FIG2_CFG, FIG2_SCHEME, obs, phi)
            bound = crb(FIG2_CFG, FIG2_SCHEME, phi)
            if math.isfinite(dphi) and math.isfinite(bound):
                assert bound <= dphi + 1e-12


@st.composite
def _systems(draw):
    """(cfg, scheme, phi): nbar log-uniform in [1, 1e8], b > 2a, any cutoff."""
    cfg = InterferometerConfig.from_nbar(10.0 ** draw(st.floats(0.0, 8.0)))
    a = draw(st.floats(0.01, 2.0))
    b = 2.0 * a * (1.0 + draw(st.floats(1e-3, 4.0)))
    scheme = BinningScheme(half_width=a, spacing=b, cutoff=draw(st.integers(0, 6)))
    return cfg, scheme, draw(st.floats(-math.pi, math.pi))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_systems(), st.data())
def test_crb_never_exceeds_error_propagation_on_drawn_systems(system, data):
    # Braunstein & Caves: 1/sqrt(F) bounds every observable's propagated error
    cfg, scheme, phi = system
    n = 2 * scheme.cutoff + 1
    values = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    obs = data.draw(st.sampled_from((
        Observable(tuple(values), data.draw(st.floats(-2.0, 2.0))),
        Observable.ones(scheme), Observable.alternating(scheme))))
    assert crb(cfg, scheme, phi) <= (
        error_propagation_sensitivity(cfg, scheme, obs, phi) * (1.0 + 1e-9))


# Both cases fail because cfi skips every outcome with P below
# _PROB_FLOOR = 1e-15, information and all, while the other side keeps it.


@pytest.mark.xfail(strict=True, reason=(
    "cfi skips the outcome with P = 3.7e-19 under _PROB_FLOOR (its P'^2/P "
    "is 4.6e-15), but binarized_cfi keeps it inside its group"))
def test_binarized_cfi_below_full_cfi_across_the_probability_floor():
    cfg = InterferometerConfig.from_nbar(317.3215709404951)
    scheme = BinningScheme(half_width=0.23360844009089715,
                           spacing=0.5854227906250784, cutoff=5)
    obs, phi = Observable.alternating(scheme), -2.336068674641469
    assert binarized_cfi(cfg, scheme, obs, phi) <= cfi(cfg, scheme, phi)


@pytest.mark.xfail(strict=True, reason=(
    "cfi skips the two outer bins (P = 3.1e-16) under _PROB_FLOOR, so crb "
    "is inf, while their slope 2.5e-14 keeps the propagated error finite"))
def test_crb_below_propagated_error_across_the_probability_floor():
    cfg = InterferometerConfig(alpha0=10.0)
    scheme = BinningScheme(half_width=1.40625, spacing=5.44921875, cutoff=1)
    obs = Observable((0.0, 0.0, 1.0), 0.0)
    assert crb(cfg, scheme, 0.0) <= error_propagation_sensitivity(
        cfg, scheme, obs, 0.0)


def test_score_observable_meets_the_bound_on_the_fig2_system():
    # the score's mean sum_k P'_k is 0; its variance and slope are F
    obs = score_observable(FIG2_CFG, FIG2_SCHEME, 0.3)
    point = signal(FIG2_CFG, FIG2_SCHEME, obs, 0.3)
    info = cfi(FIG2_CFG, FIG2_SCHEME, 0.3)
    assert abs(point.mean) <= 1e-15
    assert math.isclose(point.variance, info, rel_tol=1e-14)
    assert math.isclose(point.slope, info, rel_tol=1e-14)
    assert math.isclose(error_propagation_sensitivity(FIG2_CFG, FIG2_SCHEME, obs, 0.3),
                        crb(FIG2_CFG, FIG2_SCHEME, 0.3), rel_tol=1e-14)


@pytest.mark.xfail(strict=True, reason=(
    "cfi skips outcomes with P below _PROB_FLOOR = 1e-15, while the score "
    "observable's variance keeps their P'^2/P terms, so the two differ "
    "wherever an outcome holds 0 < P < 1e-15"))
@example(system=(InterferometerConfig.from_nbar(317.3215709404951),
                 BinningScheme(half_width=0.23360844009089715,
                               spacing=0.5854227906250784, cutoff=5),
                 -2.336068674641469))
@example(system=(InterferometerConfig(alpha0=10.0),
                 BinningScheme(half_width=1.40625, spacing=5.44921875, cutoff=1),
                 0.0))
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_systems())
def test_score_observable_propagated_error_equals_crb_on_drawn_systems(system):
    # the score saturates Braunstein & Caves: sqrt(Var mu)/|d<mu>/dphi| is
    # 1/sqrt(F); math.isclose counts two infinities as equal
    cfg, scheme, phi = system
    obs = score_observable(cfg, scheme, phi)
    assert math.isclose(error_propagation_sensitivity(cfg, scheme, obs, phi),
                        crb(cfg, scheme, phi), rel_tol=1e-10)


# ---------------------------------------------------------------------------
# binary_sensitivity / binarized_cfi


def test_binary_sensitivity_requires_single_bin():
    with pytest.raises(SchemeNotBinary):
        binary_sensitivity(FIG2_CFG, FIG2_SCHEME, 0.3)


def test_binary_sensitivity_is_the_propagated_error_of_the_unit_bin():
    phis = np.linspace(-math.pi, math.pi, 101)
    for cfg in (FIG2_CFG, InterferometerConfig.from_nbar(1e6)):
        got = binary_sensitivity(cfg, BINARY_HALF, phis)
        want = error_propagation_sensitivity(cfg, BINARY_HALF, UNIT_BINARY_OBS, phis)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_binary_sensitivity_diverges_at_fringe_peak():
    assert binary_sensitivity(FIG2_CFG, BINARY_HALF, 0.0) == math.inf


def test_binary_sensitivity_matches_normalized_observable():
    mu_plus = 1.0 / math.erf(math.sqrt(2.0) * 0.5)
    for phi in (0.2, 0.7, 1.1):
        direct = binary_sensitivity(FIG2_CFG, BINARY_HALF, phi)
        via_obs = error_propagation_sensitivity(
            FIG2_CFG, BINARY_HALF, Observable((mu_plus,), 0.0), phi
        )
        arbitrary = error_propagation_sensitivity(
            FIG2_CFG, BINARY_HALF, Observable((7.3,), -2.1), phi
        )
        assert via_obs == pytest.approx(direct, rel=1e-12)
        assert arbitrary == pytest.approx(direct, rel=1e-12)


def test_binary_observables_saturate_binarized_bound():
    # two distinct eigenvalues: sensitivity * sqrt(binarized CFI) = 1
    cases = [
        (BINARY_HALF, Observable((1.0,), 0.0)),
        (FIG2_SCHEME, Observable.ones(FIG2_SCHEME)),
        (FIG2_SCHEME, Observable((2.0,) * 5, 5.0)),
    ]
    for scheme, obs in cases:
        for phi in np.linspace(0.05, 1.5, 30):
            pt = signal(FIG2_CFG, scheme, obs, phi)
            if abs(pt.slope) < 1e-12:
                continue
            dphi = error_propagation_sensitivity(FIG2_CFG, scheme, obs, phi)
            f_bin = binarized_cfi(FIG2_CFG, scheme, obs, phi)
            assert dphi * math.sqrt(f_bin) == pytest.approx(1.0, abs=1e-10)


def test_binarized_cfi_never_exceeds_full_cfi():
    for obs in (
        Observable(FIXED_RANDOM_EIGENVALUES, 0.0),
        Observable.alternating(FIG2_SCHEME),
        Observable.ones(FIG2_SCHEME),
    ):
        for phi in np.linspace(-3.0, 3.0, 61):
            full = cfi(FIG2_CFG, FIG2_SCHEME, phi)
            grouped = binarized_cfi(FIG2_CFG, FIG2_SCHEME, obs, phi)
            assert grouped <= full + 1e-12


def test_alternating_observable_nearly_saturates_crb():
    # falsifiable proxy for "almost saturates": ratio <= 1.25 on at least
    # 90% of the grid, after dropping points where the bound itself blows up
    obs = Observable.alternating(FIG2_SCHEME)
    grid = np.linspace(-math.pi + 0.05, math.pi - 0.05, 2000)
    threshold = 10.0 * 1.37 / math.sqrt(200.0)
    kept, good = 0, 0
    for phi in grid:
        bound = crb(FIG2_CFG, FIG2_SCHEME, phi)
        if not math.isfinite(bound) or bound > threshold:
            continue
        kept += 1
        dphi = error_propagation_sensitivity(FIG2_CFG, FIG2_SCHEME, obs, phi)
        if dphi / bound <= 1.25:
            good += 1
    assert kept > 1000
    assert good / kept >= 0.9


# ---------------------------------------------------------------------------
# visibility


def test_visibility_vanishes_without_interference():
    cfg = InterferometerConfig(1e-8)
    assert abs(visibility(cfg, BINARY_HALF, UNIT_BINARY_OBS)) < 1e-6


def test_visibility_large_nbar_exceeds_090():
    assert visibility(FIG2_CFG, BINARY_HALF, UNIT_BINARY_OBS) > 0.9


def test_visibility_against_cdf_oracle():
    for nbar in (2.0, 5.8, 20.0, 200.0):
        cfg = InterferometerConfig.from_nbar(nbar)
        s0 = _cdf_signal(cfg, BINARY_HALF, (1.0,), 0.0, 0.0)
        s1 = _cdf_signal(cfg, BINARY_HALF, (1.0,), 0.0, math.pi / 2)
        oracle = (s0 - s1) / (s0 + s1)
        got = visibility(cfg, BINARY_HALF, UNIT_BINARY_OBS)
        assert got == pytest.approx(oracle, abs=1e-12)


def test_visibility_at_nbar_58_half_width_bin():
    # computed value for nbar=5.8, a=1/2; the 0.9 level needs nbar near 7.8
    # at this bin size (0.9 at 5.8 only holds in the a->0 limit)
    got = visibility(InterferometerConfig.from_nbar(5.8), BINARY_HALF, UNIT_BINARY_OBS)
    assert got == pytest.approx(0.7921, abs=2e-4)


def test_visibility_narrow_bin_limit_is_tanh():
    scheme = BinningScheme.binary(0.01)
    for nbar in (2.0, 5.8889, 12.0):
        got = visibility(InterferometerConfig.from_nbar(nbar), scheme, UNIT_BINARY_OBS)
        assert got == pytest.approx(math.tanh(nbar / 4.0), abs=2e-4)


def test_visibility_degenerate_signal():
    obs = Observable((0.0,), 0.0)
    with pytest.raises(DegenerateSignal):
        visibility(FIG2_CFG, BINARY_HALF, obs)


def test_visibility_boundary_narrow_bin():
    # a->0 limit: V = tanh(nbar/4), so the 0.9 level sits at 4*atanh(0.9)
    got = visibility_boundary(0.01, 0.9)
    assert got == pytest.approx(4.0 * math.atanh(0.9), abs=0.05)


def test_visibility_boundary_half_width_bin():
    got = visibility_boundary(0.5, 0.9)
    assert 7.5 < got < 8.2
    cfg = InterferometerConfig.from_nbar(got)
    assert visibility(cfg, BINARY_HALF, UNIT_BINARY_OBS) == pytest.approx(0.9, abs=1e-6)


def test_visibility_boundary_evaluates_each_visibility_once(monkeypatch):
    # find_root evaluates both bracket ends and every Brent step; nothing
    # else is evaluated on a bracket that straddles the target
    calls = []
    real = metrics.visibility

    def counting(cfg, scheme, obs):
        calls.append(cfg.nbar)
        return real(cfg, scheme, obs)

    monkeypatch.setattr(metrics, "visibility", counting)
    # within 4.4e-16 of the 50-digit mpmath root, 7.83480411263237382555...
    assert visibility_boundary(0.5, 0.9) == 7.834804112632377
    assert len(calls) == 21
    assert len(set(calls)) == 21


def test_visibility_boundary_edge_cases():
    assert visibility_boundary(0.5, 0.0) == 1e-6
    assert visibility_boundary(0.5, -1.0) == 1e-6
    assert visibility_boundary(0.5, 0.95) >= visibility_boundary(0.5, 0.9)
    with pytest.raises(ValueError):
        visibility_boundary(0.5, 1.0)


@pytest.mark.parametrize("half_width, target, error", [
    (0.05, math.nan, ValueError), (math.nan, 0.0, InvalidScheme),
    (math.nan, 0.9, InvalidScheme), (-0.5, -1.0, InvalidScheme),
])
def test_visibility_boundary_rejects_invalid_input_before_evaluating(
        monkeypatch, half_width, target, error):
    def no_visibility(*args):
        raise AssertionError("visibility evaluated")

    monkeypatch.setattr(metrics, "visibility", no_visibility)
    with pytest.raises(error) as err:
        visibility_boundary(half_width, target)
    assert type(err.value) is error


# ---------------------------------------------------------------------------
# continuous signal and fringe widths


def test_continuous_signal_values():
    assert continuous_signal(FIG2_CFG, 0.0) == 0.0
    assert continuous_signal(FIG2_CFG, math.pi / 2) == pytest.approx(
        -FIG2_CFG.alpha0 / 2.0, rel=1e-15
    )


def test_continuous_signal_matches_quadrature_mean():
    for phi in (0.0, 0.4, -1.1, 2.7):
        peak = -0.5 * FIG2_CFG.alpha0 * math.sin(phi)
        oracle, err = integrate.quad(
            lambda p: p * quadrature_pdf(FIG2_CFG, phi, p), peak - 12.0, peak + 12.0
        )
        assert err < 1e-9
        assert continuous_signal(FIG2_CFG, phi) == pytest.approx(oracle, abs=1e-10)


def test_fwhm_continuous_reference():
    assert fwhm_continuous(FIG2_CFG) == pytest.approx(2.0 * math.pi / 3.0, abs=1e-9)
    assert fwhm_continuous(InterferometerConfig(3.0)) == pytest.approx(
        2.0 * math.pi / 3.0, abs=1e-9
    )


def _cdf_fwhm_oracle(nbar, a):
    """Brentq-based width of the binary central fringe, via normal CDFs."""
    cfg = InterferometerConfig.from_nbar(nbar)
    s = lambda phi: _cdf_signal(cfg, BinningScheme.binary(a), (1.0,), 0.0, phi)
    dark = optimize.minimize_scalar(
        s, bounds=(0.01, math.pi - 0.01), method="bounded",
        options={"xatol": 1e-12},
    ).x
    level = 0.5 * (s(0.0) + s(dark))
    right = optimize.brentq(lambda x: s(x) - level, 1e-9, dark, xtol=1e-12)
    return 2.0 * right


def test_fwhm_binary_small_bin():
    # honest width for nbar=200, a=0.05: about 2*arcsin(sqrt(2 ln2 / nbar)),
    # i.e. 0.1667, which is 0.750 of pi/sqrt(nbar)
    got = fwhm(FIG2_CFG, BinningScheme.binary(0.05), UNIT_BINARY_OBS)
    oracle = _cdf_fwhm_oracle(200.0, 0.05)
    assert got == pytest.approx(oracle, abs=1e-7)
    # a->0 closed form, good to O(a^2) at this bin size
    assert got == pytest.approx(2.0 * math.asin(math.sqrt(2.0 * math.log(2.0) / 200.0)),
                                abs=5e-4)


def test_fwhm_binary_half_width_bin():
    got = fwhm(FIG2_CFG, BINARY_HALF, UNIT_BINARY_OBS)
    oracle = _cdf_fwhm_oracle(200.0, 0.5)
    assert got == pytest.approx(oracle, abs=1e-7)


@pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("nbar", [5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
                                  1e4, 1e6, 1e8, 1e10, 1e12, 1e14])
def test_binary_fwhm_matches_a_50_digit_half_depth_crossing(nbar, a):
    # the sweep goldens' cells and brighter ones, whose widths shrink to
    # 2e-7 rad: good to rounding only if the crossing search stops relative
    # to its bracket, not at a fixed step in phase
    cfg = InterferometerConfig.from_nbar(nbar)
    want = binary_half_depth_width(cfg, a)
    assert abs(fwhm(cfg, BinningScheme.binary(a), UNIT_BINARY_OBS) - want) <= 1e-14 * want


def test_fwhm_shrinks_with_photon_number():
    widths = [
        fwhm(InterferometerConfig.from_nbar(n), BINARY_HALF, UNIT_BINARY_OBS)
        for n in (50.0, 100.0, 200.0, 400.0)
    ]
    assert all(b < a for a, b in zip(widths, widths[1:]))


def test_fwhm_multibin_ones_signal():
    obs = Observable.ones(FIG2_SCHEME)
    got = fwhm(FIG2_CFG, FIG2_SCHEME, obs)
    # independent reconstruction of the same fringe
    s = lambda phi: _cdf_signal(FIG2_CFG, FIG2_SCHEME, (1.0,) * 5, 0.0, phi)
    dark = optimize.minimize_scalar(
        s, bounds=(0.05, 0.5), method="bounded", options={"xatol": 1e-12}
    ).x
    level = 0.5 * (s(0.0) + s(dark))
    right = optimize.brentq(lambda x: s(x) - level, 1e-9, dark, xtol=1e-12)
    assert got == pytest.approx(2.0 * right, abs=1e-7)
    assert 0.0 < got < 0.6


def test_fwhm_rejects_monotone_signal():
    ramp = Observable((-2.0, -1.0, 0.0, 1.0, 2.0), 0.0)
    with pytest.raises(NoFringe):
        fwhm(FIG2_CFG, FIG2_SCHEME, ramp)


def test_fwhm_weak_light_wide_fringe():
    # weak light keeps a shallow fringe: the relative half-depth width tends
    # to the sin^2 profile's pi/2 as nbar -> 0
    got = fwhm(InterferometerConfig.from_nbar(0.5), BINARY_HALF, UNIT_BINARY_OBS)
    assert got == pytest.approx(math.pi / 2, rel=0.05)


def test_fwhm_rejects_flat_signal():
    # amplitude so small the signal is constant to double precision
    with pytest.raises(NoFringe):
        fwhm(InterferometerConfig(1e-15), BINARY_HALF, UNIT_BINARY_OBS)


@pytest.mark.parametrize("nbar", [1e-20, 1e-14])
def test_fwhm_rejects_a_rounding_noise_dark_point(nbar):
    # at these nbar each side's first "dark point" is a one-ulp rise, which
    # once read as a width of a few 1e-3 rad (a resolution ratio near 500)
    cfg = InterferometerConfig.from_nbar(nbar)
    with pytest.raises(NoFringe, match="rounding noise"):
        fwhm(cfg, BINARY_HALF, UNIT_BINARY_OBS)
    assert np.isnan(sweep([nbar], [0.5]).resolution_ratio[0, 0])


def test_fwhm_depth_rule_keeps_a_faint_real_fringe():
    # at nbar=1e-8 the fringe is 3.5e-9 of the signal deep: a real one.  Its
    # half level holds about 7 digits: a 50-digit mpmath crossing gives
    # 1.33333333404, and the 2 mrad walk's dark point gave 1.3333334142542634
    assert sweep([1e-8], [0.5]).resolution_ratio[0, 0] == 1.3333333945100445


# ---------------------------------------------------------------------------
# signal_peaks


def test_signal_peaks_contains_center_and_mirror():
    peaks = signal_peaks(FIG2_CFG, FIG2_SCHEME)
    assert 0.0 in peaks
    assert math.pi in peaks


def test_signal_peaks_fig2_values():
    peaks = signal_peaks(FIG2_CFG, FIG2_SCHEME)
    # only |k| <= 1 is reachable: 2*2*3.8 > alpha0
    phi_1 = math.asin(2.0 * 3.8 / FIG2_CFG.alpha0)
    expected = sorted(
        [0.0, math.pi, phi_1, -phi_1, math.pi - phi_1, -(math.pi - phi_1)]
    )
    assert peaks == pytest.approx(expected, abs=1e-12)
    assert phi_1 == pytest.approx(0.56735, abs=2e-5)


def test_signal_peaks_small_angle_regime():
    cfg = InterferometerConfig.from_nbar(1000.0)
    scheme = BinningScheme(half_width=0.5, spacing=3.2, cutoff=5)
    peaks = signal_peaks(cfg, scheme)
    for k in (1, 2):
        linear = 2.0 * k * 3.2 / cfg.alpha0
        exact = math.asin(linear)
        assert any(abs(p - exact) < 1e-12 for p in peaks)
        assert abs(exact - linear) / linear < 0.05


def test_signal_peaks_all_reachable_bins_present():
    cfg = InterferometerConfig.from_nbar(1000.0)
    scheme = BinningScheme(half_width=0.5, spacing=3.2, cutoff=5)
    peaks = signal_peaks(cfg, scheme)
    # k = -4..4 reachable (|2kb| <= alpha0), plus mirrors, minus duplicates
    assert len(peaks) == 18
    assert all(-math.pi < p <= math.pi for p in peaks)


# ---------------------------------------------------------------------------
# best_sensitivity


def test_best_sensitivity_binary_matches_reference_scaling():
    phi_min, dphi_min = best_sensitivity(FIG2_CFG, BINARY_HALF, UNIT_BINARY_OBS)
    target = 1.37 / math.sqrt(200.0)
    assert abs(dphi_min - target) / target < 0.05
    assert 0.0 < phi_min < math.pi / 2
    # binary observable sensitivity equals the binary bound, so the CRB
    # path lands on the same minimum
    _, dphi_crb = best_sensitivity(FIG2_CFG, BINARY_HALF, None)
    assert dphi_crb == pytest.approx(dphi_min, rel=1e-8)


def test_best_sensitivity_prefers_wide_bins():
    best_small = min(
        best_sensitivity(FIG2_CFG, BinningScheme.binary(a), UNIT_BINARY_OBS)[1]
        for a in (0.05, 0.1, 0.2)
    )
    best_wide = min(
        best_sensitivity(FIG2_CFG, BinningScheme.binary(a), UNIT_BINARY_OBS)[1]
        for a in (0.5, 1.0, 2.0)
    )
    assert best_wide < best_small


def test_best_sensitivity_alternating_multibin():
    obs = Observable.alternating(FIG2_SCHEME)
    _, dphi_min = best_sensitivity(FIG2_CFG, FIG2_SCHEME, obs)
    target = 1.37 / math.sqrt(200.0)
    assert abs(dphi_min - target) / target < 0.10


def _sensitivity_scan(cfg, scheme):
    """0, then every phase of the shift lattice: best_sensitivity's scan."""
    return [0.0, *itertools.chain.from_iterable(metrics._shift_lattice(cfg, scheme))]


@pytest.mark.parametrize("nbar", [5.0, 200.0, 1e6])
def test_best_sensitivity_batched_scan_equals_scalar_scan(nbar):
    # the scan runs on one phase array, and each Brent round in floats or on
    # arrays by its size (_FLOAT_PAIRS limit pairs); the oracle drives the
    # same search one phase a call, and its dphi is the public one's
    cfg = InterferometerConfig.from_nbar(nbar)
    for scheme, obs in ((BINARY_HALF, UNIT_BINARY_OBS), (BINARY_HALF, None),
                        (FIG2_SCHEME, Observable.ones(FIG2_SCHEME)),
                        (FIG4_SCHEME, Observable.alternating(FIG4_SCHEME))):
        if obs is None:
            rows, public = (lambda xs: metrics._bound_rows(cfg, scheme, xs)), crb
        else:
            rows = lambda xs: metrics._signal_rows(cfg, scheme, obs, xs)
            public = lambda cfg, scheme, phi: error_propagation_sensitivity(cfg, scheme, obs, phi)
        phi, dphi = best_sensitivity(cfg, scheme, obs)
        assert (phi, dphi) == _drive(lambda xs: [row for x in xs for row in rows([x])],
                                     metrics._sensitivity_search(cfg, scheme))
        assert dphi == public(cfg, scheme, phi)


def test_best_sensitivity_scans_its_grid_in_one_table_call(monkeypatch):
    calls, curved_table = [], metrics._curved_table

    def recording(cfg, scheme, phis):
        calls.append(np.array(phis, dtype=float))
        return curved_table(cfg, scheme, phis)

    monkeypatch.setattr(metrics, "_curved_table", recording)
    # 0 and the lattice: a step of 0.05 in c out to alpha0/2 = 7.07, then pi/2
    scan = _sensitivity_scan(FIG2_CFG, BINARY_HALF)
    assert len(scan) == 1 + 141 + 1
    # with the observable, the Brent rounds of one phase run in floats and
    # call no table
    best_sensitivity(FIG2_CFG, BINARY_HALF, UNIT_BINARY_OBS)
    assert len(calls) == 1 and np.array_equal(calls[0], scan)
    calls.clear()
    best_sensitivity(FIG2_CFG, BINARY_HALF, None)
    assert np.array_equal(calls[0], scan)
    # then Brent's refinement of the one valley, one phase a call
    assert 2 <= len(calls) <= 16 and [len(c) for c in calls[1:]] == [1] * (len(calls) - 1)


def _dense_oracle(cfg, scheme, obs):
    """min of dphi over a scan in c = alpha0*sin(phi)/2 from 0 to the end of
    the signal, at a tenth of the shift lattice's step, then over 100 golden
    sections between the neighbours of each of the scan's local minima (one
    per bin edge): public array calls only."""
    a, b = scheme.half_width, scheme.spacing
    step = max(min(2.0 * a, b - 2.0 * a if scheme.cutoff else 1.0, 1.0), 0.2) / 200.0
    half = 0.5 * cfg.alpha0
    c_max = min(half, scheme.cutoff * b + a + 19.0)
    cs = np.append(np.arange(0.0, c_max, step), c_max)

    def f(c):
        phi = np.arcsin(np.minimum(1.0, c / half))
        if obs is None:
            return crb(cfg, scheme, phi)
        return error_propagation_sensitivity(cfg, scheme, obs, phi)

    values = f(cs)
    minima = np.flatnonzero(np.append(True, values[1:] < values[:-1])
                            & np.append(values[:-1] <= values[1:], True))
    lo, hi = cs[np.maximum(minima - 1, 0)], cs[np.minimum(minima + 1, len(cs) - 1)]
    best = values.min()
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        fc, fd = f(c), f(d)
        best = min(best, fc.min(), fd.min())
        lo, hi = np.where(fc < fd, lo, c), np.where(fc < fd, d, hi)
    return best


@st.composite
def _sensitivity_systems(draw):
    """nbar 1e-2..1e14, a 0.05..2, b > 2a, kf 0-5, and ones, alternating or
    drawn eigenvalues."""
    cfg = InterferometerConfig.from_nbar(10.0 ** draw(st.floats(-2.0, 14.0)))
    a, kf = draw(st.floats(0.05, 2.0)), draw(st.integers(0, 5))
    scheme = BinningScheme(a, 2.0 * a * (1.0 + draw(st.floats(1e-3, 3.0))), kf)
    obs = draw(st.one_of(
        st.sampled_from([Observable.ones(scheme), Observable.alternating(scheme)]),
        st.builds(Observable, st.tuples(*[st.floats(-10.0, 10.0)] * (2 * kf + 1)),
                  st.floats(-10.0, 10.0))))
    return cfg, scheme, obs


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_sensitivity_systems())
@example((InterferometerConfig.from_nbar(1e8), BinningScheme.binary(0.1), UNIT_BINARY_OBS))
@example((InterferometerConfig.from_nbar(1e12), BinningScheme.binary(0.5), UNIT_BINARY_OBS))
@example((InterferometerConfig.from_nbar(1e14), FIG4_SCHEME, Observable.alternating(FIG4_SCHEME)))
def test_best_sensitivity_equals_a_dense_scan_in_the_shift(system):
    # a bright binary optimum sits near phi = 1.38/alpha0: 1.4e-4 at nbar
    # 1e8, inside one step of a 512-point grid over [0, pi/2], and 1.4e-6 at
    # 1e12, below a band that stops 1e-4 short of 0
    cfg, scheme, obs = system
    for o in (obs, None):
        got, want = best_sensitivity(cfg, scheme, o)[1], _dense_oracle(cfg, scheme, o)
        assert got == want or abs(got - want) <= 1e-9 * want, (o, got, want)


@pytest.mark.parametrize("nbar", [5.0, 1e2, 1e4, 1e6, 1e8, 1e10, 1e12, 1e14])
@pytest.mark.parametrize("a", [0.1, 0.5, 1.0])
def test_binary_best_phase_is_the_stationary_point_to_rounding(nbar, a):
    # Brent's root of the stationarity column holds phi to rounding at any
    # nbar; a minimizer of dphi, which is flat there, holds it to sqrt(eps)
    cfg = InterferometerConfig.from_nbar(nbar)
    phi, _ = best_sensitivity(cfg, BinningScheme.binary(a), UNIT_BINARY_OBS)
    want, _ = binary_best_sensitivity(cfg, a, phi)
    assert abs(phi - want) <= 1e-13 * want, (phi, want)


def test_best_sensitivity_keeps_a_minimum_at_zero_without_a_sign_change():
    # the signal of eigenvalues (0, 0, 1) is bin 1's probability, whose slope
    # at 0 is not 0: dphi rises from phi = 0, the stationarity column keeps
    # its sign across the first lattice step, and 0 is returned as scanned
    scheme, obs = BinningScheme(0.5, 1.5, 1), Observable((0.0, 0.0, 1.0))
    (q,) = next(metrics._shift_lattice(FIG2_CFG, scheme))
    (*_, f0, e0), (*_, f1, e1) = metrics._signal_rows(FIG2_CFG, scheme, obs, [0.0, q])
    assert f0 < f1 and e0 * e1 > 0.0
    assert best_sensitivity(FIG2_CFG, scheme, obs) == (0.0, f0)
    dense = error_propagation_sensitivity(FIG2_CFG, scheme, obs, np.linspace(0.0, q, 2001))
    assert int(np.argmin(dense)) == 0 and dense[0] == f0


def test_a_valley_whose_neighbours_keep_the_columns_sign_keeps_its_scan_point():
    # scan noise can make a valley across which the stationarity column does
    # not change sign: there is no bracket to refine, so the search returns
    # the scan point after its one round
    xs, rounds = _sensitivity_scan(FIG2_CFG, BINARY_HALF), []

    def rows(phis):
        rounds.append(len(phis))
        return [(abs(x - xs[40]) + 1.0, 1.0) for x in phis]

    assert _drive(rows, metrics._sensitivity_search(FIG2_CFG, BINARY_HALF)) == (xs[40], 1.0)
    assert rounds == [len(xs)]


def test_a_scan_of_nan_dphi_raises_degenerate_signal():
    # NaN compares false both ways, so a scan of NaN dphi (from eigenvalues
    # whose squares overflow, where a probability is 0) has no valley at all:
    # the search names the first NaN phase instead of returning one
    nan_rows = lambda phis: [(1.0, 1.0) if phi == 0.0 else (math.nan, math.nan) for phi in phis]
    (q,) = next(metrics._shift_lattice(FIG2_CFG, BINARY_HALF))
    with pytest.raises(DegenerateSignal) as err:
        _drive(nan_rows, metrics._sensitivity_search(FIG2_CFG, BINARY_HALF))
    assert str(err.value) == f"dphi is NaN at scan phase {q}"


def test_best_sensitivity_raises_when_the_variance_overflows():
    # eigenvalues of 1e200 square past the largest double, and inf times an
    # outer bin's P = 0 makes the variance NaN: dphi is NaN wherever the slope
    # passes its floor.  The bound reads no eigenvalue and stays finite
    scheme = BinningScheme(0.5, 40.0, 3)
    obs = Observable((1e200,) * 7)
    with pytest.raises(DegenerateSignal, match="dphi is NaN at scan phase"):
        best_sensitivity(FIG2_CFG, scheme, obs)
    assert best_sensitivity(FIG2_CFG, scheme, None)[1] > 0.0


# ---------------------------------------------------------------------------
# sweep


def test_sweep_single_cell_matches_direct_calls():
    grid = sweep([200.0], [0.5])
    assert grid.resolution_ratio.shape == (1, 1)
    direct_fwhm = fwhm(FIG2_CFG, BINARY_HALF, UNIT_BINARY_OBS)
    assert grid.resolution_ratio[0, 0] == pytest.approx(
        (2.0 * math.pi / 3.0) / direct_fwhm, rel=1e-12
    )
    _, dphi = best_sensitivity(FIG2_CFG, BINARY_HALF, UNIT_BINARY_OBS)
    assert grid.sensitivity_ratio[0, 0] == pytest.approx(
        (1.0 / math.sqrt(200.0)) / dphi, rel=1e-12
    )
    assert grid.visibility[0, 0] == pytest.approx(
        visibility(FIG2_CFG, BINARY_HALF, UNIT_BINARY_OBS), rel=1e-12
    )


def test_sweep_sensitivity_ratio_saturates_for_bright_light():
    # the optimum, near phi = 1.38/alpha0, is 1.4e-4 rad at nbar 1e8; the
    # ratio keeps its bright-light limit on every row
    grid = sweep([1e6, 1e7, 1e8], [0.1, 0.5])
    assert np.round(grid.sensitivity_ratio, 5).tolist() == [[0.34995, 0.73221]] * 3


def test_sweep_resolution_grows_with_photon_number():
    grid = sweep([50.0, 100.0, 200.0, 400.0], [0.05])
    col = grid.resolution_ratio[:, 0]
    assert all(np.isfinite(col))
    assert all(b > a for a, b in zip(col, col[1:]))


def test_sweep_unresolvable_cell_is_nan():
    # the first cell's signal is flat to double precision: no fringe, no
    # usable slope; visibility still evaluates (to zero)
    grid = sweep([1e-30, 200.0], [0.5])
    assert math.isnan(grid.resolution_ratio[0, 0])
    assert math.isnan(grid.sensitivity_ratio[0, 0])
    assert np.isfinite(grid.visibility[0, 0])
    assert np.isfinite(grid.resolution_ratio[1, 0])


def test_sweep_axis_validation():
    with pytest.raises(ValueError):
        sweep([], [0.5])
    with pytest.raises(ValueError):
        sweep([10.0, 5.0], [0.5])
    with pytest.raises(ValueError):
        sweep([10.0], [0.5, 0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", ["nbar_axis", "a_axis"])
def test_sweep_rejects_a_non_finite_axis_before_any_cell(monkeypatch, axis, bad):
    # NaN compares false both ways, so [5, nan, 1] passed the order check
    # and the nbar = 5 row ran before from_nbar(nan) raised
    def no_table(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(metrics, "outcome_table", no_table)
    axes = {"nbar_axis": [1.0, 5.0], "a_axis": [0.1, 0.5]}
    axes[axis] = [axes[axis][1], bad, axes[axis][0]]  # as [5, nan, 1]
    with pytest.raises(ValueError, match=f"{axis} must be nonempty and finite"):
        sweep(**axes)


# ---------------------------------------------------------------------------
# Phase arrays.


def test_figures_of_merit_on_phase_arrays_equal_scalar_calls():
    # pi/2 puts a zero slope on the grid: sensitivity +inf, crb finite
    grid = np.concatenate([np.linspace(-math.pi, math.pi, 201), [math.pi / 2]])
    obs = Observable(FIXED_RANDOM_EIGENVALUES, 0.3)
    point = signal(FIG2_CFG, FIG2_SCHEME, obs, grid)
    delta = error_propagation_sensitivity(FIG2_CFG, FIG2_SCHEME, obs, grid)
    info = cfi(FIG2_CFG, FIG2_SCHEME, grid)
    bound = crb(FIG2_CFG, FIG2_SCHEME, grid)
    merged = binarized_cfi(FIG2_CFG, FIG2_SCHEME, obs, grid)
    for values in (point.phi, point.mean, point.slope, point.variance, delta,
                   info, bound, merged):
        assert isinstance(values, np.ndarray) and values.shape == grid.shape
    assert math.isinf(delta[-1])

    for i, phi in enumerate(grid.tolist()):
        one = signal(FIG2_CFG, FIG2_SCHEME, obs, phi)
        assert (point.phi[i], point.mean[i], point.slope[i],
                point.variance[i]) == (
            one.phi, one.mean, one.slope, one.variance)
        assert delta[i] == error_propagation_sensitivity(
            FIG2_CFG, FIG2_SCHEME, obs, phi)
        assert info[i] == cfi(FIG2_CFG, FIG2_SCHEME, phi)
        assert bound[i] == crb(FIG2_CFG, FIG2_SCHEME, phi)
        assert merged[i] == binarized_cfi(FIG2_CFG, FIG2_SCHEME, obs, phi)
    assert type(one.mean) is float and type(one.variance) is float
    assert type(crb(FIG2_CFG, FIG2_SCHEME, 0.3)) is float
    assert type(binarized_cfi(FIG2_CFG, FIG2_SCHEME, obs, 0.3)) is float

    # the binary scheme's fringe peak 0.0 is a zero slope: +inf
    binary_grid = np.concatenate([np.linspace(-math.pi, math.pi, 201), [0.0]])
    binary = binary_sensitivity(FIG2_CFG, BINARY_HALF, binary_grid)
    assert isinstance(binary, np.ndarray) and binary.shape == binary_grid.shape
    assert math.isinf(binary[-1])
    for i, phi in enumerate(binary_grid.tolist()):
        assert binary[i] == binary_sensitivity(FIG2_CFG, BINARY_HALF, phi)
    assert type(binary_sensitivity(FIG2_CFG, BINARY_HALF, 0.3)) is float


_ONES = Observable.ones(FIG2_SCHEME)


@pytest.mark.parametrize("merit", [
    lambda phis: signal(FIG2_CFG, FIG2_SCHEME, _ONES, phis),
    lambda phis: error_propagation_sensitivity(FIG2_CFG, FIG2_SCHEME, _ONES, phis),
    lambda phis: cfi(FIG2_CFG, FIG2_SCHEME, phis),
    lambda phis: crb(FIG2_CFG, FIG2_SCHEME, phis),
    lambda phis: binary_sensitivity(FIG2_CFG, BINARY_HALF, phis),
    lambda phis: binarized_cfi(FIG2_CFG, FIG2_SCHEME, _ONES, phis),
    lambda phis: continuous_signal(FIG2_CFG, phis),
], ids=["signal", "error_propagation_sensitivity", "cfi", "crb",
        "binary_sensitivity", "binarized_cfi", "continuous_signal"])
def test_figures_of_merit_reject_a_2d_phase_array(merit):
    # one rule for every phase array: a float or a 1-D array, nothing else
    message = r"^phis must be a 1-D array, got shape \(2, 2\)$"
    with pytest.raises(ValueError, match=message):
        merit(np.zeros((2, 2)))


@pytest.mark.parametrize("grid, shape", [(np.zeros((2, 2)), r"\(2, 2\)"),
                                         (np.array(0.3), r"\(\)")], ids=["2d", "0d"])
def test_calibration_curve_rejects_a_grid_that_is_not_1d(grid, shape):
    # the one phase-array rule of the figures of merit, a ValueError
    with pytest.raises(ValueError, match=rf"^phis must be a 1-D array, got shape {shape}$"):
        calibration_curve(FIG2_CFG, FIG2_SCHEME, grid, 20, 2, master_seed=0)
