"""Every exported name resolves, and each layer exports a pinned list.

perfbench/tracer.py looks up each name in the __all__ of the layer modules
to wrap it, so one dangling export breaks every traced benchmark run.
"""

import importlib

import pytest

MODULES = ["mzhomodyne", "mzhomodyne.cli", "mzhomodyne.interferometer",
           "mzhomodyne.metrics", "mzhomodyne.numerics", "mzhomodyne.simulate"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_the_union_of_the_layers():
    package = importlib.import_module("mzhomodyne")
    layers = [importlib.import_module(name).__all__ for name in MODULES[2:]]
    assert len(package.__all__) == len(set(package.__all__))
    assert set(package.__all__) == set().union(*layers)


# Each layer's exports, pinned: perfbench/tracer.py wraps exactly these
# names, so adding or removing one is a visible edit here.  The Gaussian-state
# propagation oracle lives in tests/oracles.py, not in interferometer.
LAYER_EXPORTS = {
    "numerics": [
        "Interval", "NoConvergence", "NoSignChange", "RandomStream",
        "erf_diff", "find_root", "find_roots",
    ],
    "interferometer": [
        "BinningScheme", "InterferometerConfig", "InvalidScheme",
        "OutcomeDistribution", "default_cutoff", "outcome_distribution",
        "outcome_table", "quadrature_pdf",
    ],
    "metrics": [
        "AlphabetMismatch", "DegenerateSignal", "FIXED_RANDOM_EIGENVALUES",
        "NoFringe", "NoSolution", "Observable", "SchemeNotBinary",
        "SignalPoint", "SweepGrid", "best_sensitivity", "binarized_cfi",
        "binary_sensitivity", "cfi", "continuous_signal", "crb",
        "error_propagation_sensitivity", "fwhm", "fwhm_continuous", "signal",
        "signal_peaks", "sweep", "visibility", "visibility_boundary",
    ],
    "simulate": [
        "CalibrationPoint", "EstimationReport",
        "NonMonotoneBranch", "ReplicaSet", "calibration_curve", "estimate",
        "invert_signal", "monotone_branch", "run_replicas", "sample_outcomes",
    ],
    "cli": ["ConfigError", "build_parser", "main"],
}


@pytest.mark.parametrize("layer", sorted(LAYER_EXPORTS))
def test_layer_exports_are_pinned(layer):
    module = importlib.import_module(f"mzhomodyne.{layer}")
    assert sorted(module.__all__) == LAYER_EXPORTS[layer]
