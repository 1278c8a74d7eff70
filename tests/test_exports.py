"""Every exported name resolves.

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


def test_interferometer_exports_no_test_oracle():
    # the Gaussian-state propagation oracle lives in tests/oracles.py
    module = importlib.import_module("mzhomodyne.interferometer")
    assert sorted(module.__all__) == [
        "BinningScheme", "InterferometerConfig", "InvalidScheme",
        "OutcomeDistribution", "default_cutoff", "outcome_distribution",
        "outcome_table", "quadrature_pdf",
    ]
