"""Run the doctests of the graphs, analysis and orchestration packages in tier-1.

The public API of ``repro.graphs``, ``repro.sim``, ``repro.analysis``,
``repro.exec``, ``repro.faults``, ``repro.campaign`` and ``repro.obs`` carries
short runnable examples in its docstrings.  CI additionally runs ``pytest --doctest-modules`` over these
packages; this in-suite runner keeps the examples honest for anyone who only
runs the plain tier-1 suite.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro.analysis
import repro.campaign
import repro.exec
import repro.faults
import repro.graphs
import repro.obs
import repro.sim

PACKAGES = (
    repro.graphs,
    repro.sim,
    repro.analysis,
    repro.exec,
    repro.faults,
    repro.campaign,
    repro.obs,
)


def _modules():
    for package in PACKAGES:
        yield package.__name__
        for info in pkgutil.iter_modules(package.__path__):
            yield "%s.%s" % (package.__name__, info.name)


@pytest.mark.parametrize("module_name", sorted(_modules()))
def test_module_doctests_pass(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, "%d doctest failure(s) in %s" % (
        results.failed,
        module_name,
    )


def test_examples_actually_exist():
    """The doctest pass is not vacuous: each package carries examples."""
    finder = doctest.DocTestFinder()
    for package in PACKAGES:
        examples = 0
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module("%s.%s" % (package.__name__, info.name))
            examples += sum(len(test.examples) for test in finder.find(module))
        assert examples >= 2, "package %s has too few doctest examples" % package.__name__
