"""Run the doctest examples embedded in module docstrings.

Keeps the usage examples in the documentation honest: if an API changes
under an example, this fails.
"""

import doctest

import pytest

import repro.device.cache
import repro.device.cluster
import repro.schemes
import repro.sim.engine
import repro.sim.rng
import repro.sim.stats

MODULES_WITH_EXAMPLES = [
    repro.sim.engine,
    repro.sim.rng,
    repro.sim.stats,
    repro.device.cache,
    repro.device.cluster,
    repro.schemes,
]


@pytest.mark.parametrize(
    "module", MODULES_WITH_EXAMPLES, ids=lambda m: m.__name__
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its examples"
    assert results.failed == 0
