"""The acceptance gate: one test per criterion, each printing its pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines, or `djets suite` for the same checks from the command line.
"""

import pytest

from djets import acceptance


def _run(result):
    print(result.line())
    assert result.passed, result.detail
    assert result.seconds < result.budget, (
        f"{result.key} took {result.seconds:.2f}s, budget {result.budget}s"
    )


def test_criterion_01_tangent_display():
    _run(acceptance.check_tangent_display())


def test_criterion_02_restriction_display():
    _run(acceptance.check_restriction_display())


def test_criterion_03_kernel_identity():
    _run(acceptance.check_kernel_identity())


def test_criterion_04_surjectivity_witnesses():
    _run(acceptance.check_surjectivity_witnesses())


def test_criterion_05_dimension_law():
    _run(acceptance.check_dimension_law(seed=0))


def test_criterion_06_tensor_pairing():
    _run(acceptance.check_tensor_pairing(seed=1))


def test_criterion_07_product_decomposition():
    _run(acceptance.check_product_decomposition())


def test_criterion_08_constant_points_jets():
    result = acceptance.check_constant_points_jets()
    _run(result)
    # rationals print as strings, as in the text output of `djets jet`
    assert result.detail == "basis [['1', '2']]"


def test_criterion_09_m1_crosscheck():
    _run(acceptance.check_m1_crosscheck())


def test_criterion_10_degree_step():
    _run(acceptance.check_degree_step(seed=2))


def test_criterion_11_series_oracles():
    _run(acceptance.check_series_oracles())


def test_criterion_12_property_suites():
    _run(acceptance.check_property_suites(seed=3))
