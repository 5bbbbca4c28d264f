import random
from fractions import Fraction as F

import pytest

from djets.delta_modules import mutually_contained
from djets.errors import DimensionMismatch, DomainMismatch, SingularPivot
from djets.linalg import (
    RATIONAL,
    SERIES,
    LinSystem,
    constant_combination,
    nullspace,
    primitive_vector,
    rref,
    solve,
)
from djets.series import TSeries, exp_series


def test_single_row_kernel():
    # solve -2 z1 + z2 = 0 by hand: z2 = 2 z1, primitive generator (1, 2)
    system = LinSystem([[F(-2), F(1)]], 2)
    assert nullspace(system) == [[F(1), F(2)]]


def test_zero_matrix_gives_standard_basis():
    system = LinSystem([[F(0)] * 3, [F(0)] * 3], 3)
    assert nullspace(system) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_identity_has_trivial_kernel():
    system = LinSystem([[F(1), F(0)], [F(0), F(1)]], 2)
    assert nullspace(system) == []
    assert len(rref(system.rows, system.ncols, RATIONAL)[1]) == 2


def test_kernel_vectors_annihilate_matrix():
    rng = random.Random(11)
    for _ in range(50):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 5)
        rows = [[F(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        system = LinSystem(rows, ncols)
        basis = nullspace(system)
        assert len(basis) == ncols - len(rref(rows, ncols, RATIONAL)[1])
        for v in basis:
            assert all(type(e) is int for e in v)
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_primitive_normalization():
    assert primitive_vector([F(1, 2), F(1)]) == [F(1), F(2)]
    assert primitive_vector([F(-2), F(4)]) == [F(1), F(-2)]
    assert primitive_vector([F(0), F(0)]) == [F(0), F(0)]
    # ints in, or Fractions in: a new list of ints out
    ints = [-6, 4]
    assert primitive_vector(ints) == [3, -2] and ints == [-6, 4]
    for v in ([F(1, 2), F(1)], [F(-2), F(4)], [F(0), F(0)], ints, [3, 5]):
        out = primitive_vector(v)
        assert out is not v and all(type(e) is int for e in out)


def test_series_singular_pivot():
    t = TSeries([0, 1], 6)
    with pytest.raises(SingularPivot, match="column 0"):
        rref([[t]], 1, SERIES)


def test_series_zero_column_is_free_not_singular():
    z = TSeries.zero(6)
    red, pivots = rref([[z, TSeries.constant(1, 6)]], 2, SERIES)
    assert pivots == [1]
    assert red[0][0] == 0 and red[0][1] == 1


def test_system_rejects_entries_outside_its_domain():
    with pytest.raises(DomainMismatch, match=r"TSeries entry at \(0, 1\) of a rational system"):
        LinSystem([[F(1), TSeries.constant(1, 4)]], 2)
    with pytest.raises(DimensionMismatch):
        LinSystem([[F(1)]], 2)
    system = LinSystem([[1, F(1, 2)]], 2)
    assert len(rref(system.rows, system.ncols, RATIONAL)[1]) == 1


def test_integer_entries_stay_exact():
    # plain int rows are valid rational entries and must not turn into floats
    assert nullspace(LinSystem([[2, 1]], 2)) == [[F(1), F(-2)]]
    assert solve([[2, 0], [0, 3]], 2, [[1, 1]], RATIONAL) == [[F(1, 2), F(1, 3)]]


def test_solve_unique_and_inconsistent():
    rows = [[F(1), F(1)], [F(0), F(1)], [F(1), F(0)]]
    sol = solve(rows, 2, [[F(3), F(2), F(1)]], RATIONAL)
    assert sol == [[F(1), F(2)]]
    assert solve(rows, 2, [[F(3), F(2), F(5)]], RATIONAL) == [None]
    with pytest.raises(ValueError):
        solve([[F(1), F(1)]], 2, [[F(1)]], RATIONAL)


def test_solve_multiple_right_hand_sides_over_series():
    e = exp_series(1, 10)
    rows = [[e, TSeries.zero(10)], [TSeries.zero(10), e]]
    sols = solve(rows, 2, [[e, TSeries.zero(10)], [2 * e, 3 * e]], SERIES)
    assert sols[0][0] == 1 and sols[0][1] == 0
    assert sols[1][0] == 2 and sols[1][1] == 3


@pytest.mark.parametrize("domain", [RATIONAL, SERIES])
def test_solve_with_no_unknowns_checks_each_right_hand_side(domain):
    # an empty factor basis of the product decomposition is such a system:
    # a zero right-hand side has the empty solution, any other none at all
    zero, one = (F(0), F(1))
    if domain == SERIES:
        zero, one = TSeries.zero(6), TSeries.constant(1, 6)
    rows = [[], []]
    sols = solve(rows, 0, [[zero, zero], [zero, one], [one, zero]], domain)
    assert sols == [[], None, None]
    assert solve(rows, 0, [], domain) == []
    assert solve([], 0, [[]], domain) == [[]]


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    with pytest.raises(DimensionMismatch) as caught:
        solve([[F(1)], [F(2)]], 1, [[F(1), F(2)], [F(1)]], RATIONAL)
    assert str(caught.value) == "right-hand side length mismatch"


def test_constant_combination():
    e = exp_series(1, 10)
    e2 = exp_series(2, 10)
    combo = constant_combination([[3 * e, 2 * e2]], [[e, TSeries.zero(10)],
                                                     [TSeries.zero(10), e2]])[0]
    assert combo == [F(3), F(2)]
    assert constant_combination([[TSeries([0, 1], 10)]], [[e]])[0] is None
    assert mutually_contained([[e]], [[2 * e]])
    assert not mutually_contained([[e]], [[e2]])
