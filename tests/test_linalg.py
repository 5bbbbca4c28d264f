import random
from fractions import Fraction as F

import pytest

from djets.errors import DomainMismatch, SingularPivot
from djets.linalg import (
    RATIONAL,
    SERIES,
    LinSystem,
    constant_combination,
    mutually_contained,
    nullspace,
    primitive_vector,
    rank,
    solve,
)
from djets.series import TSeries, exp_series


def test_single_row_kernel():
    # solve -2 z1 + z2 = 0 by hand: z2 = 2 z1, primitive generator (1, 2)
    system = LinSystem([[F(-2), F(1)]], 2, RATIONAL)
    assert nullspace(system) == [[F(1), F(2)]]


def test_zero_matrix_gives_standard_basis():
    system = LinSystem([[F(0)] * 3, [F(0)] * 3], 3, RATIONAL)
    assert nullspace(system) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_identity_has_trivial_kernel():
    system = LinSystem([[F(1), F(0)], [F(0), F(1)]], 2, RATIONAL)
    assert nullspace(system) == []
    assert rank(system) == 2


def test_kernel_vectors_annihilate_matrix():
    rng = random.Random(11)
    for _ in range(50):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 5)
        rows = [[F(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        system = LinSystem(rows, ncols, RATIONAL)
        basis = nullspace(system)
        assert len(basis) == ncols - rank(system)
        for v in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_primitive_normalization():
    assert primitive_vector([F(1, 2), F(1)]) == [F(1), F(2)]
    assert primitive_vector([F(-2), F(4)]) == [F(1), F(-2)]
    assert primitive_vector([F(0), F(0)]) == [F(0), F(0)]


def test_series_nullspace_annihilates_to_precision():
    a = TSeries([1, 1], 8)
    system = LinSystem([[-2 * a, TSeries.constant(1, 8)]], 2, SERIES)
    (v,) = nullspace(system)
    residual = -2 * a * v[0] + v[1]
    assert residual.is_zero()


def test_series_singular_pivot():
    t = TSeries([0, 1], 6)
    with pytest.raises(SingularPivot):
        nullspace(LinSystem([[t]], 1, SERIES))


def test_series_zero_column_is_free_not_singular():
    z = TSeries.zero(6)
    system = LinSystem([[z, TSeries.constant(1, 6)]], 2, SERIES)
    basis = nullspace(system)
    assert len(basis) == 1 and basis[0][0] == 1 and basis[0][1] == 0


def test_system_rejects_entries_outside_its_domain():
    with pytest.raises(DomainMismatch):
        LinSystem([[F(1), TSeries.constant(1, 4)]], 2, SERIES)
    with pytest.raises(DomainMismatch):
        LinSystem([[F(1), TSeries.constant(1, 4)]], 2, RATIONAL)
    with pytest.raises(DomainMismatch):
        LinSystem([[F(1)]], 1, "complex")
    assert rank(LinSystem([[1, F(1, 2)]], 2, RATIONAL)) == 1


def test_integer_entries_stay_exact():
    # plain int rows are valid rational entries and must not turn into floats
    assert nullspace(LinSystem([[2, 1]], 2, RATIONAL)) == [[F(1), F(-2)]]
    assert solve([[2, 0], [0, 3]], 2, [[1, 1]], RATIONAL) == [[F(1, 2), F(1, 3)]]


def test_solve_unique_and_inconsistent():
    rows = [[F(1), F(1)], [F(0), F(1)], [F(1), F(0)]]
    sol = solve(rows, 2, [[F(3), F(2), F(1)]], RATIONAL)
    assert sol == [[F(1), F(2)]]
    assert solve(rows, 2, [[F(3), F(2), F(5)]], RATIONAL) is None
    with pytest.raises(ValueError):
        solve([[F(1), F(1)]], 2, [[F(1)]], RATIONAL)


def test_solve_multiple_right_hand_sides_over_series():
    e = exp_series(1, 10)
    rows = [[e, TSeries.zero(10)], [TSeries.zero(10), e]]
    sols = solve(rows, 2, [[e, TSeries.zero(10)], [2 * e, 3 * e]], SERIES)
    assert sols[0][0] == 1 and sols[0][1] == 0
    assert sols[1][0] == 2 and sols[1][1] == 3


def test_constant_combination():
    e = exp_series(1, 10)
    e2 = exp_series(2, 10)
    combo = constant_combination([[3 * e, 2 * e2]], [[e, TSeries.zero(10)],
                                                     [TSeries.zero(10), e2]])[0]
    assert combo == [F(3), F(2)]
    assert constant_combination([[TSeries([0, 1], 10)]], [[e]])[0] is None
    assert mutually_contained([[e]], [[2 * e]])
    assert not mutually_contained([[e]], [[e2]])
