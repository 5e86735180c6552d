"""The benchmark's independent oracles, checked against hand-derived values."""

import random
from fractions import Fraction

import numpy as np

import oracles as orc

# Structure constants written out here, 0-based, i < j.
HEIS5 = ({(0, 2): {4: 1}, (1, 3): {4: 1}}, 5)
B3R = ({(0, 2): {0: -1}, (1, 2): {1: -1}}, 3)
L67 = ({(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {4: 1}}, 6)
S_PRIME = ({(0, 1): {2: 1}, (0, 3): {0: -1}, (1, 3): {0: -1, 1: -1}, (2, 3): {2: -2}}, 4)


def test_rank_and_nullspace_mod_p():
    a = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert orc.rank_modp(a) == 2
    kernel = orc.nullspace_modp(a, 3)
    assert kernel.shape == (1, 3)
    assert not np.any(orc.matmul_modp(a, kernel.T))
    assert orc.rank_modp(np.zeros((0, 4), dtype=np.int64)) == 0


def test_matmul_mod_p_does_not_overflow():
    big = orc.P - 1
    a = np.full((1, 64), big, dtype=np.int64)
    b = np.full((64, 1), big, dtype=np.int64)
    assert orc.matmul_modp(a, b)[0, 0] == 64 % orc.P      # (-1)(-1) summed 64 times


def test_differential_squares_to_zero():
    for table, n in (HEIS5, B3R, L67, S_PRIME):
        for adjoint in (False, True):
            for q in range(n - 1):
                d1 = orc.ce_matrix(table, n, q, adjoint)
                d2 = orc.ce_matrix(table, n, q + 1, adjoint)
                if d1.size and d2.size:
                    assert not np.any(orc.matmul_modp(d2, d1)), (n, q, adjoint)


def test_closed_forms_agree_with_the_complex():
    assert orc.heis_betti(5) == [1, 4, 5, 5, 4, 1]
    assert orc.betti(*HEIS5) == orc.heis_betti(5)
    assert orc.betti(*B3R) == orc.borel_betti(3) == [1, 1, 0, 0]
    assert orc.h_dim(*HEIS5, 1, True) == orc.h1_adjoint("heis(5)") == 11
    assert orc.h_dim(*B3R, 1, True) == orc.h1_adjoint("b(3,R)") == 3
    assert orc.h_dim(*L67, 1, True) == orc.h1_adjoint("l_6_7") == 9
    assert orc.h_dim(*L67, 2, True) == 18


def test_cup_square_rank_of_l67():
    assert orc.cup_square_rank(*L67) == 4


def test_center_and_derivations():
    table, n = HEIS5
    assert orc.center_dim(table, n) == 1
    # Der(heis(2k+1)) has dimension H^1_adj + dim heis - dim center
    assert orc.der_dim(table, n) == orc.h1_adjoint("heis(5)") + n - 1
    ad = [[Fraction(v) for v in row] for row in
          [[orc.bracket(table, orc.unit(n, 0), orc.unit(n, j))[i] for j in range(n)] for i in range(n)]]
    assert orc.derivations_ok(table, n, [ad])
    not_der = [[Fraction(int(i == j == 0)) for j in range(n)] for i in range(n)]
    assert not orc.derivations_ok(table, n, [not_der])


def test_transport_round_trip_keeps_invariants():
    rng = random.Random(7)
    for table, n in (HEIS5, L67, S_PRIME):
        q, q_inv = orc.unimodular(rng, n, 6)
        assert orc.mat_mul(q, q_inv) == [[int(i == j) for j in range(n)] for i in range(n)]
        moved = orc.transport(table, n, q, q_inv)
        assert orc.jacobi_ok(moved, n)
        assert orc.same_table(orc.transport(moved, n, q_inv, q), table)
        assert orc.invariants(moved, n) == orc.invariants(table, n)


def test_jacobi_rejects_a_non_lie_table():
    assert not orc.jacobi_ok({(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {0: 1}}, 3)


def test_contraction_of_s_prime_is_h2c():
    assert orc.same_table(orc.contraction(*S_PRIME, (0, -1, -1, 0)), orc.h2c_table())
    assert orc.contraction(*S_PRIME, (0, 1, 1, 0)) is None


def test_koszul_curvature():
    rng = np.random.default_rng(3)
    for m in (np.eye(2), np.array([[1.0, 2.0], [-2.0, 1.0]]), np.eye(3)):
        for _ in range(5):
            u, v = rng.standard_normal((2, m.shape[0] + 1))
            assert abs(orc.koszul_sectional(m, u, v) + 1.0) < 1e-12
    # the plane of the two Jordan directions of diag(1, 2): K = -(1 * 2)
    assert abs(orc.koszul_sectional(np.diag([1.0, 2.0]), [1, 0, 0], [0, 1, 0]) + 2.0) < 1e-12
    # the plane through A and e_2: K = -(2 * 2)
    assert abs(orc.koszul_sectional(np.diag([1.0, 2.0]), [0, 1, 0], [0, 0, 1]) + 4.0) < 1e-12
