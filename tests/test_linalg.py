import itertools
import random
from fractions import Fraction

import pytest

from lie_sbe.linalg import (
    Subspace,
    block_diag,
    char_poly,
    combine,
    coordinates,
    det,
    diagonal,
    extend_to_basis,
    frac,
    gram_matrix,
    identity,
    inverse,
    jordan_block,
    jordan_chain_basis,
    mat_mul,
    mat_pow,
    mat_vec,
    matrix,
    min_poly,
    nullspace,
    rank,
    restrict,
    rref,
    solve,
    trace,
    transpose,
    vector,
)


def _rand_matrix(rng, n, lo=-4, hi=4):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]


def _rand_invertible(rng, n):
    while True:
        m = _rand_matrix(rng, n)
        if det(m) != 0:
            return m


def test_frac_rejects_floats():
    assert frac("2/3") == Fraction(2, 3)
    assert frac(-7) == Fraction(-7)
    with pytest.raises(TypeError):
        frac(0.5)


def test_rank_and_det_small_literals():
    m = matrix([[1, 2], [2, 4]])
    assert rank(m) == 1
    assert det(m) == 0
    m2 = matrix([[2, 1], [1, 1]])
    assert det(m2) == 1
    assert inverse(m2) == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]


def test_det_matches_the_leibniz_formula():
    # fractional entries exercise the row-denominator scaling, zero leading
    # entries the row swaps
    rng = random.Random(17)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            m = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)]
                 for _ in range(n)]
            m[0][0] = Fraction(0)
            ref = Fraction(0)
            for perm in itertools.permutations(range(n)):
                inversions = sum(1 for i, j in itertools.combinations(perm, 2) if i > j)
                term = Fraction(-1 if inversions % 2 else 1)
                for i, j in enumerate(perm):
                    term *= m[i][j]
                ref += term
            assert det(m) == ref
    assert det([]) == 1


def test_coordinates_agree_with_solve():
    rng = random.Random(18)
    for _ in range(6):
        rows = [_rand_matrix(rng, 5)[0] for _ in range(3)]
        if rank(rows) < 3:
            continue
        inside = [[sum(c * r[k] for c, r in zip(co, rows)) for k in range(5)]
                  for co in _rand_matrix(rng, 3)]
        outside = _rand_matrix(rng, 5)[:2]
        got = coordinates(rows, inside + outside)
        for v, co in zip(inside + outside, got):
            assert co == solve(transpose(rows), v)
            if co is not None:
                assert combine(co, rows) == v
    assert coordinates([], [vector([0, 0]), vector([1, 0])]) == [[], None]
    with pytest.raises(ValueError):
        coordinates([vector([1, 1]), vector([2, 2])], [vector([1, 1])])


def test_restrict_to_invariant_and_other_spans():
    op = matrix([[1, 2, 0], [0, 3, 0], [0, 0, 5]])
    rows = [vector([1, 1, 0]), vector([0, 1, 0])]
    m = restrict(op, rows)
    # op(e1 + e2) = 3 e1 + 3 e2 and op(e2) = 2 e1 + 3 e2 = 2 (e1 + e2) + e2
    assert m == matrix([[3, 2], [0, 1]])
    assert restrict(op, [vector([1, 0, 1])]) is None
    assert restrict(op, []) == []


def test_rref_pivots_are_normalized():
    rows, pivots = rref([[Fraction(0), Fraction(2)], [Fraction(3), Fraction(1)]])
    assert pivots == [0, 1]
    for r, p in zip(rows, pivots):
        assert r[p] == 1


def test_inverse_round_trip_random():
    rng = random.Random(11)
    for n in (2, 3, 4, 5):
        for _ in range(5):
            p = _rand_invertible(rng, n)
            assert mat_mul(p, inverse(p)) == identity(n)


def test_det_is_multiplicative_random():
    rng = random.Random(12)
    for _ in range(10):
        a = _rand_matrix(rng, 4)
        b = _rand_matrix(rng, 4)
        assert det(mat_mul(a, b)) == det(a) * det(b)


def test_rank_invariant_under_invertible_factors():
    rng = random.Random(13)
    for _ in range(6):
        a = _rand_matrix(rng, 4)
        p = _rand_invertible(rng, 4)
        assert rank(mat_mul(p, a)) == rank(a)
        assert rank(mat_mul(a, p)) == rank(a)


def test_nullspace_vectors_are_killed():
    rng = random.Random(14)
    for _ in range(8):
        a = [_rand_matrix(rng, 5)[0] for _ in range(3)]  # 3x5, usually rank 3
        for v in nullspace(a):
            assert all(x == 0 for x in mat_vec(a, v))
        assert len(nullspace(a)) == 5 - rank(a)


def test_solve_consistent_and_inconsistent():
    a = matrix([[1, 1], [2, 2]])
    assert solve(a, vector([1, 2])) is not None
    assert solve(a, vector([1, 3])) is None
    sol = solve(matrix([[2, 0], [0, 3]]), vector([4, 9]))
    assert sol == [Fraction(2), Fraction(3)]


def test_char_poly_companion_and_trace():
    # companion matrix of x^3 - 2x + 5
    c = matrix([[0, 0, -5], [1, 0, 2], [0, 1, 0]])
    assert char_poly(c) == [Fraction(5), Fraction(-2), Fraction(0), Fraction(1)]
    assert trace(c) == 0


def test_char_poly_of_triangular_is_diagonal_product():
    rng = random.Random(15)
    for _ in range(5):
        n = 4
        m = _rand_matrix(rng, n)
        for i in range(n):
            for j in range(i):
                m[i][j] = Fraction(0)
        cp = char_poly(m)
        # evaluate at each diagonal entry: must vanish
        for i in range(n):
            x = m[i][i]
            assert sum(c * x**k for k, c in enumerate(cp)) == 0


def test_min_poly_divides_and_annihilates():
    j = matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    mp = min_poly(j)
    # (x-1)^2
    assert mp == [Fraction(1), Fraction(-2), Fraction(1)]
    n = len(j)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for k, c in enumerate(mp):
        acc = [
            [acc[r][s] + c * mat_pow(j, k)[r][s] for s in range(n)] for r in range(n)
        ]
    assert all(x == 0 for row in acc for x in row)


def test_subspace_dimension_formula():
    rng = random.Random(16)
    for _ in range(8):
        a = Subspace.span(5, [_rand_matrix(rng, 5)[0] for _ in range(2)])
        b = Subspace.span(5, [_rand_matrix(rng, 5)[0] for _ in range(3)])
        s = a.add(b)
        i = a.intersect(b)
        assert s.dim + i.dim == a.dim + b.dim
        assert s.contains_subspace(a) and s.contains_subspace(b)
        assert a.contains_subspace(i) and b.contains_subspace(i)


def test_subspace_contains_and_coordinates():
    v = Subspace.span(3, [[1, 0, 1], [0, 1, 0]])
    assert v.contains([2, 3, 2])
    assert not v.contains([1, 0, 0])
    co = v.coordinates([2, 3, 2])
    assert co is not None
    rebuilt = [sum(c * row[k] for c, row in zip(co, v.basis())) for k in range(3)]
    assert rebuilt == [2, 3, 2]
    assert v.coordinates([0, 0, 1]) is None


def test_extend_to_basis():
    ext = extend_to_basis([vector([1, 1, 0])], 3)
    assert len(ext) == 2
    assert det([vector([1, 1, 0])] + ext) != 0


def test_jordan_chain_basis_puts_nilpotent_in_shift_form():
    n = matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    chains = jordan_chain_basis(n)
    assert sorted(len(c) for c in chains) == [1, 2]
    flat = [v for c in chains for v in c]
    assert rank(flat) == 3
    for chain in chains:
        assert mat_vec(n, chain[0]) == [0, 0, 0]
        for j in range(1, len(chain)):
            assert mat_vec(n, chain[j]) == list(chain[j - 1])


def test_block_diag_and_gram():
    b = block_diag([matrix([[1]]), matrix([[2, 0], [0, 3]])])
    assert b == matrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert diagonal(1, 2, 3) == b
    assert jordan_block(Fraction(3, 2), 3) == matrix(
        [[Fraction(3, 2), 1, 0], [0, Fraction(3, 2), 1], [0, 0, Fraction(3, 2)]])
    g = gram_matrix([vector([1, 0]), vector([1, 1])])
    assert g == matrix([[1, 1], [1, 2]])
    assert transpose(g) == g
