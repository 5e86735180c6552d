import itertools
import math
import random
from fractions import Fraction

import pytest

from lie_sbe import catalog
from lie_sbe.catalog import catalog_names
from lie_sbe.cohomology import (
    adjoint_h_dim,
    betti_numbers,
    coboundary_space,
    cocycle_space,
    differential,
)
from lie_sbe.laws import law_in_basis
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
    identity,
    independent,
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


# Reference kernels: the integer Bareiss elimination behind rank and det, and
# the dense Fraction Gauss-Jordan RREF, as linalg had them before its sparse
# echelon; nullspace, solve and extend_to_basis are rebuilt on that RREF.


def _ref_integer_rows(m):
    dens = [math.lcm(*(frac(x).denominator for x in row)) for row in m]
    return [[int(frac(x) * d) for x in row] for row, d in zip(m, dens)], dens


def _ref_bareiss(a):
    rows, cols = len(a), len(a[0])
    r = 0
    prev = 1
    sign = 1
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[i][j] * a[r][c] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        if r == rows:
            break
    return r, sign * prev


def _ref_rank(m):
    if not m or not m[0]:
        return 0
    return _ref_bareiss(_ref_integer_rows(m)[0])[0]


def _ref_det(m):
    if not m:
        return Fraction(1)
    a, dens = _ref_integer_rows(m)
    r, d = _ref_bareiss(a)
    return Fraction(d, math.prod(dens)) if r == len(m) else Fraction(0)


def _ref_rref(m):
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a[:r], pivots


def _ref_nullspace(m):
    n = len(m[0])
    r, pivots = _ref_rref(m)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for row_i, pc in enumerate(pivots):
            v[pc] = -r[row_i][free]
        basis.append(v)
    return basis


def _ref_solve(a, b):
    n = len(a[0])
    r, pivots = _ref_rref([list(row) + [bb] for row, bb in zip(a, b)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for row_i, pc in enumerate(pivots):
        x[pc] = r[row_i][-1]
    return x


def _ref_extend_to_basis(vectors, ambient):
    rows = [list(v) for v in vectors]
    extra = []
    for e in identity(ambient):
        if _ref_rank(rows + [e]) > _ref_rank(rows):
            extra.append(e)
            rows.append(e)
    return extra


def _sweep_matrices(count=300, seed=20):
    """Small Fraction matrices, 1-7 x 1-7, at densities 0.2, 0.5 and 0.9;
    every third one gets a row that is a combination of two others."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        density = (0.2, 0.5, 0.9)[k % 3]
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        m = [[Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 4)), rng.choice((1, 1, 2, 3)))
              if rng.random() < density else Fraction(0) for _ in range(c)] for _ in range(r)]
        if r >= 3 and k % 9 < 3:
            i, j = rng.sample(range(r - 1), 2)
            f, g = Fraction(rng.randint(-3, 3), rng.choice((1, 2))), Fraction(rng.randint(-3, 3))
            m[-1] = [f * x + g * y for x, y in zip(m[i], m[j])]
        out.append(m)
    return out


def test_elimination_matches_the_dense_references():
    rng = random.Random(21)
    for m in _sweep_matrices():
        c = len(m[0])
        assert rank(m) == _ref_rank(m)
        assert rref(m) == _ref_rref(m)
        assert nullspace(m) == _ref_nullspace(m)
        inside = mat_vec(m, [Fraction(rng.randint(-3, 3)) for _ in range(c)])
        outside = [Fraction(rng.randint(-3, 3)) for _ in m]
        for b in (inside, outside):
            assert solve(m, b) == _ref_solve(m, b)
        assert extend_to_basis(m, c) == _ref_extend_to_basis(m, c)
        if len(m) == c:
            assert det(m) == _ref_det(m)


def test_dict_rows_and_independent_match_the_references():
    for m in _sweep_matrices(count=150, seed=22):
        c = len(m[0])
        rows = [{j: x for j, x in enumerate(row) if x != 0} for row in m]
        assert rank(rows) == _ref_rank(m)
        assert rref(rows, cols=c) == _ref_rref(m)
        assert nullspace(rows, cols=c) == _ref_nullspace(m)
        b = [Fraction(k - 1) for k in range(len(m))]
        assert solve(rows, b, cols=c) == _ref_solve(m, b)
        base, candidates = m[: len(m) // 2], m[len(m) // 2:] + identity(c)
        kept = []
        for v in candidates:
            if _ref_rank(base + kept + [v]) > _ref_rank(base + kept):
                kept.append(v)
        assert independent(base, candidates) == kept
        assert independent(rows, identity(c)) == _ref_extend_to_basis(m, c)


def _kernel_cases(count=300, seed=23):
    """(rows, ambient) pairs: Fraction matrices of 1-8 x 1-8 at densities 0.2,
    0.5 and 0.9, every other one as {column: value} dicts, plus zero and
    full-rank matrices and an empty row list."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        density = (0.2, 0.5, 0.9)[k % 3]
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        m = [[Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 4)), rng.choice((1, 1, 2, 3)))
              if rng.random() < density else Fraction(0) for _ in range(c)] for _ in range(r)]
        if r >= 3 and k % 9 < 3:
            i, j = rng.sample(range(r - 1), 2)
            m[-1] = [2 * x - Fraction(1, 3) * y for x, y in zip(m[i], m[j])]
        out.append((m, c))
    for n in range(1, 9):
        out.append(([[Fraction(0)] * n for _ in range(n)], n))
        out.append((_rand_invertible(rng, n), n))
        out.append(([], n))
    return [([{j: x for j, x in enumerate(row) if x} for row in m] if k % 2 else m, n)
            for k, (m, n) in enumerate(out)]


def _ref_kernel(m, n):
    """The RREF basis of the right kernel, from the dense references."""
    dense = [[row.get(j, Fraction(0)) for j in range(n)] if isinstance(row, dict) else row
             for row in m]
    rows, pivots = _ref_rref(_ref_nullspace(dense) if dense else identity(n))
    return Subspace(n, tuple(tuple(row) for row in rows), tuple(pivots))


def test_kernel_is_the_span_of_the_nullspace():
    cases = _kernel_cases()
    assert len(cases) >= 300
    for m, n in cases:
        expect = Subspace.span(n, nullspace(m, cols=n))
        assert expect == _ref_kernel(m, n)
        assert Subspace.kernel(m, n) == expect


def test_det_with_large_coprime_denominators_and_singular_matrices():
    rng = random.Random(24)
    primes = [p for p in range(999_000, 1_000_000) if all(p % d for d in range(2, 1000))]
    for trial in range(120):
        n = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.choice(primes)) for _ in range(n)]
             for _ in range(n)]
        singular = trial % 3 and n >= 2
        if singular:
            # a row, or a column, that is a multiple of another
            i, j = rng.sample(range(n), 2)
            f = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.choice(primes))
            if trial % 3 == 1:
                m[j] = [f * x for x in m[i]]
            else:
                for row in m:
                    row[j] = f * row[i]
        assert det(m) == _ref_det(m)
        assert (det(m) == 0) == singular


def _signed_permutation_copy(law, seed):
    rng = random.Random(seed)
    n = law.dim
    perm = list(range(n))
    rng.shuffle(perm)
    cols = [[Fraction(0)] * n for _ in range(n)]
    for j, i in enumerate(perm):
        cols[i][j] = Fraction(rng.choice((-1, 1)))
    return law_in_basis(law, cols)


def _dense_rank_of_differential(law, q, module):
    d = differential(law, q, module)
    if not d.rows or not d.cols:
        return 0
    mat = [[Fraction(0)] * len(d.cols) for _ in d.rows]
    for r, c, v in d.entries:
        mat[r][c] = v
    return _ref_rank(mat)


@pytest.mark.parametrize("name", [n for n in catalog_names() if catalog(n).dim <= 6])
def test_complex_ranks_match_dense_bareiss(name):
    base = catalog(name)
    n = base.dim
    for law in (base, _signed_permutation_copy(base, seed=n)):
        for module in ("trivial", "adjoint"):
            width = n if module == "adjoint" else 1
            ranks = [_dense_rank_of_differential(law, q, module) for q in range(n + 1)]
            h = [math.comb(n, q) * width - ranks[q] - (ranks[q - 1] if q else 0)
                 for q in range(n + 1)]
            if module == "trivial":
                assert betti_numbers(law) == h
            else:
                assert [adjoint_h_dim(law, q) for q in range(n + 1)] == h
            for q in range(n + 1):
                assert cocycle_space(law, q, module).dim == math.comb(n, q) * width - ranks[q]
                assert coboundary_space(law, q, module).dim == (ranks[q - 1] if q else 0)


def test_dict_rows_need_a_width_that_holds_every_key():
    # a width read from the first row's entry count (2) would turn these into
    # [[0, 1]] and [1, 0] without a word
    row = {0: Fraction(1), 5: Fraction(2)}
    for call in (lambda: nullspace([row]), lambda: rref([row]), lambda: solve([row], [1]),
                 lambda: nullspace([row], cols=5), lambda: rref([row], cols=3),
                 lambda: solve([row], [1], cols=5), lambda: Subspace.kernel([row], 5),
                 lambda: nullspace([{-1: Fraction(1)}], cols=2)):
        with pytest.raises(ValueError):
            call()
    assert nullspace([row], cols=6)[-1] == [-2] + [0] * 4 + [1]
    assert solve([row], [1], cols=6) == [1, 0, 0, 0, 0, 0]
    assert Subspace.kernel([row], 6) == Subspace.span(6, nullspace([row], cols=6))
    assert rank([row]) == 1


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


# Reference products: the dense sums that mat_mul and mat_vec were before
# they skipped zero factors.


def _reference_mat_mul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _reference_mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _sparse_entries(rng, count, zero_share, fractions):
    out = []
    for _ in range(count):
        if rng.random() < zero_share:
            out.append(Fraction(0) if fractions else 0)
        else:
            x = rng.choice((-5, -3, -2, -1, 1, 2, 4, 7))
            out.append(Fraction(x, rng.randint(1, 6)) if fractions else x)
    return out


def _sparse_rows(rng, r, c, zero_share, fractions):
    return [_sparse_entries(rng, c, zero_share, fractions) for _ in range(r)]


def _all_fractions(entries):
    return all(type(x) is Fraction for x in entries)


def test_products_match_the_dense_references():
    rng = random.Random(15)
    shapes = [(1, 1, 1), (1, 5, 1), (5, 1, 5), (1, 4, 6), (6, 4, 1), (3, 3, 3), (4, 6, 2)]
    for trial in range(600):
        zero_share = (0.0, 0.3, 0.5, 0.7, 0.9)[trial % 5]
        fractions = trial % 2 == 0
        r, k, c = shapes[trial % len(shapes)] if trial < 100 else (
            rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6))
        a = _sparse_rows(rng, r, k, zero_share, fractions)
        b = _sparse_rows(rng, k, c, zero_share, fractions)
        v = _sparse_entries(rng, k, zero_share, fractions)
        got = mat_mul(a, b)
        assert got == _reference_mat_mul(a, b)
        assert len(got) == r and all(len(row) == c for row in got)
        assert all(_all_fractions(row) for row in got)
        got_v = mat_vec(a, v)
        assert got_v == _reference_mat_vec(a, v)
        assert len(got_v) == r and _all_fractions(got_v)


def test_mat_vec_rejects_a_shape_mismatch():
    with pytest.raises(ValueError):
        mat_vec([[1, 2], [3, 4]], [1, 1, 1])
    with pytest.raises(ValueError):
        mat_vec([[1, 2], [3, 4, 5]], [1, 1])


def test_mat_mul_rejects_a_shape_mismatch():
    with pytest.raises(ValueError):
        mat_mul([[1, 2]], [[1], [1], [1]])
    with pytest.raises(ValueError):
        mat_mul([[1, 2]], [[1, 0], [1]])
