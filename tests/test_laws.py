import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lie_sbe import (
    InputError,
    LieLaw,
    PreconditionError,
    adjoint_h_dim,
    basis_change,
    betti_numbers,
    catalog,
    catalog_names,
    center,
    check_jacobi,
    composition_is_zero,
    derivations,
    derived_series,
    direct_sum,
    exponential_radical,
    fingerprint,
    is_completely_solvable,
    is_derivation,
    is_ideal,
    is_nilpotent,
    is_solvable,
    law_add,
    law_from_table,
    law_scale,
    lower_central_series,
    quotient_law,
    semidirect_rank_one,
    spectral_summary,
    subalgebra_law,
)
from lie_sbe.heintze import classify_hyperbolic
from lie_sbe.laws import _derivation_rows, bracket_subspaces, derived_algebra
from lie_sbe.linalg import Subspace, det, identity, matrix, zero_vec


def _rand_invertible(rng, n):
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if det(m) != 0:
            return m


def test_catalog_names_cover_the_families():
    names = catalog_names()
    assert len(names) >= 14
    for name in ("b(2,R)", "b(3,C)", "heis(3)", "l_6_7", "s_prime", "s_second",
                 "h2c_solvable", "aff", "l_4_3"):
        assert name in names
    with pytest.raises(InputError):
        catalog("no_such_algebra")
    with pytest.raises(InputError):
        catalog("heis(4)")  # heis takes odd dimension


def test_catalog_dimensions():
    assert catalog("b(5,R)").dim == 5
    assert catalog("b(3,C)").dim == 6
    assert catalog("b(2,H)").dim == 8
    assert catalog("heis(5)").dim == 5
    for i in (6, 7, 11, 12, 13):
        assert catalog("l_6_%d" % i).dim == 6


def test_whole_catalog_is_jacobi():
    for name in catalog_names():
        rep = check_jacobi(catalog(name))
        assert rep.ok, "%s fails Jacobi at %s" % (name, rep.triple)


def test_jacobi_failure_reports_triple():
    bad = law_from_table(4, {(1, 2): {3: 1}, (1, 3): {1: 1}})
    rep = check_jacobi(bad)
    assert not rep.ok
    assert rep.triple == (1, 2, 3)
    assert rep.residual[2] == Fraction(-1)
    with pytest.raises(PreconditionError):
        fingerprint(bad)


def test_bracket_literals_on_b3():
    b3 = catalog("b(3,R)")
    # [X_i, S] = -X_i, everything else zero
    assert b3.bracket_basis(0, 2) == [Fraction(-1), Fraction(0), Fraction(0)]
    assert b3.bracket_basis(1, 2) == [Fraction(0), Fraction(-1), Fraction(0)]
    assert b3.bracket_basis(0, 1) == [Fraction(0)] * 3
    ad_s = b3.ad_basis(2)
    assert ad_s == matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert b3.bracket([1, 0, 0], [0, 0, 1]) == [Fraction(-1), Fraction(0), Fraction(0)]


def test_law_identity_ignores_basis_labels():
    a = law_from_table(3, {(1, 2): {3: 1}}, basis=("X", "Y", "Z"))
    b = law_from_table(3, {(1, 2): {3: 1}}, basis=("E1", "E2", "E3"))
    assert a == b
    assert hash(a) == hash(b)
    assert a != law_from_table(3, {(1, 2): {3: 2}})


def test_law_identity_is_built_once():
    a = LieLaw(4, {(0, 1): {2: 1, 3: Fraction(1, 2)}, (0, 3): {3: -1}}, basis=("A", "B", "C", "D"))
    b = LieLaw(4, {(0, 3): {3: Fraction(-1)}, (0, 1): {3: Fraction(2, 4), 2: 1}})
    key = a._key()
    assert a._key() is key and hash(a) == hash(a) == key[1]
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != LieLaw(5, a.table) and a != LieLaw(4, {(0, 1): {2: 1}})


def test_table_validation():
    with pytest.raises(InputError):
        LieLaw(3, {(2, 1): {0: 1}})  # needs i < j
    with pytest.raises(InputError):
        LieLaw(3, {(0, 1): {5: 1}})  # target out of range
    with pytest.raises(InputError):
        LieLaw(0, {})
    # zero coefficients are dropped
    assert LieLaw(3, {(0, 1): {2: 0}}).table == {}


def test_law_arithmetic():
    h = catalog("heis(3)")
    doubled = law_add(h, h)
    assert doubled == law_scale(2, h)
    assert law_scale(Fraction(1, 2), doubled) == h


def test_series_dims():
    h = catalog("heis(3)")
    assert [s.dim for s in lower_central_series(h)] == [3, 1, 0]
    assert [s.dim for s in derived_series(h)] == [3, 1, 0]
    assert is_nilpotent(h) and is_solvable(h)

    b3 = catalog("b(3,R)")
    assert [s.dim for s in lower_central_series(b3)] == [3, 2]
    assert not is_nilpotent(b3) and is_solvable(b3)
    assert exponential_radical(b3).dim == 2

    l67 = catalog("l_6_7")
    assert [s.dim for s in lower_central_series(l67)] == [6, 3, 2, 1, 0]


def test_center_dims():
    assert center(catalog("heis(3)")).dim == 1
    assert center(catalog("b(3,R)")).dim == 0
    assert center(catalog("l_6_7")).dim == 2  # X5 and the spare X6
    assert center(LieLaw(4, {})).dim == 4


def test_completely_solvable_split():
    assert is_completely_solvable(catalog("b(3,R)"))
    assert is_completely_solvable(catalog("s_prime"))
    assert is_completely_solvable(catalog("h2c_solvable"))
    # the complex and quaternionic models are stored as split real forms
    assert is_completely_solvable(catalog("b(2,C)"))
    assert is_completely_solvable(catalog("b(2,H)"))
    rot = law_from_table(3, {(1, 3): {2: 1}, (2, 3): {1: -1}})
    assert is_solvable(rot) and not is_completely_solvable(rot)


def test_derivations_structure():
    h = catalog("heis(3)")
    data = derivations(h)
    assert data.der_dim == 6
    assert data.inner_dim == 2
    assert data.outer_dim == 4
    for d in data.der_basis:
        assert is_derivation(h, d)
    for d in data.inner_basis:
        assert is_derivation(h, d)
    assert not is_derivation(h, matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]]))


def test_ad_is_a_derivation_everywhere():
    rng = random.Random(31)
    for name in ("heis(3)", "b(3,R)", "l_6_6", "s_prime"):
        law = catalog(name)
        v = [Fraction(rng.randint(-2, 2)) for _ in range(law.dim)]
        assert is_derivation(law, law.ad(v))


def test_semidirect_and_direct_sum():
    ab = LieLaw(3, {})
    alpha = matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    g = semidirect_rank_one(ab, alpha)
    assert g.dim == 4
    assert check_jacobi(g).ok
    # [x, A] = -alpha x stored at (i, 3)
    assert g.table[(2, 3)] == {2: Fraction(-2)}
    with pytest.raises(PreconditionError):
        semidirect_rank_one(catalog("heis(3)"), matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))

    s = direct_sum(catalog("b(2,R)"), catalog("b(2,R)"))
    assert s.dim == 4
    assert check_jacobi(s).ok
    assert len(s.table) == 2


def test_subalgebra_quotient_ideal():
    g = catalog("b(3,R)")
    nil = Subspace.span(3, [[1, 0, 0], [0, 1, 0]])
    assert is_ideal(g, nil)
    sub, cols = subalgebra_law(g, nil.basis())
    assert sub.dim == 2 and sub.table == {}
    assert len(cols) == 2
    q, reps = quotient_law(g, nil)
    assert q.dim == 1 and len(reps) == 1
    line = Subspace.span(3, [[1, 0, 0]])
    assert is_ideal(g, line)
    assert not is_ideal(catalog("heis(3)"), Subspace.span(3, [[1, 0, 0]]))
    with pytest.raises(PreconditionError):
        subalgebra_law(catalog("heis(3)"), [[1, 0, 0], [0, 1, 0]])  # not closed


def test_basis_change_preserves_everything():
    rng = random.Random(32)
    for name in ("heis(3)", "b(3,R)", "l_6_13", "s_second"):
        law = catalog(name)
        fp = fingerprint(law)
        for _ in range(4):
            p = _rand_invertible(rng, law.dim)
            moved = basis_change(law, p)
            assert check_jacobi(moved).ok
            assert fingerprint(moved) == fp
        assert basis_change(law, identity(law.dim)) == law


def test_spectral_summary_literals():
    s = spectral_summary(matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
    assert s.single_real_eigenvalue is None
    assert not s.is_unipotent_after_scaling
    assert s.splits_over_q
    assert s.all_roots_positive_real_part
    assert s.rational_roots == ((Fraction(1), 2), (Fraction(2), 1))

    u = spectral_summary(matrix([[2, 1, 0], [0, 2, 1], [0, 0, 2]]))
    assert u.single_real_eigenvalue == 2
    assert u.is_unipotent_after_scaling

    rot = spectral_summary(matrix([[0, -1], [1, 0]]))
    assert rot.real_root_count == 0
    assert not rot.all_roots_positive_real_part


def test_fingerprint_values_on_l6():
    fp = fingerprint(catalog("l_6_13"))
    assert fp.betti[2] == 4
    assert fp.nilpotent
    fp7 = fingerprint(catalog("l_6_7"))
    assert fp7.outer_dim == 9
    assert fp7.center_dim == 2


# Reference kernels: LieLaw.bracket, the derivation system and
# bracket_subspaces as they were before they skipped zero products.


def _reference_bracket(law, x, y):
    x, y = [Fraction(c) for c in x], [Fraction(c) for c in y]
    out = zero_vec(law.dim)
    for (i, j), targets in law.table.items():
        coef = x[i] * y[j] - x[j] * y[i]
        if coef == 0:
            continue
        for k, c in targets.items():
            out[k] += coef * c
    return out


def _reference_derivation_rows(law):
    n = law.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            cij = law.bracket_basis(i, j)
            for m in range(n):
                row = [Fraction(0)] * (n * n)
                for k, c in enumerate(cij):
                    if c != 0:
                        row[m * n + k] += c
                for r in range(n):
                    c1 = law.bracket_basis(r, j)[m]
                    if c1 != 0:
                        row[r * n + i] -= c1
                    c2 = law.bracket_basis(i, r)[m]
                    if c2 != 0:
                        row[r * n + j] -= c2
                if any(x != 0 for x in row):
                    rows.append(row)
    return rows


def _reference_bracket_subspaces(law, a, b):
    vecs = [_reference_bracket(law, u, v) for u in a.basis() for v in b.basis()]
    return Subspace.span(law.dim, vecs)


def _unimodular(rng, n):
    """A random signed permutation followed by four elementary column shears."""
    perm = list(range(n))
    rng.shuffle(perm)
    q = [[Fraction(rng.choice((1, -1)) if perm[a] == m else 0) for a in range(n)]
         for m in range(n)]
    for _ in range(4 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        for row in q:
            row[j] += s * row[i]
    return q


def _catalog_in_three_bases():
    rng = random.Random(15)
    for name in catalog_names():
        law = catalog(name)
        yield name, law
        for _ in range(3):
            yield name, basis_change(law, _unimodular(rng, law.dim))


def _sparse_vector(rng, n):
    zero_share = rng.choice((0.0, 0.4, 0.8))
    fractions = rng.random() < 0.5
    out = []
    for _ in range(n):
        if rng.random() < zero_share:
            out.append(0)
        else:
            x = rng.choice((-3, -2, -1, 1, 2, 5))
            out.append(Fraction(x, rng.randint(1, 4)) if fractions else x)
    return out


def _is_fraction_vector(v):
    return all(type(x) is Fraction for x in v)


def test_bracket_matches_the_dense_reference():
    rng = random.Random(16)
    for name, law in _catalog_in_three_bases():
        n = law.dim
        e = identity(n)
        pairs = [(e[i], e[j]) for i in range(n) for j in range(n)]
        pairs += [(_sparse_vector(rng, n), _sparse_vector(rng, n)) for _ in range(12)]
        for x, y in pairs:
            got = law.bracket(x, y)
            assert got == _reference_bracket(law, x, y), name
            assert len(got) == n and _is_fraction_vector(got), name


def test_derivation_rows_match_the_dense_reference():
    for name, law in _catalog_in_three_bases():
        width = law.dim * law.dim
        got = _derivation_rows(law)
        assert all(row and all(type(c) is Fraction and c != 0 for c in row.values())
                   for row in got), name
        dense = [[row.get(col, Fraction(0)) for col in range(width)] for row in got]
        assert dense == _reference_derivation_rows(law), name


def test_bracket_subspaces_match_the_dense_reference():
    rng = random.Random(17)
    for name, law in _catalog_in_three_bases():
        n = law.dim
        full = Subspace.full(n)
        der = derived_algebra(law)
        some = Subspace.span(n, [_sparse_vector(rng, n) for _ in range(2)])
        for a, b in ((full, full), (der, der), (full, der), (der, full), (some, some),
                     (some, der)):
            got = bracket_subspaces(law, a, b)
            assert got == _reference_bracket_subspaces(law, a, b), name
            assert all(_is_fraction_vector(row) for row in got.rows), name


def test_bracket_rejects_a_length_other_than_dim():
    law = catalog("heis(3)")
    with pytest.raises(InputError):
        law.bracket([1, 0, 0, 5], [0, 1, 0, 7])
    with pytest.raises(InputError):
        law.bracket([1, 0], [0, 1, 0])
    assert law.bracket([1, 0, 0], [0, 1, 0]) == [0, 0, 1]


# Basis invariance: none of these numbers may move under an invertible integer
# change of basis of a catalog law.


@st.composite
def _catalog_law_and_basis_change(draw):
    """A catalog name and an invertible integer matrix: a signed permutation,
    then up to five column shears, then one column scaled by 1, 2 or 3."""
    name = draw(st.sampled_from(catalog_names()))
    n = catalog(name).dim
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    q = [[Fraction(signs[a] if perm[a] == m else 0) for a in range(n)] for m in range(n)]
    index = st.integers(0, n - 1)
    for i, j, s in draw(st.lists(st.tuples(index, index, st.sampled_from((-2, -1, 1, 2))),
                                 max_size=5)):
        if i != j:
            for row in q:
                row[j] += s * row[i]
    col, scale = draw(index), draw(st.sampled_from((1, 2, 3)))
    for row in q:
        row[col] *= scale
    return name, q


def _basis_free_numbers(law):
    der = derivations(law)
    verdict = classify_hyperbolic(law)
    numbers = (
        der.der_dim,
        der.inner_dim,
        center(law).dim,
        tuple(s.dim for s in derived_series(law)),
        tuple(s.dim for s in lower_central_series(law)),
        is_completely_solvable(law),
        (verdict.target, verdict.n, verdict.commable_to),
    )
    if law.dim > 6:
        # a sheared copy takes the full complex, which costs seconds at dim 8
        return numbers
    for q in range(law.dim):
        for module in ("trivial", "adjoint"):
            assert composition_is_zero(law, q, module), (q, module)
    return numbers + (tuple(betti_numbers(law)), adjoint_h_dim(law, 1), adjoint_h_dim(law, 2))


@functools.lru_cache(maxsize=None)
def _catalog_numbers(name):
    return _basis_free_numbers(catalog(name))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_catalog_law_and_basis_change())
def test_basis_free_numbers_do_not_move(case):
    name, q = case
    assert det(q) != 0
    moved = basis_change(catalog(name), q)
    assert _basis_free_numbers(moved) == _catalog_numbers(name), name
