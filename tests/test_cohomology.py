import itertools
import random
from fractions import Fraction

import pytest

from lie_sbe import catalog
from lie_sbe.catalog import catalog_names
from lie_sbe.cohomology import (
    Cochain,
    Differential,
    adjoint_h_dim,
    apply_differential,
    betti_numbers,
    class_weight,
    classify_cochain,
    coboundary_space,
    cochain_basis,
    cochain_to_vector,
    cocycle_space,
    cohomology_basis,
    composition_is_zero,
    cup_product,
    cup_square_rank,
    differential,
    vector_to_cochain,
    wedge,
)
from lie_sbe.errors import InputError, PreconditionError
from lie_sbe.laws import LieLaw, center, derivations, law_in_basis, semidirect_rank_one
from lie_sbe.linalg import Subspace, diagonal, mat_mul


def _rand_cochain(rng, n, q, module):
    basis = cochain_basis(n, q, module)
    terms = {}
    for key in rng.sample(basis, min(4, len(basis))):
        terms[key] = Fraction(rng.randint(-3, 3))
    return Cochain(n, q, module, {k: v for k, v in terms.items() if v != 0})


# Reference builder: the Chevalley-Eilenberg differential as cohomology built
# it from dense bracket_basis vectors, (S, k) position maps and one global sort.

def _reference_differential(law, q, module):
    n = law.dim
    cols = cochain_basis(n, q, module)
    rows = cochain_basis(n, q + 1, module)
    col_pos = {key: i for i, key in enumerate(cols)}
    row_pos = {key: i for i, key in enumerate(rows)}
    acc = {}

    def add(r, c, v):
        acc[(r, c)] = acc.get((r, c), Fraction(0)) + v

    values = range(n) if module == "adjoint" else (None,)
    for t in itertools.combinations(range(n), q + 1):
        if module == "adjoint":
            for i in range(q + 1):
                s = t[:i] + t[i + 1:]
                sign = -1 if i % 2 else 1
                for k in range(n):
                    col = col_pos.get((s, k))
                    if col is None:
                        continue
                    br = law.bracket_basis(t[i], k)
                    for m, c in enumerate(br):
                        if c != 0:
                            add(row_pos[(t, m)], col, sign * c)
        for i in range(q + 1):
            for j in range(i + 1, q + 1):
                br = law.bracket_basis(t[i], t[j])
                rest = tuple(x for p, x in enumerate(t) if p not in (i, j))
                base_sign = -1 if (i + j) % 2 else 1
                for m, c in enumerate(br):
                    if c == 0 or m in rest:
                        continue
                    pos = sum(1 for r in rest if r < m)
                    s = tuple(sorted(rest + (m,)))
                    sgn = base_sign * (-1 if pos % 2 else 1) * c
                    for k in values:
                        col = col_pos.get((s, k))
                        if col is not None:
                            add(row_pos[(t, k)], col, sgn)
    entries = tuple(
        (r, c, v) for (r, c), v in sorted(acc.items()) if v != 0
    )
    return Differential(rows=tuple(rows), cols=tuple(cols), entries=entries)


def _unimodular_copy(law, seed, shears):
    """The law in a signed-permutation basis, then sheared `shears` times."""
    rng = random.Random(seed)
    n = law.dim
    perm = list(range(n))
    rng.shuffle(perm)
    cols = [[Fraction(0)] * n for _ in range(n)]
    for j, i in enumerate(perm):
        cols[i][j] = Fraction(rng.choice((-1, 1)))
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        e = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
        e[i][j] = Fraction(rng.choice((-1, 1)))
        cols = mat_mul(cols, e)
    return law_in_basis(law, cols)


def _three_forms(law):
    """The law as given, a signed-permutation copy and a densely sheared copy."""
    n = law.dim
    return (law, _unimodular_copy(law, n, 0), _unimodular_copy(law, n, 2 * n))


def _fractional_laws():
    """Laws whose structure constants have the denominators 2, 3 and 6."""
    mixed = law_in_basis(catalog("l_6_13"), diagonal(1, 1, 2, 3, 1, 1))
    r3 = semidirect_rank_one(LieLaw(3, {}), diagonal(1, 1, Fraction(3, 2)))
    return (mixed, r3, _unimodular_copy(r3, 4, 8))


def _assert_canonical(d):
    """Nonzero Fraction entries in strictly increasing (row, col) order."""
    keys = [(r, c) for r, c, _ in d.entries]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert all(type(v) is Fraction and v != 0 for _, _, v in d.entries)
    assert all(0 <= r < len(d.rows) and 0 <= c < len(d.cols) for r, c in keys)


@pytest.mark.parametrize("name", [n for n in catalog_names() if catalog(n).dim <= 8])
def test_differential_matches_the_reference_builder(name):
    for law in _three_forms(catalog(name)):
        n = law.dim
        for module, top in (("trivial", n), ("adjoint", min(n, 3))):
            for q in range(top + 1):
                d = differential(law, q, module)
                assert d == _reference_differential(law, q, module)
                _assert_canonical(d)


def test_differential_with_fractional_constants():
    for law in _fractional_laws():
        dens = {c.denominator for t in law.table.values() for c in t.values()}
        assert dens - {1}
        if law.dim == 6:
            assert dens == {1, 2, 3}
        for module in ("trivial", "adjoint"):
            for q in range(law.dim + 1):
                d = differential(law, q, module)
                assert d == _reference_differential(law, q, module)
                _assert_canonical(d)


def test_cochain_validation():
    with pytest.raises(InputError):
        Cochain(3, 2, "adjoint", {((1, 0), 2): Fraction(1)})  # unsorted indices
    with pytest.raises(InputError):
        Cochain(3, 2, "trivial", {((0, 1), 2): Fraction(1)})  # value index on trivial
    with pytest.raises(InputError):
        Cochain(3, 1, "spooky", {})


@pytest.mark.parametrize("module, key", [
    ("trivial", ((5,), None)),
    ("trivial", ((-1,), None)),
    ("adjoint", ((0,), 7)),
    ("adjoint", ((3,), 0)),
    ("adjoint", ((0,), -1)),
])
def test_cochain_rejects_indices_out_of_range(module, key):
    with pytest.raises(InputError):
        Cochain(3, 1, module, {key: Fraction(1)})
    Cochain(3, 1, module, {((2,), None if module == "trivial" else 2): Fraction(1)})


def test_betti_literals():
    assert betti_numbers(catalog("heis(3)")) == [1, 2, 2, 1]
    assert betti_numbers(catalog("b(2,R)")) == [1, 1, 0]
    assert betti_numbers(LieLaw(3, {})) == [1, 3, 3, 1]


def test_betti_ends_and_euler_characteristic():
    for name in ("heis(3)", "b(3,R)", "l_6_7", "l_6_13", "s_prime", "b(2,C)"):
        law = catalog(name)
        b = betti_numbers(law)
        assert len(b) == law.dim + 1
        assert b[0] == 1
        assert sum((-1) ** q * x for q, x in enumerate(b)) == 0


def test_degree_bounds_and_h0():
    law = catalog("heis(3)")
    assert adjoint_h_dim(law, 0) == center(law).dim
    assert adjoint_h_dim(law, 1) == derivations(law).outer_dim
    assert betti_numbers(law)[law.dim] == 1  # unimodular nilpotent: top class survives


def test_differential_squares_to_zero():
    laws = [form for name in ("heis(3)", "b(3,R)", "s_prime", "l_6_6")
            for form in _three_forms(catalog(name))]
    for law in laws + list(_fractional_laws()):
        for module in ("trivial", "adjoint"):
            for q in range(law.dim):
                assert composition_is_zero(law, q, module)


def test_apply_differential_is_linear():
    rng = random.Random(41)
    law = catalog("l_6_7")
    for module in ("trivial", "adjoint"):
        a = _rand_cochain(rng, 6, 2, module)
        b = _rand_cochain(rng, 6, 2, module)
        lhs = apply_differential(law, a.plus(b.scaled(3)))
        rhs = apply_differential(law, a).plus(apply_differential(law, b).scaled(3))
        assert lhs.terms == rhs.terms


def test_differential_matrix_matches_apply():
    law = catalog("heis(3)")
    d = differential(law, 1, "adjoint")
    basis = cochain_basis(3, 1, "adjoint")
    for col, key in enumerate(basis):
        c = Cochain(3, 1, "adjoint", {key: Fraction(1)})
        v = cochain_to_vector(apply_differential(law, c))
        dense_col = [Fraction(0)] * len(d.rows)
        for r, c, x in d.entries:
            if c == col:
                dense_col[r] = x
        assert v == dense_col


def test_classify_cochain_statuses():
    law = catalog("b(3,R)")
    # d of a 1-cochain is a coboundary, and the preimage must reproduce it
    one = Cochain(3, 1, "adjoint", {((0,), 1): Fraction(2)})
    img = apply_differential(law, one)
    verdict = classify_cochain(law, img)
    assert verdict.status == "coboundary"
    pre = verdict.preimage
    assert apply_differential(law, pre).terms == img.terms

    # a non-cocycle has a nonzero residual
    bad = Cochain(3, 1, "trivial", {((0,), None): Fraction(1)})
    v2 = classify_cochain(law, bad)
    assert v2.status == "not_cocycle"
    assert v2.residual is not None and not v2.residual.is_zero()


def test_cohomology_basis_represents_classes():
    law = catalog("l_6_7")
    reps = cohomology_basis(law, 2, "trivial")
    assert len(reps) == 5
    z = cocycle_space(law, 2, "trivial")
    b = coboundary_space(law, 2, "trivial")
    for c in reps:
        assert classify_cochain(law, c).status == "nontrivial_class"
        assert z.contains(cochain_to_vector(c))
    # independent modulo coboundaries
    span = b
    for c in reps:
        span = span.add(Subspace.span(len(cochain_basis(6, 2, "trivial")), [cochain_to_vector(c)]))
    assert span.dim == b.dim + 5


def test_wedge_and_cup_rules():
    rng = random.Random(42)
    n = 5
    law = catalog("heis(5)")
    for p, q in ((1, 1), (1, 2), (2, 2)):
        a = _rand_cochain(rng, n, p, "trivial")
        b = _rand_cochain(rng, n, q, "trivial")
        ab = wedge(a, b)
        ba = wedge(b, a)
        sign = Fraction((-1) ** (p * q))
        assert ab.terms == ba.scaled(sign).terms
    # cup of cocycles is a cocycle
    za = cohomology_basis(law, 1, "trivial")
    c = cup_product(law, za[0], za[1])
    assert classify_cochain(law, c).status in ("coboundary", "nontrivial_class")


def test_cup_product_is_class_invariant():
    rng = random.Random(43)
    law = catalog("l_6_7")
    reps = cohomology_basis(law, 2, "trivial")
    a, b = reps[0], reps[1]
    base = cup_product(law, a, b)
    # shift a by a coboundary: the cup moves by a coboundary only
    one = _rand_cochain(rng, 6, 1, "trivial")
    shifted = a.plus(apply_differential(law, one))
    moved = cup_product(law, shifted, b)
    diff = moved.plus(base.scaled(-1))
    status = classify_cochain(law, diff).status
    assert status == "coboundary" or diff.is_zero()


def test_cup_square_rank_values():
    assert cup_square_rank(catalog("l_6_13")) == 2
    assert cup_square_rank(catalog("l_6_7")) == 4


def test_class_weight_on_graded_l67():
    law = catalog("l_6_7")
    grading = [
        Subspace.span(6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]]),
        Subspace.span(6, [[0, 0, 1, 0, 0, 0]]),
        Subspace.span(6, [[0, 0, 0, 1, 0, 0]]),
        Subspace.span(6, [[0, 0, 0, 0, 1, 0]]),
    ]
    xi1 = Cochain(6, 2, "adjoint", {((1, 2), 4): Fraction(1)})
    xi2 = Cochain(6, 2, "adjoint", {((1, 5), 4): Fraction(1)})
    omega = Cochain(6, 2, "adjoint", {((0, 5), 1): Fraction(1), ((1, 5), 0): Fraction(-1)})
    assert class_weight(law, grading, xi1).weight == 1
    assert class_weight(law, grading, xi2).weight == 2
    rep = class_weight(law, grading, omega)
    assert rep.homogeneous and rep.weight == -1
    mixed = xi1.plus(xi2)
    rep2 = class_weight(law, grading, mixed)
    assert not rep2.homogeneous
    assert sorted(rep2.components) == [1, 2]


def test_class_weight_rejects_non_gradings():
    law = catalog("l_6_7")
    bad = [Subspace.span(6, [[1, 0, 0, 0, 0, 0]]),
           Subspace.span(6, [[0, 1, 0, 0, 0, 0]])]
    with pytest.raises(PreconditionError):
        class_weight(law, bad, Cochain(6, 2, "adjoint", {}))


def test_vector_cochain_round_trip():
    rng = random.Random(44)
    for module in ("trivial", "adjoint"):
        c = _rand_cochain(rng, 4, 2, module)
        v = cochain_to_vector(c)
        back = vector_to_cochain(v, 4, 2, module)
        assert back.terms == c.terms
