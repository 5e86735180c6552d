import random
from fractions import Fraction

import pytest

from lie_sbe import catalog
from lie_sbe.cohomology import (
    Cochain,
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
from lie_sbe.laws import LieLaw, center, derivations
from lie_sbe.linalg import Subspace


def _rand_cochain(rng, n, q, module):
    basis = cochain_basis(n, q, module)
    terms = {}
    for key in rng.sample(basis, min(4, len(basis))):
        terms[key] = Fraction(rng.randint(-3, 3))
    return Cochain(n, q, module, {k: v for k, v in terms.items() if v != 0})


def test_cochain_validation():
    with pytest.raises(InputError):
        Cochain(3, 2, "adjoint", {((1, 0), 2): Fraction(1)})  # unsorted indices
    with pytest.raises(InputError):
        Cochain(3, 2, "trivial", {((0, 1), 2): Fraction(1)})  # value index on trivial
    with pytest.raises(InputError):
        Cochain(3, 1, "spooky", {})


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
    for name in ("heis(3)", "b(3,R)", "s_prime", "l_6_6"):
        law = catalog(name)
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
