from fractions import Fraction

import pytest

from lie_sbe import catalog
from lie_sbe.cohomology import Cochain
from lie_sbe.deformation import (
    ScalingFamily,
    apply_family,
    cochain2_as_law,
    contraction_limit,
    cornulier_reduction,
    graded_nilpotent,
    h2c_certificate,
    lauret_certificate,
    linear_expandability,
    modification,
    semicontinuity_obstruction,
    spectral_obstruction,
    torus_check,
)
from lie_sbe.errors import DivergentFamily, InputError, LieSbeError, PreconditionError
from lie_sbe.heintze import amalgam, heintze_check
from lie_sbe.laws import LieLaw, check_jacobi, law_add, semidirect_rank_one
from lie_sbe.linalg import Subspace, identity, matrix


def _j3(lam):
    return matrix([[lam, 1, 0], [0, lam, 1], [0, 0, lam]])


def _xi1():
    return Cochain(6, 2, "adjoint", {((1, 2), 4): Fraction(1)})


def _omega_example():
    # the degree-(-1) class of the six-dimensional chain algebra
    return Cochain(6, 2, "adjoint", {((0, 5), 1): Fraction(1), ((1, 5), 0): Fraction(-1)})


def test_apply_family_trivial_weights():
    law = catalog("s_prime")
    lam = apply_family(law, ScalingFamily(w=(0, 0, 0, 0)))
    assert lam.at(1) == law
    assert lam.at(7) == law
    with pytest.raises(InputError):
        lam.at(0)
    with pytest.raises(InputError):
        apply_family(law, ScalingFamily(w=(0, 0)))


def test_apply_family_exponent_arithmetic():
    law = catalog("s_prime")
    lam = apply_family(law, ScalingFamily(w=(0, -1, -1, 0)))
    # [Y, A] keeps its Y part at exponent 0 and pushes the X part to t^-1
    row = lam.table[(1, 3)]
    assert row[0] == (-1, Fraction(-1))
    assert row[1] == (0, Fraction(-1))


def test_contraction_of_s_prime():
    law = catalog("s_prime")
    lam = apply_family(law, ScalingFamily(w=(0, -1, -1, 0)))
    assert contraction_limit(lam) == catalog("h2c_solvable")


def test_contraction_of_jordan_block_extension():
    g = semidirect_rank_one(LieLaw(3, {}), _j3(Fraction(1)))
    lam = apply_family(g, ScalingFamily(w=(-1, -2, -3, 0)))
    assert contraction_limit(lam) == catalog("b(4,R)")


def test_divergent_family_lists_entries():
    law = catalog("s_prime")
    lam = apply_family(law, ScalingFamily(w=(0, 1, 1, 0)))
    with pytest.raises(DivergentFamily) as err:
        contraction_limit(lam)
    entries = err.value.entries
    assert all(e > 0 for (_, _, _, e, _) in entries)
    assert (2, 4, 1, 1, Fraction(-1)) in entries
    assert isinstance(err.value, LieSbeError)


def test_graded_contraction_families_converge():
    for name in ("l_6_6", "l_6_13"):
        law = catalog(name)
        res = graded_nilpotent(law)
        assert res.gr == catalog("l_6_7")
        assert not res.already_graded
        lam = apply_family(law, res.family)
        assert contraction_limit(lam) == res.gr
    res = graded_nilpotent(catalog("heis(3)"))
    assert res.already_graded and res.gr == catalog("heis(3)")
    again = graded_nilpotent(res.gr)
    assert again.gr == res.gr
    with pytest.raises(PreconditionError):
        graded_nilpotent(catalog("b(3,R)"))


def test_graded_weights_of_l66():
    res = graded_nilpotent(catalog("l_6_6"))
    assert tuple(res.family.w) == (1, 1, 2, 3, 4, 1)


def test_linear_expandability_of_xi1():
    l67 = catalog("l_6_7")
    rep = linear_expandability(l67, _xi1())
    assert rep.expandable
    assert rep.cocycle
    assert rep.quadratic_zero
    assert rep.law_at_one == catalog("l_6_6")


def test_linear_expandability_fails_on_non_cocycle():
    l67 = catalog("l_6_7")
    for k in (0, 1, 2):
        omega = _omega_example().plus(_xi1().scaled(k))
        rep = linear_expandability(l67, omega)
        assert not rep.expandable
        assert not rep.cocycle
        assert rep.failing_triple is not None


def test_linear_expandability_of_the_twisting_cochain():
    b3 = catalog("b(3,R)")
    omega = Cochain(3, 2, "adjoint",
                    {((0, 2), 1): Fraction(-1), ((1, 2), 0): Fraction(1)})
    rep = linear_expandability(b3, omega)
    assert rep.expandable
    assert rep.law_at_one == law_add(b3, cochain2_as_law(omega))


def test_semicontinuity_reports():
    l67 = catalog("l_6_7")
    l66 = catalog("l_6_6")
    same = semicontinuity_obstruction(l67, l67)
    assert not same.obstructed

    rep = semicontinuity_obstruction(l67, l66)
    assert rep.obstructed
    violated = [r for r in rep.rows if r.violated]
    assert violated
    h1 = [r for r in violated if "H1" in r.name or "H^1" in r.name]
    assert h1 and h1[0].source == 9 and h1[0].target == 8

    # the legal direction is not obstructed
    assert not semicontinuity_obstruction(l66, l67).obstructed
    with pytest.raises(InputError):
        semicontinuity_obstruction(l67, catalog("b(3,R)"))


def test_spectral_obstruction_branches():
    r3_1 = semidirect_rank_one(LieLaw(3, {}), identity(3))
    r3_2 = semidirect_rank_one(
        LieLaw(3, {}), matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
    rep = spectral_obstruction(r3_1, r3_2)
    assert rep.status == "obstructed"

    g = semidirect_rank_one(LieLaw(3, {}), _j3(Fraction(1)))
    rep2 = spectral_obstruction(g, catalog("b(4,R)"))
    assert rep2.status == "not_obstructed"

    rep3 = spectral_obstruction(catalog("heis(3)"), catalog("heis(3)"))
    assert rep3.status == "inapplicable"


def test_lauret_certificate():
    cert = lauret_certificate(catalog("b(3,R)"))
    assert cert.applies
    g = semidirect_rank_one(LieLaw(3, {}), _j3(Fraction(1)))
    cert2 = lauret_certificate(g)
    assert cert2.applies
    assert tuple(cert2.family.w) == (-1, -2, -3, 0)
    assert cert2.limit == catalog("b(4,R)")
    cert3 = lauret_certificate(catalog("s_second"))
    assert not cert3.applies and cert3.reason


def test_lauret_certificate_on_a_perfect_law():
    # sl2 is perfect: [g, g] = g, so the derived subalgebra has codimension 0
    sl2 = LieLaw(3, {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}})
    cert = lauret_certificate(sl2)
    assert not cert.applies
    assert cert.reason == "derived subalgebra has codimension 0, need 1"


def test_h2c_certificate():
    cert = h2c_certificate(catalog("s_prime"))
    assert cert.applies
    assert cert.limit == catalog("h2c_solvable")
    assert tuple(cert.family.w) == (0, -1, -1, 0)
    assert h2c_certificate(catalog("h2c_solvable")).applies
    no = h2c_certificate(catalog("s_second"))
    assert not no.applies and "derived" in no.reason
    wrong = h2c_certificate(catalog("b(3,R)"))
    assert not wrong.applies and "dimension 3" in wrong.reason


def test_torus_check():
    b3 = catalog("b(3,R)")
    j = matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    rep = torus_check(b3, [j])
    assert rep.is_torus and rep.is_compact

    rep2 = torus_check(b3, [matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]])])
    assert not rep2.is_compact
    rep3 = torus_check(LieLaw(2, {}), [matrix([[0, 1], [0, 0]])])
    assert not rep3.is_torus and rep3.failures

    # non-commuting pair is rejected
    a = matrix([[0, 1], [0, 0]])
    b = matrix([[0, 0], [1, 0]])
    rep4 = torus_check(LieLaw(2, {}), [a, b])
    assert not rep4.is_torus


def test_modification_rotation_twisting():
    b3 = catalog("b(3,R)")
    j = matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    tau = [[Fraction(0), Fraction(0), Fraction(1)]]
    res = modification(b3, [j], tau)
    assert res.closure and res.twisting and res.jacobi_ok
    # [S, X1]' = X1 + X2 and [S, X2]' = X2 - X1, stored on the (i, S) side
    assert res.law.table[(0, 2)] == {0: Fraction(-1), 1: Fraction(-1)}
    assert res.law.table[(1, 2)] == {0: Fraction(1), 1: Fraction(-1)}
    assert res.law == law_add(b3, res.delta)
    assert check_jacobi(res.law).ok

    # doubling tau doubles the twist term
    res2 = modification(b3, [j], [[Fraction(0), Fraction(0), Fraction(2)]])
    assert res2.law.table[(0, 2)] == {0: Fraction(-1), 1: Fraction(-2)}

    # tau = 0 returns the base law
    res0 = modification(b3, [j], [[Fraction(0)] * 3])
    assert res0.law == b3 and res0.delta.table == {}


def test_modification_shape_checks():
    b3 = catalog("b(3,R)")
    j = matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(InputError):
        modification(b3, [j], [[Fraction(0), Fraction(0)]])
    # not a derivation of b(3,R)
    with pytest.raises(PreconditionError):
        modification(b3, [matrix([[0, -1, 0], [1, 0, 0], [0, 0, 1]])],
                     [[Fraction(0), Fraction(0), Fraction(1)]])


def test_cornulier_reduction_s_prime():
    sp = catalog("s_prime")
    res = cornulier_reduction(sp, [[0, 0, 0, 1]])
    assert res.g_inf == catalog("h2c_solvable")
    assert res.r_dim == 3
    assert check_jacobi(res.g1).ok


def test_cornulier_reduction_s_second():
    s2 = catalog("s_second")
    res = cornulier_reduction(s2, [[0, 0, 0, 1]])
    target = semidirect_rank_one(
        LieLaw(3, {}), matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
    assert res.g_inf == target
    assert tuple(res.weights) == ((Fraction(1),), (Fraction(1),), (Fraction(2),))
    assert tuple(res.depths) == (1, 2, 1)


def test_cornulier_reduction_nilpotent_case():
    h = catalog("heis(3)")
    res = cornulier_reduction(h, identity(3))
    assert res.g1 == h
    assert res.g_inf == graded_nilpotent(h).gr


def test_cornulier_reduction_rejects_bad_cartan():
    sp = catalog("s_prime")
    with pytest.raises(PreconditionError):
        cornulier_reduction(sp, [[1, 0, 0, 0]])  # inside the radical: not self-normalizing
    ab2 = LieLaw(2, {})
    g = semidirect_rank_one(ab2, matrix([[1, 1], [1, 0]]))
    with pytest.raises(PreconditionError) as err:
        cornulier_reduction(g, [[0, 0, 1]])
    assert "x^2 - x - 1" in str(err.value)


def test_amalgam_is_a_heintze_input():
    b3 = heintze_check(LieLaw(2, {}), identity(2))
    b2 = heintze_check(LieLaw(1, {}), [[Fraction(1)]])
    joined = amalgam(b3, b2, 2)
    assert joined.nil.dim == 3
    assert check_jacobi(joined.extension()).ok
    rep = semicontinuity_obstruction(joined.extension(), catalog("b(2,C)"))
    assert rep.obstructed
