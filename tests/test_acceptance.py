"""Acceptance gate.

One test per criterion clause.  Each reference value is either a published
value or one derived independently of the code under test; a derived value
carries its derivation in a comment next to the assertion, so that it is a
check on the program and not a record of what the program returned.  The
timing bounds (c01 < 1 s, c02 < 10 s, c10 < 30 s, c11 < 5 s) are fixed.
"""

import time
from fractions import Fraction
from itertools import combinations

import pytest

from lie_sbe import catalog, catalog_names
from lie_sbe.buildings import building_cdim, equal_cdim_search, tyson_identities
from lie_sbe.cohomology import (
    Cochain,
    adjoint_h_dim,
    apply_differential,
    betti_numbers,
    classify_cochain,
    coboundary_space,
    cochain_to_vector,
    composition_is_zero,
    cup_square_rank,
)
from lie_sbe.curvature import pansu_consistency
from lie_sbe.deformation import (
    ScalingFamily,
    apply_family,
    contraction_limit,
    cornulier_reduction,
    graded_nilpotent,
    modification,
    semicontinuity_obstruction,
)
from lie_sbe.heintze import amalgam, classify_hyperbolic, heintze_check, table2_report
from lie_sbe.laws import (
    LieLaw,
    basis_change,
    center,
    check_jacobi,
    derivations,
    law_add,
    semidirect_rank_one,
)
from lie_sbe.linalg import (Subspace, det, diagonal, identity, jordan_block, matrix,
                            nullspace, rank, transpose)


# ------------------------------------------------------------- criterion 1 --

def test_c01_jacobi_on_full_catalog():
    names = list(catalog_names())
    assert len(names) >= 14
    t0 = time.perf_counter()
    for name in names:
        assert check_jacobi(catalog(name)).ok, name
    assert time.perf_counter() - t0 < 1.0


# ------------------------------------------------------------- criterion 2 --

@pytest.fixture(scope="module")
def c02():
    t0 = time.perf_counter()
    vals = {
        "h1_complex": tuple(adjoint_h_dim(catalog("b(%d,C)" % n), 1) for n in (2, 3, 4)),
        "h1_real": tuple(adjoint_h_dim(catalog("b(%d,R)" % n), 1) for n in (2, 3, 4)),
        "h1_s_second": adjoint_h_dim(catalog("s_second"), 1),
        "h2_l67": adjoint_h_dim(catalog("l_6_7"), 2),
        "h1_l6": tuple(adjoint_h_dim(catalog("l_6_%d" % i), 1) for i in (7, 6, 12, 11, 13)),
    }
    vals["elapsed"] = time.perf_counter() - t0
    return vals


def test_c02_adjoint_h1_complex_borels(c02):
    # b(n,C) = heis(2n-1) x| R S with ad S = 1 on V and 2 on Z.  A trace
    # argument puts every outer derivation in the degree-0 derivations of
    # heis that commute with ad S; these form csp(2n-2), and ad S spans its
    # centre.  So H^1 = dim sp(2n-2, R) = (n-1)(2n-1) = 3, 10, 21.
    assert c02["h1_complex"] == tuple((n - 1) * (2 * n - 1) for n in (2, 3, 4))


def test_c02_adjoint_h1_real_borels(c02):
    assert c02["h1_real"] == (0, 3, 8)


def test_c02_adjoint_h1_s_second(c02):
    # s'' = R^3 x| R A with ad A = J_2(1) + (2).  Outer derivations are the
    # centralizer of ad A in gl(3) (dimension 2 + 1 = 3) modulo R ad A: 2.
    # Equivalently dim Der = 6 (centralizer plus R^3) and dim ad = 4.
    assert c02["h1_s_second"] == 2


def test_c02_adjoint_h2_l67(c02):
    assert c02["h2_l67"] == 18


def test_c02_adjoint_h1_l6_family(c02):
    assert c02["h1_l6"] == (9, 8, 7, 6, 5)


def test_c02_runtime(c02):
    assert c02["elapsed"] < 10.0


# ------------------------------------------------------------- criterion 3 --

def test_c03_second_betti_numbers():
    assert betti_numbers(catalog("l_6_13"))[2] == 4
    for i in (6, 7, 11, 12):
        assert betti_numbers(catalog("l_6_%d" % i))[2] == 5, i


def test_c03_trivial_h2_l67_contains_the_five_classes():
    law = catalog("l_6_7")
    assert betti_numbers(law)[2] == 5

    def w(i, j, c=1):
        return ((i - 1, j - 1), None), Fraction(c)

    classes = [
        Cochain(6, 2, "trivial", dict([w(1, 5)])),
        Cochain(6, 2, "trivial", dict([w(1, 6)])),
        Cochain(6, 2, "trivial", dict([w(2, 3)])),
        Cochain(6, 2, "trivial", dict([w(2, 5), w(3, 4, -1)])),
        Cochain(6, 2, "trivial", dict([w(2, 6)])),
    ]
    for c in classes:
        assert classify_cochain(law, c).status == "nontrivial_class"
    b2 = coboundary_space(law, 2, "trivial")
    vecs = [cochain_to_vector(c) for c in classes]
    joint = Subspace.span(len(vecs[0]), list(b2.basis()) + vecs)
    assert joint.dim == b2.dim + 5


def _wedge(a, b):
    """Exterior product of forms stored as {increasing index tuple: coefficient}."""
    out = {}
    for s, x in a.items():
        for t, y in b.items():
            if not set(s) & set(t):
                key = tuple(sorted(s + t))
                sign = (-1) ** sum(1 for i in s for j in t if i > j)
                out[key] = out.get(key, 0) + sign * x * y
    return {k: v for k, v in out.items() if v}


def _mc_cup_square_rank(law):
    """dim span{z ^ z' : z, z' in Z^2} in H^4, from the Maurer-Cartan equations.

    d e^k = -sum_{i<j} c_ij^k e^i ^ e^j, extended as an antiderivation.  A
    cocycle wedged with a coboundary is a coboundary, so all of Z^2 may stand
    in for H^2.
    """
    n = law.dim
    de = [{(i, j): -law.bracket_basis(i, j)[k] for i, j in combinations(range(n), 2)
           if law.bracket_basis(i, j)[k]} for k in range(n)]

    def d(form):
        out = {}
        for s, x in form.items():
            for p, k in enumerate(s):
                for key, v in _wedge(_wedge({s[:p]: 1}, de[k]), {s[p + 1:]: 1}).items():
                    out[key] = out.get(key, 0) + (-1) ** p * x * v
        return {k: v for k, v in out.items() if v}

    for q in (1, 2):
        assert all(not d(d({s: 1})) for s in combinations(range(n), q))
    c2, c3, c4 = (list(combinations(range(n), q)) for q in (2, 3, 4))

    def images(src, dst):
        return [[d({s: 1}).get(t, 0) for t in dst] for s in src]

    d2 = transpose(images(c2, c3))
    z2 = [{s: x for s, x in zip(c2, v) if x} for v in nullspace(d2, cols=len(c2))]
    b4 = images(c3, c4)
    squares = [[_wedge(z, w).get(t, 0) for t in c4]
               for i, z in enumerate(z2) for w in z2[i:]]
    return rank(b4 + squares) - rank(b4)


def test_c03_cup_square_ranks():
    # By polarization span{a u a} = span{a_i u a_j}, so the rank of the
    # squaring map H^2 x H^2 -> H^4 is the dimension of the cup-product image,
    # computed again here from the Maurer-Cartan equations alone: 4 each.
    laws = [catalog("l_6_%d" % i) for i in (7, 6, 11, 12)]
    got = tuple(cup_square_rank(law) for law in laws)
    assert got == tuple(_mc_cup_square_rank(law) for law in laws)
    assert got == (4, 4, 4, 4)


# ------------------------------------------------------------- criterion 4 --

def test_c04_degree_one_differential_kills_dual_twists():
    for n in (3, 4):
        law = catalog("b(%d,R)" % n)
        s_idx = n - 1
        for a in range(n - 1):
            c = Cochain(n, 1, "adjoint", {((s_idx,), a): Fraction(1)})
            assert apply_differential(law, c).is_zero(), (n, a + 1)


def test_c04_degree_two_differential_coefficient():
    for n in (3, 4):
        law = catalog("b(%d,R)" % n)
        s_idx = n - 1
        for a in range(n - 1):
            for b in range(n - 1):
                for g in range(b + 1, n - 1):
                    # c = e^b ^ e^g (x) e_a.  Since i_S c = 0, Cartan's formula
                    # gives i_S dc = L_S c, which is c times its ad S-weight:
                    # +1 from e_a, -1 from each of e^b, e^g.  Termwise, the
                    # differential gives +e_a (action of S) - e_a - e_a.
                    weight = 1 - 1 - 1
                    c = Cochain(n, 2, "adjoint", {((b, g), a): Fraction(1)})
                    want = Cochain(n, 3, "adjoint",
                                   {((b, g, s_idx), a): Fraction(weight)})
                    assert apply_differential(law, c) == want, (n, a + 1, b + 1, g + 1)


# d'(X_k^l) on s'', where X_k^l = e^l (x) e_k, rows keyed by (k, l), entries
# keyed by (value, (i, j)), all 1-based.  Each row is the direct evaluation of
# (dc)(x, y) = [x, c(y)] - [y, c(x)] - c([x, y]) on the brackets
# [e_1, e_4] = -e_1, [e_2, e_4] = -e_1 - e_2, [e_3, e_4] = -2 e_3.
S_SECOND_TABLE = {
    (1, 1): {(1, (2, 4)): 1},
    (1, 2): {},
    (1, 3): {(1, (3, 4)): 1},
    (1, 4): {},
    (2, 1): {(1, (1, 4)): -1, (2, (2, 4)): 1},
    (2, 2): {(1, (2, 4)): -1},
    (2, 3): {(1, (3, 4)): -1, (2, (3, 4)): 1},
    (2, 4): {},
    (3, 1): {(3, (1, 4)): -1, (3, (2, 4)): 1},
    (3, 2): {(3, (2, 4)): -1},
    (3, 3): {},
    (3, 4): {},
    (4, 1): {(1, (1, 2)): 1, (2, (1, 2)): 1, (3, (1, 3)): 2, (4, (1, 4)): 1,
             (4, (2, 4)): 1},
    (4, 2): {(4, (2, 4)): 1, (1, (1, 2)): -1, (3, (2, 3)): 2},
    (4, 3): {(4, (3, 4)): 2, (1, (1, 3)): -1, (1, (2, 3)): -1, (2, (2, 3)): -1},
    (4, 4): {(1, (1, 4)): -1, (1, (2, 4)): -1, (2, (2, 4)): -1, (3, (3, 4)): -2},
}


def test_c04_s_second_coboundary_table():
    law = catalog("s_second")
    mismatches = []
    rows = []
    for (k, l), entries in sorted(S_SECOND_TABLE.items()):
        c = Cochain(4, 1, "adjoint", {((l - 1,), k - 1): Fraction(1)})
        got = apply_differential(law, c)
        want = Cochain(4, 2, "adjoint",
                       {((i - 1, j - 1), a - 1): Fraction(v)
                        for (a, (i, j)), v in entries.items()})
        rows.append(cochain_to_vector(want))
        if got != want:
            mismatches.append(((k, l), sorted(want.terms.items()),
                               sorted(got.terms.items())))
    assert not mismatches, "rows differing (key, reference, computed): %s" % mismatches
    # The 1-cocycles of a CE complex are exactly the derivations, so the
    # table's kernel must have dimension dim Der(s'').
    assert len(rows) - rank(rows) == derivations(law).der_dim


# ------------------------------------------------------------- criterion 5 --

def _verified_contractions():
    pairs = []
    sp = catalog("s_prime")
    lam = apply_family(sp, ScalingFamily(w=(0, -1, -1, 0)))
    pairs.append((sp, contraction_limit(lam), catalog("h2c_solvable")))

    g = semidirect_rank_one(LieLaw(3, {}), jordan_block(1, 3))
    lam = apply_family(g, ScalingFamily(w=(-1, -2, -3, 0)))
    pairs.append((g, contraction_limit(lam), catalog("b(4,R)")))

    for name in ("l_6_6", "l_6_13"):
        law = catalog(name)
        res = graded_nilpotent(law)
        pairs.append((law, res.gr, catalog("l_6_7")))
    return pairs


def test_c05_contraction_limits():
    for source, limit, expected in _verified_contractions():
        assert limit == expected, source


def test_c05_no_obstruction_fires_on_verified_contractions():
    for source, limit, _ in _verified_contractions():
        rep = semicontinuity_obstruction(source, limit)
        assert not rep.obstructed, source


# ------------------------------------------------------------- criterion 6 --

def test_c06_amalgam_to_complex_borel_obstructed():
    h1 = heintze_check(LieLaw(2, {}), identity(2))         # b(3,R)
    h2 = heintze_check(LieLaw(1, {}), [[Fraction(1)]])     # b(2,R)
    am = amalgam(h1, h2, 2)
    rep = semicontinuity_obstruction(am.extension(), catalog("b(2,C)"))
    assert rep.obstructed
    row = next(r for r in rep.rows if r.name == "dim_H1_adjoint")
    assert row.violated
    assert row.source >= 4
    assert row.source > 2


def test_c06_l67_to_l66_obstructed():
    rep = semicontinuity_obstruction(catalog("l_6_7"), catalog("l_6_6"))
    assert rep.obstructed
    row = next(r for r in rep.rows if r.name == "dim_H1_adjoint")
    assert row.violated and row.source == 9 and row.target == 8


# ------------------------------------------------------------- criterion 7 --

def _table2_inputs():
    r3 = LieLaw(3, {})
    heis = catalog("heis(3)")
    return [
        (semidirect_rank_one(r3, identity(3)), ("real_hyperbolic", 4)),
        (semidirect_rank_one(r3, matrix([[1, 0, 0], [0, 1, 1], [0, 0, 1]])),
         ("real_hyperbolic", 4)),
        (semidirect_rank_one(r3, jordan_block(1, 3)), ("real_hyperbolic", 4)),
        (semidirect_rank_one(heis, diagonal(1, 1, 2)), ("complex_hyperbolic_plane", 2)),
        (semidirect_rank_one(heis, matrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]])),
         ("complex_hyperbolic_plane", 2)),
        (semidirect_rank_one(r3, diagonal(1, 1, Fraction(3, 2))), ("none", None)),
    ]


def test_c07_classification_verdicts():
    for law, (target, n) in _table2_inputs():
        v = classify_hyperbolic(law)
        assert (v.target, v.n) == (target, n), law


def test_c07_table2_groupings():
    rep = table2_report()
    assert len(rep.blocks) == 8
    assert all(rep.consistent)
    assert rep.dashed == (5, 6)
    assert "unresolved" in rep.dashed_note


def test_c07_verdicts_are_basis_invariant():
    import random

    rng = random.Random(2024)
    for law, expected in _table2_inputs():
        base = classify_hyperbolic(law)
        for _ in range(20):
            while True:
                p = [[Fraction(rng.randint(-2, 2)) for _ in range(law.dim)]
                     for _ in range(law.dim)]
                if det(p) != 0:
                    break
            moved = basis_change(law, p)
            v = classify_hyperbolic(moved)
            assert (v.target, v.n, v.commable_to) == \
                (base.target, base.n, base.commable_to)


# ------------------------------------------------------------- criterion 8 --

def test_c08_rotation_torus_twisting():
    b3 = catalog("b(3,R)")
    j = matrix([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    tau = [[Fraction(0), Fraction(0), Fraction(1)]]
    res = modification(b3, [j], tau)
    assert res.closure and res.twisting and res.jacobi_ok

    omega = Cochain(3, 2, "adjoint",
                    {((i, j2), k): c
                     for (i, j2), row in res.delta.table.items()
                     for k, c in row.items()})
    assert classify_cochain(b3, omega).status != "not_cocycle"
    assert res.law == law_add(b3, res.delta)


# ------------------------------------------------------------- criterion 9 --

def test_c09_cornulier_s_prime():
    res = cornulier_reduction(catalog("s_prime"), [[0, 0, 0, 1]])
    assert res.g_inf == catalog("h2c_solvable")


def test_c09_cornulier_s_second():
    res = cornulier_reduction(catalog("s_second"), [[0, 0, 0, 1]])
    assert res.g_inf == semidirect_rank_one(LieLaw(3, {}), diagonal(1, 1, 2))


def test_c09_cornulier_nilpotent_inputs():
    for name in ("heis(3)", "l_6_6", "l_6_13"):
        g = catalog(name)
        res = cornulier_reduction(g, list(identity(g.dim)))
        assert res.g1 == g
        assert res.g_inf == graded_nilpotent(g).gr


# ------------------------------------------------------------ criterion 10 --

@pytest.fixture(scope="module")
def c10():
    t0 = time.perf_counter()
    runs = {}
    runs[("I", 0.5)] = pansu_consistency([[1, 0], [0, 1]], 0.5,
                                         samples=10000, seed=0)
    for label, alpha in (("J2", [[1, 1], [0, 1]]),
                         ("J3", [[1, 1, 0], [0, 1, 1], [0, 0, 1]])):
        for eps in (1.0, 0.1, 0.01):
            runs[(label, eps)] = pansu_consistency(alpha, eps,
                                                   samples=2000, seed=0)
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


def test_c10_identity_alpha_is_constant_minus_one(c10):
    rep = c10["runs"][("I", 0.5)].curvature
    assert rep.samples == 10000
    assert abs(rep.sec_min + 1.0) < 1e-9
    assert abs(rep.sec_max + 1.0) < 1e-9


def test_c10_jordan_ratios_tighten(c10):
    for label in ("J2", "J3"):
        ratios = [c10["runs"][(label, eps)].curvature.ratio
                  for eps in (1.0, 0.1, 0.01)]
        assert ratios[0] > ratios[1] > ratios[2], label
        assert ratios[2] < 1.1, label


def test_c10_bianchi_residuals(c10):
    for key, rep in c10["runs"].items():
        assert rep.curvature.bianchi_max < 1e-10, key


def test_c10_pansu_consistency_holds(c10):
    for key, rep in c10["runs"].items():
        assert rep.holds, key


def test_c10_runtime(c10):
    assert c10["elapsed"] < 30.0


# ------------------------------------------------------------ criterion 11 --

@pytest.fixture(scope="module")
def c11():
    t0 = time.perf_counter()
    out = {
        "q2": [building_cdim(p, 2) for p in (5, 6, 9, 16, 20)],
        "tyson": tyson_identities(6, 3, 16, 5, 10),
        "search": equal_cdim_search(20, 6, 4),
    }
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_c11_q2_collapses_to_one(c11):
    for v in c11["q2"]:
        assert v.value == 1.0 and v.exact_one, v.p


def test_c11_tyson_identities(c11):
    assert c11["tyson"] == [(1, 2)]


def test_c11_search_hits_agree(c11):
    hits = c11["search"]
    assert hits
    for h in hits:
        assert abs(h.cdim - h.cdim2) <= 1e-9, h


def test_c11_runtime(c11):
    assert c11["elapsed"] < 5.0


# ------------------------------------------------------------ criterion 12 --

def test_c12_cross_module_coherence():
    for name in catalog_names():
        law = catalog(name)
        assert derivations(law).outer_dim == adjoint_h_dim(law, 1), name
        assert center(law).dim == adjoint_h_dim(law, 0), name
        for q in range(law.dim + 1):
            for module in ("trivial", "adjoint"):
                assert composition_is_zero(law, q, module), (name, q, module)
