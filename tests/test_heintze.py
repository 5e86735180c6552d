import json
import random
from fractions import Fraction

import pytest

from lie_sbe import catalog
from lie_sbe.errors import InputError, PreconditionError
from lie_sbe.heintze import (
    amalgam,
    boundary_invariants,
    classify_hyperbolic,
    heintze_check,
    heintze_traits,
    normalize_derivation,
    table2_report,
)
from lie_sbe.laws import LieLaw, basis_change, check_jacobi, semidirect_rank_one
from lie_sbe.linalg import block_diag, det, diagonal, identity, jordan_block, matrix


def _rand_invertible(rng, n):
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if det(m) != 0:
            return m


def test_normalize_derivation_exact_paths():
    nd = normalize_derivation(diagonal(2, 4))
    assert nd.exact and nd.m == Fraction(2)
    assert nd.matrix == tuple(map(tuple, diagonal(1, 2)))

    nd2 = normalize_derivation(jordan_block(3, 2))
    assert nd2.exact and nd2.m == Fraction(3)
    assert nd2.matrix[0][0] == 1 and nd2.matrix[0][1] == Fraction(1, 3)

    # mixed rational spectrum with complex companions above the minimum
    m = matrix([[1, 0, 0], [0, 2, 2], [0, -2, 2]])  # eigenvalues 1, 2 +- 2i
    nd3 = normalize_derivation(m)
    assert nd3.exact and nd3.m == 1


def test_normalize_derivation_numeric_fallback():
    import numpy as np

    # eigenvalues 3 +- sqrt(2): positive, but the minimum is irrational
    m = matrix([[3, 1], [2, 3]])
    nd = normalize_derivation(m)
    assert not nd.exact
    ev = np.linalg.eigvals(np.array([[float(x) for x in row] for row in nd.matrix]))
    assert abs(min(e.real for e in ev) - 1.0) < 1e-9

    # a rotation pair on the minimum cannot be certified rationally either
    rot = normalize_derivation(matrix([[1, 1], [-1, 1]]))
    assert not rot.exact
    assert abs(rot.m - 1.0) < 1e-9


_TIED_FALLBACK = """
import json, sys
from lie_sbe.heintze import normalize_derivation
numpy_before = "numpy" in sys.modules
# I2 + [[1,-2],[2,1]]: the real part 1 is tied, so it is not certified exactly
nd = normalize_derivation([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, -2], [0, 0, 2, 1]])
print(json.dumps({"numpy_before": numpy_before, "m": nd.m,
                  "is_float": type(nd.m) is float, "exact": nd.exact,
                  "entry_types": sorted({type(x).__name__ for row in nd.matrix for x in row})}))
"""


def test_normalize_derivation_imports_numpy_for_its_fallback(fresh_python):
    out = json.loads(fresh_python(_TIED_FALLBACK))
    assert out["numpy_before"] is False
    assert out["is_float"] and not out["exact"]
    assert out["entry_types"] == ["float"]
    assert abs(out["m"] - 1.0) < 1e-6


def test_normalize_derivation_rejects_nonpositive():
    with pytest.raises(PreconditionError):
        normalize_derivation(diagonal(1, -1))
    with pytest.raises(PreconditionError):
        normalize_derivation(matrix([[0, 1], [0, 0]]))


def test_heintze_check_guards():
    heis = catalog("heis(3)")
    with pytest.raises(InputError):
        heintze_check(heis, diagonal(1, 1))  # wrong size
    with pytest.raises(PreconditionError):
        heintze_check(catalog("b(3,R)"), diagonal(1, 1, 1))  # base not nilpotent
    with pytest.raises(PreconditionError):
        heintze_check(heis, diagonal(1, 1, 1))  # not a derivation of heis
    with pytest.raises(PreconditionError):
        heintze_check(LieLaw(2, {}), diagonal(1, -1))  # spectrum leaves the half-plane
    hd = heintze_check(heis, diagonal(1, 1, 2))
    assert hd.spectral.all_roots_positive_real_part
    assert check_jacobi(hd.extension()).ok


def test_boundary_invariants_complex_model():
    hd = heintze_check(catalog("heis(3)"), diagonal(1, 1, 2))
    inv = boundary_invariants(hd)
    assert inv.exact
    assert inv.topdim == 3
    assert inv.cdim == 4
    assert inv.geodim == 4
    assert inv.pansu_bound == Fraction(-9, 16)


def test_boundary_invariants_real_model():
    hd = heintze_check(LieLaw(3, {}), identity(3))
    inv = boundary_invariants(hd)
    assert inv.topdim == 3 and inv.cdim == 3
    assert inv.pansu_bound == -1


def test_traits():
    hd = heintze_check(catalog("heis(3)"), diagonal(1, 1, 2))
    tr = heintze_traits(hd)
    assert tr.purely_real and tr.carnot_type

    hd2 = heintze_check(LieLaw(3, {}), block_diag([diagonal(1), jordan_block(1, 2)]))
    tr2 = heintze_traits(hd2)
    assert tr2.purely_real and not tr2.carnot_type

    rot = heintze_check(LieLaw(3, {}), matrix([[1, 0, 0], [0, 2, 2], [0, -2, 2]]))
    tr3 = heintze_traits(rot)
    assert not tr3.purely_real and not tr3.carnot_type

    # a numeric normalization cannot certify the carnot trait
    irr = heintze_check(LieLaw(2, {}), matrix([[3, 1], [2, 3]]))
    with pytest.raises(PreconditionError):
        heintze_traits(irr)


def test_amalgam_builds_block_action():
    h1 = heintze_check(LieLaw(2, {}), identity(2))
    h2 = heintze_check(LieLaw(1, {}), [[Fraction(1)]])
    am = amalgam(h1, h2, 2)
    assert am.nil.dim == 3
    assert [row[2] for row in am.alpha][2] == 2
    with pytest.raises(InputError):
        amalgam(h1, h2, 0)
    with pytest.raises(InputError):
        amalgam(h1, h2, -1)


def test_classify_real_hyperbolic():
    for alpha in (identity(3), block_diag([diagonal(1), jordan_block(1, 2)]), jordan_block(1, 3)):
        g = semidirect_rank_one(LieLaw(3, {}), alpha)
        verdict = classify_hyperbolic(g)
        assert verdict.target == "real_hyperbolic"
        assert verdict.n == 4


def test_classify_complex_hyperbolic():
    g1 = semidirect_rank_one(catalog("heis(3)"), diagonal(1, 1, 2))
    v1 = classify_hyperbolic(g1)
    assert v1.target == "complex_hyperbolic_plane"
    assert v1.n == 2
    assert v1.commable_to == "SU21"

    j2plus = matrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    g2 = semidirect_rank_one(catalog("heis(3)"), j2plus)
    v2 = classify_hyperbolic(g2)
    assert v2.target == "complex_hyperbolic_plane"
    assert v2.commable_to == "S_prime"

    assert classify_hyperbolic(catalog("h2c_solvable")).target == "complex_hyperbolic_plane"
    sp = classify_hyperbolic(catalog("s_prime"))
    assert sp.target == "complex_hyperbolic_plane" and sp.commable_to == "S_prime"
    # abelian base with the same weights is not the complex model
    assert classify_hyperbolic(catalog("s_second")).target == "none"


def test_classify_none_cases():
    g = semidirect_rank_one(LieLaw(3, {}), diagonal(1, 1, Fraction(3, 2)))
    verdict = classify_hyperbolic(g)
    assert verdict.target == "none"
    assert verdict.evidence

    g2 = semidirect_rank_one(catalog("heis(3)"), diagonal(1, Fraction(3, 2), Fraction(5, 2)))
    assert classify_hyperbolic(g2).target == "none"


def test_classify_requires_completely_solvable():
    # euclidean motions: solvable, but ad_S rotates
    rot = LieLaw(3, {(0, 2): {1: Fraction(1)}, (1, 2): {0: Fraction(-1)}})
    with pytest.raises(PreconditionError):
        classify_hyperbolic(rot)
    # nilpotent laws are allowed and are never hyperbolic
    assert classify_hyperbolic(catalog("heis(3)")).target == "none"


def test_classify_is_basis_invariant():
    rng = random.Random(51)
    inputs = [
        semidirect_rank_one(LieLaw(3, {}), identity(3)),
        semidirect_rank_one(catalog("heis(3)"), diagonal(1, 1, 2)),
        semidirect_rank_one(LieLaw(3, {}), diagonal(1, 1, Fraction(3, 2))),
    ]
    for g in inputs:
        base = classify_hyperbolic(g)
        for _ in range(5):
            p = _rand_invertible(rng, g.dim)
            moved = classify_hyperbolic(basis_change(g, p))
            assert (moved.target, moved.n, moved.commable_to) == (
                base.target, base.n, base.commable_to)


def test_table2_shape():
    rep = table2_report()
    assert len(rep.blocks) == 8
    assert all(rep.consistent)
    assert rep.dashed == (5, 6)
    assert "unresolved" in rep.dashed_note
    labels = [r.label for block in rep.blocks for r in block]
    assert len(labels) == 14
    # dashed pair: the R^3 diagonal block vs the heis block with matching trace family
    assert any("R3" in lab for lab in [r.label for r in rep.blocks[5]])
    assert any("heis" in lab for lab in [r.label for r in rep.blocks[6]])


def test_table2_verdict_pattern():
    rep = table2_report()
    targets = [{(r.verdict.target, r.verdict.n) for r in block} for block in rep.blocks]
    assert targets[1] == {("real_hyperbolic", 3)}
    assert targets[4] == {("real_hyperbolic", 4)}
    assert targets[7] == {("complex_hyperbolic_plane", 2)}
    for i in (0, 2, 3, 5, 6):
        assert targets[i] == {("none", None)}
    # inside the complex block the finer label differs per row
    finer = [r.verdict.commable_to for r in rep.blocks[7]]
    assert sorted(finer) == ["SU21", "S_prime"]


def test_table2_rows_carry_exact_invariants():
    rep = table2_report()
    cdims = [str(r.invariants.cdim) for block in rep.blocks for r in block]
    assert cdims == ["5/2", "2", "2", "4", "4", "7/2", "7/2",
                     "3", "3", "3", "9/2", "5", "4", "4"]
    assert all(r.invariants.exact for block in rep.blocks for r in block)
