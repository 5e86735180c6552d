import itertools
import random
from fractions import Fraction

import pytest

from lie_sbe import catalog
from lie_sbe.catalog import catalog_names
from lie_sbe.cohomology import (
    Cochain,
    Differential,
    _carrier,
    _differential_cached,
    _weight0_keys,
    _weights,
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
from lie_sbe.linalg import Subspace, diagonal, independent, mat_mul, rank


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


def _reference_block(law, q, module, weights):
    """_reference_differential restricted to the weight-0 keys of `weights`."""
    full = _reference_differential(law, q, module)
    cols, rows = _weight0_keys(weights, q, module), _weight0_keys(weights, q + 1, module)
    col_at = {key: i for i, key in enumerate(cols)}
    row_at = {key: i for i, key in enumerate(rows)}
    entries = tuple((row_at[full.rows[r]], col_at[full.cols[c]], v) for r, c, v in full.entries
                    if full.rows[r] in row_at and full.cols[c] in col_at)
    return Differential(rows=tuple(rows), cols=tuple(cols), entries=entries)


def test_a_differential_built_after_another_law_of_its_dimension_matches_the_reference():
    # the index keys and offsets of a degree are shared by every law of that
    # dimension (and weights); each law below is built right after another
    _differential_cached.cache_clear()
    b2c = catalog("b(2,C)")
    groups = [[catalog(name) for name in ("b(4,R)", "l_4_3", "s_prime", "s_second")],
              [catalog(name) for name in ("l_6_13", "l_6_6", "b(3,C)")],
              [b2c, catalog("h2c_solvable"), law_in_basis(b2c, diagonal(2, 1, 1, 1))]]
    for laws in groups:
        for module in ("trivial", "adjoint"):
            for q in range(laws[0].dim + 1):
                for law in laws:
                    assert differential(law, q, module) == _reference_differential(law, q, module)
    weights = _weights(b2c)
    assert all(_weights(law) == weights for law in groups[2])
    for module in ("trivial", "adjoint"):
        for q in range(5):
            for law in groups[2]:
                block = _differential_cached(law, q, module, weights)
                assert block == _reference_block(law, q, module, weights)


@pytest.mark.parametrize("name", [n for n in catalog_names() if catalog(n).dim <= 8])
def test_rank_of_the_rows_equals_rank_of_the_columns(name):
    base = catalog(name)
    for law in (base, _unimodular_copy(base, base.dim, 2 * base.dim)):
        weights = _weights(law)
        # the sheared dim-8 adjoint complexes take seconds per degree
        modules = ("trivial", "adjoint") if weights is not None or law.dim <= 6 else ("trivial",)
        for module in modules:
            for q in range(law.dim + 1):
                d = _carrier(law, q, module, weights)
                assert rank(d.sparse_rows()) == rank(d.sparse_cols())


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


# Reference H functions on the full complex: the oracle for the weight-0 block.

def _reference_betti_numbers(law):
    n = law.dim
    ranks = [rank(differential(law, q, "trivial").sparse_rows()) for q in range(n + 1)]
    return [len(cochain_basis(n, q, "trivial")) - ranks[q] - (ranks[q - 1] if q else 0)
            for q in range(n + 1)]


def _reference_adjoint_h_dim(law, q):
    r_prev = rank(differential(law, q - 1, "adjoint").sparse_rows()) if q > 0 else 0
    return (len(cochain_basis(law.dim, q, "adjoint"))
            - rank(differential(law, q, "adjoint").sparse_rows()) - r_prev)


def _reference_cohomology_basis(law, q, module):
    z = cocycle_space(law, q, module)
    b = coboundary_space(law, q, module)
    return [vector_to_cochain(v, law.dim, q, module)
            for v in independent(b.basis(), z.basis())]


def _reference_cup_square_rank(law):
    reps = _reference_cohomology_basis(law, 2, "trivial")
    basis4 = cochain_basis(law.dim, 4, "trivial")
    squares = [cochain_to_vector(cup_product(law, r1, r2), basis4)
               for i, r1 in enumerate(reps) for r2 in reps[i:]]
    return len(independent(coboundary_space(law, 4, "trivial").basis(), squares))


def _two_diagonal_law():
    """heis(3) = <X, Y, Z> extended by A = diag(1, 0, 1) and B = diag(0, 1/2, 1/2)."""
    return LieLaw(5, {(0, 1): {2: 1},
                      (0, 3): {0: -1}, (2, 3): {2: -1},
                      (1, 4): {1: Fraction(-1, 2)}, (2, 4): {2: Fraction(-1, 2)}},
                  basis=("X", "Y", "Z", "A", "B"))


def _r3_fractional():
    return semidirect_rank_one(LieLaw(3, {}), diagonal(1, 1, Fraction(3, 2)))


def _assert_block_matches_reference(law, top_adjoint):
    """Every H function against its full-complex reference on one law."""
    n = law.dim
    assert betti_numbers(law) == _reference_betti_numbers(law)
    assert cup_square_rank(law) == _reference_cup_square_rank(law)
    for q in range(n + 1):
        got = [c.terms for c in cohomology_basis(law, q, "trivial")]
        assert got == [c.terms for c in _reference_cohomology_basis(law, q, "trivial")]
    for q in range(min(n, top_adjoint) + 1):
        assert adjoint_h_dim(law, q) == _reference_adjoint_h_dim(law, q)
        got = [c.terms for c in cohomology_basis(law, q, "adjoint")]
        assert got == [c.terms for c in _reference_cohomology_basis(law, q, "adjoint")]


# Adjoint degrees 2 and 3 of the full dim-8 complexes take seconds each, so
# the catalog oracle stops at H^1_adj there; smaller laws go to H^3_adj.
@pytest.mark.parametrize("name", [n for n in catalog_names() if catalog(n).dim <= 9])
def test_block_path_matches_the_full_complex(name):
    forms = _three_forms(catalog(name))
    given, permuted, _ = forms
    assert (_weights(given) is None) == (_weights(permuted) is None)
    for law in forms:
        _assert_block_matches_reference(law, 3 if law.dim <= 6 else 1)


def test_block_path_is_taken_exactly_on_diagonal_laws():
    block = [n for n in catalog_names() if _weights(catalog(n)) is not None]
    assert block == ["b(2,R)", "b(3,R)", "b(4,R)", "b(2,C)", "b(3,C)", "b(4,C)", "b(2,H)",
                     "h2c_solvable", "aff"]
    # ad(S) of b(3,R) is diag(1, 1, 0); 3/2 scales to 3 with everything doubled
    assert _weights(catalog("b(3,R)")) == ((1,), (1,), (0,))
    assert _weights(_r3_fractional()) == ((2,), (2,), (3,), (0,))
    assert _weights(_two_diagonal_law()) == ((1, 0), (0, 1), (1, 1), (0, 0), (0, 0))
    assert _weights(_unimodular_copy(catalog("b(2,C)"), 4, 8)) is None


def test_block_path_with_fractional_weights_and_two_diagonal_elements():
    for law in (_r3_fractional(), _unimodular_copy(_r3_fractional(), 4, 0), _two_diagonal_law()):
        assert _weights(law) is not None
        _assert_block_matches_reference(law, law.dim)
    assert betti_numbers(_two_diagonal_law()) == [1, 2, 1, 0, 0, 0]


def test_weight0_keys_match_a_filter_over_all_keys():
    rng = random.Random(45)
    for trial in range(60):
        n, dims = rng.randint(1, 7), rng.randint(1, 2)
        weights = tuple(tuple(rng.randint(-3, 3) for _ in range(dims)) for _ in range(n))
        for q in range(-1, n + 2):
            for module in ("trivial", "adjoint"):
                def weight(s, k):
                    value = weights[k] if k is not None else (0,) * dims
                    return tuple(value[j] - sum(weights[i][j] for i in s) for j in range(dims))
                expect = [(s, k) for s, k in cochain_basis(n, q, module)
                          if not any(weight(s, k))]
                assert _weight0_keys(weights, q, module) == expect


def _block(law, q, module):
    return _differential_cached(law, q, module, _weights(law))


@pytest.mark.parametrize("name", ["b(3,R)", "b(2,C)", "b(3,C)", "h2c_solvable", "aff",
                                  "r3_fractional", "two_diagonal"])
def test_block_is_the_restriction_of_the_full_differential(name):
    law = {"r3_fractional": _r3_fractional, "two_diagonal": _two_diagonal_law}.get(
        name, lambda: catalog(name))()
    for law in (law, _unimodular_copy(law, 3, 0)):
        for module in ("trivial", "adjoint"):
            for q in range(law.dim + 1):
                full, block = differential(law, q, module), _block(law, q, module)
                rows = {key: i for i, key in enumerate(full.rows)}
                cols = {key: i for i, key in enumerate(full.cols)}
                inside = {(rows[r], cols[c]) for r in block.rows for c in block.cols}
                col_set = {cols[c] for c in block.cols}
                # d maps the block columns into the block rows, and nowhere else
                assert {(r, c) for r, c, _ in full.entries if c in col_set} <= inside
                restricted = {(rows[block.rows[r]], cols[block.cols[c]]): v
                              for r, c, v in block.entries}
                assert restricted == {(r, c): v for r, c, v in full.entries if (r, c) in inside}
                _assert_canonical(block)


def test_blocks_square_to_zero_and_h1_counts_outer_derivations():
    laws = [form for name in ("b(3,R)", "b(2,C)", "b(3,C)", "b(2,H)", "h2c_solvable")
            for form in _three_forms(catalog(name))[:2]]
    for law in laws + [_r3_fractional(), _two_diagonal_law()]:
        assert derivations(law).outer_dim == adjoint_h_dim(law, 1)
        if law.dim > 6:
            continue
        for module in ("trivial", "adjoint"):
            for q in range(law.dim):
                d1, d2 = _block(law, q, module), _block(law, q + 1, module)
                assert d1.rows == d2.cols
                cols2 = d2.sparse_cols()
                for col in d1.sparse_cols():
                    acc = {}
                    for r1, v1 in col.items():
                        for r2, v2 in cols2[r1].items():
                            acc[r2] = acc.get(r2, 0) + v2 * v1
                    assert not any(acc.values())
