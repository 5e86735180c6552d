"""Lie algebra laws as sparse rational structure constant tables.

A law on Q^n is stored as a map (i, j) -> {k: c} with 0 <= i < j < n and
nonzero c, meaning [e_i, e_j] = sum_k c * e_k.  Indices are 0-based
internally; the JSON interchange layer and printed reports are 1-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import polynomials as poly
from .errors import InputError, PreconditionError
from .linalg import (
    Mat,
    Subspace,
    Vec,
    char_poly,
    coordinates,
    extend_to_basis,
    frac,
    identity,
    inverse,
    is_zero_vec,
    mat_vec,
    matrix,
    min_poly,
    nullspace,
    rank,
    trace,
    transpose,
    vec_add,
    vector,
    zero_vec,
)


def _default_basis(n: int) -> tuple:
    return tuple("X%d" % (i + 1) for i in range(n))


class LieLaw:
    """An anticommutative bilinear law on Q^n (Jacobi not implied)."""

    __slots__ = ("dim", "basis", "table")

    def __init__(self, dim: int, table, basis=None):
        self.dim = int(dim)
        if self.dim < 1:
            raise InputError("dimension must be positive")
        self.basis = tuple(basis) if basis is not None else _default_basis(self.dim)
        if len(self.basis) != self.dim:
            raise InputError("basis has %d labels for dimension %d" % (len(self.basis), self.dim))
        clean = {}
        for (i, j), targets in table.items():
            if not (0 <= i < j < self.dim):
                raise InputError(
                    "bracket indices (%d,%d) must satisfy 1 <= i < j <= %d"
                    % (i + 1, j + 1, self.dim)
                )
            row = {}
            for k, c in targets.items():
                if not 0 <= k < self.dim:
                    raise InputError("target index %d out of range 1..%d" % (k + 1, self.dim))
                c = frac(c)
                if c != 0:
                    row[int(k)] = c
            if row:
                clean[(int(i), int(j))] = row
        self.table = clean

    # -- identity is the structure constants, not the labels --------------

    def _key(self):
        return (self.dim, tuple(sorted(
            (i, j, k, self.table[(i, j)][k])
            for (i, j) in self.table for k in self.table[(i, j)]
        )))

    def __eq__(self, other):
        return isinstance(other, LieLaw) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        terms = []
        for (i, j) in sorted(self.table):
            rhs = " + ".join(
                "%s*%s" % (c, self.basis[k]) if c != 1 else self.basis[k]
                for k, c in sorted(self.table[(i, j)].items())
            )
            terms.append("[%s,%s]=%s" % (self.basis[i], self.basis[j], rhs))
        return "LieLaw(dim=%d, %s)" % (self.dim, "; ".join(terms) or "abelian")

    # -- evaluation --------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> Vec:
        """[e_i, e_j] as a dense vector; any index order."""
        out = zero_vec(self.dim)
        if i == j:
            return out
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        for k, c in self.table.get((i, j), {}).items():
            out[k] = sign * c
        return out

    def bracket(self, x, y) -> Vec:
        x, y = vector(x), vector(y)
        out = zero_vec(self.dim)
        for (i, j), targets in self.table.items():
            coef = x[i] * y[j] - x[j] * y[i]
            if coef == 0:
                continue
            for k, c in targets.items():
                out[k] += coef * c
        return out

    def ad(self, v) -> Mat:
        """Matrix of x -> [v, x] in the standard basis."""
        v = vector(v)
        return transpose([self.bracket(v, e) for e in identity(self.dim)])

    def ad_basis(self, i: int) -> Mat:
        cols = [self.bracket_basis(i, j) for j in range(self.dim)]
        return transpose(cols)


@dataclass(frozen=True)
class JacobiReport:
    ok: bool
    triple: tuple | None = None  # 1-based indices of the first failing triple
    residual: tuple | None = None

    def __bool__(self):
        return self.ok


def check_jacobi(law: LieLaw) -> JacobiReport:
    e = identity(law.dim)
    for i, j, k in itertools.combinations(range(law.dim), 3):
        r = law.bracket(law.bracket_basis(i, j), e[k])
        r = vec_add(r, law.bracket(law.bracket_basis(j, k), e[i]))
        r = vec_add(r, law.bracket(law.bracket_basis(k, i), e[j]))
        if not is_zero_vec(r):
            return JacobiReport(False, (i + 1, j + 1, k + 1), tuple(r))
    return JacobiReport(True)


def law_from_table(dim: int, entries, basis=None) -> LieLaw:
    """Build a law from a 1-based table {(i, j): {k: c}}."""
    table = {}
    for (i, j), targets in entries.items():
        table[(i - 1, j - 1)] = {k - 1: frac(c) for k, c in targets.items()}
    return LieLaw(dim, table, basis=basis)


def law_add(a: LieLaw, b: LieLaw, basis=None) -> LieLaw:
    """Pointwise sum of two bilinear laws on the same space."""
    if a.dim != b.dim:
        raise InputError("laws live on different dimensions")
    table = {}
    for src in (a.table, b.table):
        for ij, targets in src.items():
            row = table.setdefault(ij, {})
            for k, c in targets.items():
                row[k] = row.get(k, Fraction(0)) + c
    return LieLaw(a.dim, table, basis=basis or a.basis)


def law_scale(c, a: LieLaw) -> LieLaw:
    c = frac(c)
    table = {ij: {k: c * v for k, v in targets.items()} for ij, targets in a.table.items()}
    return LieLaw(a.dim, table, basis=a.basis)


def basis_change(law: LieLaw, p: Mat, basis=None) -> LieLaw:
    """The transported law  (P, lambda) -> P lambda(P^-1 x, P^-1 y)."""
    n = law.dim
    pinv = inverse(p)
    cols_pinv = transpose(pinv)
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = law.bracket(cols_pinv[i], cols_pinv[j])
            w = mat_vec(p, w)
            row = {k: c for k, c in enumerate(w) if c != 0}
            if row:
                table[(i, j)] = row
    return LieLaw(n, table, basis=basis)


def law_in_basis(law: LieLaw, cols: Mat, basis=None) -> LieLaw:
    """Structure constants with respect to the new basis given by columns."""
    return basis_change(law, inverse(matrix(cols)), basis=basis)


def bracket_subspaces(law: LieLaw, a: Subspace, b: Subspace) -> Subspace:
    vecs = [law.bracket(u, v) for u in a.basis() for v in b.basis()]
    return Subspace.span(law.dim, vecs)


def lower_central_series(law: LieLaw) -> list:
    """C^1 = g, C^{k+1} = [g, C^k]; returned up to (and including) the stable term."""
    full = Subspace.full(law.dim)
    series = [full]
    while True:
        nxt = bracket_subspaces(law, full, series[-1])
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
    return series


def derived_algebra(law: LieLaw) -> Subspace:
    """[g, g]."""
    full = Subspace.full(law.dim)
    return bracket_subspaces(law, full, full)


def derived_series(law: LieLaw) -> list:
    full = Subspace.full(law.dim)
    series = [full]
    while True:
        nxt = bracket_subspaces(law, series[-1], series[-1])
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
    return series


def is_nilpotent(law: LieLaw) -> bool:
    return lower_central_series(law)[-1].dim == 0


def is_solvable(law: LieLaw) -> bool:
    return derived_series(law)[-1].dim == 0


def exponential_radical(law: LieLaw) -> Subspace:
    """The stable term of the lower central series."""
    return lower_central_series(law)[-1]


def center(law: LieLaw) -> Subspace:
    stacked = []
    for i in range(law.dim):
        stacked.extend(law.ad_basis(i))
    if not stacked:
        return Subspace.full(law.dim)
    return Subspace.span(law.dim, nullspace(stacked, cols=law.dim))


def is_completely_solvable(law: LieLaw) -> bool:
    """Solvable with every ad e_i having an all-real spectrum."""
    if not is_solvable(law):
        return False
    for i in range(law.dim):
        if not poly.all_roots_real(char_poly(law.ad_basis(i))):
            return False
    return True


@dataclass(frozen=True)
class DerivationData:
    der_basis: tuple       # matrices spanning Der(g)
    inner_basis: tuple     # ad(e_i) for e_i spanning g mod center
    der_dim: int
    inner_dim: int
    outer_dim: int


def derivations(law: LieLaw) -> DerivationData:
    """Solve D[x,y] = [Dx,y] + [x,Dy] on basis brackets.

    Unknowns are the n^2 entries of D, row-major.
    """
    n = law.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            cij = law.bracket_basis(i, j)
            for m in range(n):
                row = [Fraction(0)] * (n * n)
                # D applied to [e_i, e_j], coordinate m
                for k, c in enumerate(cij):
                    if c != 0:
                        row[m * n + k] += c
                # -[D e_i, e_j]_m: D e_i = sum_r D[r][i] e_r
                for r in range(n):
                    c1 = law.bracket_basis(r, j)[m]
                    if c1 != 0:
                        row[r * n + i] -= c1
                    c2 = law.bracket_basis(i, r)[m]
                    if c2 != 0:
                        row[r * n + j] -= c2
                if any(x != 0 for x in row):
                    rows.append(row)
    kernel = nullspace(rows, cols=n * n)
    ders = tuple(
        tuple(tuple(v[r * n + c] for c in range(n)) for r in range(n)) for v in kernel
    )
    inner = [law.ad_basis(i) for i in range(n)]
    inner_flat = [[x for row in m for x in row] for m in inner]
    inner_dim = rank(inner_flat) if inner_flat else 0
    der_dim = len(ders)
    return DerivationData(
        der_basis=ders,
        inner_basis=tuple(tuple(tuple(r) for r in m) for m in inner),
        der_dim=der_dim,
        inner_dim=inner_dim,
        outer_dim=der_dim - inner_dim,
    )


def is_derivation(law: LieLaw, d: Mat) -> bool:
    n = law.dim
    e = identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            lhs = mat_vec(d, law.bracket_basis(i, j))
            cols = transpose(d)
            rhs = vec_add(law.bracket(cols[i], e[j]), law.bracket(e[i], cols[j]))
            if lhs != rhs:
                return False
    return True


def semidirect_rank_one(n_law: LieLaw, alpha: Mat, label: str = "A") -> LieLaw:
    """N x| R A with [A, x] = alpha x.  alpha must be a derivation of N."""
    if not is_derivation(n_law, matrix(alpha)):
        raise PreconditionError("alpha is not a derivation of the given law")
    n = n_law.dim
    table = {ij: dict(t) for ij, t in n_law.table.items()}
    for i in range(n):
        col = [frac(alpha[k][i]) for k in range(n)]
        row = {k: -c for k, c in enumerate(col) if c != 0}
        if row:
            table[(i, n)] = row
    return LieLaw(n + 1, table, basis=tuple(n_law.basis) + (label,))


def direct_sum(a: LieLaw, b: LieLaw) -> LieLaw:
    table = {ij: dict(t) for ij, t in a.table.items()}
    off = a.dim
    for (i, j), t in b.table.items():
        table[(i + off, j + off)] = {k + off: c for k, c in t.items()}
    return LieLaw(a.dim + b.dim, table, basis=tuple(a.basis) + tuple(b.basis))


def subalgebra_law(law: LieLaw, vectors, basis=None):
    """Law induced on the span of the given vectors.

    Returns (sub_law, columns); raises if the span is not closed under brackets.
    """
    vecs = [vector(v) for v in vectors]
    sub = Subspace.span(law.dim, vecs)
    if sub.dim != len(vecs):
        raise InputError("subalgebra basis vectors are dependent")
    pairs = list(itertools.combinations(range(len(vecs)), 2))
    images = coordinates(vecs, [law.bracket(vecs[a], vecs[b]) for a, b in pairs])
    table = {}
    for (a, b), coords in zip(pairs, images):
        if coords is None:
            raise PreconditionError(
                "span is not closed: [v%d, v%d] leaves the subspace" % (a + 1, b + 1)
            )
        row = {k: c for k, c in enumerate(coords) if c != 0}
        if row:
            table[(a, b)] = row
    return LieLaw(len(vecs), table, basis=basis), vecs


def is_ideal(law: LieLaw, sub: Subspace) -> bool:
    return sub.contains_subspace(bracket_subspaces(law, Subspace.full(law.dim), sub))


def quotient_law(law: LieLaw, ideal: Subspace, basis=None):
    """Law on g / ideal, using standard coordinate vectors as the complement.

    Returns (quot_law, complement_vectors).
    """
    if not is_ideal(law, ideal):
        raise PreconditionError("subspace is not an ideal")
    comp = extend_to_basis(ideal.basis(), law.dim)
    m = len(comp)
    d0 = ideal.dim
    pairs = list(itertools.combinations(range(m), 2))
    images = coordinates(ideal.basis() + comp, [law.bracket(comp[a], comp[b]) for a, b in pairs])
    table = {}
    for (a, b), coords in zip(pairs, images):
        row = {k - d0: c for k, c in enumerate(coords) if c != 0 and k >= d0}
        if row:
            table[(a, b)] = row
    return LieLaw(m, table, basis=basis) if m else None, comp


@dataclass(frozen=True)
class SpectralSummary:
    char: tuple
    min: tuple
    rational_roots: tuple          # ((root, multiplicity), ...)
    real_root_count: int           # distinct real roots
    splits_over_q: bool
    single_real_eigenvalue: Fraction | None
    is_unipotent_after_scaling: bool
    all_roots_positive_real_part: bool


def spectral_summary(m: Mat) -> SpectralSummary:
    m = matrix(m)
    n = len(m)
    cp = char_poly(m)
    roots = poly.rational_roots(cp)
    single = None
    lam = trace(m) / n
    if poly.evaluate(cp, lam) == 0:
        powd = [Fraction(1)]
        for _ in range(n):
            powd = poly.mul(powd, [-lam, Fraction(1)])
        if powd == cp:
            single = lam
    return SpectralSummary(
        char=tuple(cp),
        min=tuple(min_poly(m)),
        rational_roots=tuple(roots),
        real_root_count=poly.count_real_roots(cp),
        splits_over_q=sum(mult for _, mult in roots) == n,
        single_real_eigenvalue=single,
        is_unipotent_after_scaling=single is not None and single != 0,
        all_roots_positive_real_part=poly.all_roots_positive_real_part(cp),
    )


@dataclass(frozen=True)
class AlgebraFingerprint:
    dim: int
    lower_central_dims: tuple
    derived_dims: tuple
    center_dim: int
    nilpotent: bool
    solvable: bool
    betti: tuple
    der_dim: int
    inner_dim: int
    outer_dim: int


def fingerprint(law: LieLaw) -> AlgebraFingerprint:
    rep = check_jacobi(law)
    if not rep.ok:
        raise PreconditionError("law fails Jacobi at triple %s" % (rep.triple,))
    from .cohomology import betti_numbers  # local import: cohomology builds on laws

    lc = tuple(s.dim for s in lower_central_series(law))
    ds = tuple(s.dim for s in derived_series(law))
    der = derivations(law)
    return AlgebraFingerprint(
        dim=law.dim,
        lower_central_dims=lc,
        derived_dims=ds,
        center_dim=center(law).dim,
        nilpotent=lc[-1] == 0,
        solvable=ds[-1] == 0,
        betti=tuple(betti_numbers(law)),
        der_dim=der.der_dim,
        inner_dim=der.inner_dim,
        outer_dim=der.outer_dim,
    )
