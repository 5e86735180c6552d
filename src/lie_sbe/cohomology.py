"""Chevalley-Eilenberg cochain complexes with trivial or adjoint coefficients.

The differential is

  (dw)(x_0..x_q) = sum_i (-1)^i [x_i, w(.. x_i ..)]
                 + sum_{i<j} (-1)^{i+j} w([x_i,x_j], .. x_i .. x_j ..)

with the action term absent for trivial coefficients.  A basis q-cochain is
a pair (S, k): S a strictly increasing index tuple of length q, and k the
value index (None for trivial coefficients).  Basis order is lexicographic
in (S, k); vectors over that order are what the matrices act on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, PreconditionError
from .laws import LieLaw
from .linalg import Subspace, rank, solve, transpose, zero_vec
from . import linalg


@dataclass(frozen=True)
class Cochain:
    dim: int
    degree: int
    module: str                            # "trivial" | "adjoint"
    terms: dict                            # (indices, k or None) -> Fraction

    def __post_init__(self):
        if self.module not in ("trivial", "adjoint"):
            raise InputError("module must be 'trivial' or 'adjoint'")
        for (s, k) in self.terms:
            if len(s) != self.degree or list(s) != sorted(set(s)):
                raise InputError("bad index tuple %r for degree %d" % (s, self.degree))
            if (k is None) != (self.module == "trivial"):
                raise InputError("value index must be present exactly for adjoint cochains")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.terms.values())

    def scaled(self, c) -> "Cochain":
        c = Fraction(c)
        return Cochain(self.dim, self.degree, self.module,
                       {key: c * v for key, v in self.terms.items() if c * v != 0})

    def plus(self, other: "Cochain") -> "Cochain":
        if (self.dim, self.degree, self.module) != (other.dim, other.degree, other.module):
            raise InputError("cochains are not of the same type")
        terms = dict(self.terms)
        for key, v in other.terms.items():
            terms[key] = terms.get(key, Fraction(0)) + v
        return Cochain(self.dim, self.degree, self.module,
                       {k: v for k, v in terms.items() if v != 0})


def cochain_basis(n: int, q: int, module: str) -> list:
    if q < 0 or q > n:
        return []
    subsets = list(itertools.combinations(range(n), q))
    if module == "trivial":
        return [(s, None) for s in subsets]
    return [(s, k) for s in subsets for k in range(n)]


def cochain_to_vector(c: Cochain, basis=None) -> list:
    basis = basis or cochain_basis(c.dim, c.degree, c.module)
    pos = {key: i for i, key in enumerate(basis)}
    v = zero_vec(len(basis))
    for key, val in c.terms.items():
        if key not in pos:
            raise InputError("cochain term %r is not a basis key" % (key,))
        v[pos[key]] = val
    return v


def vector_to_cochain(v, n: int, q: int, module: str) -> Cochain:
    basis = cochain_basis(n, q, module)
    terms = {key: x for key, x in zip(basis, v) if x != 0}
    return Cochain(n, q, module, terms)


@dataclass(frozen=True)
class Differential:
    rows: tuple          # basis keys of C^{q+1}
    cols: tuple          # basis keys of C^q
    entries: tuple       # sparse ((row, col, value), ...)

    def dense(self):
        mat = [[Fraction(0)] * len(self.cols) for _ in self.rows]
        for r, c, v in self.entries:
            mat[r][c] = v
        return mat

    def by_column(self):
        cols = {}
        for r, c, v in self.entries:
            cols.setdefault(c, []).append((r, v))
        return cols

    def apply(self, vec):
        out = zero_vec(len(self.rows))
        for r, c, v in self.entries:
            if vec[c] != 0:
                out[r] += v * vec[c]
        return out


def _build_differential(law: LieLaw, q: int, module: str) -> Differential:
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


def composition_is_zero(law: LieLaw, q: int, module: str) -> bool:
    """Check d_{q+1} after d_q vanishes, column by column on the sparse data."""
    d1 = differential(law, q, module)
    d2 = differential(law, q + 1, module)
    d2_cols = d2.by_column()
    by_col = d1.by_column()
    for c, items in by_col.items():
        acc = {}
        for r1, v1 in items:
            for r2, v2 in d2_cols.get(r1, ()):
                acc[r2] = acc.get(r2, Fraction(0)) + v2 * v1
        if any(v != 0 for v in acc.values()):
            return False
    return True


@lru_cache(maxsize=256)
def _differential_cached(law: LieLaw, q: int, module: str) -> Differential:
    return _build_differential(law, q, module)


def differential(law: LieLaw, q: int, module: str = "trivial") -> Differential:
    if module not in ("trivial", "adjoint"):
        raise InputError("module must be 'trivial' or 'adjoint'")
    return _differential_cached(law, q, module)


def apply_differential(law: LieLaw, c: Cochain) -> Cochain:
    d = differential(law, c.degree, c.module)
    v = cochain_to_vector(c, list(d.cols))
    out = d.apply(v) if d.rows else []
    terms = {key: x for key, x in zip(d.rows, out) if x != 0}
    return Cochain(c.dim, c.degree + 1, c.module, terms)


def _cochain_dim(n: int, q: int, module: str) -> int:
    """len(cochain_basis(n, q, module)), without listing the basis."""
    if q < 0:
        return 0
    return math.comb(n, q) * (n if module == "adjoint" else 1)


def betti_numbers(law: LieLaw) -> list:
    """b_0..b_n for trivial coefficients."""
    n = law.dim
    ranks = [rank(differential(law, q, "trivial").dense()) for q in range(n + 1)]
    out = []
    for q in range(n + 1):
        dim_cq = math.comb(n, q)
        prev = ranks[q - 1] if q > 0 else 0
        out.append(dim_cq - ranks[q] - prev)
    return out


def adjoint_h_dim(law: LieLaw, q: int) -> int:
    dim_cq = _cochain_dim(law.dim, q, "adjoint")
    r_q = rank(differential(law, q, "adjoint").dense())
    r_prev = rank(differential(law, q - 1, "adjoint").dense()) if q > 0 else 0
    return dim_cq - r_q - r_prev


@dataclass(frozen=True)
class CocycleVerdict:
    status: str                    # "not_cocycle" | "coboundary" | "nontrivial_class"
    residual: Cochain | None       # d(c) when not a cocycle
    preimage: Cochain | None       # b with d(b) = c when a coboundary


def classify_cochain(law: LieLaw, c: Cochain) -> CocycleVerdict:
    dc = apply_differential(law, c)
    if not dc.is_zero():
        return CocycleVerdict("not_cocycle", dc, None)
    if c.degree == 0:
        return CocycleVerdict("nontrivial_class" if not c.is_zero() else "coboundary",
                              None, None)
    d_prev = differential(law, c.degree - 1, c.module)
    target = cochain_to_vector(c, list(d_prev.rows))
    sol = solve(d_prev.dense(), target)
    if sol is None:
        return CocycleVerdict("nontrivial_class", None, None)
    pre = vector_to_cochain(sol, c.dim, c.degree - 1, c.module)
    return CocycleVerdict("coboundary", None, pre)


def coboundary_space(law: LieLaw, q: int, module: str) -> Subspace:
    """Image of d_{q-1} inside C^q, over the C^q basis order."""
    nq = _cochain_dim(law.dim, q, module)
    if q == 0:
        return Subspace.zero(nq)
    d_prev = differential(law, q - 1, module)
    return Subspace.span(nq, transpose(d_prev.dense()) if d_prev.cols else [])


def cocycle_space(law: LieLaw, q: int, module: str) -> Subspace:
    nq = _cochain_dim(law.dim, q, module)
    d = differential(law, q, module)
    if not d.rows:
        return Subspace.full(nq)
    return Subspace.span(nq, linalg.nullspace(d.dense(), cols=nq))


def cohomology_basis(law: LieLaw, q: int, module: str = "trivial") -> list:
    """Cocycle representatives of a basis of H^q."""
    z = cocycle_space(law, q, module)
    b = coboundary_space(law, q, module)
    reps = []
    acc = b
    for v in z.basis():
        if not acc.contains(v):
            reps.append(vector_to_cochain(v, law.dim, q, module))
            acc = Subspace.span(acc.ambient, acc.basis() + [v])
    return reps


def wedge(a: Cochain, b: Cochain) -> Cochain:
    """Exterior product of trivial-coefficient cochains."""
    if a.module != "trivial" or b.module != "trivial":
        raise InputError("wedge is defined here for trivial coefficients only")
    if a.dim != b.dim:
        raise InputError("cochains live on different spaces")
    terms = {}
    for (s1, _), c1 in a.terms.items():
        for (s2, _), c2 in b.terms.items():
            if set(s1) & set(s2):
                continue
            merged = tuple(sorted(s1 + s2))
            inv = sum(1 for x in s1 for y in s2 if x > y)
            sign = -1 if inv % 2 else 1
            key = (merged, None)
            terms[key] = terms.get(key, Fraction(0)) + sign * c1 * c2
    terms = {k: v for k, v in terms.items() if v != 0}
    return Cochain(a.dim, a.degree + b.degree, "trivial", terms)


def cup_product(law: LieLaw, a: Cochain, b: Cochain) -> Cochain:
    """Wedge of two cocycles; the result represents the cup product class."""
    for c in (a, b):
        if not apply_differential(law, c).is_zero():
            raise PreconditionError("cup product inputs must be cocycles")
    return wedge(a, b)


def cup_square_rank(law: LieLaw) -> int:
    """Rank of the image of the squaring map H^2 x H^2 -> H^4."""
    reps = cohomology_basis(law, 2, "trivial")
    b4 = coboundary_space(law, 4, "trivial")
    base = b4.basis()
    base_rank = rank(base) if base else 0
    vecs = list(base)
    basis4 = cochain_basis(law.dim, 4, "trivial")
    for i, r1 in enumerate(reps):
        for r2 in reps[i:]:
            prod = cup_product(law, r1, r2)
            vecs.append(cochain_to_vector(prod, basis4))
    if not vecs:
        return 0
    return rank(vecs) - base_rank


@dataclass(frozen=True)
class WeightReport:
    homogeneous: bool
    weight: int | None
    components: dict        # weight -> Cochain, in the adapted basis


def _check_grading(law: LieLaw, grading, weights) -> None:
    n = law.dim
    total = Subspace.zero(n)
    if sum(v.dim for v in grading) != n:
        raise PreconditionError("grading blocks do not sum to the full dimension")
    for v in grading:
        total = total.add(v)
    if total.dim != n:
        raise PreconditionError("grading blocks are not independent")
    wmap = dict(zip(weights, grading))
    from .laws import bracket_subspaces

    for wi, vi in zip(weights, grading):
        for wj, vj in zip(weights, grading):
            br = bracket_subspaces(law, vi, vj)
            target = wmap.get(wi + wj)
            ok = br.dim == 0 if target is None else target.contains_subspace(br)
            if not ok:
                raise PreconditionError(
                    "grading is not compatible: [V_%s, V_%s] leaves V_%s"
                    % (wi, wj, wi + wj)
                )


def class_weight(law: LieLaw, grading, c: Cochain, weights=None) -> WeightReport:
    """Weight decomposition of a cochain under a grading of the algebra.

    `grading` lists the graded blocks as subspaces; `weights` gives their
    weights (default 1, 2, ...).  A term picks up the weight of its value
    minus the weights of its covectors; trivial values weigh 0.
    """
    n = law.dim
    weights = list(weights) if weights is not None else list(range(1, len(grading) + 1))
    if len(weights) != len(grading):
        raise InputError("one weight per grading block")
    _check_grading(law, grading, weights)
    adapted = []
    coord_weight = []
    for w, v in zip(weights, grading):
        for vec in v.basis():
            adapted.append(vec)
            coord_weight.append(w)
    a_cols = transpose(adapted)             # columns are the adapted vectors
    a_inv = linalg.inverse(a_cols)
    comp_terms = {}
    idx_range = range(n)
    for (s, k), coeff in c.terms.items():
        for i_tuple in itertools.combinations(idx_range, len(s)):
            minor = [[a_cols[si][ii] for ii in i_tuple] for si in s]
            dm = linalg.det(minor) if s else Fraction(1)
            if dm == 0:
                continue
            if c.module == "adjoint":
                for m in idx_range:
                    cv = a_inv[m][k]
                    if cv == 0:
                        continue
                    wt = coord_weight[m] - sum(coord_weight[ii] for ii in i_tuple)
                    row = comp_terms.setdefault(wt, {})
                    key = (i_tuple, m)
                    row[key] = row.get(key, Fraction(0)) + coeff * dm * cv
            else:
                wt = -sum(coord_weight[ii] for ii in i_tuple)
                row = comp_terms.setdefault(wt, {})
                key = (i_tuple, None)
                row[key] = row.get(key, Fraction(0)) + coeff * dm
    components = {}
    for wt, terms in comp_terms.items():
        terms = {kk: v for kk, v in terms.items() if v != 0}
        if terms:
            components[wt] = Cochain(n, c.degree, c.module, terms)
    if len(components) == 1:
        (wt,) = components
        return WeightReport(True, wt, components)
    return WeightReport(False, None, components)
