"""Exact linear algebra over the rationals.

Matrices are lists of rows, vectors are flat lists; entries are Fraction.
Everything here is exact; no floating point.  All elimination (rank, rref,
det, independent) runs through one sparse incremental echelon, so the row
arguments of those functions may also be {column: value} dicts.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

Vec = list
Mat = list

# Fraction is immutable, so every zero cell can share this one object.
_ZERO = Fraction(0)


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("refusing to coerce float %r to Fraction" % (x,))
    return Fraction(x)


def vector(entries) -> Vec:
    return [frac(x) for x in entries]


def matrix(rows) -> Mat:
    return [vector(r) for r in rows]


def zeros(r: int, c: int) -> Mat:
    return [[Fraction(0)] * c for _ in range(r)]


def zero_vec(n: int) -> Vec:
    return [Fraction(0)] * n


def identity(n: int) -> Mat:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def transpose(m: Mat) -> Mat:
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a: Mat, v: Vec) -> Vec:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def mat_add(a: Mat, b: Mat) -> Mat:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Mat, b: Mat) -> Mat:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a: Mat) -> Mat:
    c = frac(c)
    return [[c * x for x in row] for row in a]


def vec_add(u: Vec, v: Vec) -> Vec:
    return [x + y for x, y in zip(u, v)]


def vec_scale(c, v: Vec) -> Vec:
    c = frac(c)
    return [c * x for x in v]


def dot(u: Vec, v: Vec) -> Fraction:
    return sum(x * y for x, y in zip(u, v))


def is_zero_vec(v: Vec) -> bool:
    return all(x == 0 for x in v)


def trace(m: Mat) -> Fraction:
    return sum(m[i][i] for i in range(len(m)))


def mat_pow(m: Mat, k: int) -> Mat:
    out = identity(len(m))
    for _ in range(k):
        out = mat_mul(out, m)
    return out


def _sparse(row) -> dict:
    """A dense row or a {column: value} dict, as a new dict of its nonzeros."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {j: frac(x) for j, x in items if x != 0}


def _subtract(row: dict, f, other: dict) -> None:
    """row -= f * other, in place, dropping the entries that cancel."""
    for j, x in other.items():
        y = row.get(j, 0) - f * x
        if y:
            row[j] = y
        else:
            row.pop(j, None)


def _insert(basis: dict, row: dict):
    """Reduce row (consumed) by basis = {pivot column: row scaled to 1 there}.

    A nonzero remainder joins basis at its first column; the return value is
    that column and the remainder's value there, or None when row lies in the
    span.  A basis row is zero left of its pivot and at every pivot older
    than it, so eliminating in increasing column order only fills in columns
    to the right of the one just cleared.
    """
    hits = [c for c in row if c in basis]
    heapq.heapify(hits)
    while hits:
        c = heapq.heappop(hits)
        if c in row:
            other = basis[c]
            _subtract(row, row[c], other)
            for j in other:
                if j in row and j in basis:
                    heapq.heappush(hits, j)
    if not row:
        return None
    p = min(row)
    v = row[p]
    basis[p] = {j: x / v for j, x in row.items()}
    return p, v


def _echelon(rows) -> dict:
    basis = {}
    for row in rows:
        _insert(basis, _sparse(row))
    return basis


def _width(m, cols) -> int:
    return cols if cols is not None else (len(m[0]) if m else 0)


def rank(m) -> int:
    """Rank of a list of rows, dense or {column: value} dicts."""
    return len(_echelon(m))


def independent(base, candidates) -> list:
    """The candidates outside the span of base and of the candidates kept
    before them, in order."""
    basis = _echelon(base)
    return [v for v in candidates if _insert(basis, _sparse(v)) is not None]


def rref(m, cols: int | None = None):
    """Reduced row echelon form. Returns (rows, pivot_columns).

    Zero rows are dropped; pivot entries are 1.  Rows are dense lists or
    {column: value} dicts, which need the width `cols`; the result is dense.
    """
    n = _width(m, cols)
    basis = _echelon(m)
    pivots = sorted(basis)
    # back-substitute from the last pivot: the rows of later pivots are
    # already reduced, so each one clears its pivot without filling in another
    for p in reversed(pivots):
        row = basis[p]
        for q in [c for c in row if c != p and c in basis]:
            _subtract(row, row[q], basis[q])
    return [[basis[p].get(j, _ZERO) for j in range(n)] for p in pivots], pivots


def nullspace(m, cols: int | None = None) -> list:
    """Basis of the right kernel, one vector per free column of the RREF."""
    n = _width(m, cols)
    r, pivots = rref(m, cols=n)
    pivset = set(pivots)
    basis = []
    for free in range(n):
        if free in pivset:
            continue
        v = zero_vec(n)
        v[free] = Fraction(1)
        for row_i, pc in enumerate(pivots):
            v[pc] = -r[row_i][free]
        basis.append(v)
    return basis


def solve(a, b: Vec, cols: int | None = None):
    """One solution of a x = b, or None if inconsistent; rows as for rref."""
    n = _width(a, cols)
    aug = []
    for row, bb in zip(a, b):
        row = _sparse(row)
        if bb != 0:
            row[n] = bb
        aug.append(row)
    r, pivots = rref(aug, cols=n + 1)
    if n in pivots:
        return None
    x = zero_vec(n)
    for row_i, pc in enumerate(pivots):
        x[pc] = r[row_i][-1]
    return x


def inverse(m: Mat) -> Mat:
    n = len(m)
    eye = identity(n)
    aug = [list(row) + eye[i] for i, row in enumerate(m)]
    r, pivots = rref(aug)
    if pivots[:n] != list(range(n)) or len(r) != n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in r]


def det(m: Mat) -> Fraction:
    """Product of the echelon pivots times the sign of row -> pivot column."""
    basis = {}
    cols = []
    out = Fraction(1)
    for row in m:
        got = _insert(basis, _sparse(row))
        if got is None:
            return Fraction(0)
        cols.append(got[0])
        out *= got[1]
    inversions = sum(1 for i, a in enumerate(cols) for b in cols[i + 1:] if a > b)
    return -out if inversions % 2 else out


def coordinates(rows, vectors) -> list:
    """Coordinates of each vector over the independent rows, or None for a
    vector outside their span; one RREF of [rows^T | vectors^T]."""
    if not vectors:
        return []
    k = len(rows)
    red, pivots = rref([list(col) for col in zip(*rows, *vectors)])
    if pivots[:k] != list(range(k)):
        raise ValueError("rows are dependent")
    out = []
    for j in range(k, k + len(vectors)):
        if any(row[j] != 0 for row in red[k:]):
            out.append(None)
        else:
            out.append([row[j] for row in red[:k]])
    return out


def restrict(op: Mat, rows) -> Mat | None:
    """Matrix of op on the span of the independent rows, in their
    coordinates; None when op does not map the span into itself."""
    cols = coordinates(rows, [mat_vec(op, v) for v in rows])
    if any(c is None for c in cols):
        return None
    return transpose(cols)


def combine(coeffs, rows) -> Vec:
    """The coordinate lift sum_i coeffs[i] * rows[i]."""
    return [sum(c * x for c, x in zip(coeffs, col)) for col in zip(*rows)]


def char_poly(m: Mat) -> list:
    """Characteristic polynomial det(xI - M), coefficients low to high, monic.

    Faddeev-LeVerrier; the divisions by k are exact.
    """
    n = len(m)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    b = identity(n)
    for k in range(1, n + 1):
        b = mat_mul(m, b)
        ck = -trace(b) / k
        coeffs[n - k] = ck
        for i in range(n):
            b[i][i] += ck
    return coeffs


def min_poly(m: Mat) -> list:
    """Minimal polynomial, coefficients low to high, monic."""
    n = len(m)
    flat = lambda mm: [x for row in mm for x in row]
    powers = [identity(n)]
    rows = [flat(powers[0])]
    while True:
        powers.append(mat_mul(m, powers[-1]))
        cand = flat(powers[-1])
        # is the new power in the span of the old ones?
        sol = coordinates(rows, [cand])[0]
        if sol is not None:
            return [-c for c in sol] + [Fraction(1)]
        rows.append(cand)


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n in canonical (RREF basis) form."""

    ambient: int
    rows: tuple
    pivots: tuple

    @staticmethod
    def span(ambient: int, vectors) -> "Subspace":
        """Span of dense vectors or {coordinate: value} dicts."""
        vecs = list(vectors)
        for v in vecs:
            if not isinstance(v, dict) and len(v) != ambient:
                raise ValueError("vector length %d != ambient %d" % (len(v), ambient))
        r, p = rref(vecs, cols=ambient)
        return Subspace(ambient, tuple(tuple(row) for row in r), tuple(p))

    @staticmethod
    def full(ambient: int) -> "Subspace":
        return Subspace.span(ambient, identity(ambient))

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, (), ())

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis(self) -> list:
        return [list(r) for r in self.rows]

    def contains(self, v) -> bool:
        w = vector(v)
        for row, pc in zip(self.rows, self.pivots):
            if w[pc] != 0:
                f = w[pc]
                w = [x - f * y for x, y in zip(w, row)]
        return is_zero_vec(w)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(list(r)) for r in other.rows)

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace.span(self.ambient, self.basis() + other.basis())

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient)
        a = self.basis()
        b = other.basis()
        # x = sum s_i a_i = sum t_j b_j: kernel of [A^T | -B^T]
        block = [list(ra) + [-x for x in rb] for ra, rb in zip(
            transpose(a), transpose(b))]
        return Subspace.span(self.ambient, [combine(k[: len(a)], a) for k in nullspace(block)])

    def coordinates(self, v):
        """Coefficients of v over this basis, or None if v is outside."""
        return coordinates(self.basis(), [vector(v)])[0]


def extend_to_basis(vectors, ambient: int) -> list:
    """Standard basis vectors extending the given independent set to a basis."""
    return independent(vectors, identity(ambient))


def jordan_chain_basis(n_mat: Mat) -> list:
    """Jordan chains of a nilpotent matrix.

    Returns a list of chains; each chain is [u_1, ..., u_k] with
    N u_j = u_{j-1} and N u_1 = 0.  The chains together form a basis.
    """
    n = len(n_mat)
    kers = [Subspace.zero(n)]
    power = identity(n)
    while kers[-1].dim < n:
        power = mat_mul(n_mat, power)
        kers.append(Subspace.span(n, nullspace(power, cols=n)))
        if len(kers) > n + 1:
            raise ValueError("matrix is not nilpotent")
    depth = len(kers) - 1
    chains = []
    # tops at level i must extend ker^{i-1} + N(previous tops at level i+1)
    carried = []  # images of higher tops, living at the current level
    for lvl in range(depth, 0, -1):
        tops = independent(kers[lvl - 1].basis() + carried, kers[lvl].basis())
        for top in tops:
            chain = [top]
            for _ in range(lvl - 1):
                chain.append(mat_vec(n_mat, chain[-1]))
            chain.reverse()
            chains.append(chain)
        carried = [mat_vec(n_mat, t) for t in (carried + tops)]
        carried = [v for v in carried if not is_zero_vec(v)]
    return chains


def gram_matrix(vectors) -> Mat:
    return [[dot(u, v) for v in vectors] for u in vectors]


def diagonal(*entries) -> Mat:
    return block_diag([[[e]] for e in entries])


def jordan_block(lam, size: int) -> Mat:
    """lam on the diagonal and 1 on the superdiagonal."""
    m = mat_scale(lam, identity(size))
    for i in range(size - 1):
        m[i][i + 1] = Fraction(1)
    return m


def block_diag(blocks) -> Mat:
    n = sum(len(b) for b in blocks)
    out = zeros(n, n)
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = frac(x)
        off += len(b)
    return out
