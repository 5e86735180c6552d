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

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, PreconditionError
from .laws import LieLaw
from .linalg import _ZERO, Subspace, independent, rank, solve, transpose, zero_vec
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
            if any(not 0 <= x < self.dim for x in s + ((k,) if k is not None else ())):
                raise InputError("index out of range 0..%d in term %r" % (self.dim - 1, (s, k)))

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
    """The matrix of d_q: C^q -> C^{q+1}, stored sparse.

    `rows` and `cols` are `cochain_basis` of degrees q+1 and q, so indices
    follow the lexicographic (S, k) order.  `entries` holds each nonzero
    entry once, as a Fraction, sorted by (row, col).
    """

    rows: tuple          # basis keys of C^{q+1}
    cols: tuple          # basis keys of C^q
    entries: tuple       # sparse ((row, col, value), ...)

    def sparse_rows(self):
        """Row i as {column: value}, one dict per row of the matrix."""
        out = [{} for _ in self.rows]
        for r, c, v in self.entries:
            out[r][c] = v
        return out

    def sparse_cols(self):
        """Column j as {row: value}, one dict per column of the matrix."""
        out = [{} for _ in self.cols]
        for r, c, v in self.entries:
            out[c][r] = v
        return out

    def apply(self, vec):
        out = zero_vec(len(self.rows))
        for r, c, v in self.entries:
            if vec[c] != 0:
                out[r] += v * vec[c]
        return out


def _weights(law: LieLaw):
    """Integer weights of the basis under every e_x whose ad is diagonal.

    e_x qualifies when each [e_x, e_k] lies in Q e_k, at least one such
    eigenvalue is nonzero, and ad(e_x) is a derivation of the table (every
    [e_i, e_j] lies in the eigenvalue-(l_i + l_j) space; Jacobi implies it).
    Each qualifying x gives the eigenvalues l_k scaled by the lcm of their
    denominators.  Returns one tuple per basis index, with one entry per
    qualifying x, or None when no e_x qualifies.
    """
    n, table = law.dim, law.table
    eig = [[_ZERO] * n for _ in range(n)]      # eig[x][k]: [e_x, e_k] = eig * e_k
    diagonal = [False] * n                     # x appears in the table, always diagonally
    broken = [False] * n
    for (i, j), targets in table.items():
        for x, k in ((i, j), (j, i)):
            c = targets.get(k)
            if c is not None and len(targets) == 1:
                eig[x][k] = c if x == i else -c
                diagonal[x] = True
            else:
                broken[x] = True
    cols = []
    for x in range(n):
        if not diagonal[x] or broken[x]:
            continue
        scale = math.lcm(*(c.denominator for c in eig[x]))
        w = [c.numerator * (scale // c.denominator) for c in eig[x]]
        if all(w[m] == w[i] + w[j] for (i, j), targets in table.items() for m in targets):
            cols.append(w)
    return tuple(zip(*cols)) if cols else None


def _subsets_of_weight(weights, q: int, target) -> list:
    """The q-subsets S of the basis with sum_{i in S} weights[i] == target.

    Indices are grouped by weight, and the walk picks how many indices each
    group gives; a count is kept only if the groups after it can still reach
    the target with the indices left, coordinate by coordinate.
    """
    by_weight = {}
    for i, w in enumerate(weights):
        by_weight.setdefault(w, []).append(i)
    groups = sorted(by_weight.items())
    dims = range(len(target))
    # lo/hi[g][j][r]: least / greatest sum of coordinate j over r indices of groups g..
    lo, hi = [], []
    for g in range(len(groups) + 1):
        pool = [w for w, idx in groups[g:] for _ in idx]
        lo_g, hi_g = [], []
        for j in dims:
            vals = sorted(w[j] for w in pool)
            lo_g.append(list(itertools.accumulate(vals, initial=0)))
            hi_g.append(list(itertools.accumulate(reversed(vals), initial=0)))
        lo.append(lo_g)
        hi.append(hi_g)
    counts = []

    def walk(g, left, need, chosen):
        if g == len(groups):
            counts.append(chosen)
            return
        w, idx = groups[g]
        for c in range(min(left, len(idx)) + 1):
            rest = tuple(need[j] - c * w[j] for j in dims)
            r = left - c
            if r < len(lo[g + 1][0]) and all(lo[g + 1][j][r] <= rest[j] <= hi[g + 1][j][r]
                                             for j in dims):
                walk(g + 1, r, rest, chosen + (c,))

    walk(0, q, tuple(target), ())
    out = []
    for chosen in counts:
        parts = [itertools.combinations(idx, c) for (_, idx), c in zip(groups, chosen)]
        out.extend(tuple(sorted(itertools.chain(*pick))) for pick in itertools.product(*parts))
    return sorted(out)


def _weight0_keys(weights, q: int, module: str) -> list:
    """The basis q-cochains (S, k) of weight l_k - sum_{i in S} l_i == 0 (the
    l_k term absent for trivial coefficients), in full-basis order."""
    n = len(weights)
    if q < 0 or q > n:
        return []
    if module == "trivial":
        return [(s, None) for s in _subsets_of_weight(weights, q, (0,) * len(weights[0]))]
    values = {}
    for k, w in enumerate(weights):
        values.setdefault(w, []).append(k)
    return sorted((s, k) for w, ks in values.items()
                  for s in _subsets_of_weight(weights, q, w) for k in ks)


@lru_cache(maxsize=256)
def _skeleton(n: int, q: int, module: str, weights) -> tuple:
    """The index skeleton of degree q: (keys, runs, col_run).

    `keys` are every basis key (weights None) or the weight-0 keys of
    `weights`.  Both are in full-basis order, so the keys of one subset S form
    a run; `runs` holds (S, index of its first key, run length, offset of each
    value k or -1) per run, and `col_run` maps S to (index of its first key,
    offsets).  The offsets are None for trivial coefficients.  Nothing here
    depends on the structure constants, so every law of dimension n (and of
    these weights) shares the skeleton; callers only read it.
    """
    keys = cochain_basis(n, q, module) if weights is None else _weight0_keys(weights, q, module)
    offsets = {}                                # values of a run -> offset of each k, or -1
    runs, at = [], 0
    for s, group in itertools.groupby(keys, key=lambda key: key[0]):
        ks = tuple(k for _, k in group)
        pos = offsets.get(ks)
        if pos is None and module == "adjoint":
            pos = offsets[ks] = [-1] * n
            for off, k in enumerate(ks):
                pos[k] = off
        runs.append((s, at, len(ks), pos))
        at += len(ks)
    return tuple(keys), runs, {s: (at, pos) for s, at, _, pos in runs}


def composition_is_zero(law: LieLaw, q: int, module: str) -> bool:
    """Check d_{q+1} after d_q vanishes, column by column on the sparse data."""
    d1 = differential(law, q, module)
    d2 = differential(law, q + 1, module)
    d2_cols = d2.sparse_cols()
    for col in d1.sparse_cols():
        acc = {}
        for r1, v1 in col.items():
            for r2, v2 in d2_cols[r1].items():
                acc[r2] = acc.get(r2, Fraction(0)) + v2 * v1
        if any(v != 0 for v in acc.values()):
            return False
    return True


@lru_cache(maxsize=256)
def _differential_cached(law: LieLaw, q: int, module: str, weights) -> Differential:
    """d_q on every key (weights None), or on the weight-0 keys of `weights`.

    The matrix is walked off the sparse structure constants, one row group
    at a time, over the skeletons of degrees q (columns) and q+1 (rows).  The
    values k of a run depend only on the weight of S, so a bracket term maps
    the run of S' onto the run of T offset by offset.  Entries are sums of
    signed structure constants, so the table is scaled once by the lcm L of
    its denominators, sums are taken over int and emitted as v / L.
    """
    n = law.dim
    cols, _, col_run = _skeleton(n, q, module, weights)
    rows, row_runs, _ = _skeleton(n, q + 1, module, weights)
    ncols = len(cols)
    scale = math.lcm(*(c.denominator for t in law.table.values() for c in t.values()))
    pairs = {}                                  # (i, j), i < j -> [(m, L * c)]
    acts = [[] for _ in range(n)]               # x -> [(k, m, L * c)]: [e_x, e_k] terms
    for (i, j), targets in law.table.items():
        scaled = [(m, c.numerator * (scale // c.denominator)) for m, c in targets.items()]
        pairs[(i, j)] = scaled
        acts[i].extend((j, m, v) for m, v in scaled)
        acts[j].extend((i, m, -v) for m, v in scaled)
    fracs = {}
    entries = []
    for t, row0, width, row_pos in row_runs:
        group = {}                              # (row - row0) * ncols + col -> int
        if module == "adjoint":
            for i, x in enumerate(t):
                run = col_run.get(t[:i] + t[i + 1:])
                if run is None:                 # no key of that subset has the weight
                    continue
                base, col_pos = run
                sign = -1 if i % 2 else 1
                for k, m, v in acts[x]:
                    ck = col_pos[k]
                    if ck < 0:
                        continue
                    key = row_pos[m] * ncols + base + ck
                    group[key] = group.get(key, 0) + sign * v
        q1 = len(t)
        for i in range(q1):
            for j in range(i + 1, q1):
                terms = pairs.get((t[i], t[j]))
                if terms is None:
                    continue
                rest = t[:i] + t[i + 1:j] + t[j + 1:]
                odd = (i + j) % 2
                for m, v in terms:
                    pos = bisect.bisect_left(rest, m)
                    if pos < len(rest) and rest[pos] == m:
                        continue
                    col = col_run[rest[:pos] + (m,) + rest[pos:]][0]
                    if (odd + pos) % 2:
                        v = -v
                    # (row offset o, column col + o) for every value of the run
                    for key in range(col, col + width * (ncols + 1), ncols + 1):
                        group[key] = group.get(key, 0) + v
        for key in sorted(group):
            v = group[key]
            if v:
                f = fracs.get(v)
                if f is None:
                    f = fracs[v] = Fraction(v, scale)
                r, c = divmod(key, ncols)
                entries.append((row0 + r, c, f))
    return Differential(rows=rows, cols=cols, entries=tuple(entries))


def differential(law: LieLaw, q: int, module: str = "trivial") -> Differential:
    """The full d_q: C^q -> C^{q+1}."""
    if module not in ("trivial", "adjoint"):
        raise InputError("module must be 'trivial' or 'adjoint'")
    return _differential_cached(law, q, module, None)


def _carrier(law: LieLaw, q: int, module: str, weights) -> Differential:
    """The part of d_q that carries the cohomology.

    When some ad(e_x) is diagonal in the basis, the Lie derivative L_x =
    d i_x + i_x d multiplies each basis cochain by its weight, so every block
    of nonzero weight is acyclic (Hochschild-Serre).  Then, with `weights`
    = _weights(law), this is d_q on the weight-0 keys; otherwise (weights
    None) it is the full d_q.  On a law that fails Jacobi neither is a
    complex, and the two can give different ranks.
    """
    if weights is None:
        return differential(law, q, module)
    return _differential_cached(law, q, module, weights)


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


def _rank(d: Differential) -> int:
    """rank d, eliminating its columns when there are fewer of them than rows."""
    return rank(d.sparse_cols() if len(d.cols) < len(d.rows) else d.sparse_rows())


def betti_numbers(law: LieLaw) -> list:
    """b_0..b_n for trivial coefficients."""
    weights = _weights(law)
    ds = [_carrier(law, q, "trivial", weights) for q in range(law.dim + 1)]
    ranks = [_rank(d) for d in ds]
    return [len(d.cols) - ranks[q] - (ranks[q - 1] if q > 0 else 0) for q, d in enumerate(ds)]


def adjoint_h_dim(law: LieLaw, q: int) -> int:
    weights = _weights(law)
    d = _carrier(law, q, "adjoint", weights)
    r_prev = _rank(_carrier(law, q - 1, "adjoint", weights)) if q > 0 else 0
    return len(d.cols) - _rank(d) - r_prev


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
    sol = solve(d_prev.sparse_rows(), target, cols=len(d_prev.cols))
    if sol is None:
        return CocycleVerdict("nontrivial_class", None, None)
    pre = vector_to_cochain(sol, c.dim, c.degree - 1, c.module)
    return CocycleVerdict("coboundary", None, pre)


def coboundary_space(law: LieLaw, q: int, module: str) -> Subspace:
    """Image of d_{q-1} inside C^q, over the C^q basis order."""
    nq = _cochain_dim(law.dim, q, module)
    if q == 0:
        return Subspace.zero(nq)
    return Subspace.span(nq, differential(law, q - 1, module).sparse_cols())


def cocycle_space(law: LieLaw, q: int, module: str) -> Subspace:
    d = differential(law, q, module)
    return Subspace.kernel(d.sparse_rows(), len(d.cols))


def cohomology_basis(law: LieLaw, q: int, module: str = "trivial") -> list:
    """Cocycle representatives of a basis of H^q.

    The cocycles are the RREF basis of ker d_q, kept in order when they are
    independent of the coboundaries and of the cocycles kept before them.
    Both spaces are graded and the weight-0 keys keep the full-basis order,
    so the weight-0 block gives the same representatives as the full complex.
    """
    weights = _weights(law)
    d = _carrier(law, q, module, weights)
    z = Subspace.kernel(d.sparse_rows(), len(d.cols))
    b = _carrier(law, q - 1, module, weights).sparse_cols() if q > 0 else []
    return [Cochain(law.dim, q, module, {key: x for key, x in zip(d.cols, v) if x != 0})
            for v in independent(b, z.rows)]


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
    reps = cohomology_basis(law, 2, "trivial")      # cocycles by construction
    d3 = _carrier(law, 3, "trivial", _weights(law))
    pos = {key: i for i, key in enumerate(d3.rows)}
    squares = [{pos[key]: x for key, x in wedge(r1, r2).terms.items()}
               for i, r1 in enumerate(reps) for r2 in reps[i:]]
    return len(independent(d3.sparse_cols(), squares))


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
