"""Independent reference computations that the benchmark checks outputs against.

Nothing here imports lie_sbe.  Laws are plain structure-constant tables
{(i, j): {k: c}} with 0-based indices, i < j and integer or Fraction c.
Ranks are taken over the prime field F_P with numpy; the Chevalley-Eilenberg
matrices are built here from the defining formula, not by the program.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

P = 2**31 - 1   # products of two residues stay below 2**62, inside int64


# ------------------------------------------------------------ arithmetic --

def modp(x) -> int:
    x = Fraction(x)
    return x.numerator * pow(x.denominator, P - 2, P) % P


def rref_modp(a):
    """(reduced rows, pivot columns) of an integer matrix over F_P."""
    a = np.array(a, dtype=np.int64).reshape(len(a), -1) % P
    rows, cols = a.shape
    r = 0
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        a[r] = a[r] * pow(int(a[r, c]), P - 2, P) % P
        f = a[:, c].copy()
        f[r] = 0
        hit = np.nonzero(f)[0]
        if hit.size:
            a[hit] = (a[hit] - f[hit, None] * a[r]) % P
        pivots.append(c)
        r += 1
    return a[:r], pivots


def matmul_modp(a, b):
    """a @ b over F_P.  b is split into 16-bit halves so that every int64
    sum of products stays below 2**63 (inner dimension up to 2**15)."""
    a = np.asarray(a, dtype=np.int64) % P
    b = np.asarray(b, dtype=np.int64) % P
    return ((a @ (b >> 16)) % P * 65536 + a @ (b & 0xFFFF)) % P


def rank_modp(a) -> int:
    a = np.asarray(a)
    if a.size == 0:
        return 0
    return len(rref_modp(a)[1])


def nullspace_modp(a, cols: int):
    """Rows spanning the right kernel over F_P."""
    a = np.asarray(a, dtype=np.int64).reshape(-1, cols)
    r, pivots = rref_modp(a) if a.shape[0] else (a, [])
    free = [c for c in range(cols) if c not in set(pivots)]
    out = np.zeros((len(free), cols), dtype=np.int64)
    for t, f in enumerate(free):
        out[t, f] = 1
        for row, pc in zip(r, pivots):
            out[t, pc] = -row[f] % P
    return out


# ------------------------------------------------------------------ laws --

def full_brackets(table) -> dict:
    """{(i, j): {k: c}} for every ordered pair with a nonzero bracket."""
    br = {}
    for (i, j), row in table.items():
        br[(i, j)] = dict(row)
        br[(j, i)] = {k: -c for k, c in row.items()}
    return br


def bracket(table, x, y) -> list:
    out = [0] * len(x)
    for (i, j), row in table.items():
        coef = x[i] * y[j] - x[j] * y[i]
        if coef:
            for k, c in row.items():
                out[k] += coef * c
    return out


def unit(n: int, i: int) -> list:
    return [1 if t == i else 0 for t in range(n)]


def jacobi_ok(table, n: int) -> bool:
    for i, j, k in itertools.combinations(range(n), 3):
        ei, ej, ek = unit(n, i), unit(n, j), unit(n, k)
        total = [a + b + c for a, b, c in zip(
            bracket(table, bracket(table, ei, ej), ek),
            bracket(table, bracket(table, ej, ek), ei),
            bracket(table, bracket(table, ek, ei), ej))]
        if any(total):
            return False
    return True


def transport(table, n: int, q, q_inv) -> dict:
    """Structure constants in the basis f_a = sum_m q[m][a] e_m."""
    cols = [[q[m][a] for m in range(n)] for a in range(n)]
    out = {}
    for a in range(n):
        for b in range(a + 1, n):
            v = bracket(table, cols[a], cols[b])
            w = [sum(q_inv[r][m] * v[m] for m in range(n)) for r in range(n)]
            row = {k: c for k, c in enumerate(w) if c}
            if row:
                out[(a, b)] = row
    return out


def mat_mul(a, b) -> list:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def unimodular(rng, n: int, shears: int):
    """(Q, Q^-1): a random signed permutation followed by elementary shears."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    q = [[signs[a] if perm[a] == m else 0 for a in range(n)] for m in range(n)]
    q_inv = [list(col) for col in zip(*q)]
    for _ in range(shears if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        e = [[(1 if r == c else 0) + (s if (r, c) == (i, j) else 0) for c in range(n)] for r in range(n)]
        e_inv = [[(1 if r == c else 0) - (s if (r, c) == (i, j) else 0) for c in range(n)] for r in range(n)]
        q = mat_mul(q, e)
        q_inv = mat_mul(e_inv, q_inv)
    return q, q_inv


def inverse(m) -> list:
    """Exact inverse by Gauss-Jordan over Fraction."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)]
         for r, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def contraction(table, n: int, w, p=None) -> dict:
    """t -> infinity limit of diag(t^w) P.law, with the program's convention
    P.law(x, y) = P law(P^-1 x, P^-1 y); None if an exponent is positive."""
    if p is not None:
        table = transport(table, n, inverse(p), p)
    out = {}
    for (i, j), row in table.items():
        keep = {}
        for k, c in row.items():
            e = w[i] + w[j] - w[k]
            if e > 0:
                return None
            if e == 0:
                keep[k] = c
        if keep:
            out[(i, j)] = keep
    return out


def same_table(a, b) -> bool:
    def norm(t):
        return {ij: {k: Fraction(c) for k, c in row.items() if c}
                for ij, row in t.items() if any(row.values())}
    return norm(a) == norm(b)


def h2c_table() -> dict:
    """[X,Y] = Z, [X,A] = -X, [Y,A] = -Y, [Z,A] = -2Z."""
    return {(0, 1): {2: 1}, (0, 3): {0: -1}, (1, 3): {1: -1}, (2, 3): {2: -2}}


def real_hyperbolic_table(n: int) -> dict:
    """b(n,R): [x, S] = -x on the n-1 coordinates."""
    return {(x, n - 1): {x: -1} for x in range(n - 1)}


# --------------------------------------------------- Chevalley-Eilenberg --

def cochain_keys(n: int, q: int, adjoint: bool) -> list:
    if q < 0 or q > n:
        return []
    subsets = list(itertools.combinations(range(n), q))
    return [(s, k) for s in subsets for k in (range(n) if adjoint else (None,))]


def ce_matrix(table, n: int, q: int, adjoint: bool):
    """d_q : C^q -> C^{q+1} over F_P, columns and rows in cochain_keys order.

    (dw)(x_0..x_q) = sum_a (-1)^a [x_a, w(..^a..)]
                   + sum_{a<b} (-1)^(a+b) w([x_a, x_b], ..^a..^b..)
    """
    cols = cochain_keys(n, q, adjoint)
    rows = cochain_keys(n, q + 1, adjoint)
    m = np.zeros((len(rows), len(cols)), dtype=np.int64)
    if not rows or not cols:
        return m
    cpos = {key: i for i, key in enumerate(cols)}
    rpos = {key: i for i, key in enumerate(rows)}
    br = {ij: {k: modp(c) for k, c in row.items()} for ij, row in full_brackets(table).items()}
    values = range(n) if adjoint else (None,)
    for t in itertools.combinations(range(n), q + 1):
        for a in range(q + 1):
            if not adjoint:
                break
            s = t[:a] + t[a + 1:]
            for k in range(n):
                for out, c in br.get((t[a], k), {}).items():
                    m[rpos[(t, out)], cpos[(s, k)]] += (-1) ** a * c
        for a in range(q + 1):
            for b in range(a + 1, q + 1):
                rest = t[:a] + t[a + 1:b] + t[b + 1:]
                for l, c in br.get((t[a], t[b]), {}).items():
                    if l in rest:
                        continue
                    s = tuple(sorted(rest + (l,)))
                    sign = (-1) ** (a + b + sum(1 for x in rest if x < l))
                    for k in values:
                        m[rpos[(t, k)], cpos[(s, k)]] += sign * c
    return m % P


def h_dim(table, n: int, q: int, adjoint: bool) -> int:
    dim_q = len(cochain_keys(n, q, adjoint))
    return dim_q - rank_modp(ce_matrix(table, n, q, adjoint)) - rank_modp(ce_matrix(table, n, q - 1, adjoint))


def betti(table, n: int) -> list:
    ranks = [rank_modp(ce_matrix(table, n, q, False)) for q in range(n + 1)]
    return [math.comb(n, q) - ranks[q] - (ranks[q - 1] if q else 0) for q in range(n + 1)]


def cochain_vector(terms, n: int, q: int, adjoint: bool):
    """An F_P vector from a {(indices, k): coefficient} cochain."""
    pos = {key: i for i, key in enumerate(cochain_keys(n, q, adjoint))}
    v = np.zeros(len(pos), dtype=np.int64)
    for key, c in terms.items():
        v[pos[key]] = modp(c)
    return v


def represents_basis(table, n: int, q: int, adjoint: bool, vectors) -> bool:
    """Are the vectors cocycles whose classes are independent in H^q?"""
    dq = ce_matrix(table, n, q, adjoint)
    if vectors and dq.size and np.any(matmul_modp(dq, np.array(vectors).T)):
        return False
    image = ce_matrix(table, n, q - 1, adjoint).T       # rows span B^q
    base = rank_modp(image)
    stacked = np.vstack([image.reshape(-1, len(vectors[0]))] + [np.array(vectors)]) if vectors else image
    return rank_modp(stacked) == base + len(vectors)


def wedge2(a, b, n: int):
    """a ^ b for two trivial 2-cochains given over cochain_keys(n, 2)."""
    pairs = list(itertools.combinations(range(n), 2))
    pos2 = {s: i for i, s in enumerate(pairs)}
    quads = list(itertools.combinations(range(n), 4))
    out = np.zeros(len(quads), dtype=np.int64)
    for t, quad in enumerate(quads):
        acc = 0
        for s1 in itertools.combinations(quad, 2):
            s2 = tuple(x for x in quad if x not in s1)
            inv = sum(1 for x in s1 for y in s2 if x > y)
            acc += (-1) ** inv * int(a[pos2[s1]]) * int(b[pos2[s2]])
        out[t] = acc % P
    return out


def cup_square_rank(table, n: int) -> int:
    """dim of the span of a u b, a and b in H^2, inside H^4 (polarization)."""
    z2 = nullspace_modp(ce_matrix(table, n, 2, False), math.comb(n, 2))
    b2 = ce_matrix(table, n, 1, False).T
    reps = []
    acc = b2
    base = rank_modp(acc)
    for v in z2:
        trial = np.vstack([acc, v[None, :]])
        if rank_modp(trial) > base:
            acc, base = trial, base + 1
            reps.append(v)
    b4 = ce_matrix(table, n, 3, False).T
    prods = [wedge2(reps[i], reps[j], n) for i in range(len(reps)) for j in range(i, len(reps))]
    if not prods:
        return 0
    return rank_modp(np.vstack([b4] + [p[None, :] for p in prods])) - rank_modp(b4)


def center_dim(table, n: int) -> int:
    br = full_brackets(table)
    rows = []
    for j in range(n):
        for m in range(n):
            rows.append([modp(br.get((i, j), {}).get(m, 0)) for i in range(n)])
    return n - rank_modp(rows)


def derivation_system(table, n: int):
    """F_P matrix whose kernel is Der: D[e_i,e_j] - [De_i,e_j] - [e_i,De_j] = 0,
    unknowns the entries of D row-major."""
    br = full_brackets(table)
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for m in range(n):
                row = [0] * (n * n)
                for k, c in br.get((i, j), {}).items():
                    row[m * n + k] += c
                for r in range(n):
                    row[r * n + i] -= br.get((r, j), {}).get(m, 0)
                    row[r * n + j] -= br.get((i, r), {}).get(m, 0)
                rows.append([modp(x) for x in row])
    return np.array(rows, dtype=np.int64).reshape(-1, n * n)


def der_dim(table, n: int) -> int:
    return n * n - rank_modp(derivation_system(table, n))


def derivations_ok(table, n: int, basis) -> bool:
    """Every matrix in `basis` satisfies the derivation identity (over F_P)."""
    if not basis:
        return True
    system = derivation_system(table, n)
    vecs = np.array([[modp(x) for row in d for x in row] for d in basis], dtype=np.int64)
    return not np.any(matmul_modp(system, vecs.T))


def series_dims(table, n: int, derived: bool) -> tuple:
    """Dimensions of the lower central (or derived) series down to stability."""
    current = [unit(n, i) for i in range(n)]
    dims = [n]
    while True:
        left = current if derived else [unit(n, i) for i in range(n)]
        vecs = [bracket(table, x, y) for x in left for y in current]
        r, piv = rref_modp([[modp(x) for x in v] for v in vecs]) if vecs else (np.zeros((0, n)), [])
        # residues as Python ints: the bracket is bilinear, so the next
        # round stays exact over F_P
        current = [[int(x) for x in row] for row in r]
        if len(current) == dims[-1]:
            return tuple(dims)
        dims.append(len(current))
        if not current:
            return tuple(dims)


def invariants(table, n: int) -> tuple:
    """Basis-free fingerprint: Betti numbers, center, Der, both series."""
    return (tuple(betti(table, n)), center_dim(table, n), der_dim(table, n),
            series_dims(table, n, False), series_dims(table, n, True))


# ---------------------------------------------------------- closed forms --

def heis_betti(m: int) -> list:
    """Betti numbers of heis(2k+1): C(2k,q) - C(2k,q-2) for q <= k, and
    Poincare duality for the rest."""
    k = (m - 1) // 2
    low = [math.comb(2 * k, q) - (math.comb(2 * k, q - 2) if q >= 2 else 0) for q in range(k + 1)]
    return low + low[::-1]


def borel_betti(dim: int) -> list:
    """b(n,K) is R^d x| R S with S acting with positive weights: H^* = H^*(R)."""
    return [1, 1] + [0] * (dim - 1)


def h1_adjoint(name: str):
    """Closed forms for dim H^1(g, g), or None where there is none."""
    if name.startswith("b(") and name.endswith(",R)"):
        n = int(name[2:-3])
        return (n - 1) ** 2 - 1
    if name.startswith("b(") and name.endswith(",C)"):
        n = int(name[2:-3])
        return (n - 1) * (2 * n - 1)
    if name.startswith("heis("):
        k = (int(name[5:-1]) - 1) // 2
        return k * (2 * k + 1) + 1
    return {"l_6_7": 9, "l_6_6": 8, "l_6_12": 7, "l_6_11": 6, "l_6_13": 5}.get(name)


def known_betti(name: str, dim: int):
    if name.startswith("heis("):
        return heis_betti(dim)
    if name.startswith("b("):
        return borel_betti(dim)
    return None


# ------------------------------------------------------------- curvature --

def koszul_sectional(m, u, v) -> float:
    """Sectional curvature of the plane span(u, v) for R^n x| R A with
    [A, x] = m x and the standard basis orthonormal (A last), from the
    Koszul formula for left-invariant metrics."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    c = np.zeros((n + 1, n + 1, n + 1))          # [e_i, e_j] = sum_k c[i,j,k] e_k
    c[n, :n, :n] = m.T
    c[:n, n, :n] = -m.T
    # <nabla_i e_j, e_k> = (c_ijk - c_jki + c_kij) / 2
    g = 0.5 * (c - np.einsum("jki->ijk", c) + np.einsum("kij->ijk", c))
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)

    def nabla(x, y):
        return np.einsum("i,j,ijk->k", x, y, g)

    r = nabla(u, nabla(v, v)) - nabla(v, nabla(u, v)) - nabla(np.einsum("i,j,ijk->k", u, v, c), v)
    return float(r @ u) / float((u @ u) * (v @ v) - (u @ v) ** 2)
