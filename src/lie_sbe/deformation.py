"""Degenerations, contractions, one-parameter families and modifications.

A scaling family acts on a law by an optional rational base change P
followed by the diagonal scaling diag(t^{w_i}); the bracket entry (i,j)->k
then carries t^(w_i + w_j - w_k).  Limits are taken as t -> infinity:
negative exponents die, zero exponents persist, positive exponents diverge.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .catalog import catalog
from .cohomology import Cochain, apply_differential
from .errors import DivergentFamily, InputError, LieSbeError, PreconditionError
from .laws import (
    LieLaw,
    basis_change,
    bracket_subspaces,
    center,
    check_jacobi,
    derived_algebra,
    exponential_radical,
    is_completely_solvable,
    is_derivation,
    is_nilpotent,
    law_add,
    law_in_basis,
    lower_central_series,
    spectral_summary,
    subalgebra_law,
)
from .linalg import (
    Subspace,
    char_poly,
    combine,
    coordinates,
    det,
    extend_to_basis,
    frac,
    identity,
    independent,
    inverse,
    is_zero_vec,
    jordan_chain_basis,
    mat_mul,
    mat_pow,
    mat_scale,
    mat_sub,
    mat_vec,
    matrix,
    min_poly,
    nullspace,
    restrict,
    transpose,
    vec_add,
    vec_scale,
    vector,
)
from . import polynomials as poly
from .cohomology import adjoint_h_dim, betti_numbers


@dataclass(frozen=True)
class ScalingFamily:
    w: tuple                 # integer exponents, one per coordinate
    p: tuple | None = None   # optional base change applied before scaling

    def __post_init__(self):
        if self.p is not None:
            object.__setattr__(self, "p", tuple(tuple(frac(x) for x in row) for row in self.p))
        object.__setattr__(self, "w", tuple(int(e) for e in self.w))


@dataclass(frozen=True)
class LaurentLaw:
    """A bracket table whose coefficients are monomials c * t^e."""

    dim: int
    table: dict              # (i,j) -> {k: (exponent, coeff)}
    basis: tuple

    def at(self, t) -> LieLaw:
        t = frac(t)
        if t == 0:
            raise InputError("families are evaluated at nonzero t")
        table = {}
        for ij, row in self.table.items():
            out = {}
            for k, (e, c) in row.items():
                v = c * t ** e
                if v != 0:
                    out[k] = v
            if out:
                table[ij] = out
        return LieLaw(self.dim, table, basis=self.basis)


def apply_family(law: LieLaw, family: ScalingFamily) -> LaurentLaw:
    if len(family.w) != law.dim:
        raise InputError("family has %d exponents for dimension %d" % (len(family.w), law.dim))
    base = law
    if family.p is not None:
        if det(family.p) == 0:
            raise InputError("the family's base change P is singular")
        base = basis_change(law, [list(r) for r in family.p], basis=law.basis)
    table = {}
    for (i, j), row in base.table.items():
        out = {}
        for k, c in row.items():
            out[k] = (family.w[i] + family.w[j] - family.w[k], c)
        table[(i, j)] = out
    return LaurentLaw(base.dim, table, basis=base.basis)


def contraction_limit(ll: LaurentLaw) -> LieLaw:
    """The t -> infinity limit; raises DivergentFamily if any exponent is positive."""
    divergent = []
    table = {}
    for (i, j), row in sorted(ll.table.items()):
        out = {}
        for k, (e, c) in sorted(row.items()):
            if e > 0:
                divergent.append((i + 1, j + 1, k + 1, e, c))
            elif e == 0:
                out[k] = c
        if out:
            table[(i, j)] = out
    if divergent:
        raise DivergentFamily(divergent)
    limit = LieLaw(ll.dim, table, basis=ll.basis)
    rep = check_jacobi(limit)
    if not rep.ok:
        raise LieSbeError("contraction limit fails Jacobi at triple %s" % (rep.triple,))
    return limit


# ------------------------------------------------------- expandability ----

def cochain2_as_law(c: Cochain) -> LieLaw:
    """View an adjoint 2-cochain as an anticommutative bilinear map."""
    if c.module != "adjoint" or c.degree != 2:
        raise InputError("need an adjoint 2-cochain")
    table = {}
    for ((i, j), k), v in c.terms.items():
        table.setdefault((i, j), {})[k] = table.get((i, j), {}).get(k, Fraction(0)) + v
    return LieLaw(c.dim, table)


@dataclass(frozen=True)
class ExpandabilityReport:
    expandable: bool
    cocycle: bool
    quadratic_zero: bool
    failing_triple: tuple | None
    law_at_one: LieLaw | None


def linear_expandability(mu: LieLaw, omega) -> ExpandabilityReport:
    """Does mu + s*omega satisfy Jacobi for every s?

    True exactly when omega is a 2-cocycle for the adjoint differential of
    mu and the cyclic sum omega(omega(x,y),z) vanishes.
    """
    if isinstance(omega, Cochain):
        om_law = cochain2_as_law(omega)
        om_cochain = omega
    else:
        om_law = omega
        terms = {}
        for (i, j), row in om_law.table.items():
            for k, c in row.items():
                terms[((i, j), k)] = c
        om_cochain = Cochain(om_law.dim, 2, "adjoint", terms)
    if om_law.dim != mu.dim:
        raise InputError("cocycle lives on the wrong dimension")
    cocycle = apply_differential(mu, om_cochain).is_zero()
    quadratic_zero = True
    failing = None
    e = identity(mu.dim)
    for i, j, k in itertools.combinations(range(mu.dim), 3):
        ei, ej, ek = e[i], e[j], e[k]
        r = om_law.bracket(om_law.bracket(ei, ej), ek)
        r = vec_add(r, om_law.bracket(om_law.bracket(ej, ek), ei))
        r = vec_add(r, om_law.bracket(om_law.bracket(ek, ei), ej))
        if not is_zero_vec(r):
            quadratic_zero = False
            failing = (i + 1, j + 1, k + 1)
            break
    if not cocycle and failing is None:
        # locate the first triple where the linear term obstructs
        resid = apply_differential(mu, om_cochain)
        key = sorted(resid.terms)[0]
        failing = tuple(x + 1 for x in key[0])
    expandable = cocycle and quadratic_zero
    return ExpandabilityReport(
        expandable=expandable,
        cocycle=cocycle,
        quadratic_zero=quadratic_zero,
        failing_triple=None if expandable else failing,
        law_at_one=law_add(mu, om_law) if expandable else None,
    )


# ------------------------------------------------ dimension obstructions ----

@dataclass(frozen=True)
class ObstructionRow:
    name: str
    source: int
    target: int
    violated: bool


@dataclass(frozen=True)
class ObstructionReport:
    obstructed: bool
    rows: tuple


def semicontinuity_obstruction(source: LieLaw, target: LieLaw) -> ObstructionReport:
    """Dimension counts that can only grow in a degeneration limit.

    If any row is violated, no family contracts `source` onto `target`.
    """
    if source.dim != target.dim:
        raise InputError("laws must share a dimension")
    rows = []
    bs, bt = betti_numbers(source), betti_numbers(target)
    for q in range(source.dim + 1):
        rows.append(ObstructionRow("b_%d" % q, bs[q], bt[q], bt[q] < bs[q]))
    h1s, h1t = adjoint_h_dim(source, 1), adjoint_h_dim(target, 1)
    rows.append(ObstructionRow("dim_H1_adjoint", h1s, h1t, h1t < h1s))
    cs, ct = center(source).dim, center(target).dim
    rows.append(ObstructionRow("dim_center", cs, ct, ct < cs))
    return ObstructionReport(any(r.violated for r in rows), tuple(rows))


@dataclass(frozen=True)
class SpectralReport:
    status: str              # "obstructed" | "not_obstructed" | "inapplicable"
    reason: str
    char_source: tuple | None = None
    char_target: tuple | None = None


def _derived_action_charpoly(law: LieLaw):
    der = derived_algebra(law)
    if der.dim != law.dim - 1:
        return None, "derived subalgebra is not of codimension 1"
    rows = der.basis()
    if der.dim > 0:
        sub, _ = subalgebra_law(law, rows)
        if not is_nilpotent(sub):
            return None, "derived subalgebra is not nilpotent"
    a = extend_to_basis(rows, law.dim)[0]
    # [g, g] holds every bracket, so it is invariant and restrict never fails
    return char_poly(restrict(law.ad(a), rows)), ""


def spectral_obstruction(source: LieLaw, target: LieLaw) -> SpectralReport:
    """Projective comparison of the characteristic polynomial of the
    codimension-one action on the nilpotent derived subalgebra.

    A degeneration can rescale the action but cannot move eigenvalue
    ratios, so incompatible polynomials obstruct source -> target.
    """
    if source.dim != target.dim:
        raise InputError("laws must share a dimension")
    p, why_p = _derived_action_charpoly(source)
    q, why_q = _derived_action_charpoly(target)
    if p is None or q is None:
        return SpectralReport("inapplicable", why_p or why_q)
    d = len(p) - 1
    support_p = [k for k in range(d) if p[k] != 0]
    support_q = [k for k in range(d) if q[k] != 0]
    if support_p != support_q:
        return SpectralReport(
            "obstructed",
            "coefficient supports differ: %s vs %s" % (support_p, support_q),
            tuple(p), tuple(q),
        )
    if not support_p:
        return SpectralReport("not_obstructed", "both actions are nilpotent", tuple(p), tuple(q))
    exps = [d - k for k in support_p]
    ratios = {d - k: q[k] / p[k] for k in support_p}
    g = math.gcd(*exps)
    # Bezout combination of the exponents realizes c^g as a known rational
    rho = _bezout_power(ratios, exps, g)
    if g % 2 == 0 and rho < 0:
        return SpectralReport(
            "obstructed",
            "no real scaling: c^%d = %s has no real solution" % (g, rho),
            tuple(p), tuple(q),
        )
    for e, r in ratios.items():
        if rho ** (e // g) != r:
            return SpectralReport(
                "obstructed",
                "eigenvalue ratios are inconsistent at exponent %d" % e,
                tuple(p), tuple(q),
            )
    return SpectralReport(
        "not_obstructed",
        "characteristic polynomials agree up to the scaling c with c^%d = %s" % (g, rho),
        tuple(p), tuple(q),
    )


def _bezout_power(ratios, exps, g):
    # find integers alpha_e with sum alpha_e * e = g, then rho = prod r_e^alpha_e
    cur_g, cur_comb = exps[0], {exps[0]: 1}
    for e in exps[1:]:
        x, y, gg = _ext_gcd(cur_g, e)
        new_comb = {k: v * x for k, v in cur_comb.items()}
        new_comb[e] = new_comb.get(e, 0) + y
        cur_g, cur_comb = gg, new_comb
    assert cur_g == g
    rho = Fraction(1)
    for e, a in cur_comb.items():
        rho *= ratios[e] ** a
    return rho


def _ext_gcd(a, b):
    # returns (x, y, g) with a*x + b*y = g
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_x, x = x, old_x - qt * x
        old_y, y = y, old_y - qt * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_x, old_y, old_r


# ------------------------------------------------------- certificates ----

@dataclass(frozen=True)
class Certificate:
    applies: bool
    reason: str
    family: ScalingFamily | None = None
    limit: LieLaw | None = None
    target_name: str | None = None
    induced: tuple | None = None   # h2c: the action induced on der / der2


def lauret_certificate(law: LieLaw) -> Certificate:
    """Degeneration onto b(n,R) for laws with abelian codimension-one
    derived subalgebra and a one-eigenvalue action on it."""
    n = law.dim
    if n < 2:
        return Certificate(False, "law has dimension %d, need at least 2" % n)
    der = derived_algebra(law)
    if der.dim != n - 1:
        return Certificate(False, "derived subalgebra has codimension %d, need 1" % (n - der.dim))
    if bracket_subspaces(law, der, der).dim != 0:
        return Certificate(False, "derived subalgebra is not abelian")
    rows = der.basis()
    a = extend_to_basis(rows, n)[0]
    m = restrict(law.ad(a), rows)
    ss = spectral_summary(m)
    if not ss.is_unipotent_after_scaling:
        return Certificate(
            False,
            "action on the derived subalgebra is not unipotent after scaling "
            "(char poly %s)" % poly.format_poly(list(ss.char)),
        )
    lam = ss.single_real_eigenvalue
    nil = mat_sub([[x / lam for x in row] for row in m], identity(n - 1))
    adapted = [combine(u, rows) for chain in jordan_chain_basis(nil) for u in chain]
    adapted.append(vec_scale(Fraction(1) / lam, a))
    p = inverse(transpose(adapted))
    fam = ScalingFamily(w=tuple(-i for i in range(1, n)) + (0,), p=tuple(map(tuple, p)))
    limit = contraction_limit(apply_family(law, fam))
    target = catalog("b(%d,R)" % n)
    if limit != target:
        raise LieSbeError("certificate produced an unexpected limit")
    return Certificate(True, "contracts onto b(%d,R)" % n, fam, limit, "b(%d,R)" % n)


def h2c_certificate(law: LieLaw) -> Certificate:
    """Degeneration onto the four-dimensional solvable law with Heisenberg
    derived subalgebra and eigenvalues (1,1,2)."""
    n = law.dim
    if n != 4:
        return Certificate(False, "law has dimension %d, need 4" % n)
    der = derived_algebra(law)
    if der.dim != 3:
        return Certificate(False, "derived subalgebra has dimension %d, need 3" % der.dim)
    der2 = bracket_subspaces(law, der, der)
    if der2.dim != 1:
        return Certificate(False, "second derived term has dimension %d, need 1" % der2.dim)
    rows = der.basis()
    a = extend_to_basis(rows, n)[0]
    # a basis z, c1, c2 of der that starts with der2; ad(a) acts on it by mb
    z = der2.basis()[0]
    comp = [combine(c, rows) for c in extend_to_basis(coordinates(rows, [z]), 3)]
    mb = restrict(law.ad(a), [z] + comp)
    if mb[1][0] != 0 or mb[2][0] != 0:
        return Certificate(False, "second derived term is not invariant")
    induced = [row[1:] for row in mb[1:]]
    ss = spectral_summary(induced)
    if not ss.is_unipotent_after_scaling:
        return Certificate(
            False,
            "induced action is not unipotent after scaling (char poly %s)"
            % poly.format_poly(list(ss.char)),
        )
    lam = ss.single_real_eigenvalue
    if mb[0][0] != 2 * lam:
        return Certificate(
            False,
            "action on the second derived term is %s, need twice the eigenvalue %s"
            % (mb[0][0], lam),
        )
    nil = [[induced[0][0] / lam - 1, induced[0][1] / lam],
           [induced[1][0] / lam, induced[1][1] / lam - 1]]
    if any(x != 0 for row in nil for x in row):
        ybar = [Fraction(1), Fraction(0)]
        if is_zero_vec(mat_vec(nil, ybar)):
            ybar = [Fraction(0), Fraction(1)]
        xbar = mat_vec(nil, ybar)
    else:
        xbar = [Fraction(1), Fraction(0)]
        ybar = [Fraction(0), Fraction(1)]

    x_vec = combine(xbar, comp)
    y_vec = combine(ybar, comp)
    z_vec = law.bracket(x_vec, y_vec)
    if is_zero_vec(z_vec):
        return Certificate(False, "derived subalgebra is not of Heisenberg type")
    a0 = vec_scale(Fraction(1) / lam, a)
    # kill the z-components of [a0, x] and [a0, y]
    cx, cy = coordinates([x_vec, y_vec, z_vec, a0],
                         [law.bracket(a0, x_vec), law.bracket(a0, y_vec)])
    beta, gamma = cx[2], cy[2]
    a3 = combine([1, -gamma, beta], [a0, x_vec, y_vec])
    adapted = [x_vec, y_vec, z_vec, a3]
    p = inverse(transpose(adapted))
    fam = ScalingFamily(w=(0, -1, -1, 0), p=tuple(map(tuple, p)))
    limit = contraction_limit(apply_family(law, fam))
    target = catalog("h2c_solvable")
    if limit != target:
        raise LieSbeError("certificate produced an unexpected limit")
    return Certificate(True, "contracts onto h2c_solvable", fam, limit, "h2c_solvable",
                       tuple(map(tuple, induced)))


# ------------------------------------------------------ graded nilpotent ----

@dataclass(frozen=True)
class GradedResult:
    gr: LieLaw
    weights: tuple           # weight of each adapted coordinate
    family: ScalingFamily
    grading: tuple           # Subspace per weight, in the original coordinates
    already_graded: bool


def graded_nilpotent(law: LieLaw) -> GradedResult:
    """Associated graded law along the lower central series.

    The adapted basis keeps the original coordinate order whenever the
    series is spanned by standard coordinates; weights are then read off
    per coordinate.
    """
    if not is_nilpotent(law):
        raise PreconditionError("law is not nilpotent")
    series = lower_central_series(law)
    n = law.dim
    picks = []
    for lvl in range(len(series) - 1):
        cur, nxt = series[lvl], series[lvl + 1]
        nxt_pivots = set(nxt.pivots)
        for row, pc in zip(cur.rows, cur.pivots):
            if pc not in nxt_pivots:
                picks.append((pc, lvl + 1, list(row)))
    picks.sort(key=lambda t: t[0])
    adapted = [v for _, _, v in picks]
    weights = tuple(wt for _, wt, _ in picks)
    cols = transpose(adapted)
    ad_law = law_in_basis(law, cols, basis=tuple(law.basis[pc] for pc, _, _ in picks))
    table = {}
    dropped = False
    for (i, j), row in ad_law.table.items():
        keep = {k: c for k, c in row.items() if weights[k] == weights[i] + weights[j]}
        for k in row:
            if weights[k] != weights[i] + weights[j]:
                dropped = True
        if keep:
            table[(i, j)] = keep
    gr = LieLaw(n, table, basis=ad_law.basis)
    rep = check_jacobi(gr)
    if not rep.ok:
        raise LieSbeError("graded law fails Jacobi at triple %s" % (rep.triple,))
    fam = ScalingFamily(w=weights, p=tuple(map(tuple, inverse(cols))))
    limit = contraction_limit(apply_family(law, fam))
    if limit != gr:
        raise LieSbeError("grading family does not contract onto the graded law")
    by_weight = {}
    for pc, wt, v in picks:
        by_weight.setdefault(wt, []).append(v)
    grading = tuple(
        Subspace.span(n, by_weight[wt]) for wt in sorted(by_weight)
    )
    return GradedResult(gr, weights, fam, grading, not dropped)


# ------------------------------------------------------------ torus data ----

@dataclass(frozen=True)
class TorusReport:
    is_torus: bool
    is_compact: bool
    failures: tuple


def torus_check(law: LieLaw, mats) -> TorusReport:
    """Are the given matrices a commuting family of semisimple derivations,
    and do they all have purely imaginary spectrum?"""
    mats = [matrix(m) for m in mats]
    failures = []
    for idx, d in enumerate(mats):
        if len(d) != law.dim or any(len(r) != law.dim for r in d):
            raise InputError("matrix %d is not %dx%d" % (idx + 1, law.dim, law.dim))
        if not is_derivation(law, d):
            failures.append("matrix %d is not a derivation" % (idx + 1))
        if not poly.is_squarefree(min_poly(d)):
            failures.append("matrix %d is not semisimple" % (idx + 1))
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            if mat_mul(mats[a], mats[b]) != mat_mul(mats[b], mats[a]):
                failures.append("matrices %d and %d do not commute" % (a + 1, b + 1))
    compact = True
    for idx, d in enumerate(mats):
        if not poly.all_roots_imaginary(char_poly(d)):
            compact = False
            failures.append("matrix %d has spectrum off the imaginary axis" % (idx + 1))
    is_torus = not any("derivation" in f or "semisimple" in f or "commute" in f for f in failures)
    return TorusReport(is_torus=is_torus, is_compact=is_torus and compact,
                       failures=tuple(failures))


@dataclass(frozen=True)
class ModificationResult:
    closure: bool
    twisting: bool
    jacobi_ok: bool
    law: LieLaw
    delta: LieLaw            # the difference law omega(x,y) = D_tau(x) y - D_tau(y) x


def modification(law: LieLaw, mats, tau) -> ModificationResult:
    """Modify the law by the map tau into the span of the given derivations.

    tau is an m x n rational matrix: column i holds the coefficients of
    tau(e_i) over the derivation list.
    """
    mats = [matrix(m) for m in mats]
    tau = matrix(tau)
    n = law.dim
    m_count = len(mats)
    if len(tau) != m_count or any(len(r) != n for r in tau):
        raise InputError("tau must be %dx%d" % (m_count, n))
    report = torus_check(law, mats)
    if not report.is_torus:
        raise PreconditionError("; ".join(report.failures))

    def tau_op(x):
        coeffs = mat_vec(tau, x)
        op = [[Fraction(0)] * n for _ in range(n)]
        for c, d in zip(coeffs, mats):
            if c != 0:
                for r in range(n):
                    for s in range(n):
                        op[r][s] += c * d[r][s]
        return op

    delta_table = {}
    new_table = {}
    closure = True
    e = identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            ei, ej = e[i], e[j]
            d_term = vec_add(mat_vec(tau_op(ei), ej), vec_scale(-1, mat_vec(tau_op(ej), ei)))
            z = vec_add(law.bracket_basis(i, j), d_term)
            if not is_zero_vec(mat_vec(tau, z)):
                closure = False
            row_d = {k: c for k, c in enumerate(d_term) if c != 0}
            if row_d:
                delta_table[(i, j)] = row_d
            row_z = {k: c for k, c in enumerate(z) if c != 0}
            if row_z:
                new_table[(i, j)] = row_z
    twisting = True
    for i in range(n):
        op = tau_op(e[i])
        for l in range(n):
            if not is_zero_vec(mat_vec(tau, mat_vec(op, e[l]))):
                twisting = False
    new_law = LieLaw(n, new_table, basis=law.basis)
    return ModificationResult(
        closure=closure,
        twisting=twisting,
        jacobi_ok=check_jacobi(new_law).ok,
        law=new_law,
        delta=LieLaw(n, delta_table, basis=law.basis),
    )


# ------------------------------------------------------ weight reduction ----

@dataclass(frozen=True)
class ReductionResult:
    g1: LieLaw
    g_inf: LieLaw
    r_dim: int
    w_dim: int
    weights: tuple           # one weight tuple per adapted r-coordinate
    depths: tuple            # Jordan depth per adapted r-coordinate
    family: ScalingFamily | None
    h_quotient: LieLaw | None


def _membership_matrix(sub: Subspace):
    """Matrix E with E v = 0 exactly when v lies in the subspace.

    E v is the residual of reducing v by the RREF rows; one pass is exact
    because reduced rows vanish at each other's pivots.
    """
    n = sub.ambient
    e = identity(n)
    for row, pc in zip(sub.rows, sub.pivots):
        for c in range(n):
            e[c][pc] -= row[c]
    return e


def cornulier_reduction(law: LieLaw, cartan_vectors) -> ReductionResult:
    """Split a completely solvable law over a Cartan (nilpotent self-
    normalizing) subalgebra into semisimple and graded limit forms."""
    n = law.dim
    if not is_completely_solvable(law):
        raise PreconditionError("law is not completely solvable")
    h_vecs = [vector(v) for v in cartan_vectors]
    h_law, _ = subalgebra_law(law, h_vecs)
    if not is_nilpotent(h_law):
        raise PreconditionError("given subalgebra is not nilpotent")
    h_span = Subspace.span(n, h_vecs)
    memb = _membership_matrix(h_span)
    norm_rows = []
    for v in h_vecs:
        ad_v = law.ad(v)
        norm_rows.extend(mat_mul(memb, [[-x for x in row] for row in ad_v]))
    normalizer_dim = len(nullspace(norm_rows, cols=n))
    if normalizer_dim != h_span.dim:
        raise PreconditionError(
            "subalgebra is not self-normalizing (normalizer has dimension %d)" % normalizer_dim
        )
    r = exponential_radical(law)
    w = h_span.intersect(r)
    if Subspace.span(n, h_span.basis() + r.basis()).dim != n:
        raise PreconditionError("Cartan subalgebra and exponential radical do not span")

    r_rows = r.basis()
    rd = r.dim
    # complement of w inside h
    hbar = independent(w.basis(), h_vecs + h_span.basis())
    m = len(hbar)

    # each ad(hbar_j) on r; r is a stable term of the lower central series,
    # so it holds [g, r] and restrict never fails
    actions = [restrict(law.ad(v), r_rows) for v in hbar]

    # simultaneous generalized eigenspaces with rational weights
    spaces = [identity(rd)] if rd else []
    weights_for = [()] if rd else []
    for act in actions:
        new_spaces, new_weights = [], []
        for basis_u, wt in zip(spaces, weights_for):
            restr = restrict(act, basis_u)
            if restr is None:
                raise LieSbeError("weight space is not invariant")
            cp = char_poly(restr)
            roots = poly.rational_roots(cp)
            if sum(mult for _, mult in roots) != len(basis_u):
                left = cp
                for root, mult in roots:
                    for _ in range(mult):
                        left, _rem = poly.divmod_poly(left, [-root, Fraction(1)])
                raise PreconditionError(
                    "weights are not rational: irreducible factor %s"
                    % poly.format_poly(poly.monic(left))
                )
            du = len(basis_u)
            for root, _mult in roots:
                powm = mat_pow(mat_sub(restr, mat_scale(root, identity(du))), du)
                new_spaces.append([combine(kv, basis_u) for kv in nullspace(powm, cols=du)])
                new_weights.append(wt + (root,))
        spaces, weights_for = new_spaces, new_weights

    # depths: inside each weight space, K_j holds the vectors that every
    # shifted operator maps into K_{j-1} (K_0 = 0); the vectors that K_j adds
    # to K_{j-1} have depth j.  A basis adapted to this filtration keeps the
    # scaling family contracting in any basis of the law.
    adapted_r = []       # in r coordinates
    coord_weights = []
    coord_depths = []
    for basis_u, wt in zip(spaces, weights_for):
        shifted_ops = [mat_sub(act, mat_scale(lamb, identity(rd)))
                       for act, lamb in zip(actions, wt)]
        u_cols = transpose(basis_u)
        below = Subspace.zero(rd)
        depth = 0
        while below.dim < len(basis_u):
            depth += 1
            if depth > rd:
                raise LieSbeError("depth computation failed to terminate")
            memb = _membership_matrix(below)
            rows = [row for op in shifted_ops for row in mat_mul(memb, mat_mul(op, u_cols))]
            layer = [combine(c, basis_u) for c in nullspace(rows, cols=len(basis_u))]
            for u in independent(below.basis(), layer):
                adapted_r.append(u)
                coord_weights.append(wt)
                coord_depths.append(depth)
            below = Subspace.span(rd, layer)

    lifted_r = [combine(u, r_rows) for u in adapted_r]
    full_cols = transpose(lifted_r + hbar)

    # quotient law on h/w via the adapted coordinates: the dropped r-part of
    # an h-bracket must lie in w, since [h,h] <= h and h cap r = w
    h_in_big = law_in_basis(law, full_cols)
    q_table = {}
    for i in range(m):
        for j in range(i + 1, m):
            row = h_in_big.table.get((rd + i, rd + j), {})
            keep = {k - rd: c for k, c in row.items() if k >= rd}
            dropped_vec = combine([row.get(k, 0) for k in range(rd)], lifted_r)
            if not w.contains(dropped_vec):
                raise LieSbeError("bracket of Cartan elements leaves h + w")
            if keep:
                q_table[(i, j)] = keep
    h_quot = LieLaw(m, q_table) if m else None

    # g1: r with its own law, h/w acting by the semisimple (scalar) parts
    g1_table = {}
    for i in range(rd):
        for j in range(i + 1, rd):
            row = h_in_big.table.get((i, j), {})
            keep = {k: c for k, c in row.items() if k < rd}
            if any(k >= rd for k in row):
                raise LieSbeError("bracket of radical elements leaves the radical")
            if keep:
                g1_table[(i, j)] = keep
    for j in range(m):
        for i in range(rd):
            lamb = coord_weights[i][j]
            if lamb != 0:
                g1_table[(i, rd + j)] = {i: -lamb}
    for i in range(m):
        for j in range(i + 1, m):
            if (i, j) in q_table:
                g1_table[(rd + i, rd + j)] = dict(q_table[(i, j)])
    g1 = LieLaw(n, g1_table)
    rep = check_jacobi(g1)
    if not rep.ok:
        raise LieSbeError("semisimple reduction fails Jacobi at %s" % (rep.triple,))

    # g_inf: same radical, graded quotient acting through degree one only
    if m:
        gq = graded_nilpotent(h_quot)
        ginf_table = {ij: dict(t) for ij, t in g1_table.items() if ij[0] < rd and ij[1] < rd}
        # adapted quotient basis: columns of the grading family inverse
        qcols = inverse([list(rw) for rw in gq.family.p])
        for (i, j), t in gq.gr.table.items():
            ginf_table[(rd + i, rd + j)] = {rd + k: c for k, c in t.items()}
        for j in range(m):
            if gq.weights[j] != 1:
                continue
            # degree-one element acts through its representative
            rep_coeffs = [qcols[i][j] for i in range(m)]
            for i in range(rd):
                lamb = sum(c * coord_weights[i][jj] for jj, c in enumerate(rep_coeffs))
                if lamb != 0:
                    ginf_table[(i, rd + j)] = {i: -lamb}
        g_inf = LieLaw(n, ginf_table)
        rep = check_jacobi(g_inf)
        if not rep.ok:
            raise LieSbeError("graded reduction fails Jacobi at %s" % (rep.triple,))
    else:
        g_inf = g1

    # contraction family, available when the radical is abelian
    family = None
    if rd == 0 or bracket_subspaces(law, r, r).dim == 0:
        has_w_in_h_brackets = False
        for i in range(m):
            for j in range(i + 1, m):
                row = h_in_big.table.get((rd + i, rd + j), {})
                if any(k < rd for k in row):
                    has_w_in_h_brackets = True
        if not has_w_in_h_brackets:
            exps = tuple(-d for d in coord_depths) + (0,) * m
            fam = ScalingFamily(w=exps, p=tuple(map(tuple, inverse(full_cols))))
            limit = contraction_limit(apply_family(law, fam))
            if limit != g1:
                raise LieSbeError("reduction family does not contract onto g1")
            family = fam

    return ReductionResult(
        g1=g1,
        g_inf=g_inf,
        r_dim=rd,
        w_dim=w.dim,
        weights=tuple(coord_weights),
        depths=tuple(coord_depths),
        family=family,
        h_quotient=h_quot,
    )
