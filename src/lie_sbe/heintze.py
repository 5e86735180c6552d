"""Negatively curved solvable extensions and their boundary invariants.

A datum here is a nilpotent law N together with a derivation alpha whose
spectrum lies in the open right half-plane; the rank-one extension
N x| R A with [A, x] = alpha x then carries a left-invariant metric of
negative curvature.  This module normalizes the derivation, computes the
conformal invariants of the boundary at infinity, glues two data along a
scaling ratio, and decides when the extension is, up to rescaling,
isometric to a real hyperbolic space or to the complex hyperbolic plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import polynomials as poly
from .deformation import h2c_certificate
from .errors import InputError, PreconditionError
from .laws import (
    LieLaw,
    SpectralSummary,
    bracket_subspaces,
    derived_algebra,
    direct_sum,
    is_completely_solvable,
    is_derivation,
    is_nilpotent,
    semidirect_rank_one,
    spectral_summary,
)
from .linalg import (
    Subspace,
    block_diag,
    char_poly,
    diagonal,
    extend_to_basis,
    frac,
    identity,
    jordan_block,
    mat_sub,
    matrix,
    min_poly,
    restrict,
    trace,
)

NUMERIC_TOL = 1e-9


# ------------------------------------------------------------ normalization --

@dataclass(frozen=True)
class NormalizedDerivation:
    """alpha divided by the smallest real part m of its spectrum.

    When m is certified rational the matrix keeps exact entries; otherwise
    both m and the entries are floats accurate to about NUMERIC_TOL.
    """

    matrix: tuple
    m: object
    exact: bool


def _min_real_part_exact(cp):
    """Smallest rational root r of cp such that every remaining root has
    real part strictly greater than r, or None if that cannot be certified."""
    roots = poly.rational_roots(cp)
    if not roots:
        return None
    r, mult = roots[0]
    rest = list(cp)
    for _ in range(mult):
        # deflating a known root leaves no remainder
        rest, _rem = poly.divmod_poly(rest, [-r, Fraction(1)])
    if poly.degree(rest) <= 0:
        return r
    if poly.all_roots_positive_real_part(poly.compose_shift(rest, r)):
        return r
    return None


def normalize_derivation(alpha) -> NormalizedDerivation:
    """Scale a matrix so the smallest real part of its spectrum becomes 1."""
    a = matrix(alpha)
    n = len(a)
    if n == 0:
        raise InputError("cannot normalize an empty matrix")
    cp = char_poly(a)
    r = _min_real_part_exact(cp)
    if r is not None:
        if r <= 0:
            raise PreconditionError(
                "smallest real part of the spectrum is %s, need it positive" % r
            )
        scaled = tuple(tuple(x / r for x in row) for row in a)
        return NormalizedDerivation(scaled, r, True)
    import numpy  # only this fallback needs floats; keep it out of start-up

    rts = numpy.roots([float(c) for c in reversed(cp)])
    m = float(min(z.real for z in rts))
    if m <= NUMERIC_TOL:
        raise PreconditionError(
            "smallest real part of the spectrum is about %.3g, need it positive" % m
        )
    scaled = tuple(tuple(float(x) / m for x in row) for row in a)
    return NormalizedDerivation(scaled, m, False)


# ------------------------------------------------------------------- datum --

@dataclass(frozen=True)
class HeintzeData:
    nil: LieLaw
    alpha: tuple
    normalized: NormalizedDerivation
    spectral: SpectralSummary

    def extension(self, label: str = "A") -> LieLaw:
        return semidirect_rank_one(self.nil, [list(r) for r in self.alpha], label)


def heintze_check(nil: LieLaw, alpha) -> HeintzeData:
    a = matrix(alpha)
    if len(a) != nil.dim:
        raise InputError(
            "derivation is %dx%d but the law has dimension %d"
            % (len(a), len(a[0]) if a else 0, nil.dim)
        )
    if not is_nilpotent(nil):
        raise PreconditionError("the extended law must be nilpotent")
    if not is_derivation(nil, a):
        raise PreconditionError("alpha is not a derivation of the given law")
    ss = spectral_summary(a)
    if not ss.all_roots_positive_real_part:
        raise PreconditionError(
            "spectrum of alpha is not in the open right half-plane (char poly %s)"
            % poly.format_poly(list(ss.char))
        )
    return HeintzeData(
        nil=nil,
        alpha=tuple(tuple(row) for row in a),
        normalized=normalize_derivation(a),
        spectral=ss,
    )


# -------------------------------------------------------------- invariants --

@dataclass(frozen=True)
class BoundaryInvariants:
    topdim: int
    cdim: object
    geodim: int
    pansu_bound: object
    exact: bool


def boundary_invariants(h: HeintzeData) -> BoundaryInvariants:
    topdim = h.nil.dim
    geodim = topdim + 1
    nd = h.normalized
    if nd.exact:
        cdim = trace([list(r) for r in nd.matrix])
        bound = -((Fraction(geodim - 1) / cdim) ** 2)
    else:
        cdim = sum(nd.matrix[i][i] for i in range(topdim))
        bound = -(((geodim - 1) / cdim) ** 2)
    return BoundaryInvariants(topdim, cdim, geodim, bound, nd.exact)


def amalgam(h1: HeintzeData, h2: HeintzeData, lam) -> HeintzeData:
    """Product of the nilpotent parts, acted on by the normalized derivations
    with the second one rescaled by lam."""
    lam = frac(lam)
    if lam <= 0:
        raise InputError("the amalgam ratio must be positive, got %s" % lam)
    if not (h1.normalized.exact and h2.normalized.exact):
        raise PreconditionError("amalgam needs exact normalizations on both sides")
    nil = direct_sum(h1.nil, h2.nil)
    a1 = [list(r) for r in h1.normalized.matrix]
    a2 = [[lam * x for x in r] for r in h2.normalized.matrix]
    return heintze_check(nil, block_diag([a1, a2]))


# ------------------------------------------------------------------ traits --

@dataclass(frozen=True)
class TraitReport:
    purely_real: bool
    carnot_type: bool


def heintze_traits(h: HeintzeData) -> TraitReport:
    purely_real = poly.all_roots_real(list(h.spectral.char))
    nd = h.normalized
    if not nd.exact:
        raise PreconditionError(
            "the carnot trait needs a rational normalization, got a numeric one"
        )
    n = h.nil.dim
    an = [list(r) for r in nd.matrix]
    e1 = Subspace.kernel(mat_sub(an, identity(n)), n)
    span = e1
    while True:
        grown = span.add(bracket_subspaces(h.nil, span, span))
        if grown.dim == span.dim:
            break
        span = grown
    return TraitReport(purely_real=purely_real, carnot_type=span.dim == n)


# -------------------------------------------------------------- classifier --

@dataclass(frozen=True)
class ClassificationVerdict:
    target: str                    # "real_hyperbolic" | "complex_hyperbolic_plane" | "none"
    n: int | None                  # real: dim of the space; complex: 2 (complex dim)
    commable_to: str | None        # complex case: "SU21" | "S_prime"
    evidence: tuple


def classify_hyperbolic(law: LieLaw) -> ClassificationVerdict:
    """Decide whether the law is the one underlying a real hyperbolic space,
    the complex hyperbolic plane, or neither.

    The verdict never depends on the basis the law is written in.
    """
    if not is_completely_solvable(law):
        raise PreconditionError("law is not completely solvable")
    n = law.dim
    evidence = []
    der = derived_algebra(law)
    if der.dim == n - 1:
        if bracket_subspaces(law, der, der).dim == 0:
            rows = der.basis()
            ss = spectral_summary(restrict(law.ad(extend_to_basis(rows, n)[0]), rows))
            if ss.is_unipotent_after_scaling:
                return ClassificationVerdict(
                    target="real_hyperbolic",
                    n=n,
                    commable_to=None,
                    evidence=(
                        "derived subalgebra is abelian of codimension one",
                        "the action on it has a single nonzero eigenvalue",
                    ),
                )
            evidence.append(
                "codimension-one abelian derived subalgebra, but the action "
                "has char poly %s" % poly.format_poly(list(ss.char))
            )
        else:
            evidence.append("codimension-one derived subalgebra is not abelian")
    else:
        evidence.append(
            "derived subalgebra has codimension %d, not 1" % (n - der.dim)
        )
    if n == 4:
        cert = h2c_certificate(law)
        if cert.applies:
            squarefree = poly.is_squarefree(min_poly(cert.induced))
            return ClassificationVerdict(
                target="complex_hyperbolic_plane",
                n=2,
                commable_to="SU21" if squarefree else "S_prime",
                evidence=(
                    "Heisenberg derived subalgebra with eigenvalue pattern (1,1,2)",
                    "induced transverse action is "
                    + ("semisimple" if squarefree else "not semisimple"),
                ),
            )
        evidence.append(cert.reason)
    else:
        evidence.append("dimension %d rules out the complex hyperbolic plane" % n)
    return ClassificationVerdict(
        target="none", n=None, commable_to=None, evidence=tuple(evidence)
    )


# ----------------------------------------------------------------- table 2 --

@dataclass(frozen=True)
class Table2Row:
    label: str
    datum: HeintzeData
    verdict: ClassificationVerdict
    invariants: BoundaryInvariants
    traits: TraitReport


@dataclass(frozen=True)
class Table2Report:
    blocks: tuple          # tuple of tuples of Table2Row
    consistent: tuple      # per block: rows agree on (target, n, commable_to)
    dashed: tuple          # indices of the two blocks joined by the dashed rule
    dashed_note: str


def table2_report() -> Table2Report:
    """Catalog of the low-dimensional purely real data, grouped so that rows
    in one block have equal boundaries; sample parameters 3/2 and 2 stand in
    for the generic ones.
    """
    from .catalog import catalog

    lam = Fraction(3, 2)
    mu = Fraction(2)
    r2 = LieLaw(2, {}, basis=("X1", "X2"))
    r3 = LieLaw(3, {}, basis=("X1", "X2", "X3"))
    heis = catalog("heis(3)")
    spec_blocks = (
        (("R2 x| diag(1, 3/2)", r2, diagonal(1, lam)),),
        (
            ("R2 x| diag(1, 1)", r2, diagonal(1, 1)),
            ("R2 x| J2(3/2)", r2, jordan_block(lam, 2)),
        ),
        (
            ("R3 x| diag(1, 3/2, 3/2)", r3, diagonal(1, lam, lam)),
            ("R3 x| (1) + J2(3/2)", r3, block_diag([[[Fraction(1)]], jordan_block(lam, 2)])),
        ),
        (
            ("R3 x| diag(1, 1, 3/2)", r3, diagonal(1, 1, lam)),
            ("R3 x| J2(1) + (3/2)", r3, block_diag([jordan_block(1, 2), [[lam]]])),
        ),
        (
            ("R3 x| diag(1, 1, 1)", r3, diagonal(1, 1, 1)),
            ("R3 x| (1) + J2(1)", r3, block_diag([[[Fraction(1)]], jordan_block(1, 2)])),
            ("R3 x| J3(1)", r3, jordan_block(1, 3)),
        ),
        (("R3 x| diag(1, 3/2, 2)", r3, diagonal(1, lam, mu)),),
        (("heis x| diag(1, 3/2, 5/2)", heis, diagonal(1, lam, 1 + lam)),),
        (
            ("heis x| diag(1, 1, 2)", heis, diagonal(1, 1, 2)),
            ("heis x| J2(1) + (2)", heis, block_diag([jordan_block(1, 2), [[mu]]])),
        ),
    )
    blocks = []
    consistent = []
    for rows_spec in spec_blocks:
        rows = []
        for label, nil, alpha in rows_spec:
            datum = heintze_check(nil, alpha)
            rows.append(
                Table2Row(
                    label=label,
                    datum=datum,
                    verdict=classify_hyperbolic(datum.extension()),
                    invariants=boundary_invariants(datum),
                    traits=heintze_traits(datum),
                )
            )
        blocks.append(tuple(rows))
        # rows of one block must land on the same model space; the finer
        # commable_to label may differ inside the complex block
        keys = {(r.verdict.target, r.verdict.n) for r in rows}
        consistent.append(len(keys) == 1)
    return Table2Report(
        blocks=tuple(blocks),
        consistent=tuple(consistent),
        dashed=(5, 6),
        dashed_note="unresolved by this tool",
    )
