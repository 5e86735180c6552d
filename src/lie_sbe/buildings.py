"""Conformal dimension bookkeeping for right-angled Fuchsian buildings.

The building with parameters (p, q) has chambers that are p-gons, q of them
glued along each panel.  Its boundary has conformal dimension

    1 + log(q - 1) / arcosh((p - 2) / 2),

and two buildings share that value exactly when a pair of integer identities
holds between their parameters: a power identity on q - 1 and a Chebyshev
identity on (p - 2) / 2.  Everything arithmetic here is exact; only the
final conformal-dimension values are floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import InputError, LieSbeError
from .linalg import frac

MAX_BOUND = 64


def _chebyshev_values(x: Fraction):
    """T_0(x), T_1(x), T_2(x), ... by the three-term recurrence."""
    prev, cur = Fraction(1), x
    while True:
        yield prev
        prev, cur = cur, 2 * x * cur - prev


def chebyshev(k: int, x) -> Fraction:
    """First-kind Chebyshev value T_k(x), exact."""
    if k < 0:
        raise InputError("chebyshev index must be nonnegative, got %d" % k)
    return next(islice(_chebyshev_values(frac(x)), k, None))


def _check_params(p: int, q: int):
    if not (isinstance(p, int) and p >= 5):
        raise InputError("p must be an integer >= 5, got %r" % (p,))
    if not (isinstance(q, int) and q >= 2):
        raise InputError("q must be an integer >= 2, got %r" % (q,))


@dataclass(frozen=True)
class CdimValue:
    p: int
    q: int
    value: float
    exact_one: bool          # q = 2 collapses the boundary to a circle
    tau: tuple               # (r, s) with the translation length tau = r + sqrt(s)


def building_cdim(p: int, q: int) -> CdimValue:
    _check_params(p, q)
    r = Fraction(p - 2, 2)
    s = r * r - 1
    if q == 2:
        return CdimValue(p, q, 1.0, True, (r, s))
    value = 1.0 + math.log(q - 1) / math.acosh((p - 2) / 2.0)
    return CdimValue(p, q, value, False, (r, s))


def _check_bound(bound):
    if not (1 <= bound <= MAX_BOUND):
        raise InputError("bound must be between 1 and %d, got %r" % (MAX_BOUND, bound))


def tyson_identities(p: int, q: int, p2: int, q2: int, bound: int):
    """The primitive pair (m, n) with 1 <= m, n <= bound satisfying both

        (q2 - 1)^m = (q - 1)^n
        T_m((p2 - 2)/2) = T_n((p - 2)/2)

    exactly, as a one-element list, or [] if there is none.

    With x = (p - 2)/2 = cosh(a) > 1, T_n(x) = cosh(na) grows strictly in n,
    so the Chebyshev identity holds exactly on the multiples of its first
    pair, and the power identity on the multiples of one pair (or on every
    pair when q = q2 = 2).  So both hold on the multiples of the first
    Chebyshev pair if the power identity holds there, and nowhere otherwise.
    """
    _check_params(p, q)
    _check_params(p2, q2)
    _check_bound(bound)
    ts = _chebyshev_values(Fraction(p - 2, 2))
    n, t = 0, next(ts)
    for m, t2 in enumerate(islice(_chebyshev_values(Fraction(p2 - 2, 2)), 1, bound + 1), 1):
        while t < t2 and n < bound:
            n, t = n + 1, next(ts)
        if t == t2:
            return [(m, n)] if (q2 - 1) ** m == (q - 1) ** n else []
        if t < t2:
            break
    return []


@dataclass(frozen=True)
class SearchHit:
    p: int
    q: int
    p2: int
    q2: int
    witnesses: tuple
    cdim: float
    cdim2: float


def equal_cdim_search(p_max: int, q_max: int, bound: int):
    """All parameter pairs (p, q) < (p2, q2) within the given ranges whose
    conformal dimensions agree, certified by exact witnesses.

    The degenerate line q = q2 = 2 with p != p2 is skipped: every such pair
    has conformal dimension exactly 1 and carries no identity content.
    Every emitted hit has its two float values agreeing to 1e-9; a
    disagreement would mean the identities are wrong and raises.
    """
    _check_bound(bound)
    if not (5 <= p_max <= MAX_BOUND):
        raise InputError("p_max must be between 5 and %d, got %r" % (MAX_BOUND, p_max))
    if not (2 <= q_max <= MAX_BOUND):
        raise InputError("q_max must be between 2 and %d, got %r" % (MAX_BOUND, q_max))
    params = [(p, q) for p in range(5, p_max + 1) for q in range(2, q_max + 1)]
    hits = []
    for a, (p, q) in enumerate(params):
        for p2, q2 in params[a + 1:]:
            if q == 2 and q2 == 2 and p != p2:
                continue
            witnesses = tyson_identities(p, q, p2, q2, bound)
            if not witnesses:
                continue
            c1 = building_cdim(p, q).value
            c2 = building_cdim(p2, q2).value
            if abs(c1 - c2) > 1e-9:
                raise LieSbeError(
                    "witnessed pair (%d,%d)/(%d,%d) has mismatched values %r, %r"
                    % (p, q, p2, q2, c1, c2)
                )
            hits.append(SearchHit(p, q, p2, q2, tuple(witnesses), c1, c2))
    return hits
