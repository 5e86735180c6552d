"""Exact univariate polynomial routines over the rationals.

Polynomials are lists of Fraction coefficients, low degree first, with no
trailing zeros (the zero polynomial is the empty list).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import frac


def normalize(p) -> list:
    q = [frac(c) for c in p]
    while q and q[-1] == 0:
        q.pop()
    return q


def degree(p) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def is_zero(p) -> bool:
    return len(p) == 0


def add(p, q) -> list:
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return normalize(out)


def sub(p, q) -> list:
    return add(p, [-c for c in q])


def mul(p, q) -> list:
    if is_zero(p) or is_zero(q):
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return normalize(out)


def evaluate(p, x) -> Fraction:
    x = frac(x)
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def derivative(p) -> list:
    return normalize([i * c for i, c in enumerate(p)][1:])


def divmod_poly(p, q):
    if is_zero(q):
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq = degree(q)
    lead = q[-1]
    while len(rem) - 1 >= dq and rem:
        f = rem[-1] / lead
        k = len(rem) - 1 - dq
        quo[k] = f
        for i, c in enumerate(q):
            rem[k + i] -= f * c
        rem = normalize(rem)
        if not rem:
            break
    return normalize(quo), normalize(rem)


def monic(p) -> list:
    p = normalize(p)
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def gcd(p, q) -> list:
    a, b = normalize(p), normalize(q)
    while not is_zero(b):
        _, r = divmod_poly(a, b)
        a, b = b, r
    return monic(a)


def squarefree_part(p) -> list:
    p = normalize(p)
    if degree(p) <= 0:
        return monic(p)
    g = gcd(p, derivative(p))
    q, _ = divmod_poly(p, g)
    return monic(q)


def compose_shift(p, a) -> list:
    """p(x + a)."""
    a = frac(a)
    out = []
    # Horner on the shifted variable
    for c in reversed(p):
        out = add(mul(out, [a, Fraction(1)]), [c])
    return normalize(out)


def sturm_sequence(p) -> list:
    p = normalize(p)
    seq = [p, derivative(p)]
    while not is_zero(seq[-1]) and degree(seq[-1]) > 0:
        _, r = divmod_poly(seq[-2], seq[-1])
        if is_zero(r):
            break
        seq.append([-c for c in r])
    return [s for s in seq if not is_zero(s)]


def _sign_changes(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations_at(seq, x) -> int:
    return _sign_changes([evaluate(s, x) for s in seq])


def _variations_at_inf(seq, positive: bool) -> int:
    vals = []
    for s in seq:
        lead = s[-1]
        d = degree(s)
        if positive:
            vals.append(lead)
        else:
            vals.append(lead if d % 2 == 0 else -lead)
    return _sign_changes(vals)


def count_real_roots(p, lo=None, hi=None) -> int:
    """Number of distinct real roots in (lo, hi]; None means +-infinity."""
    p = squarefree_part(p)
    if degree(p) <= 0:
        return 0
    seq = sturm_sequence(p)
    va = _variations_at_inf(seq, False) if lo is None else _variations_at(seq, lo)
    vb = _variations_at_inf(seq, True) if hi is None else _variations_at(seq, hi)
    return va - vb


def all_roots_real(p) -> bool:
    s = squarefree_part(p)
    if degree(s) <= 0:
        return True
    return count_real_roots(s) == degree(s)


def all_roots_imaginary(p) -> bool:
    """Does every root of p lie on the imaginary axis (zero included)?"""
    p = normalize(p)
    while p and p[0] == 0:
        p = p[1:]
    if degree(p) <= 0:
        return True
    # nonzero roots must come in pairs +-i*tau: only even powers may appear
    if any(p[1::2]):
        return False
    r = p[0::2]                               # p(x) = r(x^2)
    return all_roots_real(r) and count_real_roots(r, None, Fraction(0)) == count_real_roots(r)


def is_squarefree(p) -> bool:
    p = normalize(p)
    if degree(p) <= 0:
        return True
    return degree(gcd(p, derivative(p))) == 0


def _integral(p) -> list:
    """p times the lcm of its denominators: int coefficients, the same signs."""
    den = math.lcm(*(c.denominator for c in p))
    return [int(c * den) for c in p]


def _horner(coeffs, x):
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def rational_roots(p) -> list:
    """Rational roots with multiplicities, as sorted (root, multiplicity) pairs.

    With the squarefree part cleared to integer coefficients c_0..c_d, the
    substitution x = y / c_d makes g(y) = c_d^(d-1) f(y / c_d) monic over the
    integers, so its rational roots are integers, all inside the Cauchy bound.
    Sturm counts bisect that range down to unit intervals (lo, lo + 1], about
    log2 of the bound steps per real root, and each root is read off at the
    right end.  A root's multiplicity is the number of derivatives of p that
    vanish there.
    """
    p = normalize(p)
    if degree(p) <= 0:
        return []
    c = _integral(squarefree_part(p))
    d, lead = len(c) - 1, c[-1]
    g = [Fraction(c[i] * lead ** (d - 1 - i)) for i in range(d)] + [Fraction(1)]
    bound = 1 + max(abs(x) for x in g)        # every root has |y| < bound
    seq = [_integral(q) for q in sturm_sequence(g)]

    def variations(y):
        return _sign_changes([_horner(q, y) for q in seq])

    found = []
    stack = [(-bound, bound, variations(-bound), variations(bound))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()        # vlo - vhi roots in (lo, hi]
        if vlo == vhi:
            continue
        if hi - lo == 1:
            if _horner(seq[0], hi) == 0:
                found.append(Fraction(hi, lead))
            continue
        mid = (lo + hi) // 2
        vmid = variations(mid)
        stack += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
    out = []
    for r in sorted(found):
        mult, q = 1, derivative(p)
        while evaluate(q, r) == 0:
            mult, q = mult + 1, derivative(q)
        out.append((r, mult))
    return out


def splits_over_q(p) -> bool:
    return sum(m for _, m in rational_roots(p)) == degree(p)


def all_roots_positive_real_part(p) -> bool:
    """True iff every complex root of p has strictly positive real part.

    Routh-Hurwitz on p(-x); a zero leading first-column entry or a vanishing
    row means roots on the imaginary axis or worse, so the strict test fails.
    """
    p = normalize(p)
    if degree(p) < 1:
        raise ValueError("need a nonconstant polynomial")
    q = [c if i % 2 == 0 else -c for i, c in enumerate(p)]  # p(-x)
    desc = list(reversed(monic(q)))
    n = len(desc) - 1
    if n == 0:
        return True
    row0 = desc[0::2]
    row1 = desc[1::2]
    width = len(row0)
    row1 += [Fraction(0)] * (width - len(row1))
    first_col = [row0[0]]
    prev, cur = row0, row1
    for _ in range(n):
        if cur[0] == 0:
            return False
        first_col.append(cur[0])
        nxt = []
        for i in range(width - 1):
            a = prev[i + 1] if i + 1 < len(prev) else Fraction(0)
            b = cur[i + 1] if i + 1 < len(cur) else Fraction(0)
            nxt.append((cur[0] * a - prev[0] * b) / cur[0])
        nxt.append(Fraction(0))
        if all(x == 0 for x in nxt) and len(first_col) < n + 1:
            return False
        prev, cur = cur, nxt
        if len(first_col) == n + 1:
            break
    if len(first_col) < n + 1:
        return False
    return all(x > 0 for x in first_col) or all(x < 0 for x in first_col)


def format_poly(p, var: str = "x") -> str:
    p = normalize(p)
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        else:
            xs = var if i == 1 else "%s^%d" % (var, i)
            if c == 1:
                term = xs
            elif c == -1:
                term = "-" + xs
            else:
                term = "%s*%s" % (c, xs)
        parts.append(term)
    out = parts[0]
    for t in parts[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out
