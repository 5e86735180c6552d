import math
import random
from fractions import Fraction

import pytest

from lie_sbe import polynomials as poly
from lie_sbe.linalg import char_poly


def _p(*coeffs):
    # ascending powers, trailing zeros trimmed
    return poly.normalize([Fraction(c) for c in coeffs])


def test_arithmetic_round_trip_random():
    rng = random.Random(21)
    for _ in range(20):
        a = _p(*[rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
        b = _p(*[rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
        if poly.is_zero(b):
            continue
        q, r = poly.divmod_poly(a, b)
        assert poly.sub(poly.add(poly.mul(q, b), r), a) == []
        assert poly.degree(r) < poly.degree(b) or poly.is_zero(r)


def test_evaluate_and_shift():
    p = _p(1, 0, 1)  # x^2 + 1
    assert poly.evaluate(p, Fraction(2)) == 5
    shifted = poly.compose_shift(p, Fraction(3))  # p(x+3)
    for x in (-2, 0, 1, Fraction(1, 2)):
        assert poly.evaluate(shifted, Fraction(x)) == poly.evaluate(p, Fraction(x) + 3)


def test_count_real_roots_on_factored_products():
    # (x-1)(x+2)(x^2+1): two real roots
    p = poly.mul(poly.mul(_p(-1, 1), _p(2, 1)), _p(1, 0, 1))
    assert poly.count_real_roots(p) == 2
    assert poly.count_real_roots(p, Fraction(0), Fraction(5)) == 1
    assert not poly.all_roots_real(p)
    assert poly.all_roots_real(poly.mul(_p(-1, 1), _p(3, 1)))


def test_sturm_counts_distinct_roots_only():
    p = poly.mul(_p(-1, 1), _p(-1, 1))  # (x-1)^2
    assert poly.count_real_roots(p) == 1


def test_rational_roots_with_multiplicity():
    # (x - 1/2)^2 (x + 3) x
    p = poly.mul(poly.mul(poly.mul(_p(Fraction(-1, 2), 1), _p(Fraction(-1, 2), 1)), _p(3, 1)), _p(0, 1))
    assert poly.rational_roots(p) == [
        (Fraction(-3), 1),
        (Fraction(0), 1),
        (Fraction(1, 2), 2),
    ]
    assert poly.splits_over_q(p)
    assert not poly.splits_over_q(_p(-2, 0, 1))  # x^2 - 2


def _reference_divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _reference_rational_roots(p):
    """The former divisor search: every num/den with num | a_0, den | a_n,
    deflating each root found.  Exponential in the size of the coefficients."""
    p = poly.normalize(p)
    if poly.degree(p) <= 0:
        return []
    den = math.lcm(*(c.denominator for c in p))
    ip = [int(c * den) for c in p]
    roots = {}
    while ip and ip[0] == 0:
        roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
        ip = ip[1:]
    work = poly.normalize([Fraction(c) for c in ip])
    cont = math.gcd(*(abs(int(c)) for c in work)) if work else 1
    if cont > 1:
        work = [c / cont for c in work]
    while poly.degree(work) >= 1:
        found = next((Fraction(s * num, dnm)
                      for num in _reference_divisors(int(work[0]))
                      for dnm in _reference_divisors(int(work[-1]))
                      for s in (1, -1)
                      if poly.evaluate(work, Fraction(s * num, dnm)) == 0), None)
        if found is None:
            break
        roots[found] = roots.get(found, 0) + 1
        work, rem = poly.divmod_poly(work, [-found, Fraction(1)])
        assert poly.is_zero(rem)
        d2 = math.lcm(*(c.denominator for c in work)) if work else 1
        work = poly.normalize([c * d2 for c in work])
    return sorted(roots.items())


def test_rational_roots_match_the_divisor_search():
    rng = random.Random(13)
    for _ in range(300):
        p = _p(Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)))
        for _ in range(rng.randint(0, 4)):
            p = poly.mul(p, _p(Fraction(rng.randint(-6, 6), rng.randint(1, 4)), rng.randint(1, 5)))
        if rng.random() < 0.5:
            p = poly.mul(p, _p(rng.randint(-5, 5), rng.randint(-3, 3), rng.randint(1, 3)))
        assert poly.rational_roots(p) == _reference_rational_roots(p)


def test_rational_roots_with_huge_coefficients():
    # a divisor search tries every d <= sqrt(|a_0|): about 10^12 steps here
    assert poly.rational_roots(_p(1 + 10 ** 24, -2, 1)) == []
    big = Fraction(10 ** 12, 7)
    p = poly.mul(poly.mul(_p(-big, 1), _p(-big, 1)), _p(10 ** 12 + 1, 3))
    assert poly.rational_roots(p) == [(Fraction(-(10 ** 12 + 1), 3), 1), (big, 2)]
    assert poly.rational_roots(_p(10 ** 16, 1)) == [(Fraction(-(10 ** 16)), 1)]


def test_squarefree_and_gcd():
    p = poly.mul(_p(-1, 1), poly.mul(_p(-1, 1), _p(2, 1)))
    sf = poly.monic(poly.squarefree_part(p))
    assert sf == poly.monic(poly.mul(_p(-1, 1), _p(2, 1)))
    g = poly.gcd(p, poly.derivative(p))
    assert poly.monic(g) == _p(-1, 1)


def test_routh_hurwitz_literals():
    assert poly.all_roots_positive_real_part(_p(2, -3, 1))  # (x-1)(x-2)
    assert poly.all_roots_positive_real_part(_p(2, -2, 1))  # 1 +- i
    assert not poly.all_roots_positive_real_part(_p(-2, -1, 1))  # (x+1)(x-2)
    assert not poly.all_roots_positive_real_part(_p(1, 0, 1))  # imaginary axis
    assert not poly.all_roots_positive_real_part(_p(0, 1))  # root at 0
    with pytest.raises(ValueError):
        poly.all_roots_positive_real_part(_p(5))


def test_routh_hurwitz_against_known_spectra():
    rng = random.Random(22)
    for _ in range(10):
        n = rng.randint(2, 5)
        diag = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n)]
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = diag[i]
            for j in range(i + 1, n):
                m[i][j] = Fraction(rng.randint(-3, 3))
        assert poly.all_roots_positive_real_part(char_poly(m))
        m[0][0] = Fraction(-1)
        assert not poly.all_roots_positive_real_part(char_poly(m))


def test_all_roots_imaginary():
    x = _p(0, 1)
    assert poly.all_roots_imaginary(poly.mul(x, poly.mul(_p(1, 0, 1), _p(1, 0, 1))))  # x(x^2+1)^2
    assert poly.all_roots_imaginary(_p(0, 0, 1))  # x^2: a double root at zero
    assert not poly.all_roots_imaginary(_p(-1, 0, 1))  # x^2 - 1
    assert not poly.all_roots_imaginary(_p(0, 1, 1))  # x^2 + x
    assert poly.all_roots_imaginary(_p(3))  # a constant has no roots


def test_all_roots_real_matches_sturm_on_char_polys():
    rng = random.Random(23)
    for _ in range(8):
        n = 3
        sym = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sym[i][j] = sym[j][i] = Fraction(rng.randint(-3, 3))
        assert poly.all_roots_real(char_poly(sym))  # symmetric: real spectrum
