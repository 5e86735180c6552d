import math
from fractions import Fraction

import pytest

from lie_sbe.buildings import (
    MAX_BOUND,
    building_cdim,
    chebyshev,
    equal_cdim_search,
    tyson_identities,
)
from lie_sbe.errors import InputError


def test_chebyshev_base_cases_and_recurrence():
    assert chebyshev(0, Fraction(7, 3)) == 1
    assert chebyshev(1, Fraction(7, 3)) == Fraction(7, 3)
    x = Fraction(5, 2)
    for k in range(2, 12):
        assert chebyshev(k, x) == 2 * x * chebyshev(k - 1, x) - chebyshev(k - 2, x)


def test_chebyshev_matches_cosine_on_the_interval():
    for k in range(8):
        for t in (-0.9, -0.3, 0.0, 0.5, 0.8):
            want = math.cos(k * math.acos(t))
            got = float(chebyshev(k, Fraction(t).limit_denominator(10**6)))
            assert abs(got - want) < 1e-6


def test_chebyshev_composition():
    # T_m(T_n(x)) = T_{mn}(x)
    x = Fraction(3, 2)
    for m in (2, 3):
        for n in (2, 4):
            assert chebyshev(m, chebyshev(n, x)) == chebyshev(m * n, x)
    # the doubling that links the hexagon to the 16-gon
    assert chebyshev(2, Fraction(2)) == Fraction(7)


def test_chebyshev_rejects_negative_index():
    with pytest.raises(InputError):
        chebyshev(-1, Fraction(1))


def test_building_cdim_values():
    v = building_cdim(5, 2)
    assert v.value == 1.0 and v.exact_one
    assert v.tau == (Fraction(3, 2), Fraction(5, 4))

    w = building_cdim(5, 3)
    assert not w.exact_one
    want = 1.0 + math.log(2) / math.acosh(1.5)
    assert abs(w.value - want) < 1e-12
    assert w.tau == (Fraction(3, 2), Fraction(5, 4))

    big = building_cdim(16, 5)
    assert abs(big.value - (1.0 + math.log(4) / math.acosh(7.0))) < 1e-12


def test_building_cdim_rejects_bad_parameters():
    with pytest.raises(InputError):
        building_cdim(4, 3)
    with pytest.raises(InputError):
        building_cdim(5, 1)
    with pytest.raises(InputError):
        building_cdim("5", 3)


def _reference_tyson(p, q, p2, q2, bound, include_imprimitive=False):
    """The double loop over (m, n) <= bound with its primitivity filter."""
    x, x2 = Fraction(p - 2, 2), Fraction(p2 - 2, 2)
    cheb = [None] + [chebyshev(n, x) for n in range(1, bound + 1)]
    cheb2 = [None] + [chebyshev(m, x2) for m in range(1, bound + 1)]
    raw = set()
    for m in range(1, bound + 1):
        lhs = (q2 - 1) ** m
        for n in range(1, bound + 1):
            if lhs == (q - 1) ** n and cheb2[m] == cheb[n]:
                raw.add((m, n))
    if include_imprimitive:
        return sorted(raw)
    out = []
    for m, n in sorted(raw):
        reducible = any(
            m % t == 0 and n % t == 0 and (m // t, n // t) in raw
            for t in range(2, m + 1)
        )
        if not reducible:
            out.append((m, n))
    return out


def test_tyson_identities_matches_the_double_loop():
    for p in range(5, 13):
        for q in range(2, 6):
            for p2 in range(5, 13):
                for q2 in range(2, 6):
                    for bound in (1, 2, 5, 12):
                        want = _reference_tyson(p, q, p2, q2, bound)
                        assert tyson_identities(p, q, p2, q2, bound) == want, \
                            (p, q, p2, q2, bound)
    for case in ((6, 3, 16, 5), (7, 4, 7, 4), (5, 3, 6, 3)):
        assert tyson_identities(*case, 64) == _reference_tyson(*case, 64)


def test_tyson_identities_hexagon_vs_16gon():
    assert tyson_identities(6, 3, 16, 5, 10) == [(1, 2)]
    sup = _reference_tyson(6, 3, 16, 5, 10, include_imprimitive=True)
    assert set(sup) >= {(1, 2), (2, 4)}
    # every witness, primitive or not, is a multiple of the returned pair
    [(m0, n0)] = tyson_identities(6, 3, 16, 5, 10)
    assert all(m % m0 == 0 and n == m // m0 * n0 for m, n in sup)


def test_tyson_identities_symmetric_pair():
    assert tyson_identities(7, 4, 7, 4, 6) == [(1, 1)]


def test_tyson_identities_absent():
    assert tyson_identities(5, 3, 6, 3, 12) == []


def test_tyson_identities_bound_guard():
    with pytest.raises(InputError):
        tyson_identities(6, 3, 16, 5, MAX_BOUND + 1)
    with pytest.raises(InputError):
        tyson_identities(6, 3, 16, 5, 0)


def test_equal_cdim_search_known_hits():
    hits = equal_cdim_search(20, 6, 4)
    keys = {(h.p, h.q, h.p2, h.q2) for h in hits}
    assert (5, 3, 9, 5) in keys
    assert (6, 3, 16, 5) in keys
    for h in hits:
        assert abs(h.cdim - h.cdim2) < 1e-9
        assert h.witnesses
        assert not (h.q == 2 and h.q2 == 2)


def test_equal_cdim_search_guards():
    with pytest.raises(InputError):
        equal_cdim_search(4, 6, 4)
    with pytest.raises(InputError):
        equal_cdim_search(20, 1, 4)
    # the pair loop is quadratic in p_max * q_max, so q_max is capped like p_max
    with pytest.raises(InputError, match="q_max must be between 2 and 64, got 65"):
        equal_cdim_search(5, MAX_BOUND + 1, 1)


def test_equal_cdim_search_checks_the_bound_without_a_pair_to_try():
    # every pair of (6, 2) lies on the skipped q = q2 = 2 line; (5, 2) has none
    for p_max in (5, 6):
        with pytest.raises(InputError, match="bound must be between 1 and 64"):
            equal_cdim_search(p_max, 2, 999)
        with pytest.raises(InputError):
            equal_cdim_search(p_max, 2, 0)
