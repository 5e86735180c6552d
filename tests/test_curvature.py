import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import lie_sbe
from lie_sbe import catalog, curvature
from lie_sbe.curvature import (
    MAX_SAMPLES,
    _critical_offsets,
    _plane_curvatures,
    alpha_from_law,
    bianchi_residual,
    curvature_tensor,
    frame_matrices,
    pansu_consistency,
    pinching_estimate,
    sectional,
)
from lie_sbe.errors import InputError, PreconditionError
from lie_sbe.laws import LieLaw
from lie_sbe.linalg import inverse, mat_mul, matrix


def test_alpha_from_law_splits_the_last_coordinate():
    a = alpha_from_law(catalog("b(3,R)"))
    assert a == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    a2 = alpha_from_law(catalog("s_second"))
    assert a2 == [
        [Fraction(1), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(2)],
    ]


def test_alpha_from_law_rejections():
    # brackets inside the complement
    with pytest.raises(PreconditionError):
        alpha_from_law(catalog("s_prime"))
    # the acting direction shows up in its own bracket
    with pytest.raises(PreconditionError):
        alpha_from_law(LieLaw(2, {(0, 1): {1: Fraction(1)}}))
    with pytest.raises(PreconditionError):
        alpha_from_law(LieLaw(1, {}))


def test_frame_identity_alpha():
    fr = frame_matrices([[1, 0], [0, 1]], 0.5)
    assert fr.n == 2
    assert fr.layout.exact
    assert fr.layout.real_blocks == (1, 1)
    assert fr.layout.complex_blocks == ()
    assert np.array_equal(fr.m, np.eye(2))
    assert np.array_equal(fr.d, np.eye(2))
    assert np.array_equal(fr.s, np.zeros((2, 2)))
    assert fr.trace == 2.0


def test_frame_jordan_block_carries_eps():
    fr = frame_matrices([[1, 1], [0, 1]], 0.25)
    assert fr.layout.real_blocks == (2,)
    assert fr.m.tolist() == [[1.0, 0.25], [0.0, 1.0]]
    # the structure matrix is determined by the symmetric/skew split
    assert np.allclose(fr.nmat, fr.d @ fr.d + fr.d @ fr.s - fr.s @ fr.d)
    assert np.allclose(fr.d, (fr.m + fr.m.T) / 2.0)
    assert np.allclose(fr.s, (fr.m - fr.m.T) / 2.0)


def test_frame_rotation_pair_is_exact():
    fr = frame_matrices([[1, 2], [-2, 1]], 0.5)
    assert fr.layout.exact
    assert fr.layout.real_blocks == ()
    ((tau, d),) = fr.layout.complex_blocks
    assert d == 1 and tau == 2.0


def test_numeric_layout_stores_python_floats():
    rot23 = [[1.0, -2.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0],
             [0.0, 0.0, 1.0, -3.0], [0.0, 0.0, 3.0, 1.0]]
    # I + the companion matrix of x^4 + 4x^2 + 2: tau^2 = 2 -+ sqrt(2) is irrational
    irrational = [[1, 0, 0, -2], [1, 1, 0, 0], [0, 1, 1, -4], [0, 0, 1, 1]]
    for alpha, taus in ((rot23, [2.0, 3.0]),
                        (irrational, [math.sqrt(2 - math.sqrt(2)), math.sqrt(2 + math.sqrt(2))])):
        blocks = frame_matrices(alpha, 0.5).layout.complex_blocks
        assert all(type(tau) is float for tau, _ in blocks)
        assert [d for _, d in blocks] == [1, 1]
        assert all(abs(tau - want) < 1e-9 for (tau, _), want in zip(blocks, taus))


def test_frame_mixed_real_and_rotation():
    fr = frame_matrices([[1, 0, 0], [0, 1, 2], [0, -2, 1]], 0.5)
    assert fr.layout.real_blocks == (1,)
    ((tau, d),) = fr.layout.complex_blocks
    assert d == 1 and abs(tau - 2.0) < 1e-9
    assert abs(fr.trace - 3.0) < 1e-12


def test_frame_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        frame_matrices([[1, 0], [0, 2]], 0.5)  # uneven real parts
    with pytest.raises(PreconditionError):
        frame_matrices([[1, 0], [0, 1]], 0.0)
    with pytest.raises(PreconditionError):
        frame_matrices([[-1, 0], [0, -1]], 0.5)


TIES = {
    "I2+rot2": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, -2], [0, 0, 2, 1]],
    "rot2+rot2": [[1, -2, 0, 0], [2, 1, 0, 0], [0, 0, 1, -2], [0, 0, 2, 1]],
}


@pytest.mark.parametrize("label", TIES)
@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
def test_tied_real_parts_give_minus_one(label, eps):
    # real part 1 throughout, with no real eigenvalue or a repeated complex
    # pair there: the frame is normal, so every plane has curvature -1
    rep = pinching_estimate(TIES[label], eps, samples=500, seed=3)
    assert rep.frame.layout.exact
    assert abs(rep.sec_min + 1.0) <= 1e-9 and abs(rep.sec_max + 1.0) <= 1e-9


def test_huge_rotation_is_exact():
    # the characteristic polynomial's constant term is 10^16 + 1; a divisor
    # search for the rational roots of y + 10^16 would take seconds
    rep = pinching_estimate([[1, -10 ** 8], [10 ** 8, 1]], 0.1, samples=200)
    assert rep.frame.layout.exact
    assert rep.frame.layout.complex_blocks == ((1e8, 1),)
    assert abs(rep.sec_min + 1.0) <= 1e-9 and abs(rep.sec_max + 1.0) <= 1e-9


def test_frame_rejects_a_jordan_block_next_to_a_larger_real_part():
    # the mean real part 4/3 is no eigenvalue, so alpha / m has real parts 3/4, 3/2
    with pytest.raises(PreconditionError, match="uneven real parts"):
        frame_matrices([[1, 1, 0], [0, 1, 0], [0, 0, 2]], 0.5)
    with pytest.raises(PreconditionError, match="uneven real parts"):
        frame_matrices([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]], 0.5)


def test_frame_rejects_a_nonpositive_mean_real_part():
    for alpha in ([[-3, 0], [0, 1]], [[-1.0, 0.0], [0.0, 1.0]], [[0, 1], [-1, 0]]):
        with pytest.raises(PreconditionError, match="mean real part"):
            frame_matrices(alpha, 0.5)
    with pytest.raises(InputError):
        frame_matrices([], 0.5)
    with pytest.raises(InputError):
        frame_matrices([[1, 0, 0], [0, 1, 0]], 0.5)


def test_sectional_is_minus_one_for_identity_alpha():
    fr = frame_matrices([[1, 0], [0, 1]], 0.5)
    assert abs(sectional(fr, [1, 0, 0], [0, 1, 0]) + 1.0) < 1e-12
    assert abs(sectional(fr, [1, 0, 0], [0, 0, 1]) + 1.0) < 1e-12
    assert abs(sectional(fr, [0.6, 0.8, 0], [0, 0, 1]) + 1.0) < 1e-12


def test_sectional_rejects_degenerate_plane():
    fr = frame_matrices([[1, 0], [0, 1]], 0.5)
    with pytest.raises(PreconditionError):
        sectional(fr, [1, 0, 0], [2, 0, 0])


def test_curvature_tensor_symmetries():
    fr = frame_matrices([[1, 1], [0, 1]], 0.3)
    rng = np.random.default_rng(7)
    for _ in range(10):
        x, y, z = (rng.standard_normal(3) for _ in range(3))
        assert np.allclose(curvature_tensor(fr, x, y, z),
                           -curvature_tensor(fr, y, x, z))
        u, v = rng.standard_normal(3), rng.standard_normal(3)
        # <R(u,v)v,u> is symmetric in the plane
        a = curvature_tensor(fr, u, v, v) @ u
        b = curvature_tensor(fr, v, u, u) @ v
        assert abs(a - b) < 1e-10
        assert bianchi_residual(fr, x, y, z) < 1e-10


def test_pinching_identity_alpha():
    rep = pinching_estimate([[1, 0], [0, 1]], 0.5, samples=300, seed=3)
    assert abs(rep.sec_min + 1.0) < 1e-9
    assert abs(rep.sec_max + 1.0) < 1e-9
    assert abs(rep.ratio - 1.0) < 1e-9
    assert rep.bianchi_max < 1e-10


def test_pinching_jordan_ratio_tightens_with_eps():
    ja = [[1, 1], [0, 1]]
    ratios = [pinching_estimate(ja, eps, samples=300, seed=3).ratio
              for eps in (1.0, 0.1, 0.01)]
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert ratios[2] < 1.1


def test_pinching_is_seed_reproducible():
    ja = [[1, 1], [0, 1]]
    a = pinching_estimate(ja, 0.1, samples=200, seed=11)
    b = pinching_estimate(ja, 0.1, samples=200, seed=11)
    assert a.sec_min == b.sec_min and a.sec_max == b.sec_max
    assert a.min_pair == b.min_pair


def test_pinching_needs_a_sample():
    for samples in (0, -5):
        with pytest.raises(PreconditionError, match="samples"):
            pinching_estimate([[1, 1], [0, 1]], 0.1, samples=samples)


def test_pinching_caps_the_samples():
    # refused before the frame is built or any plane is drawn
    with pytest.raises(PreconditionError, match="samples must be at most %d" % MAX_SAMPLES):
        pinching_estimate([[1, 1], [0, 1]], 0.1, samples=MAX_SAMPLES + 1)


def test_pinching_rejects_a_negative_seed():
    with pytest.raises(PreconditionError, match="^seed must be a non-negative integer, got -1$"):
        pinching_estimate([[1, 1], [0, 1]], 0.1, samples=10, seed=-1)


def test_frame_rejects_non_finite_entries():
    for alpha in ([[math.inf]], [[1.0, math.nan], [0.0, 1.0]]):
        with pytest.raises(InputError, match="finite"):
            frame_matrices(alpha, 1.0)


@pytest.mark.parametrize("eps, what", [(1e200, "curvature frame"), (1e154, "sampled curvature")])
def test_an_overflowing_eps_is_rejected_without_warnings(eps, what):
    # sectional curvatures grow like eps^2; past the float range the result
    # is refused, and no overflow warning escapes on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match=re.escape("the %s overflows at eps %r" % (what, eps))):
            pansu_consistency([[1, 1], [0, 1]], eps, samples=20)
        rep = pinching_estimate([[1, 1], [0, 1]], 1e150, samples=20)
    assert all(map(math.isfinite, (rep.sec_min, rep.sec_max, rep.bianchi_max)))


def test_pansu_consistency_holds_on_jordan():
    p = pansu_consistency([[1, 1], [0, 1]], 0.1, samples=300, seed=3)
    assert p.holds
    assert p.trace == 2.0
    assert p.bound >= p.trace
    assert p.b_est == math.sqrt(p.curvature.ratio)


# ----------------------------------------------- batched sampler vs. loop --

def _reference_orthonormal_pair(rng, n):
    while True:
        u = rng.standard_normal(n)
        nu = np.linalg.norm(u)
        if nu < 1e-8:
            continue
        u = u / nu
        v = rng.standard_normal(n)
        v = v - (v @ u) * u
        nv = np.linalg.norm(v)
        if nv < 1e-8:
            continue
        return u, v / nv


def _reference_coordinate_refine(frame, u, v, minimize, sweeps=3, radius=0.25):
    """The single-pair refine: the same exact line search as the library's,
    with one Jacobi operator per half-sweep and one scalar `sectional` call
    per checked step, on the pair (u, v) in place."""
    n1 = frame.n + 1
    eye = np.eye(n1)
    sign = 1.0 if minimize else -1.0
    best = sign * sectional(frame, u, v)
    for sweep in range(sweeps):
        r = radius / (4.0 ** sweep)
        for p, q in ((u, v), (v, u)):
            jac = curvature_tensor(frame, eye, q, q)
            jac = (jac + jac.T) / 2.0
            qq = float(q @ q)
            for i in range(n1):
                jp = jac @ p
                pq = float(p @ q)
                a = (float(p @ jp), 2.0 * float(jp[i]), float(jac[i, i]))
                b = (float(p @ p) * qq - pq * pq, 2.0 * (float(p[i]) * qq - pq * float(q[i])),
                     qq - float(q[i]) ** 2)
                t_best, k_best = 0.0, math.inf
                for t in [-r, r] + [t for t in _critical_offsets(a, b) if -r < t < r]:
                    den = b[0] + t * (b[1] + t * b[2])
                    if den <= 1e-12:
                        continue
                    k = sign * (a[0] + t * (a[1] + t * a[2])) / den
                    if k < k_best:
                        t_best, k_best = t, k
                if k_best == math.inf:
                    continue
                moved = p.copy()
                moved[i] += t_best
                val = sign * (sectional(frame, moved, q) if p is u else sectional(frame, q, moved))
                if val < best:
                    best = val
                    p[i] = moved[i]
    return sign * best, u, v


def _reference_pinching(alpha, eps, samples, seed, refine_sweeps=3):
    """pinching_estimate as a per-plane loop: one scalar `sectional` per draw,
    and one refine per extreme."""
    frame = frame_matrices(alpha, eps)
    rng = np.random.default_rng(seed)
    n1 = frame.n + 1
    sec_min = math.inf
    sec_max = -math.inf
    pair_min = pair_max = None
    for _ in range(samples):
        u, v = _reference_orthonormal_pair(rng, n1)
        s = sectional(frame, u, v)
        if s < sec_min:
            sec_min, pair_min = s, (u.copy(), v.copy())
        if s > sec_max:
            sec_max, pair_max = s, (u.copy(), v.copy())
    if refine_sweeps > 0:
        sec_min, mu, mv = _reference_coordinate_refine(
            frame, pair_min[0], pair_min[1], True, refine_sweeps)
        pair_min = (mu, mv)
        sec_max, xu, xv = _reference_coordinate_refine(
            frame, pair_max[0], pair_max[1], False, refine_sweeps)
        pair_max = (xu, xv)
    bianchi = 0.0
    for _ in range(200):
        x = rng.standard_normal(n1)
        y = rng.standard_normal(n1)
        z = rng.standard_normal(n1)
        bianchi = max(bianchi, bianchi_residual(frame, x, y, z))
    return {
        "sec_min": sec_min,
        "sec_max": sec_max,
        "bianchi_max": bianchi,
        "min_pair": (tuple(map(float, pair_min[0])), tuple(map(float, pair_min[1]))),
        "max_pair": (tuple(map(float, pair_max[0])), tuple(map(float, pair_max[1]))),
    }


J2 = [[1, 1], [0, 1]]
J3 = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
J2_PLUS_2 = [[2, 2, 0], [0, 2, 0], [0, 0, 2]]


@pytest.mark.parametrize("alpha", [J2, J3, J2_PLUS_2], ids=["J2", "J3", "2J2+2"])
@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
def test_batched_sampler_equals_the_reference_loop(alpha, eps):
    for seed in range(5):
        rep = pinching_estimate(alpha, eps, samples=400, seed=seed)
        ref = _reference_pinching(alpha, eps, samples=400, seed=seed)
        assert rep.sec_min == ref["sec_min"]
        assert rep.sec_max == ref["sec_max"]
        assert rep.min_pair == ref["min_pair"]
        assert rep.max_pair == ref["max_pair"]
        assert rep.bianchi_max == ref["bianchi_max"]


def test_batched_sampler_without_refinement_equals_the_reference_loop():
    for seed in range(3):
        rep = pinching_estimate(J3, 0.1, samples=400, seed=seed, refine_sweeps=0)
        ref = _reference_pinching(J3, 0.1, samples=400, seed=seed, refine_sweeps=0)
        assert (rep.sec_min, rep.sec_max) == (ref["sec_min"], ref["sec_max"])
        assert (rep.min_pair, rep.max_pair) == (ref["min_pair"], ref["max_pair"])


@pytest.mark.parametrize("alpha", [
    [[1, 0], [0, 1]],
    [[1, -2], [2, 1]],
    [[1, -2, 0, 0], [2, 1, 0, 0], [0, 0, 1, -3], [0, 0, 3, 1]],
    [[1, -1], [2, 1]],
], ids=["I2", "rot2", "rot2+rot3", "1+i*sqrt2"])
def test_constant_curvature_matches_the_reference_loop(alpha):
    # every plane has curvature -1, so the samples tie up to rounding and the
    # first extremal sample may differ from the loop's; the values may not
    for seed in range(3):
        rep = pinching_estimate(alpha, 0.1, samples=300, seed=seed)
        ref = _reference_pinching(alpha, 0.1, samples=300, seed=seed)
        assert abs(rep.sec_min - ref["sec_min"]) <= 1e-15
        assert abs(rep.sec_max - ref["sec_max"]) <= 1e-15
        assert abs(rep.sec_min + 1.0) <= 1e-12
        assert abs(rep.sec_max + 1.0) <= 1e-12


# ------------------------------------------ exact line search vs. golden --

BENCH_ALPHAS = {
    "I2": [[1, 0], [0, 1]],
    "rot2": [[1, -2], [2, 1]],
    "rot2+rot3": [[1, -2, 0, 0], [2, 1, 0, 0], [0, 0, 1, -3], [0, 0, 3, 1]],
    "J2": J2,
    "J3": J3,
    "2J2+2": J2_PLUS_2,
    "1+i*sqrt2": [[1, -1], [2, 1]],
}


def _reference_golden(f, lo, hi, iters=24):
    """Argmin of f on [lo, hi] by golden-section search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _reference_refine(frame, u, v, minimize, sweeps=3, radius=0.25):
    """_refine with a golden-section search and a scalar curvature_tensor
    call per trial point, in place of the exact line search."""
    n1 = frame.n + 1
    sign = 1.0 if minimize else -1.0
    best = sign * sectional(frame, u, v)
    for sweep in range(sweeps):
        r = radius / (4.0 ** sweep)
        for idx in range(2 * n1):
            def value(t, idx=idx):
                uu = u.copy()
                vv = v.copy()
                if idx < n1:
                    uu[idx] += t
                else:
                    vv[idx - n1] += t
                den = (uu @ uu) * (vv @ vv) - (uu @ vv) ** 2
                if den <= 1e-12:
                    return math.inf
                return sign * float(
                    curvature_tensor(frame, uu, vv, vv) @ uu
                ) / den
            t = _reference_golden(value, -r, r)
            val = value(t)
            if val < best:
                best = val
                if idx < n1:
                    u[idx] += t
                else:
                    v[idx - n1] += t
    return sign * best, u, v


@pytest.mark.parametrize("alpha", BENCH_ALPHAS.values(), ids=BENCH_ALPHAS.keys())
@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
def test_refined_extremes_match_the_golden_section_reference(alpha, eps):
    for seed in range(5):
        start = pinching_estimate(alpha, eps, samples=400, seed=seed, refine_sweeps=0)
        rep = pinching_estimate(alpha, eps, samples=400, seed=seed)
        for minimize, pair, value in ((True, start.min_pair, rep.sec_min),
                                      (False, start.max_pair, rep.sec_max)):
            u, v = (np.array(x) for x in pair)
            ref, _, _ = _reference_refine(start.frame, u, v, minimize)
            assert abs(value - ref) <= 1e-6
            # the refinement never loses ground on the sampled extreme
            sampled = start.sec_min if minimize else start.sec_max
            assert (value <= sampled) if minimize else (value >= sampled)


def test_a_step_is_taken_only_if_sectional_improves(monkeypatch):
    # the closed form finds better planes, but `_sectionals` reads every moved
    # pair as no better than the start, so both pairs must stay where they are
    start = pinching_estimate(J3, 1.0, samples=50, seed=2, refine_sweeps=0)
    us, vs = (np.array(x) for x in zip(start.min_pair, start.max_pair))
    monkeypatch.setattr(curvature, "_sectionals",
                        lambda frame, a, b: np.full(len(a), 0.5))
    ru, rv = us.copy(), vs.copy()
    assert curvature._refine(start.frame, ru, rv, (True, False)) == [0.5, 0.5]
    assert np.array_equal(ru, us) and np.array_equal(rv, vs)


@pytest.mark.parametrize("alpha", BENCH_ALPHAS.values(), ids=BENCH_ALPHAS.keys())
def test_stacked_sectionals_equal_per_plane_calls(alpha):
    fr = frame_matrices(alpha, 0.1)
    # enough rows that the scalar square (pow) and a product x * x, which
    # differ in the last bit on about 1 in 1200 values, must part somewhere
    uv = np.random.default_rng(5).standard_normal((1000, 2, fr.n + 1))
    u, v = uv[:, 0].copy(), uv[:, 1].copy()
    stacked = curvature._sectionals(fr, u, v)
    assert stacked.shape == (1000,)
    for k, a, b in zip(stacked, u, v):
        assert k == sectional(fr, a, b)
        den = (a @ a) * (b @ b) - (a @ b) ** 2
        assert k == float(curvature_tensor(fr, a, b, b) @ a) / den
    # one degenerate row fails the whole stack, as `sectional` fails on it
    v[17] = 2.0 * u[17]
    with pytest.raises(PreconditionError):
        sectional(fr, u[17], v[17])
    with pytest.raises(PreconditionError):
        curvature._sectionals(fr, u, v)


# ------------------------------------------------- curvature operator --

def _curvature_operator(frame):
    """The curvature operator on bivectors e_i^e_j (i < j):
    entry ((i, j), (k, l)) is <R(e_i, e_j)e_l, e_k>, from one stacked call."""
    e = np.eye(frame.n + 1)
    pairs = [(i, j) for i in range(frame.n + 1) for j in range(i + 1, frame.n + 1)]
    ei, ej = e[[i for i, _ in pairs]], e[[j for _, j in pairs]]
    r = curvature_tensor(frame, ei[:, None], ej[:, None], ej[None, :])
    return np.sum(r * ei[None, :], axis=-1)


@pytest.mark.parametrize("alpha", BENCH_ALPHAS.values(), ids=BENCH_ALPHAS.keys())
@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
def test_pinched_range_lies_in_the_curvature_operator_range(alpha, eps):
    fr = frame_matrices(alpha, eps)
    op = _curvature_operator(fr)
    assert np.allclose(op, op.T, atol=1e-12)
    lam = np.linalg.eigvalsh((op + op.T) / 2.0)
    for seed in range(5):
        rep = pinching_estimate(alpha, eps, samples=400, seed=seed)
        assert lam[0] - 1e-12 <= rep.sec_min <= rep.sec_max <= lam[-1] + 1e-12


NORMAL_FRAMES = ["I2", "rot2", "rot2+rot3", "1+i*sqrt2"]


@pytest.mark.parametrize("label", NORMAL_FRAMES)
@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
def test_normal_frames_with_real_part_one_have_operator_minus_identity(label, eps):
    fr = frame_matrices(BENCH_ALPHAS[label], eps)
    assert np.allclose(fr.m @ fr.m.T, fr.m.T @ fr.m, atol=1e-12)
    op = _curvature_operator(fr)
    assert np.max(np.abs(op + np.eye(len(op)))) <= 1e-12


@pytest.mark.parametrize("alpha", BENCH_ALPHAS.values(), ids=BENCH_ALPHAS.keys())
def test_stacked_curvature_tensor_equals_per_vector_calls(alpha):
    fr = frame_matrices(alpha, 0.1)
    xyz = np.random.default_rng(8).standard_normal((30, 3, fr.n + 1))
    stacked = curvature_tensor(fr, xyz[:, 0], xyz[:, 1], xyz[:, 2])
    assert stacked.shape == (30, fr.n + 1)
    for row, (x, y, z) in zip(stacked, xyz):
        assert np.array_equal(row, curvature_tensor(fr, x, y, z))
    # one vector broadcast against a stack
    for row, x in zip(curvature_tensor(fr, xyz[:, 0], xyz[0, 1], xyz[0, 2]), xyz[:, 0]):
        assert np.array_equal(row, curvature_tensor(fr, x, xyz[0, 1], xyz[0, 2]))
    total = max(bianchi_residual(fr, x, y, z) for x, y, z in xyz)
    assert bianchi_residual(fr, xyz[:, 0], xyz[:, 1], xyz[:, 2]) == total


# ------------------------------------------------------ frame layout oracles --

PINCH_ALPHAS = {**BENCH_ALPHAS, **TIES}


def _mean_normalized(alpha):
    a = matrix(alpha)
    mean = sum(a[i][i] for i in range(len(a))) / len(a)
    return tuple(tuple(x / mean for x in row) for row in a), mean


def _same_layout(a, b):
    # the frame orders the complex blocks itself, so the layouts' order is free
    assert (a.size, a.real_blocks) == (b.size, b.real_blocks)
    ca = sorted(a.complex_blocks, key=lambda t: t[::-1])
    cb = sorted(b.complex_blocks, key=lambda t: t[::-1])
    assert [d for _, d in ca] == [d for _, d in cb]
    for (ta, _), (tb, _) in zip(ca, cb):
        assert abs(ta - tb) <= 1e-9 * max(1.0, tb)


def _unimodular(rng, n, shears=3):
    """(P, P^-1) for a signed permutation followed by elementary shears."""
    perm = rng.sample(range(n), n)
    p = [[rng.choice((1, -1)) if perm[r] == c else 0 for c in range(n)] for r in range(n)]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        e = [[int(r == c) + (rng.choice((1, -1)) if (r, c) == (i, j) else 0)
              for c in range(n)] for r in range(n)]
        p = mat_mul(p, e)
    p = matrix(p)
    return p, inverse(p)


@pytest.mark.parametrize("label", PINCH_ALPHAS)
def test_exact_layout_equals_the_numeric_layout(label):
    an, _ = _mean_normalized(PINCH_ALPHAS[label])
    af = np.array([[float(x) for x in row] for row in an])
    _same_layout(curvature._layout_exact(an), curvature._layout_numeric(af, len(an)))


@pytest.mark.parametrize("label", PINCH_ALPHAS)
def test_layout_and_mean_survive_unimodular_conjugation(label):
    alpha = PINCH_ALPHAS[label]
    _, mean = _mean_normalized(alpha)
    fr = frame_matrices(alpha, 0.1)
    rng = random.Random(label)
    for _ in range(3):
        p, p_inv = _unimodular(rng, len(alpha))
        conj = mat_mul(mat_mul(p, matrix(alpha)), p_inv)
        _, conj_mean = _mean_normalized(conj)
        assert conj_mean == mean
        conj_fr = frame_matrices(conj, 0.1)
        assert conj_fr.layout.exact == fr.layout.exact
        _same_layout(conj_fr.layout, fr.layout)
        assert np.allclose(conj_fr.m, fr.m, rtol=0, atol=1e-9)


def test_mean_real_part_matches_numpy_eigenvalues():
    # block diagonal with one real part c (scalars and rotations by b),
    # carried to a random basis by a unimodular P
    rng = random.Random(14)
    for _ in range(60):
        c = rng.randint(1, 4)
        blocks = [[[c]] if rng.random() < 0.4 else [[c, -b], [b, c]]
                  for b in (rng.randint(1, 6) for _ in range(rng.randint(1, 3)))]
        n = sum(len(b) for b in blocks)
        if n < 2:
            continue
        diag = [[0] * n for _ in range(n)]
        off = 0
        for b in blocks:
            for i, row in enumerate(b):
                diag[off + i][off:off + len(row)] = row
            off += len(b)
        p, p_inv = _unimodular(rng, n)
        alpha = mat_mul(mat_mul(p, matrix(diag)), p_inv)
        _, mean = _mean_normalized(alpha)
        eigs = np.linalg.eigvals(np.array([[float(x) for x in row] for row in alpha]))
        assert mean == c
        assert max(abs(z.real - float(mean)) for z in eigs) <= 1e-9
        assert frame_matrices(alpha, 0.5).layout.exact


FRAMES = [(J2, 0.3), (J3, 0.1), (J2_PLUS_2, 1.0), ([[1, -2], [2, 1]], 0.5),
          ([[1, 0, 0], [0, 1, 2], [0, -2, 1]], 0.5)]


@pytest.mark.parametrize("alpha,eps", FRAMES)
def test_plane_curvatures_match_sectional(alpha, eps):
    fr = frame_matrices(alpha, eps)
    g = 3.0 * np.random.default_rng(5).standard_normal((200, 2, fr.n + 1))
    k = _plane_curvatures(fr, g)
    for ki, (u, v) in zip(k, g):
        s = sectional(fr, u, v)
        assert abs(ki - s) <= 1e-12 * abs(s)


@pytest.mark.parametrize("alpha,eps", FRAMES)
def test_plane_curvatures_depend_only_on_the_plane(alpha, eps):
    fr = frame_matrices(alpha, eps)
    rng = np.random.default_rng(6)
    g = rng.standard_normal((200, 2, fr.n + 1))
    a, b, c = rng.uniform(0.2, 5.0, (3, 200, 1)) * rng.choice([-1.0, 1.0], (3, 200, 1))
    h = np.stack([a * g[:, 0], b * g[:, 1] + c * g[:, 0]], axis=1)
    k, kh = _plane_curvatures(fr, g), _plane_curvatures(fr, h)
    assert np.all(np.abs(k - kh) <= 1e-12 * np.abs(k))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_one_block_draw_equals_sequential_draws(n):
    # the batched sampler relies on this to keep each seed's planes
    for seed in range(4):
        block = np.random.default_rng(seed).standard_normal((50, 2, n))
        rng = np.random.default_rng(seed)
        seq = np.array([[rng.standard_normal(n), rng.standard_normal(n)] for _ in range(50)])
        assert np.array_equal(block, seq)


def test_a_plane_that_spans_nothing_is_redrawn(monkeypatch):
    real = np.random.default_rng
    shapes = []

    class Degenerate:
        """default_rng whose first block has a zero u in row 5 and v = 2u in row 9."""

        def __init__(self, seed):
            self.rng = real(seed)

        def standard_normal(self, size):
            out = self.rng.standard_normal(size)
            if not shapes:
                out[5, 0] = 0.0
                out[9, 1] = 2.0 * out[9, 0]
            shapes.append(size)
            return out

    monkeypatch.setattr(np.random, "default_rng", Degenerate)
    rep = pinching_estimate(J3, 0.1, samples=40, seed=1, refine_sweeps=0)
    assert shapes[:2] == [(40, 2, 4), (2, 2, 4)]
    assert rep.samples == 40
    values = [rep.sec_min, rep.sec_max, rep.bianchi_max,
              *rep.min_pair[0], *rep.min_pair[1], *rep.max_pair[0], *rep.max_pair[1]]
    assert all(math.isfinite(x) for x in values)


CURVATURE_NAMES = ("CurvatureReport", "Frame", "PansuReport", "alpha_from_law",
                   "curvature_tensor", "frame_matrices", "pansu_consistency",
                   "pinching_estimate", "sectional")


def test_package_resolves_the_curvature_names_lazily():
    for name in CURVATURE_NAMES:
        assert getattr(lie_sbe, name) is getattr(curvature, name)
    from lie_sbe import pinching_estimate as imported
    assert imported is curvature.pinching_estimate
    assert not hasattr(lie_sbe, "no_such_name")
