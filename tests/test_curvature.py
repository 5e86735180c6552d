import math
from fractions import Fraction

import numpy as np
import pytest

import lie_sbe
from lie_sbe import catalog, curvature
from lie_sbe.curvature import (
    _plane_curvatures,
    _refine,
    alpha_from_law,
    bianchi_residual,
    curvature_tensor,
    frame_matrices,
    pansu_consistency,
    pinching_estimate,
    sectional,
)
from lie_sbe.errors import PreconditionError
from lie_sbe.laws import LieLaw


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


def test_frame_rotation_pair_goes_numeric():
    fr = frame_matrices([[1, 2], [-2, 1]], 0.5)
    assert not fr.layout.exact
    assert fr.layout.real_blocks == ()
    ((tau, d),) = fr.layout.complex_blocks
    assert d == 1 and abs(tau - 2.0) < 1e-9


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


def _reference_pinching(alpha, eps, samples, seed, refine_sweeps=3):
    """pinching_estimate as a per-plane loop: one scalar `sectional` per draw."""
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
        sec_min, mu, mv = _refine(frame, pair_min[0], pair_min[1], True, refine_sweeps)
        pair_min = (mu, mv)
        sec_max, xu, xv = _refine(frame, pair_max[0], pair_max[1], False, refine_sweeps)
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
