import math
from fractions import Fraction

import numpy as np
import pytest

from lie_sbe import catalog
from lie_sbe.curvature import (
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
