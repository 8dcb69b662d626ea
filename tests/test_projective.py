"""Chart arithmetic and the light conic."""

import math

import numpy as np
import pytest

from limitroots import chart_distance, light_conic, to_chart
from limitroots.projective import chart_distances, timelike_center


def test_chart_normalizes_height(sys_u1):
    p = to_chart(sys_u1, np.array([2.0, 2.0, 0.0]))
    assert not p.at_infinity
    np.testing.assert_allclose(p.coords, [0.5, 0.5, 0.0])
    assert p.bnorm == pytest.approx(0.0, abs=1e-12)


def test_chart_is_scale_invariant(sys_u1):
    a = to_chart(sys_u1, np.array([0.3, 0.5, 0.4]))
    b = to_chart(sys_u1, 17.0 * np.array([0.3, 0.5, 0.4]))
    assert chart_distance(a, b) < 1e-14


def test_zero_height_goes_to_infinity(sys_u1):
    p = to_chart(sys_u1, np.array([1.0, -1.0, 0.0]))
    assert p.at_infinity
    assert np.sum(p.coords) == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(p.coords) == pytest.approx(1.0)
    # Sign canonicalization: both representatives map to the same direction.
    q = to_chart(sys_u1, np.array([-1.0, 1.0, 0.0]))
    np.testing.assert_allclose(p.coords, q.coords)


def test_zero_vector_rejected(sys_u1):
    with pytest.raises(ValueError):
        to_chart(sys_u1, np.zeros(3))


def test_distance_across_chart_boundary_is_infinite(sys_u1):
    aff = to_chart(sys_u1, np.array([1.0, 1.0, 1.0]))
    inf_pt = to_chart(sys_u1, np.array([1.0, -1.0, 0.0]))
    assert chart_distance(aff, inf_pt) == math.inf
    assert chart_distance(inf_pt, inf_pt) == 0.0


def test_timelike_center(sys_u1):
    c = timelike_center(sys_u1)
    assert not c.at_infinity
    assert c.bnorm < 0
    np.testing.assert_allclose(c.coords, [1 / 3, 1 / 3, 1 / 3])


def test_light_conic_sits_on_the_cone(sys_u11):
    conic = light_conic(sys_u11, resolution=128)
    assert conic.shape == (128, 3)
    assert not conic.flags.writeable
    worst = max(abs(v @ sys_u11.form @ v) for v in conic)
    assert worst < 1e-10
    np.testing.assert_allclose(conic.sum(axis=1), 1.0, atol=1e-12)


def test_light_conic_rank_limits():
    from limitroots import make_system

    with pytest.raises(ValueError):
        light_conic(make_system("fig8"))


def test_stacked_chart_distances_match_chart_distance(sys_u1):
    """Row by row equal to ``chart_distance`` of two ``to_chart`` points, bit
    for bit, also where one or both rows lie at infinity."""
    rng = np.random.default_rng(3)
    X = rng.standard_normal((400, 3)) * rng.uniform(1e-3, 1e3, (400, 1))
    Y = rng.standard_normal((400, 3))
    # Heights zero in X, in both, in Y; two pairs of equal directions.
    X[:5] = [[1, -1, 0], [2, 1, -3], [1, 1, 1], [1, -1, 0], [0.5, 0, -0.5]]
    Y[:5] = [[1, 1, 1], [-1, 0, 1], [0, 1, -1], [-2, 2, 0], [1, 0, -1]]
    expected = [chart_distance(to_chart(sys_u1, x), to_chart(sys_u1, y)) for x, y in zip(X, Y)]
    got = chart_distances(sys_u1, X, Y)
    assert got.tolist() == expected
    assert got[0] == got[2] == math.inf and 0 < got[1] < math.inf and got[3] == got[4] == 0.0
    assert chart_distances(sys_u1, np.empty((0, 3)), np.empty((0, 3))).shape == (0,)
