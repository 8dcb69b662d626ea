"""Chart arithmetic and the light conic."""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from limitroots import chart_distances, light_conic, to_chart
from limitroots.projective import HEIGHT_TOL, at_infinity, timelike_center


def test_chart_normalizes_height(sys_u1):
    p = to_chart(np.array([2.0, 2.0, 0.0]))
    assert not at_infinity(p)
    np.testing.assert_allclose(p, [0.5, 0.5, 0.0])
    assert p @ sys_u1.form @ p == pytest.approx(0.0, abs=1e-12)


def test_chart_is_scale_invariant():
    a = to_chart(np.array([0.3, 0.5, 0.4]))
    b = to_chart(17.0 * np.array([0.3, 0.5, 0.4]))
    assert chart_distances(a, b) < 1e-14


def test_zero_height_goes_to_infinity():
    p = to_chart(np.array([1.0, -1.0, 0.0]))
    assert at_infinity(p)
    assert np.sum(p) == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(p) == pytest.approx(1.0)
    # Sign canonicalization: both representatives map to the same direction.
    q = to_chart(np.array([-1.0, 1.0, 0.0]))
    np.testing.assert_allclose(p, q)


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        to_chart(np.zeros(3))


def test_distance_across_chart_boundary_is_infinite():
    aff = to_chart(np.array([1.0, 1.0, 1.0]))
    inf_pt = to_chart(np.array([1.0, -1.0, 0.0]))
    assert chart_distances(aff, inf_pt) == math.inf
    assert chart_distances(inf_pt, inf_pt) == 0.0


def test_timelike_center(sys_u1):
    c = timelike_center(sys_u1)
    assert not at_infinity(c)
    assert c @ sys_u1.form @ c < 0
    np.testing.assert_allclose(c, [1 / 3, 1 / 3, 1 / 3])


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


def _chart_of_one_vector(v):
    """The chart rule for one vector, taken with scalar numpy calls."""
    norm = np.linalg.norm(v)
    h = float(np.sum(v))
    if abs(h) > HEIGHT_TOL * norm:
        return v / h
    coords = v / norm
    coords = coords - np.sum(coords) / len(coords)
    coords /= np.linalg.norm(coords)
    lead = coords[np.nonzero(np.abs(coords) > 1e-12)[0][0]]
    return -coords if lead < 0 else coords


@pytest.mark.parametrize("n", [3, 4, 27])
def test_stacked_to_chart_matches_the_per_vector_rule(n):
    """Bit for bit the rule taken one vector at a time, for a stack and for
    one (n,) vector, also for rows at infinity of either leading sign."""
    rng = np.random.default_rng(n)
    X = rng.standard_normal((300, n)) * rng.uniform(1e-3, 1e3, (300, 1))
    for i in range(6):  # height zero; leads of either sign, a zero first coordinate
        X[i] -= X[i].mean()
        X[i] *= -1.0 if i % 2 else 1.0
    X[4, 0] = X[5, 0] = 0.0
    X[4, 1:] = X[5, 1:] = 0.0
    X[4, 1:3], X[5, 1:3] = [-2.0, 2.0], [2.0, -2.0]
    want = np.array([_chart_of_one_vector(v) for v in X])
    got = to_chart(X)
    assert got.shape == X.shape and got.tobytes() == want.tobytes()
    assert at_infinity(got).tolist() == [True] * 6 + [False] * 294
    assert (want[:6][np.arange(6), np.argmax(np.abs(want[:6]) > 1e-12, axis=1)] > 0).all()
    assert to_chart(X[7]).shape == (n,) and to_chart(X[7]).tobytes() == want[7].tobytes()
    assert to_chart(X[2]).tobytes() == want[2].tobytes()
    X[150] = 0.0
    with pytest.raises(ValueError, match="zero vector"):
        to_chart(X)


@pytest.mark.parametrize("n", [3, 27])
def test_at_infinity_is_false_just_above_the_height_tolerance(n):
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n)
    v -= v.mean()
    v[0] += 1.01 * HEIGHT_TOL * np.linalg.norm(v)
    assert abs(np.sum(v)) > HEIGHT_TOL * np.linalg.norm(v)
    assert not at_infinity(to_chart(v))


def test_stacked_chart_distances_match_chart_distance():
    """Row by row the kd-tree's distance between two affine chart rows, bit
    for bit; infinite across the chart boundary, and the plain distance of
    two rows at infinity."""
    rng = np.random.default_rng(3)
    X = rng.standard_normal((400, 3)) * rng.uniform(1e-3, 1e3, (400, 1))
    Y = rng.standard_normal((400, 3))
    # Heights zero in X, in both, in Y; two pairs of equal directions.
    X[:5] = [[1, -1, 0], [2, 1, -3], [1, 1, 1], [1, -1, 0], [0.5, 0, -0.5]]
    Y[:5] = [[1, 1, 1], [-1, 0, 1], [0, 1, -1], [-2, 2, 0], [1, 0, -1]]
    P, Q = to_chart(X), to_chart(Y)
    got = chart_distances(P, Q)
    for p, q, d in zip(P[5:], Q[5:], got[5:]):
        assert d == cKDTree([q]).query(p)[0]
    assert got[0] == got[2] == math.inf and 0 < got[1] < math.inf and got[3] == got[4] == 0.0
    assert chart_distances(np.empty((0, 3)), np.empty((0, 3))).shape == (0,)


def test_broadcast_chart_distances_match_the_nested_loop():
    rng = np.random.default_rng(5)
    P = to_chart(rng.standard_normal((7, 4)))
    Q = to_chart(rng.standard_normal((9, 4)))
    P[0], Q[3] = to_chart([1.0, -1.0, 2.0, -2.0]), to_chart([0.0, 3.0, -1.0, -2.0])
    got = chart_distances(P[:, None], Q)
    want = [[chart_distances(p, q) for q in Q] for p in P]
    assert got.shape == (7, 9) and got.tolist() == want
    assert np.isinf(got[0]).sum() == 8 and np.isinf(got[:, 3]).sum() == 6
