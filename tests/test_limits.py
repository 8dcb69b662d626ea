"""Limit-root sampling, orbits, power dynamics, and infinite-word limits."""

import math
import random

import numpy as np
import pytest
from scipy.spatial import cKDTree

from limitroots import (
    PeriodicWord,
    classify,
    element_of,
    enumerate_elements,
    hausdorff,
    make_system,
    power_dynamics,
    sample_limit_roots,
    to_chart,
    word_limit_root,
)
from limitroots.limits import (
    KIND_HYPERBOLIC,
    KIND_PARABOLIC,
    PointSet,
    certify_reduced,
    infinite_order_directions,
)
from limitroots.projective import ProjectivePoint, chart_distance
from limitroots.spectral import Kind


def _pointset(sys, vecs, kinds=("orbit",), kind=None):
    points = [to_chart(sys, np.asarray(v, float)) for v in vecs]
    return PointSet(
        np.array([p.coords for p in points]),
        1e-6,
        kinds=kinds,
        kind=kind,
        at_infinity=[p.at_infinity for p in points],
        form=sys.form,
    )


# ---------------------------------------------------------------------------
# point sets


def test_pointset_merges_within_eps(sys_u1):
    ps = _pointset(
        sys_u1, [[0.5, 0.5, 0.0], [0.5 + 1e-9, 0.5 - 1e-9, 0.0], [0.5, 0.0, 0.5]]
    )
    assert len(ps) == 2


def test_pointset_merges_across_grid_cells_keeping_the_first(sys_u1):
    # The last two points sit 1.4e-7 apart on either side of a cell boundary
    # of the 1e-6 grid, so only the kd-tree pass can merge them.
    base = np.array([0.2, 0.3, 0.5])
    step = np.array([1e-6, -1e-6, 0.0])
    coords = np.array([[0.5, 0.5, 0.0], base + 0.55 * step, base + 0.45 * step])
    ps = PointSet(coords, 1e-6, kinds=("orbit",), form=sys_u1.form)
    assert ps.coords.tobytes() == coords[:2].tobytes()


def test_pointset_keeps_distinct_points(sys_u1):
    assert len(_pointset(sys_u1, [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5]])) == 2


def test_pointset_separates_affine_from_infinity(sys_u1):
    ps = _pointset(sys_u1, [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]])  # second at infinity
    assert len(ps) == 2
    assert ps.affine_coords.shape == (1, 3)


def test_counts_by_kind_and_filter(sys_u1):
    ps = _pointset(
        sys_u1,
        [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5]],
        kinds=(KIND_PARABOLIC, KIND_HYPERBOLIC),
        kind=[0, 1],
    )
    assert ps.counts_by_kind() == {KIND_PARABOLIC: 1, KIND_HYPERBOLIC: 1}
    assert len(ps.filter(KIND_PARABOLIC)) == 1


# ---------------------------------------------------------------------------
# sampling


def test_length_two_cores_give_the_three_midpoints(sys_u1, store_u1_6):
    ps = sample_limit_roots(sys_u1, store_u1_6, (2, 2), (0, 0))
    got = sorted(tuple(c) for c in np.round(ps.coords, 9))
    assert got == [(0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)]


def test_parabolic_direction_count_up_to_length_six(sys_u1, store_u1_6):
    ps = sample_limit_roots(
        sys_u1, store_u1_6, (2, 6), (0, 0), kinds=(KIND_PARABOLIC,)
    )
    assert len(ps) == 12


def test_hyperbolic_direction_count_up_to_length_six(sys_u1, store_u1_6):
    # 126 hyperbolic elements contribute 252 eigendirection samples; the
    # distinct set has 120 points because the six length-3 elements share
    # their axes with their own squares at length 6.
    ps = sample_limit_roots(
        sys_u1, store_u1_6, (2, 6), (0, 0), kinds=(KIND_HYPERBOLIC,)
    )
    assert len(ps) == 120


def test_sampled_points_are_isotropic_chart_points(sys_u11):
    store = enumerate_elements(sys_u11, 4)
    ps = sample_limit_roots(sys_u11, store, (2, 4), (0, 2))
    assert len(ps) > 0
    assert not ps.at_infinity.any()
    assert np.abs(ps.bnorm).max() < 1e-7
    assert ps.coords.min() > -1e-9


def test_conjugation_shortcut_matches_direct_eigensolve(sys_u1, store_u1_6):
    w = element_of(sys_u1, (0, 1, 2))
    g = element_of(sys_u1, (1, 0))
    conj = element_of(sys_u1, g.word + w.word + tuple(reversed(g.word)))
    _, vec = infinite_order_directions(sys_u1, w)[0]
    _, direct_vec = infinite_order_directions(sys_u1, conj)[0]
    pushed = to_chart(sys_u1, g.matrix @ vec)
    assert chart_distance(pushed, to_chart(sys_u1, direct_vec)) < 1e-7


def _per_record_sample(sys, store, core_range, conj_range, eps=1e-6):
    """Reference for sample_limit_roots: one image at a time, the first image
    in each cell of the eps grid, then a kd-tree merge of the cells where
    the lowest index wins, and B(x, x) row by row."""
    conjugators = store.with_length(*conj_range)
    conj_mats = np.stack([g.matrix for g in conjugators])
    rows = []
    for elem in store.with_length(*core_range):
        for kind, vec in infinite_order_directions(sys, elem):
            images = conj_mats @ vec
            heights = images.sum(axis=1)
            for g, img, h in zip(conjugators, images, heights):
                rows.append((img / h, kind, elem.word, g.word))
    first = {}
    for i, row in enumerate(rows):
        first.setdefault(tuple(np.round(row[0] / eps).astype(np.int64)), i)
    reps = sorted(first.values())
    parent = list(range(len(reps)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    tree = cKDTree(np.array([rows[i][0] for i in reps]))
    for a, b in sorted(tree.query_pairs(eps)):
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    kept = [rows[reps[p]] for p in range(len(reps)) if find(p) == p]
    return [(c, float(c @ sys.form @ c), kind, src, conj) for c, kind, src, conj in kept]


@pytest.mark.parametrize(
    "name, core_range, conj_range",
    [("universal3:1", (2, 4), (0, 2)), ("fig1a", (3, 4), (1, 3))],
)
def test_columnar_sample_matches_per_record_reference(name, core_range, conj_range):
    sys = make_system(name)
    store = enumerate_elements(sys, 4)
    want = _per_record_sample(sys, store, core_range, conj_range)
    ps = sample_limit_roots(sys, store, core_range, conj_range)
    assert len(ps) == len(want) > 0
    for i, (coords, bnorm, kind, source, conjugator) in enumerate(want):
        assert ps.coords[i].tobytes() == coords.tobytes()
        assert ps.bnorm[i] == bnorm
        assert not ps.at_infinity[i]
        row = (ps.kinds[ps.kind[i]], ps.words[ps.source[i]], ps.words[ps.conjugator[i]])
        assert row == (kind, source, conjugator)


def test_sampling_needs_deep_enough_store(sys_u1, store_u1_6):
    with pytest.raises(ValueError):
        sample_limit_roots(sys_u1, store_u1_6, (2, 8), (0, 0))


# ---------------------------------------------------------------------------
# orbits and dynamics


def test_power_dynamics_converges_to_attracting_direction(sys_u1):
    w = element_of(sys_u1, (0, 1, 2))
    sc = classify(sys_u1, w)
    _, x_plus, _ = sc.dominant
    target = to_chart(sys_u1, x_plus)
    traj = power_dynamics(sys_u1, w, np.array([1.0, 1.0, 1.0]), 60)
    assert chart_distance(traj[-1], target) < 1e-10


def test_hausdorff_basics(sys_u1, store_u1_6):
    ps = sample_limit_roots(sys_u1, store_u1_6, (2, 4), (0, 0))
    assert hausdorff(ps, ps) == 0.0
    with pytest.raises(ValueError):
        hausdorff(ps, PointSet(np.empty((0, 3)), 1e-6, kinds=()))


# ---------------------------------------------------------------------------
# infinite words


def test_periodic_word_requires_period():
    with pytest.raises(ValueError):
        PeriodicWord(prefix=(), period=())


def test_certify_reduced(sys_u1):
    assert certify_reduced(sys_u1, PeriodicWord(prefix=(), period=(0, 1, 2)))
    assert not certify_reduced(sys_u1, PeriodicWord(prefix=(0,), period=(0, 1)))


@pytest.mark.parametrize("c", [1.0, 1.1, 50.0])
def test_certify_reduced_follows_the_free_product_rule(c):
    """With every label infinite, an infinite word is reduced exactly when no
    two adjacent letters are equal: an oracle independent of the program."""
    sys = make_system(f"universal3:{c}")
    rng = random.Random(29)
    for _ in range(300):
        prefix = tuple(rng.randrange(3) for _ in range(rng.randrange(6)))
        period = tuple(rng.randrange(3) for _ in range(1 + rng.randrange(6)))
        head = prefix + period * 2
        reduced = all(a != b for a, b in zip(head, head[1:]))
        assert certify_reduced(sys, PeriodicWord(prefix, period)) is reduced


def test_word_limit_of_hyperbolic_period(sys_u1):
    res = word_limit_root(sys_u1, PeriodicWord(prefix=(), period=(0, 1, 2)))
    assert res.kind is Kind.HYPERBOLIC
    assert res.eigenvalue == pytest.approx(9 + 4 * math.sqrt(5), abs=1e-8)
    assert abs(res.point.bnorm) < 1e-9
    assert res.orbit_residual < 1e-6


def test_parabolic_periods_share_their_limit(sys_u1):
    st = word_limit_root(sys_u1, PeriodicWord(prefix=(), period=(0, 1)))
    ts = word_limit_root(sys_u1, PeriodicWord(prefix=(), period=(1, 0)))
    np.testing.assert_allclose(st.point.coords, [0.5, 0.5, 0.0], atol=1e-9)
    assert chart_distance(st.point, ts.point) < 1e-9


def test_prefix_moves_the_limit(sys_u1):
    plain = word_limit_root(sys_u1, PeriodicWord(prefix=(), period=(0, 1)))
    moved = word_limit_root(sys_u1, PeriodicWord(prefix=(2,), period=(0, 1)))
    assert chart_distance(plain.point, moved.point) > 0.1
    assert abs(moved.point.bnorm) < 1e-9


def test_non_reduced_word_rejected(sys_u1):
    with pytest.raises(ValueError, match="not reduced"):
        word_limit_root(sys_u1, PeriodicWord(prefix=(0,), period=(0, 1)))


def test_elliptic_period_rejected():
    # s_0 s_1 has order 5 on fig1b, so (s_0 s_1)^5 = e: not reduced.
    sys_b = make_system("fig1b")
    with pytest.raises(ValueError, match="not reduced"):
        word_limit_root(sys_b, PeriodicWord(prefix=(), period=(0, 1)))
