"""Limit-root sampling, orbits, power dynamics, and infinite-word limits."""

import itertools
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
from limitroots.errors import NumericalError
from limitroots.limits import (
    KIND_HYPERBOLIC,
    KIND_PARABOLIC,
    PointSet,
    _close_pairs,
    _dedup,
    certify_reduced,
)
from limitroots.projective import chart_distances
from limitroots.spectral import Kind, light_like_directions


def _pointset(sys, vecs, kinds=("orbit",), kind=None):
    return PointSet(
        to_chart(np.asarray(vecs, float)),
        1e-6,
        kinds=kinds,
        kind=kind,
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
    # of the 1e-6 grid, so only the pair pass between neighbouring cells can
    # merge them.
    base = np.array([0.2, 0.3, 0.5])
    step = np.array([1e-6, -1e-6, 0.0])
    coords = np.array([[0.5, 0.5, 0.0], base + 0.55 * step, base + 0.45 * step])
    ps = PointSet(coords, 1e-6, kinds=("orbit",), form=sys_u1.form)
    assert ps.coords.tobytes() == coords[:2].tobytes()


def test_pointset_keeps_distinct_points(sys_u1):
    assert len(_pointset(sys_u1, [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5]])) == 2


def test_counts_by_kind_and_filter(sys_u1):
    ps = _pointset(
        sys_u1,
        [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5]],
        kinds=(KIND_PARABOLIC, KIND_HYPERBOLIC),
        kind=[0, 1],
    )
    assert ps.counts_by_kind() == {KIND_PARABOLIC: 1, KIND_HYPERBOLIC: 1}


def _kdtree_dedup(coords, eps):
    """Reference for the dedup: the first row in each cell of the eps grid,
    then a kd-tree join of the cells where the lowest index wins."""
    first = {}
    for row in range(len(coords)):
        first.setdefault(tuple(np.round(coords[row] / eps).astype(np.int64)), row)
    reps = sorted(first.values())
    parent = list(range(len(reps)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    if reps:
        for a, b in cKDTree(coords[reps]).query_pairs(eps):
            ra, rb = find(a), find(b)
            parent[max(ra, rb)] = min(ra, rb)
    return [reps[p] for p in range(len(reps)) if find(p) == p]


def _dedup_cases(eps):
    """Named point sets at the scale of eps that stress the pair pass."""
    rng = np.random.default_rng(7)
    cases = {}
    # Many cells sharing the key of column 0, some pairs closer than eps.
    cluster = np.zeros((300, 4))
    cluster[:, 1:] = rng.integers(0, 12, (300, 3)) * eps * rng.choice([0.45, 0.9, 1.3], (300, 3))
    cluster[:, 0] = 0.25
    cases["shared key column"] = cluster
    # Coordinates near half-integers of the grid, where keys round apart.
    half = (rng.integers(-6, 6, (400, 3)) + 0.5) * eps
    half += rng.choice([-1, 0, 1], (400, 3)) * rng.random((400, 3)) * 1e-3 * eps
    half = half + 0.3
    # Pairs on the half-integers 2k + 1/2 and 2k + 3/2, which round to keys
    # 2k and 2k + 2 (halves round to even) at distance about eps.
    for k in range(-20, 20):
        for col in range(3):
            pair = np.tile([0.3, 0.2, 0.5], (2, 1))
            pair[:, col] = [(2 * k + 0.5) * eps, (2 * k + 1.5) * eps]
            half = np.concatenate([half, pair])
    # The same, one ulp across a rounding boundary in a second column: keys
    # +1 there and -2 in the first, at distance eps to rounding.
    for k in range(-5, 5):
        for ca, cb in itertools.permutations(range(3), 2):
            pair = np.tile([0.3, 0.2, 0.5], (2, 1))
            pair[:, ca] = (2 * k + 0.5) * eps
            pair[1, ca] = np.nextafter(pair[0, ca], np.inf)
            pair[:, cb] = [(2 * k + 1.5) * eps, (2 * k + 0.5) * eps]
            half = np.concatenate([half, pair])
    cases["half-integer boundaries"] = half
    # Pairs at distance eps and a few ulps either side, in each coordinate.
    rows = []
    for k in range(3):
        for ulps in range(-3, 4):
            p = np.array([0.3, 0.2, 0.5]) + 1000 * eps * len(rows)
            q = p.copy()
            q[k] = p[k] + eps
            for _ in range(abs(ulps)):
                q[k] = np.nextafter(q[k], np.inf if ulps > 0 else -np.inf)
            rows += [p, q]
    cases["pairs at eps"] = np.array(rows)
    # A path of cells 0.95 eps apart whose rows are out of index order: it
    # is one group, kept as row 0, only if the grouping re-parents roots
    # alone and runs until every pair is joined.
    path = np.tile([0.3, 0.2, 0.5], (7, 1))
    path[[0, 4, 3, 5, 2, 6, 1], 0] += 0.95 * eps * np.arange(7)
    cases["path out of index order"] = path
    return cases


@pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-3, 1e-2])
def test_dedup_matches_the_kdtree_reference(eps):
    for name, coords in _dedup_cases(eps).items():
        assert _dedup(coords, eps).tolist() == _kdtree_dedup(coords, eps), name


@pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-3, 1e-2])
def test_pair_pass_finds_the_kdtree_pairs(eps):
    """The pairs of rows within eps, over the rows sorted by their keys in
    two columns, are those cKDTree.query_pairs finds."""
    gaps = []
    for name, coords in _dedup_cases(eps).items():
        keys = np.round(coords / eps).astype(np.int64)
        pairs = np.array(sorted(cKDTree(coords).query_pairs(eps))).reshape(-1, 2)
        gaps += np.abs(keys[pairs[:, 0]] - keys[pairs[:, 1]]).max(axis=1).tolist()
        for cols in ([0, 1], [1, 2], [2, 0]):
            order = np.lexsort(keys[:, cols[::-1]].T)
            i, j = _close_pairs(coords[order], keys[order][:, cols], eps)
            assert np.all(i < j)
            got = {tuple(sorted(pair)) for pair in zip(order[i].tolist(), order[j].tolist())}
            assert len(got) == len(i)
            assert got == set(map(tuple, pairs.tolist())), (name, cols)
    # Pairs within eps whose keys differ by 2 occur, and none by more.
    assert max(gaps) == 2


def test_pair_pass_is_exercised_at_the_eps_boundary():
    """Of the pairs a few ulps either side of distance eps, some merge and
    some stay apart."""
    eps = 1e-3
    coords = _dedup_cases(eps)["pairs at eps"]
    assert 0 < len(coords) - len(_dedup(coords, eps)) < len(coords) // 2


def test_dedup_refuses_grid_keys_beyond_int64():
    """Two rows 1e13 apart would both get key INT64_MIN at eps 1e-6; such
    rows, and non-finite ones, are a NumericalError naming their count."""
    far = np.array([[1e13, 0, 0, 1 - 1e13], [2e13, 0, 0, 1 - 2e13], [0.1, 0.2, 0.3, 0.4]])
    with pytest.raises(NumericalError, match=r"^2 row\(s\)"):
        PointSet(far, 1e-6, kinds=("orbit",), form=np.eye(4))
    odd = np.array([[np.nan, 0.5, 0.5], [0.2, 0.3, 0.5], [np.inf, 0.0, 0.0]])
    with pytest.raises(NumericalError, match=r"^2 row\(s\)"):
        _dedup(odd, 1e-6)
    edge = np.array([[2.0**62 * 1e-6, 0.0], [-(2.0**62) * 1e-6, 0.0], [0.5, 0.5]])
    with pytest.raises(NumericalError, match=r"^2 row\(s\)"):
        _dedup(edge, 1e-6)
    assert len(_dedup(edge[2:] * 1e10, 1e-6)) == 1


def _spans(coords, eps):
    """Key spans of the columns, widest first."""
    keys = np.round(coords / eps).astype(np.int64)
    return sorted((keys.max(axis=0) - keys.min(axis=0) + 1).tolist(), reverse=True)


@pytest.fixture(scope="module")
def fig1a_images():
    """The 69,376 image rows that ``sample_limit_roots`` merges on fig1a,
    cores 3..4, conjugators 1..9."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            "limitroots.limits._dedup", lambda coords, eps: seen.append(coords) or _dedup(coords, eps)
        )
        sys = make_system("fig1a")
        sample_limit_roots(sys, enumerate_elements(sys, 9), (3, 4), (1, 9))
    (images,) = seen
    assert images.shape == (69376, 4)
    return images


@pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-3, 1e-2])
def test_dedup_matches_the_kdtree_reference_on_the_fig1a_images(fig1a_images, eps):
    """At eps 1e-6 the three widest key columns fit one int64 cell code and
    the fourth folds it into its dense rank; at wider eps all four fit."""
    spans = _spans(fig1a_images, eps)
    assert (math.prod(spans[:3]) <= 2**63 < math.prod(spans)) == (eps == 1e-6)
    assert _dedup(fig1a_images, eps).tolist() == _kdtree_dedup(fig1a_images, eps)


def test_dedup_folds_the_cell_code_wherever_it_would_pass_int64():
    """A rank-6 cloud at eps 1e-6, with near copies of its points at about
    eps, spans about 2**21 keys per column: the code folds at the fourth and
    the sixth column.  Keys near +-2**62 in two columns pass 2**63 even
    after a fold, so the second column goes by its own rank too."""
    eps = 1e-6
    rng = np.random.default_rng(11)
    base = rng.uniform(-1, 1, (1500, 6))
    step = rng.standard_normal((1500, 6))
    step *= rng.choice([0.3, 0.7, 0.999, 1.001, 1.5], (1500, 1)) * eps / np.linalg.norm(step, axis=1)[:, None]
    cloud = np.concatenate([base, base + step, base[:100]])[rng.permutation(3100)]
    spans = _spans(cloud, eps)
    _, first = np.unique(np.round(cloud / eps).astype(np.int64)[:, :3], axis=0, return_index=True)
    cells = len(first)  # of the three widest columns, which all span about 2**21
    assert math.prod(spans[:3]) <= 2**63 < math.prod(spans[:4])
    assert cells * math.prod(spans[3:5]) <= 2**63 < cells * math.prod(spans[3:])
    kept = _dedup(cloud, eps).tolist()
    assert kept == _kdtree_dedup(cloud, eps)
    assert 1500 < len(kept) < 3000
    # At eps 1 both columns span S = 2**63 - 8191 keys and the first has
    # three values: without the second column's rank, row 0's code 2 S + k
    # would wrap past 2**64 onto row 1's.
    top = 2.0**62 - 4096
    far = np.array([[top, -2.0], [-top, -16384.0], [0.0, -top], [0.0, top]])
    assert _dedup(far, 1.0).tolist() == _kdtree_dedup(far, 1.0) == [0, 1, 2, 3]


@pytest.mark.parametrize(
    "name, core_range, conj_range",
    [("fig1a", (3, 4), (1, 6)), ("fig1b", (2, 4), (0, 5)), ("universal4:1", (2, 4), (0, 3))],
)
def test_stacked_bnorm_matches_the_per_row_loop(name, core_range, conj_range):
    """The constructor's stacked B-norm equals float(c @ B @ c) row by row,
    bit for bit, on samples and on rows with non-finite coordinates."""
    sys = make_system(name)
    ps = sample_limit_roots(sys, enumerate_elements(sys, 6), core_range, conj_range)
    n = sys.rank
    odd = np.array([[np.nan] + [0.5] * (n - 1), [np.inf] + [0.0] * (n - 1), [1e-300] * n])
    for coords in (ps.coords, np.concatenate([ps.coords[:5], odd])):
        with np.errstate(invalid="ignore"):  # inf * 0 in both forms
            got = PointSet(coords, 0.0, kinds=("orbit",), form=sys.form).bnorm
            want = np.array([float(c @ sys.form @ c) for c in coords])
        assert len(got) == len(coords) > 0
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


# ---------------------------------------------------------------------------
# sampling


def test_length_two_cores_give_the_three_midpoints(sys_u1, store_u1_6):
    ps = sample_limit_roots(sys_u1, store_u1_6, (2, 2), (0, 0))
    got = sorted(tuple(c) for c in np.round(ps.coords, 9))
    assert got == [(0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)]


def test_parabolic_direction_count_up_to_length_six(sys_u1, store_u1_6):
    ps = sample_limit_roots(sys_u1, store_u1_6, (2, 6), (0, 0))
    assert ps.counts_by_kind()[KIND_PARABOLIC] == 12


def test_hyperbolic_direction_count_up_to_length_six(sys_u1, store_u1_6):
    # 126 hyperbolic elements contribute 252 eigendirection samples; the
    # distinct set has 120 points because the six length-3 elements share
    # their axes with their own squares at length 6.
    ps = sample_limit_roots(sys_u1, store_u1_6, (2, 6), (0, 0))
    assert ps.counts_by_kind()[KIND_HYPERBOLIC] == 120


def test_sampled_points_are_isotropic_chart_points(sys_u11):
    store = enumerate_elements(sys_u11, 4)
    ps = sample_limit_roots(sys_u11, store, (2, 4), (0, 2))
    assert len(ps) > 0
    assert np.abs(ps.coords.sum(axis=1) - 1).max() < 1e-12
    assert np.abs(ps.bnorm).max() < 1e-7
    assert ps.coords.min() > -1e-9


def test_conjugation_shortcut_matches_direct_eigensolve(sys_u1, store_u1_6):
    w = element_of(sys_u1, (0, 1, 2))
    g = element_of(sys_u1, (1, 0))
    conj = element_of(sys_u1, g.word + w.word + tuple(reversed(g.word)))
    vec = light_like_directions(classify(sys_u1, w))[0]
    direct_vec = light_like_directions(classify(sys_u1, conj))[0]
    pushed = to_chart(g.matrix @ vec)
    assert chart_distances(pushed, to_chart(direct_vec)) < 1e-7


def _per_record_sample(sys, store, core_range, conj_range, eps=1e-6):
    """Reference for sample_limit_roots: each direction's images as a stacked
    product with the conjugator matrices and their heights from ``sum``, one
    image at a time, merged by the kd-tree reference ``_kdtree_dedup``, and
    B(x, x) row by row."""
    conjugators = store.with_length(*conj_range)
    conj_mats = np.stack([g.matrix for g in conjugators])
    kinds = {Kind.PARABOLIC: KIND_PARABOLIC, Kind.HYPERBOLIC: KIND_HYPERBOLIC}
    rows = []
    for elem in store.with_length(*core_range):
        sc = classify(sys, elem)
        for vec in light_like_directions(sc):
            kind = kinds[sc.kind]
            images = conj_mats @ vec
            heights = images.sum(axis=1)
            for g, img, h in zip(conjugators, images, heights):
                rows.append((img / h, kind, elem.word, g.word))
    coords = np.array([row[0] for row in rows])
    kept = [rows[i] for i in _kdtree_dedup(coords, eps)]
    return [(c, float(c @ sys.form @ c), kind, src, conj) for c, kind, src, conj in kept]


@pytest.mark.parametrize(
    "name, core_range, conj_range",
    [("universal3:1", (2, 4), (0, 2)), ("fig1a", (3, 4), (1, 3)), ("fig1b", (2, 3), (1, 4))],
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
    target = to_chart(x_plus)
    traj = power_dynamics(sys_u1, w, np.array([1.0, 1.0, 1.0]), 60)
    assert traj.shape == (60, 3)
    assert chart_distances(traj[-1], target) < 1e-10
    assert power_dynamics(sys_u1, w, np.array([1.0, 1.0, 1.0]), 0).shape == (0, 3)


@pytest.mark.parametrize("rank, m, k", [(3, 40, 70), (4, 700, 800), (3, 1, 5)])
def test_hausdorff_matches_kdtree_queries(rank, m, k):
    rng = np.random.default_rng(rank * m + k)
    a, b = rng.random((m, rank)), rng.random((k, rank)) * 1.5
    want = max(cKDTree(b).query(a)[0].max(), cKDTree(a).query(b)[0].max())
    assert hausdorff(a, b) == hausdorff(b, a) == want


def test_hausdorff_basics(sys_u1, store_u1_6):
    ps = sample_limit_roots(sys_u1, store_u1_6, (2, 4), (0, 0))
    assert hausdorff(ps.coords, ps.coords) == 0.0
    with pytest.raises(ValueError):
        hausdorff(ps.coords, np.empty((0, 3)))


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
    assert res.bnorm == float(res.point @ sys_u1.form @ res.point)
    assert abs(res.bnorm) < 1e-9
    assert res.orbit_residual < 1e-6


def test_parabolic_periods_share_their_limit(sys_u1):
    st = word_limit_root(sys_u1, PeriodicWord(prefix=(), period=(0, 1)))
    ts = word_limit_root(sys_u1, PeriodicWord(prefix=(), period=(1, 0)))
    np.testing.assert_allclose(st.point, [0.5, 0.5, 0.0], atol=1e-9)
    assert chart_distances(st.point, ts.point) < 1e-9


def test_prefix_moves_the_limit(sys_u1):
    plain = word_limit_root(sys_u1, PeriodicWord(prefix=(), period=(0, 1)))
    moved = word_limit_root(sys_u1, PeriodicWord(prefix=(2,), period=(0, 1)))
    assert chart_distances(plain.point, moved.point) > 0.1
    assert abs(moved.bnorm) < 1e-9


def test_non_reduced_word_rejected(sys_u1):
    with pytest.raises(ValueError, match="not reduced"):
        word_limit_root(sys_u1, PeriodicWord(prefix=(0,), period=(0, 1)))


def test_elliptic_period_rejected():
    # s_0 s_1 has order 5 on fig1b, so (s_0 s_1)^5 = e: not reduced.
    sys_b = make_system("fig1b")
    with pytest.raises(ValueError, match="not reduced"):
        word_limit_root(sys_b, PeriodicWord(prefix=(), period=(0, 1)))
