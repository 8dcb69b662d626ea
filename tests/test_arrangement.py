"""Roots by depth, weights, codimension-2 intersections, and chamber descent."""

import dataclasses
import decimal
import math
from collections import Counter
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.linalg import null_space, subspace_angles
from scipy.spatial import cKDTree
from test_coxeter_core import _graphs

from limitroots import (
    classify,
    codim2_spacelike,
    descend_to_fundamental,
    element_of,
    fundamental_weights,
    intersection_equals_unimodular,
    make_system,
    roots_by_depth,
    sign_vector,
    to_chart,
)
from limitroots.arrangement import (
    IntersectionKind,
    Root,
    principal_sine,
    reflection_pair_eigendata,
)
from limitroots.projective import chart_distance
from limitroots.spectral import Kind, unimodular_subspace
from limitroots.verify import run_suite


def test_root_counts_by_depth(sys_u1, sys_u11):
    for sys in (sys_u1, sys_u11):
        roots = roots_by_depth(sys, 3)
        assert Counter(r.depth for r in roots) == {1: 3, 2: 6, 3: 12}


def test_depth_one_roots_are_simple(sys_u1):
    roots = [r for r in roots_by_depth(sys_u1, 1)]
    assert len(roots) == 3
    assert {tuple(r.vector) for r in roots} == {
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
    }


def test_all_roots_positive(sys_u11):
    for r in roots_by_depth(sys_u11, 4):
        assert np.min(r.vector) > -1e-9


def test_root_word_reproduces_vector(sys_u1):
    for r in roots_by_depth(sys_u1, 3):
        w = element_of(sys_u1, r.word)
        np.testing.assert_allclose(
            w.matrix @ np.eye(3)[r.base], r.vector, atol=1e-9
        )


def _reference_roots(sys, max_depth):
    """Breadth-first search over reflections with a rounded-vector dedup.

    The oracle, independent of pairing signs and their bounds, for
    ``roots_by_depth``: each root's images under the generators are probed
    against vectors rounded to a 1e-9 grid, and a negative image is dropped.
    Coefficients are kept below 1e6, where that grid still tells roots apart
    and its integer keys cannot overflow.
    """
    n = sys.rank

    def key(vec):
        assert np.max(np.abs(vec)) <= 1e6
        return np.round(vec / 1e-9).astype(np.int64).tobytes()

    roots = [Root(vector=np.eye(n)[s], depth=1, word=(), base=s) for s in range(n)]
    seen = {key(r.vector) for r in roots}
    frontier = list(roots)
    for depth in range(2, max_depth + 1):
        next_frontier = []
        for root in frontier:
            for s in range(n):
                vec = sys.gens[s] @ root.vector
                if np.min(vec) < -1e-9 or key(vec) in seen:
                    continue
                seen.add(key(vec))
                next_frontier.append(Root(vec, depth, (s,) + root.word, root.base))
        roots += next_frontier
        frontier = next_frontier
    return roots


def _assert_roots_match_the_reference(sys, max_depth):
    roots = roots_by_depth(sys, max_depth)
    ref = _reference_roots(sys, max_depth)
    for depth in range(1, max_depth + 1):
        got = np.array([r.vector for r in roots if r.depth == depth]).reshape(-1, sys.rank)
        want = np.array([r.vector for r in ref if r.depth == depth]).reshape(-1, sys.rank)
        assert len(got) == len(want)
        if len(want):
            scale = np.max(np.abs(want))
            dist, match = cKDTree(want / scale).query(got / scale)
            assert np.max(dist) <= 1e-12 and len(set(match)) == len(want)
    for r in roots:
        vec = np.eye(sys.rank)[r.base]
        for s in reversed(r.word):
            vec = sys.gens[s] @ vec
        assert np.max(np.abs(vec - r.vector)) <= 1e-12 * np.max(np.abs(r.vector))
        assert not r.vector.flags.writeable


@pytest.mark.parametrize(
    "name, depth", [("fig1a", 12), ("fig1b", 9), ("universal3:1.1", 9), ("universal4:1", 7)]
)
def test_roots_match_the_reference(name, depth):
    _assert_roots_match_the_reference(make_system(name), depth)


@settings(max_examples=25, deadline=None)
@given(_graphs())
def test_roots_match_the_reference_on_generated_graphs(graph):
    _assert_roots_match_the_reference(make_system(graph), 5)


@pytest.mark.parametrize(
    "name, depth",
    [("universal3:1", 9), ("universal3:1.1", 9), ("universal3:5", 9), ("universal3:50", 9),
     ("universal4:10", 10)],
)
def test_universal_root_counts_match_the_closed_form(name, depth):
    # A universal Coxeter system of rank n has n (n - 1)^(d - 1) roots of depth d.
    sys = make_system(name)
    counts = Counter(r.depth for r in roots_by_depth(sys, depth))
    n = sys.rank
    for d in range(1, depth + 1):
        assert counts[d] == n * (n - 1) ** (d - 1)


def test_fundamental_weights_dual_basis():
    for name in ("fig1a", "fig1b", "fig8", "universal3:1", "universal3:1.1"):
        sys = make_system(name)
        W = np.column_stack([w.vector for w in fundamental_weights(sys)])
        np.testing.assert_allclose(sys.form @ W, np.eye(sys.rank), atol=1e-10)


def test_universal_weights_are_space_like(sys_u11):
    for w in fundamental_weights(sys_u11):
        bnorm = float(w.vector @ sys_u11.form @ w.vector)
        assert bnorm == pytest.approx(0.0396825396825, abs=1e-10)


def test_singular_form_has_no_weights():
    # The affine dihedral form (infinite label, c = 1) is singular.
    from limitroots import CoxeterGraph
    from limitroots.graphs import INF

    g = CoxeterGraph(rank=2, labels={(0, 1): INF}, cparams={(0, 1): 1.0})
    sys = make_system(g)
    with pytest.raises(ValueError):
        fundamental_weights(sys)


def test_simple_pair_intersections_space_like(sys_u11):
    cis = codim2_spacelike(sys_u11, roots_by_depth(sys_u11, 1))
    assert len(cis) == 3
    for ci in cis:
        assert ci.kind is IntersectionKind.SPACE_LIKE
        assert ci.pairing == pytest.approx(-1.1)
        # 1-dimensional space-like intersection, B-orthogonal to both roots.
        assert ci.basis.shape == (3, 1)
        v = ci.basis[:, 0]
        for r in ci.pair:
            assert abs(v @ sys_u11.form @ r.vector) < 1e-10
        assert v @ sys_u11.form @ v > 0


def test_marginal_pairs_are_light_like(sys_u1):
    cis = codim2_spacelike(sys_u1, roots_by_depth(sys_u1, 1))
    assert len(cis) == 3
    assert all(ci.kind is IntersectionKind.LIGHT_LIKE for ci in cis)


def test_intersection_equals_unimodular_subspace(sys_u11):
    cis = codim2_spacelike(sys_u11, roots_by_depth(sys_u11, 2))
    space_like = [ci for ci in cis if ci.kind is IntersectionKind.SPACE_LIKE]
    assert space_like
    assert intersection_equals_unimodular(sys_u11, space_like) == [True] * len(space_like)


def test_reflection_pair_closed_form_matches_spectral(sys_u11):
    cis = codim2_spacelike(sys_u11, roots_by_depth(sys_u11, 3))
    space_like = [ci for ci in cis if ci.kind is IntersectionKind.SPACE_LIKE]
    assert space_like
    for ci in space_like:
        a, b = (r.vector / math.sqrt(r.vector @ sys_u11.form @ r.vector) for r in ci.pair)
        c = -float(a @ sys_u11.form @ b)
        r = math.sqrt(c * c - 1)
        w = sys_u11.reflection_in(a) @ sys_u11.reflection_in(b)
        lam, x_plus, x_minus = classify(sys_u11, w).dominant
        assert lam == pytest.approx((c + r) ** 2, rel=1e-9)
        for x, t in ((x_plus, c - r), (x_minus, c + r)):
            np.testing.assert_allclose(
                to_chart(sys_u11, x).coords, to_chart(sys_u11, a + t * b).coords, atol=1e-9
            )
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            w_dec, lam_dec, xm, u = reflection_pair_eigendata(sys_u11, ci)
            assert float(lam_dec) == pytest.approx(lam, rel=1e-9)
            assert _eigen_residual(w_dec, xm, 1 / lam_dec) < 1e-40
            assert _eigen_residual(w_dec, u, 1) < 1e-40
        # The rank-2 update is the product of the two reflections; a wrong
        # sign of its -4c a(Bb)^T term would miss by 8c |a| |Bb|.  The float
        # product itself rounds at about 1e-14 of its largest entry.
        err = np.max(np.abs(np.array(w_dec, dtype=float) - w))
        assert err < 1e-12 * np.max(np.abs(w))


def _eigen_residual(w, x, scale):
    """Euclidean norm of w x - scale x, for w as a list of rows."""
    return sum((sum(map(mul, row, x)) - scale * v) ** 2 for row, v in zip(w, x)).sqrt()


def test_principal_sine_matches_subspace_angles(sys_u11):
    """The direct sine against scipy's angles: on the depth-3 space-like
    pairs, across unrelated intersections (large angles) and on random
    planes in R^5 (subspaces of dimension above one)."""
    cis = codim2_spacelike(sys_u11, roots_by_depth(sys_u11, 3))
    cis = [ci for ci in cis if ci.kind is IntersectionKind.SPACE_LIKE]
    pairs = []
    for ci in cis:
        r1, r2 = ci.pair
        w = sys_u11.reflection_in(r1.vector) @ sys_u11.reflection_in(r2.vector)
        pairs.append((ci.basis, unimodular_subspace(sys_u11, classify(sys_u11, w))))
    pairs += [(p.basis, q.basis) for p, q in zip(cis, cis[1:])]
    rng = np.random.default_rng(7)
    pairs += [
        tuple(np.linalg.qr(rng.standard_normal((5, 2)))[0] for _ in range(2)) for _ in range(20)
    ]
    for q1, q2 in pairs:
        assert principal_sine(q1, q2) == pytest.approx(
            math.sin(np.max(subspace_angles(q1, q2))), abs=1e-12
        )


def test_intersection_equals_unimodular_rejects_a_tilted_basis(sys_u11):
    """A direction B-orthogonal to the first root of the pair, at an angle
    theta from the intersection, passes only for theta below the 1e-7
    tolerance."""
    cis = codim2_spacelike(sys_u11, roots_by_depth(sys_u11, 2))
    ci = next(ci for ci in cis if ci.kind is IntersectionKind.SPACE_LIKE)
    plane = null_space((sys_u11.form @ ci.pair[0].vector)[None, :])
    off = plane @ null_space(ci.basis.T @ plane)
    cases = ((1e-9, True), (1e-6, False), (math.pi / 2, False))
    tilted = [
        dataclasses.replace(ci, basis=math.cos(theta) * ci.basis + math.sin(theta) * off)
        for theta, _ in cases
    ]
    assert intersection_equals_unimodular(sys_u11, tilted) == [e for _, e in cases]


def test_intersection_equals_unimodular_batch_matches_per_pair_reference(sys_u11):
    """One batch of true and tilted intersections against one ``classify``
    and one ``principal_sine`` per pair."""
    cis = codim2_spacelike(sys_u11, roots_by_depth(sys_u11, 3))
    cis = [ci for ci in cis if ci.kind is IntersectionKind.SPACE_LIKE]
    batch = []
    for k, ci in enumerate(cis):
        theta = (0.0, 1e-9, 1e-6, math.pi / 2)[k % 4]
        plane = null_space((sys_u11.form @ ci.pair[0].vector)[None, :])
        off = plane @ null_space(ci.basis.T @ plane)
        batch.append(
            dataclasses.replace(ci, basis=math.cos(theta) * ci.basis + math.sin(theta) * off)
        )
    expected = []
    for ci in batch:
        r1, r2 = ci.pair
        sc = classify(sys_u11, sys_u11.reflection_in(r1.vector) @ sys_u11.reflection_in(r2.vector))
        expected.append(
            sc.kind is Kind.HYPERBOLIC
            and principal_sine(ci.basis, sc.unimodular_basis) < math.sin(1e-7)
        )
    verdicts = intersection_equals_unimodular(sys_u11, batch)
    assert verdicts == expected
    assert verdicts == [k % 4 < 2 for k in range(len(batch))]


def test_sandwich_without_space_like_pairs_fails_without_raising(sys_u1):
    report = run_suite("sandwich", sys=sys_u1, depth=1)
    assert report["pass"] is False
    assert report["pairs"] == 0


def test_weights_sit_on_simple_pair_intersections(sys_u11):
    cis = codim2_spacelike(sys_u11, roots_by_depth(sys_u11, 1))
    for w in fundamental_weights(sys_u11):
        wpt = to_chart(sys_u11, w.vector)
        best = min(chart_distance(wpt, ci.chart_point(sys_u11)) for ci in cis)
        assert best < 1e-9


def test_sign_vector_symbols(sys_u11):
    roots = roots_by_depth(sys_u11, 1)
    center = to_chart(sys_u11, np.array([1.0, 1.0, 1.0]))
    assert sign_vector(sys_u11, center, roots) == "---"
    on_wall = to_chart(sys_u11, fundamental_weights(sys_u11)[0].vector)
    assert sign_vector(sys_u11, on_wall, roots)[1:] == "00"


def test_descent_recovers_the_acting_word(sys_u11):
    x0 = np.array([0.2, 0.3, 0.5])
    for word in [(0,), (0, 1, 0), (0, 1, 2, 0, 1)]:
        moved = to_chart(sys_u11, element_of(sys_u11, word).matrix @ x0)
        res = descend_to_fundamental(sys_u11, moved, 50)
        assert res.in_tits_cone
        assert tuple(reversed(res.word)) == tuple(
            element_of(sys_u11, tuple(reversed(word))).word
        )
        np.testing.assert_allclose(res.point.coords, x0, atol=1e-9)


def test_descent_gives_up_outside_budget(sys_u11):
    deep = element_of(sys_u11, (0, 1, 2) * 4)
    moved = to_chart(sys_u11, deep.matrix @ np.array([0.2, 0.3, 0.5]))
    res = descend_to_fundamental(sys_u11, moved, 3)
    assert not res.in_tits_cone
