"""Roots by depth, weights, codimension-2 intersections, and chamber descent."""

import decimal
import itertools
import math
from collections import Counter
from decimal import Decimal
from operator import mul
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.linalg import null_space, subspace_angles
from scipy.spatial import cKDTree
from test_coxeter_core import _graphs

import limitroots.arrangement
import limitroots.verify
from limitroots import (
    CoxeterGraph,
    classify,
    codim2_spacelike,
    element_of,
    fundamental_weights,
    intersection_equals_unimodular,
    make_system,
    roots_by_depth,
    to_chart,
)
from limitroots.arrangement import (
    Codim2Intersection,
    Codim2Set,
    IntersectionKind,
    IDENTITY_TOL,
    RootSet,
    pair_eigendata,
    pair_identity_residuals,
    principal_sine,
)
from limitroots.elements import _read_rows
from limitroots.errors import ExtractionError
from limitroots.graphs import word_to_str
from limitroots.projective import chart_distances
from limitroots.spectral import Kind, classify_many, unimodular_subspace
from limitroots.verify import run_suite


def test_root_counts_by_depth(sys_u1, sys_u11):
    for sys in (sys_u1, sys_u11):
        roots = roots_by_depth(sys, 3)
        assert Counter(len(w) for w in roots.words) == {1: 3, 2: 6, 3: 12}


def test_depth_one_roots_are_simple(sys_u1):
    roots = roots_by_depth(sys_u1, 1)
    assert len(roots) == 3
    assert {tuple(v) for v in roots.vectors} == {
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
    }


def test_all_roots_positive(sys_u11):
    assert np.min(roots_by_depth(sys_u11, 4).vectors) > -1e-9


def test_root_word_reproduces_vector(sys_u1):
    roots = roots_by_depth(sys_u1, 3)
    for vector, word in zip(roots.vectors, roots.words):
        w = element_of(sys_u1, word[:-1])
        np.testing.assert_allclose(w.matrix @ np.eye(3)[word[-1]], vector, atol=1e-9)


def _roots_by_depth_int64(sys, max_depth):
    """``roots_by_depth`` with its word table in int64: (vectors, words)."""
    n, act = sys.rank, sys.small_roots
    D = np.array([g[t] for t, g in enumerate(sys.gens)]) - np.eye(n)
    X, P, W, base = np.eye(n), sys.form, np.empty((n, 0), np.int64), np.arange(n, dtype=np.int64)
    levels = [(X, W, base)]
    for _ in range(2, max_depth + 1):
        T, V = np.repeat(np.arange(n, dtype=np.int64), len(W)), np.tile(np.arange(len(W)), n)
        words = np.column_stack((T, W[V], base[V], W[V, ::-1], T))
        reduced, S = _read_rows(act, words)
        keep = reduced & (np.argmax(S[:, :n], axis=1) == T)
        T, V = T[keep], V[keep]
        X = X[V]
        X[np.arange(len(V)), T] -= 2 * P[V, T]
        P, W, base = P[V] + P[V, T, None] * D[T], np.column_stack((T, W[V])), base[V]
        levels.append((X, W, base))
    words = tuple(tuple(w) for _, W, base in levels for w in np.column_stack((W, base)).tolist())
    return np.concatenate([X for X, _, _ in levels]), words


def test_roots_match_the_int64_word_table():
    """The word table in the letter dtype gives the int64 table's roots: the
    same vector bytes, and the same words as tuples of Python ints."""
    sys = make_system("fig1b")
    roots = roots_by_depth(sys, 9)
    vectors, words = _roots_by_depth_int64(sys, 9)
    assert roots.vectors.tobytes() == vectors.tobytes() and len(roots) == len(words) == 13243
    assert roots.words == words
    assert {type(a) for w in roots.words for a in w} == {int}


def _reference_roots(sys, max_depth):
    """Breadth-first search over reflections with a rounded-vector dedup.

    The oracle, independent of pairing signs and their bounds, for
    ``roots_by_depth``: each root's images under the generators are probed
    against vectors rounded to a 1e-9 grid, and a negative image is dropped.
    Coefficients are kept below 1e6, where that grid still tells roots apart
    and its integer keys cannot overflow.  Each root is a pair (vector,
    word), the word its prefix followed by its base.
    """
    n = sys.rank

    def key(vec):
        assert np.max(np.abs(vec)) <= 1e6
        return np.round(vec / 1e-9).astype(np.int64).tobytes()

    roots = [(np.eye(n)[s], (s,)) for s in range(n)]
    seen = {key(vector) for vector, _ in roots}
    frontier = list(roots)
    for _ in range(2, max_depth + 1):
        next_frontier = []
        for vector, word in frontier:
            for s in range(n):
                vec = sys.gens[s] @ vector
                if np.min(vec) < -1e-9 or key(vec) in seen:
                    continue
                seen.add(key(vec))
                next_frontier.append((vec, (s,) + word))
        roots += next_frontier
        frontier = next_frontier
    return roots


def _assert_roots_match_the_reference(sys, max_depth):
    roots = roots_by_depth(sys, max_depth)
    ref = _reference_roots(sys, max_depth)
    depths = np.array([len(w) for w in roots.words])
    for depth in range(1, max_depth + 1):
        got = roots.vectors[depths == depth]
        want = np.array([v for v, w in ref if len(w) == depth]).reshape(-1, sys.rank)
        assert len(got) == len(want)
        if len(want):
            scale = np.max(np.abs(want))
            dist, match = cKDTree(want / scale).query(got / scale)
            assert np.max(dist) <= 1e-12 and len(set(match)) == len(want)
    for vector, word in zip(roots.vectors, roots.words):
        vec = np.eye(sys.rank)[word[-1]]
        for s in reversed(word[:-1]):
            vec = sys.gens[s] @ vec
        assert np.max(np.abs(vec - vector)) <= 1e-12 * np.max(np.abs(vector))
    assert len(roots) == len(roots.vectors) and not roots.vectors.flags.writeable


@pytest.mark.parametrize(
    "name, depth",
    [("fig1a", 12), ("fig1b", 9), ("universal3:1.1", 9), ("universal4:1", 7), ("dihedral:100", 60)],
)
def test_roots_match_the_reference(name, depth):
    _assert_roots_match_the_reference(make_system(name), depth)


@pytest.mark.parametrize(
    "labels, depth",
    [
        ({(0, 1): 3, (1, 2): 3, (2, 3): 3}, 4),  # A4
        ({(0, 1): 3, (1, 2): 3, (2, 3): 4}, 6),  # B4
        ({(0, 1): 5, (1, 2): 3}, 7),  # H3
        ({(0, 1): 5, (1, 2): 3, (2, 3): 3}, 23),  # H4
        ({(0, 1): 3, (1, 2): 4, (2, 3): 3}, 8),  # F4
        ({(0, 2): 3, (1, 3): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (6, 7): 3}, 29),  # E8
        ({(0, 1): 7}, 4),  # I2(7)
    ],
)
def test_reflection_of_a_root_has_length_twice_its_depth_less_one(labels, depth):
    """l(s_beta) = 2 dp(beta) - 1, the rule ``roots_by_depth`` reads with
    the automaton, checked without it: in a finite group l(s_beta) is the
    number of positive roots s_beta makes negative, counted over the
    reference roots with the float reflection matrix."""
    sys = make_system(CoxeterGraph(1 + max(j for _, j in labels), labels))
    ref = _reference_roots(sys, depth + 1)
    assert max(len(w) for _, w in ref) == depth
    R = np.array([v for v, _ in ref])
    for vector, word in ref:
        negated = (R @ sys.reflection_in(vector).T).sum(axis=1) < 0
        assert np.count_nonzero(negated) == 2 * len(word) - 1
    _assert_roots_match_the_reference(sys, depth + 1)


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
    counts = Counter(len(w) for w in roots_by_depth(sys, depth).words)
    n = sys.rank
    for d in range(1, depth + 1):
        assert counts[d] == n * (n - 1) ** (d - 1)


def test_fundamental_weights_dual_basis():
    for name in ("fig1a", "fig1b", "fig8", "universal3:1", "universal3:1.1"):
        sys = make_system(name)
        W = fundamental_weights(sys)
        assert W.tobytes() == np.linalg.inv(sys.form).tobytes()
        assert not W.flags.writeable
        np.testing.assert_allclose(sys.form @ W, np.eye(sys.rank), atol=1e-10)


def test_universal_weights_are_space_like(sys_u11):
    for w in fundamental_weights(sys_u11).T:
        bnorm = float(w @ sys_u11.form @ w)
        assert bnorm == pytest.approx(0.0396825396825, abs=1e-10)


def test_singular_form_has_no_weights():
    # The affine dihedral form (infinite label, c = 1) is singular.
    from limitroots.graphs import INF

    g = CoxeterGraph(rank=2, labels={(0, 1): INF}, cparams={(0, 1): 1.0})
    sys = make_system(g)
    with pytest.raises(ValueError):
        fundamental_weights(sys)


def test_simple_pair_intersections_space_like(sys_u11):
    roots = roots_by_depth(sys_u11, 1)
    cis = codim2_spacelike(sys_u11, roots)
    assert len(cis) == 3
    for ci in cis:
        assert ci.kind is IntersectionKind.SPACE_LIKE
        assert ci.pairing == pytest.approx(-1.1)
        # 1-dimensional space-like intersection, B-orthogonal to both roots.
        assert ci.basis.shape == (3, 1)
        v = ci.basis[:, 0]
        for r in ci.pair:
            assert abs(v @ sys_u11.form @ roots.vectors[r]) < 1e-10
        assert v @ sys_u11.form @ v > 0


def test_marginal_pairs_are_light_like(sys_u1):
    cis = codim2_spacelike(sys_u1, roots_by_depth(sys_u1, 1))
    assert len(cis) == 3
    assert all(ci.kind is IntersectionKind.LIGHT_LIKE for ci in cis)


def test_codim2_set_columns_and_records(sys_u1):
    """A ``Codim2Set`` has aligned read-only columns; a mask gives the rows
    it selects, and an integer index or iteration (what a tracer counting
    space-like records reads) gives records equal to the columns.  Without
    a kept pair the columns keep their shapes."""
    cis = codim2_spacelike(sys_u1, roots_by_depth(sys_u1, 3))
    assert len(cis) == 180 and cis.pairs.shape == (180, 2) and cis.bases.shape == (180, 3, 1)
    columns = ("pairs", "bases", "space_like", "pairings")
    for mask in (cis.space_like, ~cis.space_like):
        part = cis[mask]
        assert 0 < len(part) < len(cis)
        for name in columns:
            assert np.array_equal(getattr(part, name), getattr(cis, name)[mask])
            assert not getattr(part, name).flags.writeable
    assert not any(getattr(cis, name).flags.writeable for name in columns)
    records = list(cis)
    assert sum(ci.kind.value == "space-like" for ci in records) == np.count_nonzero(cis.space_like)
    for k, record in enumerate(records):
        for ci in (record, cis[k], cis[k - len(cis)]):
            assert type(ci) is Codim2Intersection
            assert ci.pair == tuple(cis.pairs[k].tolist()) and type(ci.pair[0]) is int
            assert np.array_equal(ci.basis, cis.bases[k])
            space_like = ci.kind is IntersectionKind.SPACE_LIKE
            assert space_like == cis.space_like[k] and ci.pairing == cis.pairings[k]
    a4 = CoxeterGraph(rank=4, labels={(0, 1): 3, (1, 2): 3, (2, 3): 3})
    for sys in (make_system("a3"), make_system(a4)):
        empty = codim2_spacelike(sys, roots_by_depth(sys, 3))
        assert len(empty) == 0 and list(empty) == []
        assert empty.pairs.shape == (0, 2) and empty.bases.shape == (0, sys.rank, sys.rank - 2)
        assert empty.space_like.shape == empty.pairings.shape == (0,)


@pytest.mark.parametrize(
    "graph, depth",
    [("universal3:1.1", 5), ("universal3:1", 5), ("universal3:5", 5), ("universal3:50", 5),
     ("fig1b", 4), ("universal4:10", 4)],
)
def test_stacked_reflections_match_the_per_vector_formula(graph, depth):
    """``reflections`` of the stacked roots, and ``reflection_in`` of each
    (a stack of one), equal I - (2 / B(v, v)) v (Bv)^T formed one root at
    a time, bit for bit: the sandwich oracle's products, and so its
    reports, are built from them."""
    sys = make_system(graph)
    R = roots_by_depth(sys, depth).vectors
    B, eye = sys.form, np.eye(sys.rank)
    expected = np.array([eye - (2.0 / float(v @ B @ v)) * np.outer(v, B @ v) for v in R])
    assert np.array_equal(sys.reflections(R), expected)
    assert np.array_equal([sys.reflection_in(v) for v in R], expected)


def test_reflections_name_the_first_isotropic_row(sys_u1):
    with pytest.raises(ValueError, match=r"isotropic vector \(row 2\)"):
        sys_u1.reflections([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])


def _codim2_per_pair(sys, roots, tol=1e-9):
    """The per-pair loop ``codim2_spacelike`` replaced: one pairing, one
    null space and one ``eigvalsh`` per pair."""
    out = []
    for a, b in itertools.combinations(range(len(roots)), 2):
        r1, r2 = roots.vectors[a], roots.vectors[b]
        pairing = float(r1 @ sys.form @ r2)
        if pairing < -1.0 - tol:
            kind = IntersectionKind.SPACE_LIKE
        elif abs(pairing + 1.0) <= tol:
            kind = IntersectionKind.LIGHT_LIKE
        else:
            continue
        basis = null_space(np.vstack([sys.form @ r1, sys.form @ r2]))
        if basis.shape[1] != sys.rank - 2:
            raise ExtractionError(f"codimension-2 intersection has dimension {basis.shape[1]}")
        if kind is IntersectionKind.SPACE_LIKE:
            if np.min(np.linalg.eigvalsh(basis.T @ sys.form @ basis)) <= 0:
                raise ExtractionError(
                    f"restricted form not positive-definite for pair "
                    f"({word_to_str(roots.words[a])}, {word_to_str(roots.words[b])})"
                )
        out.append(Codim2Intersection(pair=(a, b), basis=basis, kind=kind, pairing=pairing))
    return out


@pytest.mark.parametrize(
    "graph, depth", [("fig1a", 5), ("fig1b", 4), ("universal3:1.1", 5), ("universal4:1", 4)]
)
def test_codim2_batch_matches_the_per_pair_loop(graph, depth):
    """The same pairs and kinds in the same order, pairings within 1e-12
    relative and projectors QQ^T within 1e-14 of the per-pair loop's."""
    sys = make_system(graph)
    roots = roots_by_depth(sys, depth)
    got, expected = codim2_spacelike(sys, roots), _codim2_per_pair(sys, roots)
    assert len(got) == len(expected) > 0
    for a, b in zip(got, expected):
        assert a.pair == b.pair and a.kind is b.kind
        assert abs(a.pairing - b.pairing) <= 1e-12 * abs(b.pairing)
        np.testing.assert_allclose(
            a.basis @ a.basis.T, b.basis @ b.basis.T, rtol=0, atol=1e-14
        )


def test_codim2_names_the_first_pair_without_a_definite_form():
    """On a form of signature (2, 2) some space-like pairs have an
    indefinite complement: the error names the first such pair in
    ``itertools.combinations`` order, as the per-pair loop does."""
    sys = SimpleNamespace(form=np.diag([1.0, 1.0, -1.0, -1.0]), rank=4)
    vectors = [(0, 0, 1, 0), (0, 0, 2, 1), (1, 0, 2, 0), (0, 1, 2, 0)]
    roots = RootSet(np.array(vectors, float), [(k,) for k in range(len(vectors))])
    with pytest.raises(ExtractionError) as expected:
        _codim2_per_pair(sys, roots)
    with pytest.raises(ExtractionError) as got:
        codim2_spacelike(sys, roots)
    assert str(got.value) == str(expected.value)
    assert str(got.value).endswith("pair (s, u)")
    first_two = RootSet(roots.vectors[:2], roots.words[:2])
    assert codim2_spacelike(sys, first_two)[0].kind is IntersectionKind.SPACE_LIKE


def test_intersection_equals_unimodular_subspace(sys_u11):
    roots = roots_by_depth(sys_u11, 2)
    cis = codim2_spacelike(sys_u11, roots)
    space_like = cis[cis.space_like]
    assert len(space_like)
    verdicts, sines = intersection_equals_unimodular(sys_u11, roots, space_like)
    assert verdicts == [True] * len(space_like)
    assert max(sines) < math.sin(1e-7)


def _space_like_eigendata(sys, depth):
    roots = roots_by_depth(sys, depth)
    cis = codim2_spacelike(sys, roots)
    cis = cis[cis.space_like]
    assert len(cis)
    return roots, cis, pair_eigendata(sys, roots, cis.pairs)


def test_reflection_pair_closed_form_matches_spectral(sys_u11):
    roots, cis, e = _space_like_eigendata(sys_u11, 3)
    assert pair_identity_residuals(sys_u11, e).max() < IDENTITY_TOL
    for row, ci in enumerate(cis):
        a, b = (v / math.sqrt(v @ sys_u11.form @ v) for v in roots.vectors[list(ci.pair)])
        c = -float(a @ sys_u11.form @ b)
        r = math.sqrt(c * c - 1)
        w = sys_u11.reflection_in(a) @ sys_u11.reflection_in(b)
        lam, x_plus, x_minus = classify(sys_u11, w).dominant
        assert lam == pytest.approx((c + r) ** 2, rel=1e-9)
        assert e.lam[row] == pytest.approx(lam, rel=1e-9)
        for x, t in ((x_plus, c - r), (x_minus, c + r)):
            np.testing.assert_allclose(
                to_chart(x), to_chart(a + t * b), atol=1e-9
            )
        for x, y in ((x_plus, e.x_plus[row]), (x_minus, e.x_minus[row])):
            np.testing.assert_allclose(to_chart(x), to_chart(y), atol=1e-9)
        # The rank-2 update is the product of the two reflections; a wrong
        # sign of its -4c a(Bb)^T term would miss by 8c |a| |Bb|.  The float
        # product itself rounds at about 1e-14 of its largest entry.
        g = e.Ba[row] + 2 * e.c[row] * e.Bb[row]
        update = np.eye(3) - 2 * np.outer(e.a[row], g) - 2 * np.outer(e.b[row], e.Bb[row])
        assert np.max(np.abs(update - w)) < 1e-12 * np.max(np.abs(w))


def _decimal_unit_pair(sys, roots, ci):
    """The two roots of the pair scaled to B-norm 1, with B times each, in
    ``decimal`` at the current context's precision: (a, Ba, b, Bb)."""
    B = [[Decimal(x) for x in row] for row in sys.form.tolist()]
    a, b = ([Decimal(x) for x in roots.vectors[r].tolist()] for r in ci.pair)
    a, b = (_decimal_unit(v, _decimal_dot(v, [_decimal_dot(row, v) for row in B])) for v in (a, b))
    Ba, Bb = ([_decimal_dot(row, v) for row in B] for v in (a, b))
    return a, Ba, b, Bb


def _decimal_dot(v, x):
    return sum(map(mul, v, x))


def _decimal_unit(v, norm2):
    s = norm2.sqrt()
    return [x / s for x in v]


def _per_pair_eigendata(sys, roots, ci):
    """The eigendata of w = s_a s_b for one pair in ``decimal``, independent
    of the float stack: w as a list of rows, lam, and x_minus and
    u = Ba x Bb as Euclidean unit vectors."""
    n = sys.rank
    a, Ba, b, Bb = _decimal_unit_pair(sys, roots, ci)
    c = -_decimal_dot(Ba, b)
    t = c + (c * c - 1).sqrt()
    g = [p + 2 * c * q for p, q in zip(Ba, Bb)]
    w = [[-2 * (a[i] * g[j] + b[i] * Bb[j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        w[i][i] += 1
    x_minus = [p + t * q for p, q in zip(a, b)]
    u = [Ba[i - 2] * Bb[i - 1] - Ba[i - 1] * Bb[i - 2] for i in range(n)]
    return (w, t * t, _decimal_unit(x_minus, _decimal_dot(x_minus, x_minus)),
            _decimal_unit(u, _decimal_dot(u, u)))


def test_per_root_eigendata_matches_the_per_pair_reference():
    """At depth 5 on universal3:1, universal3:1.1 and universal3:5, the
    float stack matches the 60-digit per-pair reference: lam relative, and
    x_minus and u (up to sign) entrywise, within 8 eps m c / r per pair,
    m = a^T|B|a + b^T|B|b + a^T|B|b and r = sqrt(c^2 - 1).  To first order
    the B-norm scaling (2.5 eps m relative for a and for b) and the
    pairing's dot products round c by at most 3 eps m relative; lam moves
    by 2c/r times that, x_minus by at most c/r times it plus the scaling's
    2.5 eps m.  u, from the cross product of Ba and Bb, stays far inside.
    The reference's own identities hold to 1e-40."""
    eps = np.finfo(float).eps
    for graph in ("universal3:1", "universal3:1.1", "universal3:5"):
        sys = make_system(graph)
        roots, cis, e = _space_like_eigendata(sys, 5)
        A = np.abs(sys.form)
        m = sum(np.einsum("ij,jk,ik->i", x, A, y) for x, y in ((e.a, e.a), (e.b, e.b), (e.a, e.b)))
        tol = 8 * eps * m * e.c / np.sqrt((e.c - 1) * (e.c + 1))
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for row, ci in enumerate(cis):
                w, lam, x_minus, u = _per_pair_eigendata(sys, roots, ci)
                assert _eigen_residual(w, x_minus, 1 / lam) < 1e-40
                assert _eigen_residual(w, u, 1) < 1e-40
                assert abs(e.lam[row] - float(lam)) <= tol[row] * float(lam)
                assert np.max(np.abs(e.x_minus[row] - np.array(x_minus, float))) <= tol[row]
                u = np.array(u, float)
                assert np.max(np.abs(e.u[row] - np.sign(u @ e.u[row]) * u)) <= tol[row]


def test_pair_eigendata_refuses_a_light_like_pair(sys_u1):
    roots = roots_by_depth(sys_u1, 1)
    ci = codim2_spacelike(sys_u1, roots)[0]
    assert ci.kind is IntersectionKind.LIGHT_LIKE
    with pytest.raises(ValueError, match="space-like pairs"):
        pair_eigendata(sys_u1, roots, [ci.pair])


def test_pair_eigendata_refuses_rank_four():
    sys = make_system("universal4:1")
    roots = roots_by_depth(sys, 2)
    ci = next(ci for ci in codim2_spacelike(sys, roots) if ci.kind is IntersectionKind.SPACE_LIKE)
    with pytest.raises(ValueError, match="need rank 3, not rank 4"):
        pair_eigendata(sys, roots, [ci.pair])


def _longest_projection(a, Ba, b, Bb):
    """The fixed vector that u = Ba x Bb replaced: the longest B-orthogonal
    projection of a simple root off span{a, b}, as a Euclidean unit vector.
    B(a, e_s) = (Ba)_s, and the coefficients come from the inverse Gram
    matrix [[1, c], [c, 1]] / (1 - c^2) of (a, b)."""
    n, c = len(a), -sum(map(mul, Ba, b))

    def project(s):
        f, h, d = Ba[s] + c * Bb[s], c * Ba[s] + Bb[s], 1 - c * c
        return [(i == s) - (a[i] * f + b[i] * h) / d for i in range(n)]

    u = max(map(project, range(n)), key=lambda v: sum(map(mul, v, v)))
    norm = sum(map(mul, u, u)).sqrt()
    return [x / norm for x in u]


@pytest.mark.parametrize("graph", ["universal3:1", "universal3:1.1", "universal3:5"])
def test_cross_product_spans_the_fixed_line(graph):
    """At depth 5, the stacked u = Ba x Bb is the 60-digit longest
    projection up to sign within 1e-14, is B-orthogonal to a and b within
    1e-12 of |Ba| and |Bb|, and w fixes it within the identity bound."""
    sys = make_system(graph)
    roots, cis, e = _space_like_eigendata(sys, 5)
    assert pair_identity_residuals(sys, e).max() < IDENTITY_TOL
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        ref = np.array([_longest_projection(*_decimal_unit_pair(sys, roots, ci)) for ci in cis], float)
    ref *= np.sign(np.einsum("ij,ij->i", ref, e.u))[:, None]
    assert np.max(np.abs(e.u - ref)) < 1e-14
    for Bx in (e.Ba, e.Bb):
        assert np.all(np.abs(np.einsum("ij,ij->i", e.u, Bx)) < 1e-12 * np.linalg.norm(Bx, axis=1))


@pytest.mark.parametrize("field", ["u", "x_minus", "lam"])
def test_identity_check_fails_every_pair_under_a_perturbation(sys_u11, monkeypatch, field):
    """A 1e-6 perturbation of u, of x_minus (both along one fixed unit
    vector) or of lam (relative) breaks the eigen-identities of every pair
    of universal3:1.1 at depth 4, and the sandwich report counts every pair
    as a dynamics failure.  A perturbed lam leaves every end point in
    place: only the x_plus identity sees it."""
    v = np.array([1.0, -2.0, 3.0]) / math.sqrt(14.0)

    def perturbed(sys, roots, pairs):
        e = pair_eigendata(sys, roots, pairs)
        if field == "lam":
            return e._replace(lam=e.lam * (1 + 1e-6))
        return e._replace(**{field: getattr(e, field) + 1e-6 * v})

    roots, cis, e = _space_like_eigendata(sys_u11, 4)
    assert pair_identity_residuals(sys_u11, e).max() < IDENTITY_TOL
    bad = perturbed(sys_u11, roots, cis.pairs)
    assert pair_identity_residuals(sys_u11, bad).min() > IDENTITY_TOL
    monkeypatch.setattr(limitroots.verify, "pair_eigendata", perturbed)
    report = run_suite("sandwich", sys=sys_u11, depth=4)
    assert report["pass"] is False
    assert report["dynamics_failures"] == report["pairs"] == 888
    assert report["worst_identity_residual"] > report["identity_bound"] == IDENTITY_TOL
    if field == "lam":
        assert report["worst_dynamics_residual"] < 1e-11


@pytest.mark.parametrize(
    "graph, depth, count", [("universal3:1", 5, 249), ("fig1b", 4, 100), ("universal4:1", 4, 456)]
)
def test_light_like_pairs_give_parabolic_products(graph, depth, count):
    """The light-like half of the arrangement theorem: for a pair with
    pairing -1, s_a s_b is parabolic and its fixed isotropic vector lies
    in the intersection of the two hyperplanes."""
    sys = make_system(graph)
    roots = roots_by_depth(sys, depth)
    cis = codim2_spacelike(sys, roots)
    cis = cis[~cis.space_like]
    assert len(cis) == count
    R = [sys.reflection_in(v) for v in roots.vectors]
    products = [R[a] @ R[b] for a, b in cis.pairs]
    for ci, sc in zip(cis, classify_many(sys, products, det=1)):
        assert sc.kind is Kind.PARABOLIC
        v = sc.parabolic_vec / np.linalg.norm(sc.parabolic_vec)
        assert principal_sine(ci.basis, v[:, None]) < 1e-10


def _eigen_residual(w, x, scale):
    """Euclidean norm of w x - scale x, for w as a list of rows."""
    return sum((sum(map(mul, row, x)) - scale * v) ** 2 for row, v in zip(w, x)).sqrt()


def test_principal_sine_matches_subspace_angles(sys_u11):
    """The direct sine against scipy's angles: on the depth-3 space-like
    pairs, across unrelated intersections (large angles) and on random
    planes in R^5 (subspaces of dimension above one)."""
    roots = roots_by_depth(sys_u11, 3)
    cis = codim2_spacelike(sys_u11, roots)
    cis = cis[cis.space_like]
    pairs = []
    for ci in cis:
        r1, r2 = roots.vectors[list(ci.pair)]
        w = sys_u11.reflection_in(r1) @ sys_u11.reflection_in(r2)
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


def _tilted(sys, roots, cis, thetas):
    """The set cis with each basis turned by its theta towards a direction
    B-orthogonal to the first root of its pair."""
    bases = []
    for ci, theta in zip(cis, thetas):
        plane = null_space((sys.form @ roots.vectors[ci.pair[0]])[None, :])
        off = plane @ null_space(ci.basis.T @ plane)
        bases.append(math.cos(theta) * ci.basis + math.sin(theta) * off)
    return Codim2Set(cis.pairs, bases, cis.space_like, cis.pairings)


def test_intersection_equals_unimodular_rejects_a_tilted_basis(sys_u11):
    """A direction B-orthogonal to the first root of the pair, at an angle
    theta from the intersection, passes only for theta below the 1e-7
    tolerance."""
    roots = roots_by_depth(sys_u11, 2)
    cis = codim2_spacelike(sys_u11, roots)
    cases = ((1e-9, True), (1e-6, False), (math.pi / 2, False))
    first = cis[np.repeat(np.flatnonzero(cis.space_like)[:1], len(cases))]
    tilted = _tilted(sys_u11, roots, first, [theta for theta, _ in cases])
    assert intersection_equals_unimodular(sys_u11, roots, tilted)[0] == [e for _, e in cases]


def test_intersection_equals_unimodular_batch_matches_per_pair_reference(sys_u11):
    """One batch of true and tilted intersections against one ``classify``
    and one ``principal_sine`` per pair."""
    roots = roots_by_depth(sys_u11, 3)
    cis = codim2_spacelike(sys_u11, roots)
    cis = cis[cis.space_like]
    thetas = [(0.0, 1e-9, 1e-6, math.pi / 2)[k % 4] for k in range(len(cis))]
    batch = _tilted(sys_u11, roots, cis, thetas)
    expected = []
    for ci in batch:
        r1, r2 = roots.vectors[list(ci.pair)]
        sc = classify(sys_u11, sys_u11.reflection_in(r1) @ sys_u11.reflection_in(r2))
        assert sc.kind is Kind.HYPERBOLIC
        expected.append(float(principal_sine(ci.basis, unimodular_subspace(sys_u11, sc))))
    verdicts, sines = intersection_equals_unimodular(sys_u11, roots, batch)
    assert verdicts == [s < math.sin(1e-7) for s in expected]
    assert verdicts == [k % 4 < 2 for k in range(len(batch))]
    assert sines == expected


def test_intersection_equals_unimodular_reads_each_pair_by_its_rows(sys_u11):
    """A pair's rows pick its reflections, whatever the batch: on a reversed
    subset of the depth-4 space-like pairs, each pair gets the verdict and
    the sine it gets in the full batch."""
    roots = roots_by_depth(sys_u11, 4)
    cis = codim2_spacelike(sys_u11, roots)
    cis = cis[cis.space_like]
    verdicts, sines = intersection_equals_unimodular(sys_u11, roots, cis)
    subset = cis[::-3]
    assert len(subset) == 296 and subset[0].pair > subset[-1].pair
    assert intersection_equals_unimodular(sys_u11, roots, subset) == (verdicts[::-3], sines[::-3])


def test_stacked_reflection_products_match_the_per_pair_products(sys_u11, monkeypatch):
    """The products R_a R_b that ``intersection_equals_unimodular`` forms
    from one reflection matrix per root row, in one stacked matmul, equal
    one ``reflection_in`` product per pair bit for bit (depth 4)."""
    roots = roots_by_depth(sys_u11, 4)
    cis = codim2_spacelike(sys_u11, roots)
    cis = cis[cis.space_like]
    seen = []

    def spy(sys, mats, det=None):
        seen.append(np.array(mats))
        return classify_many(sys, mats, det=det)

    monkeypatch.setattr(limitroots.arrangement, "classify_many", spy)
    intersection_equals_unimodular(sys_u11, roots, cis)
    expected = [
        sys_u11.reflection_in(roots.vectors[a]) @ sys_u11.reflection_in(roots.vectors[b])
        for a, b in cis.pairs
    ]
    assert len(seen) == 1 and seen[0].shape == (888, 3, 3)
    assert np.array_equal(seen[0], np.array(expected))


def test_sandwich_without_space_like_pairs_fails_without_raising(sys_u1):
    report = run_suite("sandwich", sys=sys_u1, depth=1)
    assert report["pass"] is False
    assert report["pairs"] == 0
    assert (report["roots"], report["dynamics_steps"], report["worst_angle_sine"]) == (3, 0, 0.0)
    assert report["worst_dynamics_residual"] == report["worst_identity_residual"] == 0.0


def test_sandwich_report_counters_at_depth_4(sys_u11):
    """The deterministic counters of the sandwich report on universal3:1.1
    at depth 4; the worst principal sine sits at rounding level, far below
    the angle tolerance sin(1e-7), and the worst eigen-identity residual
    below its bound."""
    report = run_suite("sandwich", sys=sys_u11, depth=4)
    assert report["pass"] is True
    assert (report["roots"], report["pairs"], report["dynamics_steps"]) == (45, 888, 8874)
    assert report["angle_failures"] == report["dynamics_failures"] == 0
    assert report["worst_angle_sine"] == pytest.approx(1.0e-12, rel=0.1)
    assert report["worst_dynamics_residual"] == pytest.approx(2.7e-12, rel=0.1)
    assert report["worst_identity_residual"] < report["identity_bound"] == IDENTITY_TOL


def test_weights_sit_on_simple_pair_intersections(sys_u11):
    cis = codim2_spacelike(sys_u11, roots_by_depth(sys_u11, 1))
    weights = to_chart(fundamental_weights(sys_u11).T)
    best = chart_distances(weights[:, None], to_chart(cis.bases[:, :, 0])).min(axis=1)
    assert best.shape == (3,) and best.max() < 1e-9
