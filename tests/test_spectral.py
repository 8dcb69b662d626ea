"""Elliptic / parabolic / hyperbolic classification and eigendirections."""

import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from scipy.linalg import null_space

from limitroots import (
    classify,
    element_of,
    hyperbolic_directions,
    make_system,
    parabolic_direction,
    unimodular_subspace,
)
from limitroots import spectral
from limitroots.arrangement import IntersectionKind, codim2_spacelike, roots_by_depth
from limitroots.errors import BorderlineSpectrumError, ClassificationError, NotLorentzianError
from limitroots.graphs import INF, CoxeterGraph
from limitroots.elements import GroupElement, enumerate_elements
from limitroots.spectral import Kind, classify_many

# fig1b with its generators relabeled 0->1, 1->2, 2->3, 3->0.
FIG1B_RELABELED = CoxeterGraph(
    rank=4,
    labels={(0, 1): INF, (0, 2): 3, (0, 3): 3, (1, 2): 5, (1, 3): 5, (2, 3): 3},
    cparams={(0, 1): 1.0},
)
JORDAN_GUARD_WORDS = [(0, 1, 2, 3, 0, 2, 1, 0), (0, 1, 3, 2, 0, 3, 1, 0), (0, 3, 1, 2, 0, 1, 3, 0)]


def test_generator_is_elliptic_of_order_two(sys_u1):
    sc = classify(sys_u1, element_of(sys_u1, (0,)))
    assert sc.kind is Kind.ELLIPTIC
    assert sc.order == 2


@pytest.mark.parametrize(
    "word", [(1, 0, 2, 3, 1, 2, 0, 1), (1, 0, 3, 2, 1, 3, 0, 1), (2, 1, 0, 3, 1, 0, 1, 2)]
)
def test_large_entry_elliptic_elements_have_their_finite_order(word):
    # These conjugates have entries of 370-500, so the powers that equal I
    # miss it by ~1e-8 in double precision.
    labels = FIG1B_RELABELED.labels
    sys = make_system(FIG1B_RELABELED)
    elem = element_of(sys, word)
    assert np.max(np.abs(elem.matrix)) > 300
    sc = classify(sys, elem)
    assert sc.kind is Kind.ELLIPTIC
    # Oracle: the same product in 50-digit arithmetic, from the form alone.
    with mpmath.workdps(50):
        B = mpmath.eye(4)
        for (i, j), m in labels.items():
            B[i, j] = B[j, i] = -1 if m is INF else -mpmath.cos(mpmath.pi / m)
        M = mpmath.eye(4)
        for s in word:
            gen = mpmath.eye(4)
            for j in range(4):
                gen[s, j] -= 2 * B[s, j]
            M = M * gen
        P = mpmath.eye(4)
        for j in range(1, sc.order):
            P = P * M
            assert mpmath.mnorm(P - mpmath.eye(4), 1) > 0.1
        assert mpmath.mnorm(P * M - mpmath.eye(4), 1) < 1e-30


@pytest.mark.parametrize("word", JORDAN_GUARD_WORDS)
def test_jordan_guard_scales_with_the_matrix_norm(word):
    # |M|_F = 5002: a dense eigensolve splits the Jordan triple at 1 by more
    # than 1e-3, so no eigenvalue radius separates these elements from
    # weakly hyperbolic ones; the traces put them at x = 2 exactly.
    sys = make_system("universal4:1")
    elem = element_of(sys, word)
    assert np.max(np.abs(np.linalg.eigvals(elem.matrix) - 1.0)) > 1e-3
    sc = classify(sys, elem)
    assert sc.kind is Kind.PARABOLIC
    assert sc.parabolic_eps == 1
    v = sc.parabolic_vec
    assert abs(v @ sys.form @ v) < 1e-12
    np.testing.assert_allclose(elem.matrix @ v, v, rtol=0, atol=1e-9 * np.linalg.norm(elem.matrix))
    # Oracle: the form of universal4:1 is integral, so the matrix is exact
    # and (M - I) is nilpotent of index 3, as for a single Jordan block.
    A = elem.matrix.astype(np.int64) - np.eye(4, dtype=np.int64)
    assert np.array_equal(elem.matrix, A + np.eye(4))
    assert np.any(A @ A != 0)
    assert not np.any(A @ A @ A)


def test_finite_order_search_stops_at_the_graph_bound():
    # fig1b's largest finite standard parabolic subgroup is I2(5), of order
    # 10.  Rotations of a space-like plane by 2 pi / k are B-isometries of
    # order k; up to 10 they are found, beyond it they are not elements of
    # W and must be refused rather than classified.
    sys = make_system("fig1b")
    assert sys.finite_order_bound == 10
    for k in (7, 10):
        M = _rotation(sys, k)
        np.testing.assert_allclose(M.T @ sys.form @ M, sys.form, atol=1e-12)
        sc = classify(sys, M)
        assert sc.kind is Kind.ELLIPTIC
        assert sc.order == k
    for k in (11, 12):
        with pytest.raises(ClassificationError, match="finite order bound 10"):
            classify(sys, _rotation(sys, k))


def _rotation(sys, k):
    """Rotation by 2 pi / k of a space-like plane: a B-isometry of order k."""
    d, Q = np.linalg.eigh(sys.form)
    L = Q * np.sqrt(np.abs(d))  # B = L diag(sign d) L^T
    i, j = np.flatnonzero(d > 0)[:2]
    R = np.eye(sys.rank)
    c, s = math.cos(2 * math.pi / k), math.sin(2 * math.pi / k)
    R[[i, i, j, j], [i, j, i, j]] = [c, -s, s, c]
    return np.linalg.solve(L.T, R @ L.T)


def test_identity_is_elliptic(sys_u1):
    sc = classify(sys_u1, element_of(sys_u1, ()))
    assert sc.kind is Kind.ELLIPTIC
    assert sc.order == 1


def test_two_letter_product_is_parabolic(sys_u1):
    sc = classify(sys_u1, element_of(sys_u1, (0, 1)))
    assert sc.kind is Kind.PARABOLIC
    assert sc.parabolic_eps == 1
    p = parabolic_direction(sys_u1, sc)
    np.testing.assert_allclose(p.coords, [0.5, 0.5, 0.0], atol=1e-9)
    assert abs(p.bnorm) < 1e-10


def test_parabolic_power_still_parabolic(sys_u1):
    # (st)^3 has the same defective unit eigenvalue; the dense solver splits
    # the Jordan triple by ~1e-5, which must not read as hyperbolic.
    sc = classify(sys_u1, element_of(sys_u1, (0, 1) * 3))
    assert sc.kind is Kind.PARABOLIC
    p = parabolic_direction(sys_u1, sc)
    np.testing.assert_allclose(p.coords, [0.5, 0.5, 0.0], atol=1e-7)


def test_three_letter_product_is_hyperbolic(sys_u1):
    sc = classify(sys_u1, element_of(sys_u1, (0, 1, 2)))
    assert sc.kind is Kind.HYPERBOLIC
    lam, x_plus, x_minus = sc.dominant
    assert lam == pytest.approx(9 + 4 * math.sqrt(5), abs=1e-10)
    B = sys_u1.form
    assert abs(x_plus @ B @ x_plus) < 1e-9
    assert abs(x_minus @ B @ x_minus) < 1e-9


def test_hyperbolic_directions_are_light_like_chart_points(sys_u1):
    sc = classify(sys_u1, element_of(sys_u1, (0, 1, 2)))
    plus, minus = hyperbolic_directions(sys_u1, sc)
    for p in (plus, minus):
        assert not p.at_infinity
        assert abs(p.bnorm) < 1e-9
    assert np.linalg.norm(plus.coords - minus.coords) > 0.1


def test_unimodular_subspace_is_space_like_complement(sys_u1):
    sc = classify(sys_u1, element_of(sys_u1, (0, 1, 2)))
    U = unimodular_subspace(sys_u1, sc)
    assert U.shape == (3, 1)
    _, x_plus, x_minus = sc.dominant
    B = sys_u1.form
    assert abs(x_plus @ B @ U[:, 0]) < 1e-8
    assert abs(x_minus @ B @ U[:, 0]) < 1e-8
    assert U[:, 0] @ B @ U[:, 0] > 0


def orthogonality_check(sys, z1, lam, z2, mu, tol=1e-8):
    """True when lam * conj(mu) != 1 forces B(z1, z2) = 0."""
    if abs(lam * np.conj(mu) - 1.0) <= 1e-9:
        return True  # hypothesis fails; nothing to check
    b = np.asarray(z1) @ sys.form @ np.conj(np.asarray(z2))
    scale = max(1.0, float(np.linalg.norm(z1) * np.linalg.norm(z2)))
    return bool(abs(b) < tol * scale)


def test_eigenvector_pairing_vanishes_off_reciprocal_eigenvalues(sys_u1):
    # B(z1, z2) must vanish unless the eigenvalues multiply to 1; reciprocal
    # pairs are exempt from the constraint (and indeed pair nontrivially).
    sc = classify(sys_u1, element_of(sys_u1, (0, 1, 2)))
    lam, x_plus, x_minus = sc.dominant
    assert orthogonality_check(sys_u1, x_plus, lam, x_plus, lam)
    assert orthogonality_check(sys_u1, x_plus, lam, x_minus, 1.0 / lam)
    assert abs(x_plus @ sys_u1.form @ x_minus) > 1e-6


def test_classification_census_up_to_length_six(sys_u1, store_u1_6):
    census = Counter(classify(sys_u1, e).kind for e in store_u1_6.elements)
    assert census[Kind.ELLIPTIC] == 22
    assert census[Kind.PARABOLIC] == 42
    assert census[Kind.HYPERBOLIC] == 126


def test_rank5_counterexample_spectrum():
    # Rank-5 element with eigenvalues {1, (7 + 4 sqrt 3) x2, (7 - 4 sqrt 3) x2}:
    # the top eigenvalue is not simple, and the signature is (3, 2), so the
    # spectral machinery refuses the system outright.
    sys5 = make_system("fig8")
    elem = element_of(sys5, (0, 1, 3, 4))
    evals = np.sort(np.linalg.eigvals(elem.matrix).real)
    top = 7 + 4 * math.sqrt(3)
    np.testing.assert_allclose(
        evals, [1 / top, 1 / top, 1.0, top, top], atol=1e-8
    )
    assert sys5.signature == (3, 2, 0)
    with pytest.raises(NotLorentzianError):
        classify(sys5, elem)


def test_degenerate_dominant_eigenvalue_is_rejected(sys_u1):
    # Feed the classifier a raw matrix whose top eigenvalue is not simple: a
    # block with two coupled expanding directions has no attracting ray.  It
    # is no B-isometry (a Lorentz isometry has one expanding eigenvalue at
    # most), so it is refused before any spectral test.
    lam = 4.0
    M = np.diag([lam, lam, 1.0 / lam ** 2])
    with pytest.raises(ClassificationError, match="not a B-isometry"):
        classify(sys_u1, M)


def test_classify_requires_lorentzian_signature():
    sys_fin = make_system("a2")
    with pytest.raises(NotLorentzianError):
        classify(sys_fin, element_of(sys_fin, (0, 1)))


def _reference_dominant(M, lam):
    """Eigenvalue of M nearest lam and its eigenvector at height 1, from a
    fresh dense solve."""
    evals, evecs = np.linalg.eig(M)
    k = int(np.argmin(np.abs(evals - lam)))
    v = np.real(evecs[:, k])
    return float(np.real(evals[k])), v / np.sum(v)


def test_hyperbolic_eigendata_matches_fresh_solves(sys_u1, store_u1_6):
    """The trace rule and the projector against ``np.linalg.eig``: lambda to
    1e-12 relative, x_plus and x_minus (height 1) to 1e-12 per coordinate;
    the two methods round differently, so bits are not compared."""
    B = sys_u1.form
    hyperbolic = 0
    for elem in store_u1_6:
        sc = classify(sys_u1, elem)
        if sc.kind is not Kind.HYPERBOLIC:
            continue
        hyperbolic += 1
        lam, x_plus, x_minus = sc.dominant
        lam_ref, x_plus_ref = _reference_dominant(elem.matrix, lam)
        _, x_minus_ref = _reference_dominant(elem.matrix, 1.0 / lam)
        assert abs(lam - lam_ref) <= 1e-12 * lam
        np.testing.assert_allclose(x_plus, x_plus_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(x_minus, x_minus_ref, rtol=0, atol=1e-12)
        U = unimodular_subspace(sys_u1, sc)
        K = null_space(np.vstack([B @ x_plus, B @ x_minus]))
        np.testing.assert_allclose(U @ U.T, K @ K.T, rtol=0, atol=1e-12)
        assert np.max(np.abs(np.vstack([x_plus, x_minus]) @ B @ U)) < 1e-12
    assert hyperbolic > 0


def _fields(sys, sc):
    """Every field of a class, and ``unimodular_subspace`` of a non-elliptic
    one, arrays as (dtype, shape, bytes)."""

    def raw(a):
        return None if a is None else (a.dtype.str, a.shape, a.tobytes())

    dominant = sc.dominant and (type(sc.dominant[0]), sc.dominant[0]) + tuple(
        raw(x) for x in sc.dominant[1:]
    )
    return (
        sc.kind,
        dominant,
        sc.parabolic_eps,
        raw(sc.parabolic_vec),
        raw(sc.unimodular_basis),
        sc.order,
        None if sc.kind is Kind.ELLIPTIC else raw(unimodular_subspace(sys, sc)),
    )


@pytest.mark.parametrize(
    "graph, length, words",
    [
        ("universal3:1", 8, []),
        ("fig1a", 8, []),
        ("universal3:1.1", 7, []),
        (FIG1B_RELABELED, 7, []),
        ("universal4:1", 6, JORDAN_GUARD_WORDS),
        ("universal5:1", 4, []),
    ],
    ids=[
        "universal3:1", "fig1a", "universal3:1.1", "fig1b-relabeled", "universal4:1", "universal5:1"
    ],
)
def test_classify_many_matches_classify(graph, length, words):
    """The batch against one ``classify`` per matrix, every field bit for bit;
    the universal4:1 Jordan-guard words take the parabolic fallback."""
    sys = make_system(graph)
    mats = np.stack(
        [e.matrix for e in enumerate_elements(sys, length)]
        + [element_of(sys, w).matrix for w in words]
    )
    expected = [classify(sys, M) for M in mats]
    got = classify_many(sys, mats)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert _fields(sys, a) == _fields(sys, b)
    kinds = Counter(sc.kind for sc in got)
    assert kinds[Kind.HYPERBOLIC] > 0 and kinds[Kind.ELLIPTIC] > 0
    if words:
        assert all(sc.kind is Kind.PARABOLIC for sc in got[-len(words) :])


def test_classify_many_takes_determinants_from_the_caller():
    """Word parities in place of the float det, which has the wrong sign on
    50 of the 96 universal3:50 elements of length 6; and a raw stack whose
    rows are checked one by one."""
    sys = make_system("universal3:50")
    store = enumerate_elements(sys, 6)
    mats = store.matrices(6, 6)
    assert np.count_nonzero(np.sign(np.linalg.det(mats)) != 1) == 50
    got = classify_many(sys, mats, det=1)
    assert [_fields(sys, sc) for sc in got] == [
        _fields(sys, classify(sys, e)) for e in store.of_length(6)
    ]
    assert all(sc.kind is Kind.HYPERBOLIC for sc in got)
    u1 = make_system("universal3:1")
    raw = np.stack([element_of(u1, w).matrix for w in [(0, 1, 2), (0, 1, 2, 0), (0,)]])
    kinds = [sc.kind for sc in classify_many(u1, raw)]
    assert kinds == [Kind.HYPERBOLIC, Kind.PARABOLIC, Kind.ELLIPTIC]
    with pytest.raises(ClassificationError, match="not a B-isometry"):
        classify_many(u1, np.stack([raw[0], 2 * raw[1]]))


def test_universal3_50_length_8_is_hyperbolic():
    """Entries up to 1e16, eigenvalues lambda from about 1e4: every element
    of length 8 is hyperbolic, and both eigenvectors pass the residual test
    |M w - (w^T M w) w| < 1e-13 |M|_F for unit w."""
    sys = make_system("universal3:50")
    elements = enumerate_elements(sys, 8).of_length(8)
    assert len(elements) == 384
    for elem in elements:
        sc = classify(sys, elem)
        assert sc.kind is Kind.HYPERBOLIC
        M = elem.matrix
        for x in sc.dominant[1:]:
            w = x / np.linalg.norm(x)
            assert np.linalg.norm(M @ w - (w @ M @ w) * w) < 1e-13 * np.linalg.norm(M)


def test_nearly_parallel_eigenvectors_stay_hyperbolic():
    """Two universal3:50 elements whose x_plus and x_minus nearly coincide:
    B x_plus and B x_minus have singular values 99.5 and 6e-5, so
    B(x_plus, x_minus) is only 7e-7, yet far above the rank rule's
    n eps s_0."""
    sys = make_system("universal3:50")
    words = [(0, 1, 0, 2, 1, 0, 1, 0), (0, 2, 0, 1, 2, 0, 2, 0)]
    elements = [e for e in enumerate_elements(sys, 8).of_length(8) if e.word in words]
    assert len(elements) == 2
    for elem in elements:
        sc = classify(sys, elem)
        assert sc.kind is Kind.HYPERBOLIC
        _, x_plus, x_minus = sc.dominant
        assert abs(x_plus @ sys.form @ x_minus) < 1e-6
        s = np.linalg.svd(np.vstack([x_plus, x_minus]) @ sys.form, compute_uv=False)
        assert s[1] < 1e-6 * s[0]
        assert unimodular_subspace(sys, sc).shape == (3, 1)


def test_hyperbolic_classify_takes_no_svd(monkeypatch):
    """The independence of B x_plus and B x_minus is decided in closed form:
    classifying a hyperbolic fig1b element runs no SVD, and its unimodular
    subspace takes one."""
    sys = make_system("fig1b")
    elem = element_of(sys, (0, 1, 2, 3))
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    sc = classify(sys, elem)
    assert sc.kind is Kind.HYPERBOLIC
    assert sc.unimodular_basis is None
    assert calls == []
    unimodular_subspace(sys, sc)
    assert calls == [(1, 2, 4)]


def test_parallel_eigenvector_rows_are_refused():
    """A stack whose projector P = c v (B v)^T gives x_plus and x_minus
    along the same v (x_minus through B^-1, so parallel only to rounding):
    the complement of the two rows has dimension n - 1."""
    sys = make_system("fig1b")
    v = np.array([1.0, 2.0, 3.0, 5.0])
    Q = np.outer(v, sys.form @ v)
    M = 3.0 * np.eye(4)
    x, f = np.array([3 + 1 / 3]), np.array([6.0])
    (sc,) = spectral._hyperbolic_classes(sys, M[None], x, Q[None], f)
    assert isinstance(sc, ClassificationError)
    assert "unimodular complement has dimension 3, expected 2" in str(sc)


def test_raw_matrix_determinant_from_its_rounding_bound():
    """On the 888 sandwich products of universal3:1.1 at depth 4 (|M|_F up
    to 1.7e6, float det up to 2e-5 from 1), a raw matrix classifies as the
    batch with det = 1 does, field for field.  On universal3:50 of length 5
    and 6 the bound passes 1/2 and the float det has the wrong sign on 4 of
    48 and 50 of 96 elements: every raw matrix is refused."""
    sys = make_system("universal3:1.1")
    pairs = [
        ci.pair
        for ci in codim2_spacelike(sys, roots_by_depth(sys, 4))
        if ci.kind is IntersectionKind.SPACE_LIKE
    ]
    mats = np.stack([sys.reflection_in(a.vector) @ sys.reflection_in(b.vector) for a, b in pairs])
    assert len(mats) == 888
    assert np.max(np.abs(np.linalg.det(mats) - 1)) > 1e-6
    batch = classify_many(sys, mats, det=1)
    for M, sc in zip(mats, batch):
        assert _fields(sys, classify(sys, M)) == _fields(sys, sc)
    u50 = make_system("universal3:50")
    store = enumerate_elements(u50, 6)
    for length, wrong in ((5, 4), (6, 50)):
        mats = store.matrices(length, length)
        assert np.count_nonzero(np.sign(np.linalg.det(mats)) != (-1) ** length) == wrong
        for M in mats:
            with pytest.raises(ClassificationError, match="not a B-isometry"):
                classify(u50, M)


def test_rayleigh_steps_on_the_depth_5_sandwich_products(monkeypatch):
    """The products s_a s_b of the space-like root pairs of universal3:1.1 at
    depth 5 (the sandwich oracle's batch) hold the only seeds in these tests
    that fail the residual test: 13 rows take Rayleigh steps.  Each agrees
    bit for bit with a batch of one, both vectors pass the residual test,
    and they match a fresh ``np.linalg.eig`` to 1e-12 |M|_F, the scale of
    that test: |M|_F reaches 5.9e4 here, and a seed that passes it can sit
    1.8e-9 from the eigenvector."""
    sys = make_system("universal3:1.1")
    pairs = [
        ci.pair
        for ci in codim2_spacelike(sys, roots_by_depth(sys, 5))
        if ci.kind is IntersectionKind.SPACE_LIKE
    ]
    mats = np.stack([sys.reflection_in(a.vector) @ sys.reflection_in(b.vector) for a, b in pairs])
    stepped = []
    rayleigh = spectral._rayleigh

    def spy(M, v, scale):
        stepped.extend(np.flatnonzero((mats == m).all(axis=(1, 2)))[0] for m in M)
        return rayleigh(M, v, scale)

    monkeypatch.setattr(spectral, "_rayleigh", spy)
    got = classify_many(sys, mats, det=1)
    rows = sorted(set(stepped))
    assert len(mats) == 3984 and len(rows) == 13
    for i in rows:
        alone = classify_many(sys, mats[i : i + 1], det=1)[0]
        assert _fields(sys, alone) == _fields(sys, got[i])
        M = mats[i]
        scale = max(1.0, np.linalg.norm(M))
        lam, x_plus, x_minus = got[i].dominant
        for x, mu in ((x_plus, lam), (x_minus, 1 / lam)):
            w = x / np.linalg.norm(x)
            assert np.linalg.norm(M @ w - (w @ M @ w) * w) < 1e-13 * scale
            x_ref = _reference_dominant(M, mu)[1]
            np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-12 * scale)


def test_stacked_solve_marks_only_the_singular_system():
    """A singular system in the stacked solve gives a NaN row, and the other
    rows their own solutions, as for a stack of one."""
    A = np.stack([np.diag([2.0, 3.0, 4.0]), np.diag([1.0, 0.0, 1.0]), np.eye(3)])
    b = np.ones((3, 3))
    x = spectral._solve(A, b)
    assert np.isnan(x[1]).all()
    alone = [spectral._solve(A[i : i + 1], b[i : i + 1]) for i in (0, 2)]
    assert x[[0, 2]].tobytes() == np.concatenate(alone).tobytes()


def test_classify_many_of_nothing_is_empty(sys_u1):
    assert classify_many(sys_u1, np.empty((0, 3, 3))) == []
    assert classify_many(sys_u1, []) == []


def test_classify_many_raises_where_classify_does():
    sys = make_system("fig1b")
    stack = np.stack([element_of(sys, (0, 1, 2)).matrix, _rotation(sys, 7), _rotation(sys, 11)])
    with pytest.raises(ClassificationError, match="finite order bound 10"):
        classify_many(sys, stack)


def _stored(sys, sc):
    """``_fields`` of a class, or an error's type, message and cause type."""
    if isinstance(sc, Exception):
        return type(sc), str(sc), type(sc.__cause__)
    return _fields(sys, sc)


def _outcome(sys, elem):
    """``_stored`` of what ``classify(sys, elem)`` returns or raises."""
    try:
        sc = classify(sys, elem)
    except Exception as exc:
        sc = exc
    return _stored(sys, sc)


def test_unimodular_branches_keep_their_own_errors_in_one_stack():
    """One raw fig1b stack with a row for each branch of the unimodular pass:
    every row gives what it gives as a stack of one, type, message and
    cause.  Only a Jordan test's ClassificationError takes the powering
    suffix, with the Jordan error as its cause; a BorderlineSpectrumError
    passes through as it is."""
    sys = make_system("fig1b")
    hyperbolic = (0, 1, 2, 3) * 3
    # An odd palindrome, so a reflection, with entries of 3e8: its computed
    # square misses I by far more than tol, and M^5 passes the norm cap.
    reflection = element_of(sys, hyperbolic + (0,) + hyperbolic[::-1]).matrix
    jordan = np.eye(4) + np.diag([1.0, 1.0, 0.0], 1)
    # det -1 and trace 2 with one infinite entry: beta is infinite, so the
    # traces put its spectrum at +-1, but it is not Jordan-tested.
    infinite = np.diag([1.0, 1.0, 1.0, -1.0])
    infinite[0, 1] = math.inf
    rows = [
        (2 * element_of(sys, (0, 3)).matrix, 0, "not a B-isometry"),
        (_rotation(sys, 2 * math.pi), 1, "order bound 10 and the spectrum is not at"),
        (reflection, -1, "expected 2; powering stopped at M^5, which passes the norm cap"),
        (_rotation(sys, 11), 1, "order bound 10 and the spectrum is not at"),
        (jordan, 1, "parabolic verification failed"),
        (infinite, -1, "passes the norm cap 1e+09 and the spectrum is not at"),
        (element_of(sys, (0, 3)).matrix, 1, Kind.PARABOLIC),
        (element_of(sys, (0, 1)).matrix, 1, Kind.ELLIPTIC),
    ]
    stack = np.stack([M for M, _, _ in rows])
    det = np.array([d for _, d, _ in rows], float)
    got = [_stored(sys, sc) for sc in spectral._classify_rows(sys, stack, det)]
    for i, (_, d, expected) in enumerate(rows):
        try:
            alone = classify_many(sys, stack[i : i + 1], det=d)[0]
        except Exception as exc:
            alone = exc
        assert got[i] == _stored(sys, alone)
        assert got[i][0] is expected if isinstance(expected, Kind) else expected in got[i][1]
    causes = [g[2] for g in got[:6]]
    assert causes == [type(None), type(None), ClassificationError] + [type(None)] * 3
    assert got[4][0] is BorderlineSpectrumError


def test_store_blocks_match_a_stack_of_one_on_every_unimodular_row():
    """fig1b up to length 9: each of the 864 rows the traces do not call
    hyperbolic (538 elliptic, 326 parabolic, spread over every block)
    classifies in its store block as the element of its word and matrix
    does alone, bit for bit."""
    sys = make_system("fig1b")
    store = enumerate_elements(sys, 9)
    kinds = Counter()
    for elem in store:
        got = _outcome(sys, elem)
        if got[0] is not Kind.HYPERBOLIC:
            kinds[got[0]] += 1
            assert got == _outcome(sys, GroupElement(elem.word, elem.matrix))
    assert kinds == {Kind.ELLIPTIC: 538, Kind.PARABOLIC: 326}


def test_store_blocks_match_one_element_and_one_matrix():
    """Rows 0, 1023, 1024 and the last of fig1b's level 9 (13,044 rows, 13
    blocks): the store element, the element of its word and its raw matrix
    classify bit for bit alike, and only the blocks asked for are formed."""
    sys = make_system("fig1b")
    store = enumerate_elements(sys, 9)
    level = store.of_length(9)
    assert len(level) == 13044
    for j in (0, 1023, 1024, len(level) - 1):
        elem = level[j]
        got = _outcome(sys, elem)
        assert isinstance(got[0], Kind)
        assert got == _outcome(sys, element_of(sys, elem.word)) == _outcome(sys, elem.matrix)
    assert sorted(store.class_blocks) == [(9, 0), (9, 1), (9, 12)]
    assert len(store.class_blocks[9, 12]) == 13044 - 12 * spectral.BLOCK_ROWS
    # Every call on a row hands out the one class, so its arrays are read-only.
    for j in (0, 1024):
        sc = classify(sys, level[j])
        assert classify(sys, level[j]) is sc
        arrays = sc.dominant[1:] if sc.dominant else (sc.parabolic_vec, sc.unimodular_basis)
        assert not any(a.flags.writeable for a in arrays)


def test_stored_errors_are_raised_by_their_own_rows():
    """universal3:50 up to length 7: the reflections of length 5 and 7 (odd
    palindromes; entries above 1e9, so no power certifies order 2) each raise
    what they raise alone, every other row of their blocks classifies, and
    raising a stored error again does not lengthen its traceback."""
    sys = make_system("universal3:50")
    store = enumerate_elements(sys, 7)
    raised = []
    for elem in store:
        got = _outcome(sys, elem)
        assert got == _outcome(sys, GroupElement(elem.word, elem.matrix))
        if got[0] is ClassificationError:
            raised.append(elem.word)
        else:
            assert isinstance(got[0], Kind)
    reflections = [w for w in store.words(5, 7) if len(w) % 2 and w == w[::-1]]
    assert raised == reflections and len(raised) == 12 + 24
    depths = []
    for _ in range(2):
        with pytest.raises(ClassificationError, match="powering stopped") as info:
            classify(sys, store.of_length(7)[store.words(7, 7).index(raised[-1])])
        depths.append(len(info.traceback))
    assert depths[0] == depths[1]


def test_store_blocks_are_read_only_for_the_store_system():
    """A fig1b store element classified against fig1a (same rank) is a stack
    of one for fig1a, before and after fig1b has filled the store's blocks."""
    fig1b, fig1a = make_system("fig1b"), make_system("fig1a")
    store = enumerate_elements(fig1b, 4)
    alone = [_outcome(fig1a, GroupElement(e.word, e.matrix)) for e in store]
    assert [_outcome(fig1a, e) for e in store] == alone
    assert store.class_blocks == {}
    own = [_outcome(fig1b, e) for e in store]
    assert sorted(store.class_blocks) == [(k, 0) for k in range(5)]
    assert [_outcome(fig1a, e) for e in store] == alone != own


def test_store_blocks_in_rank_5_take_the_eigvals_rule(monkeypatch):
    """universal5:1 up to length 4: one ``eigvals`` rule per store row, and
    the classes of a stack of one; a NaN matrix takes no ``eigvals``."""
    sys = make_system("universal5:1")
    store = enumerate_elements(sys, 4)
    rule, calls = spectral._eigvals_rule, []
    monkeypatch.setattr(spectral, "_eigvals_rule", lambda M, f: calls.append(f) or rule(M, f))
    got = [_outcome(sys, e) for e in store]
    assert len(calls) == len(store)
    assert got == [_outcome(sys, GroupElement(e.word, e.matrix)) for e in store]
    kinds = Counter(g[0] for g in got)
    assert kinds[Kind.HYPERBOLIC] and kinds[Kind.ELLIPTIC] and kinds[Kind.PARABOLIC]
    # A non-finite row is refused as a non-isometry, not by ``eigvals``.
    with pytest.raises(ClassificationError, match="not a B-isometry"), np.errstate(invalid="ignore"):
        classify(sys, np.full((5, 5), np.nan))


def _per_row_trace_rule(M, det):
    """The rank 3 and 4 trace rule of one matrix in Python floats, the
    reference for the stacked rule: (x, beta, unit, eps, Q, |M|_F)."""
    n, f, RHO = len(M), float(np.linalg.norm(M)), spectral.RHO
    T1 = 0.0
    for v in M.diagonal().tolist():
        T1 += v
    eps = det if n == 3 else math.copysign(1.0, T1)
    beta, near = RHO * (f + 1), True
    if n == 3:
        x, Q = T1 - det, M.copy()
    elif det < 0:
        x, Q = T1, M @ M
    else:
        Q = M @ M
        T2 = 0.0
        for v in Q.diagonal().tolist():
            T2 += v
        D = 2 * T2 + 8 - T1 * T1
        dD = 8 * RHO * (f * f + 1)
        root = math.sqrt(max(D, 0.0))
        x = (T1 + root) / 2
        beta = (beta + (min(math.sqrt(dD), dD / root) if root else math.sqrt(dD))) / 2
        Q -= (T1 - x) * M
        near = D <= dD
    Q.ravel()[:: n + 1] += -det if n == 3 else det
    return x, beta, near and abs(abs(x) - 2) <= beta, eps, Q, f


@pytest.mark.parametrize("graph, length", [("fig1b", 7), ("universal3:1.1", 8), ("universal5:1", 3)])
def test_stacked_trace_rule_keeps_each_rows_bits(graph, length):
    """The trace rule over a store against one stack of one per row and, in
    rank 3 and 4, against the per-row rule in Python floats: every output
    bit for bit."""
    sys = make_system(graph)
    store = enumerate_elements(sys, length)
    M = store.matrices(0, length)
    det = np.array([(-1.0) ** len(w) for w in store.words(0, length)])
    stacked = spectral._trace_rule(M, det)
    for i, m in enumerate(M):
        row = [np.asarray(a[i]).tobytes() for a in stacked]
        alone = spectral._trace_rule(M[i : i + 1], det[i : i + 1])
        assert row == [a[0].tobytes() for a in alone]
        if sys.rank <= 4:
            assert row == [np.asarray(a).tobytes() for a in _per_row_trace_rule(m, det[i])]
