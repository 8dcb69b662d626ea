"""Elliptic / parabolic / hyperbolic classification and eigendirections."""

import math
import tracemalloc
from collections import Counter

import mpmath
import numpy as np
import pytest
from scipy.linalg import null_space

from limitroots import (
    classify,
    element_of,
    light_like_directions,
    make_system,
    unimodular_subspace,
)
from limitroots import spectral
from limitroots.arrangement import IntersectionKind, codim2_spacelike, roots_by_depth
from limitroots.errors import (
    BorderlineSpectrumError,
    ClassificationError,
    ExtractionError,
    NotLorentzianError,
)
from limitroots.graphs import INF, CoxeterGraph
from limitroots.elements import GroupElement, enumerate_elements
from limitroots.spectral import POWER_CAP, Kind, classify_many

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
        M = _mp_element(_mp_form(labels, 4), word)
        P = mpmath.eye(4)
        for j in range(1, sc.order):
            P = P * M
            assert mpmath.mnorm(P - mpmath.eye(4), 1) > 0.1
        assert mpmath.mnorm(P * M - mpmath.eye(4), 1) < 1e-30


def _mp_form(labels, n):
    """The form of a graph whose infinite labels have c = 1, in mpmath at the
    working precision."""
    B = mpmath.eye(n)
    for (i, j), m in labels.items():
        B[i, j] = B[j, i] = -1 if m is INF else -mpmath.cos(mpmath.pi / m)
    return B


def _mp_element(B, word):
    """The product of the generators of ``word`` for the mpmath form B, as
    ``geometry.generator_matrix`` forms each generator."""
    n = B.rows
    M = mpmath.eye(n)
    for s in word:
        gen = mpmath.eye(n)
        for j in range(n):
            gen[s, j] -= 2 * B[s, j]
        M = M * gen
    return M


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
    assert light_like_directions(sc) == ()


def test_parabolic_vectors_are_exact_on_universal3_1():
    """universal3:1 at lengths 12 and 14: the matrices are integral, so
    (M - eps I)^3 = 0 != (M - eps I)^2 in Python ints decides each element
    exactly.  All 192 and 384 parabolic elements classify as parabolic (the
    kernel thresholds of each eigenspace refused 12 and 252 of them), no
    other element does, and each light-like vector is, bit for bit, a
    Python-int column of (M - eps I)^2 divided by its height: the rank-one
    product (M + eps I)(M + M^-1 - 2 eps I) is exact in floats here."""
    sys = make_system("universal3:1")
    store = enumerate_elements(sys, 14)
    for length, count in ((12, 192), (14, 384)):
        eps = (-1) ** length
        parabolic = 0
        for elem in store.of_length(length):
            A = elem.matrix.astype(np.int64).astype(object) - eps * np.eye(3, dtype=np.int64)
            assert np.array_equal(A + eps * np.eye(3), elem.matrix)
            A2 = A @ A
            sc = classify(sys, elem)
            if A2.any() and not (A2 @ A).any():
                parabolic += 1
                assert sc.kind is Kind.PARABOLIC and sc.parabolic_eps == eps
                col = A2[:, int(np.argmax([sum(a * a for a in c) for c in A2.T]))].tolist()
                h = sum(col)
                assert sc.parabolic_vec.tobytes() == np.array([a / h for a in col]).tobytes()
            else:
                assert sc.kind is not Kind.PARABOLIC
        assert parabolic == count


def test_parabolic_vectors_match_a_50_digit_oracle_on_fig1b():
    """fig1b up to length 9: each of the 326 parabolic vectors is within
    5e-14 of the light-like eigenvector at height 1 from a 50-digit product,
    the largest column of (M + eps I)(M - eps I)^2, which has rank one."""
    sys = make_system("fig1b")
    parabolic, worst = 0, 0.0
    with mpmath.workdps(50):
        B = _mp_form(sys.graph.labels, 4)
        for elem in enumerate_elements(sys, 9):
            sc = classify(sys, elem)
            if sc.kind is not Kind.PARABOLIC:
                continue
            parabolic += 1
            M = _mp_element(B, elem.word)
            eps = sc.parabolic_eps * mpmath.eye(4)
            P = (M + eps) * (M - eps) * (M - eps)
            j = max(range(4), key=lambda j: sum(P[i, j] ** 2 for i in range(4)))
            h = sum(P[i, j] for i in range(4))
            exact = np.array([float(P[i, j] / h) for i in range(4)])
            worst = max(worst, np.abs(sc.parabolic_vec - exact).max())
    assert parabolic == 326
    assert worst < 5e-14


def test_two_letter_product_is_parabolic(sys_u1):
    sc = classify(sys_u1, element_of(sys_u1, (0, 1)))
    assert sc.kind is Kind.PARABOLIC
    assert sc.parabolic_eps == 1
    (x,) = light_like_directions(sc)
    assert x is sc.parabolic_vec
    np.testing.assert_allclose(x, [0.5, 0.5, 0.0], atol=1e-9)
    assert abs(x @ sys_u1.form @ x) < 1e-10


def test_parabolic_power_still_parabolic(sys_u1):
    # (st)^3 has the same defective unit eigenvalue; the dense solver splits
    # the Jordan triple by ~1e-5, which must not read as hyperbolic.
    sc = classify(sys_u1, element_of(sys_u1, (0, 1) * 3))
    assert sc.kind is Kind.PARABOLIC
    (x,) = light_like_directions(sc)
    np.testing.assert_allclose(x, [0.5, 0.5, 0.0], atol=1e-7)


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
    plus, minus = light_like_directions(sc)
    for x in (plus, minus):
        assert x.sum() == pytest.approx(1.0, abs=1e-12)
        assert abs(x @ sys_u1.form @ x) < 1e-9
    assert np.linalg.norm(plus - minus) > 0.1


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
    """The element of a word and every row of a store are refused on every
    call, and the store classifies no level."""
    sys_fin = make_system("a3")
    with pytest.raises(NotLorentzianError):
        classify(sys_fin, element_of(sys_fin, (0, 1)))
    store = enumerate_elements(sys_fin, 3)
    for elem in list(store) * 2:
        with pytest.raises(NotLorentzianError):
            classify(sys_fin, elem)
    assert store.class_levels == {}


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
    roots = roots_by_depth(sys, 4)
    pairs = [
        ci.pair
        for ci in codim2_spacelike(sys, roots)
        if ci.kind is IntersectionKind.SPACE_LIKE
    ]
    R = [sys.reflection_in(v) for v in roots.vectors]
    mats = np.stack([R[a] @ R[b] for a, b in pairs])
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
    roots = roots_by_depth(sys, 5)
    pairs = [
        ci.pair
        for ci in codim2_spacelike(sys, roots)
        if ci.kind is IntersectionKind.SPACE_LIKE
    ]
    R = [sys.reflection_in(v) for v in roots.vectors]
    mats = np.stack([R[a] @ R[b] for a, b in pairs])
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


def _unimodular_branch_rows(sys):
    """(matrix, det, expected) for each branch of the unimodular pass on
    fig1b: the kind, or a fragment of the error message."""
    half = (0, 1, 2, 3) * 3 + (2,)
    # An odd palindrome, so a reflection, with entries of 4.6e8: its computed
    # square misses I by far more than tol, and M^3 passes the norm cap.
    reflection = element_of(sys, half + (0,) + half[::-1]).matrix
    assert np.abs(reflection).max() < POWER_CAP < np.abs(np.linalg.matrix_power(reflection, 3)).max()
    # S = u (Bv)^T - v (Bu)^T is B-skew of rank 2 on the space-like plane of
    # alpha_1 and alpha_2, so for M = I + S (no B-isometry) M - B^-1 M^T B =
    # 2S passes the rank test and the traces put x at 2, but (M - I)^2 = S^2
    # does not vanish on that plane.
    u, v = np.eye(4)[1:3]
    jordan = np.eye(4) + np.outer(u, sys.form @ v) - np.outer(v, sys.form @ u)
    # det -1 and trace 2 with one infinite entry: beta is infinite, so the
    # traces put its spectrum at +-1, but it is not Jordan-tested.
    infinite = np.diag([1.0, 1.0, 1.0, -1.0])
    infinite[0, 1] = math.inf
    return [
        (2 * element_of(sys, (0, 3)).matrix, 0, "not a B-isometry"),
        (_rotation(sys, 2 * math.pi), 1, "order bound 10 and the spectrum is not at"),
        (reflection, -1, "expected 2; powering stopped at M^3, which passes the norm cap"),
        (_rotation(sys, 11), 1, "order bound 10 and the spectrum is not at"),
        (jordan, 1, "parabolic verification failed"),
        (infinite, -1, "passes the norm cap 1e+09 and the spectrum is not at"),
        (element_of(sys, (0, 3)).matrix, 1, Kind.PARABOLIC),
        (element_of(sys, (0, 1)).matrix, 1, Kind.ELLIPTIC),
    ]


def test_unimodular_branches_keep_their_own_errors_in_one_stack():
    """One raw fig1b stack with a row for each branch of the unimodular pass:
    every row gives what it gives as a stack of one, type, message and
    cause.  Only a Jordan test's ClassificationError takes the powering
    suffix, with the Jordan error as its cause; a BorderlineSpectrumError
    passes through as it is."""
    sys = make_system("fig1b")
    rows = _unimodular_branch_rows(sys)
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
    hyperbolic (538 elliptic, 326 parabolic, spread over every chunk)
    classifies in its store level as the element of its word and matrix
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
    chunks): the store element, the element of its word and its raw matrix
    classify bit for bit alike, and only the level asked for is classified,
    whole."""
    sys = make_system("fig1b")
    store = enumerate_elements(sys, 9)
    level = store.of_length(9)
    assert len(level) == 13044
    for j in (0, 1023, 1024, len(level) - 1):
        elem = level[j]
        got = _outcome(sys, elem)
        assert isinstance(got[0], Kind)
        assert got == _outcome(sys, element_of(sys, elem.word)) == _outcome(sys, elem.matrix)
    assert sorted(store.class_levels) == [9]
    assert len(store.class_levels[9]) == 13044
    # Every call on a row hands out the one class, so its fields cannot be
    # assigned and its arrays are read-only.
    for j in (0, 1024):
        sc = classify(sys, level[j])
        assert classify(sys, level[j]) is sc
        arrays = sc.dominant[1:] if sc.dominant else (sc.parabolic_vec, sc.unimodular_basis)
        assert not any(a.flags.writeable for a in arrays)
        for name in spectral.SpectralClass._fields:
            with pytest.raises(AttributeError):
                setattr(sc, name, None)


def _record_bits(sc):
    """Every field of a class record, scalars with their types and arrays
    as (dtype, shape, bytes, writeable)."""

    def raw(v):
        if isinstance(v, np.ndarray):
            return v.dtype.str, v.shape, v.tobytes(), v.flags.writeable
        return type(v), v

    assert type(sc) is spectral.SpectralClass
    dominant = sc.dominant and tuple(map(raw, sc.dominant))
    return (sc.kind, dominant) + tuple(map(raw, sc[2:]))


def test_every_store_row_classifies_as_its_whole_level():
    """fig1b up to length 9: each of the 20,696 rows classifies through
    ``classify`` (the store's classified levels) with the fields, bit for
    bit, that ``classify_many`` gives it on its whole level, and every 97th
    hyperbolic row also as a stack of one."""
    sys = make_system("fig1b")
    store = enumerate_elements(sys, 9)
    kinds = Counter()
    for k in range(store.max_length + 1):
        level = classify_many(sys, store.level(k)[1], det=(-1.0) ** k)
        for elem, sc in zip(store.of_length(k), level):
            assert _record_bits(classify(sys, elem)) == _record_bits(sc)
            if sc.kind is Kind.HYPERBOLIC and kinds[sc.kind] % 97 == 0:
                alone = classify_many(sys, elem.matrix[None], det=(-1.0) ** k)[0]
                assert _record_bits(alone) == _record_bits(sc)
            kinds[sc.kind] += 1
    assert kinds == {Kind.HYPERBOLIC: 19832, Kind.PARABOLIC: 326, Kind.ELLIPTIC: 538}


def test_hyperbolic_stack_keeps_each_rows_class_or_error():
    """One stack of a good hyperbolic row, a row whose eigendirections have
    zero height (and so are also dependent) and a row whose eigendirections
    are dependent: each row gets what it gets as a stack of one, and the
    zero-height ExtractionError wins over the independence test."""
    sys = make_system("fig1b")
    word = (0, 1, 2, 3)
    good = element_of(sys, word).matrix
    x, _, _, _, Q, f = spectral._trace_rule(good[None], np.ones(1))
    flat, skew = np.array([1.0, -1.0, 0.0, 0.0]), np.array([1.0, 2.0, 3.0, 5.0])
    M = np.stack([good, 3.0 * np.eye(4), 3.0 * np.eye(4)])
    Q = np.stack([Q[0]] + [np.outer(v, sys.form @ v) for v in (flat, skew)])
    x, f = np.array([x[0], 3 + 1 / 3, 3 + 1 / 3]), np.array([f[0], 6.0, 6.0])
    got = spectral._hyperbolic_classes(sys, M, x, Q, f)
    for i, sc in enumerate(got):
        s = slice(i, i + 1)
        alone = spectral._hyperbolic_classes(sys, M[s], x[s], Q[s], f[s])[0]
        assert _stored(sys, sc) == _stored(sys, alone)
    assert _stored(sys, got[0]) == _outcome(sys, element_of(sys, word))
    assert got[0].kind is Kind.HYPERBOLIC
    zero_height = "eigendirection has zero height; not in the chart"
    assert _stored(sys, got[1])[:2] == (ExtractionError, zero_height)
    dependent = "unimodular complement has dimension 3, expected 2"
    assert _stored(sys, got[2])[:2] == (ClassificationError, dependent)


def test_classified_store_retains_under_700_bytes_per_row():
    """fig1b up to length 9 with every row classified: the store and its
    classified levels retain 601 bytes per row (``tracemalloc``), as they did
    with one record constructor call per row.  The bound leaves 99 bytes
    per row (16%) of margin."""
    sys = make_system("fig1b")
    for elem in enumerate_elements(sys, 3):
        classify(sys, elem)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = enumerate_elements(sys, 9)
        for elem in store:
            classify(sys, elem)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(store) == 20696
    assert retained / len(store) < 700


def test_stored_errors_are_raised_by_their_own_rows():
    """universal3:50 up to length 7: the reflections of length 5 and 7 (odd
    palindromes; entries above 1e9, so no power certifies order 2) each raise
    what they raise alone, every other row of their levels classifies, and
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
    of one for fig1a, before and after fig1b has classified the store's
    levels."""
    fig1b, fig1a = make_system("fig1b"), make_system("fig1a")
    store = enumerate_elements(fig1b, 4)
    alone = [_outcome(fig1a, GroupElement(e.word, e.matrix)) for e in store]
    assert [_outcome(fig1a, e) for e in store] == alone
    assert store.class_levels == {}
    own = [_outcome(fig1b, e) for e in store]
    assert sorted(store.class_levels) == list(range(5))
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


def _chunk_outcomes(sys, length):
    """What ``classify`` gives each row of a fresh store up to ``length``, and
    ``classify_many`` each row of its levels: ``_record_bits``, or an error's
    type, message and cause type."""

    def bits(call, *args):
        try:
            return _record_bits(call(*args))
        except Exception as exc:
            return type(exc), str(exc), type(exc.__cause__)

    store = enumerate_elements(sys, length)
    rows = [bits(classify, sys, e) for e in store]
    for k in range(length + 1):
        rows += map(_record_bits, classify_many(sys, store.level(k)[1], det=(-1.0) ** k))
    return rows


def test_chunk_size_changes_no_class(monkeypatch):
    """``_classify_rows`` in chunks of 7 rows in place of 1,024 gives every
    row the same fields, bit for bit, or the same error: on fig1b up to
    length 8 and universal5:1 (the ``eigvals`` rule) up to length 4,
    through the store and through ``classify_many``, and on the raw stack of
    every unimodular branch with each branch row behind two hyperbolic
    ones, so that the unimodular rows straddle the chunks of both passes.
    ``classify_many`` still raises the first failing row's error."""
    fig1b = make_system("fig1b")
    hyperbolic = [element_of(fig1b, w).matrix for w in ((0, 1, 2, 3), (1, 2, 3, 0))]
    stack, det = [], []
    for M, d, _ in _unimodular_branch_rows(fig1b):
        stack += hyperbolic + [M]
        det += [1.0, 1.0, d]
    stack, det = np.stack(stack), np.array(det)

    def outcomes():
        raw = [_stored(fig1b, sc) for sc in spectral._classify_rows(fig1b, stack, det)]
        with pytest.raises(Exception) as info:
            classify_many(fig1b, stack, det)
        first = (type(info.value), str(info.value), type(info.value.__cause__))
        graphs = [_chunk_outcomes(make_system(g), k) for g, k in (("fig1b", 8), ("universal5:1", 4))]
        return raw, first, graphs

    default = outcomes()
    monkeypatch.setattr(spectral, "_CHUNK_ROWS", 7)
    assert outcomes() == default
    raw, first, graphs = default
    assert len(stack) == 24 and [r[0] for r in raw[:2]] == [Kind.HYPERBOLIC] * 2
    assert first == raw[2] and first[0] is ClassificationError
    assert [len(g) for g in graphs] == [2 * 7652, 2 * 426]


def test_classifying_a_level_takes_bounded_working_memory():
    """Every row of fig1b's level 9 (13,044 rows) classified through the
    store: the peak traced memory (``tracemalloc``) exceeds what the
    classified level retains by under 4 MB, as the passes work on chunks of
    1,024 rows (about 1.6 MB); the level as one stack takes about 12.8 MB."""
    sys = make_system("fig1b")
    for elem in enumerate_elements(sys, 3):
        classify(sys, elem)
    store = enumerate_elements(sys, 9)
    level = store.of_length(9)
    tracemalloc.start()
    try:
        for elem in level:
            classify(sys, elem)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(store.class_levels[9]) == len(level) == 13044
    assert peak - retained < 4 * 2**20


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
