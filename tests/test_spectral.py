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
from limitroots.errors import BorderlineSpectrumError, ClassificationError, NotLorentzianError
from limitroots.graphs import INF, CoxeterGraph
from limitroots.elements import enumerate_elements, matrix_inverse
from limitroots.spectral import JORDAN_GUARD, Kind, classify_many, orthogonality_check

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
    # |M|_F = 5002 splits the Jordan triple at 1 by more than the fixed
    # 1e-3 floor of the guard band; with the band that floor alone, these
    # elements were sent to the hyperbolic branch and rejected there.
    sys = make_system("universal4:1")
    elem = element_of(sys, word)
    assert np.max(np.abs(np.linalg.eigvals(elem.matrix) - 1.0)) > JORDAN_GUARD
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
    # block with two coupled expanding directions has no attracting ray.
    lam = 4.0
    M = np.diag([lam, lam, 1.0 / lam ** 2])
    with pytest.raises(BorderlineSpectrumError):
        classify(sys_u1, M)


def test_classify_requires_lorentzian_signature():
    sys_fin = make_system("a2")
    with pytest.raises(NotLorentzianError):
        classify(sys_fin, element_of(sys_fin, (0, 1)))


def _reference_dominant(M, lam):
    """Height-1 eigenvector from a fresh dense solve of M.

    On these inputs the dense solve already meets the refinement's residual
    test, so the refined eigenpair is (lam, v / |v|) and needs no Rayleigh
    step.
    """
    evals, evecs = np.linalg.eig(M)
    v = evecs[:, int(np.argmin(np.abs(evals - lam)))]
    v = np.real(v / v[int(np.argmax(np.abs(v)))])
    w = v / np.linalg.norm(v)
    assert np.linalg.norm(M @ w - lam * w) < 1e-13 * max(1.0, np.linalg.norm(M))
    return lam, w / np.sum(w)


def test_hyperbolic_eigendata_matches_fresh_solves(sys_u1, store_u1_6):
    B = sys_u1.form
    hyperbolic = 0
    for elem in store_u1_6:
        sc = classify(sys_u1, elem)
        if sc.kind is not Kind.HYPERBOLIC:
            continue
        hyperbolic += 1
        lam0 = sc.eigenvalues[np.argmax(np.abs(sc.eigenvalues))]
        lam, x_plus = _reference_dominant(elem.matrix, float(np.real(lam0)))
        _, x_minus = _reference_dominant(matrix_inverse(sys_u1, elem.matrix), lam)
        assert sc.dominant[0] == lam
        assert sc.dominant[1].tobytes() == x_plus.tobytes()
        assert sc.dominant[2].tobytes() == x_minus.tobytes()
        U = sc.unimodular_basis
        K = null_space(np.vstack([B @ x_plus, B @ x_minus]))
        np.testing.assert_allclose(U @ U.T, K @ K.T, rtol=0, atol=1e-12)
        assert np.max(np.abs(np.vstack([x_plus, x_minus]) @ B @ U)) < 1e-12
    assert hyperbolic > 0


def _fields(sc):
    """Every field of a class, arrays as (dtype, shape, bytes)."""

    def raw(a):
        return None if a is None else (a.dtype.str, a.shape, a.tobytes())

    dominant = sc.dominant and (type(sc.dominant[0]), sc.dominant[0]) + tuple(
        raw(x) for x in sc.dominant[1:]
    )
    return (
        sc.kind,
        raw(sc.eigenvalues),
        dominant,
        sc.parabolic_eps,
        raw(sc.parabolic_vec),
        raw(sc.unimodular_basis),
        sc.order,
    )


@pytest.mark.parametrize(
    "graph, length, words",
    [
        ("universal3:1", 8, []),
        ("fig1a", 8, []),
        ("universal3:1.1", 7, []),
        (FIG1B_RELABELED, 7, []),
        ("universal4:1", 6, JORDAN_GUARD_WORDS),
    ],
    ids=["universal3:1", "fig1a", "universal3:1.1", "fig1b-relabeled", "universal4:1"],
)
def test_classify_many_matches_classify(graph, length, words):
    """The batch against one ``classify`` per matrix, every field bit for bit,
    eigenvalue dtype included; the universal4:1 Jordan-guard words take the
    parabolic fallback."""
    sys = make_system(graph)
    mats = np.stack(
        [e.matrix for e in enumerate_elements(sys, length)]
        + [element_of(sys, w).matrix for w in words]
    )
    expected = [classify(sys, M) for M in mats]
    got = classify_many(sys, mats)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert _fields(a) == _fields(b)
    kinds = Counter(sc.kind for sc in got)
    assert kinds[Kind.HYPERBOLIC] > 0 and kinds[Kind.ELLIPTIC] > 0
    if graph is FIG1B_RELABELED:
        assert {sc.eigenvalues.dtype for sc in got} == {np.dtype(float), np.dtype(complex)}
    if words:
        assert all(sc.kind is Kind.PARABOLIC for sc in got[-len(words) :])


def test_classify_many_of_nothing_is_empty(sys_u1):
    assert classify_many(sys_u1, np.empty((0, 3, 3))) == []
    assert classify_many(sys_u1, []) == []


def test_classify_many_raises_where_classify_does():
    sys = make_system("fig1b")
    stack = np.stack([element_of(sys, (0, 1, 2)).matrix, _rotation(sys, 7), _rotation(sys, 11)])
    with pytest.raises(ClassificationError, match="finite order bound 10"):
        classify_many(sys, stack)
