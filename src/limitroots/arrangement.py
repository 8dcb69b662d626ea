"""Positive roots by depth, weights, and the projective arrangement.

Reflecting hyperplanes of positive roots cut projective space into cells;
pairs of roots whose pairing drops below -1 intersect the light cone
transversally, and their codimension-2 intersection is a space-like limit
direction (it equals the unimodular subspace of the product of the two
reflections).
"""

import enum
import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .elements import _read_rows
from .errors import ExtractionError
from .graphs import word_to_str
from .spectral import Kind, _plane_complements, classify_many

PAIRING_TOL = 1e-9
# Largest principal angle of an intersection that equals a unimodular subspace.
ANGLE_TOL = 1e-7
# Largest scaled residual of a pair's eigen-identities, 32 eps (pair_identity_residuals).
IDENTITY_TOL = 32 * 2.0**-52


class RootSet:
    """Positive roots as columns: row i is the read-only coefficient vector
    ``vectors[i]`` over the simple roots and the minimal word ``words[i]``,
    its prefix w followed by its base s, with vectors[i] = w(alpha_s); the
    depth is ``len(words[i])``."""

    def __init__(self, vectors, words):
        self.vectors = np.asarray(vectors, dtype=float)
        self.vectors.setflags(write=False)
        self.words = tuple(words)

    def __len__(self):
        return len(self.words)


class IntersectionKind(enum.Enum):
    SPACE_LIKE = "space-like"
    LIGHT_LIKE = "light-like"


class Codim2Intersection(NamedTuple):
    """The intersection of the hyperplanes of the roots in rows ``pair`` of
    a ``RootSet``: an orthonormal basis (columns), its kind and the pairing."""

    pair: tuple
    basis: np.ndarray
    kind: IntersectionKind
    pairing: float


def roots_by_depth(sys, max_depth):
    """All positive roots of depth <= max_depth as a ``RootSet``, depth by
    depth, each formed once, decided by the small-root automaton
    (``GeometricSystem.small_roots``), no float sign.

    A root beta = w(alpha_s) (w its prefix word, s its base) of depth
    dp(beta) = l(w) + 1 is the reflection r = w s w^-1, and that word is
    reduced: l(s_beta) = 2 dp(beta) - 1.  For a root gamma, B = B(alpha_t, gamma):
    - B < 0: s_gamma(alpha_t) = alpha_t - 2B gamma > 0, and (s_t s_gamma)(alpha_t)
      = (4B^2 - 1) alpha_t + 2|B| gamma is a root with a positive coefficient
      on some alpha_u != alpha_t, so positive: l(s_t s_gamma s_t) = l(s_gamma) + 2,
      and the length rule follows by induction;
    - B > 0: s_gamma(alpha_t) < 0, as alpha_t is extreme in the positive
      cone, so t r is not reduced;
    - B = 0: s_t s_gamma s_t = s_gamma.
    So the left descents of s_beta, beta not simple, are the t with
    B(alpha_t, beta) > 0, and by Brink & Howlett (Math. Ann. 296, 1993)
    s_t gamma is a child of gamma (one deeper, parent step t) exactly when
    t r t is reduced with smallest left descent t.  Depth d grows from d - 1,
    t-major, by one ``_read_rows`` of [t, W, base, W reversed, t] for every t
    and root.  Pairing rows p = B beta move as in
    ``GeometricSystem.small_roots``, only to form each root's vector.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    n, act = sys.rank, sys.small_roots
    letter = np.min_scalar_type(n - 1)
    D = np.array([g[t] for t, g in enumerate(sys.gens)]) - np.eye(n)
    X, P, W, base = np.eye(n), sys.form, np.empty((n, 0), letter), np.arange(n, dtype=letter)
    levels = [(X, W, base)]
    for _ in range(2, max_depth + 1):
        T, V = np.repeat(np.arange(n, dtype=letter), len(W)), np.tile(np.arange(len(W)), n)
        words = np.column_stack((T, W[V], base[V], W[V, ::-1], T))
        reduced, S = _read_rows(act, words)
        keep = reduced & (np.argmax(S[:, :n], axis=1) == T)
        T, V = T[keep], V[keep]
        X = X[V]
        X[np.arange(len(V)), T] -= 2 * P[V, T]
        P, W, base = P[V] + P[V, T, None] * D[T], np.column_stack((T, W[V])), base[V]
        levels.append((X, W, base))
    words = (tuple(w) for _, W, base in levels for w in np.column_stack((W, base)).tolist())
    return RootSet(np.concatenate([X for X, _, _ in levels]), words)


def fundamental_weights(sys):
    """The fundamental weights as the columns of B^-1, the read-only
    ``sys.form_inverse``: column s is omega_s, with B(alpha_t, omega_s) =
    delta_ts.  A singular form has none: ValueError."""
    if abs(np.linalg.det(sys.form)) < 1e-12:
        raise ValueError("fundamental weights need a nonsingular form")
    return sys.form_inverse


def codim2_spacelike(sys, roots):
    """Codimension-2 intersections over the pairs of rows of ``roots``, in
    ``itertools.combinations`` order.

    Pairs with pairing < -1 - PAIRING_TOL are space-like (products of the
    two reflections are hyperbolic); pairs with pairing = -1 within it are
    flagged light-like (parabolic tangency).  Other pairs are omitted.  One
    R B R^T gives the pairings, one stack the bases and the check that B is
    positive-definite on the space-like ones; the first pair failing raises.
    """
    R = roots.vectors
    i, j = np.triu_indices(len(R), 1)
    pairing = (R @ sys.form @ R.T)[i, j]
    space = pairing < -1.0 - PAIRING_TOL
    keep = np.flatnonzero(space | (np.abs(pairing + 1.0) <= PAIRING_TOL))
    if not len(keep):
        return []
    i, j, pairing, space = i[keep], j[keep], pairing[keep], space[keep]
    bases, dim = _plane_complements(sys, R[np.stack([i, j], axis=1)])
    gram = np.swapaxes(bases, 1, 2) @ sys.form @ bases
    bad = (dim != sys.rank - 2) | (space & (np.linalg.eigvalsh(gram)[:, 0] <= 0))
    for k in np.flatnonzero(bad)[:1]:
        if dim[k] != sys.rank - 2:
            raise ExtractionError(f"codimension-2 intersection has dimension {dim[k]}")
        a, b = word_to_str(roots.words[i[k]]), word_to_str(roots.words[j[k]])
        raise ExtractionError(f"restricted form not positive-definite for pair ({a}, {b})")
    kinds = [IntersectionKind.SPACE_LIKE if sp else IntersectionKind.LIGHT_LIKE for sp in space]
    return [
        Codim2Intersection(pair=(a, b), basis=q, kind=kind, pairing=p)
        for a, b, q, kind, p in zip(i.tolist(), j.tolist(), bases, kinds, pairing.tolist())
    ]


def principal_sine(q1, q2):
    """Sine of the largest principal angle between two subspaces of equal
    dimension, given by Euclidean-orthonormal bases (columns); q1 and q2 may
    be (..., n, k) stacks of bases.  The sine increases on [0, pi/2], so it
    orders angles as the angles do."""
    d = q2 - q1 @ (np.swapaxes(q1, -1, -2) @ q2)
    return np.linalg.svd(d, compute_uv=False)[..., 0]


def intersection_equals_unimodular(sys, roots, cis):
    """For each space-like intersection of rows of ``roots``, whether it
    equals the unimodular subspace of the product of its two reflections
    (principal angle below ``ANGLE_TOL``), and the sine of that angle (NaN
    where the product is not hyperbolic).  Each root row gives one
    reflection matrix; the products R_a R_b are one stacked matmul,
    classified as one batch, and the unimodular subspaces of the hyperbolic
    ones are formed as one stack."""
    if any(ci.kind is not IntersectionKind.SPACE_LIKE for ci in cis):
        raise ValueError("intersection_equals_unimodular requires space-like pairs")
    n = sys.rank
    R = np.array([sys.reflection_in(v) for v in roots.vectors]).reshape(-1, n, n)
    first, second = np.array([ci.pair for ci in cis], int).reshape(-1, 2).T
    classes = classify_many(sys, R[first] @ R[second], det=1)
    hyp = [i for i, sc in enumerate(classes) if sc.kind is Kind.HYPERBOLIC]
    sines = [math.nan] * len(cis)
    if hyp:
        unimodular, _ = _plane_complements(sys, np.stack([classes[i].dominant[1:] for i in hyp]))
        for i, sine in zip(hyp, principal_sine(np.stack([cis[i].basis for i in hyp]), unimodular)):
            sines[i] = float(sine)
    return [s < math.sin(ANGLE_TOL) for s in sines], sines


PairEigendata = namedtuple("PairEigendata", "a Ba b Bb c lam x_minus x_plus u")


def pair_eigendata(sys, roots, pairs):
    """Closed-form eigendata of w = s_a s_b for the space-like pairs of rows
    of ``roots`` in the (P, 2) array ``pairs``, rank 3 only, as stacked rows:
    a, b at B-norm 1 (each root scaled once), Ba, Bb, c = -B(a, b) > 1,
    lam = t^2 for t = c + sqrt((c - 1)(c + 1)) (no cancellation near c = 1),
    and the Euclidean unit rows x_minus = a + t b, x_plus = a + b/t and
    u = Ba x Bb.  w = I - 2a(Ba + 2c Bb)^T - 2b(Bb)^T has the eigenvectors
    x_minus, x_plus of 1/lam, lam and fixes {a, b}^perp_B, in rank 3 the line
    of u (B-orthogonal to a and b).  Another rank or c <= 1: ValueError."""
    if sys.rank != 3:
        raise ValueError(f"pair eigendata need rank 3, not rank {sys.rank}")
    R = roots.vectors
    A = R / np.sqrt(np.einsum("ij,ij->i", R @ sys.form, R))[:, None]
    BA = A @ sys.form
    first, second = np.array(pairs, int).reshape(-1, 2).T
    a, Ba, b, Bb = A[first], BA[first], A[second], BA[second]
    c = -np.einsum("ij,ij->i", Ba, b)
    if not (c > 1).all():
        raise ValueError("pair eigendata require space-like pairs")
    t = (c + np.sqrt((c - 1) * (c + 1)))[:, None]
    x_minus, x_plus, u = (
        X / np.linalg.norm(X, axis=1)[:, None] for X in (a + t * b, a + b / t, np.cross(Ba, Bb))
    )
    return PairEigendata(a, Ba, b, Bb, c, (t * t)[:, 0], x_minus, x_plus, u)


def pair_identity_residuals(sys, e):
    """Per pair of the ``PairEigendata`` e, the largest residual
    |w x - mu x|_inf of w u = u, w x_minus = x_minus / lam and
    w x_plus = lam x_plus, w applied as its rank-2 update, over its scale:
    S = |W|_inf, W = I + 2|a|(p + 2c q)^T + 2|b| q^T with p = |B||a| and
    q = |B||b| (|w| <= W, so S bounds the row-sum norm of |w|, and lam <= S),
    for u times 1 + kappa, kappa = |Ba||Bb| / |Ba x Bb|.

    Right eigendata stay below IDENTITY_TOL = 32 eps, to first order in
    u_r = eps/2.  Roots are non-negative, so the norms of a + t b and a + b/t
    bound |a|_inf, t |b|_inf and |b|_inf / t.  Applying the update and mu to
    a unit row rounds by 11 u_r S.  w fixes the stored Ba x Bb, whose
    rounding, 2 u_r kappa relative, w - I turns into 2 u_r kappa S: u stays
    below 5.5 eps (1 + kappa) S.  B-scaling and Ba move Ba.a, Bb.b off 1 by
    13 u_r a^T p, 13 u_r b^T q, and c, Bb.a off -c by 3 u_r, 9 u_r p^T b:
    22 u_r S through w on span{a, b}.  t, lam and 1/lam carry 4, 9 and
    10 u_r (18 u_r S), a + t b or a + b/t 4 u_r S: x_minus and x_plus stay
    below 55 u_r S = 27.5 eps S."""
    rows = np.abs(sys.form).sum(axis=0)
    p, q = ((np.abs(X) @ rows)[:, None] for X in (e.a, e.b))
    S = np.max(1 + 2 * np.abs(e.a) * (p + 2 * e.c[:, None] * q) + 2 * np.abs(e.b) * q, axis=1)
    kappa = np.linalg.norm(e.Ba, axis=1) * np.linalg.norm(e.Bb, axis=1)
    kappa /= np.linalg.norm(np.cross(e.Ba, e.Bb), axis=1)
    g, lam = e.Ba + 2 * e.c[:, None] * e.Bb, e.lam[:, None]

    def residual(x, mu):
        s, r = np.einsum("ij,ij->i", g, x)[:, None], np.einsum("ij,ij->i", e.Bb, x)[:, None]
        return np.abs(x - 2 * e.a * s - 2 * e.b * r - mu * x).max(axis=1)

    residuals = (residual(e.x_minus, 1 / lam), residual(e.x_plus, lam),
                 residual(e.u, 1.0) / (1 + kappa))
    return np.maximum.reduce(residuals) / S
