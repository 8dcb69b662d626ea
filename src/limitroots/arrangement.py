"""Positive roots by depth, weights, and the projective arrangement.

Reflecting hyperplanes of positive roots cut projective space into cells;
pairs of roots whose pairing drops below -1 intersect the light cone
transversally, and their codimension-2 intersection is a space-like limit
direction (it equals the unimodular subspace of the product of the two
reflections).
"""

import enum
import itertools
import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .elements import reflect_rows
from .errors import EnumerationError, ExtractionError
from .graphs import word_to_str
from .projective import ProjectivePoint, to_chart
from .spectral import Kind, _null_space, classify_many

PAIRING_TOL = 1e-9


@dataclass(frozen=True)
class Root:
    """A positive root: coefficient vector over the simple roots, its depth,
    and a minimal word (prefix, base) with vector = prefix(alpha_base)."""

    vector: np.ndarray
    depth: int
    word: tuple
    base: int

    def word_str(self):
        return word_to_str(self.word + (self.base,))


@dataclass(frozen=True)
class Weight:
    vector: np.ndarray
    index: int


class IntersectionKind(enum.Enum):
    SPACE_LIKE = "space-like"
    LIGHT_LIKE = "light-like"


@dataclass(frozen=True)
class Codim2Intersection:
    pair: tuple
    basis: np.ndarray
    kind: IntersectionKind
    pairing: float

    def chart_point(self, sys):
        """For rank 3 the intersection is a single projective point."""
        if self.basis.shape[1] != 1:
            raise ValueError("chart_point applies to 1-dimensional intersections only")
        return to_chart(sys, self.basis[:, 0])


def roots_by_depth(sys, max_depth):
    """All positive roots of depth <= max_depth, each formed once.

    dp(s_t beta) = dp(beta) - 1 exactly when B(alpha_t, beta) > 0 (Brink &
    Howlett, Math. Ann. 296, 1993).  So depth d grows from depth d - 1,
    t-major: s_t gamma is kept when B(alpha_t, gamma) < 0 and t is the
    smallest index with a positive pairing after the step.  The pairings
    p = B beta move by ``reflect_rows`` from an absolute bound of 4 u, as B is
    rounded (m = 2 gives -6.1e-17).  A nonzero pairing of roots is cos(k pi/m),
    m dividing a finite label, or at least 1 in size, so at least
    gap = sin(pi/2M) = sqrt((1 - cos(pi/M)) / 2), M the largest finite label:
    |p| <= E < gap/2 is an orthogonal pair, with no child.  A sign neither way
    decided is EnumerationError.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    n = sys.rank
    gap = math.sqrt((1 + np.min(sys.form[sys.form > -1])) / 2)
    X, P, E = np.eye(n), sys.form, np.full((n, n), 2 * np.finfo(float).eps)
    W, base = np.empty((n, 0), int), np.arange(n)
    levels = [(X, W, base)]
    for depth in range(2, max_depth + 1):
        kept = []
        for t in range(n):
            V = np.flatnonzero(P[:, t] < -E[:, t])
            Pt, Et = reflect_rows(sys.gens, t, P[V], E[V])
            if not (np.all(np.isfinite(Et)) and np.all((np.abs(Pt) > Et) | (2 * Et < gap))):
                raise EnumerationError(f"root pairing sign undecidable at depth {depth}")
            keep = ~np.any(Pt[:, :t] > Et[:, :t], axis=1)
            kept.append((np.full(np.count_nonzero(keep), t), V[keep], Pt[keep], Et[keep]))
        T, V, P_next, E = map(np.concatenate, zip(*kept))
        X = X[V]
        X[np.arange(len(V)), T] -= 2 * P[V, T]
        P, W, base = P_next, np.concatenate((T[:, None], W[V]), axis=1), base[V]
        levels.append((X, W, base))
    roots = []
    for depth, (X, W, base) in enumerate(levels, 1):
        X.setflags(write=False)
        roots += map(Root, X, itertools.repeat(depth), map(tuple, W.tolist()), base.tolist())
    return roots


def fundamental_weights(sys):
    """Dual-basis vectors: columns of the inverse of the form matrix."""
    if abs(np.linalg.det(sys.form)) < 1e-12:
        raise ValueError("fundamental weights need a nonsingular form")
    inv = np.linalg.inv(sys.form)
    out = []
    for s in range(sys.rank):
        vec = inv[:, s].copy()
        vec.setflags(write=False)
        out.append(Weight(vector=vec, index=s))
    return out


def _intersection_basis(sys, v1, v2):
    basis = _null_space(np.vstack([sys.form @ v1, sys.form @ v2]))
    if basis.shape[1] != sys.rank - 2:
        raise ExtractionError(
            f"codimension-2 intersection has dimension {basis.shape[1]}"
        )
    return basis


def codim2_spacelike(sys, roots, tol=PAIRING_TOL):
    """Codimension-2 intersections over root pairs.

    Pairs with pairing < -1 - tol are space-like (products of the two
    reflections are hyperbolic); pairs with pairing = -1 within tol are
    flagged light-like (parabolic tangency).  Other pairs are omitted.
    """
    out = []
    for r1, r2 in itertools.combinations(roots, 2):
        pairing = float(r1.vector @ sys.form @ r2.vector)
        if pairing < -1.0 - tol:
            kind = IntersectionKind.SPACE_LIKE
        elif abs(pairing + 1.0) <= tol:
            kind = IntersectionKind.LIGHT_LIKE
        else:
            continue
        basis = _intersection_basis(sys, r1.vector, r2.vector)
        if kind is IntersectionKind.SPACE_LIKE:
            gram = basis.T @ sys.form @ basis
            if np.min(np.linalg.eigvalsh(gram)) <= 0:
                raise ExtractionError(
                    f"restricted form not positive-definite for pair "
                    f"({r1.word_str()}, {r2.word_str()})"
                )
        out.append(Codim2Intersection(pair=(r1, r2), basis=basis, kind=kind, pairing=pairing))
    return out


def principal_sine(q1, q2):
    """Sine of the largest principal angle between two subspaces of equal
    dimension, given by Euclidean-orthonormal bases (columns); q1 and q2 may
    be (..., n, k) stacks of bases.  The sine increases on [0, pi/2], so it
    orders angles as the angles do."""
    d = q2 - q1 @ (np.swapaxes(q1, -1, -2) @ q2)
    return np.linalg.svd(d, compute_uv=False)[..., 0]


def intersection_equals_unimodular(sys, cis, angle_tol=1e-7):
    """For each space-like intersection, whether it equals the unimodular
    subspace of the product of its two reflections (principal angle below
    tolerance).  The products are classified as one batch."""
    if any(ci.kind is not IntersectionKind.SPACE_LIKE for ci in cis):
        raise ValueError("intersection_equals_unimodular requires space-like pairs")
    n = sys.rank
    ws = [
        sys.reflection_in(a.vector) @ sys.reflection_in(b.vector)
        for a, b in (ci.pair for ci in cis)
    ]
    classes = classify_many(sys, np.array(ws, dtype=float).reshape(-1, n, n))
    hyp = [i for i, sc in enumerate(classes) if sc.kind is Kind.HYPERBOLIC]
    verdicts = [False] * len(cis)
    if hyp:
        sines = principal_sine(
            np.stack([cis[i].basis for i in hyp]),
            np.stack([classes[i].unimodular_basis for i in hyp]),
        )
        for i, sine in zip(hyp, sines):
            verdicts[i] = bool(sine < math.sin(angle_tol))
    return verdicts


def reflection_pair_eigendata(sys, ci):
    """Closed-form eigendata of w = s_a s_b for a space-like pair (a, b), in
    ``decimal`` at the precision of the current context.

    With a, b scaled to B-norm 1 and c = -B(a, b) > 1, w is the rank-2 update
    I - 2a(Ba)^T - 2b(Bb)^T - 4c a(Bb)^T, with the isotropic eigenvectors
    x_plus, x_minus = a + (c -/+ r) b, r = sqrt(c^2 - 1), for the eigenvalues
    lam = (c + r)^2 and 1/lam; it fixes {a, b}^perp_B pointwise.  B and the
    float root vectors are taken over exactly.

    Returns (w, lam, x_minus, u) in ``Decimal``: w as a list of rows, and
    x_minus and a fixed vector u (the longest B-orthogonal projection of a
    simple root off span{a, b}) as Euclidean unit vectors.
    """
    from decimal import Decimal

    if ci.kind is not IntersectionKind.SPACE_LIKE:
        raise ValueError("reflection_pair_eigendata requires a space-like pair")

    def dot(v, x):
        return sum(map(mul, v, x))

    def unit(v, norm2):
        s = norm2.sqrt()
        return [x / s for x in v]

    n = sys.rank
    B = [[Decimal(x) for x in row] for row in sys.form.tolist()]
    a, b = ([Decimal(x) for x in r.vector.tolist()] for r in ci.pair)
    a, b = (unit(v, dot(v, [dot(row, v) for row in B])) for v in (a, b))
    Ba, Bb = ([dot(row, v) for row in B] for v in (a, b))
    c = -dot(Ba, b)
    t = c + (c * c - 1).sqrt()
    g = [p + 2 * c * q for p, q in zip(Ba, Bb)]
    w = [[(i == j) - 2 * (a[i] * g[j] + b[i] * Bb[j]) for j in range(n)] for i in range(n)]
    x_minus = [p + t * q for p, q in zip(a, b)]

    def project(s):
        # B(a, e_s) = (Ba)_s; the coefficients come from the inverse Gram
        # matrix [[1, c], [c, 1]] / (1 - c^2) of (a, b).
        p, q = Ba[s], Bb[s]
        f, h, d = p + c * q, c * p + q, 1 - c * c
        return [(i == s) - (a[i] * f + b[i] * h) / d for i in range(n)]

    u = max((project(s) for s in range(n)), key=lambda v: dot(v, v))
    return w, t * t, unit(x_minus, dot(x_minus, x_minus)), unit(u, dot(u, u))


def sign_vector(sys, point, roots, zero_tol=PAIRING_TOL):
    """Sign of B(x, gamma) for each root, as a string over +, -, 0."""
    x = point.coords if isinstance(point, ProjectivePoint) else np.asarray(point, float)
    signs = []
    for root in roots:
        b = float(x @ sys.form @ root.vector)
        if abs(b) <= zero_tol:
            signs.append("0")
        else:
            signs.append("+" if b > 0 else "-")
    return "".join(signs)


@dataclass(frozen=True)
class DescentResult:
    word: tuple
    point: ProjectivePoint
    in_tits_cone: bool  # False means inconclusive, not a proof of absence


def descend_to_fundamental(sys, point, max_steps):
    """Greedy descent toward the fundamental chamber.

    In root coordinates the chamber whose chart image contains the simplex
    interior is {x : B(x, alpha_s) <= 0 for all s} (the simplex center pairs
    negatively with every simple root), so a positive pairing marks a wall
    separating the point from the chamber.  The corresponding reflection is
    applied until all pairings are nonpositive (Tits-cone membership
    certified) or the step budget runs out (inconclusive).
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    x = np.array(
        point.coords if isinstance(point, ProjectivePoint) else point, dtype=float
    )
    word = []
    for _ in range(max_steps):
        pairings = sys.form @ x
        scale = max(1.0, float(np.max(np.abs(x))))
        separating = np.nonzero(pairings > 1e-9 * scale)[0]
        if separating.size == 0:
            return DescentResult(word=tuple(word), point=to_chart(sys, x), in_tits_cone=True)
        s = int(separating[0])
        x = sys.gens[s] @ x
        word.append(s)
    return DescentResult(word=tuple(word), point=to_chart(sys, x), in_tits_cone=False)
