"""Classification of group elements by their Lorentz-transformation type.

Elliptic elements are diagonalizable with unimodular spectrum (equivalently,
of finite order), parabolic elements are unimodular but defective with a
single size-3 Jordan block for an eigenvalue eps = +/-1, and hyperbolic
elements carry one simple real pair lambda, 1/lambda with lambda > 1 whose
eigendirections are light-like.

A Lorentz isometry has at most one eigenvalue pair off the unit circle, so
x = lambda + 1/lambda of that pair follows from the traces and the
determinant (``_trace_rule``), and the element is hyperbolic exactly when
x > 2.  Its eigendirections are the column and the row of one rank-one
product (``_hyperbolic_classes``).

A parabolic element has the same two closed forms (``_parabolic_classes``):
its eigenvectors span the kernel of the B-skew-adjoint X = M - M^-1, read
off one SVD of X, and its light-like eigenvector is the column of the
rank-one product (M + eps I)(M + M^-1 - 2 eps I).

An elliptic element has closed forms too (``_unimodular_classes``): with
its spectrum at +-1 it is an involution exactly when X = 0, a norm test,
and otherwise its order is read off the rotation values 2 cos(theta) of
the trace rule (``_orders``).
"""

import enum
import functools
import math
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .elements import GroupElement
from .errors import BorderlineSpectrumError, ClassificationError, ExtractionError

_EPS = np.finfo(float).eps
# Rounding bound on the traces: |T1 - T1_exact| <= RHO (|M|_F + 1), where
# T1_exact is the trace of the exact element M stands for.  It covers the
# rounding of M itself (the exact-trace test measures at most 3.1 u, u the
# unit roundoff, on its graphs) and of the sum, with a margin of 40.
RHO = 2.0**7 * _EPS / 2
# Rank threshold of X = M - M^-1 in the Jordan test: a singular value of X
# counts above KERNEL_TOL max(1, |M|_F), a scale set by M, not by X (X of a
# reflection with entries 4.6e8 is rounding noise).  On every parabolic
# element of fig1b <= 9, universal3:1 <= 16, universal4:1 <= 10 and
# universal5:1 <= 5, the singular values s_0 >= s_1 >= s_2 of X have
# s_1 >= 1.1e-3 |M|_F and s_2 <= 1.3e-16 |M|_F.
KERNEL_TOL = 1e-7
# |M^T B M - B| above this, relative to |M|_F^2 + 1, is not a B-isometry.
ISOMETRY_TOL = 1e-8
# ``_classify_rows`` works on chunks of at most this many rows.
_CHUNK_ROWS = 1024


class Kind(enum.Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


class SpectralClass(NamedTuple):
    """Spectral data of one element, as an immutable named tuple.

    ``dominant`` is (lambda, x_plus, x_minus) for hyperbolic elements, with
    both eigenvectors scaled to height 1.  ``parabolic_eps`` / ``parabolic_vec``
    hold the Jordan sign and the light-like eigenvector for parabolic
    elements.  ``unimodular_basis`` (n, n-2, Euclidean-orthonormal columns)
    comes from the Jordan test of parabolic elements, else None (see
    ``unimodular_subspace``); ``order`` is an elliptic element's verified order.
    The record and its arrays are read-only: ``classify`` hands the class
    of a store row to every call on that row.
    """

    kind: Kind
    dominant: tuple = None
    parabolic_eps: int = None
    parabolic_vec: np.ndarray = None
    unimodular_basis: np.ndarray = None
    order: int = None


def _records(kind, **columns):
    """``SpectralClass(kind, **row)`` for each row of the field columns, the
    other fields None, built by ``tuple.__new__`` with no Python frame."""
    fields = (columns.get(name, repeat(None)) for name in SpectralClass._fields[1:])
    return map(tuple.__new__, repeat(SpectralClass), zip(repeat(kind), *fields))


def _determinants(sys, M):
    """det M = +-1 of each matrix of a raw (N, n, n) stack, from the rounded
    ``np.linalg.det`` d; 0 where M^T B M is not B, where d is farther than
    beta = c n eps kappa(B) (|M|_F^2 + 1), c = n 2^(n-1), from +-1, or where
    beta >= 1/2 leaves the sign undecided (words give theirs by parity).
    Derivation of c: LU with partial pivoting is exact for P M + dM,
    |dM| <= (n eps / 2) |L| |U| (Higham, Thm 9.3), with |L|_F <= n and
    |U|_F <= |L^-1|_F |M|_F <= 2^(n-1) |M|_F, as |L_ij| <= 1 and
    |(L^-1)_ij| <= 2^(i-j-1).  So E = M^-1 P^T dM, with |M^-1|_F =
    |B^-1 M^T B|_F <= kappa(B) |M|_F, has nuclear norm
    eta <= n^2 2^(n-2) eps kappa(B) |M|_F^2, and |det(I + E) - 1| <= 2 eta
    for eta <= 1/4; the + 1 covers the rounding of the n pivots' product."""
    B, n = sys.form, len(sys.form)
    f2 = (M * M).sum(axis=(1, 2))
    defect = np.abs(np.swapaxes(M, 1, 2) @ B @ M - B).max(axis=(1, 2))
    d = np.linalg.det(M)
    det = np.where(d > 0, 1.0, -1.0)
    beta = n * 2.0 ** (n - 1) * n * _EPS * sys.form_condition * (f2 + 1)
    ok = (defect <= ISOMETRY_TOL * (f2 + 1)) & (np.abs(d - det) <= beta) & (beta < 0.5)
    return np.where(ok, det, 0.0)


@np.errstate(all="ignore")
def _trace_rule(M, det):
    """(x, beta, unit, eps, Q, |M|_F, c), one entry or matrix per row, of an
    (N, n, n) stack of B-isometries with determinants ``det`` (N,).

    x = lambda + 1/lambda for the eigenvalue pair that may leave the unit
    circle, and |x - x_exact| <= beta.  Writing T1 = tr M, T2 = tr M^2:

    - rank 3: the eigenvalues are lambda, 1/lambda, det, so x = T1 - det;
    - rank 4, det +1: lambda, 1/lambda, mu, 1/mu, so x and y = mu + 1/mu
      are the roots of z^2 - T1 z + (T1^2 - T2 - 4) / 2, x the larger:
      x = (T1 + sqrt D) / 2 with D = 2 T2 + 8 - T1^2 = (x - y)^2;
    - rank 4, det -1: lambda, 1/lambda, 1, -1, so x = T1;
    - rank 2: x = T1 for det +1; a det -1 row is a reflection (eigenvalues
      1, -1), given x = 2 so that its spectrum reads as at +-1;
    - rank >= 5: x and the unimodular eigenvalues come from ``eigvals``.

    T1 is within RHO (|M|_F + 1) and D within dD = 8 RHO (|M|_F^2 + 1) of
    exact (2 for T2, 4 for T1^2 with |T1| <= 2 |M|_F, 2 for rounding), and
    |sqrt D - sqrt D_exact| <= min(sqrt dD, dD / sqrt D): that is beta.
    Near a parabolic (D near 0) the square root amplifies the error of D to
    about 3e-7 |M|_F.  In rank >= 5, beta = sqrt(RHO (|M|_F^2 + 1)) covers
    the split of a Jordan triple, which moves x by about the 2/3 power of
    the error.

    ``unit``: the traces put the whole unimodular spectrum at +-1 (x within
    beta of +-2, and D within dD of 0 in rank 4 with det +1), where a
    parabolic Jordan block can be; its sign is ``eps`` = det in rank 3,
    else sign T1.  Q is the product of M - mu I over the n - 2 unimodular
    eigenvalues mu: M - det I, M^2 - y M + I, M^2 - I, I in the four cases.

    c (N, k) is 2 cos(theta) of each rotation, within beta: x, or y = T1 - 2
    in rank 4 with det +1 (an elliptic element fixes a time-like vector, so
    x = 2; NaN where x < 2 - beta), or (mu + 1/mu).real per eigenvalue mu.

    Every row keeps the bits it has alone: |M|_F is a (1, n^2) by (n^2, 1)
    matmul per row, the traces are added diagonal entry by diagonal entry
    from 0 (the order of Python's ``sum`` before 3.12), M^2 is a stacked
    matmul, and the two rank-4 cases are merged with ``np.where``.  In
    rank >= 5 a row with a non-finite |M|_F, which ``eigvals`` refuses,
    gets x = beta = NaN; ``_unimodular_classes`` refuses it by name.
    """
    N, n, _ = M.shape
    f = np.sqrt(_norm2(M))
    T1 = _row_sum(M.diagonal(0, 1, 2))
    eps = det if n == 3 else np.copysign(1.0, T1)
    if n > 4:
        rules = [_eigvals_rule(m, g) for m, g in zip(M, f.tolist())]
        x, beta, unit, Q, c = map(np.array, zip(*rules))
        return x, beta, unit, eps, Q, f, c
    beta, near = RHO * (f + 1), True
    if n == 3:
        x, Q, diagonal = T1 - det, M.copy(), -det
    elif n == 2:
        x, Q, diagonal = np.where(det < 0, 2.0, T1), np.zeros((N, 2, 2)), np.ones(N)
    else:
        Q, diagonal, pos = M @ M, det, det > 0
        D = 2 * _row_sum(Q.diagonal(0, 1, 2)) + 8 - T1 * T1
        dD = 8 * RHO * (f * f + 1)
        root = np.sqrt(np.maximum(D, 0.0))
        x = np.where(pos, (T1 + root) / 2, T1)
        split = np.where(root > 0, np.fmin(np.sqrt(dD), dD / root), np.sqrt(dD))
        beta = np.where(pos, (beta + split) / 2, beta)
        Q = np.where(pos[:, None, None], Q - (T1 - x)[:, None, None] * M, Q)
        near = ~pos | (D <= dD)
        c = np.where(pos, np.where(x >= 2 - beta, T1 - 2, np.nan), x)
    # The diagonal: M - det I in rank 3, M^2 - y M + det I in rank 4 (y = 0
    # for det -1), I in rank 2.
    k = np.arange(n)
    Q[:, k, k] += diagonal[:, None]
    c = x if n < 4 else c
    return x, beta, near & (np.abs(np.abs(x) - 2) <= beta), eps, Q, f, c[:, None]


def _eigvals_rule(M, f):
    """(x, beta, unit, Q, c) of ``_trace_rule`` in rank >= 5, from one ``eigvals``."""
    n = len(M)
    if not math.isfinite(f):  # eigvals refuses it
        return math.nan, math.nan, False, M, np.full(n, math.nan)
    ev = np.linalg.eigvals(M)
    ev = ev[np.argsort(np.abs(ev))]
    x = float((ev[-1] + 1 / ev[-1]).real)
    beta = math.sqrt(RHO * (f * f + 1))
    unit = bool(np.all(np.abs(np.abs(ev + 1 / ev) - 2) <= beta))
    Q = np.eye(n, dtype=complex)
    for mu in ev[1:-1]:
        Q = Q @ (M - mu * np.eye(n))
    return x, beta, unit, Q.real, (ev + 1 / ev).real


@np.errstate(all="ignore")
def _hyperbolic_classes(sys, M, x, Q, f):
    """Class of each row of an (N, n, n) stack that the traces call
    hyperbolic (``_trace_rule``'s x, Q and |M|_F per row), or the row's
    error.  Each product, reduction and solve is one call per matrix, so a
    row's result does not depend on the stack.

    lambda = (x + sqrt(x^2 - 4)) / 2, and P = (M - I / lambda) Q kills
    every eigenvector but x_plus, so P = c x_plus (B x_minus)^T, B x_minus
    spanning the left eigenvectors for lambda (M^T B M = B).  x_plus is P's
    largest column and x_minus = B^-1 times its largest row.  Only the seeds
    that fail the residual test |M w - (w^T M w) w| < 1e-13 max(1, |M|_F) |w|
    take Rayleigh steps; a residual left above 1e-6 max(1, |M|_F), or zero
    height, is an ExtractionError.  At height 1, B x_plus and B x_minus must
    be independent, or their kernel, the unimodular subspace, is not of
    dimension n - 2: ClassificationError.  Independence is the rank rule
    s_1 > n eps s_0 (numpy matrix_rank's default) for the rows a, b, in
    closed form: s_0 s_1 = |a| |r| with r = b - (a.b / a.a) a formed as a
    vector (|b|^2 - (a.b)^2 / |a|^2 cancels below eps), s_0^2 the larger
    eigenvalue of the Gram matrix.
    """
    N, n, _ = M.shape
    add, rows = np.add.reduce, np.arange(N)
    scale = np.maximum(1.0, f)
    lam = (x + np.sqrt((x - 2) * (x + 2))) / 2
    P = M @ Q - Q / lam[:, None, None]
    P2 = P * P
    V = np.empty((N, 2, n))
    V[:, 0] = P[rows, :, add(P2, 1).argmax(1)]
    # B^-1 @ (N, n, 1) is one product per matrix, as for N = 1; (N, n) @ B^-1
    # is one product over all rows, whose rounding depends on N.
    V[:, 1] = (sys.form_inverse @ P[rows, add(P2, 2).argmax(1), :, None])[:, :, 0]
    norm2 = add(V * V, 2)
    MV = V @ M.transpose(0, 2, 1)
    MV -= (add(MV * V, 2) / norm2)[:, :, None] * V
    # The residual test, squared, on the unnormalised seeds.
    j, k = np.nonzero(~(add(MV * MV, 2) < ((1e-13 * scale) ** 2)[:, None] * norm2))
    out = [None] * N
    if len(j):
        V[j, k], residual = _rayleigh(M[j], V[j, k], scale[j])
        for i, r in zip(j.tolist(), residual.tolist()):
            if not r <= 1e-6 * scale[i] and out[i] is None:
                out[i] = ExtractionError(f"ill-conditioned eigenvector solve: residual {r:g}")
        norm2 = add(V * V, 2)
    h = add(V, 2)
    X = V / h[:, :, None]
    X.setflags(write=False)
    for i in np.flatnonzero(~(h * h >= 1e-24 * norm2).all(1)).tolist():
        out[i] = out[i] or ExtractionError("eigendirection has zero height; not in the chart")
    G = X @ sys.form
    a, b = G[:, 0], G[:, 1]
    aa, ab, bb = _row_sum(a * a), _row_sum(a * b), _row_sum(b * b)
    rr = _row_sum((b - (ab / aa)[:, None] * a) ** 2)
    independent = np.sqrt(aa * rr) > _EPS * n * (aa + bb + np.hypot(aa - bb, 2 * ab)) / 2
    dependent = f"unimodular complement has dimension {n - 1}, expected {n - 2}"
    for i in np.flatnonzero(~independent).tolist():
        out[i] = out[i] or ClassificationError(dependent)
    records = _records(Kind.HYPERBOLIC, dominant=zip(lam.tolist(), X[:, 0], X[:, 1]))
    return [error or sc for error, sc in zip(out, records)]


def _row_sum(A):
    """Sum of each row of A (N, n), added from 0 in column order."""
    t = 0.0
    for j in range(A.shape[1]):
        t = t + A[:, j]
    return t


def _rayleigh(M, v, scale):
    """Rayleigh-quotient steps on the seeds v (K, n) of eigenvectors of the
    matrices M (K, n, n), as (unit vectors, residuals |M w - (w^T M w) w|).
    A vector steps until its residual is below 1e-13 scale, five times at
    most, and stops at a singular solve; the shift is jittered off the
    eigenvalue to keep the solve nonsingular."""
    add, eye = np.add.reduce, np.eye(v.shape[1])
    w, residual = v / np.sqrt(add(v * v, 1))[:, None], np.empty(len(v))
    live = np.arange(len(v))
    for step in range(6):
        Mw = (M[live] @ w[live, :, None])[:, :, 0]
        mu = add(Mw * w[live], 1)
        Mw -= mu[:, None] * w[live]
        residual[live] = np.sqrt(add(Mw * Mw, 1))
        moving = residual[live] >= 1e-13 * scale[live]
        live, mu = live[moving], mu[moving]
        if step == 5 or not len(live):
            return w, residual
        u = _solve(M[live] - (mu * (1 + 1e-10))[:, None, None] * eye, w[live])
        solved = np.isfinite(u).all(1)
        live, u = live[solved], u[solved]
        w[live] = u / np.sqrt(add(u * u, 1))[:, None]


def _solve(A, b):
    """Stacked ``np.linalg.solve`` of A x = b, b (K, n); NaN where A is singular."""
    try:
        return np.linalg.solve(A, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return np.full_like(b, np.nan)
        return np.concatenate([_solve(A[i : i + 1], b[i : i + 1]) for i in range(len(A))])


def _plane_complements(sys, V):
    """Orthonormal kernels (N, n, n-2), as columns, of the rows of each V B
    for a stack V (N, 2, n), from one stacked SVD (a row's bits do not
    depend on the stack), and the kernel dimensions by the rank rule
    s_k > n eps s_0 (numpy matrix_rank's default)."""
    n = V.shape[2]
    _, s, vt = np.linalg.svd(V @ sys.form)
    return np.swapaxes(vt[:, 2:], 1, 2), n - np.count_nonzero(s > _EPS * n * s[:, :1], axis=1)


def classify(sys, elem):
    """Spectral class of a group element (or raw B-isometry matrix).

    det M = (-1)^length comes from a ``GroupElement``'s word.  A raw matrix
    must satisfy M^T B M = B (relative ISOMETRY_TOL) and have a float det
    within its rounding bound of +-1 (``_determinants``), which is then
    rounded; otherwise ClassificationError.  ``_classify_rows`` decides.

    An element read from an ``ElementStore`` of ``sys`` (its ``origin``)
    takes its class from the store's ``class_levels``: the first call on a
    row checks that ``sys`` is Lorentzian and classifies the row's whole
    level, kept for the store's lifetime (a refused store keeps none), and
    a row's error is raised only when that row is asked for.  The row's
    level is its word's length, so the level is one dict lookup away.  Any
    other element or matrix is a stack of one.  A row's class does not
    depend on its stack, so both give the same bits.
    """
    if not isinstance(elem, GroupElement):
        return classify_many(sys, np.asarray(elem)[None])[0]
    if elem.origin is None or elem.origin[0].sys is not sys:
        return classify_many(sys, elem.matrix[None], (-1.0) ** elem.length)[0]
    store, row = elem.origin
    k = len(elem.word)
    level = store.class_levels.get(k)
    if level is None:
        sys.require_lorentzian("spectral classification")
        level = store.class_levels[k] = _classify_rows(sys, store.level(k)[1], (-1.0) ** k)
    sc = level[row - store._starts[k]]
    return sc if type(sc) is SpectralClass else _checked(sc)


def classify_many(sys, mats, det=None):
    """``[classify(sys, M) for M in mats]`` for an (N, n, n) stack, with every
    field bit-identical, and the first failing row's error in stack order.

    ``det`` (one value or one per matrix) gives det M = +-1: callers that
    hold words pass their parities, the sandwich oracle +1 for s_a s_b.
    Without it each matrix is checked and its det rounded as ``classify``
    does for a raw matrix (``_determinants``).  One ``_classify_rows`` over
    the stack classifies every row, in chunks of bounded size.
    """
    sys.require_lorentzian("spectral classification")
    M = np.ascontiguousarray(mats, dtype=float)
    if not len(M):
        return []
    det = _determinants(sys, M) if det is None else det
    return list(map(_checked, _classify_rows(sys, M, det)))


def _classify_rows(sys, M, det):
    """Class of each row of a contiguous (N, n, n) stack, N >= 1, or the
    NumericalError ``classify`` raises for it (any other exception
    propagates).  ``det`` is det M (one value or one per row), 0 where a raw
    matrix is not a B-isometry of det +-1.

    Two passes over chunks of at most _CHUNK_ROWS rows bound the working
    memory.  First ``_trace_rule`` gives each chunk's x = lambda + 1/lambda
    and bound beta, and ``_hyperbolic_classes`` takes its rows with
    x - 2 > beta; then ``_unimodular_classes`` decides all other rows.
    """
    det = np.broadcast_to(np.asarray(det, float), len(M))
    out, rest = [None] * len(M), []
    for lo in range(0, len(M), _CHUNK_ROWS):
        C = slice(lo, lo + _CHUNK_ROWS)
        x, beta, unit, eps, Q, f, c = _trace_rule(M[C], det[C])
        hyp = (det[C] != 0) & (x - 2 > beta)
        rows = np.flatnonzero(hyp)
        if len(rows):
            classes = _hyperbolic_classes(sys, M[C][rows], x[rows], Q[rows], f[rows])
            for i, sc in zip((rows + lo).tolist(), classes):
                out[i] = sc
        rows = np.flatnonzero(~hyp)
        rest.append((rows + lo, unit[rows], eps[rows], beta[rows], f[rows], c[rows]))
    rows, *columns = map(np.concatenate, zip(*rest))
    for lo in range(0, len(rows), _CHUNK_ROWS):
        C, r = slice(lo, lo + _CHUNK_ROWS), rows[lo : lo + _CHUNK_ROWS]
        classes = _unimodular_classes(sys, M[r], det[r], *(a[C] for a in columns))
        for i, sc in zip(r.tolist(), classes):
            out[i] = sc
    return out


def _checked(sc):
    """A class of ``_classify_rows``, or the error it holds raised.  The
    error's traceback starts afresh, so raising a stored error again does
    not lengthen it."""
    if isinstance(sc, Exception):
        raise sc.with_traceback(None)
    return sc


def _unimodular_classes(sys, M, det, unit, eps, beta, f, c):
    """Class of each B-isometry of a stack M (K, n, n) with determinants
    ``det`` (0 where not +-1) that the traces do not call hyperbolic, or its
    error, from ``_trace_rule``'s unit, eps, beta, |M|_F and c per row.  An
    elliptic element of W is conjugate into a finite standard parabolic
    subgroup, so its order is at most ``sys.finite_order_bound``.  A unit
    row is an involution when |M - B^-1 M^T B|_F <= tau |M|_F, tau =
    (n eps + RHO) kappa_F(B) (README: the two products round to within
    2 gamma_n kappa_F(B) |M|_F, and RHO covers M's own rounding), of order 1
    when |M - I|_F < 1; else the Jordan test decides (``_parabolic_classes``,
    sign ``eps``).  Every other row takes the orders of its rotation values
    (``_orders``); in rank >= 5 only if one SVD of X shows as many
    eigenvectors at +-1 as values at +-2 (no Jordan block beside a
    rotation).  Anything else is a ClassificationError, a row with no finite
    beta first (it is never Jordan-tested: one such row would make a stacked
    SVD fail for the whole stack)."""
    K, n, _ = M.shape
    bound = sys.finite_order_bound
    order = np.zeros(K, np.int64)
    live = (det != 0) & np.isfinite(beta)
    u = np.flatnonzero(live & unit)
    inverse = sys.form_inverse @ np.swapaxes(M[u], 1, 2) @ sys.form
    kappa = np.linalg.norm(sys.form) * np.linalg.norm(sys.form_inverse)
    tau = (n * _EPS + RHO) * kappa
    involution = _norm2(M[u] - inverse) <= (tau * f[u]) ** 2
    order[u] = np.where(involution, np.where(_norm2(M[u] - np.eye(n)) < 1, 1, 2), 0)
    r = np.flatnonzero(live & ~unit)
    order[r] = _orders(c[r], beta[r], det[r], bound)
    screw = {}
    if n > 4:
        # From rank 5 a Jordan block at +-1 fits beside a rotation, and its
        # values at +-2 fit order 1 or 2: ker X, the eigenvectors at +-1,
        # must have as many dimensions as there are such values.
        r = r[order[r] > 0]
        at_one = np.count_nonzero(np.abs(np.abs(c[r]) - 2) <= beta[r, None], axis=1)
        X = M[r] - sys.form_inverse @ np.swapaxes(M[r], 1, 2) @ sys.form
        sv = np.linalg.svd(X, compute_uv=False)
        dim = n - np.count_nonzero(sv > KERNEL_TOL * np.fmax(1.0, f[r])[:, None], axis=1)
        screw = {i: (k, d) for i, k, d in zip(r.tolist(), at_one.tolist(), dim.tolist()) if k != d}
        order[list(screw)] = 0
    out = list(_records(Kind.ELLIPTIC, order=order.tolist()))
    for i in np.flatnonzero(order == 0).tolist():
        if not det[i]:
            why = "not a B-isometry of determinant +-1"
        elif not math.isfinite(beta[i]):
            why = "trace bound is not finite: an entry is not finite or overflows"
        elif i in screw:
            k, d = screw[i]
            why = f"unresolved elliptic/parabolic: {k} eigenvalues at +-1 but an eigenvector span"
            why += f" of dimension {d} there, a Jordan block beside a rotation"
        else:
            why = "unresolved elliptic/parabolic: no rotation of order up to the finite order bound"
            why += f" {bound} is within the trace bound {beta[i]:g}, and the spectrum is not at +-1"
        out[i] = ClassificationError(why)
    j, rows = ~involution, u[~involution]
    if len(rows):
        classes = _parabolic_classes(sys, M[rows], inverse[j], f[rows], eps[rows])
        for i, sc in zip(rows.tolist(), classes):
            out[i] = sc
    return out


def _norm2(A):
    """|A|_F^2 of each matrix of a stack, one (1, n^2) by (n^2, 1) matmul per row."""
    F = A.reshape(len(A), 1, A.shape[1] * A.shape[2])
    return (F @ np.swapaxes(F, 1, 2))[:, 0, 0]


@functools.lru_cache(maxsize=8)
def _rotation_table(bound):
    """(v, q, gap): the candidates v = 2 cos(2 pi p / q) over p / q in lowest
    terms, 0 <= p <= q / 2, q <= ``bound``, ascending (cos is one to one on
    [0, pi], so each value once), their orders q, and each one's distance to
    its nearest neighbour (inf past either end)."""
    q, p = np.mgrid[1 : bound + 1, 0 : bound // 2 + 1]
    keep = (2 * p <= q) & (np.gcd(p, q) == 1)
    q, p = q[keep], p[keep]
    v = 2 * np.cos(2 * np.pi * p / q)
    o = np.argsort(v)
    v, q = v[o], q[o]
    return v, q, np.fmin(np.diff(v, prepend=-np.inf), np.diff(v, append=np.inf))


def _orders(c, beta, det, bound):
    """Order of each row of rotation values c (K, k), each 2 cos(theta)
    within beta (K,) of exact, or 0.  A value within beta of a candidate
    v = 2 cos(2 pi p / q), q <= ``bound``, with beta below half the gap from
    v to its nearest neighbour, has exact value v, so order q; the row has
    the lcm of its q's, made even where det = -1.  The nearest candidate is
    one of the two table entries around the value (NaN matches none)."""
    v, q, gap = _rotation_table(bound)
    j = np.clip(np.searchsorted(v, c), 1, len(v) - 1)
    j = j - (c - v[j - 1] < v[j] - c)
    b = beta[:, None]
    qs = np.lcm.reduce(np.where((np.abs(c - v[j]) <= b) & (2 * b < gap[j]), q[j], 0), axis=1)
    return np.where(qs > 0, np.lcm(qs, np.where(det < 0, 2, 1)), 0)


def _parabolic_classes(sys, M, inverse, f, eps):
    """Parabolic class of each matrix of a stack M (K, n, n), with M^-1 =
    B^-1 M^T B and |M|_F per row, with its Jordan block at eps (K,),
    verified, or the row's error.

    X = M - M^-1 is B-skew-adjoint, so its kernel is
    the eigenvector span U = ker(M - eps I) + ker(M + eps I) (the traces put
    every unimodular eigenvalue at +-1) and its image is U^perp_B.  One
    stacked SVD of X gives the dimension of U, n minus the number of
    singular values above KERNEL_TOL max(1, |M|_F), which must be n - 2 (else
    ClassificationError); an orthonormal basis of U^perp_B, its leading two
    left singular vectors, which (M - eps I)^2 must kill, the
    minimal-polynomial clause (else BorderlineSpectrumError); and U itself,
    from that basis by ``_plane_complements``.  The light-like eigenvector
    is the largest column of P = (M + eps I)(M + M^-1 - 2 eps I) =
    (M + eps I)(M - eps I)^2 M^-1, of rank one, formed as written (sums
    first, then one product; exact on integer matrices), at height 1 (zero
    height: ExtractionError).  Each product and SVD is one call per matrix,
    so a row's bits do not depend on the stack.
    """
    K, n, _ = M.shape
    add, shift = np.add.reduce, eps[:, None, None] * np.eye(n)
    W, s, _ = np.linalg.svd(M - inverse)
    dim = n - np.count_nonzero(s > KERNEL_TOL * np.fmax(1.0, f)[:, None], axis=1)
    out = [None] * K
    for i, d in enumerate(dim.tolist()):
        if d != n - 2:
            out[i] = ClassificationError(f"eigenvector span has dimension {d}, expected {n - 2}")
    rows = np.flatnonzero(dim == n - 2)
    if not len(rows):
        return out
    M, shift, inverse, perp = M[rows], shift[rows], inverse[rows], W[rows, :, :2]
    A = M - shift
    defect = np.abs(A @ A @ perp).max(axis=(1, 2))
    scale = np.fmax(1.0, _norm2(A))
    U = _plane_complements(sys, np.swapaxes(perp, 1, 2))[0]
    U.setflags(write=False)
    P = (M + shift) @ (M + inverse - 2 * shift)
    v = P[np.arange(len(rows)), :, add(P * P, 1).argmax(1)]
    h = add(v, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        vec = v / h[:, None]
    vec.setflags(write=False)
    e = eps[rows].astype(int).tolist()
    records = _records(Kind.PARABOLIC, parabolic_eps=e, parabolic_vec=vec, unimodular_basis=U)
    verified = (defect <= 1e-7 * scale).tolist()
    chart = (np.abs(h) > 1e-12 * np.sqrt(add(v * v, 1))).tolist()
    for i, d, ok, in_chart, sc in zip(rows.tolist(), defect.tolist(), verified, chart, records):
        if not ok:
            sc = BorderlineSpectrumError(
                f"parabolic verification failed: |(M - {sc.parabolic_eps} I)^2 on U_perp| = {d:g}"
            )
        elif not in_chart:
            sc = ExtractionError("eigendirection has zero height; not in the chart")
        out[i] = sc
    return out


def light_like_directions(sc):
    """The light-like eigendirections of a class at height 1: (x_plus,
    x_minus) for a hyperbolic class, (parabolic_vec,) for a parabolic one,
    () for an elliptic one."""
    if sc.kind is Kind.HYPERBOLIC:
        return sc.dominant[1:]
    if sc.kind is Kind.PARABOLIC:
        return (sc.parabolic_vec,)
    return ()


def unimodular_subspace(sys, sc):
    """Orthonormal basis (columns) of the unimodular subspace; a hyperbolic one is formed anew."""
    if sc.kind is Kind.ELLIPTIC:
        raise ValueError("elliptic elements have no unimodular subspace")
    if sc.kind is Kind.PARABOLIC:
        return sc.unimodular_basis
    return _plane_complements(sys, np.stack(sc.dominant[1:])[None])[0][0]
