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
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .elements import GroupElement
from .errors import BorderlineSpectrumError, ClassificationError, ExtractionError
from .projective import to_chart

_EPS = np.finfo(float).eps
# Rounding bound on the traces: |T1 - T1_exact| <= RHO (|M|_F + 1), where
# T1_exact is the trace of the exact element M stands for.  It covers the
# rounding of M itself (the exact-trace test measures at most 3.1 u, u the
# unit roundoff, on its graphs) and of the sum, with a margin of 40.
RHO = 2.0**7 * _EPS / 2
# Relative singular-value threshold of the kernels of M -/+ eps I.
KERNEL_TOL = 1e-7
# |M^T B M - B| above this, relative to |M|_F^2 + 1, is not a B-isometry.
ISOMETRY_TOL = 1e-8
# Powering stops at the first power with an entry above this.
POWER_CAP = 1e9
# ``classify`` classifies store rows in blocks of this many rows of a level.
BLOCK_ROWS = 1024


class Kind(enum.Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class SpectralClass:
    """Spectral data of one element.

    ``dominant`` is (lambda, x_plus, x_minus) for hyperbolic elements, with
    both eigenvectors scaled to height 1.  ``parabolic_eps`` / ``parabolic_vec``
    hold the Jordan sign and the light-like eigenvector for parabolic
    elements.  ``unimodular_basis`` (n, n-2, Euclidean-orthonormal columns)
    comes from the Jordan test of parabolic elements, else None (see
    ``unimodular_subspace``); ``order`` is an elliptic element's verified order.
    The arrays are read-only: ``classify`` hands the class of a store row to
    every call on that row.
    """

    kind: Kind
    dominant: tuple = None
    parabolic_eps: int = None
    parabolic_vec: np.ndarray = None
    unimodular_basis: np.ndarray = None
    order: int = None


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
    """(x, beta, unit, eps, Q, |M|_F), one entry or matrix per row, of an
    (N, n, n) stack of B-isometries with determinants ``det`` (N,).

    x = lambda + 1/lambda for the eigenvalue pair that may leave the unit
    circle, and |x - x_exact| <= beta.  Writing T1 = tr M, T2 = tr M^2:

    - rank 3: the eigenvalues are lambda, 1/lambda, det, so x = T1 - det;
    - rank 4, det +1: lambda, 1/lambda, mu, 1/mu, so x and y = mu + 1/mu
      are the roots of z^2 - T1 z + (T1^2 - T2 - 4) / 2, x the larger:
      x = (T1 + sqrt D) / 2 with D = 2 T2 + 8 - T1^2 = (x - y)^2;
    - rank 4, det -1: lambda, 1/lambda, 1, -1, so x = T1; rank 2: x = T1;
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

    Every row keeps the bits it has alone: |M|_F is a (1, n^2) by (n^2, 1)
    matmul per row, the traces are added diagonal entry by diagonal entry
    from 0 (the order of Python's ``sum`` before 3.12), M^2 is a stacked
    matmul, and the two rank-4 cases are merged with ``np.where``.  In
    rank >= 5 a row with a non-finite |M|_F, which ``eigvals`` refuses,
    gets x = NaN and is left to the powering.
    """
    N, n, _ = M.shape
    F = M.reshape(N, 1, n * n)
    f = np.sqrt((F @ F.transpose(0, 2, 1))[:, 0, 0])
    T1 = _row_sum(M.diagonal(0, 1, 2))
    eps = det if n == 3 else np.copysign(1.0, T1)
    if n > 4:
        rules = [
            _eigvals_rule(m, g) if math.isfinite(g) else (math.nan, math.nan, False, m)
            for m, g in zip(M, f.tolist())
        ]
        x, beta, unit, Q = map(np.array, zip(*rules))
        return x, beta, unit, eps, Q, f
    beta, near = RHO * (f + 1), True
    if n == 3:
        x, Q, diagonal = T1 - det, M.copy(), -det
    elif n == 2:
        x, Q, diagonal = T1, np.zeros((N, 2, 2)), np.ones(N)
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
    # The diagonal: M - det I in rank 3, M^2 - y M + det I in rank 4 (y = 0
    # for det -1), I in rank 2.
    k = np.arange(n)
    Q[:, k, k] += diagonal[:, None]
    return x, beta, near & (np.abs(np.abs(x) - 2) <= beta), eps, Q, f


def _eigvals_rule(M, f):
    """(x, beta, unit, Q) of ``_trace_rule`` in rank >= 5, from one ``eigvals``."""
    n = len(M)
    ev = np.linalg.eigvals(M)
    ev = ev[np.argsort(np.abs(ev))]
    x = float((ev[-1] + 1 / ev[-1]).real)
    beta = math.sqrt(RHO * (f * f + 1))
    unit = bool(np.all(np.abs(np.abs(ev + 1 / ev) - 2) <= beta))
    Q = np.eye(n, dtype=complex)
    for mu in ev[1:-1]:
        Q = Q @ (M - mu * np.eye(n))
    return x, beta, unit, Q.real


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
    dimension n - 2: ClassificationError.  Independence is scipy's rank rule
    s_1 > n eps s_0 for the rows a, b, in closed form: s_0 s_1 = |a| |r| with
    r = b - (a.b / a.a) a formed as a vector (|b|^2 - (a.b)^2 / |a|^2
    cancels below eps), s_0^2 the larger eigenvalue of the Gram matrix.
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
    for i, (l, ok) in enumerate(zip(lam.tolist(), independent.tolist())):
        if out[i] is None:
            out[i] = (
                SpectralClass(kind=Kind.HYPERBOLIC, dominant=(l, X[i, 0], X[i, 1]))
                if ok
                else ClassificationError(
                    f"unimodular complement has dimension {n - 1}, expected {n - 2}"
                )
            )
    return out


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
    depend on the stack), and the kernel dimensions by scipy's rank rule."""
    n = V.shape[2]
    _, s, vt = np.linalg.svd(V @ sys.form)
    return np.swapaxes(vt[:, 2:], 1, 2), n - np.count_nonzero(s > _EPS * n * s[:, :1], axis=1)


def _kernels(A):
    """Orthonormal kernels of a stack A (K, m, n) at the relative KERNEL_TOL,
    from one stacked SVD: (vt, w), the kernel of A[i] spanned by the rows
    vt[i, n - w[i]:]."""
    _, s, vt = np.linalg.svd(A)
    return vt, A.shape[2] - np.count_nonzero(s >= KERNEL_TOL * np.fmax(1.0, s[:, :1]), axis=1)


def _groups(*keys):
    """Each distinct tuple of the integer arrays ``keys`` (one entry per row),
    with its rows: stacks whose shapes differ by row are formed per group."""
    groups = {}
    for i, key in enumerate(zip(*(k.tolist() for k in keys))):
        groups.setdefault(key, []).append(i)
    return [(key, np.array(rows)) for key, rows in groups.items()]


def classify(sys, elem):
    """Spectral class of a group element (or raw B-isometry matrix).

    det M = (-1)^length comes from a ``GroupElement``'s word.  A raw matrix
    must satisfy M^T B M = B (relative ISOMETRY_TOL) and have a float det
    within its rounding bound of +-1 (``_determinants``), which is then
    rounded; otherwise ClassificationError.  ``_classify_rows`` decides.

    An element read from an ``ElementStore`` of ``sys`` (its ``origin``)
    takes its class from the store's ``class_blocks``: the first call on a
    row classifies the block of BLOCK_ROWS rows of its level that holds it
    as one stack, kept for the store's lifetime, and a row's error is
    raised only when that row is asked for.  Any other element or matrix is a stack of one.
    A row's class does not depend on its stack, so both give the same bits.
    """
    if not isinstance(elem, GroupElement):
        return classify_many(sys, np.asarray(elem)[None])[0]
    if elem.origin is None or elem.origin[0].sys is not sys:
        return classify_many(sys, elem.matrix[None], (-1.0) ** elem.length)[0]
    sys.require_lorentzian("spectral classification")
    store, row = elem.origin
    k, j = store.locate(row)
    b, i = divmod(j, BLOCK_ROWS)
    block = store.class_blocks.get((k, b))
    if block is None:
        M = store.level(k)[1][b * BLOCK_ROWS : (b + 1) * BLOCK_ROWS]
        block = store.class_blocks[k, b] = _classify_rows(sys, M, (-1.0) ** k)
    return _checked(block[i])


def classify_many(sys, mats, det=None):
    """``[classify(sys, M) for M in mats]`` for an (N, n, n) stack, with every
    field bit-identical, and the first failing row's error in stack order.

    ``det`` (one value or one per matrix) gives det M = +-1: callers that
    hold words pass their parities, the sandwich oracle +1 for s_a s_b.
    Without it each matrix is checked and its det rounded as ``classify``
    does for a raw matrix (``_determinants``).  One ``_classify_rows`` over
    the stack classifies every row.
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

    ``_trace_rule`` gives x = lambda + 1/lambda and its rounding bound beta
    for the whole stack.  The rows with x - 2 > beta are hyperbolic, and one
    ``_hyperbolic_classes`` extracts their eigendata; one
    ``_unimodular_classes`` decides all other rows.
    """
    det = np.broadcast_to(np.asarray(det, float), len(M))
    x, beta, unit, eps, Q, f = _trace_rule(M, det)
    hyp = (det != 0) & (x - 2 > beta)
    out = [None] * len(M)
    rows = np.flatnonzero(hyp)
    if len(rows):
        classes = _hyperbolic_classes(sys, M[rows], x[rows], Q[rows], f[rows])
        for i, sc in zip(rows.tolist(), classes):
            out[i] = sc
    rows = np.flatnonzero(~hyp)
    if len(rows):
        classes = _unimodular_classes(sys, M[rows], det[rows], unit[rows], eps[rows])
        for i, sc in zip(rows.tolist(), classes):
            out[i] = sc
    return out


def _checked(sc):
    """A class of ``_classify_rows``, or the error it holds raised.  The
    error's traceback starts afresh, so raising a stored error again does
    not lengthen it."""
    if isinstance(sc, Exception):
        raise sc.with_traceback(None)
    return sc


def _unimodular_classes(sys, M, det, unit, eps):
    """Class of each B-isometry of a stack M (K, n, n) with determinants
    ``det`` (0 where not +-1) that the traces do not call hyperbolic, or its
    error: elliptic for an identity power up to ``sys.finite_order_bound``
    (the largest order of a finite standard parabolic subgroup, so of a
    finite-order element of W, ``_powering``), else parabolic for a verified
    Jordan defect where the traces put the unimodular spectrum at +-1
    (``unit``, with Jordan sign ``eps``, ``_parabolic_classes``).  Anything
    else, a raw matrix of finite order above the bound too, is a
    ClassificationError saying where powering stopped; a Jordan test's
    ClassificationError is its cause.  A row with an infinite entry has an
    infinite beta, so its ``unit`` says nothing: it is not Jordan-tested
    (one such row would make a stacked SVD fail for the whole stack)."""
    bound = sys.finite_order_bound
    unit = unit & np.isfinite(M).all(axis=(1, 2))
    order, stop = _powering(M, det != 0, bound)
    out, suffix = [None] * len(M), {}
    rows = zip(det.tolist(), order.tolist(), stop.tolist(), unit.tolist())
    for i, (d, k, s, u) in enumerate(rows):
        if not d:
            out[i] = ClassificationError("not a B-isometry of determinant +-1")
            continue
        if k:
            out[i] = SpectralClass(kind=Kind.ELLIPTIC, order=k)
            continue
        powering = f"no identity power up to the finite order bound {bound}"
        if s < bound:
            powering = f"powering stopped at M^{s}, which passes the norm cap {POWER_CAP:g}"
        if u:
            suffix[i] = powering
        else:
            out[i] = ClassificationError(
                f"unresolved elliptic/parabolic: {powering} and the spectrum is not at +-1"
            )
    rows = list(suffix)
    if rows:
        for i, sc in zip(rows, _parabolic_classes(sys, M[rows], eps[rows])):
            if isinstance(sc, ClassificationError):
                sc, cause = ClassificationError(f"{sc}; {suffix[i]}"), sc
                sc.__cause__ = cause
            out[i] = sc
    return out


@np.errstate(over="ignore")
def _powering(M, live, bound):
    """(order, stop) of each matrix of a stack M (K, n, n) where ``live``:
    ``order`` is the first k <= bound with max|M^k - I| < tol, else 0, and
    ``stop`` the first k < bound with max|M^k| > POWER_CAP, else bound.  The
    powers of the rows still going are formed together, one product per
    matrix.  Roundoff in M^k grows with max|M|^2 (elliptic conjugates with
    entries near 500 miss I by ~1e-8), while the powers of an
    infinite-order element stay order one away from I, so
    tol = min(1e-2, 1e-8 max(1, max|M|)^2).  fmin and fmax keep Python's
    min and max on a NaN row (tol = 1e-8; its powers then reach the bound),
    and a square that overflows gives tol = 1e-2."""
    K, n, _ = M.shape
    order, stop = np.zeros(K, np.intp), np.full(K, bound)
    tol = np.fmin(1e-2, 1e-8 * np.fmax(1.0, np.abs(M).max(axis=(1, 2))) ** 2)
    live = np.flatnonzero(live)
    P, eye = M[live], np.eye(n)
    for k in range(1, bound + 1):
        done = np.abs(P - eye).max(axis=(1, 2)) < tol[live]
        order[live[done]] = k
        capped = ~done & (np.abs(P).max(axis=(1, 2)) > POWER_CAP)
        stop[live[capped]] = k
        going = ~(done | capped)
        live = live[going]
        if not len(live) or k == bound:
            break
        P = P[going] @ M[live]
    return order, stop


def _parabolic_classes(sys, M, eps):
    """Parabolic class of each matrix of a stack M (K, n, n) with its Jordan
    block at eps (K,), verified, or the row's error.

    The eigenvectors span ker(M - eps I) + ker(M + eps I) (rank <= 4 has
    no other unimodular eigenvalue beside a Jordan triple); it must have
    dimension n - 2 (else ClassificationError), and (M - eps I)^2 must kill
    its B-orthogonal complement, the minimal-polynomial clause (else
    BorderlineSpectrumError).  Each SVD, product and ``eigh`` is one call
    over the rows it serves, in groups of equal kernel widths where the
    shapes differ by row, so a row's bits do not depend on the stack.
    """
    K, n, _ = M.shape
    shift = eps[:, None, None] * np.eye(n)
    A = M - shift
    vt, w = _kernels(A)
    vt2, w2 = _kernels(M + shift)
    out = [None] * K
    dim, U = np.zeros(K, np.intp), np.empty((K, n, n - 2))
    for (a, b), g in _groups(w, w2):
        if not a + b:
            continue
        span = np.concatenate((vt[g, n - a :], vt2[g, n - b :]), axis=1)
        u, s, _ = np.linalg.svd(np.swapaxes(span, 1, 2), full_matrices=False)
        dim[g] = np.count_nonzero(s > 1e-8 * s[:, :1], axis=1)
        if a + b >= n - 2:
            U[g] = u[:, :, : n - 2]
    for i, d in enumerate(dim.tolist()):
        if d != n - 2:
            out[i] = ClassificationError(f"eigenvector span has dimension {d}, expected {n - 2}")
    rows = np.flatnonzero(dim == n - 2)
    if not len(rows):
        return out
    perp, c = _kernels(np.swapaxes(sys.form @ U[rows], 1, 2))
    A = A[rows]
    AA, defect = A @ A, np.empty(len(rows))
    for (width,), g in _groups(c):
        defect[g] = np.abs(AA[g] @ np.swapaxes(perp[g, n - width :], 1, 2)).max(axis=(1, 2))
    F = A.reshape(len(rows), 1, n * n)
    scale = np.fmax(1.0, np.sqrt((F @ np.swapaxes(F, 1, 2))[:, 0, 0]) ** 2)
    vec = _parabolic_vectors(sys, vt[rows], w[rows])
    U.setflags(write=False)
    for j, (i, d, ok, e) in enumerate(
        zip(rows.tolist(), defect.tolist(), (defect <= 1e-7 * scale).tolist(), eps[rows].tolist())
    ):
        e = int(e)
        if not ok:
            out[i] = BorderlineSpectrumError(
                f"parabolic verification failed: |(M - {e} I)^2 on U_perp| = {d:g}"
            )
        elif isinstance(vec[j], Exception):
            out[i] = vec[j]
        else:
            out[i] = SpectralClass(
                kind=Kind.PARABOLIC, parabolic_eps=e, parabolic_vec=vec[j], unimodular_basis=U[i]
            )
    return out


@np.errstate(divide="ignore", invalid="ignore")
def _parabolic_vectors(sys, vt, w):
    """The unique light-like direction at height 1 in each eps-eigenspace of
    a stack, the rows vt[i, n - w[i]:] (``_kernels``), or the row's
    ExtractionError.

    Restricted to an eigenspace, B is positive semi-definite with a
    1-dimensional radical, and the radical direction is the light-like
    eigenvector.  The radicals come from one stacked ``eigh`` per width.
    """
    K, n, _ = vt.shape
    out, v = [None] * K, np.zeros((K, n))
    for (width,), g in _groups(w):
        if not width:
            for i in g.tolist():
                out[i] = ExtractionError("parabolic extraction failed: empty eigenspace kernel")
            continue
        Kt = vt[g, n - width :]
        gvals, gvecs = np.linalg.eigh(Kt @ sys.form @ np.swapaxes(Kt, 1, 2))
        radical = np.abs(gvals) < 1e-7 * np.fmax(1.0, np.abs(gvals).max(axis=1))[:, None]
        # A column of gvecs, as a strided view: K @ gvecs[:, j] is a gemv
        # whose rounding depends on the vector's stride.
        for (j,), rows in _groups(radical.argmax(axis=1)):
            v[g[rows]] = (np.swapaxes(Kt[rows], 1, 2) @ gvecs[rows][:, :, j : j + 1])[:, :, 0]
        for i, r in zip(g.tolist(), np.count_nonzero(radical, axis=1).tolist()):
            if r != 1:
                out[i] = ExtractionError(
                    f"parabolic extraction failed: radical dimension {r} != 1"
                )
    h = np.add.reduce(v, 1)
    norm = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
    X = v / h[:, None]
    X.setflags(write=False)
    for i, zero in enumerate((np.abs(h) < 1e-12 * norm).tolist()):
        if out[i] is None and zero:
            out[i] = ExtractionError("eigendirection has zero height; not in the chart")
        elif out[i] is None:
            out[i] = X[i]
    return out


def hyperbolic_directions(sys, sc, iso_tol=1e-8):
    """Chart points of the two light-like eigendirections of a hyperbolic class."""
    if sc.kind is not Kind.HYPERBOLIC:
        raise ValueError("hyperbolic_directions requires a hyperbolic class")
    _, x_plus, x_minus = sc.dominant
    p_plus = to_chart(sys, x_plus)
    p_minus = to_chart(sys, x_minus)
    for p in (p_plus, p_minus):
        if abs(p.bnorm) > iso_tol:
            raise ExtractionError(f"eigendirection not light-like: B = {p.bnorm:g}")
    return p_plus, p_minus


def parabolic_direction(sys, sc):
    """Chart point of the unique light-like eigendirection of a parabolic class."""
    if sc.kind is not Kind.PARABOLIC:
        raise ValueError("parabolic_direction requires a parabolic class")
    return to_chart(sys, sc.parabolic_vec)


def unimodular_subspace(sys, sc):
    """Orthonormal basis (columns) of the unimodular subspace; a hyperbolic one is formed anew."""
    if sc.kind is Kind.ELLIPTIC:
        raise ValueError("elliptic elements have no unimodular subspace")
    if sc.kind is Kind.PARABOLIC:
        return sc.unimodular_basis
    return _plane_complements(sys, np.stack(sc.dominant[1:])[None])[0][0]
