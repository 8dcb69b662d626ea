"""Classification of group elements by their Lorentz-transformation type.

Elliptic elements are diagonalizable with unimodular spectrum (equivalently,
of finite order), parabolic elements are unimodular but defective with a
single size-3 Jordan block for an eigenvalue eps = +/-1, and hyperbolic
elements carry one simple real pair lambda, 1/lambda with lambda > 1 whose
eigendirections are light-like.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .elements import GroupElement, matrix_inverse
from .errors import BorderlineSpectrumError, ClassificationError, ExtractionError
from .projective import to_chart

# |lambda| - 1 above this counts as non-unimodular.
HYP_TOL = 1e-9
# Floor of the Jordan guard band.  Below the band's radius the
# non-unimodular pair cannot be separated from the numerical splitting of a
# defective unimodular eigenvalue, so a Jordan-defect test arbitrates before
# declaring the element hyperbolic.
JORDAN_GUARD = 1e-3
# Relative SVD threshold detecting the defective kernel of (M - eps I).
DEFECT_TOL = 1e-8
_EPS = np.finfo(float).eps


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
    elements.  ``unimodular_basis`` has shape (n, n-2) with Euclidean-
    orthonormal columns; it is None for elliptic elements.  ``order`` is the
    verified finite order of elliptic elements.
    """

    kind: Kind
    eigenvalues: np.ndarray
    dominant: tuple = None
    parabolic_eps: int = None
    parabolic_vec: np.ndarray = None
    unimodular_basis: np.ndarray = None
    order: int = None


def _as_matrix(elem):
    if isinstance(elem, GroupElement):
        return np.asarray(elem.matrix, dtype=float)
    return np.asarray(elem, dtype=float)


def _norm(x):
    """``np.linalg.norm(x)`` of a real array, bit for bit, without its dispatch.

    The copy made by ``ravel`` matters: a dot product over a strided view
    sums in another order.
    """
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def _jordan_radius(M):
    """Radius of the eigenvalue cluster left by a numerically split Jordan
    triple: a perturbation of size eps * |M|^2 splits it by its cube root."""
    return max(JORDAN_GUARD, 2.0 * (_EPS * _norm(M) ** 2) ** (1.0 / 3.0))


def _finite_order(M, k_max, norm_cap=1e9):
    # Roundoff in a power of M grows with max|M|^2 (elliptic conjugates with
    # entries near 500 miss I by ~1e-8), while the powers of an
    # infinite-order element stay order one away from I; the cap keeps the
    # test far below that distance.
    tol = min(1e-2, 1e-8 * max(1.0, float(np.abs(M).max())) ** 2)
    eye = np.eye(M.shape[0])
    P = M
    for k in range(1, k_max + 1):
        if np.abs(P - eye).max() < tol:
            return k
        if np.abs(P).max() > norm_cap:
            return None
        P = P @ M
    return None


def _defective_eps(M, evals, cluster_radius):
    """(eps, kernel) if M has a defective eigenvalue cluster at eps = +1 or -1,
    else None; ``kernel`` is the numerical kernel (orthonormal columns) of
    M - eps I."""
    clusters = [
        eps for eps in (1.0, -1.0)
        if np.count_nonzero(np.abs(evals - eps) < cluster_radius) >= 3
    ]
    if not clusters:
        return None
    scale = max(1.0, np.linalg.svd(M, compute_uv=False)[0])
    for eps in clusters:
        _, s, vt = np.linalg.svd(M - eps * np.eye(M.shape[0]))
        if s[-1] < DEFECT_TOL * scale:
            kdim = np.count_nonzero(s < 1e-7 * max(1.0, s[0]))
            return int(eps), vt[len(s) - kdim :].T
    return None


def _height_oriented(v):
    h = v.sum()
    if abs(h) < 1e-12 * _norm(v):
        raise ExtractionError("eigendirection has zero height; not in the chart")
    return v / h


def _refine_eigenpair(M, lam, v, max_steps=5):
    """Rayleigh-quotient iteration from a dense-solver estimate.

    Convergence is cubic, so a few steps take the eigenpair to roundoff;
    the shift is jittered off the exact eigenvalue to keep the solve
    nonsingular.
    """
    scale = max(1.0, _norm(M))
    w = v / _norm(v)
    lam_new = lam
    for step in range(max_steps + 1):
        residual = _norm(M @ w - lam_new * w)
        if residual < 1e-13 * scale or step == max_steps:
            break
        try:
            w_next = np.linalg.solve(M - lam_new * (1 + 1e-10) * np.eye(len(w)), w)
        except np.linalg.LinAlgError:
            break
        w = w_next / _norm(w_next)
        lam_new = float(w @ M @ w) / float(w @ w)
    if residual > 1e-6 * scale:
        raise ExtractionError(f"ill-conditioned eigenvector solve: residual {residual:g}")
    return lam_new, w


def _dominant_vector(M, lam, evals, evecs):
    """Refined eigenvector of M for lam, seeded from M's dense eigendata."""
    lam_ref, w = _refine_eigenpair(M, lam, _initial_vector(evals, evecs, lam))
    return lam_ref, _height_oriented(w)


def _initial_vector(evals, evecs, lam):
    v = evecs[:, np.abs(evals - lam).argmin()]
    return np.real(v / v[np.abs(v).argmax()])


def _null_space(A):
    """Orthonormal kernel basis (columns) of A, with scipy's rank rule."""
    _, s, vt = np.linalg.svd(A)
    rank = np.count_nonzero(s > _EPS * max(A.shape) * s[0])
    return vt[rank:].T


def _unimodular_basis_hyperbolic(sys, x_plus, x_minus):
    basis = _null_space(np.array((sys.form @ x_plus, sys.form @ x_minus)))
    if basis.shape[1] != sys.rank - 2:
        raise ClassificationError(
            f"unimodular complement has dimension {basis.shape[1]}, expected {sys.rank - 2}"
        )
    return basis


def _unimodular_basis_parabolic(evals, evecs, eps, kernel, cluster_radius):
    """Real span of the eigenvectors of a parabolic element.

    Eigenvectors for eigenvalues away from eps come straight from the dense
    solve; the eps-eigenspace is the kernel of (M - eps I), because the
    numerically split Jordan cluster returns three nearly parallel vectors
    that would inflate the span.
    """
    far = np.abs(evals - eps) > cluster_radius
    raw = np.hstack([np.real(evecs[:, far]), np.imag(evecs[:, far]), kernel])
    u2, s2, _ = np.linalg.svd(raw, full_matrices=False)
    dim = np.count_nonzero(s2 > 1e-8 * s2[0])
    n = len(evals)
    if dim != n - 2:
        raise ClassificationError(
            f"eigenvector span has dimension {dim}, expected {n - 2}"
        )
    return u2[:, : n - 2]


def classify(sys, elem):
    """Spectral class of a group element (or raw B-isometry matrix).

    Decision procedure: spectral radius above 1 + HYP_TOL suggests
    hyperbolic, but radii inside the Jordan guard band are first checked
    for a defective unimodular cluster (a parabolic Jordan block splits its
    triple eigenvalue by about the cube root of eps * |M|_F^2, far beyond
    HYP_TOL); the band and the cluster radius are
    max(JORDAN_GUARD, 2 (eps |M|_F^2)^(1/3)).  Unimodular spectra are
    resolved by powering: finite order means elliptic, a verified Jordan
    defect means parabolic.  The powering stops at
    ``sys.finite_order_bound``, the largest order of a finite standard
    parabolic subgroup, which bounds the order of every element of finite
    order of W.  A raw matrix of larger finite order is not an element of
    W; it raises ClassificationError.
    """
    sys.require_lorentzian("spectral classification")
    M = _as_matrix(elem)
    evals, evecs = np.linalg.eig(M)
    moduli = np.abs(evals)
    rho = float(moduli.max())
    radius = _jordan_radius(M)

    if rho > 1.0 + HYP_TOL:
        if rho <= 1.0 + radius:
            defect = _defective_eps(M, evals, radius)
            if defect is not None:
                return _make_parabolic(sys, M, evals, evecs, *defect, radius)
            order = _finite_order(M, sys.finite_order_bound)
            if order is not None:
                return _make_elliptic(evals, order)
        return _make_hyperbolic(sys, M, evals, evecs, moduli, rho)

    # Unimodular spectrum: elliptic unless a Jordan defect shows up.
    order = _finite_order(M, sys.finite_order_bound)
    if order is not None:
        return _make_elliptic(evals, order)
    defect = _defective_eps(M, evals, radius)
    if defect is not None:
        return _make_parabolic(sys, M, evals, evecs, *defect, radius)
    raise ClassificationError(
        f"unresolved elliptic/parabolic: no identity power up to the finite "
        f"order bound {sys.finite_order_bound} and no Jordan defect detected"
    )


def classify_many(sys, mats):
    """``[classify(sys, M) for M in mats]`` for an (N, n, n) stack, with every
    field bit-identical, and the same error where ``classify`` raises one.

    One stacked eigensolve splits the rows.  A row beyond the Jordan guard
    band (with a relative margin of 1e-9 on its radius) with exactly one
    expanding eigenvalue, and that one real, takes the stacked hyperbolic
    path: the inverse M^-1 = B^-1 M^T B and its eigensolve, the seed
    vectors, the residual test of ``_refine_eigenpair``, the heights and the
    kernel of (B x_plus, B x_minus), each as one call over the rows.  Every
    other row, and every row that needs a Rayleigh step, has zero height or
    a complement of the wrong dimension, goes to ``classify``, in stack
    order.  Stacked ``eig``, ``solve``, ``svd`` and matrix-vector products
    give the per-matrix bits; the row norms and the seed division are
    written to do the same (``_row_norms``, ``_seed_vectors``).
    """
    sys.require_lorentzian("spectral classification")
    M = np.ascontiguousarray(mats, dtype=float)
    n = sys.rank
    if len(M) == 0 or M.shape[1:] != (n, n) or not np.isfinite(M).all():
        return [classify(sys, m) for m in M]
    N = len(M)
    evals, evecs = np.linalg.eig(M)
    moduli = np.abs(evals)
    rho = moduli.max(axis=1)
    lam0 = evals[np.arange(N), moduli.argmax(axis=1)]
    radius = np.maximum(JORDAN_GUARD, 2.0 * (_EPS * _frobenius_norms(M) ** 2) ** (1.0 / 3.0))
    fast = np.flatnonzero(
        (rho - 1.0 > radius * (1.0 + 1e-9))
        & (np.count_nonzero(moduli > 0.5 * (1.0 + rho[:, None]), axis=1) == 1)
        & (lam0.imag == 0.0)
    )
    out = [None] * N
    if fast.size:
        hyperbolic = _hyperbolic_classes(sys, M[fast], lam0.real[fast], evals[fast], evecs[fast])
        for i, sc in zip(fast, hyperbolic):
            out[i] = sc
    return [sc if sc is not None else classify(sys, M[i]) for i, sc in enumerate(out)]


def _hyperbolic_classes(sys, M, lam, evals, evecs):
    """``_make_hyperbolic`` over a stack whose dominant eigenvalues ``lam`` are
    real and simple; None for the rows it cannot settle without a Rayleigh
    step or that it would reject."""
    with np.errstate(all="ignore"):
        x_plus, ok = _dominant_vectors(M, lam, evals, evecs)
        Minv = np.linalg.solve(sys.form, np.swapaxes(M, 1, 2) @ sys.form)
        x_minus, ok_minus = _dominant_vectors(Minv, lam, *np.linalg.eig(Minv))
    A = np.stack([sys.form @ x_plus[:, :, None], sys.form @ x_minus[:, :, None]], axis=1)[..., 0]
    _, s, vt = np.linalg.svd(A)
    rank = np.count_nonzero(s > _EPS * max(A.shape[1:]) * s[:, :1], axis=1)
    ok &= ok_minus & (rank == 2)
    real = _real_rows(evals)
    return [
        SpectralClass(
            kind=Kind.HYPERBOLIC,
            eigenvalues=evals[j].real.copy() if real[j] else evals[j],
            dominant=(float(lam[j]), x_plus[j], x_minus[j]),
            unimodular_basis=vt[j, 2:].T,
        )
        if ok[j]
        else None
        for j in range(len(M))
    ]


def _row_norms(X):
    """``_norm`` of each row of X, bit for bit: each (1, m) @ (m, 1) product
    is the dot product of one contiguous row (``einsum`` and
    ``sum(axis=1)`` add in another order)."""
    X = np.ascontiguousarray(X)
    return np.sqrt((X[:, None, :] @ X[:, :, None])[:, 0, 0])


def _frobenius_norms(M):
    """``_norm`` of each matrix of an (N, n, n) stack."""
    return _row_norms(M.reshape(len(M), M.shape[1] * M.shape[2]))


def _real_rows(evals):
    """Rows whose eigenvalues ``np.linalg.eig`` of that matrix alone returns
    as a real array (a stacked call is complex if any row is)."""
    return np.all(evals.imag == 0.0, axis=1)


def _seed_vectors(evals, evecs, lam):
    """``_initial_vector`` of each row.  Rows with a real spectrum divide in
    float, as ``_initial_vector`` does on real eigendata; complex division
    multiplies by a reciprocal and changes bits."""
    rows = np.arange(len(lam))
    V = evecs[rows, :, np.abs(evals - lam[:, None]).argmin(axis=1)]
    pivot = V[rows, np.abs(V).argmax(axis=1)][:, None]
    real = _real_rows(evals)
    out = np.empty(V.shape)
    out[real] = V[real].real / pivot[real].real
    out[~real] = (V[~real] / pivot[~real]).real
    return out


def _dominant_vectors(M, lam, evals, evecs):
    """``_dominant_vector`` of each row when its seed passes the residual test
    without a Rayleigh step: (X, ok), with X's rows at height 1 and ok false
    for rows that need a step or have zero height."""
    W = _seed_vectors(evals, evecs, lam)
    W = W / _row_norms(W)[:, None]
    scale = np.maximum(1.0, _frobenius_norms(M))
    residual = _row_norms((M @ W[:, :, None])[:, :, 0] - lam[:, None] * W)
    h = W.sum(axis=1)
    ok = (residual < 1e-13 * scale) & ~(np.abs(h) < 1e-12 * _row_norms(W))
    return W / h[:, None], ok


def _make_elliptic(evals, order):
    return SpectralClass(kind=Kind.ELLIPTIC, eigenvalues=evals, order=order)


def _make_hyperbolic(sys, M, evals, evecs, moduli, rho):
    # Count expanding eigenvalues against the midpoint between 1 and the
    # spectral radius: for ill-conditioned matrices the dense solver can
    # push a unimodular eigenvalue slightly above 1 + HYP_TOL, but never
    # halfway to the dominant one.
    big = np.count_nonzero(moduli > 0.5 * (1.0 + rho))
    if big != 1:
        raise BorderlineSpectrumError(
            f"expected exactly one expanding eigenvalue, found {big}: {evals}"
        )
    lam0 = evals[moduli.argmax()]
    if abs(lam0.imag) > 1e-6 * abs(lam0):
        raise BorderlineSpectrumError(f"dominant eigenvalue {lam0} is not real")
    lam, x_plus = _dominant_vector(M, float(lam0.real), evals, evecs)
    Minv = matrix_inverse(sys, M)
    _, x_minus = _dominant_vector(Minv, lam, *np.linalg.eig(Minv))
    basis = _unimodular_basis_hyperbolic(sys, x_plus, x_minus)
    return SpectralClass(
        kind=Kind.HYPERBOLIC,
        eigenvalues=evals,
        dominant=(lam, x_plus, x_minus),
        unimodular_basis=basis,
    )


def _make_parabolic(sys, M, evals, evecs, eps, kernel, cluster_radius):
    A = M - eps * np.eye(sys.rank)
    basis = _unimodular_basis_parabolic(evals, evecs, eps, kernel, cluster_radius)
    # Verify the minimal-polynomial clause: (M - eps I)^2 kills the
    # B-orthogonal companion of the eigenvector span.
    perp = _null_space((sys.form @ basis).T)
    defect = np.abs(A @ A @ perp).max()
    scale = max(1.0, _norm(A) ** 2)
    if defect > 1e-7 * scale:
        raise BorderlineSpectrumError(
            f"parabolic verification failed: |(M - {eps} I)^2 on U_perp| = {defect:g}"
        )
    vec = _parabolic_vector(sys, kernel)
    return SpectralClass(
        kind=Kind.PARABOLIC,
        eigenvalues=evals,
        parabolic_eps=eps,
        parabolic_vec=vec,
        unimodular_basis=basis,
    )


def _parabolic_vector(sys, K):
    """The unique light-like direction in the eps-eigenspace K (columns).

    Restricted to K, B is positive semi-definite with a 1-dimensional
    radical, and the radical direction is the light-like eigenvector.
    """
    if K.shape[1] < 1:
        raise ExtractionError("parabolic extraction failed: empty eigenspace kernel")
    gram = K.T @ sys.form @ K
    gvals, gvecs = np.linalg.eigh(gram)
    gscale = max(1.0, float(np.abs(gvals).max()))
    radical = np.abs(gvals) < 1e-7 * gscale
    rdim = np.count_nonzero(radical)
    if rdim != 1:
        raise ExtractionError(f"parabolic extraction failed: radical dimension {rdim} != 1")
    return _height_oriented(K @ gvecs[:, radical.argmax()])


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
    """Orthonormal basis (columns) of the (n-2)-dimensional unimodular subspace."""
    if sc.kind is Kind.ELLIPTIC:
        raise ValueError("elliptic elements have no unimodular subspace")
    return sc.unimodular_basis


def orthogonality_check(sys, z1, lam, z2, mu, tol=1e-8):
    """True when lam * conj(mu) != 1 forces B(z1, z2) = 0 (test oracle)."""
    if abs(lam * np.conj(mu) - 1.0) <= 1e-9:
        return True  # hypothesis fails; nothing to check
    b = np.asarray(z1) @ sys.form @ np.conj(np.asarray(z2))
    scale = max(1.0, float(np.linalg.norm(z1) * np.linalg.norm(z2)))
    return bool(abs(b) < tol * scale)
