"""Classification of group elements by their Lorentz-transformation type.

Elliptic elements are diagonalizable with unimodular spectrum (equivalently,
of finite order), parabolic elements are unimodular but defective with a
single size-3 Jordan block for an eigenvalue eps = +/-1, and hyperbolic
elements carry one simple real pair lambda, 1/lambda with lambda > 1 whose
eigendirections are light-like.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .elements import GroupElement, matrix_inverse
from .errors import BorderlineSpectrumError, ClassificationError, ExtractionError
from .projective import to_chart

# |lambda| - 1 above this counts as non-unimodular.
HYP_TOL = 1e-9
# Below this the non-unimodular pair cannot be separated from the numerical
# splitting of a defective unimodular eigenvalue, so a Jordan-defect test
# arbitrates before declaring the element hyperbolic.
JORDAN_GUARD = 1e-3
# Relative SVD threshold detecting the defective kernel of (M - eps I).
DEFECT_TOL = 1e-8
# Power cap for the finite-order search.
K_MAX = 1000


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


def _finite_order(M, k_max, norm_cap=1e9):
    n = M.shape[0]
    # Roundoff in a power of M grows with max|M|^2 (elliptic conjugates with
    # entries near 500 miss I by ~1e-8), while the powers of an
    # infinite-order element stay order one away from I; the cap keeps the
    # test far below that distance.
    tol = min(1e-2, 1e-8 * max(1.0, float(np.max(np.abs(M)))) ** 2)
    P = M.copy()
    for k in range(1, k_max + 1):
        if np.max(np.abs(P - np.eye(n))) < tol:
            return k
        if np.max(np.abs(P)) > norm_cap:
            return None
        P = P @ M
    return None


def _defective_eps(M, evals, cluster_radius=1e-3):
    """Jordan sign eps if M has a defective eigenvalue cluster at +1 or -1."""
    svals = np.linalg.svd(M, compute_uv=False)
    scale = max(1.0, svals[0])
    for eps in (1.0, -1.0):
        if np.sum(np.abs(evals - eps) < cluster_radius) < 3:
            continue
        s = np.linalg.svd(M - eps * np.eye(M.shape[0]), compute_uv=False)
        if s[-1] < DEFECT_TOL * scale:
            return int(eps)
    return None


def _height_oriented(v):
    h = np.sum(v)
    if abs(h) < 1e-12 * np.linalg.norm(v):
        raise ExtractionError("eigendirection has zero height; not in the chart")
    return v / h


def _refine_eigenpair(M, lam, v, max_steps=5):
    """Rayleigh-quotient iteration from a dense-solver estimate.

    Convergence is cubic, so a few steps take the eigenpair to roundoff;
    the shift is jittered off the exact eigenvalue to keep the solve
    nonsingular.
    """
    n = M.shape[0]
    scale = max(1.0, np.linalg.norm(M))
    w = v / np.linalg.norm(v)
    lam_new = lam
    for _ in range(max_steps):
        residual = np.linalg.norm(M @ w - lam_new * w)
        if residual < 1e-13 * scale:
            break
        try:
            w_next = np.linalg.solve(M - lam_new * (1 + 1e-10) * np.eye(n), w)
        except np.linalg.LinAlgError:
            break
        w = w_next / np.linalg.norm(w_next)
        lam_new = float(w @ M @ w) / float(w @ w)
    residual = np.linalg.norm(M @ w - lam_new * w)
    if residual > 1e-6 * scale:
        raise ExtractionError(f"ill-conditioned eigenvector solve: residual {residual:g}")
    return lam_new, w


def _dominant_vector(M, lam, evals, evecs):
    """Refined eigenvector of M for lam, seeded from M's dense eigendata."""
    lam_ref, w = _refine_eigenpair(M, lam, _initial_vector(evals, evecs, lam))
    return lam_ref, _height_oriented(w)


def _initial_vector(evals, evecs, lam):
    idx = int(np.argmin(np.abs(evals - lam)))
    v = evecs[:, idx]
    phase = v[int(np.argmax(np.abs(v)))]
    return np.real(v / phase)


def _null_space(A):
    """Orthonormal kernel basis (columns) of A, with scipy's rank rule."""
    _, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > np.finfo(float).eps * max(A.shape) * s[0]))
    return vt[rank:].T


def _unimodular_basis_hyperbolic(sys, x_plus, x_minus):
    rows = np.vstack([sys.form @ x_plus, sys.form @ x_minus])
    basis = _null_space(rows)
    if basis.shape[1] != sys.rank - 2:
        raise ClassificationError(
            f"unimodular complement has dimension {basis.shape[1]}, expected {sys.rank - 2}"
        )
    return basis


def _unimodular_basis_parabolic(M, evals, evecs, eps, n, cluster_radius=1e-3):
    """Real span of the eigenvectors of a parabolic element.

    Eigenvectors for eigenvalues away from eps come straight from the dense
    solve; the eps-eigenspace is recomputed as the kernel of (M - eps I),
    because the numerically split Jordan cluster returns three nearly
    parallel vectors that would inflate the span.
    """
    far = np.abs(evals - eps) > cluster_radius
    cols = [np.real(evecs[:, far]), np.imag(evecs[:, far])]
    u, s, vt = np.linalg.svd(M - eps * np.eye(n))
    kdim = int(np.sum(s < 1e-7 * max(1.0, s[0])))
    if kdim >= 1:
        cols.append(vt[n - kdim :].T)
    raw = np.hstack(cols)
    u2, s2, _ = np.linalg.svd(raw, full_matrices=False)
    dim = int(np.sum(s2 > 1e-8 * s2[0]))
    if dim != n - 2:
        raise ClassificationError(
            f"eigenvector span has dimension {dim}, expected {n - 2}"
        )
    return u2[:, : n - 2]


def classify(sys, elem, k_max=K_MAX, hyp_tol=HYP_TOL):
    """Spectral class of a group element (or raw B-isometry matrix).

    Decision procedure: spectral radius above 1 + hyp_tol suggests
    hyperbolic, but radii below a guard band are first checked for a
    defective unimodular cluster (a parabolic Jordan block perturbs its
    triple eigenvalue by roughly the cube root of machine epsilon, far
    beyond hyp_tol).  Unimodular spectra are resolved by powering: finite
    order means elliptic, a verified Jordan defect means parabolic.
    """
    sys.require_lorentzian("spectral classification")
    M = _as_matrix(elem)
    n = sys.rank
    evals, evecs = np.linalg.eig(M)
    rho = float(np.max(np.abs(evals)))

    if rho > 1.0 + hyp_tol:
        eps = None
        if rho <= 1.0 + JORDAN_GUARD:
            eps = _defective_eps(M, evals)
            if eps is None:
                order = _finite_order(M, k_max)
                if order is not None:
                    return _make_elliptic(evals, order)
        if eps is not None:
            return _make_parabolic(sys, M, evals, evecs, eps)
        return _make_hyperbolic(sys, M, evals, evecs)

    # Unimodular spectrum: elliptic unless a Jordan defect shows up.
    order = _finite_order(M, k_max)
    if order is not None:
        return _make_elliptic(evals, order)
    eps = _defective_eps(M, evals)
    if eps is not None:
        return _make_parabolic(sys, M, evals, evecs, eps)
    raise ClassificationError(
        f"unresolved elliptic/parabolic: no identity power below {k_max} "
        "and no Jordan defect detected"
    )


def _make_elliptic(evals, order):
    return SpectralClass(kind=Kind.ELLIPTIC, eigenvalues=evals, order=order)


def _make_hyperbolic(sys, M, evals, evecs):
    # Count expanding eigenvalues against the midpoint between 1 and the
    # spectral radius: for ill-conditioned matrices the dense solver can
    # push a unimodular eigenvalue slightly above 1 + hyp_tol, but never
    # halfway to the dominant one.
    rho = float(np.max(np.abs(evals)))
    big = np.abs(evals) > 0.5 * (1.0 + rho)
    if int(np.sum(big)) != 1:
        raise BorderlineSpectrumError(
            f"expected exactly one expanding eigenvalue, found {int(np.sum(big))}: {evals}"
        )
    lam0 = evals[np.argmax(np.abs(evals))]
    if abs(np.imag(lam0)) > 1e-6 * abs(lam0):
        raise BorderlineSpectrumError(f"dominant eigenvalue {lam0} is not real")
    lam, x_plus = _dominant_vector(M, float(np.real(lam0)), evals, evecs)
    Minv = matrix_inverse(sys, M)
    _, x_minus = _dominant_vector(Minv, lam, *np.linalg.eig(Minv))
    basis = _unimodular_basis_hyperbolic(sys, x_plus, x_minus)
    return SpectralClass(
        kind=Kind.HYPERBOLIC,
        eigenvalues=evals,
        dominant=(lam, x_plus, x_minus),
        unimodular_basis=basis,
    )


def _make_parabolic(sys, M, evals, evecs, eps):
    n = sys.rank
    basis = _unimodular_basis_parabolic(M, evals, evecs, eps, n)
    # Verify the minimal-polynomial clause: (M - eps I)^2 kills the
    # B-orthogonal companion of the eigenvector span.
    perp = _null_space((sys.form @ basis).T)
    A = M - eps * np.eye(n)
    defect = np.max(np.abs(A @ A @ perp))
    scale = max(1.0, np.linalg.norm(A) ** 2)
    if defect > 1e-7 * scale:
        raise BorderlineSpectrumError(
            f"parabolic verification failed: |(M - {eps} I)^2 on U_perp| = {defect:g}"
        )
    vec = _parabolic_vector(sys, M, eps)
    return SpectralClass(
        kind=Kind.PARABOLIC,
        eigenvalues=evals,
        parabolic_eps=eps,
        parabolic_vec=vec,
        unimodular_basis=basis,
    )


def _parabolic_vector(sys, M, eps):
    """The unique light-like direction in the eps-eigenspace.

    Restrict B to the numerical kernel of (M - eps I); the resulting Gram
    matrix is positive semi-definite with a 1-dimensional radical, and the
    radical direction is the light-like eigenvector.
    """
    n = sys.rank
    A = M - eps * np.eye(n)
    u, s, vt = np.linalg.svd(A)
    kdim = int(np.sum(s < 1e-7 * max(1.0, s[0])))
    if kdim < 1:
        raise ExtractionError("parabolic extraction failed: empty eigenspace kernel")
    K = vt[n - kdim :].T
    gram = K.T @ sys.form @ K
    gvals, gvecs = np.linalg.eigh(gram)
    gscale = max(1.0, float(np.max(np.abs(gvals))))
    radical = np.abs(gvals) < 1e-7 * gscale
    if int(np.sum(radical)) != 1:
        raise ExtractionError(
            f"parabolic extraction failed: radical dimension {int(np.sum(radical))} != 1"
        )
    vec = K @ gvecs[:, int(np.argmax(radical))]
    return _height_oriented(vec)


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
