"""Chart arithmetic for the projective representation space.

Directions are rows of float arrays in the affine chart spanned by the
simple roots (coordinate sum 1); directions of height zero live on the
hyperplane at infinity and carry a sign-canonicalized unit vector instead.
"""

import math

import numpy as np

HEIGHT_TOL = 1e-12


def _row_norms(X):
    # One dot product per row, as np.linalg.norm takes it, bit for bit.
    return np.sqrt((X[:, None, :] @ X[:, :, None])[:, 0, 0])


def to_chart(X):
    """Chart rows of X, an (N, n) stack or one (n,) vector, in its shape:
    v / h for a row v of height h = sum(v) with |h| > ``HEIGHT_TOL`` |v|,
    else (at infinity) the unit vector of v snapped onto h = 0, signed so
    that its first entry above 1e-12 in size is positive.  A zero row is a
    ValueError."""
    X = np.asarray(X, dtype=float)
    rows = np.ascontiguousarray(X.reshape(-1, X.shape[-1]))
    norms = _row_norms(rows)
    if not norms.all():
        raise ValueError("cannot project the zero vector")
    h = rows.sum(axis=1)
    far = ~(np.abs(h) > HEIGHT_TOL * norms)
    out = rows / np.where(far, norms, h)[:, None]
    C = out[far]
    C -= C.sum(axis=1)[:, None] / C.shape[1]  # snap onto the h=0 plane
    C /= _row_norms(C)[:, None]
    lead = C[np.arange(len(C)), np.argmax(np.abs(C) > 1e-12, axis=1)]
    C[lead < 0] *= -1.0
    out[far] = C
    return out.reshape(X.shape)


def at_infinity(P):
    """Mask of the chart rows of P that lie at infinity: |sum| < 0.5.

    A row at infinity sums to 0 up to rounding.  An affine row c = v / h
    has |h| > ``HEIGHT_TOL`` |v|, so |c| < 1e12, and sums exactly to 1; the
    quotients and a sum with chains of at most m additions round that by at
    most (m + 1) 2**-53 sum|c_i| <= (m + 1) sqrt(n) 1.1e-4 (to first order),
    below 0.5 in any order (m < n) up to rank 270, and in numpy's pairwise
    sum of a row (m < 35) up to rank 10,000.
    """
    return np.abs(np.asarray(P).sum(axis=-1)) < 0.5


def _squared_distances(xs, ys):
    """Squared Euclidean distances between points given as per-coordinate
    arrays ``xs`` and ``ys`` (broadcast against each other), summed over
    the coordinates left to right, as scipy's kd-tree sums them for up to
    seven coordinates."""
    total = 0.0
    for x, y in zip(xs, ys):
        total = total + (x - y) ** 2
    return total


def chart_distances(P, Q):
    """Euclidean distances of the chart rows of P and Q, broadcast: the root
    of ``_squared_distances`` (the dedup's kernel), and infinite where
    exactly one of two rows lies at infinity."""
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    d = np.sqrt(_squared_distances(np.moveaxis(P, -1, 0), np.moveaxis(Q, -1, 0)))
    return np.where(at_infinity(P) != at_infinity(Q), math.inf, d)


def timelike_center(sys):
    """A time-like chart point (eigendirection of the negative eigenvalue of B)."""
    sys.require_lorentzian("finding a time-like center")
    evals, evecs = np.linalg.eigh(sys.form)
    return to_chart(evecs[:, np.argmin(evals)])  # v / h does not depend on the sign of v


def _chart_plane_basis(n):
    """Euclidean-orthonormal basis of the sum-zero subspace."""
    basis = []
    for k in range(1, n):
        v = np.zeros(n)
        v[:k] = 1.0
        v[k] = -k
        basis.append(v / np.linalg.norm(v))
    return np.array(basis)


def light_conic(sys, resolution=256):
    """Zero set of B on the affine chart, for rank 3 (curve) or 4 (mesh), as
    a read-only (m, n) array of chart points, each with |B(x, x)| < 1e-6.

    From a time-like center c, shoot rays along ``resolution`` chart-plane
    directions d (rank 4: an m by 2m latitude/longitude grid, m =
    max(4, floor(sqrt(resolution)))) and solve B(c + t d, c + t d) = 0 for
    the positive root t; a direction with B(d, d) <= 0 gives no point.
    """
    n = sys.rank
    if n not in (3, 4):
        raise ValueError(f"light conic plotting supports rank 3 or 4, not {n}")
    sys.require_lorentzian("the light conic")
    c = timelike_center(sys)
    plane = _chart_plane_basis(n)
    if n == 3:
        theta = np.linspace(0.0, 2 * math.pi, resolution, endpoint=False)
        dirs = np.outer(np.cos(theta), plane[0]) + np.outer(np.sin(theta), plane[1])
    else:
        # Latitude/longitude sampling of directions in the 3-dim chart plane.
        m = max(4, int(math.sqrt(resolution)))
        phi = np.linspace(0.0, math.pi, m)
        theta = np.linspace(0.0, 2 * math.pi, 2 * m, endpoint=False)
        pp, tt = np.meshgrid(phi, theta)
        u = np.stack(
            [np.sin(pp) * np.cos(tt), np.sin(pp) * np.sin(tt), np.cos(pp)], axis=-1
        ).reshape(-1, 3)
        dirs = u @ plane
    B = sys.form
    cc = float(c @ B @ c)
    verts = []
    for d in dirs:
        dd = float(d @ B @ d)
        cd = float(c @ B @ d)
        if dd <= 0:
            continue  # ray stays inside the cone; conic unbounded this way
        disc = cd * cd - dd * cc
        t = (-cd + math.sqrt(disc)) / dd
        x = c + t * d
        verts.append(x / np.sum(x))
    vertices = np.array(verts)
    vertices.setflags(write=False)
    return vertices
