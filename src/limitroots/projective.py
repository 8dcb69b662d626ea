"""Chart arithmetic for the projective representation space.

Directions are stored in the affine chart spanned by the simple roots
(coordinate sum 1); directions of height zero live on the hyperplane at
infinity and carry a sign-canonicalized unit vector instead.
"""

import math
from dataclasses import dataclass

import numpy as np

HEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class ProjectivePoint:
    """A direction in projective space, in chart coordinates.

    ``coords`` sum to 1 for affine points; for at-infinity points they sum to
    0, have unit Euclidean norm, and the first nonzero coordinate is positive.
    ``bnorm`` caches B(x, x) of the chart representative.
    """

    coords: np.ndarray
    at_infinity: bool
    bnorm: float

    def __repr__(self):
        tag = "inf" if self.at_infinity else "aff"
        vals = ", ".join(f"{v:.6f}" for v in self.coords)
        return f"ProjectivePoint[{tag}]({vals})"


def to_chart(sys, v):
    """Chart point of a nonzero vector: v/h(v), or an at-infinity direction."""
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("cannot project the zero vector")
    h = float(np.sum(v))
    if abs(h) > HEIGHT_TOL * norm:
        coords = v / h
    else:
        coords = v / norm
        coords = coords - np.sum(coords) / len(coords)  # snap onto the h=0 plane
        coords /= np.linalg.norm(coords)
        lead = coords[np.nonzero(np.abs(coords) > 1e-12)[0][0]]
        if lead < 0:
            coords = -coords
    bnorm = float(coords @ sys.form @ coords)
    coords.setflags(write=False)
    return ProjectivePoint(coords=coords, at_infinity=abs(h) <= HEIGHT_TOL * norm, bnorm=bnorm)


def chart_distance(p, q):
    """Euclidean distance in the affine chart; infinite across the chart boundary."""
    if p.at_infinity or q.at_infinity:
        if p.at_infinity and q.at_infinity:
            return float(np.linalg.norm(p.coords - q.coords))
        return math.inf
    return float(np.linalg.norm(p.coords - q.coords))


def _row_norms(X):
    # One dot product per row, as np.linalg.norm takes it, bit for bit.
    return np.sqrt((X[:, None, :] @ X[:, :, None])[:, 0, 0])


def chart_distances(sys, X, Y):
    """``chart_distance(to_chart(sys, x), to_chart(sys, y))`` for the rows of
    two (N, n) stacks, bit for bit: heights, quotients and norms are taken
    row by row as ``to_chart`` takes them, one stack at a time.  Rows with a
    point at infinity go through ``to_chart`` itself."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    hx, hy = X.sum(axis=1), Y.sum(axis=1)
    affine = (np.abs(hx) > HEIGHT_TOL * _row_norms(X)) & (np.abs(hy) > HEIGHT_TOL * _row_norms(Y))
    d = np.empty(len(X))
    D = X[affine] / hx[affine, None] - Y[affine] / hy[affine, None]
    d[affine] = _row_norms(D)
    for i in np.flatnonzero(~affine):
        d[i] = chart_distance(to_chart(sys, X[i]), to_chart(sys, Y[i]))
    return d


def timelike_center(sys):
    """A time-like chart point (eigendirection of the negative eigenvalue of B)."""
    sys.require_lorentzian("finding a time-like center")
    evals, evecs = np.linalg.eigh(sys.form)
    v = evecs[:, np.argmin(evals)]
    if np.sum(v) < 0:
        v = -v
    return to_chart(sys, v)


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
    c = timelike_center(sys).coords
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
