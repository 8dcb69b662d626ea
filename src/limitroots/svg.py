"""Deterministic SVG rendering of chart point sets for rank 3 and 4.

Rank-3 charts use barycentric coordinates on an equilateral triangle.
Rank-4 charts use a fixed orthographic projection of a flattened
tetrahedron: vertices at (0,0), (1,0), (0.5, 0.866), (0.5, 0.289).
"""

import numpy as np

from .projective import at_infinity, light_conic, to_chart

SIZE = 640
MARGIN = 60
CONIC_RESOLUTION = 512
POINT_RADIUS = 1.6

# Fixed 2D positions for the chart simplex vertices.
_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8660254037844386]])
_TETRA = np.array(
    [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8660254037844386], [0.5, 0.2886751345948129]]
)

KIND_COLORS = {
    "parabolic-eig": "#1f77b4",
    "hyperbolic-eig": "#d62728",
    "intersection": "#9467bd",
    "weight": "#ff7f0e",
}


def _projection(rank):
    if rank == 3:
        return _TRIANGLE
    if rank == 4:
        return _TETRA
    raise ValueError(f"SVG rendering supports rank 3 or 4, not {rank}")


def _fmt(v):
    return f"{v:.3f}"


class _Canvas:
    def __init__(self, rank):
        self.proj = _projection(rank)
        self.parts = []
        lo = self.proj.min(axis=0)
        hi = self.proj.max(axis=0)
        span = float(max(hi - lo))
        self.scale = (SIZE - 2 * MARGIN) / span
        self.offset = np.array([MARGIN, MARGIN]) - lo * self.scale

    def map_point(self, coords):
        p = np.asarray(coords) @ self.proj
        x = p[0] * self.scale + self.offset[0]
        y = SIZE - (p[1] * self.scale + self.offset[1])  # SVG y grows downward
        return x, y

    def polyline(self, pts, stroke, width=1.0, closed=False):
        path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        tag = "polygon" if closed else "polyline"
        self.parts.append(
            f'<{tag} points="{path}" fill="none" stroke="{stroke}" stroke-width="{width}"/>'
        )

    def circle(self, xy, r, fill):
        x, y = xy
        self.parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{fill}"/>'
        )

    def diamond(self, xy, r, fill):
        x, y = xy
        pts = [(x, y - r), (x + r, y), (x, y + r), (x - r, y)]
        path = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
        self.parts.append(f'<polygon points="{path}" fill="{fill}" stroke="black"/>')

    def render(self):
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
            f'viewBox="0 0 {SIZE} {SIZE}">\n<rect width="{SIZE}" height="{SIZE}" '
            f'fill="white"/>\n{body}\n</svg>\n'
        )


def _arrangement_lines(sys, roots, canvas):
    """Chart traces of reflecting hyperplanes (rank 3: straight lines)."""
    ones = np.ones(sys.rank)
    for vector in roots.vectors:
        rows = np.vstack([sys.form @ vector, ones])
        # Particular chart point on the hyperplane and the line direction.
        p0, *_ = np.linalg.lstsq(rows, np.array([0.0, 1.0]), rcond=None)
        u, s, vt = np.linalg.svd(rows)
        d = vt[-1]
        pts = [canvas.map_point(p0 - 5.0 * d), canvas.map_point(p0 + 5.0 * d)]
        canvas.polyline(pts, stroke="#bbbbbb", width=0.6)


def render_svg(sys, pointset=None, roots=None, intersections=None, show_weights=False):
    """Compose the chart picture: simplex outline, light conic, arrangement
    overlays (an intersection at infinity has no chart point and is not
    drawn), the weights (the columns of B^-1) and provenance-colored points.
    Output is deterministic."""
    canvas = _Canvas(sys.rank)
    n = sys.rank
    # Simplex outline: every edge of the chart simplex.
    eye = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            canvas.polyline(
                [canvas.map_point(eye[i]), canvas.map_point(eye[j])],
                stroke="black",
                width=1.2,
            )
    if roots is not None and n == 3:
        _arrangement_lines(sys, roots, canvas)
    if sys.is_lorentzian and n in (3, 4):
        pts = [canvas.map_point(v) for v in light_conic(sys, resolution=CONIC_RESOLUTION)]
        canvas.polyline(pts, stroke="#555555", width=1.0, closed=(n == 3))
    if intersections is not None and n == 3:
        pts = to_chart(np.array([ci.basis[:, 0] for ci in intersections]).reshape(-1, n))
        for pt in pts[~at_infinity(pts)]:  # a point at infinity has no chart point to draw
            canvas.circle(canvas.map_point(pt), 2.2, KIND_COLORS["intersection"])
    if show_weights:
        from .arrangement import fundamental_weights

        for w in fundamental_weights(sys).T:
            canvas.diamond(canvas.map_point(w / np.sum(w)), 4.0, KIND_COLORS["weight"])
    if pointset is not None:
        for coords, kind in zip(pointset.coords, pointset.kind):
            color = KIND_COLORS.get(pointset.kinds[kind], "#333333")
            canvas.circle(canvas.map_point(coords), POINT_RADIUS, color)
    return canvas.render()
