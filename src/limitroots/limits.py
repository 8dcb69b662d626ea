"""Sampling limit roots and limit directions.

Light-like eigendirections of infinite-order elements are dense in the set
of limit roots, so a dense sample is produced by computing each core
element's eigendirection once and pushing it around by conjugators (group
elements act on eigendirections of their conjugates).  Orbit accumulation
and infinite-reduced-word limits provide independent cross-checks.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .elements import element_of
from .graphs import word_to_str
from .projective import ProjectivePoint, chart_distance, to_chart
from .spectral import Kind, classify

log = logging.getLogger(__name__)

DEDUP_EPS = 1e-6

KIND_PARABOLIC = "parabolic-eig"
KIND_HYPERBOLIC = "hyperbolic-eig"
KIND_ORBIT = "orbit"


@dataclass(frozen=True)
class PointRecord:
    """One sampled direction with its provenance."""

    point: ProjectivePoint
    kind: str
    source: tuple = ()
    conjugator: tuple = ()


class PointSet:
    """Deduplicated set of chart points with per-point provenance.

    Points whose chart distance is below ``dedup_eps`` are merged, keeping
    the first record in insertion order.  At-infinity points are kept but
    excluded from chart-metric computations.
    """

    def __init__(self, records, dedup_eps=DEDUP_EPS):
        self.dedup_eps = dedup_eps
        self.records = _dedup(list(records), dedup_eps)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def affine_records(self):
        return [r for r in self.records if not r.point.at_infinity]

    def coords(self):
        """(m, n) array of affine chart coordinates (at-infinity excluded)."""
        recs = self.affine_records
        if not recs:
            return np.empty((0, 0))
        return np.array([r.point.coords for r in recs])

    def counts_by_kind(self):
        out = {}
        for r in self.records:
            out[r.kind] = out.get(r.kind, 0) + 1
        return out

    def filter(self, kind):
        return PointSet([r for r in self.records if r.kind == kind], self.dedup_eps)


def _dedup(records, eps):
    if not records:
        return []
    affine = [(i, r) for i, r in enumerate(records) if not r.point.at_infinity]
    infinite = [(i, r) for i, r in enumerate(records) if r.point.at_infinity]
    keep = {}
    for group in (affine, infinite):
        if not group:
            continue
        coords = np.array([r.point.coords for _, r in group])
        # Coarse pass: quantize to the epsilon grid, first record wins.
        keys = np.round(coords / eps).astype(np.int64)
        first = {}
        for pos, key in enumerate(map(lambda k: k.tobytes(), keys)):
            first.setdefault(key, pos)
        reps = sorted(first.values())
        # Fine pass: merge grid cells whose representatives still sit within eps.
        rep_coords = coords[reps]
        parent = list(range(len(reps)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        tree = cKDTree(rep_coords)
        for a, b in sorted(tree.query_pairs(eps)):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        for pos in range(len(reps)):
            root = find(pos)
            orig = group[reps[root]][0]
            keep[orig] = group[reps[root]][1]
    return [keep[i] for i in sorted(keep)]


def infinite_order_directions(sys, elem, sc=None):
    """Light-like eigendirection records for one infinite-order element."""
    sc = sc if sc is not None else classify(sys, elem)
    if sc.kind is Kind.ELLIPTIC:
        return []
    if sc.kind is Kind.PARABOLIC:
        return [(KIND_PARABOLIC, sc.parabolic_vec)]
    _, x_plus, x_minus = sc.dominant
    return [(KIND_HYPERBOLIC, x_plus), (KIND_HYPERBOLIC, x_minus)]


def sample_limit_roots(
    sys,
    store,
    core_range,
    conj_range,
    dedup_eps=DEDUP_EPS,
    kinds=(KIND_PARABOLIC, KIND_HYPERBOLIC),
):
    """Dense limit-root sample from eigendirections and their conjugates.

    For every infinite-order element of length in ``core_range`` the
    light-like eigendirections are computed once; every conjugator g of
    length in ``conj_range`` then contributes the image point g(x), without
    re-solving any eigenproblem.
    """
    sys.require_lorentzian("limit-root sampling")
    core_lo, core_hi = core_range
    conj_lo, conj_hi = conj_range
    if store.max_length < max(core_hi, conj_hi):
        raise ValueError(
            f"store covers length {store.max_length}, need {max(core_hi, conj_hi)}"
        )
    conjugators = store.with_length(conj_lo, conj_hi)
    conj_mats = np.stack([g.matrix for g in conjugators])
    records = []
    n_cores = 0
    for elem in store.with_length(core_lo, core_hi):
        dirs = infinite_order_directions(sys, elem)
        dirs = [(k, v) for k, v in dirs if k in kinds]
        if not dirs:
            continue
        n_cores += 1
        for kind, vec in dirs:
            images = conj_mats @ vec
            heights = images.sum(axis=1)
            for g, img, h in zip(conjugators, images, heights):
                coords = img / h
                bnorm = float(coords @ sys.form @ coords)
                coords.setflags(write=False)
                point = ProjectivePoint(coords=coords, at_infinity=False, bnorm=bnorm)
                records.append(
                    PointRecord(point=point, kind=kind, source=elem.word, conjugator=g.word)
                )
    if n_cores == 0:
        log.warning(
            "no infinite-order elements with length in %s; emitting an empty set",
            core_range,
        )
    return PointSet(records, dedup_eps)


def orbit_accumulate(sys, base, store, min_length, max_length, dedup_eps=DEDUP_EPS):
    """Orbit points w(base) over min_length <= l(w) <= max_length, deduplicated."""
    base_vec = base.coords if isinstance(base, ProjectivePoint) else np.asarray(base, float)
    records = []
    for elem in store.with_length(min_length, max_length):
        point = to_chart(sys, elem.matrix @ base_vec)
        records.append(PointRecord(point=point, kind=KIND_ORBIT, source=elem.word))
    ps = PointSet(records, dedup_eps)
    if len(ps) < 2:
        log.warning("orbit degenerated to %d point(s)", len(ps))
    return ps


def power_dynamics(sys, elem, base, k_max, dps=None):
    """Trajectory (w^k(base))_{k=1..k_max} in the chart.

    ``elem`` is a group element or a float matrix; the working vector is
    renormalized every step, so arbitrarily long trajectories of
    hyperbolic elements stay in floating-point range.

    With ``dps`` set, the iteration runs in mpmath arithmetic at that many
    decimal digits, and ``elem`` may also be an mpmath matrix, which is
    iterated as it is (``base`` may then be a sequence of mpmath numbers).
    Double precision loses an invariant plane at a relative rate of about
    eigenvalue^2 * 1e-16 per step, so trajectories meant to stay off the
    attracting eigendirection of a strongly hyperbolic element need the
    extra digits.
    """
    seq = base.coords if isinstance(base, ProjectivePoint) else base
    if dps is None:
        M = elem.matrix if hasattr(elem, "matrix") else np.asarray(elem, float)
        v = np.array(seq, dtype=float)
        out = []
        for _ in range(k_max):
            v = M @ v
            v /= np.linalg.norm(v)
            out.append(to_chart(sys, v))
        return out
    import mpmath

    with mpmath.workdps(dps):
        if isinstance(elem, mpmath.matrix):
            M_mp = elem
        else:
            M = elem.matrix if hasattr(elem, "matrix") else np.asarray(elem, float)
            M_mp = mpmath.matrix(M.tolist())
        v = mpmath.matrix(list(seq))
        out = []
        for _ in range(k_max):
            v = M_mp * v
            v /= mpmath.norm(v)
            out.append(to_chart(sys, np.array([float(x) for x in v])))
        return out


@dataclass(frozen=True)
class PeriodicWord:
    """An eventually periodic infinite word prefix . period period ..."""

    prefix: tuple
    period: tuple

    def __post_init__(self):
        if len(self.period) == 0:
            raise ValueError("period must be nonempty")

    def head(self, repeats):
        return self.prefix + self.period * repeats


def certify_reduced(sys, pw, horizon=50):
    """Check that prefix . period^k is reduced for all k up to the horizon.

    Uses the inversion-root criterion (every root of the word stays
    positive), which needs one forward pass and keeps its sign information
    even when the matrix entries grow geometrically.
    """
    try:
        inversion_set(sys, pw.head(horizon))
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class WordLimitResult:
    point: ProjectivePoint
    kind: Kind
    eigenvalue: float
    orbit_residual: float


def word_limit_root(sys, pw, horizon=50):
    """Unique limit root of an infinite reduced word with periodic tail.

    The limit is the prefix image of the period element's attracting
    eigendirection; it is cross-validated against the empirical limit of the
    prefix orbit acting on a simple root outside the unimodular subspace.
    """
    sys.require_lorentzian("infinite-word limits")
    if not certify_reduced(sys, pw, horizon):
        raise ValueError(
            f"{word_to_str(pw.prefix)!r}.{word_to_str(pw.period)!r}^inf is not reduced "
            f"at horizon {horizon}"
        )
    p = element_of(sys, pw.period)
    sc = classify(sys, p)
    if sc.kind is Kind.ELLIPTIC:
        raise ValueError(
            f"period {word_to_str(pw.period)!r} has finite order; "
            "not an infinite reduced word witness"
        )
    q = element_of(sys, pw.prefix).matrix
    if sc.kind is Kind.HYPERBOLIC:
        lam, x_plus, _ = sc.dominant
        direction = x_plus
    else:
        lam = float(sc.parabolic_eps)
        direction = sc.parabolic_vec
    point = to_chart(sys, q @ direction)

    # Empirical check: iterate the period on each simple root, keep the best.
    residual = math.inf
    for s in range(sys.rank):
        v = np.zeros(sys.rank)
        v[s] = 1.0
        for _ in range(horizon):
            v = p.matrix @ v
            v /= np.linalg.norm(v)
        try:
            orbit_pt = to_chart(sys, q @ v)
        except ValueError:
            continue
        residual = min(residual, chart_distance(point, orbit_pt))
    return WordLimitResult(point=point, kind=sc.kind, eigenvalue=lam, orbit_residual=residual)


def inversion_set(sys, word):
    """Positive roots w_{k-1}(alpha_{s_k}) of a reduced word.

    A word is reduced exactly when every such root is positive; a negative
    root (the image of an earlier inversion) raises ValueError.
    """
    n = sys.rank
    roots = []
    M = np.eye(n)
    for s in word:
        root = M[:, s].copy()
        if np.min(root) < -1e-9 * max(1.0, float(np.max(np.abs(root)))):
            raise ValueError(
                f"word {word_to_str(word)!r} is not reduced (negative inversion root)"
            )
        roots.append(root)
        M = M @ sys.gens[s]
    return roots


def hausdorff(a, b):
    """Symmetric Hausdorff distance between two point sets in the chart."""
    ca = a.coords() if isinstance(a, PointSet) else np.asarray(a, float)
    cb = b.coords() if isinstance(b, PointSet) else np.asarray(b, float)
    if ca.size == 0 or cb.size == 0:
        raise ValueError("hausdorff distance of an empty set")
    for ps in (a, b):
        if isinstance(ps, PointSet):
            skipped = len(ps.records) - len(ps.affine_records)
            if skipped:
                log.warning("hausdorff: excluding %d at-infinity point(s)", skipped)
    d_ab = cKDTree(cb).query(ca)[0].max()
    d_ba = cKDTree(ca).query(cb)[0].max()
    return float(max(d_ab, d_ba))
