"""Sampling limit roots and limit directions.

Light-like eigendirections of infinite-order elements are dense in the set
of limit roots, so a dense sample is produced by computing each core
element's eigendirection once and pushing it around by conjugators (group
elements act on eigendirections of their conjugates).  The limits of
infinite reduced words provide an independent cross-check.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .elements import _read, element_of
from .graphs import word_to_str
from .projective import ProjectivePoint, chart_distance, to_chart
from .spectral import Kind, classify, classify_many

log = logging.getLogger(__name__)

DEDUP_EPS = 1e-6
# Steps of the period's power iteration in the cross-check of word_limit_root.
ORBIT_STEPS = 50

KIND_PARABOLIC = "parabolic-eig"
KIND_HYPERBOLIC = "hyperbolic-eig"


def _frozen(a):
    a.setflags(write=False)
    return a


class PointSet:
    """Deduplicated chart points with per-point provenance, stored as columns.

    Row i is the chart point ``coords[i]`` (shape (m, n)) with
    ``bnorm[i]`` = B(x, x) and the flag ``at_infinity[i]``.  Its provenance
    is the kind ``kinds[kind[i]]``, the source word ``words[source[i]]`` and
    the conjugator word ``words[conjugator[i]]``; ``kind``, ``source`` and
    ``conjugator`` default to index 0 for every row.

    The constructor merges rows whose chart distance is below ``dedup_eps``,
    keeping the first row in insertion order; affine and at-infinity rows
    are merged separately.  With ``dedup_eps`` = 0 every row is kept (a set
    read back from a file).  ``bnorm`` defaults to B(x, x) under ``form``,
    computed for the kept rows only.
    """

    def __init__(
        self,
        coords,
        dedup_eps=DEDUP_EPS,
        *,
        kinds,
        kind=None,
        words=((),),
        source=None,
        conjugator=None,
        at_infinity=None,
        bnorm=None,
        form=None,
    ):
        coords = np.asarray(coords, dtype=float)
        m = len(coords)
        at_infinity = np.zeros(m, bool) if at_infinity is None else np.asarray(at_infinity, bool)
        keep = _dedup(coords, at_infinity, dedup_eps) if dedup_eps > 0 else np.arange(m)

        def column(values):
            if values is None:
                return _frozen(np.zeros(len(keep), np.intp))
            return _frozen(np.asarray(values, np.intp)[keep])

        self.dedup_eps = dedup_eps
        self.kinds = tuple(kinds)
        self.words = tuple(words)
        self.coords = _frozen(coords[keep])
        self.at_infinity = _frozen(at_infinity[keep])
        self.kind = column(kind)
        self.source = column(source)
        self.conjugator = column(conjugator)
        if bnorm is None:
            bnorm = [float(c @ form @ c) for c in self.coords]
            self.bnorm = _frozen(np.array(bnorm, dtype=float))
        else:
            self.bnorm = _frozen(np.asarray(bnorm, dtype=float)[keep])

    def __len__(self):
        return len(self.coords)

    @property
    def affine_coords(self):
        """(m', n) array of the affine chart coordinates (at-infinity rows excluded)."""
        return self.coords[~self.at_infinity]

    def counts_by_kind(self):
        """Point count of each kind present, in order of first appearance."""
        ids, first, counts = np.unique(self.kind, return_index=True, return_counts=True)
        order = np.argsort(first)
        return {self.kinds[ids[i]]: int(counts[i]) for i in order}

    def filter(self, kind):
        rows = np.isin(self.kind, [i for i, k in enumerate(self.kinds) if k == kind])
        return PointSet(
            self.coords[rows],
            self.dedup_eps,
            kinds=self.kinds,
            kind=self.kind[rows],
            words=self.words,
            source=self.source[rows],
            conjugator=self.conjugator[rows],
            at_infinity=self.at_infinity[rows],
            bnorm=self.bnorm[rows],
        )


def _dedup(coords, at_infinity, eps):
    """Ascending indices of the rows kept by the two-pass merge.

    Coarse pass: the first row in each cell of the epsilon grid.  Fine pass:
    grid representatives within ``eps`` of each other are joined, and each
    connected group keeps its lowest index.
    """
    kept = []
    for group in (np.flatnonzero(~at_infinity), np.flatnonzero(at_infinity)):
        if len(group) == 0:
            continue
        pts = coords[group]
        keys = np.round(pts / eps).astype(np.int64)
        order = np.lexsort(keys.T[::-1])
        sorted_keys = keys[order]
        starts = np.flatnonzero(np.r_[True, np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)])
        reps = np.sort(np.minimum.reduceat(order, starts))
        parent = list(range(len(reps)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        # scipy loads here, on first use: its import outweighs the package's.
        from scipy.spatial import cKDTree

        tree = cKDTree(pts[reps])
        for a, b in sorted(tree.query_pairs(eps)):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        # A union only ever re-parents the larger root, so the kept roots are
        # the lowest index of each group.
        roots = np.array(parent) == np.arange(len(reps))
        kept.append(group[reps[roots]])
    if not kept:
        return np.empty(0, np.intp)
    return np.sort(np.concatenate(kept))


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

    The elements of length in ``core_range`` are classified as one batch,
    and each infinite-order one has its light-like eigendirections computed
    once; every conjugator g of length in ``conj_range`` then contributes
    the image point g(x), without re-solving any eigenproblem.  The images
    of each direction are one product with the stacked conjugator matrices,
    and all of them enter one ``PointSet``.
    """
    sys.require_lorentzian("limit-root sampling")
    core_lo, core_hi = core_range
    conj_lo, conj_hi = conj_range
    if store.max_length < max(core_hi, conj_hi):
        raise ValueError(
            f"store covers length {store.max_length}, need {max(core_hi, conj_hi)}"
        )
    kinds = tuple(kinds)
    conj_mats = store.matrices(conj_lo, conj_hi)
    # Words table: the conjugators first, then each core that contributes.
    words = store.words(conj_lo, conj_hi)
    core_mats = store.matrices(core_lo, core_hi)
    core_words = store.words(core_lo, core_hi)
    parity = [(-1) ** len(w) for w in core_words]
    blocks, dir_kind, dir_source = [], [], []
    for word, M, sc in zip(core_words, core_mats, classify_many(sys, core_mats, det=parity)):
        dirs = [(k, v) for k, v in infinite_order_directions(sys, M, sc) if k in kinds]
        if not dirs:
            continue
        for kind, vec in dirs:
            blocks.append(conj_mats @ vec)
            dir_kind.append(kinds.index(kind))
            dir_source.append(len(words))
        words.append(word)
    if not blocks:
        log.warning(
            "no infinite-order elements with length in %s; emitting an empty set",
            core_range,
        )
    images = np.concatenate(blocks) if blocks else np.empty((0, sys.rank))
    n_conj = len(conj_mats)
    return PointSet(
        images / images.sum(axis=1)[:, None],
        dedup_eps,
        kinds=kinds,
        kind=np.repeat(dir_kind, n_conj),
        words=words,
        source=np.repeat(dir_source, n_conj),
        conjugator=np.tile(np.arange(n_conj), len(blocks)),
        form=sys.form,
    )


def power_dynamics(sys, elem, base, k_max):
    """Trajectory (w^k(base))_{k=1..k_max} in the chart.

    ``elem`` is a group element or a float matrix; the working vector is
    renormalized every step, so arbitrarily long trajectories of
    hyperbolic elements stay in floating-point range.
    """
    M = elem.matrix if hasattr(elem, "matrix") else np.asarray(elem, float)
    v = np.array(base.coords if isinstance(base, ProjectivePoint) else base, dtype=float)
    out = []
    for _ in range(k_max):
        v = M @ v
        v /= np.linalg.norm(v)
        out.append(to_chart(sys, v))
    return out


@dataclass(frozen=True)
class PeriodicWord:
    """An eventually periodic infinite word prefix . period period ..."""

    prefix: tuple
    period: tuple

    def __post_init__(self):
        if len(self.period) == 0:
            raise ValueError("period must be nonempty")


def certify_reduced(sys, pw):
    """Whether prefix . period^inf is reduced, decided exactly.

    The small-root automaton (``elements._read``) reads the prefix, then
    whole periods, until its state at a period boundary repeats: from there
    on it reads the same periods from the same states again.
    """
    act, seen = sys.small_roots, set()
    k, S = _read(act, pw.prefix)
    reduced = k == len(pw.prefix)
    while reduced and S.tobytes() not in seen:
        seen.add(S.tobytes())
        k, S = _read(act, pw.period, S)
        reduced = k == len(pw.period)
    return reduced


@dataclass(frozen=True)
class WordLimitResult:
    point: ProjectivePoint
    kind: Kind
    eigenvalue: float
    orbit_residual: float


def word_limit_root(sys, pw):
    """Unique limit root of an infinite reduced word with periodic tail.

    The limit is the prefix image of the period element's attracting
    eigendirection (the period has infinite order, as all its powers are
    reduced); it is cross-validated against the empirical limit of the
    prefix orbit acting on a simple root outside the unimodular subspace.
    """
    sys.require_lorentzian("infinite-word limits")
    if not certify_reduced(sys, pw):
        raise ValueError(f"{word_to_str(pw.prefix)!r}.{word_to_str(pw.period)!r}^inf is not reduced")
    p = element_of(sys, pw.period)
    sc = classify(sys, p)
    q = element_of(sys, pw.prefix).matrix
    if sc.kind is Kind.HYPERBOLIC:
        lam, direction, _ = sc.dominant
    else:
        lam, direction = float(sc.parabolic_eps), sc.parabolic_vec
    point = to_chart(sys, q @ direction)

    # Empirical check: iterate the period on each simple root, keep the best.
    residual = math.inf
    for v in np.eye(sys.rank):
        for _ in range(ORBIT_STEPS):
            v = p.matrix @ v
            v /= np.linalg.norm(v)
        try:
            orbit_pt = to_chart(sys, q @ v)
        except ValueError:
            continue
        residual = min(residual, chart_distance(point, orbit_pt))
    return WordLimitResult(point=point, kind=sc.kind, eigenvalue=lam, orbit_residual=residual)


def hausdorff(a, b):
    """Symmetric Hausdorff distance between two point sets in the chart."""
    ca = a.affine_coords if isinstance(a, PointSet) else np.asarray(a, float)
    cb = b.affine_coords if isinstance(b, PointSet) else np.asarray(b, float)
    if ca.size == 0 or cb.size == 0:
        raise ValueError("hausdorff distance of an empty set")
    for ps in (a, b):
        if isinstance(ps, PointSet):
            skipped = int(np.count_nonzero(ps.at_infinity))
            if skipped:
                log.warning("hausdorff: excluding %d at-infinity point(s)", skipped)
    from scipy.spatial import cKDTree

    d_ab = cKDTree(cb).query(ca)[0].max()
    d_ba = cKDTree(ca).query(cb)[0].max()
    return float(max(d_ab, d_ba))
