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
from .errors import NumericalError
from .graphs import word_to_str
from .projective import _squared_distances, chart_distances, to_chart
from .spectral import Kind, _row_sum, classify, classify_many, light_like_directions

log = logging.getLogger(__name__)

DEDUP_EPS = 1e-6
# Candidate pairs (dedup) or distances (hausdorff) formed at once.
_CHUNK = 1 << 18
# Steps of the period's power iteration in the cross-check of word_limit_root.
ORBIT_STEPS = 50

KIND_PARABOLIC = "parabolic-eig"
KIND_HYPERBOLIC = "hyperbolic-eig"
KINDS = (KIND_PARABOLIC, KIND_HYPERBOLIC)


def _frozen(a):
    a.setflags(write=False)
    return a


class PointSet:
    """Deduplicated limit roots with per-point provenance, stored as columns.

    Row i is the affine chart point ``coords[i]`` (shape (m, n), coordinates
    summing to 1) with ``bnorm[i]`` = B(x, x).  Its provenance is the kind
    ``kinds[kind[i]]``, the source word ``words[source[i]]`` and the
    conjugator word ``words[conjugator[i]]``; ``kind``, ``source`` and
    ``conjugator`` default to index 0 for every row.  Limit roots lie in the
    convex hull of the simple roots, so every direction has positive height
    and a chart point; a set holds no rows at infinity.

    The constructor merges rows whose chart distance is below ``dedup_eps``,
    keeping the first row in insertion order.  With ``dedup_eps`` = 0 every
    row is kept (a set read back from a file).  ``bnorm`` defaults to
    B(x, x) under ``form``, computed for the kept rows only.
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
        bnorm=None,
        form=None,
    ):
        coords = np.asarray(coords, dtype=float)
        keep = _dedup(coords, dedup_eps) if dedup_eps > 0 else np.arange(len(coords))

        def column(values):
            if values is None:
                return _frozen(np.zeros(len(keep), np.intp))
            return _frozen(np.asarray(values, np.intp)[keep])

        self.dedup_eps = dedup_eps
        self.kinds = tuple(kinds)
        self.words = tuple(words)
        self.coords = _frozen(coords[keep])
        self.kind = column(kind)
        self.source = column(source)
        self.conjugator = column(conjugator)
        if bnorm is None:
            # One stacked matmul; it rounds each row as c @ form @ c does.
            C = self.coords
            bnorm = (C[:, None, :] @ form @ C[:, :, None])[:, 0, 0] if len(C) else ()
            self.bnorm = _frozen(np.array(bnorm, dtype=float))
        else:
            self.bnorm = _frozen(np.asarray(bnorm, dtype=float)[keep])

    def __len__(self):
        return len(self.coords)

    def counts_by_kind(self):
        """Point count of each kind present, in order of first appearance."""
        ids, first, counts = np.unique(self.kind, return_index=True, return_counts=True)
        order = np.argsort(first)
        return {self.kinds[ids[i]]: int(counts[i]) for i in order}


def _dedup(coords, eps):
    """Ascending indices of the rows kept by the two-pass merge.

    Coarse pass: the first row in each cell of the grid with keys
    round(x / eps).  Fine pass: grid representatives whose squared distance
    (``_squared_distances``) is at most eps * eps are joined, and each
    connected group keeps its lowest index.  Two such points differ by at
    most eps, to rounding, in each coordinate, so their keys differ by at
    most 1, or by 2 where both quotients sit on half-integers that round
    apart (numpy rounds halves to even).  The fine pass therefore compares
    only cells whose keys are within 2 in the two columns of widest key
    spread.
    """
    keys = _grid_keys(coords, eps)
    if len(keys) == 0:
        return np.empty(0, np.intp)
    # Columns by decreasing key spread, packed in mixed radix into as few
    # int64 sort keys as fit: one lexsort orders the cells by the widest
    # column, then the next, which is the order the pair search needs.
    lows = [int(k.min()) for k in keys.T]
    spans = [int(k.max()) - low + 1 for k, low in zip(keys.T, lows)]
    cols = sorted(range(len(spans)), key=lambda c: -spans[c])
    sort_keys, radix = [], 0
    for c in reversed(cols):
        k = keys[:, c] - lows[c]
        if sort_keys and radix * spans[c] <= 2**63:
            sort_keys[-1] = k * radix + sort_keys[-1]
            radix *= spans[c]
        else:
            sort_keys.append(k)
            radix = spans[c]
    order = np.lexsort(sort_keys)
    changed = np.any([np.diff(k[order]) != 0 for k in sort_keys], axis=0)
    reps = np.minimum.reduceat(order, np.flatnonzero(np.r_[True, changed]))
    window = keys.take(reps, axis=0)[:, (cols + cols)[:2]]  # one column serves twice
    i, j = _close_pairs(coords.take(reps, axis=0), window, eps)
    # Components over the representatives in index order: each round hooks
    # the larger root of every pair still split onto the smaller, then
    # pointer jumping points every representative at its root.  A parent is
    # never above its child, so each group's root is its lowest index.
    ranked = np.sort(reps)
    a, b = np.searchsorted(ranked, reps[i]), np.searchsorted(ranked, reps[j])
    parent = np.arange(len(reps))
    while len(a):
        ra, rb = parent[a], parent[b]
        split = ra != rb
        a, b = a[split], b[split]
        parent[np.maximum(ra, rb)[split]] = np.minimum(ra, rb)[split]
        while not np.array_equal(parent, up := parent[parent]):
            parent = up
    return ranked[parent == np.arange(len(reps))]


def _grid_keys(coords, eps):
    """The int64 keys round(x / eps).  A row that is non-finite or has
    |x| / eps >= 2**62, whose keys and key differences would not fit int64,
    is a NumericalError."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = coords / eps
    if len(coords) and not np.abs(scaled).max() < 2.0**62:  # NaN fails too
        bad = len(coords) - np.count_nonzero(np.all(np.abs(scaled) < 2.0**62, axis=1))
        raise NumericalError(
            f"{bad} row(s) non-finite or with |coord| / eps >= 2**62 at dedup eps {eps:g}:"
            " their grid keys overflow int64"
        )
    return np.round(scaled, out=scaled).astype(np.int64)


def _close_pairs(pts, window, eps):
    """Index arrays (i, j), i < j, of the rows of ``pts`` at squared distance
    at most eps * eps, given their keys in two columns, ``window`` (r, 2),
    sorted lexicographically.

    Only rows whose keys are within 2 in both columns are compared.  The
    key pairs are ranked densely, so each row's candidates under a first
    key of +0, +1 or +2 form one run of the sorted rows, found by binary
    search; the runs are expanded at most ``_CHUNK`` candidates at a time.
    """
    r = len(pts)
    first, first_rank = np.unique(window[:, 0], return_inverse=True)
    second, second_rank = np.unique(window[:, 1], return_inverse=True)
    cell = first_rank * len(second) + second_rank
    low = np.searchsorted(second, window[:, 1] - 2)
    high = np.searchsorted(second, window[:, 1] + 2, side="right")
    run_start, run_len = [], []
    for step in (0, 1, 2):
        target = window[:, 0] + step
        rank = np.searchsorted(first, target)
        present = first[np.minimum(rank, len(first) - 1)] == target
        lo = np.searchsorted(cell, rank * len(second) + low)
        hi = np.searchsorted(cell, rank * len(second) + high)
        if step == 0:
            lo = np.maximum(lo, np.arange(1, r + 1))  # later rows of the same first key
        run_start.append(lo)
        run_len.append(np.where(present, np.maximum(hi - lo, 0), 0))
    source = np.tile(np.arange(r), 3)
    run_start, run_len = np.concatenate(run_start), np.concatenate(run_len)
    ends = np.cumsum(run_len)
    cuts = np.searchsorted(ends, np.arange(_CHUNK, ends[-1], _CHUNK))
    columns = np.ascontiguousarray(pts.T)
    found_i, found_j = [], []
    for runs in np.split(np.arange(len(source)), cuts):
        n = run_len[runs]
        i = np.repeat(source[runs], n)
        j = np.repeat(run_start[runs] - np.cumsum(n) + n, n) + np.arange(len(i))
        close = _squared_distances(columns.take(i, axis=1), columns.take(j, axis=1)) <= eps * eps
        found_i.append(i[close])
        found_j.append(j[close])
    return np.concatenate(found_i), np.concatenate(found_j)


def sample_limit_roots(sys, store, core_range, conj_range, dedup_eps=DEDUP_EPS):
    """Dense limit-root sample from eigendirections and their conjugates.

    The elements of length in ``core_range`` are classified as one batch,
    and each infinite-order one has its light-like eigendirections computed
    once; every conjugator g of length in ``conj_range`` then contributes
    the image point g(x), without re-solving any eigenproblem.  The images
    of each direction are one (N n, n) @ (n,) gemv over the conjugator rows,
    which rounds each image as g.matrix @ x does
    (``test_columnar_sample_matches_per_record_reference``), into its row of
    one image array, divided in place by the heights; all of them enter one
    ``PointSet`` merged at ``dedup_eps``, which must be finite and positive.
    A row's kind, of ``KINDS``, is its core's ``sc.kind``.
    """
    if not 0 < dedup_eps < math.inf:
        raise ValueError(f"dedup eps must be finite and positive, got {dedup_eps!r}")
    sys.require_lorentzian("limit-root sampling")
    core_lo, core_hi = core_range
    conj_lo, conj_hi = conj_range
    if store.max_length < max(core_hi, conj_hi):
        raise ValueError(
            f"store covers length {store.max_length}, need {max(core_hi, conj_hi)}"
        )
    conj_mats = store.matrices(conj_lo, conj_hi)
    # Words table: the conjugators first, then each core that contributes.
    words = store.words(conj_lo, conj_hi)
    core_mats = store.matrices(core_lo, core_hi)
    core_words = store.words(core_lo, core_hi)
    parity = [(-1) ** len(w) for w in core_words]
    dirs, dir_kind, dir_source = [], [], []
    for word, sc in zip(core_words, classify_many(sys, core_mats, det=parity)):
        found = light_like_directions(sc)
        if not found:
            continue
        dirs += found
        dir_kind += [int(sc.kind is Kind.HYPERBOLIC)] * len(found)  # index into KINDS
        dir_source += [len(words)] * len(found)
        words.append(word)
    if not dirs:
        log.warning(
            "no infinite-order elements with length in %s; emitting an empty set",
            core_range,
        )
    n, n_conj = sys.rank, len(conj_mats)
    images = np.empty((len(dirs), n_conj * n))
    for d, vec in enumerate(dirs):
        np.matmul(conj_mats.reshape(-1, n), vec, out=images[d])
    images = images.reshape(-1, n)
    images /= _row_sum(images)[:, None]
    return PointSet(
        images,
        dedup_eps,
        kinds=KINDS,
        kind=np.repeat(dir_kind, n_conj),
        words=words,
        source=np.repeat(dir_source, n_conj),
        conjugator=np.tile(np.arange(n_conj), len(dirs)),
        form=sys.form,
    )


def power_dynamics(sys, elem, base, k_max):
    """Trajectory (w^k(base))_{k=1..k_max} in the chart, as (k_max, n)
    chart rows, for a ``GroupElement`` w and a base vector.

    The working vector is renormalized every step, so arbitrarily long
    trajectories of hyperbolic elements stay in floating-point range.
    """
    M = elem.matrix
    v = np.array(base, dtype=float)
    iterates = np.empty((k_max, sys.rank))
    for k in range(k_max):
        v = M @ v
        v /= np.linalg.norm(v)
        iterates[k] = v
    return to_chart(iterates)


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
    point: np.ndarray  # chart row
    bnorm: float  # B(point, point)
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
    point = to_chart(q @ direction)

    # Empirical check: iterate the period on each simple root, keep the best.
    ends = []
    for v in np.eye(sys.rank):
        for _ in range(ORBIT_STEPS):
            v = p.matrix @ v
            v /= np.linalg.norm(v)
        ends.append(q @ v)
    residual = float(chart_distances(point, to_chart(np.array(ends))).min())
    return WordLimitResult(point, float(point @ sys.form @ point), sc.kind, lam, residual)


def hausdorff(a, b):
    """Symmetric Hausdorff distance between two (m, n) arrays of chart points."""
    ca, cb = np.asarray(a, float), np.asarray(b, float)
    if ca.size == 0 or cb.size == 0:
        raise ValueError("hausdorff distance of an empty set")
    # One chunk of rows of ca against all of cb at a time: its row minima
    # are distances to cb, and its column minima update those to ca.
    to_b = np.empty(len(ca))
    to_a = np.full(len(cb), np.inf)
    rows = max(1, _CHUNK // len(cb))
    for lo in range(0, len(ca), rows):
        d2 = _squared_distances(ca[lo : lo + rows].T[:, :, None], cb.T[:, None, :])
        to_b[lo : lo + rows] = d2.min(axis=1)
        np.minimum(to_a, d2.min(axis=0), out=to_a)
    return float(np.sqrt(max(to_b.max(), to_a.max())))
