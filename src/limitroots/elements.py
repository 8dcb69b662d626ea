"""Group elements as matrices, reduced words, and ShortLex enumeration."""

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationError
from .graphs import word_to_str

# Unit roundoff of float64.
_U = np.finfo(float).eps / 2


@dataclass(frozen=True)
class GroupElement:
    """A group element: canonical reduced word plus its representation matrix."""

    word: tuple
    matrix: np.ndarray

    @property
    def length(self):
        return len(self.word)

    def __repr__(self):
        return f"GroupElement({word_to_str(self.word)!r})"


def _root_is_negative(v, tol=1e-9):
    """A root vector is negative when all coordinates are <= 0 (up to tolerance)."""
    scale = max(1.0, float(np.max(np.abs(v))))
    return np.max(v) <= tol * scale and np.min(v) < -tol * scale


def matrix_inverse(sys, M):
    """Inverse of a B-isometry via M^-1 = B^-1 M^T B."""
    return np.linalg.solve(sys.form, M.T @ sys.form)


def reduced_word(sys, M, max_length=100000):
    """Lexicographically minimal reduced word of the element with matrix M.

    Repeatedly strips the smallest left descent s (detected by M^-1 sending
    alpha_s to a negative root).  Since all reduced words share the same
    length, lex-minimal equals ShortLex-minimal.
    """
    n = sys.rank
    cur = np.array(M, dtype=float)
    curinv = matrix_inverse(sys, cur)
    word = []
    # Roundoff inherited from the input persists through the descent at the
    # input's absolute scale, so the sign and identity tests must widen with it.
    tol = min(1e-2, 1e-9 * max(1.0, float(np.max(np.abs(cur)))))
    while not np.max(np.abs(cur - np.eye(n))) <= max(1e-6, tol):
        if not np.all(np.isfinite((cur, curinv))):
            raise EnumerationError("reduced word: the descent left the float range")
        for s in range(n):
            if _root_is_negative(curinv[:, s], tol=tol):
                break
        else:
            raise EnumerationError(
                "no descent found; matrix is not in the represented group "
                "or numerics degraded"
            )
        cur = sys.gens[s] @ cur
        curinv = curinv @ sys.gens[s]
        word.append(s)
        if len(word) > max_length:
            raise EnumerationError(f"reduced word exceeds {max_length} letters")
    return tuple(word)


def element_of(sys, word):
    """Element for an arbitrary word (not necessarily reduced).

    The matrix is the ordered product of generator matrices; the stored word
    is replaced by the ShortLex-minimal reduced word.
    """
    M = np.eye(sys.rank)
    for s in word:
        M = M @ sys.gens[s]
    return GroupElement(word=reduced_word(sys, M), matrix=M)


class ElementSequence(Sequence):
    """Read-only sequence of some rows of an ``ElementStore``, in row order.

    Each access builds a fresh ``GroupElement`` from the level arrays, so
    elements are equal in word and matrix bytes but not identical objects.
    ``rows`` is a ``range`` of store rows; slicing narrows it.
    """

    def __init__(self, store, rows):
        self._store = store
        self._rows = rows

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ElementSequence(self._store, self._rows[i])
        return self._store._element(self._rows[i])

    def __iter__(self):
        rows = self._rows
        if rows.step < 0:
            yield from reversed(list(self[::-1]))
            return
        starts = self._store._starts
        for k, (W, M) in enumerate(zip(self._store._words, self._store._mats)):
            part = rows[bisect_left(rows, starts[k]) : bisect_left(rows, starts[k + 1])]
            if part:
                local = slice(part.start - starts[k], part.stop - starts[k], part.step)
                yield from map(GroupElement, map(tuple, W[local].tolist()), M[local])

    def __repr__(self):
        return f"ElementSequence({len(self)} elements)"


class ElementStore:
    """One element per ShortLex normal form up to a maximum length, in ShortLex
    order.  The elements of length k are one level, rows ``_starts[k]`` to
    ``_starts[k + 1]`` of the store, held as two read-only arrays (``level``):
    the words (N, k), in the smallest unsigned dtype that holds rank - 1, and
    the matrices (N, n, n).  ``words`` and ``matrices`` read them for a range
    of lengths; ``elements`` and ``with_length`` are ``ElementSequence``s,
    which build ``GroupElement``s on access.
    """

    def __init__(self, sys):
        self.sys = sys
        self._words = []
        self._mats = []
        self._starts = [0]

    def __len__(self):
        return self._starts[-1]

    def __iter__(self):
        return iter(self.elements)

    @property
    def elements(self):
        return ElementSequence(self, range(len(self)))

    @property
    def max_length(self):
        return len(self._starts) - 2

    def counts(self):
        """Number of elements at each length 0..max_length."""
        return [hi - lo for lo, hi in zip(self._starts, self._starts[1:])]

    def of_length(self, k):
        return self.with_length(k, k)

    def with_length(self, lo, hi):
        ks = self._lengths(lo, hi)
        rows = range(self._starts[ks.start], self._starts[ks.stop]) if ks else range(0)
        return ElementSequence(self, rows)

    def level(self, k):
        """The read-only word and matrix arrays of the elements of length k."""
        return self._words[k], self._mats[k]

    def words(self, lo, hi):
        """Word tuples of the elements of length lo..hi, in store order."""
        return [w for k in self._lengths(lo, hi) for w in map(tuple, self._words[k].tolist())]

    def matrices(self, lo, hi):
        """(N, n, n) stack of the matrices of length lo..hi, in store order."""
        # The empty head keeps the shape when no length is in range.
        return np.concatenate([self._mats[0][:0]] + [self._mats[k] for k in self._lengths(lo, hi)])

    def _lengths(self, lo, hi):
        return range(max(lo, 0), min(hi, self.max_length) + 1)

    def _element(self, i):
        k = bisect_right(self._starts, i) - 1
        j = i - self._starts[k]
        return GroupElement(tuple(self._words[k][j].tolist()), self._mats[k][j])

    def _add_level(self, W, M):
        """Append the next length as its word and matrix arrays, made read-only."""
        W.setflags(write=False)
        M.setflags(write=False)
        self._words.append(W)
        self._mats.append(M)
        self._starts.append(self._starts[-1] + len(W))


def enumerate_elements(sys, max_length):
    """All group elements of length <= max_length in ShortLex order, each
    formed once, from its ShortLex (lex-minimal reduced) word.

    That word is t then the word of v = t u, t the smallest left descent of
    u.  So level L is built from level L - 1, t-major and v-minor, keeping
    t v exactly when t is its smallest left descent.  Each element carries
    r_u = 1^T u^-1 (ones for the identity), and r_{tv} = r_v S_t.  Entry s is
    the coefficient sum of the root u^-1(alpha_s): >= 1, or <= -1 exactly
    when s is a left descent of u.  So t v is kept when (r_v)_t > 0 and
    (r_v S_t)_s > 0 for all s < t.  Only the generator matrices are used, so
    degenerate forms work too.

    Error bound.  (r S_t)_j = r_j + r_t d_j for d = S_t[t] - e_t, and r_t ->
    -r_t exactly.  A row within E of the exact one updates to within
    E_j + |d_j| E_t + 16 u (|r_j| + |r_t d_j|) for j != t, u the unit
    roundoff: 2 ulps for the product and the sum, 3 for the float
    d_j = 2 cos(pi/m), and a few for second-order terms and for rounding E,
    as every entry has E < |r|: each row formed must have |r| > E throughout,
    so its signs are the exact ones, else EnumerationError.

    Matrices.  M_u = M_p @ S_s, p and s the prefix and last letter of u's
    word, as a breadth-first search forms it.  The prefix of t v is t times
    the prefix of v: ``child[t, i]`` indexes t times element i one level
    down.  Each level's matrices are one read-only (N, n, n) array.
    """
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    n = sys.rank
    gens = np.stack(sys.gens)
    steps = gens[np.arange(n), np.arange(n)] - np.eye(n)
    spread = np.abs(steps) * (1 - np.eye(n))
    store = ElementStore(sys)
    letter = np.min_scalar_type(n - 1)
    W, M = np.empty((1, 0), letter), np.eye(n)[None]
    R, E = np.ones((1, n)), np.zeros((1, n))
    store._add_level(W, M)
    for length in range(1, max_length + 1):
        kept = []
        for t in range(n):
            V = np.flatnonzero(R[:, t] > 0)
            rt = R[V, t, None]
            Rt = R[V] + rt * steps[t]
            Et = E[V] + E[V, t, None] * spread[t]
            Et += 16 * _U * (np.abs(R[V]) + np.abs(rt) * spread[t])
            if not np.all(np.abs(Rt) > Et):
                raise EnumerationError(f"descent sign undecidable at length {length}")
            keep = np.all(Rt[:, :t] > 0, axis=1)
            kept.append((np.full(np.count_nonzero(keep), t, letter), V[keep], Rt[keep], Et[keep]))
        T, V, R, E = map(np.concatenate, zip(*kept))
        prefix, last = (child[T, prefix[V]], last[V]) if length > 1 else (np.zeros_like(V), T)
        child = np.full((n, len(W)), -1, np.intp)
        child[T, V] = np.arange(len(V))
        W = np.concatenate((T[:, None], W[V]), axis=1)
        M_prev, M = M, np.empty((len(V), n, n))
        for s in range(n):
            M[last == s] = M_prev[prefix[last == s]] @ gens[s]
        store._add_level(W, M)
        if not len(W):
            break
    return store
