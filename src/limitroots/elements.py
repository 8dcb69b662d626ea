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


def matrix_inverse(sys, M):
    """Inverse of a B-isometry via M^-1 = B^-1 M^T B."""
    return np.linalg.solve(sys.form, M.T @ sys.form)


def reflect_rows(gens, t, X, E):
    """Rows x S_t of a stack X of rows x, and bounds E >= |x - x_exact|.

    (x S_t)_j = x_j + x_t d_j, d = S_t[t] - e_t: the row 1^T u^-1 under
    u -> s_t u, 1^T w under w -> w s_t, a root's pairings B beta under
    beta -> s_t beta.  The float d_j is within 3 ulps of max(|d_j|, 1) (m = 2
    gives 1.2e-16, not 0), so E_j gains |d_j| E_t + 16 u (|x_j| + |x_t|
    (|d_j| + 1)): 2 ulps for the product and the sum, 3 for d_j, a few for
    second-order terms and for rounding E.  Where |x| > E its sign is exact.
    """
    d = gens[t][t].copy()
    d[t] -= 1
    spread = np.abs(d)
    spread[t] = 0
    xt = X[:, t, None]
    charge = np.abs(X) + np.abs(xt) * (spread + 1)
    return X + xt * d, E + E[:, t, None] * spread + 16 * _U * charge


def reduced_word(sys, M):
    """ShortLex (lex-minimal reduced) word of the element with matrix M.

    Entry s of r = 1^T M^-1 is the coefficient sum of the root M^-1(alpha_s),
    at most -1 exactly when s is a left descent; peeling the smallest one
    takes r to r S_s (``reflect_rows``).  r is taken to be within 2^14 u of
    exact, relatively (products of ``enumerate_elements``: 2.1e3 u at most on
    fig1a to 13, fig1b to 11, fig8 to 8).  Peeling shrinks r but not E, so it
    may meet a sign it cannot decide: EnumerationError.
    """
    R = np.ones((1, sys.rank)) @ matrix_inverse(sys, M)
    E, word = 2**14 * _U * np.abs(R), []
    while np.all(np.abs(R) > E):
        descents = np.flatnonzero(R[0] < 0)
        if not descents.size:
            return tuple(word)
        word.append(int(descents[0]))
        R, E = reflect_rows(sys.gens, word[-1], R, E)
    raise EnumerationError(f"reduced word: descent sign undecidable after {len(word)} letters")


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

    The rows move by ``reflect_rows`` with a bound E from 0 at the identity:
    each row formed must have |r| > E throughout, so its signs are the exact
    ones, else EnumerationError.

    Matrices.  M_u = M_p @ S_s, p and s the prefix and last letter of u's
    word, as a breadth-first search forms it.  The prefix of t v is t times
    the prefix of v: ``child[t, i]`` indexes t times element i one level
    down.  Each level's matrices are one read-only (N, n, n) array.
    """
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    n = sys.rank
    gens = np.stack(sys.gens)
    store = ElementStore(sys)
    letter = np.min_scalar_type(n - 1)
    W, M = np.empty((1, 0), letter), np.eye(n)[None]
    R, E = np.ones((1, n)), np.zeros((1, n))
    store._add_level(W, M)
    for length in range(1, max_length + 1):
        kept = []
        for t in range(n):
            V = np.flatnonzero(R[:, t] > 0)
            Rt, Et = reflect_rows(gens, t, R[V], E[V])
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
