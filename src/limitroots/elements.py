"""Group elements as matrices, reduced words, and ShortLex enumeration."""

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .graphs import word_to_str


class GroupElement(NamedTuple):
    """A group element: canonical reduced word plus its representation matrix,
    as an immutable named tuple (word, matrix, origin).

    Two elements are equal when their words and matrix bytes are; the hash
    is the word's.  ``origin`` is (store, row) for an element read from an
    ``ElementStore`` (``spectral.classify`` reads its class from the
    store's levels), else None; it takes no part in equality.
    """

    word: tuple
    matrix: np.ndarray
    origin: tuple = None

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.word == other.word and self.matrix.tobytes() == other.matrix.tobytes()

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self.word)

    @property
    def length(self):
        return len(self.word)

    def __repr__(self):
        return f"GroupElement({word_to_str(self.word)!r})"


def _step(act, S, t):
    """State S(t v) = ({alpha_t} | s_t S(v)) & E from S = S(v), booleans over
    E (the last axis) of the small roots v^-1 makes negative, for one state
    or a stack; t v is reduced iff alpha_t is not in S(v) (Bjorner & Brenti,
    Combinatorics of Coxeter Groups, 4.8).  ``act`` (``small_roots``) is an
    involution on E where defined, so entry j of S(t v) is entry act[t, j]
    of S: entry t, False, where s_t beta_j is not in E.  ``_table_rows``
    takes this step for every letter at once, from each state
    ``enumerate_elements`` meets."""
    S = S.T[act[t]].T
    S[..., t] = True
    return S


def _table_rows(act, states, ids):
    """Transition table rows (k, n) of a stack of states (k, |E|): entry
    [i, t] is the id of S(t v) for v in state ``states[i]``, or -1 where
    t v is not reduced or S(t v) holds a simple root alpha_s with s < t
    (t is not the smallest left descent of t v).  ``ids`` maps the row bytes
    of every state met so far to its id; a state first met here gets the
    next id.  Also returns the stack of those new states, in id order."""
    t = np.arange(act.shape[0])
    St = states.take(act, axis=1)
    St[:, t, t] = True
    # alpha_t is in S(t v), so t is its smallest left descent iff alpha_t is
    # the first simple root there.
    keep = ~states[:, t] & (St[..., t].argmax(axis=2) == t)
    rows = np.full(keep.shape, -1, np.intp)
    new, found = [], []
    for S in St[keep]:
        key = S.tobytes()
        if key not in ids:
            ids[key] = len(ids)
            new.append(S)
        found.append(ids[key])
    rows[keep] = found
    return rows, np.array(new, bool).reshape(-1, states.shape[1])


def _read(act, letters, S=None):
    """Read ``letters`` in order, each put in front of the word read so far,
    from state S (the empty word's by default): how many are read before the
    first refused letter (all if none), and the state after them."""
    S = np.zeros(act.shape[1], bool) if S is None else S
    for k, t in enumerate(letters):
        if S[t]:
            return k, S
        S = _step(act, S, t)
    return len(letters), S


def _read_rows(act, words):
    """Read each row of an (N, L) word array from its last column to its first,
    one ``_step`` per column with a letter per row: whether each row is reduced,
    and the (N, |E|) states (meaningless for a refused row, which reads on)."""
    rows = np.arange(len(words))
    reduced = np.ones(len(words), bool)
    S = np.zeros((len(words), act.shape[1]), bool)
    for t in words.T[::-1]:
        reduced &= ~S[rows, t]
        S = np.take_along_axis(S, act[t], axis=1)
        S[rows, t] = True
    return reduced, S


def _reflect(gens, t, M):
    """S_t M, in place, for each matrix of a stack M (k, n, n): only row t
    changes, to S_t[t] M summed over the rows of M from the first, which is
    elementwise, so a matrix gets the same bits in a stack of any size."""
    g = gens[t][t]
    row = M[:, 0] * g[0]
    for j in range(1, len(g)):
        row += M[:, j] * g[j]
    M[:, t] = row


def element_of(sys, word):
    """Element for an arbitrary word (not necessarily reduced): the ShortLex
    (lex-minimal reduced) word, by the exchange condition in O(k^2)
    automaton steps, and its matrix by ``_reflect`` from I, the word read
    right to left, as a store row is formed (so it has the row's bytes, and
    a word that cancels gives I exactly).  A reduced word w of the letters
    so far is kept with the state of its reverse; if w s is not reduced, it
    is w without the w_j at which reading s, w_{k-1}, ..., w_j first fails.
    Then each smallest left descent t of w (from the state of w) goes to
    the front, deleting the w_i at which reading t, w_0, ..., w_i first
    fails.
    """
    act = sys.small_roots
    w, R = [], np.zeros(act.shape[1], bool)
    for s in word:
        if not 0 <= s < sys.rank:  # R[s] would read a non-simple small root
            raise IndexError(f"generator index {s} out of range for rank {sys.rank}")
        if R[s]:
            del w[len(w) - _read(act, [s] + w[::-1])[0]]
            R = _read(act, w)[1]
        else:
            w.append(s)
            R = _step(act, R, s)
    shortlex = []
    while w:
        t = int(np.argmax(_read(act, w[::-1])[1][: sys.rank]))
        del w[_read(act, [t] + w)[0] - 1]
        shortlex.append(t)
    M = np.eye(sys.rank)[None]
    for t in reversed(shortlex):
        _reflect(sys.gens, t, M)
    return GroupElement(word=tuple(shortlex), matrix=M[0])


def _word_tuples(W):
    """The rows of a word array (N, k) as tuples of Python ints, built from
    its k columns with no list per row; () for each row of level 0."""
    return zip(*W.T.tolist()) if W.shape[1] else repeat((), len(W))


class ElementSequence(Sequence):
    """Read-only sequence of some rows of an ``ElementStore``, in row order.

    Each access builds a fresh ``GroupElement`` from the level arrays, with
    its store and row as ``origin``: two accesses give equal elements, not
    identical objects.  Iteration builds the elements of each level slice
    with one ``map(tuple.__new__, ...)``, with no Python frame per element.
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
                words = _word_tuples(W[local])
                origins = zip(repeat(self._store), part)
                yield from map(tuple.__new__, repeat(GroupElement), zip(words, M[local], origins))

    def __repr__(self):
        return f"ElementSequence({len(self)} elements)"


class ElementStore:
    """One element per ShortLex normal form up to a maximum length, in ShortLex
    order.  The elements of length k are one level, rows ``_starts[k]`` to
    ``_starts[k + 1]`` of the store, held as two read-only arrays (``level``):
    the words (N, k), in the smallest unsigned dtype that holds rank - 1, and
    the matrices (N, n, n).  ``words`` and ``matrices`` read them for a range
    of lengths; ``elements`` and ``with_length`` are ``ElementSequence``s,
    which build ``GroupElement``s on access.  ``class_levels`` holds the
    spectral classes of the levels ``spectral.classify`` has read a row of,
    by length, for the store's lifetime.  ``automaton_size`` is the number
    of distinct small-root states the build met.
    """

    def __init__(self, sys):
        self.sys = sys
        self._words = []
        self._mats = []
        self._starts = [0]
        self._automaton_size = 0
        self.class_levels = {}

    def __len__(self):
        return self._starts[-1]

    def __iter__(self):
        return iter(self.elements)

    @property
    def elements(self):
        return ElementSequence(self, range(len(self)))

    @property
    def automaton_size(self):
        return self._automaton_size

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
        return [w for k in self._lengths(lo, hi) for w in _word_tuples(self._words[k])]

    def matrices(self, lo, hi):
        """(N, n, n) stack of the matrices of length lo..hi, in store order."""
        # The empty head keeps the shape when no length is in range.
        return np.concatenate([self._mats[0][:0]] + [self._mats[k] for k in self._lengths(lo, hi)])

    def _lengths(self, lo, hi):
        return range(max(lo, 0), min(hi, self.max_length) + 1)

    def _element(self, i):
        k = bisect_right(self._starts, i) - 1
        j = i - self._starts[k]
        return GroupElement(tuple(self._words[k][j].tolist()), self._mats[k][j], (self, i))

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
    the id of its small-root state S (``_step``), 0 for the identity's empty
    state: t v is kept when alpha_t is not in S_v (t v is reduced) and
    S_{tv} holds no simple root alpha_s with s < t (no smaller left
    descent).  The automaton is finite, so these decisions are one
    transition table ``table[s, t]`` (``_table_rows``), filled level by
    level for the states first met one level down: a level's ids are n
    integer gathers of the ids one level down, and its words and matrices
    one ``take`` each of the level below.  The only float decisions are
    those of ``GeometricSystem.small_roots``.

    Matrices.  M_{t v} = S_t M_v: a level's matrices are one read-only
    (N, n, n) array, gathered as the M_v one level down, in which
    ``_reflect`` updates row t of each block of first letter t (the blocks
    are contiguous), with the bits ``element_of`` gives the word.
    """
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    n = sys.rank
    store = ElementStore(sys)
    letter = np.min_scalar_type(n - 1)
    W, M = np.empty((1, 0), letter), np.eye(n)[None]
    act = sys.small_roots
    new = np.zeros((1, act.shape[1]), bool)
    ids = {new[0].tobytes(): 0}
    table, I = np.empty((0, n), np.intp), np.zeros(1, np.intp)
    store._add_level(W, M)
    for length in range(1, max_length + 1):
        rows, new = _table_rows(act, new, ids)
        table = np.concatenate((table, rows))
        # Entry t N + v of the raveled (n, N) ids is the state of t v, for
        # the element v of index v one level down (-1: not kept), so the
        # kept entries come t-major, v-minor.
        N = len(W)
        nxt = table.T.take(I, axis=1)
        V = np.flatnonzero(nxt >= 0)
        I = nxt.ravel().take(V)
        del nxt
        ends = V.searchsorted(range(0, (n + 1) * N, N))
        blocks = [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]
        W, U = np.empty((len(V), length), letter), W
        for t, block in enumerate(blocks):
            V[block] -= t * N
            W[block, 0] = t
        W[:, 1:] = U.take(V, axis=0)
        M = M.take(V, axis=0)
        del U, V
        for t, block in enumerate(blocks):
            _reflect(sys.gens, t, M[block])
        store._add_level(W, M)
        if not len(W):
            break
    store._automaton_size = len(ids)
    return store
