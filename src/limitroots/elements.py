"""Group elements as matrices, reduced words, and breadth-first enumeration."""

from dataclasses import dataclass

import numpy as np

from .errors import EnumerationError
from .graphs import word_to_str

# Dedup fingerprint grid and the entrywise tolerance used to confirm that two
# matrices with equal fingerprints really are the same element.
FINGERPRINT_GRID = 1e-7
MATCH_TOL = 1e-9
MAX_ENTRY = 1e12
# Frontier elements expanded by one stacked product; bounds the temporaries
# (candidates and their keys) whatever the size of a BFS level.
BLOCK = 256


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
    while np.max(np.abs(cur - np.eye(n))) > max(1e-6, tol):
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


def _fingerprint(M, grid):
    """Quantized bytes of a matrix, or the concatenated keys of a C-order stack."""
    return np.round(M / grid).astype(np.int64).tobytes()


class ElementStore:
    """One canonical representative per group element up to a maximum length.

    Elements are stored in BFS (ShortLex) order; the fingerprint index maps a
    quantized matrix to its element id.
    """

    def __init__(self, sys, grid=FINGERPRINT_GRID):
        self.sys = sys
        self.grid = grid
        self.elements = []
        self._index = {}
        self._by_length = {}

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def max_length(self):
        return max(self._by_length) if self._by_length else -1

    def counts(self):
        """Number of elements at each length 0..max_length."""
        return [len(self._by_length.get(k, ())) for k in range(self.max_length + 1)]

    def of_length(self, k):
        return [self.elements[i] for i in self._by_length.get(k, ())]

    def with_length(self, lo, hi):
        out = []
        for k in range(lo, hi + 1):
            out.extend(self.of_length(k))
        return out

    def lookup(self, M):
        """Element id for a matrix, or None if not stored."""
        idx = self._index.get(_fingerprint(M, self.grid))
        if idx is None:
            return None
        if np.max(np.abs(self.elements[idx].matrix - M)) > 10 * MATCH_TOL:
            return None
        return idx

    def _add(self, C, length, word_of):
        """Store the elements of the stack C (k, n, n) not stored yet.

        All candidates have the given length.  They are taken in stack order,
        so the first copy of an element wins, also within C; ``word_of(j)``
        gives the word of candidate j and is called for new elements only.
        Returns the new elements in order.
        """
        if np.max(np.abs(C)) > MAX_ENTRY:
            raise EnumerationError(
                f"matrix entries exceed {MAX_ENTRY:g} at length {length}; "
                "quantized dedup is no longer meaningful at this depth"
            )
        keys = _fingerprint(C, self.grid)
        size = len(keys) // len(C)
        index = self._index
        base = len(self.elements)
        new, dup, prior = [], [], []
        for j in range(len(C)):
            key = keys[j * size : (j + 1) * size]
            idx = index.get(key)
            if idx is None:
                index[key] = base + len(new)
                new.append(j)
            else:
                dup.append(j)
                prior.append(idx)
        if dup:
            stored = np.stack([
                self.elements[i].matrix if i < base else C[new[i - base]] for i in prior
            ])
            diff = np.max(np.abs(stored - C[dup]), axis=(1, 2))
            bad = np.flatnonzero(diff > MATCH_TOL)
            if bad.size:
                raise EnumerationError(
                    f"fingerprint collision at grid {self.grid:g}: matrices differ by "
                    f"{diff[bad[0]]:g}; retry with a smaller dedup epsilon"
                )
        added = []
        for j, M in zip(new, C[new]):
            M = M.copy()
            M.setflags(write=False)
            added.append(GroupElement(word_of(j), M))
        self.elements.extend(added)
        self._by_length.setdefault(length, []).extend(range(base, base + len(added)))
        return added

    def restrict(self, max_length):
        """New store containing only elements of length <= max_length."""
        out = ElementStore(self.sys, self.grid)
        for k in range(min(max_length, self.max_length) + 1):
            level = self.of_length(k)
            out._add(np.stack([e.matrix for e in level]), k, lambda j: level[j].word)
        return out


def enumerate_elements(sys, max_length, grid=FINGERPRINT_GRID):
    """All group elements of length <= max_length by Cayley-graph BFS.

    Deterministic: the frontier is expanded in ShortLex order and generators
    are tried in index order, so each element's stored word is its
    ShortLex-minimal reduced word.  The frontier is expanded BLOCK elements
    at a time: one stacked product forms their candidates, element-major and
    generator-minor, which is the same order.
    """
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    n = sys.rank
    gens = np.stack(sys.gens)
    store = ElementStore(sys, grid)
    frontier = store._add(np.eye(n)[None], 0, lambda j: ())
    for length in range(1, max_length + 1):
        next_frontier = []
        for lo in range(0, len(frontier), BLOCK):
            block = frontier[lo : lo + BLOCK]
            F = np.stack([e.matrix for e in block])
            C = np.matmul(F[:, None], gens[None]).reshape(-1, n, n)
            next_frontier += store._add(C, length, lambda j: block[j // n].word + (j % n,))
        frontier = next_frontier
        if not frontier:
            break
    return store
