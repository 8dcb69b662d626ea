"""Geometric representation: bilinear form, signature, simple reflection matrices."""

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EnumerationError, GraphError, NotLorentzianError
from .graphs import INF, CoxeterGraph

# Unit roundoff of float64.
_U = np.finfo(float).eps / 2
# Relative zero band for eigenvalues when counting the signature.
SIGNATURE_ZERO_TOL = 1e-9
# Smallest eigenvalue of B_C above which a connected subgraph C is finite;
# affine subgraphs give |mu| ~ 1e-16, I2(m) gives about 5 / m^2.
FINITE_ZERO_TOL = 1e-12


def build_form(graph: CoxeterGraph) -> np.ndarray:
    """Symmetric matrix of the bilinear form: 1 on the diagonal,
    -cos(pi/m) for finite labels, -c for infinite labels, and an exact 0
    for m = 2, so that commuting generators commute exactly (the float
    -cos(pi/2) is -6.1e-17)."""
    n = graph.rank
    B = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            m = graph.label(i, j)
            if m is INF:
                v = -graph.cparam(i, j)
            elif m == 2:
                v = 0.0
            else:
                v = -math.cos(math.pi / m)
            B[i, j] = B[j, i] = v
    return B


def signature(B):
    """Counts (n_plus, n_minus, n_zero) of eigenvalues of a symmetric matrix.

    The zero band is ``SIGNATURE_ZERO_TOL`` relative to the largest eigenvalue magnitude.
    Raises if the answer changes when the band is shrunk tenfold (borderline).
    This limits finite labels: the smallest form eigenvalue of I2(m) is
    1 - cos(pi / m) ~ pi^2 / (2 m^2), so m = 10^4 (4.9e-8) is decided but
    m = 10^5 (4.9e-10) falls inside the default band and raises.
    """
    B = np.asarray(B, dtype=float)
    if not np.allclose(B, B.T, atol=1e-12):
        raise ValueError("signature requires a symmetric matrix")
    evals = np.linalg.eigvalsh(B)
    scale = max(np.max(np.abs(evals)), 1e-300)

    def count(tol):
        tau = tol * scale
        return (
            int(np.sum(evals > tau)),
            int(np.sum(evals < -tau)),
            int(np.sum(np.abs(evals) <= tau)),
        )

    sig = count(SIGNATURE_ZERO_TOL)
    if sig != count(SIGNATURE_ZERO_TOL / 10):
        raise ValueError(f"borderline signature: eigenvalues {evals} near zero band")
    return sig


def generator_matrix(B, s):
    """Matrix of the reflection in the simple root alpha_s: column t is
    alpha_t - 2 B(alpha_t, alpha_s) alpha_s."""
    n = B.shape[0]
    M = np.eye(n)
    M[s, :] -= 2.0 * B[s, :]
    return M


def parabolic_exponents(graph, B, T):
    """Exponents m_j of the standard parabolic subgroup W_T (over all its
    components), or None if W_T is infinite.

    W_T is the product of the subgroups of the connected components of T
    (generators joined by a label other than 2).  A component C is finite
    exactly when B_C is positive definite (an infinite edge, c >= 1, rules
    that out); its eigenvalues are then
    1 - cos(pi m_j / h) for the exponents m_j and the Coxeter number h,
    the smallest one belonging to m_1 = 1.  |W_T| = prod(m_j + 1), and the
    lengths of its elements are counted by prod [m_j + 1]_t.
    """
    exponents = []
    left = set(T)
    while left:
        comp = [left.pop()]
        for i in comp:
            joined = [j for j in left if graph.label(i, j) != 2]
            left.difference_update(joined)
            comp.extend(joined)
        mu = np.linalg.eigvalsh(B[np.ix_(comp, comp)])
        if mu[0] <= FINITE_ZERO_TOL:
            return None
        # 1 - cos(theta) = 2 sin^2(theta / 2) keeps small angles accurate.
        theta = 2.0 * np.arcsin(np.sqrt(mu / 2.0))
        h = math.pi / theta[0]
        exps = h * theta / math.pi
        if abs(h - round(h)) > 1e-6 * h or np.max(np.abs(exps - np.round(exps))) > 1e-6 * h:
            raise GraphError(f"cannot resolve the exponents of component {comp}: {mu}")
        exponents.extend(int(round(m)) for m in exps)
    return exponents


def parabolic_order(graph, B, T):
    """Order of the standard parabolic subgroup W_T, or None if it is infinite."""
    exponents = parabolic_exponents(graph, B, T)
    return None if exponents is None else math.prod(m + 1 for m in exponents)


def system_type(B):
    """'finite', 'affine', 'lorentzian' or 'other' from the signature of B."""
    n = B.shape[0]
    n_plus, n_minus, n_zero = signature(B)
    if (n_plus, n_minus, n_zero) == (n, 0, 0):
        return "finite"
    if n_minus == 0:
        return "affine"
    if (n_plus, n_minus, n_zero) == (n - 1, 1, 0):
        return "lorentzian"
    return "other"


@dataclass(frozen=True)
class GeometricSystem:
    """A Coxeter graph together with its bilinear form and reflection matrices.

    Immutable; matrices are stored with writeable=False so instances can be
    shared freely across threads.
    """

    graph: CoxeterGraph
    form: np.ndarray
    signature: tuple
    gens: tuple

    @classmethod
    def from_graph(cls, graph: CoxeterGraph):
        B = build_form(graph)
        sig = signature(B)
        gens = tuple(generator_matrix(B, s) for s in range(graph.rank))
        B.setflags(write=False)
        for g in gens:
            g.setflags(write=False)
        return cls(graph=graph, form=B, signature=sig, gens=gens)

    @property
    def rank(self):
        return self.graph.rank

    @property
    def is_lorentzian(self):
        n = self.rank
        return self.signature == (n - 1, 1, 0)

    @cached_property
    def finite_order_bound(self):
        """Largest order of a finite standard parabolic subgroup.

        Every element of finite order of W is conjugate into a finite
        standard parabolic subgroup, so its order is at most this bound.
        Finite subsets are closed under taking subsets, so they are grown
        one generator at a time.
        """
        best = 1
        frontier = [()]
        while frontier:
            grown = []
            for T in frontier:
                for s in range(T[-1] + 1 if T else 0, self.rank):
                    order = parabolic_order(self.graph, self.form, T + (s,))
                    if order is not None:
                        best = max(best, order)
                        grown.append(T + (s,))
            frontier = grown
        return best

    @cached_property
    def pairing_gap(self):
        """g = sin(pi / 2M), M the largest finite label (1 if there is none).
        A pairing of two roots is cos(k pi / m), m dividing a finite label, or
        at least 1 in size (Bjorner & Brenti, Combinatorics of Coxeter Groups,
        Prop. 4.5.4): so a nonzero one is at least g in size, and one in
        (-1, 0) is at least 1 - cos(pi / M) = 2 g^2 above -1."""
        n = self.rank
        labels = [self.graph.label(i, j) for i in range(n) for j in range(i + 1, n)]
        return math.sin(math.pi / (2 * max((m for m in labels if m is not INF), default=1)))

    @cached_property
    def small_roots(self):
        """``act[t, i]``, read-only, is the index of s_t beta_i in the small
        roots E, or t where that root is negative or not small (a state that
        s_t may act on lacks alpha_t).  E is the closure of the simple roots
        (rows 0..n-1) under beta -> s_t beta where -1 < B(alpha_t, beta) < 0,
        finite (Brink & Howlett, Math. Ann. 296, 1993) and closed under the
        steps that lower the depth.  A root is its pairing row p = B beta,
        off by eps^T G for some |eps| <= 1, G from 4 u I: this affine bound
        moves with p, so along a dihedral string it grows linearly, not
        doubling at each step.  The float decisions
        (g = ``pairing_gap``, E_t = sum |G_t|): p_t is 0 where
        |p_t| <= E_t < g/2, else has the sign it shows past E_t; a negative
        p_t is small above -1 + g^2, where it lies past E_t of it (E_t < g^2/2
        always decides it); s_t beta is the one row of E within both bounds
        of it, or a new root for an ascent.  Anything undecided is
        EnumerationError.
        """
        n, gap = self.rank, self.pairing_gap
        # X[i] is [p; G] of root i, transposed: n rows, each contiguous.
        X = [np.vstack((p, 4 * _U * np.eye(n))).T.copy() for p in self.form]
        # s_t moves a row x as x_j <- x_j + x_t D_tj, D_t = S_t[t] - e_t.  The
        # float D_tj is within 3 ulps of max(|D_tj|, 1) (m = 2 gives exactly
        # 0), so the step adds at most 16 u |x_j| + C_tj |x_t| to the error of
        # x_j, C_tj = 16 u (|D_tj| + 1) off t and 16 u at t: 2 ulps for the
        # product and the sum, 3 for D_tj, a few for the rest.
        D = np.array([S[t] for t, S in enumerate(self.gens)]) - np.eye(n)
        C = 16 * _U * (np.abs(D) * (1 - np.eye(n)) + 1)
        # P and E hold the rows of the roots found so far, len(X) of them, in
        # arrays that double when full: appending one root is O(1) amortised.
        P, E, act = np.vstack((self.form, self.form)), np.full((2 * n, n), 4 * _U), []
        # (P[r, 0], r) of each root r, sorted, and e0 = max E[r, 0]: a root within
        # both bounds of an image q has |P[r, 0] - q[0]| <= e0 + f[0] (widened
        # by 2**-40 of the ends against rounding), so only those are tested.
        index, e0 = sorted((float(p), r) for r, p in enumerate(self.form[:, 0])), 4 * _U
        while len(act) < len(X):
            i = len(act)
            act.append(list(range(n)))
            # The rounding a step adds, summed over [p; G], is 16 u (|p| + E)
            # + C_t (|p_t| + E_t), E = sum |G|: no pass over G.
            prow, erow, fresh0 = P[i].tolist(), E[i].tolist(), 16 * _U * (np.abs(P[i]) + E[i])
            for t in range(n):
                p, e = prow[t], erow[t]
                if abs(p) <= e and 2 * e < gap:
                    act[i][t] = i
                elif not abs(p) > e or (p < 0 and not abs(p + 1 - gap**2) > e):
                    raise EnumerationError(f"small root {i}: pairing {p} with s_{t} undecidable")
                elif i != t and p > gap**2 - 1:
                    Y, fresh = X[i] + D[t, :, None] * X[i][t], fresh0 + C[t] * (abs(p) + e)
                    q, f = Y[:, 0], np.abs(Y[:, 1:]).sum(1) + fresh
                    size, q0 = len(X), float(q[0])
                    reach = e0 + f[0] + (abs(q0) + e0 + f[0]) * 2**-40
                    lo = bisect.bisect_left(index, (q0 - reach,))
                    hi = bisect.bisect_right(index, (q0 + reach, size))
                    near = np.array([r for _, r in index[lo:hi]], np.intp)
                    j = near[np.all(np.abs(P[near] - q) <= E[near] + f, axis=1)]
                    if len(j) > 1 or (p > 0 and len(j) == 0):
                        raise EnumerationError(f"small root {i}: s_{t} of it matches {len(j)} roots")
                    if len(j) == 0:
                        if size == len(P):
                            P, E = np.vstack((P, P)), np.vstack((E, E))
                        P[size], E[size], j = q, f, [size]
                        bisect.insort(index, (q0, size))
                        e0 = max(e0, f[0])
                        X.append(np.hstack((Y, np.diag(fresh))))
                    act[i][t] = j[0]
            # A root's bound rows (1 + n depth of them) are read only here.
            X[i] = None
        act = np.array(act, np.intp).T
        act.setflags(write=False)
        return act

    @cached_property
    def form_inverse(self):
        """B^-1, read-only; a B-isometry M has M^-1 = B^-1 M^T B.  Its
        columns are also the fundamental weights (``fundamental_weights``)."""
        inv = np.linalg.inv(self.form)
        inv.setflags(write=False)
        return inv

    @cached_property
    def form_condition(self):
        """kappa(B), the 2-norm condition number of the form."""
        return float(np.linalg.cond(self.form))

    def require_lorentzian(self, what="this operation"):
        if not self.is_lorentzian:
            raise NotLorentzianError(
                f"{what} requires a Lorentzian system; signature is {self.signature}"
            )

    def reflection_in(self, root):
        """Matrix of the reflection in an arbitrary non-isotropic vector."""
        root = np.asarray(root, dtype=float)
        norm = float(root @ self.form @ root)
        if abs(norm) < 1e-12:
            raise ValueError("cannot reflect in an isotropic vector")
        return np.eye(self.rank) - (2.0 / norm) * np.outer(root, self.form @ root)


def make_system(graph_or_name):
    """Convenience constructor from a CoxeterGraph, builtin name, or file path."""
    from .graphs import load_graph

    if isinstance(graph_or_name, CoxeterGraph):
        return GeometricSystem.from_graph(graph_or_name)
    if isinstance(graph_or_name, str):
        return GeometricSystem.from_graph(load_graph(graph_or_name))
    raise GraphError(f"cannot build a system from {graph_or_name!r}")
