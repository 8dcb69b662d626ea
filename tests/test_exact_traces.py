"""The trace rule of ``spectral`` against exact traces.

The group elements are formed again in exact arithmetic, over Q or a
quadratic field Q(sqrt d), from exact generator matrices and along the
element store's words, and their traces give the exact x = lambda +
1/lambda.  The float x of ``_trace_rule`` must lie within its bound beta of
the exact one, and the split into hyperbolic (x > 2) and the rest must be
the exact split.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from limitroots import Kind, classify, enumerate_elements, make_system
from limitroots.errors import NumericalError
from limitroots.graphs import INF
from limitroots.spectral import _trace_rule

# cos(pi / m) = a + b sqrt(d) for the labels whose cosine is quadratic.
COSINES = {
    2: (0, 0, 0),
    3: (Fraction(1, 2), 0, 0),
    4: (0, Fraction(1, 2), 2),
    5: (Fraction(1, 4), Fraction(1, 4), 5),
    6: (0, Fraction(1, 2), 3),
}


class Quadratic:
    """a + b sqrt(d), with rational parts (``int`` where they are integers,
    which keeps integral forms fast) and one d for all numbers in use."""

    __slots__ = ("a", "b")
    d = 0

    def __init__(self, a, b=0):
        self.a, self.b = a, b

    def __add__(self, other):
        return Quadratic(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return Quadratic(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        return Quadratic(
            self.a * other.a + Quadratic.d * self.b * other.b, self.a * other.b + self.b * other.a
        )

    def __bool__(self):
        return bool(self.a or self.b)

    def sign(self):
        """The exact sign: a and b sqrt(d) compared through their squares."""
        sa, sb = (self.a > 0) - (self.a < 0), (self.b > 0) - (self.b < 0)
        if sa == sb or not sb:
            return sa or sb
        if not sa:
            return sb
        return sa if self.a * self.a > self.b * self.b * Quadratic.d else sb

    def decimal(self):
        """The value in ``Decimal`` at the current context's precision."""

        def dec(q):
            q = Fraction(q)
            return Decimal(q.numerator) / Decimal(q.denominator)

        return dec(self.a) + dec(self.b) * Decimal(Quadratic.d).sqrt() if self.b else dec(self.a)


def _rational(q):
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def exact_form(sys):
    """B over Q(sqrt d); c = Fraction(c) takes an infinite label's float c
    exactly.  Raises on labels whose cosine is not quadratic, or on two
    different d."""
    graph, n = sys.graph, sys.rank
    roots = set()
    B = [[Quadratic(1) if i == j else None for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            m = graph.label(i, j)
            if m is INF:
                B[i][j] = Quadratic(_rational(-Fraction(graph.cparam(i, j))))
                continue
            if m not in COSINES:
                raise ValueError(f"cos(pi/{m}) is not quadratic")
            a, b, d = COSINES[m]
            B[i][j] = Quadratic(_rational(-a), _rational(-b))
            roots |= {d} if b else set()
    if len(roots) > 1:
        raise ValueError(f"labels need Q(sqrt {sorted(roots)})")
    Quadratic.d = roots.pop() if roots else 0
    return B


def exact_traces(sys, store):
    """(length, T1, T2) of every element of the store, in store order, exact;
    T2 = tr M^2 only where the trace rule reads it (rank 4, det +1), else
    None.

    The word of each element of length k is t followed by the word of an
    element v of length k - 1, and S_t v differs from v in row t only:
    row t becomes -v_t - 2 sum_{i != t} B_ti v_i."""
    B = exact_form(sys)
    n = sys.rank
    zero = Quadratic(0)
    gens = {
        t: [(i, zero - B[t][i] - B[t][i]) for i in range(n) if i != t and B[t][i]] for t in range(n)
    }
    level = {(): [[Quadratic(int(i == j)) for j in range(n)] for i in range(n)]}
    out = [(0, Quadratic(n), Quadratic(n) if n == 4 else None)]
    for k in range(1, store.max_length + 1):
        words, _ = store.level(k)
        below, level = level, {}
        for word in map(tuple, words.tolist()):
            t, v = word[0], below[word[1:]]
            row = [zero - x for x in v[t]]
            for i, c in gens[t]:
                row = [r + c * x for r, x in zip(row, v[i])]
            u = v[:t] + [row] + v[t + 1 :]
            level[word] = u
            T1 = sum((u[i][i] for i in range(n)), zero)
            T2 = None
            if n == 4 and k % 2 == 0:
                T2 = sum((u[i][j] * u[j][i] for i in range(n) for j in range(n)), zero)
            out.append((k, T1, T2))
    return out


def exact_x(n, det, T1, T2):
    """(x, whether x > 2) for x = lambda + 1/lambda, from the exact traces.

    x is a ``Decimal`` at 50 digits; the comparison with 2 is exact."""
    if n == 3:
        x = T1 - Quadratic(det)
        return x.decimal(), (x - Quadratic(2)).sign() > 0
    if det < 0:
        return T1.decimal(), (T1 - Quadratic(2)).sign() > 0
    D = T2 + T2 + Quadratic(8) - T1 * T1  # (x - y)^2 >= 0
    with localcontext() as ctx:
        ctx.prec = 50
        x = (T1.decimal() + max(D.decimal(), Decimal(0)).sqrt()) / 2
    # x > 2 iff sqrt D > 4 - T1.
    gap = Quadratic(4) - T1
    return x, gap.sign() < 0 or (D - gap * gap).sign() > 0


@pytest.mark.parametrize(
    "graph, length",
    [("fig1a", 9), ("universal3:1.1", 9), ("universal4:1", 8), ("fig1b", 7)],
)
def test_trace_rule_is_within_its_bound_of_the_exact_traces(graph, length):
    sys = make_system(graph)
    store = enumerate_elements(sys, length)
    hyperbolic = 0
    with localcontext() as ctx:
        ctx.prec = 50
        M = store.matrices(0, length)
        parity = np.array([(-1.0) ** k for k in range(length + 1)]).repeat(store.counts())
        xs, betas, *_ = _trace_rule(M, parity)
        for (k, T1, T2), x, beta in zip(exact_traces(sys, store), xs.tolist(), betas.tolist()):
            det = (-1) ** k
            x_exact, exact_split = exact_x(sys.rank, det, T1, T2)
            assert abs(Decimal(x) - x_exact) <= Decimal(beta)
            assert (x - 2 > beta) == exact_split
            hyperbolic += exact_split
    assert 0 < hyperbolic < len(store)


def test_classify_agrees_with_the_exact_traces_or_raises_on_universal3_50():
    """c = 50: entries reach 1e18 at length 9 (the float products round from
    length 9 on).  Every element classify resolves gets the type the exact
    traces allow, and all 384 of length 8 and all 720 non-reflections of
    length 9 are resolved.  The reflections of length 5, 7 and 9 (x = 2, det
    -1) raise: their entries exceed 1e9, so no power certifies order 2."""
    sys = make_system("universal3:50")
    store = enumerate_elements(sys, 9)
    raised = []
    with localcontext() as ctx:
        ctx.prec = 50
        for (k, T1, T2), elem in zip(exact_traces(sys, store), store):
            x_exact, hyperbolic = exact_x(3, (-1) ** k, T1, T2)
            try:
                sc = classify(sys, elem)
            except NumericalError:
                assert k % 2 and x_exact == 2
                raised.append(k)
                continue
            assert (sc.kind is Kind.HYPERBOLIC) == hyperbolic
            if sc.kind is Kind.PARABOLIC:
                assert x_exact == 2 * sc.parabolic_eps
            if sc.kind is Kind.ELLIPTIC:
                assert abs(x_exact) <= 2
    assert raised == [5] * 12 + [7] * 24 + [9] * 48


def test_quadratic_signs_are_exact():
    Quadratic.d = 5
    golden = Quadratic(Fraction(1, 2), Fraction(1, 2))  # (1 + sqrt 5) / 2
    assert (golden * golden - golden - Quadratic(1)).sign() == 0
    assert (golden - Quadratic(Fraction(161803, 100000))).sign() > 0
    assert (golden - Quadratic(Fraction(161804, 100000))).sign() < 0
    assert (Quadratic(3, -1) - Quadratic(Fraction(3, 4))).sign() > 0  # 3 - sqrt 5 > 3/4
    assert (Quadratic(Fraction(3, 4)) - Quadratic(3, -1)).sign() < 0
