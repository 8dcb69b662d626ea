"""Graphs, bilinear forms, generator matrices, and group enumeration."""

import itertools
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitroots import (
    CoxeterGraph,
    builtin,
    dihedral,
    element_of,
    enumerate_elements,
    load_graph,
    make_system,
    roots_by_depth,
    universal,
)
from limitroots import elements
from limitroots.elements import GroupElement
from limitroots.errors import EnumerationError, GraphError
from limitroots.geometry import (
    build_form,
    parabolic_exponents,
    parabolic_order,
    signature,
    system_type,
)
from limitroots.graphs import INF, builtin_names, str_to_word, word_to_str


# ---------------------------------------------------------------------------
# graphs


def test_universal_graph_has_all_infinite_labels():
    g = universal(3, 1.0)
    assert g.rank == 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert g.label(i, j) == INF
            assert g.cparam(i, j) == 1.0


def test_dihedral_graph_single_edge():
    g = dihedral(5)
    assert g.rank == 2
    assert g.label(0, 1) == 5


def test_label_defaults_to_two_for_missing_edges():
    g = CoxeterGraph(rank=3, labels={(0, 1): 3})
    assert g.label(0, 2) == 2
    assert g.label(1, 2) == 2


def test_invalid_label_rejected():
    with pytest.raises(GraphError):
        CoxeterGraph(rank=2, labels={(0, 1): 1})


def test_infinite_label_requires_c_at_least_one():
    with pytest.raises(GraphError):
        load_graph("universal3:0.5")


def test_unknown_builtin_lists_choices():
    with pytest.raises(GraphError, match="known:"):
        load_graph("definitely-not-a-graph")


@pytest.mark.parametrize("name", ["dihedral:x", "dihedral:2.5", "dihedral:"])
def test_unparsable_dihedral_name_is_a_graph_error(name):
    with pytest.raises(GraphError, match=re.escape(f"cannot parse builtin graph name {name!r}")):
        builtin(name)


def test_json_round_trip():
    g = builtin("fig1b")
    assert CoxeterGraph.from_json(g.to_json()) == g


def test_word_string_round_trip():
    assert word_to_str((0, 1, 2)) == "stu"
    assert str_to_word("stu", 3) == (0, 1, 2)
    with pytest.raises(GraphError):
        str_to_word("sz", 3)
    # An index past the 26 letters spells the whole word as indices.
    for word, text in (((0, 26, 3), "0.26.3"), ((26,), "26"), ((25, 0), "rs")):
        assert word_to_str(word) == text
        assert str_to_word(text, 27) == word
    with pytest.raises(GraphError, match="'!' in word 's!'"):
        str_to_word("s!", 3)
    # Letters and indices do not mix, and indices are separated by dots.
    for text, part in (("s1", "s1"), ("0.1!", "1!"), ("0,1", "0,1")):
        with pytest.raises(GraphError, match=re.escape(f"{part!r} in word {text!r} is neither")) as err:
            str_to_word(text, 3)
        assert str(err.value).endswith("(letters and indices do not mix)")


# ---------------------------------------------------------------------------
# geometric representation


def test_universal_form_entries(sys_u1):
    expected = np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    np.testing.assert_allclose(sys_u1.form, expected)


def test_dihedral_form_uses_cosine():
    B = build_form(dihedral(3))
    assert B[0, 1] == pytest.approx(-math.cos(math.pi / 3))
    assert B[0, 1] == pytest.approx(-0.5)


def test_absent_edges_give_commuting_generators():
    """On every builtin graph with an absent edge, and on an edge given
    m = 2 in JSON, the form entry of the pair is exactly 0.0 and the two
    generator matrices commute exactly."""
    edges = [{"i": 0, "j": 1, "m": 3}, {"i": 0, "j": 2, "m": 2}, {"i": 1, "j": 2, "m": 3}]
    explicit = CoxeterGraph.from_json(json.dumps({"rank": 3, "edges": edges}))
    names = [name for name in builtin_names() if "<" not in name]
    found = {}
    for name, graph in [(name, builtin(name)) for name in names] + [("explicit", explicit)]:
        sys = make_system(graph)
        pairs = itertools.combinations(range(sys.rank), 2)
        for i, j in [(i, j) for i, j in pairs if graph.label(i, j) == 2]:
            assert sys.form[i, j] == sys.form[j, i] == 0.0
            S, T = sys.gens[i], sys.gens[j]
            assert np.array_equal(S @ T, T @ S)
            found[name] = found.get(name, 0) + 1
    assert found == {"a3": 1, "fig1a": 3, "fig8": 6, "explicit": 1}


def test_signatures():
    assert signature(build_form(universal(3, 1.0))) == (2, 1, 0)
    assert signature(build_form(dihedral(3))) == (2, 0, 0)
    assert make_system("fig8").signature == (3, 2, 0)


def test_large_dihedral_labels_reach_the_signature_zero_band():
    # The smallest form eigenvalue of I2(m) is 1 - cos(pi / m) ~ pi^2 / (2 m^2):
    # 4.9e-8 at m = 10^4, but 4.9e-10 at m = 10^5, inside the 1e-9 band.
    sys = make_system(dihedral(10**4))
    assert sys.signature == (2, 0, 0)
    assert sys.finite_order_bound == 20000
    with pytest.raises(ValueError, match="borderline signature"):
        make_system(dihedral(10**5))


def test_system_type_labels():
    assert system_type(build_form(universal(3, 1.0))) == "lorentzian"
    assert system_type(build_form(dihedral(3))) == "finite"


# H3 (5-3 path) and A1 x I2(5), each with a fourth generator joined to all
# others by infinite edges.
H3_JSON = """{"rank": 4, "edges": [{"i": 0, "j": 1, "m": 5}, {"i": 1, "j": 2, "m": 3},
  {"i": 0, "j": 3, "m": "inf", "c": 1}, {"i": 1, "j": 3, "m": "inf", "c": 1},
  {"i": 2, "j": 3, "m": "inf", "c": 1}]}"""
A1_I2_5_JSON = """{"rank": 4, "edges": [{"i": 0, "j": 1, "m": 5},
  {"i": 0, "j": 3, "m": "inf", "c": 1.2}, {"i": 1, "j": 3, "m": "inf", "c": 1.2},
  {"i": 2, "j": 3, "m": "inf", "c": 1.2}]}"""


def _closure_order(sys, T, cap=500):
    """|<s_t : t in T>| by BFS closure of the generator matrices, or None
    once it exceeds cap (well above any finite order tested here)."""
    def key(M):
        return (np.round(M, 6) + 0.0).tobytes()  # + 0.0 turns -0.0 into 0.0

    gens = [sys.gens[t] for t in T]
    eye = np.eye(sys.rank)
    seen = {key(eye)}
    frontier = [eye]
    while frontier:
        grown = []
        for M in frontier:
            for g in gens:
                P = M @ g
                if key(P) not in seen:
                    seen.add(key(P))
                    grown.append(P)
                    if len(seen) > cap:
                        return None
        frontier = grown
    return len(seen)


@pytest.mark.parametrize(
    "graph, bound",
    [
        ("fig1a", 6),
        ("fig1b", 10),
        ("universal3:1", 2),
        ("universal4:1", 2),
        ("universal3:1.1", 2),
        ("a3", 24),
        ("fig8", 24),
        ("dihedral:5", 10),
        pytest.param(H3_JSON, 120, id="h3"),
        pytest.param(A1_I2_5_JSON, 20, id="a1xi2(5)"),
    ],
)
def test_finite_order_bound_matches_closure_of_each_parabolic(graph, bound):
    g = CoxeterGraph.from_json(graph) if graph.startswith("{") else builtin(graph)
    sys = make_system(g)
    best = 1
    for size in range(1, sys.rank + 1):
        for T in itertools.combinations(range(sys.rank), size):
            order = _closure_order(sys, T)
            assert parabolic_order(g, sys.form, T) == order, T
            best = max(best, order or 1)
    assert sys.finite_order_bound == best == bound


def _series_inverse(a, n):
    """First n coefficients of 1/a(t) for a power series a with a[0] != 0."""
    a = list(a) + [0] * n
    inv = [Fraction(1) / a[0]]
    for k in range(1, n):
        inv.append(-sum(a[j] * inv[k - j] for j in range(1, k + 1)) / a[0])
    return inv[:n]


def _steinberg_growth(sys, n):
    """First n coefficients of the growth series W(t) from Steinberg's formula
    1/W(t) = sum over T with W_T finite of (-1)^|T| t^N_T / W_T(t), where
    W_T(t) = prod [m_j + 1]_t over the exponents of W_T and N_T = deg W_T."""
    recip = [Fraction(0)] * n
    for size in range(sys.rank + 1):
        for T in itertools.combinations(range(sys.rank), size):
            exponents = parabolic_exponents(sys.graph, sys.form, T)
            if exponents is None:
                continue
            poly = [1]
            for m in exponents:  # times [m + 1]_t = 1 + t + ... + t^m
                poly = [
                    sum(poly[max(0, i - m) : i + 1]) for i in range(len(poly) + m)
                ]
            top = len(poly) - 1
            for i, c in enumerate(_series_inverse(poly, max(0, n - top))):
                recip[top + i] += (-1) ** size * c
    return _series_inverse(recip, n)


@pytest.mark.parametrize(
    "graph, length",
    [
        ("universal3:1", 10),
        ("universal3:1.1", 8),
        ("universal4:1", 7),
        ("fig1a", 9),
        ("fig8", 6),
        ("fig1b", 9),
        ("a3", 30),
        ("dihedral:5", 30),
        # Long dihedral strings: the small roots' affine error bound grows
        # linearly along them (an entrywise one gave out near length 41).
        ("dihedral:100", 60),
        ("universal3:50", 12),
    ],
)
def test_enumeration_counts_match_steinberg_growth_series(graph, length):
    sys = make_system(graph)
    counts = enumerate_elements(sys, length).counts()
    assert _steinberg_growth(sys, len(counts)) == counts


@st.composite
def _graphs(draw):
    """Rank-3 and rank-4 graphs with labels 2..6 or infinity, c in {1, 1.05,
    1.5, 2}: finite, affine, Lorentzian and other signatures alike."""
    rank = draw(st.sampled_from((3, 4)))
    labels, cparams = {}, {}
    for edge in itertools.combinations(range(rank), 2):
        m = draw(st.sampled_from((2, 3, 4, 5, 6, INF)))
        if m is INF:
            cparams[edge] = draw(st.sampled_from((1.0, 1.05, 1.5, 2.0)))
        if m != 2:
            labels[edge] = m
    return CoxeterGraph(rank=rank, labels=labels, cparams=cparams)


@settings(max_examples=25, deadline=None)
@given(_graphs())
def test_enumeration_counts_match_steinberg_growth_series_on_generated_graphs(graph):
    sys = make_system(graph)
    store = enumerate_elements(sys, 6)
    counts = store.counts()
    assert _steinberg_growth(sys, len(counts)) == counts
    ref = _reference_enumeration(sys, 5)
    head = store.with_length(0, 5)
    assert [e.word for e in head] == [r.word for r in ref]
    assert all(e.matrix.tobytes() == r.matrix.tobytes() for e, r in zip(head, ref))


def test_generators_are_involutive_isometries(sys_u11):
    B = sys_u11.form
    for M in sys_u11.gens:
        np.testing.assert_allclose(M @ M, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(M.T @ B @ M, B, atol=1e-12)


def test_generator_fixes_other_simple_roots(sys_u1):
    # sigma_s acts as the identity on every basis vector except e_s.
    M = sys_u1.gens[0]
    np.testing.assert_allclose(M[1:], np.eye(3)[1:])


# ---------------------------------------------------------------------------
# elements


def test_two_letter_product_matrix(sys_u1):
    expected = np.array([[3.0, -2.0, 6.0], [2.0, -1.0, 2.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(element_of(sys_u1, (0, 1)).matrix, expected)


def test_square_of_generator_reduces_to_identity(sys_u1):
    e = element_of(sys_u1, (0, 0))
    assert e.word == () and np.array_equal(e.matrix, np.eye(3))
    # A cancelling word gives I exactly, also where the entries round.
    fig1b = make_system("fig1b")
    for word in ((0, 0), (0, 1, 1, 0), (2, 1, 2, 2, 1, 2)):
        assert np.array_equal(element_of(fig1b, word).matrix, np.eye(4))


def test_braid_relation_normalizes_to_shortlex():
    sys3 = make_system("dihedral:3")
    assert element_of(sys3, (1, 0, 1)).word == (0, 1, 0)


def test_universal_growth_counts(store_u1_6):
    assert store_u1_6.counts() == [1, 3, 6, 12, 24, 48, 96]


def test_finite_group_enumeration_terminates():
    sys3 = make_system("dihedral:3")
    store = enumerate_elements(sys3, 10)
    assert sum(store.counts()) == 6


def test_mixed_rank4_counts():
    store = enumerate_elements(make_system("fig1a"), 5)
    assert store.counts() == [1, 4, 9, 17, 30, 52]


def test_with_length_slices(store_u1_6):
    words = [e.word for e in store_u1_6.with_length(2, 2)]
    assert len(words) == 6
    assert all(len(w) == 2 for w in words)


def _row_update(sys, t, M):
    """S_t M for one matrix, entry by entry in Python floats: row t becomes
    g M, g = S_t[t], summed over the rows of M from the first."""
    g, rows, out = sys.gens[t][t].tolist(), M.tolist(), M.tolist()
    for c in range(sys.rank):
        acc = g[0] * rows[0][c]
        for j in range(1, sys.rank):
            acc += g[j] * rows[j][c]
        out[t][c] = acc
    return np.array(out)


def _reference_enumeration(sys, max_length):
    """Per-candidate Cayley-graph BFS: one product, key and probe per candidate.

    Returns the stored elements in insertion order: the oracle, independent of
    descent signs, for ``enumerate_elements``.  Candidates are recognised by
    their matrices rounded to a 1e-7 grid, which must agree to 1e-9; entries
    are kept below 1e12, where that grid still tells elements apart.  Each
    returned matrix is the row update S_t M_v of its word t v, from the
    returned element of v (``_row_update``, one matrix at a time), and lies
    within 1e-12 relative of the BFS right product.
    """
    def key(M):
        return np.round(M / 1e-7).astype(np.int64).tobytes()

    elements = [GroupElement((), np.eye(sys.rank))]
    index = {key(elements[0].matrix): 0}
    frontier = list(elements)
    for _ in range(max_length):
        next_frontier = []
        for elem in frontier:
            for s in range(sys.rank):
                cand = GroupElement(elem.word + (s,), elem.matrix @ sys.gens[s])
                assert np.max(np.abs(cand.matrix)) <= 1e12
                k = key(cand.matrix)
                idx = index.get(k)
                if idx is not None:
                    assert np.max(np.abs(elements[idx].matrix - cand.matrix)) <= 1e-9
                    continue
                index[k] = len(elements)
                elements.append(cand)
                next_frontier.append(cand)
        frontier = next_frontier
    by_word = {(): elements[0].matrix}
    for e in elements[1:]:
        M = by_word[e.word] = _row_update(sys, e.word[0], by_word[e.word[1:]])
        assert np.max(np.abs(M - e.matrix)) <= 1e-12 * np.max(np.abs(e.matrix))
    return [GroupElement(e.word, by_word[e.word]) for e in elements]


@pytest.mark.parametrize(
    "name, length",
    [
        ("fig1a", 9),
        ("fig1b", 9),
        ("universal3:1", 10),
        ("universal4:1", 7),
        ("universal3:1.1", 8),
        ("fig8", 6),
        ("universal4:10", 6),
    ],
)
def test_enumeration_matches_per_candidate_reference(name, length):
    sys = make_system(name)
    store = enumerate_elements(sys, length)
    ref = _reference_enumeration(sys, length)
    assert [e.word for e in store] == [e.word for e in ref]
    assert all(e.matrix.tobytes() == r.matrix.tobytes() for e, r in zip(store, ref))
    counts = [0] * (length + 1)
    for r in ref:
        counts[r.length] += 1
    assert store.counts() == counts
    assert not any(e.matrix.flags.writeable for e in store)


def test_element_sequence_indexing():
    store = enumerate_elements(make_system("fig1a"), 6)
    elements = store.elements
    every = list(elements)
    assert len(elements) == len(store) == len(every) == sum(store.counts())
    assert elements[-1] == every[-1] and elements[-len(every)] == every[0]
    for i in (0, 5, 100, len(every) - 1):
        assert elements[i] == every[i]
    for bad in (len(every), -len(every) - 1):
        with pytest.raises(IndexError):
            elements[bad]
    for cut in (slice(None, None, 7), slice(5, 150, 3), slice(None, None, -4), slice(-9, None)):
        sub = elements[cut]
        want = every[cut]
        assert len(sub) == len(want)
        assert all(a == b for a, b in zip(sub, want))
        assert all(sub[i] == want[i] for i in range(-len(want), len(want), 5))
    assert elements[::7][-1] == every[::7][-1]
    with pytest.raises(IndexError):
        elements[::7][len(every[::7])]


def test_group_elements_compare_by_word_and_matrix_bytes():
    """Two accesses of one store row are equal and hash alike (the hash is
    the word's); the store and row they carry take no part in either, and
    ``!=`` is the negation of ``==``.  No field can be assigned."""
    sys = make_system("fig1b")
    store = enumerate_elements(sys, 4)
    a, b = store.elements[40], list(store)[40]
    assert a is not b and a == b and hash(a) == hash(b) == hash(a.word)
    assert a.origin == b.origin == (store, 40)
    assert a == GroupElement(a.word, a.matrix.copy()) == element_of(sys, a.word)
    assert a != store.elements[41] and a != GroupElement(a.word, -a.matrix)
    assert (a != a.word) is True and (a == a.word) is False
    same = [b, GroupElement(a.word, a.matrix.copy()), GroupElement(a.word, a.matrix, (store, 41))]
    other = [store.elements[41], GroupElement(a.word, -a.matrix), GroupElement((), a.matrix)]
    for c in same + other:
        assert (a != c) is (not (a == c)) is (c not in same)
    for name in ("word", "matrix", "origin"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert len(set(store) | {element_of(sys, w) for w in store.words(0, 4)}) == len(store)
    assert repr(a) == f"GroupElement({word_to_str(a.word)!r})"


def test_iteration_follows_store_order(store_u1_6):
    whole = store_u1_6.with_length(0, store_u1_6.max_length)
    assert [e.word for e in store_u1_6] == [e.word for e in whole]
    by_length = [e for k in range(store_u1_6.max_length + 1) for e in store_u1_6.of_length(k)]
    assert all(a == b for a, b in zip(store_u1_6, by_length))
    assert len(by_length) == len(store_u1_6)


def test_element_matrices_are_views_of_their_level():
    store = enumerate_elements(make_system("fig1b"), 6)
    for k, count in enumerate(store.counts()):
        W, M = store.level(k)
        assert W.dtype == np.uint8 and W.shape == (count, k)
        assert M.shape == (count, 4, 4)
        assert not W.flags.writeable and not M.flags.writeable
        for e in store.of_length(k):
            assert np.shares_memory(e.matrix, M)
            assert not e.matrix.flags.writeable


@pytest.mark.parametrize("graph, length", [("fig1b", 6), ("universal3:1.1", 5)])
def test_iterated_elements_are_group_elements_of_their_rows(graph, length):
    """Iteration builds its records without ``GroupElement``'s constructor:
    forward and reversed, each is a ``GroupElement`` whose word holds Python
    ints, equal to the element read by index in word, matrix bytes and
    origin, with a read-only view of its level as matrix."""
    store = enumerate_elements(make_system(graph), length)
    elements = store.elements
    rows = range(len(store))
    for order, got in ((rows, iter(elements)), (rows[::-1], reversed(elements))):
        got = list(got)
        assert len(got) == len(store)
        for i, e in zip(order, got):
            want = elements[i]
            assert type(e) is GroupElement
            assert all(type(s) is int for s in e.word)
            assert e.word == want.word and e.origin == want.origin == (store, i)
            assert e.matrix.tobytes() == want.matrix.tobytes()
            assert np.shares_memory(e.matrix, store.level(len(e.word))[1])
            assert not e.matrix.flags.writeable


@settings(max_examples=25, deadline=None)
@given(_graphs())
def test_level_words_match_the_reference_on_generated_graphs(graph):
    sys = make_system(graph)
    store = enumerate_elements(sys, 5)
    ref = [r.word for r in _reference_enumeration(sys, 5)]
    assert store.words(0, 5) == ref
    for k in range(store.max_length + 1):
        assert store.level(k)[0].tolist() == [list(w) for w in ref if len(w) == k]
    # A stored word with a cancelling pair s s inserted is the same element.
    word = ref[-1]
    s, cut = word[-1], len(word) // 2
    assert element_of(sys, word[:cut] + (s, s) + word[cut:]).word == word


@pytest.mark.parametrize("name, length", [("fig1b", 6), ("universal3:1.1", 7), ("fig8", 4)])
def test_element_of_a_non_reduced_word_is_its_store_row(sys_u1, name, length):
    """A store word with a cancelling pair s s inserted gives the store row:
    its ShortLex word and its matrix bytes, for each insertion point and
    letter.  A letter outside the rank is refused."""
    sys = make_system(name)
    store = enumerate_elements(sys, length)
    for e in store.of_length(length)[:: len(store.of_length(length)) // 5]:
        for cut in range(length + 1):
            for s in range(sys.rank):
                got = element_of(sys, e.word[:cut] + (s, s) + e.word[cut:])
                assert got.word == e.word and got.matrix.tobytes() == e.matrix.tobytes()
    with pytest.raises(IndexError, match="generator index 3 out of range for rank 3"):
        element_of(sys_u1, (0, 3))


def test_store_retains_under_200_bytes_per_element():
    sys = make_system("fig1b")
    enumerate_elements(sys, 3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = enumerate_elements(sys, 10)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / len(store) < 200


def test_store_build_holds_under_50_transient_bytes_per_element():
    """Working memory of the build above the store it returns: the traced
    peak less the retained bytes, per element, on fig1b at length 10.  Each
    level is one gather of the level below, updated in place a row per
    element, so this measured 26 B/element (37 with products through a
    fixed buffer, 87 with whole-letter products)."""
    sys = make_system("fig1b")
    enumerate_elements(sys, 3)
    tracemalloc.start()
    try:
        store = enumerate_elements(sys, 10)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - retained) / len(store) < 50


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize(
    "name, length", [("fig1b", 8), ("universal4:10", 6), ("fig8", 6), ("universal3:1.1", 10)]
)
def test_level_bytes_do_not_depend_on_the_product_chunk(name, length, rows):
    """Every level's matrix bytes are those of the row update run 1 or 7
    matrices at a time: from the element of each word's tail one level
    down, one ``_reflect`` per chunk of a first letter's rows (most chunks
    full, the last of a letter not), in ranks 3, 4 and 5."""
    sys = make_system(name)
    store = enumerate_elements(sys, length)
    for k in range(1, length + 1):
        (below, M_below), (W, M) = store.level(k - 1), store.level(k)
        index = {w: i for i, w in enumerate(map(tuple, below.tolist()))}
        got = M_below[[index[tuple(w[1:])] for w in W.tolist()]]
        for t in range(sys.rank):
            first = np.flatnonzero(W[:, 0] == t)
            for r in np.split(first, range(rows, len(first), rows)):
                chunk = got[r]
                elements._reflect(sys.gens, t, chunk)
                got[r] = chunk
        assert got.tobytes() == M.tobytes()


def test_small_root_build_raises_inside_its_minus_one_margin():
    # Label 10^8 puts the gap at sin(pi / 2 10^8) = 1.6e-8: the pairing
    # -cos(pi / 10^8), -1.0 in floats, carries a bound of 4 u = 4.4e-16,
    # wider than its distance gap^2 = 2.5e-16 from the threshold -1 + gap^2:
    # whether s_0 alpha_1 is small is undecided.  At label 10 the margin is
    # wide, and the 10 positive roots of I2(10) are all small.  Roots by
    # depth are read with the same table, so they are refused with it.
    cparams = {(0, 2): 1.0, (1, 2): 1.0}
    for m, size in ((10, 11), (10**8, None)):
        sys = make_system(CoxeterGraph(3, {(0, 1): m, (0, 2): INF, (1, 2): INF}, cparams))
        if size is None:
            with pytest.raises(EnumerationError, match="undecidable"):
                sys.small_roots
            with pytest.raises(EnumerationError, match="undecidable"):
                roots_by_depth(sys, 3)
        else:
            assert sys.small_roots.shape == (3, size)


@pytest.mark.parametrize(
    "labels, positive_roots",
    [
        ({(0, 1): 3, (1, 2): 3, (2, 3): 3}, 10),  # A4
        ({(0, 1): 5, (1, 2): 3}, 15),  # H3
        ({(0, 1): 5, (1, 2): 3, (2, 3): 3}, 60),  # H4
        ({(0, 1): 3, (1, 2): 4, (2, 3): 3}, 24),  # F4
        ({(0, 2): 3, (1, 3): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (6, 7): 3}, 120),  # E8
        # I2(m): the small-root rows grow to m, by doubling.
        ({(0, 1): 3}, 3),
        ({(0, 1): 10}, 10),
        ({(0, 1): 101}, 101),
        ({(0, 1): 1000}, 1000),
    ],
)
def test_every_positive_root_of_a_finite_group_is_small(labels, positive_roots):
    rank = 1 + max(j for _, j in labels)
    act = make_system(CoxeterGraph(rank, labels)).small_roots
    assert act.shape == (rank, positive_roots)
    # s_t permutes the positive roots other than alpha_t, which it negates
    # (act[t, t] = t), and s_t twice is the identity there.
    rows = np.arange(positive_roots)
    for t in range(rank):
        assert act[t, t] == t
        assert sorted(act[t]) == rows.tolist()
        assert np.array_equal(act[t][act[t]], rows)


def _reference_small_roots(sys):
    """The small-root table with each image tested against every root found
    so far, and each root's bound [p; G] stacked as rows, its rounding summed
    row by row."""
    n, gap, u = sys.rank, sys.pairing_gap, np.finfo(float).eps / 2
    X, act = [np.vstack((p, 4 * u * np.eye(n))) for p in sys.form], []
    P, E = list(sys.form), [np.full(n, 4 * u)] * n
    while len(act) < len(X):
        i = len(act)
        act.append(list(range(n)))
        for t in range(n):
            p, e = P[i][t], E[i][t]
            if abs(p) <= e and 2 * e < gap:
                act[i][t] = i
            elif i != t and p > gap**2 - 1:
                d = sys.gens[t][t] - np.eye(n)[t]
                spread = np.abs(d) * (np.arange(n) != t)
                xt = X[i][:, t, None]
                fresh = 16 * u * (np.abs(X[i]) + np.abs(xt) * (spread + 1))
                Y = np.vstack((X[i] + xt * d, np.diag(fresh.sum(0))))
                q, f = Y[0], np.abs(Y[1:]).sum(0)
                (j,) = np.nonzero(np.all(np.abs(np.array(P) - q) <= np.array(E) + f, axis=1))
                assert len(j) <= 1
                if len(j) == 0:
                    P, E, j = P + [q], E + [f], [len(X)]
                    X.append(Y)
                act[i][t] = j[0]
    return np.array(act, np.intp).T


@pytest.mark.parametrize(
    "graph",
    [*builtin_names()[:-2], "dihedral:7", "dihedral:100", "dihedral:1000", "universal3:1.1"]
    + [CoxeterGraph(8, {(0, 2): 3, (1, 3): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (6, 7): 3})],
)
def test_small_roots_match_the_test_against_every_root(graph):
    """``small_roots`` tests an image only against the roots in a window of
    its first pairing and keeps each bound transposed; the table is that of
    the full test (dihedral:1000 has 1,000 roots, E8 120)."""
    act = make_system(graph).small_roots
    assert act.tobytes() == _reference_small_roots(make_system(graph)).tobytes()


@pytest.mark.parametrize(
    "name, length",
    [
        ("fig1a", 9),
        ("fig1b", 9),
        ("universal3:1", 10),
        ("universal4:1", 7),
        ("universal3:1.1", 8),
        ("fig8", 6),
    ],
)
def test_reduced_word_recovers_stored_words(name, length):
    sys = make_system(name)
    elements = enumerate_elements(sys, length).elements
    for e in elements[::7]:
        assert element_of(sys, e.word) == e


def _free_reduction(word):
    """The reduced word of a free product of groups of order 2: adjacent
    equal letters cancel, until none are left."""
    out = []
    for s in word:
        if out and out[-1] == s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def test_reduced_word_never_returns_a_wrong_word():
    # The entries of these matrices reach 1e18; the words are decided
    # without them.  Every label of universal3:50 is infinite, so the word
    # of an element is its free reduction.
    sys = make_system("universal3:50")
    assert element_of(sys, (1, 0, 1, 0, 1, 2, 0, 1, 2)).word == (1, 0, 1, 0, 1, 2, 0, 1, 2)
    assert element_of(sys, (1, 2, 1, 2, 1, 0, 1, 2, 2, 1, 2)).word == (1, 2, 1, 2, 1, 0, 2)


@pytest.mark.parametrize("c", [1.0, 1.1, 50.0])
def test_words_of_universal_systems_are_free_reductions(c):
    """The free-product rule is an oracle independent of the program."""
    sys = make_system(f"universal3:{c}")
    rng = random.Random(17)
    for _ in range(300):
        word = tuple(rng.randrange(3) for _ in range(rng.randrange(24)))
        assert element_of(sys, word).word == _free_reduction(word)
