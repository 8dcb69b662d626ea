"""Coxeter graphs: the combinatorial presentation of a Coxeter system.

A graph has a rank n, a symmetric edge label m_st in {2, 3, ...} or
infinity for each pair of distinct generators (absent edge means m = 2),
and a real parameter c_st >= 1 attached to every infinite edge.
"""

import json
import math
from dataclasses import dataclass, field

from .errors import GraphError

INF = math.inf

# Display alphabet for generator indices, following the s, t, u convention.
LETTERS = "stuvwxyzabcdefghijklmnopqr"


def word_to_str(word):
    """Render a word (tuple of generator indices) as letters, e.g. (0,1,2) -> 'stu',
    or as dot-separated indices, e.g. '0.26.3', if an index has no letter."""
    if len(word) == 0:
        return "e"
    if max(word) >= len(LETTERS):
        return ".".join(map(str, word))
    return "".join(map(LETTERS.__getitem__, word))


def str_to_word(text, rank):
    """Parse a word given as letters ('stu'), or as space/dot separated indices."""
    text = text.strip()
    if text in ("", "e"):
        return ()
    indices = any(ch.isdigit() for ch in text)
    parts = text.replace(".", " ").split() if indices else [ch for ch in text if not ch.isspace()]
    for p in parts:
        if not (p.isdecimal() if indices else p in LETTERS):
            raise GraphError(
                f"{p!r} in word {text!r} is neither a generator letter nor an index"
                " (letters and indices do not mix)"
            )
    word = tuple(int(p) if indices else LETTERS.index(p) for p in parts)
    for i in word:
        if not 0 <= i < rank:
            raise GraphError(f"generator index {i} out of range for rank {rank}")
    return word


@dataclass(frozen=True)
class CoxeterGraph:
    """Presentation data: rank, finite/infinite labels, c-parameters on infinite edges.

    ``labels`` and ``cparams`` are keyed by pairs (i, j) with i < j.  Pairs
    absent from ``labels`` have m = 2 (commuting generators).
    """

    rank: int
    labels: dict = field(default_factory=dict)
    cparams: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.rank < 1:
            raise GraphError(f"rank must be >= 1, got {self.rank}")
        for (i, j), m in self.labels.items():
            if not (0 <= i < j < self.rank):
                raise GraphError(f"bad edge ({i}, {j}) for rank {self.rank}")
            if m is not INF and (int(m) != m or m < 2):
                raise GraphError(f"label m_{i}{j} must be an integer >= 2 or inf, got {m}")
            if m is INF and (i, j) not in self.cparams:
                raise GraphError(f"infinite edge ({i}, {j}) has no c-parameter")
        for (i, j), c in self.cparams.items():
            if self.labels.get((i, j)) is not INF:
                raise GraphError(f"c-parameter on non-infinite edge ({i}, {j})")
            if not 1 <= c < INF:
                raise GraphError(f"c_{i}{j} must be finite and >= 1, got {c}")

    def label(self, i, j):
        """Coxeter label m_ij; m_ii = 1 and absent edges give 2."""
        if i == j:
            return 1
        key = (min(i, j), max(i, j))
        return self.labels.get(key, 2)

    def cparam(self, i, j):
        key = (min(i, j), max(i, j))
        return self.cparams[key]

    def to_json(self):
        edges = []
        for (i, j), m in sorted(self.labels.items()):
            if m is INF:
                edges.append({"i": i, "j": j, "m": "inf", "c": self.cparams[(i, j)]})
            else:
                edges.append({"i": i, "j": j, "m": int(m)})
        return json.dumps({"rank": self.rank, "edges": edges}, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Read {"rank": n, "edges": [{"i": i, "j": j, "m": m, "c": c}, ...]}:
        rank, indices and finite labels are integers (not bools), m = "inf"
        (or "infinity") needs a finite c >= 1 (a number, not a bool), a finite
        m takes no c, and other input, an unknown or repeated key included, is a
        GraphError."""
        try:
            data = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise GraphError(f"invalid graph JSON: {exc}") from exc
        if not isinstance(data, dict) or "rank" not in data:
            raise GraphError("graph JSON must be an object with a 'rank' field")
        _known_keys(data, {"rank", "edges"}, "graph JSON")
        edges = data.get("edges", [])
        if not isinstance(edges, list) or not all(isinstance(e, dict) for e in edges):
            raise GraphError(f"graph JSON 'edges' must be a list of objects, got {edges!r}")
        labels = {}
        cparams = {}
        for edge in edges:
            if not {"i", "j", "m"} <= edge.keys():
                raise GraphError(f"malformed edge {edge!r}: it needs i, j and m")
            _known_keys(edge, {"i", "j", "m", "c"}, f"edge {edge!r}")
            i, j = _integer(edge["i"], "edge index"), _integer(edge["j"], "edge index")
            if i == j:
                raise GraphError(f"self edge on generator {i}")
            key = (min(i, j), max(i, j))
            if key in labels:
                raise GraphError(f"duplicate edge ({key[0]}, {key[1]})")
            m = edge["m"]
            if m in ("inf", "infinity"):
                if "c" not in edge:
                    raise GraphError(f"infinite edge ({i}, {j}) has no c-parameter")
                cparams[key] = _number(edge["c"], f"c-parameter of edge ({i}, {j})")
                labels[key] = INF
            elif "c" in edge:
                raise GraphError(f"c-parameter on non-infinite edge ({i}, {j}), m = {m!r}")
            else:
                labels[key] = _integer(m, f"label m_{key[0]}{key[1]}")
        return cls(rank=_integer(data["rank"], "rank"), labels=labels, cparams=cparams)


def _unique_keys(pairs):
    """The JSON object of ``pairs``, or a GraphError naming a key it repeats
    (``json.loads`` alone keeps the last value)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise GraphError(f"graph JSON repeats key {key!r} in one object")
        obj[key] = value
    return obj


def _known_keys(obj, known, what):
    """A GraphError naming the keys of ``obj`` outside ``known``, if any."""
    unknown = sorted(obj.keys() - known)
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise GraphError(f"{what} has unknown key {names}; known: {', '.join(sorted(known))}")


def _number(value, what):
    """float(``value``) for a JSON number, or a string that float reads ("inf"
    and "nan" are left for ``CoxeterGraph`` to refuse); a bool or any other
    value is a GraphError."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise GraphError(f"{what} is not a number, got {value!r}")


def _integer(value, what):
    """``value`` if it is a JSON integer; a bool or any other value is a GraphError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphError(f"{what} must be an integer, got {value!r}")
    return value


def universal(rank, c):
    """Universal Coxeter graph: every pair joined by an infinite edge with parameter c."""
    labels = {}
    cparams = {}
    for i in range(rank):
        for j in range(i + 1, rank):
            labels[(i, j)] = INF
            cparams[(i, j)] = float(c)
    return CoxeterGraph(rank=rank, labels=labels, cparams=cparams)


def dihedral(m):
    """Rank-2 graph with a single label m (finite for m < inf)."""
    return CoxeterGraph(rank=2, labels={(0, 1): m})


_BUILTINS = {
    # Rank-4 path: two dotted edges with c = 1.05 around a plain (m=3) edge.
    "fig1a": lambda: CoxeterGraph(
        rank=4,
        labels={(0, 1): INF, (1, 2): 3, (2, 3): INF},
        cparams={(0, 1): 1.05, (2, 3): 1.05},
    ),
    # Rank-4: hub joined to the others by 5, 5 and an unlabeled infinite edge
    # (c defaults to 1); outer triangle has plain edges.
    "fig1b": lambda: CoxeterGraph(
        rank=4,
        labels={(0, 1): 5, (0, 2): 5, (0, 3): INF, (1, 2): 3, (1, 3): 3, (2, 3): 3},
        cparams={(0, 3): 1.0},
    ),
    # Rank-5 path with c = 2 on the end edges: signature (3, 2), not Lorentzian.
    "fig8": lambda: CoxeterGraph(
        rank=5,
        labels={(0, 1): INF, (1, 2): 3, (2, 3): 3, (3, 4): INF},
        cparams={(0, 1): 2.0, (3, 4): 2.0},
    ),
    # Rank-3 path with two label-3 edges: the finite group A3 of order 24.
    "a3": lambda: CoxeterGraph(rank=3, labels={(0, 1): 3, (1, 2): 3}),
}


def builtin_names():
    return sorted(_BUILTINS) + ["universal<rank>:<c>", "dihedral:<m>"]


def builtin(name):
    """Look up a named graph: fig1a, fig1b, fig8, a3, universal3:1.1, dihedral:3."""
    if name in _BUILTINS:
        return _BUILTINS[name]()
    if name.startswith("universal"):
        head, _, cval = name.partition(":")
        try:
            rank = int(head[len("universal"):])
            c = float(cval) if cval else 1.0
        except ValueError as exc:
            raise GraphError(f"cannot parse builtin graph name {name!r}") from exc
        return universal(rank, c)
    if name.startswith("dihedral:"):
        mval = name.split(":", 1)[1]
        if mval == "inf":
            raise GraphError("infinite dihedral needs a c-parameter; use a JSON graph")
        try:
            m = int(mval)
        except ValueError as exc:
            raise GraphError(f"cannot parse builtin graph name {name!r}") from exc
        return dihedral(m)
    raise GraphError(f"unknown builtin graph {name!r}; known: {', '.join(builtin_names())}")


def load_graph(source):
    """Load a graph from a file path or a builtin name."""
    import os

    if os.path.exists(source):
        with open(source) as fh:
            return CoxeterGraph.from_json(fh.read())
    return builtin(source)
