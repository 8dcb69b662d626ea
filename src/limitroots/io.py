"""File formats: point-set CSV/JSON and run manifests."""

import csv
import hashlib
import json
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .graphs import word_to_str, str_to_word
from .limits import PointSet


def graph_hash(graph):
    return hashlib.sha256(graph.to_json().encode()).hexdigest()


def _write(path, parts):
    """Write the strings ``parts`` to ``path`` as UTF-8, encoded, hashed and
    written 1,024 at a time, so no copy of the whole text is held; return
    the SHA-256 hex digest of the bytes written."""
    digest, parts = hashlib.sha256(), iter(parts)
    with open(path, "wb") as fh:
        for block in iter(lambda: list(islice(parts, 1024)), []):
            data = "".join(block).encode()
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


@dataclass
class RunManifest:
    """Reproducibility record attached to every output file.

    Outputs are a function of (graph_hash, budgets, tolerances, command,
    version): reruns with identical fields are bit-identical.  Wall time is
    recorded for information only.
    """

    graph_hash: str
    budgets: dict
    tolerances: dict
    command: str
    version: str = __version__
    wall_time: float = 0.0
    outputs: dict = field(default_factory=dict)

    def add_output(self, path, digest):
        """Record ``digest``, the SHA-256 hex digest a writer returned, for
        the file it wrote at ``path``."""
        self.outputs[str(path)] = digest

    def write(self, path):
        data = {
            "graph_hash": self.graph_hash,
            "budgets": self.budgets,
            "tolerances": self.tolerances,
            "command": self.command,
            "version": self.version,
            "wall_time_s": round(self.wall_time, 3),
            "outputs": self.outputs,
        }
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _row_labels(ps, quote=str, words=None):
    """Columns of the kind, source-word and conjugator-word strings of the
    rows; each distinct word is spelled (``words``, else ``format_words(ps)``)
    and passed through ``quote`` once."""
    kinds = [quote(k) for k in ps.kinds]
    words = list(map(quote, words or format_words(ps)))
    return (
        list(map(kinds.__getitem__, ps.kind.tolist())),
        list(map(words.__getitem__, ps.source.tolist())),
        list(map(words.__getitem__, ps.conjugator.tolist())),
    )


def _csv_field(text):
    """``text`` as ``csv.writer`` spells it in a row of several fields: quoted,
    with quotes doubled, when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def format_floats(ps):
    """(coords, bnorms): the repr (shortest round-trip form) of every
    coordinate, as one tuple of strings per row, and of every B-norm.  Both
    writers take them, so a run that writes CSV and JSON spells each float
    once."""
    rank = ps.coords.shape[1]
    coords = list(zip(*[iter(map(float.__repr__, ps.coords.ravel().tolist()))] * rank))
    return coords, list(map(float.__repr__, ps.bnorm.tolist()))


def format_words(ps):
    """The spelling (``word_to_str``) of each distinct word of ``ps``, in
    ``ps.words`` order.  Both writers take it, so a run that writes CSV and
    JSON spells each word once."""
    return list(map(word_to_str, ps.words))


def write_pointset_csv(ps, path, floats=None, words=None):
    """Header x1..xn,kind,source_word,conjugator_word,bnorm; floats use repr
    (``floats``, else ``format_floats(ps)``) so emission is deterministic and
    lossless, and words their letters (``words``, else ``format_words(ps)``).
    Returns the SHA-256 hex digest of the bytes written.

    The bytes are those of ``csv.writer`` (excel dialect), written directly:
    each row is joined from the columns, with the labels quoted once."""
    header = [f"x{i + 1}" for i in range(ps.coords.shape[1])]
    header += ["kind", "source_word", "conjugator_word", "bnorm"]
    coords, bnorms = floats or format_floats(ps)
    kinds, sources, conjugators = _row_labels(ps, _csv_field, words)
    ends = map(str.__add__, bnorms, repeat("\r\n"))
    rows = map(",".join, zip(map(",".join, coords), kinds, sources, conjugators, ends))
    return _write(path, chain([",".join(header) + "\r\n"], rows))


def read_pointset_csv(path, sys):
    """Parse a point-set CSV back into a PointSet (no re-deduplication).

    Every row must be an affine chart point, its coordinates summing to 1
    within 1e-6, as the rows ``write_pointset_csv`` writes are."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty point-set CSV")
        rank = sum(1 for h in header if h.startswith("x") and h[1:].isdigit())
        if rank != sys.rank:
            raise ValueError(f"CSV rank {rank} does not match graph rank {sys.rank}")
        rows = list(reader)
    if any(len(row) < rank + 4 for row in rows):
        raise ValueError(f"{path}: a point-set row has fewer than {rank + 4} fields")
    coords = np.array([[float(v) for v in row[:rank]] for row in rows]).reshape(len(rows), rank)
    off_chart = np.count_nonzero(~(np.abs(coords.sum(axis=1) - 1.0) <= 1e-6))
    if off_chart:
        raise ValueError(
            f"{path}: {off_chart} point-set row(s) with coordinates not summing to 1 within 1e-6"
        )
    kinds, words = {}, {}
    kind = [kinds.setdefault(row[rank], len(kinds)) for row in rows]
    source = [words.setdefault(row[rank + 1], len(words)) for row in rows]
    conjugator = [words.setdefault(row[rank + 2], len(words)) for row in rows]
    return PointSet(
        coords,
        0.0,
        kinds=kinds,
        kind=kind,
        words=[str_to_word(w, sys.rank) for w in words],
        source=source,
        conjugator=conjugator,
        bnorm=[float(row[rank + 3]) for row in rows],
    )


def write_pointset_json(ps, path, sys, budgets, floats=None, words=None):
    """The text of ``json.dumps(data, indent=1, sort_keys=True)`` plus a
    newline, for data = {"metadata": ..., "points": [...]}, written directly:
    the standard library formats indented output in pure Python, one token
    at a time.  The metadata goes through ``json.dumps``; each point is
    joined from the parts of a fixed template and the columns of float reprs
    (``floats``, else ``format_floats(ps)``) and of labels (the words
    spelled as ``words``, else ``format_words(ps)``) through json's C string
    encoder, and the text is written in blocks of points (``_write``).
    Returns the SHA-256 hex digest of the bytes written.  NaN and
    +-Infinity are not JSON: a set with a non-finite coordinate or B-norm is
    a ValueError, raised before the file is opened."""
    finite = np.isfinite(ps.coords).all(axis=1) & np.isfinite(ps.bnorm)
    if not finite.all():
        raise ValueError(
            f"{len(finite) - np.count_nonzero(finite)} point-set row(s) with a non-finite"
            " coordinate or B-norm; JSON has no NaN or Infinity"
        )
    metadata = {
        "graph": json.loads(sys.graph.to_json()),
        "budgets": budgets,
        "dedup_eps": ps.dedup_eps,
        "version": __version__,
    }
    point = (
        '  {\n   "bnorm": %s,\n   "conjugator_word": %s,\n   "coords": [\n    %s'
        '\n   ],\n   "kind": %s,\n   "source_word": %s\n  }'
    )
    first, *parts = point.split("%s")
    b, c, d, e, f = map(repeat, parts)
    # The first point opens the list, each other one follows a comma.
    a = chain(["[\n" + first], repeat(",\n" + first))
    coords, bnorms = floats or format_floats(ps)
    kinds, sources, conjugators = _row_labels(ps, encode_basestring_ascii, words)
    rows = zip(a, bnorms, b, conjugators, c, map(",\n    ".join, coords), d, kinds, e, sources, f)
    head = json.dumps(metadata, indent=1, sort_keys=True).replace("\n", "\n ")
    start = f'{{\n "metadata": {head},\n "points": '
    end = "\n ]\n}\n" if len(bnorms) else "[]\n}\n"
    return _write(path, chain([start], map("".join, rows), [end]))
