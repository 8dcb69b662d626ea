"""File formats: point-set CSV/JSON and run manifests."""

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .graphs import word_to_str, str_to_word
from .limits import PointRecord, PointSet
from .projective import ProjectivePoint


def graph_hash(graph):
    return hashlib.sha256(graph.to_json().encode()).hexdigest()


def _file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


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

    def add_output(self, path):
        self.outputs[str(path)] = _file_digest(path)

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


def write_pointset_csv(ps, path, rank):
    """Header x1..xn,kind,source_word,conjugator_word,bnorm; floats use repr
    (shortest round-trip form) so emission is deterministic and lossless."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"x{i + 1}" for i in range(rank)]
            + ["kind", "source_word", "conjugator_word", "bnorm"]
        )
        for rec in ps.records:
            writer.writerow(
                [repr(float(v)) for v in rec.point.coords]
                + [
                    rec.kind,
                    word_to_str(rec.source),
                    word_to_str(rec.conjugator),
                    repr(rec.point.bnorm),
                ]
            )


def read_pointset_csv(path, sys):
    """Parse a point-set CSV back into a PointSet (no re-deduplication)."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rank = sum(1 for h in header if h.startswith("x") and h[1:].isdigit())
        if rank != sys.rank:
            raise ValueError(f"CSV rank {rank} does not match graph rank {sys.rank}")
        for row in reader:
            coords = np.array([float(v) for v in row[:rank]])
            coords.setflags(write=False)
            point = ProjectivePoint(
                coords=coords,
                at_infinity=abs(np.sum(coords) - 1.0) > 1e-6,
                bnorm=float(row[rank + 3]),
            )
            records.append(
                PointRecord(
                    point=point,
                    kind=row[rank],
                    source=str_to_word(row[rank + 1], sys.rank),
                    conjugator=str_to_word(row[rank + 2], sys.rank),
                )
            )
    ps = PointSet.__new__(PointSet)
    ps.dedup_eps = 0.0
    ps.records = records
    return ps


def write_pointset_json(ps, path, sys, budgets):
    data = {
        "metadata": {
            "graph": json.loads(sys.graph.to_json()),
            "budgets": budgets,
            "dedup_eps": ps.dedup_eps,
            "version": __version__,
        },
        "points": [
            {
                "coords": [float(v) for v in rec.point.coords],
                "kind": rec.kind,
                "source_word": word_to_str(rec.source),
                "conjugator_word": word_to_str(rec.conjugator),
                "bnorm": rec.point.bnorm,
            }
            for rec in ps.records
        ],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
