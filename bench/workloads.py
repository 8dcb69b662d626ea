"""The benchmark workloads: seeded inputs, one job each, reference checks.

Every workload runs on a Coxeter graph whose generators the seed relabels.
A relabeling gives an isomorphic Coxeter system, so the reference counts
below hold for every seed while the floating-point path of the program
changes with it.  The graphs are written out here rather than taken from
the program's builtins, so the inputs stay fixed if the builtins change.

Each workload provides:

- ``modules``: what a fresh process must import before its first job
  (the set-up probe uses it);
- ``job(ctx)``: one job, the only part that is timed; it returns a small
  dict of outputs, so nothing large outlives it;
- ``check(ctx, out, spans)``: the reference checks of one job, run after
  its timing stops, returning an ``Outcome``;
- ``warmup(ctx)``: a reduced job that fills caches and runs lazy imports
  before timing starts.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# Base graphs in the JSON format of ``limitroots --graph``.
FIG1A = {
    "rank": 4,
    "edges": [
        {"i": 0, "j": 1, "m": "inf", "c": 1.05},
        {"i": 1, "j": 2, "m": 3},
        {"i": 2, "j": 3, "m": "inf", "c": 1.05},
    ],
}
FIG1B = {
    "rank": 4,
    "edges": [
        {"i": 0, "j": 1, "m": 5},
        {"i": 0, "j": 2, "m": 5},
        {"i": 0, "j": 3, "m": "inf", "c": 1.0},
        {"i": 1, "j": 2, "m": 3},
        {"i": 1, "j": 3, "m": 3},
        {"i": 2, "j": 3, "m": 3},
    ],
}
UNIVERSAL3_11 = {
    "rank": 3,
    "edges": [
        {"i": 0, "j": 1, "m": "inf", "c": 1.1},
        {"i": 0, "j": 2, "m": "inf", "c": 1.1},
        {"i": 1, "j": 2, "m": "inf", "c": 1.1},
    ],
}

# Elements of each length of fig1b, lengths 0..11 (relabel-invariant).
FIG1B_COUNTS = [1, 4, 12, 33, 90, 244, 660, 1784, 4824, 13044, 35270, 95366]

HERE = os.path.dirname(os.path.abspath(__file__))


def permutation(seed, rank):
    """Generator relabeling for a seed: old label i becomes perm[i]."""
    return random.Random(seed).sample(range(rank), rank)


def relabel(graph, perm):
    edges = []
    for e in graph["edges"]:
        i, j = sorted((perm[e["i"]], perm[e["j"]]))
        edges.append({**e, "i": i, "j": j})
    edges.sort(key=lambda e: (e["i"], e["j"]))
    return {"rank": graph["rank"], "edges": edges}


def form_of(graph):
    """Bilinear form of a graph, computed here independently of the program."""
    B = np.eye(graph["rank"])  # absent edges: m = 2, B = 0
    for e in graph["edges"]:
        v = -e["c"] if e["m"] == "inf" else -math.cos(math.pi / e["m"])
        B[e["i"], e["j"]] = B[e["j"], e["i"]] = v
    return B


class Context:
    """Inputs of one run: the relabeled graph, written where the program reads it."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.workdir = workdir
        self.perm = permutation(seed, workload.graph["rank"])
        self.graph = relabel(workload.graph, self.perm)
        self.identity = self.graph == relabel(workload.graph, list(range(len(self.perm))))
        self.form = form_of(self.graph)
        self.graph_path = os.path.join(workdir, "graph.json")
        with open(self.graph_path, "w") as fh:
            json.dump(self.graph, fh, sort_keys=True)
        self.system = None


def make_system(ctx):
    import limitroots.geometry

    return limitroots.geometry.make_system(ctx.graph_path)


@dataclass
class Outcome:
    """What the checks found in one job.

    ``broken`` lists the reference checks the job broke; a job with any is a
    failed operation.  ``calls`` counts the job's ``classify`` calls on
    census-fig1b, each an operation of its own, and ``failed_calls`` holds
    the indices of the calls that raised.  ``report`` holds facts to print,
    not to judge.
    """

    broken: list
    residual: float = 0.0
    calls: int = 0
    failed_calls: frozenset = frozenset()
    report: dict = field(default_factory=dict)


class Workload:
    modules = ("limitroots",)
    # Hooks whose spans the checks read; installed in every run, traced or not.
    check_hooks = ()

    def setup(self, ctx):
        pass


def _spans_named(spans, name):
    return [s[4] for s in spans if s[0] == name]


# --- sample-fig1a: CLI limit-roots ------------------------------------------


class SampleFig1a(Workload):
    name = "sample-fig1a"
    graph = FIG1A
    modules = ("limitroots.cli",)
    core, conj = "3..4", "1..9"
    elements, images, points = 1085, 69376, 4942
    check_hooks = ("elements.enumerate_elements", "limits.dedup")

    def setup(self, ctx):
        with open(os.path.join(HERE, "reference.json")) as fh:
            refs = json.load(fh)[self.name]["csv_sha256_by_permutation"]
        self.reference = refs.get("".join(map(str, ctx.perm)))

    def _cli(self, ctx, core, conj, tag):
        import limitroots.cli

        out = os.path.join(ctx.workdir, f"points{tag}.csv")
        js = os.path.join(ctx.workdir, f"points{tag}.json")
        args = ["limit-roots", "--graph", ctx.graph_path, "--core-lengths", core,
                "--conj-lengths", conj, "--out", out, "--json", js]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = limitroots.cli.main(args)
        return {"rc": rc, "csv": out, "json": js, "manifest": out + ".manifest.json"}

    def job(self, ctx):
        return self._cli(ctx, self.core, self.conj, "")

    def warmup(self, ctx):
        self._cli(ctx, "3..3", "1..3", "-warmup")

    def check(self, ctx, out, spans):
        if out["rc"] != 0:
            return Outcome([f"limit-roots exited {out['rc']}"])
        broken = []
        with open(out["csv"], "rb") as fh:
            raw = fh.read()
        rows = list(csv.reader(io.StringIO(raw.decode())))[1:]
        n = ctx.graph["rank"]
        kinds = Counter(r[n] for r in rows)
        if len(rows) != self.points or set(kinds) != {"hyperbolic-eig"}:
            broken.append(f"csv has {len(rows)} points of kinds {dict(kinds)}")
        coords = np.array([[float(v) for v in r[:n]] for r in rows])
        residual = float(np.max(np.abs(np.einsum("ij,jk,ik->i", coords, ctx.form, coords))))
        with open(out["json"]) as fh:
            if len(json.load(fh)["points"]) != len(rows):
                broken.append("json and csv disagree on the point count")
        with open(out["manifest"]) as fh:
            outputs = json.load(fh)["outputs"]
        digest = hashlib.sha256(raw).hexdigest()
        if outputs.get(out["csv"]) != digest:
            broken.append("manifest digest does not match the csv")
        enumerated = [note["count"] for note in _spans_named(spans, "elements.enumerate_elements")]
        if enumerated != [self.elements]:
            broken.append(f"enumerated {enumerated} elements")
        dedup = [(note["images"], note["points"]) for note in _spans_named(spans, "limits.dedup")]
        if dedup != [(self.images, self.points)]:
            broken.append(f"dedup saw (images, points) {dedup}")
        matches = None if self.reference is None else digest == self.reference
        report = {"csv_sha256": digest, "csv_matches_reference": matches}
        return Outcome(broken, residual, report=report)


# --- census-fig1b: classify every element up to length 9 --------------------


class CensusFig1b(Workload):
    name = "census-fig1b"
    graph = FIG1B
    length = 9
    census = {"hyperbolic": 19832, "parabolic": 326}
    elliptic_or_failed = 538

    def setup(self, ctx):
        import limitroots.errors

        # The exceptions by which classify reports an element it cannot resolve.
        self.errors = (limitroots.errors.ClassificationError,
                       limitroots.errors.BorderlineSpectrumError,
                       limitroots.errors.ExtractionError,
                       np.linalg.LinAlgError)

    def _run(self, ctx, length):
        import limitroots.elements
        import limitroots.spectral

        store = limitroots.elements.enumerate_elements(ctx.system, length)
        classes = []
        failed = []
        for i, elem in enumerate(store):
            try:
                classes.append(limitroots.spectral.classify(ctx.system, elem))
            except self.errors:
                failed.append(i)
        return {"counts": store.counts(), "classes": classes, "failed": failed}

    def job(self, ctx):
        return self._run(ctx, self.length)

    def warmup(self, ctx):
        self._run(ctx, 5)

    def check(self, ctx, out, spans):
        broken = []
        if out["counts"] != FIG1B_COUNTS[: self.length + 1]:
            broken.append(f"element counts {out['counts']}")
        census = Counter(sc.kind.value for sc in out["classes"])
        for kind, want in self.census.items():
            if census[kind] != want:
                broken.append(f"{census[kind]} {kind}, expected {want}")
        failed = len(out["failed"])
        if census["elliptic"] + failed != self.elliptic_or_failed:
            broken.append(f"{census['elliptic']} elliptic + {failed} failed")
        vecs = [v for sc in out["classes"] if sc.dominant for v in sc.dominant[1:]]
        vecs += [sc.parabolic_vec for sc in out["classes"] if sc.parabolic_vec is not None]
        X = np.array(vecs)
        residual = float(np.max(np.abs(np.einsum("ij,jk,ik->i", X, ctx.form, X))))
        report = {"census": {**census, "failed": failed}, "failed_elements": out["failed"]}
        return Outcome(broken, residual, sum(out["counts"]), frozenset(out["failed"]), report)


# --- enumerate-fig1b: BFS enumeration up to length 11 -----------------------


class EnumerateFig1b(Workload):
    name = "enumerate-fig1b"
    graph = FIG1B
    length = 11

    def job(self, ctx):
        import limitroots.elements

        return limitroots.elements.enumerate_elements(ctx.system, self.length)

    def warmup(self, ctx):
        import limitroots.elements

        limitroots.elements.enumerate_elements(ctx.system, 6)

    def check(self, ctx, store, spans):
        broken = []
        if store.counts() != FIG1B_COUNTS[: self.length + 1]:
            broken.append(f"element counts {store.counts()}")
        # Every element is a B-isometry, M^T B M = B; chunks keep the check's
        # memory below the job's.
        elements = store.elements
        residual = 0.0
        for lo in range(0, len(elements), 4096):
            M = np.stack([e.matrix for e in elements[lo : lo + 4096]])
            defect = np.transpose(M, (0, 2, 1)) @ ctx.form @ M - ctx.form
            residual = max(residual, float(np.max(np.abs(defect))))
        return Outcome(broken, residual)


# --- sandwich-u3: verify --suite sandwich at depth 4 ------------------------


class SandwichU3(Workload):
    name = "sandwich-u3"
    graph = UNIVERSAL3_11
    modules = ("limitroots", "limitroots.verify")
    depth = 4
    pairs = 888

    def job(self, ctx):
        import limitroots.verify

        return limitroots.verify.run_suite("sandwich", sys=ctx.system, depth=self.depth)

    def warmup(self, ctx):
        import limitroots.verify

        limitroots.verify.run_suite("sandwich", sys=ctx.system, depth=2)

    def check(self, ctx, report, spans):
        broken = []
        if not report["pass"] or report["pairs"] != self.pairs:
            broken.append(f"pass={report['pass']} with {report['pairs']} pairs")
        return Outcome(broken, float(report["worst_dynamics_residual"]))


WORKLOADS = {w.name: w for w in (SampleFig1a(), CensusFig1b(), EnumerateFig1b(), SandwichU3())}
