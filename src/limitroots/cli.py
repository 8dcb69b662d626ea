"""Command-line interface.

Exit codes: 0 success, 1 verification failed, 2 input error, 3 numerical
failure (an element or subspace the numerics could not resolve).
"""

import argparse
import inspect
import json
import sys as _sys
import time

from . import __version__
from .arrangement import codim2_spacelike, roots_by_depth
from .elements import enumerate_elements
from .errors import GraphError, NotLorentzianError, NumericalError
from .geometry import make_system, system_type
from .graphs import load_graph, str_to_word
from .io import (
    RunManifest,
    format_floats,
    format_words,
    graph_hash,
    read_pointset_csv,
    write_pointset_csv,
    write_pointset_json,
)
from .limits import DEDUP_EPS, PeriodicWord, sample_limit_roots, word_limit_root
from .spectral import Kind
from .svg import render_svg
from .verify import SUITES, run_suite


def _parse_range(text):
    lo, _, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if hi else lo)
    except ValueError as exc:
        raise GraphError(f"cannot parse length range {text!r}; expected a..b") from exc
    if not 0 <= lo <= hi:
        raise GraphError(f"length range {text!r} must have 0 <= a <= b")
    return lo, hi


def cmd_analyze(args):
    graph = load_graph(args.graph)
    sys = make_system(graph)
    kind = system_type(sys.form)
    n_plus, n_minus, n_zero = sys.signature
    print(f"rank: {graph.rank}")
    print("bilinear form:")
    for row in sys.form:
        print("  [" + ", ".join(f"{v: .6f}" for v in row) + "]")
    print(f"signature: ({n_plus}, {n_minus}, {n_zero})")
    if kind == "lorentzian":
        print(f"type: Lorentzian ({n_plus},{n_minus})")
    elif kind == "other":
        print(f"type: other ({n_plus},{n_minus})")
    else:
        print(f"type: {kind}")
    return 0


def cmd_limit_roots(args):
    graph = load_graph(args.graph)
    sys = make_system(graph)
    core = _parse_range(args.core_lengths)
    conj = _parse_range(args.conj_lengths)
    budgets = {"core_lengths": list(core), "conj_lengths": list(conj)}
    start = time.perf_counter()
    store = enumerate_elements(sys, max(core[1], conj[1]))
    ps = sample_limit_roots(sys, store, core, conj, args.dedup_eps)
    manifest = RunManifest(
        graph_hash=graph_hash(graph),
        budgets=budgets,
        tolerances={"dedup_eps": args.dedup_eps},
        command="limit-roots",
    )
    floats, words = format_floats(ps), format_words(ps)
    manifest.add_output(args.out, write_pointset_csv(ps, args.out, floats, words))
    if args.json:
        manifest.add_output(args.json, write_pointset_json(ps, args.json, sys, budgets, floats, words))
    manifest.wall_time = time.perf_counter() - start
    manifest.write(args.out + ".manifest.json")
    counts = ps.counts_by_kind()
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    print(f"{len(ps)} points ({summary}) -> {args.out}")
    return 0


def cmd_plot(args):
    if args.arrangement_depth < 0:
        raise ValueError(f"--arrangement-depth must be at least 0, got {args.arrangement_depth}")
    graph = load_graph(args.graph)
    sys = make_system(graph)
    if args.arrangement_depth > 0 and sys.rank != 3:
        raise ValueError(f"--arrangement-depth draws rank 3 only; the graph has rank {sys.rank}")
    ps = read_pointset_csv(args.points, sys) if args.points else None
    roots = intersections = None
    if args.arrangement_depth > 0:
        roots = roots_by_depth(sys, args.arrangement_depth)
        intersections = codim2_spacelike(sys, roots)
    svg = render_svg(sys, ps, roots, intersections, show_weights=args.weights)
    with open(args.out, "w") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return 0


def cmd_word_limit(args):
    graph = load_graph(args.graph)
    sys = make_system(graph)
    prefix = str_to_word(args.prefix, sys.rank) if args.prefix else ()
    period = str_to_word(args.period, sys.rank)
    result = word_limit_root(sys, PeriodicWord(prefix=prefix, period=period))
    coords = ", ".join(f"{v:.9f}" for v in result.point)
    print(f"limit root: ({coords})")
    print(f"B-norm: {result.bnorm:.3e}")
    print(f"period element: {result.kind.value}", end="")
    if result.kind is Kind.HYPERBOLIC:
        print(f" (eigenvalue {result.eigenvalue:.9f})")
    else:
        print(f" (eps = {int(result.eigenvalue)})")
    print(f"prefix-orbit residual: {result.orbit_residual:.3e}")
    return 0


def cmd_verify(args):
    params = inspect.signature(SUITES[args.suite]).parameters
    for flag, value, param in (("--graph", args.graph, "sys"), ("--depth", args.depth, "depth")):
        if value is not None and param not in params:
            raise ValueError(f"suite {args.suite!r} does not take {flag}")
    kwargs = {}
    if args.graph:
        kwargs["sys"] = make_system(load_graph(args.graph))
    if args.depth is not None:
        if args.depth < 1:
            raise ValueError(f"--depth must be at least 1, got {args.depth}")
        kwargs["depth"] = args.depth
    report = run_suite(args.suite, **kwargs)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["pass"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="limitroots",
        description="Limit roots and limit directions of Lorentzian Coxeter systems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="print the form, signature and system type")
    p.add_argument("--graph", required=True, help="graph JSON path or builtin name")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("limit-roots", help="sample limit roots to CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--core-lengths", required=True, help="a..b lengths of core elements")
    p.add_argument("--conj-lengths", required=True, help="a..b lengths of conjugators")
    p.add_argument("--dedup-eps", type=float, default=DEDUP_EPS, help="merge distance, finite and > 0")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--json", help="optional JSON mirror path")
    p.set_defaults(fn=cmd_limit_roots)

    p = sub.add_parser("plot", help="render a chart picture to SVG")
    p.add_argument("--graph", required=True)
    p.add_argument("--points", help="point-set CSV to draw")
    p.add_argument("--out", required=True)
    p.add_argument("--arrangement-depth", type=int, default=0, help="root depth (rank 3 only)")
    p.add_argument("--weights", action="store_true", help="mark fundamental weights")
    p.set_defaults(fn=cmd_plot)

    p = sub.add_parser("word-limit", help="limit root of a periodic infinite word")
    p.add_argument("--graph", required=True)
    p.add_argument("--prefix", default="", help="finite prefix word, e.g. 'u'")
    p.add_argument("--period", required=True, help="period word, e.g. 'stu'")
    p.set_defaults(fn=cmd_word_limit)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--graph", help="override the default graph (isotropy, density, sandwich)")
    p.add_argument("--depth", type=int, help="root depth budget (sandwich suite)")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, NotLorentzianError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
