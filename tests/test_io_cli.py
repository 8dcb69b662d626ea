"""CSV/JSON output, run manifests, SVG rendering, and the command line."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys as _sys
from collections import Counter

import numpy as np
import pytest

from limitroots import __version__, enumerate_elements, make_system, sample_limit_roots
from limitroots.arrangement import codim2_spacelike, roots_by_depth
from limitroots.cli import main
from limitroots.graphs import word_to_str
from limitroots.io import (
    RunManifest,
    format_floats,
    format_words,
    graph_hash,
    read_pointset_csv,
    write_pointset_csv,
    write_pointset_json,
)
from limitroots.limits import PointSet
from limitroots.projective import at_infinity, to_chart
from limitroots.svg import render_svg


@pytest.fixture(scope="module")
def sample(sys_u1_mod=None):
    sys = make_system("universal3:1")
    store = enumerate_elements(sys, 4)
    ps = sample_limit_roots(sys, store, (2, 4), (0, 2))
    return sys, ps


# ---------------------------------------------------------------------------
# files


def test_csv_round_trip(tmp_path, sample):
    sys, ps = sample
    path = tmp_path / "points.csv"
    write_pointset_csv(ps, str(path))
    back = read_pointset_csv(str(path), sys)
    assert len(back) == len(ps)
    np.testing.assert_array_equal(back.coords, ps.coords)
    assert back.counts_by_kind() == ps.counts_by_kind()


def test_csv_read_back_keeps_every_column(tmp_path, sample):
    sys, ps = sample
    path = tmp_path / "points.csv"
    write_pointset_csv(ps, str(path))
    back = read_pointset_csv(str(path), sys)
    assert back.dedup_eps == 0.0
    assert back.coords.tobytes() == ps.coords.tobytes()
    assert back.bnorm.tobytes() == ps.bnorm.tobytes()
    assert _provenance(back) == _provenance(ps)
    again = tmp_path / "again.csv"
    write_pointset_csv(back, str(again))
    assert again.read_bytes() == path.read_bytes()


def _provenance(ps):
    """(kind, source word, conjugator word) of each row of a point set."""
    return [
        (ps.kinds[k], ps.words[s], ps.words[c])
        for k, s, c in zip(ps.kind, ps.source, ps.conjugator)
    ]


def test_csv_header_names_coordinates(tmp_path, sample):
    sys, ps = sample
    path = tmp_path / "points.csv"
    write_pointset_csv(ps, str(path))
    with open(path) as fh:
        header = next(csv.reader(fh))
    assert header[:3] == ["x1", "x2", "x3"]
    assert "kind" in header and "bnorm" in header


def test_json_mirror_carries_metadata(tmp_path, sample):
    sys, ps = sample
    path = tmp_path / "points.json"
    write_pointset_json(ps, str(path), sys, {"core_lengths": [2, 4]})
    data = json.loads(path.read_text())
    assert len(data["points"]) == len(ps)
    assert data["metadata"]["budgets"]["core_lengths"] == [2, 4]
    assert data["metadata"]["graph"]["rank"] == 3


def _json_reference(ps, sys, budgets):
    """The standard library's indented encoding of the point set."""
    data = {
        "metadata": {
            "graph": json.loads(sys.graph.to_json()),
            "budgets": budgets,
            "dedup_eps": ps.dedup_eps,
            "version": __version__,
        },
        "points": [
            {
                "coords": coords.tolist(),
                "kind": kind,
                "source_word": word_to_str(source),
                "conjugator_word": word_to_str(conjugator),
                "bnorm": bnorm,
            }
            for coords, (kind, source, conjugator), bnorm in zip(
                ps.coords, _provenance(ps), ps.bnorm.tolist()
            )
        ],
    }
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def _fig1a_sample():
    sys = make_system("fig1a")
    ps = sample_limit_roots(sys, enumerate_elements(sys, 9), (3, 4), (1, 9))
    assert len(ps) == 4942
    return sys, ps, {"core_lengths": [3, 4], "conj_lengths": [1, 9]}


def _empty_set():
    sys = make_system("universal3:1")
    return sys, PointSet(np.empty((0, 3)), kinds=("hyperbolic-eig",), form=sys.form), {}


def _non_finite_rows():
    sys = make_system("universal3:1")
    coords = [[np.nan, 0.5, 0.5], [np.inf, -np.inf, 1e-300], [0.1, 0.2, 0.7]]
    ps = PointSet(
        coords,
        0.0,
        kinds=("orbit", "k\u00efnd \"quoted\""),
        kind=[0, 1, 1],
        words=[(), (0, 1, 2), (2, 1)],
        source=[1, 2, 0],
        conjugator=[0, 1, 2],
        bnorm=[np.nan, -np.inf, -0.0],
    )
    return sys, ps, {"note": "na\u00efve \"quoted\"\n", "eps": float("inf")}


def _quoted_non_ascii_labels():
    """The labels and budgets of ``_non_finite_rows`` on finite rows."""
    sys, ps, budgets = _non_finite_rows()
    coords = [[0.25, 0.25, 0.5], [1e-300, 0.5, 0.5], [0.1, 0.2, 0.7]]
    fields = {f: getattr(ps, f) for f in ("kinds", "kind", "words", "source", "conjugator")}
    return sys, PointSet(coords, 0.0, **fields, bnorm=[0.5, -1e-300, -0.0]), budgets


@pytest.mark.parametrize("case", [_fig1a_sample, _empty_set, _quoted_non_ascii_labels])
def test_json_writer_matches_the_standard_library(tmp_path, case):
    sys, ps, budgets = case()
    path = tmp_path / "points.json"
    write_pointset_json(ps, str(path), sys, budgets)
    assert path.read_bytes() == _json_reference(ps, sys, budgets).encode()


def test_json_writer_refuses_non_finite_rows(tmp_path):
    # JSON has no NaN or Infinity; two of the three rows hold one.
    sys, ps, budgets = _non_finite_rows()
    path = tmp_path / "points.json"
    with pytest.raises(ValueError, match=r"^2 point-set row\(s\) with a non-finite coordinate"):
        write_pointset_json(ps, str(path), sys, budgets, format_floats(ps))
    assert not path.exists()


def _csv_reference(ps, rank):
    """The point-set CSV as ``csv.writer`` writes it."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(
        [f"x{i + 1}" for i in range(rank)] + ["kind", "source_word", "conjugator_word", "bnorm"]
    )
    for coords, (kind, source, conjugator), bnorm in zip(
        ps.coords, _provenance(ps), ps.bnorm.tolist()
    ):
        writer.writerow(
            [repr(float(v)) for v in coords]
            + [kind, word_to_str(source), word_to_str(conjugator), repr(bnorm)]
        )
    return out.getvalue()


def _labels_needing_quotes():
    sys = make_system("universal3:1")
    kinds = ("a,b", 'say "hi"', "two\nlines", "cr\rhere", "plain", '",\r\n')
    ps = PointSet(
        np.full((len(kinds), 3), 1 / 3),
        0.0,
        kinds=kinds,
        kind=range(len(kinds)),
        words=[(), (0, 1)],
        source=[1] * len(kinds),
        form=sys.form,
    )
    return sys, ps, {}


@pytest.mark.parametrize(
    "case", [_fig1a_sample, _empty_set, _non_finite_rows, _labels_needing_quotes]
)
def test_csv_writer_matches_the_standard_library(tmp_path, case):
    sys, ps, _ = case()
    path = tmp_path / "points.csv"
    write_pointset_csv(ps, str(path))
    assert path.read_bytes() == _csv_reference(ps, sys.rank).encode()


@pytest.mark.parametrize("case", [_fig1a_sample, _quoted_non_ascii_labels])
def test_writers_share_one_formatting_pass(tmp_path, case):
    """``limit-roots --json`` formats the floats and spells the words once
    for both files; the bytes are those each writer makes on its own."""
    sys, ps, budgets = case()
    floats, words = format_floats(ps), format_words(ps)
    assert len(floats[0]) == len(floats[1]) == len(ps)
    assert len(words) == len(ps.words)
    for name, write in [
        ("csv", lambda path, *f: write_pointset_csv(ps, path, *f)),
        ("json", lambda path, *f: write_pointset_json(ps, path, sys, budgets, *f)),
    ]:
        alone, shared = tmp_path / f"alone.{name}", tmp_path / f"shared.{name}"
        write(str(alone))
        write(str(shared), floats, words)
        assert shared.read_bytes() == alone.read_bytes()


def test_package_never_loads_scipy(tmp_path):
    # scipy is a test oracle only: importing the package, enumerating,
    # classifying, limit-roots (dedup) and the density (hausdorff) and
    # sandwich suites run in a fresh interpreter without loading it.
    code = f"""
import sys
import limitroots, limitroots.cli, limitroots.verify
from limitroots import classify, enumerate_elements, make_system
fig1b = make_system("fig1b")
for elem in enumerate_elements(fig1b, 6):
    classify(fig1b, elem)
out = {str(tmp_path / "fig1a.csv")!r}
assert limitroots.cli.main(["limit-roots", "--graph", "fig1a", "--core-lengths", "3..4",
                            "--conj-lengths", "1..9", "--out", out]) == 0
assert limitroots.cli.main(["verify", "--suite", "density"]) == 0
assert limitroots.cli.main(["verify", "--suite", "sandwich", "--depth", "2"]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    import limitroots

    src = os.path.dirname(os.path.dirname(limitroots.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [_sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr


def test_manifest_digests_outputs(tmp_path, sample):
    """Each writer returns the SHA-256 of the bytes it wrote, and the
    manifest records it for the file."""
    sys, ps = sample
    out, js = tmp_path / "points.csv", tmp_path / "points.json"
    manifest = RunManifest(
        graph_hash=graph_hash(sys.graph),
        budgets={"core_lengths": [2, 4]},
        tolerances={"dedup_eps": 1e-6},
        command="limit-roots",
    )
    manifest.add_output(str(out), write_pointset_csv(ps, str(out)))
    manifest.add_output(str(js), write_pointset_json(ps, str(js), sys, {}))
    mpath = tmp_path / "m.json"
    manifest.write(str(mpath))
    data = json.loads(mpath.read_text())
    assert data["graph_hash"] == graph_hash(sys.graph)
    assert data["outputs"] == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, js)
    }


def test_graph_hash_distinguishes_graphs():
    a = graph_hash(make_system("universal3:1").graph)
    b = graph_hash(make_system("universal3:1.1").graph)
    assert a != b
    assert a == graph_hash(make_system("universal3:1").graph)


def test_svg_render(sample):
    sys, ps = sample
    svg = render_svg(sys, pointset=ps, show_weights=True)
    assert svg.lstrip().startswith("<svg") or "<svg" in svg[:200]
    assert "circle" in svg


def test_svg_draws_no_intersection_at_infinity():
    # Of the 180 intersections of the depth-3 roots of universal3:1, the
    # space-like pairs (st, ut), (su, tu) and (ts, us), with pairing -7,
    # meet at height 0: they have no chart point and no circle.
    sys = make_system("universal3:1")
    roots = roots_by_depth(sys, 3)
    cis = codim2_spacelike(sys, roots)
    far = [ci for ci, inf in zip(cis, at_infinity(to_chart([ci.basis[:, 0] for ci in cis]))) if inf]
    assert [tuple(word_to_str(roots.words[r]) for r in ci.pair) for ci in far] == [
        ("st", "ut"),
        ("su", "tu"),
        ("ts", "us"),
    ]
    assert [ci.pairing for ci in far] == [-7.0] * 3
    svg = render_svg(sys, roots=roots, intersections=cis)
    assert len(cis) == 180 and svg.count("<circle") == 177


# ---------------------------------------------------------------------------
# CLI


def test_cli_analyze(capsys):
    assert main(["analyze", "--graph", "universal3:1"]) == 0
    out = capsys.readouterr().out
    assert "Lorentzian" in out and "(2, 1, 0)" in out


def test_cli_unknown_graph_is_input_error(capsys):
    assert main(["analyze", "--graph", "no-such-graph"]) == 2
    assert "error:" in capsys.readouterr().err


_INF_EDGES = '{"i": 0, "j": 1, "m": "inf", "c": 1.1}, {"i": 1, "j": 2, "m": "inf", "c": 1.1}'


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"rank": "3"}', "rank must be an integer, got '3'"),
        ('{"rank": 3.5}', "rank must be an integer, got 3.5"),
        ('{"rank": true}', "rank must be an integer, got True"),
        ('{"rank": 3, "edges": 5}', "graph JSON 'edges' must be a list of objects, got 5"),
        ('{"rank": 3, "edges": [5]}', "graph JSON 'edges' must be a list of objects, got [5]"),
        ('{"rank": 3, "edges": [{"i": 0, "j": 1}]}', "it needs i, j and m"),
        ('{"rank": 3, "edges": [{"i": 0, "j": 1, "m": 2.5}]}', "label m_01 must be an integer, got 2.5"),
        ('{"rank": 3, "edges": [{"i": 0, "j": 1, "m": "3"}]}', "label m_01 must be an integer, got '3'"),
        ('{"rank": 3, "edges": [{"i": 0.7, "j": 1, "m": 3}]}', "edge index must be an integer, got 0.7"),
        ('{"rank": 3, "edges": [{"i": 0, "j": true, "m": 3}]}', "edge index must be an integer, got True"),
        ('{"rank": 3, "edges": [{"i": 0, "j": 2, "m": "inf", "c": "inf"}, %s]}' % _INF_EDGES,
         "c_02 must be finite and >= 1, got inf"),
        ('{"rank": 3, "edges": [{"i": 0, "j": 2, "m": "inf", "c": "nan"}, %s]}' % _INF_EDGES,
         "c_02 must be finite and >= 1, got nan"),
        ('{"rank": 3, "edges": [{"i": 0, "j": 2, "m": "inf", "c": NaN}, %s]}' % _INF_EDGES,
         "c_02 must be finite and >= 1, got nan"),
        ('{"rank": 3, "edges": [{"i": 0, "j": 2, "m": "inf", "c": [1]}]}',
         "c-parameter of edge (0, 2) is not a number"),
        ('{"rank": 2, "edges": [{"i": 0, "j": 1, "m": "inf", "c": true}]}',
         "c-parameter of edge (0, 1) is not a number, got True"),
        ('{"rank": 2, "edges": [{"i": 0, "j": 1, "m": 3, "c": 2}]}',
         "c-parameter on non-infinite edge (0, 1), m = 3"),
        ('{"rank": 3, "Edges": [{"i": 0, "j": 1, "m": "inf", "c": 1.1}]}',
         "graph JSON has unknown key 'Edges'; known: edges, rank"),
        ('{"rank": 3, "edges": [{"i": 0, "j": 1, "m": 3, "C": 2}]}',
         "has unknown key 'C'; known: c, i, j, m"),
        ('{"rank": 2, "edges": [{"i": 0, "j": 1, "m": 3, "m": "inf", "c": 1.1}]}',
         "graph JSON repeats key 'm' in one object"),
        ('{"rank": 2, "rank": 3, "edges": []}', "graph JSON repeats key 'rank' in one object"),
    ],
    ids=["rank-str", "rank-float", "rank-bool", "edges-int", "edge-int", "no-m", "m-float",
         "m-str", "i-float", "j-bool", "c-inf", "c-nan", "c-nan-literal", "c-list", "c-bool",
         "c-on-finite-edge", "unknown-graph-key", "unknown-edge-key", "repeated-edge-key",
         "repeated-graph-key"],
)
def test_cli_analyze_refuses_a_malformed_graph(tmp_path, capsys, text, message):
    """A malformed graph file is an input error (exit 2, one ``error:``
    line), never a traceback, a silently truncated number or an infinite c."""
    graph = tmp_path / "bad.json"
    graph.write_text(text)
    assert main(["analyze", "--graph", str(graph)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_cli_analyze_names_an_unparsable_builtin_graph(capsys):
    assert main(["analyze", "--graph", "dihedral:x"]) == 2
    assert capsys.readouterr().err == "error: cannot parse builtin graph name 'dihedral:x'\n"


def test_cli_limit_roots_writes_outputs(tmp_path, capsys):
    out = tmp_path / "pts.csv"
    code = main(
        [
            "limit-roots",
            "--graph",
            "universal3:1",
            "--core-lengths",
            "2..4",
            "--conj-lengths",
            "0..2",
            "--out",
            str(out),
            "--json",
            str(tmp_path / "pts.json"),
        ]
    )
    assert code == 0
    assert out.exists()
    assert (tmp_path / "pts.json").exists()
    manifest = json.loads((tmp_path / "pts.csv.manifest.json").read_text())
    assert manifest["command"] == "limit-roots"
    assert manifest["outputs"] == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (out, tmp_path / "pts.json")
    }
    assert "points" in capsys.readouterr().out


def _row_words(ps):
    return [(ps.words[i], ps.words[j]) for i, j in zip(ps.source, ps.conjugator)]


def test_cli_limit_roots_spells_generators_past_the_alphabet_as_indices(tmp_path, capsys):
    """Rank 27: a word with generator 26 is written as dot-separated indices,
    which the CSV reader reads back as the same word."""
    out = tmp_path / "pts.csv"
    args = ["limit-roots", "--graph", "universal27:1", "--core-lengths", "2..2"]
    assert main(args + ["--conj-lengths", "0..0", "--out", str(out)]) == 0
    sys = make_system("universal27:1")
    want = sample_limit_roots(sys, enumerate_elements(sys, 2), (2, 2), (0, 0))
    got = read_pointset_csv(out, sys)
    assert (0, 26) in want.words
    assert _row_words(got) == _row_words(want)
    assert (tmp_path / "pts.csv.manifest.json").exists()


@pytest.mark.parametrize("eps", ["-1", "0", "nan", "inf"])
def test_cli_limit_roots_rejects_a_dedup_eps_not_finite_and_positive(tmp_path, eps, capsys):
    out = tmp_path / "pts.csv"
    args = ["limit-roots", "--graph", "universal3:1", "--core-lengths", "2..3"]
    args += ["--conj-lengths", "0..2", f"--dedup-eps={eps}", "--out", str(out)]
    assert main(args + ["--json", str(tmp_path / "pts.json")]) == 2
    value = float(eps)
    assert capsys.readouterr().err == f"error: dedup eps must be finite and positive, got {value!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_limit_roots_rejects_non_lorentzian(tmp_path, capsys):
    code = main(
        [
            "limit-roots",
            "--graph",
            "a3",
            "--core-lengths",
            "2..2",
            "--conj-lengths",
            "0..0",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2


def test_cli_word_limit(capsys):
    assert main(["word-limit", "--graph", "universal3:1", "--period", "st"]) == 0
    out = capsys.readouterr().out
    assert "0.500000000" in out
    assert "parabolic" in out


def test_cli_word_limit_non_reduced(capsys):
    code = main(
        ["word-limit", "--graph", "universal3:1", "--prefix", "s", "--period", "st"]
    )
    assert code == 2


def test_cli_plot(tmp_path):
    out = tmp_path / "pic.svg"
    code = main(
        [
            "plot",
            "--graph",
            "universal3:1.1",
            "--out",
            str(out),
            "--arrangement-depth",
            "2",
            "--weights",
        ]
    )
    assert code == 0
    assert "<svg" in out.read_text()[:200]


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty point-set CSV"),
        ("x0,x1,x2\n0.3,0.3,0.4\n", "a point-set row has fewer than 7 fields"),
        (
            "x1,x2,x3,kind,source_word,conjugator_word,bnorm\n"
            "0.3,0.3,0.4,orbit,,,0.0\n1.0,-1.0,0.0,orbit,,,0.0\n0.3,0.3,nan,orbit,,,0.0\n",
            "2 point-set row(s) with coordinates not summing to 1 within 1e-6",
        ),
    ],
)
def test_cli_plot_rejects_a_malformed_points_file(tmp_path, capsys, text, message):
    points = tmp_path / "points.csv"
    points.write_text(text)
    out = tmp_path / "pic.svg"
    assert main(["plot", "--graph", "universal3:1", "--points", str(points), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {points}: {message}\n"
    assert not out.exists()


def test_cli_plot_rejects_a_negative_arrangement_depth(tmp_path, capsys):
    out = tmp_path / "pic.svg"
    args = ["plot", "--graph", "universal3:1", "--arrangement-depth", "-3", "--out", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err == "error: --arrangement-depth must be at least 0, got -3\n"
    assert not out.exists()


def test_cli_plot_rejects_an_arrangement_depth_outside_rank_3(tmp_path, capsys):
    out = tmp_path / "pic.svg"
    assert main(["plot", "--graph", "fig1b", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    out.unlink()
    assert main(["plot", "--graph", "fig1b", "--arrangement-depth", "4", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --arrangement-depth draws rank 3 only; the graph has rank 4\n"
    assert not out.exists()


def test_cli_verify_suite(capsys):
    assert main(["verify", "--suite", "spectra"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True


def test_cli_verify_rejects_depth_below_one(capsys):
    assert main(["verify", "--suite", "sandwich", "--depth", "0"]) == 2
    captured = capsys.readouterr()
    assert "--depth must be at least 1" in captured.err
    assert captured.out == ""


def test_cli_sandwich_refuses_rank_4_before_any_work(capsys, monkeypatch):
    import limitroots.verify

    def unreachable(*args, **kwargs):
        raise AssertionError("roots formed before the rank check")

    monkeypatch.setattr(limitroots.verify, "roots_by_depth", unreachable)
    assert main(["verify", "--suite", "sandwich", "--graph", "fig1b"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: the sandwich dynamics test needs rank 3 "
        "(1-dimensional intersections), not rank 4\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize(
    "suite, flag, value",
    [
        ("spectra", "--depth", "7"),
        ("weights", "--graph", "fig1a"),
        ("spectra", "--graph", "universal3:1"),
    ],
)
def test_cli_verify_rejects_flags_the_suite_does_not_take(suite, flag, value, capsys):
    assert main(["verify", "--suite", suite, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: suite {suite!r} does not take {flag}\n"
    assert captured.out == ""


def test_cli_bad_length_range(tmp_path):
    code = main(
        [
            "limit-roots",
            "--graph",
            "universal3:1",
            "--core-lengths",
            "nope",
            "--conj-lengths",
            "0..0",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2


@pytest.mark.parametrize("lengths", ["5..3", "-1..2", "-2"])
def test_cli_rejects_reversed_or_negative_length_range(tmp_path, lengths, capsys):
    out = tmp_path / "x.csv"
    code = main(
        ["limit-roots", "--graph", "fig1a", f"--core-lengths={lengths}", "--conj-lengths", "0..0"]
        + ["--out", str(out)]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: length range {lengths!r} must have 0 <= a <= b\n"
    assert not out.exists()


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # With c = 50, 48 elements of length 10 have entries near 1e20: the
    # trace bound passes x - 2, M - M^-1 is too large for an involution
    # (1.7e-8 |M|_F) and below the Jordan test's rank threshold, so classify
    # raises a NumericalError that says so.
    code = main(
        [
            "limit-roots",
            "--graph",
            "universal3:50",
            "--core-lengths",
            "10..10",
            "--conj-lengths",
            "0..0",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 3
    assert capsys.readouterr().err == "error: eigenvector span has dimension 3, expected 1\n"


def test_cli_samples_deep_parabolic_cores(tmp_path, capsys):
    """universal3:1 at core length 12: all 96 parabolic directions among the
    6,030 points (the eigenspace kernels once refused some of its 192
    parabolic elements, and the command exited 3)."""
    out = tmp_path / "u12.csv"
    code = main(
        ["limit-roots", "--graph", "universal3:1", "--core-lengths", "12..12"]
        + ["--conj-lengths", "0..0", "--out", str(out)]
    )
    assert code == 0
    assert "6030 points (hyperbolic-eig: 5934, parabolic-eig: 96)" in capsys.readouterr().out
    with open(out, newline="") as fh:
        kinds = Counter(row["kind"] for row in csv.DictReader(fh))
    assert kinds == {"hyperbolic-eig": 5934, "parabolic-eig": 96}
