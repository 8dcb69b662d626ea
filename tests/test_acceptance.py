"""Acceptance criteria for the limit-root computation, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) along with the measured quantities and the pinned tolerance.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from limitroots import (
    PeriodicWord,
    classify,
    element_of,
    enumerate_elements,
    fundamental_weights,
    hausdorff,
    make_system,
    power_dynamics,
    sample_limit_roots,
    to_chart,
    word_limit_root,
)
from limitroots.limits import KIND_HYPERBOLIC, KIND_PARABOLIC
from limitroots.projective import chart_distances, light_conic, timelike_center
from limitroots.spectral import Kind
from limitroots.verify import run_suite


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num} ({name}): {detail}")
    return ok


@pytest.fixture(scope="module")
def u1():
    return make_system("universal3:1")


@pytest.fixture(scope="module")
def u1_store8(u1):
    return enumerate_elements(u1, 8)


def test_criterion_1_counterexample_spectra():
    """Rank-5 graph: signature (3,2); element 0-1-3-4 has eigenvalues
    {1, 7+4*sqrt(3) (x2), 7-4*sqrt(3) (x2)} within 1e-8, in under a second."""
    t0 = time.perf_counter()
    sys5 = make_system("fig8")
    elem = element_of(sys5, (0, 1, 3, 4))
    evals = np.sort(np.linalg.eigvals(elem.matrix).real)
    top = 7 + 4 * math.sqrt(3)
    expected = np.array([1 / top, 1 / top, 1.0, top, top])
    err = float(np.max(np.abs(evals - expected)))
    elapsed = time.perf_counter() - t0
    ok = sys5.signature == (3, 2, 0) and err < 1e-8 and elapsed < 1.0
    assert _report(
        1,
        "counterexample spectra",
        ok,
        f"signature={sys5.signature}, max eigenvalue error={err:.2e} (tol 1e-8), "
        f"runtime={elapsed:.3f}s (< 1 s)",
    )


def test_criterion_2_figure_counts(u1):
    """Rank-3 universal c=1, length <= 6: 12 parabolic eigendirections and 126
    hyperbolic ones (one per hyperbolic element; the deduplicated point set has
    120 members because the six length-3 elements share axes with their own
    squares), stable across dedup_eps in {1e-8, 1e-6, 1e-4}, within 10 s."""
    t0 = time.perf_counter()
    store = enumerate_elements(u1, 6)
    census = Counter(classify(u1, e).kind for e in store)
    n_hyp_elements = census[Kind.HYPERBOLIC]
    par_counts = []
    hyp_distinct = []
    for eps in (1e-8, 1e-6, 1e-4):
        counts = sample_limit_roots(u1, store, (2, 6), (0, 0), eps).counts_by_kind()
        par_counts.append(counts[KIND_PARABOLIC])
        hyp_distinct.append(counts[KIND_HYPERBOLIC])
    elapsed = time.perf_counter() - t0
    ok = (
        par_counts == [12, 12, 12]
        and n_hyp_elements == 126
        and len(set(hyp_distinct)) == 1
        and hyp_distinct[0] == 120
        and elapsed < 10.0
    )
    assert _report(
        2,
        "figure-4 counts",
        ok,
        f"parabolic={par_counts} (want 12), hyperbolic per-element={n_hyp_elements} "
        f"(want 126), distinct point set={hyp_distinct} (120, eps-stable), "
        f"runtime={elapsed:.2f}s (< 10 s)",
    )


def test_criterion_3_isotropy_and_hull():
    """Every sampled limit root has |B(x,x)| < 1e-7 and sits inside the
    simplex hull within 1e-9, on both universal systems and both rank-4 graphs."""
    worst_b = 0.0
    worst_low = 0.0
    worst_high = 1.0
    budgets = {
        "universal3:1": ((2, 5), (0, 3), 5),
        "universal3:1.1": ((2, 5), (0, 3), 5),
        "fig1a": ((3, 4), (0, 3), 4),
        "fig1b": ((2, 4), (0, 3), 4),
    }
    for name, (core, conj, depth) in budgets.items():
        sys = make_system(name)
        store = enumerate_elements(sys, depth)
        ps = sample_limit_roots(sys, store, core, conj)
        assert len(ps) > 0, name
        worst_b = max(worst_b, float(np.abs(ps.bnorm).max()))
        worst_low = min(worst_low, float(ps.coords.min()))
        worst_high = max(worst_high, float(ps.coords.max()))
    ok = worst_b < 1e-7 and worst_low > -1e-9 and worst_high < 1 + 1e-9
    assert _report(
        3,
        "isotropy and hull",
        ok,
        f"max |B(x,x)|={worst_b:.2e} (tol 1e-7), coordinate range "
        f"[{worst_low:.2e}, {worst_high:.10f}] (within [0,1] +/- 1e-9)",
    )


def test_criterion_4_density(u1, u1_store8):
    """Hausdorff distance to the budget-(6,6) sample shrinks from budget (2,2)
    to budget (4,4); parabolic and hyperbolic sets at budget 8 are within 0.15."""
    sets = {
        b: sample_limit_roots(u1, u1_store8, (2, b), (0, b)) for b in (2, 4, 6)
    }
    d_small = hausdorff(sets[2].coords, sets[6].coords)
    d_mid = hausdorff(sets[4].coords, sets[6].coords)
    ps8 = sample_limit_roots(u1, u1_store8, (2, 8), (0, 0))
    par8 = ps8.coords[ps8.kind == ps8.kinds.index(KIND_PARABOLIC)]
    hyp8 = ps8.coords[ps8.kind == ps8.kinds.index(KIND_HYPERBOLIC)]
    d_kinds = hausdorff(par8, hyp8)
    ok = d_mid <= d_small and d_kinds <= 0.15
    assert _report(
        4,
        "density",
        ok,
        f"d(budget 4, budget 6)={d_mid:.4f} <= d(budget 2, budget 6)={d_small:.4f}; "
        f"parabolic/hyperbolic Hausdorff at budget 8 = {d_kinds:.4f} (<= 0.15)",
    )


def test_criterion_5_sandwich():
    """Every space-like pair up to depth 5 on universal3:1.1: the projective
    intersection equals the unimodular subspace (angle < 1e-7) and the
    Case-2 point w^k(x_minus + u) lies on it within 1e-5; the worst distance
    stays below 1e-10."""
    report = run_suite("sandwich", depth=5)
    ok = report["pass"] and report["worst_dynamics_residual"] < 1e-10
    assert _report(
        5,
        "sandwich lower bound",
        ok,
        f"{report['pairs']} space-like pairs, angle failures="
        f"{report['angle_failures']}, dynamics failures={report['dynamics_failures']}, "
        f"worst accumulation residual={report['worst_dynamics_residual']:.2e} "
        "(tol 1e-5, expected < 1e-10)",
    )


def test_criterion_6_base_point_independence(u1, u1_store8):
    """100 random hyperbolic elements of length <= 8, 10 bases each (time-like,
    space-like with nonzero obstruction, light-like): power-iteration limits
    agree pairwise within 1e-6."""
    rng = np.random.default_rng(0)
    hyp = []
    for e in u1_store8.with_length(3, 8):
        sc = classify(u1, e)
        if sc.kind is Kind.HYPERBOLIC:
            hyp.append((e, sc))
    idx = rng.choice(len(hyp), size=100, replace=False)
    conic = light_conic(u1, resolution=64)
    center = timelike_center(u1)
    worst = 0.0
    for i in idx:
        elem, sc = hyp[i]
        _, _, x_minus = sc.dominant
        bases = []
        while len(bases) < 10:
            style = len(bases) % 3
            if style == 0:  # time-like: jitter around the chart center
                v = center + 0.2 * rng.standard_normal(3)
                if v @ u1.form @ v >= 0:
                    continue
            elif style == 1:  # space-like
                v = rng.standard_normal(3)
                if v @ u1.form @ v <= 0:
                    continue
            else:  # light-like: a random conic point
                v = conic[rng.integers(len(conic))]
            # Obstruction coefficient along the attracting direction.
            if abs(v @ u1.form @ x_minus) < 1e-3 * np.linalg.norm(v):
                continue
            bases.append(v)
        limits = np.array([power_dynamics(u1, elem, v, 60)[-1] for v in bases])
        spread = float(chart_distances(limits[:, None], limits).max())
        worst = max(worst, spread)
    ok = worst < 1e-6
    assert _report(
        6,
        "base-point independence",
        ok,
        f"100 elements x 10 bases, worst pairwise limit spread={worst:.2e} (tol 1e-6)",
    )


def test_criterion_7_weights():
    """Dual-basis identity to 1e-10 on all built-in graphs; universal3:1.1
    weights space-like with B(w,w) = 0.039683 +/- 1e-6, each on a sampled
    space-like intersection within 1e-7."""
    report = run_suite("weights")
    ok = report["pass"]
    assert _report(
        7,
        "weights",
        ok,
        f"identity error={report['identity_error']:.2e} (tol 1e-10), "
        f"B(w,w)={report['weight_bnorms'][0]:.9f} (0.039683 +/- 1e-6), "
        f"worst intersection match={max(report['intersection_match_distances']):.2e} (tol 1e-7)",
    )


def test_criterion_8_infinite_word_limits(u1):
    """Period stu: eigenvalue 9+4*sqrt(5) within 1e-8 and orbit agreement within
    1e-6; periods st and ts give the identical point (1/2, 1/2, 0)."""
    res = word_limit_root(u1, PeriodicWord(prefix=(), period=(0, 1, 2)))
    lam_err = abs(res.eigenvalue - (9 + 4 * math.sqrt(5)))
    st = word_limit_root(u1, PeriodicWord(prefix=(), period=(0, 1)))
    ts = word_limit_root(u1, PeriodicWord(prefix=(), period=(1, 0)))
    midpoint_err = float(np.max(np.abs(st.point - [0.5, 0.5, 0.0])))
    st_ts = float(chart_distances(st.point, ts.point))
    ok = (
        res.kind is Kind.HYPERBOLIC
        and lam_err < 1e-8
        and res.orbit_residual < 1e-6
        and midpoint_err < 1e-9
        and st_ts < 1e-12
    )
    assert _report(
        8,
        "infinite-word limits",
        ok,
        f"stu eigenvalue error={lam_err:.2e} (tol 1e-8), orbit residual="
        f"{res.orbit_residual:.2e} (tol 1e-6), st/ts midpoint error={midpoint_err:.2e}, "
        f"st-ts distance={st_ts:.2e}",
    )


def test_criterion_9_rank4_reproductions():
    """Rank-4 constructions: cores 3..4 with conjugators 1..9 (chain graph) and
    cores 2..4 with conjugators 1..5 (dense graph); point counts stable across
    dedup_eps in [1e-8, 1e-5].  The published counts (30080 and 28019) are soft
    targets and are reported for comparison."""
    t0 = time.perf_counter()
    results = {}
    for name, core, conj, soft in (
        ("fig1a", (3, 4), (1, 9), 30080),
        ("fig1b", (2, 4), (1, 5), 28019),
    ):
        sys = make_system(name)
        store = enumerate_elements(sys, max(core[1], conj[1]))
        counts = [
            len(sample_limit_roots(sys, store, core, conj, eps))
            for eps in (1e-8, 1e-6, 1e-5)
        ]
        results[name] = (counts, soft)
    elapsed = time.perf_counter() - t0
    ok = all(len(set(counts)) == 1 for counts, _ in results.values()) and elapsed < 600
    detail = "; ".join(
        f"{name}: counts={counts} (eps-stable), published {soft}"
        for name, (counts, soft) in results.items()
    )
    assert _report(9, "rank-4 reproductions", ok, f"{detail}; runtime={elapsed:.1f}s (< 600 s)")
