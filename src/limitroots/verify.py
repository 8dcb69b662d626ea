"""Named verification suites driving machine-readable pass/fail reports.

Each suite returns a dict with a boolean "pass" plus the measured
quantities, so the CLI can emit JSON and exit nonzero on failure.
"""

import math

import numpy as np

from .arrangement import (
    IDENTITY_TOL,
    codim2_spacelike,
    fundamental_weights,
    intersection_equals_unimodular,
    pair_eigendata,
    pair_identity_residuals,
    roots_by_depth,
)
from .elements import element_of, enumerate_elements
from .geometry import make_system
from .limits import hausdorff, sample_limit_roots
from .projective import chart_distances, to_chart

SUITES = {}

# Largest accepted chart distance of w^k(x_minus + u) to its intersection.
SANDWICH_TOL = 1e-5
DENSITY_BUDGETS = ((2, 2), (4, 4), (6, 6))  # (core, conjugator) lengths, small first


def suite(name):
    def wrap(fn):
        SUITES[name] = fn
        return fn

    return wrap


@suite("spectra")
def verify_spectra():
    """Eigenvalues of the rank-5 counterexample element: 1 and 7 +/- 4*sqrt(3),
    the irrational pair with multiplicity two each."""
    sys = make_system("fig8")
    elem = element_of(sys, (0, 1, 3, 4))
    evals = np.sort_complex(np.linalg.eigvals(elem.matrix))
    expected = np.sort_complex(
        np.array(
            [7 - 4 * math.sqrt(3), 7 - 4 * math.sqrt(3), 1.0, 7 + 4 * math.sqrt(3), 7 + 4 * math.sqrt(3)]
        )
    )
    err = float(np.max(np.abs(evals - expected)))
    sig = sys.signature
    ok = err < 1e-8 and sig == (3, 2, 0)
    return {
        "pass": bool(ok),
        "signature": list(sig),
        "eigenvalues": [repr(complex(v)) for v in evals],
        "max_error": err,
        "tolerance": 1e-8,
    }


@suite("isotropy")
def verify_isotropy(sys=None):
    """Every sampled limit root sits on the isotropic cone inside the simplex."""
    sys = sys or make_system("universal3:1")
    store = enumerate_elements(sys, 5)
    ps = sample_limit_roots(sys, store, (2, 5), (0, 2))
    max_b = float(np.max(np.abs(ps.bnorm)))
    min_coord = float(ps.coords.min())
    max_coord = float(ps.coords.max())
    ok = max_b < 1e-7 and min_coord > -1e-9 and max_coord < 1 + 1e-9
    return {
        "pass": bool(ok),
        "points": len(ps),
        "max_abs_bnorm": max_b,
        "min_coord": min_coord,
        "max_coord": max_coord,
        "tolerances": {"bnorm": 1e-7, "hull": 1e-9},
    }


@suite("density")
def verify_density(sys=None):
    """Hausdorff distances to the largest budget shrink as the budget grows."""
    sys = sys or make_system("universal3:1")
    store = enumerate_elements(sys, max(map(max, DENSITY_BUDGETS)))
    sets = [sample_limit_roots(sys, store, (2, core), (0, conj)) for core, conj in DENSITY_BUDGETS]
    d_small = hausdorff(sets[0].coords, sets[2].coords)
    d_mid = hausdorff(sets[1].coords, sets[2].coords)
    ok = d_mid <= d_small
    return {
        "pass": bool(ok),
        "budgets": [list(b) for b in DENSITY_BUDGETS],
        "hausdorff_small_vs_large": d_small,
        "hausdorff_mid_vs_large": d_mid,
    }


@suite("sandwich")
def verify_sandwich(sys=None, depth=4):
    """Space-like arrangement intersections equal unimodular subspaces, and
    Case-2 orbits accumulate on them.

    The Case-2 base x_minus + u comes from the closed-form eigendata of the
    pairs that pass the angle test (``pair_eigendata``), and the orbit point
    w^k (x_minus + u) = lam^-k x_minus + u, k = max(1, ceil(24 / log10 lam)),
    must lie within SANDWICH_TOL of its intersection in the chart.  Its
    eigendata must also hold w u = u, w x_minus = x_minus / lam and
    w x_plus = lam x_plus (which catches a wrong lam) within IDENTITY_TOL
    (``pair_identity_residuals``); a pair failing either is a dynamics
    failure.  Comparing with one chart point needs rank 3."""
    sys = sys or make_system("universal3:1.1")
    if sys.rank != 3:
        raise ValueError(
            "the sandwich dynamics test needs rank 3 (1-dimensional intersections), "
            f"not rank {sys.rank}"
        )
    roots = roots_by_depth(sys, depth)
    cis = codim2_spacelike(sys, roots)
    intersections = cis[cis.space_like]
    verdicts, sines = intersection_equals_unimodular(sys, roots, intersections)
    passed = intersections[np.array(verdicts, bool)]
    e = pair_eigendata(sys, roots, passed.pairs)
    k = np.maximum(1, np.ceil(24.0 / np.log10(e.lam)))
    ends = e.lam[:, None] ** -k[:, None] * e.x_minus + e.u
    d = chart_distances(to_chart(ends), to_chart(passed.bases[:, :, 0]))
    identity = pair_identity_residuals(sys, e)
    n_fail_angle = len(intersections) - len(passed)
    n_fail_dyn = int(np.count_nonzero((d > SANDWICH_TOL) | ~(identity <= IDENTITY_TOL)))
    ok = n_fail_angle == 0 and n_fail_dyn == 0 and len(intersections) > 0
    return {
        "pass": bool(ok),
        "depth": depth,
        "roots": len(roots),
        "pairs": len(intersections),
        "angle_failures": n_fail_angle,
        "dynamics_failures": n_fail_dyn,
        "dynamics_steps": int(k.sum()),
        "worst_angle_sine": max((s for s in sines if not math.isnan(s)), default=0.0),
        "worst_dynamics_residual": float(d.max(initial=0.0)),
        "dynamics_tolerance": SANDWICH_TOL,
        "worst_identity_residual": float(identity.max(initial=0.0)),
        "identity_bound": IDENTITY_TOL,
    }


@suite("weights")
def verify_weights():
    """Dual-basis identity on all built-in graphs; the universal rank-3 weights
    are space-like and coincide with simple-pair arrangement intersections."""
    worst_identity = 0.0
    for name in ("fig1a", "fig1b", "fig8", "universal3:1", "universal3:1.1"):
        sys = make_system(name)
        W = fundamental_weights(sys)
        worst_identity = max(
            worst_identity, float(np.max(np.abs(sys.form @ W - np.eye(sys.rank))))
        )
    sys = make_system("universal3:1.1")
    weights = fundamental_weights(sys).T
    bnorms = [float(w @ sys.form @ w) for w in weights]
    points = to_chart(codim2_spacelike(sys, roots_by_depth(sys, 1)).bases[:, :, 0])
    matches = chart_distances(to_chart(weights)[:, None], points).min(axis=1).tolist()
    ok = (
        worst_identity < 1e-10
        and all(abs(b - 0.0396825396825) < 1e-6 for b in bnorms)
        and all(b > 0 for b in bnorms)
        and max(matches) < 1e-7
    )
    return {
        "pass": bool(ok),
        "identity_error": worst_identity,
        "weight_bnorms": bnorms,
        "intersection_match_distances": matches,
        "tolerances": {"identity": 1e-10, "bnorm": 1e-6, "match": 1e-7},
    }


def run_suite(name, **kwargs):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    return SUITES[name](**kwargs)
